//! Pluggable node persistence: the in-memory backend and a crash-safe
//! write-ahead log (DESIGN.md §10).
//!
//! The paper's protocol is safe only if a node that answers a request can
//! be trusted to still *know* about it after a restart — the recentlist,
//! epoch, lock mode, and reconstruction set are what §4's recovery
//! reasoning leans on, not just the block payload. [`Persistence`]
//! abstracts that durability contract behind the node:
//!
//! * [`InMemoryPersistence`] — the original node: nothing survives, a
//!   restart is indistinguishable from data loss (full rebuild required).
//! * [`WalBackend`] — a file-backed write-ahead log that journals every
//!   state-mutating request (payload *and* protocol metadata, since the
//!   node state machine is deterministic) and replays it on restart.
//!
//! The WAL is a **logical request log**: rather than serializing the
//! per-stripe [`BlockState`](crate::BlockState) maps, it records the
//! requests (and node-side events: client-failure expiry, fail-remap)
//! that produced them, in shard-conflict order. Replaying the log through
//! a fresh node reproduces every durable fact — block bytes, recentlist /
//! oldlist, epoch, op/lock modes, recons_set, swap-reply dedup state —
//! because the node is a pure state machine. Read-only requests (`read`,
//! `get_state`, `probe`, `checktid`) advance only the node's logical
//! clock and are not journaled; the clock is monitoring state, not
//! protocol state.
//!
//! Group commit: appends are buffered in memory while shard locks are
//! held; [`Persistence::commit`] writes and fsyncs the whole buffer once
//! per node round trip, so an m-operation batch costs one fsync, the same
//! shape as the §3.11 one-round-trip batching.
//!
//! Power-loss testing: [`Persistence::power_fail_at`] arms a byte offset
//! at which the *next* commit tears — everything before the offset
//! reaches the medium, everything after (possibly mid-record) is lost,
//! and the backend refuses further work, exactly like a machine losing
//! power mid-write. Replay detects the torn tail by CRC and truncates to
//! the last complete record.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::indexing_slicing))]

use crate::node::{decode_request, encode_request, Request};
use crate::types::{ClientId, Epoch, LMode, StripeId, Tid};
use ajx_gf::kernel::crc32c;
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Which persistence backend a node (or a whole network of nodes) uses.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum PersistMode {
    /// Pure in-memory node: restarts lose everything (the original
    /// behavior, and still the default).
    #[default]
    InMemory,
    /// Write-ahead-logged nodes: each node journals to
    /// `<dir>/node-<id>.wal` and can be restarted with its disk.
    Wal {
        /// Directory holding one WAL file per node.
        dir: PathBuf,
    },
}

/// One durable event in the journal. `Apply` covers every state-mutating
/// request (batches are one record: they execute atomically, so they must
/// recover atomically — written as their leaves in order, whatever the
/// nesting they arrived in); the other two are node-side events that
/// mutate protocol state without a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A state-mutating [`Request`] the node executed.
    Apply(Request),
    /// Fail-stop detector notification: expire this client's recovery
    /// locks (Fig. 6 line 34).
    ClientFailure(ClientId),
    /// §3.5 directory remap onto a fresh (garbage) disk. Always the first
    /// record of a journal: remap replaces the medium, so the WAL is
    /// truncated before this is written.
    FailRemap(u8),
}

/// Borrowed form of [`WalRecord`] for the append path, so journaling a
/// request costs no clone (the in-memory backend drops it untouched).
#[derive(Debug, Clone, Copy)]
pub enum WalRecordRef<'a> {
    /// See [`WalRecord::Apply`].
    Apply(&'a Request),
    /// See [`WalRecord::ClientFailure`].
    ClientFailure(ClientId),
    /// See [`WalRecord::FailRemap`].
    FailRemap(u8),
}

/// Counters a backend exposes for the durability bench and tooling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Commits that reached the medium (fsyncs issued).
    pub fsyncs: u64,
    /// Records appended since creation (including uncommitted ones).
    pub records: u64,
    /// Bytes currently durable on the medium.
    pub durable_bytes: u64,
}

/// The durability contract behind a storage node. All methods take
/// `&self`: the backend is shared by the node's worker threads and does
/// its own locking.
pub trait Persistence: Send + Sync + std::fmt::Debug {
    /// Whether a restart can recover state from this backend. `false`
    /// means "restart-with-disk" degenerates to "wipe-and-rebuild".
    fn is_durable(&self) -> bool;

    /// Journals one record. Called while the shard locks covering the
    /// record's stripes are held, so the journal order is a valid
    /// linearization of the node's execution order.
    fn append(&self, rec: WalRecordRef<'_>);

    /// Flushes buffered records to the medium (one fsync — group commit).
    /// Returns `false` if the backend has power-failed: the caller must
    /// treat every acknowledgement covered by this commit as lost.
    fn commit(&self) -> bool;

    /// Whether an armed power failure has tripped (the node is "off").
    fn tripped(&self) -> bool;

    /// Arms a simulated power failure: the commit that would push the
    /// durable length past `offset` bytes tears there instead.
    fn power_fail_at(&self, offset: u64);

    /// Reads the journal back, truncating any torn tail, and clears the
    /// tripped state (the machine rebooted). `None` = nothing durable
    /// here (in-memory backend).
    fn replay(&self) -> Option<Vec<WalRecord>>;

    /// Discards the journal (the medium was replaced — §3.5 remap).
    /// Also clears any armed/tripped power-failure state.
    fn truncate(&self);

    /// Durability counters for benches and tooling.
    fn stats(&self) -> PersistStats;
}

/// The no-op backend: the original pure in-memory node.
#[derive(Debug, Default, Clone, Copy)]
pub struct InMemoryPersistence;

impl Persistence for InMemoryPersistence {
    fn is_durable(&self) -> bool {
        false
    }
    fn append(&self, _rec: WalRecordRef<'_>) {}
    fn commit(&self) -> bool {
        true
    }
    fn tripped(&self) -> bool {
        false
    }
    fn power_fail_at(&self, _offset: u64) {}
    fn replay(&self) -> Option<Vec<WalRecord>> {
        None
    }
    fn truncate(&self) {}
    fn stats(&self) -> PersistStats {
        PersistStats::default()
    }
}

/// File-backed write-ahead log. Records are framed
/// `[len: u32][crc: u32][payload]`, little-endian, CRC-32C
/// ([`ajx_gf::kernel::crc32c`]) over the payload; replay stops at the
/// first frame that is incomplete or fails its CRC and truncates the file
/// there (torn-tail recovery).
#[derive(Debug)]
pub struct WalBackend {
    path: PathBuf,
    inner: Mutex<WalInner>,
    /// A power failure tripped; the node is off until `replay`. Written
    /// only while `inner` is locked, read without it: the transport asks
    /// after every request, reads included, and must not queue behind a
    /// commit's fsync to be answered.
    tripped: AtomicBool,
}

/// Bytes of frame header, `[len: u32][crc: u32]`.
const FRAME_HEADER: usize = 8;

/// Group-commit buffer capacity kept from one commit to the next. Sized
/// for the deferred policy, whose buffer holds everything appended between
/// two flushes: regrowing tens of megabytes after each one (doubling
/// copies, fresh pages) costs more per append than the checksum does.
const RETAINED_BUF_CAPACITY: usize = 64 << 20;

#[derive(Debug)]
struct WalInner {
    file: File,
    /// Appended-but-uncommitted frames (group-commit buffer).
    buf: Vec<u8>,
    /// Bytes known durable on the medium.
    durable_len: u64,
    /// Armed power-failure byte offset, if any.
    armed: Option<u64>,
    fsyncs: u64,
    records: u64,
}

impl WalBackend {
    /// Creates (truncating) the journal at `path` — a fresh disk.
    pub fn create(path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        if let Some(parent) = path.parent() {
            #[expect(
                clippy::expect_used,
                reason = "setup path — runs at node construction before any request is served; \
                          a node that cannot create its journal cannot start"
            )]
            std::fs::create_dir_all(parent).expect("create WAL directory");
        }
        #[expect(clippy::expect_used, reason = "setup path, as above")]
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .expect("create WAL file");
        WalBackend {
            path,
            inner: Mutex::new(WalInner {
                file,
                buf: Vec::new(),
                durable_len: 0,
                armed: None,
                fsyncs: 0,
                records: 0,
            }),
            tripped: AtomicBool::new(false),
        }
    }

    /// The journal's path on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Persistence for WalBackend {
    fn is_durable(&self) -> bool {
        true
    }

    fn append(&self, rec: WalRecordRef<'_>) {
        let mut inner = self.inner.lock();
        if self.tripped() {
            // The machine is off: nothing further reaches the journal.
            return;
        }
        // One pass: the record is encoded where it will be written from,
        // behind a header that is filled in once the payload exists.
        let frame_at = inner.buf.len();
        inner.buf.extend_from_slice(&[0; FRAME_HEADER]);
        encode_record(&mut inner.buf, rec);
        let frame = inner.buf.get_mut(frame_at..).unwrap_or_default();
        let Some((header, payload)) = frame.split_at_mut_checked(FRAME_HEADER) else {
            return;
        };
        let (len, crc) = header.split_at_mut(4);
        len.copy_from_slice(&(payload.len() as u32).to_le_bytes());
        crc.copy_from_slice(&crc32c(payload).to_le_bytes());
        inner.records += 1;
    }

    fn commit(&self) -> bool {
        let mut guard = self.inner.lock();
        if self.tripped() {
            return false;
        }
        let inner = &mut *guard;
        if inner.buf.is_empty() {
            // Nothing mutated since the last commit: no fsync charged —
            // reads are free on the write-ahead path.
            return true;
        }
        let pending = inner.buf.len() as u64;
        if let Some(offset) = inner.armed {
            if inner.durable_len + pending >= offset {
                // Power dies mid-write: bytes before the armed offset
                // land (unsynced writes often do), the rest — possibly a
                // torn half-record — never reaches the platter, and the
                // machine is off.
                let keep = offset.saturating_sub(inner.durable_len).min(pending) as usize;
                let landed = inner.buf.get(..keep).unwrap_or_default();
                // A write error here changes nothing: the machine is going
                // down either way.
                let _ = inner.file.write_all(landed);
                let _ = inner.file.flush();
                inner.buf.clear();
                inner.armed = None;
                self.tripped.store(true, Ordering::SeqCst);
                return false;
            }
        }
        let landed = inner.file.write_all(&inner.buf).is_ok() && inner.file.sync_data().is_ok();
        // Emptied, not dropped: the next round of appends reuses it.
        inner.buf.clear();
        inner.buf.shrink_to(RETAINED_BUF_CAPACITY);
        if !landed {
            // A real media error is indistinguishable from power loss at
            // the protocol level: trip the backend so the node presents as
            // off (§3.5 recovery replaces it) instead of panicking inside
            // a request.
            self.tripped.store(true, Ordering::SeqCst);
            return false;
        }
        inner.durable_len += pending;
        inner.fsyncs += 1;
        true
    }

    fn tripped(&self) -> bool {
        self.tripped.load(Ordering::SeqCst)
    }

    fn power_fail_at(&self, offset: u64) {
        self.inner.lock().armed = Some(offset);
    }

    fn replay(&self) -> Option<Vec<WalRecord>> {
        let mut inner = self.inner.lock();
        inner.buf.clear();
        // Any I/O error on the replay path means the journal is unreadable:
        // report "not durable" (`None`) and the caller wipes and rebuilds
        // through the §3.5 recovery protocol instead of panicking mid-restart.
        if inner.file.seek(SeekFrom::Start(0)).is_err() {
            return None;
        }
        let mut bytes = Vec::new();
        if inner.file.read_to_end(&mut bytes).is_err() {
            return None;
        }
        let (records, at) = decode_journal(&bytes);
        // Truncate the torn tail so future appends extend a clean log.
        if inner.file.set_len(at as u64).is_err() || inner.file.seek(SeekFrom::End(0)).is_err() {
            return None;
        }
        inner.durable_len = at as u64;
        inner.records = records.len() as u64;
        inner.armed = None;
        self.tripped.store(false, Ordering::SeqCst);
        Some(records)
    }

    fn truncate(&self) {
        let mut inner = self.inner.lock();
        // An I/O failure while wiping means the medium is gone: trip the
        // backend so the node presents as off rather than half-wiped.
        if inner.file.set_len(0).is_err()
            || inner.file.seek(SeekFrom::Start(0)).is_err()
            || inner.file.sync_data().is_err()
        {
            self.tripped.store(true, Ordering::SeqCst);
            return;
        }
        inner.buf.clear();
        inner.durable_len = 0;
        inner.records = 0;
        inner.armed = None;
        self.tripped.store(false, Ordering::SeqCst);
    }

    fn stats(&self) -> PersistStats {
        let inner = self.inner.lock();
        PersistStats {
            fsyncs: inner.fsyncs,
            records: inner.records,
            durable_bytes: inner.durable_len,
        }
    }
}

/// A fresh per-process scratch directory under the system temp dir, for
/// WAL-backed tests, simulators, and benches. The caller owns cleanup.
pub fn scratch_dir(tag: &str) -> PathBuf {
    scratch_under(std::env::temp_dir(), tag)
}

/// Like [`scratch_dir`], but prefers the RAM-backed `/dev/shm` when the
/// platform provides one. Deterministic-trace tests (chaos, power loss)
/// compare event streams across runs, and a journal fsync stalling on a
/// physical disk that is busy with unrelated work would make reply
/// timing — and therefore timeout-vs-reply races — depend on machine
/// load. Benches measuring real fsync cost must keep [`scratch_dir`].
pub fn scratch_dir_fast(tag: &str) -> PathBuf {
    let shm = Path::new("/dev/shm");
    if shm.is_dir() {
        scratch_under(shm.to_path_buf(), tag)
    } else {
        scratch_dir(tag)
    }
}

fn scratch_under(base: PathBuf, tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = base.join(format!(
        "ajx-wal-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    #[expect(
        clippy::expect_used,
        reason = "test/bench scaffolding setup, never reached by request handling or replay"
    )]
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Decodes a journal image from its start: the records of the usable
/// prefix and that prefix's length. `decode_frame` returns `None` on a torn
/// tail, a CRC mismatch, or an undecodable payload; all three end it.
fn decode_journal(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut at = 0usize;
    while let Some((rec, next)) = decode_frame(bytes, at) {
        records.push(rec);
        at = next;
    }
    (records, at)
}

/// Decodes the frame starting at byte `at` of the journal image. Returns
/// the record and the offset of the next frame, or `None` if the bytes
/// from `at` on are not one complete, CRC-valid, decodable frame — which
/// ends the usable prefix of the log (torn-tail recovery).
fn decode_frame(bytes: &[u8], at: usize) -> Option<(WalRecord, usize)> {
    let mut frame = Cursor { bytes, at };
    let len = u32::get(&mut frame)? as usize;
    let crc = u32::get(&mut frame)?;
    let payload = frame.take(len)?;
    if crc32c(payload) != crc {
        return None; // torn or corrupt frame
    }
    Some((decode_record(payload)?, frame.at))
}

/// Wraps `mode` into a backend for node `node_id`. Returns the default
/// in-memory backend unless `mode` selects the WAL.
pub fn backend_for(mode: &PersistMode, node_id: u32) -> Arc<dyn Persistence> {
    match mode {
        PersistMode::InMemory => Arc::new(InMemoryPersistence),
        PersistMode::Wal { dir } => {
            Arc::new(WalBackend::create(dir.join(format!("node-{node_id}.wal"))))
        }
    }
}

// ---------------------------------------------------------------------------
// Record codec: hand-rolled little-endian binary (the workspace has no
// serialization dependency, so the WAL brings its own).

/// One field type of the journal format: how a value is written, how it is
/// read back, and the fewest bytes it can occupy. Both directions of a type
/// sit in one impl, and the `requests!` table in `node.rs` names each
/// operation's fields once for both, so the encoder and the decoder cannot
/// disagree on a layout. (The `#[inline]`s below are on what every append
/// encodes — a tid, an `Option`, a block: left out of line inside
/// `encode_request` they cost a tenth of `wal.append_4k_us`.)
pub(crate) trait Field: Sized {
    /// Smallest encoding of a value — what [`Cursor::list`] holds a count
    /// read off the disk against before it allocates.
    const MIN_BYTES: usize;
    /// Appends the value's encoding to `out`.
    fn put(&self, out: &mut Vec<u8>);
    /// Reads one value; `None` if the bytes at the cursor are not one.
    fn get(c: &mut Cursor<'_>) -> Option<Self>;
}

impl Field for u32 {
    const MIN_BYTES: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn get(c: &mut Cursor<'_>) -> Option<Self> {
        Some(u32::from_le_bytes(c.take(4)?.try_into().ok()?))
    }
}

impl Field for u64 {
    const MIN_BYTES: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn get(c: &mut Cursor<'_>) -> Option<Self> {
        Some(u64::from_le_bytes(c.take(8)?.try_into().ok()?))
    }
}

/// Block and node indices: `usize` in memory, 64 bits on disk.
impl Field for usize {
    const MIN_BYTES: usize = u64::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    fn get(c: &mut Cursor<'_>) -> Option<Self> {
        Some(u64::get(c)? as usize)
    }
}

/// A newtype is journaled as the one value it wraps.
macro_rules! newtype_fields {
    ($($ty:ident($inner:ty)),*) => {$(
        impl Field for $ty {
            const MIN_BYTES: usize = <$inner>::MIN_BYTES;
            fn put(&self, out: &mut Vec<u8>) {
                self.0.put(out);
            }
            fn get(c: &mut Cursor<'_>) -> Option<Self> {
                Some($ty(<$inner>::get(c)?))
            }
        }
    )*};
}
newtype_fields!(StripeId(u64), Epoch(u64), ClientId(u32));

impl Field for Tid {
    const MIN_BYTES: usize = u64::MIN_BYTES + usize::MIN_BYTES + ClientId::MIN_BYTES;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.seq.put(out);
        self.block.put(out);
        self.client.put(out);
    }
    #[inline]
    fn get(c: &mut Cursor<'_>) -> Option<Self> {
        Some(Tid::new(u64::get(c)?, usize::get(c)?, ClientId::get(c)?))
    }
}

impl Field for LMode {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(match self {
            LMode::Unl => 0,
            LMode::L0 => 1,
            LMode::L1 => 2,
            LMode::Exp => 3,
        });
    }
    fn get(c: &mut Cursor<'_>) -> Option<Self> {
        Some(match c.u8()? {
            0 => LMode::Unl,
            1 => LMode::L0,
            2 => LMode::L1,
            3 => LMode::Exp,
            _ => return None,
        })
    }
}

/// `Add`'s `(j, i)` coefficient position.
impl Field for (usize, usize) {
    const MIN_BYTES: usize = 2 * usize::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(c: &mut Cursor<'_>) -> Option<Self> {
        Some((usize::get(c)?, usize::get(c)?))
    }
}

/// A presence byte, `0` or `1`, then the value if present.
impl<T: Field> Field for Option<T> {
    const MIN_BYTES: usize = 1;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }
    #[inline]
    fn get(c: &mut Cursor<'_>) -> Option<Self> {
        match c.u8()? {
            0 => Some(None),
            1 => Some(Some(T::get(c)?)),
            _ => None,
        }
    }
}

/// Block content: a `u32` length, then the bytes, copied whole.
impl Field for Vec<u8> {
    const MIN_BYTES: usize = u32::MIN_BYTES;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self);
    }
    #[inline]
    fn get(c: &mut Cursor<'_>) -> Option<Self> {
        let len = u32::get(c)? as usize;
        Some(c.take(len)?.to_vec())
    }
}

/// Any other list: a `u32` count, then the items (see [`Cursor::list`]).
impl<T: Field> Field for Vec<T> {
    const MIN_BYTES: usize = u32::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        self.iter().for_each(|item| item.put(out));
    }
    fn get(c: &mut Cursor<'_>) -> Option<Self> {
        c.list(T::MIN_BYTES, T::get)
    }
}

/// Appends `rec`'s payload bytes to `out`.
fn encode_record(out: &mut Vec<u8>, rec: WalRecordRef<'_>) {
    match rec {
        WalRecordRef::Apply(req) => {
            out.push(0);
            encode_request(out, req);
        }
        WalRecordRef::ClientFailure(c) => {
            out.push(1);
            c.put(out);
        }
        WalRecordRef::FailRemap(g) => {
            out.push(2);
            out.push(g);
        }
    }
}

/// Byte cursor for decoding; every getter returns `None` past the end.
/// What it reads came off a disk: lengths and counts are checked against
/// the bytes that remain before anything is sized from them.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(len)?;
        let v = self.bytes.get(self.at..end)?;
        self.at = end;
        Some(v)
    }
    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.take(1)?.first().copied()
    }
    /// A `u32` count, then that many items of at least `min_item_bytes`
    /// each. A count the remaining bytes cannot hold is rejected before
    /// the vector is allocated.
    pub(crate) fn list<T>(
        &mut self,
        min_item_bytes: usize,
        mut item: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        let n = u32::get(self)? as usize;
        let remaining = self.bytes.len().saturating_sub(self.at);
        if n.checked_mul(min_item_bytes)? > remaining {
            return None;
        }
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(item(self)?);
        }
        Some(items)
    }
}

/// The smallest request is an empty `Batch`: its tag and a zero count.
pub(crate) const MIN_REQUEST_BYTES: usize = 1 + u32::MIN_BYTES;

/// Deepest `Batch` nesting the decoder follows: members of a batch are
/// plain requests. No client builds a batch inside a batch, and a bound is
/// what keeps a checksum-valid frame of nested batch tags from recursing
/// the replay path off the end of its stack.
pub(crate) const MAX_BATCH_DEPTH: usize = 1;

fn decode_record(payload: &[u8]) -> Option<WalRecord> {
    let mut c = Cursor { bytes: payload, at: 0 };
    let rec = match c.u8()? {
        0 => WalRecord::Apply(decode_request(&mut c, 0)?),
        1 => WalRecord::ClientFailure(ClientId::get(&mut c)?),
        2 => WalRecord::FailRemap(c.u8()?),
        _ => return None,
    };
    // A trailing-garbage payload is not a record we wrote.
    (c.at == payload.len()).then_some(rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::MSG_HEADER_BYTES;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Read { stripe: StripeId(7) },
            Request::Swap {
                stripe: StripeId(1),
                value: vec![1, 2, 3],
                ntid: Tid::new(9, 2, ClientId(4)),
            },
            Request::Add {
                stripe: StripeId(2),
                delta: vec![0xFF; 4],
                ntid: Tid::new(3, 0, ClientId(1)),
                otid: Some(Tid::new(2, 0, ClientId(1))),
                epoch: Epoch(5),
                scale: Some((3, 1)),
            },
            Request::CheckTid {
                stripe: StripeId(3),
                ntid: Tid::new(1, 0, ClientId(1)),
                otid: Tid::new(0, 0, ClientId(2)),
            },
            Request::TryLock {
                stripe: StripeId(4),
                lm: LMode::L1,
                caller: ClientId(8),
            },
            Request::SetLock {
                stripe: StripeId(4),
                lm: LMode::Unl,
                caller: ClientId(8),
            },
            Request::GetState { stripe: StripeId(5) },
            Request::GetRecent {
                stripe: StripeId(5),
                lm: LMode::L0,
                caller: ClientId(2),
            },
            Request::Reconstruct {
                stripe: StripeId(6),
                cset: vec![0, 2, 3],
                block: vec![9; 8],
            },
            Request::Finalize { stripe: StripeId(6), epoch: Epoch(2) },
            Request::GcOld {
                stripe: StripeId(7),
                tids: vec![Tid::new(1, 0, ClientId(1))],
            },
            Request::GcRecent { stripe: StripeId(7), tids: vec![] },
            Request::Probe { stripe: StripeId(8) },
            Request::GetMeta { stripe: StripeId(9) },
            Request::Batch(vec![
                Request::Read { stripe: StripeId(0) },
                Request::Probe { stripe: StripeId(1) },
            ]),
        ]
    }

    fn encoded(rec: WalRecordRef<'_>) -> Vec<u8> {
        let mut payload = Vec::new();
        encode_record(&mut payload, rec);
        payload
    }

    /// A checksum-valid frame around `payload`, as `append` lays it out.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&crc32c(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    #[test]
    fn codec_round_trips_every_request_shape() {
        for req in sample_requests() {
            let payload = encoded(WalRecordRef::Apply(&req));
            assert_eq!(
                decode_record(&payload),
                Some(WalRecord::Apply(req.clone())),
                "round trip failed for {req:?}"
            );
            assert_eq!(req.wire_bytes(), MSG_HEADER_BYTES + req.payload_bytes(), "{req:?}");
        }
        // A batch inside a batch is journaled as its leaves, in order.
        let (a, b, c) = (
            Request::Read { stripe: StripeId(0) },
            Request::Probe { stripe: StripeId(1) },
            Request::GetMeta { stripe: StripeId(2) },
        );
        let nested = Request::Batch(vec![a.clone(), Request::Batch(vec![b.clone(), c.clone()])]);
        assert_eq!(
            decode_record(&encoded(WalRecordRef::Apply(&nested))),
            Some(WalRecord::Apply(Request::Batch(vec![a, b, c])))
        );
        let payload = encoded(WalRecordRef::ClientFailure(ClientId(3)));
        assert_eq!(decode_record(&payload), Some(WalRecord::ClientFailure(ClientId(3))));
        let payload = encoded(WalRecordRef::FailRemap(0xA5));
        assert_eq!(decode_record(&payload), Some(WalRecord::FailRemap(0xA5)));
    }

    /// A journal tag is an operation's identity on disk: the fifteen
    /// samples, one per variant in tag order but for `GetMeta` (added last,
    /// tag 14) and the batch envelope (13), carry each of `0..=14` once.
    #[test]
    fn journal_tags_are_unique_and_dense() {
        const TAGS: [u8; 15] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 13];
        let samples = sample_requests();
        let tags: Vec<u8> = samples.iter().map(|req| encoded(WalRecordRef::Apply(req))[1]).collect();
        assert_eq!(tags, TAGS);
        assert!(matches!(samples[14], Request::Batch(_)), "13 is the envelope");
        let mut sorted = tags;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..=14).collect::<Vec<u8>>());
    }

    #[test]
    fn decoder_rejects_truncation_and_trailing_garbage() {
        let req = Request::Swap {
            stripe: StripeId(1),
            value: vec![1, 2, 3],
            ntid: Tid::new(9, 2, ClientId(4)),
        };
        let payload = encoded(WalRecordRef::Apply(&req));
        for cut in 0..payload.len() {
            assert_eq!(decode_record(&payload[..cut]), None, "accepted a {cut}-byte prefix");
        }
        let mut padded = payload.clone();
        padded.push(0);
        assert_eq!(decode_record(&padded), None, "accepted trailing garbage");
    }

    /// The frame layout is pinned: seeded power-loss offsets are byte
    /// offsets into the journal, so a frame that changed size would move
    /// every tear. Lengths are header + payload for `sample_requests()`, in
    /// order, as the pre-CRC-32C journal wrote them.
    #[test]
    fn frame_lengths_match_the_golden_table() {
        const GOLDEN: [usize; 15] = [18, 45, 92, 58, 23, 23, 18, 23, 58, 26, 42, 22, 18, 18, 32];
        let dir = scratch_dir("unit");
        let wal = WalBackend::create(dir.join("a.wal"));
        let mut lens = Vec::new();
        for req in sample_requests() {
            wal.append(WalRecordRef::Apply(&req));
            let before = wal.stats().durable_bytes;
            assert!(wal.commit());
            lens.push((wal.stats().durable_bytes - before) as usize);
            // The frame is exactly header + the codec's payload bytes.
            assert_eq!(lens.last(), Some(&(FRAME_HEADER + encoded(WalRecordRef::Apply(&req)).len())));
        }
        assert_eq!(lens, GOLDEN);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One leaf per variant in turn, every field drawn from `r`: both arms of
    /// `otid` and `scale`, empty and non-empty payloads and lists.
    fn seeded_leaf(step: u64, r: u64) -> Request {
        let stripe = StripeId(r % 11);
        let tid = |salt: u64| Tid::new(step + salt, (r >> 8) as usize % 4, ClientId((r >> 16) as u32 % 5));
        let bytes = |salt: u64| (0..(r >> salt) % 40).map(|i| (r >> (i % 57)) as u8).collect::<Vec<u8>>();
        let tids = |salt: u64| (0..(r >> salt) % 4).map(tid).collect::<Vec<Tid>>();
        let (lm, caller) = ([LMode::Unl, LMode::L0, LMode::L1, LMode::Exp][(r >> 24) as usize % 4], ClientId((r >> 28) as u32 % 9));
        match step % 14 {
            0 => Request::Read { stripe },
            1 => Request::Swap { stripe, value: bytes(3), ntid: tid(0) },
            2 => Request::Add {
                stripe,
                delta: bytes(5),
                ntid: tid(0),
                otid: (r >> 32 & 1 == 1).then(|| tid(7)),
                epoch: Epoch(r >> 40 & 0xFF),
                scale: (r >> 33 & 1 == 1).then_some(((r >> 34) as usize % 4, (r >> 36) as usize % 4)),
            },
            3 => Request::CheckTid { stripe, ntid: tid(0), otid: tid(3) },
            4 => Request::TryLock { stripe, lm, caller },
            5 => Request::SetLock { stripe, lm, caller },
            6 => Request::GetState { stripe },
            7 => Request::GetMeta { stripe },
            8 => Request::GetRecent { stripe, lm, caller },
            9 => Request::Reconstruct {
                stripe,
                cset: (0..(r >> 44) % 5).map(|i| (i * 3 + (r >> 48) % 3) as usize).collect(),
                block: bytes(9),
            },
            10 => Request::Finalize { stripe, epoch: Epoch(r >> 40 & 0xFF) },
            11 => Request::GcOld { stripe, tids: tids(50) },
            12 => Request::GcRecent { stripe, tids: tids(52) },
            _ => Request::Probe { stripe },
        }
    }

    /// The format, not only its lengths: a seeded history of every variant,
    /// flat and nested batches and the two node-side records must journal
    /// to the bytes the hand-written encoder of PR 20 wrote for it (length
    /// and CRC-32C of the whole file, computed at that commit).
    #[test]
    fn journal_bytes_match_the_pinned_image() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let dir = scratch_dir("unit");
        let wal = WalBackend::create(dir.join("a.wal"));
        for req in sample_requests() {
            wal.append(WalRecordRef::Apply(&req));
        }
        for step in 0..280u64 {
            let mut leaf = || seeded_leaf(step + next() % 14, next());
            let req = match step % 20 {
                7 => Request::Batch(vec![leaf(), leaf(), leaf()]),
                13 => Request::Batch(vec![leaf(), Request::Batch(vec![leaf(), leaf()]), leaf()]),
                19 => Request::Batch(vec![]),
                _ => seeded_leaf(step, next()),
            };
            wal.append(WalRecordRef::Apply(&req));
            if step % 64 == 0 {
                wal.append(WalRecordRef::ClientFailure(ClientId(step as u32)));
                wal.append(WalRecordRef::FailRemap(step as u8));
            }
        }
        assert!(wal.commit());
        let image = std::fs::read(wal.path()).unwrap();
        assert_eq!((image.len(), crc32c(&image)), (13_169, 0x0374_1583));
        assert_eq!(decode_journal(&image).1, image.len(), "and all of it reads back");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A count or length read off the disk is bounded by the bytes behind
    /// it before anything is allocated: a checksum-valid frame claiming
    /// `u32::MAX` items is rejected, not handed to `Vec::with_capacity`.
    #[test]
    fn checksum_valid_frames_with_absurd_counts_are_rejected() {
        let stripe = 7u64.to_le_bytes();
        let max = u32::MAX.to_le_bytes();
        // Record tag 0 (Apply), request tag, then the fields up to the
        // count; 64 filler bytes stand in for "some items".
        let prefixes: [(&str, Vec<u8>); 5] = [
            ("Reconstruct.cset", [&[0, 8][..], &stripe].concat()),
            ("GcOld.tids", [&[0, 10][..], &stripe].concat()),
            ("GcRecent.tids", [&[0, 11][..], &stripe].concat()),
            ("Batch.members", vec![0, 13]),
            ("Swap.value", [&[0, 1][..], &stripe].concat()),
        ];
        for (what, prefix) in prefixes {
            let payload = [&prefix[..], &max, &[0u8; 64]].concat();
            assert_eq!(decode_frame(&framed(&payload), 0), None, "{what}");
        }
        // The largest count the remaining bytes could hold still has to
        // decode item by item: 12 claimed indices, 8 present.
        let payload = [&[0, 8][..], &stripe, &12u32.to_le_bytes(), &[0u8; 96]].concat();
        assert_eq!(decode_frame(&framed(&payload), 0), None);
        // Offsets near the end of the address space do not wrap.
        assert_eq!(decode_frame(&[0u8; 16], usize::MAX - 3), None);
    }

    /// Batches nest one level deep on disk and no deeper: a batch inside a
    /// batch is rejected however valid its checksum, and a frame of nothing
    /// but batch headers is turned away at the second one instead of
    /// recursing once per header.
    #[test]
    fn checksum_valid_nested_batches_are_rejected() {
        let probe = Request::Probe { stripe: StripeId(1) };
        let flat = Request::Batch(vec![probe.clone()]);
        let payload = encoded(WalRecordRef::Apply(&flat));
        assert_eq!(decode_record(&payload), Some(WalRecord::Apply(flat.clone())));
        // The encoder writes a nested batch as its leaves, so the bytes of
        // one are put together by hand: a two-member batch whose second
        // member is `flat`'s own encoding.
        let mut payload = vec![0, 13, 2, 0, 0, 0];
        encode_request(&mut payload, &probe);
        encode_request(&mut payload, &flat);
        assert_eq!(decode_frame(&framed(&payload), 0), None);

        // Record tag, then 1 MiB of `Batch` headers each claiming one member.
        let header = [13u8, 1, 0, 0, 0];
        let headers = header.iter().copied().cycle().take(1 << 20);
        let payload: Vec<u8> = std::iter::once(0).chain(headers).collect();
        assert_eq!(decode_frame(&framed(&payload), 0), None);
    }

    /// Three small records around one 64 KiB+ batch, every way a journal
    /// can be damaged at one point: replay keeps exactly the frames that
    /// end before the damage and truncates the file there.
    #[test]
    fn replay_stops_exactly_at_the_damage() {
        let block = |tag: u8| (0..4096u32).map(|i| (i as u8).wrapping_mul(tag)).collect::<Vec<u8>>();
        let add = |s: u64| Request::Add {
            stripe: StripeId(s),
            delta: block(s as u8 + 3),
            ntid: Tid::new(s + 1, 0, ClientId(1)),
            otid: None,
            epoch: Epoch(1),
            scale: None,
        };
        let records = [
            WalRecord::Apply(Request::Swap {
                stripe: StripeId(1),
                value: vec![0xA5; 24],
                ntid: Tid::new(1, 0, ClientId(2)),
            }),
            WalRecord::ClientFailure(ClientId(2)),
            WalRecord::Apply(Request::Batch((0..17).map(add).collect())),
            WalRecord::Apply(Request::Finalize { stripe: StripeId(1), epoch: Epoch(2) }),
        ];
        let dir = scratch_dir("unit");
        let wal = WalBackend::create(dir.join("a.wal"));
        let mut ends = Vec::new();
        for rec in &records {
            wal.append(match rec {
                WalRecord::Apply(req) => WalRecordRef::Apply(req),
                WalRecord::ClientFailure(c) => WalRecordRef::ClientFailure(*c),
                WalRecord::FailRemap(g) => WalRecordRef::FailRemap(*g),
            });
            assert!(wal.commit());
            ends.push(wal.stats().durable_bytes as usize);
        }
        let image = std::fs::read(wal.path()).unwrap();
        assert_eq!(image.len(), ends[3]);
        assert!(ends[2] - ends[1] >= 64 * 1024, "the batch frame is {} bytes", ends[2] - ends[1]);
        // What survives damage at byte `at`: the frames that end at or
        // before it, and the journal is clean up to the last of them.
        let survivors = |at: usize| {
            let n = ends.iter().take_while(|&&e| e <= at).count();
            (n, n.checked_sub(1).map_or(0, |last| ends[last]))
        };

        // Cut at every byte.
        for cut in 0..=image.len() {
            let (n, clean) = survivors(cut);
            assert_eq!(decode_journal(&image[..cut]), (records[..n].to_vec(), clean), "cut at {cut}");
        }
        // Flip every bit of the two frames before the batch and of the
        // batch frame's header, and one bit in each 509 bytes of its
        // payload (every bit would checksum 64 KiB half a million times).
        let mut flips: Vec<usize> = (0..(ends[1] + FRAME_HEADER) * 8).collect();
        flips.extend((ends[1] + FRAME_HEADER..ends[2]).step_by(509).map(|byte| byte * 8 + byte % 8));
        let mut damaged = image.clone();
        for bit in flips {
            damaged[bit / 8] ^= 1 << (bit % 8);
            let (n, clean) = survivors(bit / 8);
            assert_eq!(decode_journal(&damaged), (records[..n].to_vec(), clean), "bit {bit}");
            damaged[bit / 8] ^= 1 << (bit % 8);
        }
        // The same through the file: replay truncates at the damage.
        for cut in [ends[2] + 1, ends[1] + 40_000, ends[0] - 1] {
            let (n, clean) = survivors(cut);
            std::fs::write(wal.path(), &image[..cut]).unwrap();
            assert_eq!(wal.replay().unwrap(), records[..n], "file cut at {cut}");
            assert_eq!(std::fs::metadata(wal.path()).unwrap().len(), clean as u64);
            assert_eq!(wal.stats().durable_bytes, clean as u64);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn commit_buffer_is_reused_and_its_retained_capacity_is_bounded() {
        let dir = scratch_dir("unit");
        let wal = WalBackend::create(dir.join("a.wal"));
        let swap = |s: u64, len: usize| Request::Swap {
            stripe: StripeId(s),
            value: vec![s as u8; len],
            ntid: Tid::new(s + 1, 0, ClientId(1)),
        };
        let buf = |wal: &WalBackend| {
            let inner = wal.inner.lock();
            (inner.buf.len(), inner.buf.capacity())
        };
        wal.append(WalRecordRef::Apply(&swap(0, 4096)));
        assert!(wal.commit());
        let (len, kept) = buf(&wal);
        assert_eq!(len, 0);
        assert!(kept >= 4096, "commit dropped the buffer (capacity {kept})");
        // The second round fits the kept allocation and does not grow it.
        wal.append(WalRecordRef::Apply(&swap(1, 4096)));
        assert!(wal.commit());
        assert_eq!(buf(&wal), (0, kept));
        // A buffer that grew past the bound gives the excess back (grown
        // here by reservation: untouched pages cost nothing).
        wal.inner.lock().buf.reserve(RETAINED_BUF_CAPACITY + 4096);
        wal.append(WalRecordRef::Apply(&swap(2, 4096)));
        assert!(wal.commit());
        assert_eq!(buf(&wal), (0, RETAINED_BUF_CAPACITY));
        assert_eq!(wal.replay().unwrap(), [0, 1, 2].map(|s| WalRecord::Apply(swap(s, 4096))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_appends_commit_and_replay() {
        let dir = scratch_dir("unit");
        let wal = WalBackend::create(dir.join("a.wal"));
        let reqs = sample_requests();
        for r in &reqs {
            wal.append(WalRecordRef::Apply(r));
        }
        wal.append(WalRecordRef::ClientFailure(ClientId(1)));
        assert!(wal.commit());
        assert_eq!(wal.stats().fsyncs, 1, "group commit = one fsync");
        let replayed = wal.replay().unwrap();
        assert_eq!(replayed.len(), reqs.len() + 1);
        for (got, want) in replayed.iter().zip(&reqs) {
            assert_eq!(got, &WalRecord::Apply(want.clone()));
        }
        assert_eq!(replayed.last(), Some(&WalRecord::ClientFailure(ClientId(1))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_commit_costs_no_fsync() {
        let dir = scratch_dir("unit");
        let wal = WalBackend::create(dir.join("a.wal"));
        assert!(wal.commit());
        assert!(wal.commit());
        assert_eq!(wal.stats().fsyncs, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn power_failure_tears_at_the_armed_byte_and_replay_recovers_the_prefix() {
        let dir = scratch_dir("unit");
        let wal = WalBackend::create(dir.join("a.wal"));
        let swap = |s: u64| Request::Swap {
            stripe: StripeId(s),
            value: vec![s as u8; 16],
            ntid: Tid::new(s + 1, 0, ClientId(1)),
        };
        // Two durable records...
        wal.append(WalRecordRef::Apply(&swap(0)));
        wal.append(WalRecordRef::Apply(&swap(1)));
        assert!(wal.commit());
        let durable = wal.stats().durable_bytes;
        // ...then power dies 5 bytes into the third record's frame.
        wal.power_fail_at(durable + 5);
        wal.append(WalRecordRef::Apply(&swap(2)));
        assert!(!wal.commit(), "tripped commit must report failure");
        assert!(wal.tripped());
        // While off, nothing lands.
        wal.append(WalRecordRef::Apply(&swap(3)));
        assert!(!wal.commit());
        // Reboot: the torn third record is dropped, the first two replay.
        let replayed = wal.replay().unwrap();
        assert_eq!(
            replayed,
            vec![WalRecord::Apply(swap(0)), WalRecord::Apply(swap(1))]
        );
        assert!(!wal.tripped());
        assert_eq!(wal.stats().durable_bytes, durable, "torn tail truncated");
        // The log keeps working after recovery.
        wal.append(WalRecordRef::Apply(&swap(4)));
        assert!(wal.commit());
        assert_eq!(wal.replay().unwrap().len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncate_discards_everything_and_rearms() {
        let dir = scratch_dir("unit");
        let wal = WalBackend::create(dir.join("a.wal"));
        wal.append(WalRecordRef::FailRemap(1));
        assert!(wal.commit());
        wal.power_fail_at(2);
        wal.truncate();
        assert_eq!(wal.replay().unwrap(), vec![]);
        // The armed failure was cleared by the medium swap.
        wal.append(WalRecordRef::FailRemap(2));
        assert!(wal.commit());
        std::fs::remove_dir_all(&dir).ok();
    }
}
