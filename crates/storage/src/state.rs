//! The per-stripe-block state machine — a line-by-line implementation of
//! the storage-node pseudocode in the paper's Fig. 4 (read), Fig. 5
//! (swap/add/checktid), Fig. 6 (recovery operations) and Fig. 7 (garbage
//! collection).
//!
//! Everything here is a pure, transport-agnostic state machine: one request
//! in, one reply out, no I/O. That is the paper's *thin server* principle
//! ("storage nodes ... implement very simple functionality", §1) made
//! literal — the entire server logic fits in this file.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::indexing_slicing))]

use crate::types::{ClientId, Epoch, LMode, OpMode, Tid, TidEntry};
use std::collections::BTreeMap;

/// Reply to `read` (Fig. 4 lines 12-14).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadReply {
    /// The block content, or `None` (the paper's ⊥) if the node is not in
    /// normal mode or is locked.
    pub block: Option<Vec<u8>>,
    /// The node's lock mode, so the client can decide whether to start
    /// recovery (`UNL`/`EXP`) or wait (`L0`/`L1`).
    pub lmode: LMode,
}

/// Reply to `swap` (Fig. 5 lines 27-34).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapReply {
    /// The *previous* block content `w`, or `None` on rejection.
    pub block: Option<Vec<u8>>,
    /// The node's current epoch, piggybacked into subsequent `add`s.
    pub epoch: Epoch,
    /// Identifier of the previous write to this block (`otid`), used to
    /// order concurrent writes to the same block.
    pub otid: Option<Tid>,
    /// Lock mode at the time of the call.
    pub lmode: LMode,
}

/// Status component of an [`AddReply`] (Fig. 5 lines 36-42).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddStatus {
    /// The increment was applied.
    Ok,
    /// The previous write (`otid`) has not reached this node yet; retry
    /// later so adds apply in the same order everywhere (§3.7).
    Order,
    /// Rejected: not in normal mode, locked against adds, or stale epoch
    /// (the paper's ⊥).
    Unavail,
}

/// Reply to `add`.
#[derive(Clone, PartialEq, Eq)]
pub struct AddReply {
    /// Outcome of the add.
    pub status: AddStatus,
    /// Operational mode, so the client can detect crashed/INIT nodes.
    pub opmode: OpMode,
    /// Lock mode, so the client can detect in-progress or expired recovery.
    pub lmode: LMode,
    /// The request's increment buffer, handed back once the node is done
    /// with it so the client stages its next increment in it. Not reply
    /// content: it puts no bytes on the wire and is left out of `Debug`. In
    /// process it keeps a block-sized buffer from being freed by whichever
    /// worker applied the add and re-allocated by the client.
    pub spent: Vec<u8>,
}

impl std::fmt::Debug for AddReply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AddReply")
            .field("status", &self.status)
            .field("opmode", &self.opmode)
            .field("lmode", &self.lmode)
            .finish()
    }
}

/// One member of a run of `add`s handed to [`BlockState::add`]: Fig. 5
/// line 36's arguments, and the status the block answers it with.
#[derive(Debug)]
pub struct Increment {
    /// The increment `v`, owned so the node can hand its buffer back.
    pub v: Vec<u8>,
    /// This write's tid.
    pub ntid: Tid,
    /// The previous write this one must follow (§3.7).
    pub otid: Option<Tid>,
    /// The epoch the writer's `swap` saw.
    pub epoch: Epoch,
    /// The block's answer, written by [`BlockState::add`] (`Unavail` until
    /// then).
    pub status: AddStatus,
    /// Whether the block XORed `v` in: admitted, and not a duplicate.
    applied: bool,
}

impl Increment {
    /// An add not yet answered.
    pub fn new(v: Vec<u8>, ntid: Tid, otid: Option<Tid>, epoch: Epoch) -> Self {
        Increment { v, ntid, otid, epoch, status: AddStatus::Unavail, applied: false }
    }
}

/// Reply to `checktid` (Fig. 5 lines 43-45).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckTidReply {
    /// `ntid` is gone from the recentlist: the node crashed and remapped.
    Init,
    /// `otid` is gone: the write we were ordering behind has completed and
    /// been garbage collected — no need to keep checking order.
    Gc,
    /// Both tids still present; keep waiting.
    NoChange,
}

/// Reply to `trylock` (Fig. 6 lines 25-26).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TryLockReply {
    /// `true` if the lock was acquired (`status: OK`).
    pub ok: bool,
    /// The lock mode before the call — needed to release correctly when
    /// lock acquisition fails partway (Fig. 6 line 5).
    pub old_lmode: LMode,
}

/// Reply to `get_state` (Fig. 6 lines 27-28): everything recovery needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetStateReply {
    /// Operational mode; `RECONS` means a crashed client left phase-3 state.
    pub opmode: OpMode,
    /// The consistent set saved by a previous (crashed) recovery.
    pub recons_set: Vec<usize>,
    /// Garbage-collection list: tids whose write completed everywhere.
    pub oldlist: Vec<TidEntry>,
    /// Recent-write list used to judge consistency.
    pub recentlist: Vec<TidEntry>,
    /// Block content, or `None` if `opmode = INIT` ("block has garbage");
    /// RECONS content is returned (see [`BlockState::get_state`]). Also
    /// `None` in replies to metadata-only probes (`GetMeta`).
    pub block: Option<Vec<u8>>,
    /// The node's current epoch: targeted rebuild computes the finalize
    /// epoch as the max over *all* nodes' `get_state`/`get_meta` replies,
    /// not just the nodes it reconstructs.
    pub epoch: Epoch,
}

/// The state of one stripe-block at one storage node: the global variables
/// of Figs. 4-6 plus the node-local clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockState {
    block: Vec<u8>,
    opmode: OpMode,
    lmode: LMode,
    epoch: Epoch,
    recentlist: Vec<TidEntry>,
    oldlist: Vec<TidEntry>,
    /// Node-local logical time, "auto incremented at some rate" (Fig. 5
    /// line 26); we advance it on every operation.
    time: u64,
    /// The client holding the recovery lock (Fig. 6, `lid`).
    lid: Option<ClientId>,
    /// Saved consistent set for crash-tolerant recovery (Fig. 6).
    recons_set: Vec<usize>,
    /// Replies of pending swaps, keyed by tid, so a duplicate delivery can
    /// replay the *original* reply. A swap's reply carries the previous
    /// block content, which the writer turns into redundancy increments —
    /// answering a duplicate with the current (post-swap) content would
    /// hand the writer a zero delta and silently void the redundancy
    /// update. Entries live exactly as long as the tid's recentlist entry.
    swap_replays: BTreeMap<Tid, SwapReply>,
}

impl BlockState {
    /// A fresh block in normal mode holding `size` zero bytes ("block,
    /// initially 0", Fig. 4 line 7).
    pub fn new(size: usize) -> Self {
        BlockState {
            block: vec![0; size],
            opmode: OpMode::Norm,
            lmode: LMode::Unl,
            epoch: Epoch(0),
            recentlist: Vec::new(),
            oldlist: Vec::new(),
            time: 0,
            lid: None,
            recons_set: Vec::new(),
            swap_replays: BTreeMap::new(),
        }
    }

    /// The state after fail-remap (§3.5): random garbage content, `opmode =
    /// INIT`, `lmode = UNL`, epoch 0, empty lists. The caller supplies the
    /// garbage bytes (tests make them adversarial).
    pub fn after_fail_remap(garbage: Vec<u8>) -> Self {
        BlockState {
            block: garbage,
            opmode: OpMode::Init,
            lmode: LMode::Unl,
            epoch: Epoch(0),
            recentlist: Vec::new(),
            oldlist: Vec::new(),
            time: 0,
            lid: None,
            recons_set: Vec::new(),
            swap_replays: BTreeMap::new(),
        }
    }

    fn tick(&mut self) -> u64 {
        self.time += 1;
        self.time
    }

    /// `read()` — Fig. 4 lines 12-14.
    pub fn read(&mut self) -> ReadReply {
        self.tick();
        if self.opmode != OpMode::Norm || self.lmode != LMode::Unl {
            ReadReply {
                block: None,
                lmode: self.lmode,
            }
        } else {
            ReadReply {
                block: Some(self.block.clone()),
                lmode: self.lmode,
            }
        }
    }

    /// `swap(v, ntid)` — Fig. 5 lines 27-34: atomically replaces the block
    /// with `v`, returning the old content, the current epoch, and the tid
    /// of the most recent previous write.
    pub fn swap(&mut self, v: Vec<u8>, ntid: Tid) -> SwapReply {
        let now = self.tick();
        if self.opmode != OpMode::Norm || self.lmode != LMode::Unl {
            return SwapReply {
                block: None,
                epoch: self.epoch,
                otid: None,
                lmode: self.lmode,
            };
        }
        if self.seen_tid(ntid) {
            // At-least-once delivery: this swap already executed. Applying
            // it again would record the tid twice; instead replay the
            // *original* reply. The reply must be exact: the writer derives
            // its redundancy increments from the returned old content, so a
            // fabricated reply (e.g. the current content) would yield a
            // zero delta and silently void the update. If the replay was
            // already pruned (tid GC'd — its write long since completed and
            // acknowledged), reject like a lock refusal; nothing can still
            // be waiting on it.
            return self.swap_replays.get(&ntid).cloned().unwrap_or(SwapReply {
                block: None,
                epoch: self.epoch,
                otid: None,
                lmode: self.lmode,
            });
        }
        let retblk = std::mem::replace(&mut self.block, v);
        let otid = self
            .recentlist
            .iter()
            .max_by_key(|e| e.time)
            .map(|e| e.tid);
        self.recentlist.push(TidEntry { tid: ntid, time: now });
        let reply = SwapReply {
            block: Some(retblk),
            epoch: self.epoch,
            otid,
            lmode: self.lmode,
        };
        self.swap_replays.insert(ntid, reply.clone());
        reply
    }

    /// Whether `tid` was already recorded here (either list) — the
    /// duplicate-delivery guard for the non-idempotent mutations.
    fn seen_tid(&self, tid: Tid) -> bool {
        self.recentlist
            .iter()
            .chain(self.oldlist.iter())
            .any(|entry| entry.tid == tid)
    }

    /// `add(v, ntid, otid, e)` — Fig. 5 lines 36-42, for a run of adds to
    /// this block: the members are admitted one by one, in order, exactly as
    /// if each had been applied alone — tick, mode and epoch check, ORDER
    /// against `otid` (an earlier member of the run counts as seen), tid
    /// dedup, `recentlist` push — and every admitted increment is then
    /// XORed in with one tiled multi-source pass. Each member's status is
    /// written into it; the modes every reply carries are returned, since an
    /// `add` changes neither. A lone add is a run of one.
    pub fn add(&mut self, run: &mut [Increment]) -> (OpMode, LMode) {
        for inc in run.iter_mut() {
            let now = self.tick();
            (inc.status, inc.applied) = if self.opmode != OpMode::Norm
                || !matches!(self.lmode, LMode::Unl | LMode::L0)
                || inc.epoch < self.epoch
            {
                (AddStatus::Unavail, false)
            } else if inc.otid.is_some_and(|otid| !self.seen_tid(otid)) {
                (AddStatus::Order, false)
            } else {
                // At-least-once delivery: a duplicated add must not XOR the
                // increment a second time — in GF(2^w) that *cancels* the
                // update while the bookkeeping still claims it happened.
                let fresh = !self.seen_tid(inc.ntid);
                if fresh {
                    self.recentlist.push(TidEntry { tid: inc.ntid, time: now });
                }
                (AddStatus::Ok, fresh)
            };
        }
        let applied = run.iter().filter(|inc| inc.applied).map(|inc| inc.v.as_slice());
        ajx_gf::slice::add_assign_multi(&mut self.block, applied);
        (self.opmode, self.lmode)
    }

    /// `checktid(ntid, otid)` — Fig. 5 lines 43-45.
    pub fn checktid(&mut self, ntid: Tid, otid: Tid) -> CheckTidReply {
        self.tick();
        let in_recent = |t: Tid| self.recentlist.iter().any(|e| e.tid == t);
        if !in_recent(ntid) {
            CheckTidReply::Init
        } else if !in_recent(otid) {
            CheckTidReply::Gc
        } else {
            CheckTidReply::NoChange
        }
    }

    /// `trylock(lm)` — Fig. 6 lines 25-26: acquires the recovery lock unless
    /// another recovery already holds it (L0/L1).
    ///
    /// Re-entrant for the current holder: a recovery retried after an
    /// indeterminate RPC (its first `trylock` executed but the reply was
    /// lost) or restarted after a transient error must be able to reacquire
    /// its own locks instead of deadlocking against itself until a failure
    /// notification expires them.
    pub fn trylock(&mut self, lm: LMode, caller: ClientId) -> TryLockReply {
        self.tick();
        if self.lmode.is_locked() && self.lid != Some(caller) {
            return TryLockReply {
                ok: false,
                old_lmode: self.lmode,
            };
        }
        let old = self.lmode;
        self.lmode = lm;
        self.lid = Some(caller);
        TryLockReply { ok: true, old_lmode: old }
    }

    /// `setlock(lm)` — lock-mode change by the recovery owner.
    ///
    /// In Fig. 6 only the client that won `trylock` ever calls this, so the
    /// pseudocode leaves it unconditional. With lossy transport a client
    /// may issue a releasing `setlock` *after* losing the stripe (its error
    /// path fires a best-effort unlock while a competing recovery holds the
    /// locks), so a `setlock` from a non-holder on a locked block is
    /// ignored rather than allowed to clobber the active recovery.
    /// A second guard covers blocks in `RECONS` mode: once a `reconstruct`
    /// has landed, the next recovery will re-decode from this block's saved
    /// `recons_set` without re-checking it (Fig. 6 line 9), so the block
    /// must not return to `UNL` before a `finalize` — even for the holder's
    /// own error-path unlock. (`EXP` is still allowed: it keeps writes out
    /// and lets a successor recovery take over.)
    pub fn setlock(&mut self, lm: LMode, caller: ClientId) {
        self.tick();
        if self.lmode.is_locked() && self.lid != Some(caller) {
            return;
        }
        if self.opmode == OpMode::Recons && lm == LMode::Unl {
            return;
        }
        self.lmode = lm;
        self.lid = Some(caller);
    }

    /// `get_state()` — Fig. 6 lines 27-28.
    ///
    /// Deviation from the pseudocode (which returns ⊥ unless `opmode =
    /// NORM`): content is also returned in RECONS mode. A client picking up
    /// a crashed recovery (Fig. 6 line 9) must decode from the saved
    /// consistent set, and some of those nodes may already have been
    /// `reconstruct`ed by the crashed client — their content is the
    /// recovered (hence correct) value, since re-encoding a consistent set
    /// reproduces that set's blocks exactly. Only INIT content is garbage.
    pub fn get_state(&mut self) -> GetStateReply {
        let block = (self.opmode != OpMode::Init).then(|| self.block.clone());
        GetStateReply { block, ..self.meta() }
    }

    /// [`get_state`](Self::get_state) without the block: the same tick and
    /// metadata, and no copy of the content — a metadata-only peer's answer.
    pub fn meta(&mut self) -> GetStateReply {
        self.tick();
        GetStateReply {
            opmode: self.opmode,
            recons_set: self.recons_set.clone(),
            oldlist: self.oldlist.clone(),
            recentlist: self.recentlist.clone(),
            block: None,
            epoch: self.epoch,
        }
    }

    /// `getrecent(lm)` — changes the lock mode and returns the recentlist
    /// in one atomic step (recovery's re-lock before new adds, Fig. 6
    /// line 19).
    pub fn getrecent(&mut self, lm: LMode, caller: ClientId) -> Vec<TidEntry> {
        self.tick();
        self.lmode = lm;
        self.lid = Some(caller);
        self.recentlist.clone()
    }

    /// `reconstruct(set, blk)` — Fig. 6 lines 29-30: installs recovered
    /// content and remembers the consistent set so another client can finish
    /// recovery if this one crashes.
    pub fn reconstruct(&mut self, set: Vec<usize>, blk: Vec<u8>) -> Epoch {
        self.tick();
        self.opmode = OpMode::Recons;
        self.recons_set = set;
        self.block = blk;
        self.epoch
    }

    /// `finalize(ep)` — Fig. 6 lines 31-33: bumps the epoch, clears the tid
    /// lists, returns to normal mode, and unlocks.
    pub fn finalize(&mut self, ep: Epoch) {
        self.tick();
        self.epoch = ep;
        self.recentlist.clear();
        self.oldlist.clear();
        self.swap_replays.clear();
        if self.opmode == OpMode::Recons {
            self.opmode = OpMode::Norm;
        }
        self.lmode = LMode::Unl;
        self.lid = None;
    }

    /// `gc_old(list)` — Fig. 7: phase 1 of GC, dropping tids from `oldlist`.
    /// Returns `false` (the paper's ⊥) if the node is busy.
    pub fn gc_old(&mut self, tids: &[Tid]) -> bool {
        self.tick();
        if self.opmode != OpMode::Norm || self.lmode != LMode::Unl {
            return false;
        }
        self.oldlist.retain(|e| !tids.contains(&e.tid));
        true
    }

    /// `gc_recent(list)` — Fig. 7: phase 2 of GC, moving completed tids from
    /// `recentlist` to `oldlist`. Returns `false` if the node is busy.
    pub fn gc_recent(&mut self, tids: &[Tid]) -> bool {
        self.tick();
        if self.opmode != OpMode::Norm || self.lmode != LMode::Unl {
            return false;
        }
        let mut moved = Vec::new();
        self.recentlist.retain(|e| {
            if tids.contains(&e.tid) {
                moved.push(*e);
                false
            } else {
                true
            }
        });
        for e in &moved {
            self.swap_replays.remove(&e.tid);
        }
        self.oldlist.extend(moved);
        true
    }

    /// "upon failure of `lid` when `lmode ∈ {L0, L1}`: `lmode ← EXP`"
    /// (Fig. 6 line 34). Returns `true` if the lock actually expired.
    pub fn expire_lock_if_held_by(&mut self, failed: ClientId) -> bool {
        if self.lid == Some(failed) && self.lmode.is_locked() {
            self.lmode = LMode::Exp;
            true
        } else {
            false
        }
    }

    /// Current lock mode (for monitoring and tests).
    pub fn lmode(&self) -> LMode {
        self.lmode
    }

    /// Current operational mode (for monitoring, §3.10).
    pub fn opmode(&self) -> OpMode {
        self.opmode
    }

    /// Current epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The client currently holding the recovery lock, if any.
    pub fn lock_holder(&self) -> Option<ClientId> {
        self.lid
    }

    /// Direct (test/monitoring) view of the block bytes, regardless of mode.
    pub fn raw_block(&self) -> &[u8] {
        &self.block
    }

    /// Number of entries across both tid lists (monitoring, §3.10: "recent
    /// list has some old tid" signals an unfinished write).
    pub fn pending_tids(&self) -> usize {
        self.recentlist.len()
    }

    /// Oldest recentlist entry's age in ticks, if any — the monitor's
    /// "started but unfinished write" signal (§3.10).
    pub fn oldest_recent_age(&self) -> Option<u64> {
        self.recentlist.iter().map(|e| self.time - e.time).max()
    }

    /// Monitoring probe: advances the local clock (the paper's `time` is
    /// "auto incremented at some rate"; ours ticks per operation,
    /// *including* probes, so abandoned writes age even on otherwise idle
    /// blocks) and reports the §3.10 signals.
    pub fn probe(&mut self) -> (OpMode, LMode, Option<u64>) {
        self.tick();
        (self.opmode, self.lmode, self.oldest_recent_age())
    }

    /// Bytes of protocol metadata kept beyond the block content (§6.5):
    /// modes + epoch + clock + tid-list entries.
    pub fn metadata_bytes(&self) -> usize {
        // opmode + lmode: 1 byte each; epoch: 8; time: 8; lid: 4;
        // each tid entry: tid (8 + 4 + 4) + time (8) = 24 bytes;
        // recons_set: 2 bytes per index (n <= 256 in practice).
        1 + 1 + 8 + 8 + 4
            + 24 * (self.recentlist.len() + self.oldlist.len())
            + 2 * self.recons_set.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(seq: u64) -> Tid {
        Tid::new(seq, 0, ClientId(1))
    }

    /// A lone add: a run of one.
    fn add1(s: &mut BlockState, v: &[u8], ntid: Tid, otid: Option<Tid>, e: Epoch) -> Increment {
        let mut run = [Increment::new(v.to_vec(), ntid, otid, e)];
        s.add(&mut run);
        let [inc] = run;
        inc
    }

    #[test]
    fn read_returns_block_in_normal_unlocked_state() {
        let mut s = BlockState::new(4);
        let r = s.read();
        assert_eq!(r.block, Some(vec![0; 4]));
        assert_eq!(r.lmode, LMode::Unl);
    }

    #[test]
    fn duplicated_add_is_applied_exactly_once() {
        let mut s = BlockState::new(4);
        let r = add1(&mut s, &[7, 7, 7, 7], tid(1), None, Epoch(0));
        assert_eq!(r.status, AddStatus::Ok);
        assert_eq!(s.raw_block(), &[7, 7, 7, 7]);
        // An at-least-once network redelivers the same add: a second XOR
        // would cancel the update entirely.
        let r = add1(&mut s, &[7, 7, 7, 7], tid(1), None, Epoch(0));
        assert_eq!(r.status, AddStatus::Ok, "duplicate is acknowledged");
        assert_eq!(s.raw_block(), &[7, 7, 7, 7], "but not re-applied");
        assert_eq!(s.pending_tids(), 1, "and not re-recorded");
    }

    #[test]
    fn duplicated_swap_is_applied_exactly_once() {
        let mut s = BlockState::new(4);
        let first = s.swap(vec![9; 4], tid(1));
        let dup = s.swap(vec![9; 4], tid(1));
        assert_eq!(s.raw_block(), &[9, 9, 9, 9]);
        assert_eq!(s.pending_tids(), 1, "tid recorded once");
        // The duplicate must replay the original reply exactly: the writer
        // computes its redundancy delta from the returned old content, so
        // answering with the post-swap content would zero the delta.
        assert_eq!(dup, first);
        assert_eq!(dup.block.as_deref(), Some(&[0u8, 0, 0, 0][..]));
    }

    #[test]
    fn trylock_is_reentrant_for_the_holder_only() {
        let mut s = BlockState::new(4);
        assert!(s.trylock(LMode::L1, ClientId(1)).ok);
        // A competing recovery is still refused.
        let r = s.trylock(LMode::L1, ClientId(2));
        assert!(!r.ok);
        assert_eq!(r.old_lmode, LMode::L1);
        // The holder retrying (lost reply / restarted recovery) reacquires.
        let r = s.trylock(LMode::L1, ClientId(1));
        assert!(r.ok);
        assert_eq!(r.old_lmode, LMode::L1);
        assert_eq!(s.lock_holder(), Some(ClientId(1)));
    }

    #[test]
    fn setlock_from_a_non_holder_cannot_clobber_a_held_lock() {
        let mut s = BlockState::new(4);
        s.trylock(LMode::L1, ClientId(1));
        // A stale unlock from a client that lost the stripe is ignored...
        s.setlock(LMode::Unl, ClientId(2));
        assert_eq!(s.lmode(), LMode::L1);
        assert_eq!(s.lock_holder(), Some(ClientId(1)));
        // ...while the holder's own transitions still work.
        s.setlock(LMode::L0, ClientId(1));
        assert_eq!(s.lmode(), LMode::L0);
        s.setlock(LMode::Unl, ClientId(1));
        assert_eq!(s.lmode(), LMode::Unl);
        // Once unlocked, anyone may set a mode (e.g. restoring EXP).
        s.setlock(LMode::Exp, ClientId(2));
        assert_eq!(s.lmode(), LMode::Exp);
    }

    #[test]
    fn recons_block_cannot_be_unlocked_before_finalize() {
        let mut s = BlockState::new(4);
        s.trylock(LMode::L1, ClientId(1));
        s.reconstruct(vec![0, 1], vec![7; 4]);
        // The holder's own error-path unlock must not reopen the stripe to
        // writes while a stale recons_set is pinned here...
        s.setlock(LMode::Unl, ClientId(1));
        assert_eq!(s.lmode(), LMode::L1);
        // ...but expiry (failed-holder detection) still transitions it, and
        // finalize performs the real unlock.
        assert!(s.expire_lock_if_held_by(ClientId(1)));
        assert_eq!(s.lmode(), LMode::Exp);
        s.trylock(LMode::L1, ClientId(2));
        s.finalize(Epoch(3));
        assert_eq!(s.lmode(), LMode::Unl);
        assert_eq!(s.opmode(), OpMode::Norm);
    }

    #[test]
    fn probe_reports_lock_mode() {
        let mut s = BlockState::new(4);
        assert_eq!(s.probe().1, LMode::Unl);
        s.trylock(LMode::L1, ClientId(1));
        assert_eq!(s.probe().1, LMode::L1);
    }

    #[test]
    fn read_fails_when_locked_or_init() {
        let mut s = BlockState::new(4);
        s.trylock(LMode::L1, ClientId(9));
        assert_eq!(s.read().block, None);

        let mut s = BlockState::after_fail_remap(vec![0xAA; 4]);
        let r = s.read();
        assert_eq!(r.block, None);
        assert_eq!(r.lmode, LMode::Unl);
    }

    #[test]
    fn swap_returns_old_content_and_previous_tid() {
        let mut s = BlockState::new(2);
        let r1 = s.swap(vec![1, 1], tid(1));
        assert_eq!(r1.block, Some(vec![0, 0]));
        assert_eq!(r1.otid, None, "first write has no predecessor");
        let r2 = s.swap(vec![2, 2], tid(2));
        assert_eq!(r2.block, Some(vec![1, 1]));
        assert_eq!(r2.otid, Some(tid(1)));
        let r3 = s.swap(vec![3, 3], tid(3));
        assert_eq!(r3.otid, Some(tid(2)), "otid tracks the latest write");
    }

    #[test]
    fn swap_rejected_when_locked_and_when_init() {
        let mut s = BlockState::new(2);
        s.trylock(LMode::L0, ClientId(9));
        let r = s.swap(vec![1, 1], tid(1));
        assert_eq!(r.block, None);
        assert_eq!(r.lmode, LMode::L0);

        let mut s = BlockState::after_fail_remap(vec![7, 7]);
        assert_eq!(s.swap(vec![1, 1], tid(1)).block, None);
    }

    #[test]
    fn add_xors_and_records_tid() {
        let mut s = BlockState::new(2);
        let r = add1(&mut s, &[0x0F, 0xF0], tid(1), None, Epoch(0));
        assert_eq!(r.status, AddStatus::Ok);
        assert_eq!(s.raw_block(), &[0x0F, 0xF0]);
        assert_eq!(s.pending_tids(), 1);
    }

    #[test]
    fn add_enforces_write_order_via_otid() {
        let mut s = BlockState::new(2);
        // otid 5 never seen here: must return ORDER and not modify.
        let r = add1(&mut s, &[1, 1], tid(6), Some(tid(5)), Epoch(0));
        assert_eq!(r.status, AddStatus::Order);
        assert_eq!(s.raw_block(), &[0, 0]);
        // After tid 5 arrives, the add goes through.
        assert_eq!(add1(&mut s, &[2, 2], tid(5), None, Epoch(0)).status, AddStatus::Ok);
        assert_eq!(add1(&mut s, &[1, 1], tid(6), Some(tid(5)), Epoch(0)).status, AddStatus::Ok);
        assert_eq!(s.raw_block(), &[3, 3]);
    }

    #[test]
    fn add_accepts_otid_found_in_oldlist() {
        let mut s = BlockState::new(1);
        add1(&mut s, &[1], tid(1), None, Epoch(0));
        assert!(s.gc_recent(&[tid(1)]));
        // tid(1) now lives in oldlist only; ordering check must still pass.
        let r = add1(&mut s, &[2], tid(2), Some(tid(1)), Epoch(0));
        assert_eq!(r.status, AddStatus::Ok);
    }

    #[test]
    fn add_rejects_stale_epoch() {
        let mut s = BlockState::new(1);
        s.finalize(Epoch(3));
        let r = add1(&mut s, &[1], tid(1), None, Epoch(2));
        assert_eq!(r.status, AddStatus::Unavail);
        // Current and future epochs pass (future can happen transiently
        // while finalize sweeps across nodes).
        assert_eq!(add1(&mut s, &[1], tid(2), None, Epoch(3)).status, AddStatus::Ok);
        assert_eq!(add1(&mut s, &[1], tid(3), None, Epoch(4)).status, AddStatus::Ok);
    }

    #[test]
    fn add_allowed_under_l0_but_not_l1() {
        let mut s = BlockState::new(1);
        s.trylock(LMode::L1, ClientId(9));
        assert_eq!(add1(&mut s, &[1], tid(1), None, Epoch(0)).status, AddStatus::Unavail);
        s.setlock(LMode::L0, ClientId(9));
        assert_eq!(add1(&mut s, &[1], tid(1), None, Epoch(0)).status, AddStatus::Ok);
    }

    #[test]
    fn checktid_distinguishes_crash_gc_and_nochange() {
        let mut s = BlockState::new(1);
        add1(&mut s, &[1], tid(1), None, Epoch(0));
        add1(&mut s, &[1], tid(2), Some(tid(1)), Epoch(0));
        assert_eq!(s.checktid(tid(2), tid(1)), CheckTidReply::NoChange);
        // GC tid(1) out of recentlist:
        assert!(s.gc_recent(&[tid(1)]));
        assert_eq!(s.checktid(tid(2), tid(1)), CheckTidReply::Gc);
        // A remapped node lost everything:
        let mut fresh = BlockState::after_fail_remap(vec![0]);
        assert_eq!(fresh.checktid(tid(2), tid(1)), CheckTidReply::Init);
    }

    #[test]
    fn trylock_refuses_when_already_locked() {
        let mut s = BlockState::new(1);
        assert!(s.trylock(LMode::L1, ClientId(1)).ok);
        let r = s.trylock(LMode::L1, ClientId(2));
        assert!(!r.ok);
        assert_eq!(r.old_lmode, LMode::L1);
        assert_eq!(s.lock_holder(), Some(ClientId(1)));
    }

    #[test]
    fn trylock_succeeds_over_expired_lock() {
        let mut s = BlockState::new(1);
        s.trylock(LMode::L1, ClientId(1));
        assert!(s.expire_lock_if_held_by(ClientId(1)));
        let r = s.trylock(LMode::L1, ClientId(2));
        assert!(r.ok);
        assert_eq!(r.old_lmode, LMode::Exp);
    }

    #[test]
    fn lock_expiry_only_for_the_holder() {
        let mut s = BlockState::new(1);
        s.trylock(LMode::L0, ClientId(1));
        assert!(!s.expire_lock_if_held_by(ClientId(2)));
        assert_eq!(s.lmode(), LMode::L0);
        assert!(s.expire_lock_if_held_by(ClientId(1)));
        assert_eq!(s.lmode(), LMode::Exp);
        // Expiring twice is a no-op (lock no longer held).
        assert!(!s.expire_lock_if_held_by(ClientId(1)));
    }

    #[test]
    fn get_state_hides_garbage_blocks() {
        let mut s = BlockState::after_fail_remap(vec![9, 9]);
        let st = s.get_state();
        assert_eq!(st.opmode, OpMode::Init);
        assert_eq!(st.block, None);

        let mut s = BlockState::new(2);
        assert_eq!(s.get_state().block, Some(vec![0, 0]));
    }

    #[test]
    fn get_state_exposes_recons_content_for_recovery_pickup() {
        // A node already reconstructed by a crashed recovery holds correct
        // content; the pickup client must be able to read it (Fig. 6 line 9).
        let mut s = BlockState::new(2);
        s.reconstruct(vec![0, 1], vec![4, 2]);
        let st = s.get_state();
        assert_eq!(st.opmode, OpMode::Recons);
        assert_eq!(st.block, Some(vec![4, 2]));
    }

    #[test]
    fn reconstruct_and_finalize_complete_recovery() {
        let mut s = BlockState::after_fail_remap(vec![0xFF; 2]);
        let ep = s.reconstruct(vec![0, 1, 2], vec![5, 5]);
        assert_eq!(ep, Epoch(0));
        assert_eq!(s.opmode(), OpMode::Recons);
        assert_eq!(s.get_state().recons_set, vec![0, 1, 2]);
        s.finalize(Epoch(1));
        assert_eq!(s.opmode(), OpMode::Norm);
        assert_eq!(s.lmode(), LMode::Unl);
        assert_eq!(s.epoch(), Epoch(1));
        assert_eq!(s.read().block, Some(vec![5, 5]));
        assert_eq!(s.pending_tids(), 0);
    }

    #[test]
    fn gc_two_phase_moves_then_drops() {
        let mut s = BlockState::new(1);
        add1(&mut s, &[1], tid(1), None, Epoch(0));
        add1(&mut s, &[1], tid(2), Some(tid(1)), Epoch(0));
        assert!(s.gc_recent(&[tid(1)]));
        let st = s.get_state();
        assert_eq!(st.recentlist.len(), 1);
        assert_eq!(st.oldlist.len(), 1);
        assert!(s.gc_old(&[tid(1)]));
        let st = s.get_state();
        assert_eq!(st.oldlist.len(), 0);
        assert_eq!(st.recentlist.len(), 1, "uncollected tid remains");
    }

    #[test]
    fn gc_rejected_while_locked() {
        let mut s = BlockState::new(1);
        s.trylock(LMode::L1, ClientId(1));
        assert!(!s.gc_recent(&[tid(1)]));
        assert!(!s.gc_old(&[tid(1)]));
    }

    #[test]
    fn metadata_overhead_is_small_when_gc_keeps_up() {
        // §6.5: ~10 bytes/block steady state. With empty tid lists our
        // fixed metadata is 22 bytes (we keep an explicit clock and lid);
        // what matters is that it is O(1) per block, not proportional to
        // history. See `sec65_overhead` bench for the reported number.
        let mut s = BlockState::new(1024);
        add1(&mut s, &[0; 1024], tid(1), None, Epoch(0));
        s.gc_recent(&[tid(1)]);
        s.gc_old(&[tid(1)]);
        assert!(s.metadata_bytes() <= 32, "got {}", s.metadata_bytes());
    }

    #[test]
    fn oldest_recent_age_grows_with_time() {
        let mut s = BlockState::new(1);
        assert_eq!(s.oldest_recent_age(), None);
        add1(&mut s, &[1], tid(1), None, Epoch(0));
        assert_eq!(s.oldest_recent_age(), Some(0));
        s.read();
        s.read();
        assert_eq!(s.oldest_recent_age(), Some(2));
    }
}
