//! The storage node's wire interface, declared once.
//!
//! The paper's server is fifteen remote procedures (Figs. 4-7) and nothing
//! else: "storage nodes … implement very simple functionality" (§1). The
//! `requests!` table below *is* that interface. Each procedure is one row —
//! its variant and the figure it comes from, its journal tag, whether a
//! retry may re-send it, whether the journal must keep it, whether it
//! writes the block to the medium (§3.11), which field is its block payload
//! (Fig. 1), and its fields in wire order — and the macro generates from the
//! rows the [`Request`] enum, `stripe`, the three classifiers, the payload
//! accounting and both directions of the journal codec, as plain exhaustive
//! matches. The fifteenth message, [`Request::Batch`], is the envelope
//! around rows, not a row: each generated function carries its one
//! hand-written fold over a batch's members.
//!
//! A new operation is therefore one row here plus one arm in
//! `ShardedNode::apply` — the one match that is behaviour — and a field type
//! the journal has not seen before is one `Field` impl in `persist.rs`;
//! nothing else lists the operations, so nothing can disagree with the
//! table. [`Reply`] has no codec yet and is matched by hand, exhaustively,
//! at the bottom of this file.

use crate::persist::{Cursor, Field, MAX_BATCH_DEPTH, MIN_REQUEST_BYTES};
use crate::state::{AddReply, CheckTidReply, GetStateReply, ReadReply, SwapReply, TryLockReply};
use crate::types::{ClientId, Epoch, LMode, OpMode, StripeId, Tid, TidEntry};
use serde::{Deserialize, Serialize};

/// Approximate fixed wire overhead of one RPC message (headers,
/// stripe/epoch/tid fields). Used only for bandwidth *accounting* (Fig. 1);
/// the in-process transport never serializes.
pub const MSG_HEADER_BYTES: usize = 32;

/// Journal tag of the [`Request::Batch`] envelope. The rows of the table
/// take the other values of `0..=14`; a tag is a row's identity on disk and
/// never changes.
const BATCH_TAG: u8 = 13;

/// Expands the table of leaf operations into [`Request`] and everything
/// that must list its variants. Row shape: `Variant = journal tag
/// (idempotent, journaled, writes_medium[, payload: field]) { fields in
/// wire order }`. Every operation addresses one stripe-block, so the macro
/// itself puts `stripe: StripeId` first in every variant and on the wire.
macro_rules! requests {
    ($(
        $(#[$vmeta:meta])*
        $variant:ident = $tag:literal (
            idempotent: $idempotent:literal, journaled: $journaled:literal,
            writes_medium: $writes_medium:literal $(, payload: $payload:ident)?
        ) {
            $( $(#[$fmeta:meta])* $field:ident: $fty:ty, )*
        }
    )*) => {
        /// A request to a storage node. One variant per remote procedure in
        /// Figs. 4-7.
        #[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
        pub enum Request {
            $(
                $(#[$vmeta])*
                $variant {
                    /// Target stripe.
                    stripe: StripeId,
                    $( $(#[$fmeta])* $field: $fty, )*
                },
            )*
            /// Several operations coalesced into one message (§3.11 batching): the
            /// node applies them in order under a single lock acquisition and
            /// answers with one [`Reply::Batch`] of the same length. The transport
            /// treats the whole batch as *one* exchange — one round trip, one fault
            /// decision — which is what makes m same-node operations cost one round
            /// instead of m.
            Batch(Vec<Request>),
        }

        impl Request {
            /// The stripe this request addresses.
            pub fn stripe(&self) -> StripeId {
                match self {
                    $( Request::$variant { stripe, .. } => *stripe, )*
                    // A batch may span stripes; report the first operation's (used
                    // only for logging/accounting — dispatch unpacks the batch).
                    Request::Batch(reqs) => reqs.first().map_or(StripeId(0), Request::stripe),
                }
            }

            /// Whether re-sending this request after an indeterminate failure
            /// (timeout / lost reply) is safe even if the first copy executed.
            ///
            /// `swap` returns the *previous* content and `add` XORs the delta in —
            /// executing either twice corrupts the write, so the retry layer must
            /// surface their timeouts instead of re-sending. Everything else is a
            /// read, an idempotent state transition (`setlock`, `finalize`,
            /// `reconstruct`, the GC moves), or — given re-entrant locking — a
            /// `trylock` by the same caller.
            pub fn is_idempotent(&self) -> bool {
                match self {
                    $( Request::$variant { .. } => $idempotent, )*
                    // A batch may be re-sent only if every member may.
                    Request::Batch(reqs) => reqs.iter().all(Request::is_idempotent),
                }
            }

            /// Whether this request must be journaled for crash recovery.
            /// Read-only requests advance nothing durable (only the monitoring
            /// clock); a batch is journaled whole if any member mutates, because
            /// it executes — and must recover — atomically.
            pub(crate) fn is_journaled(&self) -> bool {
                match self {
                    $( Request::$variant { .. } => $journaled, )*
                    Request::Batch(reqs) => reqs.iter().any(Request::is_journaled),
                }
            }

            /// Whether applying this one request writes its block to the node's
            /// medium — what §3.11's media accounting (and its deferred-flush
            /// coalescing) counts. A batch is an envelope: the node asks each
            /// member as it applies it, so the batch itself answers `false`.
            pub(crate) fn writes_medium(&self) -> bool {
                match self {
                    $( Request::$variant { .. } => $writes_medium, )*
                    Request::Batch(_) => false,
                }
            }

            /// Block-content bytes carried by this request — the share of
            /// [`Request::wire_bytes`] that is actual stripe data (`swap` values,
            /// `add` deltas, reconstructed blocks), with headers and metadata
            /// excluded. This is the quantity repair-bandwidth optimization
            /// shrinks, so the transport counts it separately from total bytes.
            pub fn payload_bytes(&self) -> usize {
                match self {
                    $( Request::$variant { $($payload,)? .. } => 0 $(+ $payload.len())?, )*
                    Request::Batch(reqs) => reqs.iter().map(Request::payload_bytes).sum(),
                }
            }
        }

        /// Appends `req`'s journal encoding to `out`: its row's tag, then its
        /// fields in the row's order.
        pub(crate) fn encode_request(out: &mut Vec<u8>, req: &Request) {
            match req {
                $( Request::$variant { stripe $(, $field)* } => {
                    out.push($tag);
                    stripe.put(out);
                    $( $field.put(out); )*
                } )*
                Request::Batch(_) => {
                    // A batch is journaled as its leaves, in order: replay needs
                    // only the order, and the decoder follows no nesting (see
                    // `MAX_BATCH_DEPTH`). A flat batch encodes as it always has.
                    let mut leaves = 0u32;
                    req.for_each_leaf(&mut |_| leaves += 1);
                    out.push(BATCH_TAG);
                    leaves.put(out);
                    req.for_each_leaf(&mut |leaf| encode_request(out, leaf));
                }
            }
        }

        /// Decodes one request, reading the fields of the row its tag names in
        /// the order [`encode_request`] wrote them; `batch_depth` is the number
        /// of batches around it. An unknown tag is not a request.
        pub(crate) fn decode_request(c: &mut Cursor<'_>, batch_depth: usize) -> Option<Request> {
            Some(match c.u8()? {
                $( $tag => Request::$variant {
                    stripe: StripeId::get(c)?,
                    $( $field: <$fty as Field>::get(c)?, )*
                }, )*
                BATCH_TAG if batch_depth < MAX_BATCH_DEPTH => Request::Batch(
                    c.list(MIN_REQUEST_BYTES, |c| decode_request(c, batch_depth + 1))?,
                ),
                _ => return None,
            })
        }
    };
}

requests! {
    /// `read()` on a stripe-block (Fig. 4).
    Read = 0 (idempotent: true, journaled: false, writes_medium: false) {}
    /// `swap(v, ntid)` (Fig. 5).
    Swap = 1 (idempotent: false, journaled: true, writes_medium: true, payload: value) {
        /// New block content `v`.
        value: Vec<u8>,
        /// This write's identifier.
        ntid: Tid,
    }
    /// `add(v, ntid, otid, e)` (Fig. 5). When `scale` is set, the node
    /// multiplies the payload by its erasure coefficient before adding —
    /// the broadcast optimization of §3.11 where "the storage nodes, not
    /// the client, must do the multiplication by α_ji".
    Add = 2 (idempotent: false, journaled: true, writes_medium: true, payload: delta) {
        /// The increment (already scaled by the client unless `scale` set).
        delta: Vec<u8>,
        /// This write's identifier.
        ntid: Tid,
        /// Identifier of the write this one is ordered behind.
        otid: Option<Tid>,
        /// The epoch the client observed at `swap` time.
        epoch: Epoch,
        /// `Some((j, i))`: multiply by `α_ji` node-side (broadcast mode).
        scale: Option<(usize, usize)>,
    }
    /// `checktid(ntid, otid)` (Fig. 5).
    CheckTid = 3 (idempotent: true, journaled: false, writes_medium: false) {
        /// The blocked write.
        ntid: Tid,
        /// Its predecessor.
        otid: Tid,
    }
    /// `trylock(lm)` (Fig. 6).
    TryLock = 4 (idempotent: true, journaled: true, writes_medium: false) {
        /// Desired lock mode.
        lm: LMode,
        /// The recovering client (the node's `lid`).
        caller: ClientId,
    }
    /// `setlock(lm)` (Fig. 6).
    SetLock = 5 (idempotent: true, journaled: true, writes_medium: false) {
        /// New lock mode.
        lm: LMode,
        /// The recovering client.
        caller: ClientId,
    }
    /// `get_state()` (Fig. 6).
    GetState = 6 (idempotent: true, journaled: false, writes_medium: false) {}
    /// `get_state()` without the block payload: the metadata-only probe the
    /// byte-accounted rebuild engine uses to classify every node's stripe
    /// state before fetching blocks from only the repair set. Answered with
    /// a [`Reply::GetState`] whose `block` is `None`.
    GetMeta = 14 (idempotent: true, journaled: false, writes_medium: false) {}
    /// `getrecent(lm)` (Fig. 6).
    GetRecent = 7 (idempotent: true, journaled: true, writes_medium: false) {
        /// Lock mode to set atomically with the read.
        lm: LMode,
        /// The recovering client.
        caller: ClientId,
    }
    /// `reconstruct(set, blk)` (Fig. 6).
    Reconstruct = 8 (idempotent: true, journaled: true, writes_medium: true, payload: block) {
        /// The consistent set used for decoding.
        cset: Vec<usize>,
        /// Recovered block content for this node.
        block: Vec<u8>,
    }
    /// `finalize(ep)` (Fig. 6).
    Finalize = 9 (idempotent: true, journaled: true, writes_medium: false) {
        /// The new epoch (max observed + 1).
        epoch: Epoch,
    }
    /// `gc_old(list)` (Fig. 7).
    GcOld = 10 (idempotent: true, journaled: true, writes_medium: false) {
        /// Tids to drop from `oldlist`.
        tids: Vec<Tid>,
    }
    /// `gc_recent(list)` (Fig. 7).
    GcRecent = 11 (idempotent: true, journaled: true, writes_medium: false) {
        /// Tids to move from `recentlist` to `oldlist`.
        tids: Vec<Tid>,
    }
    /// Monitoring probe (§3.10): age of oldest pending tid + opmode.
    Probe = 12 (idempotent: true, journaled: false, writes_medium: false) {}
}

impl Request {
    /// Calls `f` on every non-batch request inside this one, in the order
    /// the node applies them — however deeply batches are nested.
    pub(crate) fn for_each_leaf<'a>(&'a self, f: &mut dyn FnMut(&'a Request)) {
        match self {
            Request::Batch(members) => members.iter().for_each(|m| m.for_each_leaf(f)),
            leaf => f(leaf),
        }
    }

    /// Bytes this request puts on the wire in the Fig. 1 model: one fixed
    /// header per message — a batch shares one, saving (m − 1) headers of
    /// fixed overhead — plus its block payloads. Used for the Fig. 1
    /// bandwidth columns and the simulator's bandwidth model.
    pub fn wire_bytes(&self) -> usize {
        MSG_HEADER_BYTES + self.payload_bytes()
    }
}

/// A reply from a storage node; variants mirror [`Request`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Reply {
    /// Reply to [`Request::Read`].
    Read(ReadReply),
    /// Reply to [`Request::Swap`].
    Swap(SwapReply),
    /// Reply to [`Request::Add`].
    Add(AddReply),
    /// Reply to [`Request::CheckTid`].
    CheckTid(CheckTidReply),
    /// Reply to [`Request::TryLock`].
    TryLock(TryLockReply),
    /// Reply to [`Request::SetLock`] / [`Request::Finalize`] (no payload).
    Ack,
    /// Reply to [`Request::GetState`].
    GetState(GetStateReply),
    /// Reply to [`Request::GetRecent`].
    GetRecent(Vec<TidEntry>),
    /// Reply to [`Request::Reconstruct`]: the node's pre-bump epoch.
    Reconstruct(Epoch),
    /// Reply to [`Request::GcOld`] / [`Request::GcRecent`]: `false` = busy.
    Gc(bool),
    /// Reply to [`Request::Probe`].
    Probe {
        /// Operational mode (INIT signals a remapped, unrecovered node).
        opmode: OpMode,
        /// Lock mode — lets a prober distinguish "recovered and released"
        /// from "recovery still holds the stripe".
        lmode: LMode,
        /// Age (in node ticks) of the oldest pending write tid, if any.
        oldest_pending_age: Option<u64>,
    },
    /// The node rejected a scaled add because it has no code configured.
    NoCode,
    /// Replies to a [`Request::Batch`], one per member, in request order.
    Batch(Vec<Reply>),
}

impl Reply {
    /// Bytes this reply puts on the wire: the fixed header (one for a whole
    /// batch, as on the request side), its block payload, and 24 bytes per
    /// tid-list entry it carries.
    pub fn wire_bytes(&self) -> usize {
        MSG_HEADER_BYTES + self.payload_bytes() + 24 * self.tid_entries()
    }

    /// Tid-list entries carried by this reply — its metadata share.
    fn tid_entries(&self) -> usize {
        match self {
            Reply::GetState(r) => r.recentlist.len() + r.oldlist.len(),
            Reply::GetRecent(l) => l.len(),
            Reply::Batch(replies) => replies.iter().map(Reply::tid_entries).sum(),
            // Named one by one so a new list-carrying reply cannot silently
            // fall into the zero bucket.
            Reply::Read(_)
            | Reply::Swap(_)
            | Reply::Add(_)
            | Reply::CheckTid(_)
            | Reply::TryLock(_)
            | Reply::Ack
            | Reply::Reconstruct(_)
            | Reply::Gc(_)
            | Reply::Probe { .. }
            | Reply::NoCode => 0,
        }
    }

    /// Block-content bytes carried by this reply (read/swap/get_state
    /// block payloads), headers and tid-list metadata excluded — the
    /// reply-side counterpart of [`Request::payload_bytes`].
    pub fn payload_bytes(&self) -> usize {
        match self {
            Reply::Read(r) => r.block.as_ref().map_or(0, Vec::len),
            Reply::Swap(r) => r.block.as_ref().map_or(0, Vec::len),
            Reply::GetState(r) => r.block.as_ref().map_or(0, Vec::len),
            Reply::Batch(replies) => replies.iter().map(Reply::payload_bytes).sum(),
            Reply::Add(_)
            | Reply::CheckTid(_)
            | Reply::TryLock(_)
            | Reply::Ack
            | Reply::GetRecent(_)
            | Reply::Reconstruct(_)
            | Reply::Gc(_)
            | Reply::Probe { .. }
            | Reply::NoCode => 0,
        }
    }
}

/// How the node persists redundant-block updates to its backing medium
/// (§3.11's sequential-write optimization).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlushPolicy {
    /// Every mutation is written through to the medium immediately.
    #[default]
    WriteThrough,
    /// Mutations mark the stripe-block dirty; the media write happens when
    /// the node learns the sequential pass has moved on (a write arrives
    /// for a different stripe) or on [`ShardedNode::flush_all`](crate::ShardedNode::flush_all).
    Deferred,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::AddStatus;
    use crate::types::NodeId;
    use crate::ShardedNode;
    use ajx_erasure::CodeFamily;

    /// The paper's single-lock server: a node of one shard.
    fn single(block_size: usize) -> ShardedNode {
        ShardedNode::new(NodeId(0), block_size, 1)
    }

    fn tid(seq: u64) -> Tid {
        Tid::new(seq, 0, ClientId(1))
    }

    #[test]
    fn lazy_block_materialization() {
        let node = single(8);
        assert_eq!(node.lock_all().resident_blocks(), 0);
        let r = node.handle(Request::Read { stripe: StripeId(5) });
        assert!(matches!(r, Reply::Read(ReadReply { block: Some(b), .. }) if b == vec![0; 8]));
        assert_eq!(node.lock_all().resident_blocks(), 1);
    }

    #[test]
    fn stripes_are_independent() {
        let node = single(2);
        node.handle(Request::TryLock {
            stripe: StripeId(1),
            lm: LMode::L1,
            caller: ClientId(7),
        });
        // Stripe 2 is unaffected by stripe 1's lock.
        let r = node.handle(Request::Swap {
            stripe: StripeId(2),
            value: vec![1, 1],
            ntid: tid(1),
        });
        assert!(matches!(r, Reply::Swap(SwapReply { block: Some(_), .. })));
        let r = node.handle(Request::Swap {
            stripe: StripeId(1),
            value: vec![1, 1],
            ntid: tid(2),
        });
        assert!(matches!(r, Reply::Swap(SwapReply { block: None, .. })));
    }

    #[test]
    fn scaled_add_requires_code() {
        let node = single(4);
        let req = Request::Add {
            stripe: StripeId(0),
            delta: vec![1; 4],
            ntid: tid(1),
            otid: None,
            epoch: Epoch(0),
            scale: Some((0, 0)),
        };
        assert_eq!(node.handle(req.clone()), Reply::NoCode);

        let code = CodeFamily::rs(2, 4).unwrap();
        let expected = code.scale_broadcast_delta(0, 0, &[1; 4]);
        let node = single(4).with_code(code);
        assert!(matches!(
            node.handle(req),
            Reply::Add(AddReply { status: AddStatus::Ok, .. })
        ));
        assert_eq!(
            node.lock_all().block_state(StripeId(0)).unwrap().raw_block(),
            &expected[..]
        );
    }

    #[test]
    fn scaled_add_outside_the_code_answers_no_code_and_touches_nothing() {
        // RS 2-of-4 has coefficients α_ji for j < 2, i < 2 only. A pair
        // outside them must not reach `SystematicCode::coefficient`, which
        // asserts: the node answers, as it does with no code at all.
        let code = CodeFamily::rs(2, 4).unwrap();
        let (p, k) = (code.p(), code.k());
        let node = single(4).with_code(code);
        let add = |scale| Request::Add {
            stripe: StripeId(0),
            delta: vec![1; 4],
            ntid: tid(2),
            otid: None,
            epoch: Epoch(0),
            scale: Some(scale),
        };
        assert_eq!(node.handle(add((p, 0))), Reply::NoCode);
        assert_eq!(node.lock_all().resident_blocks(), 0, "nothing materialised");
        node.handle(Request::Swap {
            stripe: StripeId(0),
            value: vec![7; 4],
            ntid: tid(1),
        });
        let before = node.lock_all().block_state(StripeId(0)).cloned();
        assert_eq!(node.handle(add((p, 0))), Reply::NoCode);
        assert_eq!(node.handle(add((0, k))), Reply::NoCode);
        assert_eq!(node.handle(add((usize::MAX, usize::MAX))), Reply::NoCode);
        let view = node.lock_all();
        assert_eq!(view.block_state(StripeId(0)).cloned(), before, "block and lists untouched");
        assert_eq!(view.ops_handled(), 5, "the refused adds are counted");
        assert_eq!(view.media_writes(), 1, "only the swap wrote the medium");
        drop(view);
        // The last pair inside the matrix still scales.
        assert!(matches!(
            node.handle(add((p - 1, k - 1))),
            Reply::Add(AddReply { status: AddStatus::Ok, .. })
        ));
    }

    #[test]
    fn fail_remap_resets_all_stripes_to_init() {
        let node = single(2);
        for s in 0..3 {
            node.handle(Request::Swap {
                stripe: StripeId(s),
                value: vec![s as u8; 2],
                ntid: tid(s),
            });
        }
        node.fail_remap(0xEE);
        for s in 0..3 {
            let view = node.lock_all();
            let st = view.block_state(StripeId(s)).unwrap();
            assert_eq!(st.opmode(), OpMode::Init);
            assert_eq!(st.raw_block(), &[0xEE, 0xEE]);
        }
        // Reads now fail, which is what triggers client-side recovery.
        let r = node.handle(Request::Read { stripe: StripeId(0) });
        assert!(matches!(r, Reply::Read(ReadReply { block: None, .. })));
    }

    #[test]
    fn client_failure_expires_only_their_locks() {
        let node = single(2);
        node.handle(Request::TryLock {
            stripe: StripeId(0),
            lm: LMode::L1,
            caller: ClientId(1),
        });
        node.handle(Request::TryLock {
            stripe: StripeId(1),
            lm: LMode::L0,
            caller: ClientId(2),
        });
        assert_eq!(node.on_client_failure(ClientId(1)), 1);
        assert_eq!(
            node.lock_all().block_state(StripeId(0)).unwrap().lmode(),
            LMode::Exp
        );
        assert_eq!(node.lock_all().block_state(StripeId(1)).unwrap().lmode(), LMode::L0);
    }

    #[test]
    fn write_through_counts_every_mutation() {
        let node = single(2);
        for i in 0..5 {
            node.handle(Request::Add {
                stripe: StripeId(0),
                delta: vec![1, 1],
                ntid: tid(i),
                otid: None,
                epoch: Epoch(0),
                scale: None,
            });
        }
        assert_eq!(node.media_writes(), 5);
    }

    #[test]
    fn deferred_flush_coalesces_sequential_updates() {
        // §3.11: a redundant block updated by k sequential writes should hit
        // the medium once, not k times.
        let node = single(2).with_flush_policy(FlushPolicy::Deferred);
        for i in 0..4 {
            node.handle(Request::Add {
                stripe: StripeId(0),
                delta: vec![1, 1],
                ntid: tid(i),
                otid: None,
                epoch: Epoch(0),
                scale: None,
            });
        }
        assert_eq!(node.media_writes(), 0, "still buffered");
        // Sequential pass moves to the next stripe: previous block flushes.
        node.handle(Request::Add {
            stripe: StripeId(1),
            delta: vec![1, 1],
            ntid: tid(9),
            otid: None,
            epoch: Epoch(0),
            scale: None,
        });
        assert_eq!(node.media_writes(), 1);
        node.flush_all();
        assert_eq!(node.media_writes(), 2);
        node.flush_all();
        assert_eq!(node.media_writes(), 2, "flush is idempotent");
    }

    #[test]
    fn wire_byte_accounting_counts_payloads() {
        let swap = Request::Swap {
            stripe: StripeId(0),
            value: vec![0; 1024],
            ntid: tid(1),
        };
        assert_eq!(swap.wire_bytes(), MSG_HEADER_BYTES + 1024);
        assert_eq!(
            Request::Read { stripe: StripeId(0) }.wire_bytes(),
            MSG_HEADER_BYTES
        );
        let reply = Reply::Read(ReadReply {
            block: Some(vec![0; 512]),
            lmode: LMode::Unl,
        });
        assert_eq!(reply.wire_bytes(), MSG_HEADER_BYTES + 512);
    }

    #[test]
    fn get_meta_strips_the_block_but_keeps_metadata() {
        const S: StripeId = StripeId(0);
        let swap = |seq: u64| Request::Swap {
            stripe: S,
            value: vec![seq as u8; 4],
            ntid: tid(seq),
        };
        let finalize = |epoch| Request::Finalize { stripe: S, epoch };
        // A tid recorded at the block's clock `time` (one tick per request).
        let at = |seq: u64, time: u64| TidEntry { tid: tid(seq), time };
        // One row per mode: a history leaving stripe 0 there, the full reply
        // `GetState` must give, and the age of the oldest pending tid after
        // the two calls below and one probe (the probe's tick minus the
        // tid's) — which pins one tick per call.
        // INIT content is garbage and withheld; RECONS content is the
        // recovered value and returned.
        type Row = (&'static str, Vec<Request>, bool, GetStateReply, Option<u64>);
        let rows: [Row; 3] = [
            (
                "NORM, both lists non-empty",
                vec![
                    finalize(Epoch(2)),
                    swap(1),
                    swap(2),
                    swap(3),
                    Request::GcRecent { stripe: S, tids: vec![tid(1), tid(2)] },
                ],
                false,
                GetStateReply {
                    opmode: OpMode::Norm,
                    recons_set: vec![],
                    oldlist: vec![at(1, 2), at(2, 3)],
                    recentlist: vec![at(3, 4)],
                    block: Some(vec![3; 4]),
                    epoch: Epoch(2),
                },
                Some(8 - 4),
            ),
            (
                "INIT after a remap",
                vec![swap(1)],
                true,
                GetStateReply {
                    opmode: OpMode::Init,
                    recons_set: vec![],
                    oldlist: vec![],
                    recentlist: vec![],
                    block: None,
                    epoch: Epoch(0),
                },
                None,
            ),
            (
                "RECONS after a Reconstruct",
                vec![
                    finalize(Epoch(5)),
                    swap(1),
                    Request::TryLock { stripe: S, lm: LMode::L1, caller: ClientId(7) },
                    Request::Reconstruct { stripe: S, cset: vec![0, 2, 3], block: vec![4; 4] },
                ],
                false,
                GetStateReply {
                    opmode: OpMode::Recons,
                    recons_set: vec![0, 2, 3],
                    oldlist: vec![],
                    recentlist: vec![at(1, 2)],
                    block: Some(vec![4; 4]),
                    epoch: Epoch(5),
                },
                Some(7 - 2),
            ),
        ];
        for (name, history, remap, want, age) in rows {
            // Two nodes with one history: one answers `GetState` twice, the
            // other `GetMeta` twice.
            let (full_node, meta_node) = (single(4), single(4));
            for node in [&full_node, &meta_node] {
                history.iter().cloned().for_each(|req| drop(node.handle(req)));
                if remap {
                    node.fail_remap(0xEE);
                }
            }
            for _ in 0..2 {
                let (Reply::GetState(full), Reply::GetState(meta)) = (
                    full_node.handle(Request::GetState { stripe: S }),
                    meta_node.handle(Request::GetMeta { stripe: S }),
                ) else {
                    panic!("{name}: expected Reply::GetState for both");
                };
                assert_eq!(full, want, "{name}: GetState");
                assert_eq!(meta, GetStateReply { block: None, ..want.clone() }, "{name}: GetMeta");
                assert_eq!(Reply::GetState(meta).payload_bytes(), 0, "{name}");
            }
            for node in [&full_node, &meta_node] {
                let Reply::Probe { oldest_pending_age, .. } = node.handle(Request::Probe { stripe: S })
                else {
                    panic!("{name}: expected Reply::Probe");
                };
                assert_eq!(oldest_pending_age, age, "{name}: one tick per call");
            }
            // And the two states, clocks included, are equal.
            let (full_view, meta_view) = (full_node.lock_all(), meta_node.lock_all());
            assert_eq!(full_view.block_state(S), meta_view.block_state(S), "{name}");
        }
        // The wire savings the rebuild engine banks on.
        let meta_req = Request::GetMeta { stripe: S };
        assert_eq!(meta_req.wire_bytes(), MSG_HEADER_BYTES);
        assert!(meta_req.is_idempotent());
    }

    #[test]
    fn payload_bytes_count_block_content_only() {
        let swap = Request::Swap {
            stripe: StripeId(0),
            value: vec![0; 100],
            ntid: tid(1),
        };
        assert_eq!(swap.payload_bytes(), 100);
        assert_eq!(Request::Read { stripe: StripeId(0) }.payload_bytes(), 0);
        let batch = Request::Batch(vec![
            swap,
            Request::Reconstruct {
                stripe: StripeId(1),
                cset: vec![0, 1],
                block: vec![0; 50],
            },
            Request::GetMeta { stripe: StripeId(2) },
        ]);
        assert_eq!(batch.payload_bytes(), 150);
        // Reply side: blocks count, tid-list metadata does not.
        let gs = Reply::GetState(GetStateReply {
            opmode: OpMode::Norm,
            recons_set: vec![],
            oldlist: vec![TidEntry { tid: tid(1), time: 0 }],
            recentlist: vec![TidEntry { tid: tid(2), time: 0 }],
            block: Some(vec![0; 64]),
            epoch: Epoch(0),
        });
        assert_eq!(gs.payload_bytes(), 64);
        assert!(gs.wire_bytes() > gs.payload_bytes(), "headers excluded");
        assert_eq!(Reply::Ack.payload_bytes(), 0);
    }

    #[test]
    fn batch_applies_members_in_order_under_one_call() {
        let node = single(4);
        // swap then read of the same stripe, plus a read of another stripe,
        // all in one message: the read must observe the swap's effect.
        let reply = node.handle(Request::Batch(vec![
            Request::Swap {
                stripe: StripeId(0),
                value: vec![7; 4],
                ntid: tid(1),
            },
            Request::Read { stripe: StripeId(0) },
            Request::Read { stripe: StripeId(3) },
        ]));
        let Reply::Batch(replies) = reply else {
            panic!("expected Reply::Batch");
        };
        assert_eq!(replies.len(), 3);
        assert!(matches!(&replies[0], Reply::Swap(s) if s.block == Some(vec![0; 4])));
        assert!(matches!(&replies[1], Reply::Read(r) if r.block == Some(vec![7; 4])));
        assert!(matches!(&replies[2], Reply::Read(r) if r.block == Some(vec![0; 4])));
        // ops_handled counts individual operations, not messages.
        assert_eq!(node.lock_all().ops_handled(), 3);
    }

    #[test]
    fn batched_get_state_spans_stripes_and_takes_no_locks() {
        // The rebuild engine's phase 2: one message probing many stripes'
        // states. The replies must be per-stripe and the whole batch must
        // leave the lock counter untouched.
        let node = single(4);
        node.handle(Request::Swap {
            stripe: StripeId(1),
            value: vec![9; 4],
            ntid: tid(1),
        });
        let reply = node.handle(Request::Batch(
            (0..3).map(|s| Request::GetState { stripe: StripeId(s) }).collect(),
        ));
        let Reply::Batch(replies) = reply else {
            panic!("expected Reply::Batch");
        };
        assert_eq!(replies.len(), 3);
        let Reply::GetState(s1) = &replies[1] else {
            panic!("expected Reply::GetState");
        };
        assert_eq!(s1.block.as_deref(), Some(&[9u8; 4][..]));
        assert_eq!(s1.recentlist.len(), 1);
        assert_eq!(node.lock_all().lock_ops(), 0, "get_state is not a lock operation");
        // Lock-protocol requests do tick the counter, batched or not.
        node.handle(Request::Batch(vec![
            Request::TryLock {
                stripe: StripeId(0),
                lm: LMode::L1,
                caller: ClientId(3),
            },
            Request::SetLock {
                stripe: StripeId(0),
                lm: LMode::Unl,
                caller: ClientId(3),
            },
        ]));
        node.handle(Request::GetRecent {
            stripe: StripeId(1),
            lm: LMode::L1,
            caller: ClientId(3),
        });
        assert_eq!(node.lock_all().lock_ops(), 3);
    }

    #[test]
    fn batch_wire_bytes_share_one_header() {
        let members = vec![
            Request::Swap {
                stripe: StripeId(0),
                value: vec![0; 100],
                ntid: tid(1),
            },
            Request::Read { stripe: StripeId(0) },
            Request::Add {
                stripe: StripeId(1),
                delta: vec![0; 100],
                ntid: tid(2),
                otid: None,
                epoch: Epoch(0),
                scale: None,
            },
        ];
        let batched = Request::Batch(members.clone()).wire_bytes();
        let separate: usize = members.iter().map(Request::wire_bytes).sum();
        assert_eq!(batched, MSG_HEADER_BYTES + 200);
        assert_eq!(separate - batched, 2 * MSG_HEADER_BYTES, "two headers saved");
        // Reply side mirrors the request side.
        let r = Reply::Batch(vec![
            Reply::Read(ReadReply {
                block: Some(vec![0; 64]),
                lmode: LMode::Unl,
            }),
            Reply::Ack,
        ]);
        assert_eq!(r.wire_bytes(), MSG_HEADER_BYTES + 64);
    }

    #[test]
    fn batch_idempotence_is_the_conjunction_of_members() {
        let read = Request::Read { stripe: StripeId(0) };
        let swap = Request::Swap {
            stripe: StripeId(0),
            value: vec![0; 4],
            ntid: tid(1),
        };
        assert!(Request::Batch(vec![read.clone(), read.clone()]).is_idempotent());
        assert!(!Request::Batch(vec![read.clone(), swap]).is_idempotent());
        assert!(Request::Batch(vec![]).is_idempotent());
        // Empty batch still has a defined stripe for accounting.
        assert_eq!(Request::Batch(vec![]).stripe(), StripeId(0));
        assert_eq!(
            Request::Batch(vec![Request::Read { stripe: StripeId(9) }, read]).stripe(),
            StripeId(9)
        );
    }

    /// What each operation is, as literals read off the hand-written matches
    /// the table replaced — so the table's flags are checked against the old
    /// answers, not against themselves.
    #[test]
    fn classifiers_match_the_truth_table() {
        let (stripe, lm, caller) = (StripeId(3), LMode::L1, ClientId(2));
        // (request, is_idempotent, is_journaled, writes_medium, payload_bytes)
        let table = [
            (Request::Read { stripe }, true, false, false, 0),
            (Request::Swap { stripe, value: vec![0; 5], ntid: tid(1) }, false, true, true, 5),
            (
                Request::Add {
                    stripe,
                    delta: vec![0; 6],
                    ntid: tid(2),
                    otid: Some(tid(1)),
                    epoch: Epoch(1),
                    scale: None,
                },
                false,
                true,
                true,
                6,
            ),
            (Request::CheckTid { stripe, ntid: tid(2), otid: tid(1) }, true, false, false, 0),
            (Request::TryLock { stripe, lm, caller }, true, true, false, 0),
            (Request::SetLock { stripe, lm, caller }, true, true, false, 0),
            (Request::GetState { stripe }, true, false, false, 0),
            (Request::GetMeta { stripe }, true, false, false, 0),
            (Request::GetRecent { stripe, lm, caller }, true, true, false, 0),
            (Request::Reconstruct { stripe, cset: vec![0, 1], block: vec![0; 7] }, true, true, true, 7),
            (Request::Finalize { stripe, epoch: Epoch(2) }, true, true, false, 0),
            (Request::GcOld { stripe, tids: vec![tid(1)] }, true, true, false, 0),
            (Request::GcRecent { stripe, tids: vec![tid(2)] }, true, true, false, 0),
            (Request::Probe { stripe }, true, false, false, 0),
        ];
        for (req, idempotent, journaled, writes_medium, payload) in &table {
            assert_eq!(req.stripe(), stripe, "{req:?}");
            assert_eq!(req.is_idempotent(), *idempotent, "is_idempotent of {req:?}");
            assert_eq!(req.is_journaled(), *journaled, "is_journaled of {req:?}");
            assert_eq!(req.writes_medium(), *writes_medium, "writes_medium of {req:?}");
            assert_eq!(req.payload_bytes(), *payload, "payload_bytes of {req:?}");
            assert_eq!(req.wire_bytes(), MSG_HEADER_BYTES + payload);
        }
        // The envelope folds over its members: every / any / never / sum —
        // through nesting too.
        let of = |names: &[usize]| Request::Batch(names.iter().map(|&i| table[i].0.clone()).collect());
        let (read, swap, trylock, reconstruct) = (0, 1, 4, 9);
        let reads = of(&[read, read]);
        assert!(reads.is_idempotent() && !reads.is_journaled() && !reads.writes_medium());
        let locks = of(&[read, trylock]);
        assert!(locks.is_idempotent() && locks.is_journaled() && !locks.writes_medium());
        let writes = Request::Batch(vec![reads.clone(), of(&[swap, reconstruct])]);
        assert!(!writes.is_idempotent() && writes.is_journaled());
        assert!(!writes.writes_medium(), "the node asks each member, not the envelope");
        assert_eq!((reads.payload_bytes(), writes.payload_bytes()), (0, 5 + 7));
        assert_eq!(writes.wire_bytes(), MSG_HEADER_BYTES + 12);
        let empty = Request::Batch(vec![]);
        assert!(empty.is_idempotent() && !empty.is_journaled() && !empty.writes_medium());
        assert_eq!(empty.wire_bytes(), MSG_HEADER_BYTES);
    }

    #[test]
    fn probe_reports_pending_writes_and_opmode() {
        let node = single(2);
        node.handle(Request::Add {
            stripe: StripeId(0),
            delta: vec![1, 1],
            ntid: tid(1),
            otid: None,
            epoch: Epoch(0),
            scale: None,
        });
        match node.handle(Request::Probe { stripe: StripeId(0) }) {
            Reply::Probe {
                opmode,
                lmode,
                oldest_pending_age,
            } => {
                assert_eq!(opmode, OpMode::Norm);
                assert_eq!(lmode, LMode::Unl);
                assert!(oldest_pending_age.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
