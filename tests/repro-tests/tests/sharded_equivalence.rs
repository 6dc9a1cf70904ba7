//! Property: the number of shards a [`ShardedNode`] spreads its stripes
//! over cannot be observed.
//!
//! The paper's protocol was verified against a single-lock node, which is
//! a [`ShardedNode`] of one shard; the reactor rework (DESIGN.md §9) runs
//! it with several so batches on independent stripes never contend. Both
//! are the same code — one router, node-level accounting — so this test
//! drives random interleaved histories (single requests, cross-stripe
//! batches, nested batches, fail-remaps, deferred-flush events, client
//! failures) through a one-shard and a several-shard node under both
//! flush policies and demands:
//!
//! * every reply identical, in order;
//! * final ops / lock-op / metadata / residency counters identical;
//! * every stripe's final block bytes identical;
//! * `media_writes` of both equal, after every step, to [`MediaModel`] —
//!   §3.11's accounting written out from the paper's description. The two
//!   nodes share their accounting code, so agreeing with each other would
//!   show nothing; the model is the independent answer.

use ajx_storage::{
    ClientId, Epoch, FlushPolicy, LMode, NodeId, Reply, Request, ShardedNode, StripeId, Tid,
};
use proptest::prelude::*;

const BS: usize = 8;
const STRIPES: u64 = 8;
const SHARDS: usize = 4; // deliberately not a divisor-free pick: stripes alias

#[derive(Debug, Clone)]
enum HistOp {
    Read { stripe: u64 },
    Swap { stripe: u64, fill: u8, seq: u64 },
    Add { stripe: u64, fill: u8, seq: u64, otid_seq: Option<u64>, epoch: u64 },
    TryLock { stripe: u64, caller: u32 },
    GetState { stripe: u64 },
    Probe { stripe: u64 },
    Finalize { stripe: u64, epoch: u64 },
    /// Cross-stripe batch — the case the shard-ordered locking exists for.
    Batch { members: Vec<HistOp> },
    /// §3.5 directory remap: node-wide, spans every shard.
    FailRemap { garbage: u8 },
    /// Deferred-policy flush of the dirty block.
    FlushAll,
    /// Fail-stop detector notification: expire a client's recovery locks.
    ClientFailure { caller: u32 },
}

fn tid(seq: u64, client: u32) -> Tid {
    Tid::new(seq, 0, ClientId(client))
}

fn to_request(op: &HistOp) -> Option<Request> {
    Some(match op {
        HistOp::Read { stripe } => Request::Read { stripe: StripeId(*stripe) },
        HistOp::Swap { stripe, fill, seq } => Request::Swap {
            stripe: StripeId(*stripe),
            value: vec![*fill; BS],
            ntid: tid(*seq, 1),
        },
        HistOp::Add { stripe, fill, seq, otid_seq, epoch } => Request::Add {
            stripe: StripeId(*stripe),
            delta: vec![*fill; BS],
            ntid: tid(*seq, 1),
            otid: otid_seq.map(|s| tid(s, 1)),
            epoch: Epoch(*epoch),
            scale: None,
        },
        HistOp::TryLock { stripe, caller } => Request::TryLock {
            stripe: StripeId(*stripe),
            lm: LMode::L1,
            caller: ClientId(*caller),
        },
        HistOp::GetState { stripe } => Request::GetState { stripe: StripeId(*stripe) },
        HistOp::Probe { stripe } => Request::Probe { stripe: StripeId(*stripe) },
        HistOp::Finalize { stripe, epoch } => Request::Finalize {
            stripe: StripeId(*stripe),
            epoch: Epoch(*epoch),
        },
        HistOp::Batch { members } => {
            Request::Batch(members.iter().filter_map(to_request).collect())
        }
        HistOp::FailRemap { .. } | HistOp::FlushAll | HistOp::ClientFailure { .. } => {
            return None;
        }
    })
}

fn leaf_op() -> impl Strategy<Value = HistOp> {
    prop_oneof![
        2 => (0..STRIPES).prop_map(|stripe| HistOp::Read { stripe }),
        4 => (0..STRIPES, any::<u8>(), 0..16u64)
            .prop_map(|(stripe, fill, seq)| HistOp::Swap { stripe, fill, seq }),
        4 => (0..STRIPES, any::<u8>(), 0..16u64, proptest::option::of(0..16u64), 0..3u64)
            .prop_map(|(stripe, fill, seq, otid_seq, epoch)| {
                HistOp::Add { stripe, fill, seq, otid_seq, epoch }
            }),
        1 => (0..STRIPES, 1..4u32).prop_map(|(stripe, caller)| HistOp::TryLock { stripe, caller }),
        1 => (0..STRIPES).prop_map(|stripe| HistOp::GetState { stripe }),
        1 => (0..STRIPES).prop_map(|stripe| HistOp::Probe { stripe }),
        1 => (0..STRIPES, 0..3u64).prop_map(|(stripe, epoch)| HistOp::Finalize { stripe, epoch }),
    ]
}

fn op_strategy() -> impl Strategy<Value = HistOp> {
    prop_oneof![
        8 => leaf_op(),
        // Cross-stripe batches up to 6 members; one level of nesting to
        // exercise the recursive shard-collection path.
        3 => proptest::collection::vec(leaf_op(), 1..6)
            .prop_map(|members| HistOp::Batch { members }),
        1 => (proptest::collection::vec(leaf_op(), 1..3), proptest::collection::vec(leaf_op(), 1..3))
            .prop_map(|(outer, inner)| HistOp::Batch {
                members: outer
                    .into_iter()
                    .chain(std::iter::once(HistOp::Batch { members: inner }))
                    .collect(),
            }),
        1 => any::<u8>().prop_map(|garbage| HistOp::FailRemap { garbage }),
        1 => Just(HistOp::FlushAll),
        1 => (1..4u32).prop_map(|caller| HistOp::ClientFailure { caller }),
    ]
}

/// §3.11's media accounting, from its description: write-through puts
/// every block mutation on the medium; deferred keeps one dirty block in
/// memory and writes it when a mutation arrives for another stripe or the
/// node is flushed. A remap swaps the medium, dirty block and all.
struct MediaModel {
    policy: FlushPolicy,
    dirty: Option<u64>,
    writes: u64,
}

impl MediaModel {
    /// Every history op here that changes block content is a `Swap` or an
    /// `Add`; the node counts each whatever it answered, a rejected one
    /// included, as it always has.
    fn apply(&mut self, op: &HistOp) {
        match op {
            HistOp::Batch { members } => members.iter().for_each(|m| self.apply(m)),
            HistOp::Swap { stripe, .. } | HistOp::Add { stripe, .. } => match self.policy {
                FlushPolicy::WriteThrough => self.writes += 1,
                FlushPolicy::Deferred => {
                    if self.dirty.is_some_and(|d| d != *stripe) {
                        self.writes += 1;
                    }
                    self.dirty = Some(*stripe);
                }
            },
            HistOp::FlushAll => self.writes += u64::from(self.dirty.take().is_some()),
            HistOp::FailRemap { .. } => self.dirty = None,
            HistOp::Read { .. }
            | HistOp::TryLock { .. }
            | HistOp::GetState { .. }
            | HistOp::Probe { .. }
            | HistOp::Finalize { .. }
            | HistOp::ClientFailure { .. } => {}
        }
    }
}

/// Runs `history` against a one-shard and a several-shard node and asserts
/// observational equivalence at every step and at the end.
fn check_equivalence(history: &[HistOp], policy: FlushPolicy) {
    let single = ShardedNode::new(NodeId(0), BS, 1).with_flush_policy(policy);
    let sharded = ShardedNode::new(NodeId(0), BS, SHARDS).with_flush_policy(policy);
    let mut media = MediaModel { policy, dirty: None, writes: 0 };

    for (step, op) in history.iter().enumerate() {
        match op {
            HistOp::FailRemap { garbage } => {
                single.fail_remap(*garbage);
                sharded.fail_remap(*garbage);
            }
            HistOp::FlushAll => {
                single.flush_all();
                sharded.flush_all();
            }
            HistOp::ClientFailure { caller } => {
                let a = single.on_client_failure(ClientId(*caller));
                let b = sharded.on_client_failure(ClientId(*caller));
                assert_eq!(a, b, "step {step}: client-failure expiry count diverged");
            }
            _ => {
                let req = to_request(op).expect("non-event op");
                let a: Reply = single.handle(req.clone());
                let b: Reply = sharded.handle(req);
                assert_eq!(a, b, "step {step}: reply diverged for {op:?}");
            }
        }
        media.apply(op);
        assert_eq!(single.media_writes(), media.writes, "step {step}: one shard, media writes");
        assert_eq!(sharded.media_writes(), media.writes, "step {step}: {SHARDS} shards, media writes");
    }

    // Final-state equivalence: counters and every stripe's bytes.
    let (one, many) = (single.lock_all(), sharded.lock_all());
    assert_eq!(one.ops_handled(), many.ops_handled(), "ops_handled");
    assert_eq!(one.lock_ops(), many.lock_ops(), "lock_ops");
    assert_eq!(one.metadata_bytes(), many.metadata_bytes(), "metadata");
    assert_eq!(one.resident_blocks(), many.resident_blocks(), "residency");
    let mut a_stripes = one.stripes();
    let mut b_stripes = many.stripes();
    a_stripes.sort_unstable();
    b_stripes.sort_unstable();
    assert_eq!(a_stripes, b_stripes, "resident stripe sets diverged");
    for stripe in a_stripes {
        let a = one.block_state(stripe).expect("resident");
        let b = many.block_state(stripe).expect("resident");
        assert_eq!(a.raw_block(), b.raw_block(), "stripe {stripe:?} bytes");
        assert_eq!(a.opmode(), b.opmode(), "stripe {stripe:?} opmode");
        assert_eq!(a.lmode(), b.lmode(), "stripe {stripe:?} lmode");
        assert_eq!(a.epoch(), b.epoch(), "stripe {stripe:?} epoch");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// N shards ≡ one shard under write-through flushing.
    #[test]
    fn sharded_node_matches_single_lock_write_through(
        history in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        check_equivalence(&history, FlushPolicy::WriteThrough);
    }

    /// N shards ≡ one shard under deferred flushing — the policy where
    /// naive per-shard dirty tracking would diverge from the model on
    /// alternating-stripe writes (the dirty slot is node-level state,
    /// DESIGN.md §9).
    #[test]
    fn sharded_node_matches_single_lock_deferred(
        history in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        check_equivalence(&history, FlushPolicy::Deferred);
    }
}
