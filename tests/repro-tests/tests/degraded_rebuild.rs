//! Degraded reads and the parallel rebuild engine (DESIGN.md §8).
//!
//! * A `READ` whose data node lost its block is served **lock-free** from
//!   the other `n − 1` nodes: correct value, zero `TryLock`/`SetLock`/
//!   `GetRecent` RPCs, no recovery triggered.
//! * Degraded-read output is equivalent to what a read *after* full
//!   recovery returns, for random write histories (property test).
//! * The `DecodePlan` cache returns plans that decode identically to a
//!   fresh Vandermonde inversion for every erasure pattern up to (8, 4).
//! * `rebuild_node` repairs every stripe a failed node held, skips healthy
//!   stripes, and leaves ground truth intact.
//! * One engine runs every recovery: `recover_stripe` costs a window of one
//!   stripe, and one window settles a crashed recovery, a draining write and
//!   a lost lock race beside a plain lost block.
//! * One engine runs every `READ`: `read_blocks` shares one degraded round,
//!   or one recovery window, among all of its misses, and `read_block` is
//!   a window of one.

use ajx_cluster::Cluster;
use ajx_core::ProtocolConfig;
use ajx_erasure::{CodeFamily, PlanCache, ReedSolomon};
use ajx_storage::{ClientId, LMode, NodeId, OpMode, Request, StripeId};
use proptest::prelude::*;
use std::sync::Arc;

fn cluster(k: usize, n: usize) -> Cluster {
    Cluster::new(ProtocolConfig::new(k, n, 64).unwrap(), 2)
}

#[test]
fn degraded_read_is_lock_free_and_leaves_repair_to_rebuild() {
    let c = cluster(2, 4);
    let client = c.client(0);
    client.write_block(0, vec![7; 64]).unwrap();
    client.write_block(1, vec![8; 64]).unwrap();

    c.crash_storage_node(NodeId(0));
    let locks_before = c.total_lock_ops();

    // Block 0 of stripe 0 lives on node 0: the read is served degraded.
    assert_eq!(client.read_block(0).unwrap(), vec![7; 64]);
    // Again — every degraded read is lock-free, not just the first.
    assert_eq!(client.read_block(0).unwrap(), vec![7; 64]);
    // The healthy block is still a plain one-round-trip read.
    assert_eq!(client.read_block(1).unwrap(), vec![8; 64]);

    assert_eq!(
        c.total_lock_ops(),
        locks_before,
        "degraded reads must not issue TryLock/SetLock/GetRecent"
    );
    assert!(
        !c.stripe_is_consistent(StripeId(0)),
        "degraded reads must not trigger recovery"
    );

    // The rebuild engine repairs what the reads deliberately left alone.
    let report = client.rebuild_node(NodeId(0), 1).unwrap();
    assert_eq!(report.rebuilt + report.recovered, 1);
    assert!(c.stripe_is_consistent(StripeId(0)));
    assert_eq!(client.read_block(0).unwrap(), vec![7; 64]);
}

#[test]
fn degraded_read_from_second_client_sees_first_clients_writes() {
    let c = cluster(3, 5);
    c.client(0).write_block(0, vec![0xAA; 64]).unwrap();
    c.client(0).write_block(2, vec![0xBB; 64]).unwrap();
    c.crash_storage_node(NodeId(0));
    // A different client (fresh tid bookkeeping) reads degraded.
    assert_eq!(c.client(1).read_block(0).unwrap(), vec![0xAA; 64]);
    assert_eq!(c.client(1).read_block(2).unwrap(), vec![0xBB; 64]);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        max_shrink_iters: 100,
    })]

    /// For any quiescent write history, the degraded read of a block whose
    /// data node crashed returns exactly what a read after full recovery
    /// returns (which, sequentially, is the model value).
    #[test]
    fn prop_degraded_read_equals_post_recovery_read(
        writes in proptest::collection::vec((0u64..6, 1u8..=255), 1..30),
        victim in 0u32..4,
    ) {
        let c = cluster(2, 4);
        let client = c.client(0);
        let mut model = std::collections::HashMap::new();
        for &(lb, fill) in &writes {
            client.write_block(lb, vec![fill; 64]).unwrap();
            model.insert(lb, fill);
        }
        c.crash_storage_node(NodeId(victim));
        let locks_before = c.total_lock_ops();
        // Degraded (or plain, if the victim held no data index for that
        // stripe) reads of every written block.
        let degraded: Vec<(u64, Vec<u8>)> = model
            .keys()
            .map(|&lb| (lb, client.read_block(lb).unwrap()))
            .collect();
        prop_assert_eq!(
            c.total_lock_ops(),
            locks_before,
            "no locks on the quiescent degraded path"
        );
        // Repair everything, then the same reads must agree.
        let stripes = 6u64.div_ceil(2);
        client.rebuild_node(NodeId(victim), stripes).unwrap();
        for (lb, v) in degraded {
            let want = vec![*model.get(&lb).unwrap(); 64];
            prop_assert_eq!(&v, &want, "degraded read of block {} diverged", lb);
            prop_assert_eq!(&client.read_block(lb).unwrap(), &want);
        }
        for s in 0..stripes {
            prop_assert!(c.stripe_is_consistent(StripeId(s)));
        }
    }

    /// Cached decode plans decode byte-identically to a fresh inversion,
    /// for every `(n, k)` up to `(8, 4)` and every erasure pattern.
    #[test]
    fn prop_plan_cache_matches_fresh_inversion(seed in any::<u64>()) {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) as u8
        };
        for k in 1usize..=4 {
            for n in (k + 1)..=8 {
                let code: CodeFamily = ReedSolomon::new(k, n).unwrap().into();
                let cache = PlanCache::new();
                let data: Vec<Vec<u8>> =
                    (0..k).map(|_| (0..32).map(|_| next()).collect()).collect();
                let stripe = code.encode_stripe(&data).unwrap();
                let mut patterns = 0usize;
                for key in k_subsets(n, k) {
                    let shares: Vec<&[u8]> =
                        key.iter().map(|&t| stripe[t].as_slice()).collect();
                    let fresh = code.plan_decode(&key).unwrap();
                    let cached = cache.plan(&code, &key).unwrap();
                    let mut a = vec![vec![0u8; 32]; k];
                    let mut b = vec![vec![0u8; 32]; k];
                    {
                        let mut out: Vec<&mut [u8]> =
                            a.iter_mut().map(|v| v.as_mut_slice()).collect();
                        fresh.decode_into(&shares, &mut out).unwrap();
                    }
                    {
                        let mut out: Vec<&mut [u8]> =
                            b.iter_mut().map(|v| v.as_mut_slice()).collect();
                        cached.decode_into(&shares, &mut out).unwrap();
                    }
                    prop_assert_eq!(&a, &b, "(k={}, n={}, key={:?})", k, n, &key);
                    prop_assert_eq!(&a, &data, "decode must recover the data");
                    // Second fetch is the same Arc — inversion ran once.
                    let again = cache.plan(&code, &key).unwrap();
                    prop_assert!(Arc::ptr_eq(&cached, &again));
                    patterns += 1;
                }
                prop_assert_eq!(cache.len(), patterns, "one entry per pattern");
            }
        }
    }
}

/// All k-subsets of `0..n`, lexicographically.
fn k_subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(k);
    fn rec(start: usize, n: usize, k: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for i in start..n {
            cur.push(i);
            rec(i + 1, n, k, cur, out);
            cur.pop();
        }
    }
    rec(0, n, k, &mut cur, &mut out);
    out
}

#[test]
fn rebuild_node_repairs_every_stripe_with_bounded_concurrency() {
    // 80 stripes = 3 chunks of 32: exercises a window of several chunks
    // (rebuild_width defaults to 8) and per-node batching across stripes.
    let k = 2;
    let stripes = 80u64;
    let c = cluster(k, 4);
    let client = c.client(0);
    let blocks = stripes * k as u64;
    let writes: Vec<(u64, Vec<u8>)> = (0..blocks)
        .map(|lb| (lb, vec![(lb % 251) as u8 + 1; 64]))
        .collect();
    let refs: Vec<(u64, &[u8])> = writes.iter().map(|(lb, v)| (*lb, v.as_slice())).collect();
    client.write_blocks(&refs).unwrap();

    c.crash_storage_node(NodeId(2));
    let report = client.rebuild_node(NodeId(2), stripes).unwrap();
    assert_eq!(report.stripes, stripes as usize);
    assert_eq!(
        report.rebuilt + report.recovered,
        stripes as usize,
        "every stripe lost a block to node 2: {report:?}"
    );
    assert!(
        report.rebuilt > report.recovered,
        "the quiescent bulk case should ride the batched fast path: {report:?}"
    );
    for s in 0..stripes {
        assert!(c.stripe_is_consistent(StripeId(s)), "stripe {s} broken");
    }
    for (lb, v) in &writes {
        assert_eq!(&client.read_block(*lb).unwrap(), v, "block {lb}");
    }
}

#[test]
fn rebuild_probes_and_skips_healthy_stripes_without_locking() {
    let c = cluster(2, 4);
    let client = c.client(0);
    for lb in 0..8 {
        client.write_block(lb, vec![lb as u8 + 1; 64]).unwrap();
    }
    let locks_before = c.total_lock_ops();
    let all: Vec<StripeId> = (0..4).map(StripeId).collect();
    let report = client.rebuild_stripes(&all).unwrap();
    assert_eq!(report.stripes, 4);
    assert_eq!(report.skipped, 4);
    assert_eq!(report.rebuilt, 0);
    assert_eq!(report.recovered, 0);
    assert_eq!(
        c.total_lock_ops(),
        locks_before,
        "probing healthy stripes must not lock them"
    );
}

#[test]
fn rebuild_repairs_only_the_stripes_that_need_it() {
    let c = cluster(2, 4);
    let client = c.client(0);
    for lb in 0..8 {
        client.write_block(lb, vec![lb as u8 + 1; 64]).unwrap();
    }
    c.crash_storage_node(NodeId(1));
    c.remap_storage_node(NodeId(1));
    // Pre-repair one stripe serially; the engine should skip it.
    client.recover_stripe(StripeId(0)).unwrap();
    let all: Vec<StripeId> = (0..4).map(StripeId).collect();
    let report = client.rebuild_stripes(&all).unwrap();
    assert_eq!(report.stripes, 4);
    assert_eq!(report.skipped, 1);
    assert_eq!(report.rebuilt + report.recovered, 3);
    for s in 0..4 {
        assert!(c.stripe_is_consistent(StripeId(s)));
    }
}

#[test]
fn one_recovery_sends_the_engines_messages_and_moves_only_its_repair_shares() {
    // 4-of-8, 64 B blocks: stripe 0 written and garbage-collected, then
    // node 0 (its index 0) lost and remapped.
    let c = cluster(4, 8);
    let client = c.client(0);
    for lb in 0..4 {
        client.write_block(lb, vec![lb as u8 + 1; 64]).unwrap();
    }
    client.collect_garbage().unwrap();
    client.collect_garbage().unwrap();
    c.crash_storage_node(NodeId(0));
    c.remap_storage_node(NodeId(0));
    let cost = || {
        let before = client.endpoint().stats().snapshot();
        client.recover_stripe(StripeId(0)).unwrap();
        let spent = client.endpoint().stats().snapshot().since(&before);
        (spent.msgs_sent, spent.payload_sent + spent.payload_received)
    };
    // 8 TryLock + 8 GetMeta + 4 GetState (the lost block's repair shares,
    // 4 × 64 B back) + 1 Reconstruct (64 B out) + 8 Finalize. The serial
    // Fig. 6 path this engine replaced sent 8 TryLock + 8 GetState + 4
    // GetRecent + 8 Reconstruct + 8 Finalize = 36 messages, 960 bytes.
    assert_eq!(cost(), (29, 320));
    assert!(c.stripe_is_consistent(StripeId(0)));
    // Healthy now: 8 TryLock + 8 GetMeta + 8 Finalize, no block moves.
    assert_eq!(cost(), (24, 0));
    for lb in 0..4 {
        assert_eq!(client.read_block(lb).unwrap(), vec![lb as u8 + 1; 64]);
    }
}

#[test]
fn one_window_settles_every_case_beside_a_plain_lost_block() {
    // 2-of-4, node 0 lost and remapped; node 0 holds index (4 − s) % 4 of
    // stripe s. Client 0 rebuilds, client 1 is a recoverer killed after its
    // Reconstruct, client 2 a writer killed mid-write, ClientId(99) a raw
    // lock holder.
    let c = Cluster::new(ProtocolConfig::new(2, 4, 64).unwrap(), 3);
    let value = |lb: u64| vec![lb as u8 + 1; 64];
    for lb in 0..8 {
        c.client(0).write_block(lb, value(lb)).unwrap();
    }
    let (plain, recons, draining, locked) = (StripeId(1), StripeId(2), StripeId(3), StripeId(0));

    // Draining: a write to block 6 (stripe 3, index 0) swaps and reaches one
    // of the two redundant nodes before its client dies. With node 0
    // (index 1) gone, the largest consistent set is {0, 2}: one short of
    // k + slack = 3, and no add is coming.
    let detect = c.kill_client_after(2, 2);
    assert!(c.client(2).write_block(6, vec![0xEE; 64]).is_err());
    detect();
    c.crash_storage_node(NodeId(0));
    c.remap_storage_node(NodeId(0));

    // Crashed recovery: 4 TryLock + 4 GetMeta + 2 repair shares + the lost
    // block's Reconstruct, then death before Finalize; its locks expire.
    let detect = c.kill_client_after(1, 4 + 4 + 2 + 1);
    assert!(c.client(1).recover_stripe(recons).is_err());
    assert!(detect() > 0);
    let opmode = c.network().with_node(NodeId(0), |n| n.block_state(recons).map(|b| b.opmode()));
    assert_eq!(opmode, Some(OpMode::Recons), "the crash must land after the Reconstruct");

    // Lost race: a raw client holds every lock of stripe 0 at L1.
    let raw = c.network().client(ClientId(99));
    for t in 0..4 {
        let lock = Request::TryLock { stripe: locked, lm: LMode::L1, caller: ClientId(99) };
        raw.call(NodeId(t), lock).unwrap();
    }

    let client = c.client(0);
    let stats = client.endpoint().stats();
    let sent = stats.snapshot().msgs_sent;
    let all = [locked, plain, recons, draining];
    let report = std::thread::scope(|s| {
        s.spawn(|| {
            // The probe (4 messages) and the index-0 TryLock round (4) are
            // sent, and the next round has begun: the race is lost. Only
            // now does the lock holder's failure expire its locks.
            while stats.snapshot().msgs_sent < sent + 9 {
                std::thread::yield_now();
            }
            assert_eq!(c.network().notify_client_failure(ClientId(99)), 4);
        });
        client.rebuild_stripes(&all).unwrap()
    });
    assert_eq!((report.stripes, report.skipped), (4, 0));
    assert_eq!(report.rebuilt + report.recovered, 4, "{report:?}");
    assert_eq!(report.rebuilt, 1, "only the plain stripe rides the fast path: {report:?}");
    for stripe in all {
        assert!(c.stripe_is_consistent(stripe), "{stripe:?}");
    }
    for lb in (0..8).filter(|&lb| lb != 6) {
        assert_eq!(client.read_block(lb).unwrap(), value(lb), "block {lb}");
    }
    // Regular-register semantics: the interrupted write may or may not
    // survive.
    let v6 = client.read_block(6).unwrap();
    assert!(v6 == vec![0xEE; 64] || v6 == value(6), "block 6: {:?}", v6[0]);
}

#[test]
fn degraded_reads_can_be_disabled() {
    let mut cfg = ProtocolConfig::new(2, 4, 64).unwrap();
    cfg.degraded_reads = false;
    let c = Cluster::new(cfg, 1);
    c.client(0).write_block(0, vec![3; 64]).unwrap();
    c.crash_storage_node(NodeId(0));
    // The legacy path: the read triggers recovery and repairs the stripe.
    assert_eq!(c.client(0).read_block(0).unwrap(), vec![3; 64]);
    assert!(c.stripe_is_consistent(StripeId(0)));
}

#[test]
fn degraded_read_with_untouched_stripe_returns_zeros() {
    // Blocks never written are implicitly zero; the degraded path decodes
    // the zero stripe from the peers' zero blocks.
    let c = cluster(2, 4);
    c.client(0).write_block(2, vec![5; 64]).unwrap(); // materialize stripe 1 only
    c.crash_storage_node(NodeId(0));
    assert_eq!(c.client(0).read_block(0).unwrap(), vec![0; 64]);
}

/// A 4-of-8 cluster at 64 B blocks with 8 stripes written (32 blocks) and
/// garbage-collected, then node 0 lost and remapped: node 0 holds a data
/// block of 4 of the stripes.
fn four_of_eight_with_node_0_lost(degraded_reads: bool) -> (Cluster, Vec<Vec<u8>>) {
    let mut cfg = ProtocolConfig::new(4, 8, 64).unwrap();
    cfg.degraded_reads = degraded_reads;
    let c = Cluster::new(cfg, 1);
    let values: Vec<Vec<u8>> = (0..32u8).map(|lb| vec![lb + 1; 64]).collect();
    let writes: Vec<(u64, &[u8])> = (0..).zip(values.iter().map(Vec::as_slice)).collect();
    c.client(0).write_blocks(&writes).unwrap();
    c.client(0).collect_garbage().unwrap();
    c.client(0).collect_garbage().unwrap();
    c.crash_storage_node(NodeId(0));
    c.remap_storage_node(NodeId(0));
    (c, values)
}

/// Messages `client 0` sends while `f` runs.
fn msgs_sent(c: &Cluster, f: impl FnOnce()) -> u64 {
    let before = c.client(0).endpoint().stats().snapshot();
    f();
    c.client(0).endpoint().stats().snapshot().since(&before).msgs_sent
}

#[test]
fn a_batched_read_serves_all_of_its_misses_in_one_degraded_round() {
    let (c, values) = four_of_eight_with_node_0_lost(true);
    let lbs: Vec<u64> = (0..32).collect();
    let locks = c.total_lock_ops();
    let mut got = Vec::new();
    // 8 Read batches, one per node, then one GetState/GetMeta batch for the
    // 4 misses on each of the 7 other nodes; no plan member is late. A
    // read per miss sent 8 + 4 × (1 Read + 7 peers) = 40.
    assert_eq!(msgs_sent(&c, || got = c.client(0).read_blocks(&lbs).unwrap()), 8 + 7);
    assert_eq!(got, values);
    assert_eq!(c.total_lock_ops(), locks, "degraded reads take no locks");
    let lost = (0..8).filter(|&s| !c.stripe_is_consistent(StripeId(s))).count();
    assert_eq!(lost, 8, "and repair nothing");
}

#[test]
fn without_degraded_reads_a_batched_read_recovers_its_stripes_in_one_window() {
    let (c, values) = four_of_eight_with_node_0_lost(false);
    let lbs: Vec<u64> = (0..32).collect();
    let mut got = Vec::new();
    // 8 Read batches; the 4 stripes whose data block was lost recover in
    // one engine window: 8 TryLock rounds of 4 (index t of each stripe on
    // its own node), 8 GetMeta, 7 GetState (16 repair shares over the
    // nodes 1-7), 1 Reconstruct (every lost block is on node 0) and 8
    // Finalize; then the 4 blocks read again, one batch to node 0. A read
    // per miss sent 8 + 4 × (1 Read + 29 + 1 Read) = 132.
    let sent = msgs_sent(&c, || got = c.client(0).read_blocks(&lbs).unwrap());
    assert_eq!(sent, 8 + (32 + 8 + 7 + 1 + 8) + 1);
    assert_eq!(got, values);
    let repaired = (0..8).filter(|&s| c.stripe_is_consistent(StripeId(s))).count();
    assert_eq!(repaired, 4, "the stripes whose parity was lost wait for a rebuild");
}

#[test]
fn a_read_block_is_a_window_of_one_and_sends_what_it_did() {
    let (c, values) = four_of_eight_with_node_0_lost(true);
    let on_node_0 = |lb: u64| {
        let pl = c.config().layout.locate(lb);
        c.config().layout.node_for(pl.stripe, pl.index) == 0
    };
    let (lost, kept): (Vec<u64>, Vec<u64>) = (0..32).partition(|&lb| on_node_0(lb));
    let read = |c: &Cluster, values: &[Vec<u8>], lb: u64| {
        msgs_sent(c, || assert_eq!(c.client(0).read_block(lb).unwrap(), values[lb as usize]))
    };
    // Healthy: one Read. Degraded: the Read, then 7 peers.
    assert_eq!(read(&c, &values, kept[0]), 1);
    assert_eq!(read(&c, &values, lost[0]), 1 + 7);
    // Without degraded reads: the Read, a one-stripe recovery (8 TryLock +
    // 8 GetMeta + 4 GetState + 1 Reconstruct + 8 Finalize), the Read again.
    let (c, values) = four_of_eight_with_node_0_lost(false);
    assert_eq!(read(&c, &values, lost[1]), 1 + 29 + 1);
}

#[test]
fn a_lost_lock_race_lets_go_of_the_locks_this_client_re_entered() {
    // Clients 0 and 1 each hold a raw L1 lock on stripe 0, at indices 0
    // and 1, as an abandoned attempt of their own would leave it.
    let mut cfg = ProtocolConfig::new(2, 4, 64).unwrap();
    cfg.busy_retry_limit = 3;
    cfg.backoff.base = std::time::Duration::ZERO;
    let c = Cluster::new(cfg, 2);
    c.client(0).write_block(0, vec![5; 64]).unwrap();
    let stripe = StripeId(0);
    for t in 0..2u32 {
        let lock = Request::TryLock { stripe, lm: LMode::L1, caller: ClientId(t) };
        c.network().client(ClientId(t)).call(NodeId(t), lock).unwrap();
    }
    // Client 0 re-enters its lock on index 0 and loses the race at index 1.
    // The lock it re-entered must not outlive its attempt, or client 1 can
    // never win the stripe either.
    let _ = c.client(0).recover_stripe(stripe);
    c.client(1).recover_stripe(stripe).unwrap();
    assert!(c.stripe_is_consistent(stripe));
    for t in 0..4 {
        let lmode = c.network().with_node(NodeId(t), |n| n.block_state(stripe).map(|b| b.lmode()));
        assert_eq!(lmode, Some(LMode::Unl), "index {t}");
    }
    assert_eq!(c.client(1).read_block(0).unwrap(), vec![5; 64]);
}

#[test]
fn a_recovery_adopts_a_crashed_recoverys_set_without_draining() {
    // 2-of-4, node 0 lost and remapped. Client 1 recovers stripe 0 and dies
    // after 4 TryLock + 4 GetMeta + 2 repair shares + the lost block's
    // Reconstruct, leaving node 0 in RECONS; its locks expire.
    let c = Cluster::new(ProtocolConfig::new(2, 4, 64).unwrap(), 2);
    let stripe = StripeId(0);
    c.client(0).write_block(0, vec![3; 64]).unwrap();
    c.client(0).write_block(1, vec![4; 64]).unwrap();
    c.crash_storage_node(NodeId(0));
    c.remap_storage_node(NodeId(0));
    let detect = c.kill_client_after(1, 4 + 4 + 2 + 1);
    assert!(c.client(1).recover_stripe(stripe).is_err());
    assert!(detect() > 0);
    let opmode = c.network().with_node(NodeId(0), |n| n.block_state(stripe).map(|b| b.opmode()));
    assert_eq!(opmode, Some(OpMode::Recons));

    // The saved set {1, 2, 3} is one short of k + slack = 4: found again
    // instead of adopted, it would drain (SetLock L0, GetMeta re-reads,
    // GetRecent) until patience ran out. Adopted: 4 TryLock + 4 GetMeta +
    // 2 GetState + 1 Reconstruct + 4 Finalize, and the TryLocks are the
    // only lock operations.
    let locks = c.total_lock_ops();
    assert_eq!(msgs_sent(&c, || c.client(0).recover_stripe(stripe).unwrap()), 15);
    assert_eq!(c.total_lock_ops() - locks, 4, "no SetLock L0, no GetRecent");
    assert!(c.stripe_is_consistent(stripe));
    assert_eq!(c.client(0).read_block(0).unwrap(), vec![3; 64]);
    assert_eq!(c.client(0).read_block(1).unwrap(), vec![4; 64]);
}
