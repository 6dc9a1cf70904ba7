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

use ajx_cluster::Cluster;
use ajx_core::ProtocolConfig;
use ajx_erasure::{CodeFamily, PlanCache, ReedSolomon};
use ajx_storage::{NodeId, StripeId};
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
