//! A full-system lifecycle narrative — the scenario a downstream adopter
//! would live through, end to end: provision, load, operate under
//! contention, survive client and storage failures, garbage-collect,
//! monitor, grow cold data, and audit ground truth at every checkpoint.

use ajx_cluster::Cluster;
use ajx_core::{ProtocolConfig, UpdateStrategy};
use ajx_storage::{NodeId, StripeId};
use std::sync::Arc;

#[test]
fn full_lifecycle_of_a_small_deployment() {
    // Day 0: provision a 4-of-6 array (50% overhead, 2-crash tolerance)
    // with a client-failure budget of one.
    let cfg = ProtocolConfig::new(4, 6, 128)
        .unwrap()
        .with_strategy(UpdateStrategy::Parallel)
        .with_failure_thresholds(1, 1);
    cfg.validate().expect("within the §4 bounds");
    let c = Arc::new(Cluster::new(cfg, 3));
    let blocks = 64u64;
    let stripes: Vec<StripeId> = (0..blocks / 4).map(StripeId).collect();

    // Day 1: initial load.
    for lb in 0..blocks {
        c.client(0).write_block(lb, vec![(lb + 1) as u8; 128]).unwrap();
    }
    for s in &stripes {
        assert!(c.stripe_is_consistent(*s), "after load: {s}");
    }

    // Day 2: concurrent operation — two writers, one reader, disjoint and
    // overlapping blocks mixed.
    std::thread::scope(|s| {
        for w in 0..2usize {
            let c = Arc::clone(&c);
            s.spawn(move || {
                for i in 0..80u64 {
                    let lb = (w as u64 * 31 + i * 7) % blocks;
                    c.client(w).write_block(lb, vec![(i % 250) as u8 + 1; 128]).unwrap();
                }
            });
        }
        let c2 = Arc::clone(&c);
        s.spawn(move || {
            for i in 0..160u64 {
                let v = c2.client(2).read_block(i % blocks).unwrap();
                assert!(v.iter().all(|&b| b == v[0]), "torn read");
            }
        });
    });
    for s in &stripes {
        assert!(c.stripe_is_consistent(*s), "after contention: {s}");
    }

    // Day 3: a writer dies mid-write; ops continue; nightly monitor heals.
    let detect = c.kill_client_after(1, 1);
    let _ = c.client(1).write_block(5, vec![0xEE; 128]);
    detect();
    for i in 0..20u64 {
        // Other clients keep working right through the partial write.
        c.client(0).write_block((i * 3) % blocks, vec![7; 128]).unwrap();
    }
    c.client(2).monitor(&stripes, 1).unwrap();
    for s in &stripes {
        assert!(c.stripe_is_consistent(*s), "after client crash + monitor: {s}");
    }

    // Day 4: a storage node dies; access-driven recovery + monitor repair;
    // then nightly GC brings metadata back to the floor.
    c.crash_storage_node(NodeId(2));
    for lb in 0..blocks {
        let v = c.client(0).read_block(lb).unwrap();
        assert!(v.iter().all(|&b| b == v[0]));
    }
    c.client(2).monitor(&stripes, u64::MAX).unwrap();
    for s in &stripes {
        assert!(c.stripe_is_consistent(*s), "after node crash + repair: {s}");
    }
    for w in [0usize, 2] {
        // Client 1 fail-stopped on day 3 and never comes back.
        c.client(w).collect_garbage().unwrap();
        c.client(w).collect_garbage().unwrap();
    }
    // GC floor: O(1) metadata per materialized block. (Recovery already
    // clears the repaired stripes' lists; GC clears the rest.)
    let per_block = c.total_metadata_bytes() as f64 / c.total_resident_blocks() as f64;
    assert!(per_block <= 32.0, "metadata floor violated: {per_block:.1} B/block");

    // Day 5: capacity audit — every logical block readable, every stripe
    // erasure-consistent, no GC backlog anywhere.
    for lb in 0..blocks {
        let _ = c.client(2).read_block(lb).unwrap();
    }
    for w in 0..3usize {
        if w != 1 {
            assert_eq!(c.client(w).gc_backlog(), 0, "client {w} backlog");
        }
    }
}
