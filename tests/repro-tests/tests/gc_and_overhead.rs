//! Garbage collection (Fig. 7) and the §6.5 space-overhead story: the
//! recentlist/oldlist bookkeeping must stay bounded when GC runs, and the
//! checktid path must keep write ordering correct across GC.

use ajx_cluster::Cluster;
use ajx_core::ProtocolConfig;
use ajx_storage::{NodeId, StripeId};

fn cluster() -> Cluster {
    Cluster::new(ProtocolConfig::new(2, 4, 32).unwrap(), 2)
}

fn pending_tids_at(c: &Cluster, node: NodeId, stripe: StripeId) -> usize {
    c.network().with_node(node, |n| {
        n.block_state(stripe).map_or(0, |b| b.pending_tids())
    })
}

#[test]
fn two_phase_gc_drains_tid_lists() {
    let c = cluster();
    for i in 0..20u8 {
        c.client(0).write_block(0, vec![i; 32]).unwrap();
    }
    let before = pending_tids_at(&c, NodeId(0), StripeId(0));
    assert!(before >= 20, "recentlist accumulates without GC: {before}");

    // Cycle 1: moves completed tids from recentlist to oldlist.
    let r1 = c.client(0).collect_garbage().unwrap();
    assert_eq!(r1.moved_to_old, 20 * 3, "20 writes x (1 swap + 2 adds)");
    assert_eq!(r1.dropped, 0);
    assert_eq!(pending_tids_at(&c, NodeId(0), StripeId(0)), 0);

    // Cycle 2: drops them from oldlist.
    let r2 = c.client(0).collect_garbage().unwrap();
    assert_eq!(r2.dropped, 20 * 3);
    assert_eq!(c.client(0).gc_backlog(), 0);

    // Metadata is back to the O(1)-per-block floor (§6.5).
    let meta = c.network().with_node(NodeId(0), |n| {
        n.block_state(StripeId(0)).unwrap().metadata_bytes()
    });
    assert!(meta <= 32, "steady-state metadata {meta} bytes/block");
}

#[test]
fn writes_remain_correct_across_gc_cycles() {
    let c = cluster();
    for round in 0..5u8 {
        for lb in 0..8u64 {
            c.client(0)
                .write_block(lb, vec![round * 10 + lb as u8; 32])
                .unwrap();
        }
        c.client(0).collect_garbage().unwrap();
        c.client(0).collect_garbage().unwrap();
    }
    for lb in 0..8u64 {
        assert_eq!(c.client(1).read_block(lb).unwrap(), vec![40 + lb as u8; 32]);
    }
    for s in 0..4 {
        assert!(c.stripe_is_consistent(StripeId(s)));
    }
}

#[test]
fn write_ordering_survives_gc_of_predecessor() {
    // §3.9: after ORDER, the writer checks whether its predecessor's tid
    // was GC'd; if so it may add without the ordering guard. Interleave
    // same-block writes with aggressive GC to exercise that path.
    let c = cluster();
    for i in 0..30u8 {
        let writer = usize::from(i % 2);
        c.client(writer).write_block(3, vec![i; 32]).unwrap();
        if i % 3 == 0 {
            c.client(0).collect_garbage().unwrap();
            c.client(1).collect_garbage().unwrap();
        }
    }
    assert_eq!(c.client(0).read_block(3).unwrap(), vec![29; 32]);
    assert!(c.stripe_is_consistent(StripeId(1)));
}

#[test]
fn gc_skips_locked_stripes_and_retries_later() {
    let c = cluster();
    c.client(0).write_block(0, vec![1; 32]).unwrap();
    // Lock the stripe's data node as if a recovery were running.
    let at_node_0 = |req| drop(c.client(1).endpoint().call(NodeId(0), req).unwrap());
    at_node_0(ajx_storage::Request::TryLock {
        stripe: StripeId(0),
        lm: ajx_storage::LMode::L1,
        caller: ajx_storage::ClientId(99),
    });
    let r = c.client(0).collect_garbage().unwrap();
    assert!(r.skipped_busy > 0, "locked node must be skipped");
    assert!(c.client(0).gc_backlog() > 0, "work kept for next cycle");

    // Unlock and retry: the backlog drains.
    at_node_0(ajx_storage::Request::SetLock {
        stripe: StripeId(0),
        lm: ajx_storage::LMode::Unl,
        caller: ajx_storage::ClientId(99),
    });
    c.client(0).collect_garbage().unwrap();
    c.client(0).collect_garbage().unwrap();
    assert_eq!(c.client(0).gc_backlog(), 0);
}

#[test]
fn a_gc_cycle_costs_one_message_per_node_per_phase() {
    // 200 writes over 50 stripes leave 50 x 4 (stripe, index) entries, 50
    // per node: Fig. 7 takes one batched message per node per phase, not
    // one round trip per entry.
    let c = cluster();
    for round in 0..2u8 {
        for lb in 0..100u64 {
            c.client(0).write_block(lb, vec![round; 32]).unwrap();
        }
    }
    let stats = c.client(0).endpoint().stats();
    let mut sent = stats.snapshot().msgs_sent;
    let mut cycle = || {
        let r = c.client(0).collect_garbage().unwrap();
        let now = stats.snapshot().msgs_sent;
        assert_eq!(now - sent, r.messages as u64, "the report counts every RPC of the cycle");
        sent = now;
        r
    };
    let r1 = cycle();
    assert!(r1.messages <= 2 * 4, "{} messages for 4 nodes", r1.messages);
    assert_eq!((r1.moved_to_old, r1.dropped, r1.skipped_busy), (200 * 3, 0, 0));
    for node in 0..4 {
        for s in 0..50 {
            assert_eq!(pending_tids_at(&c, NodeId(node), StripeId(s)), 0);
        }
    }
    let r2 = cycle();
    assert!(r2.messages <= 2 * 4, "{} messages for 4 nodes", r2.messages);
    assert_eq!((r2.moved_to_old, r2.dropped, r2.skipped_busy), (0, 200 * 3, 0));
    assert_eq!(c.client(0).gc_backlog(), 0);
    assert_eq!(cycle().messages, 0, "nothing listed, nothing sent");
}

#[test]
fn a_busy_member_holds_back_only_itself() {
    // Stripes 0 and 4 put index 0 on the same node (the layout rotates by
    // stripe over 4 nodes), so their entries travel in one message.
    let c = cluster();
    c.client(0).write_block(0, vec![1; 32]).unwrap();
    c.client(0).write_block(8, vec![2; 32]).unwrap();
    // Lock stripe 0 there as if a recovery were running.
    let (stripe, caller) = (StripeId(0), ajx_storage::ClientId(99));
    let at_node_0 = |req| drop(c.client(1).endpoint().call(NodeId(0), req).unwrap());
    at_node_0(ajx_storage::Request::TryLock { stripe, lm: ajx_storage::LMode::L1, caller });
    let r = c.client(0).collect_garbage().unwrap();
    assert_eq!(r.skipped_busy, 1, "busy entries are counted, not messages");
    assert_eq!(r.moved_to_old, 5, "the other five entries moved");
    assert_eq!(pending_tids_at(&c, NodeId(0), StripeId(4)), 0, "same message, not held back");
    assert_eq!(pending_tids_at(&c, NodeId(0), StripeId(0)), 1);

    at_node_0(ajx_storage::Request::SetLock { stripe, lm: ajx_storage::LMode::Unl, caller });
    let r = c.client(0).collect_garbage().unwrap();
    assert_eq!((r.dropped, r.moved_to_old, r.skipped_busy), (5, 1, 0));
    assert_eq!(c.client(0).collect_garbage().unwrap().dropped, 1);
    assert_eq!(c.client(0).gc_backlog(), 0);
}

#[test]
fn batched_gc_replays_from_the_journal() {
    // A node journals each phase's batch as one record; a restart with
    // the disk must land on the collected state, not the pre-GC one.
    let dir = ajx_storage::scratch_dir_fast("gc-replay");
    let c = Cluster::with_network(
        ProtocolConfig::new(2, 4, 32).unwrap(),
        1,
        ajx_transport::NetworkConfig {
            persist: ajx_storage::PersistMode::Wal { dir: dir.clone() },
            ..Default::default()
        },
    );
    for lb in 0..16u64 {
        c.client(0).write_block(lb, vec![lb as u8; 32]).unwrap();
        c.client(0).write_block(lb, vec![lb as u8 + 1; 32]).unwrap();
    }
    let metadata = |c: &Cluster| -> Vec<usize> {
        c.network().with_node(NodeId(0), |n| {
            (0..8).map(|s| n.block_state(StripeId(s)).unwrap().metadata_bytes()).collect()
        })
    };
    let uncollected = metadata(&c);
    c.client(0).collect_garbage().unwrap();
    c.client(0).collect_garbage().unwrap();
    let collected = metadata(&c);
    assert!(collected.iter().zip(&uncollected).all(|(a, b)| a < b));

    c.crash_storage_node(NodeId(0));
    assert!(c.restart_storage_node_with_disk(NodeId(0)), "journal must replay");
    assert_eq!(metadata(&c), collected);
    for lb in 0..16u64 {
        assert_eq!(c.client(0).read_block(lb).unwrap(), vec![lb as u8 + 1; 32]);
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn metadata_overhead_is_constant_per_block() {
    // §6.5: "the memory used by our protocol at the storage nodes is 10
    // bytes per block". Ours differs in constant (we keep an explicit
    // clock and lock-holder id) but must be O(1) per block after GC,
    // independent of write history length.
    let c = cluster();
    for lb in 0..16u64 {
        for round in 0..4u8 {
            c.client(0).write_block(lb, vec![round; 32]).unwrap();
        }
    }
    c.client(0).collect_garbage().unwrap();
    c.client(0).collect_garbage().unwrap();

    let blocks = c.total_resident_blocks();
    let meta = c.total_metadata_bytes();
    let per_block = meta as f64 / blocks as f64;
    assert!(
        per_block <= 32.0,
        "metadata {per_block:.1} bytes/block should be a small constant"
    );
}

#[test]
fn recovery_acts_as_implicit_gc() {
    // Fig. 6 finalize clears both tid lists; a recovered stripe starts
    // with empty bookkeeping even if the client never ran GC.
    let c = cluster();
    for i in 0..10u8 {
        c.client(0).write_block(0, vec![i; 32]).unwrap();
    }
    assert!(pending_tids_at(&c, NodeId(2), StripeId(0)) >= 10);
    c.client(0).recover_stripe(StripeId(0)).unwrap();
    for node in 0..4 {
        assert_eq!(
            pending_tids_at(&c, NodeId(node), StripeId(0)),
            0,
            "node {node} lists cleared by finalize"
        );
    }
    assert_eq!(c.client(0).read_block(0).unwrap(), vec![9; 32]);
}
