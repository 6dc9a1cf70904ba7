//! Failure handling: storage-node crashes with online recovery (§3.8),
//! client crashes leaving partial writes (§1 limitations / §3.10), crashes
//! *during recovery* with pickup by another client, and epoch fencing.

use ajx_cluster::Cluster;
use ajx_core::{ProtocolConfig, ProtocolError};
use ajx_storage::{ClientId, NodeId, OpMode, Reply, Request, StripeId, Tid};
use ajx_transport::RpcError;
use std::sync::Arc;

fn cluster(k: usize, n: usize, clients: usize) -> Cluster {
    Cluster::new(ProtocolConfig::new(k, n, 32).unwrap(), clients)
}

#[test]
fn storage_crash_then_read_triggers_online_recovery() {
    // The legacy read-repairs-stripe path, kept behind the
    // `degraded_reads` switch (the default now serves such reads
    // lock-free and leaves repair to the rebuild engine — see
    // degraded_rebuild.rs).
    let mut cfg = ProtocolConfig::new(3, 5, 32).unwrap();
    cfg.degraded_reads = false;
    let c = Cluster::new(cfg, 2);
    for lb in 0..6u64 {
        c.client(0).write_block(lb, vec![lb as u8 + 1; 32]).unwrap();
    }
    // Crash the node holding stripe 0's data block 0 (rotation: node 0).
    c.crash_storage_node(NodeId(0));
    // Reading through a *different* client reconstructs the lost block.
    assert_eq!(c.client(1).read_block(0).unwrap(), vec![1; 32]);
    assert!(c.stripe_is_consistent(StripeId(0)));
    // All other data on the crashed node recovers on access too.
    for lb in 0..6u64 {
        assert_eq!(c.client(1).read_block(lb).unwrap(), vec![lb as u8 + 1; 32]);
    }
}

#[test]
fn storage_crash_then_write_triggers_recovery() {
    let c = cluster(2, 4, 1);
    c.client(0).write_block(0, vec![1; 32]).unwrap();
    c.client(0).write_block(1, vec![2; 32]).unwrap();
    c.crash_storage_node(NodeId(0));
    // Writing block 0 hits the crashed data node: swap fails on the INIT
    // replacement, recovery runs, then the write lands.
    c.client(0).write_block(0, vec![9; 32]).unwrap();
    assert!(c.stripe_is_consistent(StripeId(0)));
    assert_eq!(c.client(0).read_block(0).unwrap(), vec![9; 32]);
    assert_eq!(c.client(0).read_block(1).unwrap(), vec![2; 32]);
}

#[test]
fn crash_of_redundant_node_is_transparent_to_reads() {
    let c = cluster(2, 4, 1);
    c.client(0).write_block(0, vec![5; 32]).unwrap();
    // Stripe 0's redundant blocks live on nodes 2 and 3.
    c.crash_storage_node(NodeId(2));
    // Reads never touch redundant nodes (the paper's design point).
    assert_eq!(c.client(0).read_block(0).unwrap(), vec![5; 32]);
    // A write to the stripe *does* touch node 2 and repairs it.
    c.client(0).write_block(1, vec![6; 32]).unwrap();
    assert!(c.stripe_is_consistent(StripeId(0)));
}

#[test]
fn tolerates_p_simultaneous_storage_crashes() {
    // A 3-of-5 code must survive n − k = 2 simultaneous node losses.
    let c = cluster(3, 5, 1);
    for lb in 0..3u64 {
        c.client(0).write_block(lb, vec![lb as u8 + 10; 32]).unwrap();
    }
    c.crash_storage_node(NodeId(0));
    c.crash_storage_node(NodeId(3));
    for lb in 0..3u64 {
        assert_eq!(
            c.client(0).read_block(lb).unwrap(),
            vec![lb as u8 + 10; 32],
            "block {lb} after double crash"
        );
    }
    // The degraded reads served correct data but repaired nothing; an
    // explicit recovery restores full redundancy.
    c.client(0).recover_stripe(StripeId(0)).unwrap();
    assert!(c.stripe_is_consistent(StripeId(0)));
}

#[test]
fn more_crashes_than_redundancy_is_unrecoverable() {
    let c = cluster(2, 4, 1);
    c.client(0).write_block(0, vec![1; 32]).unwrap();
    // p = 2; crash 3 nodes: only one consistent block remains.
    c.crash_storage_node(NodeId(0));
    c.crash_storage_node(NodeId(1));
    c.crash_storage_node(NodeId(2));
    let err = c.client(0).read_block(0).unwrap_err();
    assert!(
        matches!(err, ProtocolError::Unrecoverable { .. }),
        "expected Unrecoverable, got {err:?}"
    );
}

#[test]
fn partial_write_detected_and_repaired_by_monitoring() {
    // §3.10: a client dies after its swap but before any adds; the stripe
    // is inconsistent until the monitoring sweep repairs it.
    let c = cluster(2, 4, 2);
    c.client(0).write_block(0, vec![1; 32]).unwrap();
    c.client(0).write_block(1, vec![2; 32]).unwrap();

    let detect = c.kill_client_after(0, 1); // budget: exactly the swap
    let err = c.client(0).write_block(0, vec![99; 32]).unwrap_err();
    assert_eq!(err, ProtocolError::Rpc(RpcError::ClientKilled));
    assert!(
        !c.stripe_is_consistent(StripeId(0)),
        "partial write must leave the stripe inconsistent"
    );
    detect(); // fail-stop detection (no locks were held, but modeled)

    // The monitor sees the dangling tid in node recentlists and recovers.
    let report = c.client(1).monitor(&[StripeId(0)], 1).unwrap();
    assert_eq!(report.recovered, vec![StripeId(0)]);
    assert!(c.stripe_is_consistent(StripeId(0)));

    // Regular-register semantics: the interrupted write may or may not
    // survive; both {99} and {1} are legal for block 0, block 1 is intact.
    let v0 = c.client(1).read_block(0).unwrap();
    assert!(v0 == vec![99; 32] || v0 == vec![1; 32], "got {:?}", v0[0]);
    assert_eq!(c.client(1).read_block(1).unwrap(), vec![2; 32]);
}

#[test]
fn partial_write_with_some_adds_is_completed_or_discarded_atomically() {
    // Kill after swap + 1 of 2 adds: recovery must pick a consistent cut —
    // either the write fully applies (data + both redundant) or not at all.
    let c = cluster(2, 4, 2);
    c.client(0).write_block(0, vec![7; 32]).unwrap();

    let detect = c.kill_client_after(0, 2); // swap + first add
    let _ = c.client(0).write_block(0, vec![42; 32]).unwrap_err();
    detect();

    let report = c.client(1).monitor(&[StripeId(0)], 1).unwrap();
    assert_eq!(report.recovered, vec![StripeId(0)]);
    assert!(c.stripe_is_consistent(StripeId(0)));
    let v = c.client(1).read_block(0).unwrap();
    assert!(v == vec![42; 32] || v == vec![7; 32], "got {:?}", v[0]);
}

#[test]
fn crash_during_recovery_is_picked_up_via_recons_set() {
    // Client 0 crashes in recovery phase 3, after reconstructing some
    // nodes; its locks expire; client 1 picks up from recons_set.
    let c = cluster(2, 4, 2);
    c.client(0).write_block(0, vec![3; 32]).unwrap();
    c.client(0).write_block(1, vec![4; 32]).unwrap();

    c.crash_storage_node(NodeId(0));
    c.remap_storage_node(NodeId(0));

    // Recovery call budget: trylocks(4) + get_metas(4) + the lost block's
    // 2 repair shares + its 1 reconstruct, then death before the 4
    // finalizes. (Recovery is driven explicitly: a read of the remapped
    // block would be served degraded.)
    let detect = c.kill_client_after(0, 4 + 4 + 2 + 1);
    let err = c.client(0).recover_stripe(StripeId(0)).unwrap_err();
    assert_eq!(err, ProtocolError::Rpc(RpcError::ClientKilled));
    let expired = detect();
    assert!(expired > 0, "dead client held recovery locks");

    // Some node must be left in RECONS with a saved recons_set.
    let recons_left = (0..4).any(|t| {
        c.network().with_node(NodeId(t), |n| {
            n.block_state(StripeId(0))
                .is_some_and(|b| b.opmode() == OpMode::Recons)
        })
    });
    assert!(recons_left, "the crash must land mid-phase-3");

    // Client 1 stumbles on the expired locks and completes the recovery.
    assert_eq!(c.client(1).read_block(0).unwrap(), vec![3; 32]);
    assert_eq!(c.client(1).read_block(1).unwrap(), vec![4; 32]);
    assert!(c.stripe_is_consistent(StripeId(0)));
}

#[test]
fn crash_during_recovery_phase_one_leaves_data_untouched() {
    // Death while acquiring locks: nothing was modified; expiry + retry by
    // another client must succeed trivially.
    let c = cluster(2, 4, 2);
    c.client(0).write_block(0, vec![8; 32]).unwrap();
    c.crash_storage_node(NodeId(3)); // a redundant node of stripe 0
    c.remap_storage_node(NodeId(3));

    // Probe (via monitor path): client 0 starts recovery but dies after
    // two trylocks.
    let detect = c.kill_client_after(0, 4 + 2); // monitor probes n, then 2 trylocks
    let err = c.client(0).monitor(&[StripeId(0)], 1).unwrap_err();
    assert_eq!(err, ProtocolError::Rpc(RpcError::ClientKilled));
    let expired = detect();
    assert!(expired > 0);

    let report = c.client(1).monitor(&[StripeId(0)], 1).unwrap();
    assert_eq!(report.recovered, vec![StripeId(0)]);
    assert!(c.stripe_is_consistent(StripeId(0)));
    assert_eq!(c.client(1).read_block(0).unwrap(), vec![8; 32]);
}

#[test]
fn stale_epoch_adds_are_fenced_after_recovery() {
    // A write's swap lands in epoch e; recovery completes (epoch e+1);
    // the write's leftover adds must be rejected, not garble redundancy.
    let c = cluster(2, 4, 2);
    c.client(0).write_block(0, vec![1; 32]).unwrap();
    c.client(0).write_block(1, vec![2; 32]).unwrap();

    // Hand-roll the swap of an in-flight write (client-0's perspective),
    // using the raw endpoint so we can pause "mid-write".
    let raw = c.network().client(ClientId(77));
    let stripe = StripeId(0);
    let ntid = Tid::new(999, 0, ClientId(77));
    let Reply::Swap(swap) = raw
        .call(
            NodeId(0),
            Request::Swap {
                stripe,
                value: vec![50; 32],
                ntid,
            },
        )
        .unwrap()
    else {
        panic!("expected swap reply")
    };
    let old_epoch = swap.epoch;
    let old_block = swap.block.unwrap();

    // Client 1 recovers the stripe (e.g. monitoring found the partial
    // write), bumping the epoch.
    c.client(1).recover_stripe(stripe).unwrap();
    assert!(c.stripe_is_consistent(stripe));

    // The stalled write now sends its adds with the stale epoch.
    let code = c.config().code.clone();
    for (j, node) in [(0usize, NodeId(2)), (1usize, NodeId(3))] {
        let delta = code.delta(j, 0, &[50; 32], &old_block).unwrap();
        let Reply::Add(add) = raw
            .call(
                node,
                Request::Add {
                    stripe,
                    delta,
                    ntid,
                    otid: None,
                    epoch: old_epoch,
                    scale: None,
                },
            )
            .unwrap()
        else {
            panic!("expected add reply")
        };
        assert_eq!(
            add.status,
            ajx_storage::AddStatus::Unavail,
            "stale-epoch add must be rejected at node {node}"
        );
    }
    // Redundancy untouched by the fenced adds.
    assert!(c.stripe_is_consistent(stripe));
}

#[test]
fn monitoring_restores_resilience_after_tp_plus_one_client_crashes() {
    // §3.10: "this mechanism even works if the threshold t_p of client
    // failures was exceeded, as long as no storage nodes have crashed."
    // Three clients all die mid-write to the same stripe; monitoring
    // repairs everything; then the full n − k storage crashes are survivable
    // again.
    let c = cluster(3, 5, 4);
    for lb in 0..3u64 {
        c.client(3).write_block(lb, vec![lb as u8 + 1; 32]).unwrap();
    }
    let mut detects = Vec::new();
    for w in 0..3usize {
        detects.push(c.kill_client_after(w, 1));
        let _ = c.client(w).write_block(w as u64, vec![200 + w as u8; 32]);
    }
    for d in detects {
        d();
    }
    assert!(!c.stripe_is_consistent(StripeId(0)));

    let report = c.client(3).monitor(&[StripeId(0)], 1).unwrap();
    assert_eq!(report.recovered, vec![StripeId(0)]);
    assert!(c.stripe_is_consistent(StripeId(0)));

    // Resilience restored: survive p = 2 storage crashes.
    c.crash_storage_node(NodeId(1));
    c.crash_storage_node(NodeId(4));
    for lb in 0..3u64 {
        let v = c.client(3).read_block(lb).unwrap();
        let survived = v == vec![200 + lb as u8; 32] || v == vec![lb as u8 + 1; 32];
        assert!(survived, "block {lb} lost: {:?}", v[0]);
    }
}

#[test]
fn concurrent_recovery_attempts_do_not_deadlock() {
    // Crash a node, then let two clients collide on recovery: trylock
    // ordering + LostRace must resolve it. Degraded reads are disabled so
    // that both reads actually race into Fig. 6 recovery.
    let mut cfg = ProtocolConfig::new(2, 4, 32).unwrap();
    cfg.degraded_reads = false;
    let c = Arc::new(Cluster::new(cfg, 2));
    c.client(0).write_block(0, vec![6; 32]).unwrap();
    c.crash_storage_node(NodeId(1));
    std::thread::scope(|s| {
        for idx in 0..2usize {
            let c = Arc::clone(&c);
            s.spawn(move || {
                // Block 1 of stripe 0 lives on crashed node 1.
                assert_eq!(c.client(idx).read_block(1).unwrap(), vec![0; 32]);
            });
        }
    });
    assert!(c.stripe_is_consistent(StripeId(0)));
    assert_eq!(c.client(0).read_block(0).unwrap(), vec![6; 32]);
}

#[test]
fn repeated_crash_recover_cycles() {
    // One crash per round. Reads alone only repair damage on the data
    // path; the §3.10 monitoring sweep is what restores the *redundant*
    // blocks each round — without it, unnoticed redundant-node losses
    // accumulate past t_d (which is exactly the paper's motivation for
    // the monitor).
    let c = cluster(2, 4, 1);
    for round in 0..6u32 {
        let lb = u64::from(round % 4);
        c.client(0)
            .write_block(lb, vec![round as u8 + 1; 32])
            .unwrap();
        let victim = NodeId(round % 4);
        c.crash_storage_node(victim);
        // Every logical block remains readable after each crash.
        for probe in 0..4u64 {
            let _ = c.client(0).read_block(probe).unwrap();
        }
        // Monitoring restores full redundancy before the next crash.
        c.client(0)
            .monitor(&[StripeId(0), StripeId(1)], u64::MAX)
            .unwrap();
        assert!(c.stripe_is_consistent(StripeId(0)));
        assert!(c.stripe_is_consistent(StripeId(1)));
    }
}

#[test]
fn recovery_resets_epoch_and_clears_tid_lists() {
    let c = cluster(2, 4, 1);
    c.client(0).write_block(0, vec![1; 32]).unwrap();
    let before = c
        .network()
        .with_node(NodeId(0), |n| n.block_state(StripeId(0)).unwrap().epoch());
    c.client(0).recover_stripe(StripeId(0)).unwrap();
    c.network().with_node(NodeId(0), |n| {
        let b = n.block_state(StripeId(0)).unwrap();
        assert!(b.epoch() > before, "epoch must advance");
        assert_eq!(b.pending_tids(), 0, "recentlist cleared by finalize");
        assert_eq!(b.opmode(), OpMode::Norm);
    });
}
