//! Recovery running *concurrently with* writes — the paper's "online
//! recovery: when failures occur, recovery does not require to suspend
//! read and write operations" (§1), plus the epoch mechanism that makes
//! it safe (§3.8 "Epochs": a write whose swap ran in an old epoch must
//! not garble the recovered stripe).

use ajx_cluster::Cluster;
use ajx_core::ProtocolConfig;
use ajx_storage::StripeId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[test]
fn writes_survive_repeated_concurrent_recoveries() {
    // One client hammers writes on a stripe while another runs recovery
    // over and over. Every write that returns Ok must be durable and the
    // stripe must end consistent.
    let cfg = ProtocolConfig::new(2, 4, 32).unwrap();
    let c = Arc::new(Cluster::new(cfg, 2));
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        {
            let c = Arc::clone(&c);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                // The recovery loop: like a very aggressive monitor.
                while !stop.load(Ordering::SeqCst) {
                    c.client(1).recover_stripe(StripeId(0)).unwrap();
                }
            });
        }
        let c2 = Arc::clone(&c);
        s.spawn(move || {
            for i in 0..150u8 {
                c2.client(0).write_block(0, vec![i; 32]).unwrap();
                c2.client(0).write_block(1, vec![i ^ 0xFF; 32]).unwrap();
            }
            stop.store(true, Ordering::SeqCst);
        });
    });

    assert!(c.stripe_is_consistent(StripeId(0)));
    assert_eq!(c.client(1).read_block(0).unwrap(), vec![149; 32]);
    assert_eq!(c.client(1).read_block(1).unwrap(), vec![149 ^ 0xFF; 32]);
}

#[test]
fn reads_continue_during_recovery_of_other_stripes() {
    // Recovery locks one stripe; reads and writes on *other* stripes must
    // proceed untouched (per-stripe state isolation).
    let cfg = ProtocolConfig::new(2, 4, 32).unwrap();
    let c = Arc::new(Cluster::new(cfg, 2));
    for lb in 0..20u64 {
        c.client(0).write_block(lb, vec![(lb + 1) as u8; 32]).unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        {
            let c = Arc::clone(&c);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    c.client(1).recover_stripe(StripeId(0)).unwrap();
                }
            });
        }
        let c2 = Arc::clone(&c);
        s.spawn(move || {
            // Blocks 2..20 live on stripes 1..10 — disjoint from stripe 0.
            for round in 0..30u64 {
                for lb in 2..20u64 {
                    let v = c2.client(0).read_block(lb).unwrap();
                    assert_eq!(v, vec![(lb + 1) as u8; 32], "round {round}");
                }
            }
            stop.store(true, Ordering::SeqCst);
        });
    });
    for s in 0..10 {
        assert!(c.stripe_is_consistent(StripeId(s)));
    }
}

#[test]
fn recovery_races_with_node_crash_and_remap() {
    // Crash + remap injected while a recovery is (probably) mid-flight;
    // the system must converge to a consistent stripe with data intact or
    // cleanly report unrecoverability — never corrupt silently.
    let cfg = ProtocolConfig::new(3, 5, 32)
        .unwrap()
        .with_failure_thresholds(0, 2);
    let c = Arc::new(Cluster::new(cfg, 2));
    for lb in 0..3u64 {
        c.client(0).write_block(lb, vec![0x5A; 32]).unwrap();
    }
    for round in 0..10u32 {
        let victim = ajx_storage::NodeId(round % 5);
        std::thread::scope(|s| {
            {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    // May race with the crash below — both outcomes fine.
                    let _ = c.client(1).recover_stripe(StripeId(0));
                });
            }
            let c2 = Arc::clone(&c);
            s.spawn(move || {
                c2.crash_storage_node(victim);
                c2.remap_storage_node(victim);
            });
        });
        // Converge before next round.
        c.client(0).monitor(&[StripeId(0)], u64::MAX).unwrap();
        assert!(c.stripe_is_consistent(StripeId(0)), "round {round}");
        for lb in 0..3u64 {
            assert_eq!(
                c.client(0).read_block(lb).unwrap(),
                vec![0x5A; 32],
                "round {round} block {lb}"
            );
        }
    }
}
