//! Concurrency: the protocol's core claim is that concurrent writes —
//! including to blocks coupled by the erasure code — need no client
//! coordination (Fig. 3), and that concurrent writes to the *same* block
//! are ordered by the `otid` mechanism (§3.7).

use ajx_cluster::Cluster;
use ajx_consistency::{check_regular, Recorder};
use ajx_core::{ProtocolConfig, UpdateStrategy};
use ajx_storage::StripeId;
use std::sync::Arc;

fn cluster(k: usize, n: usize, clients: usize) -> Cluster {
    Cluster::new(ProtocolConfig::new(k, n, 32).unwrap(), clients)
}

#[test]
fn fig3c_concurrent_writes_to_coupled_blocks() {
    // Two clients concurrently update different blocks of the same stripe
    // many times; the erasure code must stay consistent without any locks
    // (Fig. 3(C) generalized).
    let c = Arc::new(cluster(2, 4, 2));
    std::thread::scope(|s| {
        for (idx, block) in [(0usize, 0u64), (1usize, 1u64)] {
            let c = Arc::clone(&c);
            s.spawn(move || {
                for i in 0..100u8 {
                    c.client(idx)
                        .write_block(block, vec![i.wrapping_add(idx as u8 * 7); 32])
                        .unwrap();
                }
            });
        }
    });
    assert!(c.stripe_is_consistent(StripeId(0)));
    assert_eq!(c.client(0).read_block(0).unwrap(), vec![99; 32]);
    assert_eq!(c.client(0).read_block(1).unwrap(), vec![99u8.wrapping_add(7); 32]);
}

#[test]
fn concurrent_writers_on_every_block_of_a_wide_stripe() {
    // k writers, one per data block of one stripe, hammering concurrently:
    // every redundant node receives interleaved adds from all writers.
    let k = 4;
    let c = Arc::new(cluster(k, 7, k));
    std::thread::scope(|s| {
        for w in 0..k {
            let c = Arc::clone(&c);
            s.spawn(move || {
                for i in 0..60u8 {
                    c.client(w)
                        .write_block(w as u64, vec![i ^ (w as u8) << 4; 32])
                        .unwrap();
                }
            });
        }
    });
    assert!(c.stripe_is_consistent(StripeId(0)));
}

#[test]
fn same_block_contention_resolves_to_a_single_write() {
    // Two clients race on the SAME block. The otid/ORDER machinery must
    // apply their swaps and adds in the same order everywhere, leaving the
    // stripe consistent and the block holding one of the written values.
    let c = Arc::new(cluster(2, 4, 2));
    std::thread::scope(|s| {
        for idx in 0..2usize {
            let c = Arc::clone(&c);
            s.spawn(move || {
                for i in 0..50u8 {
                    c.client(idx)
                        .write_block(0, vec![(idx as u8 + 1) * 100 + i % 50; 32])
                        .unwrap();
                }
            });
        }
    });
    assert!(c.stripe_is_consistent(StripeId(0)));
    let v = c.client(0).read_block(0).unwrap();
    assert!(v.iter().all(|&b| b == v[0]));
    assert!(
        (100..150).contains(&v[0]) || (200..250).contains(&v[0]),
        "final value {} must come from one of the writers",
        v[0]
    );
}

#[test]
fn mixed_read_write_history_is_regular() {
    // The §3.1 guarantee, checked mechanically: record a concurrent
    // read/write history and validate multi-writer regularity.
    let c = Arc::new(cluster(2, 4, 3));
    let rec: Arc<Recorder<u8>> = Recorder::new();
    std::thread::scope(|s| {
        // Two writers on two blocks.
        for w in 0..2usize {
            let c = Arc::clone(&c);
            let rec = Arc::clone(&rec);
            s.spawn(move || {
                for i in 0..40u8 {
                    let val = (w as u8 + 1) * 100 + i;
                    let pending = rec.invoke();
                    c.client(w).write_block(w as u64, vec![val; 32]).unwrap();
                    rec.complete_write(w as u64, w as u32, pending, val);
                }
            });
        }
        // One reader sweeping both blocks.
        let c = Arc::clone(&c);
        let rec = Arc::clone(&rec);
        s.spawn(move || {
            for i in 0..80u64 {
                let loc = i % 2;
                let pending = rec.invoke();
                let v = c.client(2).read_block(loc).unwrap();
                let observed = if v == vec![0; 32] { None } else { Some(v[0]) };
                rec.complete_read(loc, 2, pending, observed);
            }
        });
    });
    let history = rec.take_history();
    assert_eq!(history.len(), 160);
    check_regular(&history).expect("multi-writer regularity must hold");
}

#[test]
fn broadcast_strategy_under_concurrency() {
    let cfg = ProtocolConfig::new(3, 5, 32)
        .unwrap()
        .with_strategy(UpdateStrategy::Broadcast);
    let c = Arc::new(Cluster::new(cfg, 2));
    std::thread::scope(|s| {
        for idx in 0..2usize {
            let c = Arc::clone(&c);
            s.spawn(move || {
                for i in 0..40u8 {
                    c.client(idx)
                        .write_block(idx as u64, vec![i; 32])
                        .unwrap();
                }
            });
        }
    });
    assert!(c.stripe_is_consistent(StripeId(0)));
}

#[test]
fn many_threads_one_client_share_the_endpoint() {
    // The paper's client is multi-threaded with one thread per outstanding
    // call; our Client must tolerate full intra-client concurrency.
    let c = Arc::new(cluster(2, 4, 1));
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let c = Arc::clone(&c);
            s.spawn(move || {
                for i in 0..30u64 {
                    let lb = (t * 30 + i) % 16;
                    c.client(0).write_block(lb, vec![(lb + 1) as u8; 32]).unwrap();
                }
            });
        }
    });
    for s in 0..8 {
        assert!(c.stripe_is_consistent(StripeId(s)), "stripe {s}");
    }
}
