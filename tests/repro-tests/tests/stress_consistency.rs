//! Randomized stress with fault injection, checked against the §3.1
//! consistency contract (multi-writer regularity) and the erasure-code
//! ground truth.

use ajx_cluster::Cluster;
use ajx_consistency::{check_regular, Recorder};
use ajx_core::ProtocolConfig;
use ajx_storage::{NodeId, StripeId};
use rand::{Rng, SeedableRng};
use std::sync::Arc;

#[test]
fn randomized_concurrent_load_is_regular() {
    // 3 writers + 2 readers over 8 blocks, random interleaving; the
    // recorded history must satisfy multi-writer regularity.
    let cfg = ProtocolConfig::new(2, 4, 32).unwrap();
    let c = Arc::new(Cluster::new(cfg, 5));
    let rec: Arc<Recorder<u16>> = Recorder::new();

    std::thread::scope(|s| {
        for w in 0..3usize {
            let c = Arc::clone(&c);
            let rec = Arc::clone(&rec);
            s.spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(w as u64);
                for i in 0..60u16 {
                    let lb = rng.random_range(0..8u64);
                    // Unique nonzero value per (writer, i) so the checker
                    // can identify the witnessing write; low byte encodes
                    // it into the block.
                    let val = (w as u16 + 1) * 1000 + i;
                    let fill = (val % 251 + 1) as u8;
                    let pending = rec.invoke();
                    c.client(w).write_block(lb, vec![fill; 32]).unwrap();
                    rec.complete_write(lb, w as u32, pending, fill as u16);
                }
            });
        }
        for r in 3..5usize {
            let c = Arc::clone(&c);
            let rec = Arc::clone(&rec);
            s.spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(r as u64 + 100);
                for _ in 0..80 {
                    let lb = rng.random_range(0..8u64);
                    let pending = rec.invoke();
                    let v = c.client(r).read_block(lb).unwrap();
                    let observed = if v[0] == 0 { None } else { Some(v[0] as u16) };
                    rec.complete_read(lb, r as u32, pending, observed);
                }
            });
        }
    });

    let history = rec.take_history();
    check_regular(&history).expect("§3.1 regularity violated");
    for s in 0..4 {
        assert!(c.stripe_is_consistent(StripeId(s)));
    }
}

#[test]
fn stress_with_storage_crashes_keeps_committed_data() {
    // Writers run while nodes crash and recover; after the dust settles,
    // every block holds a value some writer actually wrote.
    let cfg = ProtocolConfig::new(2, 4, 32)
        .unwrap()
        .with_failure_thresholds(0, 1);
    let c = Arc::new(Cluster::new(cfg, 3));
    // Seed all blocks.
    for lb in 0..8u64 {
        c.client(0).write_block(lb, vec![1; 32]).unwrap();
    }

    std::thread::scope(|s| {
        for w in 0..2usize {
            let c = Arc::clone(&c);
            s.spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(w as u64 + 7);
                for _ in 0..60 {
                    let lb = rng.random_range(0..8u64);
                    let fill = rng.random_range(1..=255u8);
                    // Writes may fail transiently mid-crash; that's fine —
                    // regularity only constrains completed ops.
                    let _ = c.client(w).write_block(lb, vec![fill; 32]);
                }
            });
        }
        // Chaos thread: one node at a time crashes and comes back. After
        // each remap the §3.10 monitor restores full redundancy *before*
        // the next crash — §4's "resetting the number of failures": the
        // system tolerates t_d crashes per recovered epoch, not unbounded
        // back-to-back losses.
        let c = Arc::clone(&c);
        s.spawn(move || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(99);
            let stripes: Vec<StripeId> = (0..4).map(StripeId).collect();
            for _ in 0..6 {
                let victim = NodeId(rng.random_range(0..4u32));
                c.crash_storage_node(victim);
                std::thread::sleep(std::time::Duration::from_millis(2));
                // Node comes back empty (remap happens lazily on access,
                // but force it so the window closes).
                c.remap_storage_node(victim);
                c.client(2)
                    .monitor(&stripes, u64::MAX)
                    .expect("monitor restores redundancy after a single crash");
            }
        });
    });

    // Repair everything via monitoring, then verify ground truth.
    let stripes: Vec<StripeId> = (0..4).map(StripeId).collect();
    c.client(2).monitor(&stripes, 1).unwrap();
    for s in &stripes {
        assert!(c.stripe_is_consistent(*s), "{s} inconsistent after chaos");
    }
    for lb in 0..8u64 {
        let v = c.client(2).read_block(lb).unwrap();
        assert!(v.iter().all(|&b| b == v[0]), "block {lb} torn: {:?}", &v[..4]);
    }
}

#[test]
fn sequential_then_random_rewrites_many_stripes() {
    let cfg = ProtocolConfig::new(4, 6, 16).unwrap();
    let c = Cluster::new(cfg, 1);
    let blocks = 64u64;
    for lb in 0..blocks {
        c.client(0).write_block(lb, vec![(lb + 1) as u8; 16]).unwrap();
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    for _ in 0..100 {
        let lb = rng.random_range(0..blocks);
        let fill = rng.random::<u8>();
        c.client(0).write_block(lb, vec![fill; 16]).unwrap();
        let got = c.client(0).read_block(lb).unwrap();
        assert_eq!(got, vec![fill; 16]);
    }
    for s in 0..(blocks / 4) {
        assert!(c.stripe_is_consistent(StripeId(s)), "stripe {s}");
    }
}
