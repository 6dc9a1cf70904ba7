//! Ablations of the design choices called out in `DESIGN.md` §2:
//!
//! 1. **Update strategy** (serial / hybrid / parallel / broadcast):
//!    measured write latency and client message cost at fixed code —
//!    the latency/resilience trade-off of §4 in practice.
//! 2. **Deferred redundant-block flushing** (§3.11): media writes under
//!    sequential I/O with write-through vs deferred policy.
//! 3. **`find_consistent` group-scan** vs the exhaustive subset search it
//!    replaces: timing on recovery-sized inputs.

use ajx_bench::{banner, measure_us, render_table};
use ajx_cluster::{drive, Cluster, Workload};
use ajx_core::{find_consistent, ProtocolConfig, UpdateStrategy};
use ajx_storage::{
    ClientId, Epoch, FlushPolicy, GetStateReply, NodeId, OpMode, Request, ShardedNode, StripeId, Tid,
    TidEntry,
};
use std::time::{Duration, Instant};

fn strategy_ablation() {
    println!("\n--- ablation 1: update strategy (6-of-10 code, p = 4) ---");
    let strategies: [(&str, UpdateStrategy); 4] = [
        ("serial", UpdateStrategy::Serial),
        ("hybrid s=2", UpdateStrategy::Hybrid { groups: 2 }),
        ("parallel", UpdateStrategy::Parallel),
        ("broadcast", UpdateStrategy::Broadcast),
    ];
    let mut rows = Vec::new();
    for (label, strategy) in strategies {
        let cfg = ProtocolConfig::new(6, 10, 1024).unwrap().with_strategy(strategy);
        let c = Cluster::with_network_shaping(
            cfg,
            1,
            Duration::from_micros(50),
            Some(60_000_000),
            Some(60_000_000),
        );
        c.client(0).write_block(0, vec![0; 1024]).unwrap();
        let before = c.client(0).endpoint().stats().snapshot();
        let t0 = Instant::now();
        let ops = 150u64;
        for i in 0..ops {
            c.client(0).write_block(0, vec![i as u8; 1024]).unwrap();
        }
        let lat_us = t0.elapsed().as_secs_f64() * 1e6 / ops as f64;
        let cost = c.client(0).endpoint().stats().snapshot().since(&before);
        let bound = strategy.max_storage_failures(4, 1);
        rows.push(vec![
            label.to_string(),
            format!("{lat_us:.0}"),
            format!("{:.1}", cost.msgs_sent as f64 / ops as f64),
            format!("{:.1}", cost.bytes_sent as f64 / ops as f64 / 1024.0),
            format!("{bound}"),
        ]);
    }
    print!(
        "{}",
        render_table(
            &[
                "strategy",
                "write latency (us)",
                "client msgs/write",
                "client KB sent/write",
                "max t_d at t_p=1",
            ],
            &rows
        )
    );
}

fn flush_ablation() {
    println!("\n--- ablation 2: deferred redundant-block flushing (sec 3.11) ---");
    let mut rows = Vec::new();
    for (label, policy) in [
        ("write-through", FlushPolicy::WriteThrough),
        ("deferred", FlushPolicy::Deferred),
    ] {
        // A storage node receiving the add stream of a sequential pass:
        // k = 8 consecutive writes hit the same redundant block before the
        // pass moves to the next stripe.
        let node = ShardedNode::new(NodeId(0), 1024, 1).with_flush_policy(policy);
        let k = 8u64;
        for stripe in 0..64u64 {
            for i in 0..k {
                node.handle(Request::Add {
                    stripe: StripeId(stripe),
                    delta: vec![1; 1024],
                    ntid: Tid::new(stripe * k + i, i as usize, ClientId(1)),
                    otid: None,
                    epoch: ajx_storage::Epoch(0),
                    scale: None,
                });
            }
        }
        node.flush_all();
        rows.push(vec![
            label.to_string(),
            node.lock_all().ops_handled().to_string(),
            node.media_writes().to_string(),
        ]);
    }
    print!(
        "{}",
        render_table(&["flush policy", "adds received", "media writes"], &rows)
    );
    println!("(sequential pass over 64 stripes, k = 8: deferral coalesces k adds into one media write)");
}

/// Exhaustive reference implementation of Fig. 6's `find_consistent` with
/// the per-subset Ĝ_S definition; exponential, usable only for small n.
fn find_consistent_exhaustive(states: &[GetStateReply], k: usize) -> usize {
    use std::collections::BTreeSet;
    let n = states.len();
    let candidates: Vec<usize> = (0..n)
        .filter(|&t| states[t].opmode == OpMode::Norm && states[t].block.is_some())
        .collect();
    let mut best = 0usize;
    for mask in 1u32..(1 << candidates.len()) {
        let s: Vec<usize> = candidates
            .iter()
            .enumerate()
            .filter(|&(b, _)| mask & (1 << b) != 0)
            .map(|(_, &t)| t)
            .collect();
        let ghat: BTreeSet<Tid> = s
            .iter()
            .flat_map(|&t| states[t].oldlist.iter().map(|e| e.tid))
            .collect();
        let f = |t: usize| -> BTreeSet<Tid> {
            states[t]
                .recentlist
                .iter()
                .map(|e| e.tid)
                .filter(|tid| !ghat.contains(tid))
                .collect()
        };
        let reds: Vec<usize> = s.iter().copied().filter(|&t| t >= k).collect();
        let datas: Vec<usize> = s.iter().copied().filter(|&t| t < k).collect();
        let mut ok = true;
        for w in reds.windows(2) {
            if f(w[0]) != f(w[1]) {
                ok = false;
                break;
            }
        }
        if ok {
            for &r in reds.first().iter() {
                let fr = f(*r);
                for &j in &datas {
                    let h: BTreeSet<Tid> =
                        fr.iter().copied().filter(|t| t.block == j).collect();
                    if h != f(j) {
                        ok = false;
                        break;
                    }
                }
            }
        }
        if ok {
            best = best.max(s.len());
        }
    }
    best
}

fn find_consistent_ablation() {
    println!("\n--- ablation 3: find_consistent group-scan vs exhaustive subset search ---");
    // Build a messy 4-of-8 recovery input: several partial writes.
    let k = 4usize;
    let n = 8usize;
    let e = |seq: u64, block: usize, time: u64| TidEntry {
        tid: Tid::new(seq, block, ClientId(1)),
        time,
    };
    let mut states: Vec<GetStateReply> = (0..n)
        .map(|_| GetStateReply {
            opmode: OpMode::Norm,
            recons_set: vec![],
            oldlist: vec![],
            recentlist: vec![],
            block: Some(vec![0]),
            epoch: Epoch(0),
        })
        .collect();
    // Write A (block 0) reached nodes 0, 4, 5; write B (block 2) reached
    // 2, 5, 6; write C (block 1) reached only node 1.
    states[0].recentlist = vec![e(1, 0, 1)];
    states[4].recentlist = vec![e(1, 0, 1)];
    states[5].recentlist = vec![e(1, 0, 1), e(2, 2, 2)];
    states[2].recentlist = vec![e(2, 2, 1)];
    states[6].recentlist = vec![e(2, 2, 1)];
    states[1].recentlist = vec![e(3, 1, 1)];

    let fast = find_consistent(&states, k);
    let slow = find_consistent_exhaustive(&states, k);
    println!("group-scan result size: {}, exhaustive maximum: {slow}", fast.len());
    assert_eq!(fast.len(), slow, "optimized search must match the exhaustive maximum");

    let fast_us = measure_us(|| {
        std::hint::black_box(find_consistent(std::hint::black_box(&states), k));
    });
    let slow_us = measure_us(|| {
        std::hint::black_box(find_consistent_exhaustive(std::hint::black_box(&states), k));
    });
    println!("group-scan: {fast_us:.1} us; exhaustive: {slow_us:.1} us ({:.0}x)", slow_us / fast_us);
}

fn write_coalescing_throughput() {
    println!("\n--- ablation 4: sequential vs random write throughput (pipelining, sec 3.11) ---");
    let mut rows = Vec::new();
    for (label, workload) in [
        ("sequential", Workload::SequentialWrite { extent: 64 }),
        ("random", Workload::RandomWrite { blocks: 256 }),
    ] {
        let cfg = ProtocolConfig::new(4, 6, 1024).unwrap();
        let c = Cluster::with_network_shaping(
            cfg,
            2,
            Duration::from_micros(50),
            Some(60_000_000),
            Some(60_000_000),
        );
        let r = drive(&c, 16, 40, workload, 23);
        rows.push(vec![label.to_string(), format!("{:.2}", r.mb_per_sec())]);
    }
    print!("{}", render_table(&["workload", "agg write MB/s"], &rows));
}

fn main() {
    banner(
        "Ablations — design choices from DESIGN.md sec 2",
        "strategy trade-off (Thms 1-3), deferred flushing, find_consistent, layout",
    );
    strategy_ablation();
    flush_ablation();
    find_consistent_ablation();
    write_coalescing_throughput();
}
