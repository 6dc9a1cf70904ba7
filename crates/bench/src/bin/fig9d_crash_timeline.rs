//! **Fig. 9(d)** — throughput timeline around a storage-node crash:
//! two clients read/write random blocks on a 3-of-5 code; a node crashes;
//! throughput drops to ~1/3 and gradually recovers as clients repair
//! blocks they touch, then fully once the monitor sweeps the rest.
//!
//! Also reports the §6.2 recovery-throughput experiment (the paper:
//! ~17 MB/s aggregate, ~22 ms per 16-block recovery request).

#![expect(clippy::disallowed_methods, reason = "experiments time real work")]

use ajx_bench::{banner, render_table};
use ajx_cluster::{drive, Cluster, Workload};
use ajx_core::ProtocolConfig;
use ajx_storage::{NodeId, StripeId};
use std::time::{Duration, Instant};

const NIC: u64 = 60_000_000;
const LAT: Duration = Duration::from_micros(50);
const BLOCKS: u64 = 600;

fn main() {
    banner(
        "Fig. 9(d) — throughput timeline with a storage-node crash (3-of-5, 2 clients)",
        "crash drops throughput to ~1/3 of healthy; access-driven recovery \
         restores it gradually; monitor completes the repair",
    );
    let cfg = ProtocolConfig::new(3, 5, 1024).unwrap();
    let cluster = Cluster::with_network_shaping(cfg, 2, LAT, Some(NIC), Some(NIC));
    let stripes: Vec<StripeId> = (0..BLOCKS.div_ceil(3)).map(StripeId).collect();
    for lb in 0..BLOCKS {
        cluster
            .client(0)
            .write_block(lb, vec![(lb % 251) as u8; 1024])
            .unwrap();
    }

    let mut rows = Vec::new();
    let workload = Workload::Mixed {
        blocks: BLOCKS,
        read_pct: 50,
    };
    let mut interval = 0;
    let mut measure = |label: &str, cluster: &Cluster, rows: &mut Vec<Vec<String>>| {
        let r = drive(cluster, 8, 40, workload, interval as u64);
        interval += 1;
        rows.push(vec![
            interval.to_string(),
            label.to_string(),
            format!("{:.2}", r.mb_per_sec()),
            r.ops.to_string(),
        ]);
        r.mb_per_sec()
    };

    let healthy = measure("healthy", &cluster, &mut rows);
    let _ = measure("healthy", &cluster, &mut rows);
    cluster.crash_storage_node(NodeId(1));
    let crashed = measure("CRASH: node 1 down", &cluster, &mut rows);
    let _ = measure("recovering on access", &cluster, &mut rows);
    let _ = measure("recovering on access", &cluster, &mut rows);
    // Monitor sweeps whatever the workload has not touched.
    let t0 = Instant::now();
    let report = cluster.client(0).monitor(&stripes, u64::MAX).unwrap();
    let monitor_time = t0.elapsed();
    let restored = measure("after monitor sweep", &cluster, &mut rows);
    let _ = measure("steady state", &cluster, &mut rows);

    print!(
        "{}",
        render_table(&["interval", "event", "agg MB/s", "ops"], &rows)
    );
    println!(
        "\ncrash drop: {:.2} -> {:.2} MB/s ({:.0}% of healthy; paper: ~1/3)",
        healthy,
        crashed,
        100.0 * crashed / healthy
    );
    println!(
        "monitor: {} stripes repaired in {:.0} ms; restored throughput {restored:.2} MB/s",
        report.recovered.len(),
        monitor_time.as_secs_f64() * 1e3
    );

    // §6.2 recovery-throughput experiment: crash a node, recover every
    // stripe by monitor, measure recovered bytes / time and per-stripe
    // latency (3 recovering clients in the paper; the monitor here drives
    // recovery sequentially per stripe, matching "recovering ...
    // sequentially").
    let cfg = ProtocolConfig::new(3, 5, 1024).unwrap();
    let cluster = Cluster::with_network_shaping(cfg, 3, LAT, Some(NIC), Some(NIC));
    for lb in 0..BLOCKS {
        cluster
            .client(0)
            .write_block(lb, vec![(lb % 251) as u8; 1024])
            .unwrap();
    }
    cluster.crash_storage_node(NodeId(2));
    let t0 = Instant::now();
    // Three clients split the stripe space, like the paper's experiment.
    std::thread::scope(|s| {
        for c in 0..3usize {
            let stripes = &stripes;
            let cluster = &cluster;
            s.spawn(move || {
                let share: Vec<StripeId> = stripes
                    .iter()
                    .copied()
                    .skip(c)
                    .step_by(3)
                    .collect();
                cluster.client(c).monitor(&share, u64::MAX).unwrap();
            });
        }
    });
    let elapsed = t0.elapsed();
    let recovered_bytes = stripes.len() as f64 * 5.0 * 1024.0; // whole stripes rewritten
    println!(
        "\nsec 6.2 recovery experiment: {} stripes, {:.1} MB rewritten in {:.0} ms \
         = {:.1} MB/s aggregate ({:.1} ms per 16-block batch; paper: ~17 MB/s, ~22 ms)",
        stripes.len(),
        recovered_bytes / 1e6,
        elapsed.as_secs_f64() * 1e3,
        recovered_bytes / 1e6 / elapsed.as_secs_f64(),
        elapsed.as_secs_f64() * 1e3 / stripes.len() as f64 * (16.0 / 3.0),
    );
}
