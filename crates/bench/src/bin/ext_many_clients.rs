//! Extension experiment: Fig. 9b pushed past thread-per-client.
//!
//! The paper's client-scaling experiment (Fig. 9b) stops at 8 clients —
//! each a blocked OS thread. This experiment drives the same k=4 n=8
//! read/write mix from 8 up to 10k *logical* clients through
//! [`ajx_core::run_mux_workload`]: each of a handful of driver threads runs
//! its slice of the fleet as windows of the one READ/WRITE engine, so
//! client count is decoupled from thread count. An operation's latency is
//! the duration of the window (step) that carried it.
//!
//! With a 500 µs one-way latency, 8 closed-loop clients are latency-bound
//! (~1 ms RTT each); at 1k+ clients the open capacity of the reactor
//! nodes takes over and aggregate IOPS must rise ≥ 5x — the acceptance
//! floor asserted both here (exit code) and by `tools/check.sh`.
//!
//! Prints a JSON document on stdout; `tools/check.sh` redirects the
//! `--smoke` variant to `BENCH_scaleout.json` at the repo root.
//!
//! Flags:
//!
//! * `--smoke` — 8 and 1024 clients at a 50% read mix only.

use ajx_core::{run_mux_workload, MuxOptions, ProtocolConfig};
use ajx_transport::{Network, NetworkConfig};
use std::collections::BTreeMap;
use std::time::Duration;

const K: usize = 4;
const N: usize = 8;
const BLOCK: usize = 1024;
const ONE_WAY_US: u64 = 500;
/// Aggregate operation budget, split evenly across the fleet (clamped so
/// tiny fleets still do real work and huge fleets stay bounded).
const TOTAL_OPS: usize = 40_960;
/// The acceptance floor: 1k clients must deliver ≥ 5x the 8-client IOPS.
const SPEEDUP_FLOOR: f64 = 5.0;

struct Point {
    clients: usize,
    read_pct: u32,
    iops: f64,
    p50_us: u128,
    p99_us: u128,
    busy_shed: u64,
    failed: u64,
    completed: u64,
    elapsed_s: f64,
}

impl Point {
    fn json(&self) -> String {
        format!(
            concat!(
                "    {{\"clients\":{},\"read_pct\":{},\"ops\":{},",
                "\"iops\":{:.1},\"p50_us\":{},\"p99_us\":{},",
                "\"busy_shed\":{},\"failed\":{},\"elapsed_s\":{:.3}}}"
            ),
            self.clients,
            self.read_pct,
            self.completed,
            self.iops,
            self.p50_us,
            self.p99_us,
            self.busy_shed,
            self.failed,
            self.elapsed_s,
        )
    }
}

fn bench_point(clients: usize, read_pct: u32) -> Point {
    let cfg = ProtocolConfig::new(K, N, BLOCK).expect("valid code");
    let net = Network::new(NetworkConfig {
        n_nodes: N,
        block_size: BLOCK,
        one_way_latency: Duration::from_micros(ONE_WAY_US),
        server_threads: 2,
        node_queue_depth: Some(4096),
        state_shards: 16,
        code: Some(cfg.code.clone()),
        ..NetworkConfig::default()
    });
    let opts = MuxOptions {
        clients,
        ops_per_client: (TOTAL_OPS / clients).clamp(16, 400),
        read_pct,
        stripes_per_client: 4,
        driver_threads: (clients / 2048).clamp(1, 4),
    };
    let report = run_mux_workload(&net, &cfg, &opts);
    let us = |q| {
        report
            .op_stats
            .latency_percentile(q)
            .map_or(0, |d: Duration| d.as_micros())
    };
    Point {
        clients,
        read_pct,
        iops: report.iops(),
        p50_us: us(0.5),
        p99_us: us(0.99),
        busy_shed: report.busy_shed,
        failed: report.failed_ops,
        completed: report.completed_ops,
        elapsed_s: report.elapsed.as_secs_f64(),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (counts, mixes): (&[usize], &[u32]) = if smoke {
        (&[8, 1024], &[50])
    } else {
        (&[8, 64, 256, 1024, 10240], &[30, 70])
    };

    let mut points: Vec<Point> = Vec::new();
    for &read_pct in mixes {
        for &clients in counts {
            points.push(bench_point(clients, read_pct));
        }
    }

    // Per-mix scale-out verdict: 1k-client IOPS vs the 8-client figure.
    let mut verdicts = Vec::new();
    let mut all_pass = true;
    for &read_pct in mixes {
        let by: BTreeMap<usize, &Point> = points
            .iter()
            .filter(|p| p.read_pct == read_pct)
            .map(|p| (p.clients, p))
            .collect();
        let (base, scaled) = (by[&8], by[&1024]);
        let speedup = scaled.iops / base.iops.max(1e-9);
        let failed: u64 = by.values().map(|p| p.failed).sum();
        let pass = speedup >= SPEEDUP_FLOOR && failed == 0;
        all_pass &= pass;
        eprintln!(
            "[ext_many_clients] read_pct={read_pct}: 8 clients {:.0} IOPS, \
             1024 clients {:.0} IOPS, speedup {speedup:.2}x (floor {SPEEDUP_FLOOR}x), \
             failed {failed} -> {}",
            base.iops,
            scaled.iops,
            if pass { "PASS" } else { "FAIL" },
        );
        verdicts.push(format!(
            concat!(
                "    {{\"read_pct\":{},\"iops_8\":{:.1},\"iops_1024\":{:.1},",
                "\"speedup\":{:.2},\"floor\":{},\"failed\":{},\"pass\":{}}}"
            ),
            read_pct, base.iops, scaled.iops, speedup, SPEEDUP_FLOOR, failed, pass,
        ));
    }

    println!("{{");
    println!("  \"experiment\": \"ext_many_clients\",");
    println!("  \"k\": {K},");
    println!("  \"n\": {N},");
    println!("  \"block_bytes\": {BLOCK},");
    println!("  \"one_way_latency_us\": {ONE_WAY_US},");
    println!("  \"smoke\": {smoke},");
    println!("  \"points\": [");
    println!(
        "{}",
        points.iter().map(Point::json).collect::<Vec<_>>().join(",\n")
    );
    println!("  ],");
    println!("  \"scaleout\": [");
    println!("{}", verdicts.join(",\n"));
    println!("  ]");
    println!("}}");

    if !all_pass {
        eprintln!("[ext_many_clients] scale-out floor violated");
        std::process::exit(1);
    }
}
