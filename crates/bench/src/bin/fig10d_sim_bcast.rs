//! **Fig. 10(d)** — the broadcast optimization (§3.11) in simulation.
//!
//! Paper observations: with broadcast, a single client's write throughput
//! no longer decreases as n − k grows (the client sends the diff once);
//! with 64 clients the aggregate still decreases with n − k because the
//! *storage* NICs saturate.

use ajx_bench::{banner, render_table};
use ajx_core::UpdateStrategy;
use ajx_sim::{run, SimConfig, SimWorkload};

fn throughput(k: usize, n: usize, clients: usize, strategy: UpdateStrategy) -> f64 {
    let mut cfg = SimConfig::new(k, n, clients);
    cfg.threads_per_client = 16;
    cfg.ops_per_thread = 30;
    cfg.strategy = strategy;
    cfg.workload = SimWorkload::Write;
    run(&cfg).aggregate_mbps
}

fn main() {
    banner(
        "Fig. 10(d) — write throughput with the broadcast optimization (1 KB)",
        "1 client: throughput flat in n - k with broadcast; 64 clients: \
         decreases as storage NICs saturate",
    );
    let k = 8usize;
    let ps = [1usize, 2, 4, 8];

    let mut rows = Vec::new();
    for &p in &ps {
        let n = k + p;
        rows.push(vec![
            p.to_string(),
            format!("{:.1}", throughput(k, n, 1, UpdateStrategy::Parallel)),
            format!("{:.1}", throughput(k, n, 1, UpdateStrategy::Broadcast)),
            format!("{:.1}", throughput(k, n, 64, UpdateStrategy::Parallel)),
            format!("{:.1}", throughput(k, n, 64, UpdateStrategy::Broadcast)),
        ]);
    }
    print!(
        "{}",
        render_table(
            &[
                "n-k",
                "1 client unicast",
                "1 client bcast",
                "64 clients unicast",
                "64 clients bcast",
            ],
            &rows
        )
    );
    println!("\n(k = 8 throughout; MB/s)");
}
