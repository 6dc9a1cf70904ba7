//! **§6.6 (accuracy)** — calibrating the discrete-event simulator against
//! the threaded implementation, mirroring the paper's methodology ("we
//! checked accuracy by simulating our real system, and found an error of
//! at most 20%").
//!
//! Two constants are fitted, mirroring the paper's "tuned \[the\]
//! simulator using the real system": the effective one-way latency from a
//! single-threaded write's measured latency, and the per-RPC client CPU
//! time from a single client's throughput at 16 outstanding requests.
//! The comparison then runs at several client/thread combinations that
//! were *not* used for fitting and reports the relative error.

use ajx_bench::{banner, render_table};
use ajx_cluster::{drive, Cluster, Workload};
use ajx_core::{ProtocolConfig, UpdateStrategy};
use ajx_sim::{run, SimConfig, SimParams, SimWorkload};
use std::time::{Duration, Instant};

// Scaled-down testbed (see fig9a_outstanding.rs): keeps both systems in
// the NIC-dominated regime the resource model is designed for.
const CLIENT_NIC: u64 = 12_000_000;
const NODE_NIC: u64 = 10_000_000;
const LAT_US: f64 = 50.0;
const K: usize = 3;
const N: usize = 5;
const BLOCKS: u64 = 512;

fn threaded_cluster(clients: usize) -> Cluster {
    let cfg = ProtocolConfig::new(K, N, 1024).unwrap();
    Cluster::with_network_shaping(
        cfg,
        clients,
        Duration::from_micros(LAT_US as u64),
        Some(CLIENT_NIC),
        Some(NODE_NIC),
    )
}

fn sim_config(clients: usize, threads: usize, params: SimParams) -> SimConfig {
    let mut cfg = SimConfig::new(K, N, clients);
    cfg.params = params;
    cfg.threads_per_client = threads;
    cfg.strategy = UpdateStrategy::Parallel;
    cfg.workload = SimWorkload::Write;
    cfg.stripes = BLOCKS / K as u64;
    cfg.ops_per_thread = (800 / threads).max(20) as u64;
    cfg
}

/// Bisects `bracket` for the point where `below` (the model still falls
/// short of the measurement) turns false. Returns that point and whether it
/// lies inside the bracket: a search pinned to either end found no value
/// that fits.
fn bisect((lo, hi): (f64, f64), below: impl Fn(f64) -> bool) -> (f64, bool) {
    let (mut a, mut b) = (lo, hi);
    for _ in 0..24 {
        let mid = 0.5 * (a + b);
        if below(mid) {
            a = mid;
        } else {
            b = mid;
        }
    }
    let x = 0.5 * (a + b);
    let margin = (hi - lo) * 1e-3;
    (x, x - lo > margin && hi - x > margin)
}

/// Prints a fitted constant, or says plainly that the fit did not fit.
fn report_fit(measured: &str, name: &str, (lo, hi): (f64, f64), (x, fitted): (f64, bool)) {
    if fitted {
        println!("fitted: {measured} -> {name} {x:.1} us");
    } else {
        println!(
            "not fitted: {measured}; the {name} search ended at its bracket end \
             ({x:.1} us of [{lo:.0}, {hi:.0}] us), so {x:.1} us is the bracket, not a fit"
        );
    }
}

fn main() {
    banner(
        "sec 6.6 — simulator accuracy vs the threaded implementation",
        "simulating the real system should agree within ~20%",
    );

    // --- Step 1: fit the effective one-way latency from 1-thread latency. ---
    let c = threaded_cluster(1);
    for lb in 0..8u64 {
        c.client(0).write_block(lb, vec![0; 1024]).unwrap();
    }
    let t0 = Instant::now();
    let ops = 300u64;
    for i in 0..ops {
        c.client(0).write_block(i % 8, vec![i as u8; 1024]).unwrap();
    }
    let measured_lat_us = t0.elapsed().as_secs_f64() * 1e6 / ops as f64;

    let mut params = SimParams {
        one_way_latency_us: LAT_US,
        client_nic_bpus: CLIENT_NIC as f64 / 1e6,
        node_nic_bpus: NODE_NIC as f64 / 1e6,
        ..SimParams::default()
    };
    // Binary-search the one-way latency so the simulated 1-thread write
    // latency matches the measurement. The threaded harness realizes
    // propagation with `thread::sleep`, whose scheduler granularity
    // inflates per-message delay; that inflation is a *per-call delay*
    // (parallel across outstanding calls), so it calibrates into the
    // latency term — not into shared CPU time, which would wrongly
    // serialize concurrent requests. When the simulator already predicts
    // more than the measurement at the configured latency, the search
    // stays at its lower end and reports no fit.
    let bracket = (LAT_US, 800.0);
    let lat_fit = bisect(bracket, |lat| {
        let p = SimParams {
            one_way_latency_us: lat,
            ..params
        };
        run(&sim_config(1, 1, p)).mean_latency_us < measured_lat_us
    });
    params.one_way_latency_us = lat_fit.0;
    let simulated = run(&sim_config(1, 1, params)).mean_latency_us;
    report_fit(
        &format!(
            "measured 1-thread write latency {measured_lat_us:.0} us (simulated {simulated:.0} us)"
        ),
        "effective one-way latency",
        bracket,
        lat_fit,
    );

    // Second fitted constant: the per-RPC client CPU time, fitted against
    // a single client's *throughput* at 16 outstanding requests. This
    // captures the per-client serialized overhead (allocation, channel and
    // scheduler work) that caps one client's scaling in the threaded
    // harness — the analogue of the paper's "latencies for various
    // operations" tuning.
    let c = threaded_cluster(1);
    let fit = drive(&c, 16, 50, Workload::RandomWrite { blocks: BLOCKS }, 99);
    let target_mbps = fit.mb_per_sec();
    let bracket = (0.0, 300.0);
    let cpu_fit = bisect(bracket, |cpu| {
        let p = SimParams {
            rpc_client_cpu_us: cpu,
            ..params
        };
        run(&sim_config(1, 16, p)).aggregate_mbps > target_mbps
    });
    params.rpc_client_cpu_us = cpu_fit.0;
    report_fit(
        &format!("measured 1x16 throughput {target_mbps:.2} MB/s"),
        "per-RPC client cpu",
        bracket,
        cpu_fit,
    );
    println!();

    // --- Step 2: compare throughput at unseen concurrency levels. ---
    let mut rows = Vec::new();
    let mut max_err: f64 = 0.0;
    for (clients, threads) in [(1usize, 4usize), (1, 16), (2, 8), (2, 32), (3, 16)] {
        let c = threaded_cluster(clients);
        let real = drive(
            &c,
            threads,
            (800 / threads).max(20) as u64,
            Workload::RandomWrite { blocks: BLOCKS },
            17,
        );
        let sim = run(&sim_config(clients, threads, params));
        let err = 100.0 * (sim.aggregate_mbps - real.mb_per_sec()).abs() / real.mb_per_sec();
        max_err = max_err.max(err);
        rows.push(vec![
            format!("{clients}x{threads}"),
            format!("{:.2}", real.mb_per_sec()),
            format!("{:.2}", sim.aggregate_mbps),
            format!("{err:.1}%"),
        ]);
    }
    print!(
        "{}",
        render_table(
            &["clients x threads", "threaded MB/s", "simulated MB/s", "error"],
            &rows
        )
    );
    println!("\nmax error: {max_err:.1}%  (paper: at most 20%)");
}
