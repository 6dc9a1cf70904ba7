//! **§6.3** — latency decomposition: on the paper's testbed a 4-block
//! write on a 3-of-5 code takes < 3 ms, and computation (field arithmetic)
//! accounts for < 5% of it; ~95% is communication (network, RPC stack).

use ajx_bench::{banner, measure_us};
use ajx_cluster::Cluster;
use ajx_core::ProtocolConfig;
use ajx_erasure::ReedSolomon;
use std::sync::Arc;
use std::time::{Duration, Instant};

const NIC: u64 = 60_000_000;
const LAT: Duration = Duration::from_micros(50);

fn main() {
    banner(
        "sec 6.3 — write latency and its computation share (3-of-5, 1 KB blocks)",
        "computation < 5% of latency; 4-block write < 3 ms (memory-backed)",
    );
    let cfg = ProtocolConfig::new(3, 5, 1024).unwrap();
    let cluster = Arc::new(Cluster::with_network_shaping(
        cfg,
        1,
        LAT,
        Some(NIC),
        Some(NIC),
    ));
    // Warm placement.
    for lb in 0..8u64 {
        cluster.client(0).write_block(lb, vec![1; 1024]).unwrap();
    }

    // Single-block write latency (mean over 200).
    let t0 = Instant::now();
    for i in 0..200u64 {
        cluster
            .client(0)
            .write_block(i % 8, vec![i as u8; 1024])
            .unwrap();
    }
    let one_block_us = t0.elapsed().as_secs_f64() * 1e6 / 200.0;

    // 4-block write: 4 logical blocks issued in parallel (the paper's
    // multi-threaded client pipelines them).
    let t0 = Instant::now();
    let rounds = 100;
    for r in 0..rounds {
        std::thread::scope(|s| {
            for lb in 0..4u64 {
                let cluster = Arc::clone(&cluster);
                s.spawn(move || {
                    cluster
                        .client(0)
                        .write_block(lb, vec![r as u8; 1024])
                        .unwrap();
                });
            }
        });
    }
    let four_block_us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(rounds);

    // Computation on the write path: 2 Deltas at the client + 2 Adds at
    // nodes (p = 2), measured from the kernels themselves.
    let rs = ReedSolomon::new(3, 5).unwrap();
    let a: Vec<u8> = (0..1024).map(|i| i as u8).collect();
    let b: Vec<u8> = (0..1024).map(|i| (i * 7) as u8).collect();
    let delta_us = measure_us(|| {
        std::hint::black_box(rs.delta(0, 0, &a, &b).unwrap());
    });
    let mut acc = a.clone();
    let add_us = measure_us(|| ajx_gf::slice::add_assign(&mut acc, std::hint::black_box(&b)));
    let compute_us = 2.0 * (delta_us + add_us);

    println!("single-block write latency : {one_block_us:>8.0} us");
    println!("4-block write latency      : {four_block_us:>8.0} us  (paper: < 3000 us)");
    println!(
        "computation per write      : {compute_us:>8.1} us  (2 Deltas @ {delta_us:.1} + 2 Adds @ {add_us:.1})"
    );
    println!(
        "computation share          : {:>8.1} %   (paper: < 5%)",
        100.0 * compute_us / one_block_us
    );
    println!(
        "communication share        : {:>8.1} %   (paper: ~95%)",
        100.0 * (1.0 - compute_us / one_block_us)
    );
}
