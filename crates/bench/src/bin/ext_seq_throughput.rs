//! Extension experiment: batched multi-stripe data path vs per-block loop.
//!
//! Sweeps sequential run length × code shape at 4 KiB blocks on a
//! latency-shaped network (the paper's testbed: 50 µs RTT) and measures
//! sequential write/read throughput two ways — a per-block
//! `write_block`/`read_block` loop, and one `write_blocks`/`read_blocks`
//! call over the whole run (request coalescing + stripe pipelining).
//! Wall-clock time, round trips, and request bytes come from the
//! transport's [`NetStats`] so the message arithmetic is measured, not
//! assumed.
//!
//! Prints a JSON document on stdout; `tools/check.sh` redirects the
//! `--smoke` variant to `BENCH_datapath.json` at the repo root.
//!
//! Flags:
//!
//! * `--smoke` — only the acceptance point (64-block runs, 4-of-8),
//!   fewer repetitions.

#![expect(clippy::disallowed_methods, reason = "experiments time real work")]

use ajx_cluster::Cluster;
use ajx_core::ProtocolConfig;
use ajx_transport::NetworkConfig;
use std::time::{Duration, Instant};

const BLOCK: usize = 4096;
const ONE_WAY_US: u64 = 25; // paper's testbed: 50 µs round trip

/// One measured data-path variant: best-of-`reps` wall time plus the
/// (deterministic) wire counters of a single pass.
struct Cost {
    micros: f64,
    round_trips: u64,
    bytes_sent: u64,
}

impl Cost {
    fn json(&self) -> String {
        format!(
            "{{\"micros\":{:.1},\"round_trips\":{},\"bytes_sent\":{}}}",
            self.micros, self.round_trips, self.bytes_sent
        )
    }
}

fn measure<F: FnMut()>(cluster: &Cluster, reps: usize, mut op: F) -> Cost {
    let stats = cluster.client(0).endpoint().stats();
    let mut best = f64::INFINITY;
    let mut wire = (0u64, 0u64);
    for _ in 0..reps {
        let before = stats.snapshot();
        let start = Instant::now();
        op();
        let micros = start.elapsed().as_secs_f64() * 1e6;
        let cost = stats.snapshot().since(&before);
        best = best.min(micros);
        wire = (cost.round_trips, cost.bytes_sent);
    }
    Cost {
        micros: best,
        round_trips: wire.0,
        bytes_sent: wire.1,
    }
}

fn bench_point(k: usize, n: usize, run: u64, reps: usize) -> String {
    let cfg = ProtocolConfig::new(k, n, BLOCK).expect("valid code");
    let cluster = Cluster::with_network(
        cfg,
        1,
        NetworkConfig {
            n_nodes: n,
            block_size: BLOCK,
            one_way_latency: Duration::from_micros(ONE_WAY_US),
            server_threads: 8,
            ..NetworkConfig::default()
        },
    );
    let client = cluster.client(0);
    let bufs: Vec<Vec<u8>> = (0..run)
        .map(|lb| vec![(lb % 251 + 1) as u8; BLOCK])
        .collect();
    let lbs: Vec<u64> = (0..run).collect();
    let writes: Vec<(u64, &[u8])> = bufs
        .iter()
        .enumerate()
        .map(|(lb, v)| (lb as u64, v.as_slice()))
        .collect();

    let write_loop = measure(&cluster, reps, || {
        for (lb, v) in bufs.iter().enumerate() {
            client.write_block(lb as u64, v.clone()).unwrap();
        }
    });
    let write_batched = measure(&cluster, reps, || {
        client.write_blocks(&writes).unwrap();
    });
    let read_loop = measure(&cluster, reps, || {
        for &lb in &lbs {
            client.read_block(lb).unwrap();
        }
    });
    let read_batched = measure(&cluster, reps, || {
        client.read_blocks(&lbs).unwrap();
    });

    let payload = run as f64 * BLOCK as f64;
    let mb_s = |c: &Cost| payload / c.micros; // bytes/µs == MB/s
    format!(
        concat!(
            "    {{\"k\":{},\"n\":{},\"run_blocks\":{},\n",
            "     \"write\":{{\"per_block\":{},\"batched\":{},",
            "\"speedup\":{:.2},\"per_block_mb_s\":{:.1},\"batched_mb_s\":{:.1}}},\n",
            "     \"read\":{{\"per_block\":{},\"batched\":{},",
            "\"speedup\":{:.2},\"per_block_mb_s\":{:.1},\"batched_mb_s\":{:.1},",
            "\"round_trip_reduction\":{:.2}}}}}"
        ),
        k,
        n,
        run,
        write_loop.json(),
        write_batched.json(),
        write_loop.micros / write_batched.micros,
        mb_s(&write_loop),
        mb_s(&write_batched),
        read_loop.json(),
        read_batched.json(),
        read_loop.micros / read_batched.micros,
        mb_s(&read_loop),
        mb_s(&read_batched),
        read_loop.round_trips as f64 / read_batched.round_trips.max(1) as f64,
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (combos, runs, reps): (&[(usize, usize)], &[u64], usize) = if smoke {
        (&[(4, 8)], &[64], 2)
    } else {
        (&[(2, 4), (4, 8)], &[4, 16, 64], 3)
    };

    let mut points = Vec::new();
    for &(k, n) in combos {
        for &run in runs {
            points.push(bench_point(k, n, run, reps));
        }
    }

    println!("{{");
    println!("  \"experiment\": \"ext_seq_throughput\",");
    println!("  \"block_bytes\": {BLOCK},");
    println!("  \"one_way_latency_us\": {ONE_WAY_US},");
    println!("  \"smoke\": {smoke},");
    println!("  \"points\": [");
    println!("{}", points.join(",\n"));
    println!("  ]");
    println!("}}");
}
