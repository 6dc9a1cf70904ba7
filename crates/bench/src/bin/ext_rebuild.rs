//! Extension experiment: degraded reads and the parallel rebuild engine.
//!
//! Scenario (paper testbed shape: 50 µs RTT, 4 KiB blocks): a storage
//! node fail-stops under a full load of written stripes. Measures
//!
//! * **degraded-read latency** — p50 of reading a block whose data node
//!   is gone, served lock-free from the peers (DESIGN.md §8), against the
//!   healthy one-round-trip read and against the old behavior of paying a
//!   full Fig. 6 recovery on first touch (`degraded_reads = false`);
//! * **full-node rebuild** — wall time, round trips, and wire bytes of
//!   repairing every stripe with a serial per-stripe `recover_stripe`
//!   loop vs the batched `rebuild_node` engine.
//!
//! * **repair bandwidth** — block-content bytes on the wire per lost
//!   block when rebuilding a failed node, RS(12, 16) against the locally
//!   repairable LRC(12, 3, 1) code at the same (k, n) shape. A single
//!   loss inside an LRC local group decodes from the ~k/g-block group
//!   instead of k blocks, so the bytes-per-lost-block figure drops.
//!
//! Three acceptance gates are asserted, not just printed: the engine must
//! beat the serial loop by ≥ 4× on the (4, 8, 256-stripe) point, the
//! degraded reads must issue **zero** lock RPCs, and the LRC rebuild must
//! move ≤ 0.5× the RS repair bytes per lost block.
//!
//! Prints a JSON document on stdout (a full run is `BENCH_recovery.json`;
//! `tools/check.sh` writes `--smoke` runs to `BENCH_recovery.smoke.json`).
//!
//! Flags:
//!
//! * `--smoke` — only the acceptance point, single repetition.

use ajx_cluster::Cluster;
use ajx_core::ProtocolConfig;
use ajx_storage::{NodeId, StripeId};
use ajx_transport::NetworkConfig;
use std::time::{Duration, Instant};

const BLOCK: usize = 4096;
const ONE_WAY_US: u64 = 25; // paper's testbed: 50 µs round trip
const VICTIM: NodeId = NodeId(0);

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

/// A fresh cluster with `stripes` full stripes written.
fn loaded_cluster(k: usize, n: usize, stripes: u64, degraded_reads: bool) -> Cluster {
    loaded_cluster_with(ProtocolConfig::new(k, n, BLOCK).expect("valid code"), stripes, degraded_reads)
}

/// Same, but for an arbitrary code family.
fn loaded_cluster_with(mut cfg: ProtocolConfig, stripes: u64, degraded_reads: bool) -> Cluster {
    let (k, n) = (cfg.k(), cfg.n());
    cfg.degraded_reads = degraded_reads;
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
    let blocks = stripes * k as u64;
    let bufs: Vec<Vec<u8>> = (0..blocks).map(|lb| vec![(lb % 251 + 1) as u8; BLOCK]).collect();
    let writes: Vec<(u64, &[u8])> = bufs
        .iter()
        .enumerate()
        .map(|(lb, v)| (lb as u64, v.as_slice()))
        .collect();
    cluster.client(0).write_blocks(&writes).expect("load writes");
    cluster
}

/// Logical blocks whose data lives on the victim node: one per stripe
/// where the rotated layout puts a *data* index there.
fn victim_data_blocks(cfg: &ProtocolConfig, stripes: u64) -> Vec<u64> {
    (0..stripes)
        .filter_map(|s| {
            (0..cfg.k())
                .find(|&t| cfg.layout.node_for(s, t) as u32 == VICTIM.0)
                .map(|t| s * cfg.k() as u64 + t as u64)
        })
        .collect()
}

fn p50(mut micros: Vec<f64>) -> f64 {
    micros.sort_by(f64::total_cmp);
    micros[micros.len() / 2]
}

/// Per-read p50 latency over `lbs`.
fn read_p50(cluster: &Cluster, lbs: &[u64]) -> f64 {
    p50(lbs
        .iter()
        .map(|&lb| {
            let start = Instant::now();
            cluster.client(0).read_block(lb).expect("read");
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect())
}

fn bench_point(k: usize, n: usize, stripes: u64, reps: usize) -> String {
    // ---- Degraded reads (engine cluster, pre-rebuild). ------------------
    let cluster = loaded_cluster(k, n, stripes, true);
    let cfg = cluster.config().clone();
    let lbs = victim_data_blocks(&cfg, stripes);
    let healthy_p50 = read_p50(&cluster, &lbs);
    cluster.crash_storage_node(VICTIM);
    // First touch auto-remaps the node; keep that out of the measurement.
    cluster.client(0).read_block(lbs[0]).expect("warmup");
    let locks_before = cluster.total_lock_ops();
    let stats = cluster.client(0).endpoint().stats();
    let before = stats.snapshot();
    let degraded_p50 = read_p50(&cluster, &lbs);
    let degraded_wire = stats.snapshot().since(&before);
    let lock_rpcs = cluster.total_lock_ops() - locks_before;
    assert_eq!(lock_rpcs, 0, "degraded reads must take no locks");

    // Old behavior: every first touch of a broken stripe pays a recovery.
    let recovery_read_p50 = {
        let c = loaded_cluster(k, n, stripes, false);
        c.crash_storage_node(VICTIM);
        read_p50(&c, &lbs)
    };

    // ---- Full-node rebuild: serial loop vs batched engine. --------------
    let mut serial_best = f64::INFINITY;
    let mut serial_wire = (0u64, 0u64);
    for _ in 0..reps {
        let c = loaded_cluster(k, n, stripes, true);
        c.crash_storage_node(VICTIM);
        c.remap_storage_node(VICTIM);
        let stats = c.client(0).endpoint().stats();
        let before = stats.snapshot();
        let start = Instant::now();
        for s in 0..stripes {
            c.client(0).recover_stripe(StripeId(s)).expect("serial recovery");
        }
        let micros = start.elapsed().as_secs_f64() * 1e6;
        let wire = stats.snapshot().since(&before);
        serial_best = serial_best.min(micros);
        serial_wire = (wire.round_trips, wire.bytes_sent);
    }
    let serial = Cost {
        micros: serial_best,
        round_trips: serial_wire.0,
        bytes_sent: serial_wire.1,
    };

    let mut engine_best = f64::INFINITY;
    let mut engine_wire = (0u64, 0u64);
    let mut report = None;
    for _ in 0..reps {
        let c = loaded_cluster(k, n, stripes, true);
        c.crash_storage_node(VICTIM);
        let stats = c.client(0).endpoint().stats();
        let before = stats.snapshot();
        let start = Instant::now();
        let r = c.client(0).rebuild_node(VICTIM, stripes).expect("rebuild");
        let micros = start.elapsed().as_secs_f64() * 1e6;
        let wire = stats.snapshot().since(&before);
        engine_best = engine_best.min(micros);
        engine_wire = (wire.round_trips, wire.bytes_sent);
        report = Some(r);
        for s in 0..stripes {
            assert!(c.stripe_is_consistent(StripeId(s)), "stripe {s} broken");
        }
    }
    let engine = Cost {
        micros: engine_best,
        round_trips: engine_wire.0,
        bytes_sent: engine_wire.1,
    };
    let report = report.expect("at least one rep");

    let speedup = serial.micros / engine.micros;
    assert!(
        speedup >= 4.0,
        "rebuild engine must beat the serial loop 4x (got {speedup:.2}x)"
    );

    // MB/s of lost data repaired: one block per stripe lived on the victim.
    let repaired = stripes as f64 * BLOCK as f64;
    let lost_blocks = (report.rebuilt + report.recovered).max(1) as u64;
    format!(
        concat!(
            "    {{\"k\":{},\"n\":{},\"stripes\":{},\n",
            "     \"degraded_read\":{{\"healthy_p50_us\":{:.1},\"degraded_p50_us\":{:.1},",
            "\"recovery_read_p50_us\":{:.1},\"lock_rpcs\":{},\"reads\":{},",
            "\"round_trips\":{},\"bytes_sent\":{}}},\n",
            "     \"rebuild\":{{\"serial\":{},\"engine\":{},\"speedup\":{:.2},",
            "\"serial_mb_s\":{:.1},\"engine_mb_s\":{:.1},",
            "\"repair_bytes_per_lost_block\":{:.1},\n",
            "      \"report\":{{\"stripes\":{},\"skipped\":{},\"rebuilt\":{},\"recovered\":{},",
            "\"repair_bytes\":{},\"round_trips\":{}}}}}}}"
        ),
        k,
        n,
        stripes,
        healthy_p50,
        degraded_p50,
        recovery_read_p50,
        lock_rpcs,
        lbs.len(),
        degraded_wire.round_trips,
        degraded_wire.bytes_sent,
        serial.json(),
        engine.json(),
        speedup,
        repaired / serial.micros, // bytes/µs == MB/s
        repaired / engine.micros,
        report.repair_bytes as f64 / lost_blocks as f64,
        report.stripes,
        report.skipped,
        report.rebuilt,
        report.recovered,
        report.repair_bytes,
        report.round_trips,
    )
}

/// Rebuild a crashed node and return block-content bytes moved per lost
/// block, plus round trips per lost block.
fn rebuild_repair_cost(cfg: ProtocolConfig, stripes: u64) -> (f64, f64) {
    let cluster = loaded_cluster_with(cfg, stripes, true);
    cluster.crash_storage_node(VICTIM);
    let report = cluster.client(0).rebuild_node(VICTIM, stripes).expect("rebuild");
    for s in 0..stripes {
        assert!(cluster.stripe_is_consistent(StripeId(s)), "stripe {s} broken");
    }
    // Single-node loss: every repaired stripe had exactly one block on the
    // victim, so repaired stripes == lost blocks.
    let lost = (report.rebuilt + report.recovered).max(1) as f64;
    (report.repair_bytes as f64 / lost, report.round_trips as f64 / lost)
}

/// The repair-bandwidth arm: RS(12, 16) vs Pyramid LRC(12, 3, 1) — same
/// k, same n, one storage node lost. Asserts the ≥ 2× bytes-on-wire win.
fn repair_bandwidth_point(stripes: u64) -> String {
    let (rs_bytes, rs_rts) =
        rebuild_repair_cost(ProtocolConfig::new(12, 16, BLOCK).expect("valid rs"), stripes);
    let (lrc_bytes, lrc_rts) =
        rebuild_repair_cost(ProtocolConfig::new_lrc(12, 3, 1, BLOCK).expect("valid lrc"), stripes);
    let ratio = lrc_bytes / rs_bytes;
    assert!(
        ratio <= 0.5,
        "LRC repair must move at most half the RS bytes per lost block \
         (rs {rs_bytes:.1} B, lrc {lrc_bytes:.1} B, ratio {ratio:.3})"
    );
    format!(
        concat!(
            "    {{\"k\":12,\"n\":16,\"stripes\":{},\n",
            "     \"repair_bandwidth\":{{",
            "\"rs\":{{\"repair_bytes_per_lost_block\":{:.1},\"round_trips_per_lost_block\":{:.2}}},",
            "\"lrc_g3_h1\":{{\"repair_bytes_per_lost_block\":{:.1},\"round_trips_per_lost_block\":{:.2}}},\n",
            "      \"lrc_over_rs_bytes\":{:.3},\"lrc_repair_ratio_pass\":{}}}}}"
        ),
        stripes,
        rs_bytes,
        rs_rts,
        lrc_bytes,
        lrc_rts,
        ratio,
        ratio <= 0.5,
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (combos, reps): (&[(usize, usize, u64)], usize) = if smoke {
        (&[(4, 8, 256)], 1)
    } else {
        (&[(2, 4, 128), (4, 8, 256)], 2)
    };

    let mut points = Vec::new();
    for &(k, n, stripes) in combos {
        points.push(bench_point(k, n, stripes, reps));
    }
    points.push(repair_bandwidth_point(if smoke { 32 } else { 128 }));

    println!("{{");
    println!("  \"experiment\": \"ext_rebuild\",");
    println!("  \"block_bytes\": {BLOCK},");
    println!("  \"one_way_latency_us\": {ONE_WAY_US},");
    println!("  \"smoke\": {smoke},");
    println!("  \"points\": [");
    println!("{}", points.join(",\n"));
    println!("  ]");
    println!("}}");
}
