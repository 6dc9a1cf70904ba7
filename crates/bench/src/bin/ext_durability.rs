//! Extension experiment: durable nodes — what the journal costs on the
//! write path, and what it buys back at recovery time.
//!
//! Scenario (paper testbed shape: 50 µs RTT, 4 KiB blocks):
//!
//! * **fsync cost** — per-write latency of the same sequential workload
//!   against in-memory nodes (no journal), write-through journaled nodes
//!   (one group-commit fsync per node round trip), and deferred-flush
//!   journaled nodes (fsyncs only at flush points, §3.11);
//! * **recover-from-WAL vs wipe-and-rebuild** — a node fail-stops under
//!   a full load of written stripes. Restarting it *with its disk*
//!   (journal replay + a probe-and-skip verification pass by the rebuild
//!   engine) is raced against the §3.5 path (remap to INIT garbage, then
//!   rebuild every stripe from the survivors). The crossover is the
//!   point of DESIGN.md §10's recovery decision: replay touches no
//!   peers, rebuild pays k transfers per stripe.
//!
//! One acceptance gate is asserted, not just printed: restart-with-disk
//! must beat wipe-and-rebuild on every measured point
//! (`"recovery_floor_pass":true` in the artifact; `tools/check.sh`
//! re-asserts it by grep so a stale artifact cannot pass).
//!
//! Prints a JSON document on stdout; `tools/check.sh` redirects the
//! `--smoke` variant to `BENCH_durability.smoke.json` at the repo root —
//! never to the full-run `BENCH_durability.json` (smoke artifacts are
//! tagged `"smoke": true` and the floors refuse them).
//!
//! Flags:
//!
//! * `--smoke` — only the acceptance point, single repetition.

#![expect(clippy::disallowed_methods, reason = "experiments time real work")]

use ajx_cluster::Cluster;
use ajx_core::ProtocolConfig;
use ajx_storage::{FlushPolicy, NodeId, PersistMode, StripeId};
use ajx_transport::NetworkConfig;
use std::time::{Duration, Instant};

const BLOCK: usize = 4096;
const ONE_WAY_US: u64 = 25; // paper's testbed: 50 µs round trip
const VICTIM: NodeId = NodeId(0);

/// A fresh cluster with `stripes` full stripes written, on the given
/// persistence backend and flush policy.
fn loaded_cluster(
    k: usize,
    n: usize,
    stripes: u64,
    persist: PersistMode,
    flush_policy: FlushPolicy,
) -> Cluster {
    let cfg = ProtocolConfig::new(k, n, BLOCK).expect("valid code");
    let cluster = Cluster::with_network(
        cfg,
        1,
        NetworkConfig {
            n_nodes: n,
            block_size: BLOCK,
            one_way_latency: Duration::from_micros(ONE_WAY_US),
            server_threads: 8,
            flush_policy,
            persist,
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

/// Mean per-write latency (µs) of `writes` sequential single-block
/// writes on a cluster with the given backend/policy, plus the total
/// fsyncs the journal charged for them.
fn write_path_cost(
    k: usize,
    n: usize,
    writes: u64,
    persist: PersistMode,
    flush_policy: FlushPolicy,
) -> (f64, u64) {
    let cluster = loaded_cluster(k, n, 8, persist, flush_policy);
    let fsyncs_before = cluster.total_journal_fsyncs();
    let buf = vec![0x5Au8; BLOCK];
    let start = Instant::now();
    for lb in 0..writes {
        cluster.client(0).write_block(lb % (8 * k as u64), buf.clone()).expect("write");
    }
    let micros = start.elapsed().as_secs_f64() * 1e6;
    (micros / writes as f64, cluster.total_journal_fsyncs() - fsyncs_before)
}

struct Recovery {
    micros: f64,
    round_trips: u64,
    bytes_sent: u64,
    skipped: usize,
    rebuilt: usize,
}

impl Recovery {
    fn json(&self) -> String {
        format!(
            "{{\"micros\":{:.1},\"round_trips\":{},\"bytes_sent\":{},\"skipped\":{},\"rebuilt\":{}}}",
            self.micros, self.round_trips, self.bytes_sent, self.skipped, self.rebuilt
        )
    }
}

/// One node loss repaired end to end. `with_disk` selects restart-with-
/// disk (journal replay + probe/skip verification) vs wipe-and-rebuild
/// (§3.5 remap + full reconstruction from the survivors).
fn repair_node(k: usize, n: usize, stripes: u64, reps: usize, with_disk: bool) -> Recovery {
    let mut best: Option<Recovery> = None;
    for _ in 0..reps {
        let dir = ajx_storage::scratch_dir("bench-durability");
        let c = loaded_cluster(
            k,
            n,
            stripes,
            PersistMode::Wal { dir: dir.clone() },
            FlushPolicy::WriteThrough,
        );
        c.crash_storage_node(VICTIM);
        let stats = c.client(0).endpoint().stats();
        let before = stats.snapshot();
        let start = Instant::now();
        if with_disk {
            assert!(c.restart_storage_node_with_disk(VICTIM), "journal must replay");
        } else {
            c.remap_storage_node(VICTIM);
        }
        let report = c.client(0).rebuild_node(VICTIM, stripes).expect("rebuild");
        let micros = start.elapsed().as_secs_f64() * 1e6;
        let wire = stats.snapshot().since(&before);
        for s in 0..stripes {
            assert!(c.stripe_is_consistent(StripeId(s)), "stripe {s} broken");
        }
        std::fs::remove_dir_all(dir).ok();
        if best.as_ref().is_none_or(|b| micros < b.micros) {
            best = Some(Recovery {
                micros,
                round_trips: wire.round_trips,
                bytes_sent: wire.bytes_sent,
                skipped: report.skipped,
                rebuilt: report.rebuilt,
            });
        }
    }
    best.expect("at least one rep")
}

fn bench_point(k: usize, n: usize, stripes: u64, reps: usize) -> (String, bool) {
    // ---- Write-path fsync cost. -----------------------------------------
    let writes = 64;
    let (mem_us, _) = write_path_cost(k, n, writes, PersistMode::InMemory, FlushPolicy::WriteThrough);
    let (wt_us, wt_fsyncs) = {
        let dir = ajx_storage::scratch_dir("bench-durability");
        let r = write_path_cost(
            k,
            n,
            writes,
            PersistMode::Wal { dir: dir.clone() },
            FlushPolicy::WriteThrough,
        );
        std::fs::remove_dir_all(dir).ok();
        r
    };
    let (def_us, def_fsyncs) = {
        let dir = ajx_storage::scratch_dir("bench-durability");
        let r = write_path_cost(
            k,
            n,
            writes,
            PersistMode::Wal { dir: dir.clone() },
            FlushPolicy::Deferred,
        );
        std::fs::remove_dir_all(dir).ok();
        r
    };

    // ---- Recover-from-WAL vs wipe-and-rebuild. --------------------------
    let replay = repair_node(k, n, stripes, reps, true);
    let rebuild = repair_node(k, n, stripes, reps, false);
    let pass = replay.micros < rebuild.micros;

    let point = format!(
        concat!(
            "    {{\"k\":{},\"n\":{},\"stripes\":{},\n",
            "     \"write_path\":{{\"writes\":{},\"in_memory_us\":{:.1},",
            "\"wal_write_through_us\":{:.1},\"wal_write_through_fsyncs\":{},",
            "\"wal_deferred_us\":{:.1},\"wal_deferred_fsyncs\":{}}},\n",
            "     \"recovery\":{{\"restart_with_disk\":{},\"wipe_and_rebuild\":{},",
            "\"speedup\":{:.2},\"pass\":{}}}}}"
        ),
        k,
        n,
        stripes,
        writes,
        mem_us,
        wt_us,
        wt_fsyncs,
        def_us,
        def_fsyncs,
        replay.json(),
        rebuild.json(),
        rebuild.micros / replay.micros,
        pass,
    );
    (point, pass)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (combos, reps): (&[(usize, usize, u64)], usize) = if smoke {
        (&[(4, 8, 256)], 1)
    } else {
        (&[(2, 4, 128), (4, 8, 256), (4, 8, 1024)], 2)
    };

    let mut points = Vec::new();
    let mut all_pass = true;
    for &(k, n, stripes) in combos {
        let (point, pass) = bench_point(k, n, stripes, reps);
        points.push(point);
        all_pass &= pass;
    }

    println!("{{");
    println!("  \"experiment\": \"ext_durability\",");
    println!("  \"block_bytes\": {BLOCK},");
    println!("  \"one_way_latency_us\": {ONE_WAY_US},");
    println!("  \"smoke\": {smoke},");
    println!("  \"recovery_floor_pass\": {all_pass},");
    println!("  \"points\": [");
    println!("{}", points.join(",\n"));
    println!("  ]");
    println!("}}");
    assert!(
        all_pass,
        "durability floor violated: restart-with-disk must beat wipe-and-rebuild"
    );
}
