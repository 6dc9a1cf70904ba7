//! Deterministic power-loss simulator (DESIGN.md §10).
//!
//! One node's write-ahead log is armed to tear at a seeded random byte
//! offset — mid-record, like a real machine losing power during a
//! write — and the run then proves the durability story end to end:
//!
//! 1. drive live traffic until the armed commit trips (the node dies
//!    *before* acking, so the interrupted write surfaces to its client as
//!    indeterminate, exactly like a lost reply);
//! 2. keep operating degraded (reads are served by the lock-free
//!    degraded path, writes touching the dead node fail indeterminately);
//! 3. restart the node **with its disk**: RAM wiped, journal replayed,
//!    torn tail truncated;
//! 4. repair with the batched rebuild engine (under deferred commits the
//!    replayed node is stale — a prefix of what it acked — and the
//!    rebuild reconciles it from its peers);
//! 5. check: every touched stripe satisfies the erasure equation, every
//!    block reads back, and the full history is regular under
//!    [`ajx_consistency::check_regular`] with interrupted writes folded
//!    in as forever-concurrent.
//!
//! The run is single-threaded and seeded: identical `(cfg, opts)`
//! produce byte-identical [`PowerLossReport::trace`]s, the same contract
//! as the chaos harness and fault-injection transport.

use crate::harness::Cluster;
use ajx_consistency::{check_regular, Recorder};
use ajx_core::ProtocolConfig;
use ajx_storage::{FlushPolicy, NodeId, PersistMode, StripeId};
use ajx_transport::NetworkConfig;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Options for one [`run_power_loss`] execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowerLossOptions {
    /// Seed for the victim draw, the armed byte offset, and the workload.
    pub seed: u64,
    /// Total operations driven (half before arming, half after).
    pub ops: u64,
    /// Size of the logical block space operations target.
    pub blocks: u64,
    /// Percentage of operations that are reads.
    pub read_pct: u8,
    /// Node media/journal flush policy. Under [`FlushPolicy::Deferred`]
    /// the journal commits only at flush points, so the recovered node
    /// can be stale — the case the post-restart rebuild exists for.
    pub flush_policy: FlushPolicy,
    /// Under [`FlushPolicy::Deferred`]: force a node flush (and therefore
    /// a journal group commit) every this many operations.
    pub flush_every: u64,
}

impl Default for PowerLossOptions {
    fn default() -> Self {
        PowerLossOptions {
            seed: 0xD15C,
            ops: 48,
            blocks: 16,
            read_pct: 25,
            flush_policy: FlushPolicy::WriteThrough,
            flush_every: 6,
        }
    }
}

/// Outcome of one [`run_power_loss`] execution.
#[derive(Debug, Default, Clone)]
pub struct PowerLossReport {
    /// The node whose power was cut.
    pub victim: u32,
    /// The WAL byte offset the failure was armed at.
    pub armed_offset: u64,
    /// Operations that completed successfully.
    pub ops_ok: u64,
    /// Reads that failed (they constrain nothing).
    pub reads_failed: u64,
    /// Writes that failed indeterminately (folded into the history as
    /// forever-concurrent).
    pub writes_indeterminate: u64,
    /// Journal records replayed by the restart.
    pub replayed_records: u64,
    /// The deterministic event trace (byte-identical across runs with the
    /// same options).
    pub trace: Vec<String>,
    /// Everything that went wrong; empty = the run passed.
    pub violations: Vec<String>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *state;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Runs one seeded power-loss scenario end to end. See the module docs
/// for the phases; identical `(cfg, opts)` produce identical traces.
pub fn run_power_loss(cfg: ProtocolConfig, opts: &PowerLossOptions) -> PowerLossReport {
    let mut cfg = cfg;
    // Determinism: single driver thread, windows of one stripe and one
    // chunk (the order the committed seeded shapes were recorded with, as
    // in the chaos harness), and *no* auto-remap — a remap swaps the
    // medium and would destroy the very journal this run is about.
    cfg.pipeline_width = 1;
    cfg.rebuild_width = 1;
    cfg.auto_remap = false;
    let wal_dir = ajx_storage::scratch_dir_fast("powerloss");
    let cluster = Cluster::with_network(
        cfg.clone(),
        1,
        NetworkConfig {
            server_threads: 1,
            flush_policy: opts.flush_policy,
            persist: PersistMode::Wal { dir: wal_dir.clone() },
            ..NetworkConfig::default()
        },
    );
    let net = cluster.network().clone();
    let client = cluster.client(0);
    let rec: Arc<Recorder<Vec<u8>>> = Recorder::new();
    let mut rng = opts.seed ^ 0x7E57_AB1E_0FF0_DEAD;
    let mut report = PowerLossReport::default();
    let n = cfg.n();
    let k = cfg.k();
    let victim = NodeId((splitmix64(&mut rng) % n as u64) as u32);
    report.victim = victim.0;
    let mut trace: Vec<String> = Vec::new();
    let mut touched: BTreeSet<u64> = BTreeSet::new();
    // Stripes that may be inconsistent after the power cut: those with an
    // interrupted (indeterminate) write, plus — under deferred commits —
    // every stripe written since the victim's last durable group commit.
    // These need full recovery after the restart; everything else is
    // provably clean and goes through the rebuild engine's skip fast
    // path. This is the "node returned with disk" vs "returned empty"
    // distinction: a wiped node is INIT everywhere (the probe sees it),
    // while a returned disk looks NORM but may hide a stale tail.
    let mut suspect: BTreeSet<u64> = BTreeSet::new();
    let mut since_flush: BTreeSet<u64> = BTreeSet::new();
    let deferred = opts.flush_policy == FlushPolicy::Deferred;

    let flush_and_check = |net: &Arc<ajx_transport::Network>,
                               trace: &mut Vec<String>,
                               since_flush: &mut BTreeSet<u64>| {
        for t in 0..n {
            let id = NodeId(t as u32);
            if net.node_is_up(id) {
                net.with_node(id, |v| v.flush_all());
            }
        }
        // A deferred group commit can be the write that crosses the armed
        // offset; the machine dies at the flush, outside any RPC.
        if net.node_persist_tripped(victim) && net.node_is_up(victim) {
            net.crash_node(victim);
            trace.push(format!("power lost at s{} during deferred flush", victim.0));
        } else if net.node_is_up(victim) {
            // Everything written so far reached the victim's platter.
            since_flush.clear();
        }
    };

    let mut armed = false;
    for op in 0..opts.ops {
        // Arm the failure halfway through, at a random offset a short
        // (seeded) distance past what is already durable — so the tear
        // lands mid-record inside the second half's traffic.
        if op == opts.ops / 2 {
            let durable = net.persist_stats(victim).durable_bytes;
            let extra = 1 + splitmix64(&mut rng) % (4 * cfg.block_size as u64);
            let offset = durable + extra;
            net.arm_power_failure(victim, offset);
            report.armed_offset = offset;
            armed = true;
            trace.push(format!(
                "armed power failure at s{} wal byte {offset} (durable {durable})"
            , victim.0));
        }
        let lb = splitmix64(&mut rng) % opts.blocks;
        if (splitmix64(&mut rng) % 100) < u64::from(opts.read_pct) {
            let p = rec.invoke();
            match client.read_block(lb) {
                Ok(v) => {
                    trace.push(format!("op {op} read lb{lb} -> ok"));
                    rec.complete_read(lb, client.id().0, p, nonzero(v));
                    report.ops_ok += 1;
                }
                Err(e) => {
                    trace.push(format!("op {op} read lb{lb} -> err {e}"));
                    report.reads_failed += 1;
                }
            }
        } else {
            let fill = (splitmix64(&mut rng) % 255) as u8 + 1;
            let value = vec![fill; cfg.block_size];
            touched.insert(lb);
            if deferred {
                since_flush.insert(lb / k as u64);
            }
            let p = rec.invoke();
            match client.write_block(lb, value.clone()) {
                Ok(()) => {
                    trace.push(format!("op {op} write lb{lb} fill {fill} -> ok"));
                    rec.complete_write(lb, client.id().0, p, value);
                    report.ops_ok += 1;
                }
                Err(e) => {
                    trace.push(format!("op {op} write lb{lb} fill {fill} -> indet {e}"));
                    rec.complete_write_indeterminate(lb, client.id().0, p, value);
                    report.writes_indeterminate += 1;
                    suspect.insert(lb / k as u64);
                }
            }
        }
        if deferred && opts.flush_every != 0 && (op + 1) % opts.flush_every == 0 {
            flush_and_check(&net, &mut trace, &mut since_flush);
        }
    }
    if deferred {
        flush_and_check(&net, &mut trace, &mut since_flush);
    }

    if net.node_is_up(victim) {
        if armed {
            report
                .violations
                .push("armed power failure never tripped (workload too small)".into());
        }
    } else {
        trace.push(format!("s{} is down (power lost)", victim.0));
        // Whatever was written since the victim's last durable commit may
        // be missing from its replayed state.
        suspect.append(&mut since_flush);
    }

    // Reboot the machine with its disk: RAM wiped, journal replayed.
    if !net.node_is_up(victim) {
        if !cluster.restart_storage_node_with_disk(victim) {
            report
                .violations
                .push(format!("restart-with-disk of s{} failed", victim.0));
        } else {
            report.replayed_records = net.persist_stats(victim).records;
            trace.push(format!(
                "restart-with-disk s{}: replayed {} records, {} durable bytes",
                victim.0,
                report.replayed_records,
                net.persist_stats(victim).durable_bytes
            ));
        }
    }

    // Repair pass 1: full recovery for the suspect stripes. These look
    // NORM/unlocked to a probe (no wipe happened), so the rebuild
    // engine's skip heuristic would pass them over — but an interrupted
    // write may have reached only some redundant nodes, and a deferred
    // victim replays a stale prefix. `recover_stripe` reconciles them
    // through find-consistent, the same path the chaos harness uses for
    // stranded writes.
    for &s in &suspect {
        match client.recover_stripe(StripeId(s)) {
            Ok(()) => trace.push(format!("recovered suspect stripe {s}")),
            Err(e) => report
                .violations
                .push(format!("recovery of suspect stripe {s} failed: {e}")),
        }
    }

    // Repair pass 2: the batched rebuild engine sweeps everything else.
    // Under write-through commits it mostly *skips* (replay already
    // caught the node up — the whole point of keeping the disk).
    let stripes: Vec<StripeId> = touched
        .iter()
        .map(|&lb| lb / k as u64)
        .collect::<BTreeSet<u64>>()
        .into_iter()
        .map(StripeId)
        .collect();
    match client.rebuild_stripes(&stripes) {
        Ok(r) => trace.push(format!(
            "repair: {} stripes, {} rebuilt, {} recovered, {} skipped",
            r.stripes, r.rebuilt, r.recovered, r.skipped
        )),
        Err(e) => report.violations.push(format!("post-restart rebuild failed: {e}")),
    }

    // Final checks: read-back, erasure ground truth, regularity.
    for &lb in &touched {
        let p = rec.invoke();
        match client.read_block(lb) {
            Ok(v) => rec.complete_read(lb, client.id().0, p, nonzero(v)),
            Err(e) => report
                .violations
                .push(format!("final read of block {lb} failed: {e}")),
        }
    }
    for s in &stripes {
        if !cluster.stripe_is_consistent(*s) {
            report.violations.push(format!(
                "stripe {} violates the erasure equation [{}]",
                s.0,
                cluster.stripe_forensics(*s)
            ));
        }
    }
    let history = rec.take_history();
    if let Err(v) = check_regular(&history) {
        report.violations.push(v.to_string());
    }
    trace.push(format!(
        "done: {} ok, {} reads failed, {} writes indeterminate",
        report.ops_ok, report.reads_failed, report.writes_indeterminate
    ));
    report.trace = trace;
    std::fs::remove_dir_all(&wal_dir).ok();
    report
}

/// `None` for the all-zeros (initial-value) block, `Some` otherwise.
fn nonzero(v: Vec<u8>) -> Option<Vec<u8>> {
    if v.iter().all(|&b| b == 0) {
        None
    } else {
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ProtocolConfig {
        ProtocolConfig::new(2, 4, 16).unwrap()
    }

    #[test]
    fn power_loss_run_passes_and_reproduces_write_through() {
        let opts = PowerLossOptions::default();
        let a = run_power_loss(cfg(), &opts);
        assert!(a.violations.is_empty(), "violations: {:?}", a.violations);
        assert!(a.armed_offset > 0, "failure must arm");
        assert!(a.writes_indeterminate + a.ops_ok > 0);
        assert!(a.replayed_records > 0, "restart must replay the journal");
        let b = run_power_loss(cfg(), &opts);
        assert_eq!(a.trace, b.trace, "same seed must replay byte-identically");
    }

    #[test]
    fn power_loss_run_passes_and_reproduces_deferred() {
        let opts = PowerLossOptions {
            flush_policy: FlushPolicy::Deferred,
            ..PowerLossOptions::default()
        };
        let a = run_power_loss(cfg(), &opts);
        assert!(a.violations.is_empty(), "violations: {:?}", a.violations);
        assert!(a.replayed_records > 0);
        let b = run_power_loss(cfg(), &opts);
        assert_eq!(a.trace, b.trace, "deferred commits must stay deterministic");
    }

    /// The `tools/check.sh` power-loss smoke: three seeds, both flush
    /// policies, every run recovering to a checker-accepted state and
    /// replaying byte-identically.
    #[test]
    fn three_seeds_reproduce_byte_identically_under_both_policies() {
        for policy in [FlushPolicy::WriteThrough, FlushPolicy::Deferred] {
            for seed in [1u64, 2, 3] {
                let opts = PowerLossOptions {
                    seed,
                    flush_policy: policy,
                    ..PowerLossOptions::default()
                };
                let a = run_power_loss(cfg(), &opts);
                assert!(
                    a.violations.is_empty(),
                    "seed {seed} {policy:?}: {:?}",
                    a.violations
                );
                let b = run_power_loss(cfg(), &opts);
                assert_eq!(
                    a.trace, b.trace,
                    "seed {seed} {policy:?} must replay byte-identically"
                );
            }
        }
    }

    #[test]
    fn different_seeds_cut_power_differently() {
        let a = run_power_loss(cfg(), &PowerLossOptions::default());
        let b = run_power_loss(
            cfg(),
            &PowerLossOptions { seed: 99, ..PowerLossOptions::default() },
        );
        assert!(a.violations.is_empty(), "a: {:?}", a.violations);
        assert!(b.violations.is_empty(), "b: {:?}", b.violations);
        assert_ne!(a.trace, b.trace, "seeds must steer the run");
    }
}
