//! Seeded chaos harness: a nemesis schedule (crashes, remaps, partitions,
//! drops, slowdowns) driven against live protocol traffic, with every
//! completed operation recorded for an `ajx-consistency` regularity check.
//!
//! The driver is **single-threaded round-robin** on purpose: with one
//! driving thread and `server_threads: 1` per node, every RPC — including
//! the ones issued internally by recovery, monitoring, and GC — happens in
//! a deterministic order, so the per-link fault decisions (pure functions
//! of the seed and per-link sequence numbers) and therefore the entire
//! fault-event trace are **byte-identical across runs with the same
//! options**. Concurrent stress belongs in the multi-threaded soak tests,
//! which assert only the consistency properties, not the trace.
//!
//! The run ends with a repair epilogue — heal all faults, remap any node
//! still down, recover every touched stripe — followed by three checks:
//!
//! 1. every touched stripe satisfies the erasure equation (ground truth,
//!    [`Cluster::stripe_is_consistent`]);
//! 2. a read-back of every touched block succeeds;
//! 3. the full operation history is regular
//!    ([`ajx_consistency::check_regular`]), with writes that failed
//!    indeterminately folded in as forever-concurrent
//!    ([`Recorder::complete_write_indeterminate`]).

use crate::harness::Cluster;
use ajx_consistency::{check_regular, Recorder};
use ajx_core::ProtocolConfig;
use ajx_storage::{ClientId, NodeId, StripeId};
use ajx_transport::{LinkFaults, NetworkConfig};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

/// Options for one [`run_chaos`] execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosOptions {
    /// Seed for the nemesis schedule *and* the transport fault decisions.
    pub seed: u64,
    /// Number of protocol clients driven round-robin.
    pub n_clients: usize,
    /// Nemesis rounds; each round draws at most one nemesis event and then
    /// issues `ops_per_round` operations per client.
    pub rounds: u64,
    /// Operations per client per round.
    pub ops_per_round: u64,
    /// Size of the logical block space operations target.
    pub blocks: u64,
    /// Percentage of operations that are reads.
    pub read_pct: u8,
    /// Background fault rule applied to every link while chaos runs.
    pub link: LinkFaults,
    /// Probability that a round opens with a nemesis event.
    pub nemesis_p: f64,
    /// Per-RPC deadline — required, or dropped requests would hang forever.
    pub call_timeout: Duration,
    /// Run one GC cycle every this many rounds (0 = never).
    pub gc_every: u64,
    /// Run a §3.10 monitor sweep every this many rounds (0 = never). The
    /// sweep repairs stripes on INIT (remapped) nodes and stripes with
    /// stale unfinished writes; a fully successful sweep resets the crash
    /// budget.
    pub monitor_every: u64,
    /// Monitor age threshold (node ticks): recentlist entries older than
    /// this mark a stripe as carrying an abandoned write and trigger
    /// repair. Successful writes park tids in recentlists until GC moves
    /// them, so this must comfortably exceed the GC cadence.
    pub stale_age: u64,
    /// Maximum run length of one operation, in blocks. `1` keeps every
    /// operation single-block; larger values draw a length in
    /// `1..=max_run` per operation and issue it through the batched
    /// multi-block path ([`ajx_core::Client::read_blocks`] /
    /// [`write_blocks`](ajx_core::Client::write_blocks)), recording each
    /// block individually so the regularity check still applies per block.
    pub max_run: u64,
    /// Per-node request-queue bound (`None` = unbounded). Small values
    /// make the reactor nodes shed load with `Busy` mid-chaos, exercising
    /// the backpressure path under the determinism contract.
    pub node_queue_depth: Option<usize>,
    /// Stripe-state shards per node (see [`ajx_storage::ShardedNode`]).
    pub state_shards: usize,
    /// Back every node with a write-ahead log (scratch directory, removed
    /// when the run ends) and add [`NemesisEvent::RestartWithDisk`] to the
    /// schedule. A crashed node then has two ways back: the repair crew
    /// wipes and remaps it (rebuild from peers), or power returns and it
    /// restarts **with its disk** — journal replayed, no rebuild needed
    /// for anything it acked. The race between the two is part of the
    /// deterministic schedule.
    pub durable: bool,
}

impl Default for ChaosOptions {
    /// A small-but-hostile default: 5% drops each way, occasional delays
    /// and duplicates, a nemesis event every other round.
    fn default() -> Self {
        ChaosOptions {
            seed: 0xC4A05,
            n_clients: 2,
            rounds: 20,
            ops_per_round: 8,
            blocks: 16,
            read_pct: 40,
            link: LinkFaults {
                drop_req: 0.05,
                drop_reply: 0.05,
                delay_p: 0.05,
                delay: Duration::from_micros(100),
                dup_req: 0.05,
            },
            nemesis_p: 0.5,
            call_timeout: Duration::from_millis(10),
            gc_every: 4,
            monitor_every: 5,
            stale_age: 200,
            max_run: 1,
            node_queue_depth: Some(1024),
            state_shards: 8,
            durable: false,
        }
    }
}

/// The fault classes the nemesis schedule draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NemesisEvent {
    /// Fail-stop a storage node (bounded by the `n − k` erasure budget).
    Crash,
    /// §3.5 directory remap of a node that is currently down.
    Remap,
    /// Block one client→node direction (requests silently lost).
    PartitionReq,
    /// Block one node→client direction (requests execute, replies lost).
    PartitionReply,
    /// Heal every partition.
    HealPartitions,
    /// Add latency to every exchange with one node.
    Slowdown,
    /// Power returns: restart a down node **with its disk** — journal
    /// replayed instead of wipe-and-rebuild. Never part of the random
    /// event table: in [`ChaosOptions::durable`] runs the round-boundary
    /// repair crew draws it (seeded coin) against [`Remap`](Self::Remap)
    /// for every node still down, so each crash races "power came back"
    /// against "the crew wiped the disk".
    RestartWithDisk,
}

const EVENTS: [NemesisEvent; 6] = [
    NemesisEvent::Crash,
    NemesisEvent::Remap,
    NemesisEvent::PartitionReq,
    NemesisEvent::PartitionReply,
    NemesisEvent::HealPartitions,
    NemesisEvent::Slowdown,
];

/// Outcome of one [`run_chaos`] execution.
#[derive(Debug, Default, Clone)]
pub struct ChaosReport {
    /// Operations that completed successfully during the chaos phase.
    pub ops_ok: u64,
    /// Reads that failed (no response recorded — a failed read returns
    /// nothing and constrains nothing).
    pub reads_failed: u64,
    /// Writes that failed indeterminately and were folded into the history
    /// as forever-concurrent.
    pub writes_indeterminate: u64,
    /// Nemesis events actually applied.
    pub nemesis_events: u64,
    /// Garbage-collection cycles run (every `gc_every` rounds).
    pub gc_cycles: u64,
    /// Cycles among them that returned an error: some node's entries stayed
    /// listed for a later cycle.
    pub gc_aborted: u64,
    /// Stripes repaired by the final recovery sweep.
    pub recovered_stripes: usize,
    /// Total operations in the checked history.
    pub history_len: usize,
    /// The deterministic fault/nemesis event stream (tracing is always on).
    pub trace: Vec<String>,
    /// Everything that went wrong: regularity violations, failed final
    /// reads, broken erasure equations. Empty = the run passed.
    pub violations: Vec<String>,
}

/// SplitMix64, the one generator of the seeded harnesses (chaos and power
/// loss): a seed fixes every draw.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *state;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn chance(state: &mut u64, p: f64) -> bool {
    ((splitmix64(state) >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
}

/// Runs a seeded chaos schedule against a fresh cluster and checks the
/// result. See the module docs for the structure of a run; identical
/// `(cfg, opts)` produce identical [`ChaosReport::trace`]s.
pub fn run_chaos(cfg: ProtocolConfig, opts: &ChaosOptions) -> ChaosReport {
    let mut cfg = cfg;
    // One stripe per write window and one chunk per rebuild window: a
    // wider window replays byte-identically too (one thread drives it),
    // but it sends in another order, and the committed seeded shapes stay
    // comparable only at the order they were recorded with.
    cfg.pipeline_width = 1;
    cfg.rebuild_width = 1;
    if opts.durable {
        // With journals behind the nodes, "wipe and remap" is a choice,
        // not the only road back — auto-remap would make every crash an
        // instant wipe and the RestartWithDisk arm unreachable. The
        // repair crew acts only through explicit nemesis draws (Remap =
        // wipe-and-rebuild, RestartWithDisk = power returned), so the
        // race between them is part of the seeded schedule.
        cfg.auto_remap = false;
    }
    let wal_dir = opts.durable.then(|| ajx_storage::scratch_dir_fast("chaos"));
    let cluster = Cluster::with_network(
        cfg.clone(),
        opts.n_clients,
        NetworkConfig {
            // Single worker per node: node-side execution order equals
            // submission order, part of the determinism contract above.
            server_threads: 1,
            call_timeout: Some(opts.call_timeout),
            node_queue_depth: opts.node_queue_depth,
            state_shards: opts.state_shards,
            persist: match &wal_dir {
                Some(dir) => ajx_storage::PersistMode::Wal { dir: dir.clone() },
                None => ajx_storage::PersistMode::InMemory,
            },
            ..NetworkConfig::default()
        },
    );
    let net = cluster.network().clone();
    net.faults().set_seed(opts.seed);
    net.faults().set_tracing(true);
    net.faults().set_default_link(opts.link);

    let rec: Arc<Recorder<Vec<u8>>> = Recorder::new();
    let mut rng = opts.seed ^ 0xA5A5_5A5A_1234_8765;
    let mut report = ChaosReport::default();
    let n = cfg.n();
    let k = cfg.k();
    // Nodes that lost data (crashed) and have not been through a verified
    // full repair yet. A node the directory already remapped is up but
    // holds garbage until per-stripe recovery runs, so crashing another
    // node is only safe while this set stays within the erasure budget.
    let mut wounded: BTreeSet<u32> = BTreeSet::new();
    // Stripes with a write that failed indeterminately and has not been
    // repaired since. Each stranded write is a §4 client failure: its adds
    // may have reached only some redundant nodes, and stacking a second
    // divergence (another strand, or wiping a data node) on the same
    // stripe can push it past what `find_consistent` can reconcile. The
    // nemesis therefore refuses to crash nodes while strands are open, and
    // the driver repairs strands promptly — the paper's assumption that
    // failures are repaired faster than they accumulate (§3.10).
    let mut stranded: BTreeSet<u64> = BTreeSet::new();
    let mut touched: BTreeSet<u64> = BTreeSet::new();
    // Durable mode: how many nodes were down at the last round boundary
    // and are owed a repair-crew visit this round.
    let mut repair_pending: usize = 0;

    for round in 0..opts.rounds {
        net.faults().note(format!("round {round}"));
        // Durable mode has no auto-remap, so the repair crew must be
        // prompt (§3.10's assumption that failures are repaired faster
        // than they accumulate — seed scans confirm that letting a node
        // stay down for many rounds stacks unreconcilable divergence).
        // Every node that was still down at the previous round boundary
        // gets repaired now; a seeded coin decides whether power returned
        // (restart with the journal) or the crew wiped and remapped it.
        for _ in 0..std::mem::take(&mut repair_pending) {
            let ev = if splitmix64(&mut rng).is_multiple_of(2) {
                NemesisEvent::RestartWithDisk
            } else {
                NemesisEvent::Remap
            };
            apply_nemesis(&cluster, ev, &mut rng, &mut wounded, &stranded, n, k);
        }
        if chance(&mut rng, opts.nemesis_p) {
            let ev = EVENTS[(splitmix64(&mut rng) % EVENTS.len() as u64) as usize];
            let applied =
                apply_nemesis(&cluster, ev, &mut rng, &mut wounded, &stranded, n, k);
            if applied {
                report.nemesis_events += 1;
            }
            // A Remap draw is the repair crew arriving. With `auto_remap`
            // on (the default), client traffic usually remaps a crashed
            // node before the nemesis does — the node is up but INIT for
            // every stripe it held — so the draw itself rarely "applies";
            // what matters is whether wiped nodes are outstanding. Drive
            // the batched rebuild engine over the touched stripes — the
            // same thing a real deployment runs after a disk replacement
            // — rotating the rebuilding client like the repair duty
            // below. Failures are tolerated here (the monitor sweep and
            // epilogue still heal), but the attempt itself is part of the
            // deterministic trace.
            if ev == NemesisEvent::Remap
                && (applied || !wounded.is_empty())
                && !touched.is_empty()
            {
                let stripes: Vec<StripeId> = touched
                    .iter()
                    .map(|&lb| StripeId(lb / k as u64))
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect();
                let rebuilder =
                    cluster.client((round % cluster.n_clients() as u64) as usize);
                match rebuilder.rebuild_stripes(&stripes) {
                    Ok(r) => {
                        net.faults().note(format!(
                            "nemesis rebuild: {} stripes, {} rebuilt, {} recovered, {} skipped",
                            r.stripes, r.rebuilt, r.recovered, r.skipped
                        ));
                        // Every touched stripe verified or repaired: the
                        // failure budget is whole again (same contract as
                        // a successful monitor sweep).
                        wounded.clear();
                        stranded.clear();
                    }
                    Err(e) => {
                        net.faults().note(format!("nemesis rebuild -> err {e}"));
                    }
                }
            }
        }

        // Repair duty first: re-attempt recovery of stranded stripes,
        // rotating the repairing client so a partition pinning one client
        // off a node does not pin the stripe broken. (Fig. 4/5: any client
        // that stumbles on a broken stripe recovers it.)
        let repairer = cluster.client((round % cluster.n_clients() as u64) as usize);
        let repaired: Vec<u64> = stranded
            .iter()
            .copied()
            .filter(|&s| repairer.recover_stripe(StripeId(s)).is_ok())
            .collect();
        for s in repaired {
            stranded.remove(&s);
        }

        for c in 0..cluster.n_clients() {
            let client = cluster.client(c);
            for _ in 0..opts.ops_per_round {
                let lb = splitmix64(&mut rng) % opts.blocks;
                // Run length: 1 for the classic single-block harness, or a
                // drawn length through the batched multi-block data path.
                let run = if opts.max_run > 1 {
                    (1 + splitmix64(&mut rng) % opts.max_run).min(opts.blocks - lb)
                } else {
                    1
                };
                let lbs: Vec<u64> = (lb..lb + run).collect();
                if (splitmix64(&mut rng) % 100) < u64::from(opts.read_pct) {
                    // Each block of the run is its own operation in the
                    // history; a failed batched read fails them all (and
                    // constrains nothing).
                    let ps: Vec<_> = lbs.iter().map(|_| rec.invoke()).collect();
                    match client.read_blocks(&lbs) {
                        Ok(vs) => {
                            net.faults().note(format!(
                                "op c{c} read lb{lb}+{run} -> {}",
                                vs[0].first().copied().unwrap_or(0)
                            ));
                            for ((&b, p), v) in lbs.iter().zip(ps).zip(vs) {
                                rec.complete_read(b, client.id().0, p, nonzero(v));
                            }
                            report.ops_ok += run;
                        }
                        Err(e) => {
                            net.faults()
                                .note(format!("op c{c} read lb{lb}+{run} -> err {e}"));
                            report.reads_failed += run;
                        }
                    }
                } else {
                    // Fills are 1..=255: the all-zeros block stays reserved
                    // for "initial value" in the history. Each block of the
                    // run gets a distinct fill so the regularity check can
                    // tell them apart.
                    let fill = (splitmix64(&mut rng) % 255) as u8 + 1;
                    let values: Vec<Vec<u8>> = (0..run)
                        .map(|x| {
                            vec![(fill.wrapping_add(x as u8)).max(1); cfg.block_size]
                        })
                        .collect();
                    touched.extend(&lbs);
                    let ps: Vec<_> = lbs.iter().map(|_| rec.invoke()).collect();
                    let writes: Vec<(u64, &[u8])> = lbs
                        .iter()
                        .zip(&values)
                        .map(|(&b, v)| (b, v.as_slice()))
                        .collect();
                    match client.write_blocks(&writes) {
                        Ok(()) => {
                            net.faults().note(format!(
                                "op c{c} write lb{lb}+{run} fill {fill} -> ok"
                            ));
                            for ((&b, p), v) in lbs.iter().zip(ps).zip(values) {
                                rec.complete_write(b, client.id().0, p, v);
                            }
                            report.ops_ok += run;
                        }
                        Err(e) => {
                            net.faults().note(format!(
                                "op c{c} write lb{lb}+{run} fill {fill} -> indet {e}"
                            ));
                            // Per-block atomicity means any block of the
                            // run may or may not have landed — fold each in
                            // as forever-concurrent (the conservative,
                            // regularity-sound reading), and repair every
                            // touched stripe.
                            for ((&b, p), v) in lbs.iter().zip(ps).zip(values) {
                                rec.complete_write_indeterminate(b, client.id().0, p, v);
                            }
                            report.writes_indeterminate += run;
                            let stripes: BTreeSet<u64> =
                                lbs.iter().map(|&b| b / k as u64).collect();
                            for stripe in stripes {
                                if client.recover_stripe(StripeId(stripe)).is_err() {
                                    stranded.insert(stripe);
                                }
                            }
                        }
                    }
                }
            }
        }

        if opts.gc_every != 0 && (round + 1) % opts.gc_every == 0 {
            // Busy/unreachable nodes are retried next cycle; an aborted
            // cycle keeps its bookkeeping (the satellite-1 guarantee).
            report.gc_cycles += 1;
            report.gc_aborted += u64::from(cluster.client(0).collect_garbage().is_err());
        }
        if opts.monitor_every != 0 && (round + 1) % opts.monitor_every == 0 {
            let stripes: Vec<StripeId> = touched
                .iter()
                .map(|&lb| StripeId(lb / k as u64))
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            if cluster.client(0).monitor(&stripes, opts.stale_age).is_ok() {
                // Every touched stripe was probed, and every INIT node and
                // stale write among them repaired: the failure budget is
                // whole again.
                wounded.clear();
                stranded.clear();
            }
        }
        if opts.durable {
            repair_pending = (0..n as u32)
                .filter(|&t| !net.node_is_up(NodeId(t)))
                .count();
        }
    }

    // Repair epilogue: heal the network, resurrect anything still down,
    // recover every touched stripe, then check.
    net.faults().clear();
    net.faults().set_tracing(false);
    for t in 0..n {
        let node = NodeId(t as u32);
        if !net.node_is_up(node) {
            cluster.remap_storage_node(node);
        }
    }
    // The chaos phase can strand recovery locks: a recovery that gave up
    // under partition sends best-effort unlocks, and the network can eat
    // those too. With traffic quiesced, any lock still held belongs to a
    // recovery that went silent — exactly what the paper's fail-stop
    // detector is for (§2, Fig. 6 line 34). Expire them so the repair
    // sweep does not lose the race to ghosts forever.
    for c in 0..opts.n_clients {
        net.notify_client_failure(ClientId(c as u32));
    }
    let stripes: BTreeSet<u64> = touched.iter().map(|&lb| lb / k as u64).collect();
    for &s in &stripes {
        match cluster.client(0).recover_stripe(StripeId(s)) {
            Ok(()) => report.recovered_stripes += 1,
            Err(e) => report.violations.push(format!(
                "final recovery of stripe {s} failed: {e} [{}]",
                cluster.stripe_forensics(StripeId(s))
            )),
        }
    }
    for &lb in &touched {
        let p = rec.invoke();
        match cluster.client(0).read_block(lb) {
            Ok(v) => rec.complete_read(lb, cluster.client(0).id().0, p, nonzero(v)),
            Err(e) => report
                .violations
                .push(format!("final read of block {lb} failed: {e}")),
        }
    }
    for &s in &stripes {
        if !cluster.stripe_is_consistent(StripeId(s)) {
            report
                .violations
                .push(format!("stripe {s} violates the erasure equation"));
        }
    }
    let history = rec.take_history();
    report.history_len = history.len();
    if let Err(v) = check_regular(&history) {
        report.violations.push(v.to_string());
    }
    report.trace = net.faults().take_trace();
    if let Some(dir) = wal_dir {
        std::fs::remove_dir_all(dir).ok();
    }
    report
}

/// `None` for the all-zeros (initial-value) block, `Some` otherwise.
pub(crate) fn nonzero(v: Vec<u8>) -> Option<Vec<u8>> {
    if v.iter().all(|&b| b == 0) {
        None
    } else {
        Some(v)
    }
}

/// Applies one nemesis event, respecting the `n − k` erasure budget for
/// crashes. Returns whether anything actually happened.
fn apply_nemesis(
    cluster: &Cluster,
    ev: NemesisEvent,
    rng: &mut u64,
    wounded: &mut BTreeSet<u32>,
    stranded: &BTreeSet<u64>,
    n: usize,
    k: usize,
) -> bool {
    let net = cluster.network();
    match ev {
        NemesisEvent::Crash => {
            if wounded.len() >= n - k || !stranded.is_empty() {
                // Budget exhausted, or a stranded write's divergence is
                // still unrepaired — wiping a node on top of either can
                // exceed what the erasure code tolerates (§4).
                return false;
            }
            let victim = (splitmix64(rng) % n as u64) as u32;
            if wounded.contains(&victim) {
                return false;
            }
            wounded.insert(victim);
            net.faults().note(format!("nemesis crash s{victim}"));
            cluster.crash_storage_node(NodeId(victim));
            true
        }
        NemesisEvent::Remap => {
            let Some(down) = (0..n as u32).find(|&t| !net.node_is_up(NodeId(t))) else {
                return false;
            };
            net.faults().note(format!("nemesis remap s{down}"));
            cluster.remap_storage_node(NodeId(down));
            true
        }
        NemesisEvent::PartitionReq => {
            let c = (splitmix64(rng) % cluster.n_clients() as u64) as u32;
            let s = (splitmix64(rng) % n as u64) as u32;
            net.faults().partition_requests(ClientId(c), NodeId(s));
            true
        }
        NemesisEvent::PartitionReply => {
            let c = (splitmix64(rng) % cluster.n_clients() as u64) as u32;
            let s = (splitmix64(rng) % n as u64) as u32;
            net.faults().partition_replies(ClientId(c), NodeId(s));
            true
        }
        NemesisEvent::HealPartitions => {
            net.faults().heal_partitions();
            true
        }
        NemesisEvent::Slowdown => {
            let s = (splitmix64(rng) % n as u64) as u32;
            net.faults().set_node_slowdown(NodeId(s), Duration::from_micros(100));
            true
        }
        NemesisEvent::RestartWithDisk => {
            let Some(down) = (0..n as u32).find(|&t| !net.node_is_up(NodeId(t))) else {
                return false;
            };
            if !cluster.restart_storage_node_with_disk(NodeId(down)) {
                // No journal behind this node (durable off, or empty log).
                return false;
            }
            net.faults().note(format!("nemesis restart-with-disk s{down}"));
            // Under write-through commits the journal holds everything the
            // node ever acked, so it is back as if the crash never
            // happened — no longer wounded. In-flight writes at crash time
            // failed indeterminately at their clients and stay covered by
            // the stranded-stripe repair duty.
            wounded.remove(&down);
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> ChaosOptions {
        ChaosOptions {
            rounds: 6,
            ops_per_round: 4,
            blocks: 8,
            // These tests compare traces across runs; keep the deadline
            // well above scheduler-stall scale so load cannot turn one
            // run's slow reply into a spurious timeout.
            call_timeout: Duration::from_millis(30),
            ..ChaosOptions::default()
        }
    }

    #[test]
    fn chaos_run_passes_and_reproduces() {
        let cfg = ProtocolConfig::new(2, 4, 16).unwrap();
        let opts = quick_opts();
        let a = run_chaos(cfg.clone(), &opts);
        assert!(a.violations.is_empty(), "violations: {:?}", a.violations);
        assert!(a.ops_ok > 0);
        let b = run_chaos(cfg, &opts);
        assert_eq!(a.trace, b.trace, "same seed must replay byte-identically");
        assert_eq!(a.ops_ok, b.ops_ok);
        assert_eq!(a.nemesis_events, b.nemesis_events);
    }

    #[test]
    fn batched_chaos_run_passes_and_reproduces() {
        let cfg = ProtocolConfig::new(2, 4, 16).unwrap();
        let opts = ChaosOptions {
            max_run: 4,
            ..quick_opts()
        };
        let a = run_chaos(cfg.clone(), &opts);
        assert!(a.violations.is_empty(), "violations: {:?}", a.violations);
        assert!(a.ops_ok > 0);
        let b = run_chaos(cfg, &opts);
        assert_eq!(
            a.trace, b.trace,
            "batched ops must not break trace determinism"
        );
        assert_eq!(a.ops_ok, b.ops_ok);
    }

    #[test]
    fn durable_chaos_run_passes_and_reproduces() {
        let cfg = ProtocolConfig::new(2, 4, 16).unwrap();
        // Seed 5 is chosen so the schedule crashes a node and the repair
        // crew draws the restart-with-disk arm. WAL fsyncs put real disk
        // I/O on the reply path, so under a fully loaded test run a node
        // can stall well past quick_opts' 30 ms deadline — give the
        // trace-equality contract a much wider timeout margin.
        let opts = ChaosOptions {
            durable: true,
            rounds: 10,
            seed: 5,
            call_timeout: Duration::from_millis(100),
            ..quick_opts()
        };
        let a = run_chaos(cfg.clone(), &opts);
        assert!(a.violations.is_empty(), "violations: {:?}", a.violations);
        assert!(a.ops_ok > 0);
        assert!(
            a.trace.iter().any(|l| l.contains("restart-with-disk")),
            "pinned seed must exercise the restart-with-disk arm"
        );
        let b = run_chaos(cfg, &opts);
        assert_eq!(
            a.trace, b.trace,
            "journaled nodes must not break trace determinism"
        );
        assert_eq!(a.ops_ok, b.ops_ok);
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let cfg = ProtocolConfig::new(2, 4, 16).unwrap();
        let a = run_chaos(cfg.clone(), &quick_opts());
        let b = run_chaos(
            cfg,
            &ChaosOptions {
                seed: 7,
                ..quick_opts()
            },
        );
        assert!(a.violations.is_empty(), "a: {:?}", a.violations);
        assert!(b.violations.is_empty(), "b: {:?}", b.violations);
        assert_ne!(a.trace, b.trace, "seeds must actually steer the run");
    }
}
