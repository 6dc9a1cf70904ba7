//! The six workloads and the loop that runs any of them.
//!
//! Ground rules, each for a measured reason (README, "Ground rules"): the
//! process is pinned to one CPU; the network injects no latency and shapes
//! no bandwidth; every node has one server thread and one closed-loop
//! client generates the load (every AJX caller waits for its reply); every
//! writing client collects garbage every [`GC_EVERY`] writes inside the
//! measured window; work comes in slices of a fixed operation count drawn
//! from the seed.

pub mod block_rw;
pub mod codec;
pub mod degraded_rebuild;
pub mod many_clients;
pub mod seq_large;

use crate::metrics::Metrics;
use crate::record::{Recorder, Slice};
use crate::util::fill_block;
use ajx_cluster::Cluster;
use ajx_core::ProtocolConfig;
use ajx_storage::{FlushPolicy, NodeId, PersistMode, StripeId};
use ajx_transport::{NetSnapshot, NetworkConfig};
use std::time::{Duration, Instant};

/// A client's writes between two `collect_garbage` calls — the paper's
/// Fig. 7 task. Without it node tid-lists grow and throughput drifts down
/// by a sixth between a 3 s and a 25 s run.
pub const GC_EVERY: u32 = 1024;

/// Set-ups per run; `setup_s` is their median, the run keeps the last.
const SETUPS: usize = 3;

/// Slices a run makes at least, so the median over slices means something.
const MIN_SLICES: usize = 5;

pub const NAMES: [&str; 6] = [
    "small_rw",
    "seq_large",
    "degraded_rebuild",
    "durable_write",
    "many_clients",
    "codec",
];

#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Measure until this many seconds of wall time have passed …
    pub seconds: f64,
    /// … or, when set, for exactly this many slices: counts then repeat
    /// exactly from run to run.
    pub slices: Option<usize>,
    pub trace: bool,
}

pub trait Workload {
    type State;

    /// Bytes in one user block.
    fn block_bytes(&self) -> usize;

    /// Builds the system and loads it: everything a run needs before the
    /// first measured operation. Timed as `setup_s`.
    fn setup(&self, seed: u64) -> Self::State;

    /// One slice of the operation sequence.
    fn slice(&self, st: &mut Self::State, rec: &mut Recorder);

    /// Checks the final state against the shadow copy and returns the
    /// workload's own per-layer counters.
    fn finish(&self, st: Self::State, rec: &mut Recorder) -> Metrics;

    /// Microseconds per user block that each crate below `core` accounts
    /// for on the read side and on the write side, from the probes.
    fn model(&self, probes: &Metrics, counters: &Metrics) -> (Cost, Cost);
}

/// Probe time per user block, by crate.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cost {
    pub gf: f64,
    pub erasure: f64,
    pub transport: f64,
    pub storage: f64,
    pub wal: f64,
}

impl Cost {
    pub fn sum(&self) -> f64 {
        self.gf + self.erasure + self.transport + self.storage + self.wal
    }
}

pub struct RunResult {
    pub setup_s: f64,
    pub counters: Metrics,
    /// Wall time of the measured loop.
    pub measured_s: f64,
}

pub fn run<W: Workload>(w: &W, args: &RunArgs, rec: &mut Recorder) -> RunResult {
    let mut setups = Vec::new();
    let mut state = None;
    for i in 0..SETUPS {
        drop(state.take()); // one loaded system in memory at a time
        let start = Instant::now();
        state = Some(w.setup(args.seed));
        let end = Instant::now();
        setups.push(end.duration_since(start).as_secs_f64());
        rec.span("setup", start, end, i as u64);
    }
    let mut state = state.expect("SETUPS > 0");

    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    loop {
        let done = rec.slices.len();
        let stop = match args.slices {
            Some(n) => done >= n,
            None => done >= MIN_SLICES && start.elapsed() >= budget,
        };
        if stop {
            break;
        }
        rec.begin_slice();
        w.slice(&mut state, rec);
        rec.end_slice();
    }
    let measured_s = start.elapsed().as_secs_f64();
    let counters = w.finish(state, rec);
    RunResult {
        setup_s: crate::util::median(&setups),
        counters,
        measured_s,
    }
}

/// A cluster under the ground rules: no injected latency, no bandwidth
/// shaping, one server thread per node, one client that does its work on
/// the calling thread (its stripe and rebuild pools are of one worker:
/// eight workers taking turns on the one CPU made `seq_large` writes
/// bimodal, 125 or 170 µs a block from run to run).
pub fn quiet_cluster(
    mut cfg: ProtocolConfig,
    persist: PersistMode,
    flush_policy: FlushPolicy,
) -> Cluster {
    cfg.pipeline_width = 1;
    cfg.rebuild_width = 1;
    Cluster::with_network(
        cfg,
        1,
        NetworkConfig {
            one_way_latency: Duration::ZERO,
            client_bandwidth: None,
            node_bandwidth: None,
            server_threads: 1,
            persist,
            flush_policy,
            ..NetworkConfig::default()
        },
    )
}

/// Counters of a cluster that only grow, read at the two ends of the
/// measured loop.
#[derive(Clone, Copy, Debug)]
pub struct Counters {
    net: NetSnapshot,
    ops_handled: u64,
    media_writes: u64,
    fsyncs: u64,
    durable_bytes: u64,
    contended: u64,
    lock_ops: u64,
}

impl Counters {
    pub fn read(cluster: &Cluster) -> Counters {
        let net = cluster.network();
        let nodes = || (0..cluster.config().n()).map(|t| NodeId(t as u32));
        Counters {
            // The client's own endpoint: the network-wide counters do not
            // count round trips.
            net: cluster.client(0).endpoint().stats().snapshot(),
            ops_handled: nodes().map(|t| net.with_node(t, |n| n.ops_handled())).sum(),
            media_writes: cluster.total_media_writes(),
            fsyncs: cluster.total_journal_fsyncs(),
            durable_bytes: nodes().map(|t| net.persist_stats(t).durable_bytes).sum(),
            contended: nodes()
                .map(|t| net.with_node(t, |n| n.contended_shard_locks()))
                .sum(),
            lock_ops: cluster.total_lock_ops(),
        }
    }

    /// What the transport, storage and wal counters of `cluster` did since
    /// `self` was read, over the user blocks of `total`.
    pub fn metrics_since(&self, cluster: &Cluster, total: &Slice) -> Metrics {
        let now = Counters::read(cluster);
        let mut m = Metrics::default();
        let ops = total.blocks.max(1) as f64;
        let writes = total.write_blocks.max(1) as f64;
        let block = cluster.config().block_size as f64;
        let d = |now: u64, then: u64| now.saturating_sub(then) as f64;
        let (net, then) = (&now.net, &self.net);
        let wire = d(net.bytes_sent, then.bytes_sent) + d(net.bytes_received, then.bytes_received);
        let payload =
            d(net.payload_sent, then.payload_sent) + d(net.payload_received, then.payload_received);
        m.set(
            "transport.round_trips_per_op",
            d(net.round_trips, then.round_trips) / ops,
        );
        m.set(
            "transport.msgs_per_op",
            (d(net.msgs_sent, then.msgs_sent) + d(net.msgs_received, then.msgs_received)) / ops,
        );
        m.set(
            "transport.bytes_sent_per_op",
            d(net.bytes_sent, then.bytes_sent) / ops,
        );
        m.set("transport.wire_bytes_per_user_byte", wire / (ops * block));
        m.set("transport.payload_frac", payload / wire.max(1.0));
        m.set(
            "storage.ops_handled_per_op",
            d(now.ops_handled, self.ops_handled) / ops,
        );
        m.set(
            "storage.contended_shard_locks",
            d(now.contended, self.contended),
        );
        m.set("storage.lock_ops", d(now.lock_ops, self.lock_ops));
        m.set(
            "storage.media_writes_per_write",
            d(now.media_writes, self.media_writes) / writes,
        );
        m.set("wal.fsyncs_per_write", d(now.fsyncs, self.fsyncs) / writes);
        m.set(
            "wal.bytes_per_user_byte",
            d(now.durable_bytes, self.durable_bytes) / (writes * block),
        );
        // Flat from run to run when the garbage-collection cadence holds.
        m.set(
            "storage.metadata_bytes_per_block",
            cluster.total_metadata_bytes() as f64 / cluster.total_resident_blocks().max(1) as f64,
        );
        m
    }
}

/// Set-up for the cluster workloads: writes version 0 of blocks
/// `0..blocks`, `run` blocks to a `write_blocks` call, then collects
/// garbage twice — both phases of Fig. 7 — so that the measured window
/// starts with empty tid lists.
pub fn load(cluster: &Cluster, seed: u64, blocks: u64, run: u64) {
    let client = cluster.client(0);
    let mut bufs = vec![vec![0u8; cluster.config().block_size]; run as usize];
    for first in (0..blocks).step_by(run as usize) {
        let lbs = first..(first + run).min(blocks);
        for (buf, lb) in bufs.iter_mut().zip(lbs.clone()) {
            fill_block(buf, seed, lb, 0);
        }
        let writes: Vec<(u64, &[u8])> = lbs.zip(bufs.iter().map(Vec::as_slice)).collect();
        client.write_blocks(&writes).expect("set-up write");
    }
    client.collect_garbage().expect("set-up gc");
    client.collect_garbage().expect("set-up gc");
}

/// The check at the end of a cluster workload: reads blocks `0..blocks`
/// back, `run` to a call, against the shadow copy (`version_of` a block is
/// how often it was written), then asks the ground truth whether every
/// stripe is consistent.
pub fn verify_volume(
    cluster: &Cluster,
    seed: u64,
    blocks: u64,
    run: u64,
    version_of: impl Fn(u64) -> u32,
    rec: &mut Recorder,
) {
    let mut expected = vec![0u8; cluster.config().block_size];
    for first in (0..blocks).step_by(run as usize) {
        let lbs: Vec<u64> = (first..(first + run).min(blocks)).collect();
        let got = cluster.client(0).read_blocks(&lbs);
        rec.verify(got.is_ok_and(|read| {
            lbs.iter().zip(&read).all(|(&lb, block)| {
                fill_block(&mut expected, seed, lb, version_of(lb));
                *block == expected
            })
        }));
    }
    let stripes = blocks / cluster.config().k() as u64;
    rec.verify((0..stripes).all(|s| cluster.stripe_is_consistent(StripeId(s))));
}
