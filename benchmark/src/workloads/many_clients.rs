//! `many_clients`: 1024 logical clients multiplexed on one driver thread
//! through `run_mux_workload` — the completion-queue transport path
//! (`submit_call` / `poll_call`) and the mux state machine, which are
//! separate code from the blocking path every other workload takes.
//! RS 4-of-8, 1 KiB blocks, queues of 4096, 16 shards per node.
//!
//! A slice makes three mux runs: the even read/write mix on a fresh
//! network, then writes only on a second fresh network (`write_us`) and
//! reads only of what was just written (`read_us`); `ops_per_s` is over all
//! three. With 1024 operations in flight a single operation's latency is
//! queueing, so the two sides report time per block at full load: run time
//! over blocks. The mux keeps its own latency histogram in powers of two,
//! too coarse to bound.
//!
//! The mux draws no random numbers: its operation sequence is fixed by
//! `MuxOptions`, and `--seed` has nothing to vary here.

use super::{Cost, Workload};
use crate::metrics::Metrics;
use crate::record::{Recorder, Side};
use ajx_cluster::Cluster;
use ajx_core::{run_mux_workload, MuxOptions, MuxReport, ProtocolConfig};
use ajx_storage::{NodeId, StripeId};
use ajx_transport::NetworkConfig;
use std::time::Duration;

const K: usize = 4;
const N: usize = 8;
const BLOCK: usize = 1024;
const CLIENTS: usize = 1024;
const STRIPES_PER_CLIENT: u64 = 4;
const OPS_PER_CLIENT: usize = 24;

pub struct ManyClients;

#[derive(Default)]
pub struct State {
    busy_shed: u64,
    inflight_peak: u64,
    msgs: u64,
    bytes_sent: u64,
    bytes_received: u64,
    payload: u64,
    ops: u64,
    contended: u64,
}

fn fresh_cluster() -> Cluster {
    let cfg = ProtocolConfig::new(K, N, BLOCK).expect("4-of-8 is a valid code");
    Cluster::with_network(
        cfg,
        1,
        NetworkConfig {
            one_way_latency: Duration::ZERO,
            client_bandwidth: None,
            node_bandwidth: None,
            server_threads: 1,
            node_queue_depth: Some(4096),
            state_shards: 16,
            ..NetworkConfig::default()
        },
    )
}

fn options(read_pct: u32) -> MuxOptions {
    MuxOptions {
        clients: CLIENTS,
        ops_per_client: OPS_PER_CLIENT,
        read_pct,
        stripes_per_client: STRIPES_PER_CLIENT,
        driver_threads: 1,
    }
}

/// The fill byte the mux writes at operation `op` of client `client`.
fn fill_of(client: usize, op: usize) -> u8 {
    (op as u8) ^ (client as u8).rotate_left(3)
}

/// Whether the mux makes operation `op` a read at `read_pct`.
fn is_read(op: usize, read_pct: u32) -> bool {
    (op as u32).wrapping_mul(37) % 100 < read_pct
}

/// Checks every block the fleet owns against the last value the mux wrote
/// there (zeros where it wrote nothing), and every stripe for consistency.
/// Operation `op` of a client goes to data block `op % 4` of the client's
/// stripe `op % 4`.
fn verify(cluster: &Cluster, read_pct: u32, rec: &mut Recorder) {
    let mut ok = true;
    for client in 0..CLIENTS {
        for slot in 0..STRIPES_PER_CLIENT as usize {
            let last_write = (0..OPS_PER_CLIENT)
                .rev()
                .find(|&op| op % K == slot && !is_read(op, read_pct));
            let expected = vec![last_write.map_or(0, |op| fill_of(client, op)); BLOCK];
            let stripe = client as u64 * STRIPES_PER_CLIENT + slot as u64;
            let lb = cluster.config().layout.logical_block(stripe, slot);
            ok &= cluster
                .client(0)
                .read_block(lb)
                .is_ok_and(|v| v == expected);
            ok &= cluster.stripe_is_consistent(StripeId(stripe));
        }
    }
    rec.verify(ok);
}

impl ManyClients {
    /// One timed mux run on `cluster`.
    fn mux(
        &self,
        st: &mut State,
        cluster: &Cluster,
        side: Side,
        read_pct: u32,
        rec: &mut Recorder,
    ) {
        let cfg = cluster.config().clone();
        let blocks = (CLIENTS * OPS_PER_CLIENT) as u64;
        let name = match read_pct {
            0 => "mux_writes",
            100 => "mux_reads",
            _ => "mux_mix",
        };
        let before = cluster.network().stats().snapshot();
        let report: MuxReport = rec.time(side, name, blocks, None, || {
            run_mux_workload(cluster.network(), &cfg, &options(read_pct))
        });
        rec.check(report.failed_ops == 0 && report.completed_ops == blocks);
        let net = cluster.network().stats();
        let d = net.snapshot().since(&before);
        st.busy_shed += report.busy_shed;
        st.inflight_peak = st
            .inflight_peak
            .max((0..N).map(|t| net.inflight_peak(t)).max().unwrap_or(0));
        st.msgs += d.msgs_sent + d.msgs_received;
        st.bytes_sent += d.bytes_sent;
        st.bytes_received += d.bytes_received;
        st.payload += d.payload_sent + d.payload_received;
        st.ops += blocks;
    }
}

impl Workload for ManyClients {
    type State = State;

    fn block_bytes(&self) -> usize {
        BLOCK
    }

    /// Networks are built inside the slices (a mux run needs a fresh one:
    /// its clients restart their write sequence numbers at zero). Set-up is
    /// one warm-up slice's worth of building and running, so that thread
    /// and allocator start-up costs are paid before the first measured run.
    fn setup(&self, _seed: u64) -> State {
        let cluster = fresh_cluster();
        let report = run_mux_workload(cluster.network(), cluster.config(), &options(50));
        assert_eq!(report.failed_ops, 0, "warm-up mux run failed");
        State::default()
    }

    fn slice(&self, st: &mut State, rec: &mut Recorder) {
        let mixed = fresh_cluster();
        self.mux(st, &mixed, Side::Mixed, 50, rec);
        let sided = fresh_cluster();
        self.mux(st, &sided, Side::Write, 0, rec);
        self.mux(st, &sided, Side::Read, 100, rec);
        if rec.slices.is_empty() {
            verify(&mixed, 50, rec);
            verify(&sided, 0, rec);
        }
        st.contended += [&mixed, &sided]
            .iter()
            .flat_map(|c| {
                (0..N).map(|t| {
                    c.network()
                        .with_node(NodeId(t as u32), |n| n.contended_shard_locks())
                })
            })
            .sum::<u64>();
    }

    fn finish(&self, st: State, _rec: &mut Recorder) -> Metrics {
        let mut m = Metrics::default();
        let ops = st.ops.max(1) as f64;
        m.set("transport.busy_shed", st.busy_shed as f64);
        m.set("transport.inflight_peak", st.inflight_peak as f64);
        m.set("transport.msgs_per_op", st.msgs as f64 / ops);
        m.set("transport.bytes_sent_per_op", st.bytes_sent as f64 / ops);
        m.set(
            "transport.wire_bytes_per_user_byte",
            (st.bytes_sent + st.bytes_received) as f64 / (ops * BLOCK as f64),
        );
        m.set(
            "transport.payload_frac",
            st.payload as f64 / (st.bytes_sent + st.bytes_received).max(1) as f64,
        );
        m.set("storage.contended_shard_locks", st.contended as f64);
        m
    }

    fn model(&self, p: &Metrics, _counters: &Metrics) -> (Cost, Cost) {
        // The probes use 4 KiB blocks, these are 1 KiB: the storage and gf
        // figures are upper bounds here.
        let p_red = (N - K) as f64;
        let delta = BLOCK as f64 / 1e3 / p.get("gf.delta_into_4k_gb_s");
        let rtt = p.get("transport.submit_poll_rtt_us");
        let read = Cost {
            transport: rtt,
            storage: p.get("storage.handle_read_4k_us"),
            ..Cost::default()
        };
        let write = Cost {
            gf: p_red * delta,
            erasure: p_red * (p.get("erasure.delta_into_buf_4k_us") - 4.0 * delta).max(0.0),
            transport: (1.0 + p_red) * rtt,
            storage: p.get("storage.handle_swap_4k_us") + p_red * p.get("storage.handle_add_4k_us"),
            wal: 0.0,
        };
        (read, write)
    }
}
