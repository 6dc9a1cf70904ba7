//! `degraded_rebuild`: node loss on LRC(12,3,1) with 16 KiB blocks, 512
//! stripes. A cycle crashes and remaps one node (node `cycle mod 16`),
//! reads every data block that lived on it — the lock-free degraded path —
//! and then rebuilds it with `rebuild_node`. The only workload where the
//! plan cache, repair plans, the decode kernels, the `GetMeta`/`GetState`
//! fan-out and the rebuild engine do the work.
//!
//! Read side: one degraded `read_block`. Write side: `rebuild_node`, per
//! block it restores (every stripe has one block on the lost node).

use super::{load, quiet_cluster, verify_volume, Cost, Counters, Workload};
use crate::metrics::Metrics;
use crate::record::{Recorder, Side};
use crate::util::fill_block;
use ajx_cluster::Cluster;
use ajx_core::ProtocolConfig;
use ajx_storage::{FlushPolicy, NodeId, PersistMode, StripeId};

const K: usize = 12;
const GROUPS: usize = 3;
const GLOBALS: usize = 1;
const N: usize = K + GROUPS + GLOBALS;
const BLOCK: usize = 16 * 1024;
const STRIPES: u64 = 512;
const BLOCKS: u64 = STRIPES * K as u64;
const LOAD_RUN: u64 = 96;
const CYCLES_PER_SLICE: u64 = 8;

pub struct DegradedRebuild;

pub struct State {
    cluster: Cluster,
    seed: u64,
    cycle: u64,
    expected: Vec<u8>,
    at_start: Counters,
    repair_bytes: u64,
    rebuild_round_trips: u64,
    lost_blocks: u64,
    /// Lock requests the nodes handled while degraded reads ran: must
    /// stay 0.
    degraded_lock_ops: u64,
}

impl State {
    fn all_stripes_consistent(&self) -> bool {
        (0..STRIPES).all(|s| self.cluster.stripe_is_consistent(StripeId(s)))
    }
}

impl Workload for DegradedRebuild {
    type State = State;

    fn block_bytes(&self) -> usize {
        BLOCK
    }

    fn setup(&self, seed: u64) -> State {
        let cfg = ProtocolConfig::new_lrc(K, GROUPS, GLOBALS, BLOCK)
            .expect("LRC(12,3,1) is a valid code");
        let cluster = quiet_cluster(cfg, PersistMode::InMemory, FlushPolicy::WriteThrough);
        load(&cluster, seed, BLOCKS, LOAD_RUN);
        State {
            at_start: Counters::read(&cluster),
            cluster,
            seed,
            cycle: 0,
            expected: vec![0; BLOCK],
            repair_bytes: 0,
            rebuild_round_trips: 0,
            lost_blocks: 0,
            degraded_lock_ops: 0,
        }
    }

    fn slice(&self, st: &mut State, rec: &mut Recorder) {
        let client = st.cluster.client(0);
        let net = Some(client.endpoint().stats());
        for _ in 0..CYCLES_PER_SLICE {
            let victim = (st.cycle % N as u64) as usize;
            rec.note(victim as u64 ^ st.seed.rotate_left(32)); // the seed decides the bytes stored
            st.cluster.crash_storage_node(NodeId(victim as u32));
            st.cluster.remap_storage_node(NodeId(victim as u32));

            let locks_before = st.cluster.total_lock_ops();
            for lb in st
                .cluster
                .config()
                .layout
                .data_blocks_on_node(victim, STRIPES)
            {
                let got = rec.time(Side::Read, "degraded_read_block", 1, net, || {
                    client.read_block(lb)
                });
                fill_block(&mut st.expected, st.seed, lb, 0);
                rec.check(got.is_ok_and(|v| v == st.expected));
            }
            st.degraded_lock_ops += st.cluster.total_lock_ops() - locks_before;

            let report = rec.time(Side::Write, "rebuild_node", STRIPES, net, || {
                client.rebuild_node(NodeId(victim as u32), STRIPES)
            });
            match report {
                Ok(r) => {
                    rec.check(r.rebuilt + r.recovered == STRIPES as usize);
                    st.repair_bytes += r.repair_bytes;
                    st.rebuild_round_trips += r.round_trips;
                    st.lost_blocks += (r.rebuilt + r.recovered) as u64;
                }
                Err(_) => rec.check(false),
            }
            if st.cycle == 0 {
                rec.verify(st.all_stripes_consistent());
            }
            st.cycle += 1;
        }
    }

    fn finish(&self, st: State, rec: &mut Recorder) -> Metrics {
        let mut m = st.at_start.metrics_since(&st.cluster, &rec.total());
        // Across the degraded reads only; rebuilds lock by design.
        m.set("storage.lock_ops", st.degraded_lock_ops as f64);
        let lost = st.lost_blocks.max(1) as f64;
        m.set(
            "core.repair_bytes_per_lost_block",
            st.repair_bytes as f64 / lost,
        );
        m.set(
            "core.rebuild_round_trips_per_lost_block",
            st.rebuild_round_trips as f64 / lost,
        );
        // Lost-block MB restored per second of rebuild; bytes/µs is MB/s.
        m.set("core.rebuild_mb_per_s", BLOCK as f64 / rec.write_p50_us());
        m.set(
            "erasure.plan_cache_entries",
            st.cluster.config().plan_cache.len() as f64,
        );

        verify_volume(&st.cluster, st.seed, BLOCKS, LOAD_RUN, |_| 0, rec);
        m
    }

    fn model(&self, p: &Metrics, counters: &Metrics) -> (Cost, Cost) {
        // A single loss in a local group of four repairs from the group's
        // other three data blocks and its local parity.
        let shares = (K / GROUPS) as f64;
        let kernel = shares * BLOCK as f64 / 1e3 / p.get("gf.mul_add_assign_16k_gb_s");
        let repair = Cost {
            gf: kernel,
            erasure: (p.get("erasure.repair_reconstruct_16k_us") - kernel).max(0.0)
                + p.get("erasure.plan_cache_hit_us"),
            storage: shares * p.get("storage.handle_getstate_16k_us"),
            ..Cost::default()
        };
        let per_msg = p.get("transport.call_many16_us") / N as f64;
        let read = Cost {
            // The read that finds the node empty, then one fan-out to the
            // peers (block from the repair set, metadata from the rest).
            transport: p.get("transport.call_rtt_us") + p.get("transport.call_many16_us"),
            ..repair
        };
        let write = Cost {
            transport: counters.get("core.rebuild_round_trips_per_lost_block") * per_msg,
            storage: repair.storage + p.get("storage.handle_reconstruct_16k_us"),
            ..repair
        };
        (read, write)
    }
}
