//! `small_rw` and `durable_write`: single 4 KiB blocks read and written at
//! random on RS 4-of-8, half reads, half writes — the paper's common case.
//! `durable_write` is the same operation sequence with every node
//! journaling, so the difference between the two is the WAL.
//!
//! The journal runs under `FlushPolicy::Deferred` and the benchmark flushes
//! every node between slices, outside the timed calls: the timed path is
//! the journal's software path (encode, CRC, append) and repeats. Under
//! write-through every swap and add waits for an fsync of the checkout's
//! disk, and on this VM that swung the write median from 618 to 870 µs over
//! six runs — wider than any bound a metric may have. What the device costs
//! is the `wal.commit_us` probe, which gates nothing.

use super::{load, quiet_cluster, verify_volume, Cost, Counters, Workload, GC_EVERY};
use crate::metrics::Metrics;
use crate::record::{Recorder, Side};
use crate::util::{fill_block, XorShift};
use ajx_cluster::Cluster;
use ajx_core::ProtocolConfig;
use ajx_storage::{FlushPolicy, NodeId, PersistMode};
use std::path::PathBuf;
use std::time::Instant;

const K: usize = 4;
const N: usize = 8;
const BLOCK: usize = 4096;
/// Blocks loaded by one `write_blocks` call during set-up.
const LOAD_RUN: u64 = 256;

pub struct BlockRw {
    /// Journal directory (inside the checkout) for `durable_write`.
    pub wal_dir: Option<PathBuf>,
    /// Preloaded user blocks: 64 MiB for `small_rw`.
    pub blocks: u64,
    /// A slice ends with its `gcs_per_slice`-th garbage collection, so
    /// every slice holds the same number of writes and of collections
    /// (and, the mix being even, about as many reads).
    pub gcs_per_slice: u32,
}

pub struct State {
    cluster: Cluster,
    seed: u64,
    rng: XorShift,
    /// Shadow copy: how often each block has been written.
    version: Vec<u32>,
    writes_since_gc: u32,
    value: Vec<u8>,
    expected: Vec<u8>,
    at_start: Counters,
}

impl BlockRw {
    fn stripes(&self) -> u64 {
        self.blocks / K as u64
    }
}

impl Workload for BlockRw {
    type State = State;

    fn block_bytes(&self) -> usize {
        BLOCK
    }

    fn setup(&self, seed: u64) -> State {
        let (persist, flush_policy) = match &self.wal_dir {
            Some(dir) => {
                // A set-up starts from an empty disk.
                std::fs::remove_dir_all(dir).ok();
                (PersistMode::Wal { dir: dir.clone() }, FlushPolicy::Deferred)
            }
            None => (PersistMode::InMemory, FlushPolicy::WriteThrough),
        };
        let cfg = ProtocolConfig::new(K, N, BLOCK).expect("4-of-8 is a valid code");
        let cluster = quiet_cluster(cfg, persist, flush_policy);
        load(&cluster, seed, self.blocks, LOAD_RUN);
        cluster.flush_all_nodes();
        State {
            at_start: Counters::read(&cluster),
            cluster,
            seed,
            rng: XorShift::new(seed),
            version: vec![0; self.blocks as usize],
            writes_since_gc: 0,
            value: vec![0; BLOCK],
            expected: vec![0; BLOCK],
        }
    }

    fn slice(&self, st: &mut State, rec: &mut Recorder) {
        let client = st.cluster.client(0);
        let net = Some(client.endpoint().stats());
        let mut gcs = 0;
        while gcs < self.gcs_per_slice {
            let lb = st.rng.below(self.blocks);
            let version = &mut st.version[lb as usize];
            let read = st.rng.below(2) == 0;
            rec.note(lb << 1 | u64::from(read));
            if read {
                let got = rec.time(Side::Read, "read_block", 1, net, || client.read_block(lb));
                fill_block(&mut st.expected, st.seed, lb, *version);
                rec.check(got.is_ok_and(|v| v == st.expected));
            } else {
                fill_block(&mut st.value, st.seed, lb, *version + 1);
                let done = rec.time(Side::Write, "write_block", 1, net, || {
                    client.write_block_from(lb, &st.value)
                });
                rec.check(done.is_ok());
                *version += 1;
                st.writes_since_gc += 1;
                if st.writes_since_gc == GC_EVERY {
                    st.writes_since_gc = 0;
                    gcs += 1;
                    let gc = rec.time(Side::Other, "collect_garbage", 0, net, || {
                        client.collect_garbage()
                    });
                    rec.check(gc.is_ok());
                }
            }
        }
        if self.wal_dir.is_some() {
            let start = Instant::now();
            st.cluster.flush_all_nodes();
            rec.span(
                "flush_all_nodes",
                start,
                Instant::now(),
                rec.slices.len() as u64,
            );
        }
    }

    fn finish(&self, st: State, rec: &mut Recorder) -> Metrics {
        let mut m = st.at_start.metrics_since(&st.cluster, &rec.total());

        let client = st.cluster.client(0);
        if self.wal_dir.is_some() {
            // Restart is a client-visible operation with its own budget:
            // crash, replay the journal, and let the rebuild engine verify
            // that nothing needs rebuilding.
            let victim = NodeId(0);
            let journal = st.cluster.network().persist_stats(victim).durable_bytes;
            st.cluster.crash_storage_node(victim);
            let start = Instant::now();
            let replayed = st.cluster.restart_storage_node_with_disk(victim);
            let replay_s = start.elapsed().as_secs_f64();
            let report = client.rebuild_node(victim, self.stripes());
            let end = Instant::now();
            rec.span("restart", start, end, 0);
            rec.verify(replayed && report.is_ok_and(|r| r.skipped as u64 == self.stripes()));
            m.set("wal.restart_s", end.duration_since(start).as_secs_f64());
            m.set("wal.replay_mb_per_s", journal as f64 / 1e6 / replay_s);
        }

        verify_volume(
            &st.cluster,
            st.seed,
            self.blocks,
            LOAD_RUN,
            |lb| st.version[lb as usize],
            rec,
        );
        drop(st.cluster);
        if let Some(dir) = &self.wal_dir {
            std::fs::remove_dir_all(dir).ok();
        }
        m
    }

    fn model(&self, p: &Metrics, _counters: &Metrics) -> (Cost, Cost) {
        let p_red = (N - K) as f64;
        let delta = BLOCK as f64 / 1e3 / p.get("gf.delta_into_4k_gb_s"); // µs per 4 KiB
        let read = Cost {
            transport: p.get("transport.call_rtt_us"),
            storage: p.get("storage.handle_read_4k_us"),
            ..Cost::default()
        };
        let write = Cost {
            gf: p_red * delta,
            erasure: p_red * (p.get("erasure.delta_into_buf_4k_us") - delta).max(0.0),
            // One swap round trip, then the adds as one fan-out of n - k.
            transport: p.get("transport.call_rtt_us") + p.get("transport.call_many4_us"),
            storage: p.get("storage.handle_swap_4k_us") + p_red * p.get("storage.handle_add_4k_us"),
            // The swap and each add are journaled on their node; the
            // commits happen between slices.
            wal: if self.wal_dir.is_some() {
                (1.0 + p_red) * p.get("wal.append_4k_us")
            } else {
                0.0
            },
        };
        (read, write)
    }
}
