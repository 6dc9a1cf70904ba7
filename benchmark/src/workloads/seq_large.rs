//! `seq_large`: 3 MiB sequential writes and reads on RS 12-of-16 with
//! 64 KiB blocks — bytes dominate round trips. One `write_blocks` of 48
//! blocks, then `read_blocks` of the same run, sweeping a 144 MiB volume.
//! The same layers as `small_rw` used the opposite way (few large
//! messages), with writes beside reads so that a copy removed on one side
//! at the other's cost shows.

use super::{load, quiet_cluster, verify_volume, Cost, Counters, Workload};
use crate::metrics::Metrics;
use crate::record::{Recorder, Side};
use crate::util::fill_block;
use ajx_cluster::Cluster;
use ajx_core::{ProtocolConfig, ProtocolError};
use ajx_storage::{FlushPolicy, PersistMode};

const K: usize = 12;
const N: usize = 16;
const BLOCK: usize = 64 * 1024;
/// Blocks per call: four stripes, 3 MiB.
const RUN: u64 = 48;
/// 144 MiB of user data: larger than any cache.
const BLOCKS: u64 = 2304;
/// Runs between garbage collections: 768 block writes, near the 1024 of
/// the single-block workloads.
const GC_EVERY_RUNS: u64 = 16;
/// One sweep of the volume per slice, three garbage collections.
const RUNS_PER_SLICE: u64 = BLOCKS / RUN;

pub struct SeqLarge;

pub struct State {
    cluster: Cluster,
    seed: u64,
    next_run: u64,
    version: Vec<u32>,
    bufs: Vec<Vec<u8>>,
    at_start: Counters,
}

fn write_run(cluster: &Cluster, bufs: &[Vec<u8>], first: u64) -> Result<(), ProtocolError> {
    let writes: Vec<(u64, &[u8])> = (first..).zip(bufs.iter().map(Vec::as_slice)).collect();
    cluster.client(0).write_blocks(&writes)
}

impl Workload for SeqLarge {
    type State = State;

    fn block_bytes(&self) -> usize {
        BLOCK
    }

    fn setup(&self, seed: u64) -> State {
        let cfg = ProtocolConfig::new(K, N, BLOCK).expect("12-of-16 is a valid code");
        let cluster = quiet_cluster(cfg, PersistMode::InMemory, FlushPolicy::WriteThrough);
        load(&cluster, seed, BLOCKS, RUN);
        State {
            at_start: Counters::read(&cluster),
            cluster,
            seed,
            next_run: 0,
            version: vec![0; BLOCKS as usize],
            bufs: vec![vec![0u8; BLOCK]; RUN as usize],
        }
    }

    fn slice(&self, st: &mut State, rec: &mut Recorder) {
        let client = st.cluster.client(0);
        let net = Some(client.endpoint().stats());
        for run in 1..=RUNS_PER_SLICE {
            let first = st.next_run % (BLOCKS / RUN) * RUN;
            st.next_run += 1;
            rec.note(first ^ st.seed.rotate_left(32)); // the seed decides the bytes written
            let lbs: Vec<u64> = (first..first + RUN).collect();
            for (buf, &lb) in st.bufs.iter_mut().zip(&lbs) {
                st.version[lb as usize] += 1;
                fill_block(buf, st.seed, lb, st.version[lb as usize]);
            }
            let done = rec.time(Side::Write, "write_blocks", RUN, net, || {
                write_run(&st.cluster, &st.bufs, first)
            });
            let got = rec.time(Side::Read, "read_blocks", RUN, net, || {
                client.read_blocks(&lbs)
            });
            rec.check(done.is_ok());
            // What was just written is in `bufs`, block for block.
            rec.check(got.is_ok_and(|blocks| blocks == st.bufs));
            if run % GC_EVERY_RUNS == 0 {
                let gc = rec.time(Side::Other, "collect_garbage", 0, net, || {
                    client.collect_garbage()
                });
                rec.check(gc.is_ok());
            }
        }
    }

    fn finish(&self, st: State, rec: &mut Recorder) -> Metrics {
        let m = st.at_start.metrics_since(&st.cluster, &rec.total());
        verify_volume(
            &st.cluster,
            st.seed,
            BLOCKS,
            RUN,
            |lb| st.version[lb as usize],
            rec,
        );
        m
    }

    fn model(&self, p: &Metrics, counters: &Metrics) -> (Cost, Cost) {
        let p_red = (N - K) as f64;
        let delta_64k = BLOCK as f64 / 1e3 / p.get("gf.delta_into_64k_gb_s");
        let delta_4k = 4096.0 / 1e3 / p.get("gf.delta_into_4k_gb_s");
        // A call fans out to all 16 nodes at once: a message costs a
        // sixteenth of a null 16-way fan-out.
        let per_msg = p.get("transport.call_many16_us") / N as f64;
        let read = Cost {
            transport: counters.get("transport.read_round_trips_per_op") * per_msg,
            storage: p.get("storage.handle_read_64k_us"),
            ..Cost::default()
        };
        let write = Cost {
            gf: p_red * delta_64k,
            // What `delta_into_buf` adds to the kernel does not grow with
            // the block: take it from the 4 KiB pair of probes.
            erasure: p_red * (p.get("erasure.delta_into_buf_4k_us") - delta_4k).max(0.0),
            transport: counters.get("transport.write_round_trips_per_op") * per_msg,
            // Each redundant node applies the run's 48 adds as one batch.
            storage: p.get("storage.handle_swap_64k_us")
                + p_red * p.get("storage.handle_batch48_add_64k_us") / RUN as f64,
            wal: 0.0,
        };
        (read, write)
    }
}
