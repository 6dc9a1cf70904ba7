//! `codec`: the erasure library alone, no cluster — the paper's Fig. 8(a)
//! view, and the one workload where `gf` does nearly all the work and
//! `core`, `transport` and `storage` none. Three 12-of-16 codes at 64 KiB:
//! Reed-Solomon over GF(2^8), wide Reed-Solomon over GF(2^16) (the only
//! path to that field in the benchmark) and LRC(12,3,1), cycling over
//! 96 MiB of stripes, more than the last-level cache.
//!
//! Write side: RS `encode_into`. Read side: RS `plan_decode` plus
//! `decode_into` with four data blocks erased. The wide and LRC calls count
//! towards `ops_per_s` only.

use super::{Cost, Workload};
use crate::metrics::Metrics;
use crate::record::{Recorder, Side};
use crate::util::{views, XorShift};
use ajx_erasure::{CodeFamily, ReedSolomon, WideReedSolomon};

const K: usize = 12;
const N: usize = 16;
const BLOCK: usize = 64 * 1024;
const STRIPES: usize = 128;
const ERASED: usize = N - K;
/// Four sweeps of the buffer set.
const STRIPES_PER_SLICE: usize = 4 * STRIPES;

pub struct Codec;

pub struct State {
    rng: XorShift,
    rs: ReedSolomon,
    wide: WideReedSolomon,
    lrc: CodeFamily,
    /// `STRIPES` × `K` data blocks.
    data: Vec<Vec<Vec<u8>>>,
    parity: Vec<Vec<u8>>,
    out: Vec<Vec<u8>>,
    next: usize,
}

/// `K` survivors of a stripe whose data blocks `erased` are lost: the
/// other data blocks, then all parity.
fn survivors(erased: &[usize]) -> Vec<usize> {
    (0..N).filter(|i| !erased.contains(i)).collect()
}

/// The blocks of a stripe at `indices`: data blocks first, then parity.
fn shares<'a>(
    indices: impl Iterator<Item = usize>,
    data: &'a [Vec<u8>],
    parity: &'a [Vec<u8>],
) -> Vec<&'a [u8]> {
    indices
        .map(|i| {
            if i < K {
                &data[i][..]
            } else {
                &parity[i - K][..]
            }
        })
        .collect()
}

impl Workload for Codec {
    type State = State;

    fn block_bytes(&self) -> usize {
        BLOCK
    }

    fn setup(&self, seed: u64) -> State {
        let mut rng = XorShift::new(seed);
        let data = (0..STRIPES)
            .map(|_| {
                (0..K)
                    .map(|_| {
                        let mut block = vec![0u8; BLOCK];
                        rng.fill(&mut block);
                        block
                    })
                    .collect()
            })
            .collect();
        State {
            rng,
            rs: ReedSolomon::new(K, N).expect("12-of-16 is a valid code"),
            wide: WideReedSolomon::new(K, N).expect("12-of-16 is a valid wide code"),
            lrc: CodeFamily::lrc(K, 3, 1).expect("LRC(12,3,1) is a valid code"),
            data,
            parity: vec![vec![0; BLOCK]; N - K],
            out: vec![vec![0; BLOCK]; K],
            next: 0,
        }
    }

    fn slice(&self, st: &mut State, rec: &mut Recorder) {
        for _ in 0..STRIPES_PER_SLICE {
            let data = &st.data[st.next % STRIPES];
            st.next += 1;
            // Four distinct data blocks to lose.
            let mut erased: Vec<usize> = Vec::with_capacity(ERASED);
            while erased.len() < ERASED {
                let i = st.rng.below(K as u64) as usize;
                if !erased.contains(&i) {
                    erased.push(i);
                }
            }
            erased.iter().for_each(|&i| rec.note(i as u64));
            let alive = survivors(&erased);
            let recovered = |out: &[Vec<u8>]| erased.iter().all(|&i| out[i] == data[i]);
            let k = K as u64;

            // Reed-Solomon over GF(2^8): the two sides.
            let done = rec.time(Side::Write, "rs_encode_into", k, None, || {
                st.rs.encode_into(data, &mut views(&mut st.parity))
            });
            rec.check(done.is_ok());
            let done = rec.time(Side::Read, "rs_plan_decode_into", k, None, || {
                let plan = st.rs.plan_decode(&alive)?;
                let shares = shares(alive.iter().copied(), data, &st.parity);
                plan.decode_into(&shares, &mut views(&mut st.out))
            });
            rec.check(done.is_ok() && recovered(&st.out));

            // Wide Reed-Solomon over GF(2^16).
            let done = rec.time(Side::Mixed, "wide_encode_into", k, None, || {
                st.wide.encode_into(data, &mut views(&mut st.parity))
            });
            rec.check(done.is_ok());
            let done = rec.time(Side::Mixed, "wide_plan_decode_into", k, None, || {
                let plan = st.wide.plan_decode(&alive)?;
                let shares = shares(alive.iter().copied(), data, &st.parity);
                plan.decode_into(&shares, &mut views(&mut st.out))
            });
            rec.check(done.is_ok() && recovered(&st.out));

            // LRC: encode, then repair one lost block from its group.
            let done = rec.time(Side::Mixed, "lrc_encode_into", k, None, || {
                st.lrc.encode_into(data, &mut views(&mut st.parity))
            });
            rec.check(done.is_ok());
            let lost = erased[0];
            let available = survivors(&[lost]);
            let repaired = rec.time(Side::Mixed, "lrc_repair", 1, None, || {
                let plan = st.lrc.repair_plan(lost, &available)?;
                let shares = shares(plan.indices(), data, &st.parity);
                plan.reconstruct_into(&shares, &mut st.out[lost]).ok()
            });
            rec.check(repaired.is_some() && st.out[lost] == data[lost]);
        }
    }

    fn finish(&self, _st: State, _rec: &mut Recorder) -> Metrics {
        Metrics::default()
    }

    fn model(&self, p: &Metrics, _counters: &Metrics) -> (Cost, Cost) {
        // Encode passes each of the twelve source blocks through four rows:
        // 48 row passes. With four data blocks lost, decode passes the
        // eight surviving data blocks through five rows each (their own and
        // the four lost ones) and the four parity blocks through four: 56.
        let four_rows = BLOCK as f64 / 1e3 / p.get("gf.mul_add_multi_64k_gb_s");
        let k = K as f64;
        let read_gf = four_rows * 56.0 / 48.0;
        let read = Cost {
            gf: read_gf,
            erasure: ((p.get("erasure.decode_rs_64k_us") + p.get("erasure.plan_decode_miss_us"))
                / k
                - read_gf)
                .max(0.0),
            ..Cost::default()
        };
        let write = Cost {
            gf: four_rows,
            erasure: (p.get("erasure.encode_rs_64k_us") / k - four_rows).max(0.0),
            ..Cost::default()
        };
        (read, write)
    }
}
