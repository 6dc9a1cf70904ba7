//! The weighted sum allocates nothing: once a code and its plans exist,
//! `encode_into`, `decode_into` and `RepairPlan::reconstruct_into` make no
//! heap allocation at all, on either field. Their docs promise it, and the
//! kernel keeps its coefficient tables and row groups in stack arrays for
//! that reason; a per-call `Vec` anywhere below them shows up here.
//!
//! One test per file: the count is process-wide (`support/block_allocs.rs`),
//! and a threshold of one byte counts every allocation.

#[path = "support/block_allocs.rs"]
mod block_allocs;

use ajx_erasure::{CodeFamily, ReedSolomon, WideReedSolomon};
use block_allocs::{blocks_allocated, CountingAlloc};

const K: usize = 12;
const N: usize = 16;
const BLOCK: usize = 64 * 1024;
/// Four data blocks lost, as in the benchmark's `codec` decode.
const LOST: [usize; 4] = [0, 3, 5, 9];

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn views(blocks: &mut [Vec<u8>]) -> Vec<&mut [u8]> {
    blocks.iter_mut().map(Vec::as_mut_slice).collect()
}

#[test]
fn steady_state_encode_decode_and_repair_allocate_nothing() {
    let data: Vec<Vec<u8>> = (0..K)
        .map(|b| (0..BLOCK).map(|i| (i * 31 + b * 7 + 1) as u8).collect())
        .collect();
    let alive: Vec<usize> = (0..N).filter(|i| !LOST.contains(i)).collect();

    let rs = ReedSolomon::new(K, N).unwrap();
    let wide = WideReedSolomon::new(K, N).unwrap();
    let lrc = CodeFamily::lrc(K, 3, 1).unwrap();
    let mut parity = vec![vec![0u8; BLOCK]; N - K];
    let mut wide_parity = vec![vec![0u8; BLOCK]; N - K];
    let mut lrc_parity = vec![vec![0u8; BLOCK]; N - K];
    // Plans are built once and reused across stripes; building one
    // allocates, applying it must not.
    rs.encode_into(&data, &mut views(&mut parity)).unwrap();
    wide.encode_into(&data, &mut views(&mut wide_parity)).unwrap();
    lrc.encode_into(&data, &mut views(&mut lrc_parity)).unwrap();
    let plan = rs.plan_decode(&alive).unwrap();
    let wide_plan = wide.plan_decode(&alive).unwrap();
    let repair = lrc
        .repair_plan(LOST[0], &(1..N).collect::<Vec<_>>())
        .unwrap();
    let block = |stripe_parity: &[Vec<u8>], i: usize| -> Vec<u8> {
        if i < K {
            data[i].clone()
        } else {
            stripe_parity[i - K].clone()
        }
    };
    let shares: Vec<Vec<u8>> = alive.iter().map(|&i| block(&parity, i)).collect();
    let wide_shares: Vec<Vec<u8>> = alive.iter().map(|&i| block(&wide_parity, i)).collect();
    let repair_shares: Vec<Vec<u8>> = repair.indices().map(|i| block(&lrc_parity, i)).collect();
    let shares: Vec<&[u8]> = shares.iter().map(Vec::as_slice).collect();
    let wide_shares: Vec<&[u8]> = wide_shares.iter().map(Vec::as_slice).collect();
    let repair_shares: Vec<&[u8]> = repair_shares.iter().map(Vec::as_slice).collect();

    let mut out = vec![vec![0u8; BLOCK]; K];
    let mut wide_out = vec![vec![0u8; BLOCK]; K];
    let mut repaired = vec![0u8; BLOCK];
    let mut parity_views = views(&mut parity);
    let mut wide_parity_views = views(&mut wide_parity);
    let mut out_views = views(&mut out);
    let mut wide_out_views = views(&mut wide_out);

    let (done, bytes) = blocks_allocated(1, || -> Result<(), ajx_erasure::CodeError> {
        for _ in 0..4 {
            rs.encode_into(&data, &mut parity_views)?;
            plan.decode_into(&shares, &mut out_views)?;
            wide.encode_into(&data, &mut wide_parity_views)?;
            wide_plan.decode_into(&wide_shares, &mut wide_out_views)?;
            repair.reconstruct_into(&repair_shares, &mut repaired)?;
        }
        Ok(())
    });
    done.unwrap();
    drop((parity_views, wide_parity_views, out_views, wide_out_views));

    println!("bytes allocated by steady-state encode, decode and repair: {bytes}");
    assert_eq!(bytes, 0.0, "the weighted sum allocated {bytes} bytes");
    assert_eq!(out, data);
    assert_eq!(wide_out, data);
    assert_eq!(repaired, data[LOST[0]]);
}
