//! Closed-loop throughput of the Fig. 1 protocols — an *extension* of the
//! paper's Fig. 1: the table compares per-operation costs; this module runs
//! the message patterns under load so the throughput consequences ("FAB and
//! GWGR ... perform poorly for random I/O, especially with
//! highly-efficient erasure codes") become measurable curves.
//!
//! Every protocol runs through the one §5.2 model, `ajx_sim::closed_loop`:
//! the same resources, RPC chain, operation draws and report. The AJX rows
//! are `ajx_sim::run` under each row's own update strategy; this module
//! adds only FAB's and GWGR's phases (single user-visible block):
//!
//! * **FAB** — a write is two rounds to *all n* nodes, each carrying the
//!   write's data; one round-1 reply returns the old version. A read
//!   queries `k` nodes, and the one holding the block returns it.
//! * **GWGR** — whole-stripe granularity: a write first reads all `n`
//!   fragments, then writes all `n` back in a two-round commit. A read
//!   fetches all `n` fragments.

use crate::Protocol;
use ajx_core::UpdateStrategy;
use ajx_sim::{closed_loop, run, Chain, Model, Op, SimConfig, SimReport};

/// Runs `proto` through `cfg`'s closed loop; deterministic for a given
/// config. An AJX row runs under its own update strategy, whatever
/// `cfg.strategy` says; FAB and GWGR ignore it.
///
/// # Panics
///
/// Panics on degenerate configurations (see [`ajx_sim::closed_loop`]).
pub fn run_baseline(proto: Protocol, cfg: &SimConfig) -> SimReport {
    let ajx = |strategy| run(&SimConfig { strategy, ..cfg.clone() });
    match proto {
        Protocol::AjxPar => ajx(UpdateStrategy::Parallel),
        Protocol::AjxBcast => ajx(UpdateStrategy::Broadcast),
        Protocol::AjxSer => ajx(UpdateStrategy::Serial),
        Protocol::Fab => closed_loop(cfg, |m, op| fab_phases(cfg, m, op)),
        Protocol::Gwgr => closed_loop(cfg, |m, op| gwgr_phases(cfg, m, op)),
    }
}

fn fab_phases(cfg: &SimConfig, m: &Model, op: &Op) -> Vec<Vec<Chain>> {
    let p = &cfg.params;
    let (blk, hdr, cpu) = (p.block_msg_bytes(), p.hdr_bytes(), p.rpc_client_cpu_us);
    if op.read {
        let rep = |t| if t == op.index { blk } else { hdr };
        let query = |t| m.rpc(op, t, hdr, p.read_service_us, rep(t), cpu);
        return vec![(0..cfg.k).map(query).collect()];
    }
    // Round one brings the old version back from one node.
    let round = |old: bool| {
        let rep = |t| if old && t == 0 { blk } else { hdr };
        (0..cfg.n).map(|t| m.rpc(op, t, blk, p.swap_service_us, rep(t), cpu)).collect()
    };
    vec![round(true), round(false)]
}

fn gwgr_phases(cfg: &SimConfig, m: &Model, op: &Op) -> Vec<Vec<Chain>> {
    let p = &cfg.params;
    let (blk, hdr, cpu) = (p.block_msg_bytes(), p.hdr_bytes(), p.rpc_client_cpu_us);
    let round = |req, service, rep| -> Vec<Chain> {
        (0..cfg.n).map(|t| m.rpc(op, t, req, service, rep, cpu)).collect()
    };
    let read_all = round(hdr, p.read_service_us, blk);
    if op.read {
        return vec![read_all];
    }
    // The client re-encodes the stripe (k Delta-sized units) before its
    // first write goes out.
    let mut write_all = round(blk, p.swap_service_us, hdr);
    let encode_us = cpu + p.delta_cost_us * cfg.k as f64;
    write_all[0] = m.rpc(op, 0, blk, p.swap_service_us, hdr, encode_us);
    vec![read_all, write_all, round(hdr, p.read_service_us, hdr)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(proto: Protocol, k: usize, n: usize) -> SimReport {
        let cfg = SimConfig {
            threads_per_client: 8,
            ops_per_thread: 20,
            seed: 0xFAB,
            ..SimConfig::new(k, n, 4)
        };
        run_baseline(proto, &cfg)
    }

    #[test]
    fn all_protocols_complete_their_ops() {
        for proto in Protocol::ALL {
            let r = quick(proto, 4, 6);
            assert_eq!(r.ops, 4 * 8 * 20, "{proto:?}");
            assert!(r.aggregate_mbps > 0.0);
            assert!(r.mean_latency_us > 0.0);
        }
    }

    #[test]
    fn determinism() {
        let a = quick(Protocol::Fab, 3, 5);
        let b = quick(Protocol::Fab, 3, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn ajx_beats_fab_and_gwgr_on_random_writes() {
        // The paper's core comparison: random single-block writes on a
        // highly-efficient code (large k, small p).
        let ajx = quick(Protocol::AjxPar, 8, 10);
        let fab = quick(Protocol::Fab, 8, 10);
        let gwgr = quick(Protocol::Gwgr, 8, 10);
        assert!(
            ajx.aggregate_mbps > 2.0 * fab.aggregate_mbps,
            "AJX {} vs FAB {}",
            ajx.aggregate_mbps,
            fab.aggregate_mbps
        );
        assert!(
            ajx.aggregate_mbps > 2.0 * gwgr.aggregate_mbps,
            "AJX {} vs GWGR {}",
            ajx.aggregate_mbps,
            gwgr.aggregate_mbps
        );
    }

    #[test]
    fn fab_degrades_with_k_but_ajx_does_not() {
        // At fixed p = 2, growing k leaves AJX's write cost constant while
        // FAB's grows with n = k + 2.
        let ajx_small = quick(Protocol::AjxPar, 2, 4);
        let ajx_large = quick(Protocol::AjxPar, 16, 18);
        let fab_small = quick(Protocol::Fab, 2, 4);
        let fab_large = quick(Protocol::Fab, 16, 18);
        let ajx_ratio = ajx_large.aggregate_mbps / ajx_small.aggregate_mbps;
        let fab_ratio = fab_large.aggregate_mbps / fab_small.aggregate_mbps;
        assert!(ajx_ratio > 0.8, "AJX roughly flat in k: {ajx_ratio}");
        assert!(fab_ratio < 0.6, "FAB collapses with k: {fab_ratio}");
    }
}
