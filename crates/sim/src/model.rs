//! The system model: turns protocol operations into resource-usage chains
//! and runs closed-loop clients against them (§5.2).
//!
//! Per §5.2: "Each client has multiple threads, one for each outstanding
//! RPC call; there is a processor to serve all threads. In each thread,
//! each phase of the protocol allocates the processor and the node's
//! network adapter for some time for an RPC call ... Once an RPC message is
//! placed on the network, the message incurs latency ... When an RPC call
//! arrives at the storage nodes, it allocates the receiving node's network
//! adapter ... To serve an RPC call, the storage node incurs some variable
//! latency that depends on the RPC call."

use crate::engine::{Chain, Engine, ResourceId, Step};
use crate::params::SimParams;
use ajx_core::UpdateStrategy;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// What the simulated clients do.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SimWorkload {
    /// Random single-block writes.
    Write,
    /// Random single-block reads.
    Read,
    /// Mixed with the given read percentage.
    Mixed {
        /// Percent of operations that are reads.
        read_pct: u8,
    },
}

/// A complete simulation configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Timing constants.
    pub params: SimParams,
    /// Data blocks per stripe.
    pub k: usize,
    /// Total blocks per stripe (= storage nodes).
    pub n: usize,
    /// Number of client nodes.
    pub n_clients: usize,
    /// Outstanding requests (worker threads) per client.
    pub threads_per_client: usize,
    /// Update strategy for writes.
    pub strategy: UpdateStrategy,
    /// Operation mix.
    pub workload: SimWorkload,
    /// Stripe space operations spread over (rotation spreads node load).
    pub stripes: u64,
    /// Operations per thread (closed loop).
    pub ops_per_thread: u64,
    /// RNG seed (simulation is deterministic given the seed).
    pub seed: u64,
}

impl SimConfig {
    /// A baseline configuration for the given code and client count.
    pub fn new(k: usize, n: usize, n_clients: usize) -> Self {
        SimConfig {
            params: SimParams::default(),
            k,
            n,
            n_clients,
            threads_per_client: 16,
            strategy: UpdateStrategy::Parallel,
            workload: SimWorkload::Write,
            stripes: 1024,
            ops_per_thread: 50,
            seed: 0xA17,
        }
    }
}

/// Results of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Operations completed.
    pub ops: u64,
    /// Virtual end time (µs).
    pub elapsed_us: f64,
    /// Aggregate payload throughput in MB/s.
    pub aggregate_mbps: f64,
    /// Mean operation latency (µs).
    pub mean_latency_us: f64,
    /// Maximum operation latency (µs).
    pub max_latency_us: f64,
    /// Mean client NIC utilization (0-1).
    pub client_nic_util: f64,
    /// Mean storage-node NIC utilization (0-1).
    pub node_nic_util: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    Read,
    Swap,
    /// Executing add round `r` of the current write.
    AddRound(usize),
    /// Broadcast send in flight; deliveries follow.
    BcastSend,
    BcastDeliver,
}

struct ThreadCtx {
    rng: rand::rngs::StdRng,
    client: usize,
    ops_done: u64,
    op_start: f64,
    phase: Phase,
    /// In-stripe placement of the in-flight write.
    stripe: u64,
    index: usize,
    rounds: Vec<Vec<usize>>,
    latencies_sum: f64,
    latencies_max: f64,
}

struct Resources {
    client_cpu: Vec<ResourceId>,
    client_nic: Vec<ResourceId>,
    node_cpu: Vec<ResourceId>,
    node_nic: Vec<ResourceId>,
}

/// Runs the simulation to completion and reports aggregate results.
///
/// # Panics
///
/// Panics on degenerate configurations (`k = 0`, `n <= k`, no clients,
/// no threads, no ops).
pub fn run(cfg: &SimConfig) -> SimReport {
    assert!(cfg.k >= 1 && cfg.n > cfg.k, "need 1 <= k < n");
    assert!(cfg.n_clients >= 1 && cfg.threads_per_client >= 1);
    assert!(cfg.ops_per_thread >= 1 && cfg.stripes >= 1);

    let mut engine = Engine::new();
    let res = Resources {
        client_cpu: (0..cfg.n_clients).map(|_| engine.add_resource()).collect(),
        client_nic: (0..cfg.n_clients).map(|_| engine.add_resource()).collect(),
        node_cpu: (0..cfg.n).map(|_| engine.add_resource()).collect(),
        node_nic: (0..cfg.n).map(|_| engine.add_resource()).collect(),
    };

    let total_threads = cfg.n_clients * cfg.threads_per_client;
    let mut threads: Vec<ThreadCtx> = (0..total_threads)
        .map(|t| ThreadCtx {
            rng: rand::rngs::StdRng::seed_from_u64(cfg.seed ^ (t as u64).wrapping_mul(0x9E37)),
            client: t / cfg.threads_per_client,
            ops_done: 0,
            op_start: 0.0,
            phase: Phase::Idle,
            stripe: 0,
            index: 0,
            rounds: Vec::new(),
            latencies_sum: 0.0,
            latencies_max: 0.0,
        })
        .collect();

    // Kick off every thread's first op.
    #[allow(clippy::needless_range_loop)] // t is also the token value
    for t in 0..total_threads {
        start_next_op(&mut engine, cfg, &res, &mut threads[t], t as u64, 0.0);
    }

    let mut total_ops = 0u64;
    engine.run(|engine, now, token| {
        let tid = token as usize;
        let ctx = &mut threads[tid];
        match ctx.phase {
            Phase::Idle => unreachable!("completion for an idle thread"),
            Phase::Read => {
                finish_op(engine, cfg, &res, ctx, token, now, &mut total_ops);
            }
            Phase::Swap => {
                // Swap done: launch the redundant updates (or finish if p = 0).
                if ctx.rounds.is_empty() {
                    finish_op(engine, cfg, &res, ctx, token, now, &mut total_ops);
                } else if cfg.strategy == UpdateStrategy::Broadcast {
                    ctx.phase = Phase::BcastSend;
                    let chain = bcast_send_chain(cfg, &res, ctx);
                    engine.spawn_group(vec![chain], token);
                } else {
                    ctx.phase = Phase::AddRound(0);
                    let chains = add_round_chains(cfg, &res, ctx, 0);
                    engine.spawn_group(chains, token);
                }
            }
            Phase::AddRound(r) => {
                if r + 1 < ctx.rounds.len() {
                    ctx.phase = Phase::AddRound(r + 1);
                    let chains = add_round_chains(cfg, &res, ctx, r + 1);
                    engine.spawn_group(chains, token);
                } else {
                    finish_op(engine, cfg, &res, ctx, token, now, &mut total_ops);
                }
            }
            Phase::BcastSend => {
                ctx.phase = Phase::BcastDeliver;
                let chains = bcast_delivery_chains(cfg, &res, ctx);
                engine.spawn_group(chains, token);
            }
            Phase::BcastDeliver => {
                finish_op(engine, cfg, &res, ctx, token, now, &mut total_ops);
            }
        }
    });

    let elapsed_us = engine.now();
    let payload_bytes = total_ops as f64 * cfg.params.block_size as f64;
    let lat_sum: f64 = threads.iter().map(|t| t.latencies_sum).sum();
    let lat_max = threads.iter().fold(0.0f64, |m, t| m.max(t.latencies_max));
    let client_nic_util = res
        .client_nic
        .iter()
        .map(|&r| engine.utilization_hint(r))
        .sum::<f64>()
        / cfg.n_clients as f64;
    let node_nic_util = res
        .node_nic
        .iter()
        .map(|&r| engine.utilization_hint(r))
        .sum::<f64>()
        / cfg.n as f64;

    SimReport {
        ops: total_ops,
        elapsed_us,
        aggregate_mbps: if elapsed_us > 0.0 {
            payload_bytes / elapsed_us // bytes/µs == MB/s
        } else {
            0.0
        },
        mean_latency_us: if total_ops > 0 { lat_sum / total_ops as f64 } else { 0.0 },
        max_latency_us: lat_max,
        client_nic_util,
        node_nic_util,
    }
}

fn finish_op(
    engine: &mut Engine,
    cfg: &SimConfig,
    res: &Resources,
    ctx: &mut ThreadCtx,
    token: u64,
    now: f64,
    total_ops: &mut u64,
) {
    let lat = now - ctx.op_start;
    ctx.latencies_sum += lat;
    ctx.latencies_max = ctx.latencies_max.max(lat);
    ctx.ops_done += 1;
    *total_ops += 1;
    ctx.phase = Phase::Idle;
    if ctx.ops_done < cfg.ops_per_thread {
        start_next_op(engine, cfg, res, ctx, token, now);
    }
}

fn start_next_op(
    engine: &mut Engine,
    cfg: &SimConfig,
    res: &Resources,
    ctx: &mut ThreadCtx,
    token: u64,
    now: f64,
) {
    ctx.op_start = now;
    ctx.stripe = ctx.rng.random_range(0..cfg.stripes);
    ctx.index = ctx.rng.random_range(0..cfg.k);
    let is_read = match cfg.workload {
        SimWorkload::Read => true,
        SimWorkload::Write => false,
        SimWorkload::Mixed { read_pct } => ctx.rng.random_range(0..100u8) < read_pct,
    };
    if is_read {
        ctx.phase = Phase::Read;
        engine.spawn_group(vec![read_chain(cfg, res, ctx)], token);
        return;
    }
    // A write: swap first (under Broadcast, the broadcast send and its
    // deliveries follow as phases of their own).
    ctx.rounds = cfg.strategy.rounds(cfg.k, cfg.n);
    ctx.phase = Phase::Swap;
    engine.spawn_group(vec![swap_chain(cfg, res, ctx)], token);
}

/// Node hosting in-stripe block `t` of `stripe` (the §3.11 rotation).
fn node_of(cfg: &SimConfig, stripe: u64, t: usize) -> usize {
    ((t as u64 + stripe) % cfg.n as u64) as usize
}

#[allow(clippy::too_many_arguments)] // one arg per modeled resource/cost
fn rpc_chain(
    p: &SimParams,
    client_cpu: ResourceId,
    client_nic: ResourceId,
    node_cpu: ResourceId,
    node_nic: ResourceId,
    req_bytes: f64,
    service_us: f64,
    rep_bytes: f64,
    client_cpu_us: f64,
) -> Chain {
    vec![
        Step::Use { resource: client_cpu, us: client_cpu_us },
        Step::Use { resource: client_nic, us: req_bytes / p.client_nic_bpus },
        Step::Delay { us: p.one_way_latency_us },
        Step::Use { resource: node_nic, us: req_bytes / p.node_nic_bpus },
        Step::Use { resource: node_cpu, us: p.rpc_node_cpu_us + service_us },
        Step::Use { resource: node_nic, us: rep_bytes / p.node_nic_bpus },
        Step::Delay { us: p.one_way_latency_us },
        Step::Use { resource: client_nic, us: rep_bytes / p.client_nic_bpus },
    ]
}

fn read_chain(cfg: &SimConfig, res: &Resources, ctx: &ThreadCtx) -> Chain {
    let p = &cfg.params;
    let node = node_of(cfg, ctx.stripe, ctx.index);
    rpc_chain(
        p,
        res.client_cpu[ctx.client],
        res.client_nic[ctx.client],
        res.node_cpu[node],
        res.node_nic[node],
        p.hdr_bytes(),
        p.read_service_us,
        p.block_msg_bytes(),
        p.rpc_client_cpu_us,
    )
}

fn swap_chain(cfg: &SimConfig, res: &Resources, ctx: &ThreadCtx) -> Chain {
    let p = &cfg.params;
    let node = node_of(cfg, ctx.stripe, ctx.index);
    // The swap carries the new block out and the old block back.
    rpc_chain(
        p,
        res.client_cpu[ctx.client],
        res.client_nic[ctx.client],
        res.node_cpu[node],
        res.node_nic[node],
        p.block_msg_bytes(),
        p.swap_service_us,
        p.block_msg_bytes(),
        p.rpc_client_cpu_us,
    )
}

fn add_round_chains(cfg: &SimConfig, res: &Resources, ctx: &ThreadCtx, round: usize) -> Vec<Chain> {
    let p = &cfg.params;
    ctx.rounds[round]
        .iter()
        .map(|&j| {
            let node = node_of(cfg, ctx.stripe, j);
            rpc_chain(
                p,
                res.client_cpu[ctx.client],
                res.client_nic[ctx.client],
                res.node_cpu[node],
                res.node_nic[node],
                p.block_msg_bytes(),
                p.add_cost_us,
                p.hdr_bytes(),
                // The client computes this add's delta before sending it.
                p.rpc_client_cpu_us + p.delta_cost_us,
            )
        })
        .collect()
}

fn bcast_send_chain(cfg: &SimConfig, res: &Resources, ctx: &ThreadCtx) -> Chain {
    let p = &cfg.params;
    vec![
        // One subtraction (half a Delta: no multiply) + one NIC send for
        // all p targets (§3.11: "saving client bandwidth").
        Step::Use {
            resource: res.client_cpu[ctx.client],
            us: p.rpc_client_cpu_us + p.delta_cost_us / 2.0,
        },
        Step::Use {
            resource: res.client_nic[ctx.client],
            us: p.block_msg_bytes() / p.client_nic_bpus,
        },
    ]
}

fn bcast_delivery_chains(cfg: &SimConfig, res: &Resources, ctx: &ThreadCtx) -> Vec<Chain> {
    let p = &cfg.params;
    (cfg.k..cfg.n)
        .map(|j| {
            let node = node_of(cfg, ctx.stripe, j);
            vec![
                Step::Delay { us: p.one_way_latency_us },
                Step::Use {
                    resource: res.node_nic[node],
                    us: p.block_msg_bytes() / p.node_nic_bpus,
                },
                Step::Use {
                    resource: res.node_cpu[node],
                    us: p.rpc_node_cpu_us + p.node_scale_cost_us + p.add_cost_us,
                },
                Step::Use {
                    resource: res.node_nic[node],
                    us: p.hdr_bytes() / p.node_nic_bpus,
                },
                Step::Delay { us: p.one_way_latency_us },
                Step::Use {
                    resource: res.client_nic[ctx.client],
                    us: p.hdr_bytes() / p.client_nic_bpus,
                },
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(k: usize, n: usize, clients: usize) -> SimConfig {
        let mut c = SimConfig::new(k, n, clients);
        c.ops_per_thread = 20;
        c.threads_per_client = 4;
        c
    }

    #[test]
    fn all_ops_complete() {
        let cfg = quick(3, 5, 2);
        let r = run(&cfg);
        assert_eq!(r.ops, 2 * 4 * 20);
        assert!(r.elapsed_us > 0.0);
        assert!(r.aggregate_mbps > 0.0);
        assert!(r.mean_latency_us > 0.0);
        assert!(r.max_latency_us >= r.mean_latency_us);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = quick(3, 5, 2);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn reads_are_faster_than_writes() {
        // §6.2: read throughput is ~4-5x write throughput (reads move one
        // block; writes move p+2 block-sized messages through the client).
        let mut wcfg = quick(3, 5, 1);
        wcfg.threads_per_client = 32;
        wcfg.ops_per_thread = 50;
        let mut rcfg = wcfg.clone();
        rcfg.workload = SimWorkload::Read;
        let w = run(&wcfg);
        let r = run(&rcfg);
        let ratio = r.aggregate_mbps / w.aggregate_mbps;
        assert!(
            ratio > 2.0 && ratio < 8.0,
            "read/write ratio {ratio} out of plausible range ({} vs {})",
            r.aggregate_mbps,
            w.aggregate_mbps
        );
    }

    #[test]
    fn write_latency_orders_serial_above_parallel() {
        // Theorems' latency: serial writes take 1 + p round trips versus 2.
        let mut par = quick(4, 8, 1);
        par.threads_per_client = 1; // isolate latency from queuing
        par.ops_per_thread = 50;
        let mut ser = par.clone();
        ser.strategy = UpdateStrategy::Serial;
        let l_par = run(&par).mean_latency_us;
        let l_ser = run(&ser).mean_latency_us;
        assert!(
            l_ser > 1.5 * l_par,
            "serial {l_ser} should be much slower than parallel {l_par}"
        );
    }

    #[test]
    fn broadcast_saves_client_bandwidth() {
        // Fig. 10(d): with broadcast, 1-client write throughput stays flat
        // as p grows; without it, throughput decays.
        let mut base = quick(8, 16, 1); // p = 8
        base.threads_per_client = 32;
        base.ops_per_thread = 40;
        let mut bc = base.clone();
        bc.strategy = UpdateStrategy::Broadcast;
        let plain = run(&base);
        let bcast = run(&bc);
        assert!(
            bcast.aggregate_mbps > 1.5 * plain.aggregate_mbps,
            "broadcast {} should beat unicast {} at p = 8",
            bcast.aggregate_mbps,
            plain.aggregate_mbps
        );
    }

    #[test]
    fn more_clients_more_throughput_until_node_saturation() {
        // Fig. 10(a): aggregate write throughput grows with client count.
        let r1 = run(&{
            let mut c = quick(4, 6, 1);
            c.threads_per_client = 16;
            c
        });
        let r4 = run(&{
            let mut c = quick(4, 6, 4);
            c.threads_per_client = 16;
            c
        });
        assert!(
            r4.aggregate_mbps > 1.5 * r1.aggregate_mbps,
            "4 clients {} vs 1 client {}",
            r4.aggregate_mbps,
            r1.aggregate_mbps
        );
    }

    #[test]
    fn hybrid_sits_between_serial_and_parallel() {
        let mut base = quick(8, 16, 1);
        base.threads_per_client = 1;
        base.ops_per_thread = 30;
        let mut ser = base.clone();
        ser.strategy = UpdateStrategy::Serial;
        let mut hyb = base.clone();
        hyb.strategy = UpdateStrategy::Hybrid { groups: 2 };
        let l_par = run(&base).mean_latency_us;
        let l_hyb = run(&hyb).mean_latency_us;
        let l_ser = run(&ser).mean_latency_us;
        assert!(l_par < l_hyb && l_hyb < l_ser, "{l_par} < {l_hyb} < {l_ser}");
    }

    #[test]
    #[should_panic(expected = "need 1 <= k < n")]
    fn degenerate_code_rejected() {
        let cfg = quick(5, 5, 1);
        let _ = run(&cfg);
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;

    #[test]
    fn mixed_workload_interpolates_between_read_and_write() {
        let base = {
            let mut c = SimConfig::new(3, 5, 2);
            c.threads_per_client = 8;
            c.ops_per_thread = 40;
            c
        };
        let mut w = base.clone();
        w.workload = SimWorkload::Write;
        let mut r = base.clone();
        r.workload = SimWorkload::Read;
        let mut m = base.clone();
        m.workload = SimWorkload::Mixed { read_pct: 50 };
        let tw = run(&w).aggregate_mbps;
        let tr = run(&r).aggregate_mbps;
        let tm = run(&m).aggregate_mbps;
        assert!(tw < tm && tm < tr, "write {tw} < mixed {tm} < read {tr}");
    }

    #[test]
    fn smaller_blocks_lower_throughput_but_latency_too() {
        let mut big = SimConfig::new(3, 5, 1);
        big.threads_per_client = 8;
        big.ops_per_thread = 40;
        let mut small = big.clone();
        small.params = small.params.scaled_to_block(256);
        let rb = run(&big);
        let rs = run(&small);
        assert!(rs.aggregate_mbps < rb.aggregate_mbps, "payload shrinks");
        assert!(rs.mean_latency_us < rb.mean_latency_us, "less serialization");
    }

    #[test]
    fn utilization_reports_are_sane() {
        let mut cfg = SimConfig::new(3, 5, 4);
        cfg.threads_per_client = 32;
        cfg.ops_per_thread = 30;
        let r = run(&cfg);
        assert!(r.client_nic_util > 0.5, "saturated clients: {}", r.client_nic_util);
        assert!(r.client_nic_util <= 1.0 && r.node_nic_util <= 1.0);
        assert!(r.node_nic_util > 0.0);
    }

    #[test]
    fn zero_latency_network_still_works() {
        let mut cfg = SimConfig::new(2, 4, 1);
        cfg.params.one_way_latency_us = 0.0;
        cfg.threads_per_client = 2;
        cfg.ops_per_thread = 10;
        let r = run(&cfg);
        assert_eq!(r.ops, 20);
        assert!(r.mean_latency_us > 0.0, "nic + cpu still cost time");
    }
}
