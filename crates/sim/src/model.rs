//! The system model (§5.2): one closed loop of client threads over one set
//! of resources, and AJX's operations as phases of it.
//!
//! Per §5.2: "Each client has multiple threads, one for each outstanding
//! RPC call; there is a processor to serve all threads. In each thread,
//! each phase of the protocol allocates the processor and the node's
//! network adapter for some time for an RPC call ... Once an RPC message is
//! placed on the network, the message incurs latency ... When an RPC call
//! arrives at the storage nodes, it allocates the receiving node's network
//! adapter ... To serve an RPC call, the storage node incurs some variable
//! latency that depends on the RPC call."
//!
//! [`closed_loop`] is that model. Every thread runs its operations back to
//! back; each [`Op`] is drawn at its start and runs as the phases a
//! protocol builds for it: groups of chains, mostly [`Model::rpc`]s, one
//! group after another, a group done when all of its chains are. [`run`]
//! is the loop given AJX's phases; `ajx-baselines` gives it FAB's and
//! GWGR's.

use crate::engine::{Chain, Engine, ResourceId, Step};
use crate::params::SimParams;
use ajx_core::UpdateStrategy;
use rand::{Rng, SeedableRng};

/// What the simulated clients do.
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Operations completed.
    pub ops: u64,
    /// Virtual end time (µs).
    pub elapsed_us: f64,
    /// Aggregate payload throughput in MB/s: one block per operation,
    /// however many blocks the protocol moves to serve it.
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

/// One operation of the closed loop, as drawn at its start.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// The client whose thread runs it.
    pub client: usize,
    /// The stripe it touches.
    pub stripe: u64,
    /// The in-stripe data index it reads or writes (`< k`).
    pub index: usize,
    /// A read; otherwise a single-block write.
    pub read: bool,
}

/// The resources of one run — every client's processor and NIC, every
/// storage node's processor and NIC — and the RPC chain through them.
#[derive(Debug)]
pub struct Model {
    params: SimParams,
    n: usize,
    client_cpu: Vec<ResourceId>,
    client_nic: Vec<ResourceId>,
    node_cpu: Vec<ResourceId>,
    node_nic: Vec<ResourceId>,
}

impl Model {
    /// The node holding in-stripe block `t` of `op`'s stripe (the §3.11
    /// rotation).
    fn node(&self, op: &Op, t: usize) -> usize {
        ((t as u64 + op.stripe) % self.n as u64) as usize
    }

    /// One RPC from `op`'s client to the node of in-stripe block `t`: the
    /// client's processor for `client_cpu_us`, the request through both
    /// NICs, the node's processor for its per-RPC cost plus `service_us`,
    /// and the reply back.
    pub fn rpc(
        &self,
        op: &Op,
        t: usize,
        req_bytes: f64,
        service_us: f64,
        rep_bytes: f64,
        client_cpu_us: f64,
    ) -> Chain {
        let p = &self.params;
        let mut chain = Vec::with_capacity(8);
        chain.push(Step::Use { resource: self.client_cpu[op.client], us: client_cpu_us });
        chain.push(Step::Use {
            resource: self.client_nic[op.client],
            us: req_bytes / p.client_nic_bpus,
        });
        chain.extend(self.delivery(op, t, req_bytes, p.rpc_node_cpu_us + service_us, rep_bytes));
        chain
    }

    /// An RPC from the moment its request leaves the client: propagation,
    /// the node's NIC, its processor for `node_cpu_us`, and the reply back
    /// to the client's NIC.
    fn delivery(
        &self,
        op: &Op,
        t: usize,
        req_bytes: f64,
        node_cpu_us: f64,
        rep_bytes: f64,
    ) -> [Step; 6] {
        let p = &self.params;
        let node = self.node(op, t);
        [
            Step::Delay { us: p.one_way_latency_us },
            Step::Use { resource: self.node_nic[node], us: req_bytes / p.node_nic_bpus },
            Step::Use { resource: self.node_cpu[node], us: node_cpu_us },
            Step::Use { resource: self.node_nic[node], us: rep_bytes / p.node_nic_bpus },
            Step::Delay { us: p.one_way_latency_us },
            Step::Use { resource: self.client_nic[op.client], us: rep_bytes / p.client_nic_bpus },
        ]
    }
}

/// One client thread of the closed loop.
struct Thread {
    rng: rand::rngs::StdRng,
    client: usize,
    ops_done: u64,
    op_start: f64,
    /// The in-flight operation's phases not yet started.
    phases: std::vec::IntoIter<Vec<Chain>>,
    latencies_sum: f64,
    latencies_max: f64,
}

/// Runs AJX (Figs. 4-5) under `cfg.strategy` to completion and reports
/// aggregate results.
///
/// # Panics
///
/// As [`closed_loop`].
pub fn run(cfg: &SimConfig) -> SimReport {
    closed_loop(cfg, |m, op| ajx_phases(cfg, m, op))
}

/// AJX's phases of `op`. A read is one RPC to the data node. A write is
/// the swap (the new block out, the old block back), then either the
/// strategy's rounds of `add`s or the §3.11 broadcast: one send, then its
/// deliveries.
fn ajx_phases(cfg: &SimConfig, m: &Model, op: &Op) -> Vec<Vec<Chain>> {
    let p = &cfg.params;
    let (blk, hdr, cpu) = (p.block_msg_bytes(), p.hdr_bytes(), p.rpc_client_cpu_us);
    if op.read {
        return vec![vec![m.rpc(op, op.index, hdr, p.read_service_us, blk, cpu)]];
    }
    let mut phases = vec![vec![m.rpc(op, op.index, blk, p.swap_service_us, blk, cpu)]];
    if cfg.strategy == UpdateStrategy::Broadcast {
        // One subtraction (half a Delta: no multiply) and one NIC send for
        // all p targets (§3.11: "saving client bandwidth"); each target
        // scales the difference by its own coefficient.
        phases.push(vec![vec![
            Step::Use { resource: m.client_cpu[op.client], us: cpu + p.delta_cost_us / 2.0 },
            Step::Use { resource: m.client_nic[op.client], us: blk / p.client_nic_bpus },
        ]]);
        let node_cpu_us = p.rpc_node_cpu_us + p.node_scale_cost_us + p.add_cost_us;
        let deliver = |j| m.delivery(op, j, blk, node_cpu_us, hdr).to_vec();
        phases.push((cfg.k..cfg.n).map(deliver).collect());
    } else {
        // The client computes each add's delta before sending it.
        let add = |j| m.rpc(op, j, blk, p.add_cost_us, hdr, cpu + p.delta_cost_us);
        let rounds = cfg.strategy.rounds(cfg.k, cfg.n).into_iter();
        phases.extend(rounds.map(|round| round.into_iter().map(add).collect()));
    }
    phases
}

/// Runs `cfg`'s closed loop to completion: each of the `n_clients ×
/// threads_per_client` threads runs `ops_per_thread` operations back to
/// back, each drawn at its start and run as the groups `phases` builds for
/// it, one group after another. The loop never reads `cfg.strategy`; only
/// `phases` may.
///
/// # Panics
///
/// Panics on degenerate configurations (`k = 0`, `n <= k`, no clients,
/// no threads, no ops) and when `phases` builds no group, or an empty one.
pub fn closed_loop(cfg: &SimConfig, phases: impl Fn(&Model, &Op) -> Vec<Vec<Chain>>) -> SimReport {
    assert!(cfg.k >= 1 && cfg.n > cfg.k, "need 1 <= k < n");
    assert!(cfg.n_clients >= 1 && cfg.threads_per_client >= 1);
    assert!(cfg.ops_per_thread >= 1 && cfg.stripes >= 1);

    let mut engine = Engine::new();
    let mut resources = |count: usize| -> Vec<ResourceId> {
        (0..count).map(|_| engine.add_resource()).collect()
    };
    let model = Model {
        params: cfg.params,
        n: cfg.n,
        client_cpu: resources(cfg.n_clients),
        client_nic: resources(cfg.n_clients),
        node_cpu: resources(cfg.n),
        node_nic: resources(cfg.n),
    };

    let total_threads = cfg.n_clients * cfg.threads_per_client;
    let mut threads: Vec<Thread> = (0..total_threads)
        .map(|t| Thread {
            rng: rand::rngs::StdRng::seed_from_u64(cfg.seed ^ (t as u64).wrapping_mul(0x9E37)),
            client: t / cfg.threads_per_client,
            ops_done: 0,
            op_start: 0.0,
            phases: Vec::new().into_iter(),
            latencies_sum: 0.0,
            latencies_max: 0.0,
        })
        .collect();

    let start = |engine: &mut Engine, th: &mut Thread, token: u64, now: f64| {
        th.op_start = now;
        let stripe = th.rng.random_range(0..cfg.stripes);
        let index = th.rng.random_range(0..cfg.k);
        let read = match cfg.workload {
            SimWorkload::Read => true,
            SimWorkload::Write => false,
            SimWorkload::Mixed { read_pct } => th.rng.random_range(0..100u8) < read_pct,
        };
        let op = Op { client: th.client, stripe, index, read };
        th.phases = phases(&model, &op).into_iter();
        engine.spawn_group(th.phases.next().expect("an operation has a phase"), token);
    };

    for (t, th) in threads.iter_mut().enumerate() {
        start(&mut engine, th, t as u64, 0.0);
    }
    let mut total_ops = 0u64;
    engine.run(|engine, now, token| {
        let th = &mut threads[token as usize];
        if let Some(group) = th.phases.next() {
            engine.spawn_group(group, token);
            return;
        }
        let lat = now - th.op_start;
        th.latencies_sum += lat;
        th.latencies_max = th.latencies_max.max(lat);
        th.ops_done += 1;
        total_ops += 1;
        if th.ops_done < cfg.ops_per_thread {
            start(engine, th, token, now);
        }
    });

    let elapsed_us = engine.now();
    let payload_bytes = total_ops as f64 * cfg.params.block_size as f64;
    let lat_sum: f64 = threads.iter().map(|t| t.latencies_sum).sum();
    let lat_max = threads.iter().fold(0.0f64, |m, t| m.max(t.latencies_max));
    let mean_util = |rs: &[ResourceId]| {
        rs.iter().map(|&r| engine.utilization_hint(r)).sum::<f64>() / rs.len() as f64
    };

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
        client_nic_util: mean_util(&model.client_nic),
        node_nic_util: mean_util(&model.node_nic),
    }
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

#[cfg(test)]
mod pinned_tests {
    use super::*;

    /// `run`'s output, pinned bit for bit over every strategy and workload,
    /// a zero-latency network and 256 B blocks: `ops`, then the `to_bits`
    /// of every other [`SimReport`] field in declaration order. A change
    /// that moves the model on purpose re-records the table and says why.
    #[test]
    fn reports_are_pinned_bit_for_bit() {
        use SimWorkload::{Mixed, Read, Write};
        use UpdateStrategy::{Broadcast, Hybrid, Parallel, Serial};
        let base = |strategy, workload| SimConfig {
            strategy,
            workload,
            threads_per_client: 4,
            ops_per_thread: 12,
            ..SimConfig::new(4, 8, 2)
        };
        let mut cases = Vec::new();
        for strategy in [Parallel, Serial, Hybrid { groups: 2 }, Broadcast] {
            for workload in [Write, Read, Mixed { read_pct: 50 }] {
                cases.push(base(strategy, workload));
            }
        }
        let mut zero = base(Parallel, Mixed { read_pct: 50 });
        zero.params.one_way_latency_us = 0.0;
        cases.push(zero);
        let mut small = base(Broadcast, Mixed { read_pct: 50 });
        small.params = small.params.scaled_to_block(256);
        cases.push(small);

        #[rustfmt::skip]
        let pinned: [(u64, [u64; 6]); 14] = [
            // Parallel: Write, Read, Mixed { 50 }
            (96, [0x40b9ec1999999996, 0x402da085b12815d6, 0x4080e15983c131d3, 0x40843428f5c28f59, 0x3fefe0a64fb72f24, 0x3fef9171683f5db7]),
            (96, [0x409aa2ed916872a7, 0x404cd52ad09270fd, 0x4060ff258bf258b9, 0x4068672b020c49bc, 0x3fefbcfbb4f99674, 0x3fece28bad245ee2]),
            (96, [0x40b056ab020c49c0, 0x403780b115c4456c, 0x40730cd21735ee48, 0x4080cb1a9fbe76c2, 0x3fefbf913d565fe9, 0x3fef2466ca4083f4]),
            // Serial
            (96, [0x40c08028f5c28f51, 0x40274597af176fdb, 0x4085d019af72014f, 0x40888f8d4fdf3b62, 0x3fefe1420531893a, 0x3fef7d37d1c838a2]),
            (96, [0x409aa2ed916872a7, 0x404cd52ad09270fd, 0x4060ff258bf258b9, 0x4068672b020c49bc, 0x3fefbcfbb4f99674, 0x3fece28bad245ee2]),
            (96, [0x40b80ce872b020bb, 0x402feed34e700dc5, 0x407915815d867c41, 0x40880ee978d4fe1c, 0x3fefcefe5e309592, 0x3fee9b600f890d78]),
            // Hybrid { groups: 2 }
            (96, [0x40b9ecd916872afd, 0x402d9faadc8a3133, 0x408111c3ece2a531, 0x4084333333333332, 0x3fefeb25191f1ba4, 0x3fef8a832ccb9c71]),
            (96, [0x409aa2ed916872a7, 0x404cd52ad09270fd, 0x4060ff258bf258b9, 0x4068672b020c49bc, 0x3fefbcfbb4f99674, 0x3fece28bad245ee2]),
            (96, [0x40b2658c49ba5e3b, 0x4034df9341c118c7, 0x40744ed47ae147b8, 0x4082e3ae147ae168, 0x3fef43b6479b0604, 0x3fee61c9dee28780]),
            // Broadcast
            (96, [0x40aed7db22d0e57b, 0x4038e6703d93fc66, 0x40742bb8a94d243f, 0x4079f7ced916872e, 0x3fefcf233a1a9e8a, 0x3fef8b12f7108197]),
            (96, [0x409aa2ed916872a7, 0x404cd52ad09270fd, 0x4060ff258bf258b9, 0x4068672b020c49bc, 0x3fefbcfbb4f99674, 0x3fece28bad245ee2]),
            (96, [0x40a80ea1cac0831f, 0x403fec897a02545c, 0x406be50624dd2f25, 0x40772f9db22d0e4a, 0x3fef9938845ebe64, 0x3fef21cf7b9dd9de]),
            // Parallel, Mixed { 50 }, zero one-way latency
            (96, [0x40acc70624dd2f20, 0x403ab004ddb46db2, 0x40701c8a94d242ea, 0x407f145a1cac0834, 0x3fee6acb2d9583f4, 0x3fee8fa7e781585f]),
            // Broadcast, Mixed { 50 }, scaled_to_block(256)
            (96, [0x40a06891eb851eb5, 0x4027670cbec82948, 0x406368819f0fb384, 0x406f2420c49ba5c8, 0x3fefe18d251d065e, 0x3fef471418f85343]),
        ];
        for (cfg, (ops, bits)) in cases.iter().zip(pinned) {
            let r = run(cfg);
            let got = [
                r.elapsed_us,
                r.aggregate_mbps,
                r.mean_latency_us,
                r.max_latency_us,
                r.client_nic_util,
                r.node_nic_util,
            ]
            .map(f64::to_bits);
            let case = format!("{:?} {:?} {:?}", cfg.strategy, cfg.workload, cfg.params);
            assert_eq!((r.ops, got), (ops, bits), "{case}");
        }
    }
}
