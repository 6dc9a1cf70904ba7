//! The many-client workload driver: a fleet of logical clients on a
//! handful of OS threads.
//!
//! The paper's Fig. 9 experiments stop at 8 closed-loop clients — one
//! blocked thread each. The `ext_many_clients` scale-out experiment pushes
//! the same k-of-n read/write mix to 1k–10k *logical* clients, which rules
//! out thread-per-client. Here each driver thread is one [`Client`] on its
//! own endpoint, covering a slice of the fleet, and runs the slice's
//! operations as windows of the one `READ` / `WRITE` engine: step `o` is
//! one read window over the slice's blocks `(stripe, o mod k)`, or one
//! write window with one run per logical client's stripe. So a fleet
//! operation is the paper's operation, with everything the engine does —
//! Fig. 6 recovery, the outer re-swap, the `checktid` probe, the configured
//! update strategy and the Fig. 7 GC record — and a step's reads travel as
//! one batched message per node.
//!
//! Lockstep steps fit this workload: logical clients own disjoint stripes
//! and whether operation `o` reads depends on `o` alone, so every logical
//! client of a step does the same kind of operation.

use crate::client::{Client, WriteItem};
use crate::config::ProtocolConfig;
use ajx_storage::{ClientId, StripeId};
use ajx_transport::{NetStats, Network};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shape of a [`run_mux_workload`] run.
#[derive(Debug, Clone)]
pub struct MuxOptions {
    /// Number of logical clients.
    pub clients: usize,
    /// Closed-loop operations per client.
    pub ops_per_client: usize,
    /// Percentage of operations that are READs (the rest are WRITEs).
    pub read_pct: u32,
    /// Stripes in each client's private range (clients never share one).
    pub stripes_per_client: u64,
    /// OS threads driving the client fleet.
    pub driver_threads: usize,
}

impl Default for MuxOptions {
    fn default() -> Self {
        MuxOptions {
            clients: 8,
            ops_per_client: 100,
            read_pct: 50,
            stripes_per_client: 4,
            driver_threads: 1,
        }
    }
}

/// Aggregate outcome of a [`run_mux_workload`] run.
#[derive(Debug)]
pub struct MuxReport {
    /// Logical clients driven.
    pub clients: usize,
    /// Operations that completed successfully.
    pub completed_ops: u64,
    /// Operations whose window reported an error for them.
    pub failed_ops: u64,
    /// Requests a full node queue shed with `Busy`, over the drivers'
    /// endpoints; the engine re-sends them under the configured backoff.
    pub busy_shed: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Operation-level latency histogram (p50/p99 via
    /// [`NetStats::latency_percentile`]): a completed operation's sample is
    /// the duration of the window that carried it.
    pub op_stats: Arc<NetStats>,
}

impl MuxReport {
    /// Aggregate completed operations per second.
    pub fn iops(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.completed_ops as f64 / self.elapsed.as_secs_f64()
    }
}

/// Whether operation `op` is a READ: a deterministic interleaved mix, e.g.
/// read_pct 60 → 60 of every hundred operations read, spread by a stride
/// so reads and writes mix.
fn is_read(op: usize, read_pct: u32) -> bool {
    (op as u32).wrapping_mul(37) % 100 < read_pct
}

/// The byte logical client `client` fills its block with at operation `op`.
fn fill(client: usize, op: usize) -> u8 {
    (op as u8) ^ (client as u8).rotate_left(3)
}

/// Drives `opts.clients` logical clients through a closed-loop read/write
/// mix over `net`, their operations run as windows on
/// `opts.driver_threads` OS threads.
///
/// Logical client `c` owns the stripes `[c · stripes_per_client, …)`; its
/// operation `o` reads or writes data block `o mod k` of its stripe
/// `o mod stripes_per_client`.
pub fn run_mux_workload(
    net: &Arc<Network>,
    cfg: &ProtocolConfig,
    opts: &MuxOptions,
) -> MuxReport {
    let op_stats = Arc::new(NetStats::new());
    let threads = opts.driver_threads.clamp(1, opts.clients.max(1));
    let chunk = opts.clients.div_ceil(threads).max(1);
    let started = Instant::now();
    let tallies: Vec<[u64; 3]> = std::thread::scope(|s| {
        let drivers: Vec<_> = (0..opts.clients)
            .step_by(chunk)
            .map(|first| {
                let fleet = first..(first + chunk).min(opts.clients);
                let op_stats = &op_stats;
                s.spawn(move || drive(net, cfg, opts, fleet, op_stats))
            })
            .collect();
        drivers.into_iter().map(|d| d.join().expect("a driver thread panicked")).collect()
    });
    let elapsed = started.elapsed();
    let [completed_ops, failed_ops, busy_shed] =
        tallies.into_iter().fold([0; 3], |a, t| [a[0] + t[0], a[1] + t[1], a[2] + t[2]]);
    MuxReport {
        clients: opts.clients,
        completed_ops,
        failed_ops,
        busy_shed,
        elapsed,
        op_stats,
    }
}

/// One driver thread: the logical clients `fleet` as one [`Client`],
/// step by step. Returns its completed and failed operations and the
/// `Busy` sheds its endpoint saw.
fn drive(
    net: &Arc<Network>,
    cfg: &ProtocolConfig,
    opts: &MuxOptions,
    fleet: Range<usize>,
    op_stats: &NetStats,
) -> [u64; 3] {
    let client = Client::new(net.client(ClientId(fleet.start as u32)), cfg.clone());
    let stripe = |c: usize, o: usize| {
        StripeId(c as u64 * opts.stripes_per_client + o as u64 % opts.stripes_per_client)
    };
    let (mut completed, mut failed) = (0, 0);
    for o in 0..opts.ops_per_client {
        let i = o % cfg.k();
        let step = Instant::now();
        let outcomes: Vec<bool> = if is_read(o, opts.read_pct) {
            let blocks: Vec<_> = fleet.clone().map(|c| (stripe(c, o), i)).collect();
            client.read_window(&blocks).iter().map(Result::is_ok).collect()
        } else {
            let values: Vec<Vec<u8>> =
                fleet.clone().map(|c| vec![fill(c, o); cfg.block_size]).collect();
            let items: Vec<WriteItem> =
                fleet.clone().zip(&values).map(|(c, v)| (stripe(c, o), i, v.as_slice())).collect();
            let runs: Vec<&[WriteItem]> = items.chunks(1).collect();
            client.write_window(&runs).iter().map(Result::is_ok).collect()
        };
        let took = step.elapsed();
        for ok in outcomes {
            if ok {
                completed += 1;
                op_stats.record_latency(took);
            } else {
                failed += 1;
            }
        }
    }
    [completed, failed, client.endpoint().stats().busy_shed()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajx_storage::{NodeId, OpMode, Request};
    use ajx_transport::NetworkConfig;

    fn cfg_4_8(block: usize) -> ProtocolConfig {
        ProtocolConfig::new(4, 8, block).unwrap()
    }

    fn net_for(cfg: &ProtocolConfig, extra: impl FnOnce(&mut NetworkConfig)) -> Arc<Network> {
        let mut nc = NetworkConfig {
            n_nodes: cfg.n(),
            block_size: cfg.block_size,
            code: Some(cfg.code.clone()),
            ..NetworkConfig::default()
        };
        extra(&mut nc);
        Network::new(nc)
    }

    /// Runs the workload on its own thread; panics unless it returns within
    /// 30 s.
    fn run_or_hang(net: &Arc<Network>, cfg: &ProtocolConfig, opts: &MuxOptions) -> MuxReport {
        let (tx, rx) = std::sync::mpsc::channel();
        let (net, cfg, opts) = (Arc::clone(net), cfg.clone(), opts.clone());
        std::thread::spawn(move || tx.send(run_mux_workload(&net, &cfg, &opts)));
        rx.recv_timeout(Duration::from_secs(30)).expect("a mux run must terminate")
    }

    /// Whether `stripe`'s blocks on NORM nodes (a never-written block is
    /// zeros) are one codeword: the stripe rebuilt from the first `k` of
    /// them equals every one of them. An INIT replacement's block is left
    /// out, as recovery would leave it out.
    fn stripe_consistent(net: &Network, cfg: &ProtocolConfig, stripe: u64) -> bool {
        let norm: Vec<(usize, Vec<u8>)> = (0..cfg.n())
            .filter_map(|t| {
                let node = NodeId(cfg.layout.node_for(stripe, t) as u32);
                net.with_node(node, |n| match n.block_state(StripeId(stripe)) {
                    None => Some((t, vec![0; cfg.block_size])),
                    Some(b) if b.opmode() == OpMode::Norm => Some((t, b.raw_block().to_vec())),
                    Some(_) => None,
                })
            })
            .collect();
        let shares: Vec<(usize, &[u8])> =
            norm.iter().take(cfg.k()).map(|(t, b)| (*t, b.as_slice())).collect();
        let Ok(whole) = cfg.code.reconstruct_stripe(&shares) else {
            return false;
        };
        norm.iter().all(|(t, b)| whole[*t] == *b)
    }

    /// Every block of the fleet reads back the last value the run wrote
    /// there (zeros where it wrote nothing), and every stripe is consistent.
    fn check_fleet(net: &Arc<Network>, cfg: &ProtocolConfig, opts: &MuxOptions) {
        let reader = Client::new(net.client(ClientId(1 << 20)), cfg.clone());
        for c in 0..opts.clients {
            for s in 0..opts.stripes_per_client {
                let stripe = c as u64 * opts.stripes_per_client + s;
                // Before the reads: a read may run recovery on the stripe.
                assert!(stripe_consistent(net, cfg, stripe), "stripe {stripe} lost consistency");
                for i in 0..cfg.k() {
                    let last = (0..opts.ops_per_client).rev().find(|&o| {
                        o % cfg.k() == i
                            && o as u64 % opts.stripes_per_client == s
                            && !is_read(o, opts.read_pct)
                    });
                    let want = vec![last.map_or(0, |o| fill(c, o)); cfg.block_size];
                    let got = reader.read_stripe_index(StripeId(stripe), i);
                    assert_eq!(got.ok(), Some(want), "client {c}, stripe {stripe}, block {i}");
                }
            }
        }
    }

    #[test]
    fn mixed_workload_completes_and_keeps_stripes_decodable() {
        let cfg = cfg_4_8(64);
        let net = net_for(&cfg, |_| {});
        let opts = MuxOptions {
            clients: 16,
            ops_per_client: 30,
            read_pct: 60,
            stripes_per_client: 4,
            driver_threads: 2,
        };
        let report = run_mux_workload(&net, &cfg, &opts);
        assert_eq!(report.completed_ops + report.failed_ops, 16 * 30);
        assert_eq!(report.failed_ops, 0, "fault-free run must not fail ops");
        assert!(report.op_stats.latency_percentile(0.5).is_some());
        check_fleet(&net, &cfg, &opts);
    }

    #[test]
    fn backpressured_run_sheds_and_still_completes_everything() {
        // A tiny queue forces Busy shedding; the engine's re-send after a
        // shed (a shed request never ran) must still complete every op.
        let cfg = cfg_4_8(64);
        let net = net_for(&cfg, |nc| {
            nc.server_threads = 1;
            nc.node_queue_depth = Some(2);
        });
        let opts = MuxOptions {
            clients: 32,
            ops_per_client: 10,
            read_pct: 20,
            stripes_per_client: 2,
            driver_threads: 2,
        };
        let report = run_mux_workload(&net, &cfg, &opts);
        assert_eq!(report.completed_ops, 32 * 10);
        assert_eq!(report.failed_ops, 0);
    }

    #[test]
    fn saturated_cluster_exhausts_busy_budget_and_terminates() {
        // Every node paused with its queue stuffed full: each fleet request
        // is shed with `Busy` forever. Each op's requests spend their
        // re-send budget (`rpc_retry_budget`) and the op fails
        // determinately.
        let mut cfg = cfg_4_8(32);
        cfg.backoff.base = Duration::ZERO; // re-send at once
        let net = net_for(&cfg, |nc| {
            nc.server_threads = 1;
            nc.node_queue_depth = Some(1);
        });
        let filler = net.client(ClientId(999));
        for t in 0..cfg.n() {
            net.pause_node(NodeId(t as u32));
        }
        // Depth 1 plus the job the parked worker already pulled: two
        // submissions saturate a node, the third is shed. Wait for the
        // worker to pull the first before queueing the second, or a fleet
        // request could sneak into the queue and hang the run.
        let mut _held: Vec<_> = Vec::new();
        for t in 0..cfg.n() {
            let node = NodeId(t as u32);
            _held.push(filler.submit_call(node, Request::Read { stripe: StripeId(0) }));
            while net.node_queue_len(node) > 0 {
                std::thread::yield_now();
            }
            _held.push(filler.submit_call(node, Request::Read { stripe: StripeId(0) }));
            assert_eq!(net.node_queue_len(node), 1, "queue at capacity");
        }
        let opts = MuxOptions {
            clients: 4,
            ops_per_client: 3,
            read_pct: 100,
            stripes_per_client: 2,
            driver_threads: 1,
        };
        let report = run_or_hang(&net, &cfg, &opts);
        assert_eq!(report.completed_ops, 0);
        assert_eq!(report.failed_ops, 4 * 3, "every op must fail determinately");
        assert!(report.busy_shed >= report.failed_ops, "at least one shed per op");
        for t in 0..cfg.n() {
            net.resume_node(NodeId(t as u32));
        }
    }

    #[test]
    fn degraded_cluster_completes_every_op() {
        // Node 2 is a fresh INIT replacement for every stripe: swaps it
        // owns are rejected, adds it owes answer `Unavail`, and reads of
        // its blocks answer ⊥. The engine serves the reads degraded and
        // recovers the stripes the writes find broken, so every op
        // completes, reads back, and leaves its stripe consistent.
        let cfg = cfg_4_8(32);
        for read_pct in [0, 50, 100] {
            let net = net_for(&cfg, |_| {});
            net.remap_node(NodeId(2), 0xA5);
            let opts = MuxOptions {
                clients: 4,
                ops_per_client: 8,
                read_pct,
                stripes_per_client: 2,
                driver_threads: 1,
            };
            let report = run_or_hang(&net, &cfg, &opts);
            let row = format!("read_pct {read_pct}");
            assert_eq!(report.failed_ops, 0, "{row}");
            assert_eq!(report.completed_ops, 4 * 8, "{row}");
            check_fleet(&net, &cfg, &opts);
        }
    }

    #[test]
    fn a_step_sends_one_swap_and_one_add_per_redundant_node_or_one_read_batch_per_node() {
        let cfg = cfg_4_8(32);
        let net = net_for(&cfg, |_| {});
        let clients = 12;
        let step = |read_pct| {
            let before = net.stats().snapshot();
            let opts = MuxOptions {
                clients,
                ops_per_client: 1,
                read_pct,
                stripes_per_client: 2,
                driver_threads: 1,
            };
            let report = run_mux_workload(&net, &cfg, &opts);
            assert_eq!(report.completed_ops, clients as u64);
            net.stats().snapshot().since(&before).msgs_sent
        };
        // Never merged across stripes: each client's swap and its 4 adds.
        assert_eq!(step(0), clients as u64 * (1 + 4));
        // One batch per node, whatever the fleet.
        assert!(step(100) <= cfg.n() as u64);
    }

    #[test]
    fn many_clients_multiplex_on_few_threads() {
        let cfg = cfg_4_8(32);
        let net = net_for(&cfg, |_| {});
        let opts = MuxOptions {
            clients: 512,
            ops_per_client: 4,
            read_pct: 50,
            stripes_per_client: 2,
            driver_threads: 2,
        };
        let report = run_mux_workload(&net, &cfg, &opts);
        assert_eq!(report.completed_ops, 512 * 4);
        assert!(report.iops() > 0.0);
    }
}
