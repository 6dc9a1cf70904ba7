//! Connection-multiplexed many-client workload driver.
//!
//! The paper's Fig. 9 experiments stop at 8 closed-loop clients — one
//! blocked thread each. The `ext_many_clients` scale-out experiment pushes
//! the same k-of-n read/write mix to 1k–10k *logical* clients, which rules
//! out thread-per-client: this module drives every client's operations
//! over the transport's completion-queue path
//! ([`ajx_transport::ClientEndpoint::submit_call`] /
//! [`poll_call`](ajx_transport::ClientEndpoint::poll_call)), so a handful
//! of OS threads multiplex the whole fleet.
//!
//! It is the second *driver* of the one `WRITE` engine (DESIGN.md §9): the
//! per-block state of Fig. 5 — what an `add` carries, what its reply means,
//! when the write is complete — is the same sans-IO `BlockWrite` the
//! blocking [`Client`](crate::Client) drives; only the I/O differs.
//!
//! * **READ** (Fig. 4): one RPC to the stripe's data node.
//! * **WRITE** (Fig. 5): `swap` at the data node, then the `α_ji·(v − w)`
//!   delta `add`s to all `n − k` redundant nodes in parallel.
//!
//! [`RpcError::Busy`] (a node shedding load) and a retryable `add` verdict
//! (locked node, or a concurrent-write ordering stall) park the affected
//! RPC on a jittered backoff and resubmit — the same policy the blocking
//! retry path applies, minus the sleeping.
//!
//! **The mux runs no recovery and no re-swap.** Where the blocking driver
//! would start recovery (Fig. 5 line 13: expired lock, INIT node, ordering
//! stalled past `ORDER_RETRY_LIMIT`) or re-swap (an `add` dropped from `T`
//! by a stale epoch), the mux abandons the operation and counts it in
//! [`MuxReport::failed_ops`] — so a run on a degraded cluster terminates
//! and says how much failed instead of resubmitting forever. Clients write
//! disjoint stripe ranges, so on a healthy cluster neither case arises.

use crate::backoff::BackoffSession;
use crate::config::ProtocolConfig;
use crate::write::{AddOutcome, BlockWrite};
use ajx_storage::{ClientId, NodeId, Reply, Request, StripeId, Tid};
use ajx_transport::{ClientEndpoint, Network, NetStats, PendingCall, RpcError};
use std::sync::atomic::{AtomicU64, Ordering};
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
    /// Operations abandoned on a non-retryable error.
    pub failed_ops: u64,
    /// `Busy` rejections absorbed by backoff-and-resubmit.
    pub busy_shed: u64,
    /// Operations abandoned because they exhausted the per-operation
    /// [`crate::BackoffPolicy::busy_retry_budget`] (a subset of
    /// [`failed_ops`](Self::failed_ops)) — the determinate "node is
    /// permanently saturated" signal.
    pub busy_exhausted: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Operation-level latency histogram (p50/p99 via
    /// [`NetStats::latency_percentile`]).
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

/// One outstanding redundant-node `add` of a WRITE.
enum AddSlot {
    Pending(PendingCall),
    /// Parked by `Busy` or a retryable verdict; resubmitted once `at` passes.
    Parked { at: Instant },
    Done,
}

/// Where a logical client is inside its current operation.
enum Phase {
    /// Between operations.
    Idle,
    /// Waiting out a `Busy` shed before (re)issuing the current RPC.
    Parked { at: Instant },
    /// The operation's first RPC in flight: the READ, or a WRITE's `swap`
    /// at the data node.
    First(PendingCall),
    /// WRITE phase 2: parallel delta `add`s, one slot per redundant index
    /// `k..n`, over the block's Fig. 5 state.
    Adds {
        slots: Vec<AddSlot>,
        bw: BlockWrite,
        stripe: StripeId,
    },
    /// All `ops_per_client` operations finished.
    Finished,
}

/// One logical client's protocol state machine.
struct LogicalClient {
    ep: ClientEndpoint,
    base_stripe: u64,
    op_idx: usize,
    seq: u64,
    phase: Phase,
    backoff: BackoffSession,
    op_started: Instant,
    value: Vec<u8>,
    /// `Busy` sheds the current operation may still absorb before it is
    /// abandoned as determinately failed. Refilled from
    /// [`crate::BackoffPolicy::busy_retry_budget`] at each op start.
    busy_left: u32,
}

impl LogicalClient {
    fn stripe(&self, opts: &MuxOptions) -> StripeId {
        StripeId(self.base_stripe + self.op_idx as u64 % opts.stripes_per_client)
    }

    /// Data-block index this operation targets.
    fn data_index(&self, cfg: &ProtocolConfig) -> usize {
        self.op_idx % cfg.k()
    }

    fn is_read(&self, opts: &MuxOptions) -> bool {
        // Deterministic interleaved mix, e.g. read_pct 60 → ops 0-59 of
        // every hundred read. Spread by a stride so reads and writes mix.
        (self.op_idx as u32).wrapping_mul(37) % 100 < opts.read_pct
    }
}

fn node_of(cfg: &ProtocolConfig, stripe: StripeId, t: usize) -> NodeId {
    NodeId(cfg.layout.node_for(stripe.0, t) as u32)
}

/// Outcome of driving one client one step.
enum Step {
    /// State advanced (an RPC resolved, was issued, or an op completed).
    Progress,
    /// Nothing resolvable right now.
    Pending,
    /// The client has completed all its operations.
    Finished,
}

/// Drives `opts.clients` logical clients through a closed-loop read/write
/// mix over `net`, multiplexed onto `opts.driver_threads` OS threads.
///
/// Every client gets its own [`ClientEndpoint`] (own fault-decision stream,
/// own stats) and a private stripe range `[id · stripes_per_client, …)`.
pub fn run_mux_workload(
    net: &Arc<Network>,
    cfg: &ProtocolConfig,
    opts: &MuxOptions,
) -> MuxReport {
    let op_stats = Arc::new(NetStats::new());
    let completed = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let busy = AtomicU64::new(0);
    let exhausted = AtomicU64::new(0);

    let mut fleet: Vec<LogicalClient> = (0..opts.clients)
        .map(|c| {
            let id = ClientId(c as u32);
            LogicalClient {
                ep: net.client(id),
                base_stripe: c as u64 * opts.stripes_per_client,
                op_idx: 0,
                seq: 0,
                phase: Phase::Idle,
                backoff: cfg.backoff.session(0xDEAD_BEEF ^ (c as u64) << 8),
                op_started: Instant::now(),
                value: Vec::new(),
                busy_left: cfg.backoff.busy_retry_budget,
            }
        })
        .collect();

    let started = Instant::now();
    let threads = opts.driver_threads.max(1).min(fleet.len().max(1));
    let chunk = fleet.len().div_ceil(threads).max(1);
    std::thread::scope(|s| {
        for slice in fleet.chunks_mut(chunk) {
            let op_stats = Arc::clone(&op_stats);
            let (completed, failed, busy, exhausted) =
                (&completed, &failed, &busy, &exhausted);
            s.spawn(move || {
                let mut live = slice.len();
                while live > 0 {
                    let mut progressed = false;
                    live = 0;
                    for client in slice.iter_mut() {
                        match step(
                            client, cfg, opts, &op_stats, completed, failed, busy, exhausted,
                        ) {
                            Step::Progress => {
                                progressed = true;
                                live += 1;
                            }
                            Step::Pending => live += 1,
                            Step::Finished => {}
                        }
                    }
                    if live > 0 && !progressed {
                        std::thread::yield_now();
                    }
                }
            });
        }
    });

    MuxReport {
        clients: opts.clients,
        completed_ops: completed.into_inner(),
        failed_ops: failed.into_inner(),
        busy_shed: busy.into_inner(),
        busy_exhausted: exhausted.into_inner(),
        elapsed: started.elapsed(),
        op_stats,
    }
}

/// Advances one client's state machine by at most one transition.
#[allow(clippy::too_many_arguments)]
fn step(
    c: &mut LogicalClient,
    cfg: &ProtocolConfig,
    opts: &MuxOptions,
    op_stats: &NetStats,
    completed: &AtomicU64,
    failed: &AtomicU64,
    busy: &AtomicU64,
    exhausted: &AtomicU64,
) -> Step {
    let now = Instant::now();
    match &mut c.phase {
        Phase::Finished => Step::Finished,

        Phase::Idle => {
            if c.op_idx >= opts.ops_per_client {
                c.phase = Phase::Finished;
                return Step::Finished;
            }
            c.op_started = now;
            issue_op(c, cfg, opts);
            Step::Progress
        }

        Phase::Parked { at } => {
            if now < *at {
                return Step::Pending;
            }
            reissue_op(c, cfg, opts);
            Step::Progress
        }

        Phase::First(call) => {
            // A READ ends here, done only if the data node returned the
            // block; a WRITE's accepted swap opens its add phase.
            match c.ep.poll_call(call) {
                None => return Step::Pending,
                Some(Ok(Reply::Read(r))) if c.is_read(opts) && r.block.is_some() => {
                    finish_op(c, op_stats, completed, now)
                }
                Some(Ok(Reply::Swap(r))) if !c.is_read(opts) => {
                    let (stripe, i) = (c.stripe(opts), c.data_index(cfg));
                    let ntid = Tid::new(c.seq, i, c.ep.id());
                    match BlockWrite::new(i, ntid, r, cfg.k(), cfg.n()) {
                        // Fig. 5 lines 7-12: fan the delta out to every
                        // redundant node in parallel.
                        Some(bw) => {
                            let slots = (cfg.k()..cfg.n())
                                .map(|j| submit_add(&c.ep, cfg, stripe, &bw, j, &c.value))
                                .map(AddSlot::Pending)
                                .collect();
                            c.phase = Phase::Adds { slots, bw, stripe };
                        }
                        // Swap rejected (locked or INIT data node): the
                        // blocking driver would wait or recover; the mux
                        // gives the op up.
                        None => abandon_op(c, failed),
                    }
                }
                Some(Err(RpcError::Busy(_))) => {
                    busy.fetch_add(1, Ordering::Relaxed);
                    if c.busy_left == 0 {
                        exhausted.fetch_add(1, Ordering::Relaxed);
                        abandon_op(c, failed);
                    } else {
                        c.busy_left -= 1;
                        c.phase = Phase::Parked { at: now + c.backoff.next_delay() };
                    }
                }
                // Includes a READ's ⊥ (locked or INIT data node): no recovery.
                Some(Ok(_)) | Some(Err(_)) => abandon_op(c, failed),
            }
            Step::Progress
        }

        Phase::Adds { slots, bw, stripe } => {
            let mut progressed = false;
            let mut fail = false;
            let mut budget_gone = false;
            for (slot, j) in slots.iter_mut().zip(cfg.k()..) {
                match slot {
                    AddSlot::Done => {}
                    // Same tid on the resubmission: adds are deduplicated by
                    // tid at the node, so a retry can never double-apply.
                    AddSlot::Parked { at } => {
                        if now >= *at {
                            let call = submit_add(&c.ep, cfg, *stripe, bw, j, &c.value);
                            *slot = AddSlot::Pending(call);
                            progressed = true;
                        }
                    }
                    AddSlot::Pending(pending) => match c.ep.poll_call(pending) {
                        None => {}
                        Some(Ok(Reply::Add(mut a))) => {
                            progressed = true;
                            crate::pool::give(std::mem::take(&mut a.spent));
                            match bw.on_add(j, &a) {
                                AddOutcome::Done => *slot = AddSlot::Done,
                                // No re-swap here (module docs).
                                AddOutcome::Dropped => fail = true,
                                AddOutcome::Retry | AddOutcome::Order => {
                                    *slot = AddSlot::Parked {
                                        at: now + c.backoff.next_delay(),
                                    };
                                }
                            }
                        }
                        Some(Err(RpcError::Busy(_))) => {
                            busy.fetch_add(1, Ordering::Relaxed);
                            if c.busy_left == 0 {
                                // The op's shared budget is gone; no point
                                // nursing the remaining slots along.
                                fail = true;
                                budget_gone = true;
                            } else {
                                c.busy_left -= 1;
                                progressed = true;
                                *slot = AddSlot::Parked {
                                    at: now + c.backoff.next_delay(),
                                };
                            }
                        }
                        Some(Ok(_)) | Some(Err(_)) => fail = true,
                    },
                }
            }
            // No recovery here either (module docs): asking for it ends the op.
            fail |= bw.needs_recovery();
            bw.close_round();
            if fail {
                if budget_gone {
                    exhausted.fetch_add(1, Ordering::Relaxed);
                }
                abandon_op(c, failed);
                return Step::Progress;
            }
            if bw.settled() {
                if bw.complete(cfg) {
                    finish_op(c, op_stats, completed, now);
                } else {
                    abandon_op(c, failed);
                }
                return Step::Progress;
            }
            if progressed {
                Step::Progress
            } else {
                Step::Pending
            }
        }
    }
}

/// Starts the next operation: draws the op kind, builds the payload for
/// writes, and issues the first RPC.
fn issue_op(c: &mut LogicalClient, cfg: &ProtocolConfig, opts: &MuxOptions) {
    c.busy_left = cfg.backoff.busy_retry_budget;
    if !c.is_read(opts) {
        c.seq += 1;
        let fill = (c.op_idx as u8) ^ (c.ep.id().0 as u8).rotate_left(3);
        c.value = vec![fill; cfg.block_size];
    }
    reissue_op(c, cfg, opts);
}

/// (Re)issues the current operation's first RPC — also the resume path
/// after a `Busy` park, which must reuse the same tid so a retried swap
/// stays idempotent at the node.
fn reissue_op(c: &mut LogicalClient, cfg: &ProtocolConfig, opts: &MuxOptions) {
    let stripe = c.stripe(opts);
    let i = c.data_index(cfg);
    let node = node_of(cfg, stripe, i);
    let req = if c.is_read(opts) {
        Request::Read { stripe }
    } else {
        Request::Swap {
            stripe,
            value: c.value.clone(),
            ntid: Tid::new(c.seq, i, c.ep.id()),
        }
    };
    c.phase = Phase::First(c.ep.submit_call(node, req));
}

/// Submits the current WRITE's `add` for redundant index `j`.
fn submit_add(
    ep: &ClientEndpoint,
    cfg: &ProtocolConfig,
    stripe: StripeId,
    bw: &BlockWrite,
    j: usize,
    value: &[u8],
) -> PendingCall {
    ep.submit_call(node_of(cfg, stripe, j), bw.add(cfg, stripe, j, value))
}

/// Leaves the current operation, recycling a WRITE's swapped-out block.
fn end_op(c: &mut LogicalClient) {
    if let Phase::Adds { bw, .. } = std::mem::replace(&mut c.phase, Phase::Idle) {
        crate::pool::give(bw.finish().2);
    }
    c.op_idx += 1;
}

fn finish_op(c: &mut LogicalClient, op_stats: &NetStats, completed: &AtomicU64, now: Instant) {
    op_stats.record_latency(now.saturating_duration_since(c.op_started));
    completed.fetch_add(1, Ordering::Relaxed);
    end_op(c);
}

fn abandon_op(c: &mut LogicalClient, failed: &AtomicU64) {
    failed.fetch_add(1, Ordering::Relaxed);
    end_op(c);
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(report.failed_ops, 0, "fault-free run must not abandon ops");
        assert!(report.op_stats.latency_percentile(0.5).is_some());

        // Every written stripe must still satisfy the code: collect the
        // n blocks of a few stripes and verify the parity relation.
        for stripe in [0u64, 5, 17, 63] {
            let blocks: Vec<Vec<u8>> = (0..cfg.n())
                .map(|t| {
                    let node = NodeId(cfg.layout.node_for(stripe, t) as u32);
                    net.with_node(node, |n| {
                        n.block_state(StripeId(stripe))
                            .map(|b| b.raw_block().to_vec())
                            .unwrap_or_else(|| vec![0; cfg.block_size])
                    })
                })
                .collect();
            assert!(
                cfg.code.verify_stripe(&blocks).unwrap(),
                "stripe {stripe} lost code consistency"
            );
        }
    }

    #[test]
    fn backpressured_run_sheds_and_still_completes_everything() {
        // A tiny queue forces Busy shedding; the driver's park-and-resubmit
        // must still complete every op (shed requests were never applied).
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
        // Every node paused with its queue stuffed full: each fleet RPC is
        // shed with `Busy` forever. Before the budget existed this loop
        // parked and resubmitted without bound — the run never terminated.
        // Now each op absorbs `busy_retry_budget` sheds and then fails
        // determinately.
        let mut cfg = cfg_4_8(32);
        cfg.backoff.base = Duration::ZERO; // parks expire immediately
        cfg.backoff.busy_retry_budget = 4;
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
        let report = run_mux_workload(&net, &cfg, &opts);
        assert_eq!(report.completed_ops, 0);
        assert_eq!(report.failed_ops, 4 * 3, "every op must fail determinately");
        assert_eq!(
            report.busy_exhausted, 4 * 3,
            "every failure must be a budget exhaustion"
        );
        assert!(
            report.busy_shed >= report.busy_exhausted * 4,
            "each op must absorb its full budget before giving up"
        );
        for t in 0..cfg.n() {
            net.resume_node(NodeId(t as u32));
        }
    }

    #[test]
    fn degraded_cluster_fails_ops_instead_of_livelocking() {
        // Node 2 is a fresh INIT replacement for every stripe: swaps it
        // owns are rejected, adds it owes answer `Unavail` forever, and
        // reads of its blocks answer ⊥. The mux runs no recovery, so those
        // ops must end as failures — the pre-`BlockWrite` driver parked and
        // resubmitted such an add without bound and this run never
        // returned, and a READ answered ⊥ once counted as completed.
        let cfg = cfg_4_8(32);
        let (clients, ops_per_client, stripes_per_client) = (4, 8, 2);
        for read_pct in [0, 100] {
            let net = net_for(&cfg, |_| {});
            let remapped = NodeId(2);
            net.remap_node(remapped, 0xA5);
            let opts = MuxOptions {
                clients,
                ops_per_client,
                read_pct,
                stripes_per_client,
                driver_threads: 1,
            };
            let (tx, rx) = std::sync::mpsc::channel();
            let (run_cfg, run_opts) = (cfg.clone(), opts.clone());
            std::thread::spawn(move || tx.send(run_mux_workload(&net, &run_cfg, &run_opts)));
            let report = rx
                .recv_timeout(Duration::from_secs(30))
                .expect("a mux run on a degraded cluster must terminate");
            let row = format!("read_pct {read_pct}");
            assert_eq!(report.completed_ops + report.failed_ops, 4 * 8, "{row}");
            assert!(report.failed_ops > 0, "{row}: ops touching the INIT node must fail");
            assert!(report.completed_ops > 0, "{row}: ops clear of it still complete");
            assert_eq!(report.busy_exhausted, 0, "{row}: not a backpressure failure");
            if read_pct == 100 {
                // Exactly the reads whose data block lives on the INIT node.
                let on_remapped = (0..clients as u64)
                    .flat_map(|c| (0..ops_per_client).map(move |op| (c, op)))
                    .filter(|&(c, op)| {
                        let stripe = c * stripes_per_client + op as u64 % stripes_per_client;
                        node_of(&cfg, StripeId(stripe), op % cfg.k()) == remapped
                    })
                    .count() as u64;
                assert_eq!(report.failed_ops, on_remapped, "{row}");
            }
        }
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
