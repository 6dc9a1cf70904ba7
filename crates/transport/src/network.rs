//! The in-process network: storage nodes served from bounded request
//! queues by one worker pool, client endpoints with bandwidth shaping and a
//! connection-multiplexed completion path, fault injection, and the
//! directory/remap behaviour of §3.5.
//!
//! This is the reproduction's analogue of the paper's §5.1 testbed ("RPC in
//! user mode running over TCP", 8 hosts), scaled past its 8-client world:
//!
//! * **Server side** — each storage node owns a *bounded* FIFO request
//!   queue; one worker pool drains them all, serving at most
//!   [`NetworkConfig::server_threads`] requests of a node at once (§5.1:
//!   "the number of threads at the server limit the number of RPC calls
//!   that are served simultaneously"), and one woken worker serves a whole
//!   fan-out. At zero latency a blocking round is served by its own client
//!   while it would otherwise wait, and wakes no worker unless it leaves a
//!   job behind. A full queue sheds the request with [`RpcError::Busy`]
//!   *before* enqueueing it, so overload degrades into determinate client
//!   backoff instead of unbounded memory. Node state is a [`ShardedNode`]:
//!   per-stripe shards behind fine-grained locks, so workers serving
//!   independent stripes never contend.
//! * **Client side** — one completion path. [`ClientEndpoint::submit_call`]
//!   starts an exchange as a [`PendingCall`] that
//!   [`ClientEndpoint::poll_call`] resolves without blocking; tests and
//!   round-trip probes call them directly. The blocking
//!   [`ClientEndpoint::call`] / [`ClientEndpoint::call_many`] /
//!   [`ClientEndpoint::broadcast`] that protocol code uses submit their
//!   round the same way and then wait on each call in order, so both kinds
//!   of caller see one timing model (stated on `submit_call`); a round is
//!   one slot set, and only the post that completes it wakes its client.
//!   A round pays its fixed costs once, not per call: one clock read at
//!   launch, one kill-budget update, one pool lock per run of
//!   `ENQUEUE_RUN` enqueues, slots armed from the start and the lost or
//!   refused ones disarmed in one step, every reply taken in one lock once
//!   the round is complete, and one add per counter to the books.
//!   Many logical clients share a thread as one client's window, not as
//!   many pending calls (`ajx_core::run_mux_workload`).

#![expect(
    clippy::disallowed_methods,
    reason = "the clock paces deadlines only; the seeded fault plan fates every call before its timing matters"
)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::indexing_slicing))]

use crate::bucket::TokenBucket;
use crate::error::RpcError;
use crate::fault::{Fate, FaultPlan};
use crate::stats::{NetSnapshot, NetStats};
use ajx_erasure::CodeFamily;
use ajx_storage::{
    backend_for, ClientId, FlushPolicy, NodeId, NodeView, PersistMode, PersistStats, Reply,
    Request, ShardedNode,
};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration for a [`Network`].
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Number of storage nodes (`n` in the paper).
    pub n_nodes: usize,
    /// Block size in bytes (the paper uses 1 KB blocks in §6).
    pub block_size: usize,
    /// One-way message latency (the paper's testbed: 50 µs RTT ⇒ 25 µs).
    /// Zero disables latency simulation for fast unit tests.
    pub one_way_latency: Duration,
    /// Per-client NIC bandwidth in bytes/s (`None` = unlimited). The
    /// paper's testbed: 500 Mbit/s ≈ 62.5 MB/s.
    pub client_bandwidth: Option<u64>,
    /// Per-storage-node NIC bandwidth in bytes/s (`None` = unlimited).
    pub node_bandwidth: Option<u64>,
    /// Requests one storage node serves at once (§5.1: "the number of
    /// threads at the server limit the number of RPC calls that are served
    /// simultaneously"). The pool that serves every node starts workers on
    /// demand, up to `n_nodes × server_threads` of them.
    pub server_threads: usize,
    /// Erasure code handed to nodes for broadcast-mode scaling (§3.11).
    pub code: Option<CodeFamily>,
    /// Media flush policy for the nodes (§3.11 ablation).
    pub flush_policy: FlushPolicy,
    /// Per-call reply deadline. `None` (the default) waits forever, which
    /// is correct on a fault-free network; any run that injects message
    /// loss or partitions via [`crate::FaultPlan`] should set a deadline so
    /// lost exchanges surface as [`RpcError::Timeout`] instead of hanging.
    pub call_timeout: Option<Duration>,
    /// Depth of each node's bounded request queue. A full queue rejects the
    /// request with [`RpcError::Busy`] before it is enqueued (backpressure
    /// shedding); `None` makes the queue unbounded.
    pub node_queue_depth: Option<usize>,
    /// Stripe shards per storage node: requests for stripes in different
    /// shards are served without lock contention (see
    /// [`ajx_storage::ShardedNode`]).
    pub state_shards: usize,
    /// Durability backend for the nodes (DESIGN.md §10). The default
    /// in-memory mode is the original behavior: a restart loses
    /// everything. WAL mode journals to one file per node and enables
    /// [`Network::restart_node_with_disk`].
    pub persist: PersistMode,
}

impl Default for NetworkConfig {
    /// A fast-test default: 4 nodes, 64-byte blocks, no latency or
    /// bandwidth simulation.
    fn default() -> Self {
        NetworkConfig {
            n_nodes: 4,
            block_size: 64,
            one_way_latency: Duration::ZERO,
            client_bandwidth: None,
            node_bandwidth: None,
            server_threads: 4,
            code: None,
            flush_policy: FlushPolicy::WriteThrough,
            call_timeout: None,
            node_queue_depth: Some(1024),
            state_shards: 8,
            persist: PersistMode::InMemory,
        }
    }
}

/// Locks `m`. Handler panics are caught before they can poison a lock.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One request in a node's queue, with where its reply goes (`None`: the
/// fault plan lost the reply, or the request is a duplicate nobody awaits).
struct Job {
    req: Request,
    reply: Option<ReplyTo>,
}

/// One round's replies — a `call`, a `call_many` or `broadcast`, or one
/// `submit_call` — in one slot per call. Every slot starts armed, so
/// arming takes no lock; the calls that will never be posted (lost,
/// refused) are disarmed together once the round is enqueued. Only the
/// post that completes the round wakes its client, and only if it waits;
/// earlier posts wake nobody. A complete round's replies are taken in one
/// lock ([`Round::take_all`]).
struct Round {
    /// Armed calls not yet posted; zero once the round is complete.
    /// Posts decrement it under `state`'s lock, so a client that checks it
    /// there before sleeping cannot miss the last post.
    unposted: AtomicUsize,
    state: Mutex<RoundState>,
    done: Condvar,
}

struct RoundState {
    replies: Vec<Option<Result<Reply, RpcError>>>,
    /// The client sleeps on `done` until `unposted` reaches zero.
    waiting: bool,
}

impl Round {
    fn new(calls: usize) -> Arc<Self> {
        Arc::new(Round {
            unposted: AtomicUsize::new(calls),
            state: Mutex::new(RoundState {
                replies: vec![None; calls],
                waiting: false,
            }),
            done: Condvar::new(),
        })
    }

    /// Drops `calls` slots that no node will post — lost or refused calls
    /// — in one step. Only the round's own client disarms, before it waits.
    fn disarm(&self, calls: usize) {
        if calls > 0 {
            self.unposted.fetch_sub(calls, Ordering::AcqRel);
        }
    }

    fn post(&self, slot: usize, result: Result<Reply, RpcError>) {
        let mut st = lock(&self.state);
        if let Some(reply) = st.replies.get_mut(slot) {
            *reply = Some(result);
        }
        let wake = self.unposted.fetch_sub(1, Ordering::AcqRel) == 1 && st.waiting;
        drop(st);
        if wake {
            self.done.notify_one();
        }
    }

    /// Call `slot`'s reply, if it has been posted and not yet taken.
    fn take(&self, slot: usize) -> Option<Result<Reply, RpcError>> {
        lock(&self.state)
            .replies
            .get_mut(slot)
            .and_then(Option::take)
    }

    /// Every slot's reply, in one lock; for a complete round.
    fn take_all(&self) -> Vec<Option<Result<Reply, RpcError>>> {
        std::mem::take(&mut lock(&self.state).replies)
    }

    /// Whether every armed call has been posted. Takes no lock.
    fn complete(&self) -> bool {
        self.unposted.load(Ordering::Acquire) == 0
    }

    /// Blocks until every armed call has been posted, or `until` passes.
    fn await_posts(&self, until: Option<Instant>) {
        let mut st = lock(&self.state);
        st.waiting = true;
        while !self.complete() {
            st = match until {
                None => self.done.wait(st).unwrap_or_else(PoisonError::into_inner),
                Some(until) => {
                    let Some(left) = until.checked_duration_since(Instant::now()) else {
                        break;
                    };
                    let waited = self.done.wait_timeout(st, left);
                    waited.unwrap_or_else(PoisonError::into_inner).0
                }
            };
        }
        st.waiting = false;
    }
}

/// A worker's handle on one slot of a round. [`ReplyTo::post`] posts the
/// node's answer; dropped unposted, or posted with no answer — its node
/// closed by a panicking handler, or the network dropped — it posts
/// [`RpcError::NetTornDown`], so no client waits on a reply that cannot
/// come.
struct ReplyTo {
    /// `None` once posted.
    round: Option<Arc<Round>>,
    slot: usize,
    node: NodeId,
}

impl ReplyTo {
    fn post(mut self, answer: Option<Result<Reply, RpcError>>) {
        if let Some(round) = self.round.take() {
            let torn_down = Err(RpcError::NetTornDown(self.node));
            round.post(self.slot, answer.unwrap_or(torn_down));
        }
    }
}

impl Drop for ReplyTo {
    fn drop(&mut self) {
        if let Some(round) = self.round.take() {
            round.post(self.slot, Err(RpcError::NetTornDown(self.node)));
        }
    }
}

/// What a round's submits leave to do once its last call is enqueued
/// ([`Network::settle`]).
enum Owed {
    /// Notify this many parked workers, each handed a wake-up by a submit.
    Wakes(usize),
    /// Nothing was handed out: the waiting client serves the round itself
    /// ([`Shared::serve_round`]).
    Serve,
}

/// One storage node as the pool serves it.
struct NodeSlot {
    node: ShardedNode,
    up: AtomicBool,
    nic: Option<TokenBucket>,
}

impl NodeSlot {
    /// Serves one request as the node's NIC and handler would: a node that
    /// is down refuses, and a power trip during the request's commit is an
    /// indeterminate `Timeout`. `None`: the handler panicked.
    fn serve(&self, id: NodeId, req: Request) -> Option<Result<Reply, RpcError>> {
        if !self.up.load(Ordering::SeqCst) {
            return Some(Err(RpcError::NodeDown(id)));
        }
        if let Some(nic) = &self.nic {
            nic.consume(req.wire_bytes());
        }
        // A node that crashed while the request was queued never replies
        // with data.
        if !self.up.load(Ordering::SeqCst) {
            return Some(Err(RpcError::NodeDown(id)));
        }
        // No outer node lock: the sharded node locks only the stripe
        // shards this request touches, so workers on independent stripes
        // proceed in parallel.
        let reply = catch_unwind(AssertUnwindSafe(|| self.node.handle(req))).ok()?;
        // A power failure tripping during this request's commit means the
        // machine died before the reply left it: the node goes down and the
        // caller sees an indeterminate timeout — the write may or may not
        // have become durable (ack-after-fsync semantics).
        if self.node.persist_tripped() {
            self.up.store(false, Ordering::SeqCst);
            return Some(Err(RpcError::Timeout(id)));
        }
        if let Some(nic) = &self.nic {
            nic.consume(reply.wire_bytes());
        }
        Some(Ok(reply))
    }
}

/// One node's queue and what the pool does with it.
#[derive(Default)]
struct NodeQueue {
    jobs: VecDeque<Job>,
    /// Jobs of this node that workers hold: at most `per_node`.
    serving: usize,
    /// [`Network::pause_node`]: a worker holds the node's job it took until
    /// the node resumes — how tests pin a node's queue at a known depth.
    paused: bool,
    /// A handler panicked: the node takes no more requests.
    closed: bool,
}

/// The pool's books, under one lock with every node's queue.
#[derive(Default)]
struct PoolState {
    queues: Vec<NodeQueue>,
    /// Where the next search starts, so nodes are served round-robin.
    cursor: usize,
    /// Workers awake and looking for a job.
    searching: usize,
    /// Workers parked on `Shared::work`.
    idle: usize,
    /// Wake-ups handed to idle workers and not yet claimed by one.
    wakeups: usize,
    workers: Vec<JoinHandle<()>>,
}

impl PoolState {
    /// Takes the head of the first queue from the cursor on whose node serves
    /// fewer than `per_node` and that `may_take` accepts, and books it as
    /// served.
    fn take_job(
        &mut self,
        per_node: usize,
        may_take: impl Fn(usize, &NodeQueue) -> bool,
    ) -> Option<(usize, Job)> {
        let n = self.queues.len();
        for i in (self.cursor..n).chain(0..self.cursor) {
            let Some(q) = self
                .queues
                .get_mut(i)
                .filter(|q| q.serving < per_node && may_take(i, q))
            else {
                continue;
            };
            if let Some(job) = q.jobs.pop_front() {
                q.serving += 1;
                self.cursor = (i + 1) % n;
                return Some((i, job));
            }
        }
        None
    }

    /// Whether some queued job's node serves fewer than `per_node`.
    fn runnable(&self, per_node: usize) -> bool {
        self.queues
            .iter()
            .any(|q| q.serving < per_node && !q.jobs.is_empty())
    }
}

/// The storage nodes and the one worker pool that serves them all, shared
/// by the [`Network`] and its workers.
struct Shared {
    nodes: Vec<NodeSlot>,
    pool: Mutex<PoolState>,
    /// Idle workers park here.
    work: Condvar,
    /// Workers holding a paused node's job park here.
    resumed: Condvar,
    /// Requests one node serves at once ([`NetworkConfig::server_threads`]).
    per_node: usize,
    /// Each node's queue depth; `None` is unbounded.
    depth: Option<usize>,
    /// Set once, by `Network::drop`: workers serve nothing more and exit.
    closing: AtomicBool,
    /// Network-wide traffic counters; workers decrement in-flight gauges.
    stats: NetStats,
}

impl Shared {
    /// The one wake policy: unless a worker is searching the queues, hand an
    /// idle one a wake-up — `Ok(true)`: notify `work` once the pool lock is
    /// dropped — or start one while the pool is below `n × per_node`.
    fn ensure_searcher(self: &Arc<Self>, st: &mut PoolState) -> std::io::Result<bool> {
        if st.searching > 0 {
            return Ok(false);
        }
        if st.idle > 0 {
            st.idle -= 1;
            st.wakeups += 1;
            st.searching += 1;
            return Ok(true);
        }
        if st.workers.len() < self.nodes.len() * self.per_node {
            let shared = Arc::clone(self);
            let worker = std::thread::Builder::new()
                .name(format!("net-worker-{}", st.workers.len()))
                .spawn(move || shared.work())?;
            st.workers.push(worker);
            st.searching += 1;
        }
        Ok(false)
    }

    /// Whether serving node `i`'s next job can block the thread serving it:
    /// held at a paused node's gate until the node resumes, or metered
    /// through a shaped node NIC.
    fn may_block(&self, i: usize, q: &NodeQueue) -> bool {
        q.paused || self.nodes.get(i).is_some_and(|slot| slot.nic.is_some())
    }

    /// A worker's life: take the next servable job, serve it, post its
    /// reply; park when there is none; exit once the network is dropped.
    /// A worker starts, or is woken, already counted as searching.
    fn work(self: Arc<Self>) {
        let closing = || self.closing.load(Ordering::SeqCst);
        let mut st = lock(&self.pool);
        loop {
            let Some((i, job)) = st.take_job(self.per_node, |_, _| true) else {
                st.searching -= 1;
                if closing() {
                    return;
                }
                st.idle += 1;
                loop {
                    st = self.work.wait(st).unwrap_or_else(PoisonError::into_inner);
                    if st.wakeups > 0 {
                        st.wakeups -= 1;
                        break;
                    }
                    if closing() {
                        st.idle -= 1;
                        return;
                    }
                }
                continue;
            };
            st.searching -= 1;
            // A job that can block its worker passes the search on first, so
            // no other node's job waits behind it. A worker that only
            // computes does not, and so serves a whole fan-out alone.
            if st.queues.get(i).is_some_and(|q| self.may_block(i, q))
                && st.runnable(self.per_node)
                && self.ensure_searcher(&mut st).unwrap_or(false)
            {
                self.work.notify_one();
            }
            st = self.run_job(st, i, job, true);
        }
    }

    /// Serves `job`, just taken from node `i`'s queue under `st`, and posts
    /// its reply: the one serve path, for a worker and for a client serving
    /// its own round ([`Shared::serve_round`], `worker: false`). A paused
    /// node's job is held at its gate first. Returns the pool lock, retaken
    /// once: a client posts before it retakes it; a worker is back to
    /// searching before the reply leaves, so a client whose next call lands
    /// now finds a searcher and wakes nobody.
    fn run_job<'a>(
        &'a self,
        mut st: MutexGuard<'a, PoolState>,
        i: usize,
        job: Job,
        worker: bool,
    ) -> MutexGuard<'a, PoolState> {
        let closing = || self.closing.load(Ordering::SeqCst);
        while st.queues.get(i).is_some_and(|q| q.paused) && !closing() {
            st = self.resumed.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        // Nothing more is served once the network is dropped, nor after a
        // panic closed the node; `None` from `serve`: it panicked.
        let unserved = closing() || st.queues.get(i).is_some_and(|q| q.closed);
        drop(st);
        let Job { req, reply } = job;
        let answer = match self.nodes.get(i) {
            Some(slot) if !unserved => slot.serve(NodeId(i as u32), req),
            _ => None,
        };
        let panicked = answer.is_none() && !unserved;
        self.stats.dec_inflight(i);
        let unsent = match reply {
            Some(reply) if !worker => {
                reply.post(answer);
                None
            }
            reply => reply.map(|reply| (reply, answer)),
        };
        st = lock(&self.pool);
        st.searching += usize::from(worker);
        if let Some(q) = st.queues.get_mut(i) {
            q.serving -= 1;
            q.closed |= panicked;
        }
        if let Some((reply, answer)) = unsent {
            drop(st);
            reply.post(answer);
            st = lock(&self.pool);
        }
        st
    }

    /// A blocking round's client, which would only wait, serves queued jobs
    /// itself — any node's, by the workers' `take_job` rule, never one that
    /// can block — until `round` completes or nothing it may take is left.
    /// Its submits handed out no wake-up, so a runnable job it leaves gets a
    /// searching worker now, woken only then; a round that leaves none wakes
    /// nobody. Should no worker start, it serves every runnable job itself.
    fn serve_round(self: &Arc<Self>, round: &Round) {
        let mut st = lock(&self.pool);
        let mut alone = false;
        loop {
            let next = if alone || !round.complete() {
                st.take_job(self.per_node, |i, q| alone || !self.may_block(i, q))
            } else {
                None
            };
            if let Some((i, job)) = next {
                st = self.run_job(st, i, job, false);
                continue;
            }
            if !st.runnable(self.per_node) {
                return;
            }
            match self.ensure_searcher(&mut st) {
                Ok(woke) => {
                    drop(st);
                    if woke {
                        self.work.notify_one();
                    }
                    return;
                }
                Err(_) => alone = true,
            }
        }
    }
}

/// The shared in-process network holding every storage node.
///
/// Cheap to share (`Arc`); create per-client endpoints with
/// [`Network::client`]. Dropping the last `Arc` joins the worker pool.
pub struct Network {
    shared: Arc<Shared>,
    latency: Duration,
    client_bandwidth: Option<u64>,
    call_timeout: Option<Duration>,
    faults: FaultPlan,
}

impl Network {
    /// Builds the network and its storage nodes. Workers start on demand.
    pub fn new(cfg: NetworkConfig) -> Arc<Self> {
        let nodes: Vec<NodeSlot> = (0..cfg.n_nodes)
            .map(|i| {
                let id = NodeId(i as u32);
                let mut node = ShardedNode::new(id, cfg.block_size, cfg.state_shards)
                    .with_flush_policy(cfg.flush_policy)
                    .with_persistence(backend_for(&cfg.persist, i as u32));
                if let Some(code) = &cfg.code {
                    node = node.with_code(code.clone());
                }
                NodeSlot {
                    node,
                    up: AtomicBool::new(true),
                    nic: cfg.node_bandwidth.map(TokenBucket::new),
                }
            })
            .collect();
        let queues = nodes.iter().map(|_| NodeQueue::default()).collect();
        Arc::new(Network {
            shared: Arc::new(Shared {
                nodes,
                pool: Mutex::new(PoolState { queues, ..PoolState::default() }),
                work: Condvar::new(),
                resumed: Condvar::new(),
                per_node: cfg.server_threads.max(1),
                depth: cfg.node_queue_depth.map(|d| d.max(1)),
                closing: AtomicBool::new(false),
                stats: NetStats::with_nodes(cfg.n_nodes),
            }),
            latency: cfg.one_way_latency,
            client_bandwidth: cfg.client_bandwidth,
            call_timeout: cfg.call_timeout,
            faults: FaultPlan::new(),
        })
    }

    fn slot(&self, node: NodeId) -> Option<&NodeSlot> {
        self.shared.nodes.get(node.0 as usize)
    }

    /// Number of storage nodes.
    pub fn n_nodes(&self) -> usize {
        self.shared.nodes.len()
    }

    /// Creates an endpoint through which a client issues RPCs.
    pub fn client(self: &Arc<Self>, id: ClientId) -> ClientEndpoint {
        let fault_seq = (0..self.n_nodes()).map(|_| AtomicU64::new(0)).collect();
        ClientEndpoint {
            net: Arc::clone(self),
            id,
            nic: self.client_bandwidth.map(TokenBucket::new),
            stats: NetStats::new(),
            calls_before_kill: AtomicU64::new(u64::MAX),
            killed: AtomicBool::new(false),
            fault_seq,
        }
    }

    /// The network's fault-injection plan (inert until configured).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The per-call reply deadline, if one was configured.
    pub fn call_timeout(&self) -> Option<Duration> {
        self.call_timeout
    }

    /// Fail-stops a storage node: subsequent RPCs return
    /// [`RpcError::NodeDown`].
    pub fn crash_node(&self, node: NodeId) {
        if let Some(slot) = self.slot(node) {
            slot.up.store(false, Ordering::SeqCst);
        }
    }

    /// Remaps the logical node to a fresh replacement (§3.5): the node
    /// comes back up with `opmode = INIT` and `garbage_byte` contents.
    /// With a durable backend this also swaps the medium — the journal
    /// restarts from the remap event.
    pub fn remap_node(&self, node: NodeId, garbage_byte: u8) {
        if let Some(slot) = self.slot(node) {
            slot.node.fail_remap(garbage_byte);
            slot.up.store(true, Ordering::SeqCst);
        }
    }

    /// Restart-with-disk: wipes the node's RAM, replays its journal, and
    /// brings it back up — possibly stale if commits were deferred, but
    /// never corrupt (DESIGN.md §10). Returns `false`, leaving the node
    /// down and untouched, if it has no durable backend; the caller must
    /// wipe-and-rebuild via [`Network::remap_node`] instead.
    pub fn restart_node_with_disk(&self, node: NodeId) -> bool {
        let Some(slot) = self.slot(node) else {
            return false;
        };
        if slot.node.restart_from_disk() {
            slot.up.store(true, Ordering::SeqCst);
            true
        } else {
            false
        }
    }

    /// Arms a simulated power failure on `node`: the journal commit that
    /// would push the durable length past `offset` bytes tears there and
    /// the node dies mid-ack (see [`ajx_storage::Persistence::power_fail_at`]).
    /// No effect on in-memory nodes.
    pub fn arm_power_failure(&self, node: NodeId, offset: u64) {
        if let Some(slot) = self.slot(node) {
            slot.node.persistence().power_fail_at(offset);
        }
    }

    /// Whether `node`'s durability backend has tripped an armed power
    /// failure (used by drivers that commit outside the RPC path).
    pub fn node_persist_tripped(&self, node: NodeId) -> bool {
        self.slot(node).is_some_and(|s| s.node.persist_tripped())
    }

    /// Durability counters for `node`'s backend (fsyncs, records, bytes).
    pub fn persist_stats(&self, node: NodeId) -> PersistStats {
        self.slot(node)
            .map(|s| s.node.persistence().stats())
            .unwrap_or_default()
    }

    /// Pauses the node: each worker that takes one of its jobs parks right
    /// after dequeuing it, until [`Network::resume_node`]. Test
    /// instrumentation: holding the node's jobs lets a test fill its bounded
    /// queue to a known depth and observe [`RpcError::Busy`] shedding
    /// deterministically.
    pub fn pause_node(&self, node: NodeId) {
        if let Some(q) = lock(&self.shared.pool).queues.get_mut(node.0 as usize) {
            q.paused = true;
        }
    }

    /// Releases workers parked by [`Network::pause_node`].
    pub fn resume_node(&self, node: NodeId) {
        if let Some(q) = lock(&self.shared.pool).queues.get_mut(node.0 as usize) {
            q.paused = false;
        }
        self.shared.resumed.notify_all();
    }

    /// Requests waiting in the node's queue (not counting any a worker has
    /// already dequeued). 0 for unknown nodes.
    pub fn node_queue_len(&self, node: NodeId) -> usize {
        lock(&self.shared.pool)
            .queues
            .get(node.0 as usize)
            .map_or(0, |q| q.jobs.len())
    }

    /// Whether the node is currently reachable.
    pub fn node_is_up(&self, node: NodeId) -> bool {
        self.slot(node).is_some_and(|s| s.up.load(Ordering::SeqCst))
    }

    /// Fail-stop detection of a *client* (§2): expires the recovery locks it
    /// held at every node (Fig. 6 line 34). Returns total locks expired.
    pub fn notify_client_failure(&self, client: ClientId) -> usize {
        self.shared
            .nodes
            .iter()
            .map(|s| s.node.on_client_failure(client))
            .sum()
    }

    /// Runs `f` with every stripe shard of a node locked at once — for
    /// tests and monitoring to read a consistent picture of its state.
    /// Requests, a test's included, go through a [`ClientEndpoint`].
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range.
    pub fn with_node<R>(&self, node: NodeId, f: impl FnOnce(&mut NodeView<'_>) -> R) -> R {
        #[expect(
            clippy::indexing_slicing,
            reason = "test/monitoring path with a documented `# Panics` contract, \
                      never reached by request handling"
        )]
        let slot = &self.shared.nodes[node.0 as usize];
        f(&mut slot.node.lock_all())
    }

    /// Network-wide traffic counters.
    pub fn stats(&self) -> &NetStats {
        &self.shared.stats
    }

    /// Draws the fate of `ep`'s next call to `node` — the one place a
    /// call's transport fate is drawn, at launch, in per-link submission
    /// order ([`Launch::call`] applies it). The fate comes from the
    /// endpoint's per-link sequence counters, keeping the injected
    /// drop/delay/duplicate decisions deterministic per `(seed, link, seq)`.
    fn dispatch(&self, ep: &ClientEndpoint, node: NodeId) -> Fate {
        match ep.fault_seq.get(node.0 as usize) {
            Some(ctr) => {
                let seq = ctr.fetch_add(1, Ordering::Relaxed);
                self.faults.fate(ep.id, node, seq)
            }
            // Unknown node: no link exists, the enqueue rejects it.
            None => Fate::CLEAN,
        }
    }

    /// Does what `round`'s submits `owed`, once the whole round is
    /// enqueued: notifies the parked workers they handed a wake-up, so the
    /// woken worker finds the round whole, or serves the round here.
    fn settle(&self, round: &Round, owed: Owed) {
        match owed {
            Owed::Wakes(wakes) => (0..wakes).for_each(|_| self.shared.work.notify_one()),
            Owed::Serve => self.shared.serve_round(round),
        }
    }
}

impl Drop for Network {
    /// Drops queued and paused-held jobs unserved (their calls resolve
    /// [`RpcError::NetTornDown`]) and joins every worker, so the nodes'
    /// memory is freed here, not later by a detached thread.
    fn drop(&mut self) {
        let workers = {
            let mut st = lock(&self.shared.pool);
            self.shared.closing.store(true, Ordering::SeqCst);
            st.queues.iter_mut().for_each(|q| q.jobs.clear());
            std::mem::take(&mut st.workers)
        };
        self.shared.work.notify_all();
        self.shared.resumed.notify_all();
        for worker in workers {
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("n_nodes", &self.n_nodes())
            .field("latency", &self.latency)
            .finish_non_exhaustive()
    }
}

/// A client's connection to the network.
///
/// Synchronous [`ClientEndpoint::call`]s model RPC; parallel fan-out
/// (the paper's `pfor`) is [`ClientEndpoint::call_many`], which issues the
/// whole batch in one round without spawning threads. The endpoint meters
/// its own NIC bandwidth and records per-client traffic stats — that
/// per-client accounting is what the Fig. 1 and Fig. 9 experiments report.
pub struct ClientEndpoint {
    net: Arc<Network>,
    id: ClientId,
    nic: Option<TokenBucket>,
    stats: NetStats,
    /// Remaining successful calls before fault injection kills this client.
    calls_before_kill: AtomicU64,
    killed: AtomicBool,
    /// Per-node call counters feeding the [`FaultPlan`]'s deterministic
    /// per-link decision streams.
    fault_seq: Vec<AtomicU64>,
}

impl ClientEndpoint {
    /// The client's identity.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// The network this endpoint belongs to.
    pub fn network(&self) -> &Arc<Network> {
        &self.net
    }

    /// Per-client traffic counters.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Fault injection: the client fail-stops after `calls` more RPCs.
    /// Used to create the paper's partial-write states deterministically.
    pub fn kill_after(&self, calls: u64) {
        self.calls_before_kill.store(calls, Ordering::SeqCst);
    }

    /// Whether fault injection has killed this client.
    pub fn is_killed(&self) -> bool {
        self.killed.load(Ordering::SeqCst)
    }

    /// Spends the kill budget of `members` outgoing requests, one each, in
    /// one step, and returns how many of them, from the first, are
    /// admitted. The first request it refuses kills the client.
    fn admit(&self, members: usize) -> usize {
        if members == 0 || self.killed.load(Ordering::SeqCst) {
            return 0;
        }
        let want = members as u64;
        let left = self
            .calls_before_kill
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                Some(v.saturating_sub(want))
            });
        let left = left.unwrap_or_else(|v| v);
        if left < want {
            self.killed.store(true, Ordering::SeqCst);
        }
        left.min(want) as usize
    }

    /// One synchronous RPC: request out, reply back — a round of one.
    ///
    /// # Errors
    ///
    /// [`RpcError::NodeDown`] / [`RpcError::UnknownNode`] for unreachable
    /// targets; [`RpcError::ClientKilled`] once fault injection fires;
    /// [`RpcError::Timeout`] when the deadline passes or the fault plan
    /// loses the exchange; [`RpcError::NetTornDown`] when the node's
    /// handler panics mid-call.
    pub fn call(&self, node: NodeId, req: Request) -> Result<Reply, RpcError> {
        let admitted = self.admit(1) == 1;
        let mut launch = self.launch(1, false, self.blocking_round());
        let mut call = launch.call(0, node, req, admitted);
        let mut wait = Wait::new(launch.finish());
        let result = wait.resolve(self, 0, &mut call);
        wait.books.close(self);
        result
    }

    /// Parallel fan-out — the paper's `pfor`: every call of the round is
    /// submitted before the first is waited on, so the round shares one
    /// propagation window (the client NIC still serializes the payloads),
    /// and the replies are returned in order.
    pub fn call_many(&self, calls: Vec<(NodeId, Request)>) -> Vec<Result<Reply, RpcError>> {
        self.round(calls, false)
    }

    /// Broadcast (§3.11): sends the *same* payload to many nodes, paying
    /// the client-side bandwidth only once — "use broadcast to send `add`
    /// ... thus saving client bandwidth". Each target still produces its
    /// own reply.
    ///
    /// `requests` normally differ only in their target; the payload of the
    /// first is charged to the client NIC, modeling link-layer multicast.
    pub fn broadcast(&self, requests: Vec<(NodeId, Request)>) -> Vec<Result<Reply, RpcError>> {
        self.round(requests, true)
    }

    /// One blocking round of `calls`: admit them all (a `multicast`'s
    /// first call admits the round), launch them, then resolve each call in
    /// order and book the round once.
    fn round(
        &self,
        calls: Vec<(NodeId, Request)>,
        multicast: bool,
    ) -> Vec<Result<Reply, RpcError>> {
        let members = calls.len();
        let admitted = self.admit(if multicast { members.min(1) } else { members });
        let mut launch = self.launch(members, multicast, self.blocking_round());
        let mut calls: Vec<Call> = calls
            .into_iter()
            .enumerate()
            .map(|(slot, (node, req))| {
                let admitted = if multicast {
                    admitted > 0
                } else {
                    slot < admitted
                };
                launch.call(slot, node, req, admitted)
            })
            .collect();
        let mut wait = Wait::new(launch.finish());
        let results = calls
            .iter_mut()
            .enumerate()
            .map(|(slot, call)| wait.resolve(self, slot, call))
            .collect();
        wait.books.close(self);
        results
    }

    /// Starts an RPC without blocking: the returned [`PendingCall`] is
    /// driven to completion by [`ClientEndpoint::poll_call`]. One thread may
    /// hold any number of `PendingCall`s, and the blocking calls are this
    /// plus a wait (at zero latency with no client NIC, the wait
    /// begins by serving the round: `Owed::Serve`), so one timing model
    /// holds for every caller:
    ///
    /// * a call's fate is drawn once, at launch, in `Network::dispatch`, in
    ///   per-link submission order;
    /// * the request is enqueued at the node at launch;
    /// * nothing about the call is observable before `ready_at` = launch
    ///   time + client-NIC reservation + 2 × one-way latency + injected
    ///   delay;
    /// * an arrived reply is released after its client-NIC drain;
    /// * a delivered call times out at `ready_at + call_timeout`; a lost
    ///   call resolves to `Timeout` at exactly that instant, or as soon as
    ///   `ready_at` passes when no deadline is set.
    ///
    /// At nonzero latency the node may therefore execute a request before
    /// its outbound leg has elapsed: throughput and latency accounting
    /// hold, cross-client arrival order does not. At zero latency with no
    /// NIC shaping, `ready_at` is the launch instant and nothing is slept.
    pub fn submit_call(&self, node: NodeId, req: Request) -> PendingCall {
        let admitted = self.admit(1) == 1;
        let mut launch = self.launch(1, false, Owed::Wakes(0));
        let call = launch.call(0, node, req, admitted);
        let (round, sent_at) = launch.finish();
        PendingCall {
            round,
            sent_at,
            call,
        }
    }

    /// How a blocking round's submits leave it. At zero latency with no
    /// client NIC its `ready_at` is the launch instant, so its client has
    /// nothing to do but wait: it serves the round itself
    /// ([`Owed::Serve`]). Otherwise they wake workers at once and the
    /// client sleeps to `ready_at`.
    fn blocking_round(&self) -> Owed {
        if self.net.latency.is_zero() && self.nic.is_none() {
            Owed::Serve
        } else {
            Owed::Wakes(0)
        }
    }

    /// Starts a round of `members` calls, which leave the client through
    /// [`Launch::call`]: one clock read for the round, its slots armed.
    fn launch(&self, members: usize, multicast: bool, owed: Owed) -> Launch<'_> {
        Launch {
            ep: self,
            round: Round::new(members),
            now: Instant::now(),
            multicast,
            owed,
            pool: None,
            run: 0,
            admitted: NetSnapshot::default(),
            sent: NetSnapshot::default(),
            shed: 0,
            unarmed: members,
        }
    }

    /// Polls a [`PendingCall`] once: `None` while the exchange is still in
    /// flight (or its modeled latency has not elapsed), `Some(result)`
    /// exactly once when it resolves. Never blocks.
    ///
    /// # Panics
    ///
    /// Panics if called again after it has returned `Some`.
    pub fn poll_call(&self, call: &mut PendingCall) -> Option<Result<Reply, RpcError>> {
        let mut books = Books::new(call.sent_at);
        let round = &call.round;
        // A round of one is complete once its only call is posted.
        let posted = || round.complete().then(|| round.take(0)).flatten();
        let resolved = self.poll(&mut call.call, Instant::now(), posted, &mut books);
        books.close(self);
        resolved
    }

    /// Resolves `call` at `now` if it can, exactly as the timing model on
    /// [`ClientEndpoint::submit_call`] says: `None` while nothing about it
    /// is observable. `posted` takes its reply from its round, if one was
    /// posted; a received reply is booked in `books`.
    fn poll(
        &self,
        call: &mut Call,
        now: Instant,
        posted: impl FnOnce() -> Option<Result<Reply, RpcError>>,
        books: &mut Books,
    ) -> Option<Result<Reply, RpcError>> {
        // Nothing is observable before `ready_at`.
        if now < call.ready_at {
            return None;
        }
        let deadline = self.deadline(call);
        match std::mem::replace(&mut call.state, CallState::Done) {
            #[expect(
                clippy::panic,
                reason = "documented `# Panics` contract for local API misuse — \
                          not reachable from remote input"
            )]
            CallState::Done => panic!("poll_call on an already-resolved call"),
            CallState::Failed(e) => Some(Err(e)),
            CallState::Arrived(result) => Some(books.receive(self, *result, now)),
            // A lost exchange surfaces only at its deadline (as soon as
            // `ready_at` passes when no deadline is configured).
            CallState::Lost if deadline.is_some_and(|d| now < d) => {
                call.state = CallState::Lost;
                None
            }
            CallState::Lost => Some(Err(RpcError::Timeout(call.node))),
            CallState::InFlight => match posted() {
                Some(result) => self.arrive(call, result, now, books),
                None if deadline.is_some_and(|d| now >= d) => {
                    Some(Err(RpcError::Timeout(call.node)))
                }
                None => {
                    call.state = CallState::InFlight;
                    None
                }
            },
        }
    }

    /// When a call still unanswered gives up: `ready_at + call_timeout`.
    fn deadline(&self, call: &Call) -> Option<Instant> {
        self.net.call_timeout.map(|t| call.ready_at + t)
    }

    /// The arrival step every received reply takes, polled or waited on:
    /// the reply is released once it has drained through the client NIC —
    /// at once when that takes no time, else `call` is parked as arrived
    /// until `now` plus the drain.
    fn arrive(
        &self,
        call: &mut Call,
        result: Result<Reply, RpcError>,
        now: Instant,
        books: &mut Books,
    ) -> Option<Result<Reply, RpcError>> {
        let drain = match (&result, &self.nic) {
            (Ok(reply), Some(nic)) => nic.consume_nonblocking(reply.wire_bytes()),
            _ => Duration::ZERO,
        };
        if drain.is_zero() {
            call.state = CallState::Done;
            Some(books.receive(self, result, now))
        } else {
            call.ready_at = now + drain;
            call.state = CallState::Arrived(Box::new(result));
            None
        }
    }
}

/// Enqueues a round takes under one hold of the pool lock: a large round
/// lets other clients and the workers in between its runs.
const ENQUEUE_RUN: usize = 32;

/// A round on its way out ([`ClientEndpoint::launch`]): the clock read
/// once, the pool lock held across runs of up to [`ENQUEUE_RUN`] enqueues,
/// and the books and the slots no node will post tallied until
/// [`Launch::finish`] settles them once.
struct Launch<'a> {
    ep: &'a ClientEndpoint,
    round: Arc<Round>,
    /// The round's launch instant: every call's `sent_at`, and the base of
    /// its `ready_at`.
    now: Instant,
    /// A `broadcast`: one payload, sent and booked by the first call.
    multicast: bool,
    owed: Owed,
    pool: Option<MutexGuard<'a, PoolState>>,
    /// Enqueues under the current hold of `pool`.
    run: usize,
    /// The client's sends: the admitted calls.
    admitted: NetSnapshot,
    /// The network's sends: the enqueued messages, duplicates included.
    sent: NetSnapshot,
    /// Calls a full queue refused.
    shed: u64,
    /// Slots no reply was armed for, to disarm.
    unarmed: usize,
}

impl<'a> Launch<'a> {
    /// The one way a call leaves the client: reserve client NIC time for
    /// its admitted bytes, draw its fate ([`Network::dispatch`]) and apply
    /// it — drop the request, enqueue a duplicate, enqueue it with its
    /// reply armed for `slot` unless the fate drops the reply — and fix
    /// `ready_at`. A call the kill budget did not admit fails at once.
    fn call(&mut self, slot: usize, node: NodeId, req: Request, admitted: bool) -> Call {
        let ep = self.ep;
        if !admitted {
            return Call {
                node,
                ready_at: self.now,
                state: CallState::Failed(RpcError::ClientKilled),
            };
        }
        let payload = req.payload_bytes() as u64;
        let bytes = req.wire_bytes() as u64;
        // A multicast's first call sends the shared payload; the rest ride
        // on it.
        let nic_bytes = if self.multicast && slot > 0 {
            0
        } else {
            self.admitted.msgs_sent += 1;
            self.admitted.bytes_sent += bytes;
            self.admitted.payload_sent += payload;
            bytes
        };
        let nic_wait = ep.nic.as_ref().map_or(Duration::ZERO, |nic| {
            nic.consume_nonblocking(nic_bytes as usize)
        });
        let fate = ep.net.dispatch(ep, node);
        let ready_at = self.now + nic_wait + ep.net.latency * 2 + fate.delay;
        let state = if !fate.deliver_req {
            CallState::Lost
        } else {
            if fate.duplicate_req {
                // At-least-once delivery: the node executes the request a
                // second time; the duplicate's reply goes nowhere.
                let _ = self.enqueue(node, req.clone(), (bytes, payload), None);
            }
            // The node executes the request either way; a lost reply is one
            // it sends nowhere.
            let reply_to = (!fate.drop_reply).then_some(slot);
            match self.enqueue(node, req, (bytes, payload), reply_to) {
                Ok(()) if fate.drop_reply => CallState::Lost,
                Ok(()) => CallState::InFlight,
                Err(e) => {
                    self.shed += u64::from(matches!(e, RpcError::Busy(_)));
                    CallState::Failed(e)
                }
            }
        };
        Call {
            node,
            ready_at,
            state,
        }
    }

    /// Enqueues `req` at `node`, its reply armed for `reply_to`'s slot, and
    /// makes sure a worker will serve it — counting into `owed` a parked
    /// worker handed the wake-up, for [`Network::settle`] to notify —
    /// unless the round is [`Owed::Serve`]. Every refusal comes before the
    /// enqueue, so it is determinate. The pool lock is taken once per run
    /// of [`ENQUEUE_RUN`] enqueues.
    fn enqueue(
        &mut self,
        node: NodeId,
        req: Request,
        (bytes, payload): (u64, u64),
        reply_to: Option<usize>,
    ) -> Result<(), RpcError> {
        let shared = &self.ep.net.shared;
        if self.run == ENQUEUE_RUN {
            self.pool = None;
            self.run = 0;
        }
        self.run += 1;
        let st = &mut **self.pool.get_or_insert_with(|| lock(&shared.pool));
        let i = node.0 as usize;
        let (Some(slot), Some(q)) = (shared.nodes.get(i), st.queues.get(i)) else {
            return Err(RpcError::UnknownNode(node));
        };
        // Crashed, or closed by a handler's panic.
        if !slot.up.load(Ordering::SeqCst) || q.closed {
            return Err(RpcError::NodeDown(node));
        }
        // Backpressure: the bounded queue is full and the request is never
        // enqueued — determinate, so the caller may resend after backing
        // off (no remap).
        if shared.depth.is_some_and(|depth| q.jobs.len() >= depth) {
            return Err(RpcError::Busy(node));
        }
        // A job its node can take now needs a searching worker, unless the
        // waiting client serves the round; one that cannot be started
        // refuses the request, again before the enqueue.
        let runnable = q.serving < shared.per_node;
        if let (Owed::Wakes(wakes), true) = (&mut self.owed, runnable) {
            let woke = shared
                .ensure_searcher(st)
                .map_err(|_| RpcError::Busy(node))?;
            *wakes += usize::from(woke);
        }
        // Under the pool lock, so no worker can answer — and decrement the
        // gauge — before it goes up.
        shared.stats.inc_inflight(i);
        let reply = reply_to.map(|slot| ReplyTo {
            round: Some(Arc::clone(&self.round)),
            slot,
            node,
        });
        self.unarmed -= usize::from(reply.is_some());
        if let Some(q) = st.queues.get_mut(i) {
            q.jobs.push_back(Job { req, reply });
        }
        // Counted only once the queue accepted the message: a send that
        // never left the client must not inflate `msgs_sent`.
        self.sent.msgs_sent += 1;
        self.sent.bytes_sent += bytes;
        self.sent.payload_sent += payload;
        Ok(())
    }

    /// The round is enqueued: release the pool, disarm the slots no node
    /// will post, book the sends and sheds once on the client's and the
    /// network's [`NetStats`], and settle what the submits owed — at zero
    /// latency, serve the round. Returns the round and its launch instant.
    fn finish(self) -> (Arc<Round>, Instant) {
        let Launch {
            ep,
            round,
            now,
            owed,
            pool,
            admitted,
            sent,
            shed,
            unarmed,
            ..
        } = self;
        drop(pool);
        round.disarm(unarmed);
        ep.stats.add(&admitted);
        ep.net.stats().add(&sent);
        for stats in [&ep.stats, ep.net.stats()] {
            stats.record_busy_sheds(shed);
        }
        ep.net.settle(&round, owed);
        (round, now)
    }
}

/// A blocking round's resolution: its replies, taken in one lock once the
/// round is complete, the clock as last read, and what its resolved calls
/// add to the books.
struct Wait {
    round: Arc<Round>,
    replies: Option<Vec<Option<Result<Reply, RpcError>>>>,
    now: Instant,
    books: Books,
}

impl Wait {
    fn new((round, sent_at): (Arc<Round>, Instant)) -> Self {
        Wait {
            round,
            replies: None,
            now: Instant::now(),
            books: Books::new(sent_at),
        }
    }

    /// Blocks until `call`, slot `slot` of the round, resolves exactly as
    /// [`ClientEndpoint::poll_call`] would resolve it — the only place a
    /// client waits. Sleeps to `ready_at` (a lost call: to its deadline); a
    /// reply not posted by then is awaited on its round until the
    /// deadline, and only the post that completes the round wakes the
    /// client.
    fn resolve(
        &mut self,
        ep: &ClientEndpoint,
        slot: usize,
        call: &mut Call,
    ) -> Result<Reply, RpcError> {
        loop {
            let (round, replies) = (&self.round, &mut self.replies);
            let posted = || {
                if replies.is_none() && round.complete() {
                    *replies = Some(round.take_all());
                }
                match replies {
                    Some(replies) => replies.get_mut(slot).and_then(Option::take),
                    None => round.take(slot),
                }
            };
            if let Some(resolved) = ep.poll(call, self.now, posted, &mut self.books) {
                return resolved;
            }
            let deadline = ep.deadline(call);
            let wake = match call.state {
                CallState::InFlight if self.now >= call.ready_at => {
                    self.round.await_posts(deadline);
                    self.now = Instant::now();
                    continue;
                }
                CallState::Lost => deadline.unwrap_or(call.ready_at),
                _ => call.ready_at,
            };
            self.now = Instant::now();
            if self.now < wake {
                std::thread::sleep(wake - self.now);
                self.now = Instant::now();
            }
        }
    }
}

/// What resolved calls add to the books, added once per round
/// ([`Books::close`]): receives and round trips to the client's
/// [`NetStats`], receives to the network's, and one latency sample per
/// call, grouped by the instant it resolved.
struct Books {
    /// The round's launch instant, which latency is measured from.
    sent_at: Instant,
    received: NetSnapshot,
    /// When the calls of the latency group not yet recorded resolved.
    resolved_at: Option<Instant>,
    samples: u64,
}

impl Books {
    fn new(sent_at: Instant) -> Self {
        Books {
            sent_at,
            received: NetSnapshot::default(),
            resolved_at: None,
            samples: 0,
        }
    }

    /// Books a call that received `result` at `now` — one round trip and
    /// one latency sample if it is a reply — and hands it back.
    fn receive(
        &mut self,
        ep: &ClientEndpoint,
        result: Result<Reply, RpcError>,
        now: Instant,
    ) -> Result<Reply, RpcError> {
        if let Ok(reply) = &result {
            self.received.msgs_received += 1;
            self.received.bytes_received += reply.wire_bytes() as u64;
            self.received.payload_received += reply.payload_bytes() as u64;
            self.received.round_trips += 1;
            if self.resolved_at != Some(now) {
                self.record_latencies(ep);
                self.resolved_at = Some(now);
            }
            self.samples += 1;
        }
        result
    }

    fn record_latencies(&mut self, ep: &ClientEndpoint) {
        if let Some(at) = self.resolved_at {
            let latency = at.saturating_duration_since(self.sent_at);
            ep.stats.record_latencies(latency, self.samples);
        }
        self.samples = 0;
    }

    /// Adds what was booked to the client's and the network's counters;
    /// the network counts receives only.
    fn close(mut self, ep: &ClientEndpoint) {
        self.record_latencies(ep);
        ep.stats.add(&self.received);
        ep.net.stats().add(&NetSnapshot {
            round_trips: 0,
            ..self.received
        });
    }
}

/// One call of a round as its client sees it, from launch to resolution.
struct Call {
    node: NodeId,
    /// Earliest instant at which any outcome is observable: send-side NIC
    /// drain + both propagation legs + injected link delay, with the
    /// reply's NIC drain folded in on arrival.
    ready_at: Instant,
    state: CallState,
}

enum CallState {
    /// Enqueued: the node answers into the call's slot of its round.
    InFlight,
    /// The request or its reply was lost; resolves to `Timeout` once the
    /// deadline passes.
    Lost,
    /// Failed before reaching the node's queue.
    Failed(RpcError),
    /// Reply received; released once `ready_at` passes (boxed: only a
    /// shaped client NIC parks a reply).
    Arrived(Box<Result<Reply, RpcError>>),
    /// Resolved — polling again is a caller bug.
    Done,
}

/// One outstanding RPC started by [`ClientEndpoint::submit_call`], resolved
/// by repeated [`ClientEndpoint::poll_call`]s: a round of one. Holding many
/// of these on one thread is the scale-out alternative to one blocked
/// thread per call.
pub struct PendingCall {
    round: Arc<Round>,
    /// When the request left the client (latency histogram anchor).
    sent_at: Instant,
    call: Call,
}

impl PendingCall {
    /// The node this call targets.
    pub fn node(&self) -> NodeId {
        self.call.node
    }
}

impl std::fmt::Debug for PendingCall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match &self.call.state {
            CallState::InFlight => "in-flight",
            CallState::Arrived(_) => "arrived",
            CallState::Lost => "lost",
            CallState::Failed(_) => "failed",
            CallState::Done => "done",
        };
        f.debug_struct("PendingCall")
            .field("node", &self.node())
            .field("state", &state)
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for ClientEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientEndpoint")
            .field("id", &self.id)
            .field("killed", &self.is_killed())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajx_storage::{StripeId, Tid};

    /// One wait between polls of a test's wait loop: a short sleep, not
    /// `yield_now`, so the waiting test leaves the CPU to the workers it
    /// waits on and to the tests running beside it.
    pub(super) fn pause() {
        std::thread::sleep(Duration::from_micros(100));
    }

    /// Polls `call` until it resolves.
    pub(super) fn await_reply(
        client: &ClientEndpoint,
        call: &mut PendingCall,
    ) -> Result<Reply, RpcError> {
        loop {
            match client.poll_call(call) {
                Some(r) => break r,
                None => pause(),
            }
        }
    }

    fn net4() -> Arc<Network> {
        Network::new(NetworkConfig::default())
    }

    fn tid(seq: u64, c: u32) -> Tid {
        Tid::new(seq, 0, ClientId(c))
    }

    #[test]
    fn call_round_trips_through_node() {
        let net = net4();
        let client = net.client(ClientId(1));
        let reply = client
            .call(
                NodeId(0),
                Request::Swap {
                    stripe: StripeId(0),
                    value: vec![5; 64],
                    ntid: tid(1, 1),
                },
            )
            .unwrap();
        assert!(matches!(reply, Reply::Swap(s) if s.block == Some(vec![0; 64])));
        let snap = client.stats().snapshot();
        assert_eq!(snap.msgs_sent, 1);
        assert_eq!(snap.round_trips, 1);
    }

    #[test]
    fn crashed_node_returns_node_down_until_remap() {
        let net = net4();
        let client = net.client(ClientId(1));
        net.crash_node(NodeId(2));
        assert!(!net.node_is_up(NodeId(2)));
        let err = client
            .call(NodeId(2), Request::Read { stripe: StripeId(0) })
            .unwrap_err();
        assert_eq!(err, RpcError::NodeDown(NodeId(2)));

        net.remap_node(NodeId(2), 0xAB);
        assert!(net.node_is_up(NodeId(2)));
        // The remapped node is up but in INIT mode: read returns ⊥.
        let reply = client
            .call(NodeId(2), Request::Read { stripe: StripeId(0) })
            .unwrap();
        assert!(matches!(reply, Reply::Read(r) if r.block.is_none()));
    }

    #[test]
    fn unknown_node_is_an_error() {
        let net = net4();
        let client = net.client(ClientId(1));
        let err = client
            .call(NodeId(99), Request::Read { stripe: StripeId(0) })
            .unwrap_err();
        assert_eq!(err, RpcError::UnknownNode(NodeId(99)));
    }

    #[test]
    fn kill_after_stops_the_client_mid_sequence() {
        let net = net4();
        let client = net.client(ClientId(1));
        client.kill_after(2);
        let read = Request::Read { stripe: StripeId(0) };
        assert!(client.call(NodeId(0), read.clone()).is_ok());
        assert!(client.call(NodeId(0), read.clone()).is_ok());
        assert_eq!(
            client.call(NodeId(0), read.clone()).unwrap_err(),
            RpcError::ClientKilled
        );
        assert!(client.is_killed());
        // Once killed, always killed.
        assert_eq!(
            client.call(NodeId(0), read).unwrap_err(),
            RpcError::ClientKilled
        );
    }

    #[test]
    fn kill_budget_applies_within_a_batch() {
        let net = net4();
        let client = net.client(ClientId(1));
        client.kill_after(2);
        let calls: Vec<_> = (0..4)
            .map(|i| (NodeId(i), Request::Read { stripe: StripeId(0) }))
            .collect();
        let replies = client.call_many(calls);
        let ok = replies.iter().filter(|r| r.is_ok()).count();
        assert_eq!(ok, 2, "exactly the remaining budget succeeds");
        assert_eq!(replies[2], Err(RpcError::ClientKilled));
        assert_eq!(replies[3], Err(RpcError::ClientKilled));
    }

    #[test]
    fn call_many_reaches_all_nodes_in_one_round() {
        let net = net4();
        let client = net.client(ClientId(1));
        let calls: Vec<_> = (0..4)
            .map(|i| (NodeId(i), Request::Read { stripe: StripeId(0) }))
            .collect();
        let replies = client.call_many(calls);
        assert_eq!(replies.len(), 4);
        assert!(replies.iter().all(|r| r.is_ok()));
        assert_eq!(client.stats().snapshot().round_trips, 4);
    }

    #[test]
    fn call_many_mixes_success_and_failure() {
        let net = net4();
        net.crash_node(NodeId(1));
        let client = net.client(ClientId(1));
        let calls: Vec<_> = (0..3)
            .map(|i| (NodeId(i), Request::Read { stripe: StripeId(0) }))
            .collect();
        let replies = client.call_many(calls);
        assert!(replies[0].is_ok());
        assert_eq!(replies[1], Err(RpcError::NodeDown(NodeId(1))));
        assert!(replies[2].is_ok());
    }

    #[test]
    fn broadcast_charges_sender_once() {
        let net = net4();
        let client = net.client(ClientId(1));
        let reqs: Vec<_> = (1..4)
            .map(|i| {
                (
                    NodeId(i),
                    Request::Add {
                        stripe: StripeId(0),
                        delta: vec![1; 64],
                        ntid: tid(1, 1),
                        otid: None,
                        epoch: ajx_storage::Epoch(0),
                        scale: None,
                    },
                )
            })
            .collect();
        let replies = client.broadcast(reqs);
        assert_eq!(replies.len(), 3);
        assert!(replies.iter().all(|r| r.is_ok()));
        let snap = client.stats().snapshot();
        assert_eq!(snap.msgs_sent, 1, "one multicast send");
        assert_eq!(snap.msgs_received, 3, "one reply per target");
    }

    #[test]
    fn batch_request_is_one_message_and_one_round_trip() {
        let net = net4();
        let client = net.client(ClientId(1));
        let members: Vec<Request> = (0..8)
            .map(|s| Request::Read { stripe: StripeId(s) })
            .collect();
        let reply = client.call(NodeId(0), Request::Batch(members)).unwrap();
        let Reply::Batch(replies) = reply else {
            panic!("expected Reply::Batch");
        };
        assert_eq!(replies.len(), 8);
        assert!(replies.iter().all(|r| matches!(r, Reply::Read(_))));
        let snap = client.stats().snapshot();
        assert_eq!(snap.msgs_sent, 1, "eight operations, one message");
        assert_eq!(snap.round_trips, 1, "eight operations, one round trip");
        // The node counted every member.
        net.with_node(NodeId(0), |n| assert_eq!(n.ops_handled(), 8));
    }

    #[test]
    fn batch_executes_atomically_under_contention() {
        // Two clients hammer the same stripe with swap+read batches; the
        // read in each batch must always observe its own batch's swap
        // (single lock acquisition), never the other client's interleaved
        // write.
        let net = Network::new(NetworkConfig {
            n_nodes: 1,
            server_threads: 4,
            ..NetworkConfig::default()
        });
        let clients: Vec<_> = (0..2).map(|i| net.client(ClientId(i + 1))).collect();
        std::thread::scope(|s| {
            for (ci, c) in clients.iter().enumerate() {
                s.spawn(move || {
                    for i in 0..200u64 {
                        let fill = ((ci as u8 + 1) * 7) ^ (i as u8);
                        let reply = c
                            .call(
                                NodeId(0),
                                Request::Batch(vec![
                                    Request::Swap {
                                        stripe: StripeId(0),
                                        value: vec![fill; 64],
                                        ntid: Tid::new(i + 1, 0, c.id()),
                                    },
                                    Request::Read { stripe: StripeId(0) },
                                ]),
                            )
                            .unwrap();
                        let Reply::Batch(rs) = reply else { panic!() };
                        let Reply::Read(r) = &rs[1] else { panic!() };
                        assert_eq!(
                            r.block.as_deref(),
                            Some(&vec![fill; 64][..]),
                            "a foreign request interleaved inside the batch"
                        );
                    }
                });
            }
        });
    }

    #[test]
    fn client_failure_notification_expires_locks() {
        let net = net4();
        let client = net.client(ClientId(7));
        client
            .call(
                NodeId(0),
                Request::TryLock {
                    stripe: StripeId(3),
                    lm: ajx_storage::LMode::L1,
                    caller: ClientId(7),
                },
            )
            .unwrap();
        assert_eq!(net.notify_client_failure(ClientId(7)), 1);
        net.with_node(NodeId(0), |n| {
            assert_eq!(
                n.block_state(StripeId(3)).unwrap().lmode(),
                ajx_storage::LMode::Exp
            );
        });
    }

    #[test]
    fn global_stats_see_all_clients() {
        let net = net4();
        let c1 = net.client(ClientId(1));
        let c2 = net.client(ClientId(2));
        c1.call(NodeId(0), Request::Read { stripe: StripeId(0) })
            .unwrap();
        c2.call(NodeId(1), Request::Read { stripe: StripeId(0) })
            .unwrap();
        assert_eq!(net.stats().snapshot().msgs_sent, 2);
    }

    #[test]
    fn many_concurrent_callers_scale_through_worker_pool() {
        // The regression this design fixes: concurrent closed-loop callers
        // must not serialize behind per-call thread spawning.
        let net = Network::new(NetworkConfig {
            n_nodes: 4,
            server_threads: 4,
            ..NetworkConfig::default()
        });
        let client = Arc::new(net.client(ClientId(1)));
        let ops = 500u32;
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let client = Arc::clone(&client);
                s.spawn(move || {
                    for i in 0..ops {
                        let node = NodeId((t + i) % 4);
                        client
                            .call(node, Request::Read { stripe: StripeId(0) })
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(client.stats().snapshot().round_trips as u32, 8 * ops);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::tests::{await_reply, pause};
    use super::*;
    use crate::fault::LinkFaults;
    use ajx_storage::{StripeId, Tid};

    fn faulty_net(cfg: NetworkConfig) -> Arc<Network> {
        Network::new(NetworkConfig {
            call_timeout: Some(Duration::from_millis(5)),
            ..cfg
        })
    }

    #[test]
    fn dropped_request_times_out_then_heals() {
        let net = faulty_net(NetworkConfig::default());
        let client = net.client(ClientId(1));
        net.faults().partition_requests(ClientId(1), NodeId(0));
        let err = client
            .call(NodeId(0), Request::Read { stripe: StripeId(0) })
            .unwrap_err();
        assert_eq!(err, RpcError::Timeout(NodeId(0)));
        // Other links unaffected.
        assert!(client.call(NodeId(1), Request::Read { stripe: StripeId(0) }).is_ok());
        net.faults().heal_partitions();
        assert!(client.call(NodeId(0), Request::Read { stripe: StripeId(0) }).is_ok());
    }

    #[test]
    fn dropped_reply_still_executes_the_request() {
        // The ambiguous half of a lost exchange: the node applies the swap,
        // the client sees only a timeout.
        let net = faulty_net(NetworkConfig::default());
        let client = net.client(ClientId(1));
        net.faults().partition_replies(ClientId(1), NodeId(0));
        let err = client
            .call(
                NodeId(0),
                Request::Swap {
                    stripe: StripeId(0),
                    value: vec![7; 64],
                    ntid: Tid::new(1, 0, ClientId(1)),
                },
            )
            .unwrap_err();
        assert_eq!(err, RpcError::Timeout(NodeId(0)));
        let mut applied = false;
        for _ in 0..200 {
            applied = net.with_node(NodeId(0), |n| {
                n.block_state(StripeId(0)).is_some_and(|s| s.raw_block() == &[7u8; 64][..])
            });
            if applied {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(applied, "swap must execute even though its reply was lost");
    }

    #[test]
    fn duplicated_request_is_delivered_twice_but_applied_once() {
        let net = faulty_net(NetworkConfig::default());
        let client = net.client(ClientId(1));
        net.faults().set_tracing(true);
        net.faults().set_link(
            ClientId(1),
            NodeId(0),
            LinkFaults { dup_req: 1.0, ..LinkFaults::default() },
        );
        // The transport delivers the add twice (at-least-once); the node's
        // tid dedup must apply the XOR exactly once — a second application
        // would cancel it back to zero.
        client
            .call(
                NodeId(0),
                Request::Add {
                    stripe: StripeId(0),
                    delta: vec![1; 64],
                    ntid: Tid::new(1, 0, ClientId(1)),
                    otid: None,
                    epoch: ajx_storage::Epoch(0),
                    scale: None,
                },
            )
            .unwrap();
        let mut applied = false;
        for _ in 0..200 {
            applied = net.with_node(NodeId(0), |n| {
                n.block_state(StripeId(0)).is_some_and(|s| s.raw_block() == &[1u8; 64][..])
            });
            if applied {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(applied, "the increment must land exactly once");
        let trace = net.faults().take_trace();
        assert!(
            trace.iter().any(|l| l.contains("dup-req")),
            "the duplicate must actually have been delivered: {trace:?}"
        );
    }

    #[test]
    fn fault_decisions_reproduce_across_identical_networks() {
        // No deadline: a lost exchange surfaces as `Timeout` at once and a
        // delivered one cannot time out, so the pattern is the fate draws
        // alone, not how fast the host answered.
        let run = || {
            let net = Network::new(NetworkConfig {
                call_timeout: None,
                ..NetworkConfig::default()
            });
            net.faults().set_seed(1234);
            net.faults().set_default_link(LinkFaults {
                drop_req: 0.25,
                drop_reply: 0.1,
                ..LinkFaults::default()
            });
            let client = net.client(ClientId(1));
            (0..200)
                .map(|i| {
                    client
                        .call(NodeId(i % 4), Request::Read { stripe: StripeId(0) })
                        .is_ok()
                })
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run(), "same seed, same outcome pattern");
        assert!(a.contains(&true) && a.contains(&false), "faults actually fired");
    }

    #[test]
    fn torn_down_worker_pool_is_not_a_killed_client() {
        // A malformed request panics the node's handler; its reply slot is
        // dropped unposted. Before the fix this surfaced as `ClientKilled`
        // — blaming a healthy caller.
        let net = Network::new(NetworkConfig {
            n_nodes: 1,
            server_threads: 1,
            call_timeout: Some(Duration::from_millis(200)),
            ..NetworkConfig::default()
        });
        let client = net.client(ClientId(1));
        let err = client
            .call(
                NodeId(0),
                Request::Add {
                    stripe: StripeId(0),
                    delta: vec![1; 8], // wrong size for 64-byte blocks
                    ntid: Tid::new(1, 0, ClientId(1)),
                    otid: None,
                    epoch: ajx_storage::Epoch(0),
                    scale: None,
                },
            )
            .unwrap_err();
        assert!(
            err.is_indeterminate(),
            "worker death mid-call must be indeterminate, got {err:?}"
        );
        assert_ne!(err, RpcError::ClientKilled);
        assert!(!client.is_killed(), "the caller is fine");

        // The panic closed the node: its queue rejects sends with NodeDown.
        let mut down = false;
        for _ in 0..500 {
            match client.call(NodeId(0), Request::Read { stripe: StripeId(0) }) {
                Err(RpcError::NodeDown(_)) => {
                    down = true;
                    break;
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        assert!(down, "a closed node must surface as NodeDown");

        // Regression (stats fix): a send rejected by the dead queue must
        // not count as sent.
        let sent_before = net.stats().snapshot().msgs_sent;
        assert!(matches!(
            client.call(NodeId(0), Request::Read { stripe: StripeId(0) }),
            Err(RpcError::NodeDown(_))
        ));
        assert_eq!(net.stats().snapshot().msgs_sent, sent_before);
    }

    #[test]
    fn batch_shares_one_fate_decision() {
        // drop_req = 0.5: over 40 batched calls some exchanges are lost and
        // some survive — but each batch lives or dies as a unit. A lost
        // batch times out whole; a delivered batch answers every member.
        let net = faulty_net(NetworkConfig::default());
        net.faults().set_seed(99);
        net.faults().set_link(
            ClientId(1),
            NodeId(0),
            LinkFaults { drop_req: 0.5, ..LinkFaults::default() },
        );
        let client = net.client(ClientId(1));
        let (mut lost, mut whole) = (0u32, 0u32);
        for s in 0..40 {
            let members: Vec<Request> = (0..4)
                .map(|j| Request::Read { stripe: StripeId(s * 4 + j) })
                .collect();
            match client.call(NodeId(0), Request::Batch(members)) {
                Err(RpcError::Timeout(_)) => lost += 1,
                Ok(Reply::Batch(rs)) => {
                    assert_eq!(rs.len(), 4, "a delivered batch answers all members");
                    whole += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(lost > 0 && whole > 0, "lost {lost}, whole {whole}");
        // One fate consumed per batch, not per member: the per-link fault
        // sequence advanced once per call.
        assert_eq!(
            client.fault_seq[0].load(Ordering::Relaxed),
            40,
            "one fault decision per batched exchange"
        );
    }

    #[test]
    fn partitioned_blocking_call_times_out_no_earlier_than_its_deadline() {
        let net = faulty_net(NetworkConfig::default());
        net.faults().partition_requests(ClientId(1), NodeId(0));
        let client = net.client(ClientId(1));
        let start = Instant::now();
        let err = client
            .call(NodeId(0), Request::Read { stripe: StripeId(0) })
            .unwrap_err();
        assert_eq!(err, RpcError::Timeout(NodeId(0)));
        assert!(
            start.elapsed() >= Duration::from_millis(5),
            "the loss surfaces only at the 5 ms deadline, got {:?}",
            start.elapsed()
        );
    }

    /// One timing model: the blocking calls and the submit/poll pair, given
    /// the same sequence on two identical faulty networks, draw the same
    /// fates and resolve every call the same way with the same books — single
    /// calls and 16-way rounds mixing lost and delivered members alike.
    #[test]
    fn blocking_calls_resolve_like_submit_and_poll() {
        let run = |blocking: bool| {
            let net = Network::new(NetworkConfig {
                n_nodes: 16,
                server_threads: 1, // node execution order = submission order
                call_timeout: None,
                ..NetworkConfig::default()
            });
            net.faults().set_seed(77);
            net.faults().set_tracing(true);
            net.faults().set_default_link(LinkFaults {
                drop_req: 0.15,
                drop_reply: 0.1,
                dup_req: 0.1,
                delay_p: 0.2,
                delay: Duration::from_micros(200),
            });
            let client = net.client(ClientId(1));
            let req = |i: u64| match i % 3 {
                0 => Request::Read { stripe: StripeId(i % 5) },
                _ => Request::Swap {
                    stripe: StripeId(i % 5),
                    value: vec![i as u8; 64],
                    ntid: Tid::new(i + 1, 0, ClientId(1)),
                },
            };
            let mut results = Vec::new();
            for i in 0..40u64 {
                let round: Vec<(NodeId, Request)> = if i % 2 == 0 {
                    vec![(NodeId((i % 16) as u32), req(i))]
                } else {
                    (0..16)
                        .map(|j| (NodeId(j), req(i * 16 + u64::from(j))))
                        .collect()
                };
                if blocking && round.len() == 1 {
                    let (node, r) = round.into_iter().next().unwrap();
                    results.push(client.call(node, r));
                } else if blocking {
                    results.extend(client.call_many(round));
                } else {
                    let mut pending: Vec<_> = round
                        .into_iter()
                        .map(|(node, r)| client.submit_call(node, r))
                        .collect();
                    for call in &mut pending {
                        results.push(await_reply(&client, call));
                    }
                }
            }
            let books = (
                client.stats().snapshot(),
                client.stats().latency_samples(),
                client.stats().busy_shed(),
                net.stats().snapshot(),
                net.stats().busy_shed(),
            );
            (results, net.faults().take_trace(), books)
        };
        let (blocking, polled) = (run(true), run(false));
        assert!(
            blocking.0.iter().any(|r| r.is_err()) && blocking.1.iter().any(|l| l.contains("delay")),
            "faults actually fired: {:?}",
            blocking.1
        );
        assert_eq!(blocking.0, polled.0, "same results");
        assert_eq!(blocking.1, polled.1, "same fate draws");
        assert_eq!(blocking.2, polled.2, "same books and latency samples");
    }

    /// Inside one 16-way round, a link that always duplicates and one that
    /// always loses the reply: the duplicated add lands once, the member
    /// whose reply is lost times out though its swap executed, and every
    /// other member answers.
    #[test]
    fn a_round_applies_a_duplicate_once_and_executes_a_lost_reply() {
        let net = faulty_net(NetworkConfig {
            n_nodes: 16,
            ..NetworkConfig::default()
        });
        net.faults().set_tracing(true);
        let (dup, lost) = (NodeId(3), NodeId(5));
        net.faults().set_link(
            ClientId(1),
            dup,
            LinkFaults { dup_req: 1.0, ..LinkFaults::default() },
        );
        net.faults().set_link(
            ClientId(1),
            lost,
            LinkFaults { drop_reply: 1.0, ..LinkFaults::default() },
        );
        let client = net.client(ClientId(1));
        let round: Vec<_> = (0..16)
            .map(|j| {
                let req = match NodeId(j) {
                    node if node == dup => Request::Add {
                        stripe: StripeId(0),
                        delta: vec![1; 64],
                        ntid: Tid::new(1, 0, ClientId(1)),
                        otid: None,
                        epoch: ajx_storage::Epoch(0),
                        scale: None,
                    },
                    node if node == lost => Request::Swap {
                        stripe: StripeId(0),
                        value: vec![7; 64],
                        ntid: Tid::new(1, 0, ClientId(1)),
                    },
                    _ => Request::Read { stripe: StripeId(0) },
                };
                (NodeId(j), req)
            })
            .collect();
        let replies = client.call_many(round);
        for (j, reply) in replies.iter().enumerate() {
            if NodeId(j as u32) == lost {
                assert_eq!(*reply, Err(RpcError::Timeout(lost)));
            } else {
                assert!(reply.is_ok(), "member {j}: {reply:?}");
            }
        }
        let block = |node, fill: u8| {
            net.with_node(node, |n| {
                n.block_state(StripeId(0))
                    .is_some_and(|s| s.raw_block() == &[fill; 64][..])
            })
        };
        let (mut served, start) = (false, Instant::now());
        while !served && start.elapsed() < Duration::from_secs(1) {
            served = net.with_node(dup, |n| n.ops_handled()) == 2 && block(lost, 7);
            pause();
        }
        assert!(served, "both copies of the add and the swap reach their nodes");
        assert!(block(dup, 1), "the increment lands exactly once");
        let trace = net.faults().take_trace();
        assert!(
            trace.iter().any(|l| l.contains("dup-req")),
            "the duplicate must actually have been delivered: {trace:?}"
        );
    }

    /// A 16-way round whose members are lost at different instants: on both
    /// paths every lost member resolves `Timeout` no earlier than its own
    /// deadline, every delivered one answers, and results, fate traces and
    /// books agree.
    #[test]
    fn round_members_resolve_at_their_own_deadlines() {
        const TIMEOUT: Duration = Duration::from_millis(20);
        const DELAY: Duration = Duration::from_millis(5);
        let delayed = LinkFaults {
            delay_p: 1.0,
            delay: DELAY,
            ..LinkFaults::default()
        };
        // Per member, by `j % 4`: lost at submit; lost after a delay; reply
        // lost after a delay (the request executes); delivered after a delay.
        let links = [
            LinkFaults {
                drop_req: 1.0,
                ..LinkFaults::default()
            },
            LinkFaults {
                drop_req: 1.0,
                ..delayed
            },
            LinkFaults {
                drop_reply: 1.0,
                ..delayed
            },
            delayed,
        ];
        let deadlines = [
            Some(TIMEOUT),
            Some(DELAY + TIMEOUT),
            Some(DELAY + TIMEOUT),
            None,
        ];
        let run = |blocking: bool| {
            let net = Network::new(NetworkConfig {
                n_nodes: 16,
                server_threads: 1,
                call_timeout: Some(TIMEOUT),
                ..NetworkConfig::default()
            });
            net.faults().set_tracing(true);
            for j in 0..16u32 {
                net.faults()
                    .set_link(ClientId(1), NodeId(j), links[j as usize % 4]);
            }
            let client = net.client(ClientId(1));
            let round: Vec<_> = (0..16)
                .map(|j| {
                    (
                        NodeId(j),
                        Request::Read {
                            stripe: StripeId(0),
                        },
                    )
                })
                .collect();
            let start = Instant::now();
            let resolved: Vec<(Result<Reply, RpcError>, Duration)> = if blocking {
                let results = client.call_many(round);
                let took = start.elapsed();
                results.into_iter().map(|r| (r, took)).collect()
            } else {
                let mut pending: Vec<_> = round
                    .into_iter()
                    .map(|(node, r)| client.submit_call(node, r))
                    .collect();
                let mut out = vec![None; pending.len()];
                while out.iter().any(Option::is_none) {
                    for (call, slot) in pending.iter_mut().zip(&mut out) {
                        if slot.is_none() {
                            *slot = client.poll_call(call).map(|r| (r, start.elapsed()));
                        }
                    }
                    pause();
                }
                out.into_iter().flatten().collect()
            };
            for (j, (result, at)) in resolved.iter().enumerate() {
                match deadlines[j % 4] {
                    Some(deadline) => {
                        assert_eq!(*result, Err(RpcError::Timeout(NodeId(j as u32))));
                        assert!(
                            *at >= deadline,
                            "member {j} resolved at {at:?}, before {deadline:?}"
                        );
                    }
                    None => assert!(result.is_ok(), "member {j}: {result:?}"),
                }
            }
            let results: Vec<_> = resolved.into_iter().map(|(r, _)| r).collect();
            let books = (client.stats().snapshot(), client.stats().latency_samples());
            (results, net.faults().take_trace(), books)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn slowdown_delays_but_does_not_fail_calls() {
        let net = Network::new(NetworkConfig::default());
        net.faults()
            .set_node_slowdown(NodeId(0), Duration::from_millis(3));
        let client = net.client(ClientId(1));
        let start = std::time::Instant::now();
        assert!(client.call(NodeId(0), Request::Read { stripe: StripeId(0) }).is_ok());
        assert!(start.elapsed() >= Duration::from_millis(3));
    }
}

#[cfg(test)]
mod reactor_tests {
    use super::tests::{await_reply, pause};
    use super::*;
    use ajx_storage::{StripeId, Tid};

    /// The satellite backpressure test: a saturated node sheds load with
    /// `Busy` instead of growing its queue without bound. Pausing the
    /// single worker pins the pipeline at a known state (1 job held by the
    /// worker + a full queue of 2), making the shed deterministic.
    #[test]
    fn saturated_node_sheds_load_with_busy() {
        let net = Network::new(NetworkConfig {
            n_nodes: 1,
            server_threads: 1,
            node_queue_depth: Some(2),
            ..NetworkConfig::default()
        });
        let client = net.client(ClientId(1));
        net.pause_node(NodeId(0));

        let read = Request::Read { stripe: StripeId(0) };
        let mut held = client.submit_call(NodeId(0), read.clone());
        // The paused worker dequeues the job and parks, emptying the queue.
        while net.node_queue_len(NodeId(0)) > 0 {
            pause();
        }
        let mut queued: Vec<_> = (0..2)
            .map(|_| client.submit_call(NodeId(0), read.clone()))
            .collect();
        assert_eq!(net.node_queue_len(NodeId(0)), 2, "queue at capacity");
        assert_eq!(net.stats().inflight(0), 3, "1 executing + 2 queued");

        // Queue full: the next request is shed before it is enqueued.
        let mut shed = client.submit_call(NodeId(0), read.clone());
        assert_eq!(
            client.poll_call(&mut shed),
            Some(Err(RpcError::Busy(NodeId(0)))),
            "a saturated node must reject, not buffer"
        );
        assert_eq!(net.node_queue_len(NodeId(0)), 2, "the shed request never queued");
        assert_eq!(client.stats().busy_shed(), 1, "the client counts its shed");

        // After the shed the node drains normally: nothing was lost.
        net.resume_node(NodeId(0));
        for call in std::iter::once(&mut held).chain(queued.iter_mut()) {
            await_reply(&client, call).expect("accepted requests complete after resume");
        }
        assert_eq!(net.stats().inflight(0), 0, "gauge returns to zero");
        // ≥ 3 rather than == 3: the shed request bumps the gauge briefly
        // before its rejection rolls it back, and the peak keeps that blip.
        assert!(net.stats().inflight_peak(0) >= 3);
    }

    /// The acceptance-criteria assertion at the transport level: concurrent
    /// clients hitting *independent* stripes (different shards) never
    /// contend on a node lock — the sharded node's contention counter stays
    /// exactly zero.
    #[test]
    fn independent_stripe_traffic_does_not_serialize() {
        let net = Network::new(NetworkConfig {
            n_nodes: 1,
            server_threads: 4,
            state_shards: 4,
            ..NetworkConfig::default()
        });
        let clients: Vec<_> = (0..4).map(|i| net.client(ClientId(i))).collect();
        std::thread::scope(|s| {
            for (t, c) in clients.iter().enumerate() {
                s.spawn(move || {
                    // Stripe t → shard t for every client: disjoint shards.
                    for i in 0..200u64 {
                        c.call(
                            NodeId(0),
                            Request::Batch(vec![
                                Request::Swap {
                                    stripe: StripeId(t as u64),
                                    value: vec![i as u8; 64],
                                    ntid: Tid::new(i + 1, 0, c.id()),
                                },
                                Request::Read { stripe: StripeId(t as u64) },
                            ]),
                        )
                        .unwrap();
                    }
                });
            }
        });
        net.with_node(NodeId(0), |n| {
            assert_eq!(
                n.contended_shard_locks(),
                0,
                "independent-stripe batches must not serialize"
            );
            assert_eq!(n.ops_handled(), 4 * 200 * 2);
        });
    }

    #[test]
    fn submit_poll_round_trip_matches_blocking_call() {
        let net = Network::new(NetworkConfig::default());
        let client = net.client(ClientId(1));
        let mut call = client.submit_call(
            NodeId(0),
            Request::Swap {
                stripe: StripeId(0),
                value: vec![5; 64],
                ntid: Tid::new(1, 0, ClientId(1)),
            },
        );
        let reply = await_reply(&client, &mut call).unwrap();
        assert!(matches!(reply, Reply::Swap(s) if s.block == Some(vec![0; 64])));
        let snap = client.stats().snapshot();
        assert_eq!(snap.msgs_sent, 1);
        assert_eq!(snap.round_trips, 1);
        assert_eq!(client.stats().latency_samples(), 1);
    }

    #[test]
    fn poll_call_respects_modeled_latency() {
        let net = Network::new(NetworkConfig {
            one_way_latency: Duration::from_millis(2),
            ..NetworkConfig::default()
        });
        let client = net.client(ClientId(1));
        let start = Instant::now();
        let mut call = client.submit_call(NodeId(0), Request::Read { stripe: StripeId(0) });
        assert!(
            client.poll_call(&mut call).is_none(),
            "nothing observable before the round trip elapses"
        );
        await_reply(&client, &mut call).unwrap();
        assert!(
            start.elapsed() >= Duration::from_millis(4),
            "a 2 ms one-way latency means a ≥4 ms round trip, got {:?}",
            start.elapsed()
        );
    }

    /// A 4-way round pays one round-trip window. The yardstick is four
    /// serial calls timed just before it, so a slow host slows both sides:
    /// the round must take under three eighths of their total — one and a
    /// half windows, which a round of two windows or more does not make.
    /// Tests running beside this one can stall any single measurement, so
    /// the round gets three attempts.
    #[test]
    fn blocking_calls_pay_one_shared_round_trip_window() {
        let net = Network::new(NetworkConfig {
            one_way_latency: Duration::from_millis(2),
            ..NetworkConfig::default()
        });
        let client = net.client(ClientId(1));
        let read = || Request::Read { stripe: StripeId(0) };
        let floor = Duration::from_millis(4);
        let mut attempts = Vec::new();
        for _ in 0..3 {
            let start = Instant::now();
            for i in 0..4 {
                let call = Instant::now();
                client.call(NodeId(i), read()).unwrap();
                assert!(
                    call.elapsed() >= floor,
                    "a 2 ms one-way latency means a ≥4 ms round trip, got {:?}",
                    call.elapsed()
                );
            }
            let serial = start.elapsed();
            let start = Instant::now();
            let replies = client.call_many((0..4).map(|i| (NodeId(i), read())).collect());
            assert!(replies.iter().all(Result::is_ok));
            let took = start.elapsed();
            assert!(took >= floor, "a round pays its window: {took:?}");
            if took < serial * 3 / 8 {
                return;
            }
            attempts.push((took, serial));
        }
        panic!("a 4-way round shares one window, not four: (round, serial) {attempts:?}");
    }

    /// A round that a full queue partly sheds books only what it enqueued.
    /// At zero latency the waiting client serves its round only after the
    /// whole round is enqueued, so each of 4 nodes with queues of 2 takes
    /// its first two calls of 16 and sheds the other two.
    #[test]
    fn a_partly_shed_round_books_only_what_it_enqueued() {
        let net = Network::new(NetworkConfig {
            n_nodes: 4,
            node_queue_depth: Some(2),
            ..NetworkConfig::default()
        });
        let client = net.client(ClientId(1));
        let replies = client.call_many(
            (0..16)
                .map(|j| (NodeId(j % 4), Request::Read { stripe: StripeId(0) }))
                .collect(),
        );
        for (j, reply) in replies.iter().enumerate() {
            if j < 8 {
                assert!(reply.is_ok(), "member {j}: {reply:?}");
            } else {
                assert_eq!(*reply, Err(RpcError::Busy(NodeId(j as u32 % 4))));
            }
        }
        let (mine, all) = (client.stats().snapshot(), net.stats().snapshot());
        // The client books every admitted send; the network, the enqueued.
        assert_eq!((mine.msgs_sent, mine.msgs_received, mine.round_trips), (16, 8, 8));
        assert_eq!((all.msgs_sent, all.msgs_received, all.round_trips), (8, 8, 0));
        assert_eq!((client.stats().busy_shed(), net.stats().busy_shed()), (8, 8));
        assert_eq!(client.stats().latency_samples(), 8);
    }

    #[test]
    fn lost_exchange_resolves_to_timeout_via_poll() {
        let net = Network::new(NetworkConfig {
            call_timeout: Some(Duration::from_millis(5)),
            ..NetworkConfig::default()
        });
        net.faults().partition_requests(ClientId(1), NodeId(0));
        let client = net.client(ClientId(1));
        let start = Instant::now();
        let mut call = client.submit_call(NodeId(0), Request::Read { stripe: StripeId(0) });
        let err = await_reply(&client, &mut call).unwrap_err();
        assert_eq!(err, RpcError::Timeout(NodeId(0)));
        assert!(
            start.elapsed() >= Duration::from_millis(5),
            "the loss surfaces only after the deadline, got {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn multiplexed_clients_share_one_thread() {
        // 64 logical clients, one driving thread: every call completes and
        // per-client stats stay per-client. This is the scale-out shape
        // `ext_many_clients` runs at 10k.
        let net = Network::new(NetworkConfig::default());
        let clients: Vec<_> = (0..64).map(|i| net.client(ClientId(i))).collect();
        let mut pending: Vec<_> = clients
            .iter()
            .enumerate()
            .map(|(i, c)| {
                c.submit_call(
                    NodeId((i % 4) as u32),
                    Request::Read { stripe: StripeId(i as u64) },
                )
            })
            .collect();
        let mut done = vec![false; pending.len()];
        while !done.iter().all(|d| *d) {
            let mut progressed = false;
            for (i, call) in pending.iter_mut().enumerate() {
                if done[i] {
                    continue;
                }
                if let Some(r) = clients[i].poll_call(call) {
                    r.unwrap();
                    done[i] = true;
                    progressed = true;
                }
            }
            if !progressed {
                pause();
            }
        }
        for c in &clients {
            assert_eq!(c.stats().snapshot().round_trips, 1);
        }
        assert_eq!(net.stats().snapshot().round_trips, 0, "net counts receives only");
        assert_eq!(net.stats().snapshot().msgs_received, 64);
    }

    #[test]
    fn busy_is_retried_safely_because_never_enqueued() {
        // Even a non-idempotent swap may be resent after Busy: the shed
        // request provably never reached the node (ops_handled unchanged).
        let net = Network::new(NetworkConfig {
            n_nodes: 1,
            server_threads: 1,
            node_queue_depth: Some(1),
            ..NetworkConfig::default()
        });
        let client = net.client(ClientId(1));
        net.pause_node(NodeId(0));
        let swap = |seq| Request::Swap {
            stripe: StripeId(0),
            value: vec![seq as u8; 64],
            ntid: Tid::new(seq, 0, ClientId(1)),
        };
        let mut first = client.submit_call(NodeId(0), swap(1));
        while net.node_queue_len(NodeId(0)) > 0 {
            pause();
        }
        let mut filler = client.submit_call(NodeId(0), swap(2));
        let mut shed = client.submit_call(NodeId(0), swap(3));
        assert_eq!(
            client.poll_call(&mut shed),
            Some(Err(RpcError::Busy(NodeId(0))))
        );
        net.resume_node(NodeId(0));
        for call in [&mut first, &mut filler] {
            await_reply(&client, call).unwrap();
        }
        net.with_node(NodeId(0), |n| {
            assert_eq!(n.ops_handled(), 2, "the shed swap never executed");
        });
        // The resend goes through normally.
        let mut retry = client.submit_call(NodeId(0), swap(3));
        await_reply(&client, &mut retry).unwrap();
        net.with_node(NodeId(0), |n| assert_eq!(n.ops_handled(), 3));
    }


    /// One pool serves every node, so a node paused with a job held stalls
    /// no other node — even at one request per node, and even when the
    /// held job and the other node's were submitted as one fan-out.
    #[test]
    fn a_paused_node_does_not_stall_another() {
        let net = Network::new(NetworkConfig {
            n_nodes: 2,
            server_threads: 1,
            ..NetworkConfig::default()
        });
        let client = net.client(ClientId(1));
        let read = Request::Read {
            stripe: StripeId(0),
        };
        net.pause_node(NodeId(0));
        let mut held = client.submit_call(NodeId(0), read.clone());
        let mut fanned = client.submit_call(NodeId(1), read.clone());
        await_reply(&client, &mut fanned).expect("node 1 answers its fan-out member");
        while net.node_queue_len(NodeId(0)) > 0 {
            pause();
        }
        let mut queued = client.submit_call(NodeId(0), read.clone());
        assert!(
            client.call(NodeId(1), read).is_ok(),
            "node 1 answers a later call"
        );
        assert!(
            client.poll_call(&mut held).is_none(),
            "node 0 still holds its job"
        );
        net.resume_node(NodeId(0));
        await_reply(&client, &mut held).expect("the held job completes after resume");
        await_reply(&client, &mut queued).expect("so does the one queued behind it");
    }

    /// A request that panics node 0's handler closes node 0 alone: its own
    /// call resolves `NetTornDown`, node 1 keeps answering, and node 0
    /// refuses from then on.
    #[test]
    fn a_panicking_handler_closes_only_its_node() {
        let net = Network::new(NetworkConfig {
            n_nodes: 2,
            server_threads: 1,
            ..NetworkConfig::default()
        });
        let client = net.client(ClientId(1));
        let malformed = Request::Add {
            stripe: StripeId(0),
            delta: vec![1; 8], // wrong size for 64-byte blocks
            ntid: Tid::new(1, 0, ClientId(1)),
            otid: None,
            epoch: ajx_storage::Epoch(0),
            scale: None,
        };
        let read = Request::Read {
            stripe: StripeId(0),
        };
        assert_eq!(
            client.call(NodeId(0), malformed),
            Err(RpcError::NetTornDown(NodeId(0)))
        );
        assert!(
            client.call(NodeId(1), read.clone()).is_ok(),
            "node 1 still answers"
        );
        assert_eq!(
            client.call(NodeId(0), read),
            Err(RpcError::NodeDown(NodeId(0)))
        );
        assert_eq!(net.stats().inflight(0), 0);
    }

    /// Dropping a network while a paused node holds one job and has another
    /// queued returns promptly, joins every worker, and resolves both calls
    /// `NetTornDown`: no hang and no detached thread.
    #[test]
    fn dropping_the_network_joins_its_workers_and_tears_down_queued_calls() {
        let net = Network::new(NetworkConfig {
            n_nodes: 1,
            server_threads: 1,
            ..NetworkConfig::default()
        });
        let client = net.client(ClientId(1));
        let read = Request::Read {
            stripe: StripeId(0),
        };
        net.pause_node(NodeId(0));
        let mut held = client.submit_call(NodeId(0), read.clone());
        while net.node_queue_len(NodeId(0)) > 0 {
            pause();
        }
        let mut queued = client.submit_call(NodeId(0), read);
        let pool = Arc::downgrade(&net.shared);
        let start = Instant::now();
        drop(client);
        drop(net);
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "drop took {:?}",
            start.elapsed()
        );
        assert!(pool.upgrade().is_none(), "a worker outlived its network");
        // A call resolves from its round alone; any endpoint can poll it.
        let other = Network::new(NetworkConfig::default());
        let poller = other.client(ClientId(2));
        for call in [&mut held, &mut queued] {
            assert_eq!(
                poller.poll_call(call),
                Some(Err(RpcError::NetTornDown(NodeId(0))))
            );
        }
    }
}

#[cfg(test)]
mod server_thread_tests {
    use super::*;
    use ajx_storage::StripeId;

    #[test]
    fn single_server_thread_still_serves_concurrent_clients() {
        // §5.1: "the number of threads at the server limit the number of
        // RPC calls that are served simultaneously" — with one worker the
        // node serializes service but must remain live and correct.
        let net = Network::new(NetworkConfig {
            n_nodes: 2,
            server_threads: 1,
            ..NetworkConfig::default()
        });
        let clients: Vec<_> = (0..4).map(|i| net.client(ClientId(i))).collect();
        std::thread::scope(|s| {
            for c in &clients {
                s.spawn(move || {
                    for i in 0..100u64 {
                        c.call(
                            NodeId((i % 2) as u32),
                            Request::Read { stripe: StripeId(0) },
                        )
                        .unwrap();
                    }
                });
            }
        });
        assert_eq!(net.stats().snapshot().msgs_sent, 400);
    }

    #[test]
    fn jobs_queued_behind_a_crash_get_node_down_replies() {
        let net = Network::new(NetworkConfig {
            n_nodes: 1,
            server_threads: 1,
            ..NetworkConfig::default()
        });
        let client = net.client(ClientId(1));
        // Race a crash against a burst of calls: every call must resolve to
        // either a successful reply or NodeDown — never hang.
        std::thread::scope(|s| {
            let net2 = &net;
            s.spawn(move || {
                std::thread::yield_now();
                net2.crash_node(NodeId(0));
            });
            for _ in 0..50 {
                let _ = client.call(NodeId(0), Request::Read { stripe: StripeId(0) });
            }
        });
        assert!(!net.node_is_up(NodeId(0)));
    }
}

#[cfg(test)]
mod caller_serves_tests {
    use super::tests::pause;
    use super::*;
    use crate::fault::LinkFaults;
    use ajx_storage::{StripeId, Tid};

    /// The pool's books: `(searching, wake-ups owed, workers started)`.
    fn books(net: &Network) -> (usize, usize, usize) {
        let st = lock(&net.shared.pool);
        (st.searching, st.wakeups, st.workers.len())
    }

    fn read() -> Request {
        Request::Read {
            stripe: StripeId(0),
        }
    }

    /// Whether `done` comes to hold within a second.
    fn within_a_second(done: impl Fn() -> bool) -> bool {
        let start = Instant::now();
        while !done() {
            if start.elapsed() > Duration::from_secs(1) {
                return false;
            }
            pause();
        }
        true
    }

    /// At zero latency the waiting client serves its whole round: a 4-way
    /// `call_many` leaves no wake-up owed and no worker searching, and
    /// starts none.
    #[test]
    fn a_zero_latency_round_wakes_no_worker() {
        let net = Network::new(NetworkConfig::default());
        let client = net.client(ClientId(1));
        for _ in 0..3 {
            let replies = client.call_many((0..4).map(|i| (NodeId(i), read())).collect());
            assert!(replies.iter().all(Result::is_ok));
            assert_eq!(books(&net), (0, 0, 0), "(searching, wake-ups, workers)");
        }
        assert_eq!(client.stats().snapshot().round_trips, 12);
    }

    /// A job its round does not wait for — a duplicate and a request whose
    /// reply the fault plan drops — is left queued when the client stops
    /// serving, and a worker serves it: both copies reach the node, which
    /// applies the increment once.
    #[test]
    fn a_job_the_round_leaves_behind_is_served_by_a_worker() {
        let net = Network::new(NetworkConfig {
            call_timeout: Some(Duration::from_millis(5)),
            ..NetworkConfig::default()
        });
        net.faults().set_link(
            ClientId(1),
            NodeId(0),
            LinkFaults {
                dup_req: 1.0,
                drop_reply: 1.0,
                ..LinkFaults::default()
            },
        );
        let client = net.client(ClientId(1));
        let add = Request::Add {
            stripe: StripeId(0),
            delta: vec![1; 64],
            ntid: Tid::new(1, 0, ClientId(1)),
            otid: None,
            epoch: ajx_storage::Epoch(0),
            scale: None,
        };
        assert_eq!(
            client.call(NodeId(0), add),
            Err(RpcError::Timeout(NodeId(0)))
        );
        let served = within_a_second(|| net.with_node(NodeId(0), |n| n.ops_handled()) == 2);
        assert!(served, "both copies reach the node");
        assert_eq!(books(&net).2, 1, "a worker was started for them");
        net.with_node(NodeId(0), |n| {
            let applied = n.block_state(StripeId(0)).map(|s| s.raw_block().to_vec());
            assert_eq!(applied, Some(vec![1; 64]), "applied exactly once");
        });
        assert_eq!(net.stats().inflight(0), 0);
    }

    /// A job that can block its server — a paused node's, a shaped node
    /// NIC's — is never the client's: a worker takes it, while the client
    /// serves the rest of its round.
    #[test]
    fn a_client_never_serves_a_job_that_can_block() {
        let net = Network::new(NetworkConfig {
            n_nodes: 2,
            server_threads: 1,
            ..NetworkConfig::default()
        });
        let client = net.client(ClientId(1));
        net.pause_node(NodeId(0));
        let (held, replies) = std::thread::scope(|s| {
            let round =
                s.spawn(|| client.call_many(vec![(NodeId(0), read()), (NodeId(1), read())]));
            // Node 1's job served and node 0's taken; resumed either way, so
            // a failed check cannot leave the round's thread blocked.
            let held = within_a_second(|| {
                net.with_node(NodeId(1), |n| n.ops_handled()) == 1
                    && net.node_queue_len(NodeId(0)) == 0
            });
            let held = (held, books(&net).2);
            net.resume_node(NodeId(0));
            (held, round.join().expect("the round's thread"))
        });
        assert_eq!(
            held,
            (true, 1),
            "a worker, not the client, holds node 0's job"
        );
        assert!(replies.iter().all(Result::is_ok), "{replies:?}");

        let shaped = Network::new(NetworkConfig {
            node_bandwidth: Some(1 << 30),
            ..NetworkConfig::default()
        });
        let client = shaped.client(ClientId(1));
        assert!(client.call(NodeId(0), read()).is_ok());
        assert_eq!(books(&shaped).2, 1, "a worker served the shaped node");
    }

    /// Two clients serving rounds against one node at `server_threads: 1`
    /// never run two of its handlers at once: on one shard, no lock
    /// acquisition ever contends.
    #[test]
    fn clients_serving_one_node_keep_its_cap() {
        let net = Network::new(NetworkConfig {
            n_nodes: 1,
            server_threads: 1,
            state_shards: 1,
            ..NetworkConfig::default()
        });
        let clients: Vec<_> = (1..=2).map(|i| net.client(ClientId(i))).collect();
        let start = std::sync::Barrier::new(clients.len());
        std::thread::scope(|s| {
            for c in &clients {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for i in 0..500u64 {
                        let swap = Request::Swap {
                            stripe: StripeId(0),
                            value: vec![i as u8; 64],
                            ntid: Tid::new(i + 1, 0, c.id()),
                        };
                        c.call(NodeId(0), Request::Batch(vec![swap, read()]))
                            .expect("a batch on a healthy node");
                    }
                });
            }
        });
        net.with_node(NodeId(0), |n| {
            assert_eq!(n.ops_handled(), 2 * 500 * 2);
            assert_eq!(n.contended_shard_locks(), 0, "two handlers ran at once");
        });
    }
}
