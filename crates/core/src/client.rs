//! The client side of the AJX protocol: `READ` (Fig. 4), `WRITE` (Fig. 5),
//! garbage collection (Fig. 7), and the monitoring task (§3.10).
//!
//! All orchestration lives here, per the paper's "shift functionality to
//! clients" principle (§3). A [`Client`] is cheap and thread-safe: `&self`
//! methods may be called from many threads (the paper's "multiple threads,
//! one for each outstanding RPC call").
//!
//! `READ` and `WRITE` exist once each: every entry point — one block or
//! many — funnels into a window engine. `read_window` runs a fast round,
//! the window's degraded reads and its stripes' recovery in batched rounds
//! (DESIGN.md §8); `write_window` is the blocking driver over the sans-IO
//! per-block state machine in `write.rs` (DESIGN.md §7). Both hand the
//! stripes they find broken to the Fig. 6 engine as one window.
//!
//! Every round here — reads, swaps, adds, `checktid` probes, GC, the
//! monitor's probes — is one `rpc::pfor` over `(key, node, member)`s; the
//! key says which members share a message (DESIGN.md §6). A window of one
//! block reads with the plain `rpc::call`, and a §3.11 multicast goes
//! through `rpc::multicast`.

use crate::config::{ProtocolConfig, UpdateStrategy};
use crate::error::ProtocolError;
use crate::rebuild::{recover_stripes, RebuildReport};
use crate::rpc::{call, expect_reply, pfor};
use crate::write::BlockWrite;
use ajx_storage::{ClientId, NodeId, OpMode, Reply, Request, StripeId, SwapReply, Tid};
use ajx_transport::ClientEndpoint;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Most members one batched background message (a garbage-collection
/// phase, a monitoring sweep) carries: a node applies a batch under all of
/// its members' shard locks, and foreground reads must not wait behind an
/// unbounded one.
const FANOUT_CHUNK: usize = 256;

/// Whole-`WRITE` attempt budget: the outer `repeat` of Fig. 5, a fresh
/// swap each attempt.
const WRITE_ATTEMPT_LIMIT: u32 = 64;

/// Garbage-collection bookkeeping (Fig. 7's client-side `gc[j]`/`old[j]`
/// lists, keyed additionally by stripe since one client writes many
/// stripes).
#[derive(Debug, Default)]
struct GcLists {
    /// Completed writes not yet moved to nodes' oldlists (phase 2 input).
    pending: BTreeMap<(StripeId, usize), Vec<Tid>>,
    /// Writes whose tids nodes moved to oldlist; next cycle drops them
    /// (phase 1 input).
    old: BTreeMap<(StripeId, usize), Vec<Tid>>,
}

/// A swapped block inside the write engine.
struct Pending {
    /// Position of the block in the window's items.
    x: usize,
    bw: BlockWrite,
    /// Set when an RPC of this block failed indeterminately (or answered
    /// garbage): its write is over and this is what it reports.
    err: Option<ProtocolError>,
}

impl Pending {
    /// Still being driven, i.e. no RPC of this block has failed.
    fn live(&self) -> bool {
        self.err.is_none()
    }

    fn kill(&mut self, e: ProtocolError) {
        self.err.get_or_insert(e);
    }

    /// Feeds redundant node `j`'s answer to this block's `add` into the
    /// state machine.
    fn absorb(&mut self, j: usize, res: Result<Reply, ProtocolError>) {
        match res {
            Ok(Reply::Add(mut r)) => {
                // The node handed the increment's buffer back: the next
                // increment is staged in it.
                crate::pool::give(std::mem::take(&mut r.spent));
                self.bw.on_add(j, &r);
            }
            Ok(other) => self.kill(ProtocolError::unexpected("Reply::Add", &other)),
            Err(e) => self.kill(e),
        }
    }
}

/// One block of a write window: `(stripe, data index, value)`.
pub(crate) type WriteItem<'v> = (StripeId, usize, &'v [u8]);

/// One stripe's part in a write window.
struct StripeRun<'v> {
    stripe: StripeId,
    /// The stripe's blocks; `Pending::x` and `todo` index into them.
    items: &'v [WriteItem<'v>],
    backoff: crate::backoff::BackoffSession,
    /// Items that still need a swap; a block leaves the list when it is
    /// swapped and re-enters only by settling incomplete.
    todo: Vec<usize>,
    pending: Vec<Pending>,
    err: Option<ProtocolError>,
}

impl StripeRun<'_> {
    /// Retires settled blocks: complete ones are recorded for GC;
    /// incomplete ones with nothing left to try go back on the list for the
    /// next outer attempt's re-swap; failed ones report their error.
    fn retire(&mut self, cfg: &ProtocolConfig, gc: &Mutex<GcLists>) {
        for p in std::mem::take(&mut self.pending) {
            if p.live() && !p.bw.settled() {
                self.pending.push(p);
                continue;
            }
            let complete = p.bw.complete(cfg);
            let (ntid, d, old) = p.bw.finish();
            // The old block has served its deltas; recycle it for the next
            // write's staging buffers.
            crate::pool::give(old);
            if let Some(e) = p.err {
                self.err.get_or_insert(e);
            } else if complete {
                let mut gc = gc.lock();
                for j in d {
                    gc.pending.entry((self.stripe, j)).or_default().push(ntid);
                }
            } else {
                self.todo.push(p.x);
            }
        }
    }
}

/// Summary of one garbage-collection cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Tids moved from nodes' recentlists to oldlists (phase 2).
    pub moved_to_old: usize,
    /// Tids dropped from nodes' oldlists (phase 1).
    pub dropped: usize,
    /// `(stripe, index)` entries that found their block busy (locked/INIT)
    /// and were kept for the next cycle.
    pub skipped_busy: usize,
    /// Messages this cycle sent, both phases: at most one per storage node
    /// per `FANOUT_CHUNK` entries, whatever the number of stripes.
    pub messages: usize,
}

/// Summary of one monitoring sweep (§3.10).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MonitorReport {
    /// Stripes for which this sweep ran recovery.
    pub recovered: Vec<StripeId>,
    /// Stripes found healthy.
    pub healthy: usize,
}

/// A protocol client bound to one [`ClientEndpoint`].
///
/// # Example
///
/// ```
/// use ajx_core::{Client, ProtocolConfig};
/// use ajx_transport::{Network, NetworkConfig};
/// use ajx_storage::ClientId;
///
/// # fn main() -> Result<(), ajx_core::ProtocolError> {
/// let cfg = ProtocolConfig::new(2, 4, 64).expect("valid code");
/// let net = Network::new(NetworkConfig {
///     n_nodes: cfg.n(),
///     block_size: cfg.block_size,
///     ..NetworkConfig::default()
/// });
/// let client = Client::new(net.client(ClientId(1)), cfg);
///
/// client.write_block(0, vec![42; 64])?;
/// assert_eq!(client.read_block(0)?, vec![42; 64]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Client {
    endpoint: ClientEndpoint,
    cfg: ProtocolConfig,
    seq: AtomicU64,
    gc: Mutex<GcLists>,
}

impl Client {
    /// Binds a client to its transport endpoint and protocol configuration.
    pub fn new(endpoint: ClientEndpoint, cfg: ProtocolConfig) -> Self {
        Client {
            endpoint,
            cfg,
            seq: AtomicU64::new(0),
            gc: Mutex::new(GcLists::default()),
        }
    }

    /// This client's identity.
    pub fn id(&self) -> ClientId {
        self.endpoint.id()
    }

    /// The protocol configuration.
    pub fn config(&self) -> &ProtocolConfig {
        &self.cfg
    }

    /// The underlying transport endpoint (stats, fault injection).
    pub fn endpoint(&self) -> &ClientEndpoint {
        &self.endpoint
    }

    fn node_of(&self, stripe: StripeId, t: usize) -> NodeId {
        NodeId(self.cfg.layout.node_for(stripe.0, t) as u32)
    }

    /// Starts a backoff session for one operation's retry loop, seeded per
    /// (client, stripe, operation) so competing clients draw different
    /// jitter but a given run is reproducible.
    pub(crate) fn backoff(&self, stripe: StripeId, salt: u64) -> crate::backoff::BackoffSession {
        self.cfg
            .backoff
            .session((u64::from(self.id().0) << 40) ^ (stripe.0 << 8) ^ salt)
    }

    /// `READ` of a logical block (Fig. 4): one round trip to the data node
    /// in the failure-free case.
    ///
    /// # Errors
    ///
    /// Transport failures, [`ProtocolError::RetriesExhausted`] if another
    /// client's recovery never completes, or
    /// [`ProtocolError::Unrecoverable`] beyond the §4 failure bounds.
    pub fn read_block(&self, logical_block: u64) -> Result<Vec<u8>, ProtocolError> {
        let placement = self.cfg.layout.locate(logical_block);
        self.read_stripe_index(StripeId(placement.stripe), placement.index)
    }

    /// `READ` addressed by (stripe, data-block index).
    ///
    /// # Errors
    ///
    /// As [`Client::read_block`].
    pub fn read_stripe_index(
        &self,
        stripe: StripeId,
        i: usize,
    ) -> Result<Vec<u8>, ProtocolError> {
        assert!(i < self.cfg.k(), "data index {i} out of range");
        // A one-block read is a window of one.
        self.read_window(&[(stripe, i)]).pop().expect("one block")
    }

    /// Scatter-gather `READ`: fetches many logical blocks with one batched
    /// message per storage node (§3.11 batching) instead of one round trip
    /// per block.
    ///
    /// In the failure-free case every requested block is fetched exactly
    /// once and the whole call is a single `pfor` round over at most
    /// `min(len, n)` nodes — for a stripe-aligned sequential run of `m`
    /// blocks, `min(m, n)` round trips instead of `m`. The blocks the fast
    /// round cannot serve share their degraded reads' rounds and their
    /// stripes' recovery ([`Client::read_block`]'s steps, over the window).
    ///
    /// Returns the blocks in request order.
    ///
    /// # Errors
    ///
    /// As [`Client::read_block`]: the first block's error, after every block
    /// has had its chances.
    pub fn read_blocks(&self, lbs: &[u64]) -> Result<Vec<Vec<u8>>, ProtocolError> {
        let located = lbs.iter().map(|&lb| self.cfg.layout.locate(lb));
        let blocks: Vec<_> = located.map(|pl| (StripeId(pl.stripe), pl.index)).collect();
        self.read_window(&blocks).into_iter().collect()
    }

    /// The one `READ` engine (Fig. 4; DESIGN.md §8) over a window of
    /// `(stripe, data index)` blocks. Each attempt sends the unfinished
    /// blocks one batched fast round of `Read`s; serves those whose data
    /// node is unreachable or INIT by lock-free degraded reads, all in the
    /// same rounds; recovers the stripes whose degraded read is ambiguous in
    /// one window of the Fig. 6 engine (a block whose data node is
    /// unreachable reports its transport error instead) and reads their
    /// blocks again; and pauses once for the blocks a locked node answered
    /// ⊥, up to `busy_retry_limit` times. One outcome per block.
    pub(crate) fn read_window(
        &self,
        blocks: &[(StripeId, usize)],
    ) -> Vec<Result<Vec<u8>, ProtocolError>> {
        let Some(&(first, _)) = blocks.first() else {
            return Vec::new();
        };
        // A block still unsettled after the last attempt reports this.
        let attempts = self.cfg.busy_retry_limit + 1;
        let exhausted = ProtocolError::RetriesExhausted { what: "READ", attempts };
        let mut out = vec![Err(exhausted); blocks.len()];
        let mut todo: Vec<usize> = (0..blocks.len()).collect();
        let mut backoff = self.backoff(first, 1);
        for _ in 0..attempts {
            if todo.is_empty() {
                break;
            }
            // (block, the data node's transport error if it is unreachable)
            let (mut misses, mut busy) = (Vec::new(), Vec::new());
            let node = |x: usize| self.node_of(blocks[x].0, blocks[x].1);
            let read = |&x: &usize| Request::Read { stripe: blocks[x].0 };
            let mut fast = |&mut x: &mut usize, res: Result<Reply, ProtocolError>| match res {
                Ok(Reply::Read(r)) => match r.block {
                    Some(v) => out[x] = Ok(v),
                    None if r.lmode.allows_recovery_start() => misses.push((x, None)),
                    None => busy.push(x), // recovery in progress elsewhere
                },
                Ok(other) => out[x] = Err(ProtocolError::unexpected("Reply::Read", &other)),
                Err(e @ ProtocolError::Rpc(_)) => misses.push((x, Some(e))),
                Err(e) => out[x] = Err(e),
            };
            if let [mut x] = todo[..] {
                let reply = call(&self.endpoint, &self.cfg, node(x), || read(&x));
                fast(&mut x, reply);
            } else {
                let reads = todo.iter().map(|&x| ((), node(x), x)).collect();
                pfor(&self.endpoint, &self.cfg, reads, usize::MAX, true, read, fast);
            }
            let mut recover = Vec::new();
            if !misses.is_empty() {
                let at: Vec<_> = misses.iter().map(|&(x, _)| blocks[x]).collect();
                let decoded = if self.cfg.degraded_reads {
                    crate::recovery::degraded_reads(self, &at)
                } else {
                    vec![None; at.len()]
                };
                for ((x, unreachable), v) in misses.into_iter().zip(decoded) {
                    match (v, unreachable) {
                        (Some(v), _) => out[x] = Ok(v),
                        (None, Some(e)) => out[x] = Err(e),
                        (None, None) => recover.push(x),
                    }
                }
                let stripes: BTreeSet<StripeId> = recover.iter().map(|&x| blocks[x].0).collect();
                let stripes: Vec<StripeId> = stripes.into_iter().collect();
                let recovered = recover_stripes(self, &stripes);
                for x in std::mem::take(&mut recover) {
                    let s = stripes.binary_search(&blocks[x].0).expect("a recovered stripe");
                    match &recovered[s] {
                        Ok(()) => recover.push(x),
                        Err(e) => out[x] = Err(e.clone()),
                    }
                }
            }
            if !busy.is_empty() {
                backoff.pause();
            }
            // A recovered stripe's blocks go round again without a pause.
            busy.extend(recover);
            busy.sort_unstable();
            todo = busy;
        }
        out
    }

    /// `WRITE` of a logical block (Fig. 5): in the failure-free case, one
    /// `swap` round trip to the data node plus one `add` per redundant node
    /// (batched per the configured [`UpdateStrategy`]).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadBlockSize`] for a wrong-sized value; otherwise
    /// as [`Client::read_block`].
    pub fn write_block(&self, logical_block: u64, value: Vec<u8>) -> Result<(), ProtocolError> {
        self.write_block_from(logical_block, &value)
    }

    /// [`write_block`](Client::write_block) from a borrowed slice: the
    /// caller keeps ownership and no staging copy is made until the `swap`
    /// payload itself is built. This is the natural entry point for
    /// callers that hold a large buffer and write it out block by block
    /// (e.g. the blockdev layer), where the `Vec` variant forced one extra
    /// whole-block copy per write.
    ///
    /// # Errors
    ///
    /// As [`Client::write_block`].
    pub fn write_block_from(&self, logical_block: u64, value: &[u8]) -> Result<(), ProtocolError> {
        let placement = self.cfg.layout.locate(logical_block);
        self.write_stripe_index_from(StripeId(placement.stripe), placement.index, value)
    }

    /// `WRITE` addressed by (stripe, data-block index).
    ///
    /// # Errors
    ///
    /// As [`Client::write_block`].
    pub fn write_stripe_index(
        &self,
        stripe: StripeId,
        i: usize,
        value: Vec<u8>,
    ) -> Result<(), ProtocolError> {
        self.write_stripe_index_from(stripe, i, &value)
    }

    /// [`write_stripe_index`](Client::write_stripe_index) from a borrowed
    /// slice (see [`Client::write_block_from`]).
    ///
    /// # Errors
    ///
    /// As [`Client::write_block`].
    pub fn write_stripe_index_from(
        &self,
        stripe: StripeId,
        i: usize,
        value: &[u8],
    ) -> Result<(), ProtocolError> {
        self.check_size(value)?;
        assert!(i < self.cfg.k(), "data index {i} out of range");
        // A one-block write is a window of one.
        self.write_window(&[&[(stripe, i, value)]]).remove(0)
    }

    /// Every `WRITE` entry point validates its values here, before any RPC.
    fn check_size(&self, value: &[u8]) -> Result<(), ProtocolError> {
        if value.len() != self.cfg.block_size {
            let (expected, got) = (self.cfg.block_size, value.len());
            return Err(ProtocolError::BadBlockSize { expected, got });
        }
        Ok(())
    }

    /// Scatter-gather `WRITE`: writes many logical blocks, grouping them by
    /// stripe so each stripe pays one `swap` round plus one *batched* `add`
    /// message per redundant node instead of one message per block. Windows
    /// of [`ProtocolConfig::pipeline_width`] stripes go through the protocol
    /// one after another on the calling thread, each round of a window
    /// carrying all of its stripes' messages.
    ///
    /// Atomicity is per block, exactly as with a loop of
    /// [`Client::write_block`]: the multi-block call itself is not atomic
    /// (the physical-disk contract), so on error some blocks may have been
    /// written. Duplicate logical blocks collapse to the last value given,
    /// matching the final state of the equivalent sequential loop.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadBlockSize`] if any value is not block-sized
    /// (checked before any RPC); otherwise the first per-block error, after
    /// the remaining stripes have been given their chance to complete.
    pub fn write_blocks(&self, writes: &[(u64, &[u8])]) -> Result<(), ProtocolError> {
        for &(_, value) in writes {
            self.check_size(value)?;
        }
        let mut blocks: BTreeMap<(u64, usize), &[u8]> = BTreeMap::new();
        for &(lb, value) in writes {
            let pl = self.cfg.layout.locate(lb);
            blocks.insert((pl.stripe, pl.index), value);
        }
        let items: Vec<WriteItem> =
            blocks.into_iter().map(|((s, i), v)| (StripeId(s), i, v)).collect();
        let stripes: Vec<&[WriteItem]> = items.chunk_by(|a, b| a.0 == b.0).collect();
        // A failed stripe does not stop the others: atomicity is per block,
        // and finishing independent stripes leaves the disk closer to the
        // requested state.
        let width = self.cfg.pipeline_width.max(1);
        stripes.chunks(width).flat_map(|window| self.write_window(window)).fold(Ok(()), Result::and)
    }

    /// The one `WRITE` engine (Fig. 5), over a window of stripes, each a run
    /// of `(stripe, data index, value)` items. Every block runs its own
    /// [`BlockWrite`] state machine — same `swap`, same classification of
    /// `add` replies, same `checktid` probe, same recovery triggers, same
    /// outer re-swap attempts whatever the window — and this driver only
    /// decides how their messages travel. The stripes move in lockstep: one
    /// `swap` round over their (distinct) data nodes, then `add` rounds in
    /// which each redundant node of a stripe receives a single message
    /// carrying every block's increment for it ([`Request::Batch`] when
    /// there is more than one). A round sends the union of the messages its
    /// stripes would send one at a time, and no message serves two stripes;
    /// recovery, the GC record and a failure stay per stripe, and so does
    /// the outcome: one per stripe, in window order.
    ///
    /// Under [`UpdateStrategy::Broadcast`] a stripe whose round has one live
    /// block sends its own §3.11 multicast (node-scaled `v − w`, client NIC
    /// charged once). With several live blocks the increments are
    /// client-scaled like the other strategies': per-node batches cannot
    /// share one payload, and a batch already amortizes the per-message
    /// cost the multicast saves.
    pub(crate) fn write_window(&self, window: &[&[WriteItem]]) -> Vec<Result<(), ProtocolError>> {
        let mut runs: Vec<StripeRun> = Vec::with_capacity(window.len());
        for &items in window {
            let (stripe, todo) = (items[0].0, (0..items.len()).collect());
            let backoff = self.backoff(stripe, 2);
            runs.push(StripeRun { stripe, items, backoff, todo, pending: Vec::new(), err: None });
        }
        // Outer `repeat` (Fig. 5 lines 1 and 22), shared across the blocks
        // still unfinished: a fresh swap each attempt.
        for _ in 0..WRITE_ATTEMPT_LIMIT {
            if runs.iter().all(|run| run.todo.is_empty()) {
                break;
            }
            // Swap round: within one stripe, distinct data indices live on
            // distinct nodes, so this is one message per (stripe, node) — a
            // single `pfor` round trip for the whole window. The tid is
            // drawn before the round: a re-made swap must carry the same
            // `ntid` (and the same bytes) as the one it replaces.
            // (position, data node, (run, item, ntid, the item))
            let mut swaps = Vec::new();
            for (r, run) in runs.iter_mut().enumerate() {
                for x in run.todo.drain(..) {
                    let (c, item) = (swaps.len(), run.items[x]);
                    let seq = self.seq.fetch_add(1, Ordering::Relaxed);
                    let ntid = Tid::new(seq, item.1, self.id());
                    swaps.push((c, self.node_of(run.stripe, item.1), (r, x, ntid, item)));
                }
            }
            let swap = |&(_, _, ntid, (stripe, _, value)): &(_, _, Tid, WriteItem)| {
                Request::Swap { stripe, value: crate::pool::take_copy(value), ntid }
            };
            pfor(&self.endpoint, &self.cfg, swaps, usize::MAX, true, swap, |m, res| {
                let (r, x, ntid, (stripe, i, value)) = *m;
                // A swap lost indeterminately may have executed: this
                // block's write surfaces the error rather than re-sending.
                let swapped = res.and_then(|reply| match reply {
                    Reply::Swap(sr) => self.settle_swap(stripe, (i, value), ntid, sr),
                    other => Err(ProtocolError::unexpected("Reply::Swap", &other)),
                });
                match swapped {
                    Ok(bw) => runs[r].pending.push(Pending { x, bw, err: None }),
                    Err(e) => {
                        runs[r].err.get_or_insert(e);
                    }
                }
            });

            // Add rounds (Fig. 5 lines 7-21) until every swapped block has
            // settled.
            while runs.iter().any(|run| !run.pending.is_empty()) {
                self.add_rounds(&mut runs);
                // Fig. 5 line 13: expired lock, crashed node, or hopeless
                // ordering on any live block ⇒ run the stripe's recovery,
                // once, in one recovery window for all such stripes. If it
                // fails, so does the stripe's write, and whatever it still
                // has swapped out goes back to the pool.
                let broken =
                    |r: &StripeRun| r.pending.iter().any(|p| p.live() && p.bw.needs_recovery());
                let stripes: Vec<StripeId> =
                    runs.iter().filter(|r| broken(r)).map(|r| r.stripe).collect();
                let recovered = recover_stripes(self, &stripes);
                for (run, res) in runs.iter_mut().filter(|r| broken(r)).zip(recovered) {
                    if let Err(e) = res {
                        (run.err, run.todo) = (Some(e), Vec::new());
                        for p in run.pending.drain(..) {
                            crate::pool::give(p.bw.finish().2);
                        }
                    }
                }
                self.probe_orders(&mut runs);
                for run in &mut runs {
                    run.retire(&self.cfg, &self.gc);
                }
            }
        }
        let attempts = WRITE_ATTEMPT_LIMIT;
        let outcome = |run: StripeRun| match run.err {
            Some(e) => Err(e),
            None if run.todo.is_empty() => Ok(()),
            None => Err(ProtocolError::RetriesExhausted { what: "WRITE", attempts }),
        };
        runs.into_iter().map(outcome).collect()
    }

    /// One pass of the window's `add` rounds (Fig. 5 lines 7-12): a stripe
    /// that multicasts sends its broadcast, then the hybrid `for h / pfor
    /// j ∈ G_h ∩ T` of §4 (serial and parallel are its degenerate cases)
    /// gives, per strategy round, each redundant node of every other stripe
    /// ONE message carrying every live block's increment for it. Before a
    /// round is sent, each live block makes every increment it owes the
    /// round in one tiled pass over its `v` and `w`
    /// ([`BlockWrite::increments`]).
    fn add_rounds(&self, runs: &mut [StripeRun]) {
        let multicast = |run: &StripeRun| {
            self.cfg.strategy == UpdateStrategy::Broadcast && run.pending.len() == 1
        };
        for run in runs.iter_mut().filter(|run| multicast(run)) {
            let p = &mut run.pending[0];
            let (js, replies) = {
                let (js, add) = p.bw.multicast_adds(&self.cfg, run.stripe, run.items[p.x].2);
                let nodes: Vec<NodeId> = js.iter().map(|&j| self.node_of(run.stripe, j)).collect();
                let add = |c: usize| add(js[c]);
                let replies = crate::rpc::multicast(&self.endpoint, &self.cfg, &nodes, add);
                (js, replies)
            };
            for (j, res) in js.into_iter().zip(replies) {
                p.absorb(j, res);
            }
        }
        for round in self.cfg.strategy.rounds(self.cfg.k(), self.cfg.n()) {
            // Every live block's `(j, increment)`s for the round, made in one
            // pass per block, and one `(r, j)`-keyed member per increment.
            let (mut incs, mut adds) = (Vec::new(), Vec::new());
            for (r, run) in runs.iter().enumerate().filter(|(_, run)| !multicast(run)) {
                for (px, p) in run.pending.iter().enumerate().filter(|(_, p)| p.live()) {
                    let from = incs.len();
                    incs.extend(round.iter().filter(|&&j| p.bw.wants(j)).map(|&j| (j, Vec::new())));
                    if incs.len() > from {
                        p.bw.increments(&self.cfg, run.items[p.x].2, &mut incs[from..]);
                    }
                    for (at, &(j, _)) in incs.iter().enumerate().skip(from) {
                        adds.push(((r, j), self.node_of(run.stripe, j), (r, px, j, at)));
                    }
                }
            }
            // A first send carries the increment made above; a re-send
            // re-makes its own from the `v` and `w` this round still
            // borrows.
            let incs = RefCell::new(incs);
            let add = |&(r, px, j, at): &(usize, usize, usize, usize)| {
                let (run, made) = (&runs[r], std::mem::take(&mut incs.borrow_mut()[at].1));
                let p = &run.pending[px];
                if made.is_empty() {
                    p.bw.add(&self.cfg, run.stripe, j, run.items[p.x].2)
                } else {
                    p.bw.add_of(run.stripe, made)
                }
            };
            let mut replies = Vec::with_capacity(adds.len());
            pfor(&self.endpoint, &self.cfg, adds, usize::MAX, true, add, |&mut m, res| {
                replies.push((m, res));
            });
            // Adds are not idempotent: an indeterminate failure fails every
            // block in its message.
            for ((r, px, j, _), res) in replies {
                runs[r].pending[px].absorb(j, res);
            }
        }
    }

    /// Fig. 5 lines 15-19, per block: has the predecessor write been GC'd
    /// (completed) or has a done node crashed? A stripe's blocks that saw
    /// an ORDER probe one after another, the `b`-th of every stripe in
    /// round `b`; then the window pauses once, for its longest backoff —
    /// "p retries the add after a while" (§3.9).
    fn probe_orders(&self, runs: &mut [StripeRun]) {
        let close = |p: &mut [Pending]| -> Vec<usize> {
            (0..p.len()).filter(|&x| p[x].live() && p[x].bw.close_round()).collect()
        };
        let ordered: Vec<_> = runs.iter_mut().map(|run| close(&mut run.pending)).collect();
        for b in 0..ordered.iter().map(Vec::len).max().unwrap_or(0) {
            // (position, target node, (run, block, j, probe))
            let mut probes = Vec::new();
            for (r, &px) in ordered.iter().enumerate().filter_map(|(r, o)| Some((r, o.get(b)?))) {
                let stripe = runs[r].stripe;
                for (j, q) in runs[r].pending[px].bw.checktids(stripe) {
                    probes.push((probes.len(), self.node_of(stripe, j), (r, px, j, q)));
                }
            }
            let probe = |(_, _, _, q): &(usize, usize, usize, Request)| q.clone();
            pfor(&self.endpoint, &self.cfg, probes, usize::MAX, true, probe, |m, res| {
                let p = &mut runs[m.0].pending[m.1];
                match res {
                    _ if !p.live() => {} // an earlier probe of this block failed
                    Ok(Reply::CheckTid(reply)) => p.bw.on_checktid(m.2, reply),
                    Ok(reply) => p.kill(ProtocolError::unexpected("Reply::CheckTid", &reply)),
                    Err(e) => p.kill(e),
                }
            });
        }
        let pauses = runs.iter_mut().zip(&ordered).filter(|(_, o)| !o.is_empty());
        let pause = pauses.map(|(run, _)| run.backoff.next_delay()).max().unwrap_or_default();
        if !pause.is_zero() {
            std::thread::sleep(pause);
        }
    }

    /// The `swap` loop of Fig. 5 lines 3-6, entered with the swap round's
    /// reply: until the data node accepts, run recovery when the block is
    /// unavailable (or wait out someone else's), then swap again with the
    /// same tid.
    fn settle_swap(
        &self,
        stripe: StripeId,
        (i, value): (usize, &[u8]),
        ntid: Tid,
        mut reply: SwapReply,
    ) -> Result<BlockWrite, ProtocolError> {
        let node = self.node_of(stripe, i);
        let mut backoff = self.backoff(stripe, 3);
        let mut attempts = 1;
        loop {
            let lmode = reply.lmode;
            if let Some(bw) = BlockWrite::new(i, ntid, reply, self.cfg.k(), self.cfg.n()) {
                return Ok(bw);
            }
            if lmode.allows_recovery_start() {
                self.recover_stripe(stripe)?;
            } else {
                backoff.pause();
            }
            if attempts > self.cfg.busy_retry_limit {
                return Err(ProtocolError::RetriesExhausted { what: "swap", attempts });
            }
            attempts += 1;
            let swap = || Request::Swap { stripe, value: crate::pool::take_copy(value), ntid };
            reply = expect_reply!(call(&self.endpoint, &self.cfg, node, swap)?, Reply::Swap);
        }
    }

    /// Runs Fig. 6 recovery for `stripe` until it completes — either by
    /// this client or by the client it lost the race to (Fig. 4 line 4 /
    /// Fig. 5's `start_recovery`): the rebuild engine over a window of this
    /// one stripe, without its healthy-stripe probe.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Unrecoverable`] if no `k` consistent blocks can be
    /// assembled (the §4 failure bounds were exceeded);
    /// [`ProtocolError::RetriesExhausted`] when losing the lock race
    /// repeatedly without the stripe being released; transport errors
    /// (e.g. this client was killed mid-recovery — the locks it leaves
    /// behind expire and another client picks up).
    pub fn recover_stripe(&self, stripe: StripeId) -> Result<(), ProtocolError> {
        recover_stripes(self, &[stripe]).remove(0)
    }

    /// Rebuilds the given stripes with the batched Fig. 6 engine (see
    /// [`crate::RebuildReport`]): chunks of stripes are repaired with one
    /// batched lock / metadata / share / reconstruct / finalize round per
    /// storage node, decode plans come from the config's shared cache, and
    /// windows of `cfg.rebuild_width` chunks share each round's fan-out.
    /// Healthy stripes are probed first and skipped; crashed recoveries are
    /// adopted, draining writes waited out, and lost lock races retried in
    /// the same batched rounds.
    ///
    /// # Errors
    ///
    /// The first error from a window, after every window has run — stripes
    /// in other windows are still repaired.
    pub fn rebuild_stripes(&self, stripes: &[StripeId]) -> Result<RebuildReport, ProtocolError> {
        crate::rebuild::rebuild_stripes(self, stripes)
    }

    /// Rebuilds every stripe that lost a block to `node` failing: remaps
    /// the node (fresh INIT replacement) if it is still down, then runs
    /// [`Client::rebuild_stripes`] over stripes `0..stripe_count`. With as
    /// many storage nodes as in-stripe indices (the §3.11 rotated layout),
    /// every stripe had a block on the failed node, so the whole range is
    /// examined; stripes already repaired are probed and skipped cheaply.
    ///
    /// # Errors
    ///
    /// As [`Client::rebuild_stripes`].
    pub fn rebuild_node(
        &self,
        node: NodeId,
        stripe_count: u64,
    ) -> Result<RebuildReport, ProtocolError> {
        let network = self.endpoint.network();
        if !network.node_is_up(node) {
            network.remap_node(node, crate::config::REMAP_GARBAGE);
        }
        let stripes: Vec<StripeId> = (0..stripe_count).map(StripeId).collect();
        self.rebuild_stripes(&stripes)
    }

    /// One garbage-collection cycle (Fig. 7's `collect_garbage` task), in
    /// O(nodes) messages (DESIGN.md §7.1).
    ///
    /// Phase 1 drops previously-moved tids from nodes' oldlists; phase 2
    /// moves this client's completed writes from recentlists to oldlists.
    /// Each phase takes the whole list and sends every node one batch of
    /// its entries per fan-out. Blocks that are busy (locked or INIT) are
    /// skipped and retried next cycle, matching the paper's `repeat ...
    /// until OK` with bounded patience.
    ///
    /// # Errors
    ///
    /// Transport failures only; a busy block is not an error. The first
    /// error is returned after both phases have run: the entries of a node
    /// whose message failed go back on their list for the next cycle — an
    /// aborted cycle must never leak tids, or the nodes' recent/old lists
    /// are never collected — and every other node's progress is kept.
    pub fn collect_garbage(&self) -> Result<GcReport, ProtocolError> {
        let mut report = GcReport::default();
        let mut first_err = None;
        // Phase 1 before phase 2: an entry's `GcOld` follows its own
        // successful `GcRecent` by a full cycle.
        for drop_old in [true, false] {
            let taken = {
                let mut gc = self.gc.lock();
                std::mem::take(if drop_old { &mut gc.old } else { &mut gc.pending })
            };
            let entries = taken
                .into_iter()
                .map(|(key @ (stripe, j), tids)| ((), self.node_of(stripe, j), (key, tids)))
                .collect();
            let member = |((stripe, _), tids): &((StripeId, usize), Vec<Tid>)| {
                let (stripe, tids) = (*stripe, tids.clone());
                if drop_old {
                    Request::GcOld { stripe, tids }
                } else {
                    Request::GcRecent { stripe, tids }
                }
            };
            // Only a dropped entry leaves the bookkeeping; a moved one
            // graduates to the phase 1 list, anything else goes back where
            // it came from.
            let fold = |(key, tids): &mut (_, Vec<Tid>), res| {
                let (key, tids) = (*key, std::mem::take(tids));
                let to_old = match res {
                    Ok(Reply::Gc(true)) if drop_old => {
                        report.dropped += tids.len();
                        return;
                    }
                    Ok(Reply::Gc(true)) => {
                        report.moved_to_old += tids.len();
                        true
                    }
                    Ok(Reply::Gc(false)) => {
                        report.skipped_busy += 1;
                        drop_old
                    }
                    other => {
                        first_err.get_or_insert(ProtocolError::not("Reply::Gc", other));
                        drop_old
                    }
                };
                let mut gc = self.gc.lock();
                let list = if to_old { &mut gc.old } else { &mut gc.pending };
                let listed = list.entry(key).or_default();
                if listed.is_empty() {
                    *listed = tids;
                } else {
                    listed.extend(tids);
                }
            };
            report.messages +=
                pfor(&self.endpoint, &self.cfg, entries, FANOUT_CHUNK, true, member, fold);
        }
        first_err.map_or(Ok(report), Err)
    }

    /// The monitoring sweep of §3.10: probes every node of the given
    /// stripes — a chunk of stripes at a time, one batched message per
    /// node — and recovers the stripes where it finds INIT nodes or stale
    /// unfinished writes older than `age_threshold` node ticks, a chunk's
    /// in one recovery window.
    ///
    /// # Errors
    ///
    /// A probe's transport failure at once; otherwise the first stripe's
    /// recovery error, after every chunk has been swept.
    pub fn monitor(
        &self,
        stripes: &[StripeId],
        age_threshold: u64,
    ) -> Result<MonitorReport, ProtocolError> {
        let (mut report, mut first_err) = (MonitorReport::default(), None);
        for chunk in stripes.chunks(FANOUT_CHUNK) {
            let probes = (0..chunk.len())
                .flat_map(|x| (0..self.cfg.n()).map(move |t| ((), self.node_of(chunk[x], t), x)))
                .collect();
            let probe = |&x: &usize| Request::Probe { stripe: chunk[x] };
            let mut needs_recovery = vec![false; chunk.len()];
            let mut probe_err = None;
            let (ep, cfg) = (&self.endpoint, &self.cfg);
            pfor(ep, cfg, probes, FANOUT_CHUNK, true, probe, |&mut x, res| match res {
                Ok(Reply::Probe { opmode, oldest_pending_age, .. }) => {
                    needs_recovery[x] |= opmode == OpMode::Init
                        || oldest_pending_age.is_some_and(|a| a >= age_threshold);
                }
                other => {
                    probe_err.get_or_insert(ProtocolError::not("Reply::Probe", other));
                }
            });
            if let Some(e) = probe_err {
                return Err(e);
            }
            let flagged: Vec<StripeId> =
                chunk.iter().zip(needs_recovery).filter(|f| f.1).map(|f| *f.0).collect();
            report.healthy += chunk.len() - flagged.len();
            for (&stripe, res) in flagged.iter().zip(recover_stripes(self, &flagged)) {
                match res {
                    Ok(()) => report.recovered.push(stripe),
                    Err(e) => first_err = first_err.or(Some(e)),
                }
            }
        }
        first_err.map_or(Ok(report), Err)
    }

    /// Number of tids awaiting garbage collection (both phases) — §6.5's
    /// client-side bookkeeping.
    pub fn gc_backlog(&self) -> usize {
        let gc = self.gc.lock();
        gc.pending.values().map(Vec::len).sum::<usize>()
            + gc.old.values().map(Vec::len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajx_storage::LMode;
    use ajx_transport::{Network, NetworkConfig};

    fn client(k: usize, n: usize) -> Client {
        let cfg = ProtocolConfig::new(k, n, 16).unwrap();
        let net = Network::new(NetworkConfig {
            n_nodes: n,
            block_size: 16,
            ..NetworkConfig::default()
        });
        Client::new(net.client(ClientId(1)), cfg)
    }

    #[test]
    fn accessors_expose_identity_and_config() {
        let c = client(2, 4);
        assert_eq!(c.id(), ClientId(1));
        assert_eq!(c.config().k(), 2);
        assert_eq!(c.endpoint().id(), ClientId(1));
    }

    #[test]
    fn gc_backlog_grows_with_writes_and_drains_with_cycles() {
        let c = client(2, 4);
        assert_eq!(c.gc_backlog(), 0);
        c.write_block(0, vec![1; 16]).unwrap();
        c.write_block(1, vec![2; 16]).unwrap();
        // Each write records its tid for the data node + 2 redundant nodes.
        assert_eq!(c.gc_backlog(), 6);
        c.collect_garbage().unwrap();
        assert_eq!(c.gc_backlog(), 6, "phase 2 done; tids now await phase 1");
        c.collect_garbage().unwrap();
        assert_eq!(c.gc_backlog(), 0);
    }

    fn client_on_net(
        k: usize,
        n: usize,
        auto_remap: bool,
    ) -> (std::sync::Arc<Network>, Client) {
        let mut cfg = ProtocolConfig::new(k, n, 16).unwrap();
        cfg.auto_remap = auto_remap;
        let net = Network::new(NetworkConfig {
            n_nodes: n,
            block_size: 16,
            ..NetworkConfig::default()
        });
        let c = Client::new(net.client(ClientId(1)), cfg);
        (net, c)
    }

    #[test]
    fn gc_cycle_aborted_by_a_crashed_node_keeps_its_bookkeeping() {
        let (net, c) = client_on_net(2, 4, false);
        c.write_block(0, vec![1; 16]).unwrap();
        c.write_block(1, vec![2; 16]).unwrap();
        assert_eq!(c.gc_backlog(), 6);
        // Crash stripe 0's data node; with auto-remap off the GC cycle
        // aborts on the dead node's RPC error.
        let victim = c.node_of(StripeId(0), 0);
        net.crash_node(victim);
        assert!(c.collect_garbage().is_err());
        assert_eq!(
            c.gc_backlog(),
            6,
            "an aborted cycle must restore every in-flight tid"
        );
        // Replace the node and repair the affected stripe (reads alone no
        // longer repair anything — the degraded path serves them lock-free
        // and leaves repair to recovery/rebuild); the preserved backlog
        // then drains to zero over the usual two-phase cycles.
        net.remap_node(victim, 0xA5);
        c.recover_stripe(StripeId(0)).unwrap();
        c.read_block(0).unwrap();
        c.read_block(1).unwrap();
        while c.gc_backlog() > 0 {
            c.collect_garbage().unwrap();
        }
    }

    #[test]
    fn gc_cycle_keeps_the_progress_of_the_nodes_it_reached() {
        let (net, c) = client_on_net(2, 4, false);
        for lb in 0..8 {
            c.write_block(lb, vec![lb as u8; 16]).unwrap();
        }
        assert_eq!(c.collect_garbage().unwrap().moved_to_old, 24);
        c.write_block(0, vec![9; 16]).unwrap();
        let victim = NodeId(0);
        let on_victim = |list: &BTreeMap<(StripeId, usize), Vec<Tid>>| -> usize {
            let there = |&(&(s, j), _): &(&(StripeId, usize), _)| c.node_of(s, j) == victim;
            list.iter().filter(there).map(|(_, tids)| tids.len()).sum()
        };
        let (old_there, pending_there) = {
            let gc = c.gc.lock();
            (on_victim(&gc.old), on_victim(&gc.pending))
        };
        assert!(old_there > 0 && pending_there > 0, "both phases have work on the victim");

        // Phase 1 drops every other node's entries, phase 2 moves every
        // other node's; the victim's stay listed where they were.
        net.crash_node(victim);
        assert!(c.collect_garbage().is_err());
        assert_eq!(c.gc_backlog(), 27 - (24 - old_there));
        let gc = c.gc.lock();
        assert_eq!(gc.old.values().map(Vec::len).sum::<usize>(), old_there + 3 - pending_there);
        assert_eq!(gc.pending.values().map(Vec::len).sum::<usize>(), pending_there);
        drop(gc);

        // The replacement answers busy until its blocks are rebuilt; then
        // the kept entries drain over the usual two cycles.
        net.remap_node(victim, 0xA5);
        c.rebuild_node(victim, 4).unwrap();
        c.collect_garbage().unwrap();
        c.collect_garbage().unwrap();
        assert_eq!(c.gc_backlog(), 0);
    }

    #[test]
    fn gc_cuts_a_nodes_entries_into_bounded_messages() {
        // One write per stripe lists 3 entries per stripe, spread evenly
        // by the rotating layout: more per node than one message carries.
        let c = client(2, 4);
        let stripes = FANOUT_CHUNK as u64 * 2;
        for s in 0..stripes {
            c.write_block(2 * s, vec![s as u8; 16]).unwrap();
        }
        let per_node = stripes as usize * 3 / 4;
        let messages = 4 * per_node.div_ceil(FANOUT_CHUNK);
        assert!(messages > 4);
        let stats = c.endpoint().stats();
        let sent = stats.snapshot().msgs_sent;
        let r1 = c.collect_garbage().unwrap();
        assert_eq!((r1.moved_to_old, r1.dropped, r1.messages), (3 * stripes as usize, 0, messages));
        assert_eq!(stats.snapshot().msgs_sent - sent, messages as u64);
        // GcOld reaches an entry only the cycle after its own GcRecent.
        let r2 = c.collect_garbage().unwrap();
        assert_eq!((r2.moved_to_old, r2.dropped, r2.messages), (0, 3 * stripes as usize, messages));
        assert_eq!(c.gc_backlog(), 0);
        let net = c.endpoint().network();
        for node in 0..4 {
            assert_eq!(net.with_node(NodeId(node), |n| n.metadata_bytes()), 22 * per_node);
        }
    }

    #[test]
    fn monitor_reports_healthy_stripes_without_recovery() {
        let c = client(2, 4);
        c.write_block(0, vec![1; 16]).unwrap();
        // Very generous age threshold: the just-written tid is not stale.
        let sent = c.endpoint().stats().snapshot().msgs_sent;
        let report = c.monitor(&[StripeId(0), StripeId(5)], u64::MAX).unwrap();
        assert!(report.recovered.is_empty());
        assert_eq!(report.healthy, 2);
        assert_eq!(c.endpoint().stats().snapshot().msgs_sent - sent, 4, "one batch per node");
    }

    #[test]
    fn monitor_probes_a_chunk_of_stripes_then_recovers_the_flagged_in_order() {
        let c = client(2, 4);
        let last = FANOUT_CHUNK as u64 + 2;
        let stripes: Vec<StripeId> = (0..FANOUT_CHUNK as u64 + 8).map(StripeId).collect();
        for s in [3, 1, last] {
            c.write_block(2 * s, vec![s as u8; 16]).unwrap();
        }
        // Any recentlist entry is stale at threshold 0: exactly the written
        // stripes are flagged, across both chunks.
        let report = c.monitor(&stripes, 0).unwrap();
        assert_eq!(report.recovered, [StripeId(1), StripeId(3), StripeId(last)]);
        assert_eq!(report.healthy, stripes.len() - 3);
        // Recovery cleared their lists: the next sweep is nothing but its
        // probes, one message per node per chunk.
        let sent = c.endpoint().stats().snapshot().msgs_sent;
        assert_eq!(c.monitor(&stripes, 0).unwrap().healthy, stripes.len());
        assert_eq!(c.endpoint().stats().snapshot().msgs_sent - sent, 2 * 4);
    }

    #[test]
    fn monitor_on_no_stripes_is_empty() {
        let c = client(2, 4);
        let report = c.monitor(&[], 1).unwrap();
        assert_eq!(report, MonitorReport::default());
    }

    #[test]
    fn bad_block_size_rejected_before_any_rpc() {
        let c = client(2, 4);
        let before = c.endpoint().stats().snapshot();
        let err = c.write_block(0, vec![1; 15]).unwrap_err();
        assert!(matches!(err, ProtocolError::BadBlockSize { .. }));
        assert_eq!(
            c.endpoint().stats().snapshot().since(&before).msgs_sent,
            0,
            "validation happens client-side"
        );
    }

    #[test]
    #[should_panic(expected = "data index")]
    fn out_of_range_stripe_index_panics() {
        let c = client(2, 4);
        let _ = c.read_stripe_index(StripeId(0), 2);
    }

    #[test]
    fn explicit_recovery_on_a_healthy_stripe_is_a_noop_rewrite() {
        let c = client(2, 4);
        c.write_block(0, vec![9; 16]).unwrap();
        c.recover_stripe(StripeId(0)).unwrap();
        assert_eq!(c.read_block(0).unwrap(), vec![9; 16]);
        // Running it again immediately is fine too (idempotent).
        c.recover_stripe(StripeId(0)).unwrap();
        assert_eq!(c.read_block(0).unwrap(), vec![9; 16]);
    }

    #[test]
    fn sequence_numbers_are_unique_across_threads() {
        let c = std::sync::Arc::new(client(2, 4));
        write_from_four_threads(&c);
        // 4 threads x 25 writes: every write got a distinct tid, so the
        // data node's recentlist (pre-GC) holds exactly 100 entries.
        let total: usize = (0..2u64)
            .map(|lb| {
                let node = c.node_of(StripeId(0), lb as usize);
                c.endpoint().network().with_node(node, |n| {
                    n.block_state(StripeId(0)).map_or(0, |b| b.pending_tids())
                })
            })
            .sum();
        assert_eq!(total, 100);
    }

    fn write_from_four_threads(c: &std::sync::Arc<Client>) {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let c = std::sync::Arc::clone(c);
                std::thread::spawn(move || {
                    for i in 0..25u64 {
                        c.write_block((t + i) % 2, vec![i as u8; 16]).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn batched_writes_and_reads_match_the_per_block_loop() {
        let c = client(2, 4);
        let blocks: Vec<Vec<u8>> = (0..8u8).map(|b| vec![b.wrapping_mul(31); 16]).collect();
        let writes: Vec<(u64, &[u8])> = blocks
            .iter()
            .enumerate()
            .map(|(lb, v)| (lb as u64, v.as_slice()))
            .collect();
        c.write_blocks(&writes).unwrap();
        // Per-block reads see the batched writes...
        for (lb, v) in blocks.iter().enumerate() {
            assert_eq!(&c.read_block(lb as u64).unwrap(), v);
        }
        // ...and the batched read agrees, in request order (here shuffled).
        let lbs: Vec<u64> = vec![5, 0, 7, 2, 2, 4];
        let got = c.read_blocks(&lbs).unwrap();
        for (x, &lb) in lbs.iter().enumerate() {
            assert_eq!(got[x], blocks[lb as usize], "lb {lb}");
        }
        assert!(c.read_blocks(&[]).unwrap().is_empty());
        c.write_blocks(&[]).unwrap();
    }

    #[test]
    fn duplicate_blocks_in_a_batched_write_collapse_to_the_last_value() {
        let c = client(2, 4);
        let a = vec![1u8; 16];
        let b = vec![2u8; 16];
        c.write_blocks(&[(3, a.as_slice()), (3, b.as_slice())]).unwrap();
        assert_eq!(c.read_block(3).unwrap(), b);
    }

    #[test]
    fn batched_read_fetches_each_stripe_at_most_once() {
        let c = client(2, 4);
        let blocks: Vec<Vec<u8>> = (0..8u8).map(|b| vec![b + 1; 16]).collect();
        for (lb, v) in blocks.iter().enumerate() {
            c.write_block(lb as u64, v.clone()).unwrap();
        }
        let before = c.endpoint().stats().snapshot();
        let lbs: Vec<u64> = (0..8).collect();
        let got = c.read_blocks(&lbs).unwrap();
        let cost = c.endpoint().stats().snapshot().since(&before);
        for (x, v) in blocks.iter().enumerate() {
            assert_eq!(&got[x], v);
        }
        // 8 blocks over 4 stripes of a 2-of-4 code touch exactly 4 distinct
        // data nodes (rotated layout), each once with a 2-read batch: 4
        // round trips instead of the per-block loop's 8 — and never more
        // than one fetch per stripe.
        assert_eq!(cost.msgs_sent, 4);
        assert_eq!(cost.round_trips, 4);
    }

    #[test]
    fn batched_write_coalesces_adds_per_redundant_node() {
        let mut cfg = ProtocolConfig::new(2, 4, 16).unwrap();
        cfg.pipeline_width = 1; // keep the message count deterministic
        let net = Network::new(NetworkConfig {
            n_nodes: 4,
            block_size: 16,
            ..NetworkConfig::default()
        });
        let c = Client::new(net.client(ClientId(1)), cfg);
        let a = vec![7u8; 16];
        let b = vec![8u8; 16];
        let before = c.endpoint().stats().snapshot();
        // Both data blocks of stripe 0: one swap per data node (2 messages)
        // plus ONE batched add per redundant node (2 messages) — the
        // sequential loop would send 2 x (1 swap + 2 adds) = 6.
        c.write_blocks(&[(0, a.as_slice()), (1, b.as_slice())]).unwrap();
        let cost = c.endpoint().stats().snapshot().since(&before);
        assert_eq!(cost.msgs_sent, 4);
        assert_eq!(cost.round_trips, 4);
        assert_eq!(c.read_block(0).unwrap(), a);
        assert_eq!(c.read_block(1).unwrap(), b);
        // Parity holds after the batched write.
        let stripe_blocks: Vec<Vec<u8>> = (0..4)
            .map(|t| {
                let node = c.node_of(StripeId(0), t);
                net.with_node(node, |sn| {
                    sn.block_state(StripeId(0))
                        .map_or(vec![0; 16], |blk| blk.raw_block().to_vec())
                })
            })
            .collect();
        assert!(c.config().code.verify_stripe(&stripe_blocks).unwrap());
    }

    #[test]
    fn pipelined_write_blocks_spans_many_stripes_concurrently() {
        let c = client(2, 4); // default pipeline_width = 8
        let blocks: Vec<Vec<u8>> = (0..32u8).map(|b| vec![b ^ 0x5A; 16]).collect();
        let writes: Vec<(u64, &[u8])> = blocks
            .iter()
            .enumerate()
            .map(|(lb, v)| (lb as u64, v.as_slice()))
            .collect();
        c.write_blocks(&writes).unwrap();
        let got = c.read_blocks(&(0..32u64).collect::<Vec<_>>()).unwrap();
        assert_eq!(got, blocks);
    }

    #[test]
    fn write_blocks_gives_every_stripe_its_chance_at_any_width() {
        for width in [1, 8] {
            let mut cfg = ProtocolConfig::new(2, 4, 16).unwrap();
            cfg.pipeline_width = width;
            cfg.busy_retry_limit = 2;
            cfg.backoff.base = std::time::Duration::ZERO;
            let net = Network::new(NetworkConfig {
                n_nodes: 4,
                block_size: 16,
                ..NetworkConfig::default()
            });
            let c = Client::new(net.client(ClientId(1)), cfg);
            // Another client's recovery lock on stripe 0's data block makes
            // the first stripe's swap fail determinately...
            let stripe0 = StripeId(0);
            let lock = Request::TryLock { stripe: stripe0, lm: LMode::L1, caller: ClientId(9) };
            net.client(ClientId(9)).call(c.node_of(stripe0, 0), lock).unwrap();
            let (a, b) = (vec![1u8; 16], vec![2u8; 16]);
            let err = c.write_blocks(&[(0, a.as_slice()), (2, b.as_slice())]).unwrap_err();
            assert!(
                matches!(err, ProtocolError::RetriesExhausted { what: "swap", .. }),
                "width {width}: {err}"
            );
            // ...and the second stripe is written all the same, in the
            // next window or in the same one.
            assert_eq!(c.read_block(2).unwrap(), b, "width {width}");
        }
    }

    #[test]
    fn failed_write_returns_its_swapped_out_block_to_the_pool() {
        let (net, c) = client_on_net(2, 4, false);
        c.write_block(0, vec![1; 16]).unwrap();
        // A redundant node of stripe 0 is down for good: the swap lands,
        // an add fails indeterminately, the write errors out.
        net.crash_node(c.node_of(StripeId(0), 2));
        while crate::pool::pooled() > 0 {
            let _ = crate::pool::take(16);
        }
        assert!(c.write_block(0, vec![2; 16]).is_err());
        // The other redundant node's add answered and handed back its
        // increment; the old block is the error exit's to recycle.
        assert_eq!(crate::pool::pooled(), 2, "the error exit must recycle the old block");
    }

    /// A 12-of-16 client over single-worker nodes, stripe 0 written once,
    /// and a 12-block rewrite of that stripe to send.
    fn wide_client(
        queue_depth: usize,
        rpc_retry_budget: u32,
    ) -> (std::sync::Arc<Network>, Client, Vec<Vec<u8>>) {
        let mut cfg = ProtocolConfig::new(12, 16, 16).unwrap();
        cfg.backoff.base = std::time::Duration::ZERO;
        cfg.backoff.rpc_retry_budget = rpc_retry_budget;
        let net = Network::new(NetworkConfig {
            n_nodes: 16,
            block_size: 16,
            server_threads: 1,
            node_queue_depth: Some(queue_depth),
            ..NetworkConfig::default()
        });
        let c = Client::new(net.client(ClientId(1)), cfg);
        for lb in 0..12 {
            c.write_block(lb, vec![lb as u8 + 1; 16]).unwrap();
        }
        let values = (0..12u8).map(|b| vec![b ^ 0x3C; 16]).collect();
        (net, c, values)
    }

    /// Parks `victim`'s one worker on a held probe, so that whatever is
    /// sent to it next waits in its queue.
    fn hold_worker(net: &std::sync::Arc<Network>, victim: NodeId) -> ajx_transport::PendingCall {
        net.pause_node(victim);
        let probe = Request::Probe { stripe: StripeId(0) };
        let held = net.client(ClientId(9)).submit_call(victim, probe);
        while net.node_queue_len(victim) > 0 {
            std::thread::yield_now();
        }
        held
    }

    fn assert_stripe_0_holds(net: &Network, c: &Client, values: &[Vec<u8>]) {
        let lbs: Vec<u64> = (0..12).collect();
        assert_eq!(c.read_blocks(&lbs).unwrap(), values);
        let blocks: Vec<Vec<u8>> = (0..16)
            .map(|t| {
                net.with_node(c.node_of(StripeId(0), t), |n| {
                    n.block_state(StripeId(0)).expect("written").raw_block().to_vec()
                })
            })
            .collect();
        assert!(c.config().code.verify_stripe(&blocks).unwrap(), "parity matches the data");
    }

    #[test]
    fn a_node_crashing_between_the_swap_and_add_rounds_gets_a_remade_batch() {
        let (net, c, values) = wide_client(1024, 3);
        let stripe = StripeId(0);
        let victim = c.node_of(stripe, 13);
        let _held = hold_worker(&net, victim);
        let writes: Vec<(u64, &[u8])> = (0..).zip(values.iter().map(Vec::as_slice)).collect();
        std::thread::scope(|s| {
            let writer = s.spawn(|| c.write_blocks(&writes));
            // The swap round goes to data nodes only: what queues up at the
            // redundant victim is the add round's twelve-member batch.
            while net.node_queue_len(victim) == 0 {
                std::thread::yield_now();
            }
            net.crash_node(victim);
            net.resume_node(victim);
            // NodeDown, remap, the batch made again for the replacement —
            // which is INIT, so the write recovers the stripe and re-swaps.
            writer.join().unwrap().unwrap();
        });
        assert!(net.node_is_up(victim), "auto-remap replaced the node");
        c.recover_stripe(stripe).unwrap();
        assert_stripe_0_holds(&net, &c, &values);
    }

    #[test]
    fn a_shed_add_batch_is_remade_byte_for_byte_and_applied_once() {
        let (net, c, values) = wide_client(1, u32::MAX);
        let stripe = StripeId(0);
        let (victim, witness) = (c.node_of(stripe, 13), c.node_of(stripe, 14));
        let mut held = hold_worker(&net, victim);
        let filler = net.client(ClientId(9));
        let mut queued = filler.submit_call(victim, Request::Probe { stripe });
        let writes: Vec<(u64, &[u8])> = (0..).zip(values.iter().map(Vec::as_slice)).collect();
        let sent = c.endpoint().stats().snapshot().msgs_sent;
        std::thread::scope(|s| {
            let writer = s.spawn(|| c.write_blocks(&writes));
            // 12 swaps, 4 add batches, then the victim's — shed by its full
            // queue — is being made and sent again: let it land.
            while c.endpoint().stats().snapshot().msgs_sent < sent + 17 {
                std::thread::yield_now();
            }
            net.resume_node(victim);
            for call_slot in [&mut held, &mut queued] {
                while filler.poll_call(call_slot).is_none() {
                    std::thread::yield_now();
                }
            }
            writer.join().unwrap().unwrap();
        });
        // The increments the victim applied are the ones the first send
        // carried (or parity is off), under the same tids (or its list
        // differs from a node that was never shed).
        assert_stripe_0_holds(&net, &c, &values);
        let recent = |node| {
            let Reply::GetState(s) = filler.call(node, Request::GetState { stripe }).unwrap() else {
                panic!("GetState answers GetState")
            };
            s.recentlist.iter().map(|e| e.tid).collect::<Vec<_>>()
        };
        assert_eq!(recent(victim).len(), 24, "two writes of twelve blocks, each applied once");
        assert_eq!(recent(victim), recent(witness));
    }

    #[test]
    fn batched_write_rejects_bad_block_size_before_any_rpc() {
        let c = client(2, 4);
        let ok = vec![1u8; 16];
        let bad = vec![1u8; 15];
        let before = c.endpoint().stats().snapshot();
        let err = c
            .write_blocks(&[(0, ok.as_slice()), (1, bad.as_slice())])
            .unwrap_err();
        assert!(matches!(err, ProtocolError::BadBlockSize { .. }));
        let cost = c.endpoint().stats().snapshot().since(&before);
        assert_eq!(cost.msgs_sent, 0, "validation happens before any send");
    }
}
