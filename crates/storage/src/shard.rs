//! The storage node: per-stripe [`BlockState`] machines behind the
//! [`Request`]/[`Reply`] interface, plus the node-level concerns the paper
//! describes — fail-remap (§3.5), the broadcast-mode coefficient multiply
//! and deferred redundant-block flushing (§3.11), the metadata accounting
//! of §6.5 — and the journal hooks of DESIGN.md §10.
//!
//! The reactor transport serves one node's requests from several worker
//! threads at once, and the stripe layout spreads clients across stripes,
//! so [`ShardedNode`] partitions the block map into `n_shards` private
//! shards by `stripe % n_shards`, each behind its own lock: requests for
//! different shards proceed in parallel. A one-shard node is the paper's
//! single-lock server.
//!
//! Three rules keep the shard count *unobservable* (asserted by the
//! `sharded_equivalence` proptest, one shard against several):
//!
//! 1. **Shard-ordered batch locking.** A [`Request::Batch`] may span
//!    shards; its member set of shards is locked in ascending global shard
//!    index before any member executes, and held until the whole batch has
//!    answered. Every multi-shard acquirer uses the same total order, so
//!    no cycle — hence no deadlock — is possible, and the batch executes
//!    atomically with respect to every other request.
//! 2. **Node-level state lives in the node.** Identity, block size, the
//!    code family, the flush policy, the §3.11 `dirty` marker and
//!    `media_writes` exist once: a per-shard marker would coalesce
//!    alternating-stripe write patterns that the real (single-medium) node
//!    must flush. A shard holds only what is keyed by stripe, and two
//!    counters that are summed on read.
//! 3. **One router.** `ShardedNode::apply` is the only walk from a
//!    request to its leaves and the only match from a leaf to its
//!    [`BlockState`] call. How the shards it needs came to be held — one
//!    fresh lock, a batch's ascending lock set, or every shard for journal
//!    replay — is its caller's business.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::indexing_slicing))]

use crate::node::{FlushPolicy, Reply, Request};
use crate::persist::{InMemoryPersistence, Persistence, WalRecord, WalRecordRef};
use crate::state::{AddReply, BlockState, Increment};
use crate::types::{ClientId, LMode, NodeId, OpMode, StripeId};
use ajx_erasure::CodeFamily;
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An add's reply: the block's answer and modes, and the increment's
/// buffer — applied or refused, the increment is spent, and its buffer goes
/// back to the client.
fn answered(inc: Increment, (opmode, lmode): (OpMode, LMode)) -> Reply {
    Reply::Add(AddReply { status: inc.status, opmode, lmode, spent: inc.v })
}

/// One shard's share of the node: the stripe-blocks that hash to it and
/// the two counters kept beside them (summed across shards on read).
#[derive(Debug, Default)]
struct Shard {
    blocks: HashMap<StripeId, BlockState>,
    ops_handled: u64,
    lock_ops: u64,
    /// `Some(garbage)` after a fail-remap: stripes touched for the first
    /// time materialize as INIT garbage, because the *whole replacement
    /// node* starts uninitialized (§3.5), not just previously-seen stripes.
    remap_garbage: Option<u8>,
}

impl Shard {
    fn fail_remap(&mut self, garbage_byte: u8, block_size: usize) {
        self.remap_garbage = Some(garbage_byte);
        for state in self.blocks.values_mut() {
            *state = BlockState::after_fail_remap(vec![garbage_byte; block_size]);
        }
    }

    fn on_client_failure(&mut self, client: ClientId) -> usize {
        self.blocks
            .values_mut()
            .map(|b| usize::from(b.expire_lock_if_held_by(client)))
            .sum()
    }
}

/// RAII guard for one shard's lock, acquired only through
/// [`Shards::lock_shard`] / [`Shards::lock_all_shards`].
///
/// The guard knows which shard it holds — that is how the router finds a
/// leaf's shard among the guards it was handed. In debug builds it also
/// reports its release to the lock-order watchdog, so any acquisition
/// that breaks the ascending-index discipline (DESIGN.md §9) asserts at
/// the acquisition site instead of deadlocking some later run.
#[derive(Debug)]
struct ShardGuard<'a> {
    guard: MutexGuard<'a, Shard>,
    idx: usize,
    #[cfg(debug_assertions)]
    node_token: usize,
}

impl<'a> ShardGuard<'a> {
    fn new(guard: MutexGuard<'a, Shard>, node_token: usize, idx: usize) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = node_token;
        ShardGuard {
            guard,
            idx,
            #[cfg(debug_assertions)]
            node_token,
        }
    }
}

impl std::ops::Deref for ShardGuard<'_> {
    type Target = Shard;
    fn deref(&self) -> &Shard {
        &self.guard
    }
}

impl std::ops::DerefMut for ShardGuard<'_> {
    fn deref_mut(&mut self) -> &mut Shard {
        &mut self.guard
    }
}

#[cfg(debug_assertions)]
impl Drop for ShardGuard<'_> {
    fn drop(&mut self) {
        // Runs before the inner `MutexGuard` field drops, so the watchdog
        // forgets the lock no later than the mutex actually releases.
        watchdog::on_release(self.node_token, self.idx);
    }
}

/// Debug-build lock-order watchdog: tracks, per thread, which shard
/// indices of which node are currently held, and asserts that every new
/// acquisition has a strictly higher index than anything already held on
/// the same node. Threads never hold shards of two nodes at once in this
/// codebase, but the per-node keying keeps the watchdog honest if that
/// ever changes.
#[cfg(debug_assertions)]
mod watchdog {
    use std::cell::RefCell;

    thread_local! {
        /// `(node-token, shard-idx)` pairs this thread currently holds.
        static HELD: RefCell<Vec<(usize, usize)>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn on_acquire(node_token: usize, idx: usize) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            let top = held
                .iter()
                .filter(|&&(t, _)| t == node_token)
                .map(|&(_, i)| i)
                .max();
            if let Some(top) = top {
                assert!(
                    idx > top,
                    "shard-lock order violation: acquiring shard {idx} while shard {top} \
                     is held on the same node — acquire in strictly ascending index order \
                     via lock_shard/lock_all_shards (DESIGN.md §9, §11)"
                );
            }
            held.push((node_token, idx));
        });
    }

    pub(super) fn on_release(node_token: usize, idx: usize) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&(t, i)| t == node_token && i == idx) {
                held.remove(pos);
            }
        });
    }
}

/// The node's shard locks and their books. The lock vector is private to
/// this module, so the rest of the node takes a shard only through
/// [`Shards::lock_shard`] or [`Shards::lock_all_shards`], and both feed the
/// debug-build lock-order watchdog: shards are taken in ascending index
/// order (DESIGN.md §9, §11) or a debug build panics.
mod locks {
    #[cfg(debug_assertions)]
    use super::watchdog;
    use super::{Shard, ShardGuard};
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Debug)]
    pub(super) struct Shards {
        shards: Vec<Mutex<Shard>>,
        /// Shard-lock acquisitions made on behalf of requests.
        pub(super) acquisitions: AtomicU64,
        /// Acquisitions that found the shard lock already held and had to
        /// block. Disjoint-stripe workloads keep this at zero — the
        /// measurable form of "independent batches don't serialize".
        pub(super) contended: AtomicU64,
    }

    impl Shards {
        pub(super) fn new(n_shards: usize) -> Self {
            Shards {
                shards: (0..n_shards).map(|_| Mutex::default()).collect(),
                acquisitions: AtomicU64::new(0),
                contended: AtomicU64::new(0),
            }
        }

        pub(super) fn len(&self) -> usize {
            self.shards.len()
        }

        /// Acquires one shard lock, counting whether the acquisition
        /// contended.
        pub(super) fn lock_shard(&self, idx: usize) -> ShardGuard<'_> {
            // Checked *before* blocking on the mutex, so a would-be
            // deadlock asserts with both shard indices instead of hanging.
            #[cfg(debug_assertions)]
            watchdog::on_acquire(self as *const Self as usize, idx);
            self.acquisitions.fetch_add(1, Ordering::Relaxed);
            #[expect(
                clippy::indexing_slicing,
                reason = "idx is a shard_of() result or an enumeration below n_shards, \
                          both strictly below shards.len()"
            )]
            let shard = &self.shards[idx];
            let guard = match shard.try_lock() {
                Some(g) => g,
                None => {
                    self.contended.fetch_add(1, Ordering::Relaxed);
                    shard.lock()
                }
            };
            ShardGuard::new(guard, self as *const Self as usize, idx)
        }

        /// Locks every shard in ascending index order — the only
        /// sanctioned whole-node acquisition pattern (recovery, remap,
        /// monitoring). These acquisitions are deliberately *not* counted
        /// in the request contention instrumentation.
        pub(super) fn lock_all_shards(&self) -> Vec<ShardGuard<'_>> {
            self.shards
                .iter()
                .enumerate()
                .map(|(idx, shard)| {
                    #[cfg(debug_assertions)]
                    watchdog::on_acquire(self as *const Self as usize, idx);
                    ShardGuard::new(shard.lock(), self as *const Self as usize, idx)
                })
                .collect()
        }
    }
}
use locks::Shards;

/// A thin storage node hosting one block of every stripe it participates
/// in, its per-stripe state partitioned into independently locked shards
/// so concurrent requests for different stripes never contend.
///
/// The node is a *pure state machine*: [`ShardedNode::handle`] maps a
/// [`Request`] to a [`Reply`] with no side channels, which is what lets the
/// paper's protocol treat servers as passive and push all orchestration to
/// clients. All methods take `&self`: the node is shared directly between
/// transport worker threads with no outer lock.
///
/// # Example
///
/// ```
/// use ajx_storage::{NodeId, Request, Reply, ShardedNode, StripeId, Tid, ClientId};
///
/// let node = ShardedNode::new(NodeId(0), 16, 1);
/// let tid = Tid::new(1, 0, ClientId(1));
/// let reply = node.handle(Request::Swap {
///     stripe: StripeId(0),
///     value: vec![7; 16],
///     ntid: tid,
/// });
/// match reply {
///     Reply::Swap(r) => assert_eq!(r.block, Some(vec![0; 16])),
///     other => panic!("unexpected reply {other:?}"),
/// }
/// ```
#[derive(Debug)]
pub struct ShardedNode {
    id: NodeId,
    block_size: usize,
    /// The erasure code, for the broadcast-mode coefficient multiply.
    code: Option<CodeFamily>,
    flush_policy: FlushPolicy,
    shards: Shards,
    /// §3.11 deferred-flush marker — node-level by rule 2 above.
    dirty: Mutex<Option<StripeId>>,
    media_writes: AtomicU64,
    /// Durability backend (DESIGN.md §10). Appends happen under the shard
    /// locks covering the record, so the journal order is a valid
    /// linearization; commits happen after locks drop — one fsync per
    /// round trip (group commit).
    persist: Arc<dyn Persistence>,
}

impl ShardedNode {
    /// Creates a node with `n_shards` stripe shards (`n_shards >= 1`);
    /// blocks start zeroed in normal mode.
    pub fn new(id: NodeId, block_size: usize, n_shards: usize) -> Self {
        ShardedNode {
            id,
            block_size,
            code: None,
            flush_policy: FlushPolicy::WriteThrough,
            shards: Shards::new(n_shards.max(1)),
            dirty: Mutex::new(None),
            media_writes: AtomicU64::new(0),
            persist: Arc::new(InMemoryPersistence),
        }
    }

    /// Attaches a durability backend (default: in-memory, nothing
    /// survives a restart). Journaling begins with the next request.
    pub fn with_persistence(mut self, persist: Arc<dyn Persistence>) -> Self {
        self.persist = persist;
        self
    }

    /// The node's durability backend — for arming power failures and
    /// reading durability stats in tests and benches.
    pub fn persistence(&self) -> &Arc<dyn Persistence> {
        &self.persist
    }

    /// Equips the node with the erasure code so it can perform the
    /// broadcast-mode coefficient multiply (§3.11).
    pub fn with_code(mut self, code: CodeFamily) -> Self {
        self.code = Some(code);
        self
    }

    /// Selects the media flush policy (§3.11 ablation).
    pub fn with_flush_policy(mut self, policy: FlushPolicy) -> Self {
        self.flush_policy = policy;
        self
    }

    /// This node's identity.
    pub fn id(&self) -> NodeId {
        self.id
    }

    fn shard_of(&self, stripe: StripeId) -> usize {
        (stripe.0 % self.shards.len() as u64) as usize
    }

    /// Shard-lock acquisitions performed for request handling.
    pub fn shard_lock_acquisitions(&self) -> u64 {
        self.shards.acquisitions.load(Ordering::Relaxed)
    }

    /// How many of those acquisitions had to wait for another holder.
    pub fn contended_shard_locks(&self) -> u64 {
        self.shards.contended.load(Ordering::Relaxed)
    }

    /// Handles a request, advancing the target stripe-block state machine.
    ///
    /// A non-batch request locks exactly its stripe's shard. A
    /// [`Request::Batch`] locks the set of shards its members touch, each
    /// once, in ascending shard order (deadlock-free) and holds them all
    /// until every member has answered, so the batch is atomic with
    /// respect to all other requests — what a single node-wide lock gave.
    pub fn handle(&self, req: Request) -> Reply {
        let reply = {
            let (mut one, mut set);
            let held: &mut [ShardGuard<'_>] = if matches!(req, Request::Batch(_)) {
                let mut idxs = Vec::new();
                req.for_each_leaf(&mut |leaf| idxs.push(self.shard_of(leaf.stripe())));
                idxs.sort_unstable();
                idxs.dedup();
                set = idxs
                    .into_iter()
                    .map(|idx| self.shards.lock_shard(idx))
                    .collect::<Vec<_>>();
                &mut set
            } else {
                one = self.shards.lock_shard(self.shard_of(req.stripe()));
                std::slice::from_mut(&mut one)
            };
            // One journal record per message, appended under the locks it
            // executes under: a batch recovers as atomically as it ran.
            if req.is_journaled() {
                self.persist.append(WalRecordRef::Apply(&req));
            }
            self.apply(held, req)
        };
        // Group commit: one fsync covers every record journaled since the
        // last commit, by any worker. Under the deferred policy the WAL
        // commits only at flush points, mirroring §3.11 media deferral.
        if self.flush_policy == FlushPolicy::WriteThrough {
            self.persist.commit();
        }
        reply
    }

    /// The router: applies `req` to the shards in `held`, batch members in
    /// order, each leaf counted by its shard and — when it writes the block
    /// — by the node's media accounting. `ops_handled` counts leaves, so a
    /// batch of m adds m. A batch's maximal runs of consecutive adds to one
    /// stripe each go to their block as one [`BlockState::add`]; a lone add
    /// is a run of one.
    ///
    /// `held` must hold the shard of every leaf of `req`.
    fn apply(&self, held: &mut [ShardGuard<'_>], req: Request) -> Reply {
        let stripe = req.stripe();
        let writes_medium = req.writes_medium();
        let reply = match req {
            Request::Batch(members) => {
                let mut replies = Vec::with_capacity(members.len());
                let mut run = (stripe, Vec::new());
                let mut members = members.into_iter();
                while let Some(m) = members.next() {
                    let next = self.increment(m);
                    // A run ends at the first member that does not extend it.
                    if !matches!(&next, Ok((s, _)) if *s == run.0) {
                        self.flush_run(held, &mut run, &mut replies);
                    }
                    match next {
                        Ok((s, inc)) => {
                            // One allocation per batch, and none for a
                            // batch without adds: the node's allocator is
                            // shared with every block it serves.
                            if run.1.capacity() == 0 {
                                run.1.reserve_exact(members.len() + 1);
                            }
                            run.0 = s;
                            run.1.push(inc);
                        }
                        Err(other) => replies.push(self.apply(held, other)),
                    }
                }
                self.flush_run(held, &mut run, &mut replies);
                Reply::Batch(replies)
            }
            Request::Read { .. } => Reply::Read(self.block(held, stripe).read()),
            Request::Swap { value, ntid, .. } => {
                Reply::Swap(self.block(held, stripe).swap(value, ntid))
            }
            add @ Request::Add { .. } => {
                let Ok((_, inc)) = self.increment(add) else {
                    // A scaled add the node cannot scale is answered, not
                    // applied.
                    self.shard(held, stripe).ops_handled += 1;
                    return Reply::NoCode;
                };
                let mut run = [inc];
                let modes = self.add_run(held, stripe, &mut run);
                let [inc] = run;
                return answered(inc, modes);
            }
            Request::CheckTid { ntid, otid, .. } => {
                Reply::CheckTid(self.block(held, stripe).checktid(ntid, otid))
            }
            Request::TryLock { lm, caller, .. } => {
                Reply::TryLock(self.lock_block(held, stripe).trylock(lm, caller))
            }
            Request::SetLock { lm, caller, .. } => {
                self.lock_block(held, stripe).setlock(lm, caller);
                Reply::Ack
            }
            Request::GetState { .. } => Reply::GetState(self.block(held, stripe).get_state()),
            Request::GetMeta { .. } => Reply::GetState(self.block(held, stripe).meta()),
            Request::GetRecent { lm, caller, .. } => {
                Reply::GetRecent(self.lock_block(held, stripe).getrecent(lm, caller))
            }
            Request::Reconstruct { cset, block, .. } => {
                Reply::Reconstruct(self.block(held, stripe).reconstruct(cset, block))
            }
            Request::Finalize { epoch, .. } => {
                self.block(held, stripe).finalize(epoch);
                Reply::Ack
            }
            Request::GcOld { tids, .. } => Reply::Gc(self.block(held, stripe).gc_old(&tids)),
            Request::GcRecent { tids, .. } => Reply::Gc(self.block(held, stripe).gc_recent(&tids)),
            Request::Probe { .. } => {
                let (opmode, lmode, oldest_pending_age) = self.block(held, stripe).probe();
                Reply::Probe {
                    opmode,
                    lmode,
                    oldest_pending_age,
                }
            }
        };
        if writes_medium {
            self.account_media_write(stripe);
        }
        reply
    }

    /// `req` as its block's increment if it is an `Add` the node can apply,
    /// scaled in place when it came as a §3.11 multicast (it arrived owned,
    /// so no copy). Any other request comes back unchanged — among them a
    /// scaled add whose `(j, i)` lies outside the node's code's p × k matrix
    /// (or that reached a node with no code): it has no coefficient to be
    /// scaled by.
    fn increment(&self, req: Request) -> Result<(StripeId, Increment), Request> {
        let code_for = |scale: Option<(usize, usize)>| {
            let (j, i) = scale?;
            self.code.as_ref().filter(|c| j < c.p() && i < c.k()).map(|c| (c, j, i))
        };
        match req {
            Request::Add { stripe, mut delta, ntid, otid, epoch, scale }
                if scale.is_none() || code_for(scale).is_some() =>
            {
                if let Some((code, j, i)) = code_for(scale) {
                    code.scale_in_place(j, i, &mut delta);
                }
                Ok((stripe, Increment::new(delta, ntid, otid, epoch)))
            }
            other => Err(other),
        }
    }

    /// Applies a run of increments to `stripe`'s block as one
    /// [`BlockState::add`], counting each as a handled operation and a media
    /// write, and returns the modes every member's reply carries.
    fn add_run(
        &self,
        held: &mut [ShardGuard<'_>],
        stripe: StripeId,
        run: &mut [Increment],
    ) -> (OpMode, LMode) {
        let modes = self.counted_block(held, stripe, run.len() as u64).add(run);
        for _ in 0..run.len() {
            self.account_media_write(stripe);
        }
        modes
    }

    /// Applies a batch's pending run of adds, if any, and appends its
    /// members' replies in order; the run's buffer is left empty for the
    /// next run.
    fn flush_run(
        &self,
        held: &mut [ShardGuard<'_>],
        (stripe, run): &mut (StripeId, Vec<Increment>),
        replies: &mut Vec<Reply>,
    ) {
        if !run.is_empty() {
            let modes = self.add_run(held, *stripe, run);
            replies.extend(run.drain(..).map(|inc| answered(inc, modes)));
        }
    }

    /// The held shard that serves `stripe`.
    fn shard<'s>(&self, held: &'s mut [ShardGuard<'_>], stripe: StripeId) -> &'s mut Shard {
        let idx = self.shard_of(stripe);
        #[expect(
            clippy::expect_used,
            reason = "`apply` is private and each caller holds the shard of every leaf it \
                      passes — `handle` locks a single request's shard or a batch's collected \
                      set first, replay holds them all — so no input reaches this with its \
                      shard unheld"
        )]
        held.iter_mut()
            .find(|g| g.idx == idx)
            .expect("the leaf's shard was locked before apply")
    }

    /// Counts one handled operation at `stripe`'s shard and returns the
    /// state machine of its block, materializing it on first touch.
    fn block<'s>(&self, held: &'s mut [ShardGuard<'_>], stripe: StripeId) -> &'s mut BlockState {
        self.counted_block(held, stripe, 1)
    }

    /// [`ShardedNode::block`] for `ops` operations at once (a run of adds).
    fn counted_block<'s>(
        &self,
        held: &'s mut [ShardGuard<'_>],
        stripe: StripeId,
        ops: u64,
    ) -> &'s mut BlockState {
        let (shard, block_size) = (self.shard(held, stripe), self.block_size);
        shard.ops_handled += ops;
        let remap_garbage = shard.remap_garbage;
        shard
            .blocks
            .entry(stripe)
            .or_insert_with(|| match remap_garbage {
                Some(g) => BlockState::after_fail_remap(vec![g; block_size]),
                None => BlockState::new(block_size),
            })
    }

    /// [`ShardedNode::block`] for the lock protocol (`trylock` / `setlock`
    /// / `getrecent`), which is counted separately.
    fn lock_block<'s>(
        &self,
        held: &'s mut [ShardGuard<'_>],
        stripe: StripeId,
    ) -> &'s mut BlockState {
        self.shard(held, stripe).lock_ops += 1;
        self.block(held, stripe)
    }

    /// Node-level §3.11 media accounting: the node has one medium, so the
    /// deferred-flush marker sees every shard's writes in one sequence.
    fn account_media_write(&self, stripe: StripeId) {
        match self.flush_policy {
            FlushPolicy::WriteThrough => {
                self.media_writes.fetch_add(1, Ordering::Relaxed);
            }
            FlushPolicy::Deferred => {
                let mut dirty = self.dirty.lock();
                match *dirty {
                    Some(d) if d == stripe => {} // coalesced with pending flush
                    Some(_) => {
                        // Sequential pass moved on: flush the previous block.
                        self.media_writes.fetch_add(1, Ordering::Relaxed);
                        *dirty = Some(stripe);
                    }
                    None => *dirty = Some(stripe),
                }
            }
        }
    }

    /// Media writes performed under the current [`FlushPolicy`]
    /// (instrumentation for the §3.11 sequential-write ablation).
    pub fn media_writes(&self) -> u64 {
        self.media_writes.load(Ordering::Relaxed)
    }

    /// Flushes any deferred dirty block to the medium, and commits any
    /// journal records deferred with it.
    pub fn flush_all(&self) {
        if self.dirty.lock().take().is_some() {
            self.media_writes.fetch_add(1, Ordering::Relaxed);
        }
        self.persist.commit();
    }

    /// Simulates a crash + remap (§3.5): every stripe-block is replaced by
    /// INIT state holding the supplied garbage pattern. The node keeps its
    /// *logical* identity; the directory layer models the physical swap.
    /// The replacement node arrives with a *fresh* medium: the journal is
    /// discarded and restarted with the remap event, so a later
    /// restart-with-disk replays onto garbage.
    pub fn fail_remap(&self, garbage_byte: u8) {
        let mut held = self.shards.lock_all_shards();
        for shard in &mut held {
            shard.fail_remap(garbage_byte, self.block_size);
        }
        *self.dirty.lock() = None;
        self.persist.truncate();
        self.persist.append(WalRecordRef::FailRemap(garbage_byte));
        self.persist.commit();
    }

    /// Expires recovery locks held by a crashed `client` (Fig. 6 line 34).
    /// Returns how many locks expired.
    ///
    /// Locks every shard first (ascending, like every other multi-shard
    /// acquirer) so the expiry is atomic across the node — and so its
    /// single journal record sits at a point that is a valid
    /// linearization of the node's execution order.
    pub fn on_client_failure(&self, client: ClientId) -> usize {
        let mut held = self.shards.lock_all_shards();
        self.persist.append(WalRecordRef::ClientFailure(client));
        let expired = held
            .iter_mut()
            .map(|shard| shard.on_client_failure(client))
            .sum();
        drop(held);
        self.persist.commit();
        expired
    }

    /// Whether an armed power failure has tripped the durability backend
    /// (the machine is "off"; the transport takes the node down).
    pub fn persist_tripped(&self) -> bool {
        self.persist.tripped()
    }

    /// Restart-with-disk: wipes all in-memory state (a restart loses RAM)
    /// and replays the journal through the router. Returns `false` —
    /// leaving memory untouched — if the backend is not durable, in which
    /// case the caller must wipe-and-rebuild instead (§3.5).
    ///
    /// Counters restart from zero, as a real process restart would; the
    /// replay re-counts the operations it re-applies, but not media
    /// writes — rebuilding RAM from the journal writes nothing.
    pub fn restart_from_disk(&self) -> bool {
        let Some(records) = self.persist.replay() else {
            return false;
        };
        let mut held = self.shards.lock_all_shards();
        for shard in &mut held {
            **shard = Shard::default();
        }
        self.shards.acquisitions.store(0, Ordering::Relaxed);
        self.shards.contended.store(0, Ordering::Relaxed);
        for rec in records {
            match rec {
                WalRecord::Apply(req) => drop(self.apply(&mut held, req)),
                WalRecord::ClientFailure(c) => {
                    for shard in &mut held {
                        shard.on_client_failure(c);
                    }
                }
                WalRecord::FailRemap(garbage) => {
                    for shard in &mut held {
                        shard.fail_remap(garbage, self.block_size);
                    }
                }
            }
        }
        *self.dirty.lock() = None;
        self.media_writes.store(0, Ordering::Relaxed);
        true
    }

    /// Locks every shard (ascending) and returns a whole-node view for
    /// tests and monitoring. Monitoring acquisitions are not counted in the
    /// contention instrumentation.
    pub fn lock_all(&self) -> NodeView<'_> {
        NodeView {
            node: self,
            guards: self.shards.lock_all_shards(),
        }
    }
}

/// Every shard of a [`ShardedNode`] held at once, to read a consistent
/// picture of the node — what tests and monitoring get from the network's
/// `with_node`. Requests do not come this way: they go through
/// [`ShardedNode::handle`] like any client's.
#[derive(Debug)]
pub struct NodeView<'a> {
    node: &'a ShardedNode,
    /// One guard per shard, indexed by shard number.
    guards: Vec<ShardGuard<'a>>,
}

impl NodeView<'_> {
    /// Total requests handled, summed across shards.
    pub fn ops_handled(&self) -> u64 {
        self.guards.iter().map(|g| g.ops_handled).sum()
    }

    /// Lock-protocol requests handled (`trylock` / `setlock` /
    /// `getrecent`), summed across shards — instrumentation for asserting
    /// that the degraded-read fast path really takes no locks.
    pub fn lock_ops(&self) -> u64 {
        self.guards.iter().map(|g| g.lock_ops).sum()
    }

    /// Media writes performed under the node's flush policy.
    pub fn media_writes(&self) -> u64 {
        self.node.media_writes()
    }

    /// Durability counters from the node's persistence backend (all zero
    /// on the in-memory backend).
    pub fn persist_stats(&self) -> crate::persist::PersistStats {
        self.node.persist.stats()
    }

    /// Flushes any deferred dirty block to the medium.
    pub fn flush_all(&mut self) {
        self.node.flush_all();
    }

    /// Shard-lock acquisitions that contended (see
    /// [`ShardedNode::contended_shard_locks`]).
    pub fn contended_shard_locks(&self) -> u64 {
        self.node.contended_shard_locks()
    }

    /// Direct access to a stripe-block's state (tests and monitoring only).
    pub fn block_state(&self, stripe: StripeId) -> Option<&BlockState> {
        let shard = self.guards.get(self.node.shard_of(stripe))?;
        shard.blocks.get(&stripe)
    }

    /// Stripes this node currently holds state for (unordered).
    pub fn stripes(&self) -> Vec<StripeId> {
        self.guards
            .iter()
            .flat_map(|g| g.blocks.keys().copied())
            .collect()
    }

    /// Total protocol metadata bytes across all stripe-blocks (§6.5).
    pub fn metadata_bytes(&self) -> usize {
        self.guards
            .iter()
            .flat_map(|g| g.blocks.values())
            .map(BlockState::metadata_bytes)
            .sum()
    }

    /// Number of stripe-blocks materialized at this node.
    pub fn resident_blocks(&self) -> usize {
        self.guards.iter().map(|g| g.blocks.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::AddStatus;
    use crate::types::{Epoch, LMode, Tid};
    use std::sync::Arc;

    fn tid(seq: u64) -> Tid {
        Tid::new(seq, 0, ClientId(1))
    }

    fn add(stripe: u64, seq: u64) -> Request {
        Request::Add {
            stripe: StripeId(stripe),
            delta: vec![1, 1],
            ntid: tid(seq),
            otid: None,
            epoch: Epoch(0),
            scale: None,
        }
    }

    #[test]
    fn routes_stripes_to_distinct_shards() {
        let node = ShardedNode::new(NodeId(0), 2, 4);
        for s in 0..8u64 {
            node.handle(Request::Swap {
                stripe: StripeId(s),
                value: vec![s as u8; 2],
                ntid: tid(s + 1),
            });
        }
        let view = node.lock_all();
        assert_eq!(view.resident_blocks(), 8);
        assert_eq!(view.ops_handled(), 8);
        for s in 0..8u64 {
            assert_eq!(
                view.block_state(StripeId(s)).unwrap().raw_block(),
                &[s as u8; 2]
            );
        }
    }

    #[test]
    fn cross_shard_batch_is_atomic_and_ordered() {
        let node = ShardedNode::new(NodeId(0), 4, 4);
        // Batch members span three shards; the swap on stripe 2 must be
        // visible to the read later in the same batch.
        let reply = node.handle(Request::Batch(vec![
            Request::Swap {
                stripe: StripeId(2),
                value: vec![7; 4],
                ntid: tid(1),
            },
            Request::Read { stripe: StripeId(5) },
            Request::Read { stripe: StripeId(2) },
        ]));
        let Reply::Batch(rs) = reply else { panic!() };
        assert!(matches!(&rs[0], Reply::Swap(s) if s.block == Some(vec![0; 4])));
        assert!(matches!(&rs[2], Reply::Read(r) if r.block == Some(vec![7; 4])));
    }

    #[test]
    fn deferred_flush_accounting_is_node_level() {
        // Alternating stripes land in *different* shards; a per-shard dirty
        // marker would coalesce them, but the node has one medium, so each
        // alternation must flush — whatever the shard count.
        for n_shards in [1, 4] {
            let node =
                ShardedNode::new(NodeId(0), 2, n_shards).with_flush_policy(FlushPolicy::Deferred);
            for i in 0..6u64 {
                node.handle(add(i % 2, i + 1));
            }
            node.flush_all();
            assert_eq!(node.media_writes(), 6, "five alternation flushes + final flush");
        }
    }

    #[test]
    fn batch_locks_each_of_its_shards_once() {
        // Members repeat shards and between them span all four: the lock
        // set is the distinct shards, not one acquisition per member.
        let node = ShardedNode::new(NodeId(0), 2, 4);
        let before = node.shard_lock_acquisitions();
        let stripes = [3, 0, 7, 1, 4, 2, 3, 5];
        let Reply::Batch(replies) = node.handle(Request::Batch(
            stripes.iter().map(|&s| add(s, s + 1)).collect(),
        )) else {
            panic!("expected Reply::Batch");
        };
        assert_eq!(replies.len(), stripes.len());
        assert_eq!(node.shard_lock_acquisitions() - before, 4);
        // A nested batch adds no acquisitions of its own.
        node.handle(Request::Batch(vec![
            add(0, 20),
            Request::Batch(vec![add(4, 21), add(1, 22)]),
        ]));
        assert_eq!(node.shard_lock_acquisitions() - before, 4 + 2);
    }

    #[test]
    fn scaled_add_reaches_every_shard_code() {
        let code = CodeFamily::rs(2, 4).unwrap();
        let expected = code.scale_broadcast_delta(0, 0, &[1; 4]);
        let node = ShardedNode::new(NodeId(0), 4, 3).with_code(code);
        for s in 0..3u64 {
            let r = node.handle(Request::Add {
                stripe: StripeId(s),
                delta: vec![1; 4],
                ntid: tid(s + 1),
                otid: None,
                epoch: Epoch(0),
                scale: Some((0, 0)),
            });
            assert!(matches!(r, Reply::Add(a) if a.status == AddStatus::Ok));
            let view = node.lock_all();
            assert_eq!(view.block_state(StripeId(s)).unwrap().raw_block(), &expected[..]);
        }
    }

    #[test]
    fn fail_remap_and_client_failure_span_shards() {
        let node = ShardedNode::new(NodeId(0), 2, 3);
        for s in 0..6u64 {
            node.handle(Request::Swap {
                stripe: StripeId(s),
                value: vec![1; 2],
                ntid: tid(s + 1),
            });
        }
        node.handle(Request::TryLock {
            stripe: StripeId(4),
            lm: LMode::L1,
            caller: ClientId(9),
        });
        assert_eq!(node.on_client_failure(ClientId(9)), 1);
        node.fail_remap(0xEE);
        let view = node.lock_all();
        for s in 0..6u64 {
            assert_eq!(view.block_state(StripeId(s)).unwrap().raw_block(), &[0xEE; 2]);
        }
    }

    #[test]
    fn disjoint_shard_traffic_never_contends() {
        // Four threads, each hammering a stripe in its own shard: the
        // contention counter must stay exactly zero — the measurable form
        // of "independent-stripe batches don't serialize".
        let node = Arc::new(ShardedNode::new(NodeId(0), 8, 4));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let node = Arc::clone(&node);
                s.spawn(move || {
                    for i in 0..500u64 {
                        node.handle(Request::Batch(vec![
                            Request::Swap {
                                stripe: StripeId(t),
                                value: vec![i as u8; 8],
                                ntid: Tid::new(i + 1, 0, ClientId(t as u32)),
                            },
                            Request::Read { stripe: StripeId(t) },
                        ]));
                    }
                });
            }
        });
        assert_eq!(
            node.contended_shard_locks(),
            0,
            "disjoint-shard batches must not serialize"
        );
        assert_eq!(node.shard_lock_acquisitions(), 4 * 500);
    }

    #[test]
    fn wal_restart_with_disk_recovers_blocks_and_metadata() {
        use crate::persist::{scratch_dir, Persistence, WalBackend};
        use crate::types::OpMode;
        let dir = scratch_dir("shard");
        let wal: Arc<dyn Persistence> = Arc::new(WalBackend::create(dir.join("n.wal")));
        let node = ShardedNode::new(NodeId(0), 2, 3).with_persistence(Arc::clone(&wal));
        for s in 0..5u64 {
            node.handle(Request::Swap {
                stripe: StripeId(s),
                value: vec![s as u8 + 1; 2],
                ntid: tid(s + 1),
            });
        }
        // A held recovery lock, an expired one, and a batch.
        node.handle(Request::TryLock {
            stripe: StripeId(1),
            lm: LMode::L1,
            caller: ClientId(7),
        });
        node.handle(Request::TryLock {
            stripe: StripeId(2),
            lm: LMode::L1,
            caller: ClientId(9),
        });
        assert_eq!(node.on_client_failure(ClientId(9)), 1);
        node.handle(Request::Batch(vec![add(0, 9), add(4, 10)]));

        let snapshot: Vec<_> = {
            let view = node.lock_all();
            (0..5u64)
                .map(|s| {
                    let b = view.block_state(StripeId(s)).unwrap();
                    (b.raw_block().to_vec(), b.opmode(), b.lmode(), b.epoch())
                })
                .collect()
        };
        assert!(node.restart_from_disk(), "WAL backend must recover");
        let view = node.lock_all();
        for (s, (bytes, opmode, lmode, epoch)) in snapshot.iter().enumerate() {
            let b = view.block_state(StripeId(s as u64)).unwrap();
            assert_eq!(b.raw_block(), &bytes[..], "stripe {s} bytes");
            assert_eq!(b.opmode(), *opmode, "stripe {s} opmode");
            assert_eq!(b.lmode(), *lmode, "stripe {s} lmode");
            assert_eq!(b.epoch(), *epoch, "stripe {s} epoch");
        }
        assert_eq!(view.block_state(StripeId(1)).unwrap().lmode(), LMode::L1);
        assert_eq!(view.block_state(StripeId(2)).unwrap().lmode(), LMode::Exp);
        assert_eq!(view.block_state(StripeId(0)).unwrap().opmode(), OpMode::Norm);
        drop(view);

        // The in-memory backend cannot restart with disk.
        let mem = ShardedNode::new(NodeId(0), 2, 3);
        mem.handle(Request::Swap {
            stripe: StripeId(0),
            value: vec![3; 2],
            ntid: tid(1),
        });
        assert!(!mem.restart_from_disk());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn nested_batch_is_journaled_as_its_leaves_and_replays() {
        // The decoder follows no batch nesting; a nested batch journaled
        // as it arrived would stop replay at its frame and drop every
        // later record with it.
        use crate::persist::{scratch_dir, WalBackend};
        let dir = scratch_dir("shard-nested");
        let node = ShardedNode::new(NodeId(0), 2, 3)
            .with_persistence(Arc::new(WalBackend::create(dir.join("n.wal"))));
        let swap = |s: u64| Request::Swap {
            stripe: StripeId(s),
            value: vec![s as u8 + 1; 2],
            ntid: tid(s + 1),
        };
        node.handle(Request::Batch(vec![
            swap(0),
            Request::Batch(vec![add(1, 10), add(2, 11)]),
        ]));
        node.handle(swap(3));

        let snapshot = |node: &ShardedNode| -> Vec<_> {
            let view = node.lock_all();
            (0..4u64)
                .map(|s| {
                    let b = view.block_state(StripeId(s)).expect("written above");
                    let mut b = b.clone();
                    let st = b.get_state();
                    (st.block, st.epoch, st.recentlist, st.oldlist)
                })
                .collect()
        };
        let before = snapshot(&node);
        assert!(node.restart_from_disk(), "WAL backend must recover");
        assert_eq!(snapshot(&node), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journaled_scaled_add_outside_the_code_replays_as_no_code() {
        // The journal keeps a request before the node looks inside it, so a
        // CRC-valid frame can hold a scaled add no coefficient exists for.
        // Replay must answer it as the live node did — `NoCode`, nothing
        // touched — and carry on to the records behind it.
        use crate::persist::{scratch_dir, WalBackend};
        let dir = scratch_dir("shard-scale");
        let node = ShardedNode::new(NodeId(0), 2, 3)
            .with_code(CodeFamily::rs(2, 4).unwrap())
            .with_persistence(Arc::new(WalBackend::create(dir.join("n.wal"))));
        let scaled = |stripe: u64, seq: u64, scale| Request::Add {
            stripe: StripeId(stripe),
            delta: vec![1, 1],
            ntid: tid(seq),
            otid: None,
            epoch: Epoch(0),
            scale: Some(scale),
        };
        assert_eq!(node.handle(scaled(0, 1, (2, 0))), Reply::NoCode);
        let Reply::Batch(replies) = node.handle(Request::Batch(vec![add(1, 2), scaled(1, 3, (0, 2))]))
        else {
            panic!("expected Reply::Batch");
        };
        assert!(matches!(&replies[..], [Reply::Add(a), Reply::NoCode] if a.status == AddStatus::Ok));
        node.handle(scaled(2, 4, (1, 1)));
        let blocks = |node: &ShardedNode| -> Vec<_> {
            let view = node.lock_all();
            (0..3u64).map(|s| view.block_state(StripeId(s)).cloned()).collect()
        };
        let before = blocks(&node);
        assert_eq!(before[0], None, "the refused add materialised nothing");
        assert!(node.restart_from_disk(), "replay got past both refused adds");
        assert_eq!(blocks(&node), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A batch whose adds run together at the node answers, and leaves
    /// behind, exactly what its members sent one at a time do — and replays
    /// from the journal to the same blocks.
    #[test]
    fn a_batch_of_add_runs_equals_its_members_one_at_a_time() {
        use crate::persist::{scratch_dir, WalBackend};
        // Past one tile, so the run's multi-source pass crosses a boundary.
        const BLOCK: usize = ajx_gf::kernel::TILE + 6;
        let delta = |seed: u8| -> Vec<u8> {
            (0..BLOCK).map(|b| (b as u8).wrapping_mul(seed) ^ seed).collect()
        };
        let add = |stripe: u64, seq: u64, otid: Option<u64>, epoch: u64, scale| Request::Add {
            stripe: StripeId(stripe),
            delta: delta(seq as u8),
            ntid: tid(seq),
            otid: otid.map(tid),
            epoch: Epoch(epoch),
            scale,
        };
        let setup = [
            Request::Swap { stripe: StripeId(0), value: delta(1), ntid: tid(1) },
            Request::Swap { stripe: StripeId(1), value: delta(2), ntid: tid(2) },
            // Stripe 2 sits at epoch 3, so an epoch-0 add to it is stale.
            Request::Finalize { stripe: StripeId(2), epoch: Epoch(3) },
        ];
        let members = vec![
            add(0, 10, Some(1), 0, None),
            // ORDER behind a member of this same batch: admitted.
            add(0, 11, Some(10), 0, None),
            // ORDER behind a write the block never saw.
            add(0, 12, Some(99), 0, None),
            // A duplicate tid: acknowledged, not applied again.
            add(0, 10, Some(1), 0, None),
            add(0, 13, None, 0, Some((1, 0))),
            Request::Probe { stripe: StripeId(0) },
            add(0, 14, Some(11), 0, Some((0, 1))),
            // Outside the RS(2, 4) coefficient matrix: answered, not run.
            add(0, 15, None, 0, Some((5, 0))),
            add(0, 16, None, 0, None),
            // The run moves to the next stripe without a break.
            add(1, 17, Some(2), 0, None),
            add(1, 18, None, 0, Some((1, 1))),
            Request::Swap { stripe: StripeId(1), value: delta(19), ntid: tid(19) },
            add(1, 20, Some(19), 0, None),
            add(2, 21, None, 0, None),
            add(2, 22, None, 3, None),
            add(2, 23, Some(22), 4, Some((0, 0))),
            Request::CheckTid { stripe: StripeId(2), ntid: tid(23), otid: tid(22) },
            add(0, 24, Some(16), 0, None),
        ];
        for policy in [FlushPolicy::WriteThrough, FlushPolicy::Deferred] {
            let dir = scratch_dir("shard-runs");
            let node = |n_shards| {
                ShardedNode::new(NodeId(0), BLOCK, n_shards)
                    .with_code(CodeFamily::rs(2, 4).unwrap())
                    .with_flush_policy(policy)
            };
            let batched = node(2).with_persistence(Arc::new(WalBackend::create(dir.join("n.wal"))));
            let alone = node(2);
            for req in &setup {
                assert_eq!(batched.handle(req.clone()), alone.handle(req.clone()));
            }
            let Reply::Batch(replies) = batched.handle(Request::Batch(members.clone())) else {
                panic!("a batch answers with a batch");
            };
            let one_by_one: Vec<Reply> = members.iter().map(|m| alone.handle(m.clone())).collect();
            assert_eq!(replies, one_by_one, "{policy:?}: replies, in order");
            let statuses: Vec<_> = replies
                .iter()
                .filter_map(|r| if let Reply::Add(a) = r { Some(a.status) } else { None })
                .collect();
            use AddStatus::{Ok as A, Order as O, Unavail as U};
            assert_eq!(statuses, [A, A, O, A, A, A, A, A, A, A, U, A, A, A], "{policy:?}");

            let state = |node: &ShardedNode| -> (Vec<_>, u64) {
                let view = node.lock_all();
                let blocks = (0..3u64)
                    .map(|s| {
                        let mut b = view.block_state(StripeId(s)).expect("touched above").clone();
                        let st = b.get_state();
                        (st.block, st.epoch, st.recentlist, st.oldlist, b.probe())
                    })
                    .collect();
                (blocks, view.ops_handled())
            };
            let want = state(&alone);
            assert_eq!(state(&batched), want, "{policy:?}: blocks, tid lists, ops handled");
            batched.flush_all();
            alone.flush_all();
            assert_eq!(batched.media_writes(), alone.media_writes(), "{policy:?}: media writes");
            assert!(batched.restart_from_disk(), "WAL backend must recover");
            assert_eq!(state(&batched), want, "{policy:?}: the batch replays to the same blocks");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn same_shard_batches_stay_atomic_under_contention() {
        // Two threads, same stripe: contention is expected, atomicity must
        // hold (each batch's read sees its own swap).
        let node = Arc::new(ShardedNode::new(NodeId(0), 8, 4));
        std::thread::scope(|s| {
            for t in 0..2u32 {
                let node = Arc::clone(&node);
                s.spawn(move || {
                    for i in 0..300u64 {
                        let fill = ((t as u8 + 1) * 7) ^ (i as u8);
                        let reply = node.handle(Request::Batch(vec![
                            Request::Swap {
                                stripe: StripeId(0),
                                value: vec![fill; 8],
                                ntid: Tid::new(i + 1, 0, ClientId(t)),
                            },
                            Request::Read { stripe: StripeId(0) },
                        ]));
                        let Reply::Batch(rs) = reply else { panic!() };
                        let Reply::Read(r) = &rs[1] else { panic!() };
                        assert_eq!(r.block.as_deref(), Some(&vec![fill; 8][..]));
                    }
                });
            }
        });
    }

    #[test]
    fn watchdog_allows_ascending_and_reacquisition() {
        let node = ShardedNode::new(NodeId(9), 8, 4);
        let a = node.shards.lock_shard(0);
        let b = node.shards.lock_shard(2);
        let c = node.shards.lock_shard(3);
        drop(c);
        drop(b);
        drop(a);
        // After release the order state resets: a lower index is fine again.
        let d = node.shards.lock_shard(1);
        drop(d);
        // Whole-node acquisition is ascending by construction.
        let view = node.lock_all();
        drop(view);
    }

    #[test]
    fn watchdog_catches_descending_acquisition() {
        if !cfg!(debug_assertions) {
            return; // the watchdog compiles out of release builds
        }
        let node = ShardedNode::new(NodeId(9), 8, 4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _hi = node.shards.lock_shard(2);
            let _lo = node.shards.lock_shard(1); // descending: must assert
        }));
        assert!(
            result.is_err(),
            "descending shard-lock acquisition must trip the lock-order watchdog"
        );
        // The unwound guards reported their release: ascending works again.
        let a = node.shards.lock_shard(1);
        let b = node.shards.lock_shard(2);
        drop(b);
        drop(a);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "shard-lock order violation")]
    fn descending_shard_locks_trip_the_watchdog() {
        let node = ShardedNode::new(NodeId(9), 8, 2);
        let _one = node.shards.lock_shard(1);
        let _zero = node.shards.lock_shard(0);
    }

    #[test]
    fn watchdog_tracks_nodes_independently() {
        // Holding a high shard on one node must not forbid a low shard on
        // another: the ordering discipline is per node.
        let n1 = ShardedNode::new(NodeId(1), 8, 4);
        let n2 = ShardedNode::new(NodeId(2), 8, 4);
        let hi = n1.shards.lock_shard(3);
        let lo = n2.shards.lock_shard(0);
        drop(lo);
        drop(hi);
    }
}
