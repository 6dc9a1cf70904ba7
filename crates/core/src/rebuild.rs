//! The batched stripe-rebuild engine: bulk recovery after a node failure.
//!
//! Fig. 6 recovery repairs one stripe at a time with ~5 serial rounds of
//! per-node RPCs — correct, but painfully slow for the common bulk case: a
//! storage node died, it was remapped to a fresh INIT replacement, and now
//! *every* stripe needs its block on that node reconstructed while the
//! rest of the stripe sits quietly in `NORM`. This module batches that
//! case aggressively:
//!
//! * stripes are processed in chunks of [`REBUILD_CHUNK`]: each protocol
//!   round (probe, `TryLock`, `GetState`, `Reconstruct`, `Finalize`) sends
//!   **one batched message per storage node** covering every stripe in the
//!   chunk — per-stripe round trips collapse to per-node round trips;
//! * windows of `cfg.rebuild_width` chunks move through those rounds in
//!   lockstep on the calling thread (the shape of the client's write
//!   windows): a round's fan-out carries every chunk's messages, so the
//!   chunks overlap their round trips without a thread each;
//! * decode plans come from the config's shared [`ajx_erasure::PlanCache`]
//!   (the Vandermonde inversion for "everyone but node X" happens once,
//!   not once per stripe) and all scratch goes through the thread-local
//!   buffer pool.
//!
//! The fast path only handles the unambiguous case. Because all `n` locks
//! are taken at `L1` before states are read, no swap or add can land in
//! between — the states are frozen, which is why (unlike Fig. 6, which
//! weakens locks to `L0` to drain writers) no `GetRecent` re-check is
//! needed before reconstructing. Anything harder — a lost lock race, an
//! adopted crashed recovery (`RECONS`), writes still draining (fewer than
//! `k + slack` consistent blocks), transport trouble — is handed to the
//! serial Fig. 6 fallback, whose re-entrant `trylock` takes over whatever
//! locks the fast path still holds.

use crate::client::Client;
use crate::error::ProtocolError;
use crate::rpc::{call_groups, expect_reply, unbatch};
use ajx_storage::{Epoch, GetStateReply, LMode, NodeId, OpMode, Reply, Request, StripeId};
use std::collections::{BTreeMap, BTreeSet};

/// Stripes per batched round: bounds peak memory (a chunk keeps up to
/// `REBUILD_CHUNK × n` blocks alive in its reconstruct round) while
/// amortizing the per-message framing well.
const REBUILD_CHUNK: usize = 32;

/// What a [`Client::rebuild_stripes`] call accomplished.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RebuildReport {
    /// Stripes examined.
    pub stripes: usize,
    /// Stripes probed healthy and skipped without locking anything.
    pub skipped: usize,
    /// Stripes repaired by the batched fast path.
    pub rebuilt: usize,
    /// Stripes handed to serial Fig. 6 recovery (lost lock races, adopted
    /// crashed recoveries, draining writes, transport trouble).
    pub recovered: usize,
    /// Block-content bytes this call moved over the wire, both directions
    /// (headers and metadata-only messages excluded) — the repair-bandwidth
    /// figure `BENCH_recovery.json` compares across code families.
    pub repair_bytes: u64,
    /// Request/reply round trips this call completed.
    pub round_trips: u64,
}

impl RebuildReport {
    fn absorb(&mut self, other: RebuildReport) {
        self.stripes += other.stripes;
        self.skipped += other.skipped;
        self.rebuilt += other.rebuilt;
        self.recovered += other.recovered;
    }
}

/// Entry point behind [`Client::rebuild_stripes`].
pub(crate) fn rebuild_stripes(
    client: &Client,
    stripes: &[StripeId],
) -> Result<RebuildReport, ProtocolError> {
    // Byte accounting: everything this call sends and receives goes
    // through the one client endpoint, so a snapshot delta is exactly the
    // rebuild's traffic (payload counters skip headers and metadata-only
    // rounds by construction).
    let before = client.endpoint().stats().snapshot();
    let mut report = rebuild_all_chunks(client, stripes)?;
    let spent = client.endpoint().stats().snapshot().since(&before);
    report.repair_bytes = spent.payload_sent + spent.payload_received;
    report.round_trips = spent.round_trips;
    Ok(report)
}

/// Runs the stripes through [`rebuild_window`] in windows of
/// `cfg.rebuild_width` chunks, one after another on the calling thread;
/// every window runs, then the first error is the result.
fn rebuild_all_chunks(
    client: &Client,
    stripes: &[StripeId],
) -> Result<RebuildReport, ProtocolError> {
    let window = REBUILD_CHUNK * client.config().rebuild_width.max(1);
    let reports: Vec<_> = stripes.chunks(window).map(|w| rebuild_window(client, w)).collect();
    let mut report = RebuildReport::default();
    for r in reports {
        report.absorb(r?);
    }
    Ok(report)
}

/// Repairs a window of stripes with batched per-node rounds. The window's
/// chunks move in lockstep: each round sends, in one fan-out, the messages
/// every chunk would send alone — one batched message per (chunk, storage
/// node), since [`group_by_node`] keys by both. A malformed reply ends the
/// window with its error.
fn rebuild_window(client: &Client, window: &[StripeId]) -> Result<RebuildReport, ProtocolError> {
    let cfg = client.config();
    let endpoint = client.endpoint();
    let caller = client.id();
    let n = cfg.n();
    let k = cfg.k();
    let node_of = |s: StripeId, t: usize| NodeId(cfg.layout.node_for(s.0, t) as u32);
    let mut report = RebuildReport {
        stripes: window.len(),
        ..RebuildReport::default()
    };
    let mut fallback: BTreeSet<usize> = BTreeSet::new();

    // ---- Probe round: find the stripes that actually need work. --------
    // One batched Probe per storage node; a stripe is healthy only if all
    // n of its blocks report NORM and unlocked.
    let mut needs = vec![false; window.len()];
    {
        let pairs = (0..window.len()).flat_map(|x| (0..n).map(move |t| (x, t)));
        let groups = group_by_node(window, pairs, node_of);
        let replies = call_groups(endpoint, cfg, &groups, |&(x, _)| Request::Probe { stripe: window[x] });
        for ((_, xs), res) in groups.iter().zip(replies) {
            match res {
                Ok(reply) => {
                    for (&(x, _), sub) in xs.iter().zip(unbatch(reply, xs.len())?) {
                        match sub {
                            Reply::Probe { opmode, lmode, .. } => {
                                if opmode != OpMode::Norm || lmode != LMode::Unl {
                                    needs[x] = true;
                                }
                            }
                            other => {
                                return Err(ProtocolError::unexpected("Reply::Probe", &other))
                            }
                        }
                    }
                }
                // An unreachable node marks all its stripes for rebuild —
                // with auto-remap the retry already replaced it with an
                // INIT node, without it the fallback recovery will decide.
                Err(_) => xs.iter().for_each(|&(x, _)| needs[x] = true),
            }
        }
    }
    report.skipped = needs.iter().filter(|&&b| !b).count();
    let mut live: Vec<usize> = (0..window.len()).filter(|&x| needs[x]).collect();

    // ---- Phase 1: batched TryLock L1, strictly in index order. ----------
    // Index order across stripes' blocks is what keeps concurrent
    // recoveries deadlock-free (Fig. 6); batching per node *within* one
    // index round preserves it, since every live stripe's t-th lock is
    // acquired before any (t+1)-th is attempted.
    let mut acquired: Vec<Vec<(usize, LMode)>> = vec![Vec::new(); window.len()];
    for t in 0..n {
        if live.is_empty() {
            break;
        }
        let groups = group_by_node(window, live.iter().map(|&x| (x, t)), node_of);
        let replies = call_groups(endpoint, cfg, &groups, |&(x, _)| Request::TryLock {
            stripe: window[x],
            lm: LMode::L1,
            caller,
        });
        let mut dropped: BTreeSet<usize> = BTreeSet::new();
        let mut lost: Vec<usize> = Vec::new();
        for ((_, xs), res) in groups.iter().zip(replies) {
            match res {
                Ok(reply) => {
                    for (&(x, _), sub) in xs.iter().zip(unbatch(reply, xs.len())?) {
                        let r = expect_reply!(sub, Reply::TryLock);
                        if r.ok {
                            acquired[x].push((t, r.old_lmode));
                        } else {
                            lost.push(x);
                        }
                    }
                }
                // Transport trouble: keep whatever locks these stripes
                // hold (trylock is re-entrant for the holder, so the
                // fallback recovery walks right over them) and bail out of
                // the fast path for them.
                Err(_) => dropped.extend(xs.iter().map(|&(x, _)| x)),
            }
        }
        // Lost races release what they took, restoring the previous lock
        // modes (Fig. 6 line 5) — batched per node, best-effort: the race
        // winner's finalize or our own fallback supersedes a lost restore.
        if !lost.is_empty() {
            let rels = group(lost.iter().flat_map(|&x| {
                let acquired = std::mem::take(&mut acquired[x]);
                let stripe = window[x];
                acquired.into_iter().map(move |(l, old)| (x, node_of(stripe, l), (stripe, old)))
            }));
            let _ = call_groups(endpoint, cfg, &rels, |&(stripe, lm)| Request::SetLock {
                stripe,
                lm,
                caller,
            });
            dropped.extend(lost);
        }
        if !dropped.is_empty() {
            live.retain(|x| !dropped.contains(x));
            fallback.extend(dropped);
        }
    }

    // ---- Phase 2a: one batched metadata-only round across all stripes. --
    // `GetMeta` carries the tid bookkeeping, opmode, and epoch of every
    // block but **no block content** — the node neither sends nor copies
    // it — and the states are frozen under the L1 locks.
    let mut states: Vec<Vec<Option<GetStateReply>>> = vec![vec![]; window.len()];
    for &x in &live {
        states[x] = (0..n).map(|_| None).collect();
    }
    if !live.is_empty() {
        let pairs = live.iter().flat_map(|&x| (0..n).map(move |t| (x, t)));
        let groups = group_by_node(window, pairs, node_of);
        let replies = call_groups(endpoint, cfg, &groups, |&(x, _)| Request::GetMeta { stripe: window[x] });
        let mut dropped: BTreeSet<usize> = BTreeSet::new();
        for ((_, xs), res) in groups.iter().zip(replies) {
            match res {
                Ok(reply) => {
                    for (&(x, t), sub) in xs.iter().zip(unbatch(reply, xs.len())?) {
                        states[x][t] = Some(expect_reply!(sub, Reply::GetState));
                    }
                }
                Err(_) => dropped.extend(xs.iter().map(|&(x, _)| x)),
            }
        }
        if !dropped.is_empty() {
            live.retain(|x| !dropped.contains(x));
            fallback.extend(dropped);
        }
    }

    // ---- Classify: fast path only for the unambiguous, frozen case. -----
    // All n blocks are held at L1, so no swap or add can have landed since
    // the states were read — no GetRecent re-check is needed (recovery
    // needs one only because it weakens locks to L0 to drain writers; the
    // fast path never weakens). A RECONS node (adopted crashed recovery)
    // or fewer than k + slack consistent blocks (writes mid-drain) go to
    // the serial fallback, which drains and adopts correctly.
    //
    // For each consistent stripe the lost indices (everything outside the
    // consistent set) get a per-index repair plan from the code family:
    // ~`k/g + 1` shares on an LRC, `k` on Reed-Solomon. Only the union of
    // the plans' share indices is fetched with blocks in phase 2b — the
    // bytes-on-wire win this engine exists for.
    struct FastJob {
        x: usize,
        cset: Vec<usize>,
        plans: Vec<std::sync::Arc<ajx_erasure::RepairPlan>>,
        /// Highest epoch any of the stripe's n nodes reported in the meta
        /// round: Finalize must outbid *every* node, not just the ones it
        /// reconstructs (`finalize` sets the epoch unconditionally).
        epoch: Epoch,
    }
    let mut jobs: Vec<FastJob> = Vec::new();
    for &x in &live {
        let sts: Vec<GetStateReply> = states[x]
            .iter_mut()
            .map(|s| s.take().expect("live stripes have all n states"))
            .collect();
        if sts.iter().any(|s| s.opmode == OpMode::Recons) {
            fallback.insert(x);
            continue;
        }
        let init_count = sts.iter().filter(|s| s.opmode == OpMode::Init).count();
        let slack = (cfg.t_d as i64 - init_count as i64).max(0) as usize;
        let cset = crate::recovery::find_consistent(&sts, k);
        if cset.len() < k + slack {
            fallback.insert(x);
            continue;
        }
        let epoch = sts.iter().map(|s| s.epoch).max().unwrap_or(Epoch(0));
        let in_cset: BTreeSet<usize> = cset.iter().copied().collect();
        let lost: Vec<usize> = (0..n).filter(|t| !in_cset.contains(t)).collect();
        let plans: Option<Vec<_>> = lost
            .iter()
            .map(|&t| cfg.plan_cache.repair(&cfg.code, t, &cset))
            .collect();
        match plans {
            Some(plans) => jobs.push(FastJob { x, cset, plans, epoch }),
            // The consistent set cannot repair some lost index (an LRC
            // rank deficit past its guarantee): serial recovery decides.
            None => {
                fallback.insert(x);
            }
        }
    }

    // ---- Phase 2b: fetch blocks only from the union of repair shares. ---
    let mut blocks: BTreeMap<(usize, usize), Vec<u8>> = BTreeMap::new();
    if !jobs.is_empty() {
        let pairs = jobs.iter().flat_map(|job| {
            let fetch: BTreeSet<usize> = job.plans.iter().flat_map(|p| p.indices()).collect();
            fetch.into_iter().map(move |t| (job.x, t))
        });
        let groups = group_by_node(window, pairs, node_of);
        let replies = call_groups(endpoint, cfg, &groups, |&(x, _)| Request::GetState { stripe: window[x] });
        let mut dropped: BTreeSet<usize> = BTreeSet::new();
        for ((_, xs), res) in groups.iter().zip(replies) {
            match res {
                Ok(reply) => {
                    for (&(x, t), sub) in xs.iter().zip(unbatch(reply, xs.len())?) {
                        let s = expect_reply!(sub, Reply::GetState);
                        match s.block {
                            Some(b) => {
                                blocks.insert((x, t), b);
                            }
                            None => {
                                dropped.insert(x);
                            }
                        }
                    }
                }
                Err(_) => dropped.extend(xs.iter().map(|&(x, _)| x)),
            }
        }
        if !dropped.is_empty() {
            jobs.retain(|job| !dropped.contains(&job.x));
            fallback.extend(dropped);
        }
    }

    // ---- Phase 3: batched Reconstruct (lost blocks only), Finalize all. --
    // Once a stripe's reconstructs are dispatched its locks must survive
    // errors (see recovery.rs): a failed round sends the stripe to the
    // fallback *without* unlocking, and the fallback's recovery adopts the
    // saved RECONS set.
    let fast: Vec<usize> = jobs.iter().map(|job| job.x).collect();
    let mut epochs: BTreeMap<usize, Epoch> = BTreeMap::new();
    let mut alive: BTreeSet<usize> = fast.iter().copied().collect();
    {
        // The decoded blocks stay here for the round: a `Reconstruct` is
        // idempotent, so a timeout re-sends it, re-made from its block.
        let mut by_node: BTreeMap<(usize, NodeId), Vec<_>> = BTreeMap::new();
        let mut bad: BTreeSet<usize> = BTreeSet::new();
        for job in &jobs {
            epochs.insert(job.x, job.epoch);
            for plan in &job.plans {
                let shares: Vec<&[u8]> = plan
                    .indices()
                    .filter_map(|t| blocks.get(&(job.x, t)).map(Vec::as_slice))
                    .collect();
                let len = shares.first().map_or(0, |s| s.len());
                let mut out = crate::pool::take(len);
                // Malformed node replies (ragged blocks) — cannot happen
                // with well-behaved nodes, but the fallback handles it.
                if plan.reconstruct_into(&shares, &mut out).is_err() {
                    crate::pool::give(out);
                    bad.insert(job.x);
                    break;
                }
                let node = node_of(window[job.x], plan.lost());
                by_node.entry((job.x / REBUILD_CHUNK, node)).or_default().push((job, out));
            }
        }
        for b in blocks.into_values() {
            crate::pool::give(b);
        }
        if !bad.is_empty() {
            for members in by_node.values_mut() {
                members.retain(|(job, _)| !bad.contains(&job.x));
            }
            alive.retain(|x| !bad.contains(x));
            for &x in &bad {
                epochs.remove(&x);
            }
            fallback.extend(bad);
        }
        let groups: Vec<_> =
            by_node.into_iter().map(|((_, node), members)| (node, members)).collect();
        let replies = call_groups(endpoint, cfg, &groups, |(job, block)| Request::Reconstruct {
            stripe: window[job.x],
            cset: job.cset.clone(),
            block: crate::pool::take_copy(block),
        });
        for ((_, members), res) in groups.iter().zip(replies) {
            match res {
                Ok(reply) => {
                    for ((job, _), sub) in members.iter().zip(unbatch(reply, members.len())?) {
                        let ep = expect_reply!(sub, Reply::Reconstruct);
                        let slot = epochs.entry(job.x).or_insert(Epoch(0));
                        *slot = (*slot).max(ep);
                    }
                }
                Err(_) => {
                    for (job, _) in members {
                        alive.remove(&job.x);
                    }
                }
            }
        }
        for (_, block) in groups.into_iter().flat_map(|(_, members)| members) {
            crate::pool::give(block);
        }
    }
    {
        let finalizable = alive.iter().flat_map(|&x| (0..n).map(move |t| (x, t)));
        let groups = group_by_node(window, finalizable, node_of);
        let replies = call_groups(endpoint, cfg, &groups, |&(x, _)| Request::Finalize {
            stripe: window[x],
            epoch: epochs[&x].next(),
        });
        for ((_, xs), res) in groups.iter().zip(replies) {
            match res {
                Ok(reply) => {
                    for sub in unbatch(reply, xs.len())? {
                        if !matches!(sub, Reply::Ack) {
                            return Err(ProtocolError::unexpected("Reply::Ack", &sub));
                        }
                    }
                }
                Err(_) => {
                    for &(x, _) in xs {
                        alive.remove(&x);
                    }
                }
            }
        }
    }
    report.rebuilt = alive.len();
    fallback.extend(fast.into_iter().filter(|x| !alive.contains(x)));

    // ---- Serial fallback: full Fig. 6 recovery, one stripe at a time. ---
    let mut first_err: Option<ProtocolError> = None;
    for &x in &fallback {
        match client.recover_stripe(window[x]) {
            Ok(()) => report.recovered += 1,
            Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(report),
    }
}

/// Groups per-stripe work items `(window index, in-stripe index)` by the
/// storage node that owns them, one group per chunk and node.
fn group_by_node(
    window: &[StripeId],
    pairs: impl Iterator<Item = (usize, usize)>,
    node_of: impl Fn(StripeId, usize) -> NodeId,
) -> Vec<(NodeId, Vec<(usize, usize)>)> {
    group(pairs.map(|(x, t)| (x, node_of(window[x], t), (x, t))))
}

/// Groups `(window index, node, item)` by chunk and node, deterministically
/// (BTreeMap order): a node gets one message per chunk and round, as it did
/// when every chunk ran alone.
fn group<T>(items: impl Iterator<Item = (usize, NodeId, T)>) -> Vec<(NodeId, Vec<T>)> {
    let mut by_node: BTreeMap<(usize, NodeId), Vec<T>> = BTreeMap::new();
    for (x, node, item) in items {
        by_node.entry((x / REBUILD_CHUNK, node)).or_default().push(item);
    }
    by_node.into_iter().map(|((_, node), items)| (node, items)).collect()
}
