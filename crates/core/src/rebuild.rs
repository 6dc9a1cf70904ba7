//! The online recovery of §3.8 / Fig. 6, once: the batched stripe-repair
//! engine behind every recovery — [`Client::rebuild_stripes`] after a node
//! loss, and `recover_stripes` for the stripes a read, a write or the
//! monitor finds broken ([`Client::recover_stripe`] is its window of one).
//! Each stripe of a window gets its own outcome.
//!
//! Stripes move through the protocol in windows: chunks of
//! [`REBUILD_CHUNK`] stripes, `cfg.rebuild_width` chunks per window. Every
//! round sends **one batched message per (chunk, storage node)**, all in
//! one fan-out on the calling thread (`rpc::pfor` keyed by chunk), so
//! per-stripe round trips collapse to per-node ones; the `READ` engine's
//! degraded reads go through the same `round` adapter, which turns a
//! message's transport error into its stripes' `Failed` outcome. Decode
//! plans come from the config's shared
//! [`ajx_erasure::PlanCache`] and scratch goes through the thread-local
//! buffer pool. One pass over a window:
//!
//! 1. *Probe* (rebuild only): stripes NORM and unlocked on all `n` nodes
//!    are skipped. A recovery skips it: the stripes it is asked to repair
//!    (a monitor's stale writes, a power-loss suspect) are NORM and
//!    unlocked.
//! 2. *Lock* all `n` blocks at `L1`, in index order across the window, the
//!    order that keeps concurrent recoveries deadlock-free. A lost race
//!    restores the lock modes it took (Fig. 6 line 5), except that a lock
//!    this client re-entered goes back to `UNL` unless the stripe holds
//!    RECONS state.
//! 3. *Read* every block's metadata (`GetMeta`: tid lists, opmode, epoch,
//!    no content).
//! 4. *Choose* the consistent set. A RECONS node means a recovery crashed
//!    after a `Reconstruct`: its saved `recons_set`, minus INIT nodes, is
//!    adopted (Fig. 6 line 9). Otherwise `find_consistent` must reach
//!    `k + slack`. Under `L1` nothing lands, so a stripe that does needs no
//!    re-check. A stripe below it *drains*: its redundant locks are weakened
//!    to `L0` so outstanding adds can land, its redundant metadata is
//!    re-read, and `GetRecent` relocks at `L1`, dropping members whose
//!    recentlist moved (Fig. 6 lines 13-19). After [`DRAIN_PATIENCE`]
//!    cycles it settles for `k`; after as many more it is unrecoverable.
//! 5. *Repair*: `GetState` only from the union of the lost indices' repair
//!    plans (~`k/g + 1` shares on an LRC, `k` on Reed-Solomon), decode,
//!    `Reconstruct` the lost indices, and `Finalize` all `n` at the next
//!    epoch.
//!
//! After the pass, the window pauses once and probes the stripes that lost
//! a lock race (the first of a stripe's nodes to answer says whether the
//! winner released it): released ones are done, the rest go round again,
//! up to `busy_retry_limit` times. In a rebuild, a stripe whose round
//! failed in transport goes round once more from the lock round. A stripe
//! that holds RECONS state — seen in its metadata, or put there by its own
//! `Reconstruct` — is never unlocked on an error: the next recovery
//! decodes from the saved set without re-checking it, so its members must
//! stay frozen until a `Finalize`. Any other stripe given up on is
//! unlocked, best-effort: a live client gets no failure notification, so
//! its locks would never expire.

use crate::client::Client;
use crate::config::ProtocolConfig;
use crate::error::ProtocolError;
use crate::recovery::find_consistent;
use crate::rpc::{expect_reply, pfor};
use ajx_erasure::RepairPlan;
use ajx_storage::{Epoch, GetStateReply, LMode, NodeId, OpMode, Reply, Request, StripeId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Stripes per batched round: bounds peak memory (a chunk keeps up to
/// `REBUILD_CHUNK × n` blocks alive in its reconstruct round) while
/// amortizing the per-message framing well.
const REBUILD_CHUNK: usize = 32;

/// Drain cycles a stripe below `k + slack` consistent blocks waits for
/// outstanding adds before it settles for `k`, and again before it is
/// unrecoverable. Draining only helps while the writers live; settling is
/// what lets the §3.10 monitor repair a stripe after more than `t_p`
/// client crashes (DESIGN.md §2b).
const DRAIN_PATIENCE: u32 = 3;

/// Metadata re-reads per drain cycle, one backoff pause apart.
const DRAIN_READS: usize = 8;

/// What a [`Client::rebuild_stripes`] call accomplished.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RebuildReport {
    /// Stripes examined.
    pub stripes: usize,
    /// Stripes probed healthy and skipped without locking anything.
    pub skipped: usize,
    /// Stripes repaired by the first pass's fast path: all `n` locks won,
    /// `k + slack` consistent blocks at once.
    pub rebuilt: usize,
    /// Stripes repaired any other way: an adopted crashed recovery, a
    /// drain, or a retry after a lost lock race or a transport failure
    /// (including those the race winner repaired).
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

/// Entry point behind [`Client::rebuild_stripes`]: every window runs, then
/// the first stripe's error is the result.
pub(crate) fn rebuild_stripes(
    client: &Client,
    stripes: &[StripeId],
) -> Result<RebuildReport, ProtocolError> {
    // Byte accounting: everything this call sends and receives goes
    // through the one client endpoint, so a snapshot delta is exactly the
    // rebuild's traffic (payload counters skip headers and metadata-only
    // rounds by construction).
    let before = client.endpoint().stats().snapshot();
    let (mut report, outcomes) = windows(client, stripes, true);
    outcomes.into_iter().collect::<Result<(), _>>()?;
    let spent = client.endpoint().stats().snapshot().since(&before);
    report.repair_bytes = spent.payload_sent + spent.payload_received;
    report.round_trips = spent.round_trips;
    Ok(report)
}

/// Recovers the given (distinct) stripes for a read, a write or the
/// monitor, without the healthy-stripe probe: one outcome per stripe.
pub(crate) fn recover_stripes(
    client: &Client,
    stripes: &[StripeId],
) -> Vec<Result<(), ProtocolError>> {
    windows(client, stripes, false).1
}

/// Runs the stripes through [`rebuild_window`] in windows of
/// `cfg.rebuild_width` chunks, one after another on the calling thread.
/// A window that ends in a malformed reply fails all of its stripes.
fn windows(
    client: &Client,
    stripes: &[StripeId],
    probe: bool,
) -> (RebuildReport, Vec<Result<(), ProtocolError>>) {
    let window = REBUILD_CHUNK * client.config().rebuild_width.max(1);
    let (mut report, mut outcomes) = (RebuildReport::default(), Vec::with_capacity(stripes.len()));
    for w in stripes.chunks(window) {
        let mut settled = vec![Ok(()); w.len()];
        match rebuild_window(client, w, probe, &mut settled) {
            Ok(r) => report.absorb(r),
            Err(e) => settled.fill(Err(e)),
        }
        outcomes.extend(settled);
    }
    (report, outcomes)
}

/// How one pass left a stripe.
pub(crate) enum Outcome {
    /// Repaired; `true` on the fast path (no adoption, no drain).
    Repaired(bool),
    /// Another client holds a lock; the pass released what it took.
    LostRace,
    /// A round failed in transport, or a share came back without its
    /// block; the stripe keeps its locks.
    Failed(ProtocolError),
    /// Beyond the §4 failure bounds.
    Unrecoverable(ProtocolError),
}

/// Where each stripe of a pass has ended up; a stripe without an entry is
/// still going.
pub(crate) type Outcomes = BTreeMap<usize, Outcome>;

/// Repairs a window of stripes (module docs): passes until every stripe is
/// settled, each failed one with its error in `settled`. A malformed reply
/// ends the window with its error.
fn rebuild_window(
    client: &Client,
    window: &[StripeId],
    probe: bool,
    settled: &mut [Result<(), ProtocolError>],
) -> Result<RebuildReport, ProtocolError> {
    let limit = client.config().busy_retry_limit;
    let mut report = RebuildReport { stripes: window.len(), ..RebuildReport::default() };
    let mut todo: Vec<usize> = (0..window.len()).collect();
    if probe {
        todo = unhealthy(client, window, todo)?;
        report.skipped = window.len() - todo.len();
    }
    // A rebuilt stripe whose round failed in transport gets one more pass.
    // A recovery gets none: its caller (a read, a write, the monitor) has
    // its own retries.
    let (mut held, mut retried) = (vec![false; window.len()], vec![!probe; window.len()]);
    let mut backoff = client.backoff(window[0], 4);
    let (mut first_pass, mut pauses) = (true, 0);
    while !todo.is_empty() {
        let (mut lost, mut again, mut give_up) = (Vec::new(), Vec::new(), Vec::new());
        for (x, outcome) in repair_pass(client, window, &todo, &mut held)? {
            match outcome {
                Outcome::Repaired(fast) if fast && first_pass => report.rebuilt += 1,
                Outcome::Repaired(_) => report.recovered += 1,
                Outcome::LostRace => lost.push(x),
                Outcome::Failed(_) if !retried[x] => {
                    retried[x] = true;
                    again.push(x);
                }
                Outcome::Failed(e) | Outcome::Unrecoverable(e) => {
                    settled[x] = Err(e);
                    give_up.push(x);
                }
            }
        }
        release(client, window, give_up.into_iter().filter(|&x| !held[x]));
        if !lost.is_empty() {
            backoff.pause();
            pauses += 1;
            let raced = lost.len();
            let busy = still_held(client, window, lost)?;
            report.recovered += raced - busy.len();
            if pauses > limit && !busy.is_empty() {
                let (what, attempts) = ("recovery", limit + 1);
                for x in busy {
                    settled[x] = Err(ProtocolError::RetriesExhausted { what, attempts });
                }
            } else {
                again.extend(busy);
            }
        }
        again.sort_unstable();
        (todo, first_pass) = (again, false);
    }
    Ok(report)
}

/// One pass of Fig. 6 over the window's stripes `todo` (module docs, steps
/// 2-5). `held[x]` is set once stripe `x` holds RECONS state.
fn repair_pass(
    client: &Client,
    window: &[StripeId],
    todo: &[usize],
    held: &mut [bool],
) -> Result<Outcomes, ProtocolError> {
    let cfg = client.config();
    let (n, k, caller) = (cfg.n(), cfg.k(), client.id());
    let mut out = Outcomes::new();
    let mut live: Vec<usize> = todo.to_vec();

    // ---- Lock: batched TryLock L1, strictly in index order. -------------
    // Every live stripe's t-th lock is asked for before any (t+1)-th, so
    // batching per node within an index round keeps Fig. 6's order.
    let mut acquired: Vec<Vec<LMode>> = vec![Vec::new(); window.len()];
    for t in 0..n {
        if live.is_empty() {
            break;
        }
        let mut lost = BTreeSet::new();
        let trylock = |x: usize, _| Request::TryLock { stripe: window[x], lm: LMode::L1, caller };
        round(client, window, pairs(&live, t..t + 1), trylock, &mut out, |x, _, reply| {
            let r = expect_reply!(reply, Reply::TryLock);
            if r.ok {
                acquired[x].push(r.old_lmode);
            } else {
                lost.insert(x);
            }
            Ok(())
        })?;
        // Lost races restore the previous lock modes, best-effort: the
        // winner's finalize or our own retry supersedes a lost restore. A
        // lock this client re-entered is its own leftover: it goes back to
        // UNL, unless the stripe holds RECONS state.
        let taken = lost.iter().flat_map(|&x| (0..acquired[x].len()).map(move |l| (x, l)));
        let restore = |x: usize, l: usize| {
            let old = acquired[x][l];
            let lm = if old.is_locked() && !held[x] { LMode::Unl } else { old };
            Request::SetLock { stripe: window[x], lm, caller }
        };
        let _ = round(client, window, taken, restore, &mut Outcomes::new(), |_, _, _| Ok(()));
        for x in lost {
            out.entry(x).or_insert(Outcome::LostRace);
        }
        live.retain(|x| !out.contains_key(x));
    }

    // ---- Read: one batched metadata-only round. --------------------------
    let mut states: Vec<Vec<Option<GetStateReply>>> = vec![Vec::new(); window.len()];
    for &x in &live {
        states[x] = (0..n).map(|_| None).collect();
    }
    let meta = |x: usize, _| Request::GetMeta { stripe: window[x] };
    round(client, window, pairs(&live, 0..n), meta, &mut out, |x, t, reply| {
        states[x][t] = Some(expect_reply!(reply, Reply::GetState));
        Ok(())
    })?;
    live.retain(|x| !out.contains_key(x));

    // ---- Choose: adopt, take at once, or drain. ---------------------------
    let mut planned: Vec<(usize, Result<Job, ProtocolError>)> = Vec::new();
    let mut draining: BTreeMap<usize, Drain> = BTreeMap::new();
    for &x in &live {
        let sts: Vec<GetStateReply> =
            states[x].iter_mut().map(|s| s.take().expect("live stripes read all n")).collect();
        if let Some(h) = sts.iter().position(|s| s.opmode == OpMode::Recons) {
            held[x] = true;
            let saved = sts[h].recons_set.iter().copied();
            let cset = saved.filter(|&j| sts.get(j).is_some_and(|s| s.opmode != OpMode::Init));
            planned.push((x, plan(cfg, window[x], cset.collect(), &sts, false)));
            continue;
        }
        let init = sts.iter().filter(|s| s.opmode == OpMode::Init).count();
        let required = k + cfg.t_d.saturating_sub(init);
        let cset = find_consistent(&sts, k);
        if cset.len() >= required {
            planned.push((x, plan(cfg, window[x], cset, &sts, true)));
        } else {
            draining.insert(x, Drain { states: sts, cset, required, patience: 0 });
        }
    }

    // ---- Drain: L0, re-read, relock, in lockstep across the window. -------
    let mut backoff = client.backoff(window[0], 5);
    while !draining.is_empty() {
        let weaken = |x: usize, _| Request::SetLock { stripe: window[x], lm: LMode::L0, caller };
        round(client, window, pairs(draining.keys(), k..n), weaken, &mut out, |_, _, _| Ok(()))?;
        draining.retain(|x, _| !out.contains_key(x));
        for read in 0..DRAIN_READS {
            let short = draining.iter().filter(|(_, d)| d.cset.len() < d.required);
            let short = pairs(short.map(|(x, _)| x), k..n);
            if short.is_empty() {
                break;
            }
            if read > 0 {
                backoff.pause();
            }
            round(client, window, short, meta, &mut out, |x, t, reply| {
                let d = draining.get_mut(&x).expect("reads go to draining stripes");
                d.states[t] = expect_reply!(reply, Reply::GetState);
                Ok(())
            })?;
            draining.retain(|x, _| !out.contains_key(x));
            for d in draining.values_mut() {
                d.cset = find_consistent(&d.states, k);
            }
        }
        let mut moved = BTreeSet::new();
        let relock = |x: usize, _| Request::GetRecent { stripe: window[x], lm: LMode::L1, caller };
        round(client, window, pairs(draining.keys(), k..n), relock, &mut out, |x, t, reply| {
            if expect_reply!(reply, Reply::GetRecent) != draining[&x].states[t].recentlist {
                moved.insert((x, t));
            }
            Ok(())
        })?;
        for (x, mut d) in std::mem::take(&mut draining) {
            if out.contains_key(&x) {
                continue;
            }
            d.cset.retain(|&t| !moved.contains(&(x, t)));
            match d.verdict(k) {
                None => {
                    draining.insert(x, d);
                }
                Some(true) => planned.push((x, plan(cfg, window[x], d.cset, &d.states, false))),
                Some(false) => {
                    let (stripe, found) = (window[x], d.cset.len());
                    let reason = format!("only {found} consistent blocks found, {k} required");
                    planned.push((x, Err(ProtocolError::Unrecoverable { stripe, reason })));
                }
            }
        }
    }
    let mut jobs: BTreeMap<usize, Job> = BTreeMap::new();
    for (x, job) in planned {
        match job {
            Ok(job) => {
                jobs.insert(x, job);
            }
            Err(e) => {
                out.insert(x, Outcome::Unrecoverable(e));
            }
        }
    }

    // ---- Repair: fetch the repair shares, decode, Reconstruct, Finalize. --
    let fetch: Vec<(usize, usize)> = jobs
        .iter()
        .flat_map(|(&x, job)| {
            let shares: BTreeSet<usize> = job.plans.iter().flat_map(|p| p.indices()).collect();
            shares.into_iter().map(move |t| (x, t))
        })
        .collect();
    let (mut blocks, mut missing) = (BTreeMap::new(), Vec::new());
    let get = |x: usize, _| Request::GetState { stripe: window[x] };
    round(client, window, fetch, get, &mut out, |x, t, reply| {
        let s = expect_reply!(reply, Reply::GetState);
        match s.block {
            Some(b) => {
                blocks.insert((x, t), b);
            }
            // A consistent member went INIT since its metadata was read.
            None => missing.push((x, ProtocolError::unexpected("GetState with a block", &s))),
        }
        Ok(())
    })?;
    for (x, e) in missing {
        out.entry(x).or_insert(Outcome::Failed(e));
    }
    jobs.retain(|x, _| !out.contains_key(x));
    let mut made: BTreeMap<(usize, usize), Vec<u8>> = BTreeMap::new();
    for (&x, job) in &jobs {
        match decode(job, x, &blocks) {
            Ok(lost) => made.extend(lost.into_iter().map(|(t, b)| ((x, t), b))),
            Err(e) => {
                out.insert(x, Outcome::Failed(e.into()));
            }
        }
    }
    blocks.into_values().for_each(crate::pool::give);
    jobs.retain(|x, _| !out.contains_key(x));

    // Point of no return: once a stripe's `Reconstruct` is sent it holds
    // RECONS state. The decoded blocks stay here for the round: a
    // `Reconstruct` is idempotent, so a timeout re-sends it, re-made from
    // its block.
    let mut epochs: BTreeMap<usize, Epoch> = jobs.iter().map(|(&x, job)| (x, job.epoch)).collect();
    for &(x, _) in made.keys() {
        held[x] = true;
    }
    let reconstruct = |x: usize, t: usize| Request::Reconstruct {
        stripe: window[x],
        cset: jobs[&x].cset.clone(),
        block: crate::pool::take_copy(&made[&(x, t)]),
    };
    round(client, window, made.keys().copied(), reconstruct, &mut out, |x, _, reply| {
        let ep = expect_reply!(reply, Reply::Reconstruct);
        let slot = epochs.get_mut(&x).expect("reconstructs go to jobs");
        *slot = (*slot).max(ep);
        Ok(())
    })?;
    made.into_values().for_each(crate::pool::give);
    // Finalize must outbid *every* node, not just the ones it reconstructed
    // (`finalize` sets the epoch unconditionally).
    let finalizable: Vec<usize> = jobs.keys().copied().filter(|x| !out.contains_key(x)).collect();
    let finalize = |x: usize, _| Request::Finalize { stripe: window[x], epoch: epochs[&x].next() };
    round(client, window, pairs(&finalizable, 0..n), finalize, &mut out, |_, _, reply| match reply {
        Reply::Ack => Ok(()),
        other => Err(ProtocolError::unexpected("Reply::Ack", &other)),
    })?;
    for (x, job) in jobs {
        out.entry(x).or_insert(Outcome::Repaired(job.fast));
    }
    Ok(out)
}

/// A stripe cleared for repair.
struct Job {
    /// The consistent set the lost indices are decoded from.
    cset: Vec<usize>,
    /// One repair plan per index outside `cset`.
    plans: Vec<Arc<RepairPlan>>,
    /// Highest epoch any of the stripe's `n` nodes reported.
    epoch: Epoch,
    /// Taken on the fast path (no adoption, no drain).
    fast: bool,
}

/// Clears a stripe for repair from the consistent set `cset`: a repair
/// plan for every other index, or [`ProtocolError::Unrecoverable`] when
/// `cset` does not determine the data.
fn plan(
    cfg: &ProtocolConfig,
    stripe: StripeId,
    cset: Vec<usize>,
    states: &[GetStateReply],
    fast: bool,
) -> Result<Job, ProtocolError> {
    let k = cfg.k();
    let plans: Option<Vec<_>> = (0..cfg.n())
        .filter(|t| !cset.contains(t))
        .map(|t| cfg.plan_cache.repair(&cfg.code, t, &cset))
        .collect();
    let reason = match plans {
        Some(plans) if cset.len() >= k => {
            let epoch = states.iter().map(|s| s.epoch).max().unwrap_or(Epoch(0));
            return Ok(Job { cset, plans, epoch, fast });
        }
        _ if cset.len() < k => {
            format!("consistent set has {} blocks but the code needs {k}", cset.len())
        }
        _ => format!("consistent set {cset:?} does not determine the data"),
    };
    Err(ProtocolError::Unrecoverable { stripe, reason })
}

/// Decodes stripe `x`'s lost blocks from its fetched shares, as `(index,
/// block)`. A ragged share (not something nodes produce) gives every
/// decoded block back and fails the stripe.
fn decode(
    job: &Job,
    x: usize,
    blocks: &BTreeMap<(usize, usize), Vec<u8>>,
) -> Result<Vec<(usize, Vec<u8>)>, ajx_erasure::CodeError> {
    let mut lost = Vec::with_capacity(job.plans.len());
    for plan in &job.plans {
        let shares: Vec<&[u8]> =
            plan.indices().filter_map(|t| blocks.get(&(x, t)).map(Vec::as_slice)).collect();
        let mut block = crate::pool::take(shares.first().map_or(0, |s| s.len()));
        if let Err(e) = plan.reconstruct_into(&shares, &mut block) {
            crate::pool::give(block);
            lost.into_iter().for_each(|(_, b)| crate::pool::give(b));
            return Err(e);
        }
        lost.push((plan.lost(), block));
    }
    Ok(lost)
}

/// A stripe below its target consistent set, draining outstanding adds.
struct Drain {
    /// Every node's metadata, the redundant nodes' as last re-read.
    states: Vec<GetStateReply>,
    cset: Vec<usize>,
    /// `k + slack`, then `k` once patience ran out.
    required: usize,
    /// Drain cycles spent at `required`.
    patience: u32,
}

impl Drain {
    /// After a relock: `Some(true)` once the set reaches the target,
    /// `Some(false)` once even `k` ran out of patience, `None` to drain
    /// again.
    fn verdict(&mut self, k: usize) -> Option<bool> {
        if self.cset.len() >= self.required {
            return Some(true);
        }
        self.patience += 1;
        if self.patience < DRAIN_PATIENCE {
            return None;
        }
        if self.required == k {
            return Some(false);
        }
        // Outstanding writes are not completing (their clients are dead):
        // give up the slack margin.
        (self.required, self.patience) = (k, 0);
        (self.cset.len() >= k).then_some(true)
    }
}

/// The stripes among `xs` that are not NORM and unlocked on all `n` nodes,
/// from one batched `Probe` per node. A node that cannot be reached marks
/// its stripes as needing work.
fn unhealthy(
    client: &Client,
    window: &[StripeId],
    xs: Vec<usize>,
) -> Result<Vec<usize>, ProtocolError> {
    let probe = |x: usize, _| Request::Probe { stripe: window[x] };
    let (mut needs, mut unreachable) = (BTreeSet::new(), Outcomes::new());
    let all = pairs(&xs, 0..client.config().n());
    round(client, window, all, probe, &mut unreachable, |x, _, reply| match reply {
        Reply::Probe { opmode, lmode, .. } => {
            if opmode != OpMode::Norm || lmode != LMode::Unl {
                needs.insert(x);
            }
            Ok(())
        }
        other => Err(ProtocolError::unexpected("Reply::Probe", &other)),
    })?;
    needs.extend(unreachable.into_keys());
    Ok(xs.into_iter().filter(|x| needs.contains(x)).collect())
}

/// The stripes among `xs` that the recovery they lost to still holds. A
/// stripe's nodes are asked in index order, one batched `Probe` round per
/// index, and the first that answers decides: released once it is NORM
/// and unlocked. An unreachable node is passed over, not waited on again;
/// a stripe none of whose nodes answers is still held.
fn still_held(
    client: &Client,
    window: &[StripeId],
    mut xs: Vec<usize>,
) -> Result<Vec<usize>, ProtocolError> {
    let probe = |x: usize, _| Request::Probe { stripe: window[x] };
    let mut held = Vec::new();
    for t in 0..client.config().n() {
        let mut unreachable = Outcomes::new();
        let asked = pairs(&xs, t..t + 1);
        round(client, window, asked, probe, &mut unreachable, |x, _, reply| match reply {
            Reply::Probe { opmode, lmode, .. } => {
                if opmode != OpMode::Norm || lmode != LMode::Unl {
                    held.push(x);
                }
                Ok(())
            }
            other => Err(ProtocolError::unexpected("Reply::Probe", &other)),
        })?;
        xs.retain(|x| unreachable.contains_key(x));
    }
    held.extend(xs);
    held.sort_unstable();
    Ok(held)
}

/// Fire-and-forget unlock of every block of the stripes `xs`: one batched
/// `SetLock UNL` per (chunk, node), no re-sends. Nodes that cannot be
/// reached stay locked until this client retries (re-entrant `trylock`) or
/// is declared failed.
fn release(client: &Client, window: &[StripeId], xs: impl Iterator<Item = usize>) {
    let (cfg, caller) = (client.config(), client.id());
    let xs: Vec<usize> = xs.collect();
    let lm = LMode::Unl;
    let unlock = |&(x, _): &(u32, u32)| Request::SetLock { stripe: window[x as usize], lm, caller };
    let members = targets(cfg, window, pairs(&xs, 0..cfg.n()));
    pfor(client.endpoint(), cfg, members, usize::MAX, false, unlock, |_, _| {});
}

/// Every `(x, t)` for the stripes `xs` and in-stripe indices `ts`.
fn pairs<'a>(
    xs: impl IntoIterator<Item = &'a usize>,
    ts: std::ops::Range<usize>,
) -> Vec<(usize, usize)> {
    xs.into_iter().flat_map(|&x| ts.clone().map(move |t| (x, t))).collect()
}

/// One batched round: `req(x, t)` to the node holding index `t` of stripe
/// `x`, for every pair, one message per (chunk, node). Each member's reply
/// goes to `on`; a message that fails in transport fails its stripes in
/// `out` (a stripe already settled keeps its outcome). An error from `on`,
/// or a malformed batch reply, ends the round with it.
pub(crate) fn round(
    client: &Client,
    window: &[StripeId],
    pairs: impl IntoIterator<Item = (usize, usize)>,
    req: impl Fn(usize, usize) -> Request,
    out: &mut Outcomes,
    mut on: impl FnMut(usize, usize, Reply) -> Result<(), ProtocolError>,
) -> Result<(), ProtocolError> {
    let cfg = client.config();
    let members = targets(cfg, window, pairs);
    let mut ended = None;
    let req = |&(x, t): &(u32, u32)| req(x as usize, t as usize);
    pfor(client.endpoint(), cfg, members, usize::MAX, true, req, |&mut (x, t), res| {
        let (x, t) = (x as usize, t as usize);
        match res {
            _ if ended.is_some() => {}
            Ok(reply) => ended = on(x, t, reply).err(),
            Err(e @ ProtocolError::Rpc(_)) => {
                out.entry(x).or_insert(Outcome::Failed(e));
            }
            Err(e) => ended = Some(e),
        }
    });
    ended.map_or(Ok(()), Err)
}

/// `(x, t)` pairs as [`pfor`] members keyed by chunk: a node gets one
/// message per chunk and round, as it would if every chunk ran alone. A
/// member is 16 bytes, as a pair is: a window's member list and the sort
/// over it weigh what its pair list does.
fn targets(
    cfg: &ProtocolConfig,
    window: &[StripeId],
    pairs: impl IntoIterator<Item = (usize, usize)>,
) -> Vec<(u32, NodeId, (u32, u32))> {
    let node = |x: usize, t: usize| NodeId(cfg.layout.node_for(window[x].0, t) as u32);
    let member = |(x, t)| ((x / REBUILD_CHUNK) as u32, node(x, t), (x as u32, t as u32));
    pairs.into_iter().map(member).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajx_storage::ClientId;
    use ajx_transport::{Network, NetworkConfig};

    /// A 2-of-4 client without auto-remap, stripe 0 written.
    fn client() -> (Arc<Network>, Client) {
        let mut cfg = ProtocolConfig::new(2, 4, 16).unwrap();
        cfg.auto_remap = false;
        let net_cfg = NetworkConfig { n_nodes: 4, block_size: 16, ..NetworkConfig::default() };
        let net = Network::new(net_cfg);
        let c = Client::new(net.client(ClientId(1)), cfg);
        c.write_block(0, vec![3; 16]).unwrap();
        (net, c)
    }

    #[test]
    fn a_probe_counts_an_unreachable_node_as_work() {
        let (net, c) = client();
        let window = [StripeId(0), StripeId(1)];
        assert!(unhealthy(&c, &window, vec![0, 1]).unwrap().is_empty());
        // Every stripe has a block on node 0. Its transport error is not
        // the probe's: a stripe it cannot vouch for needs work.
        net.crash_node(NodeId(0));
        assert_eq!(unhealthy(&c, &window, vec![0, 1]).unwrap(), [0, 1]);
    }

    #[test]
    fn a_lost_race_probe_falls_past_a_crashed_node() {
        let (net, c) = client();
        // Stripe 0's first node is down: the next one answers for it, and
        // the stripe is released.
        net.crash_node(NodeId(0));
        assert!(still_held(&c, &[StripeId(0)], vec![0]).unwrap().is_empty());
        // A stripe another client's recovery still locks is held.
        let lock = Request::TryLock { stripe: StripeId(1), lm: LMode::L1, caller: ClientId(9) };
        net.client(ClientId(9)).call(NodeId(1), lock).unwrap();
        assert_eq!(still_held(&c, &[StripeId(0), StripeId(1)], vec![0, 1]).unwrap(), [1]);
    }
}
