//! The stripe analysis behind recovery and degraded reads:
//! [`find_consistent`] (Fig. 6), and the lock-free degraded reads
//! (DESIGN.md §8) that the `READ` engine, `Client::read_window`, runs in
//! batched rounds over its window's misses. Fig. 6 recovery itself — lock,
//! choose a consistent set (adopting a crashed recovery's, or draining
//! outstanding adds), decode, reconstruct, finalize — is the batched
//! engine in `rebuild.rs`, whose round adapter these reads share.

use crate::client::Client;
use crate::rebuild::{round, Outcomes};
use ajx_erasure::RepairPlan;
use ajx_storage::{Epoch, GetStateReply, OpMode, Reply, Request, StripeId, Tid};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Implements Fig. 6's `find_consistent`: the largest set `S` of in-stripe
/// indices whose blocks are mutually consistent under the erasure code,
/// judged purely from tid bookkeeping.
///
/// `states[t]` is node `t`'s `get_state` reply (`t < k` data, else
/// redundant). Only `NORM` nodes are candidates (condition 1). Condition 2
/// requires all redundant members to agree on their filtered recent-tid set
/// `f̂`; condition 3 requires each data member's `f̂` to equal the
/// redundant set's tids originated at that data block.
///
/// `Ĝ` — the tids excused from comparison — is the union of *all*
/// candidates' oldlists: the two-phase GC of Fig. 7 guarantees a tid reaches
/// any oldlist only after its write completed at every node, so a larger
/// union never excuses a genuinely missing update (this realizes the paper's
/// "if tid is in some oldlist of any node, then the write has occurred at
/// all nodes").
///
/// Candidacy is judged on `opmode` alone: a `NORM` node always holds a
/// block, so a `NORM` reply with `block == None` is a metadata-only
/// `GetMeta` answer — its tid bookkeeping is exactly as authoritative as a
/// full reply's, which is what lets rebuild and degraded reads classify
/// the stripe without moving every block.
pub fn find_consistent(states: &[GetStateReply], k: usize) -> Vec<usize> {
    let candidates: Vec<usize> = states
        .iter()
        .enumerate()
        .filter(|(_, s)| s.opmode == OpMode::Norm)
        .map(|(t, _)| t)
        .collect();

    let ghat: BTreeSet<Tid> = candidates
        .iter()
        .flat_map(|&t| states[t].oldlist.iter().map(|e| e.tid))
        .collect();
    let f = |t: usize| -> BTreeSet<Tid> {
        states[t]
            .recentlist
            .iter()
            .map(|e| e.tid)
            .filter(|tid| !ghat.contains(tid))
            .collect()
    };

    let data_nodes: Vec<usize> = candidates.iter().copied().filter(|&t| t < k).collect();
    let red_nodes: Vec<usize> = candidates.iter().copied().filter(|&t| t >= k).collect();

    // Group redundant candidates by their filtered tid set (condition 2).
    let mut groups: Vec<(BTreeSet<Tid>, Vec<usize>)> = Vec::new();
    for &r in &red_nodes {
        let fr = f(r);
        match groups.iter_mut().find(|(set, _)| *set == fr) {
            Some((_, members)) => members.push(r),
            None => groups.push((fr, vec![r])),
        }
    }
    // The redundant-free set (conditions 2 and 3 vacuous): all data nodes.
    let mut best: Vec<usize> = data_nodes.clone();

    for (fset, members) in groups {
        let mut s = members;
        for &j in &data_nodes {
            // Condition 3: Ĥ(r, j) — the group's tids originated at data
            // block j — must equal f̂(j).
            let h: BTreeSet<Tid> = fset.iter().copied().filter(|t| t.block == j).collect();
            if h == f(j) {
                s.push(j);
            }
        }
        if s.len() > best.len() {
            best = s;
        }
    }
    best.sort_unstable();
    best
}

/// Decides whether a degraded read of data block `i` can be served
/// lock-free from one round of `GetState`/`GetMeta` replies (DESIGN.md §8),
/// and if so returns the full validated consistent set — the caller asks
/// [`CodeFamily::repair_plan`](ajx_erasure::CodeFamily::repair_plan) for
/// the cheapest share subset to actually decode from.
///
/// `states` must be `n` entries in in-stripe index order; node `i` itself
/// and unreachable peers are represented by `INIT` placeholders (never
/// candidates). The read is safe only when every tid question has one
/// answer:
///
/// 1. **No node is in `RECONS`** — a crashed recovery pins a saved
///    consistent set that this reader has not adopted; decoding around it
///    could disagree with the recovery's eventual outcome.
/// 2. **`find_consistent` yields ≥ k members including a redundant node**
///    — fewer means a write is mid-drain (or too many failures), and a
///    data-only set says nothing about block `i`.
/// 3. **Block-`i` tid agreement** — every candidate's view of outstanding
///    block-`i` writes (recentlist tids with `tid.block == i`, minus the
///    GC'd `Ĝ`) must match the chosen set's view. A write that *completed*
///    put its add on all redundant nodes, so candidates always agree on
///    it; disagreement can only come from a write still draining, which is
///    exactly when lock-free decoding of block `i` is ambiguous.
///
/// Returns `None` on any ambiguity: the caller falls back to Fig. 6
/// recovery, which drains and settles the question under locks.
pub(crate) fn degraded_plan(states: &[GetStateReply], k: usize, i: usize) -> Option<Vec<usize>> {
    if states.iter().any(|s| s.opmode == OpMode::Recons) {
        return None;
    }
    let cset = find_consistent(states, k);
    if cset.len() < k {
        return None;
    }
    let candidates: Vec<usize> = states
        .iter()
        .enumerate()
        .filter(|(_, s)| s.opmode == OpMode::Norm)
        .map(|(t, _)| t)
        .collect();
    let ghat: BTreeSet<Tid> = candidates
        .iter()
        .flat_map(|&t| states[t].oldlist.iter().map(|e| e.tid))
        .collect();
    let block_i_tids = |t: usize| -> BTreeSet<Tid> {
        states[t]
            .recentlist
            .iter()
            .map(|e| e.tid)
            .filter(|tid| tid.block == i && !ghat.contains(tid))
            .collect()
    };
    let visible: BTreeSet<Tid> = candidates.iter().flat_map(|&t| block_i_tids(t)).collect();
    // A set of ≥ k members that excludes `i` must contain a redundant node;
    // its filtered block-`i` tids are what the decode will reflect.
    let r = cset.iter().copied().find(|&t| t >= k)?;
    if block_i_tids(r) != visible {
        return None;
    }
    Some(cset)
}

/// Lock-free degraded reads of the data blocks `misses`, `(stripe, index)`
/// each (DESIGN.md §8 and §12), batched over the window: one round asks
/// every miss's `n − 1` peers — `GetState` from the code's cheapest
/// expected repair set (on an LRC, the local group), `GetMeta` from the
/// rest — [`degraded_plan`] judges each miss, one more round fetches the
/// plan members the first did not, and each block is decoded client-side.
/// A late block is only used if its node's tid lists and epoch equal those
/// [`degraded_plan`] validated (TOCTOU guard). No locks, no recovery: an
/// unsafe read comes back `None`; an unreachable peer is not a candidate.
pub(crate) fn degraded_reads(
    client: &Client,
    misses: &[(StripeId, usize)],
) -> Vec<Option<Vec<u8>>> {
    let cfg = client.config();
    let (n, k) = (cfg.n(), cfg.k());
    let stripes: Vec<StripeId> = misses.iter().map(|m| m.0).collect();
    let peers = |i: usize| (0..n).filter(move |&t| t != i);
    let optimistic: Vec<Option<Arc<RepairPlan>>> = misses
        .iter()
        .map(|&(_, i)| cfg.plan_cache.repair(&cfg.code, i, &peers(i).collect::<Vec<_>>()))
        .collect();
    let ask = |x: usize, t: usize| match &optimistic[x] {
        Some(p) if p.indices().any(|u| u == t) => Request::GetState { stripe: stripes[x] },
        _ => Request::GetMeta { stripe: stripes[x] },
    };
    let absent = || GetStateReply {
        opmode: OpMode::Init,
        recons_set: vec![],
        oldlist: vec![],
        recentlist: vec![],
        block: None,
        epoch: Epoch(0),
    };
    let mut states: Vec<Vec<GetStateReply>> =
        misses.iter().map(|_| (0..n).map(|_| absent()).collect()).collect();
    let asked = misses.iter().enumerate().flat_map(|(x, &(_, i))| peers(i).map(move |t| (x, t)));
    let _ = round(client, &stripes, asked, ask, &mut Outcomes::new(), |x, t, reply| {
        if let Reply::GetState(s) = reply {
            states[x][t] = s;
        }
        Ok(())
    });
    // The cheapest repair inside each validated consistent set. A set that
    // cannot repair the block (LRC rank deficit) is as ambiguous as any
    // other failure.
    let mut plans: Vec<Option<Arc<RepairPlan>>> = misses
        .iter()
        .enumerate()
        .map(|(x, &(_, i))| cfg.plan_cache.repair(&cfg.code, i, &degraded_plan(&states[x], k, i)?))
        .collect();
    let mut late = Vec::new();
    for (x, p) in plans.iter().enumerate().filter_map(|(x, p)| Some((x, p.as_ref()?))) {
        late.extend(p.indices().filter(|&t| states[x][t].block.is_none()).map(|t| (x, t)));
    }
    let get = |x: usize, _| Request::GetState { stripe: stripes[x] };
    let _ = round(client, &stripes, late, get, &mut Outcomes::new(), |x, t, reply| {
        let seen = &states[x][t];
        match reply {
            Reply::GetState(s)
                if s.opmode == seen.opmode
                    && s.recentlist == seen.recentlist
                    && s.oldlist == seen.oldlist
                    && s.epoch == seen.epoch =>
            {
                states[x][t] = s;
            }
            _ => plans[x] = None,
        }
        Ok(())
    });
    // A share still missing (its late fetch failed in transport) or a
    // ragged one fails the block's read like any other ambiguity.
    let decoded = plans
        .iter()
        .zip(&states)
        .map(|(plan, sts)| {
            let plan = plan.as_ref()?;
            let shares: Vec<&[u8]> =
                plan.indices().map(|t| sts[t].block.as_deref()).collect::<Option<_>>()?;
            let mut out = crate::pool::take(shares.first().map_or(0, |s| s.len()));
            if plan.reconstruct_into(&shares, &mut out).is_err() {
                crate::pool::give(out);
                return None;
            }
            Some(out)
        })
        .collect();
    for block in states.iter_mut().flatten().filter_map(|s| s.block.take()) {
        crate::pool::give(block);
    }
    decoded
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajx_storage::{ClientId, TidEntry};

    fn tid(seq: u64, block: usize) -> Tid {
        Tid::new(seq, block, ClientId(1))
    }

    fn entry(seq: u64, block: usize, time: u64) -> TidEntry {
        TidEntry {
            tid: tid(seq, block),
            time,
        }
    }

    fn state(
        opmode: OpMode,
        recent: Vec<TidEntry>,
        old: Vec<TidEntry>,
        block: Option<Vec<u8>>,
    ) -> GetStateReply {
        GetStateReply {
            opmode,
            recons_set: vec![],
            oldlist: old,
            recentlist: recent,
            block,
            epoch: Epoch(0),
        }
    }

    fn norm(recent: Vec<TidEntry>) -> GetStateReply {
        state(OpMode::Norm, recent, vec![], Some(vec![0]))
    }

    #[test]
    fn all_quiet_stripe_is_fully_consistent() {
        // k = 2, n = 4, no outstanding writes anywhere.
        let states = vec![norm(vec![]), norm(vec![]), norm(vec![]), norm(vec![])];
        assert_eq!(find_consistent(&states, 2), vec![0, 1, 2, 3]);
    }

    #[test]
    fn completed_write_everywhere_is_consistent() {
        let t = entry(1, 0, 1);
        let states = vec![
            norm(vec![t]),
            norm(vec![]),
            norm(vec![t]),
            norm(vec![t]),
        ];
        assert_eq!(find_consistent(&states, 2), vec![0, 1, 2, 3]);
    }

    #[test]
    fn partial_write_splits_the_redundant_nodes() {
        // Write to block 0 reached data node 0 and redundant node 2, but
        // not redundant node 3: nodes {0, 1, 2} are consistent (new value),
        // and {1, 3} is the old-value alternative; the larger wins.
        let t = entry(1, 0, 1);
        let states = vec![
            norm(vec![t]),
            norm(vec![]),
            norm(vec![t]),
            norm(vec![]),
        ];
        assert_eq!(find_consistent(&states, 2), vec![0, 1, 2]);
    }

    #[test]
    fn swap_without_any_adds_excludes_the_data_node() {
        // The write reached only the data node: redundancy agrees on "no
        // write", so the consistent set is everyone else.
        let t = entry(1, 0, 1);
        let states = vec![
            norm(vec![t]),
            norm(vec![]),
            norm(vec![]),
            norm(vec![]),
        ];
        assert_eq!(find_consistent(&states, 2), vec![1, 2, 3]);
    }

    #[test]
    fn init_nodes_are_never_candidates() {
        let states = vec![
            norm(vec![]),
            state(OpMode::Init, vec![], vec![], None),
            norm(vec![]),
            norm(vec![]),
        ];
        assert_eq!(find_consistent(&states, 2), vec![0, 2, 3]);
    }

    #[test]
    fn oldlist_membership_excuses_recentlist_differences() {
        // tid was GC'd to oldlist at node 2 but still in recentlist at
        // node 3: Ĝ contains it, so both count as having it.
        let t = entry(1, 0, 1);
        let states = vec![
            norm(vec![]),
            norm(vec![]),
            state(OpMode::Norm, vec![], vec![t], Some(vec![0])),
            norm(vec![t]),
        ];
        assert_eq!(find_consistent(&states, 2), vec![0, 1, 2, 3]);
    }

    #[test]
    fn two_concurrent_partial_writes_pick_the_largest_alternative() {
        // Writes to blocks 0 and 1; block-0's write landed on both
        // redundant nodes, block-1's only on node 3.
        let t0 = entry(1, 0, 1);
        let t1 = entry(2, 1, 1);
        let states = vec![
            norm(vec![t0]),
            norm(vec![t1]),
            norm(vec![t0]),
            norm(vec![TidEntry { tid: t0.tid, time: 2 }, t1]),
        ];
        // {0, 2} agree on {t0}; node 3 has {t0, t1} which matches data
        // {0, 1} jointly: S = {0, 1, 3}. {0, 2} ∪ {} = {0,2} smaller.
        let got = find_consistent(&states, 2);
        assert_eq!(got, vec![0, 1, 3]);
    }

    #[test]
    fn no_redundant_agreement_still_returns_data_nodes() {
        // Both redundant nodes saw different partial histories; the data
        // nodes alone form the best consistent set.
        let t0 = entry(1, 0, 1);
        let t1 = entry(2, 1, 1);
        let states = vec![
            norm(vec![t0]),
            norm(vec![t1]),
            norm(vec![t0]),
            norm(vec![t1]),
        ];
        // Group {2}: fset {t0} matches data 0 (f={t0}) but not data 1 →
        // S = {0, 2}; group {3}: S = {1, 3}; data-only S = {0, 1}. All
        // size 2; any is acceptable — we just need *a* maximal one.
        let got = find_consistent(&states, 2);
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn empty_input_gives_empty_set() {
        assert!(find_consistent(&[], 2).is_empty());
    }

    fn absent() -> GetStateReply {
        state(OpMode::Init, vec![], vec![], None)
    }

    #[test]
    fn degraded_plan_quiet_stripe_decodes_from_first_k_members() {
        // k = 2, n = 4, node 0 crashed (placeholder), nobody writing.
        let states = vec![absent(), norm(vec![]), norm(vec![]), norm(vec![])];
        assert_eq!(degraded_plan(&states, 2, 0), Some(vec![1, 2, 3]));
    }

    #[test]
    fn degraded_plan_refuses_while_a_recovery_is_reconstructing() {
        let mut states = vec![absent(), norm(vec![]), norm(vec![]), norm(vec![])];
        states[3].opmode = OpMode::Recons;
        states[3].block = None;
        assert_eq!(degraded_plan(&states, 2, 0), None);
    }

    #[test]
    fn degraded_plan_needs_k_consistent_members() {
        // Only one peer reachable: nothing to decode from.
        let states = vec![absent(), norm(vec![]), absent(), absent()];
        assert_eq!(degraded_plan(&states, 2, 0), None);
    }

    #[test]
    fn degraded_plan_refuses_a_data_only_consistent_set() {
        // Redundant nodes disagree with each other and with the data
        // nodes, so the best set is data-only — it cannot answer for the
        // missing block i even if it reaches k members.
        let t0 = entry(1, 1, 1);
        let t1 = entry(2, 2, 1);
        let states = vec![
            absent(),
            norm(vec![]),
            norm(vec![]),
            norm(vec![t0]),
            norm(vec![t1]),
        ];
        // k = 3: candidates 1,2 are data; 3,4 are redundant but split.
        assert_eq!(degraded_plan(&states, 3, 0), None);
    }

    #[test]
    fn degraded_plan_rejects_a_draining_write_the_chosen_set_missed() {
        // n = 5, k = 2, reading block 0. A write to block 0 swapped at the
        // (now crashed) data node and added only at redundant node 2; the
        // larger consistent set {1, 3, 4} has not seen it. The union view
        // {t} disagrees with the chosen set's view {} → ambiguous.
        let t = entry(1, 0, 1);
        let states = vec![
            absent(),
            norm(vec![]),
            norm(vec![t]),
            norm(vec![]),
            norm(vec![]),
        ];
        assert_eq!(degraded_plan(&states, 2, 0), None);
    }

    #[test]
    fn degraded_plan_accepts_when_the_chosen_set_carries_the_write() {
        // Same shape, n = 4: the group holding the write ties the empty
        // group at size 2 but is found first via data node 1; either way
        // the chosen set must agree with the union view to decode.
        let t = entry(1, 0, 1);
        let states = vec![absent(), norm(vec![]), norm(vec![t]), norm(vec![t])];
        // Redundant group {2, 3} agrees on {t}; union view is {t}: safe.
        assert_eq!(degraded_plan(&states, 2, 0), Some(vec![1, 2, 3]));
    }

    #[test]
    fn degraded_plan_ignores_drains_for_other_blocks() {
        // A write to block 1 is mid-drain, but we are reading block 0:
        // block-0 tid views all agree (empty), so the read is safe as long
        // as find_consistent still yields k members agreeing on block 1.
        let t = entry(1, 1, 1);
        let states = vec![
            absent(),
            norm(vec![t]),
            norm(vec![t]),
            norm(vec![]),
        ];
        // Group {2} matches data node 1 → S = {1, 2}; group {3} does not.
        assert_eq!(degraded_plan(&states, 2, 0), Some(vec![1, 2]));
    }

    #[test]
    fn degraded_plan_gcd_writes_are_not_ambiguous() {
        // The write completed long ago and was GC'd to an oldlist at node
        // 2 while node 3 still lists it: Ĝ excuses it on both sides.
        let t = entry(1, 0, 1);
        let states = vec![
            absent(),
            norm(vec![]),
            state(OpMode::Norm, vec![], vec![t], Some(vec![0])),
            norm(vec![t]),
        ];
        assert_eq!(degraded_plan(&states, 2, 0), Some(vec![1, 2, 3]));
    }

    #[test]
    fn metadata_only_norm_replies_are_candidates() {
        // A `GetMeta` answer is a NORM reply with no block: it must count
        // for consistency analysis exactly like a full reply, or the
        // byte-thrifty rebuild/degraded-read rounds would shrink the set.
        let meta = |recent: Vec<TidEntry>| state(OpMode::Norm, recent, vec![], None);
        let states = vec![norm(vec![]), meta(vec![]), norm(vec![]), meta(vec![])];
        assert_eq!(find_consistent(&states, 2), vec![0, 1, 2, 3]);
        let states = vec![absent(), meta(vec![]), norm(vec![]), norm(vec![])];
        assert_eq!(degraded_plan(&states, 2, 0), Some(vec![1, 2, 3]));
    }
}
