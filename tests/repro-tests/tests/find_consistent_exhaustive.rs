//! Validates the optimized `find_consistent` (group-scan with a global Ĝ)
//! against an exhaustive reference that implements Fig. 6's definition
//! literally — per-subset Ĝ_S, all 2^n candidate subsets — on randomized
//! small instances.
//!
//! The optimized algorithm must always report a set of the same (maximum)
//! size, and its result must itself satisfy the consistency conditions.

use ajx_core::find_consistent;
use ajx_storage::{ClientId, Epoch, GetStateReply, OpMode, Tid, TidEntry};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Literal Fig. 6 conditions for a specific subset `s`, with Ĝ_S computed
/// from `s` itself.
fn subset_is_consistent(states: &[GetStateReply], k: usize, s: &[usize]) -> bool {
    let ghat: BTreeSet<Tid> = s
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
    let reds: Vec<usize> = s.iter().copied().filter(|&t| t >= k).collect();
    let datas: Vec<usize> = s.iter().copied().filter(|&t| t < k).collect();
    for w in reds.windows(2) {
        if f(w[0]) != f(w[1]) {
            return false;
        }
    }
    if let Some(&r) = reds.first() {
        let fr = f(r);
        for &j in &datas {
            let h: BTreeSet<Tid> = fr.iter().copied().filter(|t| t.block == j).collect();
            if h != f(j) {
                return false;
            }
        }
    }
    true
}

#[allow(
    clippy::needless_range_loop,
    reason = "the brute force reads like the definition it checks"
)]
fn exhaustive_max(states: &[GetStateReply], k: usize) -> usize {
    let candidates: Vec<usize> = (0..states.len())
        .filter(|&t| states[t].opmode == OpMode::Norm && states[t].block.is_some())
        .collect();
    let mut best = 0;
    for mask in 0u32..(1 << candidates.len()) {
        let s: Vec<usize> = candidates
            .iter()
            .enumerate()
            .filter(|&(b, _)| mask & (1 << b) != 0)
            .map(|(_, &t)| t)
            .collect();
        if s.len() > best && subset_is_consistent(states, k, &s) {
            best = s.len();
        }
    }
    best
}

/// Generates a plausible recovery input: some writes landed at various
/// subsets of nodes, some tids were partially GC'd, some nodes are INIT.
fn arb_states(k: usize, n: usize) -> impl Strategy<Value = Vec<GetStateReply>> {
    let writes = proptest::collection::vec(
        (
            0..k,                          // target data block
            proptest::bits::u8::masked(0xFF), // which redundant nodes got the add
            any::<bool>(),                 // did the swap land?
            any::<bool>(),                 // was it GC'd to oldlist where it landed?
        ),
        0..5,
    );
    let init_mask = proptest::bits::u8::masked(0x0F);
    (writes, init_mask).prop_map(move |(writes, init_mask)| {
        let mut states: Vec<GetStateReply> = (0..n)
            .map(|_| GetStateReply {
                opmode: OpMode::Norm,
                recons_set: vec![],
                oldlist: vec![],
                recentlist: vec![],
                block: Some(vec![0]),
                epoch: Epoch(0),
            })
            .collect();
        for (seq, (block, red_mask, swapped, gcd)) in writes.into_iter().enumerate() {
            let tid = Tid::new(seq as u64, block, ClientId(1));
            let entry = TidEntry {
                tid,
                time: seq as u64,
            };
            // A tid may only reach an oldlist if its write completed
            // everywhere (the Fig. 7 two-phase GC invariant) — so only
            // treat `gcd` as usable when swap and all adds landed.
            let complete = swapped && (0..n - k).all(|j| red_mask & (1 << j) != 0);
            if swapped {
                if complete && gcd {
                    states[block].oldlist.push(entry);
                } else {
                    states[block].recentlist.push(entry);
                }
            }
            for j in 0..(n - k) {
                if red_mask & (1 << j) != 0 {
                    if complete && gcd && j % 2 == 0 {
                        states[k + j].oldlist.push(entry);
                    } else {
                        states[k + j].recentlist.push(entry);
                    }
                }
            }
        }
        #[allow(clippy::needless_range_loop, reason = "`t` also picks the mask bit")]
        for t in 0..n {
            if init_mask & (1 << (t % 8)) != 0 && t % 3 == 2 {
                states[t] = GetStateReply {
                    opmode: OpMode::Init,
                    recons_set: vec![],
                    oldlist: vec![],
                    recentlist: vec![],
                    block: None,
                    epoch: Epoch(0),
                };
            }
        }
        states
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prop_group_scan_matches_exhaustive_2of5(states in arb_states(2, 5)) {
        let fast = find_consistent(&states, 2);
        prop_assert!(subset_is_consistent(&states, 2, &fast),
            "optimized result must itself be consistent");
        prop_assert_eq!(fast.len(), exhaustive_max(&states, 2));
    }

    #[test]
    fn prop_group_scan_matches_exhaustive_3of7(states in arb_states(3, 7)) {
        let fast = find_consistent(&states, 3);
        prop_assert!(subset_is_consistent(&states, 3, &fast));
        prop_assert_eq!(fast.len(), exhaustive_max(&states, 3));
    }

    #[test]
    fn prop_group_scan_matches_exhaustive_4of8(states in arb_states(4, 8)) {
        let fast = find_consistent(&states, 4);
        prop_assert!(subset_is_consistent(&states, 4, &fast));
        prop_assert_eq!(fast.len(), exhaustive_max(&states, 4));
    }
}
