//! Code-family abstraction: Reed-Solomon or LRC behind one handle.
//!
//! The protocol stack (config, storage nodes, recovery, rebuild) does not
//! care *which* systematic linear code a cluster runs — encode, delta
//! updates and decode planning are identical. What differs is **repair
//! economics**: an MDS Reed-Solomon code always reads `k` blocks to repair
//! one loss, while an [`Lrc`] repairs a single loss from its local group.
//! [`CodeFamily`] carries that difference behind two queries:
//!
//! * [`CodeFamily::repair_plan`] — the cheapest set of available blocks
//!   (with GF weights) that reconstructs one lost block;
//! * [`CodeFamily::select_decode_indices`] — a decodable `k`-subset of the
//!   available blocks (non-trivial for non-MDS codes).
//!
//! [`CodeFamily`] derefs to the underlying [`ReedSolomon`] systematic
//! view, so all stripe-level operations keep their existing call sites.

use crate::code::ReedSolomon;
use crate::lrc::Lrc;
use ajx_gf::{kernel, Field, Gf256};
use std::ops::Deref;
use std::sync::Arc;

/// A cluster's erasure code: plain Reed-Solomon or a pyramid LRC.
///
/// Cloning is cheap (the code tables are behind an [`Arc`]). The type
/// derefs to the systematic [`ReedSolomon`] view shared by both families,
/// so `family.encode_into(..)`, `family.delta(..)`, `family.plan_decode(..)`
/// etc. all work directly.
#[derive(Clone, Debug)]
pub enum CodeFamily {
    /// A k-of-n MDS Reed-Solomon code.
    Rs(Arc<ReedSolomon>),
    /// A pyramid Local Reconstruction Code (see [`Lrc`]).
    Lrc(Arc<Lrc>),
}

/// Hashable identity of a code family **and** its generator — the cache
/// key half that keeps an LRC plan from ever being served for an RS
/// stripe of the same `(k, n)` shape (or vice versa).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FamilyKey {
    /// Reed-Solomon with `k` data of `n` total blocks.
    Rs {
        /// Data blocks per stripe.
        k: usize,
        /// Total blocks per stripe.
        n: usize,
    },
    /// Pyramid LRC with `k` data blocks, `g` local groups, `h` globals.
    Lrc {
        /// Data blocks per stripe.
        k: usize,
        /// Number of local groups.
        g: usize,
        /// Number of global parities.
        h: usize,
    },
    /// Wide Reed-Solomon over GF(2¹⁶) with `k` data of `n` total blocks.
    ///
    /// A separate variant from [`FamilyKey::Rs`] even at equal `(k, n)`:
    /// the two generators live in different fields, so their decode plans
    /// must never share a cache entry.
    Wide {
        /// Data blocks per stripe.
        k: usize,
        /// Total blocks per stripe.
        n: usize,
    },
}

impl Deref for CodeFamily {
    type Target = ReedSolomon;

    fn deref(&self) -> &ReedSolomon {
        match self {
            CodeFamily::Rs(rs) => rs,
            CodeFamily::Lrc(lrc) => lrc.code(),
        }
    }
}

impl From<ReedSolomon> for CodeFamily {
    fn from(rs: ReedSolomon) -> Self {
        CodeFamily::Rs(Arc::new(rs))
    }
}

impl From<Lrc> for CodeFamily {
    fn from(lrc: Lrc) -> Self {
        CodeFamily::Lrc(Arc::new(lrc))
    }
}

impl CodeFamily {
    /// A Reed-Solomon family with `k` data of `n` total blocks.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReedSolomon::new`].
    pub fn rs(k: usize, n: usize) -> Result<Self, crate::CodeError> {
        Ok(ReedSolomon::new(k, n)?.into())
    }

    /// A pyramid LRC family with `k` data blocks, `g` groups, `h` globals.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Lrc::new`], including its rejection of shapes
    /// that would leave a local group empty.
    pub fn lrc(k: usize, g: usize, h: usize) -> Result<Self, crate::CodeError> {
        Ok(Lrc::new(k, g, h)?.into())
    }

    /// The LRC bookkeeping, if this family is an LRC.
    pub fn as_lrc(&self) -> Option<&Lrc> {
        match self {
            CodeFamily::Rs(_) => None,
            CodeFamily::Lrc(lrc) => Some(lrc),
        }
    }

    /// This family's cache-key identity.
    pub fn family_key(&self) -> FamilyKey {
        match self {
            CodeFamily::Rs(rs) => FamilyKey::Rs {
                k: rs.k(),
                n: rs.n(),
            },
            CodeFamily::Lrc(lrc) => FamilyKey::Lrc {
                k: lrc.k(),
                g: lrc.g(),
                h: lrc.h(),
            },
        }
    }

    /// How many simultaneous block losses the family guarantees to
    /// tolerate: `n − k` for MDS Reed-Solomon, `h + 1` for a pyramid LRC
    /// (its minimum distance is `h + 2`).
    pub fn tolerated_failures(&self) -> usize {
        match self {
            CodeFamily::Rs(rs) => rs.p(),
            CodeFamily::Lrc(lrc) => lrc.h() + 1,
        }
    }

    /// Picks a decodable `k`-subset of `available` (distinct stripe
    /// indices), or `None` if the available blocks do not determine the
    /// data. For Reed-Solomon any `k` work (MDS), so the first `k` are
    /// returned; for an LRC a greedy Gaussian sweep keeps each index whose
    /// generator row increases the rank.
    pub fn select_decode_indices(&self, available: &[usize]) -> Option<Vec<usize>> {
        let k = self.k();
        if let CodeFamily::Rs(_) = self {
            return (available.len() >= k).then(|| available[..k].to_vec());
        }
        let mut basis: Vec<(usize, Vec<Gf256>)> = Vec::with_capacity(k);
        let mut chosen = Vec::with_capacity(k);
        for &idx in available {
            let mut row = self.generator_row(idx);
            for (p, brow) in &basis {
                let c = row[*p];
                if c != Gf256::ZERO {
                    for (r, b) in row.iter_mut().zip(brow) {
                        *r += c * *b;
                    }
                }
            }
            if let Some(p) = row.iter().position(|&x| x != Gf256::ZERO) {
                // Normalize the pivot so later eliminations are one mul-add.
                let inv = row[p].inv().unwrap_or(Gf256::ONE); // nonzero ⇒ invertible
                for r in row.iter_mut() {
                    *r *= inv;
                }
                basis.push((p, row));
                chosen.push(idx);
                if chosen.len() == k {
                    return Some(chosen);
                }
            }
        }
        None
    }

    /// The candidate order [`CodeFamily::repair_plan`] walks: cheapest
    /// repair sources first. For an LRC that is the lost block's local
    /// group (peer data, then the group's local parity), then data outside
    /// the group, then global parities, then other local parities. For
    /// Reed-Solomon every order costs the same `k` blocks.
    fn repair_preference(&self, lost: usize, available: &[usize]) -> Vec<usize> {
        let mut order: Vec<usize> = available
            .iter()
            .copied()
            .filter(|&idx| idx != lost)
            .collect();
        order.sort_unstable();
        order.dedup();
        if let CodeFamily::Lrc(lrc) = self {
            let group = lrc.group_of_index(lost);
            let rank = |idx: usize| -> usize {
                let in_group = group.is_some() && lrc.group_of_index(idx) == group;
                match (in_group, idx < lrc.k(), lrc.group_of_index(idx).is_some()) {
                    (true, true, _) => 0,      // peer data in the lost group
                    (true, false, _) => 1,     // the group's local parity
                    (false, true, _) => 2,     // data outside the group
                    (false, false, false) => 3, // global parity
                    (false, false, true) => 4, // other groups' local parity
                }
            };
            order.sort_by_key(|&idx| (rank(idx), idx));
        }
        order
    }

    /// Computes the cheapest repair of stripe index `lost` from the
    /// `available` indices: the shortest preference-ordered prefix whose
    /// generator rows span the lost block's row, with the GF weights that
    /// combine them. Returns `None` when the available blocks cannot
    /// reconstruct the lost one.
    ///
    /// For a single loss this yields ~`k/g + 1` shares on an LRC and `k`
    /// shares on Reed-Solomon — the bytes-on-wire gap the rebuild engine
    /// and degraded reads exploit.
    pub fn repair_plan(&self, lost: usize, available: &[usize]) -> Option<RepairPlan> {
        if lost >= self.n() {
            return None;
        }
        let order = self.repair_preference(lost, available);
        let m = order.len();
        let mut target = self.generator_row(lost);
        // target_orig = target + Σ tcomb[s] · row(order[s]) at all times.
        let mut tcomb = vec![Gf256::ZERO; m];
        // Row-echelon basis over the candidate rows; each entry remembers
        // its pivot column and its combination over the original candidates.
        let mut basis: Vec<(usize, Vec<Gf256>, Vec<Gf256>)> = Vec::new();
        for (s, &idx) in order.iter().enumerate() {
            let mut row = self.generator_row(idx);
            let mut comb = vec![Gf256::ZERO; m];
            comb[s] = Gf256::ONE;
            for (p, brow, bcomb) in &basis {
                let c = row[*p];
                if c != Gf256::ZERO {
                    for (r, b) in row.iter_mut().zip(brow) {
                        *r += c * *b;
                    }
                    for (r, b) in comb.iter_mut().zip(bcomb) {
                        *r += c * *b;
                    }
                }
            }
            let Some(p) = row.iter().position(|&x| x != Gf256::ZERO) else {
                continue; // linearly dependent on earlier candidates
            };
            let inv = row[p].inv().unwrap_or(Gf256::ONE); // nonzero ⇒ invertible
            for r in row.iter_mut() {
                *r *= inv;
            }
            for c in comb.iter_mut() {
                *c *= inv;
            }
            let c = target[p];
            if c != Gf256::ZERO {
                for (t, b) in target.iter_mut().zip(&row) {
                    *t += c * *b;
                }
                for (t, b) in tcomb.iter_mut().zip(&comb) {
                    *t += c * *b;
                }
            }
            basis.push((p, row, comb));
            if target.iter().all(|&x| x == Gf256::ZERO) {
                let shares: Vec<(usize, u8)> = tcomb
                    .iter()
                    .enumerate()
                    .filter(|&(_, &w)| w != Gf256::ZERO)
                    .map(|(t, &w)| (order[t], w.as_byte()))
                    .collect();
                let weights = shares.iter().map(|&(_, w)| w).collect();
                return Some(RepairPlan {
                    lost,
                    shares,
                    weights,
                });
            }
        }
        None
    }
}

/// A prepared single-block repair: which available blocks to read and the
/// GF weight of each. Produced by [`CodeFamily::repair_plan`]; applying it
/// is one weighted sum ([`RepairPlan::reconstruct_into`]), so the per-
/// stripe cost is pure kernel streaming over the (small) share set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepairPlan {
    lost: usize,
    shares: Vec<(usize, u8)>,
    /// The weights of `shares` alone: the weighted sum's one coefficient
    /// row.
    weights: Vec<u8>,
}

impl RepairPlan {
    /// The stripe index this plan reconstructs.
    pub fn lost(&self) -> usize {
        self.lost
    }

    /// The `(stripe index, GF weight)` pairs to combine, in the order
    /// [`RepairPlan::reconstruct_into`] expects the share blocks.
    pub fn shares(&self) -> &[(usize, u8)] {
        &self.shares
    }

    /// The share indices alone, in plan order.
    pub fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.shares.iter().map(|&(idx, _)| idx)
    }

    /// Reconstructs the lost block into `out` from `shares` (blocks in
    /// [`RepairPlan::shares`] order): `out = Σ wᵢ · shareᵢ`, no allocation.
    ///
    /// # Errors
    ///
    /// [`crate::CodeError::WrongBlockCount`] on a wrong share count;
    /// [`crate::CodeError::LengthMismatch`] on ragged blocks.
    pub fn reconstruct_into(
        &self,
        shares: &[&[u8]],
        out: &mut [u8],
    ) -> Result<(), crate::CodeError> {
        if shares.len() != self.shares.len() {
            return Err(crate::CodeError::WrongBlockCount {
                expected: self.shares.len(),
                got: shares.len(),
            });
        }
        if shares.iter().any(|share| share.len() != out.len()) {
            return Err(crate::CodeError::LengthMismatch);
        }
        kernel::combine(&mut [out], &[&self.weights[..]], shares);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn random_data(k: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..k)
            .map(|_| (0..len).map(|_| rng.random()).collect())
            .collect()
    }

    fn apply(plan: &RepairPlan, stripe: &[Vec<u8>]) -> Vec<u8> {
        let shares: Vec<&[u8]> = plan.indices().map(|i| &stripe[i][..]).collect();
        let mut out = vec![0u8; stripe[0].len()];
        plan.reconstruct_into(&shares, &mut out).unwrap();
        out
    }

    #[test]
    fn family_keys_distinguish_families_of_equal_shape() {
        // RS(12, 16) and LRC(12, 3, 1) have identical (k, n) — the keys
        // must still differ, or a cached plan could cross families.
        let rs = CodeFamily::rs(12, 16).unwrap();
        let lrc = CodeFamily::lrc(12, 3, 1).unwrap();
        assert_eq!(rs.k(), lrc.k());
        assert_eq!(rs.n(), lrc.n());
        assert_ne!(rs.family_key(), lrc.family_key());
        assert_eq!(rs.family_key(), FamilyKey::Rs { k: 12, n: 16 });
        assert_eq!(lrc.family_key(), FamilyKey::Lrc { k: 12, g: 3, h: 1 });
    }

    #[test]
    fn deref_exposes_the_systematic_view() {
        let fam = CodeFamily::lrc(6, 2, 1).unwrap();
        assert_eq!(fam.k(), 6);
        assert_eq!(fam.n(), 9);
        assert_eq!(fam.p(), 3);
        let data = random_data(6, 16, 1);
        let stripe = fam.encode_stripe(&data).unwrap();
        assert!(fam.verify_stripe(&stripe).unwrap());
        assert_eq!(fam.tolerated_failures(), 2);
        assert_eq!(CodeFamily::rs(6, 9).unwrap().tolerated_failures(), 3);
    }

    #[test]
    fn rs_repair_plan_uses_k_shares() {
        let fam = CodeFamily::rs(4, 6).unwrap();
        let data = random_data(4, 32, 2);
        let stripe = fam.encode_stripe(&data).unwrap();
        let available: Vec<usize> = (0..6).filter(|&i| i != 1).collect();
        let plan = fam.repair_plan(1, &available).unwrap();
        assert_eq!(plan.lost(), 1);
        assert_eq!(plan.shares().len(), 4, "MDS repair reads k blocks");
        assert_eq!(apply(&plan, &stripe), stripe[1]);
    }

    #[test]
    fn lrc_single_loss_repairs_from_local_group() {
        let fam = CodeFamily::lrc(12, 3, 1).unwrap();
        let data = random_data(12, 64, 3);
        let stripe = fam.encode_stripe(&data).unwrap();
        let lrc = fam.as_lrc().unwrap();
        for lost in 0..fam.n() {
            let available: Vec<usize> = (0..fam.n()).filter(|&i| i != lost).collect();
            let plan = fam.repair_plan(lost, &available).unwrap();
            let expected = match lrc.group_of_index(lost) {
                // Local repair: the group's other members + its parity.
                Some(_) => lrc.group_size(),
                // A global parity needs a full k-block read.
                None => 12,
            };
            assert_eq!(plan.shares().len(), expected, "lost {lost}");
            assert_eq!(apply(&plan, &stripe), stripe[lost], "lost {lost}");
        }
    }

    #[test]
    fn lrc_repair_falls_back_beyond_the_local_group() {
        let fam = CodeFamily::lrc(6, 2, 2).unwrap(); // groups {0..3}, {3..6}
        let data = random_data(6, 24, 4);
        let stripe = fam.encode_stripe(&data).unwrap();
        // Lose data 0 *and* its whole group's parity-path: peers 1, 2 and
        // local parity 6 all gone. Repair must lean on globals.
        let available: Vec<usize> = (0..fam.n())
            .filter(|&i| ![0usize, 1, 6].contains(&i))
            .collect();
        let plan = fam.repair_plan(0, &available).unwrap();
        assert_eq!(apply(&plan, &stripe), stripe[0]);
        assert!(plan.shares().len() > fam.as_lrc().unwrap().group_size());
    }

    #[test]
    fn repair_plan_is_none_when_unrecoverable() {
        let fam = CodeFamily::lrc(4, 2, 1).unwrap(); // tolerates 2 losses
        // Lose data 0, 1 and local parity 4 and the global 6: group 0 is
        // beyond repair.
        let available = vec![2, 3, 5];
        assert!(fam.repair_plan(0, &available).is_none());
        // Self-repair and out-of-range indices are rejected.
        assert!(fam.repair_plan(99, &[0, 1, 2, 3]).is_none());
        let rs = CodeFamily::rs(2, 4).unwrap();
        assert!(rs.repair_plan(0, &[0, 1]).is_none(), "lost is filtered out");
    }

    #[test]
    fn select_decode_indices_skips_dependent_rows() {
        let fam = CodeFamily::lrc(4, 2, 1).unwrap();
        // {2, 3, 5} are dependent (local 5 = combo of data 2, 3): the
        // greedy sweep must skip 5 and finish with the global parity.
        let picked = fam.select_decode_indices(&[2, 3, 5, 4, 6]).unwrap();
        assert_eq!(picked, vec![2, 3, 4, 6]);
        let plan = fam.plan_decode(&picked).unwrap();
        let data = random_data(4, 16, 5);
        let stripe = fam.encode_stripe(&data).unwrap();
        let shares: Vec<&[u8]> = picked.iter().map(|&i| &stripe[i][..]).collect();
        let mut out = vec![vec![0u8; 16]; 4];
        let mut views: Vec<&mut [u8]> = out.iter_mut().map(|b| b.as_mut_slice()).collect();
        plan.decode_into(&shares, &mut views).unwrap();
        assert_eq!(out, data);
        // Not enough rank at all → None.
        assert_eq!(fam.select_decode_indices(&[2, 3, 5]), None);
        // RS shortcut: first k of anything.
        let rs = CodeFamily::rs(3, 5).unwrap();
        assert_eq!(rs.select_decode_indices(&[4, 0, 2, 1]), Some(vec![4, 0, 2]));
        assert_eq!(rs.select_decode_indices(&[4, 0]), None);
    }

    #[test]
    fn any_h_plus_one_erasures_stay_decodable() {
        // The pyramid code's distance claim, checked exhaustively for a
        // small shape: every (h+1)-subset of losses leaves a decodable set.
        let fam = CodeFamily::lrc(6, 3, 2).unwrap(); // n = 11, tolerate 3
        let n = fam.n();
        let data = random_data(6, 8, 6);
        let stripe = fam.encode_stripe(&data).unwrap();
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    let available: Vec<usize> =
                        (0..n).filter(|&i| i != a && i != b && i != c).collect();
                    let picked = fam
                        .select_decode_indices(&available)
                        .unwrap_or_else(|| panic!("losses {a},{b},{c} undecodable"));
                    let plan = fam.plan_decode(&picked).unwrap();
                    let shares: Vec<&[u8]> = picked.iter().map(|&i| &stripe[i][..]).collect();
                    let mut out = vec![vec![0u8; 8]; 6];
                    let mut views: Vec<&mut [u8]> =
                        out.iter_mut().map(|v| v.as_mut_slice()).collect();
                    plan.decode_into(&shares, &mut views).unwrap();
                    assert_eq!(out, data, "losses {a},{b},{c}");
                }
            }
        }
    }

    #[test]
    fn reconstruct_into_validates_shapes() {
        let fam = CodeFamily::rs(2, 4).unwrap();
        let plan = fam.repair_plan(0, &[1, 2, 3]).unwrap();
        let b = [0u8; 8];
        let mut out = [0u8; 8];
        assert!(matches!(
            plan.reconstruct_into(&[&b[..]], &mut out),
            Err(crate::CodeError::WrongBlockCount { .. })
        ));
        assert!(matches!(
            plan.reconstruct_into(&[&b[..], &b[..4]], &mut out),
            Err(crate::CodeError::LengthMismatch)
        ));
    }
}
