//! Local Reconstruction Codes (pyramid construction) over GF(2⁸).
//!
//! Reed-Solomon repair is bandwidth-hungry: rebuilding *one* lost block
//! reads `k` whole blocks over the wire. Rashmi et al. measured exactly
//! this traffic dominating warehouse clusters, and LRC-style codes (Huang
//! et al.'s pyramid codes, Azure LRC) cut it by an integer factor: split
//! the `k` data blocks into `g` local groups, give each group its own
//! local parity, and keep `h` global parities for multi-failure cover.
//! A single lost block is then repaired from its ~`k/g`-block local group
//! instead of from `k` blocks.
//!
//! # Construction
//!
//! Start from a base MDS Reed-Solomon code `RS(k, k + h + 1)` and *split*
//! its first parity row: local parity `g_t` uses base parity row 0
//! restricted to group `t`'s columns (zero elsewhere), and the `h` global
//! parities are base parity rows `1..=h` unchanged. Because the local
//! parities sum to the original row-0 parity, the pyramid code inherits
//! the base code's minimum distance `h + 2`: **any** `h + 1` erasures are
//! decodable (via [`crate::CodeFamily::select_decode_indices`]), while a
//! single erasure is decodable from its local group alone.
//!
//! The stripe layout is `[d_0 .. d_{k-1} | L_0 .. L_{g-1} | G_0 .. G_{h-1}]`:
//! redundant index `j < g` is the local parity of group `j`, and
//! `j >= g` is global parity `j - g`.

use crate::code::ReedSolomon;
use crate::error::CodeError;
use crate::matrix::Matrix;
use ajx_gf::{Field, Gf256};

/// A pyramid Local Reconstruction Code: `k` data blocks in `g` local
/// groups (one GF-weighted local parity each) plus `h` global parities,
/// `n = k + g + h`.
///
/// All stripe-level operations (encode, delta updates, decode planning,
/// verification) are served by the underlying systematic linear view
/// ([`Lrc::code`]); this type adds the group bookkeeping that lets repair
/// prefer the cheap local set.
///
/// # Example
///
/// ```
/// use ajx_erasure::Lrc;
///
/// # fn main() -> Result<(), ajx_erasure::CodeError> {
/// // 12 data blocks in 3 groups of 4, one global parity: n = 16.
/// let lrc = Lrc::new(12, 3, 1)?;
/// let data: Vec<Vec<u8>> = (0..12).map(|i| vec![i as u8 + 1; 64]).collect();
/// let stripe = lrc.code().encode_stripe(&data)?;
/// // Repairing data block 5 (group 1) needs only its 3 group peers and
/// // the group's local parity — 4 blocks instead of 12.
/// assert_eq!(lrc.group_of(5), 1);
/// assert_eq!(lrc.group_data(1), vec![4, 5, 6, 7]);
/// assert_eq!(lrc.local_parity_index(1), 13);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Lrc {
    g: usize,
    h: usize,
    group_size: usize,
    core: ReedSolomon,
}

impl Lrc {
    /// Builds the pyramid LRC with `k` data blocks split into `g` local
    /// groups (of `ceil(k / g)` blocks each) and `h` global parities.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParams`] unless `1 ≤ g ≤ k`, `h ≥ 1`,
    /// `k + g + h ≤ 256`, and every group is non-empty:
    /// `(g − 1) · ceil(k / g) < k`. (`k = 5, g = 4` fails the last test:
    /// groups of 2 leave nothing for the fourth, whose all-zero local
    /// parity would occupy a node and protect no data.)
    pub fn new(k: usize, g: usize, h: usize) -> Result<Self, CodeError> {
        let n = k + g + h;
        if k == 0 || g == 0 || g > k || h == 0 || n > crate::code::MAX_N {
            return Err(CodeError::InvalidParams { k, n });
        }
        let group_size = k.div_ceil(g);
        if (g - 1) * group_size >= k {
            return Err(CodeError::InvalidParams { k, n });
        }
        // Base MDS code whose first parity row is split into the locals.
        let base = ReedSolomon::new(k, k + h + 1)?;
        let mut rows: Vec<Vec<Gf256>> = Vec::with_capacity(g + h);
        for t in 0..g {
            let mut row = vec![Gf256::ZERO; k];
            let hi = ((t + 1) * group_size).min(k);
            for (i, cell) in row.iter_mut().enumerate().take(hi).skip(t * group_size) {
                *cell = base.coefficient(0, i);
            }
            rows.push(row);
        }
        for j in 1..=h {
            rows.push(base.generator_row(k + j));
        }
        let core = ReedSolomon::from_parity(k, Matrix::from_rows(rows))?;
        Ok(Lrc {
            g,
            h,
            group_size,
            core,
        })
    }

    /// Number of data blocks per stripe.
    pub fn k(&self) -> usize {
        self.core.k()
    }

    /// Total blocks per stripe (`k + g + h`).
    pub fn n(&self) -> usize {
        self.core.n()
    }

    /// Number of redundant blocks (`g + h`).
    pub fn p(&self) -> usize {
        self.core.p()
    }

    /// Number of local groups.
    pub fn g(&self) -> usize {
        self.g
    }

    /// Number of global parities.
    pub fn h(&self) -> usize {
        self.h
    }

    /// Data blocks per local group (the last group may be smaller).
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// The local group containing data block `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ k`.
    pub fn group_of(&self, i: usize) -> usize {
        assert!(i < self.k(), "data index {i} out of range");
        i / self.group_size
    }

    /// The data-block indices of local group `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t ≥ g`.
    pub fn group_data(&self, t: usize) -> Vec<usize> {
        assert!(t < self.g, "group {t} out of range");
        ((t * self.group_size)..((t + 1) * self.group_size).min(self.k())).collect()
    }

    /// The stripe index of group `t`'s local parity block (`k + t`).
    ///
    /// # Panics
    ///
    /// Panics if `t ≥ g`.
    pub fn local_parity_index(&self, t: usize) -> usize {
        assert!(t < self.g, "group {t} out of range");
        self.k() + t
    }

    /// The stripe index of global parity `j` (`k + g + j`).
    ///
    /// # Panics
    ///
    /// Panics if `j ≥ h`.
    pub fn global_parity_index(&self, j: usize) -> usize {
        assert!(j < self.h, "global parity {j} out of range");
        self.k() + self.g + j
    }

    /// The local group a stripe index belongs to: `Some(t)` for data
    /// blocks and local parities, `None` for global parities.
    ///
    /// # Panics
    ///
    /// Panics if `idx ≥ n`.
    pub fn group_of_index(&self, idx: usize) -> Option<usize> {
        assert!(idx < self.n(), "stripe index {idx} out of range");
        if idx < self.k() {
            Some(self.group_of(idx))
        } else if idx < self.k() + self.g {
            Some(idx - self.k())
        } else {
            None
        }
    }

    /// The underlying systematic linear view: `k` data rows plus the
    /// `g + h` pyramid parity rows, exposing encode / delta / plan-decode /
    /// verify machinery identical to a Reed-Solomon code's.
    ///
    /// **This view is not MDS**: local parity rows are zero outside their
    /// group, so some `k`-subsets of blocks do not determine the data
    /// ([`ReedSolomon::plan_decode`] reports those as
    /// [`CodeError::NotDecodable`]). Use
    /// [`crate::CodeFamily::select_decode_indices`] to pick a decodable
    /// subset from the available blocks.
    pub fn code(&self) -> &ReedSolomon {
        &self.core
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

    #[test]
    fn rejects_invalid_params() {
        assert!(Lrc::new(0, 1, 1).is_err());
        assert!(Lrc::new(4, 0, 1).is_err());
        assert!(Lrc::new(4, 5, 1).is_err());
        assert!(Lrc::new(4, 2, 0).is_err());
        assert!(Lrc::new(250, 5, 3).is_err()); // n = 258 > 256
        assert!(Lrc::new(4, 2, 1).is_ok());
        assert!(Lrc::new(12, 3, 1).is_ok());
    }

    #[test]
    fn rejects_shapes_with_an_empty_local_group() {
        // Regression: (5, 4, 1) used to build groups [0,1] [2,3] [4] [] and
        // an all-zero local parity for the empty one.
        for (k, g, h) in [(5, 4, 1), (7, 5, 1)] {
            assert!(
                matches!(Lrc::new(k, g, h), Err(CodeError::InvalidParams { .. })),
                "LRC({k},{g},{h})"
            );
        }
        for (k, g, h) in [(5, 3, 1), (12, 3, 1), (10, 3, 2)] {
            let lrc = Lrc::new(k, g, h).unwrap();
            assert!((0..g).all(|t| !lrc.group_data(t).is_empty()), "LRC({k},{g},{h})");
        }
    }

    #[test]
    fn group_bookkeeping_partitions_data() {
        let lrc = Lrc::new(10, 3, 2).unwrap(); // groups of 4, 4, 2
        assert_eq!(lrc.group_size(), 4);
        assert_eq!(lrc.group_data(0), vec![0, 1, 2, 3]);
        assert_eq!(lrc.group_data(1), vec![4, 5, 6, 7]);
        assert_eq!(lrc.group_data(2), vec![8, 9]);
        for t in 0..3 {
            for &i in &lrc.group_data(t) {
                assert_eq!(lrc.group_of(i), t);
            }
            assert_eq!(lrc.group_of_index(lrc.local_parity_index(t)), Some(t));
        }
        assert_eq!(lrc.group_of_index(lrc.global_parity_index(0)), None);
        assert_eq!(lrc.group_of_index(lrc.global_parity_index(1)), None);
        assert_eq!(lrc.n(), 15);
    }

    #[test]
    fn locals_sum_to_base_parity_row() {
        // The pyramid invariant: per data column, exactly one local parity
        // row is nonzero, and the nonzero entries reassemble base row 0.
        let (k, g, h) = (9, 3, 2);
        let lrc = Lrc::new(k, g, h).unwrap();
        let base = ReedSolomon::new(k, k + h + 1).unwrap();
        for i in 0..k {
            let mut sum = Gf256::ZERO;
            for t in 0..g {
                sum += lrc.code().coefficient(t, i);
            }
            assert_eq!(sum, base.coefficient(0, i), "column {i}");
        }
        for j in 0..h {
            for i in 0..k {
                assert_eq!(
                    lrc.code().coefficient(g + j, i),
                    base.coefficient(1 + j, i),
                    "global {j}, column {i}"
                );
            }
        }
    }

    #[test]
    fn local_parity_row_is_zero_outside_its_group() {
        let lrc = Lrc::new(8, 4, 1).unwrap();
        for t in 0..4 {
            for i in 0..8 {
                let c = lrc.code().coefficient(t, i);
                if lrc.group_of(i) == t {
                    assert_ne!(c, Gf256::ZERO, "group {t}, column {i}");
                } else {
                    assert_eq!(c, Gf256::ZERO, "group {t}, column {i}");
                }
            }
        }
    }

    #[test]
    fn single_erasure_decodes_from_local_group_alone() {
        let lrc = Lrc::new(6, 2, 1).unwrap();
        let data = random_data(6, 32, 7);
        let stripe = lrc.code().encode_stripe(&data).unwrap();
        // Lose data block 1 (group 0). Its group peers {0, 2} plus local
        // parity 6, padded to k shares with group-1 members, reconstruct it.
        let idx = [0usize, 2, 6, 3, 4, 5];
        let plan = lrc.code().plan_decode(&idx).unwrap();
        let shares: Vec<&[u8]> = idx.iter().map(|&t| &stripe[t][..]).collect();
        let mut out = vec![0u8; 32];
        plan.reconstruct_one_into(1, &shares, &mut out).unwrap();
        assert_eq!(out, data[1]);
    }

    #[test]
    fn some_k_subsets_are_not_decodable() {
        // Non-MDS by design: dropping both members of a group's local
        // equation and compensating with another group's local parity
        // cannot work.
        let lrc = Lrc::new(4, 2, 1).unwrap(); // n = 7
        // Lose data 0, 1 (all of group 0). Shares {2, 3, local1, global}
        // has rank 3 over the data: not decodable.
        assert!(matches!(
            lrc.code().plan_decode(&[2, 3, 5, 6]),
            Err(CodeError::NotDecodable)
        ));
        // But {2, 3, local0, global} also fails (local0 and global are the
        // only rows touching columns 0 and 1 — rank 4 needed, have 4 rows,
        // local0 + global give 2 equations over 2 unknowns: decodable).
        assert!(lrc.code().plan_decode(&[2, 3, 4, 6]).is_ok());
    }

    #[test]
    fn delta_updates_keep_lrc_stripe_verifiable() {
        // The protocol's incremental write path must work unchanged: swap a
        // data block, add the per-node deltas, stripe still verifies.
        let lrc = Lrc::new(6, 3, 2).unwrap();
        let mut data = random_data(6, 24, 11);
        let mut stripe = lrc.code().encode_stripe(&data).unwrap();
        let new_block = vec![0xA5u8; 24];
        let old = std::mem::replace(&mut data[4], new_block.clone());
        stripe[4] = new_block.clone();
        for j in 0..lrc.p() {
            let d = lrc.code().delta(j, 4, &new_block, &old).unwrap();
            ajx_gf::slice::add_assign(&mut stripe[lrc.k() + j], &d);
        }
        assert!(lrc.code().verify_stripe(&stripe).unwrap());
        assert_eq!(stripe, lrc.code().encode_stripe(&data).unwrap());
        // Deltas to other groups' local parities are all-zero: the write
        // path may broadcast uniformly without corrupting them.
        for j in 0..lrc.g() {
            let d = lrc.code().delta(j, 4, &new_block, &old).unwrap();
            if lrc.group_of(4) != j {
                assert!(d.iter().all(|&b| b == 0), "local {j}");
            }
        }
    }
}
