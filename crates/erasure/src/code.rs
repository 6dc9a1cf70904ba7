//! Systematic k-of-n Reed-Solomon codes over GF(2⁸) or GF(2¹⁶) with
//! incremental ("delta") updates — the erasure-code substrate of the AJX
//! protocol.
//!
//! A stripe holds `k` data blocks `b_1..b_k` and `p = n−k` redundant blocks
//! `b_{k+1}..b_n`, where `b_j = Σ_i α_ji · b_i` (§3.3 of the paper). The
//! coefficients come from a Vandermonde-derived systematic generator matrix,
//! so the code is MDS: *any* `k` of the `n` blocks reconstruct the data.
//!
//! The protocol never re-encodes a stripe on a write; it sends each
//! redundant node the increment `α_ji · (v − w)` (Fig. 3/Fig. 5), which this
//! module computes with [`SystematicCode::delta`].
//!
//! §3.3 states all of this over "some finite field, usually GF(2^h)": only
//! the coefficients and the field arithmetic change with `h`. So there is
//! one implementation, [`SystematicCode<F>`], generic over the
//! [`KernelField`] that supplies both; [`ReedSolomon`] (GF(2⁸), stripes up
//! to [`MAX_N`] blocks) and [`WideReedSolomon`] (GF(2¹⁶), up to
//! [`MAX_N_WIDE`]) are its two instantiations. Blocks are plain byte slices
//! of little-endian symbols, so a wide code's block lengths must be even —
//! a partial symbol is rejected with [`CodeError::OddBlockLength`], which a
//! byte code can never return.

use crate::error::CodeError;
use crate::matrix::Matrix;
use ajx_gf::{slice, Field, Gf256, Gf65536, KernelField};

/// Largest stripe width over GF(2⁸): 256 distinct evaluation points.
pub const MAX_N: usize = Gf256::ORDER;

/// Largest stripe width over GF(2¹⁶).
pub const MAX_N_WIDE: usize = Gf65536::ORDER;

/// A systematic k-of-n Reed-Solomon code over GF(2⁸).
///
/// # Example
///
/// ```
/// use ajx_erasure::ReedSolomon;
///
/// # fn main() -> Result<(), ajx_erasure::CodeError> {
/// let rs = ReedSolomon::new(3, 5)?; // 3 data + 2 redundant blocks
/// let data: Vec<Vec<u8>> = vec![vec![1; 16], vec![2; 16], vec![3; 16]];
/// let stripe = rs.encode_stripe(&data)?;
/// // Lose any two blocks — say blocks 0 and 3 — and recover the data:
/// let survivors: Vec<(usize, &[u8])> =
///     vec![(1, &stripe[1][..]), (2, &stripe[2][..]), (4, &stripe[4][..])];
/// let recovered = rs.decode(&survivors)?;
/// assert_eq!(recovered, data);
/// # Ok(())
/// # }
/// ```
pub type ReedSolomon = SystematicCode<Gf256>;

/// A systematic k-of-n Reed-Solomon code over GF(2¹⁶), for the paper's
/// closing vision of disk arrays built from very many cheap adapters:
/// stripes of up to 65 536 blocks, on the same tiered SIMD kernels (per-byte
/// cost within ~1.5× of the byte code, see `EXPERIMENTS.md`).
///
/// # Example
///
/// ```
/// use ajx_erasure::WideReedSolomon;
///
/// # fn main() -> Result<(), ajx_erasure::CodeError> {
/// // A code wider than GF(2^8) allows: 300-of-304.
/// let rs = WideReedSolomon::new(300, 304)?;
/// let data: Vec<Vec<u8>> = (0..300).map(|i| vec![(i % 251) as u8; 8]).collect();
/// let stripe = rs.encode_stripe(&data)?;
/// // Lose four blocks, recover:
/// let shares: Vec<(usize, &[u8])> =
///     (4..304).map(|i| (i, &stripe[i][..])).collect();
/// assert_eq!(rs.decode(&shares[..300])?, data);
/// # Ok(())
/// # }
/// ```
pub type WideReedSolomon = SystematicCode<Gf65536>;

/// A prepared [`WideReedSolomon`] decode for one fixed erasure pattern.
pub type WideDecodePlan = DecodePlan<Gf65536>;

/// A systematic linear k-of-n code whose blocks stream through the
/// `ajx_gf` kernels of field `F` — see [`ReedSolomon`] and
/// [`WideReedSolomon`] for the two instantiations and examples.
#[derive(Clone, Debug)]
pub struct SystematicCode<F: KernelField = Gf256> {
    k: usize,
    n: usize,
    /// `p × k` matrix of redundancy coefficients: `red[(j, i)] = α_{k+j, i}`.
    red: Matrix<F>,
    /// The same coefficients as raw symbols: `red_syms[j][i] = α_{k+j, i}`.
    /// Precomputed at construction so encode hands them straight to the
    /// weighted sum ([`KernelField::combine`]) without building anything
    /// per call. (GF(2⁸) multipliers are compile-time constants in
    /// `ajx_gf::kernel`; GF(2¹⁶) split-nibble tables are built inside the
    /// kernels and amortized over each block.)
    red_syms: Vec<Vec<F::Symbol>>,
}

impl<F: KernelField> SystematicCode<F> {
    /// Builds the MDS code with `k` data blocks and `n` total blocks.
    ///
    /// All per-coefficient state the hot paths need exists after this call;
    /// no encode, decode or delta ever allocates a table again.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParams`] unless `1 ≤ k < n ≤ F::ORDER`
    /// ([`MAX_N`] for the byte code, [`MAX_N_WIDE`] for the wide one).
    pub fn new(k: usize, n: usize) -> Result<Self, CodeError> {
        if k == 0 || k >= n || n > F::ORDER {
            return Err(CodeError::InvalidParams { k, n });
        }
        // Systematic construction: with V the n×k Vandermonde matrix on
        // distinct points, G = V · V_top⁻¹ has an identity top block, and
        // any k rows of G remain invertible (product of invertibles), so
        // the code is MDS.
        let v = Matrix::<F>::vandermonde(n, k);
        let top = v.select_rows(&(0..k).collect::<Vec<_>>());
        let top_inv = top
            .inverted()
            .expect("vandermonde on distinct points is invertible");
        let bottom = v.select_rows(&(k..n).collect::<Vec<_>>());
        Self::from_parity(k, bottom.mul(&top_inv))
    }

    /// Builds a systematic linear code directly from a `p × k` parity
    /// matrix (`p = red.rows()`, so `n = k + p`).
    ///
    /// Unlike [`SystematicCode::new`], the resulting code is only MDS if the
    /// caller's parity matrix is superregular; the pyramid LRC construction
    /// in [`crate::Lrc`] deliberately passes a *non*-MDS parity (local
    /// parity rows are zero outside their group), relying on
    /// [`SystematicCode::plan_decode`] returning [`CodeError::NotDecodable`]
    /// for share sets that do not determine the data.
    pub(crate) fn from_parity(k: usize, red: Matrix<F>) -> Result<Self, CodeError> {
        let p = red.rows();
        let n = k + p;
        if k == 0 || p == 0 || n > F::ORDER || red.cols() != k {
            return Err(CodeError::InvalidParams { k, n });
        }
        let red_syms = symbols(&red);
        Ok(SystematicCode {
            k,
            n,
            red,
            red_syms,
        })
    }

    /// Number of data blocks per stripe.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total number of blocks per stripe.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of redundant blocks per stripe (`p = n − k`).
    pub fn p(&self) -> usize {
        self.n - self.k
    }

    /// The erasure-code coefficient `α_ji` applied to data block `i`
    /// (`0 ≤ i < k`) in redundant block `k + j` (`0 ≤ j < p`).
    ///
    /// # Panics
    ///
    /// Panics if `j ≥ p` or `i ≥ k`.
    pub fn coefficient(&self, j: usize, i: usize) -> F {
        assert!(j < self.p(), "redundant index {j} out of range");
        assert!(i < self.k, "data index {i} out of range");
        self.red[(j, i)]
    }

    /// The generator row of stripe index `idx < n`: a unit vector for data
    /// blocks, the coefficient row for redundant blocks.
    pub(crate) fn generator_row(&self, idx: usize) -> Vec<F> {
        if idx < self.k {
            let mut row = vec![F::ZERO; self.k];
            row[idx] = F::ONE;
            row
        } else {
            self.red.row(idx - self.k).to_vec()
        }
    }

    /// Computes the `p` redundant blocks for `data` (one `Vec` per block).
    ///
    /// # Errors
    ///
    /// [`CodeError::WrongBlockCount`] if `data.len() != k`;
    /// [`CodeError::LengthMismatch`] if the blocks differ in length;
    /// [`CodeError::OddBlockLength`] if that length splits a symbol.
    pub fn encode<B: AsRef<[u8]>>(&self, data: &[B]) -> Result<Vec<Vec<u8>>, CodeError> {
        let len = data.first().map_or(0, |b| b.as_ref().len());
        let mut out = vec![vec![0u8; len]; self.p()];
        let mut views: Vec<&mut [u8]> = out.iter_mut().map(|b| b.as_mut_slice()).collect();
        self.encode_into(data, &mut views)?;
        Ok(out)
    }

    /// [`encode`](SystematicCode::encode) into caller-owned scratch: fills
    /// the `p` pre-sized blocks of `out` with the redundancy for `data`,
    /// performing **no heap allocation**. One weighted sum
    /// ([`KernelField::combine`]) writes each redundant block once, from
    /// the data blocks of its row.
    ///
    /// # Errors
    ///
    /// [`CodeError::WrongBlockCount`] if `data.len() != k` or
    /// `out.len() != p`; [`CodeError::LengthMismatch`] /
    /// [`CodeError::OddBlockLength`] on malformed blocks.
    pub fn encode_into<B: AsRef<[u8]>>(
        &self,
        data: &[B],
        out: &mut [&mut [u8]],
    ) -> Result<(), CodeError> {
        combine_into::<F, B>(&self.red_syms, data, out)
    }

    /// Computes the full stripe: the `k` data blocks followed by the `p`
    /// redundant blocks.
    ///
    /// This clones the data blocks because the returned stripe owns all `n`
    /// blocks. Callers that already own `data` should use
    /// [`SystematicCode::encode_stripe_owned`] (moves the data in, no copy);
    /// callers that only need to *read* a full stripe should use
    /// [`SystematicCode::encode`] and keep borrowing their data blocks.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SystematicCode::encode`].
    pub fn encode_stripe<B: AsRef<[u8]>>(&self, data: &[B]) -> Result<Vec<Vec<u8>>, CodeError> {
        let red = self.encode(data)?;
        let mut stripe: Vec<Vec<u8>> = data.iter().map(|b| b.as_ref().to_vec()).collect();
        stripe.extend(red);
        Ok(stripe)
    }

    /// [`encode_stripe`](SystematicCode::encode_stripe) taking the data
    /// blocks by value: the returned stripe reuses them directly instead of
    /// copying all `k` blocks, so only the `p` redundant blocks are
    /// allocated.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SystematicCode::encode`].
    pub fn encode_stripe_owned(&self, data: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>, CodeError> {
        let red = self.encode(&data)?;
        let mut stripe = data;
        stripe.extend(red);
        Ok(stripe)
    }

    /// Recovers the `k` data blocks from any `k` distinct stripe blocks.
    ///
    /// `shares` pairs each block with its index in the stripe
    /// (`0..k` data, `k..n` redundant). Exactly `k` shares must be given;
    /// callers with more should pick any `k` (the protocol's recovery picks
    /// the consistent set, §3.8).
    ///
    /// # Errors
    ///
    /// [`CodeError::WrongBlockCount`] unless exactly `k` shares are given;
    /// [`CodeError::IndexOutOfRange`] / [`CodeError::DuplicateShare`] on bad
    /// indices; [`CodeError::LengthMismatch`] /
    /// [`CodeError::OddBlockLength`] on malformed blocks.
    pub fn decode(&self, shares: &[(usize, &[u8])]) -> Result<Vec<Vec<u8>>, CodeError> {
        let indices: Vec<usize> = shares.iter().map(|&(idx, _)| idx).collect();
        let plan = self.plan_decode(&indices)?;
        let blocks: Vec<&[u8]> = shares.iter().map(|&(_, b)| b).collect();
        let len = check_equal_lengths::<F, _>(&blocks)?;
        let mut data = vec![vec![0u8; len]; self.k];
        let mut views: Vec<&mut [u8]> = data.iter_mut().map(|b| b.as_mut_slice()).collect();
        plan.decode_into(&blocks, &mut views)?;
        Ok(data)
    }

    /// Precomputes everything needed to decode from the given set of share
    /// indices: validates the set, inverts the k×k system **once**, and
    /// stores the inverse column-major. Recovery decodes the same erasure
    /// pattern for every stripe on a failed node, so hoisting the inversion
    /// out of the per-stripe loop — and pairing the plan with
    /// [`DecodePlan::decode_into`], or memoizing it through
    /// [`crate::PlanCache`] — makes the per-stripe cost pure kernel
    /// streaming with no allocation.
    ///
    /// # Errors
    ///
    /// [`CodeError::WrongBlockCount`] unless exactly `k` indices are given;
    /// [`CodeError::IndexOutOfRange`] / [`CodeError::DuplicateShare`] on bad
    /// indices; [`CodeError::NotDecodable`] if the shares do not determine
    /// the data (never for an MDS code).
    pub fn plan_decode(&self, indices: &[usize]) -> Result<DecodePlan<F>, CodeError> {
        check_count(self.k, indices.len())?;
        let mut seen = vec![false; self.n];
        for &idx in indices {
            if idx >= self.n {
                return Err(CodeError::IndexOutOfRange { index: idx, n: self.n });
            }
            if seen[idx] {
                return Err(CodeError::DuplicateShare { index: idx });
            }
            seen[idx] = true;
        }
        let rows = indices.iter().map(|&idx| self.generator_row(idx)).collect();
        let inv = Matrix::from_rows(rows)
            .inverted()
            .ok_or(CodeError::NotDecodable)?;
        // Row i of the inverse weighs each share in data block i — exactly
        // the coefficient row the weighted sum wants.
        Ok(DecodePlan {
            indices: indices.to_vec(),
            inv_syms: symbols(&inv),
        })
    }

    /// Recovers the **entire stripe** (all `n` blocks) from any `k` shares:
    /// decode the data, then re-encode the redundancy. This is what the
    /// recovery procedure's `erasure_decode` (Fig. 6 line 21) needs, since
    /// it rewrites every storage node.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SystematicCode::decode`].
    pub fn reconstruct_stripe(&self, shares: &[(usize, &[u8])]) -> Result<Vec<Vec<u8>>, CodeError> {
        let data = self.decode(shares)?;
        self.encode_stripe_owned(data)
    }

    /// The increment a client sends redundant node `k + j` when data block
    /// `i` changes from `old` to `new`: `α_ji · (new − old)` (Fig. 5
    /// line 10). The redundant node simply XORs this into its block.
    ///
    /// # Errors
    ///
    /// As [`SystematicCode::delta_into_buf`].
    ///
    /// # Panics
    ///
    /// Panics if `j ≥ p` or `i ≥ k`.
    pub fn delta(&self, j: usize, i: usize, new: &[u8], old: &[u8]) -> Result<Vec<u8>, CodeError> {
        let mut out = vec![0u8; new.len()];
        self.delta_into_buf(j, i, new, old, &mut out)?;
        Ok(out)
    }

    /// [`delta`](SystematicCode::delta) into a caller-owned buffer — the
    /// allocation-free form for clients that update many redundant nodes per
    /// write and reuse one scratch block.
    ///
    /// # Errors
    ///
    /// [`CodeError::LengthMismatch`] if `new`, `old` and `out` are not all
    /// the same length; [`CodeError::OddBlockLength`] if that length splits
    /// a symbol.
    ///
    /// # Panics
    ///
    /// Panics if `j ≥ p` or `i ≥ k`.
    pub fn delta_into_buf(
        &self,
        j: usize,
        i: usize,
        new: &[u8],
        old: &[u8],
        out: &mut [u8],
    ) -> Result<(), CodeError> {
        if out.len() != new.len() {
            return Err(CodeError::LengthMismatch);
        }
        check_equal_lengths::<F, _>(&[new, old])?;
        F::delta_into(out, self.coefficient(j, i).symbol(), new, old);
        Ok(())
    }

    /// The *broadcast* form of the increment (§3.11): the client sends the
    /// plain difference `new − old` once, and each redundant node multiplies
    /// by its own `α_ji` before adding. Returns the difference block.
    ///
    /// # Errors
    ///
    /// [`CodeError::LengthMismatch`] if `new` and `old` differ in length;
    /// [`CodeError::OddBlockLength`] if that length splits a symbol.
    pub fn broadcast_delta(&self, new: &[u8], old: &[u8]) -> Result<Vec<u8>, CodeError> {
        check_equal_lengths::<F, _>(&[new, old])?;
        let mut out = new.to_vec();
        slice::add_assign(&mut out, old);
        Ok(out)
    }

    /// Applies a received broadcast difference at redundant node `k + j` for
    /// a write to data block `i`: computes `α_ji · diff` (the node-side
    /// multiply of §3.11).
    ///
    /// # Panics
    ///
    /// As [`SystematicCode::scale_in_place`].
    pub fn scale_broadcast_delta(&self, j: usize, i: usize, diff: &[u8]) -> Vec<u8> {
        let mut out = diff.to_vec();
        self.scale_in_place(j, i, &mut out);
        out
    }

    /// The in-place form of [`scale_broadcast_delta`]: scales an
    /// **owned** broadcast difference by `α_ji` without copying it first —
    /// what a storage node does to the delta it just received.
    ///
    /// [`scale_broadcast_delta`]: SystematicCode::scale_broadcast_delta
    ///
    /// # Panics
    ///
    /// Panics if `j ≥ p` or `i ≥ k`, or if `diff` ends in a partial symbol
    /// (impossible for a difference [`SystematicCode::broadcast_delta`]
    /// returned).
    pub fn scale_in_place(&self, j: usize, i: usize, diff: &mut [u8]) {
        F::mul_assign(diff, self.coefficient(j, i).symbol());
    }

    /// Checks that a full stripe is consistent with the code (redundant
    /// blocks equal the encoding of the data blocks). Used pervasively in
    /// tests; a real system cannot afford this check per access, which is
    /// exactly why the paper needs `recentlist` bookkeeping (§3.8).
    ///
    /// # Errors
    ///
    /// [`CodeError::WrongBlockCount`] / [`CodeError::LengthMismatch`] /
    /// [`CodeError::OddBlockLength`] on a malformed stripe.
    pub fn verify_stripe<B: AsRef<[u8]>>(&self, stripe: &[B]) -> Result<bool, CodeError> {
        check_count(self.n, stripe.len())?;
        check_equal_lengths::<F, _>(stripe)?;
        let red = self.encode(&stripe[..self.k])?;
        Ok(red
            .iter()
            .zip(&stripe[self.k..])
            .all(|(a, b)| a.as_slice() == b.as_ref()))
    }
}

/// A prepared decode for one fixed erasure pattern: the k×k inverse is
/// computed once by [`SystematicCode::plan_decode`] and reused across
/// stripes. Applying it is one weighted sum ([`KernelField::combine`]): a
/// data block that survives is a unit row of the inverse, so decoding it is
/// a copy, and each lost block is written once from its row's shares.
///
/// # Example
///
/// ```
/// use ajx_erasure::ReedSolomon;
///
/// # fn main() -> Result<(), ajx_erasure::CodeError> {
/// let rs = ReedSolomon::new(2, 4)?;
/// let stripe = rs.encode_stripe(&[vec![7u8; 8], vec![9u8; 8]])?;
/// // Blocks 0 and 2 survive; decode every stripe with one plan.
/// let plan = rs.plan_decode(&[0, 2])?;
/// let mut out = vec![vec![0u8; 8]; 2];
/// let mut views: Vec<&mut [u8]> = out.iter_mut().map(|b| b.as_mut_slice()).collect();
/// plan.decode_into(&[&stripe[0], &stripe[2]], &mut views)?;
/// assert_eq!(out[0], vec![7u8; 8]);
/// assert_eq!(out[1], vec![9u8; 8]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct DecodePlan<F: KernelField = Gf256> {
    indices: Vec<usize>,
    /// The k×k inverse as raw symbols: `inv_syms[i][s]` is the weight of
    /// share `s` in output data block `i` — one ready-made coefficient row
    /// per data block for the weighted sum.
    inv_syms: Vec<Vec<F::Symbol>>,
}

impl<F: KernelField> DecodePlan<F> {
    /// The share indices this plan decodes from, in the order `decode_into`
    /// expects the share blocks.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Decodes `shares` (blocks in [`indices`](DecodePlan::indices) order)
    /// into the `k` pre-sized blocks of `out`, performing **no heap
    /// allocation**: each output is written once, a surviving data block by
    /// a copy and a lost one from the shares its inverse row weighs.
    ///
    /// # Errors
    ///
    /// [`CodeError::WrongBlockCount`] on wrong share/output counts;
    /// [`CodeError::LengthMismatch`] / [`CodeError::OddBlockLength`] on
    /// malformed blocks.
    pub fn decode_into(&self, shares: &[&[u8]], out: &mut [&mut [u8]]) -> Result<(), CodeError> {
        combine_into::<F, _>(&self.inv_syms, shares, out)
    }

    /// Decodes **one** data block `i` into `out` — the degraded-read form:
    /// a client that only needs the failed node's block pays one output
    /// row's weighted sum instead of materializing all `k` data blocks.
    ///
    /// `shares` are blocks in [`indices`](DecodePlan::indices) order, as
    /// for [`decode_into`](DecodePlan::decode_into).
    ///
    /// # Errors
    ///
    /// [`CodeError::IndexOutOfRange`] if `i` is not a data index;
    /// [`CodeError::WrongBlockCount`] on a wrong share count;
    /// [`CodeError::LengthMismatch`] / [`CodeError::OddBlockLength`] on
    /// malformed blocks.
    pub fn reconstruct_one_into(
        &self,
        i: usize,
        shares: &[&[u8]],
        out: &mut [u8],
    ) -> Result<(), CodeError> {
        let k = self.inv_syms.len();
        if i >= k {
            return Err(CodeError::IndexOutOfRange { index: i, n: k });
        }
        combine_into::<F, _>(&self.inv_syms[i..=i], shares, &mut [out])
    }
}

/// `m` as raw symbols, row by row: `symbols(m)[r][c] = m[(r, c)]`.
fn symbols<F: KernelField>(m: &Matrix<F>) -> Vec<Vec<F::Symbol>> {
    (0..m.rows())
        .map(|r| m.row(r).iter().map(|x| x.symbol()).collect())
        .collect()
}

/// The one weighted sum behind encode and decode, checked:
/// `out[r] = Σ_s rows[r][s] · srcs[s]`, no allocation. Every row has one
/// weight per source.
fn combine_into<F: KernelField, B: AsRef<[u8]>>(
    rows: &[Vec<F::Symbol>],
    srcs: &[B],
    out: &mut [&mut [u8]],
) -> Result<(), CodeError> {
    check_count(rows.first().map_or(0, Vec::len), srcs.len())?;
    check_count(rows.len(), out.len())?;
    let len = check_equal_lengths::<F, B>(srcs)?;
    if out.iter().any(|o| o.len() != len) {
        return Err(CodeError::LengthMismatch);
    }
    F::combine(out, rows, srcs);
    Ok(())
}

fn check_count(expected: usize, got: usize) -> Result<(), CodeError> {
    if expected == got {
        Ok(())
    } else {
        Err(CodeError::WrongBlockCount { expected, got })
    }
}

/// Common length of `blocks`, which must be equal and a whole number of
/// `F` symbols (always true of one-byte symbols).
fn check_equal_lengths<F: KernelField, B: AsRef<[u8]>>(blocks: &[B]) -> Result<usize, CodeError> {
    let len = blocks.first().map_or(0, |b| b.as_ref().len());
    if blocks.iter().any(|b| b.as_ref().len() != len) {
        return Err(CodeError::LengthMismatch);
    }
    if !len.is_multiple_of(F::SYMBOL_BYTES) {
        return Err(CodeError::OddBlockLength { len });
    }
    Ok(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearCode;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_data(rng: &mut StdRng, k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|_| (0..len).map(|_| rng.random()).collect())
            .collect()
    }

    fn views(blocks: &mut [Vec<u8>]) -> Vec<&mut [u8]> {
        blocks.iter_mut().map(|b| b.as_mut_slice()).collect()
    }

    fn blocks_at<'a>(stripe: &'a [Vec<u8>], idx: &[usize]) -> Vec<&'a [u8]> {
        idx.iter().map(|&i| &stripe[i][..]).collect()
    }

    fn shares_at<'a>(stripe: &'a [Vec<u8>], idx: &[usize]) -> Vec<(usize, &'a [u8])> {
        idx.iter().map(|&i| (i, &stripe[i][..])).collect()
    }

    /// `(seed, k, n − k, block length in symbols)` of one random case.
    type Params = (u64, usize, usize, usize);

    fn params() -> impl Strategy<Value = Params> {
        (any::<u64>(), 1usize..6, 1usize..5, 1usize..40)
    }

    /// A random code with one encoded stripe of random data.
    struct Case<F: KernelField> {
        code: SystematicCode<F>,
        len: usize,
        data: Vec<Vec<u8>>,
        stripe: Vec<Vec<u8>>,
        rng: StdRng,
    }

    impl<F: KernelField> Case<F> {
        fn new((seed, k, extra, symbols): Params) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            let code = SystematicCode::<F>::new(k, k + extra).unwrap();
            let len = symbols * F::SYMBOL_BYTES;
            let data = random_data(&mut rng, k, len);
            let stripe = code.encode_stripe(&data).unwrap();
            Case { code, len, data, stripe, rng }
        }

        fn block(&mut self) -> Vec<u8> {
            random_data(&mut self.rng, 1, self.len).remove(0)
        }

        /// A random `k`-subset of the stripe indices, in random order.
        fn subset(&mut self) -> Vec<usize> {
            let mut idx: Vec<usize> = (0..self.code.n()).collect();
            for i in (1..idx.len()).rev() {
                idx.swap(i, self.rng.random_range(0..=i));
            }
            idx.truncate(self.code.k());
            idx
        }
    }

    /// The laws of a systematic code, stated once over the field and
    /// instantiated for every [`KernelField`] by `laws_for!` below.
    mod laws {
        use super::*;

        pub fn encode_matches_linear_oracle<F: KernelField>(p: Params) {
            // The symbol-at-a-time `LinearCode` over the same coefficients
            // is the reference the kernel-streaming encode must agree with.
            let c = Case::<F>::new(p);
            let symbols = |b: &Vec<u8>| -> Vec<F> {
                b.chunks_exact(F::SYMBOL_BYTES)
                    .map(|s| F::from_u64(s.iter().rev().fold(0, |v, &x| v << 8 | x as u64)))
                    .collect()
            };
            let bytes = |b: &Vec<F>| -> Vec<u8> {
                b.iter()
                    .flat_map(|s| s.to_u64().to_le_bytes().into_iter().take(F::SYMBOL_BYTES))
                    .collect()
            };
            let oracle = LinearCode::from_coefficients(c.code.red.clone()).unwrap();
            let words: Vec<Vec<F>> = c.data.iter().map(symbols).collect();
            let want: Vec<Vec<u8>> = oracle.encode(&words).unwrap().iter().map(bytes).collect();

            // encode_into overwrites whatever its scratch held.
            let mut scratch = vec![vec![0xEEu8; c.len]; c.code.p()];
            c.code.encode_into(&c.data, &mut views(&mut scratch)).unwrap();
            assert_eq!(scratch, want);
            assert_eq!(c.code.encode(&c.data).unwrap(), want);
            assert_eq!(c.stripe, [c.data.clone(), want].concat());
            assert_eq!(c.code.encode_stripe_owned(c.data.clone()).unwrap(), c.stripe);
        }

        pub fn decodes_from_a_random_k_subset<F: KernelField>(p: Params) {
            let mut c = Case::<F>::new(p);
            let idx = c.subset();
            assert_eq!(c.code.decode(&shares_at(&c.stripe, &idx)).unwrap(), c.data);
            // One plan serves every stripe that lost the same blocks.
            let plan = c.code.plan_decode(&idx).unwrap();
            assert_eq!(plan.indices(), idx);
            let other = random_data(&mut c.rng, c.code.k(), c.len);
            let other_stripe = c.code.encode_stripe(&other).unwrap();
            let mut out = vec![vec![0xEEu8; c.len]; c.code.k()];
            for (stripe, data) in [(&c.stripe, &c.data), (&other_stripe, &other)] {
                plan.decode_into(&blocks_at(stripe, &idx), &mut views(&mut out)).unwrap();
                assert_eq!(&out, data);
            }
        }

        pub fn delta_is_difference_of_reencodes<F: KernelField>(p: Params) {
            // The algebraic fact behind the lock-free write (Fig. 3): swap
            // block i, add α·(v−w) at every redundant node, and the stripe
            // equals a fresh encoding of the new data — write after write.
            let mut c = Case::<F>::new(p);
            let k = c.code.k();
            let mut buf = vec![0xEEu8; c.len];
            for _ in 0..3 {
                let i = c.rng.random_range(0..k);
                let new = c.block();
                let old = std::mem::replace(&mut c.data[i], new.clone());
                let reencoded = c.code.encode_stripe(&c.data).unwrap();
                c.stripe[i] = new.clone();
                for j in 0..c.code.p() {
                    c.code.delta_into_buf(j, i, &new, &old, &mut buf).unwrap();
                    assert_eq!(buf, c.code.delta(j, i, &new, &old).unwrap());
                    slice::add_assign(&mut c.stripe[k + j], &buf);
                }
                assert_eq!(c.stripe, reencoded);
            }
        }

        pub fn concurrent_deltas_commute<F: KernelField>((seed, k, extra, symbols): Params) {
            // Fig. 3(C): two clients update different blocks concurrently;
            // their adds interleave differently at each redundant node, yet
            // the stripe converges.
            let mut c = Case::<F>::new((seed, k + 1, extra, symbols));
            let k = c.code.k();
            let writes = [(0, c.block()), (c.rng.random_range(1..k), c.block())];
            // Per redundant node, the two clients' deltas.
            let deltas: Vec<Vec<Vec<u8>>> = (0..c.code.p())
                .map(|j| {
                    let delta = |(i, new): &(usize, Vec<u8>)| c.code.delta(j, *i, new, &c.data[*i]);
                    writes.iter().map(|w| delta(w).unwrap()).collect()
                })
                .collect();
            for (i, new) in writes {
                c.stripe[i] = new.clone();
                c.data[i] = new;
            }
            for (j, (node, pair)) in c.stripe[k..].iter_mut().zip(&deltas).enumerate() {
                // Even nodes see client 0 first, odd nodes client 1.
                slice::add_assign(node, &pair[j % 2]);
                slice::add_assign(node, &pair[1 - j % 2]);
            }
            assert_eq!(c.stripe, c.code.encode_stripe(&c.data).unwrap());
        }

        pub fn reconstruct_one_matches_decode<F: KernelField>(p: Params) {
            let mut c = Case::<F>::new(p);
            let idx = c.subset();
            let plan = c.code.plan_decode(&idx).unwrap();
            let shares = blocks_at(&c.stripe, &idx);
            let mut all = vec![vec![0u8; c.len]; c.code.k()];
            plan.decode_into(&shares, &mut views(&mut all)).unwrap();
            let mut one = vec![0xEEu8; c.len];
            for (i, want) in all.iter().enumerate() {
                plan.reconstruct_one_into(i, &shares, &mut one).unwrap();
                assert_eq!(&one, want, "block {i}");
            }
        }

        pub fn verify_accepts_encoded_and_rejects_a_flip<F: KernelField>(p: Params) {
            let mut c = Case::<F>::new(p);
            assert!(c.code.verify_stripe(&c.stripe).unwrap());
            let (block, byte) = (c.rng.random_range(0..c.code.n()), c.rng.random_range(0..c.len));
            c.stripe[block][byte] ^= 1;
            assert!(!c.code.verify_stripe(&c.stripe).unwrap());
        }

        pub fn scaled_broadcast_equals_delta<F: KernelField>(p: Params) {
            let mut c = Case::<F>::new(p);
            let (new, old) = (c.block(), c.block());
            let i = c.rng.random_range(0..c.code.k());
            let diff = c.code.broadcast_delta(&new, &old).unwrap();
            for j in 0..c.code.p() {
                let want = c.code.delta(j, i, &new, &old).unwrap();
                assert_eq!(c.code.scale_broadcast_delta(j, i, &diff), want, "node {j}");
                let mut owned = diff.clone();
                c.code.scale_in_place(j, i, &mut owned);
                assert_eq!(owned, want, "node {j}");
            }
        }

        pub fn reconstruct_stripe_equals_encode_stripe<F: KernelField>(p: Params) {
            let mut c = Case::<F>::new(p);
            let idx = c.subset();
            let rebuilt = c.code.reconstruct_stripe(&shares_at(&c.stripe, &idx)).unwrap();
            assert_eq!(rebuilt, c.stripe);
        }

        pub fn rejects_invalid_params<F: KernelField>() {
            for (k, n) in [(0, 4), (4, 4), (5, 4), (2, F::ORDER + 1)] {
                let built = SystematicCode::<F>::new(k, n);
                assert!(matches!(built, Err(CodeError::InvalidParams { .. })), "({k}, {n})");
            }
            assert!(SystematicCode::<F>::new(1, 2).is_ok());
        }

        pub fn decodes_from_every_k_subset_in_any_order<F: KernelField>() {
            let c = Case::<F>::new((2, 3, 3, 16));
            // All C(6,3) = 20 subsets must decode.
            for a in 0..6 {
                for b in (a + 1)..6 {
                    for d in (b + 1)..6 {
                        for idx in [[a, b, d], [d, a, b]] {
                            let got = c.code.decode(&shares_at(&c.stripe, &idx)).unwrap();
                            assert_eq!(got, c.data, "subset {idx:?}");
                        }
                    }
                }
            }
        }

        pub fn decodes_from_redundancy_alone<F: KernelField>() {
            // The largest code used in the paper's simulations (§6.6), with
            // all 16 data blocks dropped.
            let c = Case::<F>::new((7, 16, 16, 64));
            let idx: Vec<usize> = (16..32).collect();
            assert_eq!(c.code.decode(&shares_at(&c.stripe, &idx)).unwrap(), c.data);
        }

        pub fn empty_blocks_are_legal<F: KernelField>() {
            let c = Case::<F>::new((0, 2, 2, 0));
            assert!(c.stripe.iter().all(Vec::is_empty));
            let got = c.code.decode(&shares_at(&c.stripe, &[2, 3])).unwrap();
            assert_eq!(got, vec![vec![0u8; 0]; 2]);
        }

        pub fn rejects_bad_share_sets<F: KernelField>() {
            let code = SystematicCode::<F>::new(2, 4).unwrap();
            let b = [0u8; 8];
            for (idx, want) in [
                (&[0][..], CodeError::WrongBlockCount { expected: 2, got: 1 }),
                (&[0, 0][..], CodeError::DuplicateShare { index: 0 }),
                (&[0, 9][..], CodeError::IndexOutOfRange { index: 9, n: 4 }),
            ] {
                assert_eq!(code.plan_decode(idx).unwrap_err(), want);
                let shares: Vec<(usize, &[u8])> = idx.iter().map(|&i| (i, &b[..])).collect();
                assert_eq!(code.decode(&shares).unwrap_err(), want);
            }
            let ragged = code.decode(&[(0, &b[..]), (1, &b[..4])]);
            assert_eq!(ragged.unwrap_err(), CodeError::LengthMismatch);
        }

        pub fn encode_into_rejects_bad_shapes<F: KernelField>() {
            let c = Case::<F>::new((0, 2, 2, 4));
            let mut short = [vec![0u8; c.len]];
            let got = c.code.encode_into(&c.data, &mut views(&mut short));
            assert_eq!(got.unwrap_err(), CodeError::WrongBlockCount { expected: 2, got: 1 });
            let mut ragged = [vec![0u8; c.len], vec![0u8; c.len + F::SYMBOL_BYTES]];
            let got = c.code.encode_into(&c.data, &mut views(&mut ragged));
            assert_eq!(got.unwrap_err(), CodeError::LengthMismatch);
        }

        pub fn reconstruct_one_into_rejects_bad_shapes<F: KernelField>() {
            let c = Case::<F>::new((0, 2, 2, 4));
            let plan = c.code.plan_decode(&[1, 2]).unwrap();
            let (b, mut out) = (vec![0u8; c.len], vec![0u8; c.len]);
            let half = c.len / 2;
            for (i, shares, out_len, want) in [
                (2, &[&b[..], &b[..]][..], c.len, CodeError::IndexOutOfRange { index: 2, n: 2 }),
                (0, &[&b[..]][..], c.len, CodeError::WrongBlockCount { expected: 2, got: 1 }),
                (0, &[&b[..], &b[..half]][..], c.len, CodeError::LengthMismatch),
                (0, &[&b[..], &b[..]][..], half, CodeError::LengthMismatch),
            ] {
                let got = plan.reconstruct_one_into(i, shares, &mut out[..out_len]);
                assert_eq!(got.unwrap_err(), want);
            }
        }

        pub fn delta_and_verify_reject_bad_shapes<F: KernelField>() {
            let c = Case::<F>::new((0, 2, 2, 4));
            let (b, mut out) = (vec![0u8; c.len], vec![0u8; c.len / 2]);
            let got = c.code.delta_into_buf(0, 0, &b, &b, &mut out);
            assert_eq!(got.unwrap_err(), CodeError::LengthMismatch);
            assert_eq!(c.code.delta(0, 0, &b, &out).unwrap_err(), CodeError::LengthMismatch);
            assert_eq!(c.code.broadcast_delta(&b, &out).unwrap_err(), CodeError::LengthMismatch);
            let got = c.code.verify_stripe(&c.stripe[..3]);
            assert_eq!(got.unwrap_err(), CodeError::WrongBlockCount { expected: 4, got: 3 });
        }
    }

    macro_rules! laws_for {
        ($module:ident, $field:ty) => {
            mod $module {
                use super::*;

                laws_for!(@props $field:
                    encode_matches_linear_oracle,
                    decodes_from_a_random_k_subset,
                    delta_is_difference_of_reencodes,
                    concurrent_deltas_commute,
                    reconstruct_one_matches_decode,
                    verify_accepts_encoded_and_rejects_a_flip,
                    scaled_broadcast_equals_delta,
                    reconstruct_stripe_equals_encode_stripe,
                );
                laws_for!(@units $field:
                    rejects_invalid_params,
                    decodes_from_every_k_subset_in_any_order,
                    decodes_from_redundancy_alone,
                    empty_blocks_are_legal,
                    rejects_bad_share_sets,
                    encode_into_rejects_bad_shapes,
                    reconstruct_one_into_rejects_bad_shapes,
                    delta_and_verify_reject_bad_shapes,
                );
            }
        };
        (@props $field:ty: $($law:ident),+ $(,)?) => {
            proptest! {
                #![proptest_config(ProptestConfig::with_cases(48))]
                $(#[test] fn $law(p in params()) { laws::$law::<$field>(p) })+
            }
        };
        (@units $field:ty: $($law:ident),+ $(,)?) => {
            $(#[test] fn $law() { laws::$law::<$field>() })+
        };
    }

    laws_for!(gf256, Gf256);
    laws_for!(gf65536, Gf65536);

    // ---- wide-only cases with no byte analogue ----

    #[test]
    fn wide_roundtrip_beyond_gf256_limit() {
        // n = 300 is impossible over GF(2^8); works over GF(2^16).
        assert!(ReedSolomon::new(296, 300).is_err());
        let c = Case::<Gf65536>::new((1, 296, 4, 8));
        // Lose 4 arbitrary blocks (two data, two redundant).
        let idx: Vec<usize> = (0..300).filter(|i| ![5, 77, 297, 299].contains(i)).collect();
        assert_eq!(c.code.decode(&shares_at(&c.stripe, &idx)).unwrap(), c.data);
    }

    #[test]
    fn wide_rejects_odd_lengths_on_every_entry_point() {
        let rs = WideReedSolomon::new(2, 4).unwrap();
        let odd = CodeError::OddBlockLength { len: 5 };
        let b = vec![0u8; 5];
        let pair = [b.clone(), b.clone()];
        let mut two = pair.clone();
        let stripe = [b.clone(), b.clone(), b.clone(), b.clone()];
        let shares = [(0, &b[..]), (1, &b[..])];
        let plan = rs.plan_decode(&[0, 1]).unwrap();

        assert_eq!(rs.encode(&pair).unwrap_err(), odd);
        assert_eq!(rs.encode_into(&pair, &mut views(&mut two)).unwrap_err(), odd);
        assert_eq!(rs.encode_stripe(&pair).unwrap_err(), odd);
        assert_eq!(rs.encode_stripe_owned(pair.to_vec()).unwrap_err(), odd);
        assert_eq!(rs.decode(&shares).unwrap_err(), odd);
        assert_eq!(rs.reconstruct_stripe(&shares).unwrap_err(), odd);
        assert_eq!(plan.decode_into(&[&b, &b], &mut views(&mut two)).unwrap_err(), odd);
        assert_eq!(plan.reconstruct_one_into(0, &[&b, &b], &mut two[0]).unwrap_err(), odd);
        assert_eq!(rs.delta(0, 0, &b, &b).unwrap_err(), odd);
        assert_eq!(rs.delta_into_buf(0, 0, &b, &b, &mut two[0]).unwrap_err(), odd);
        assert_eq!(rs.broadcast_delta(&b, &b).unwrap_err(), odd);
        assert_eq!(rs.verify_stripe(&stripe).unwrap_err(), odd);
        // The byte code takes the same lengths in its stride.
        assert!(ReedSolomon::new(2, 4).unwrap().verify_stripe(&stripe).unwrap());
    }

    #[test]
    fn wide_and_byte_codes_agree_on_small_params() {
        // Different fields, same contract: the same data survives the same
        // erasures in both, though the redundant bytes differ.
        let byte = Case::<Gf256>::new((3, 2, 3, 10));
        let wide = Case::<Gf65536>::new((3, 2, 3, 5));
        assert_eq!(byte.data, wide.data);
        assert_ne!(byte.stripe, wide.stripe);
        for a in 0..5 {
            for b in (a + 1)..5 {
                let got = byte.code.decode(&shares_at(&byte.stripe, &[a, b])).unwrap();
                assert_eq!(got, wide.code.decode(&shares_at(&wide.stripe, &[a, b])).unwrap());
                assert_eq!(got, byte.data, "pair {a},{b}");
            }
        }
    }
}
