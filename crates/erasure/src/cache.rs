//! A concurrency-safe cache of [`DecodePlan`]s and [`RepairPlan`]s keyed
//! by code family and index pattern.
//!
//! Recovery and rebuild decode the *same erasure pattern* over and over:
//! with one failed node and rotated placement, a full-node rebuild cycles
//! through exactly `n` distinct surviving-index sets, yet the naive path
//! re-runs the k×k Vandermonde inversion for every stripe. The cache turns
//! that into one inversion per pattern for the lifetime of the
//! configuration, with all subsequent stripes paying only a map lookup.
//!
//! Keys pair the index pattern with the code's [`FamilyKey`], so one cache
//! may serve clusters of different code families — and a plan computed for
//! an LRC can never be served for a Reed-Solomon stripe of the same
//! `(k, n)` shape (their generator matrices differ).

use crate::code::{DecodePlan, WideDecodePlan, WideReedSolomon};
use crate::error::CodeError;
use crate::family::{CodeFamily, FamilyKey, RepairPlan};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A shared, thread-safe memo of [`ReedSolomon::plan_decode`] results and
/// of [`CodeFamily::repair_plan`] results.
///
/// Decode plans are keyed by the index slice *as given*: callers should
/// pass indices in a canonical (sorted) order to maximize sharing — the
/// protocol's `find_consistent` already returns sorted sets.
///
/// [`ReedSolomon::plan_decode`]: crate::ReedSolomon::plan_decode
///
/// # Example
///
/// ```
/// use ajx_erasure::{CodeFamily, PlanCache};
///
/// # fn main() -> Result<(), ajx_erasure::CodeError> {
/// let rs = CodeFamily::rs(2, 4)?;
/// let cache = PlanCache::new();
/// let a = cache.plan(&rs, &[1, 3])?;
/// let b = cache.plan(&rs, &[1, 3])?;
/// assert!(std::sync::Arc::ptr_eq(&a, &b), "second lookup is a cache hit");
/// assert_eq!(cache.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct PlanCache {
    plans: Memo<FamilyKey, DecodePlan>,
    /// Single-block repairs, per `(family, lost index)`.
    repairs: Memo<(FamilyKey, usize), RepairPlan>,
    /// Wide-code plans, under [`FamilyKey::Wide`]. Their own map only
    /// because [`WideDecodePlan`] is a different type (`u16` columns).
    wide: Memo<FamilyKey, WideDecodePlan>,
}

/// One memo table: per code (and lost index, for repairs), the values
/// computed so far by index pattern. Two levels so that a lookup borrows
/// the caller's `&[usize]` instead of building an owned key.
type Memo<K, V> = Mutex<HashMap<K, HashMap<Vec<usize>, Arc<V>>>>;

fn lock<T>(memo: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panic while holding the lock can only happen outside any mutation
    // (the maps are only read and inserted into), so a poisoned cache is
    // still structurally sound.
    memo.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The value memoized under `(key, indices)`, computed and inserted on
/// first use. A hit allocates nothing. `compute` runs *outside* the lock,
/// so a slow first computation never stalls lookups of other patterns; if
/// two threads race on the same fresh pattern, one result wins and both
/// callers share it. Errors are returned, not cached.
fn get_or_compute<K: Copy + Eq + Hash, V, E>(
    memo: &Memo<K, V>,
    key: K,
    indices: &[usize],
    compute: impl FnOnce() -> Result<V, E>,
) -> Result<Arc<V>, E> {
    if let Some(hit) = lock(memo).get(&key).and_then(|m| m.get(indices)) {
        return Ok(Arc::clone(hit));
    }
    let fresh = Arc::new(compute()?);
    let mut guard = lock(memo);
    let slot = guard.entry(key).or_default().entry(indices.to_vec());
    Ok(Arc::clone(slot.or_insert(fresh)))
}

fn entries<K, V>(memo: &Memo<K, V>) -> usize {
    lock(memo).values().map(HashMap::len).sum()
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// The plan for decoding `code` from `indices`, computing and caching
    /// it on first use (outside the cache lock; a hit allocates nothing).
    ///
    /// # Errors
    ///
    /// As [`crate::ReedSolomon::plan_decode`]; errors are not cached.
    pub fn plan(
        &self,
        code: &CodeFamily,
        indices: &[usize],
    ) -> Result<Arc<DecodePlan>, CodeError> {
        get_or_compute(&self.plans, code.family_key(), indices, || {
            code.plan_decode(indices)
        })
    }

    /// The cheapest repair of stripe index `lost` from `available`
    /// (see [`CodeFamily::repair_plan`]), memoized per `(family, lost,
    /// available)` triple. Returns `None` — uncached — when the available
    /// blocks cannot reconstruct the lost one.
    ///
    /// Callers should pass `available` sorted; a full-node rebuild asks
    /// for the same handful of patterns across millions of stripes.
    pub fn repair(
        &self,
        code: &CodeFamily,
        lost: usize,
        available: &[usize],
    ) -> Option<Arc<RepairPlan>> {
        get_or_compute(&self.repairs, (code.family_key(), lost), available, || {
            code.repair_plan(lost, available).ok_or(())
        })
        .ok()
    }

    /// [`PlanCache::plan`] for a wide (GF(2¹⁶)) code. Keyed under
    /// [`FamilyKey::Wide`] in a map of its own, so a wide plan can never
    /// collide with a byte-code plan of the same `(k, n)` shape.
    ///
    /// # Errors
    ///
    /// As [`WideReedSolomon::plan_decode`]; errors are not cached.
    pub fn plan_wide(
        &self,
        code: &WideReedSolomon,
        indices: &[usize],
    ) -> Result<Arc<WideDecodePlan>, CodeError> {
        let family = FamilyKey::Wide {
            k: code.k(),
            n: code.n(),
        };
        get_or_compute(&self.wide, family, indices, || code.plan_decode(indices))
    }

    /// Number of cached wide-code decode patterns.
    pub fn wide_len(&self) -> usize {
        entries(&self.wide)
    }

    /// Number of cached decode patterns (repair memos not included).
    pub fn len(&self) -> usize {
        entries(&self.plans)
    }

    /// Whether the cache holds no decode plans yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached plan (e.g. after reconfiguring the code).
    pub fn clear(&self) {
        lock(&self.plans).clear();
        lock(&self.repairs).clear();
        lock(&self.wide).clear();
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("patterns", &self.len())
            .field("repairs", &entries(&self.repairs))
            .field("wide", &self.wide_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajx_gf::KernelField;

    #[test]
    fn caches_one_plan_per_pattern() {
        let rs = CodeFamily::rs(2, 4).unwrap();
        let cache = PlanCache::new();
        assert!(cache.is_empty());
        let a = cache.plan(&rs, &[0, 2]).unwrap();
        let b = cache.plan(&rs, &[0, 2]).unwrap();
        let c = cache.plan(&rs, &[1, 3]).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn key_is_order_sensitive_by_design() {
        let rs = CodeFamily::rs(2, 4).unwrap();
        let cache = PlanCache::new();
        let fwd = cache.plan(&rs, &[1, 3]).unwrap();
        let rev = cache.plan(&rs, &[3, 1]).unwrap();
        // Different share order = different plan (shares are positional);
        // both decode correctly, they just don't share an entry.
        assert_eq!(cache.len(), 2);
        assert_eq!(fwd.indices(), &[1, 3]);
        assert_eq!(rev.indices(), &[3, 1]);
    }

    #[test]
    fn invalid_patterns_error_and_are_not_cached() {
        let rs = CodeFamily::rs(2, 4).unwrap();
        let cache = PlanCache::new();
        assert!(cache.plan(&rs, &[0]).is_err());
        assert!(cache.plan(&rs, &[0, 0]).is_err());
        assert!(cache.plan(&rs, &[0, 9]).is_err());
        assert!(cache.is_empty());
    }

    #[test]
    fn family_key_separates_equal_shapes() {
        // Regression (ISSUE 9 satellite): RS(12, 16) and LRC(12, 3, 1)
        // share (k, n) and may ask for the *same* survivor pattern. Before
        // the family-aware key, whichever family populated the entry first
        // would serve its inverse to the other — silent data corruption.
        let rs = CodeFamily::rs(12, 16).unwrap();
        let lrc = CodeFamily::lrc(12, 3, 1).unwrap();
        let cache = PlanCache::new();
        // Data 1..11 plus redundant block 12 — decodable in both families
        // (for the LRC, block 12 is group 0's local parity covering the
        // missing data block 0).
        let indices: Vec<usize> = (1..=12).collect();
        let from_rs = cache.plan(&rs, &indices).unwrap();
        let from_lrc = cache.plan(&lrc, &indices).unwrap();
        assert_eq!(cache.len(), 2, "one entry per family");
        assert!(!Arc::ptr_eq(&from_rs, &from_lrc));

        // The two plans genuinely differ: each decodes its own stripe.
        let data: Vec<Vec<u8>> = (0..12).map(|i| vec![i as u8 + 1; 16]).collect();
        for (fam, plan) in [(&rs, &from_rs), (&lrc, &from_lrc)] {
            let stripe = fam.encode_stripe(&data).unwrap();
            let shares: Vec<&[u8]> = indices.iter().map(|&i| &stripe[i][..]).collect();
            let mut out = vec![vec![0u8; 16]; 12];
            let mut views: Vec<&mut [u8]> = out.iter_mut().map(|b| b.as_mut_slice()).collect();
            plan.decode_into(&shares, &mut views).unwrap();
            assert_eq!(out, data);
        }
    }

    #[test]
    fn repair_plans_are_memoized_per_family() {
        let rs = CodeFamily::rs(2, 4).unwrap();
        let cache = PlanCache::new();
        let available = [1usize, 2, 3];
        let a = cache.repair(&rs, 0, &available).unwrap();
        let b = cache.repair(&rs, 0, &available).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup is a cache hit");
        // Unrecoverable patterns return None and stay uncached.
        let lrc = CodeFamily::lrc(4, 2, 1).unwrap();
        assert!(cache.repair(&lrc, 0, &[2, 3, 5]).is_none());
        assert!(cache.repair(&lrc, 0, &[2, 3, 5]).is_none());
    }

    #[test]
    fn equal_shapes_never_alias_across_fields_or_families() {
        // RS(4, 8) over GF(2⁸), RS(4, 8) over GF(2¹⁶) and LRC(4, 2, 2) are
        // all k = 4, n = 8, and all three can decode from {1, 2, 3, 4} (for
        // the LRC, block 4 is the local parity covering missing block 0).
        fn decode<F: KernelField>(plan: &DecodePlan<F>, stripe: &[Vec<u8>]) -> Vec<Vec<u8>> {
            let shares: Vec<&[u8]> = plan.indices().iter().map(|&i| &stripe[i][..]).collect();
            let mut out = vec![vec![0u8; 16]; 4];
            let mut views: Vec<&mut [u8]> = out.iter_mut().map(|b| b.as_mut_slice()).collect();
            plan.decode_into(&shares, &mut views).unwrap();
            out
        }
        let rs = CodeFamily::rs(4, 8).unwrap();
        let lrc = CodeFamily::lrc(4, 2, 2).unwrap();
        let wide = WideReedSolomon::new(4, 8).unwrap();
        let cache = PlanCache::new();
        let idx = [1usize, 2, 3, 4];
        let from_rs = cache.plan(&rs, &idx).unwrap();
        let from_lrc = cache.plan(&lrc, &idx).unwrap();
        let from_wide = cache.plan_wide(&wide, &idx).unwrap();
        assert_eq!((cache.len(), cache.wide_len()), (2, 1), "three entries");
        assert!(!Arc::ptr_eq(&from_rs, &from_lrc));
        assert!(Arc::ptr_eq(&from_wide, &cache.plan_wide(&wide, &idx).unwrap()));
        assert!(cache.plan_wide(&wide, &[0, 0, 1, 2]).is_err());
        assert_eq!(cache.wide_len(), 1, "errors are not cached");

        // Each entry decodes its own family's stripe.
        let data: Vec<Vec<u8>> = (0..4).map(|i| vec![7 * i as u8 + 1; 16]).collect();
        assert_eq!(decode(&from_rs, &rs.encode_stripe(&data).unwrap()), data);
        assert_eq!(decode(&from_lrc, &lrc.encode_stripe(&data).unwrap()), data);
        assert_eq!(decode(&from_wide, &wide.encode_stripe(&data).unwrap()), data);

        // clear() empties every table, the repair memos included.
        let repair = cache.repair(&rs, 0, &idx).unwrap();
        cache.clear();
        assert_eq!((cache.len(), cache.wide_len()), (0, 0));
        assert!(cache.is_empty());
        assert!(!Arc::ptr_eq(&repair, &cache.repair(&rs, 0, &idx).unwrap()));
    }

    #[test]
    fn cached_plan_decodes_identically_to_fresh() {
        let rs = CodeFamily::rs(3, 6).unwrap();
        let data: Vec<Vec<u8>> = (0..3).map(|i| vec![(7 * i + 1) as u8; 24]).collect();
        let stripe = rs.encode_stripe(&data).unwrap();
        let cache = PlanCache::new();
        let idx = [1usize, 3, 5];
        let cached = cache.plan(&rs, &idx).unwrap();
        let fresh = rs.plan_decode(&idx).unwrap();
        let shares: Vec<&[u8]> = idx.iter().map(|&i| &stripe[i][..]).collect();
        let mut a = vec![vec![0u8; 24]; 3];
        let mut b = vec![vec![0u8; 24]; 3];
        let mut va: Vec<&mut [u8]> = a.iter_mut().map(|x| x.as_mut_slice()).collect();
        let mut vb: Vec<&mut [u8]> = b.iter_mut().map(|x| x.as_mut_slice()).collect();
        cached.decode_into(&shares, &mut va).unwrap();
        fresh.decode_into(&shares, &mut vb).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, data);
    }
}
