//! Client-side protocol configuration.

use crate::backoff::BackoffPolicy;
use crate::resilience;
use ajx_erasure::{CodeError, CodeFamily, PlanCache, StripeLayout};
use std::sync::Arc;

/// How many times a `WRITE` re-sends an `add` that keeps returning ORDER
/// before concluding the predecessor's client crashed and starting
/// recovery ("tired of looping", Fig. 5 line 13).
pub(crate) const ORDER_RETRY_LIMIT: u32 = 64;

/// The byte a remapped node's blocks are filled with (§3.5: a replacement
/// starts INIT, its content garbage).
pub const REMAP_GARBAGE: u8 = 0xA5;

/// How a `WRITE` updates the redundant blocks (Fig. 1's AJX-ser / AJX-par /
/// AJX-bcast and §4's hybrid scheme).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateStrategy {
    /// One `add` at a time, in node order (Theorem 1; highest resilience,
    /// `ρ = 1 + δ` latency).
    Serial,
    /// All `add`s in a single parallel batch (Theorem 2; `ρ = 2` latency,
    /// lowest resilience).
    Parallel,
    /// `groups` serial rounds of parallel `add`s (Theorem 3): the
    /// compromise scheme.
    Hybrid {
        /// Number of serial groups `s` (each of size `⌈p/s⌉`).
        groups: usize,
    },
    /// One multicast carrying `v − w`; nodes scale by their own `α_ji`
    /// (§3.11). Same resilience analysis as parallel.
    Broadcast,
}

impl UpdateStrategy {
    /// Partitions the redundant in-stripe indices `k..n` into the serial
    /// rounds this strategy performs.
    pub fn rounds(&self, k: usize, n: usize) -> Vec<Vec<usize>> {
        let all: Vec<usize> = (k..n).collect();
        match *self {
            UpdateStrategy::Serial => all.into_iter().map(|j| vec![j]).collect(),
            UpdateStrategy::Parallel | UpdateStrategy::Broadcast => {
                if all.is_empty() {
                    vec![]
                } else {
                    vec![all]
                }
            }
            UpdateStrategy::Hybrid { groups } => {
                let s = groups.max(1);
                let r = all.len().div_ceil(s);
                all.chunks(r.max(1)).map(<[usize]>::to_vec).collect()
            }
        }
    }

    /// The maximum number of storage-node failures tolerated by this
    /// strategy at client-failure threshold `t_p` (Theorems 1-3).
    pub fn max_storage_failures(&self, p: usize, t_p: usize) -> i64 {
        match *self {
            UpdateStrategy::Serial => resilience::d_serial(p, t_p),
            UpdateStrategy::Parallel | UpdateStrategy::Broadcast => {
                resilience::d_parallel(p, t_p)
            }
            UpdateStrategy::Hybrid { groups } => {
                let d = resilience::d_serial(p, t_p);
                let r = p.div_ceil(groups.max(1)) as i64;
                if r <= d {
                    d
                } else {
                    // Oversized groups behave like parallel batches.
                    resilience::d_parallel(p, t_p).min(d)
                }
            }
        }
    }
}

/// Configuration shared by all clients of one storage service.
#[derive(Debug, Clone)]
pub struct ProtocolConfig {
    /// The erasure code (defines `k` and `n`). Either plain Reed-Solomon
    /// or the pyramid LRC tier (`CodeFamily::Lrc`); all delta/verify paths
    /// go through the shared systematic view, while rebuild and degraded
    /// reads ask [`CodeFamily::repair_plan`] for the cheapest repair set.
    pub code: CodeFamily,
    /// Stripe-to-node placement (§3.11 rotation).
    pub layout: StripeLayout,
    /// Block size in bytes.
    pub block_size: usize,
    /// Redundant-update strategy.
    pub strategy: UpdateStrategy,
    /// Chosen client-failure threshold `t_p` (§1, limitations).
    pub t_p: usize,
    /// Maximum storage-node failures `t_d` the deployment must tolerate;
    /// drives the recovery `slack` (Fig. 6 line 12). Must satisfy the §4
    /// bound for the chosen strategy.
    pub t_d: usize,
    /// Retry budget for operations blocked on another client's recovery.
    pub busy_retry_limit: u32,
    /// Pacing for busy retries and indeterminate-RPC re-sends: capped
    /// exponential backoff with jitter. Replaces the old fixed
    /// `busy_retry_pause`, which synchronized competing clients.
    pub backoff: BackoffPolicy,
    /// Automatically remap crashed nodes through the directory service
    /// (§3.5) when an RPC finds them down.
    pub auto_remap: bool,
    /// Stripes a multi-block [`write_blocks`](crate::Client::write_blocks)
    /// call moves through the protocol together: each round of such a
    /// window sends the messages of all its stripes in one fan-out, on the
    /// caller's thread. Independent stripes share no protocol state, so a
    /// wider window only multiplies the calls outstanding per round. `1`
    /// writes the stripes one at a time, the message order the seeded
    /// harnesses' committed shapes were recorded with.
    pub pipeline_width: usize,
    /// Stripe-chunks a [`rebuild_stripes`](crate::Client::rebuild_stripes)
    /// call moves through each batched round together (the windows of
    /// `pipeline_width`, for the rebuild). `1` rebuilds chunk after chunk.
    pub rebuild_width: usize,
    /// Serve a `READ` whose data node is unavailable by decoding the block
    /// client-side from the other `n − 1` nodes' `get_state` replies — no
    /// locks taken, no recovery triggered — whenever the tid bookkeeping
    /// is unambiguous (DESIGN.md §8). When off, every such read goes
    /// through Fig. 6 recovery (the original behaviour, kept for
    /// benchmarks and differential tests).
    pub degraded_reads: bool,
    /// Shared memo of decode plans keyed by surviving-index set, so the
    /// k×k inversion runs once per erasure pattern rather than once per
    /// stripe. Clones of this config share the cache.
    pub plan_cache: Arc<PlanCache>,
}

impl ProtocolConfig {
    /// Builds a configuration for a `k`-of-`n` code.
    ///
    /// # Errors
    ///
    /// [`CodeError::InvalidParams`] for an invalid `(k, n)`. The paper's §4
    /// correctness preconditions (`k ≥ 2`, `n − k ≤ k`) are asserted by
    /// [`ProtocolConfig::validate`], not here, so experiments can also probe
    /// configurations outside them.
    pub fn new(k: usize, n: usize, block_size: usize) -> Result<Self, CodeError> {
        Self::with_code(CodeFamily::rs(k, n)?, block_size)
    }

    /// Builds a configuration for a pyramid LRC code: `k` data blocks in
    /// `g` local groups (one local parity each) plus `h` global parities,
    /// so `n = k + g + h`. Defaults `t_d` to the code's erasure tolerance
    /// `h + 1` (any `h + 1` lost blocks stay decodable; some larger
    /// patterns do too, but are not guaranteed).
    ///
    /// # Errors
    ///
    /// [`CodeError::InvalidParams`] for an invalid `(k, g, h)`, including one
    /// that would leave a local group empty (`(g − 1) · ceil(k / g) ≥ k`).
    pub fn new_lrc(k: usize, g: usize, h: usize, block_size: usize) -> Result<Self, CodeError> {
        Self::with_code(CodeFamily::lrc(k, g, h)?, block_size)
    }

    fn with_code(code: CodeFamily, block_size: usize) -> Result<Self, CodeError> {
        let (k, n) = (code.k(), code.n());
        let t_d = code.tolerated_failures();
        let layout = StripeLayout::new(k, n).expect("validated by the code constructor");
        Ok(ProtocolConfig {
            code,
            layout,
            block_size,
            strategy: UpdateStrategy::Parallel,
            t_p: 0,
            t_d,
            busy_retry_limit: 512,
            backoff: BackoffPolicy::default(),
            auto_remap: true,
            pipeline_width: 8,
            rebuild_width: 8,
            degraded_reads: true,
            plan_cache: Arc::new(PlanCache::new()),
        })
    }

    /// Sets the update strategy.
    pub fn with_strategy(mut self, strategy: UpdateStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the failure thresholds `(t_p, t_d)`.
    pub fn with_failure_thresholds(mut self, t_p: usize, t_d: usize) -> Self {
        self.t_p = t_p;
        self.t_d = t_d;
        self
    }

    /// Number of data blocks `k`.
    pub fn k(&self) -> usize {
        self.code.k()
    }

    /// Total blocks `n`.
    pub fn n(&self) -> usize {
        self.code.n()
    }

    /// Redundant blocks `p = n − k`.
    pub fn p(&self) -> usize {
        self.code.p()
    }

    /// Checks the §4 correctness preconditions: `k ≥ 2`, `n − k ≤ k`, and
    /// `t_d` within the chosen strategy's bound for `t_p`.
    pub fn validate(&self) -> Result<(), String> {
        if self.k() < 2 {
            return Err(format!("§4 requires k >= 2, got k = {}", self.k()));
        }
        if self.p() > self.k() {
            return Err(format!(
                "§4 requires n − k <= k, got p = {} > k = {}",
                self.p(),
                self.k()
            ));
        }
        let bound = self.strategy.max_storage_failures(self.p(), self.t_p);
        if (self.t_d as i64) > bound {
            return Err(format!(
                "t_d = {} exceeds the strategy bound {} for t_p = {} (Theorems 1-3)",
                self.t_d, bound, self.t_p
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_partition_redundant_indices() {
        let all: Vec<usize> = (3..7).collect();
        let flat = |v: Vec<Vec<usize>>| v.into_iter().flatten().collect::<Vec<_>>();

        let s = UpdateStrategy::Serial.rounds(3, 7);
        assert_eq!(s.len(), 4);
        assert_eq!(flat(s), all);

        let p = UpdateStrategy::Parallel.rounds(3, 7);
        assert_eq!(p.len(), 1);
        assert_eq!(flat(p), all);

        let h = UpdateStrategy::Hybrid { groups: 2 }.rounds(3, 7);
        assert_eq!(h.len(), 2);
        assert_eq!(h[0].len(), 2);
        assert_eq!(flat(h), all);

        // Degenerate: no redundant nodes.
        assert!(UpdateStrategy::Parallel.rounds(3, 3).is_empty());
    }

    #[test]
    fn hybrid_with_more_groups_than_nodes_degenerates_to_serial() {
        let h = UpdateStrategy::Hybrid { groups: 10 }.rounds(2, 5);
        assert_eq!(h.len(), 3);
        assert!(h.iter().all(|g| g.len() == 1));
    }

    #[test]
    fn config_validation_enforces_section4() {
        // k = 1 violates k >= 2.
        let c = ProtocolConfig::new(1, 3, 64).unwrap();
        assert!(c.validate().unwrap_err().contains("k >= 2"));

        // p > k violates n − k <= k.
        let c = ProtocolConfig::new(2, 5, 64).unwrap();
        assert!(c.validate().unwrap_err().contains("n − k <= k"));

        // Fine: 3-of-5.
        let c = ProtocolConfig::new(3, 5, 64).unwrap();
        assert!(c.validate().is_ok());

        // t_d beyond Theorem 2's bound with parallel adds.
        let c = ProtocolConfig::new(4, 6, 64)
            .unwrap()
            .with_failure_thresholds(1, 2);
        assert!(c.validate().is_err(), "parallel: d(2, t_p=1) = 1 < 2");
        let c = c.with_strategy(UpdateStrategy::Serial);
        assert!(c.validate().is_err(), "serial: d_serial(2,1) = 1 < 2");
        let c = ProtocolConfig::new(4, 6, 64)
            .unwrap()
            .with_strategy(UpdateStrategy::Serial)
            .with_failure_thresholds(1, 1);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn strategy_bounds_match_theorems() {
        // p = 8, t_p = 2: serial tolerates 2, parallel only 1 (§4).
        assert_eq!(UpdateStrategy::Serial.max_storage_failures(8, 2), 2);
        assert_eq!(UpdateStrategy::Parallel.max_storage_failures(8, 2), 1);
        assert_eq!(UpdateStrategy::Broadcast.max_storage_failures(8, 2), 1);
        // A hybrid with group size <= d_serial keeps the serial bound...
        assert_eq!(
            UpdateStrategy::Hybrid { groups: 4 }.max_storage_failures(8, 2),
            2
        );
        // ...but one oversized group falls back to the parallel bound.
        assert_eq!(
            UpdateStrategy::Hybrid { groups: 1 }.max_storage_failures(8, 2),
            1
        );
    }

    #[test]
    fn accessors_expose_code_shape() {
        let c = ProtocolConfig::new(3, 5, 128).unwrap();
        assert_eq!((c.k(), c.n(), c.p()), (3, 5, 2));
        assert_eq!(c.block_size, 128);
    }
}
