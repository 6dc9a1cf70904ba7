//! Retry pacing for busy loops and indeterminate RPCs.
//!
//! The paper leaves retry pacing unspecified ("p retries the add after a
//! while", §3.9). On a fault-free network a fixed pause is fine, but under
//! injected loss and contention a fixed pause synchronizes competing
//! clients — they collide at the recovery locks on every round. This module
//! provides the standard cure, one schedule: capped *decorrelated* jitter,
//! seeded so retry schedules are reproducible in chaos runs.

use std::time::Duration;

/// Backoff configuration shared by every retry loop of a client.
///
/// Each delay is `min(cap, uniform(base, 3·previous))`: it derives from the
/// previous draw rather than an attempt count, spreading competing clients
/// while keeping a floor of `base`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// First (and minimum) delay. `ZERO` disables sleeping entirely —
    /// the unit-test fast path.
    pub base: Duration,
    /// Upper bound on any single delay.
    pub cap: Duration,
    /// How many times an RPC is re-sent after it failed indeterminately
    /// ([`ajx_transport::RpcError::is_indeterminate`], idempotent requests
    /// only) or was shed with [`ajx_transport::RpcError::Busy`] (any
    /// request: a shed one never ran) before the error is surfaced to the
    /// protocol layer.
    pub rpc_retry_budget: u32,
}

impl Default for BackoffPolicy {
    /// 100 µs base growing to a 10 ms cap, and three re-sends.
    fn default() -> Self {
        BackoffPolicy {
            base: Duration::from_micros(100),
            cap: Duration::from_millis(10),
            rpc_retry_budget: 3,
        }
    }
}

impl BackoffPolicy {
    /// A policy that never sleeps and never re-sends — for unit tests that
    /// drive failure paths deterministically.
    pub fn none() -> Self {
        BackoffPolicy {
            base: Duration::ZERO,
            cap: Duration::ZERO,
            rpc_retry_budget: 0,
        }
    }

    /// Starts a retry session. `seed` determines the jitter stream, so a
    /// given `(policy, seed)` always produces the same delay sequence.
    pub fn session(&self, seed: u64) -> BackoffSession {
        BackoffSession {
            policy: *self,
            rng: seed ^ 0x5851_F42D_4C95_7F2D,
            prev: self.base,
        }
    }
}

/// The evolving state of one retry loop (delay growth + jitter stream).
#[derive(Debug, Clone)]
pub struct BackoffSession {
    policy: BackoffPolicy,
    rng: u64,
    prev: Duration,
}

impl BackoffSession {
    fn next_u64(&mut self) -> u64 {
        // splitmix64: cheap, seedable, good enough for jitter.
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.rng;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform draw in `[lo, hi]` (nanosecond granularity).
    fn uniform(&mut self, lo: Duration, hi: Duration) -> Duration {
        let (lo, hi) = (lo.as_nanos() as u64, hi.as_nanos() as u64);
        if hi <= lo {
            return Duration::from_nanos(lo);
        }
        Duration::from_nanos(lo + self.next_u64() % (hi - lo + 1))
    }

    /// Computes the next delay and advances the session state.
    pub fn next_delay(&mut self) -> Duration {
        let p = self.policy;
        if p.base.is_zero() {
            return Duration::ZERO;
        }
        let hi = self.prev.saturating_mul(3).min(p.cap).max(p.base);
        let delay = self.uniform(p.base, hi);
        self.prev = delay;
        delay
    }

    /// Sleeps for [`BackoffSession::next_delay`] (no-op on a zero delay).
    pub fn pause(&mut self) {
        let d = self.next_delay();
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> BackoffPolicy {
        BackoffPolicy {
            base: Duration::from_micros(100),
            cap: Duration::from_millis(5),
            rpc_retry_budget: 3,
        }
    }

    #[test]
    fn decorrelated_jitter_respects_floor_and_cap() {
        let mut s = policy().session(42);
        for _ in 0..100 {
            let d = s.next_delay();
            assert!(d >= Duration::from_micros(100));
            assert!(d <= Duration::from_millis(5));
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let p = policy();
        let a: Vec<_> = {
            let mut s = p.session(9);
            (0..50).map(|_| s.next_delay()).collect()
        };
        let b: Vec<_> = {
            let mut s = p.session(9);
            (0..50).map(|_| s.next_delay()).collect()
        };
        let c: Vec<_> = {
            let mut s = p.session(10);
            (0..50).map(|_| s.next_delay()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    /// The default schedule, pinned for two seeds: any change to the delay
    /// arithmetic or the jitter stream shows here.
    #[test]
    fn default_schedule_is_pinned() {
        let pinned: [(u64, [u64; 12]); 2] = [
            (1, [
                131345, 372328, 552430, 613575, 955593, 2626692, 5987587, 7059541, 934222,
                1802157, 4389881, 7342518,
            ]),
            (0xDEAD_BEEF, [
                290211, 757284, 1328111, 499838, 1268321, 232643, 400049, 408420, 796828, 114400,
                102325, 244422,
            ]),
        ];
        for (seed, nanos) in pinned {
            let mut s = BackoffPolicy::default().session(seed);
            for (x, ns) in nanos.into_iter().enumerate() {
                assert_eq!(s.next_delay(), Duration::from_nanos(ns), "seed {seed}, delay {x}");
            }
        }
    }

    #[test]
    fn zero_base_never_sleeps() {
        let mut s = BackoffPolicy::none().session(3);
        for _ in 0..10 {
            assert_eq!(s.next_delay(), Duration::ZERO);
        }
        s.pause(); // must not sleep (and must not panic)
    }
}
