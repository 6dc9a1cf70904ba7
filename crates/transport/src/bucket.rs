//! Token-bucket bandwidth shaping for the threaded transport.
//!
//! The paper's §5.1 testbed has real NICs ("a low-end gigabit ethernet
//! card ... inter-node network bandwidth is 500Mbits/s"); an in-process
//! reproduction has none, so the saturation behaviour that shapes Fig. 9
//! (client NIC saturating in 9(a)/9(c), storage NICs in 9(b)) must be
//! imposed. Each endpoint owns a [`TokenBucket`]; sending `b` bytes blocks
//! the calling thread until the modeled link has drained them.

#![expect(
    clippy::disallowed_methods,
    reason = "token-bucket shaping meters real elapsed time by design"
)]

use parking_lot::Mutex;
use std::time::{Duration, Instant};

/// A blocking link serializer: `rate` bytes/second with a small idle burst.
///
/// Internally it tracks the virtual instant at which the link becomes free
/// (`next_free`); each send advances it by `bytes / rate` and the sender
/// waits until its message has fully drained — the store-and-forward model
/// of a NIC send buffer. An idle link earns at most one burst quantum of
/// credit, so short idle gaps don't let a sender exceed the rate for long.
#[derive(Debug)]
pub struct TokenBucket {
    rate: f64,
    burst: Duration,
    next_free: Mutex<Instant>,
}

impl TokenBucket {
    /// A link draining at `rate_bytes_per_sec`, with a burst allowance of
    /// 16 KiB or 2 ms of rate, whichever is larger.
    ///
    /// # Panics
    ///
    /// Panics if `rate_bytes_per_sec` is zero.
    pub fn new(rate_bytes_per_sec: u64) -> Self {
        assert!(rate_bytes_per_sec > 0, "bandwidth must be positive");
        let rate = rate_bytes_per_sec as f64;
        let burst_secs = (16_384.0 / rate).max(0.002);
        TokenBucket {
            rate,
            burst: Duration::from_secs_f64(burst_secs),
            next_free: Mutex::new(Instant::now()),
        }
    }

    /// Sends `bytes` through the link, sleeping until they have drained.
    pub fn consume(&self, bytes: usize) {
        let wait = self.consume_nonblocking(bytes);
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
    }

    /// Reserves link time for `bytes` and returns how long the caller must
    /// wait for the send to complete (zero if covered by burst credit).
    pub fn consume_nonblocking(&self, bytes: usize) -> Duration {
        let mut next_free = self.next_free.lock();
        let now = Instant::now();
        // An idle link accumulates at most `burst` of credit.
        let earliest = now.checked_sub(self.burst).unwrap_or(now);
        let start = (*next_free).max(earliest);
        let finish = start + Duration::from_secs_f64(bytes as f64 / self.rate);
        *next_free = finish;
        finish.saturating_duration_since(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sends_within_burst_are_free() {
        let b = TokenBucket::new(1_000_000);
        std::thread::sleep(Duration::from_millis(5)); // go idle, earn burst
        assert_eq!(b.consume_nonblocking(1000), Duration::ZERO);
    }

    #[test]
    fn sustained_load_is_paced_at_rate() {
        let b = TokenBucket::new(10_000_000); // 10 MB/s
        let start = Instant::now();
        for _ in 0..100 {
            b.consume(10_000); // 1 MB total => ~100 ms at 10 MB/s
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(80),
            "finished too fast: {elapsed:?}"
        );
        assert!(
            elapsed < Duration::from_millis(400),
            "finished too slow: {elapsed:?}"
        );
    }

    #[test]
    fn backlog_grows_linearly_without_sleeping() {
        let b = TokenBucket::new(1_000_000); // 1 MB/s
        let mut last = Duration::ZERO;
        for _ in 0..10 {
            last = b.consume_nonblocking(100_000);
        }
        // 1 MB backlog at 1 MB/s: the *final* reservation completes ~1 s out.
        assert!(last > Duration::from_millis(900), "got {last:?}");
        assert!(last < Duration::from_millis(1100), "got {last:?}");
    }

    #[test]
    fn concurrent_senders_share_the_link() {
        let b = std::sync::Arc::new(TokenBucket::new(10_000_000)); // 10 MB/s
        let start = Instant::now();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let b = b.clone();
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        b.consume(10_000);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // 4 × 250 KB = 1 MB total at 10 MB/s ≈ 100 ms regardless of threads.
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(80), "got {elapsed:?}");
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_rate_is_rejected() {
        let _ = TokenBucket::new(0);
    }
}
