//! Message and byte instrumentation.
//!
//! Fig. 1 of the paper compares protocols by *measured* common-case cost:
//! number of messages, round trips, and bandwidth per operation. Rather
//! than trusting the formulas, the reproduction counts real messages here
//! and checks them against the table (see `fig1_comparison`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of power-of-two microsecond buckets in the latency histogram:
/// bucket `i` counts latencies in `[2^i, 2^(i+1)) µs`, with bucket 0 also
/// absorbing sub-microsecond samples and the last bucket absorbing
/// everything ≥ ~9 minutes. 40 buckets cover any latency this simulator
/// can produce.
pub const LATENCY_BUCKETS: usize = 40;

/// Monotonic counters for traffic through one endpoint or one network.
///
/// All methods are lock-free and callable from any thread. Besides the
/// Fig. 1 message/byte counters, the struct carries the scale-out
/// instrumentation added for `ext_many_clients`: per-node in-flight
/// gauges (requests accepted by a node queue but not yet answered) and a
/// fixed-bucket operation-latency histogram from which p50/p99 are read
/// without external tooling.
#[derive(Debug)]
pub struct NetStats {
    msgs_sent: AtomicU64,
    bytes_sent: AtomicU64,
    msgs_received: AtomicU64,
    bytes_received: AtomicU64,
    /// Block-content bytes inside sent messages (excludes headers and
    /// metadata-only traffic) — the repair-bandwidth figure of merit.
    payload_sent: AtomicU64,
    /// Block-content bytes inside received messages.
    payload_received: AtomicU64,
    round_trips: AtomicU64,
    /// Requests a full node queue shed with `RpcError::Busy`.
    busy_shed: AtomicU64,
    /// Requests currently queued or executing, per node. Empty unless
    /// built with [`NetStats::with_nodes`].
    inflight: Vec<AtomicU64>,
    /// High-water mark of each node's in-flight gauge.
    inflight_peak: Vec<AtomicU64>,
    /// Power-of-two-µs latency histogram (see [`LATENCY_BUCKETS`]).
    latency_buckets: [AtomicU64; LATENCY_BUCKETS],
    latency_count: AtomicU64,
    latency_sum_us: AtomicU64,
}

// Manual impl: `Default` is not derivable for arrays longer than 32.
impl Default for NetStats {
    fn default() -> Self {
        NetStats {
            msgs_sent: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
            msgs_received: AtomicU64::new(0),
            bytes_received: AtomicU64::new(0),
            payload_sent: AtomicU64::new(0),
            payload_received: AtomicU64::new(0),
            round_trips: AtomicU64::new(0),
            busy_shed: AtomicU64::new(0),
            inflight: Vec::new(),
            inflight_peak: Vec::new(),
            latency_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            latency_count: AtomicU64::new(0),
            latency_sum_us: AtomicU64::new(0),
        }
    }
}

/// A point-in-time copy of [`NetStats`], supporting subtraction to measure
/// a single operation's cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetSnapshot {
    /// Messages sent by the endpoint.
    pub msgs_sent: u64,
    /// Bytes sent (payload + fixed header accounting).
    pub bytes_sent: u64,
    /// Messages received.
    pub msgs_received: u64,
    /// Bytes received.
    pub bytes_received: u64,
    /// Block-content bytes sent (no headers, no metadata-only messages).
    pub payload_sent: u64,
    /// Block-content bytes received.
    pub payload_received: u64,
    /// Completed request/reply round trips.
    pub round_trips: u64,
}

impl NetStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh counters with in-flight gauges for `n_nodes` nodes.
    pub fn with_nodes(n_nodes: usize) -> Self {
        NetStats {
            inflight: (0..n_nodes).map(|_| AtomicU64::new(0)).collect(),
            inflight_peak: (0..n_nodes).map(|_| AtomicU64::new(0)).collect(),
            ..Self::default()
        }
    }

    /// Marks one more request in flight at node `node`.
    pub fn inc_inflight(&self, node: usize) {
        if let (Some(g), Some(peak)) = (self.inflight.get(node), self.inflight_peak.get(node)) {
            let now = g.fetch_add(1, Ordering::Relaxed) + 1;
            // A load first: the peak is rarely raised, and a load is no
            // read-modify-write.
            if now > peak.load(Ordering::Relaxed) {
                peak.fetch_max(now, Ordering::Relaxed);
            }
        }
    }

    /// Marks one request at node `node` as answered.
    pub fn dec_inflight(&self, node: usize) {
        if let Some(g) = self.inflight.get(node) {
            g.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Requests currently in flight at node `node` (0 if untracked).
    pub fn inflight(&self, node: usize) -> u64 {
        self.inflight
            .get(node)
            .map_or(0, |g| g.load(Ordering::Relaxed))
    }

    /// High-water mark of node `node`'s in-flight gauge.
    pub fn inflight_peak(&self, node: usize) -> u64 {
        self.inflight_peak
            .get(node)
            .map_or(0, |g| g.load(Ordering::Relaxed))
    }

    /// Records one operation latency into the histogram.
    pub fn record_latency(&self, latency: Duration) {
        self.record_latencies(latency, 1);
    }

    /// Records `samples` operations that each took `latency` — the calls
    /// of a round that resolved at one instant, in one step.
    pub fn record_latencies(&self, latency: Duration, samples: u64) {
        if samples == 0 {
            return;
        }
        let us = latency.as_micros().max(1) as u64;
        // ilog2 of a value in [2^i, 2^(i+1)) is i; clamp into range.
        let bucket = (us.ilog2() as usize).min(LATENCY_BUCKETS - 1);
        if let Some(b) = self.latency_buckets.get(bucket) {
            b.fetch_add(samples, Ordering::Relaxed);
        }
        self.latency_count.fetch_add(samples, Ordering::Relaxed);
        self.latency_sum_us
            .fetch_add(us * samples, Ordering::Relaxed);
    }

    /// Number of latency samples recorded.
    pub fn latency_samples(&self) -> u64 {
        self.latency_count.load(Ordering::Relaxed)
    }

    /// Mean recorded latency, if any samples exist.
    pub fn latency_mean(&self) -> Option<Duration> {
        let n = self.latency_count.load(Ordering::Relaxed);
        (n > 0).then(|| {
            Duration::from_micros(self.latency_sum_us.load(Ordering::Relaxed) / n)
        })
    }

    /// The latency at quantile `q` (e.g. 0.5, 0.99), reported as the upper
    /// bound of the histogram bucket containing it — within 2x of the true
    /// value by construction. `None` until a sample is recorded.
    pub fn latency_percentile(&self, q: f64) -> Option<Duration> {
        let total = self.latency_count.load(Ordering::Relaxed);
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.latency_buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(Duration::from_micros(1u64 << (i + 1)));
            }
        }
        Some(Duration::from_micros(1u64 << LATENCY_BUCKETS))
    }

    /// Adds every counter of `delta` at once, one atomic add per nonzero
    /// counter: how a round books all its members' messages, bytes and
    /// round trips together.
    pub fn add(&self, delta: &NetSnapshot) {
        let counters = [
            (&self.msgs_sent, delta.msgs_sent),
            (&self.bytes_sent, delta.bytes_sent),
            (&self.msgs_received, delta.msgs_received),
            (&self.bytes_received, delta.bytes_received),
            (&self.payload_sent, delta.payload_sent),
            (&self.payload_received, delta.payload_received),
            (&self.round_trips, delta.round_trips),
        ];
        for (counter, n) in counters {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Records `n` requests shed with `RpcError::Busy` before they
    /// reached their node's queue.
    pub fn record_busy_sheds(&self, n: u64) {
        if n > 0 {
            self.busy_shed.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Requests shed with `RpcError::Busy` so far.
    pub fn busy_shed(&self) -> u64 {
        self.busy_shed.load(Ordering::Relaxed)
    }

    /// A consistent-enough snapshot of all counters.
    pub fn snapshot(&self) -> NetSnapshot {
        NetSnapshot {
            msgs_sent: self.msgs_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            msgs_received: self.msgs_received.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            payload_sent: self.payload_sent.load(Ordering::Relaxed),
            payload_received: self.payload_received.load(Ordering::Relaxed),
            round_trips: self.round_trips.load(Ordering::Relaxed),
        }
    }
}

impl NetSnapshot {
    /// Counter-wise difference `self − earlier` (saturating), giving the
    /// cost of the operations performed between two snapshots.
    pub fn since(&self, earlier: &NetSnapshot) -> NetSnapshot {
        NetSnapshot {
            msgs_sent: self.msgs_sent.saturating_sub(earlier.msgs_sent),
            bytes_sent: self.bytes_sent.saturating_sub(earlier.bytes_sent),
            msgs_received: self.msgs_received.saturating_sub(earlier.msgs_received),
            bytes_received: self.bytes_received.saturating_sub(earlier.bytes_received),
            payload_sent: self.payload_sent.saturating_sub(earlier.payload_sent),
            payload_received: self
                .payload_received
                .saturating_sub(earlier.payload_received),
            round_trips: self.round_trips.saturating_sub(earlier.round_trips),
        }
    }

    /// Total messages in both directions — the paper's "# msgs" columns.
    pub fn total_msgs(&self) -> u64 {
        self.msgs_sent + self.msgs_received
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `msgs` messages of `bytes` each, `payload` of them block content.
    fn sent(msgs: u64, bytes: u64, payload: u64) -> NetSnapshot {
        NetSnapshot {
            msgs_sent: msgs,
            bytes_sent: msgs * bytes,
            payload_sent: msgs * payload,
            ..NetSnapshot::default()
        }
    }

    fn received(bytes: u64, payload: u64) -> NetSnapshot {
        NetSnapshot {
            msgs_received: 1,
            bytes_received: bytes,
            payload_received: payload,
            ..NetSnapshot::default()
        }
    }

    #[test]
    fn counters_accumulate() {
        let s = NetStats::new();
        s.add(&sent(1, 100, 0));
        s.add(&sent(1, 50, 0));
        s.add(&NetSnapshot {
            round_trips: 1,
            ..received(10, 0)
        });
        let snap = s.snapshot();
        assert_eq!(snap.msgs_sent, 2);
        assert_eq!(snap.bytes_sent, 150);
        assert_eq!(snap.msgs_received, 1);
        assert_eq!(snap.bytes_received, 10);
        assert_eq!(snap.round_trips, 1);
        assert_eq!(snap.total_msgs(), 3);
    }

    #[test]
    fn payload_counters_track_block_bytes_separately() {
        let s = NetStats::new();
        s.add(&sent(1, 100, 64));
        // A metadata-only reply records no payload at all.
        s.add(&received(40, 0));
        s.add(&received(40, 8));
        let before = s.snapshot();
        assert_eq!(before.payload_sent, 64);
        assert_eq!(before.payload_received, 8);
        s.add(&sent(1, 40, 1));
        let diff = s.snapshot().since(&before);
        assert_eq!(diff.payload_sent, 1);
        assert_eq!(diff.payload_received, 0);
    }

    #[test]
    fn since_diffs_counters() {
        let s = NetStats::new();
        s.add(&sent(1, 5, 0));
        let before = s.snapshot();
        s.add(&sent(1, 7, 0));
        s.add(&received(3, 0));
        let diff = s.snapshot().since(&before);
        assert_eq!(diff.msgs_sent, 1);
        assert_eq!(diff.bytes_sent, 7);
        assert_eq!(diff.msgs_received, 1);
    }

    /// A round's books added at once equal its messages added one by one,
    /// and a batch of latency samples equals the samples one at a time.
    #[test]
    fn a_round_books_like_one_message_at_a_time() {
        let (one, all) = (NetStats::new(), NetStats::new());
        for _ in 0..3 {
            one.add(&sent(1, 72, 8));
            one.record_latency(Duration::from_micros(300));
            one.record_busy_sheds(1);
        }
        all.add(&sent(3, 72, 8));
        all.record_latencies(Duration::from_micros(300), 3);
        all.record_busy_sheds(3);
        assert_eq!(one.snapshot(), all.snapshot());
        assert_eq!(one.busy_shed(), all.busy_shed());
        assert_eq!(one.latency_samples(), all.latency_samples());
        assert_eq!(one.latency_mean(), all.latency_mean());
        assert_eq!(one.latency_percentile(0.99), all.latency_percentile(0.99));
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let s = std::sync::Arc::new(NetStats::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.add(&sent(1, 1, 0));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.snapshot().msgs_sent, 8000);
    }

    #[test]
    fn inflight_gauges_track_per_node_with_peak() {
        let s = NetStats::with_nodes(2);
        s.inc_inflight(0);
        s.inc_inflight(0);
        s.inc_inflight(1);
        assert_eq!(s.inflight(0), 2);
        assert_eq!(s.inflight(1), 1);
        s.dec_inflight(0);
        assert_eq!(s.inflight(0), 1);
        assert_eq!(s.inflight_peak(0), 2, "peak survives the decrement");
        // Untracked nodes (or plain `new()` stats) are inert, not a panic.
        s.inc_inflight(9);
        assert_eq!(s.inflight(9), 0);
    }

    #[test]
    fn latency_histogram_reports_percentiles_within_2x() {
        let s = NetStats::new();
        for _ in 0..99 {
            s.record_latency(Duration::from_micros(100));
        }
        s.record_latency(Duration::from_millis(50));
        assert_eq!(s.latency_samples(), 100);
        // 100µs lands in bucket [64, 128)µs → reported as 128µs.
        assert_eq!(s.latency_percentile(0.5), Some(Duration::from_micros(128)));
        // p100 catches the 50ms outlier: bucket [32768, 65536)µs.
        assert_eq!(s.latency_percentile(1.0), Some(Duration::from_micros(65536)));
        let mean = s.latency_mean().unwrap();
        assert!(mean >= Duration::from_micros(100) && mean <= Duration::from_millis(1));
    }

    #[test]
    fn latency_percentile_is_none_without_samples() {
        let s = NetStats::new();
        assert_eq!(s.latency_percentile(0.5), None);
        assert_eq!(s.latency_mean(), None);
    }
}
