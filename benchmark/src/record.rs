//! The measuring side of a run: timed calls, slices, failure counts and —
//! on a traced run — one span per call, all kept in memory until the end.

use crate::util::{median, quantile};
use ajx_transport::NetStats;
use std::time::Instant;

/// Which end-to-end latency a timed call feeds. A `Mixed` call moves user
/// blocks of both sides at once and feeds neither; `Other` work (garbage
/// collection) moves none and only costs busy time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Side {
    Read,
    Write,
    Mixed,
    Other,
}

/// `parent` of a span that has none.
pub const NO_PARENT: u32 = u32::MAX;

/// Spans beyond this many are counted, not kept (about 40 MB of trace).
const MAX_SPANS: usize = 400_000;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the trace, or [`NO_PARENT`].
    pub parent: u32,
    /// Spans of one client operation share this.
    pub op_id: u64,
}

/// One slice of the operation sequence: equal work, so slices compare.
#[derive(Clone, Copy, Debug, Default)]
pub struct Slice {
    pub busy_ns: u64,
    pub blocks: u64,
    pub read_ns: u64,
    pub read_blocks: u64,
    pub write_ns: u64,
    pub write_blocks: u64,
    /// Timed calls on each side: samples in `read_us` / `write_us`.
    pub read_calls: usize,
    pub write_calls: usize,
    /// Time in `Side::Other` calls: garbage collection.
    pub other_ns: u64,
    /// Median per-block time of this slice's read-side and write-side
    /// calls; 0 if it made none.
    pub read_p50_us: f64,
    pub write_p50_us: f64,
    /// Round trips the client's endpoint counted inside read-side and
    /// write-side calls.
    pub read_round_trips: u64,
    pub write_round_trips: u64,
    pub traced: bool,
}

impl Slice {
    pub fn blocks_per_s(&self) -> f64 {
        self.blocks as f64 / (self.busy_ns as f64 / 1e9)
    }
}

pub struct Recorder {
    epoch: Instant,
    /// A traced run records spans on every second slice, so the untraced
    /// slices of the same run price the recording.
    traced_run: bool,
    spans: Vec<Span>,
    pub dropped_spans: u64,
    /// Per-block microseconds, one sample per timed call.
    pub read_us: Vec<f64>,
    pub write_us: Vec<f64>,
    cur: Slice,
    cur_span: u32,
    pub slices: Vec<Slice>,
    /// Client calls made, and those that failed or returned wrong bytes.
    pub attempted: u64,
    pub failed: u64,
    /// Running hash of the operation sequence, see [`Recorder::note`].
    pub op_digest: u64,
    next_op: u64,
}

impl Recorder {
    pub fn new(traced_run: bool) -> Self {
        Recorder {
            epoch: Instant::now(),
            traced_run,
            spans: Vec::new(),
            dropped_spans: 0,
            read_us: Vec::new(),
            write_us: Vec::new(),
            cur: Slice::default(),
            cur_span: NO_PARENT,
            slices: Vec::new(),
            attempted: 0,
            failed: 0,
            op_digest: 0xCBF2_9CE4_8422_2325,
            next_op: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn push_span(&mut self, span: Span) -> u32 {
        if self.spans.len() >= MAX_SPANS {
            self.dropped_spans += 1;
            return NO_PARENT;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    pub fn begin_slice(&mut self) {
        self.cur = Slice {
            traced: self.traced_run && self.slices.len() % 2 == 1,
            ..Slice::default()
        };
        self.cur_span = NO_PARENT;
        if self.cur.traced {
            let now = self.ns(Instant::now());
            self.cur_span = self.push_span(Span {
                name: "slice",
                start_ns: now,
                end_ns: now,
                parent: NO_PARENT,
                op_id: self.slices.len() as u64,
            });
        }
    }

    pub fn end_slice(&mut self) {
        // This slice's samples are the tails of the two sample lists.
        let tail = |samples: &[f64], calls: usize| quantile(&samples[samples.len() - calls..], 0.5);
        self.cur.read_p50_us = tail(&self.read_us, self.cur.read_calls);
        self.cur.write_p50_us = tail(&self.write_us, self.cur.write_calls);
        if let Some(span) = self.spans.get_mut(self.cur_span as usize) {
            span.end_ns = Instant::now().duration_since(self.epoch).as_nanos() as u64;
        }
        self.cur_span = NO_PARENT;
        self.slices.push(self.cur);
    }

    /// Runs `f` as one client call covering `blocks` user blocks and
    /// charges its time to the current slice and to `side`'s samples, and
    /// the round trips `net` counts meanwhile to `side`. Checking the
    /// result is the caller's, after this returns.
    pub fn time<R>(
        &mut self,
        side: Side,
        name: &'static str,
        blocks: u64,
        net: Option<&NetStats>,
        f: impl FnOnce() -> R,
    ) -> R {
        let round_trips = || net.map_or(0, |n| n.snapshot().round_trips);
        let before = round_trips();
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let round_trips = round_trips() - before;
        let ns = end.duration_since(start).as_nanos() as u64;
        self.cur.busy_ns += ns;
        let per_block_us = ns as f64 / 1e3 / blocks.max(1) as f64;
        match side {
            Side::Read => {
                self.cur.blocks += blocks;
                self.cur.read_ns += ns;
                self.cur.read_blocks += blocks;
                self.cur.read_round_trips += round_trips;
                self.cur.read_calls += 1;
                self.read_us.push(per_block_us);
            }
            Side::Write => {
                self.cur.blocks += blocks;
                self.cur.write_ns += ns;
                self.cur.write_blocks += blocks;
                self.cur.write_round_trips += round_trips;
                self.cur.write_calls += 1;
                self.write_us.push(per_block_us);
            }
            Side::Mixed => self.cur.blocks += blocks,
            Side::Other => self.cur.other_ns += ns,
        }
        if side != Side::Other {
            self.attempted += 1;
        }
        if self.cur.traced {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            let op_id = self.next_op;
            self.next_op += 1;
            self.push_span(Span {
                name,
                start_ns,
                end_ns,
                parent: self.cur_span,
                op_id,
            });
        }
        out
    }

    /// A span outside any slice: a probe batch, the restart, a set-up.
    pub fn span(&mut self, name: &'static str, start: Instant, end: Instant, op_id: u64) {
        if self.traced_run {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.push_span(Span {
                name,
                start_ns,
                end_ns,
                parent: NO_PARENT,
                op_id,
            });
        }
    }

    /// Folds one generated input (which block, which kind of operation)
    /// into the digest of the operation sequence: equal digests, equal
    /// sequences, so a test can tell that a seed fixes the inputs.
    pub fn note(&mut self, input: u64) {
        // FNV-1a over the eight bytes.
        for byte in input.to_le_bytes() {
            self.op_digest = (self.op_digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Counts a call whose outcome was wrong: an `Err`, or bytes that
    /// differ from what the shadow copy says.
    pub fn check(&mut self, ok: bool) {
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts a verification step that is not a timed client call.
    pub fn verify(&mut self, ok: bool) {
        self.attempted += 1;
        self.check(ok);
    }

    fn rates(&self, traced: bool) -> Vec<f64> {
        self.slices
            .iter()
            .filter(|s| s.traced == traced && s.busy_ns > 0)
            .map(Slice::blocks_per_s)
            .collect()
    }

    /// User blocks per busy second: the quartile on the fast side over the
    /// slices (on a traced run, over those that did not record).
    ///
    /// The noise here has one sign and lasts: a neighbour on the host
    /// slows this VM by up to 30 % for 5 to 30 s at a time (`small_rw` read
    /// 6.0 µs instead of 5.0 with no other process on the CPU) and nothing
    /// ever speeds it up. A median over slices gives way once such a
    /// stretch covers half the run; the fast quartile holds until it
    /// covers three quarters. A change to the program moves every slice
    /// and shows in either.
    pub fn ops_per_s(&self) -> f64 {
        quantile(&self.rates(false), 0.75)
    }

    /// `1 - traced / untraced` throughput of a traced run's two halves.
    pub fn trace_overhead_frac(&self) -> f64 {
        let (on, off) = (median(&self.rates(true)), median(&self.rates(false)));
        if on > 0.0 && off > 0.0 {
            1.0 - on / off
        } else {
            0.0
        }
    }

    /// Throughput of the later half of the slices against the earlier
    /// half's, medians of each: positive = slowing down as the run goes on.
    pub fn drift_frac(&self) -> f64 {
        let r = self.rates(false);
        let (early, late) = r.split_at(r.len() / 2);
        let early = median(early);
        if early > 0.0 {
            1.0 - median(late) / early
        } else {
            0.0
        }
    }

    /// Throughput of every slice, in order, for the printed report.
    pub fn slice_rates(&self) -> Vec<f64> {
        self.slices.iter().map(Slice::blocks_per_s).collect()
    }

    pub fn total(&self) -> Slice {
        self.slices.iter().fold(Slice::default(), |mut acc, s| {
            acc.busy_ns += s.busy_ns;
            acc.blocks += s.blocks;
            acc.read_ns += s.read_ns;
            acc.read_blocks += s.read_blocks;
            acc.write_ns += s.write_ns;
            acc.write_blocks += s.write_blocks;
            acc.read_calls += s.read_calls;
            acc.write_calls += s.write_calls;
            acc.other_ns += s.other_ns;
            acc.read_round_trips += s.read_round_trips;
            acc.write_round_trips += s.write_round_trips;
            acc
        })
    }

    /// The fast quartile over slices of each slice's median per-block
    /// time on a side, for the reason given at [`Recorder::ops_per_s`].
    fn side_p50_us(&self, of: fn(&Slice) -> f64) -> f64 {
        let per_slice: Vec<f64> = self
            .slices
            .iter()
            .filter(|s| !s.traced)
            .map(of)
            .filter(|&us| us > 0.0)
            .collect();
        quantile(&per_slice, 0.25)
    }

    pub fn read_p50_us(&self) -> f64 {
        self.side_p50_us(|s| s.read_p50_us)
    }

    pub fn write_p50_us(&self) -> f64 {
        self.side_p50_us(|s| s.write_p50_us)
    }

    /// The trace as JSON: `{"workload", "seed", "dropped_spans", "spans":
    /// [{"name", "start_ns", "end_ns", "parent", "op_id"}]}`; `parent` is
    /// an index into `spans` or -1.
    pub fn trace_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"dropped_spans\": {}, \"spans\": [\n",
            self.dropped_spans
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op_id\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.op_id,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_alternate_on_a_traced_run_and_spans_nest() {
        let mut rec = Recorder::new(true);
        for _ in 0..4 {
            rec.begin_slice();
            rec.time(Side::Read, "read", 2, None, || std::hint::black_box(1 + 1));
            rec.time(Side::Other, "gc", 0, None, || ());
            rec.end_slice();
        }
        assert_eq!(
            rec.slices.iter().map(|s| s.traced).collect::<Vec<_>>(),
            [false, true, false, true]
        );
        // Two traced slices: a slice span and two call spans each.
        assert_eq!(rec.spans.len(), 6);
        assert_eq!(rec.spans[1].parent, 0);
        assert!(rec.spans[0].end_ns >= rec.spans[2].end_ns);
        assert_eq!((rec.attempted, rec.read_us.len()), (4, 4));
        assert_eq!(rec.total().read_blocks, 8);
        assert!(rec.trace_json("w", 1).contains("\"parent\": 0"));
    }

    #[test]
    fn untraced_run_keeps_no_spans() {
        let mut rec = Recorder::new(false);
        rec.begin_slice();
        rec.time(Side::Write, "write", 1, None, || ());
        rec.end_slice();
        rec.span("restart", Instant::now(), Instant::now(), 0);
        assert!(rec.spans.is_empty());
        rec.verify(false);
        assert_eq!((rec.attempted, rec.failed), (2, 1));
    }
}
