//! Minimal offline stand-in for `criterion`.
//!
//! Implements the subset this workspace's `harness = false` benches use:
//! [`criterion_group!`]/[`criterion_main!`], [`Criterion::benchmark_group`],
//! [`BenchmarkGroup::bench_function`]/[`bench_with_input`],
//! [`BenchmarkId`], [`Throughput::Bytes`] and [`black_box`]. Each benchmark
//! is timed as mean wall-clock over a fixed iteration budget — no warm-up
//! analysis, outlier rejection, or HTML reports. Results print as
//! `bench-name ... <mean> (<throughput>)` lines. See `shims/README.md`.

#![forbid(unsafe_code)]
#![expect(
    clippy::disallowed_methods,
    reason = "a benchmark harness times its iterations"
)]

use std::time::{Duration, Instant};

/// Opaque-to-the-optimizer identity, re-exported like criterion's.
pub use std::hint::black_box;

/// Declared throughput for a benchmark, used to derive rate units.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// A benchmark identifier: `function_id/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_id/parameter`.
    pub fn new(function_id: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_id.into(), parameter),
        }
    }

    /// Just the parameter, for groups whose name already says what varies.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// Times closures handed to it by a benchmark body.
pub struct Bencher<'a> {
    measured: &'a mut Duration,
    iters: u64,
}

impl Bencher<'_> {
    /// Runs `routine` repeatedly and records the mean duration.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // One untimed call to touch caches / lazy statics.
        black_box(routine());
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        *self.measured = start.elapsed() / self.iters as u32;
    }
}

/// The top-level benchmark driver.
pub struct Criterion {
    iters: u64,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        // CRITERION_ITERS trades accuracy for time; the default keeps the
        // full suite in the tens of seconds.
        let iters = std::env::var("CRITERION_ITERS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(200);
        // First non-flag CLI arg acts as a substring filter, mirroring
        // `cargo bench -- <filter>`.
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-'));
        Criterion { iters, filter }
    }
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n== {name} ==");
        BenchmarkGroup {
            criterion: self,
            name,
            throughput: None,
        }
    }

    fn matches(&self, full_id: &str) -> bool {
        match &self.filter {
            Some(f) => full_id.contains(f.as_str()),
            None => true,
        }
    }
}

/// A group of benchmarks sharing a name prefix and throughput setting.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the per-iteration throughput used for rate reporting.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Accepted for API compatibility; the shim's iteration count is fixed
    /// by `CRITERION_ITERS` instead.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for API compatibility; ignored.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Benchmarks `f` under `id`.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>),
    {
        let full = format!("{}/{}", self.name, id.into_bench_id());
        if !self.criterion.matches(&full) {
            return self;
        }
        let mut measured = Duration::ZERO;
        let mut b = Bencher {
            measured: &mut measured,
            iters: self.criterion.iters,
        };
        f(&mut b);
        report(&full, measured, self.throughput);
        self
    }

    /// Benchmarks `f` under `id`, passing `input` through.
    pub fn bench_with_input<I, F>(&mut self, id: impl IntoBenchId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group (printing is immediate, so this is a no-op).
    pub fn finish(self) {}
}

/// Things usable as a benchmark id: strings and [`BenchmarkId`].
pub trait IntoBenchId {
    /// The display form of the id.
    fn into_bench_id(self) -> String;
}

impl IntoBenchId for &str {
    fn into_bench_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchId for String {
    fn into_bench_id(self) -> String {
        self
    }
}

impl IntoBenchId for BenchmarkId {
    fn into_bench_id(self) -> String {
        self.id
    }
}

fn report(id: &str, mean: Duration, throughput: Option<Throughput>) {
    let time = format_duration(mean);
    match throughput {
        Some(Throughput::Bytes(n)) => {
            let mbps = n as f64 / mean.as_secs_f64() / (1024.0 * 1024.0);
            println!("{id:<56} {time:>12}   {mbps:10.1} MiB/s");
        }
        Some(Throughput::Elements(n)) => {
            let eps = n as f64 / mean.as_secs_f64();
            println!("{id:<56} {time:>12}   {eps:10.0} elem/s");
        }
        None => println!("{id:<56} {time:>12}"),
    }
}

fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Declares a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the benchmark `main` that runs the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_and_reports() {
        let mut c = Criterion {
            iters: 8,
            filter: None,
        };
        let mut g = c.benchmark_group("shim_smoke");
        g.throughput(Throughput::Bytes(1024)).sample_size(10);
        let mut ran = false;
        g.bench_function("xor", |b| {
            ran = true;
            b.iter(|| {
                let mut acc = 0u64;
                for i in 0..64u64 {
                    acc ^= black_box(i);
                }
                acc
            });
        });
        g.bench_with_input(BenchmarkId::new("param", 4), &4usize, |b, &n| {
            b.iter(|| n * 2);
        });
        g.finish();
        assert!(ran);
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut c = Criterion {
            iters: 8,
            filter: Some("nomatch".into()),
        };
        let mut g = c.benchmark_group("grp");
        let mut ran = false;
        g.bench_function("skipped", |_b| {
            ran = true;
        });
        assert!(!ran);
    }
}
