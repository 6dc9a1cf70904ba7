//! The repository's benchmark. One run is one workload:
//!
//! ```text
//! ajx-benchmark --workload small_rw --seed 1 --seconds 10 --trace 0
//! ```
//!
//! prints a header, every metric by name with its unit, and as the last
//! line of standard output one JSON object `{"correct", "attempted",
//! "failed", "metrics"}` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Without `--workload` it runs all
//! six in turn. See `benchmark/README.md`.

mod host;
mod metrics;
mod probes;
mod record;
mod util;
mod workloads;

use host::ProcUsage;
use metrics::{Metrics, END_TO_END, PER_LAYER};
use record::Recorder;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use util::quantile;
use workloads::{
    block_rw::BlockRw, codec::Codec, degraded_rebuild::DegradedRebuild, many_clients::ManyClients,
    seq_large::SeqLarge, Cost, RunArgs, RunResult, Workload, NAMES,
};

/// Scratch space inside the checkout: journals and trace files.
const OUT_DIR: &str = "benchmark/out";

/// A journal directory of this process's own, so that two runs at once do
/// not share one.
fn journal_dir(name: &str) -> PathBuf {
    Path::new(OUT_DIR).join(format!("wal-{name}-{}", std::process::id()))
}

/// A run is marked noisy — still reported, never dropped — when it could
/// not be pinned or when others took more than this share of the pinned
/// CPU's busy time while it ran. The 1-minute load average is printed too
/// but decides nothing: this benchmark's own previous run, a dozen
/// runnable threads on one CPU, keeps it near 2 for the next minute.
const NOISY_OTHER_CPU: f64 = 0.05;

const USAGE: &str = "usage: ajx-benchmark [--workload NAME] [--seed N] [--seconds S | --slices N] [--trace 0|1]
  --workload  one of small_rw seq_large degraded_rebuild durable_write many_clients codec (default: all)
  --seed      seeds the benchmark's own generator; same seed, same inputs (default 1)
  --seconds   measure for this long (default 10)
  --slices    measure exactly N slices instead: operation counts then repeat exactly
  --trace     1 = record spans, run the probes, print the per-layer metrics (default 0)";

fn parse_args() -> Result<(Vec<String>, RunArgs), String> {
    let mut args = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        slices: None,
        trace: false,
    };
    let mut workloads: Vec<String> = NAMES.iter().map(ToString::to_string).collect();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                if !NAMES.contains(&v.as_str()) {
                    return Err(format!("unknown workload {v:?}"));
                }
                workloads = vec![v];
            }
            "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => {
                args.seconds = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--slices" => {
                let n: usize = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?;
                if n == 0 {
                    return Err("--slices must be at least 1".into());
                }
                args.slices = Some(n);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok((workloads, args))
}

/// A finished run with what the traced half adds to it.
struct Measured {
    run: RunResult,
    /// User bytes per block.
    block_bytes: usize,
    probes: Metrics,
    /// Probe time per user block below `core`, read side and write side.
    model: (Cost, Cost),
}

fn measure<W: Workload>(w: W, args: &RunArgs, rec: &mut Recorder) -> Measured {
    let mut run = workloads::run(&w, args, rec);
    let total = rec.total();
    run.counters.set(
        "transport.read_round_trips_per_op",
        total.read_round_trips as f64 / total.read_blocks.max(1) as f64,
    );
    run.counters.set(
        "transport.write_round_trips_per_op",
        total.write_round_trips as f64 / total.write_blocks.max(1) as f64,
    );
    let (probes, model) = if args.trace {
        let probes = probes::run(rec, args.seed, &journal_dir("probe"));
        let model = w.model(&probes, &run.counters);
        (probes, model)
    } else {
        Default::default()
    };
    Measured {
        run,
        block_bytes: w.block_bytes(),
        probes,
        model,
    }
}

fn measure_named(args: &RunArgs, rec: &mut Recorder) -> Measured {
    match args.workload.as_str() {
        "small_rw" => measure(
            BlockRw {
                wal_dir: None,
                blocks: 16384,
                gcs_per_slice: 8,
            },
            args,
            rec,
        ),
        // A quarter of `small_rw`'s volume: loading goes through the
        // journal, and set-up time is mostly that.
        "durable_write" => measure(
            BlockRw {
                wal_dir: Some(journal_dir("durable_write")),
                blocks: 4096,
                gcs_per_slice: 4,
            },
            args,
            rec,
        ),
        "seq_large" => measure(SeqLarge, args, rec),
        "degraded_rebuild" => measure(DegradedRebuild, args, rec),
        "many_clients" => measure(ManyClients, args, rec),
        "codec" => measure(Codec, args, rec),
        other => unreachable!("workload {other} passed parse_args"),
    }
}

/// The per-layer metrics every workload derives the same way from its
/// recorder, its probes and its model.
fn derive(rec: &Recorder, measured: &Measured, m: &mut Metrics) {
    let total = rec.total();
    m.set(
        "core.gc_us_per_write",
        total.other_ns as f64 / 1e3 / total.write_blocks.max(1) as f64,
    );
    // Bytes per microsecond is MB/s.
    m.set(
        "core.user_mb_per_s",
        (total.blocks as usize * measured.block_bytes) as f64 / (total.busy_ns as f64 / 1e3),
    );
    m.set("core.drift_frac", rec.drift_frac());
    m.set("core.read_p99_us", quantile(&rec.read_us, 0.99));
    m.set("core.write_p99_us", quantile(&rec.write_us, 0.99));
    m.set("core.read_samples", rec.read_us.len() as f64);
    m.set("core.write_samples", rec.write_us.len() as f64);
    m.set("process.trace_overhead_frac", rec.trace_overhead_frac());
    m.set("process.max_rss_mb", host::max_rss_mb());

    // Where the time of a user block goes: probe time of each crate below
    // `core` on each side, weighted by the side's blocks; `core` is what
    // remains of the two sides' time plus garbage collection. Calls that
    // belong to neither side use the same layers and are left out.
    let (read, write) = &measured.model;
    let busy_us = (total.read_ns + total.write_ns + total.other_ns) as f64 / 1e3;
    let layer = |f: fn(&Cost) -> f64| {
        (f(read) * total.read_blocks as f64 + f(write) * total.write_blocks as f64) / busy_us
    };
    let mut shares = [
        ("share.gf", layer(|c| c.gf)),
        ("share.erasure", layer(|c| c.erasure)),
        ("share.transport", layer(|c| c.transport)),
        ("share.storage", layer(|c| c.storage)),
        ("share.wal", layer(|c| c.wal)),
    ];
    // Probes run hot in cache and can add up to more than the operation
    // they model; the shares then split what there is.
    let below: f64 = shares.iter().map(|(_, s)| s).sum();
    if below > 1.0 {
        shares.iter_mut().for_each(|(_, s)| *s /= below);
    }
    for (name, share) in shares {
        m.set(name, share);
    }
    m.set("share.core", (1.0 - below).max(0.0));

    let (read_us, write_us) = (rec.read_p50_us(), rec.write_p50_us());
    m.set("core.read_self_frac", (1.0 - read.sum() / read_us).max(0.0));
    m.set(
        "core.write_self_frac",
        (1.0 - write.sum() / write_us).max(0.0),
    );
    if write.gf > 0.0 {
        m.set("core.write_kernel_ceiling_x", write_us / write.gf);
    }
    // The two protocol probes less the probes of what they call: one read
    // round trip; one swap round trip, four adds in one fan-out, and the
    // four deltas.
    let p = |name| measured.probes.get(name);
    m.set(
        "core.read_self_us",
        (p("core.read_block_us") - p("transport.call_read_4k_us")).max(0.0),
    );
    let called = p("transport.call_rtt_us")
        + p("transport.call_many4_us")
        + p("storage.handle_swap_4k_us")
        + 4.0 * (p("storage.handle_add_4k_us") + p("erasure.delta_into_buf_4k_us"));
    m.set(
        "core.write_self_us",
        (p("core.write_block_us") - called).max(0.0),
    );
}

/// Runs one workload and prints it; `false` if any output was wrong.
fn run_one(args: &RunArgs, pinned: Option<usize>) -> bool {
    let load = host::load_average();
    let mut rec = Recorder::new(args.trace);
    let usage_before = ProcUsage::now(pinned);
    let mut measured = measure_named(args, &mut rec);
    let usage = ProcUsage::now(pinned).since(&usage_before);
    let noisy = pinned.is_none() || usage.other_cpu_frac() > NOISY_OTHER_CPU;
    println!(
        "== {} seed {} {} trace {} load_avg_1m {load:.2} other_cpu_frac {:.3} noisy {noisy}",
        args.workload,
        args.seed,
        args.slices
            .map_or(format!("{} s", args.seconds), |n| format!("{n} slices")),
        u8::from(args.trace),
        usage.other_cpu_frac(),
    );

    let mut m = std::mem::take(&mut measured.run.counters);
    m.set("setup_s", measured.run.setup_s);
    m.set("ops_per_s", rec.ops_per_s());
    m.set("read_us", rec.read_p50_us());
    m.set("write_us", rec.write_p50_us());
    if args.trace {
        derive(&rec, &measured, &mut m);
        m.absorb(measured.probes);
        let cpu_s = (usage.user_s + usage.sys_s).max(1e-9);
        m.set("process.cpu_user_frac", usage.user_s / cpu_s);
        m.set("process.cpu_sys_frac", usage.sys_s / cpu_s);
        m.set(
            "transport.ctx_switches_per_op",
            usage.ctx_switches as f64 / rec.total().blocks.max(1) as f64,
        );
        m.set("process.load_avg_1m", load);
        m.set("process.other_cpu_frac", usage.other_cpu_frac());
        m.set("process.noisy", f64::from(u8::from(noisy)));
    }

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, unit, _) in table {
        println!("{name:<44} {:>16.4} {unit}", m.get(name));
    }
    let rates: Vec<String> = rec
        .slice_rates()
        .iter()
        .map(|r| format!("{r:.0}"))
        .collect();
    println!("slice ops_per_s [{}]", rates.join(" "));
    println!(
        "slices {} measured {:.2} s attempted {} failed {} dropped_spans {} op_digest {:016x}",
        rec.slices.len(),
        measured.run.measured_s,
        rec.attempted,
        rec.failed,
        rec.dropped_spans,
        rec.op_digest
    );
    if args.trace {
        let path = Path::new(OUT_DIR).join(format!("trace_{}.json", args.workload));
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, rec.trace_json(&args.workload, args.seed)));
        match written {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }

    // An end-to-end metric that reads 0 measured nothing.
    let (json, finite) = m.to_json(table);
    let measured_all = args.trace || END_TO_END.iter().all(|(name, ..)| m.get(name) > 0.0);
    let correct = rec.failed == 0 && finite && measured_all;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {json}}}",
        rec.attempted.max(1),
        rec.failed
    );
    correct
}

fn main() -> ExitCode {
    // Counted before pinning, which leaves one. Pinned before any other
    // thread exists: threads inherit the mask.
    let nproc = host::nproc();
    let pinned = host::pin_to_one_cpu();
    let (workloads, mut args) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "host {} nproc {} cpu \"{}\" pinned_cpu {} gf_backend {} commit {}",
        host::hostname(),
        nproc,
        host::cpu_model(),
        pinned.map_or("none".to_string(), |c| c.to_string()),
        ajx_gf::kernel::active_backend().name(),
        host::git_commit(),
    );
    let mut ok = true;
    for w in workloads {
        args.workload = w;
        ok &= run_one(&args, pinned);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
