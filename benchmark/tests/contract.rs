//! Runs the built benchmark as the driver does and checks what it prints.
//! Run with `cargo test --release` inside `benchmark/`: a debug build of
//! the program makes these runs several times longer.
//!
//! `--slices N` measures a fixed number of slices instead of a number of
//! seconds, so that counts repeat exactly.

use std::process::Command;

const WORKLOADS: [&str; 6] = [
    "small_rw",
    "seq_large",
    "degraded_rebuild",
    "durable_write",
    "many_clients",
    "codec",
];

struct Run {
    stdout: String,
}

impl Run {
    /// The last line: the JSON result.
    fn json(&self) -> &str {
        self.stdout.lines().last().expect("a result line")
    }

    /// The value of `name` in the JSON result.
    fn metric(&self, name: &str) -> f64 {
        let key = format!("\"{name}\": {{\"value\": ");
        let from = self
            .json()
            .find(&key)
            .unwrap_or_else(|| panic!("{name} not in {}", self.json()))
            + key.len();
        let rest = &self.json()[from..];
        rest[..rest.find(',').expect("value ends")]
            .parse()
            .expect("a number")
    }

    fn has_metric(&self, name: &str) -> bool {
        self.json().contains(&format!("\"{name}\": {{\"value\": "))
    }

    /// A word of the `slices ... op_digest ...` footer line.
    fn footer(&self, key: &str) -> String {
        let line = self
            .stdout
            .lines()
            .find(|l| l.starts_with("slices "))
            .expect("footer line");
        let mut words = line.split_whitespace();
        words.find(|w| *w == key).expect(key);
        words.next().expect("value").to_string()
    }
}

fn run(workload: &str, seed: u64, trace: u8) -> Run {
    // From the repository root, as the driver runs it: journals and traces
    // go to benchmark/out there.
    let output = Command::new(env!("CARGO_BIN_EXE_ajx-benchmark"))
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--slices",
            "1",
            "--trace",
            &trace.to_string(),
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(output.status.success(), "{workload} failed:\n{stdout}");
    Run { stdout }
}

/// Names and units as `BENCHMARK.json` declares them, for one section.
fn declared(section: &str) -> Vec<(String, String)> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json");
    let from = json.find(&format!("\"{section}\": [")).expect(section);
    let body = &json[from..];
    let body = &body[..body.find("\n  ]").expect("section end")];
    body.lines()
        .filter_map(|l| {
            let field = |key: &str| {
                let k = format!("\"{key}\": \"");
                let at = l.find(&k)? + k.len();
                Some(l[at..at + l[at..].find('"')?].to_string())
            };
            Some((field("name")?, field("unit")?))
        })
        .collect()
}

/// The counts that must repeat exactly when the seed and the number of
/// slices are the same: they depend on the operation sequence alone.
const EXACT: [&str; 9] = [
    "transport.round_trips_per_op",
    "transport.read_round_trips_per_op",
    "transport.write_round_trips_per_op",
    "transport.msgs_per_op",
    "transport.bytes_sent_per_op",
    "transport.wire_bytes_per_user_byte",
    "storage.ops_handled_per_op",
    "core.read_samples",
    "core.write_samples",
];

#[test]
fn same_seed_same_operations_and_counts_other_seed_other_operations() {
    let (a, b, other) = (
        run("small_rw", 7, 1),
        run("small_rw", 7, 1),
        run("small_rw", 8, 1),
    );
    assert_eq!(a.footer("op_digest"), b.footer("op_digest"));
    assert_eq!(a.footer("attempted"), b.footer("attempted"));
    for name in EXACT {
        assert_eq!(a.metric(name), b.metric(name), "{name}");
    }
    assert_ne!(a.footer("op_digest"), other.footer("op_digest"));
}

#[test]
fn untraced_run_prints_exactly_the_end_to_end_metrics() {
    let run = run("codec", 1, 0);
    assert!(run
        .json()
        .starts_with("{\"correct\": true, \"attempted\": "));
    let declared = declared("end_to_end");
    assert_eq!(declared.len(), 4);
    for (name, unit) in &declared {
        assert!(run.metric(name) > 0.0, "{name} reads 0");
        assert!(run.json().contains(&format!("\"unit\": \"{unit}\"")));
    }
    assert_eq!(run.json().matches("\"value\"").count(), declared.len());
    assert!(!run.has_metric("share.gf"));
}

/// Every workload runs traced, checks its outputs, prints every per-layer
/// metric and no other, and its shares of the time add up.
#[test]
fn every_workload_runs_traced_and_its_shares_add_up() {
    let declared = declared("per_layer");
    for workload in WORKLOADS {
        let run = run(workload, 3, 1);
        assert!(
            run.json().starts_with("{\"correct\": true"),
            "{workload}: {}",
            run.json()
        );
        assert_eq!(run.footer("failed"), "0", "{workload}");
        for (name, _) in &declared {
            assert!(run.has_metric(name), "{workload} does not print {name}");
        }
        assert_eq!(
            run.json().matches("\"value\"").count(),
            declared.len(),
            "{workload}"
        );
        let shares: Vec<f64> = declared
            .iter()
            .filter(|(name, _)| name.starts_with("share."))
            .map(|(name, _)| run.metric(name))
            .collect();
        assert_eq!(shares.len(), 6);
        assert!(
            (shares.iter().sum::<f64>() - 1.0).abs() <= 0.02,
            "{workload}: shares {shares:?}"
        );
        assert!(
            shares.iter().all(|&s| s >= 0.0),
            "{workload}: shares {shares:?}"
        );
        let trace = format!("{}/out/trace_{workload}.json", env!("CARGO_MANIFEST_DIR"));
        assert!(
            std::fs::metadata(&trace).is_ok_and(|m| m.len() > 0),
            "{trace} missing"
        );
        // Zero wherever no recovery runs, and across degraded reads too.
        assert_eq!(run.metric("storage.lock_ops"), 0.0, "{workload}");
    }
}
