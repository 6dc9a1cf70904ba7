//! Every metric the benchmark prints, by name and unit, in print order.
//! `BENCHMARK.json` lists the same names; `tests/contract.rs` keeps the two
//! in step.

use std::collections::BTreeMap;

/// Name, unit, and whether `"higher"` or `"lower"` is better. The code
/// never acts on the direction; `BENCHMARK.json` must state it.
pub type Metric = (&'static str, &'static str, &'static str);

/// What a user of the store sees. Every workload reports all four: the
/// driver reads every end-to-end metric from every run and none may be 0.
///
/// All are per *user block*: `ops_per_s` is user blocks read, written or
/// restored per second of busy time (garbage collection included),
/// `read_us` / `write_us` the median time one block costs on the workload's
/// read side and write side (README: "Sides").
pub const END_TO_END: &[Metric] = &[
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("read_us", "us", "lower"),
    ("write_us", "us", "lower"),
];

/// Single layers, measured from outside: counters read at the benchmark's
/// own call boundaries, and probes that call one layer's public functions
/// with the shapes the workloads use. A metric a workload has no use for
/// reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    // gf: kernel probes, source bytes per second.
    ("gf.delta_into_4k_gb_s", "GB/s", "higher"),
    ("gf.delta_into_64k_gb_s", "GB/s", "higher"),
    ("gf.mul_add_assign_16k_gb_s", "GB/s", "higher"),
    ("gf.mul_add_multi_64k_gb_s", "GB/s", "higher"),
    ("gf.mul_add_multi16_64k_gb_s", "GB/s", "higher"),
    // erasure: one call each on the workloads' code shapes.
    ("erasure.encode_rs_64k_us", "us", "lower"),
    ("erasure.decode_rs_64k_us", "us", "lower"),
    ("erasure.wide_encode_64k_us", "us", "lower"),
    ("erasure.lrc_encode_64k_us", "us", "lower"),
    ("erasure.delta_into_buf_4k_us", "us", "lower"),
    ("erasure.plan_decode_miss_us", "us", "lower"),
    ("erasure.plan_cache_hit_us", "us", "lower"),
    ("erasure.repair_plan_us", "us", "lower"),
    ("erasure.repair_reconstruct_16k_us", "us", "lower"),
    ("erasure.plan_cache_entries", "count", "lower"),
    // transport: null round trips by fan-out, then the workload's counters.
    ("transport.call_rtt_us", "us", "lower"),
    ("transport.call_read_4k_us", "us", "lower"),
    ("transport.call_many4_us", "us", "lower"),
    ("transport.call_many8_us", "us", "lower"),
    ("transport.call_many16_us", "us", "lower"),
    ("transport.submit_poll_rtt_us", "us", "lower"),
    ("transport.round_trips_per_op", "count", "lower"),
    ("transport.read_round_trips_per_op", "count", "lower"),
    ("transport.write_round_trips_per_op", "count", "lower"),
    ("transport.msgs_per_op", "count", "lower"),
    ("transport.bytes_sent_per_op", "B", "lower"),
    ("transport.wire_bytes_per_user_byte", "B/B", "lower"),
    ("transport.payload_frac", "frac", "higher"),
    ("transport.ctx_switches_per_op", "count", "lower"),
    ("transport.busy_shed", "count", "lower"),
    ("transport.inflight_peak", "count", "higher"),
    // storage: one request each on a stand-alone node, then counters.
    ("storage.handle_read_4k_us", "us", "lower"),
    ("storage.handle_swap_4k_us", "us", "lower"),
    ("storage.handle_add_4k_us", "us", "lower"),
    ("storage.handle_read_64k_us", "us", "lower"),
    ("storage.handle_swap_64k_us", "us", "lower"),
    ("storage.handle_batch48_add_64k_us", "us", "lower"),
    ("storage.handle_getstate_16k_us", "us", "lower"),
    ("storage.handle_reconstruct_16k_us", "us", "lower"),
    ("storage.ops_handled_per_op", "count", "lower"),
    ("storage.contended_shard_locks", "count", "lower"),
    ("storage.lock_ops", "count", "lower"),
    ("storage.metadata_bytes_per_block", "B", "lower"),
    ("storage.media_writes_per_write", "count", "lower"),
    // wal: the journal on the checkout's disk.
    ("wal.append_4k_us", "us", "lower"),
    ("wal.commit_us", "us", "lower"),
    ("wal.fsyncs_per_write", "count", "lower"),
    ("wal.bytes_per_user_byte", "B/B", "lower"),
    ("wal.restart_s", "s", "lower"),
    ("wal.replay_mb_per_s", "MB/s", "higher"),
    // core: the client protocol.
    ("core.read_block_us", "us", "lower"),
    ("core.write_block_us", "us", "lower"),
    ("core.read_self_us", "us", "lower"),
    ("core.write_self_us", "us", "lower"),
    ("core.gc_us_per_write", "us", "lower"),
    ("core.read_self_frac", "frac", "lower"),
    ("core.write_self_frac", "frac", "lower"),
    ("core.write_kernel_ceiling_x", "x", "lower"),
    ("core.rebuild_mb_per_s", "MB/s", "higher"),
    ("core.repair_bytes_per_lost_block", "B", "lower"),
    ("core.rebuild_round_trips_per_lost_block", "count", "lower"),
    ("core.user_mb_per_s", "MB/s", "higher"),
    ("core.drift_frac", "frac", "lower"),
    ("core.read_p99_us", "us", "lower"),
    ("core.write_p99_us", "us", "lower"),
    ("core.read_samples", "count", "higher"),
    ("core.write_samples", "count", "higher"),
    // share: where a user block's time goes, by crate (a model, see README).
    ("share.gf", "frac", "higher"),
    ("share.erasure", "frac", "lower"),
    ("share.transport", "frac", "lower"),
    ("share.storage", "frac", "lower"),
    ("share.wal", "frac", "lower"),
    ("share.core", "frac", "lower"),
    // process
    ("process.cpu_user_frac", "frac", "higher"),
    ("process.cpu_sys_frac", "frac", "lower"),
    ("process.max_rss_mb", "MB", "lower"),
    ("process.trace_overhead_frac", "frac", "lower"),
    ("process.load_avg_1m", "count", "lower"),
    ("process.other_cpu_frac", "frac", "lower"),
    ("process.noisy", "count", "lower"),
];

/// Values by metric name. Setting a name outside the tables is a bug in
/// the benchmark and panics, so no metric is printed that
/// `BENCHMARK.json` does not declare.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, ..)| *n == name),
            "metric {name} is not declared"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn absorb(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` over `table`, in table
    /// order. A value that is not finite cannot be printed as JSON: it
    /// reads 0 and the second result is `false`.
    pub fn to_json(&self, table: &[Metric]) -> (String, bool) {
        let mut finite = true;
        let fields: Vec<String> = table
            .iter()
            .map(|(name, unit, _)| {
                let mut v = self.get(name);
                if !v.is_finite() {
                    finite = false;
                    v = 0.0;
                }
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        (format!("{{{}}}", fields.join(", ")), finite)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(matches!(*better, "higher" | "lower"));
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `BENCHMARK.json` declares exactly these metrics, in this order, with
    /// these units and directions, and a bound for each end-to-end one.
    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str, end: &str| {
            let from = json.find(&format!("\"{key}\": [")).expect(key);
            let len = json[from..].find(end).expect("section end");
            json[from..from + len].to_string()
        };
        for (table, key, end) in [
            (END_TO_END, "end_to_end", "\"per_layer\""),
            (PER_LAYER, "per_layer", "\n}"),
        ] {
            let declared: Vec<String> = section(key, end)
                .lines()
                .filter(|l| l.contains("\"name\""))
                .map(|l| l.trim().trim_end_matches(',').to_string())
                .collect();
            assert_eq!(declared.len(), table.len(), "{key}: count");
            for ((name, unit, better), line) in table.iter().zip(&declared) {
                let head = format!(
                    "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\""
                );
                assert!(line.starts_with(&head), "{key}: {line} should start {head}");
                assert_eq!(line.contains("\"bound\""), key == "end_to_end", "{line}");
            }
        }
        for name in crate::workloads::NAMES {
            assert!(section("workloads", "\"end_to_end\"")
                .contains(&format!("{{\"name\": \"{name}\", \"why\"")));
        }
    }

    #[test]
    fn json_keeps_table_order_and_flags_non_finite_values() {
        let mut m = Metrics::default();
        m.set("ops_per_s", 2.5);
        m.set("setup_s", f64::NAN);
        let (json, finite) = m.to_json(&END_TO_END[..2]);
        assert!(!finite);
        assert_eq!(
            json,
            "{\"setup_s\": {\"value\": 0, \"unit\": \"s\"}, \"ops_per_s\": {\"value\": 2.5, \"unit\": \"1/s\"}}"
        );
    }
}
