//! Fixture-driven rule tests plus the self-run gate: the committed
//! workspace must be lint-clean, with the allowlist pinned so a new
//! `LINT-ALLOW` cannot slip in unreviewed.

use ajx_lint::{lint_files, lint_workspace, Report};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lints one fixture under a synthetic in-scope path.
fn lint_fixture(as_path: &str, name: &str) -> Report {
    lint_files(&[(as_path.to_owned(), fixture(name))])
}

fn rule_lines(report: &Report, rule: &str) -> Vec<u32> {
    report
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn determinism_fixture() {
    let r = lint_fixture("crates/sim/src/fixture.rs", "determinism.rs");
    let lines = rule_lines(&r, "determinism");
    assert_eq!(lines.len(), 3, "three ambient clock/entropy uses: {r:?}");
    // Seeded rng, string literals, and #[cfg(test)] code stay silent.
    assert_eq!(r.finding_counts["determinism"], 3);
}

#[test]
fn determinism_out_of_scope_is_silent() {
    let r = lint_fixture("crates/cluster/src/workload.rs", "determinism.rs");
    assert_eq!(
        r.finding_counts["determinism"], 0,
        "bench harness timing is out of the determinism scope"
    );
}

#[test]
fn panic_free_fixture() {
    let r = lint_fixture("crates/storage/src/state.rs", "panic_free.rs");
    let lines = rule_lines(&r, "panic-free");
    assert_eq!(
        lines.len(),
        6,
        "unwrap, expect, panic!, unreachable!, todo!, indexing: {r:?}"
    );
    // The two LINT-ALLOW'd sites count as allows, not findings.
    assert_eq!(r.allows["panic-free"], 2);
    // Test-module unwraps are ignored entirely.
    assert_eq!(r.finding_counts["lint-allow"], 0, "no stale allows: {r:?}");
}

#[test]
fn safety_fixture() {
    let r = lint_fixture("crates/gf/src/kernel/fixture.rs", "safety.rs");
    let lines = rule_lines(&r, "safety-comment");
    assert_eq!(
        lines.len(),
        2,
        "one undocumented block + one undocumented fn: {r:?}"
    );
}

#[test]
fn lock_order_fixture() {
    let r = lint_fixture("crates/storage/src/shard.rs", "lock_order.rs");
    let lines = rule_lines(&r, "lock-order");
    assert_eq!(
        lines.len(),
        2,
        "direct lock + direct try_lock outside the helpers: {r:?}"
    );
}

#[test]
fn workspace_is_clean_with_pinned_allowlist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate lives at <root>/crates/lint");
    let report = lint_workspace(root).expect("walk workspace");
    assert!(
        report.files_scanned > 50,
        "workspace walk found only {} files — wrong root?",
        report.files_scanned
    );
    assert!(
        report.is_clean(),
        "committed tree must be lint-clean:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("{}:{}: [{}] {}", f.path, f.line, f.rule, f.msg))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The allowlist is pinned per rule: a new LINT-ALLOW (or a deleted
    // one) must update this test, making every escape hatch reviewable.
    let pin = |rule: &str| report.allows.get(rule).copied().unwrap_or(0);
    assert_eq!(pin("determinism"), 0);
    assert_eq!(pin("panic-free"), 7, "allows: {:?}", report.allows);
    assert_eq!(pin("safety-comment"), 0);
    assert_eq!(pin("lock-order"), 0);
}
