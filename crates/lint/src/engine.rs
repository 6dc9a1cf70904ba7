//! Scoping, allowlist resolution, and reporting.
//!
//! The engine decides which rules run on which files (scopes are
//! workspace-relative path prefixes), resolves `// LINT-ALLOW(rule:
//! reason)` escape hatches against raw findings, and flags stale or
//! malformed allows so the allowlist can never rot silently.

use crate::ast::FileModel;
use crate::rules::{self, RawFinding};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;

/// Every rule id the tool knows, in report order.
pub const RULES: &[&str] = &[
    "determinism",
    "panic-free",
    "safety-comment",
    "lock-order",
    "lint-allow",
];

/// Crates/paths reachable from the seeded chaos, power-loss, and
/// fault-plan machinery, where byte-identical replay is asserted. The
/// cluster's `workload.rs`/`harness.rs` and `transport/src/bucket.rs`
/// measure real elapsed time by design and stay out of scope; the
/// transport's `network.rs` uses the wall clock only for deadline pacing,
/// which the deterministic fault plan fates before timing matters.
const DETERMINISM_SCOPE: &[&str] = &[
    "crates/gf/src/",
    "crates/erasure/src/",
    "crates/storage/src/",
    "crates/consistency/src/",
    "crates/sim/src/",
    "crates/transport/src/fault.rs",
    "crates/cluster/src/chaos.rs",
    "crates/cluster/src/powerloss.rs",
];

/// Node request-handling and WAL-replay paths: a panic here is an
/// un-modeled node failure (§3.5 recovery never observes it).
const PANIC_FREE_SCOPE: &[&str] = &[
    "crates/storage/src/node.rs",
    "crates/storage/src/state.rs",
    "crates/storage/src/shard.rs",
    "crates/storage/src/persist.rs",
    "crates/transport/src/network.rs",
];

/// Everything under `crates/` must keep `unsafe` documented; vendored
/// `shims/` are third-party-shaped and all `#![forbid(unsafe_code)]`.
const SAFETY_SCOPE: &[&str] = &["crates/"];

/// The sharded node: all shard-lock acquisitions route through the
/// ascending-order helpers that feed the lock-order watchdog.
const LOCK_ORDER_FILE: &str = "crates/storage/src/shard.rs";
const LOCK_ORDER_FIELD: &str = "shards";
const LOCK_ORDER_HELPERS: &[&str] = &["lock_shard", "lock_all_shards"];

/// A resolved finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id.
    pub rule: String,
    /// Description.
    pub msg: String,
}

/// The result of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Files scanned.
    pub files_scanned: usize,
    /// Findings that survived allowlist resolution (the gate fails on any).
    pub findings: Vec<Finding>,
    /// Used `LINT-ALLOW` count per rule.
    pub allows: BTreeMap<String, u32>,
    /// Finding count per rule (post-allowlist).
    pub finding_counts: BTreeMap<String, u32>,
}

impl Report {
    /// Whether the tree is clean (zero unallowed findings).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Total used allows across rules.
    pub fn total_allows(&self) -> u32 {
        self.allows.values().sum()
    }

    /// Stable machine-readable summary (one line per rule + total), the
    /// format `tools/lint_baseline.sh` diffs against.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for rule in RULES {
            let f = self.finding_counts.get(*rule).copied().unwrap_or(0);
            let a = self.allows.get(*rule).copied().unwrap_or(0);
            out.push_str(&format!("rule {rule} findings {f} allows {a}\n"));
        }
        out.push_str(&format!(
            "total findings {} allows {}\n",
            self.findings.len(),
            self.total_allows()
        ));
        out
    }
}

/// One parsed `LINT-ALLOW(rule: reason)` escape hatch.
#[derive(Debug)]
struct Allow {
    rule: String,
    line: u32,
    end_line: u32,
    used: bool,
    malformed: Option<String>,
}

/// The content of a plain (non-doc) `//` line comment, or `None` for doc
/// comments and block comments.
fn plain_line_comment(text: &str) -> Option<&str> {
    let rest = text.trim_start().strip_prefix("//")?;
    if rest.starts_with('/') || rest.starts_with('!') {
        return None;
    }
    Some(rest)
}

/// Parses one directive body (the text after `LINT-ALLOW`) into an
/// [`Allow`]. A directive must be a plain comment (or run of plain `//`
/// comments) whose content *starts* with `LINT-ALLOW` — doc comments and
/// prose that merely mention the syntax are not directives.
fn parse_directive(rest: &str, line: u32, end_line: u32) -> Allow {
    let make = |rule: &str, malformed: Option<String>| Allow {
        rule: rule.to_owned(),
        line,
        end_line,
        used: false,
        malformed,
    };
    let Some(open) = rest.strip_prefix('(') else {
        return make("", Some("missing `(rule: reason)`".to_owned()));
    };
    let Some(close) = open.find(')') else {
        return make("", Some("unterminated `(`".to_owned()));
    };
    let body = &open[..close];
    let (rule, reason) = match body.split_once(':') {
        Some((r, why)) => (r.trim(), why.trim()),
        None => (body.trim(), ""),
    };
    let malformed = if !RULES.contains(&rule) {
        Some(format!("unknown rule `{rule}`"))
    } else if reason.is_empty() {
        Some("missing reason — write `LINT-ALLOW(rule: why this is sound)`".to_owned())
    } else {
        None
    };
    make(rule, malformed)
}

/// Finds every `LINT-ALLOW` directive in the file. Contiguous runs of
/// plain `//` lines are treated as one logical comment, so a directive
/// may wrap across lines; it must start its run.
fn parse_allows(model: &FileModel) -> Vec<Allow> {
    let mut allows = Vec::new();
    let comments = &model.comments;
    let mut i = 0;
    while i < comments.len() {
        let c = &comments[i];
        if let Some(first) = plain_line_comment(&c.text) {
            // Merge the contiguous run of plain `//` lines.
            let mut text = first.trim().to_owned();
            let mut end = c.end_line;
            let mut j = i + 1;
            while let Some(n) = comments.get(j) {
                match plain_line_comment(&n.text) {
                    Some(b) if n.line == end + 1 => {
                        text.push(' ');
                        text.push_str(b.trim());
                        end = n.end_line;
                        j += 1;
                    }
                    _ => break,
                }
            }
            if let Some(rest) = text.strip_prefix("LINT-ALLOW") {
                allows.push(parse_directive(rest, c.line, end));
            }
            i = j;
        } else {
            // Block comment (doc styles excluded inside the helper).
            let t = c.text.trim_start();
            if let Some(body) = t.strip_prefix("/*") {
                if !body.starts_with('*') && !body.starts_with('!') {
                    let content = body.trim_end().trim_end_matches("*/").trim();
                    if let Some(rest) = content.strip_prefix("LINT-ALLOW") {
                        allows.push(parse_directive(rest, c.line, c.end_line));
                    }
                }
            }
            i += 1;
        }
    }
    allows
}

/// The source line where the statement containing `line`'s first token
/// begins — found by walking back to the nearest statement boundary
/// (`;`, `{`, `}`, or a match-arm/argument `,`). Lets an allow written
/// above a multi-line statement suppress a finding on a continuation
/// line.
fn statement_start_line(model: &FileModel, line: u32) -> u32 {
    let Some(first) = model.tokens.iter().position(|t| t.line == line) else {
        return line;
    };
    let mut i = first;
    while i > 0 {
        let t = &model.tokens[i - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') || t.is_punct(',') {
            break;
        }
        i -= 1;
    }
    model.tokens.get(i).map_or(line, |t| t.line)
}

/// Whether `path` is inside any of the scope prefixes.
fn in_scope(path: &str, scope: &[&str]) -> bool {
    scope.iter().any(|s| path.starts_with(s))
}

/// Lints a set of `(workspace-relative path, contents)` files.
///
/// This is the whole pipeline: model, per-file rules by scope, allowlist
/// resolution, stale-allow detection.
pub fn lint_files(files: &[(String, String)]) -> Report {
    let models: HashMap<String, FileModel> = files
        .iter()
        .map(|(p, src)| (p.clone(), FileModel::parse(p, src)))
        .collect();

    // Raw findings per file.
    let mut raw: Vec<(String, RawFinding)> = Vec::new();
    for (path, model) in &models {
        if in_scope(path, DETERMINISM_SCOPE) {
            let mut out = Vec::new();
            rules::determinism(model, &mut out);
            raw.extend(out.into_iter().map(|f| (path.clone(), f)));
        }
        if in_scope(path, PANIC_FREE_SCOPE) {
            let mut out = Vec::new();
            rules::panic_free(model, true, &mut out);
            raw.extend(out.into_iter().map(|f| (path.clone(), f)));
        }
        if in_scope(path, SAFETY_SCOPE) {
            let mut out = Vec::new();
            rules::safety_comment(model, &mut out);
            if path.starts_with("crates/") && path.ends_with("/src/lib.rs") {
                rules::unsafe_policy_attr(model, &mut out);
            }
            raw.extend(out.into_iter().map(|f| (path.clone(), f)));
        }
        if path.ends_with(LOCK_ORDER_FILE) || path == LOCK_ORDER_FILE {
            let mut out = Vec::new();
            rules::lock_order(model, LOCK_ORDER_FIELD, LOCK_ORDER_HELPERS, &mut out);
            raw.extend(out.into_iter().map(|f| (path.clone(), f)));
        }
    }

    // Allowlist resolution.
    let mut allows_by_file: HashMap<&str, Vec<Allow>> = models
        .keys()
        .map(|p| (p.as_str(), parse_allows(&models[p])))
        .collect();
    let mut report = Report {
        files_scanned: models.len(),
        ..Report::default()
    };
    for rule in RULES {
        report.finding_counts.insert((*rule).to_owned(), 0);
        report.allows.insert((*rule).to_owned(), 0);
    }
    for (path, f) in raw {
        let model = &models[&path];
        let allows = allows_by_file
            .get_mut(path.as_str())
            .expect("every raw finding comes from a modeled file");
        // An allow suppresses the finding if a well-formed LINT-ALLOW for
        // this rule is attached to the finding's line or to the first line
        // of its enclosing statement (same line, or the run of comment-only
        // lines directly above).
        let mut anchors = vec![f.line];
        let stmt = statement_start_line(model, f.line);
        if stmt != f.line {
            anchors.push(stmt);
        }
        let attached: Vec<(u32, u32)> = anchors
            .iter()
            .flat_map(|&l| model.comments_attached_to_line(l))
            .map(|c| (c.line, c.end_line))
            .collect();
        let mut suppressed = false;
        for a in allows.iter_mut() {
            if a.malformed.is_none()
                && a.rule == f.rule
                && attached.iter().any(|&(s, e)| s >= a.line && e <= a.end_line)
            {
                a.used = true;
                suppressed = true;
                break;
            }
        }
        if suppressed {
            *report.allows.get_mut(f.rule).expect("rule key pre-seeded") += 1;
        } else {
            *report
                .finding_counts
                .get_mut(f.rule)
                .expect("rule key pre-seeded") += 1;
            report.findings.push(Finding {
                path: path.clone(),
                line: f.line,
                rule: f.rule.to_owned(),
                msg: f.msg,
            });
        }
    }
    // Stale and malformed allows are findings: the allowlist must never
    // outlive the violation it was written for.
    for (path, allows) in allows_by_file {
        for a in allows {
            if let Some(why) = a.malformed {
                report.findings.push(Finding {
                    path: path.to_owned(),
                    line: a.line,
                    rule: "lint-allow".to_owned(),
                    msg: format!("malformed LINT-ALLOW: {why}"),
                });
                *report
                    .finding_counts
                    .get_mut("lint-allow")
                    .expect("rule key pre-seeded") += 1;
            } else if !a.used {
                report.findings.push(Finding {
                    path: path.to_owned(),
                    line: a.line,
                    rule: "lint-allow".to_owned(),
                    msg: format!(
                        "stale LINT-ALLOW({}): it suppresses nothing — delete it",
                        a.rule
                    ),
                });
                *report
                    .finding_counts
                    .get_mut("lint-allow")
                    .expect("rule key pre-seeded") += 1;
            }
        }
    }
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    report
}

/// Lints the workspace rooted at `root`: every `.rs` file under
/// `root/crates/`, excluding build output and the lint fixtures (which
/// contain deliberate violations).
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    walk(&root.join("crates"), root, &mut files)?;
    files.sort();
    let loaded: Vec<(String, String)> = files
        .into_iter()
        .map(|rel| {
            let src = std::fs::read_to_string(root.join(&rel))?;
            Ok((rel, src))
        })
        .collect::<std::io::Result<_>>()?;
    Ok(lint_files(&loaded))
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" {
                continue;
            }
            walk(&path, root, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_one(path: &str, src: &str) -> Report {
        lint_files(&[(path.to_owned(), src.to_owned())])
    }

    #[test]
    fn scoping_limits_rules_to_their_paths() {
        let src = "fn f() { let t = Instant::now(); }";
        let hit = run_one("crates/storage/src/clock.rs", src);
        assert_eq!(hit.finding_counts["determinism"], 1);
        let miss = run_one("crates/bench/src/lib.rs", src);
        assert_eq!(miss.finding_counts["determinism"], 0);
    }

    #[test]
    fn allow_suppresses_and_is_counted() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    // LINT-ALLOW(panic-free: proven Some by caller)\n    x.unwrap()\n}";
        let r = run_one("crates/storage/src/node.rs", src);
        assert!(r.is_clean(), "{:?}", r.findings);
        assert_eq!(r.allows["panic-free"], 1);
    }

    #[test]
    fn stale_allow_is_a_finding() {
        let src = "// LINT-ALLOW(panic-free: nothing here)\nfn f() {}\n";
        let r = run_one("crates/storage/src/state.rs", src);
        assert_eq!(r.finding_counts["lint-allow"], 1);
        assert!(r.findings.iter().any(|f| f.msg.contains("stale")));
    }

    #[test]
    fn malformed_allow_is_a_finding() {
        let src = "fn f(x: Option<u8>) {\n    // LINT-ALLOW(panic-free)\n    x.unwrap();\n}";
        let r = run_one("crates/storage/src/state.rs", src);
        assert!(r
            .findings
            .iter()
            .any(|f| f.rule == "lint-allow" && f.msg.contains("missing reason")));
        // And the unwrap is NOT suppressed by the malformed allow.
        assert_eq!(r.finding_counts["panic-free"], 1);
    }

    #[test]
    fn summary_is_stable_shape() {
        let r = run_one("crates/gf/src/x.rs", "fn ok() {}");
        let s = r.summary();
        assert!(s.contains("rule determinism findings 0 allows 0"));
        assert!(s.ends_with("total findings 0 allows 0\n"));
    }
}
