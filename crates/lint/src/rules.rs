//! The rule implementations.
//!
//! Each rule is a pure function from a [`FileModel`] (or a set of them) to
//! raw findings; scoping — which files each rule runs on — lives in
//! [`crate::engine`], and `LINT-ALLOW` resolution happens there too, so
//! rules never need to know about the allowlist.

use crate::ast::FileModel;
use crate::lexer::{Tok, Token};

/// A finding before allowlist resolution: rule id, line, and message.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// Stable rule identifier (used in `LINT-ALLOW(<rule>: …)`).
    pub rule: &'static str,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description of the violation.
    pub msg: String,
}

fn finding(rule: &'static str, line: u32, msg: String) -> RawFinding {
    RawFinding { rule, line, msg }
}

// ---------------------------------------------------------------------------
// Rule 1: determinism

/// Identifier patterns that read ambient wall-clock time or entropy —
/// poison for the byte-identical-trace contract of the chaos, power-loss,
/// and fault-plan machinery.
const CLOCK_AND_ENTROPY: &[(&[&str], &str)] = &[
    (&["Instant", "now"], "`Instant::now` reads the wall clock"),
    (&["SystemTime"], "`SystemTime` reads the wall clock"),
    (&["thread_rng"], "`thread_rng` draws ambient entropy"),
    (&["from_entropy"], "`from_entropy` seeds from ambient entropy"),
    (&["rand", "random"], "`rand::random` draws ambient entropy"),
];

/// No wall-clock or ambient-entropy reads in deterministic-replay code:
/// the seeded chaos/power-loss harnesses assert byte-identical traces
/// across runs, which a single `Instant::now` or `thread_rng` silently
/// breaks.
pub fn determinism(m: &FileModel, out: &mut Vec<RawFinding>) {
    let toks = &m.tokens;
    let mut in_use = false;
    for i in 0..toks.len() {
        // Importing a name is not using it: skip `use …;` declarations so
        // a shared import list doesn't double-report every call site.
        if toks[i].is_ident("use") {
            in_use = true;
        } else if in_use {
            if toks[i].is_punct(';') {
                in_use = false;
            }
            continue;
        }
        if m.is_test_code(i) {
            continue;
        }
        for (pat, why) in CLOCK_AND_ENTROPY {
            if matches_path(toks, i, pat) {
                out.push(finding(
                    "determinism",
                    toks[i].line,
                    format!("{why}; deterministic-replay code must take time/randomness from its seeded plan"),
                ));
            }
        }
    }
}

/// Whether the identifier path `pat` (segments separated by `::`) starts at
/// token `i`.
fn matches_path(toks: &[Token], i: usize, pat: &[&str]) -> bool {
    let mut at = i;
    for (seg_idx, seg) in pat.iter().enumerate() {
        if !toks.get(at).is_some_and(|t| t.is_ident(seg)) {
            return false;
        }
        at += 1;
        if seg_idx + 1 < pat.len() {
            if !(toks.get(at).is_some_and(|t| t.is_punct(':'))
                && toks.get(at + 1).is_some_and(|t| t.is_punct(':')))
            {
                return false;
            }
            at += 2;
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Rule 2: panic-freedom

/// Rust keywords that may directly precede a `[` without forming an index
/// expression (`let [a, b] = …`, `if [x] == …`, …).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "if", "while", "match", "return", "else", "move", "static",
    "const", "break", "continue", "for", "where", "as", "dyn", "impl", "fn", "use", "pub",
];

/// No panics on node request-handling and WAL-replay paths: a panic there
/// is an un-modeled node failure the §3.5 recovery protocol never sees.
/// Flags `.unwrap()`, `.expect(…)`, the panicking macros, and (when
/// `check_indexing`) slice/array index expressions, which panic out of
/// bounds.
pub fn panic_free(m: &FileModel, check_indexing: bool, out: &mut Vec<RawFinding>) {
    let toks = &m.tokens;
    for i in 0..toks.len() {
        if m.is_test_code(i) {
            continue;
        }
        let t = &toks[i];
        if let Some(id) = t.ident() {
            match id {
                "unwrap" | "expect"
                    if i > 0
                        && toks[i - 1].is_punct('.')
                        && toks.get(i + 1).is_some_and(|n| n.is_punct('(')) =>
                {
                    out.push(finding(
                        "panic-free",
                        t.line,
                        format!("`.{id}()` panics on the request/replay path; return an error or recover instead"),
                    ));
                }
                "panic" | "unreachable" | "todo" | "unimplemented"
                    if toks.get(i + 1).is_some_and(|n| n.is_punct('!')) =>
                {
                    out.push(finding(
                        "panic-free",
                        t.line,
                        format!("`{id}!` on the request/replay path is an un-modeled node failure"),
                    ));
                }
                _ => {}
            }
        } else if check_indexing && t.is_punct('[') && i > 0 {
            let indexes = match &toks[i - 1].kind {
                Tok::Ident(id) => !NON_INDEX_KEYWORDS.contains(&id.as_str()),
                Tok::Punct(')') | Tok::Punct(']') => true,
                _ => false,
            };
            if indexes {
                out.push(finding(
                    "panic-free",
                    t.line,
                    "index expression panics out of bounds; use `.get()` or prove the bound with a LINT-ALLOW"
                        .to_owned(),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 3: unsafe hygiene

/// Every `unsafe` block, fn, or impl must carry a `// SAFETY:` comment
/// stating the invariant that makes it sound, and every crate root must
/// pin its unsafe policy with `#![forbid(unsafe_code)]` (or `deny` for the
/// one kernel crate that needs a scoped allow).
pub fn safety_comment(m: &FileModel, out: &mut Vec<RawFinding>) {
    let toks = &m.tokens;
    // Lines occupied by attributes, which may sit between an `unsafe fn`
    // and its SAFETY comment.
    let attr_lines: std::collections::HashSet<u32> = toks
        .iter()
        .filter(|t| t.is_punct('#'))
        .map(|t| t.line)
        .collect();
    for i in 0..toks.len() {
        if !toks[i].is_ident("unsafe") {
            continue;
        }
        let next = toks.get(i + 1);
        let form = match next.and_then(Token::ident) {
            Some("fn") => "unsafe fn",
            Some("impl") => "unsafe impl",
            Some("trait") => "unsafe trait",
            _ if next.is_some_and(|t| t.is_punct('{')) => "unsafe block",
            // `unsafe` inside an attribute (`#[unsafe(no_mangle)]`) or a
            // signature position we don't model; skip.
            _ => continue,
        };
        if !has_safety_comment(m, toks[i].line, &attr_lines) {
            out.push(finding(
                "safety-comment",
                toks[i].line,
                format!("{form} without a `// SAFETY:` comment stating why it is sound"),
            ));
        }
    }
}

/// Whether a comment containing `SAFETY` is attached above/at `line`,
/// looking through attribute lines (for `#[target_feature] unsafe fn`).
fn has_safety_comment(
    m: &FileModel,
    line: u32,
    attr_lines: &std::collections::HashSet<u32>,
) -> bool {
    // Walk upward over comment-only and attribute lines, starting at the
    // unsafe token's own line.
    let mut probe = line;
    loop {
        for c in &m.comments {
            if probe >= c.line && probe <= c.end_line && is_safety_text(&c.text) {
                return true;
            }
        }
        if probe == 0 {
            return false;
        }
        let above = probe - 1;
        let above_is_comment_only = !m.code_lines.contains(&above)
            && m.comments.iter().any(|c| above >= c.line && above <= c.end_line);
        let above_is_attr = attr_lines.contains(&above);
        if above_is_comment_only || above_is_attr {
            probe = above;
        } else {
            return false;
        }
    }
}

fn is_safety_text(text: &str) -> bool {
    text.contains("SAFETY") || text.contains("# Safety")
}

/// Checks that a crate root (`lib.rs`) pins its unsafe policy.
pub fn unsafe_policy_attr(m: &FileModel, out: &mut Vec<RawFinding>) {
    let toks = &m.tokens;
    let mut found = false;
    for i in 0..toks.len() {
        if toks[i].is_punct('#')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('['))
            && toks
                .get(i + 3)
                .and_then(Token::ident)
                .is_some_and(|id| id == "forbid" || id == "deny")
            && toks.get(i + 5).is_some_and(|t| t.is_ident("unsafe_code"))
        {
            found = true;
            break;
        }
    }
    if !found {
        out.push(finding(
            "safety-comment",
            1,
            "crate root must declare `#![forbid(unsafe_code)]` (or `#![deny(unsafe_code)]` with scoped allows)"
                .to_owned(),
        ));
    }
}

// ---------------------------------------------------------------------------
// Rule 4: lock ordering

/// Every shard-lock acquisition must route through the ascending-order
/// helpers (`lock_shard` / `lock_all_shards`), which feed the
/// `debug_assertions` lock-order watchdog. A raw `self.shards[…].lock()`
/// anywhere else can deadlock against the batch path's ascending protocol.
pub fn lock_order(m: &FileModel, field: &str, allowed_fns: &[&str], out: &mut Vec<RawFinding>) {
    let toks = &m.tokens;
    for i in 0..toks.len() {
        if !toks[i].is_ident(field) {
            continue;
        }
        // Look a short window ahead for a `.lock(` / `.try_lock(` applied
        // to this expression.
        let window = &toks[i..toks.len().min(i + 14)];
        let locks = window.windows(3).any(|w| {
            w[0].is_punct('.')
                && w[1]
                    .ident()
                    .is_some_and(|id| id == "lock" || id == "try_lock")
                && w[2].is_punct('(')
        });
        if !locks {
            continue;
        }
        let enclosing = m.enclosing_fn(i).map(|f| f.name.as_str());
        if enclosing.is_none_or(|f| !allowed_fns.contains(&f)) {
            out.push(finding(
                "lock-order",
                toks[i].line,
                format!(
                    "raw lock on `{field}` outside {allowed_fns:?}; route through the ascending-order helpers"
                ),
            ));
        }
    }
}
