//! `ajx-lint`: a repo-native invariant checker for the erasure-coded
//! storage workspace.
//!
//! The DSN'05 protocol implementation leans on invariants that `rustc`
//! and clippy cannot see:
//!
//! - **determinism** — chaos, power-loss, and fault-plan-reachable code
//!   must never read ambient clocks or entropy, or seeded replays stop
//!   reproducing (DESIGN.md §7).
//! - **panic-free** — node request handling and WAL replay must return
//!   errors, not panic: a panic is an un-modeled failure the §3.5
//!   recovery protocol never observes.
//! - **safety-comment** — every `unsafe` block and function carries a
//!   `// SAFETY:` justification, and non-kernel crates keep their
//!   `#![forbid(unsafe_code)]` / `#![deny(unsafe_code)]` policy attrs.
//! - **lock-order** — shard locks in `ShardedNode` are only acquired
//!   through the ascending-order helpers (DESIGN.md §9), which feed the
//!   debug-build lock-order watchdog.
//!
//! What is true by construction needs no rule: the `Request` variant lists
//! (classifiers, journal codec) are generated from one table in
//! `crates/storage/src/node.rs`, so no rule compares them (DESIGN.md §11).
//!
//! Rules match token patterns from a hand-rolled lexer/AST-lite, never
//! raw text, so names in strings and comments cannot trip them. Known
//! violations are suppressed inline with `// LINT-ALLOW(rule: reason)`;
//! allows are counted, and stale or malformed allows are findings
//! themselves. The tool is dependency-free and offline by construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod engine;
pub mod lexer;
pub mod rules;

pub use engine::{lint_files, lint_workspace, Finding, Report, RULES};
