//! Deterministic discrete-event simulator of the AJX storage system —
//! the reproduction of the paper's §5.2 simulator, used "to study the
//! behavior of larger systems" (up to 32 nodes and 64 clients, Fig. 10).
//!
//! The model is the one §5.2 describes: client threads (one per
//! outstanding RPC) share a client processor and NIC; messages pay
//! propagation latency and consume endpoint bandwidth; storage nodes have
//! their own NIC and per-operation service times. Everything is virtual
//! time — a 64-client run finishes in milliseconds of wall clock and is
//! bit-for-bit reproducible, which is what makes the Fig. 10 sweeps
//! practical in CI.
//!
//! * [`Engine`] — the generic event engine (FIFO resources, fork/join
//!   chains).
//! * [`SimParams`] — timing constants calibrated per §5.1 (50 µs RTT,
//!   500 Mbit/s NICs, Fig. 8(a)-scale compute costs).
//! * [`closed_loop`] — the one model: every client thread runs its
//!   operations back to back, each drawn at its start ([`Op`]) and run as
//!   a protocol's phases, groups of [`Model::rpc`] chains.
//! * [`SimConfig`] / [`run`] — the loop given AJX's phases: reads, and
//!   writes under all four update strategies, over the §3.11 rotation.
//!   `ajx-baselines` gives the same loop FAB's and GWGR's phases.
//!
//! # Example
//!
//! ```
//! use ajx_sim::{run, SimConfig};
//!
//! let mut cfg = SimConfig::new(4, 6, 8); // 4-of-6 code, 8 clients
//! cfg.ops_per_thread = 10;
//! let report = run(&cfg);
//! assert!(report.aggregate_mbps > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod model;
mod params;

pub use engine::{Chain, Engine, ResourceId, Step};
pub use model::{closed_loop, run, Model, Op, SimConfig, SimReport, SimWorkload};
pub use params::SimParams;
