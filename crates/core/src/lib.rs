//! The AJX client protocol — the primary contribution of *Using Erasure
//! Codes Efficiently for Storage in a Distributed System* (Aguilera,
//! Janakiraman & Xu, DSN 2005), reproduced in Rust.
//!
//! The protocol stores data across `n` thin storage nodes under a k-of-n
//! erasure code and, in the common failure-free case, needs **no locks, no
//! two-phase commit, and no version logs**: a `READ` is one round trip to
//! one node, and a `WRITE` is a `swap` at the data node plus a commutative
//! `add` of `α_ji·(v − w)` at each redundant node (Fig. 3/Fig. 5). Crashed
//! nodes are repaired by an online three-phase recovery (Fig. 6) that any
//! client can run — or pick up after a recovering client itself crashes.
//!
//! Crate layout:
//!
//! * [`Client`] — `READ`/`WRITE` (Figs. 4-5), recovery entry points,
//!   garbage collection (Fig. 7), and the §3.10 monitoring sweep.
//! * [`ProtocolConfig`] / [`UpdateStrategy`] — configuration, including the
//!   serial / parallel / hybrid / broadcast redundant-update schemes
//!   (Fig. 1's AJX-ser / AJX-par / AJX-bcast).
//! * [`recovery`] — `find_consistent` and the lock-free degraded reads
//!   that the one `READ` engine batches over its window (DESIGN.md §8).
//! * [`RebuildReport`] / [`Client::rebuild_node`] — the batched Fig. 6
//!   engine: every recovery, from [`Client::recover_stripe`]'s one stripe
//!   and the stripes a read, a write or the monitor finds broken to bulk
//!   repair of a lost node's stripes in windows of chunks.
//! * [`resilience`] — the §4 theorems relating redundancy `n − k` to the
//!   tolerated client (`t_p`) and storage (`t_d`) crash counts.
//! * [`run_mux_workload`] — thousands of logical clients on a few OS
//!   threads, each thread one [`Client`] running its slice of the fleet as
//!   windows of the same `READ` / `WRITE` engine.
//!
//! # Quickstart
//!
//! ```
//! use ajx_core::{Client, ProtocolConfig, UpdateStrategy};
//! use ajx_transport::{Network, NetworkConfig};
//! use ajx_storage::ClientId;
//!
//! # fn main() -> Result<(), ajx_core::ProtocolError> {
//! // A 3-of-5 Reed-Solomon code over five storage nodes, 1 KB blocks.
//! let cfg = ProtocolConfig::new(3, 5, 1024)
//!     .expect("valid code")
//!     .with_strategy(UpdateStrategy::Parallel);
//! cfg.validate().expect("within the paper's correctness bounds");
//!
//! let net = Network::new(NetworkConfig {
//!     n_nodes: cfg.n(),
//!     block_size: cfg.block_size,
//!     ..NetworkConfig::default()
//! });
//! let client = Client::new(net.client(ClientId(1)), cfg);
//!
//! client.write_block(7, vec![0xAB; 1024])?;
//! assert_eq!(client.read_block(7)?, vec![0xAB; 1024]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
mod client;
mod config;
mod error;
pub mod mux;
mod pool;
mod rebuild;
pub mod recovery;
pub mod resilience;
mod rpc;
mod write;

pub use backoff::{BackoffPolicy, BackoffSession};
pub use client::{Client, GcReport, MonitorReport};
pub use config::{ProtocolConfig, UpdateStrategy, REMAP_GARBAGE};
pub use error::ProtocolError;
pub use mux::{run_mux_workload, MuxOptions, MuxReport};
pub use rebuild::RebuildReport;
pub use recovery::find_consistent;
