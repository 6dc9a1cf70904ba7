//! In-process RPC transport for the AJX reproduction.
//!
//! The paper's implementation (§5.1) runs "RPC in user mode ... over TCP"
//! between 8 hosts. This crate reproduces that environment in-process:
//!
//! * [`Network`] — hosts the storage nodes; synchronous request/reply
//!   delivery with optional one-way latency and per-endpoint token-bucket
//!   bandwidth ([`TokenBucket`]) so the saturation effects that shape the
//!   paper's Fig. 9 exist here too.
//! * [`ClientEndpoint`] — per-client connection with serial calls
//!   ([`ClientEndpoint::call`]), parallel `pfor` fan-out
//!   ([`ClientEndpoint::call_many`]), link-layer multicast
//!   ([`ClientEndpoint::broadcast`], §3.11), all made of one non-blocking
//!   completion path ([`ClientEndpoint::submit_call`] /
//!   [`ClientEndpoint::poll_call`] over [`PendingCall`]) plus a wait; the
//!   path itself is public for tests and round-trip probes.
//! * Reactor-style nodes — each node drains a *bounded* request queue
//!   (full ⇒ [`RpcError::Busy`] backpressure) into per-stripe sharded
//!   state, so requests for independent stripes never contend on a lock.
//! * Fault injection — fail-stop node crashes ([`Network::crash_node`]),
//!   directory-style remap to a fresh INIT node ([`Network::remap_node`],
//!   §3.5), deterministic client kills ([`ClientEndpoint::kill_after`]),
//!   client-failure detection that expires recovery locks
//!   ([`Network::notify_client_failure`], Fig. 6 line 34), and a seeded
//!   per-link [`FaultPlan`] (message drops, delays, duplicates, one-way
//!   partitions, per-node slowdowns) whose decisions are deterministic in
//!   the seed — pair it with [`NetworkConfig::call_timeout`] so lost
//!   exchanges surface as [`RpcError::Timeout`].
//! * [`NetStats`] — message/byte counters behind the measured Fig. 1 table.
//!
//! # Example
//!
//! ```
//! use ajx_transport::{Network, NetworkConfig};
//! use ajx_storage::{ClientId, NodeId, Request, Reply, StripeId};
//!
//! let net = Network::new(NetworkConfig::default());
//! let client = net.client(ClientId(1));
//! let reply = client.call(NodeId(0), Request::Read { stripe: StripeId(0) })?;
//! assert!(matches!(reply, Reply::Read(_)));
//! # Ok::<(), ajx_transport::RpcError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bucket;
mod error;
mod fault;
mod network;
mod stats;

pub use bucket::TokenBucket;
pub use error::RpcError;
pub use fault::{FaultPlan, LinkFaults};
pub use network::{ClientEndpoint, Network, NetworkConfig, PendingCall};
pub use stats::{NetSnapshot, NetStats, LATENCY_BUCKETS};
