//! Thin storage nodes for the AJX erasure-coded storage protocol.
//!
//! This crate is the **server side** of the paper (*Using Erasure Codes
//! Efficiently for Storage in a Distributed System*, DSN 2005): a
//! line-by-line Rust implementation of the storage-node pseudocode in
//! Figs. 4-7. The design follows the paper's *thin server* principle —
//! "storage nodes ... implement very simple functionality" (§1) — so the
//! whole node is a pure request→reply state machine with no orchestration
//! logic; all coordination lives in the client crate `ajx-core`.
//!
//! Key pieces:
//!
//! * [`BlockState`] — per-stripe-block state machine: `swap`/`add`/`read`
//!   (Fig. 4/5), the `recentlist`/`oldlist` write bookkeeping, recovery
//!   locks and epochs (Fig. 6), and two-phase GC (Fig. 7).
//! * [`ShardedNode`] — the node: one block of many stripes behind the
//!   [`Request`]/[`Reply`] wire interface, with fail-remap (§3.5),
//!   broadcast-mode coefficient multiplication and deferred flushing
//!   (§3.11), metadata accounting (§6.5) and an optional write-ahead
//!   journal ([`Persistence`]). Its blocks are spread over `n_shards`
//!   privately locked shards so worker threads on different stripes do not
//!   contend; one shard gives the paper's single-lock server, and the
//!   count is not observable in any reply or counter.
//! * The shared identifier types ([`Tid`], [`Epoch`], [`StripeId`], …) used
//!   across the workspace.
//!
//! # Example
//!
//! ```
//! use ajx_storage::{ClientId, NodeId, Request, Reply, ShardedNode, StripeId, Tid};
//!
//! let node = ShardedNode::new(NodeId(3), 8, 4);
//! // A client swaps new data in and learns the old content:
//! let t = Tid::new(1, 0, ClientId(1));
//! let Reply::Swap(swap) = node.handle(Request::Swap {
//!     stripe: StripeId(0),
//!     value: vec![9; 8],
//!     ntid: t,
//! }) else { unreachable!() };
//! assert_eq!(swap.block, Some(vec![0; 8]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod node;
mod persist;
mod shard;
mod state;
mod types;

pub use node::{FlushPolicy, Reply, Request, MSG_HEADER_BYTES};
pub use persist::{
    backend_for, scratch_dir, scratch_dir_fast, InMemoryPersistence, PersistMode, PersistStats, Persistence,
    WalBackend, WalRecord, WalRecordRef,
};
pub use shard::{NodeView, ShardedNode};
pub use state::{
    AddReply, AddStatus, BlockState, CheckTidReply, GetStateReply, Increment, ReadReply,
    SwapReply, TryLockReply,
};
pub use types::{ClientId, Epoch, LMode, NodeId, OpMode, StripeId, Tid, TidEntry};
