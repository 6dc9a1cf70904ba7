//! RPC error type.

use ajx_storage::NodeId;
use core::fmt;

/// Why an RPC failed to complete.
///
/// The paper's failure model (§2) is fail-stop: nodes halt and the halt is
/// detectable. These errors are the transport-level manifestation, extended
/// with the lossy-network conditions ([`RpcError::Timeout`]) that the
/// fault-injection layer of [`crate::FaultPlan`] introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcError {
    /// The target storage node has crashed (fail-stop) and not been
    /// remapped yet; the caller should trigger recovery/remap.
    NodeDown(NodeId),
    /// The *calling client* was killed by fault injection mid-protocol —
    /// used by tests and experiments to create the paper's "partial write"
    /// scenarios deterministically.
    ClientKilled,
    /// The node id is not part of this network.
    UnknownNode(NodeId),
    /// No reply arrived within the per-call deadline: the request or its
    /// reply was dropped, a partition blocked the link, or the node was too
    /// slow. The caller cannot tell whether the request executed.
    Timeout(NodeId),
    /// No reply will come: the network was torn down, or the request's
    /// handler panicked and closed its node mid-call. Distinct from
    /// [`RpcError::ClientKilled`] — the *caller* is fine.
    NetTornDown(NodeId),
    /// The node's bounded request queue was full and the request was
    /// rejected *before* being enqueued (backpressure shedding). Unlike
    /// [`RpcError::Timeout`] this is determinate — the request definitely
    /// did not execute — so even non-idempotent requests may be resent
    /// after backing off, and no remap is warranted.
    Busy(NodeId),
}

impl RpcError {
    /// Whether the caller can know the request was *not* executed. A
    /// [`RpcError::Timeout`] or [`RpcError::NetTornDown`] is ambiguous: the
    /// request may have been applied even though no reply came back.
    pub fn is_indeterminate(&self) -> bool {
        matches!(self, RpcError::Timeout(_) | RpcError::NetTornDown(_))
    }
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::NodeDown(n) => write!(f, "storage node {n} is down"),
            RpcError::ClientKilled => write!(f, "client was killed by fault injection"),
            RpcError::UnknownNode(n) => write!(f, "storage node {n} does not exist"),
            RpcError::Timeout(n) => write!(f, "call to storage node {n} timed out"),
            RpcError::NetTornDown(n) => {
                write!(f, "transport to storage node {n} was torn down mid-call")
            }
            RpcError::Busy(n) => {
                write!(f, "storage node {n} is busy (request queue full)")
            }
        }
    }
}

impl std::error::Error for RpcError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert_eq!(
            RpcError::NodeDown(NodeId(2)).to_string(),
            "storage node s2 is down"
        );
        assert!(RpcError::ClientKilled.to_string().contains("killed"));
        assert!(RpcError::UnknownNode(NodeId(9)).to_string().contains("s9"));
        assert!(RpcError::Timeout(NodeId(1)).to_string().contains("timed out"));
        assert!(RpcError::NetTornDown(NodeId(0)).to_string().contains("torn down"));
        assert!(RpcError::Busy(NodeId(3)).to_string().contains("busy"));
    }

    #[test]
    fn indeterminate_errors_are_the_ambiguous_ones() {
        assert!(RpcError::Timeout(NodeId(0)).is_indeterminate());
        assert!(RpcError::NetTornDown(NodeId(0)).is_indeterminate());
        assert!(!RpcError::NodeDown(NodeId(0)).is_indeterminate());
        assert!(!RpcError::ClientKilled.is_indeterminate());
        assert!(!RpcError::UnknownNode(NodeId(0)).is_indeterminate());
        // Busy is shed *before* enqueue, so the request surely didn't run.
        assert!(!RpcError::Busy(NodeId(0)).is_indeterminate());
    }
}
