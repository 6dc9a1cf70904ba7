//! Typed RPC helpers: thin wrappers over the transport that unwrap reply
//! variants and implement the §3.5 directory behaviour (auto-remap of
//! crashed nodes) so the protocol code reads like the paper's pseudocode.

use crate::config::ProtocolConfig;
use crate::error::ProtocolError;
use ajx_storage::{NodeId, Reply, Request};
use ajx_transport::{ClientEndpoint, RpcError};
use std::collections::BTreeMap;

/// Issues `req`, transparently remapping a crashed node once (§3.5: "clients
/// simply access some logical node, which gets remapped on failures") and
/// re-sending *idempotent* requests that failed indeterminately (timeout /
/// lost reply / torn-down worker) up to the configured retry budget, with
/// backoff between attempts.
///
/// Non-idempotent requests (`swap`, `add`) are never re-sent: the first
/// copy may have executed, and executing twice corrupts the write. Their
/// timeouts surface to the protocol layer, which owns the recovery story.
///
/// # Errors
///
/// Propagates transport errors that remapping and the retry budget cannot
/// fix (client killed, unknown node, node crashed again immediately,
/// persistent timeouts).
pub(crate) fn call(
    endpoint: &ClientEndpoint,
    cfg: &ProtocolConfig,
    node: NodeId,
    req: Request,
) -> Result<Reply, ProtocolError> {
    let mut backoff = cfg
        .backoff
        .session(u64::from(endpoint.id().0) << 32 | u64::from(node.0));
    let mut resends = 0u32;
    loop {
        match endpoint.call(node, req.clone()) {
            Ok(reply) => return Ok(reply),
            Err(RpcError::NodeDown(_)) if cfg.auto_remap => {
                // A crash is determinate — no reason to burn retry budget.
                endpoint.network().remap_node(node, cfg.remap_garbage);
                return endpoint.call(node, req).map_err(ProtocolError::from);
            }
            Err(e)
                if e.is_indeterminate()
                    && req.is_idempotent()
                    && resends < cfg.backoff.rpc_retry_budget =>
            {
                resends += 1;
                backoff.pause();
            }
            // Busy is shed *before* the node's queue — determinate, so
            // even non-idempotent requests are safely resent after the
            // same jittered backoff as a timeout. No remap: the node is
            // healthy, just saturated.
            Err(RpcError::Busy(_)) if resends < cfg.backoff.rpc_retry_budget => {
                resends += 1;
                backoff.pause();
            }
            Err(e) => return Err(ProtocolError::from(e)),
        }
    }
}

/// Parallel fan-out (`pfor`) with the same auto-remap and idempotent-retry
/// semantics per call. Failed calls are retried serially after the batch —
/// the slow path only exists under faults.
pub(crate) fn call_many(
    endpoint: &ClientEndpoint,
    cfg: &ProtocolConfig,
    calls: Vec<(NodeId, Request)>,
) -> Vec<Result<Reply, ProtocolError>> {
    let retry_targets: Vec<(NodeId, Request)> = calls.clone();
    let first = endpoint.call_many(calls);
    first
        .into_iter()
        .zip(retry_targets)
        .map(|(res, (node, req))| match res {
            Ok(reply) => Ok(reply),
            Err(RpcError::NodeDown(_)) if cfg.auto_remap => {
                endpoint.network().remap_node(node, cfg.remap_garbage);
                endpoint.call(node, req).map_err(ProtocolError::from)
            }
            Err(e)
                if e.is_indeterminate()
                    && req.is_idempotent()
                    && cfg.backoff.rpc_retry_budget > 0 =>
            {
                call(endpoint, cfg, node, req)
            }
            // Shed by a full queue, never executed: retry any request.
            Err(RpcError::Busy(_)) if cfg.backoff.rpc_retry_budget > 0 => {
                call(endpoint, cfg, node, req)
            }
            Err(e) => Err(ProtocolError::from(e)),
        })
        .collect()
}

/// Collapses a singleton into a bare request (no batch framing on the wire).
pub(crate) fn batch(mut reqs: Vec<Request>) -> Request {
    if reqs.len() == 1 {
        reqs.pop().expect("len checked")
    } else {
        Request::Batch(reqs)
    }
}

/// Splits a reply back into per-member replies, mirroring [`batch`].
pub(crate) fn unbatch(reply: Reply, members: usize) -> Result<Vec<Reply>, ProtocolError> {
    if members == 1 {
        return Ok(vec![reply]);
    }
    match reply {
        Reply::Batch(rs) if rs.len() == members => Ok(rs),
        other => Err(ProtocolError::unexpected("Reply::Batch", &other)),
    }
}

/// Batched fan-out: groups `items` by target node (ascending, so the wire
/// order is deterministic) and sends each node one message per
/// [`call_many`] round — the [`batch`] of `req(item)` for its next `chunk`
/// items — until every node's group is sent, so a node's shard locks are
/// never held for more than `chunk` members at a time. Hands each item to
/// `fold` with its own member's reply and returns the number of messages
/// issued. A failed message fails all of its node's members, unsent ones
/// included: the node just showed it is unreachable, and the other nodes
/// carry on.
pub(crate) fn call_grouped<T>(
    endpoint: &ClientEndpoint,
    cfg: &ProtocolConfig,
    items: Vec<(NodeId, T)>,
    chunk: usize,
    req: impl Fn(&T) -> Request,
    mut fold: impl FnMut(T, Result<Reply, ProtocolError>),
) -> usize {
    let mut by_node: BTreeMap<NodeId, Vec<T>> = BTreeMap::new();
    for (node, item) in items {
        by_node.entry(node).or_default().push(item);
    }
    let mut rest: Vec<(NodeId, std::vec::IntoIter<T>)> =
        by_node.into_iter().map(|(node, group)| (node, group.into_iter())).collect();
    let mut messages = 0;
    while !rest.is_empty() {
        let round: Vec<Vec<T>> =
            rest.iter_mut().map(|(_, group)| group.by_ref().take(chunk).collect()).collect();
        let calls = rest
            .iter()
            .zip(&round)
            .map(|((node, _), members)| (*node, batch(members.iter().map(&req).collect())))
            .collect();
        messages += round.len();
        let replies = call_many(endpoint, cfg, calls);
        for ((members, res), (_, unsent)) in round.into_iter().zip(replies).zip(&mut rest) {
            match res.and_then(|reply| unbatch(reply, members.len())) {
                Ok(rs) => members.into_iter().zip(rs).for_each(|(m, r)| fold(m, Ok(r))),
                Err(e) => members.into_iter().chain(unsent).for_each(|m| fold(m, Err(e.clone()))),
            }
        }
        rest.retain(|(_, group)| !group.as_slice().is_empty());
    }
    messages
}

/// Unwraps a reply variant; a cross-variant mismatch returns
/// [`ProtocolError::UnexpectedReply`] from the enclosing function — a
/// malformed reply is a node-side fault and must not crash the client.
macro_rules! expect_reply {
    ($reply:expr, $variant:path) => {
        match $reply {
            $variant(inner) => inner,
            other => {
                return Err($crate::error::ProtocolError::unexpected(
                    stringify!($variant),
                    &other,
                ))
            }
        }
    };
}
pub(crate) use expect_reply;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use ajx_storage::{ClientId, StripeId};
    use ajx_transport::{Network, NetworkConfig};

    fn setup(auto_remap: bool) -> (std::sync::Arc<Network>, ClientEndpoint, ProtocolConfig) {
        let mut cfg = ProtocolConfig::new(2, 4, 16).unwrap();
        cfg.auto_remap = auto_remap;
        let net = Network::new(NetworkConfig {
            n_nodes: 4,
            block_size: 16,
            ..NetworkConfig::default()
        });
        let ep = net.client(ClientId(1));
        (net, ep, cfg)
    }

    #[test]
    fn call_remaps_a_crashed_node_transparently() {
        let (net, ep, cfg) = setup(true);
        net.crash_node(NodeId(2));
        // The directory behaviour (§3.5): the call lands on the fresh
        // INIT replacement instead of erroring.
        let reply = call(&ep, &cfg, NodeId(2), Request::Read { stripe: StripeId(0) }).unwrap();
        match reply {
            Reply::Read(r) => assert!(r.block.is_none(), "INIT node returns ⊥"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(net.node_is_up(NodeId(2)));
    }

    #[test]
    fn call_without_auto_remap_surfaces_node_down() {
        let (net, ep, cfg) = setup(false);
        net.crash_node(NodeId(1));
        let err = call(&ep, &cfg, NodeId(1), Request::Read { stripe: StripeId(0) }).unwrap_err();
        assert!(matches!(
            err,
            crate::error::ProtocolError::Rpc(RpcError::NodeDown(_))
        ));
        assert!(!net.node_is_up(NodeId(1)), "no remap requested");
    }

    #[test]
    fn call_many_remaps_only_the_down_targets() {
        let (net, ep, cfg) = setup(true);
        net.crash_node(NodeId(0));
        net.crash_node(NodeId(3));
        let calls: Vec<_> = (0..4)
            .map(|i| (NodeId(i), Request::Read { stripe: StripeId(0) }))
            .collect();
        let replies = call_many(&ep, &cfg, calls);
        assert_eq!(replies.len(), 4);
        assert!(replies.iter().all(Result::is_ok));
        // Remapped nodes answer ⊥; healthy nodes answer content.
        for (i, r) in replies.into_iter().enumerate() {
            let Reply::Read(read) = r.unwrap() else { panic!() };
            if i == 0 || i == 3 {
                assert!(read.block.is_none(), "node {i} is INIT after remap");
            } else {
                assert!(read.block.is_some(), "node {i} untouched");
            }
        }
    }

    /// A network whose default link drops every request, with a short call
    /// timeout and a zero-sleep backoff policy carrying `budget` re-sends.
    fn setup_black_hole(
        budget: u32,
        auto_remap: bool,
    ) -> (std::sync::Arc<Network>, ClientEndpoint, ProtocolConfig) {
        use std::time::Duration;
        let mut cfg = ProtocolConfig::new(2, 4, 16).unwrap();
        cfg.auto_remap = auto_remap;
        cfg.backoff = crate::backoff::BackoffPolicy {
            base: Duration::ZERO,
            cap: Duration::ZERO,
            multiplier: 2,
            jitter: crate::backoff::Jitter::None,
            rpc_retry_budget: budget,
            busy_retry_budget: budget,
        };
        let net = Network::new(NetworkConfig {
            n_nodes: 4,
            block_size: 16,
            call_timeout: Some(Duration::from_millis(20)),
            ..NetworkConfig::default()
        });
        let ep = net.client(ClientId(1));
        (net, ep, cfg)
    }

    fn drop_all_requests() -> ajx_transport::LinkFaults {
        ajx_transport::LinkFaults {
            drop_req: 1.0,
            ..Default::default()
        }
    }

    #[test]
    fn idempotent_timeout_is_retried_up_to_the_budget() {
        let (net, ep, cfg) = setup_black_hole(3, true);
        net.faults().set_link(ClientId(1), NodeId(0), drop_all_requests());
        net.faults().set_tracing(true);
        let err = call(&ep, &cfg, NodeId(0), Request::Read { stripe: StripeId(0) }).unwrap_err();
        assert!(matches!(
            err,
            crate::error::ProtocolError::Rpc(RpcError::Timeout(_))
        ));
        let drops = net
            .faults()
            .take_trace()
            .iter()
            .filter(|l| l.contains("drop-req"))
            .count();
        assert_eq!(drops, 4, "initial send plus three budgeted re-sends");
    }

    #[test]
    fn non_idempotent_timeout_is_never_resent() {
        let (net, ep, cfg) = setup_black_hole(3, true);
        net.faults().set_link(ClientId(1), NodeId(0), drop_all_requests());
        net.faults().set_tracing(true);
        let swap = Request::Swap {
            stripe: StripeId(0),
            value: vec![7; 16],
            ntid: ajx_storage::Tid::new(1, 0, ClientId(1)),
        };
        let err = call(&ep, &cfg, NodeId(0), swap).unwrap_err();
        assert!(matches!(
            err,
            crate::error::ProtocolError::Rpc(RpcError::Timeout(_))
        ));
        let drops = net
            .faults()
            .take_trace()
            .iter()
            .filter(|l| l.contains("drop-req"))
            .count();
        assert_eq!(drops, 1, "a swap may already have executed; one send only");
    }

    #[test]
    fn timeout_is_not_misdiagnosed_as_a_crash_and_remapped() {
        let (net, ep, cfg) = setup_black_hole(1, true);
        // Seed node 0 with content before the link goes bad.
        let swap = Request::Swap {
            stripe: StripeId(0),
            value: vec![9; 16],
            ntid: ajx_storage::Tid::new(1, 0, ClientId(1)),
        };
        call(&ep, &cfg, NodeId(0), swap).unwrap();
        net.faults().set_link(ClientId(1), NodeId(0), drop_all_requests());
        let err = call(&ep, &cfg, NodeId(0), Request::Read { stripe: StripeId(0) }).unwrap_err();
        assert!(matches!(
            err,
            crate::error::ProtocolError::Rpc(RpcError::Timeout(_))
        ));
        // Heal the link: the node must still hold its block. A remap (the
        // old NodeDown handling) would have wiped it to an INIT replacement.
        net.faults().clear();
        let reply = call(&ep, &cfg, NodeId(0), Request::Read { stripe: StripeId(0) }).unwrap();
        let Reply::Read(read) = reply else { panic!() };
        assert_eq!(read.block.as_deref(), Some(&[9u8; 16][..]));
    }

    #[test]
    fn busy_retries_even_non_idempotent_requests_then_succeeds() {
        use std::time::Duration;
        let mut cfg = ProtocolConfig::new(2, 4, 16).unwrap();
        cfg.backoff = crate::backoff::BackoffPolicy {
            base: Duration::ZERO,
            cap: Duration::ZERO,
            multiplier: 2,
            jitter: crate::backoff::Jitter::None,
            rpc_retry_budget: 3,
            busy_retry_budget: 3,
        };
        let net = Network::new(NetworkConfig {
            n_nodes: 4,
            block_size: 16,
            server_threads: 1,
            node_queue_depth: Some(1),
            ..NetworkConfig::default()
        });
        let ep = net.client(ClientId(1));
        // Saturate node 0 deterministically: the paused worker holds one
        // job, a second fills the depth-1 queue.
        net.pause_node(NodeId(0));
        let mut held = ep.submit_call(NodeId(0), Request::Read { stripe: StripeId(0) });
        while net.node_queue_len(NodeId(0)) > 0 {
            std::thread::yield_now();
        }
        let mut queued = ep.submit_call(NodeId(0), Request::Read { stripe: StripeId(0) });

        let swap = Request::Swap {
            stripe: StripeId(0),
            value: vec![7; 16],
            ntid: ajx_storage::Tid::new(1, 0, ClientId(1)),
        };
        let sent_before = ep.stats().snapshot().msgs_sent;
        // Busy is determinate, so even the non-idempotent swap burns the
        // whole retry budget (unlike a timeout, which sends it once) —
        // and surfaces as Busy, not as a remap-triggering NodeDown.
        let err = call(&ep, &cfg, NodeId(0), swap.clone()).unwrap_err();
        assert!(matches!(
            err,
            crate::error::ProtocolError::Rpc(RpcError::Busy(_))
        ));
        assert_eq!(
            ep.stats().snapshot().msgs_sent - sent_before,
            4,
            "initial send plus three budgeted re-sends"
        );
        assert!(net.node_is_up(NodeId(0)), "saturation must not trigger remap");

        // Once the node drains, the same swap goes through.
        net.resume_node(NodeId(0));
        for call_slot in [&mut held, &mut queued] {
            while ep.poll_call(call_slot).is_none() {
                std::thread::yield_now();
            }
        }
        let reply = call(&ep, &cfg, NodeId(0), swap).unwrap();
        assert!(matches!(reply, Reply::Swap(_)));
    }

    #[test]
    fn killed_client_error_is_not_remapped_away() {
        let (_net, ep, cfg) = setup(true);
        ep.kill_after(0);
        let err = call(&ep, &cfg, NodeId(0), Request::Read { stripe: StripeId(0) }).unwrap_err();
        assert!(matches!(
            err,
            crate::error::ProtocolError::Rpc(RpcError::ClientKilled)
        ));
    }
}
