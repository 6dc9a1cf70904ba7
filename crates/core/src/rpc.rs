//! Typed RPC helpers: thin wrappers over the transport that unwrap reply
//! variants and implement the §3.5 directory behaviour (auto-remap of
//! crashed nodes) so the protocol code reads like the paper's pseudocode.

use crate::config::ProtocolConfig;
use crate::error::ProtocolError;
use ajx_storage::{NodeId, Reply, Request};
use ajx_transport::{ClientEndpoint, RpcError};
use std::collections::BTreeMap;

/// Sends the request `make` builds to `node`, transparently remapping a
/// crashed node once (§3.5: "clients simply access some logical node, which
/// gets remapped on failures") and re-sending *idempotent* requests that
/// failed indeterminately (timeout / lost reply / torn-down worker) up to
/// the configured retry budget, with backoff between attempts.
///
/// **A request is made when it is sent; only block-free requests may be
/// kept.** `make` builds the request from data the caller still borrows. It
/// runs once for the first send and again only inside an arm that re-sends,
/// so the failure-free path clones no block and keeps no copy for a re-send
/// that never comes — the rule `mux.rs`'s `reissue_op` already follows. A
/// re-made request must equal the one it replaces (same tids, same epoch,
/// increment recomputed from the same `v` and `w`). A caller whose request
/// carries no block may keep it prebuilt and pass `|| req.clone()`, a clone
/// of a few words.
///
/// Non-idempotent requests (`swap`, `add`) are never re-sent after an
/// indeterminate failure: the first copy may have executed, and executing
/// twice corrupts the write. Their timeouts surface to the protocol layer,
/// which owns the recovery story.
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
    make: impl Fn() -> Request,
) -> Result<Reply, ProtocolError> {
    let mut backoff = cfg
        .backoff
        .session(u64::from(endpoint.id().0) << 32 | u64::from(node.0));
    let mut resends = 0u32;
    loop {
        let req = make();
        let idempotent = req.is_idempotent();
        match endpoint.call(node, req) {
            Ok(reply) => return Ok(reply),
            Err(RpcError::NodeDown(_)) if cfg.auto_remap => {
                // A crash is determinate — no reason to burn retry budget.
                endpoint.network().remap_node(node, cfg.remap_garbage);
                return endpoint.call(node, make()).map_err(ProtocolError::from);
            }
            Err(e)
                if e.is_indeterminate()
                    && idempotent
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

/// Parallel fan-out (`pfor`): call `c` goes to `targets[c]` and carries
/// `make(c)`, with [`call`]'s auto-remap, idempotent-retry and
/// made-when-sent semantics per call. Failed calls are retried serially
/// after the round — the slow path only exists under faults.
pub(crate) fn call_many(
    endpoint: &ClientEndpoint,
    cfg: &ProtocolConfig,
    targets: &[NodeId],
    make: impl Fn(usize) -> Request,
) -> Vec<Result<Reply, ProtocolError>> {
    let mut idempotent = Vec::with_capacity(targets.len());
    let calls = targets
        .iter()
        .enumerate()
        .map(|(c, &node)| {
            let req = make(c);
            idempotent.push(req.is_idempotent());
            (node, req)
        })
        .collect();
    let first = endpoint.call_many(calls);
    first
        .into_iter()
        .zip(targets)
        .enumerate()
        .map(|(c, (res, &node))| match res {
            Ok(reply) => Ok(reply),
            Err(RpcError::NodeDown(_)) if cfg.auto_remap => {
                endpoint.network().remap_node(node, cfg.remap_garbage);
                endpoint.call(node, make(c)).map_err(ProtocolError::from)
            }
            Err(e)
                if e.is_indeterminate()
                    && idempotent[c]
                    && cfg.backoff.rpc_retry_budget > 0 =>
            {
                call(endpoint, cfg, node, || make(c))
            }
            // Shed by a full queue, never executed: retry any request.
            Err(RpcError::Busy(_)) if cfg.backoff.rpc_retry_budget > 0 => {
                call(endpoint, cfg, node, || make(c))
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

/// One `pfor` round over node groups: each node gets the [`batch`] of
/// `req(member)` for its members, made when it is sent (see [`call`]).
pub(crate) fn call_groups<T>(
    endpoint: &ClientEndpoint,
    cfg: &ProtocolConfig,
    groups: &[(NodeId, Vec<T>)],
    req: impl Fn(&T) -> Request,
) -> Vec<Result<Reply, ProtocolError>> {
    let nodes: Vec<NodeId> = groups.iter().map(|g| g.0).collect();
    call_many(endpoint, cfg, &nodes, |c| match &groups[c].1[..] {
        [one] => req(one),
        members => Request::Batch(members.iter().map(&req).collect()),
    })
}

/// Batched fan-out: groups `items` by target node (ascending, so the wire
/// order is deterministic) and sends each node one message per
/// [`call_groups`] round — the [`batch`] of `req(item)` for its next `chunk`
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
        let round: Vec<(NodeId, Vec<T>)> = rest
            .iter_mut()
            .map(|(node, group)| (*node, group.by_ref().take(chunk).collect()))
            .collect();
        messages += round.len();
        let replies = call_groups(endpoint, cfg, &round, &req);
        for (((_, members), res), (_, unsent)) in round.into_iter().zip(replies).zip(&mut rest) {
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
        let reply = call(&ep, &cfg, NodeId(2), || Request::Read { stripe: StripeId(0) }).unwrap();
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
        let err = call(&ep, &cfg, NodeId(1), || Request::Read { stripe: StripeId(0) }).unwrap_err();
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
        let nodes: Vec<_> = (0..4).map(NodeId).collect();
        let replies = call_many(&ep, &cfg, &nodes, |_| Request::Read { stripe: StripeId(0) });
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
        let err = call(&ep, &cfg, NodeId(0), || Request::Read { stripe: StripeId(0) }).unwrap_err();
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
        let err = call(&ep, &cfg, NodeId(0), || swap.clone()).unwrap_err();
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
        call(&ep, &cfg, NodeId(0), || swap.clone()).unwrap();
        net.faults().set_link(ClientId(1), NodeId(0), drop_all_requests());
        let err = call(&ep, &cfg, NodeId(0), || Request::Read { stripe: StripeId(0) }).unwrap_err();
        assert!(matches!(
            err,
            crate::error::ProtocolError::Rpc(RpcError::Timeout(_))
        ));
        // Heal the link: the node must still hold its block. A remap (the
        // old NodeDown handling) would have wiped it to an INIT replacement.
        net.faults().clear();
        let reply = call(&ep, &cfg, NodeId(0), || Request::Read { stripe: StripeId(0) }).unwrap();
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
        let err = call(&ep, &cfg, NodeId(0), || swap.clone()).unwrap_err();
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
        let reply = call(&ep, &cfg, NodeId(0), || swap.clone()).unwrap();
        assert!(matches!(reply, Reply::Swap(_)));
    }

    /// A maker that records what it makes, per call position.
    fn recording<'a>(
        made: &'a std::cell::RefCell<Vec<(usize, Request)>>,
        make: impl Fn(usize) -> Request + 'a,
    ) -> impl Fn(usize) -> Request + 'a {
        move |c| {
            let req = make(c);
            made.borrow_mut().push((c, req.clone()));
            req
        }
    }

    fn swap_of(byte: u8) -> Request {
        Request::Swap {
            stripe: StripeId(0),
            value: vec![byte; 16],
            ntid: ajx_storage::Tid::new(1, 0, ClientId(1)),
        }
    }

    #[test]
    fn failure_free_sends_make_each_request_exactly_once() {
        let (_net, ep, cfg) = setup(true);
        let made = std::cell::RefCell::new(Vec::new());
        let swap = recording(&made, |_| swap_of(7));
        call(&ep, &cfg, NodeId(0), || swap(0)).unwrap();
        assert_eq!(made.borrow().len(), 1, "one send, one request made");
        made.borrow_mut().clear();
        let nodes: Vec<_> = (0..4).map(NodeId).collect();
        let read = |_| Request::Read { stripe: StripeId(0) };
        let replies = call_many(&ep, &cfg, &nodes, recording(&made, read));
        assert!(replies.iter().all(Result::is_ok));
        let positions: Vec<usize> = made.borrow().iter().map(|(c, _)| *c).collect();
        assert_eq!(positions, [0, 1, 2, 3], "once per target, in order");
    }

    #[test]
    fn remap_remakes_only_the_crashed_targets_request_and_remakes_it_equal() {
        let (net, ep, cfg) = setup(true);
        net.crash_node(NodeId(2));
        let made = std::cell::RefCell::new(Vec::new());
        let nodes: Vec<_> = (0..4).map(NodeId).collect();
        let swap = |c: usize| swap_of(c as u8);
        let replies = call_many(&ep, &cfg, &nodes, recording(&made, swap));
        assert!(replies.iter().all(Result::is_ok));
        let made = made.into_inner();
        let positions: Vec<usize> = made.iter().map(|(c, _)| *c).collect();
        assert_eq!(positions, [0, 1, 2, 3, 2], "the round, then target 2 again");
        assert_eq!(made[4].1, made[2].1, "the re-sent request equals the first");
    }

    #[test]
    fn busy_remakes_a_swap_with_the_same_tid_and_value_and_it_applies_once() {
        let mut cfg = ProtocolConfig::new(2, 4, 16).unwrap();
        cfg.backoff.base = std::time::Duration::ZERO;
        let net = Network::new(NetworkConfig {
            n_nodes: 4,
            block_size: 16,
            server_threads: 1,
            node_queue_depth: Some(1),
            ..NetworkConfig::default()
        });
        let ep = net.client(ClientId(1));
        // As in the test above: the paused worker holds one job, a second
        // fills the depth-1 queue.
        net.pause_node(NodeId(0));
        let held = ep.submit_call(NodeId(0), Request::Read { stripe: StripeId(0) });
        while net.node_queue_len(NodeId(0)) > 0 {
            std::thread::yield_now();
        }
        let queued = ep.submit_call(NodeId(0), Request::Read { stripe: StripeId(0) });
        let fillers = std::cell::RefCell::new(vec![held, queued]);

        let made = std::cell::RefCell::new(Vec::new());
        let record = recording(&made, |_| swap_of(7));
        // The node drains at the moment the shed swap is re-made, so the
        // second send is the one that lands.
        let make = || {
            if !made.borrow().is_empty() {
                net.resume_node(NodeId(0));
                for filler in fillers.borrow_mut().iter_mut() {
                    while ep.poll_call(filler).is_none() {
                        std::thread::yield_now();
                    }
                }
            }
            record(0)
        };
        let reply = call(&ep, &cfg, NodeId(0), make).unwrap();
        assert!(matches!(reply, Reply::Swap(_)));
        let made = made.borrow();
        assert_eq!(made.len(), 2, "shed once, re-made once");
        assert_eq!(made[1].1, made[0].1, "same ntid, same value");
        net.with_node(NodeId(0), |n| {
            let block = n.block_state(StripeId(0)).expect("swapped");
            assert_eq!(block.raw_block(), &[7u8; 16][..]);
            assert_eq!(block.pending_tids(), 1, "one swap applied");
        });
    }

    #[test]
    fn a_lost_request_is_remade_per_budgeted_resend_and_a_swap_never() {
        let (net, ep, cfg) = setup_black_hole(3, true);
        net.faults().set_link(ClientId(1), NodeId(0), drop_all_requests());
        let made = std::cell::Cell::new(0u32);
        let counting = |req: Request| {
            made.set(made.get() + 1);
            req
        };
        call(&ep, &cfg, NodeId(0), || counting(Request::Read { stripe: StripeId(0) })).unwrap_err();
        assert_eq!(made.get(), 1 + cfg.backoff.rpc_retry_budget, "first send plus each re-send");
        made.set(0);
        call(&ep, &cfg, NodeId(0), || counting(swap_of(7))).unwrap_err();
        assert_eq!(made.get(), 1, "a swap may already have executed: never re-made");
    }

    #[test]
    fn killed_client_error_is_not_remapped_away() {
        let (_net, ep, cfg) = setup(true);
        ep.kill_after(0);
        let err = call(&ep, &cfg, NodeId(0), || Request::Read { stripe: StripeId(0) }).unwrap_err();
        assert!(matches!(
            err,
            crate::error::ProtocolError::Rpc(RpcError::ClientKilled)
        ));
    }
}
