//! The client's only doors to the transport's blocking calls, so the
//! protocol code reads like the paper's pseudocode: [`call`] sends one
//! request; [`pfor`] sends one round of `(key, node, member)`s, grouping
//! the members that share a key and a node into one message; [`multicast`]
//! sends the §3.11 broadcast. All three implement the §3.5 directory
//! behaviour (auto-remap of crashed nodes), and a failed message is re-sent
//! by one policy, [`call`]'s. [`expect_reply!`] unwraps a reply variant.

use crate::config::{ProtocolConfig, REMAP_GARBAGE};
use crate::error::ProtocolError;
use ajx_storage::{NodeId, Reply, Request};
use ajx_transport::{ClientEndpoint, RpcError};
use std::ops::Range;

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
/// that never comes. A re-made request must equal the one it replaces (same
/// tids, same epoch, increment recomputed from the same `v` and `w`). A
/// caller whose request carries no block may keep it prebuilt and pass
/// `|| req.clone()`, a clone of a few words.
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
        let e = match endpoint.call(node, req) {
            Ok(reply) => return Ok(reply),
            Err(e) => e,
        };
        match remap(endpoint, cfg, node, e, &make) {
            // A crash is determinate — no reason to burn retry budget.
            Ok(answer) => return answer,
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

/// The §3.5 arm of every re-send: a message that found `node` crashed is
/// made again and sent once more, to the fresh replacement the directory
/// maps in, when `cfg.auto_remap` allows. Any other error is handed back
/// for the caller's policy to settle.
fn remap(
    endpoint: &ClientEndpoint,
    cfg: &ProtocolConfig,
    node: NodeId,
    e: RpcError,
    make: impl FnOnce() -> Request,
) -> Result<Answer, RpcError> {
    match e {
        RpcError::NodeDown(_) if cfg.auto_remap => {
            endpoint.network().remap_node(node, REMAP_GARBAGE);
            Ok(endpoint.call(node, make()).map_err(ProtocolError::from))
        }
        e => Err(e),
    }
}

/// The one `pfor` round of Figs. 4-7: every batched step of the protocol
/// sends its members through here, each `(key, node, member)` carrying
/// `req(member)` to `node`.
///
/// Members that share a key and a node share a message: a stable sort by
/// `(key, node)` orders the runs, and every message goes out in that order
/// and carries its members in the order given. A run of one is a bare
/// request, a longer one a [`Request::Batch`]. A run longer than `cap`
/// continues in the next round, so a node's shard locks are never held for
/// more than `cap` members at a time. With `resend`, a failed message is
/// re-sent under [`call`]'s policy (made when sent again, §3.5 remap,
/// idempotent and `Busy` re-sends); without it, a message is sent once.
///
/// Every member's reply, or its message's error, goes to `fold`. A failed
/// message fails all of its run's members, unsent ones included: the node
/// just showed it is unreachable, and the other runs carry on. A reply that
/// does not match its message (a short or foreign [`Reply::Batch`]) is its
/// message's error. Returns the number of messages sent.
pub(crate) fn pfor<K: Ord + Copy, M>(
    endpoint: &ClientEndpoint,
    cfg: &ProtocolConfig,
    members: Vec<(K, NodeId, M)>,
    cap: usize,
    resend: bool,
    req: impl Fn(&M) -> Request,
    fold: impl FnMut(&mut M, Result<Reply, ProtocolError>),
) -> usize {
    let cfg = resend.then_some(cfg);
    fan_out(members, cap, req, |round, make| call_many(endpoint, cfg, round, make), fold)
}

/// What a message, or one member of it, comes to.
type Answer = Result<Reply, ProtocolError>;

/// One message of a [`fan_out`] round: to `node`, carrying the sorted
/// members `sent` of a run that ends at `end`.
struct Message {
    node: NodeId,
    sent: Range<usize>,
    end: usize,
}

/// [`pfor`] without the transport: `send` sends one round, message `c`
/// made by `make(&round[c])`, and returns one outcome per message in order.
fn fan_out<K: Ord + Copy, M>(
    mut members: Vec<(K, NodeId, M)>,
    cap: usize,
    req: impl Fn(&M) -> Request,
    mut send: impl FnMut(&[Message], &dyn Fn(&Message) -> Request) -> Vec<Answer>,
    mut fold: impl FnMut(&mut M, Answer),
) -> usize {
    members.sort_by_key(|m| (m.0, m.1));
    let mut round: Vec<Message> = Vec::new();
    for (i, &(key, node, _)) in members.iter().enumerate() {
        match round.last_mut() {
            Some(run) if run.node == node && members[run.sent.start].0 == key => run.end = i + 1,
            _ => round.push(Message { node, sent: i..i, end: i + 1 }),
        }
    }
    let mut messages = 0;
    while !round.is_empty() {
        for run in &mut round {
            let from = run.sent.end;
            run.sent = from..run.end.min(from.saturating_add(cap.max(1)));
        }
        messages += round.len();
        let make = |m: &Message| match &members[m.sent.clone()] {
            [(_, _, one)] => req(one),
            many => Request::Batch(many.iter().map(|(_, _, member)| req(member)).collect()),
        };
        let replies = send(&round, &make);
        for (m, res) in round.iter_mut().zip(replies) {
            match res {
                Ok(reply) if m.sent.len() == 1 => fold(&mut members[m.sent.start].2, Ok(reply)),
                Ok(Reply::Batch(rs)) if rs.len() == m.sent.len() => {
                    for ((_, _, member), r) in members[m.sent.clone()].iter_mut().zip(rs) {
                        fold(member, Ok(r));
                    }
                }
                res => {
                    let e = ProtocolError::not("Reply::Batch", res);
                    for (_, _, member) in &mut members[m.sent.start..m.end] {
                        fold(member, Err(e.clone()));
                    }
                    m.sent.end = m.end;
                }
            }
        }
        round.retain(|m| m.sent.end < m.end);
    }
    messages
}

/// Sends one [`fan_out`] round in one blocking fan-out (a round of one
/// message is a plain call) and settles each message: with `cfg`, a failed
/// one is re-sent serially after the round under [`call`]'s policy, the
/// slow path that only exists under faults; without it, its error stands.
fn call_many(
    endpoint: &ClientEndpoint,
    cfg: Option<&ProtocolConfig>,
    round: &[Message],
    make: &dyn Fn(&Message) -> Request,
) -> Vec<Answer> {
    let settle = |m: &Message, idempotent, first: Result<Reply, RpcError>| {
        let (Some(cfg), Err(e)) = (cfg, &first) else {
            return first.map_err(ProtocolError::from);
        };
        match remap(endpoint, cfg, m.node, *e, || make(m)) {
            Ok(answer) => answer,
            Err(e) if e.is_indeterminate() && idempotent && cfg.backoff.rpc_retry_budget > 0 => {
                call(endpoint, cfg, m.node, || make(m))
            }
            // Shed by a full queue, never executed: retry any request.
            Err(RpcError::Busy(_)) if cfg.backoff.rpc_retry_budget > 0 => {
                call(endpoint, cfg, m.node, || make(m))
            }
            Err(e) => Err(ProtocolError::from(e)),
        }
    };
    if let [m] = round {
        let req = make(m);
        let idempotent = req.is_idempotent();
        return vec![settle(m, idempotent, endpoint.call(m.node, req))];
    }
    let mut idempotent = Vec::with_capacity(round.len());
    let calls = round
        .iter()
        .map(|m| {
            let req = make(m);
            idempotent.push(req.is_idempotent());
            (m.node, req)
        })
        .collect();
    let first = endpoint.call_many(calls);
    first.into_iter().zip(round).zip(idempotent).map(|((res, m), i)| settle(m, i, res)).collect()
}

/// The §3.11 multicast: message `c` goes to `nodes[c]` carrying `make(c)`,
/// and the client NIC pays for one payload. A crashed target is remapped
/// (§3.5) and sent its message again alone; nothing else is re-sent. It
/// stays apart from [`pfor`]: one payload for every member is a different
/// transport call, not a grouping.
pub(crate) fn multicast(
    endpoint: &ClientEndpoint,
    cfg: &ProtocolConfig,
    nodes: &[NodeId],
    make: impl Fn(usize) -> Request,
) -> Vec<Result<Reply, ProtocolError>> {
    if nodes.is_empty() {
        return Vec::new(); // an empty round would still pay propagation delay
    }
    let calls = nodes.iter().enumerate().map(|(c, &node)| (node, make(c))).collect();
    let resend = |(c, res): (usize, Result<Reply, RpcError>)| match res {
        Ok(reply) => Ok(reply),
        Err(e) => remap(endpoint, cfg, nodes[c], e, || make(c)).unwrap_or_else(|e| Err(e.into())),
    };
    endpoint.broadcast(calls).into_iter().enumerate().map(resend).collect()
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

    /// A [`pfor`] round of one member per target: member `c` goes to
    /// `nodes[c]` carrying `make(c)`; the replies come back in order.
    fn pfor_each(
        ep: &ClientEndpoint,
        cfg: &ProtocolConfig,
        nodes: &[NodeId],
        make: impl Fn(usize) -> Request,
    ) -> Vec<Result<Reply, ProtocolError>> {
        let members = nodes.iter().enumerate().map(|(c, &node)| (c, node, c)).collect();
        let mut replies = Vec::new();
        pfor(ep, cfg, members, usize::MAX, true, |&c| make(c), |_, res| replies.push(res));
        replies
    }

    #[test]
    fn call_many_remaps_only_the_down_targets() {
        let (net, ep, cfg) = setup(true);
        net.crash_node(NodeId(0));
        net.crash_node(NodeId(3));
        let nodes: Vec<_> = (0..4).map(NodeId).collect();
        let replies = pfor_each(&ep, &cfg, &nodes, |_| Request::Read { stripe: StripeId(0) });
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
            rpc_retry_budget: budget,
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
            rpc_retry_budget: 3,
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
        let replies = pfor_each(&ep, &cfg, &nodes, recording(&made, read));
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
        let replies = pfor_each(&ep, &cfg, &nodes, recording(&made, swap));
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

    /// The member ids a message carries, from its `Read { stripe: id }`s.
    fn ids(req: Request) -> Vec<u64> {
        match req {
            Request::Batch(reqs) => reqs.into_iter().flat_map(ids).collect(),
            Request::Read { stripe } => vec![stripe.0],
            other => panic!("not a test member: {other:?}"),
        }
    }

    /// Each round [`fan_out`] sent, as `(node, member ids)` per message.
    type Rounds = Vec<Vec<(NodeId, Vec<u64>)>>;

    /// Each member `fold` saw, with its outcome, in order.
    type Folded = Vec<(u64, Result<Reply, ProtocolError>)>;

    /// Runs [`fan_out`] over a transport that records every round and
    /// answers each message with `reply(round, message, members)`; returns
    /// the rounds, the member ids each `fold` saw (with its outcome) and
    /// the message count.
    fn drive(
        members: &[(u8, NodeId, u64)],
        cap: usize,
        reply: impl Fn(usize, &(NodeId, Vec<u64>)) -> Result<Reply, ProtocolError>,
    ) -> (Rounds, Folded, usize) {
        let (mut rounds, mut folded) = (Rounds::new(), Folded::new());
        let read = |&id: &u64| Request::Read { stripe: StripeId(id) };
        let send = |round: &[Message], make: &dyn Fn(&Message) -> Request| {
            let sent: Vec<_> = round.iter().map(|m| (m.node, ids(make(m)))).collect();
            let replies = sent.iter().map(|msg| reply(rounds.len(), msg)).collect();
            rounds.push(sent);
            replies
        };
        let messages =
            fan_out(members.to_vec(), cap, read, send, |&mut id, res| folded.push((id, res)));
        (rounds, folded, messages)
    }

    /// A well-formed answer: `Ack` per member, batched like the message.
    fn acks((_, ids): &(NodeId, Vec<u64>)) -> Result<Reply, ProtocolError> {
        Ok(match ids.len() {
            1 => Reply::Ack,
            n => Reply::Batch(vec![Reply::Ack; n]),
        })
    }

    /// The grouping `pfor` replaced, kept as the reference: a `BTreeMap`
    /// of per-`(key, node)` lists, each sending its next `cap` members per
    /// round until all are sent.
    fn reference(members: &[(u8, NodeId, u64)], cap: usize) -> Rounds {
        let mut by_run: std::collections::BTreeMap<(u8, NodeId), Vec<u64>> = Default::default();
        for &(key, node, id) in members {
            by_run.entry((key, node)).or_default().push(id);
        }
        let mut rest: Vec<(NodeId, std::vec::IntoIter<u64>)> =
            by_run.into_iter().map(|((_, node), ids)| (node, ids.into_iter())).collect();
        let mut rounds = Rounds::new();
        while !rest.is_empty() {
            let round = rest.iter_mut().map(|(node, ids)| (*node, ids.by_ref().take(cap)));
            rounds.push(round.map(|(node, ids)| (node, ids.collect())).collect());
            rest.retain(|(_, ids)| !ids.as_slice().is_empty());
        }
        rounds
    }

    #[test]
    fn pfor_sends_the_messages_of_the_btreemap_grouping_it_replaced() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        for case in 0..500 {
            let len = next(40) as usize;
            let members: Vec<(u8, NodeId, u64)> = (0..len as u64)
                .map(|id| (next(4) as u8, NodeId(next(6) as u32), id))
                .collect();
            let cap = [1, 2, 3, 7, usize::MAX][case % 5];
            let (rounds, folded, messages) = drive(&members, cap, |_, msg| acks(msg));
            let want = reference(&members, cap);
            assert_eq!(rounds, want, "case {case}: cap {cap}, members {members:?}");
            assert_eq!(messages, want.iter().map(Vec::len).sum::<usize>());
            let sent: Vec<u64> = want.iter().flatten().flat_map(|(_, ids)| ids.clone()).collect();
            let seen: Vec<u64> = folded.iter().map(|f| f.0).collect();
            assert_eq!(seen, sent, "case {case}: one fold per member, in send order");
            assert!(folded.iter().all(|f| matches!(f.1, Ok(Reply::Ack))));
        }
    }

    #[test]
    fn pfor_table() {
        let (n0, n1) = (NodeId(0), NodeId(1));
        let down = || ProtocolError::Rpc(RpcError::NodeDown(NodeId(0)));
        let is_err = |res: &Result<Reply, ProtocolError>| res.is_err();

        // One member: a bare request, its reply handed over as is.
        let (rounds, folded, messages) = drive(&[(0, n0, 7)], usize::MAX, |_, msg| acks(msg));
        assert_eq!((rounds, messages), (vec![vec![(n0, vec![7])]], 1));
        assert!(matches!(folded[..], [(7, Ok(Reply::Ack))]));

        // A run over the cap continues in the next rounds, beside the
        // runs that fit.
        let members = [(0, n0, 0), (0, n0, 1), (0, n1, 2), (0, n0, 3), (0, n0, 4)];
        let (rounds, _, messages) = drive(&members, 2, |_, msg| acks(msg));
        let want = vec![
            vec![(n0, vec![0, 1]), (n1, vec![2])],
            vec![(n0, vec![3, 4])],
        ];
        assert_eq!((rounds, messages), (want, 3));

        // A failed message fails every member of its run, unsent ones
        // included; the other runs carry on.
        let members = [(0, n0, 0), (0, n0, 1), (0, n0, 2), (0, n1, 3), (0, n1, 4), (0, n1, 5)];
        let fail_n0 = |_, msg: &(NodeId, Vec<u64>)| match msg.0 {
            NodeId(0) => Err(down()),
            _ => acks(msg),
        };
        let (rounds, folded, messages) = drive(&members, 2, fail_n0);
        let want = vec![vec![(n0, vec![0, 1]), (n1, vec![3, 4])], vec![(n1, vec![5])]];
        assert_eq!((rounds, messages), (want, 3));
        let failed: Vec<u64> = folded.iter().filter(|f| is_err(&f.1)).map(|f| f.0).collect();
        assert_eq!(failed, [0, 1, 2], "node 0's unsent member 2 fails with its message");
        assert!(folded.iter().all(|f| f.0 < 3 || matches!(f.1, Ok(Reply::Ack))));

        // A short batch, a long one and a foreign reply are the message's
        // error, not a panic.
        let members = [(0, n0, 0), (0, n0, 1), (1, n0, 2), (1, n0, 3), (2, n0, 4), (2, n0, 5)];
        let malformed = |_, msg: &(NodeId, Vec<u64>)| {
            Ok(match msg.1[0] {
                0 => Reply::Batch(vec![Reply::Ack]),
                2 => Reply::Batch(vec![Reply::Ack; 3]),
                _ => Reply::Ack,
            })
        };
        let (_, folded, messages) = drive(&members, usize::MAX, malformed);
        assert_eq!(messages, 3);
        assert_eq!(folded.len(), 6);
        for (id, res) in folded {
            let Err(ProtocolError::UnexpectedReply { expected, .. }) = res else {
                panic!("member {id}: {res:?}")
            };
            assert_eq!(expected, "Reply::Batch");
        }
    }
}
