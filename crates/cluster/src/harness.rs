//! The [`Cluster`] type: nodes + clients + fault injection + ground truth.

use ajx_core::{Client, ProtocolConfig};
use ajx_storage::{ClientId, NodeId, OpMode, StripeId};
use ajx_transport::{Network, NetworkConfig};
use std::sync::Arc;
use std::time::Duration;

/// An in-process cluster: `cfg.n()` storage nodes plus a set of protocol
/// clients sharing one simulated network.
pub struct Cluster {
    net: Arc<Network>,
    cfg: ProtocolConfig,
    clients: Vec<Arc<Client>>,
}

impl Cluster {
    /// A cluster with no latency or bandwidth shaping — the configuration
    /// for correctness tests, where wall-clock time is irrelevant.
    pub fn new(cfg: ProtocolConfig, n_clients: usize) -> Self {
        Self::with_network_shaping(cfg, n_clients, Duration::ZERO, None, None)
    }

    /// A cluster with latency and bandwidth shaping — the configuration for
    /// the Fig. 9 throughput experiments.
    ///
    /// `client_bw` / `node_bw` are bytes/second per endpoint NIC.
    pub fn with_network_shaping(
        cfg: ProtocolConfig,
        n_clients: usize,
        one_way_latency: Duration,
        client_bw: Option<u64>,
        node_bw: Option<u64>,
    ) -> Self {
        Self::with_network_config(
            cfg,
            n_clients,
            one_way_latency,
            client_bw,
            node_bw,
            ajx_storage::FlushPolicy::WriteThrough,
        )
    }

    /// Full control, including the nodes' media flush policy (the §3.11
    /// sequential-write coalescing ablation).
    pub fn with_network_config(
        cfg: ProtocolConfig,
        n_clients: usize,
        one_way_latency: Duration,
        client_bw: Option<u64>,
        node_bw: Option<u64>,
        flush_policy: ajx_storage::FlushPolicy,
    ) -> Self {
        Self::with_network(
            cfg,
            n_clients,
            NetworkConfig {
                n_nodes: 0, // overwritten below
                block_size: 0,
                one_way_latency,
                client_bandwidth: client_bw,
                node_bandwidth: node_bw,
                server_threads: 4,
                call_timeout: None,
                code: None,
                flush_policy,
                node_queue_depth: Some(1024),
                state_shards: 8,
                persist: ajx_storage::PersistMode::InMemory,
            },
        )
    }

    /// The most general constructor: an explicit [`NetworkConfig`], with the
    /// node count, block size, and erasure code forced to match `cfg` (the
    /// chaos harness uses this to set `call_timeout` and then drive the
    /// network's [`ajx_transport::FaultPlan`]).
    pub fn with_network(cfg: ProtocolConfig, n_clients: usize, mut net_cfg: NetworkConfig) -> Self {
        net_cfg.n_nodes = cfg.n();
        net_cfg.block_size = cfg.block_size;
        net_cfg.code = Some(cfg.code.clone());
        let net = Network::new(net_cfg);
        let clients = (0..n_clients)
            .map(|i| Arc::new(Client::new(net.client(ClientId(i as u32)), cfg.clone())))
            .collect();
        Cluster { net, cfg, clients }
    }

    /// Total media writes performed across all storage nodes (the §3.11
    /// flush-coalescing instrumentation).
    pub fn total_media_writes(&self) -> u64 {
        (0..self.cfg.n())
            .map(|t| self.net.with_node(NodeId(t as u32), |sn| sn.media_writes()))
            .sum()
    }

    /// Total journal fsyncs charged across all storage nodes (the
    /// DESIGN.md §10 group-commit accounting; always zero on in-memory
    /// backends).
    pub fn total_journal_fsyncs(&self) -> u64 {
        (0..self.cfg.n())
            .map(|t| {
                self.net
                    .with_node(NodeId(t as u32), |sn| sn.persist_stats().fsyncs)
            })
            .sum()
    }

    /// Total lock-related RPCs (`TryLock` / `SetLock` / `GetRecent`)
    /// handled across all storage nodes — the instrumentation behind the
    /// "degraded reads take no locks" guarantee (DESIGN.md §8).
    pub fn total_lock_ops(&self) -> u64 {
        (0..self.cfg.n())
            .map(|t| self.net.with_node(NodeId(t as u32), |sn| sn.lock_ops()))
            .sum()
    }

    /// Flushes any deferred dirty blocks on every node.
    pub fn flush_all_nodes(&self) {
        for t in 0..self.cfg.n() {
            self.net.with_node(NodeId(t as u32), |sn| sn.flush_all());
        }
    }

    /// The protocol configuration shared by all clients.
    pub fn config(&self) -> &ProtocolConfig {
        &self.cfg
    }

    /// The shared network (global stats, direct node access).
    pub fn network(&self) -> &Arc<Network> {
        &self.net
    }

    /// Number of clients.
    pub fn n_clients(&self) -> usize {
        self.clients.len()
    }

    /// Client `idx` (panics if out of range).
    pub fn client(&self, idx: usize) -> &Arc<Client> {
        &self.clients[idx]
    }

    /// Fail-stops storage node `node`.
    pub fn crash_storage_node(&self, node: NodeId) {
        self.net.crash_node(node);
    }

    /// Installs a fresh (INIT, garbage-filled) replacement for `node`
    /// (§3.5 directory remap).
    pub fn remap_storage_node(&self, node: NodeId) {
        self.net.remap_node(node, ajx_core::REMAP_GARBAGE);
    }

    /// Restarts a crashed node from its durable state (restart-with-disk,
    /// DESIGN.md §10). Returns `false` — the node stays down — if it has
    /// no durable backend; wipe-and-rebuild via
    /// [`Cluster::remap_storage_node`] is then the only way back.
    pub fn restart_storage_node_with_disk(&self, node: NodeId) -> bool {
        self.net.restart_node_with_disk(node)
    }

    /// Kills client `idx` after `calls` more RPCs and — once it is dead —
    /// lets the fail-stop detector expire its recovery locks at every node.
    ///
    /// Returns a closure the test calls *after* the victim's operation has
    /// failed, to model detection (the paper's §2: "the node's halted state
    /// can be detected by other nodes").
    pub fn kill_client_after(&self, idx: usize, calls: u64) -> impl FnOnce() -> usize + '_ {
        self.clients[idx].endpoint().kill_after(calls);
        let id = self.clients[idx].id();
        move || self.net.notify_client_failure(id)
    }

    /// Ground truth: decodes `stripe` straight from node memory and checks
    /// that data and redundancy agree — the check a real deployment cannot
    /// afford per-access (§3.4), used here to validate end states.
    ///
    /// Returns `false` if any node is down/INIT/locked or the erasure
    /// equation does not hold.
    pub fn stripe_is_consistent(&self, stripe: StripeId) -> bool {
        let n = self.cfg.n();
        let mut blocks: Vec<Vec<u8>> = Vec::with_capacity(n);
        for t in 0..n {
            let node = NodeId(self.cfg.layout.node_for(stripe.0, t) as u32);
            if !self.net.node_is_up(node) {
                return false;
            }
            let block = self.net.with_node(node, |sn| {
                sn.block_state(stripe).map(|b| {
                    (b.opmode() == OpMode::Norm).then(|| b.raw_block().to_vec())
                })
            });
            match block {
                // Never-touched stripe-blocks are implicitly zero.
                None => blocks.push(vec![0; self.cfg.block_size]),
                Some(Some(b)) => blocks.push(b),
                Some(None) => return false,
            }
        }
        self.cfg.code.verify_stripe(&blocks).unwrap_or(false)
    }

    /// One line per in-stripe index describing `stripe`'s state at each
    /// node — up/down, op mode, lock mode, epoch, list sizes — for failure
    /// diagnostics in chaos runs and tests.
    pub fn stripe_forensics(&self, stripe: StripeId) -> String {
        (0..self.cfg.n())
            .map(|t| {
                let node = NodeId(self.cfg.layout.node_for(stripe.0, t) as u32);
                if !self.net.node_is_up(node) {
                    return format!("t{t}=s{}: DOWN", node.0);
                }
                self.net.with_node(node, |sn| match sn.block_state(stripe) {
                    None => format!("t{t}=s{}: no block", node.0),
                    Some(b) => format!(
                        "t{t}=s{}: {:?}/{:?} epoch {} pending {}",
                        node.0,
                        b.opmode(),
                        b.lmode(),
                        b.epoch().0,
                        b.pending_tids(),
                    ),
                })
            })
            .collect::<Vec<_>>()
            .join("; ")
    }

    /// The raw contents of every block of `stripe` (None = node down),
    /// for forensic assertions in tests.
    pub fn raw_stripe(&self, stripe: StripeId) -> Vec<Option<Vec<u8>>> {
        (0..self.cfg.n())
            .map(|t| {
                let node = NodeId(self.cfg.layout.node_for(stripe.0, t) as u32);
                if !self.net.node_is_up(node) {
                    return None;
                }
                Some(self.net.with_node(node, |sn| {
                    sn.block_state(stripe)
                        .map(|b| b.raw_block().to_vec())
                        .unwrap_or_else(|| vec![0; self.cfg.block_size])
                }))
            })
            .collect()
    }

    /// Total protocol metadata bytes across all storage nodes (§6.5).
    pub fn total_metadata_bytes(&self) -> usize {
        (0..self.cfg.n())
            .map(|t| self.net.with_node(NodeId(t as u32), |sn| sn.metadata_bytes()))
            .sum()
    }

    /// Total stripe-blocks materialized across all storage nodes.
    pub fn total_resident_blocks(&self) -> usize {
        (0..self.cfg.n())
            .map(|t| self.net.with_node(NodeId(t as u32), |sn| sn.resident_blocks()))
            .sum()
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("k", &self.cfg.k())
            .field("n", &self.cfg.n())
            .field("clients", &self.clients.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(k: usize, n: usize, clients: usize) -> Cluster {
        Cluster::new(ProtocolConfig::new(k, n, 32).unwrap(), clients)
    }

    #[test]
    fn fresh_cluster_stripes_are_consistent() {
        let c = cluster(2, 4, 1);
        assert!(c.stripe_is_consistent(StripeId(0)));
        assert!(c.stripe_is_consistent(StripeId(77)));
    }

    #[test]
    fn write_then_ground_truth_check() {
        let c = cluster(3, 5, 1);
        c.client(0).write_block(0, vec![9; 32]).unwrap();
        c.client(0).write_block(1, vec![8; 32]).unwrap();
        let stripe = StripeId(0);
        assert!(c.stripe_is_consistent(stripe));
        let raw = c.raw_stripe(stripe);
        assert_eq!(raw[0].as_deref(), Some(&[9u8; 32][..]));
        assert_eq!(raw[1].as_deref(), Some(&[8u8; 32][..]));
    }

    #[test]
    fn crashed_node_breaks_ground_truth_until_recovery() {
        let c = cluster(2, 4, 1);
        c.client(0).write_block(0, vec![1; 32]).unwrap();
        c.crash_storage_node(NodeId(0));
        assert!(!c.stripe_is_consistent(StripeId(0)));
        // A read of block 0 (placed on node 0 for stripe 0) is served by
        // the lock-free degraded path: correct data, no lock RPCs, and the
        // stripe deliberately stays degraded (the rebuild engine repairs
        // it in bulk rather than every reader racing to recover).
        let locks_before = c.total_lock_ops();
        let v = c.client(0).read_block(0).unwrap();
        assert_eq!(v, vec![1; 32]);
        assert_eq!(c.total_lock_ops(), locks_before, "degraded read locked");
        assert!(!c.stripe_is_consistent(StripeId(0)));
        // Explicit recovery repairs the stripe.
        c.client(0).recover_stripe(StripeId(0)).unwrap();
        assert!(c.stripe_is_consistent(StripeId(0)));
    }

    #[test]
    fn degraded_reads_off_falls_back_to_read_triggered_recovery() {
        let mut cfg = ProtocolConfig::new(2, 4, 32).unwrap();
        cfg.degraded_reads = false;
        let c = Cluster::new(cfg, 1);
        c.client(0).write_block(0, vec![1; 32]).unwrap();
        c.crash_storage_node(NodeId(0));
        let v = c.client(0).read_block(0).unwrap();
        assert_eq!(v, vec![1; 32]);
        assert!(c.stripe_is_consistent(StripeId(0)));
    }

    #[test]
    fn metadata_accounting_is_visible() {
        let c = cluster(2, 4, 1);
        c.client(0).write_block(0, vec![1; 32]).unwrap();
        assert!(c.total_metadata_bytes() > 0);
        assert!(c.total_resident_blocks() >= 3); // data node + 2 redundant
    }
}
