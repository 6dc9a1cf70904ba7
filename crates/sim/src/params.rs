//! Simulation parameters, calibrated to the paper's §5.1 testbed.
//!
//! The paper tuned its simulator "using the real system to determine values
//! for the delays to encode and decode blocks ..., latencies for various
//! operations on the storage node, network latency, and bandwidth of each
//! node" (§5.2). The defaults below are the analogous calibration for this
//! reproduction: network figures come straight from §5.1 (50 µs ping RTT,
//! 500 Mbit/s node bandwidth); compute costs are measured from our own
//! erasure-code kernels (Fig. 8(a)-scale, single-digit microseconds per
//! 1 KB block); RPC overheads are set so that §6.3's latency split
//! (computation < 5 %, communication ≈ 95 %) holds.


/// Timing and bandwidth constants for the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimParams {
    /// Block size in bytes (the paper evaluates 1 KB blocks).
    pub block_size: usize,
    /// Fixed per-message header bytes.
    pub header_bytes: usize,
    /// One-way propagation latency in µs (ping RTT 50 µs ⇒ 25 µs one-way).
    pub one_way_latency_us: f64,
    /// Client NIC bandwidth in bytes/µs (500 Mbit/s = 62.5 B/µs).
    pub client_nic_bpus: f64,
    /// Storage-node NIC bandwidth in bytes/µs.
    pub node_nic_bpus: f64,
    /// Client-side *Delta* cost (GF subtract + multiply) per block, µs.
    pub delta_cost_us: f64,
    /// Node-side *Add* (GF addition/XOR) cost per block, µs.
    pub add_cost_us: f64,
    /// Node service time for `swap` beyond the XOR/copy, µs.
    pub swap_service_us: f64,
    /// Node service time for `read`, µs.
    pub read_service_us: f64,
    /// Client CPU time to issue + complete one RPC (TCP/RPC stack), µs.
    pub rpc_client_cpu_us: f64,
    /// Node CPU time to receive + reply one RPC, µs.
    pub rpc_node_cpu_us: f64,
    /// Extra node CPU in broadcast mode: the `α_ji` multiply (§3.11), µs.
    pub node_scale_cost_us: f64,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            block_size: 1024,
            header_bytes: 32,
            one_way_latency_us: 25.0,
            client_nic_bpus: 62.5,
            node_nic_bpus: 62.5,
            delta_cost_us: 4.0,
            add_cost_us: 1.5,
            swap_service_us: 2.0,
            read_service_us: 1.5,
            rpc_client_cpu_us: 20.0,
            rpc_node_cpu_us: 15.0,
            node_scale_cost_us: 3.0,
        }
    }
}

impl SimParams {
    /// Scales the per-block compute costs for a different block size
    /// (costs in the defaults are per 1 KB).
    pub fn scaled_to_block(mut self, block_size: usize) -> Self {
        let f = block_size as f64 / 1024.0;
        self.block_size = block_size;
        self.delta_cost_us *= f;
        self.add_cost_us *= f;
        self.node_scale_cost_us *= f;
        self
    }

    /// Wire bytes of a block-carrying message.
    pub fn block_msg_bytes(&self) -> f64 {
        (self.header_bytes + self.block_size) as f64
    }

    /// Wire bytes of a header-only message.
    pub fn hdr_bytes(&self) -> f64 {
        self.header_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_testbed() {
        let p = SimParams::default();
        assert_eq!(p.block_size, 1024);
        // 500 Mbit/s = 62.5 MB/s = 62.5 bytes/µs.
        assert!((p.client_nic_bpus - 62.5).abs() < 1e-9);
        // ping 50 µs RTT.
        assert!((2.0 * p.one_way_latency_us - 50.0).abs() < 1e-9);
        // §6.3: computation must be a small fraction of per-op time.
        assert!(p.delta_cost_us < 0.1 * (2.0 * p.one_way_latency_us + p.rpc_client_cpu_us));
    }

    #[test]
    fn block_scaling_scales_compute_only() {
        let p = SimParams::default().scaled_to_block(4096);
        assert_eq!(p.block_size, 4096);
        assert!((p.delta_cost_us - 16.0).abs() < 1e-9);
        assert!((p.rpc_client_cpu_us - 20.0).abs() < 1e-9, "fixed costs unscaled");
        assert!((p.block_msg_bytes() - (4096.0 + 32.0)).abs() < 1e-9);
    }
}
