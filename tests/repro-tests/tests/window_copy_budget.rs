//! The bulk WRITE path's bytes budget at the default window width: how
//! many block-sized buffers a failure-free `write_blocks` allocates per user
//! block when eight stripes move through the protocol together.
//!
//! A window holds every buffer of its eight stripes at once — per stripe, k
//! staged values and k·(n − k) increments, 60 at RS 12-of-16 — and all of
//! them come back to the client's pool. A pool that keeps fewer than a
//! window's worth re-allocates the rest every window: bounded at 256
//! buffers, it put this count at 3.33. Only the data node's replay copy
//! should be fresh, as at width 1 (`write_copy_budget.rs`).
//!
//! One test per file: the count is process-wide (`support/block_allocs.rs`).

#[path = "support/block_allocs.rs"]
mod block_allocs;

use ajx_cluster::Cluster;
use ajx_core::ProtocolConfig;
use ajx_transport::NetworkConfig;
use block_allocs::{blocks_allocated, CountingAlloc};

const K: usize = 12;
const N: usize = 16;
const BLOCK: usize = 64 * 1024;
/// Blocks per call: sixteen stripes, two windows of eight.
const RUN: usize = 192;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn a_default_window_allocates_at_most_two_blocks_per_user_block() {
    let cfg = ProtocolConfig::new(K, N, BLOCK).unwrap();
    assert_eq!(cfg.pipeline_width, 8, "the default window is measured");
    let net_cfg = NetworkConfig {
        server_threads: 1,
        ..NetworkConfig::default()
    };
    let cluster = Cluster::with_network(cfg, 1, net_cfg);
    let bufs: Vec<Vec<u8>> = (0..RUN).map(|b| vec![b as u8 + 1; BLOCK]).collect();
    let writes: Vec<(u64, &[u8])> = (0..).zip(bufs.iter().map(Vec::as_slice)).collect();
    let client = cluster.client(0);
    // Warm up: the nodes get their blocks, the pool its high-water mark.
    for _ in 0..2 {
        client.write_blocks(&writes).unwrap();
    }

    let (done, blocks) = blocks_allocated(BLOCK, || client.write_blocks(&writes));
    done.unwrap();

    let per_block = blocks / RUN as f64;
    println!("block-sized allocations per user block at width 8: {per_block:.2}");
    assert!(
        per_block <= 2.0,
        "{per_block:.2} block-sized buffers allocated per user block written; \
         a window's staged values and increments must survive in the pool"
    );
    let lbs: Vec<u64> = (0..RUN as u64).collect();
    assert_eq!(client.read_blocks(&lbs).unwrap(), bufs);
}
