//! A bytes budget for the bulk WRITE path: how many block-sized buffers a
//! failure-free `write_blocks` allocates per user block.
//!
//! Fig. 5 moves the new value to one data node and one increment to each of
//! the p redundant nodes; inside one process the same budget is memory
//! traffic. Per user block the protocol needs the staged value and p = 4
//! increments — all recycled through `core`'s pool after warm-up, the
//! increments handed back by the `add` replies — and the data node's replay
//! copy of the swap reply (the at-least-once guard), the one fresh
//! allocation. Anything beyond that is a copy somebody added — such as
//! cloning every request in case of a re-send, which put this count at 10,
//! or freeing each increment at the node, which put it at 5; it is 1 now.
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
/// Blocks per call: four stripes, 3 MiB (the benchmark's `seq_large` shape).
const RUN: usize = 48;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn failure_free_bulk_write_allocates_at_most_two_blocks_per_user_block() {
    let mut cfg = ProtocolConfig::new(K, N, BLOCK).unwrap();
    cfg.pipeline_width = 1; // one stripe per round, as the budget was measured
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
    println!("block-sized allocations per user block: {per_block:.2}");
    assert!(
        per_block <= 2.0,
        "{per_block:.2} block-sized buffers allocated per user block written; \
         only the replay copy is fresh — staged values and increments are recycled"
    );
    let lbs: Vec<u64> = (0..RUN as u64).collect();
    assert_eq!(client.read_blocks(&lbs).unwrap(), bufs);
}
