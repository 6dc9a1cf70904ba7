//! A bytes budget for degraded mode: how many block-sized buffers a
//! degraded read and a rebuilt block allocate.
//!
//! Fig. 6 recovery judges a set of blocks consistent from each node's tid
//! bookkeeping, not from block content, so the degraded read and the
//! rebuild engine (DESIGN.md §8) fetch blocks only from the repair set and
//! ask every other peer for metadata alone (`GetMeta`). On LRC(12,3,1) a
//! lost data or local-parity block is repaired from its local group's
//! other four blocks, the global parity from the twelve data blocks. Each
//! block-sized allocation is one share a node copied into its reply: four
//! per degraded read, and per rebuilt block (the node held each of the 16
//! indices in 4 of the 64 stripes) (15 × 4 + 12) / 16 = 4.5. A `GetMeta`
//! answered by copying the block it then drops put these counts at 15 and
//! 19.5.
//!
//! One test per file: the count is process-wide (`support/block_allocs.rs`).

#[path = "support/block_allocs.rs"]
mod block_allocs;

use ajx_cluster::Cluster;
use ajx_core::ProtocolConfig;
use ajx_storage::NodeId;
use ajx_transport::NetworkConfig;
use block_allocs::{blocks_allocated, CountingAlloc};

const K: usize = 12;
const GROUPS: usize = 3;
const GLOBALS: usize = 1;
const BLOCK: usize = 16 * 1024;
const STRIPES: u64 = 64;
const VICTIM: u32 = 0;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn block_of(lb: u64) -> Vec<u8> {
    (0..BLOCK).map(|i| (lb as usize * 7 + i) as u8).collect()
}

#[test]
fn degraded_reads_and_rebuilt_blocks_copy_only_the_shares_they_decode() {
    let mut cfg = ProtocolConfig::new_lrc(K, GROUPS, GLOBALS, BLOCK).unwrap();
    cfg.pipeline_width = 1;
    cfg.rebuild_width = 1;
    let net_cfg = NetworkConfig {
        server_threads: 1,
        ..NetworkConfig::default()
    };
    let cluster = Cluster::with_network(cfg, 1, net_cfg);
    let client = cluster.client(0);
    let bufs: Vec<Vec<u8>> = (0..STRIPES * K as u64).map(block_of).collect();
    let writes: Vec<(u64, &[u8])> = (0..).zip(bufs.iter().map(Vec::as_slice)).collect();
    client.write_blocks(&writes).unwrap();
    // Empty the tid lists, as a long-running volume's would be.
    client.collect_garbage().unwrap();
    client.collect_garbage().unwrap();

    cluster.crash_storage_node(NodeId(VICTIM));
    cluster.remap_storage_node(NodeId(VICTIM));
    let lost = cluster
        .config()
        .layout
        .data_blocks_on_node(VICTIM as usize, STRIPES);
    let (reads, read_blocks) = blocks_allocated(BLOCK, || {
        lost.iter()
            .map(|&lb| client.read_block(lb))
            .collect::<Vec<_>>()
    });
    for (&lb, got) in lost.iter().zip(reads) {
        assert_eq!(
            got.unwrap(),
            bufs[lb as usize],
            "degraded read of block {lb}"
        );
    }
    let per_read = read_blocks / lost.len() as f64;

    let (report, rebuild_blocks) =
        blocks_allocated(BLOCK, || client.rebuild_node(NodeId(VICTIM), STRIPES));
    let report = report.unwrap();
    assert_eq!(report.rebuilt, STRIPES as usize, "{report:?}");
    let per_rebuilt = rebuild_blocks / report.rebuilt as f64;

    println!(
        "block-sized allocations per degraded read: {per_read:.2} ({} reads); \
         per rebuilt block: {per_rebuilt:.2}",
        lost.len()
    );
    assert!(
        per_read <= 4.0,
        "{per_read:.2} block-sized buffers per degraded read; only the 4 \
         repair-set shares carry a block — GetMeta replies copy none"
    );
    assert!(
        per_rebuilt <= 4.5,
        "{per_rebuilt:.2} block-sized buffers per rebuilt block; only the \
         shares fetched for decoding carry a block — GetMeta replies copy none"
    );
}
