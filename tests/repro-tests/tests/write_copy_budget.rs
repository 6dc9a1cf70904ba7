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
//! This file holds one test on purpose: the count is process-wide, so no
//! other test may run beside it.

use ajx_cluster::Cluster;
use ajx_core::ProtocolConfig;
use ajx_transport::NetworkConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

const K: usize = 12;
const N: usize = 16;
const BLOCK: usize = 64 * 1024;
/// Blocks per call: four stripes, 3 MiB (the benchmark's `seq_large` shape).
const RUN: usize = 48;

/// Bytes requested in allocations of at least one block while `COUNTING`.
static BLOCK_BYTES: AtomicUsize = AtomicUsize::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters touched beside it are atomics and
// never allocate. `realloc` and `alloc_zeroed` keep their default
// definitions, which go through `alloc` and `dealloc` below.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= BLOCK && COUNTING.load(Ordering::Relaxed) {
            BLOCK_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn failure_free_bulk_write_allocates_at_most_two_blocks_per_user_block() {
    let mut cfg = ProtocolConfig::new(K, N, BLOCK).unwrap();
    cfg.pipeline_width = 1; // one thread, one pool
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

    COUNTING.store(true, Ordering::SeqCst);
    let done = client.write_blocks(&writes);
    COUNTING.store(false, Ordering::SeqCst);
    done.unwrap();

    let per_block = BLOCK_BYTES.load(Ordering::SeqCst) as f64 / (RUN * BLOCK) as f64;
    println!("block-sized allocations per user block: {per_block:.2}");
    assert!(
        per_block <= 2.0,
        "{per_block:.2} block-sized buffers allocated per user block written; \
         only the replay copy is fresh — staged values and increments are recycled"
    );
    let lbs: Vec<u64> = (0..RUN as u64).collect();
    assert_eq!(client.read_blocks(&lbs).unwrap(), bufs);
}
