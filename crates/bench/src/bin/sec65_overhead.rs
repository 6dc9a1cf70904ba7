//! **§6.5** — space overhead at storage nodes beyond the erasure-code
//! redundancy: the paper reports ~10 bytes of protocol metadata per block
//! (1% of a 1 KB block), reducible to 6, or 0.04% with 16 KB blocks.

use ajx_bench::{banner, render_table};
use ajx_cluster::Cluster;
use ajx_core::ProtocolConfig;

/// Metadata bytes per block, the same as a share of the block, and the
/// messages the two garbage-collection cycles took to get there.
fn steady_state_overhead(block_size: usize) -> (f64, f64, usize) {
    let cfg = ProtocolConfig::new(3, 5, block_size).unwrap();
    let c = Cluster::new(cfg, 1);
    // Write every block a few times, then run GC to steady state.
    for lb in 0..30u64 {
        for round in 0..3u8 {
            c.client(0)
                .write_block(lb, vec![round; block_size])
                .unwrap();
        }
    }
    let messages = c.client(0).collect_garbage().unwrap().messages
        + c.client(0).collect_garbage().unwrap().messages;
    let per_block = c.total_metadata_bytes() as f64 / c.total_resident_blocks() as f64;
    (per_block, 100.0 * per_block / block_size as f64, messages)
}

fn main() {
    banner(
        "sec 6.5 — protocol metadata per block at storage nodes (after GC)",
        "~10 bytes/block (1% of 1 KB), reducible to 6; 0.04% with 16 KB blocks",
    );
    let mut rows = Vec::new();
    for block_size in [512usize, 1024, 4096, 16384] {
        let (bytes, pct, messages) = steady_state_overhead(block_size);
        rows.push(vec![
            format!("{block_size}"),
            format!("{bytes:.1}"),
            format!("{pct:.3}%"),
            format!("{messages}"),
        ]);
    }
    let header = ["block size (B)", "metadata bytes/block", "overhead", "GC messages"];
    print!("{}", render_table(&header, &rows));
    println!(
        "\nOur fixed per-block state is opmode + lmode + epoch + clock + lock-holder\n\
         (22 bytes; the paper packs the same information into 10 and notes 6 is\n\
         possible). The point reproduced: overhead is O(1) per block — history\n\
         (recentlist/oldlist) is fully drained by the two-phase GC — and becomes\n\
         negligible as the block grows. Draining it is O(nodes) too: the 90\n\
         writes' 270 tid entries go in one batched message per node per phase."
    );
}
