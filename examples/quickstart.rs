//! Quickstart: a 3-of-5 erasure-coded storage service in a few lines.
//!
//! Sets up five storage nodes and two clients, writes and reads logical
//! blocks, then crashes a node and shows online recovery repairing it
//! transparently.
//!
//! Run with: `cargo run --example quickstart`

use ajx_cluster::Cluster;
use ajx_core::{ProtocolConfig, UpdateStrategy};
use ajx_storage::{NodeId, StripeId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 3-of-5 Reed-Solomon code: 3 data + 2 redundant blocks per stripe,
    // tolerating any 2 simultaneous storage-node crashes with only 66%
    // space overhead (versus 200% for 3-way replication).
    let cfg = ProtocolConfig::new(3, 5, 1024)?
        .with_strategy(UpdateStrategy::Parallel);
    cfg.validate().expect("configuration within the paper's bounds");
    let cluster = Cluster::new(cfg, 2);

    println!("== writing 12 blocks through client 0 ==");
    for lb in 0..12u64 {
        cluster.client(0).write_block(lb, vec![lb as u8 + 1; 1024])?;
    }
    println!("   a write is 1 swap + 2 adds: no locks, no 2-phase commit");

    println!("== reading them back through client 1 ==");
    for lb in 0..12u64 {
        let v = cluster.client(1).read_block(lb)?;
        assert_eq!(v, vec![lb as u8 + 1; 1024]);
    }
    println!("   a read is a single round trip to one storage node");

    println!("== crashing storage node 0 ==");
    cluster.crash_storage_node(NodeId(0));
    println!(
        "   stripe 0 consistent? {} (one block lost)",
        cluster.stripe_is_consistent(StripeId(0))
    );

    println!("== reading through the failure ==");
    // Reads of the lost blocks are served *degraded*: one batched
    // GetState to the surviving nodes, decoded client-side — no locks,
    // no repair on the read path (DESIGN.md §8).
    for lb in 0..12u64 {
        let v = cluster.client(1).read_block(lb)?;
        assert_eq!(v, vec![lb as u8 + 1; 1024]);
    }
    println!("   all data intact — served lock-free from the survivors");

    println!("== rebuilding the replaced node ==");
    // Repair is a separate, batched job: the rebuild engine re-creates
    // every stripe the node held (one message per node per chunk).
    let report = cluster.client(0).rebuild_node(NodeId(0), 6)?;
    println!(
        "   {} stripes rebuilt, {} skipped; stripe 0 consistent again? {}",
        report.rebuilt + report.recovered,
        report.skipped,
        cluster.stripe_is_consistent(StripeId(0))
    );

    // Housekeeping: two GC cycles drain the write bookkeeping (Fig. 7),
    // each phase with one batched message per storage node.
    let messages = cluster.client(0).collect_garbage()?.messages
        + cluster.client(0).collect_garbage()?.messages;
    println!(
        "== done: {} bytes of node metadata after GC ({messages} messages) ==",
        cluster.total_metadata_bytes()
    );
    Ok(())
}
