//! Closed-loop workload driving for throughput experiments.
//!
//! The paper's clients are "multi-threaded ... at the client, [the number
//! of threads] limits the number of outstanding calls" (§5.1), and Fig. 9
//! sweeps exactly that: outstanding requests per client. [`drive`] spawns
//! `threads` closed-loop workers per client and measures aggregate
//! throughput over a fixed operation count.

#![expect(
    clippy::disallowed_methods,
    reason = "closed-loop throughput runs measure real elapsed time by design"
)]

use crate::harness::Cluster;
use ajx_core::ProtocolError;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The operation mix a worker thread issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Writes to uniformly random logical blocks in `0..blocks`.
    RandomWrite {
        /// Size of the logical block space.
        blocks: u64,
    },
    /// Reads of uniformly random logical blocks.
    RandomRead {
        /// Size of the logical block space.
        blocks: u64,
    },
    /// A read/write mix (reads with probability `read_pct`/100).
    Mixed {
        /// Size of the logical block space.
        blocks: u64,
        /// Percentage of operations that are reads.
        read_pct: u8,
    },
    /// Sequential writes: each thread walks its own disjoint extent.
    SequentialWrite {
        /// Logical blocks per thread extent.
        extent: u64,
    },
    /// Batched sequential writes: each thread walks its own disjoint
    /// extent in runs of `run` blocks through one
    /// [`Client::write_blocks`](ajx_core::Client::write_blocks) call each
    /// (the multi-stripe coalesced/pipelined data path).
    BatchedWrite {
        /// Logical blocks per thread extent.
        extent: u64,
        /// Blocks per multi-block call.
        run: u64,
    },
    /// Batched reads of `run` consecutive blocks at a uniformly random
    /// start, through one
    /// [`Client::read_blocks`](ajx_core::Client::read_blocks) call each.
    BatchedRead {
        /// Size of the logical block space.
        blocks: u64,
        /// Blocks per multi-block call.
        run: u64,
    },
}

impl Workload {
    /// Logical blocks moved per operation (1 except for batched runs) —
    /// the weight an `Ok` adds to the throughput counters.
    fn blocks_per_op(&self) -> u64 {
        match *self {
            Workload::BatchedWrite { run, .. } => run.max(1),
            Workload::BatchedRead { blocks, run } => run.clamp(1, blocks),
            _ => 1,
        }
    }
}

/// Result of one [`drive`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriveReport {
    /// Operations completed.
    pub ops: u64,
    /// Operations that failed (should be zero in failure-free runs).
    pub errors: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Payload bytes moved (ops × block size).
    pub payload_bytes: u64,
}

impl DriveReport {
    /// Aggregate throughput in payload MB/s.
    pub fn mb_per_sec(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.payload_bytes as f64 / 1e6 / self.elapsed.as_secs_f64()
    }

    /// Operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.ops as f64 / self.elapsed.as_secs_f64()
    }
}

/// Runs `ops_per_thread` operations on each of `threads` worker threads per
/// client, across all clients of the cluster, and reports aggregate
/// throughput.
///
/// Worker `(client c, thread t)` uses a deterministic RNG seeded from
/// `seed`, `c` and `t`, so runs are repeatable up to thread scheduling.
pub fn drive(
    cluster: &Cluster,
    threads: usize,
    ops_per_thread: u64,
    workload: Workload,
    seed: u64,
) -> DriveReport {
    let block_size = cluster.config().block_size;
    let ops = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let start = Instant::now();

    std::thread::scope(|scope| {
        for c in 0..cluster.n_clients() {
            let client = cluster.client(c).clone();
            let ops = &ops;
            let errors = &errors;
            for t in 0..threads {
                let client = client.clone();
                scope.spawn(move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(
                        seed ^ (c as u64) << 32 ^ t as u64,
                    );
                    for op_idx in 0..ops_per_thread {
                        let result: Result<(), ProtocolError> = match workload {
                            Workload::RandomWrite { blocks } => {
                                let lb = rng.random_range(0..blocks);
                                let fill = rng.random::<u8>();
                                client.write_block(lb, vec![fill; block_size]).map(|_| ())
                            }
                            Workload::RandomRead { blocks } => {
                                let lb = rng.random_range(0..blocks);
                                client.read_block(lb).map(|_| ())
                            }
                            Workload::Mixed { blocks, read_pct } => {
                                let lb = rng.random_range(0..blocks);
                                if rng.random_range(0..100u8) < read_pct {
                                    client.read_block(lb).map(|_| ())
                                } else {
                                    let fill = rng.random::<u8>();
                                    client.write_block(lb, vec![fill; block_size]).map(|_| ())
                                }
                            }
                            Workload::SequentialWrite { extent } => {
                                let base = (c * threads + t) as u64 * extent;
                                let lb = base + op_idx % extent;
                                let fill = (op_idx % 251) as u8;
                                client.write_block(lb, vec![fill; block_size]).map(|_| ())
                            }
                            Workload::BatchedWrite { extent, run } => {
                                let run = run.clamp(1, extent);
                                let base = (c * threads + t) as u64 * extent;
                                let lb = base + (op_idx * run) % (extent - run + 1);
                                let bufs: Vec<Vec<u8>> = (0..run)
                                    .map(|x| vec![((op_idx + x) % 251) as u8; block_size])
                                    .collect();
                                let writes: Vec<(u64, &[u8])> = bufs
                                    .iter()
                                    .enumerate()
                                    .map(|(x, b)| (lb + x as u64, b.as_slice()))
                                    .collect();
                                client.write_blocks(&writes)
                            }
                            Workload::BatchedRead { blocks, run } => {
                                let run = run.clamp(1, blocks);
                                let lb = rng.random_range(0..=blocks - run);
                                let lbs: Vec<u64> = (lb..lb + run).collect();
                                client.read_blocks(&lbs).map(|_| ())
                            }
                        };
                        match result {
                            Ok(()) => {
                                ops.fetch_add(workload.blocks_per_op(), Ordering::Relaxed);
                            }
                            Err(_) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        }
    });

    let done = ops.load(Ordering::Relaxed);
    DriveReport {
        ops: done,
        errors: errors.load(Ordering::Relaxed),
        elapsed: start.elapsed(),
        payload_bytes: done * block_size as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajx_core::ProtocolConfig;
    use ajx_storage::StripeId;

    fn small_cluster(clients: usize) -> Cluster {
        Cluster::new(ProtocolConfig::new(2, 4, 16).unwrap(), clients)
    }

    #[test]
    fn random_writes_complete_and_stay_consistent() {
        let c = small_cluster(2);
        let report = drive(&c, 2, 25, Workload::RandomWrite { blocks: 20 }, 42);
        assert_eq!(report.ops, 2 * 2 * 25);
        assert_eq!(report.errors, 0);
        assert!(report.payload_bytes == report.ops * 16);
        for s in 0..10 {
            assert!(c.stripe_is_consistent(StripeId(s)), "stripe {s}");
        }
    }

    #[test]
    fn mixed_workload_runs() {
        let c = small_cluster(1);
        let report = drive(
            &c,
            4,
            25,
            Workload::Mixed {
                blocks: 16,
                read_pct: 50,
            },
            7,
        );
        assert_eq!(report.ops, 100);
        assert_eq!(report.errors, 0);
        assert!(report.ops_per_sec() > 0.0);
        assert!(report.mb_per_sec() > 0.0);
    }

    #[test]
    fn batched_workloads_complete_and_stay_consistent() {
        let c = small_cluster(2);
        let w = drive(&c, 2, 10, Workload::BatchedWrite { extent: 12, run: 4 }, 11);
        assert_eq!(w.errors, 0);
        assert_eq!(w.ops, 2 * 2 * 10 * 4, "ops count blocks moved");
        // 4 worker extents of 12 blocks = stripes 0..24 with k = 2.
        for s in 0..24 {
            assert!(c.stripe_is_consistent(StripeId(s)), "stripe {s}");
        }
        let r = drive(&c, 2, 10, Workload::BatchedRead { blocks: 48, run: 6 }, 12);
        assert_eq!(r.errors, 0);
        assert_eq!(r.ops, 2 * 2 * 10 * 6);
    }

    #[test]
    fn sequential_write_extents_do_not_collide() {
        let c = small_cluster(2);
        let report = drive(&c, 2, 30, Workload::SequentialWrite { extent: 10 }, 3);
        assert_eq!(report.errors, 0);
        // 4 worker extents of 10 blocks = stripes 0..20 with k = 2.
        for s in 0..20 {
            assert!(c.stripe_is_consistent(StripeId(s)), "stripe {s}");
        }
    }
}
