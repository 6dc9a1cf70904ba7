//! The batched multi-stripe data path end-to-end: equivalence with the
//! per-block loop, wire-level round-trip accounting, and chaos soaking.
//!
//! Three claims are checked:
//!
//! 1. **Equivalence** — `read_blocks`/`write_blocks` over arbitrary
//!    (random) block runs produce exactly the state and values the
//!    per-block `read_block`/`write_block` loop produces.
//! 2. **Coalescing** (§3.11 batching) — a stripe-aligned sequential read
//!    fetches each stripe at most once: one batched message per storage
//!    node, a ≥ k-fold round-trip reduction over the per-block loop.
//! 3. **Fault tolerance** — the deterministic chaos harness driven through
//!    the batched path (`max_run > 1`) has zero regularity violations and
//!    byte-identical traces across reruns, for several seeds.
//! 4. **Windows** — `write_blocks` and `rebuild_stripes` moving several
//!    stripes (chunks) through each round send exactly the messages of
//!    one at a time and leave the same state, and, driven by one thread,
//!    replay byte-identically on a lossy network.

use ajx_cluster::{run_chaos, ChaosOptions, Cluster};
use ajx_core::{ProtocolConfig, UpdateStrategy};
use ajx_storage::{NodeId, StripeId};
use ajx_transport::{LinkFaults, NetSnapshot, NetworkConfig};
use proptest::prelude::*;
use std::time::Duration;

fn cluster(k: usize, n: usize, block_size: usize) -> Cluster {
    Cluster::new(ProtocolConfig::new(k, n, block_size).unwrap(), 1)
}

// ---------------------------------------------------------------------------
// 1. Equivalence with the per-block loop
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random write batches (with duplicates and shuffled order) applied
    /// batched on one cluster and per-block on another leave both in the
    /// same state, read back both batched and per-block.
    #[test]
    fn prop_batched_ops_equal_per_block_loop(
        batches in proptest::collection::vec(
            proptest::collection::vec((0u64..24, any::<u8>()), 1..10),
            1..6
        )
    ) {
        let bs = 32;
        let batched = cluster(2, 4, bs);
        let serial = cluster(2, 4, bs);

        for batch in &batches {
            let values: Vec<Vec<u8>> =
                batch.iter().map(|&(_, fill)| vec![fill; bs]).collect();
            let writes: Vec<(u64, &[u8])> = batch
                .iter()
                .zip(&values)
                .map(|(&(lb, _), v)| (lb, v.as_slice()))
                .collect();
            batched.client(0).write_blocks(&writes).unwrap();
            for &(lb, v) in &writes {
                serial.client(0).write_block(lb, v.to_vec()).unwrap();
            }
        }

        let lbs: Vec<u64> = (0..24).collect();
        let via_batch = batched.client(0).read_blocks(&lbs).unwrap();
        for &lb in &lbs {
            let expect = serial.client(0).read_block(lb).unwrap();
            prop_assert_eq!(&via_batch[lb as usize], &expect, "lb {}", lb);
            prop_assert_eq!(
                batched.client(0).read_block(lb).unwrap(),
                expect,
                "per-block read of the batched cluster, lb {}",
                lb
            );
        }
        for s in 0..12 {
            prop_assert!(batched.stripe_is_consistent(StripeId(s)), "stripe {}", s);
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Round-trip accounting: each stripe fetched at most once
// ---------------------------------------------------------------------------

#[test]
fn batched_sequential_read_reduces_round_trips_k_fold() {
    let k = 4;
    let n = 8;
    let blocks = 64u64; // 16 stripes of k = 4
    let c = cluster(k, n, 64);
    for lb in 0..blocks {
        c.client(0)
            .write_block(lb, vec![(lb % 251 + 1) as u8; 64])
            .unwrap();
    }

    let stats = c.client(0).endpoint().stats();
    let before = stats.snapshot();
    for lb in 0..blocks {
        c.client(0).read_block(lb).unwrap();
    }
    let per_block = stats.snapshot().since(&before);
    assert_eq!(per_block.round_trips, blocks, "the loop pays one per block");

    let before = stats.snapshot();
    let got = c
        .client(0)
        .read_blocks(&(0..blocks).collect::<Vec<_>>())
        .unwrap();
    let batched = stats.snapshot().since(&before);
    for (lb, v) in got.iter().enumerate() {
        assert_eq!(v[0], (lb as u64 % 251 + 1) as u8);
    }
    // The rotated layout spreads 16 stripes' data blocks over all 8 nodes;
    // each answers ONE batch of 8 reads. Every stripe is fetched exactly
    // once, and the round-trip count drops 8x >= k-fold.
    assert_eq!(batched.round_trips, n as u64);
    assert_eq!(batched.msgs_sent, n as u64);
    assert!(
        batched.round_trips * k as u64 <= per_block.round_trips,
        "expected a >= k-fold reduction: {} vs {}",
        batched.round_trips,
        per_block.round_trips
    );
    // One header per message instead of per block: the batch also moves
    // fewer request bytes.
    assert!(batched.bytes_sent < per_block.bytes_sent);
}

#[test]
fn batched_write_coalesces_messages_per_stripe() {
    let k = 4;
    let n = 8;
    let c = cluster(k, n, 64);
    let mut cfg = c.config().clone();
    cfg.pipeline_width = 1; // deterministic message counts
    let client =
        ajx_core::Client::new(c.network().client(ajx_storage::ClientId(9)), cfg);

    let blocks = 16u64; // 4 stripes
    let bufs: Vec<Vec<u8>> = (0..blocks).map(|b| vec![b as u8 + 1; 64]).collect();
    let writes: Vec<(u64, &[u8])> = bufs
        .iter()
        .enumerate()
        .map(|(lb, v)| (lb as u64, v.as_slice()))
        .collect();
    let stats = client.endpoint().stats();
    let before = stats.snapshot();
    client.write_blocks(&writes).unwrap();
    let cost = stats.snapshot().since(&before);
    // Per stripe: k swaps (distinct data nodes) + p batched adds = 8
    // messages; 4 stripes = 32, versus the sequential loop's
    // 16 x (1 + 4) = 80.
    assert_eq!(cost.round_trips, 4 * (k + (n - k)) as u64);
    for s in 0..4 {
        assert!(c.stripe_is_consistent(StripeId(s)), "stripe {s}");
    }
}

// ---------------------------------------------------------------------------
// 3. Chaos soak through the batched path
// ---------------------------------------------------------------------------

#[test]
fn batched_chaos_soak_is_clean_and_deterministic_across_seeds() {
    let mut cfg = ProtocolConfig::new(2, 4, 32).unwrap();
    cfg.busy_retry_limit = 24;
    cfg.backoff.base = Duration::from_micros(20);
    cfg.backoff.cap = Duration::from_micros(500);

    for seed in [0xBA7C_4ED0u64, 0x5EED_0002, 0x5EED_0003] {
        let opts = ChaosOptions {
            seed,
            n_clients: 2,
            rounds: 12,
            ops_per_round: 4,
            blocks: 16,
            max_run: 5,
            // Generous deadline: trace equality must not hinge on whether
            // a loaded scheduler stalls one run past the timeout.
            call_timeout: Duration::from_millis(30),
            ..ChaosOptions::default()
        };
        let a = run_chaos(cfg.clone(), &opts);
        assert!(
            a.violations.is_empty(),
            "seed {seed:#x} violations: {:?}",
            a.violations
        );
        assert!(a.ops_ok > 0, "seed {seed:#x}: traffic flowed");
        let b = run_chaos(cfg.clone(), &opts);
        assert_eq!(
            a.trace, b.trace,
            "seed {seed:#x}: batched path must replay byte-identically"
        );
        assert_eq!(a.ops_ok, b.ops_ok);
        assert_eq!(a.writes_indeterminate, b.writes_indeterminate);
    }
}

// ---------------------------------------------------------------------------
// 4. Windows: the same messages and state at any width, and replays
// ---------------------------------------------------------------------------

/// Every block of every stripe, as `Cluster::raw_stripe` reads them.
type Contents = Vec<Vec<Option<Vec<u8>>>>;

/// What a run leaves behind that its width must not change.
#[derive(Debug, PartialEq)]
struct WindowRun {
    /// `msgs_sent`, `bytes_sent`, `round_trips` of the 64-block write.
    write: (u64, u64, u64),
    rebuild: ajx_core::RebuildReport,
    /// After the rebuild.
    contents: Contents,
}

fn counts(spent: NetSnapshot) -> (u64, u64, u64) {
    (spent.msgs_sent, spent.bytes_sent, spent.round_trips)
}

/// 4-of-8 at `width`: a 64-block `write_blocks` over 12 full stripes and
/// 16 one-block stripes (the multicast case under Broadcast), then 100
/// stripes written, node 3 lost, and `rebuild_node` over four chunks.
fn window_run(strategy: UpdateStrategy, width: usize) -> WindowRun {
    const STRIPES: u64 = 100;
    let mut cfg = ProtocolConfig::new(4, 8, 64).unwrap();
    cfg.strategy = strategy;
    cfg.pipeline_width = width;
    cfg.rebuild_width = width;
    let c = Cluster::new(cfg, 1);
    let client = c.client(0);
    let value = |lb: u64| vec![(lb * 7 % 251) as u8 + 1; 64];
    let lbs: Vec<u64> = (0..48).chain((12..28).map(|s| s * 4 + s % 4)).collect();
    let values: Vec<Vec<u8>> = lbs.iter().map(|&lb| value(lb)).collect();
    let writes: Vec<(u64, &[u8])> =
        lbs.iter().zip(&values).map(|(&lb, v)| (lb, v.as_slice())).collect();
    let before = client.endpoint().stats().snapshot();
    client.write_blocks(&writes).unwrap();
    let write = counts(client.endpoint().stats().snapshot().since(&before));

    let rest: Vec<Vec<u8>> = (0..STRIPES * 4).map(|lb| value(lb + 1000)).collect();
    let writes: Vec<(u64, &[u8])> =
        rest.iter().enumerate().map(|(lb, v)| (lb as u64, v.as_slice())).collect();
    client.write_blocks(&writes).unwrap();
    c.crash_storage_node(NodeId(3));
    let rebuild = client.rebuild_node(NodeId(3), STRIPES).unwrap();
    assert_eq!(rebuild.rebuilt, STRIPES as usize, "{strategy:?} at width {width}");
    let contents = (0..STRIPES).map(|s| c.raw_stripe(StripeId(s))).collect();
    for s in 0..STRIPES {
        assert!(c.stripe_is_consistent(StripeId(s)), "{strategy:?} at width {width}: stripe {s}");
    }
    WindowRun { write, rebuild, contents }
}

#[test]
fn windows_send_the_messages_of_one_stripe_at_a_time() {
    let strategies = [
        UpdateStrategy::Serial,
        UpdateStrategy::Parallel,
        UpdateStrategy::Hybrid { groups: 2 },
        UpdateStrategy::Broadcast,
    ];
    for strategy in strategies {
        let one = window_run(strategy, 1);
        assert_eq!(window_run(strategy, 8), one, "{strategy:?}: width 8 against width 1");
    }
}

/// What a seeded lossy run must replay.
#[derive(Debug, PartialEq)]
struct LossyRun {
    trace: Vec<String>,
    /// The write's and the rebuild's results.
    outcome: String,
    /// `msgs_sent`, `bytes_sent`, `round_trips` of the whole run.
    counts: (u64, u64, u64),
    contents: Contents,
}

/// One seeded lossy run at window 4: `write_blocks` over 40 stripes of a
/// 2-of-4 code, node 1 lost, `rebuild_stripes` over two chunks.
fn lossy_window_run(seed: u64) -> LossyRun {
    const STRIPES: u64 = 40;
    let mut cfg = ProtocolConfig::new(2, 4, 32).unwrap();
    cfg.pipeline_width = 4;
    cfg.rebuild_width = 4;
    cfg.busy_retry_limit = 24;
    cfg.backoff.base = Duration::from_micros(20);
    cfg.backoff.cap = Duration::from_micros(500);
    let c = Cluster::with_network(
        cfg,
        1,
        NetworkConfig {
            server_threads: 1,
            call_timeout: Some(Duration::from_millis(100)),
            ..NetworkConfig::default()
        },
    );
    let faults = c.network().faults();
    faults.set_seed(seed);
    faults.set_default_link(LinkFaults {
        drop_req: 0.02,
        drop_reply: 0.02,
        dup_req: 0.02,
        ..LinkFaults::default()
    });
    faults.set_tracing(true);
    let client = c.client(0);
    let values: Vec<Vec<u8>> = (0..STRIPES * 2).map(|lb| vec![lb as u8 ^ 0x3C; 32]).collect();
    let writes: Vec<(u64, &[u8])> =
        values.iter().enumerate().map(|(lb, v)| (lb as u64, v.as_slice())).collect();
    let wrote = client.write_blocks(&writes);
    c.crash_storage_node(NodeId(1));
    let stripes: Vec<StripeId> = (0..STRIPES).map(StripeId).collect();
    let rebuilt = client.rebuild_stripes(&stripes);
    LossyRun {
        trace: faults.take_trace(),
        outcome: format!("{wrote:?} {rebuilt:?}"),
        counts: counts(client.endpoint().stats().snapshot()),
        contents: stripes.iter().map(|&s| c.raw_stripe(s)).collect(),
    }
}

#[test]
fn a_window_replays_byte_identically_on_a_lossy_network() {
    for seed in [0x5EED_0005u64, 0x5EED_0004] {
        let a = lossy_window_run(seed);
        assert!(a.trace.iter().any(|l| l.contains("drop")), "seed {seed:#x}: faults were injected");
        let b = lossy_window_run(seed);
        assert_eq!(a.trace, b.trace, "seed {seed:#x}: fault traces");
        assert_eq!(a, b, "seed {seed:#x}: outcomes, counters and contents");
    }
}
