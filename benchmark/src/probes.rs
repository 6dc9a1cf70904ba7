//! Probes: each calls one layer's public functions directly, with the
//! request shapes the workloads generate, and times them. This is the
//! per-layer ledger at the only depth possible without editing the
//! program; spans recorded inside the program can later replace a probe
//! without renaming its metric.
//!
//! A probe is the median of [`BATCHES`] batches of about [`BATCH`] each;
//! every batch is one span of the trace, with the call count as `op_id`.

use crate::metrics::Metrics;
use crate::record::Recorder;
use crate::util::{median, views, XorShift};
use crate::workloads::quiet_cluster;
use ajx_core::ProtocolConfig;
use ajx_erasure::{CodeFamily, PlanCache, ReedSolomon, WideReedSolomon};
use ajx_gf::kernel;
use ajx_storage::{
    AddStatus, ClientId, Epoch, FlushPolicy, NodeId, PersistMode, Persistence, Reply, Request,
    ShardedNode, StripeId, Tid, WalBackend, WalRecordRef,
};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

const BATCHES: usize = 5;
const BATCH: Duration = Duration::from_millis(4);

struct Prober<'a> {
    rec: &'a mut Recorder,
    out: Metrics,
}

impl Prober<'_> {
    /// Microseconds per call of `op`. `reset` runs untimed before every
    /// batch, for probes whose calls leave state behind.
    fn us_with(
        &mut self,
        name: &'static str,
        mut reset: impl FnMut(),
        mut op: impl FnMut(),
    ) -> f64 {
        reset();
        op(); // first call: page faults, lazy tables
        let mut calls = 1u64;
        let per_batch = loop {
            let start = Instant::now();
            for _ in 0..calls {
                op();
            }
            let took = start.elapsed();
            if took >= BATCH / 4 {
                break (calls as f64 * BATCH.as_secs_f64() / took.as_secs_f64()).ceil() as u64;
            }
            calls *= 2;
        };
        let batches: Vec<f64> = (0..BATCHES)
            .map(|_| {
                reset();
                let start = Instant::now();
                for _ in 0..per_batch {
                    op();
                }
                let end = Instant::now();
                self.rec.span(name, start, end, per_batch);
                end.duration_since(start).as_secs_f64() * 1e6 / per_batch as f64
            })
            .collect();
        let us = median(&batches);
        self.out.set(name, us);
        us
    }

    fn us(&mut self, name: &'static str, op: impl FnMut()) -> f64 {
        self.us_with(name, || (), op)
    }

    /// A kernel probe: `bytes` of source per call, reported in GB/s.
    fn gb_s(&mut self, name: &'static str, bytes: usize, op: impl FnMut()) {
        let us = self.us(name, op);
        self.out.set(name, bytes as f64 / 1e3 / us);
    }
}

fn random_block(rng: &mut XorShift, len: usize) -> Vec<u8> {
    let mut b = vec![0u8; len];
    rng.fill(&mut b);
    b
}

/// Runs every probe. `wal_dir` is a scratch directory inside the checkout.
pub fn run(rec: &mut Recorder, seed: u64, wal_dir: &Path) -> Metrics {
    let mut p = Prober {
        rec,
        out: Metrics::default(),
    };
    let mut rng = XorShift::new(seed ^ 0x70_72_6F_62_65);
    gf(&mut p, &mut rng);
    erasure(&mut p, &mut rng);
    storage(&mut p, &mut rng);
    wal(&mut p, &mut rng, wal_dir);
    transport_and_core(&mut p, &mut rng);
    p.out
}

fn gf(p: &mut Prober<'_>, rng: &mut XorShift) {
    for (name, len) in [
        ("gf.delta_into_4k_gb_s", 4096),
        ("gf.delta_into_64k_gb_s", 65536),
    ] {
        let (a, b) = (random_block(rng, len), random_block(rng, len));
        let mut out = vec![0u8; len];
        p.gb_s(name, len, || {
            kernel::delta_into(black_box(&mut out), 0x57, &a, &b)
        });
    }
    let src = random_block(rng, 16384);
    let mut dst = vec![0u8; 16384];
    p.gb_s("gf.mul_add_assign_16k_gb_s", 16384, || {
        kernel::mul_add_assign(black_box(&mut dst), 0x57, &src)
    });
    // One 64 KiB source through the four redundancy rows of a 12-of-16
    // code: the encode inner loop.
    let src = random_block(rng, 65536);
    let mut rows = vec![vec![0u8; 65536]; 4];
    p.gb_s("gf.mul_add_multi_64k_gb_s", 65536, || {
        kernel::mul_add_multi(black_box(&mut views(&mut rows)), &[3, 5, 7, 11], &src);
    });
    p.gb_s("gf.mul_add_multi16_64k_gb_s", 65536, || {
        kernel::mul_add_multi16(
            black_box(&mut views(&mut rows)),
            &[3, 0x1005, 7, 0xBEEF],
            &src,
        );
    });
}

fn erasure(p: &mut Prober<'_>, rng: &mut XorShift) {
    const K: usize = 12;
    const LEN: usize = 65536;
    let data: Vec<Vec<u8>> = (0..K).map(|_| random_block(rng, LEN)).collect();
    let mut parity = vec![vec![0u8; LEN]; 4];
    let mut out = vec![vec![0u8; LEN]; K];
    let rs = ReedSolomon::new(K, 16).expect("valid code");
    let wide = WideReedSolomon::new(K, 16).expect("valid code");
    let lrc = CodeFamily::lrc(K, 3, 1).expect("valid code");

    p.us("erasure.wide_encode_64k_us", || {
        wide.encode_into(&data, &mut views(&mut parity))
            .expect("encode");
    });
    p.us("erasure.lrc_encode_64k_us", || {
        lrc.encode_into(&data, &mut views(&mut parity))
            .expect("encode");
    });
    p.us("erasure.encode_rs_64k_us", || {
        rs.encode_into(&data, &mut views(&mut parity))
            .expect("encode");
    });
    // Data blocks 0..4 lost: decode from the other eight and the parity.
    let alive: Vec<usize> = (4..16).collect();
    let plan = rs.plan_decode(&alive).expect("decodable");
    let shares: Vec<&[u8]> = alive
        .iter()
        .map(|&i| {
            if i < K {
                &data[i][..]
            } else {
                &parity[i - K][..]
            }
        })
        .collect();
    p.us("erasure.decode_rs_64k_us", || {
        plan.decode_into(&shares, &mut views(&mut out))
            .expect("decode");
    });
    assert!(out[0] == data[0], "probe decode returned wrong bytes");
    p.us("erasure.plan_decode_miss_us", || {
        black_box(rs.plan_decode(black_box(&alive)).expect("decodable"));
    });
    let cache = PlanCache::new();
    let family = CodeFamily::rs(K, 16).expect("valid code");
    p.us("erasure.plan_cache_hit_us", || {
        black_box(cache.plan(&family, black_box(&alive)).expect("decodable"));
    });

    // A single loss on the LRC, 16 KiB blocks as in `degraded_rebuild`.
    let available: Vec<usize> = (1..16).collect();
    p.us("erasure.repair_plan_us", || {
        black_box(
            lrc.repair_plan(0, black_box(&available))
                .expect("repairable"),
        );
    });
    let repair = lrc.repair_plan(0, &available).expect("repairable");
    let blocks: Vec<Vec<u8>> = repair.indices().map(|_| random_block(rng, 16384)).collect();
    let shares: Vec<&[u8]> = blocks.iter().map(Vec::as_slice).collect();
    let mut lost = vec![0u8; 16384];
    p.us("erasure.repair_reconstruct_16k_us", || {
        repair
            .reconstruct_into(&shares, black_box(&mut lost))
            .expect("reconstruct");
    });

    let small = ReedSolomon::new(4, 8).expect("valid code");
    let (new, old) = (random_block(rng, 4096), random_block(rng, 4096));
    let mut delta = vec![0u8; 4096];
    p.us("erasure.delta_into_buf_4k_us", || {
        small
            .delta_into_buf(1, 2, &new, &old, black_box(&mut delta))
            .expect("delta");
    });
}

/// Stripes a storage probe rotates over, so that no stripe's tid lists
/// grow long within a batch; a `Finalize` before each batch empties them.
const PROBE_STRIPES: u64 = 64;
const PROBE_EPOCH: Epoch = Epoch(1);

fn storage_node(block: usize, rng: &mut XorShift) -> ShardedNode {
    let node = ShardedNode::new(NodeId(0), block, 8);
    for s in 0..PROBE_STRIPES {
        node.handle(Request::Swap {
            stripe: StripeId(s),
            value: random_block(rng, block),
            ntid: Tid::new(s, 0, ClientId(7)),
        });
    }
    node
}

fn clear_tid_lists(node: &ShardedNode) {
    for s in 0..PROBE_STRIPES {
        node.handle(Request::Finalize {
            stripe: StripeId(s),
            epoch: PROBE_EPOCH,
        });
    }
}

fn storage(p: &mut Prober<'_>, rng: &mut XorShift) {
    let mut seq = 1u64 << 32;
    let mut next = move || {
        seq += 1;
        (StripeId(seq % PROBE_STRIPES), Tid::new(seq, 0, ClientId(7)))
    };
    for (block, read, swap) in [
        (
            4096,
            "storage.handle_read_4k_us",
            "storage.handle_swap_4k_us",
        ),
        (
            65536,
            "storage.handle_read_64k_us",
            "storage.handle_swap_64k_us",
        ),
    ] {
        let node = storage_node(block, rng);
        let value = random_block(rng, block);
        p.us(read, || {
            let (stripe, _) = next();
            black_box(node.handle(Request::Read { stripe }));
        });
        p.us_with(
            swap,
            || clear_tid_lists(&node),
            || {
                let (stripe, ntid) = next();
                // The clone is the message's payload arriving.
                let reply = node.handle(Request::Swap {
                    stripe,
                    value: value.clone(),
                    ntid,
                });
                debug_assert!(matches!(reply, Reply::Swap(ref r) if r.block.is_some()));
                black_box(reply);
            },
        );
    }

    let add = |stripe, ntid, delta: &Vec<u8>| Request::Add {
        stripe,
        delta: delta.clone(),
        ntid,
        otid: None,
        epoch: PROBE_EPOCH,
        scale: None,
    };
    let node = storage_node(4096, rng);
    let delta = random_block(rng, 4096);
    p.us_with(
        "storage.handle_add_4k_us",
        || clear_tid_lists(&node),
        || {
            let (stripe, ntid) = next();
            let reply = node.handle(add(stripe, ntid, &delta));
            debug_assert!(matches!(reply, Reply::Add(ref a) if a.status == AddStatus::Ok));
            black_box(reply);
        },
    );

    // What one redundant node gets from a 48-block `write_blocks` on
    // 12-of-16: twelve adds to each of four stripes, in one message.
    let node = storage_node(65536, rng);
    let delta = random_block(rng, 65536);
    p.us_with(
        "storage.handle_batch48_add_64k_us",
        || clear_tid_lists(&node),
        || {
            let members = (0..48)
                .map(|m| {
                    let (_, ntid) = next();
                    add(StripeId(m / 12), ntid, &delta)
                })
                .collect();
            black_box(node.handle(Request::Batch(members)));
        },
    );

    let node = storage_node(16384, rng);
    p.us("storage.handle_getstate_16k_us", || {
        let (stripe, _) = next();
        black_box(node.handle(Request::GetState { stripe }));
    });
    // What the lost node does per rebuilt block: install it, then finalize.
    let block = random_block(rng, 16384);
    p.us("storage.handle_reconstruct_16k_us", || {
        let (stripe, _) = next();
        node.handle(Request::Reconstruct {
            stripe,
            cset: vec![1, 2, 3, 12],
            block: block.clone(),
        });
        node.handle(Request::Finalize {
            stripe,
            epoch: PROBE_EPOCH,
        });
    });
}

fn wal(p: &mut Prober<'_>, rng: &mut XorShift, dir: &Path) {
    let backend = WalBackend::create(dir.join("probe.wal"));
    let swap = Request::Swap {
        stripe: StripeId(0),
        value: random_block(rng, 4096),
        ntid: Tid::new(1, 0, ClientId(7)),
    };
    // Appends only buffer; the commit between batches keeps the buffer
    // from growing without bound and is not timed.
    p.us_with(
        "wal.append_4k_us",
        || {
            backend.commit();
        },
        || backend.append(WalRecordRef::Apply(&swap)),
    );
    backend.commit();
    // One record, then write and fsync it: the device's share of a
    // write-through swap or add. Timed call by call, since the append
    // between two commits is not part of it.
    let mut commits: Vec<f64> = (0..32)
        .map(|i| {
            backend.append(WalRecordRef::Apply(&swap));
            let start = Instant::now();
            let ok = backend.commit();
            let end = Instant::now();
            assert!(ok, "journal commit failed in {}", dir.display());
            p.rec.span("wal.commit_us", start, end, i);
            end.duration_since(start).as_secs_f64() * 1e6
        })
        .collect();
    commits.sort_by(f64::total_cmp);
    p.out.set("wal.commit_us", median(&commits));
    drop(backend);
    std::fs::remove_dir_all(dir).ok();
}

fn transport_and_core(p: &mut Prober<'_>, rng: &mut XorShift) {
    // Sixteen nodes, so that every fan-out the workloads make exists.
    let cfg = ProtocolConfig::new(12, 16, 4096).expect("valid code");
    let cluster = quiet_cluster(cfg, PersistMode::InMemory, FlushPolicy::WriteThrough);
    let client = cluster.client(0);
    let value = random_block(rng, 4096);
    for lb in 0..64 {
        client.write_block_from(lb, &value).expect("probe write");
    }
    let endpoint = cluster.network().client(ClientId(7));
    let stripe = StripeId(0);
    let meta = |node: u32| (NodeId(node), Request::GetMeta { stripe });

    p.us("transport.call_rtt_us", || {
        black_box(
            endpoint
                .call(NodeId(0), Request::GetMeta { stripe })
                .expect("rtt"),
        );
    });
    // Block 0 of stripe 0 lives on node 0 under the rotated layout.
    let data_node = NodeId(cluster.config().layout.node_for(0, 0) as u32);
    p.us("transport.call_read_4k_us", || {
        black_box(
            endpoint
                .call(data_node, Request::Read { stripe })
                .expect("read"),
        );
    });
    for (name, fan_out) in [
        ("transport.call_many4_us", 4),
        ("transport.call_many8_us", 8),
        ("transport.call_many16_us", 16),
    ] {
        p.us(name, || {
            let replies = endpoint.call_many((0..fan_out).map(meta).collect());
            debug_assert!(replies.iter().all(Result::is_ok));
            black_box(replies);
        });
    }
    p.us("transport.submit_poll_rtt_us", || {
        let mut pending = endpoint.submit_call(NodeId(0), Request::GetMeta { stripe });
        let reply = loop {
            match endpoint.poll_call(&mut pending) {
                Some(reply) => break reply,
                None => std::thread::yield_now(),
            }
        };
        black_box(reply.expect("submit/poll"));
    });
    drop(cluster);

    // The protocol's two common operations on the `small_rw` shape.
    let cfg = ProtocolConfig::new(4, 8, 4096).expect("valid code");
    let cluster = quiet_cluster(cfg, PersistMode::InMemory, FlushPolicy::WriteThrough);
    let client = cluster.client(0);
    for lb in 0..64 {
        client.write_block_from(lb, &value).expect("probe write");
    }
    let mut lb = 0;
    p.us("core.read_block_us", || {
        lb = (lb + 1) % 64;
        black_box(client.read_block(lb).expect("probe read"));
    });
    p.us_with(
        "core.write_block_us",
        || {
            client.collect_garbage().expect("probe gc");
            client.collect_garbage().expect("probe gc");
        },
        || {
            lb = (lb + 1) % 64;
            client.write_block_from(lb, &value).expect("probe write");
        },
    );
}
