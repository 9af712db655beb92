//! Micro-probes: one public function each, called in a loop. They give the
//! layers that cannot be seen from a span boundary (decode, checksum, pool
//! hit/miss, frame codec, SSSP) a number an optimisation would move. Every
//! traced run reports all of them — they do not depend on the workload —
//! each as the median of `REPS` timed repetitions.

use crate::config::K;
use crate::inputs;
use crate::report::Metrics;
use crate::rng::SplitMix64;
use crate::stats::median;
use crate::trace::{Layer, Tracer};
use crate::Args;
use silc_network::dijkstra::full_sssp_into;
use silc_network::{SpatialNetwork, SsspWorkspace, VertexId};
use silc_server::protocol::{encode_frame, read_frame};
use silc_server::{Algorithm, AnswerBody, Frame, QueryBody};
use silc_storage::checksum::fnv1a64x8;
use silc_storage::{varint, BufferPool, MemPageStore, PageId, PAGE_SIZE};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 5;

/// Median over `REPS` repetitions of `body`'s wall time, in ns per `ops`.
fn ns_per_op(ops: usize, mut body: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            body();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&times)
}

fn varint_decode_ns(values: usize) -> f64 {
    // Mixed widths, one to nine bytes, in a fixed pseudo-random order.
    let mut rng = SplitMix64::new(0x5EED);
    let mut bytes = Vec::with_capacity(values * 5);
    for _ in 0..values {
        let width = 1 + rng.below(9) as u32;
        varint::encode_u64(rng.next_u64() >> (64 - 7 * width), &mut bytes);
    }
    ns_per_op(values, || {
        let (mut at, mut sum) = (0, 0u64);
        while at < bytes.len() {
            let (v, used) = varint::decode_u64(black_box(&bytes[at..])).expect("canonical varint");
            sum = sum.wrapping_add(v);
            at += used;
        }
        black_box(sum);
    })
}

fn checksum_gib_s(mib: usize) -> f64 {
    let mut rng = SplitMix64::new(0xC0FFEE);
    let data: Vec<u8> = (0..mib << 17).flat_map(|_| rng.next_u64().to_le_bytes()).collect();
    // Page by page, as the pool verifies physical reads.
    let ns_per_byte = ns_per_op(data.len(), || {
        let mut acc = 0u64;
        for page in data.chunks_exact(PAGE_SIZE) {
            acc ^= fnv1a64x8(black_box(page));
        }
        black_box(acc);
    });
    1e9 / ns_per_byte / (1u64 << 30) as f64
}

fn pool_ns(pages: usize, capacity: usize, gets: usize) -> f64 {
    let pool = BufferPool::new(MemPageStore::new(&vec![7u8; pages * PAGE_SIZE]), capacity);
    for p in 0..pages as u64 {
        pool.get(PageId(p)).expect("in-range page");
    }
    ns_per_op(gets, || {
        for i in 0..gets {
            black_box(pool.get(PageId((i % pages) as u64)).expect("in-range page"));
        }
    })
}

fn sssp_us(network: &SpatialNetwork, sources: usize) -> f64 {
    let n = network.vertex_count();
    let mut ws = SsspWorkspace::with_capacity(n);
    ns_per_op(sources, || {
        for i in 0..sources {
            let source = VertexId((i * n / sources) as u32);
            black_box(full_sssp_into(network, source, &mut ws).visited());
        }
    }) / 1e3
}

fn encode_response_ns() -> f64 {
    let answer = AnswerBody {
        algorithm: Algorithm::Knn as u8,
        complete: true,
        degraded: Vec::new(),
        neighbors: (0..K as u32)
            .map(|i| silc_server::protocol::WireNeighbor {
                object: i,
                vertex: 100 + i,
                lo_bits: (1.5f64 * i as f64).to_bits(),
                hi_bits: (2.5f64 * i as f64).to_bits(),
            })
            .collect(),
    };
    let frame = Frame::Response { request_id: 42, sequence: 7, answer };
    let ops = 100_000;
    ns_per_op(ops, || {
        for _ in 0..ops {
            black_box(encode_frame(black_box(&frame)));
        }
    })
}

fn decode_batch_ns() -> f64 {
    let bodies = (0..crate::config::BATCH as u32)
        .map(|i| QueryBody { algorithm: Algorithm::Knn, vertex: i * 37, k: K as u32 })
        .collect();
    let bytes = encode_frame(&Frame::Batch { request_id: 42, bodies });
    let ops = 50_000;
    ns_per_op(ops, || {
        for _ in 0..ops {
            let mut cursor = black_box(&bytes[..]);
            black_box(read_frame(&mut cursor).expect("well-formed frame"));
        }
    })
}

/// What one recorded span costs: the figure to hold against
/// `core.browser_self_us_per_query ÷ core.browser_calls_per_query`.
fn span_cost_ns() -> f64 {
    let ops = 200_000;
    let tracer = Tracer::new(ops * REPS + 1);
    tracer.set_enabled(true);
    let _root = tracer.root(Layer::Query, 0, 0, true);
    ns_per_op(ops, || {
        for _ in 0..ops {
            drop(black_box(tracer.open(Layer::Browser, 0)));
        }
    })
}

/// Runs every probe. `mono_network` is the `N_MONO` network when the caller
/// already has it; otherwise it is generated here.
pub fn run_all(metrics: &mut Metrics, args: &Args, mono_network: Option<&SpatialNetwork>) {
    let smoke = args.smoke;
    metrics
        .set("storage.varint_decode_ns", varint_decode_ns(if smoke { 50_000 } else { 1_000_000 }));
    metrics.set("storage.checksum_gib_s", checksum_gib_s(if smoke { 4 } else { 64 }));
    let gets = if smoke { 20_000 } else { 500_000 };
    metrics.set("storage.pool_hit_ns", pool_ns(256, 256, gets));
    // Eight shards of one page each, scanned in order: every get misses.
    metrics.set("storage.pool_miss_ns", pool_ns(4096, 8, gets));
    let generated;
    let network = match mono_network {
        Some(n) => n,
        None => {
            generated = inputs::network(args.scale.n_mono, crate::config::NETWORK_SEED);
            &generated
        }
    };
    metrics.set("network.sssp_us", sssp_us(network, args.scale.sssp_sources));
    metrics.set("server.encode_response_ns", encode_response_ns());
    metrics.set("server.decode_batch_ns", decode_batch_ns());
    metrics.set("trace.span_cost_ns", span_cost_ns());
}
