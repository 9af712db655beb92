//! Surviving a faulty disk: retries, typed corruption, and degraded
//! cross-shard answers.
//!
//! The disk-resident structures of this repository assume the disk
//! misbehaves: pages suffer transient hiccups (retried with bounded
//! backoff), bit rot (caught by per-page checksums and surfaced as
//! a typed error naming the page), and whole shards die (the partitioned
//! router keeps serving healthy shards and marks the answer degraded).
//! This walkthrough injects each of those faults on purpose and shows the
//! machinery reacting:
//!
//! 1. a seeded fault schedule over a single disk index — every query
//!    either matches the fault-free answer bit for bit or returns a typed
//!    error, with the pool's retry counters on display,
//! 2. a partitioned index with one shard killed mid-serving — routed kNN
//!    keeps answering with sound intervals and lists the dead shard in
//!    `degraded`.
//!
//! ```sh
//! cargo run -p silc-bench --release --example chaos_survival
//! ```

use silc::disk::{write_index, DiskSilcIndex};
use silc::partitioned::{PartitionedBuildConfig, PartitionedSilcIndex};
use silc::{BuildConfig, QueryError, SilcIndex};
use silc_network::generate::{road_network, RoadConfig};
use silc_network::partition::PartitionConfig;
use silc_network::VertexId;
use silc_query::{KnnVariant, ObjectSet, PartitionedEngine, QueryEngine};
use silc_storage::{FaultInjectingPageStore, FaultRates, FilePageStore};
use std::sync::Arc;

fn main() {
    let network = Arc::new(road_network(&RoadConfig {
        vertices: silc_bench::example_vertices(2000),
        seed: 1999,
        ..Default::default()
    }));
    let n = network.vertex_count();
    println!("building a SILC index for {n} vertices…");
    let index = SilcIndex::build(network.clone(), &BuildConfig::default()).unwrap();
    let dir = std::env::temp_dir().join("silc-example-chaos");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("chaos.idx");
    write_index(&index, &path).unwrap();
    drop(index);
    let cafes = Arc::new(ObjectSet::random(&network, 0.05, 7));

    // ── Act 1: a flaky disk under a single index ────────────────────────
    // The fault-free reference first.
    let clean = Arc::new(DiskSilcIndex::open(&path, network.clone(), 0.25).unwrap());
    let clean_engine = QueryEngine::new(clean, cafes.clone());
    let mut clean_session = clean_engine.session();

    // The same file behind a seeded fault injector: ~3 % of page reads
    // hiccup transiently, ~1 % read back flipped bits.
    let rates = FaultRates { transient: 0.03, permanent: 0.0, bit_flip: 0.01, torn: 0.01 };
    let store = FaultInjectingPageStore::seeded(FilePageStore::open(&path).unwrap(), 0xC405, rates);
    let store = Arc::new(store);
    let faulty =
        DiskSilcIndex::open_store(Box::new(Arc::clone(&store)), network.clone(), 0.25).unwrap();
    let faulty = Arc::new(faulty);
    let engine = QueryEngine::new(Arc::clone(&faulty), cafes.clone());
    let mut session = engine.session();

    let (mut identical, mut corrupt, mut io) = (0usize, 0usize, 0usize);
    for q in (0..n as u32).step_by(17) {
        let q = VertexId(q);
        let want = clean_session.knn(q, 5, KnnVariant::Basic).clone();
        match session.try_knn(q, 5, KnnVariant::Basic) {
            Ok(got) => {
                assert_eq!(got.neighbors.len(), want.neighbors.len());
                for (a, b) in got.neighbors.iter().zip(&want.neighbors) {
                    assert_eq!(a.object, b.object, "Ok answers must match the fault-free run");
                }
                identical += 1;
            }
            Err(QueryError::Corrupt { page, detail }) => {
                if corrupt == 0 {
                    println!("  caught corruption on page {page:?}: {detail}");
                }
                corrupt += 1;
            }
            Err(QueryError::Io(e)) => {
                if io == 0 {
                    println!("  an I/O failure survived the retries: {e}");
                }
                io += 1;
            }
        }
    }
    let stats = faulty.io_stats();
    let injected = store.injected();
    println!(
        "flaky disk: {identical} queries bit-identical, {corrupt} typed corruption, {io} I/O errors"
    );
    println!(
        "  injector: {} transient / {} bit-flips / {} torn; pool saw {} faults, retried {}",
        injected.transient, injected.bit_flips, injected.torn, stats.faults_seen, stats.retries
    );

    // ── Act 2: a dead shard under the partitioned router ────────────────
    let pdir = dir.join("shards");
    std::fs::remove_dir_all(&pdir).ok();
    let cfg = PartitionedBuildConfig {
        partition: PartitionConfig { shards: 4, ..Default::default() },
        grid_exponent: 9,
        threads: 0,
        cache_fraction: 0.25,
    };
    println!("partitioning the network into 4 disk shards…");
    PartitionedSilcIndex::build_in_dir(network.clone(), &pdir, &cfg).unwrap();
    let mut handles = Vec::new();
    let pidx = Arc::new(
        PartitionedSilcIndex::open_dir_with(network.clone(), &pdir, &cfg, |_, shard_store| {
            let f = Arc::new(FaultInjectingPageStore::passthrough(shard_store));
            handles.push(Arc::clone(&f));
            Box::new(f)
        })
        .unwrap(),
    );
    let engine = PartitionedEngine::new(Arc::clone(&pidx), cafes.clone());
    let mut routed = engine.session();

    let q = VertexId(0);
    let healthy = routed.knn(q, 5).clone();
    println!(
        "healthy routed kNN from {q}: {} neighbors, complete = {}",
        healthy.neighbors.len(),
        healthy.complete
    );

    // Pull the plug on a non-home shard.
    let dead = (pidx.partition().shard_of(q) as usize + 1) % 4;
    handles[dead].kill();
    pidx.shard_index(dead).clear_cache();
    println!("killing shard {dead} and asking again…");

    let mut after = engine.session();
    let res = after.knn(q, 5).clone();
    println!(
        "degraded routed kNN: {} neighbors, complete = {}, degraded shards = {:?}",
        res.neighbors.len(),
        res.complete,
        res.degraded
    );
    for nb in res.neighbors.iter().take(3) {
        println!("  object {} in shard {} at interval {}", nb.object.0, nb.shard, nb.interval);
    }
    println!("every interval above still contains its true distance — degraded, never wrong.");

    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&pdir).ok();
}
