//! Serving many clients from one disk-resident index.
//!
//! The paper's framing (§6, p.32): each query is cheap — a handful of page
//! reads through a shared cache — precisely so that a *server* can answer
//! huge numbers of them. This walkthrough is that server in miniature:
//! one `Arc<DiskSilcIndex>` (sharded buffer pool, searched in place)
//! shared by N worker threads, each running back-to-back kNN queries
//! through its own `QuerySession` (reusable workspaces, zero steady-state
//! allocations), then the aggregate throughput and cache behaviour.
//!
//! ```sh
//! cargo run -p silc-bench --release --example concurrent_serving
//! ```

use silc::disk::{write_index, DiskSilcIndex};
use silc::{BuildConfig, SilcIndex};
use silc_network::generate::{road_network, RoadConfig};
use silc_network::VertexId;
use silc_query::{KnnVariant, ObjectSet, QueryEngine};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let workers = 4usize;
    let queries_per_worker = 400usize;
    let k = 5usize;

    // A city-sized network, its index written to a real page file.
    let network = Arc::new(road_network(&RoadConfig {
        vertices: silc_bench::example_vertices(2000),
        seed: 314,
        ..Default::default()
    }));
    let n = network.vertex_count();
    println!("building the SILC index for {n} vertices…");
    let index = SilcIndex::build(network.clone(), &BuildConfig::default()).unwrap();
    let dir = std::env::temp_dir().join("silc-example-serving");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("serving.idx");
    write_index(&index, &path).unwrap();
    drop(index);

    // The server side: one shared disk index (the paper's 5 % page cache),
    // one shared object set, one engine.
    let disk = Arc::new(DiskSilcIndex::open(&path, network.clone(), 0.05).unwrap());
    let restaurants = Arc::new(ObjectSet::random(&network, 0.05, 99));
    let engine = QueryEngine::new(disk.clone(), restaurants);
    println!(
        "serving from {} disk pages with {} workers × {} queries each…",
        disk.page_count(),
        workers,
        queries_per_worker
    );

    // N clients: every thread opens a session and hammers the shared index.
    let start = Instant::now();
    let handles: Vec<_> = (0..workers)
        .map(|w| {
            let engine = engine.clone();
            std::thread::spawn(move || {
                let mut session = engine.session();
                let mut answered = 0usize;
                for i in 0..queries_per_worker {
                    let q = VertexId(((i * 131 + w * 17) % n) as u32);
                    let result = session.knn(q, k, KnnVariant::Basic);
                    answered += usize::from(!result.neighbors.is_empty());
                }
                answered
            })
        })
        .collect();
    let answered: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let elapsed = start.elapsed().as_secs_f64();

    let total = workers * queries_per_worker;
    let io = disk.io_stats();
    println!(
        "\n  {total} queries answered in {elapsed:.2}s = {:.0} QPS aggregate",
        total as f64 / elapsed
    );
    println!("  every query returned neighbors: {}", answered == total);
    println!(
        "  page pool:     {:>8} requests, hit rate {:.1}%",
        io.requests(),
        io.hit_rate() * 100.0
    );
    println!(
        "  disk traffic:  {:>8} pages read ({:.1} KiB)",
        io.misses,
        io.bytes_read as f64 / 1024.0
    );
    std::fs::remove_file(&path).ok();
}
