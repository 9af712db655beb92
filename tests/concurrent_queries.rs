//! The concurrent-serving contract: many threads sharing one
//! `Arc<DiskSilcIndex>` through sessions must produce exactly the results
//! of serial execution, and the sharded pool's counters must not lose a
//! single count under contention.

use silc::disk::{write_index, DiskSilcIndex};
use silc::{BuildConfig, SilcIndex};
use silc_network::generate::{road_network, RoadConfig};
use silc_network::paged::{write_paged, PagedNetwork};
use silc_network::VertexId;
use silc_query::{KnnResult, KnnVariant, ObjectSet, QueryEngine};
use silc_storage::PAGE_SIZE;
use std::sync::Arc;

const THREADS: usize = 8;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("silc-concurrent-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A comparable, bit-exact snapshot of a result.
fn snapshot(r: &KnnResult) -> Vec<(u32, u32, u64, u64)> {
    r.neighbors
        .iter()
        .map(|n| (n.object.0, n.vertex.0, n.interval.lo.to_bits(), n.interval.hi.to_bits()))
        .collect()
}

#[test]
fn concurrent_knn_matches_serial_and_counters_stay_consistent() {
    let g = Arc::new(road_network(&RoadConfig { vertices: 220, seed: 2024, ..Default::default() }));
    let idx = SilcIndex::build(g.clone(), &BuildConfig { grid_exponent: 9, threads: 0 }).unwrap();
    let path = tmp("concurrent.idx");
    write_index(&idx, &path).unwrap();
    // A pool far smaller than the file so eviction churn is real:
    // contention over the pool's shards is the test.
    let disk = Arc::new(DiskSilcIndex::open(&path, g.clone(), 0.10).unwrap());
    let objects = Arc::new(ObjectSet::random(&g, 0.1, 5));
    let engine = QueryEngine::new(disk.clone(), objects.clone());

    let queries: Vec<VertexId> = (0..22u32).map(|i| VertexId(i * 10 % 220)).collect();
    let k = 6;

    // Serial reference pass, with the pool workload measured.
    disk.reset_io_stats();
    let mut session = engine.session();
    let serial: Vec<Vec<(u32, u32, u64, u64)>> = queries
        .iter()
        .flat_map(|&q| {
            [
                snapshot(session.knn(q, k, KnnVariant::Basic)),
                snapshot(session.knn(q, k, KnnVariant::MinDist)),
            ]
        })
        .collect();
    let serial_io = disk.io_stats();
    assert!(serial_io.requests() > 0);

    // Concurrent pass: every thread runs the full workload through its own
    // session and must reproduce the serial snapshots bit for bit.
    disk.reset_io_stats();
    disk.clear_cache();
    let serial = Arc::new(serial);
    let queries = Arc::new(queries);
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let engine = engine.clone();
            let serial = Arc::clone(&serial);
            let queries = Arc::clone(&queries);
            std::thread::spawn(move || {
                let mut session = engine.session();
                for (i, &q) in queries.iter().enumerate() {
                    let basic = snapshot(session.knn(q, k, KnnVariant::Basic));
                    assert_eq!(basic, serial[2 * i], "thread {t}: Basic diverged at query {q}");
                    let mindist = snapshot(session.knn(q, k, KnnVariant::MinDist));
                    assert_eq!(mindist, serial[2 * i + 1], "thread {t}: MinDist diverged at {q}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // No lost counts: the query algorithms are deterministic and a lookup
    // makes a fixed number of pool requests (one, or one per page of a
    // span longer than a page) whatever the pool holds, so the pool
    // workload of T threads is exactly T times the serial workload —
    // every request must land in hits or misses, never dropped.
    let io = disk.io_stats();
    assert_eq!(
        io.requests(),
        serial_io.requests() * THREADS as u64,
        "pool counters lost requests under concurrency"
    );
    // Pool identities: every miss is one page read of exactly one page.
    assert_eq!(io.bytes_read, io.misses * PAGE_SIZE as u64);
    assert!(io.evictions <= io.misses);
}

#[test]
fn concurrent_disk_baselines_match_serial() {
    let g = Arc::new(road_network(&RoadConfig { vertices: 160, seed: 77, ..Default::default() }));
    let idx = SilcIndex::build(g.clone(), &BuildConfig { grid_exponent: 9, threads: 0 }).unwrap();
    let net_path = tmp("concurrent.pnet");
    write_paged(&g, &net_path).unwrap();
    let paged = Arc::new(PagedNetwork::open(&net_path, 0.15).unwrap());
    let objects = Arc::new(ObjectSet::random(&g, 0.1, 3));
    let disk_idx_path = tmp("concurrent-baseline.idx");
    write_index(&idx, &disk_idx_path).unwrap();
    let disk = Arc::new(DiskSilcIndex::open(&disk_idx_path, g.clone(), 0.2).unwrap());
    let engine = QueryEngine::new(disk, objects.clone());
    let ratio = g.min_weight_ratio();

    let queries: Vec<VertexId> = (0..16u32).map(|i| VertexId(i * 10 % 160)).collect();
    let mut session = engine.session();
    let serial: Vec<_> = queries
        .iter()
        .flat_map(|&q| {
            [
                snapshot(session.ine_disk(&paged, q, 5)),
                snapshot(session.ier_disk(&paged, q, 5, ratio)),
            ]
        })
        .collect();

    let serial = Arc::new(serial);
    let queries = Arc::new(queries);
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let engine = engine.clone();
            let paged = Arc::clone(&paged);
            let serial = Arc::clone(&serial);
            let queries = Arc::clone(&queries);
            std::thread::spawn(move || {
                let mut session = engine.session();
                for (i, &q) in queries.iter().enumerate() {
                    let ine = snapshot(session.ine_disk(&paged, q, 5));
                    assert_eq!(ine, serial[2 * i], "thread {t}: INE-disk diverged at {q}");
                    let ier = snapshot(session.ier_disk(&paged, q, 5, ratio));
                    assert_eq!(ier, serial[2 * i + 1], "thread {t}: IER-disk diverged at {q}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let io = paged.io_stats();
    assert!(io.requests() > 0);
    assert_eq!(io.bytes_read, io.misses * PAGE_SIZE as u64);
}
