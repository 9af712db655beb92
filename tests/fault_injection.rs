//! Chaos suite: every disk-resident query surface driven over injected
//! faults.
//!
//! The contract under test, for each of the three disk surfaces
//! (`DiskSilcIndex` kNN, `DiskDistanceOracle` probes, `PartitionedSession`
//! routed kNN): under any schedule of injected faults a call either
//!
//! * returns `Ok` with an answer **bit-identical** to the fault-free run
//!   (transient faults were retried away; nothing corrupt was consumed),
//! * returns a **typed error** — corruption errors name the failing page —
//!   or
//! * (partitioned only) returns a degraded-but-**sound** answer listing
//!   the failed shards in `degraded`.
//!
//! It must never panic and never return a silently wrong value. Retries
//! are verified against exact `IoStats` counters on a deterministic
//! script; the seeded matrices sweep mixed fault rates over the page
//! formats; a proptest law (run at depth by `make deep-fuzz`) sweeps
//! random seeds.

use proptest::prelude::*;
use silc::{disk, BuildConfig, DiskSilcIndex, QueryError, SilcIndex};
use silc_network::generate::{road_network, RoadConfig};
use silc_network::{dijkstra, SpatialNetwork, VertexId};
use silc_pcp::{DiskDistanceOracle, DistanceOracle, PcpError};
use silc_query::{KnnResult, KnnVariant, ObjectSet, PartitionedEngine, QueryEngine};
use silc_storage::{
    FaultInjectingPageStore, FaultKind, FaultRates, MemPageStore, PageId, PageStore,
};
use std::sync::Arc;

/// A deterministic fixture network plus its serialized SILC index bytes,
/// built once and shared by every test (and every proptest case).
type SilcFixture = (Arc<SpatialNetwork>, Arc<ObjectSet>, Vec<u8>);

fn fixture() -> SilcFixture {
    static FIXTURE: std::sync::OnceLock<SilcFixture> = std::sync::OnceLock::new();
    FIXTURE
        .get_or_init(|| {
            let g = Arc::new(road_network(&RoadConfig {
                vertices: 150,
                seed: 4242,
                ..Default::default()
            }));
            let idx =
                SilcIndex::build(g.clone(), &BuildConfig { grid_exponent: 9, threads: 1 }).unwrap();
            let bytes = disk::encode_index(&idx);
            let objects = Arc::new(ObjectSet::random(&g, 0.2, 77));
            (g, objects, bytes)
        })
        .clone()
}

/// Bit-level equality of two kNN results.
fn bit_identical(a: &KnnResult, b: &KnnResult) -> bool {
    a.neighbors.len() == b.neighbors.len()
        && a.neighbors.iter().zip(&b.neighbors).all(|(x, y)| {
            x.object == y.object
                && x.vertex == y.vertex
                && x.interval.lo.to_bits() == y.interval.lo.to_bits()
                && x.interval.hi.to_bits() == y.interval.hi.to_bits()
        })
}

/// Counts `read_page` events so a later run can aim a scripted fault at an
/// exact point of the deterministic read sequence.
struct CountingStore {
    inner: MemPageStore,
    reads: std::sync::atomic::AtomicU64,
}

impl PageStore for CountingStore {
    fn read_page(&self, page: PageId) -> std::io::Result<Arc<[u8]>> {
        self.reads.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.read_page(page)
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }
}

#[test]
fn scripted_transient_fault_is_retried_with_exact_counters() {
    let (g, objects, bytes) = fixture();

    // Pass A: learn how many page-read events opening the index consumes,
    // so the script below can fire its fault on the first *query* read.
    let counter = Arc::new(CountingStore {
        inner: MemPageStore::new(&bytes),
        reads: std::sync::atomic::AtomicU64::new(0),
    });
    let disk = DiskSilcIndex::open_store(Box::new(Arc::clone(&counter)), g.clone(), 1.0).unwrap();
    let open_reads = counter.reads.load(std::sync::atomic::Ordering::Relaxed);

    // Fault-free reference answer.
    let engine = QueryEngine::new(Arc::new(disk), objects.clone());
    let reference = engine.session().try_knn(VertexId(9), 5, KnnVariant::Basic).unwrap().clone();

    // Pass B: same deterministic read sequence, one transient fault aimed
    // at the first post-open (pool) read.
    let script: Vec<Option<FaultKind>> =
        (0..open_reads).map(|_| None).chain([Some(FaultKind::Transient)]).collect();
    let injector = Arc::new(FaultInjectingPageStore::scripted(MemPageStore::new(&bytes), script));
    let disk = DiskSilcIndex::open_store(Box::new(Arc::clone(&injector)), g.clone(), 1.0).unwrap();
    let disk = Arc::new(disk);
    let engine = QueryEngine::new(Arc::clone(&disk), objects.clone());
    let got = engine.session().try_knn(VertexId(9), 5, KnnVariant::Basic).unwrap().clone();

    assert!(bit_identical(&got, &reference), "a retried transient fault must not change bits");
    let stats = disk.io_stats();
    assert_eq!(stats.faults_seen, 1, "exactly the scripted fault was seen");
    assert_eq!(stats.retries, 1, "one retry recovered it");
    assert_eq!(injector.injected().transient, 1);
}

#[test]
fn torn_reads_are_retried_like_transients() {
    let (g, objects, bytes) = fixture();
    let counter = Arc::new(CountingStore {
        inner: MemPageStore::new(&bytes),
        reads: std::sync::atomic::AtomicU64::new(0),
    });
    let disk = DiskSilcIndex::open_store(Box::new(Arc::clone(&counter)), g.clone(), 1.0).unwrap();
    let open_reads = counter.reads.load(std::sync::atomic::Ordering::Relaxed);
    let engine = QueryEngine::new(Arc::new(disk), objects.clone());
    let reference = engine.session().try_knn(VertexId(31), 4, KnnVariant::MinDist).unwrap().clone();

    let script: Vec<Option<FaultKind>> =
        (0..open_reads).map(|_| None).chain([Some(FaultKind::Torn)]).collect();
    let injector = Arc::new(FaultInjectingPageStore::scripted(MemPageStore::new(&bytes), script));
    let disk = Arc::new(
        DiskSilcIndex::open_store(Box::new(Arc::clone(&injector)), g.clone(), 1.0).unwrap(),
    );
    let engine = QueryEngine::new(Arc::clone(&disk), objects.clone());
    let got = engine.session().try_knn(VertexId(31), 4, KnnVariant::MinDist).unwrap().clone();

    assert!(bit_identical(&got, &reference));
    let stats = disk.io_stats();
    assert_eq!((stats.faults_seen, stats.retries), (1, 1), "torn read retried once");
    assert_eq!(injector.injected().torn, 1);
}

/// The seeded matrix over `DiskSilcIndex` kNN: every outcome is Ok and
/// bit-identical, or a typed error; corruption names its page; no panics.
#[test]
fn seeded_matrix_disk_knn_is_never_silently_wrong() {
    let (g, objects, bytes) = fixture();

    // Fault-free reference answers.
    let clean = Arc::new(
        DiskSilcIndex::open_store(Box::new(MemPageStore::new(&bytes)), g.clone(), 0.3).unwrap(),
    );
    let clean_engine = QueryEngine::new(clean, objects.clone());
    let mut clean_session = clean_engine.session();
    let queries: Vec<VertexId> = (0..150).step_by(13).map(VertexId).collect();
    let reference: Vec<KnnResult> = queries
        .iter()
        .map(|&q| clean_session.try_knn(q, 5, KnnVariant::Basic).unwrap().clone())
        .collect();

    let rates = FaultRates { transient: 0.04, permanent: 0.01, bit_flip: 0.015, torn: 0.01 };
    let (mut oks, mut errs) = (0usize, 0usize);
    for seed in 0..24u64 {
        let injector = FaultInjectingPageStore::seeded(MemPageStore::new(&bytes), seed, rates);
        // A fault during open is itself a legal typed-error outcome.
        let Ok(disk) = DiskSilcIndex::open_store(Box::new(injector), g.clone(), 0.3) else {
            errs += 1;
            continue;
        };
        let engine = QueryEngine::new(Arc::new(disk), objects.clone());
        let mut session = engine.session();
        for (q, want) in queries.iter().zip(&reference) {
            match session.try_knn(*q, 5, KnnVariant::Basic) {
                Ok(r) => {
                    assert!(
                        bit_identical(r, want),
                        "seed {seed} q={q}: Ok answer must be bit-identical to fault-free"
                    );
                    oks += 1;
                }
                Err(QueryError::Corrupt { page, detail }) => {
                    assert!(
                        page.is_some() || detail.contains("page"),
                        "seed {seed} q={q}: corruption must name the page: {detail}"
                    );
                    errs += 1;
                }
                Err(QueryError::Io(_)) => errs += 1,
            }
        }
    }
    assert!(oks > 0, "some seeded runs must survive to verify bit-identity");
    assert!(errs > 0, "these rates must also exercise the error paths");
}

/// The seeded matrix over `DiskDistanceOracle` probes.
#[test]
fn seeded_matrix_oracle_probes_are_never_silently_wrong() {
    let g = Arc::new(road_network(&RoadConfig { vertices: 150, seed: 555, ..Default::default() }));
    let oracle = DistanceOracle::build(&g, 10, 12.0);
    let bytes = silc_pcp::encode_oracle(&oracle);

    let clean = DiskDistanceOracle::from_store(MemPageStore::new(&bytes), 0.3, None).unwrap();
    let pairs: Vec<(VertexId, VertexId)> =
        (0..150).step_by(7).map(|u| (VertexId(u), VertexId((u * 31 + 8) % 150))).collect();
    let reference: Vec<f64> = pairs.iter().map(|&(u, v)| clean.distance(u, v)).collect();

    let rates = FaultRates { transient: 0.03, permanent: 0.01, bit_flip: 0.02, torn: 0.01 };
    let (mut oks, mut errs) = (0usize, 0usize);
    for seed in 100..124u64 {
        let injector = FaultInjectingPageStore::seeded(MemPageStore::new(&bytes), seed, rates);
        let Ok(disk) = DiskDistanceOracle::from_store(injector, 0.3, None) else {
            errs += 1;
            continue;
        };
        for (&(u, v), &want) in pairs.iter().zip(&reference) {
            match disk.try_distance(u, v) {
                Ok(d) => {
                    assert_eq!(
                        d.to_bits(),
                        want.to_bits(),
                        "seed {seed} {u}->{v}: Ok probe must be bit-identical"
                    );
                    oks += 1;
                }
                Err(PcpError::Corrupt(msg)) => {
                    assert!(
                        msg.contains("page")
                            || msg.contains("sorted")
                            || msg.contains("cap")
                            || msg.contains("pair group"),
                        "seed {seed} {u}->{v}: corruption must name its evidence: {msg}"
                    );
                    errs += 1;
                }
                Err(PcpError::Io(_)) => errs += 1,
            }
        }
    }
    assert!(oks > 0, "some seeded runs must survive");
    assert!(errs > 0, "the error paths must be exercised");
}

/// A dead shard degrades the routed answer instead of breaking it: the
/// failed shard is listed, intervals stay sound, `complete` is false.
#[test]
fn dead_shard_routed_knn_degrades_soundly() {
    use silc::partitioned::{PartitionedBuildConfig, PartitionedSilcIndex};
    use silc_network::partition::PartitionConfig;

    let g = Arc::new(road_network(&RoadConfig { vertices: 240, seed: 808, ..Default::default() }));
    let cfg = PartitionedBuildConfig {
        partition: PartitionConfig { shards: 4, ..Default::default() },
        grid_exponent: 9,
        threads: 1,
        cache_fraction: 0.5,
    };
    let dir = std::env::temp_dir().join("silc-fault-tests").join("routed");
    std::fs::remove_dir_all(&dir).ok();
    PartitionedSilcIndex::build_in_dir(g.clone(), &dir, &cfg).unwrap();

    let mut handles = Vec::new();
    let idx = Arc::new(
        PartitionedSilcIndex::open_dir_with(g.clone(), &dir, &cfg, |_, store| {
            let f = Arc::new(FaultInjectingPageStore::passthrough(store));
            handles.push(Arc::clone(&f));
            Box::new(f)
        })
        .unwrap(),
    );
    let vertices: Vec<VertexId> = g.vertices().filter(|v| v.0 % 3 == 0).collect();
    let objects = Arc::new(ObjectSet::from_vertices(&g, vertices, 8));
    let engine = PartitionedEngine::new(Arc::clone(&idx), Arc::clone(&objects));

    let queries: Vec<VertexId> = (0..240).step_by(11).map(VertexId).collect();
    let mut healthy_session = engine.session();
    let healthy: Vec<_> = queries.iter().map(|&q| healthy_session.knn(q, 6).clone()).collect();

    // Kill one shard (the one serving vertex 0's neighbors' cut) and drop
    // its warm cache so probes really hit the dead store.
    let dead = (idx.partition().shard_of(VertexId(0)) as usize + 1) % 4;
    handles[dead].kill();
    idx.shard_index(dead).clear_cache();

    let mut session = engine.session();
    let mut degraded_seen = false;
    for (&q, want) in queries.iter().zip(&healthy) {
        let res = session.knn(q, 6).clone();
        assert_eq!(res.neighbors.len(), want.neighbors.len());
        if res.degraded.is_empty() {
            // The dead shard never had to be touched: the answer must be
            // exactly the healthy one.
            for (a, b) in res.neighbors.iter().zip(&want.neighbors) {
                assert_eq!(a.object, b.object, "q={q}: untouched query must match healthy run");
                assert_eq!(a.interval.lo.to_bits(), b.interval.lo.to_bits());
                assert_eq!(a.interval.hi.to_bits(), b.interval.hi.to_bits());
            }
        } else {
            degraded_seen = true;
            assert!(res.degraded.contains(&(dead as u32)), "q={q}: dead shard must be listed");
            assert!(!res.complete, "q={q}: degraded answers are never certified");
            for nb in &res.neighbors {
                let d = dijkstra::distance(&g, q, nb.vertex).expect("connected");
                assert!(
                    nb.interval.lo <= d + 1e-9 && d <= nb.interval.hi + 1e-9,
                    "q={q}: degraded interval [{}, {}] must contain {d}",
                    nb.interval.lo,
                    nb.interval.hi,
                );
            }
        }
    }
    assert!(degraded_seen, "some query must be forced through the dead shard");
}

/// A corrupt frontier-tier page must not break routing — it retires
/// exact mode and the router falls back to the interval path: answers
/// stay sound, and self-certified `complete` answers stay exact.
///
/// Two corruption sites, two degradation shapes:
/// * a flipped byte in the *row region* passes the open-time metadata
///   checks but fails its page checksum at engine init, so the engine
///   builds interval frontier edges (`exact_routing() == false`);
/// * a flipped byte in the *metadata* fails validation at open, the
///   tier is dropped entirely, and the index serves tier-free.
#[test]
fn corrupt_frontier_tier_degrades_to_interval_routing() {
    use silc::partitioned::{PartitionedBuildConfig, PartitionedSilcIndex};
    use silc_network::partition::PartitionConfig;
    use silc_storage::PAGE_SIZE;

    let g = Arc::new(road_network(&RoadConfig { vertices: 240, seed: 909, ..Default::default() }));
    let cfg = PartitionedBuildConfig {
        partition: PartitionConfig { shards: 4, ..Default::default() },
        grid_exponent: 9,
        threads: 1,
        cache_fraction: 0.5,
    };
    let dir = std::env::temp_dir().join("silc-fault-tests").join("tier-corrupt");
    std::fs::remove_dir_all(&dir).ok();
    PartitionedSilcIndex::build_in_dir(g.clone(), &dir, &cfg).unwrap();
    let tier_path = dir.join(silc::frontier::FILE_NAME);
    let pristine = std::fs::read(&tier_path).unwrap();
    // rows_base is the last header word (see `silc::frontier` docs).
    let rows_base = u64::from_le_bytes(pristine[44..52].try_into().unwrap()) as usize;

    let vertices: Vec<VertexId> = g.vertices().filter(|v| v.0 % 3 == 0).collect();
    let objects = Arc::new(ObjectSet::from_vertices(&g, vertices, 8));
    let queries: Vec<VertexId> = (0..240).step_by(11).map(VertexId).collect();

    let check_sound = |idx: Arc<PartitionedSilcIndex>| {
        let engine = PartitionedEngine::new(idx, Arc::clone(&objects));
        assert!(!engine.exact_routing(), "a corrupt tier must retire exact routing");
        let mut session = engine.session();
        for &q in &queries {
            let res = session.knn(q, 6).clone();
            assert_eq!(res.neighbors.len(), 6);
            for nb in &res.neighbors {
                let d = dijkstra::distance(&g, q, nb.vertex).expect("connected");
                assert!(
                    nb.interval.lo <= d + 1e-9 && d <= nb.interval.hi + 1e-9,
                    "q={q}: fallback interval [{}, {}] must contain {d}",
                    nb.interval.lo,
                    nb.interval.hi,
                );
            }
            if res.complete {
                // Interval-path self-certification stays trustworthy.
                let mut truth: Vec<f64> = objects
                    .iter()
                    .map(|(_, v)| dijkstra::distance(&g, q, v).expect("connected"))
                    .collect();
                truth.sort_by(f64::total_cmp);
                for (nb, d) in res.neighbors.iter().zip(&truth) {
                    assert!((nb.interval.hi - d).abs() < 1e-6, "q={q}: complete must be exact");
                }
            }
        }
    };

    // Corruption A: a byte deep in the row region. The tier opens (its
    // metadata is intact) but the poisoned row page surfaces as a typed
    // checksum error during the engine's frontier-graph build.
    let mut bytes = pristine.clone();
    let target = (rows_base / PAGE_SIZE + 1) * PAGE_SIZE + 12;
    bytes[target] ^= 0x40;
    std::fs::write(&tier_path, &bytes).unwrap();
    let idx = Arc::new(PartitionedSilcIndex::open_dir(g.clone(), &dir, &cfg).unwrap());
    assert!(idx.frontier_tier().is_some(), "row corruption is lazy — the tier still opens");
    check_sound(idx);

    // Corruption B: a metadata byte. Open-time validation rejects the
    // tier and the directory serves tier-free.
    let mut bytes = pristine.clone();
    bytes[20] ^= 0x01;
    std::fs::write(&tier_path, &bytes).unwrap();
    let idx = Arc::new(PartitionedSilcIndex::open_dir(g.clone(), &dir, &cfg).unwrap());
    assert!(idx.frontier_tier().is_none(), "metadata corruption drops the tier at open");
    check_sound(idx);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// The chaos law at fuzz depth: under any seeded fault schedule a
    /// disk-index kNN either errors (typed) or answers bit-identically to
    /// the fault-free run — and never panics.
    #[test]
    fn random_fault_schedules_never_produce_wrong_bits(
        seed in 0u64..1_000_000,
        transient in 0.0f64..0.08,
        bit_flip in 0.0f64..0.04,
        torn in 0.0f64..0.03,
    ) {
        let (g, objects, bytes) = fixture();
        let clean = Arc::new(
            DiskSilcIndex::open_store(Box::new(MemPageStore::new(&bytes)), g.clone(), 0.3)
                .unwrap(),
        );
        let clean_engine = QueryEngine::new(clean, objects.clone());
        let mut clean_session = clean_engine.session();

        let rates = FaultRates { transient, permanent: 0.005, bit_flip, torn };
        let injector = FaultInjectingPageStore::seeded(MemPageStore::new(&bytes), seed, rates);
        if let Ok(disk) = DiskSilcIndex::open_store(Box::new(injector), g.clone(), 0.3) {
            let engine = QueryEngine::new(Arc::new(disk), objects.clone());
            let mut session = engine.session();
            for q in [VertexId(seed as u32 % 150), VertexId((seed as u32 * 7 + 3) % 150)] {
                let want = clean_session.try_knn(q, 4, KnnVariant::Basic).unwrap().clone();
                match session.try_knn(q, 4, KnnVariant::Basic) {
                    Ok(r) => prop_assert!(
                        bit_identical(r, &want),
                        "seed {} q={}: Ok answer diverged from fault-free", seed, q
                    ),
                    Err(QueryError::Corrupt { page, detail }) => prop_assert!(
                        page.is_some() || detail.contains("page"),
                        "corruption must name the page: {}", detail
                    ),
                    Err(QueryError::Io(_)) => {}
                }
            }
        }
    }
}
