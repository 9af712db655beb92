//! Proptest law: the on-disk formats answer bit-identically to memory, and
//! their writers reproduce committed images byte for byte.
//!
//! Each paged artifact has one format — `SILCIDX4`, PCP version 4 and
//! `SILCFDT1` — and encoding must be a *pure* representation change: no
//! query may be able to tell a disk image from the structure it was
//! encoded from. On random road networks this locks, per case:
//!
//! * **SILC**: an encoded index, with its record spans as written and
//!   re-laid in vertex-id order, reopened through an in-memory page store
//!   answers `network_distance` bit-identically to the in-memory index;
//! * **SILC span order**: the writer lays the per-vertex record spans out
//!   in Morton order of the vertex codes, and the reader accepts them in
//!   any order. The same image re-laid in vertex-id order (what the writer
//!   produced before the clustering) answers `try_entry`, `try_min_lambda`
//!   and kNN bit-identically, monolithic and as the shards of a
//!   partitioned directory; the committed image re-laid that way opens;
//!   and on a network whose ids are random in space the clustered image
//!   does at most half the physical page reads;
//! * **PCP**: the encoded oracle answers `distance_with_epsilon` — distance
//!   *and* per-pair cap — bit-identically to the memory oracle, and its
//!   pair region is strictly smaller than fixed 28-byte records whenever it
//!   stores any pairs (so a silent fallback to fixed-width encoding cannot
//!   hide behind the identity law);
//! * **writers**: today's SILC, PCP and frontier-tier writers emit exactly
//!   the committed fixture images.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silc::disk::{encode_index, DiskSilcIndex};
use silc::frontier::{build_tier, FrontierTier};
use silc::partitioned::{PartitionedBuildConfig, PartitionedSilcIndex};
use silc::path::network_distance;
use silc::{BuildConfig, CellRect, DistanceBrowser, SilcIndex};
use silc_network::generate::{road_network, RoadConfig};
use silc_network::partition::{partition_network, PartitionConfig};
use silc_network::{SpatialNetwork, VertexId};
use silc_pcp::{DiskDistanceOracle, DistanceOracle};
use silc_query::{KnnVariant, ObjectSet, PartitionedEngine, QueryEngine};
use silc_storage::checksum::seal;
use silc_storage::{FilePageStore, MemPageStore, PAGE_SIZE};
use std::sync::Arc;

/// Re-lays a `SILCIDX4` image with its record spans in vertex-id order,
/// padded by the writer's page rule, and re-seals it: byte for byte what
/// the writer would produce if it did not cluster the spans along the
/// Morton curve. The records themselves are copied untouched.
fn id_ordered(image: &[u8]) -> Vec<u8> {
    const RECORD_BYTES: usize = 15;
    let u64_at = |off: usize| u64::from_le_bytes(image[off..off + 8].try_into().unwrap()) as usize;
    let u32_at = |off: usize| u32::from_le_bytes(image[off..off + 4].try_into().unwrap()) as usize;
    assert_eq!(&image[..8], b"SILCIDX4");
    let n = u32_at(8);
    let entries_base = u64_at(56);
    let directory = 80 + 8 * n;

    let mut out = image[..entries_base].to_vec();
    for v in 0..n {
        let (start, len) =
            (u64_at(directory + 12 * v), RECORD_BYTES * u32_at(directory + 12 * v + 8));
        // The writer's rule: a span that would cross a page boundary
        // starts on the next one instead.
        let into_page = out.len() % PAGE_SIZE;
        if into_page != 0 && into_page + len > PAGE_SIZE {
            out.resize(out.len() + PAGE_SIZE - into_page, 0);
        }
        let new_start = (out.len() - entries_base) as u64;
        out[directory + 12 * v..directory + 12 * v + 8].copy_from_slice(&new_start.to_le_bytes());
        out.extend_from_slice(&image[entries_base + start..entries_base + start + len]);
    }
    let entries_len = (out.len() - entries_base) as u64;
    out[64..72].copy_from_slice(&entries_len.to_le_bytes());
    let cksum_base = out.len().div_ceil(PAGE_SIZE) * PAGE_SIZE;
    out[72..80].copy_from_slice(&(cksum_base as u64).to_le_bytes());
    seal(&mut out);
    out
}

fn open_mem(image: &[u8], g: &Arc<SpatialNetwork>, pool: f64) -> Arc<DiskSilcIndex> {
    let store = Box::new(MemPageStore::new(image));
    Arc::new(DiskSilcIndex::open_store(store, g.clone(), pool).unwrap())
}

/// One kNN answer as comparable bits.
fn knn_bits(
    session: &mut silc_query::QuerySession<DiskSilcIndex>,
    q: VertexId,
    k: usize,
) -> Vec<(u32, u64, u64)> {
    let r = session.knn(q, k, KnnVariant::Basic);
    r.neighbors
        .iter()
        .map(|n| (n.object.0, n.interval.lo.to_bits(), n.interval.hi.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn silc_disk_images_answer_bit_identically(
        seed in 0u64..1_000_000,
        vertices in 30usize..80,
    ) {
        let g = Arc::new(road_network(&RoadConfig { vertices, seed, ..Default::default() }));
        let idx =
            SilcIndex::build(g.clone(), &BuildConfig { grid_exponent: 8, threads: 1 }).unwrap();

        let image = encode_index(&idx);
        let disks = [open_mem(&image, &g, 0.5), open_mem(&id_ordered(&image), &g, 0.5)];

        let n = g.vertex_count() as u32;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF0_F0);
        for _ in 0..25 {
            let u = VertexId(rng.gen_range(0..n));
            let v = VertexId(rng.gen_range(0..n));
            let want = network_distance(&idx, u, v).unwrap();
            for (layout, disk) in ["clustered", "id-ordered"].iter().zip(&disks) {
                let got = network_distance(&**disk, u, v).unwrap();
                prop_assert!(
                    got.to_bits() == want.to_bits(),
                    "{layout} image diverged at {u}->{v}: {got} vs {want}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn silc_span_order_is_invisible_to_queries(
        seed in 0u64..1_000_000,
        vertices in 60usize..140,
        shards in 2usize..4,
    ) {
        let g = Arc::new(road_network(&RoadConfig { vertices, seed, ..Default::default() }));
        let idx =
            SilcIndex::build(g.clone(), &BuildConfig { grid_exponent: 8, threads: 1 }).unwrap();
        let clustered = encode_index(&idx);
        let by_id = id_ordered(&clustered);
        prop_assert!(clustered != by_id, "road-network ids are not in Morton order");
        let disks = [open_mem(&clustered, &g, 0.5), open_mem(&by_id, &g, 0.5)];

        // Monolithic: every lookup the query layer makes, then kNN itself.
        let n = g.vertex_count() as u32;
        let side = 1u32 << 8;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0DE2);
        for _ in 0..200 {
            let u = VertexId(rng.gen_range(0..n));
            let v = VertexId(rng.gen_range(0..n));
            let code = disks[0].vertex_code(v);
            prop_assert_eq!(code, disks[1].vertex_code(v));
            let (x0, y0) = (rng.gen_range(0..side), rng.gen_range(0..side));
            let rect = CellRect::new(x0, y0, rng.gen_range(x0..side), rng.gen_range(y0..side));
            prop_assert_eq!(
                disks[0].try_entry(u, code).unwrap(),
                disks[1].try_entry(u, code).unwrap()
            );
            prop_assert_eq!(
                disks[0].try_min_lambda(u, &rect).unwrap().map(f64::to_bits),
                disks[1].try_min_lambda(u, &rect).unwrap().map(f64::to_bits)
            );
        }
        let objects = Arc::new(ObjectSet::random(&g, 0.2, seed));
        let mut sessions = disks.clone().map(|d| QueryEngine::new(d, objects.clone()).session());
        for _ in 0..20 {
            let q = VertexId(rng.gen_range(0..n));
            let want = knn_bits(&mut sessions[0], q, 5);
            prop_assert_eq!(want.len(), 5.min(objects.len()));
            prop_assert!(want == knn_bits(&mut sessions[1], q, 5), "kNN diverged at {q}");
        }

        // Partitioned: the same directory with every shard file re-laid in
        // id order routes to the same answers.
        let cfg = PartitionedBuildConfig {
            partition: PartitionConfig { shards, ..Default::default() },
            grid_exponent: 8,
            threads: 1,
            cache_fraction: 0.5,
        };
        let root =
            std::env::temp_dir().join("silc-span-order-fuzz").join(format!("{seed}-{vertices}"));
        std::fs::remove_dir_all(&root).ok();
        let (dir_clustered, dir_by_id) = (root.join("clustered"), root.join("by-id"));
        let built = PartitionedSilcIndex::build_in_dir(g.clone(), &dir_clustered, &cfg).unwrap();
        std::fs::create_dir_all(&dir_by_id).unwrap();
        for file in std::fs::read_dir(&dir_clustered).unwrap() {
            let file = file.unwrap();
            let bytes = std::fs::read(file.path()).unwrap();
            let bytes = if bytes.starts_with(b"SILCIDX4") { id_ordered(&bytes) } else { bytes };
            FilePageStore::create(dir_by_id.join(file.file_name()), &bytes).unwrap();
        }
        let reopened = PartitionedSilcIndex::open_dir(g.clone(), &dir_by_id, &cfg).unwrap();
        prop_assert!(reopened.open_warnings().is_empty());
        let mut routed = [built, reopened]
            .map(|index| PartitionedEngine::new(Arc::new(index), objects.clone()).session());
        for _ in 0..10 {
            let q = VertexId(rng.gen_range(0..n));
            let want = routed[0].knn(q, 5).clone();
            let got = routed[1].knn(q, 5);
            prop_assert!(want.complete && got.complete);
            prop_assert!(want.neighbors == got.neighbors, "routed kNN diverged at {q}");
        }
        std::fs::remove_dir_all(&root).ok();
    }
}

/// The fixture is `encode_index` of the index below: it pins the writer's
/// bytes. Regenerate it only if the network generator or the index builder
/// deliberately changes what this index contains.
#[test]
fn silc_writer_reproduces_the_committed_silcidx4_fixture() {
    let fixture: &[u8] = include_bytes!("fixtures/silcidx4.bin");
    let g = Arc::new(road_network(&RoadConfig { vertices: 40, seed: 7, ..Default::default() }));
    let idx = SilcIndex::build(g.clone(), &BuildConfig { grid_exponent: 8, threads: 1 }).unwrap();
    assert!(encode_index(&idx) == fixture, "writer output drifted from the fixture");
    let disk = open_mem(fixture, &g, 0.5);
    for u in g.vertices() {
        for v in g.vertices() {
            let (got, want) = (network_distance(&*disk, u, v), network_distance(&idx, u, v));
            assert_eq!(got.unwrap().to_bits(), want.unwrap().to_bits(), "{u}->{v}");
        }
    }
}

/// The layout the writer used before it clustered spans along the Morton
/// curve — spans in vertex-id order — still opens, and answers exactly as
/// the committed clustered image does.
#[test]
fn id_ordered_image_from_before_the_morton_layout_still_opens() {
    let fixture: &[u8] = include_bytes!("fixtures/silcidx4.bin");
    let g = Arc::new(road_network(&RoadConfig { vertices: 40, seed: 7, ..Default::default() }));
    let by_id = id_ordered(fixture);
    assert!(by_id != fixture, "road-network ids are not in Morton order");
    let (clustered, old) = (open_mem(fixture, &g, 0.5), open_mem(&by_id, &g, 0.5));
    for u in g.vertices() {
        for v in g.vertices() {
            let (got, want) = (network_distance(&*old, u, v), network_distance(&*clustered, u, v));
            assert_eq!(got.unwrap().to_bits(), want.unwrap().to_bits(), "{u}->{v}");
        }
    }
}

/// Counters, not clocks: the benchmark's `local_cold` shape (2 % pool,
/// k = 10) on a road network, whose ids are random in
/// space. Clustering must at least halve the physical page reads of a fixed
/// kNN stream — deterministic, so the locality gain cannot silently rot.
#[test]
fn clustered_spans_halve_physical_reads_on_a_cold_pool() {
    let (n, queries) = (3000, 400);
    let g = Arc::new(road_network(&RoadConfig { vertices: n, seed: 2008, ..Default::default() }));
    let idx = SilcIndex::build(g.clone(), &BuildConfig { grid_exponent: 10, threads: 0 }).unwrap();
    let objects = Arc::new(ObjectSet::random(&g, 0.05, 11));
    let clustered = encode_index(&idx);
    let pages_read = |image: &[u8]| {
        let disk = open_mem(image, &g, 0.02);
        let mut session = QueryEngine::new(disk.clone(), objects.clone()).session();
        let answers: Vec<_> = (0..queries)
            .map(|i| knn_bits(&mut session, VertexId(((i * 7919) % n) as u32), 10))
            .collect();
        let io = disk.io_stats();
        (io.misses + io.prefetched, answers)
    };
    let (clustered_reads, clustered_answers) = pages_read(&clustered);
    let (by_id_reads, by_id_answers) = pages_read(&id_ordered(&clustered));
    assert!(clustered_answers == by_id_answers, "span order changed an answer");
    assert!(
        2 * clustered_reads <= by_id_reads,
        "{queries} queries read {clustered_reads} pages clustered, {by_id_reads} id-ordered"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn pcp_disk_image_answers_bit_identically(
        seed in 0u64..1_000_000,
        vertices in 40usize..90,
        separation in 6.0f64..12.0,
    ) {
        let g = Arc::new(road_network(&RoadConfig { vertices, seed, ..Default::default() }));
        let mem = DistanceOracle::build_with(
            &g,
            &silc_pcp::PcpBuildConfig { grid_exponent: 8, separation, threads: 1 },
        );

        let disk = DiskDistanceOracle::from_store(
            MemPageStore::new(&silc_pcp::encode_oracle(&mem)),
            0.5,
            None,
        )
        .unwrap();
        let fixed_bytes = (mem.pair_count() * 28) as u64;
        if mem.pair_count() > 0 {
            prop_assert!(
                disk.pair_region_bytes() < fixed_bytes,
                "pair region ({} B) did not compress below fixed records ({fixed_bytes} B)",
                disk.pair_region_bytes()
            );
        }

        let n = g.vertex_count() as u32;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xACE5);
        for _ in 0..40 {
            let u = VertexId(rng.gen_range(0..n));
            let v = VertexId(rng.gen_range(0..n));
            let (m, m_cap) = mem.distance_with_epsilon(u, v);
            let (d, d_cap) = disk.distance_with_epsilon(u, v);
            prop_assert!(d.to_bits() == m.to_bits(), "distance bits diverged at {u}->{v}: {d} vs {m}");
            prop_assert!(
                d_cap.to_bits() == m_cap.to_bits(),
                "cap bits diverged at {u}->{v}: {d_cap} vs {m_cap}"
            );
        }
    }
}

/// The fixture is `encode_oracle` of the oracle below: it pins the
/// writer's bytes. Regenerate it only if the network generator or the
/// oracle builder deliberately changes what this oracle contains.
#[test]
fn pcp_writer_reproduces_the_committed_v4_fixture() {
    let fixture: &[u8] = include_bytes!("fixtures/pcp_v4.bin");
    let g = road_network(&RoadConfig { vertices: 40, seed: 7, ..Default::default() });
    let mem = DistanceOracle::build_with(
        &g,
        &silc_pcp::PcpBuildConfig { grid_exponent: 8, separation: 6.0, threads: 1 },
    );
    assert!(silc_pcp::encode_oracle(&mem) == fixture, "writer output drifted from the fixture");
    let disk = DiskDistanceOracle::from_store(MemPageStore::new(fixture), 0.5, None).unwrap();
    for u in g.vertices() {
        for v in g.vertices() {
            assert_eq!(disk.distance(u, v).to_bits(), mem.distance(u, v).to_bits(), "{u}->{v}");
        }
    }
}

/// The fixture is `build_tier` of the partition below: it pins the
/// writer's bytes. Regenerate it only if the generator, the partitioner or
/// the tier builder deliberately changes what this tier contains.
#[test]
fn frontier_writer_reproduces_the_committed_silcfdt1_fixture() {
    let fixture: &[u8] = include_bytes!("fixtures/silcfdt1.bin");
    let g = road_network(&RoadConfig { vertices: 120, seed: 7, ..Default::default() });
    let p = partition_network(&g, &PartitionConfig { shards: 3, ..Default::default() }).unwrap();
    assert!(build_tier(&p, 1) == fixture, "writer output drifted from the fixture");
    let tier = FrontierTier::from_store(Box::new(MemPageStore::new(fixture)), &p, 1.0).unwrap();
    assert!(tier.row_count() > 0, "the fixture partition has a frontier");
}
