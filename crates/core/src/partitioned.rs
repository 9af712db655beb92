//! A partitioned disk-resident index: one [`DiskSilcIndex`] per spatial
//! shard.
//!
//! [`SilcIndex::build`] runs one full-graph SSSP per vertex — O(n²·log n)
//! total, the scaling wall the paper flags. [`PartitionedSilcIndex`]
//! splits the network with [`partition_network`] and builds an
//! independent index over each shard's *induced* subnetwork: every SSSP
//! stops at the shard boundary, so total precompute work drops from n
//! full-graph SSSPs to Σ shard-local work — for k balanced shards, about
//! a k-fold reduction, at the price of exactness across the cut. Each
//! shard build runs the existing self-scheduling worker machinery of
//! [`SilcIndex::build`] internally, and shards are built one after
//! another so peak memory stays one in-memory shard index.
//!
//! A shard index answers *within-shard* distances exactly; paths that
//! cross the cut are the query router's problem (`silc-query`'s
//! cross-shard kNN), which combines shard-local intervals with the
//! partition's cut-edge frontier to stay sound.

use crate::disk::{write_index, DiskSilcIndex};
use crate::error::BuildError;
use crate::frontier::{self, FrontierTier};
use crate::index::{BuildConfig, SilcIndex};
use silc_network::partition::{partition_network, NetworkPartition, PartitionError};
use silc_network::{PartitionConfig, SpatialNetwork};
use std::fmt;
use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Configuration for [`PartitionedSilcIndex::build_in_dir`].
#[derive(Debug, Clone)]
pub struct PartitionedBuildConfig {
    /// How to split the network (shard count, Morton seeding).
    pub partition: PartitionConfig,
    /// Grid exponent of each per-shard index.
    pub grid_exponent: u32,
    /// Worker threads per shard build; `0` means all available cores.
    pub threads: usize,
    /// Buffer-pool fraction of each opened shard index.
    pub cache_fraction: f64,
}

impl Default for PartitionedBuildConfig {
    fn default() -> Self {
        PartitionedBuildConfig {
            partition: PartitionConfig::default(),
            grid_exponent: 11,
            threads: 0,
            cache_fraction: 0.05,
        }
    }
}

/// Why a partitioned build (or open) failed.
#[derive(Debug)]
pub enum PartitionedBuildError {
    /// The partitioner rejected the network.
    Partition(PartitionError),
    /// Building, writing, or opening one shard's index failed. A likely
    /// cause on *directed* networks: the shard is weakly but not strongly
    /// connected, surfacing as [`BuildError::Unreachable`].
    Shard {
        /// Which shard.
        shard: usize,
        /// The underlying error.
        source: BuildError,
    },
    /// Directory-level I/O failed.
    Io(std::io::Error),
}

impl fmt::Display for PartitionedBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionedBuildError::Partition(e) => write!(f, "partitioning failed: {e}"),
            PartitionedBuildError::Shard { shard, source } => {
                write!(f, "shard {shard}: {source}")
            }
            PartitionedBuildError::Io(e) => write!(f, "index directory: {e}"),
        }
    }
}

impl std::error::Error for PartitionedBuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PartitionedBuildError::Partition(e) => Some(e),
            PartitionedBuildError::Shard { source, .. } => Some(source),
            PartitionedBuildError::Io(e) => Some(e),
        }
    }
}

impl From<PartitionError> for PartitionedBuildError {
    fn from(e: PartitionError) -> Self {
        PartitionedBuildError::Partition(e)
    }
}

impl From<std::io::Error> for PartitionedBuildError {
    fn from(e: std::io::Error) -> Self {
        PartitionedBuildError::Io(e)
    }
}

/// A non-fatal degradation recorded while opening an index directory.
///
/// [`PartitionedSilcIndex::open_dir`] prefers opening *something sound*
/// over failing: a frontier tier that exists but does not validate is
/// dropped and the query router falls back to interval-based cross-shard
/// routing. That fallback used to be silent — indistinguishable from a
/// directory that never had a tier — which made "why did `complete` go
/// false?" undiagnosable from the serving side. Every such decision is now
/// recorded here and exposed through
/// [`PartitionedSilcIndex::open_warnings`], so a server can report it in a
/// status frame.
#[derive(Debug, Clone, PartialEq)]
pub enum OpenWarning {
    /// A component of the directory failed validation and the index opened
    /// without it, degrading answer quality but not soundness.
    DegradedOpen {
        /// Which component was dropped (e.g. `"frontier tier"`).
        component: String,
        /// The validation error that caused the drop.
        detail: String,
    },
}

impl fmt::Display for OpenWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpenWarning::DegradedOpen { component, detail } => {
                write!(f, "degraded open: {component} dropped: {detail}")
            }
        }
    }
}

/// Wall-clock split of one [`PartitionedSilcIndex::build_in_dir`] run, so
/// benchmarks can report the shard-index cost and the frontier-tier
/// precompute separately.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuildTimings {
    /// Seconds spent building, writing and re-opening the shard indexes.
    pub shards_s: f64,
    /// Seconds spent on the frontier-tier SSSPs, encode, and write.
    pub frontier_s: f64,
}

/// One disk-resident SILC index per spatial shard, plus the partition
/// that maps between global and shard-local vertex ids, plus the
/// frontier-distance tier (see [`crate::frontier`]) with exact
/// shard-internal distances from every cut-edge endpoint.
pub struct PartitionedSilcIndex {
    network: Arc<SpatialNetwork>,
    partition: Arc<NetworkPartition>,
    shards: Vec<Arc<DiskSilcIndex>>,
    shard_bytes: Vec<u64>,
    tier: Option<Arc<FrontierTier>>,
    frontier_bytes: u64,
    timings: Option<BuildTimings>,
    warnings: Vec<OpenWarning>,
}

/// File name of shard `s` inside the index directory.
fn shard_file(s: usize) -> String {
    format!("shard-{s:04}.idx")
}

impl PartitionedSilcIndex {
    /// Partitions `network`, builds one index per shard, writes each to
    /// `dir/shard-NNNN.idx`, and opens them disk-resident. Shards build
    /// sequentially (each build parallelizes internally per `cfg.threads`),
    /// so peak memory is a single in-memory shard index.
    pub fn build_in_dir<P: AsRef<Path>>(
        network: Arc<SpatialNetwork>,
        dir: P,
        cfg: &PartitionedBuildConfig,
    ) -> Result<Self, PartitionedBuildError> {
        let dir = dir.as_ref();
        let partition = Arc::new(partition_network(&network, &cfg.partition)?);
        fs::create_dir_all(dir)?;
        let build_cfg = BuildConfig { grid_exponent: cfg.grid_exponent, threads: cfg.threads };
        let mut shards = Vec::with_capacity(partition.shard_count());
        let mut shard_bytes = Vec::with_capacity(partition.shard_count());
        let shards_started = Instant::now();
        for (s, shard) in partition.shards().iter().enumerate() {
            let wrap = |source: BuildError| PartitionedBuildError::Shard { shard: s, source };
            let built =
                SilcIndex::build(Arc::clone(shard.network_arc()), &build_cfg).map_err(wrap)?;
            let path = dir.join(shard_file(s));
            write_index(&built, &path).map_err(wrap)?;
            drop(built); // free the in-memory trees before the next shard
            let disk =
                DiskSilcIndex::open(&path, Arc::clone(shard.network_arc()), cfg.cache_fraction)
                    .map_err(wrap)?;
            shard_bytes.push(fs::metadata(&path)?.len());
            shards.push(Arc::new(disk));
        }
        let shards_s = shards_started.elapsed().as_secs_f64();

        // The frontier-distance tier: |F_s| shard-confined SSSPs per shard
        // (parallel), persisted alongside the shard files. Shards are
        // strongly connected here — every shard index build above succeeded.
        let frontier_started = Instant::now();
        let tier_bytes = frontier::build_tier(&partition, cfg.threads);
        let tier_path = dir.join(frontier::FILE_NAME);
        frontier::write_tier(&tier_bytes, &tier_path)?;
        let tier =
            FrontierTier::open(&tier_path, &partition, cfg.cache_fraction).map_err(|source| {
                PartitionedBuildError::Shard { shard: partition.shard_count(), source }
            })?;
        let frontier_bytes = fs::metadata(&tier_path)?.len();
        let frontier_s = frontier_started.elapsed().as_secs_f64();

        Ok(PartitionedSilcIndex {
            network,
            partition,
            shards,
            shard_bytes,
            tier: Some(Arc::new(tier)),
            frontier_bytes,
            timings: Some(BuildTimings { shards_s, frontier_s }),
            warnings: Vec::new(),
        })
    }

    /// Re-opens an index directory written by
    /// [`PartitionedSilcIndex::build_in_dir`] with the same `network` and
    /// partition configuration. The partition is recomputed (it is
    /// deterministic), so a mismatched configuration surfaces as a header
    /// validation error on the first shard whose vertex count differs.
    pub fn open_dir<P: AsRef<Path>>(
        network: Arc<SpatialNetwork>,
        dir: P,
        cfg: &PartitionedBuildConfig,
    ) -> Result<Self, PartitionedBuildError> {
        Self::open_dir_with(network, dir, cfg, |_, store| Box::new(store))
    }

    /// Like [`Self::open_dir`], but `wrap` may replace each shard's page
    /// store before the shard index is built over it — the seam fault-
    /// injection tests use to make individual shards flaky or dead.
    /// `wrap` receives the shard number and the freshly opened file store.
    pub fn open_dir_with<P: AsRef<Path>>(
        network: Arc<SpatialNetwork>,
        dir: P,
        cfg: &PartitionedBuildConfig,
        mut wrap: impl FnMut(usize, silc_storage::FilePageStore) -> Box<dyn silc_storage::PageStore>,
    ) -> Result<Self, PartitionedBuildError> {
        let dir = dir.as_ref();
        let partition = Arc::new(partition_network(&network, &cfg.partition)?);
        let mut shards = Vec::with_capacity(partition.shard_count());
        let mut shard_bytes = Vec::with_capacity(partition.shard_count());
        for (s, shard) in partition.shards().iter().enumerate() {
            let path = dir.join(shard_file(s));
            let wrap_err = |source: BuildError| PartitionedBuildError::Shard { shard: s, source };
            let store = silc_storage::FilePageStore::open(&path)
                .map_err(|e| wrap_err(BuildError::Io(e)))?;
            let local = Arc::clone(shard.network_arc());
            let disk = DiskSilcIndex::open_store(wrap(s, store), local, cfg.cache_fraction)
                .map_err(wrap_err)?;
            shard_bytes.push(fs::metadata(&path)?.len());
            shards.push(Arc::new(disk));
        }

        // The frontier tier is optional at open time: directories written
        // before the tier existed (or whose tier file fails validation)
        // still open, and the query router falls back to its sound
        // interval-based cross-shard path. A tier that *exists* but fails
        // validation is a DegradedOpen warning — the caller (a server
        // status frame, an operator) must be able to tell "never had a
        // tier" from "had one and lost it". `wrap` sees the tier store
        // with shard number == shard_count — *after* every real shard — so
        // fault-injection handles indexed by shard number stay stable.
        let tier_path = dir.join(frontier::FILE_NAME);
        let mut frontier_bytes = 0;
        let mut warnings = Vec::new();
        let tier = if tier_path.exists() {
            match silc_storage::FilePageStore::open(&tier_path).map_err(BuildError::Io).and_then(
                |store| {
                    FrontierTier::from_store(
                        wrap(partition.shard_count(), store),
                        &partition,
                        cfg.cache_fraction,
                    )
                },
            ) {
                Ok(t) => {
                    frontier_bytes = fs::metadata(&tier_path).map(|m| m.len()).unwrap_or(0);
                    Some(Arc::new(t))
                }
                Err(e) => {
                    warnings.push(OpenWarning::DegradedOpen {
                        component: "frontier tier".to_string(),
                        detail: e.to_string(),
                    });
                    None
                }
            }
        } else {
            None
        };

        Ok(PartitionedSilcIndex {
            network,
            partition,
            shards,
            shard_bytes,
            tier,
            frontier_bytes,
            timings: None,
            warnings,
        })
    }

    /// The global network.
    pub fn network(&self) -> &Arc<SpatialNetwork> {
        &self.network
    }

    /// The partition (shard assignment, id maps, cut edges).
    pub fn partition(&self) -> &NetworkPartition {
        &self.partition
    }

    /// The partition, shareable.
    pub fn partition_arc(&self) -> &Arc<NetworkPartition> {
        &self.partition
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The disk index of shard `s`, over the shard's local vertex ids.
    pub fn shard_index(&self, s: usize) -> &Arc<DiskSilcIndex> {
        &self.shards[s]
    }

    /// On-disk bytes of each shard's index file.
    pub fn shard_bytes(&self) -> &[u64] {
        &self.shard_bytes
    }

    /// Total on-disk bytes across all shard files (tier excluded; see
    /// [`Self::frontier_bytes`]).
    pub fn total_bytes(&self) -> u64 {
        self.shard_bytes.iter().sum()
    }

    /// The frontier-distance tier, when the directory has a valid one.
    /// `None` means the router must fall back to interval-based
    /// cross-shard answers.
    pub fn frontier_tier(&self) -> Option<&Arc<FrontierTier>> {
        self.tier.as_ref()
    }

    /// On-disk bytes of the frontier-tier file (`0` when absent).
    pub fn frontier_bytes(&self) -> u64 {
        self.frontier_bytes
    }

    /// Build-phase wall-clock split; `None` on a re-opened directory.
    pub fn build_timings(&self) -> Option<BuildTimings> {
        self.timings
    }

    /// Non-fatal degradations recorded while opening the directory —
    /// components that existed but failed validation and were dropped
    /// (e.g. [`OpenWarning::DegradedOpen`] for a corrupt frontier tier).
    /// Empty on a clean open and on a fresh build. A serving front-end
    /// should surface these (e.g. in a status frame): they explain why
    /// cross-shard answers stop certifying `complete` without any
    /// per-query error ever firing.
    pub fn open_warnings(&self) -> &[OpenWarning] {
        &self.warnings
    }

    /// Page-pool I/O counters summed over all shards and the frontier tier.
    pub fn io_stats(&self) -> silc_storage::IoStats {
        let mut total = silc_storage::IoStats::default();
        let tier_stats = self.tier.as_ref().map(|t| t.io_stats());
        for s in self.shards.iter().map(|shard| shard.io_stats()).chain(tier_stats) {
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.bytes_read += s.bytes_read;
            total.read_nanos += s.read_nanos;
            total.retries += s.retries;
            total.faults_seen += s.faults_seen;
            total.prefetched += s.prefetched;
            total.prefetch_hits += s.prefetch_hits;
        }
        total
    }

    /// Zeroes the I/O counters of every shard and the frontier tier.
    pub fn reset_io_stats(&self) {
        for shard in &self.shards {
            shard.reset_io_stats();
        }
        if let Some(t) = &self.tier {
            t.reset_io_stats();
        }
    }

    /// Drops every shard's cached pages and the tier's cached rows (cold
    /// start).
    pub fn clear_caches(&self) {
        for shard in &self.shards {
            shard.clear_cache();
        }
        if let Some(t) = &self.tier {
            t.clear_cache();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::browser::DistanceBrowser;
    use silc_network::generate::{road_network, RoadConfig};
    use silc_network::{dijkstra, VertexId};

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("silc-partitioned-tests").join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn small_cfg(shards: usize) -> PartitionedBuildConfig {
        PartitionedBuildConfig {
            partition: PartitionConfig { shards, ..Default::default() },
            grid_exponent: 9,
            threads: 1,
            cache_fraction: 0.5,
        }
    }

    #[test]
    fn build_open_and_within_shard_distances_are_exact() {
        let g =
            Arc::new(road_network(&RoadConfig { vertices: 220, seed: 61, ..Default::default() }));
        let dir = tmp_dir("roundtrip");
        let cfg = small_cfg(4);
        let idx = PartitionedSilcIndex::build_in_dir(Arc::clone(&g), &dir, &cfg).unwrap();
        assert_eq!(idx.shard_count(), 4);
        assert_eq!(idx.shard_bytes().len(), 4);
        assert!(idx.total_bytes() > 0);
        assert!(idx.shard_bytes().iter().all(|&b| b > 0 && b % 4096 == 0));
        assert!(idx.frontier_tier().is_some(), "a fresh build carries the frontier tier");
        assert!(idx.frontier_bytes() > 0 && idx.frontier_bytes() % 4096 == 0);
        let t = idx.build_timings().expect("fresh builds record timings");
        assert!(t.shards_s >= 0.0 && t.frontier_s >= 0.0);

        // Shard-local intervals must contain the shard-local true distance
        // (which upper-bounds nothing global — it is the induced-subgraph
        // distance, ≥ the global one).
        let p = idx.partition();
        for (s, shard) in p.shards().iter().enumerate().take(2) {
            let disk = idx.shard_index(s);
            let local_g = shard.network();
            let u = VertexId(0);
            for v in local_g.vertices().take(12) {
                let d = dijkstra::distance(local_g, u, v).expect("shard is strongly connected");
                let iv = disk.interval(u, v);
                assert!(
                    iv.lo <= d + 1e-9 && d <= iv.hi + 1e-9,
                    "shard {s}: interval [{}, {}] must contain local distance {d}",
                    iv.lo,
                    iv.hi,
                );
                let dg = dijkstra::distance(&g, shard.to_global(u.0), shard.to_global(v.0))
                    .expect("global network is strongly connected");
                assert!(dg <= d + 1e-9, "global distance can only be shorter");
            }
        }

        // Re-open from disk: same shard count and bytes.
        let reopened = PartitionedSilcIndex::open_dir(Arc::clone(&g), &dir, &cfg).unwrap();
        assert_eq!(reopened.shard_count(), idx.shard_count());
        assert_eq!(reopened.shard_bytes(), idx.shard_bytes());
        assert!(reopened.frontier_tier().is_some(), "re-open finds the tier file");
        assert_eq!(reopened.frontier_bytes(), idx.frontier_bytes());
        assert!(reopened.build_timings().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_or_invalid_tier_degrades_open_to_no_tier() {
        let g =
            Arc::new(road_network(&RoadConfig { vertices: 140, seed: 17, ..Default::default() }));
        let dir = tmp_dir("tierless");
        let cfg = small_cfg(3);
        let built = PartitionedSilcIndex::build_in_dir(Arc::clone(&g), &dir, &cfg).unwrap();
        assert!(built.open_warnings().is_empty(), "a fresh build must not warn");
        drop(built);

        // Deleted tier file: the directory still opens, tier-free, and the
        // absence is *not* a degradation — the tier never existed.
        let tier_path = dir.join(crate::frontier::FILE_NAME);
        std::fs::remove_file(&tier_path).unwrap();
        let opened = PartitionedSilcIndex::open_dir(Arc::clone(&g), &dir, &cfg).unwrap();
        assert!(opened.frontier_tier().is_none());
        assert_eq!(opened.frontier_bytes(), 0);
        assert!(opened.open_warnings().is_empty(), "missing tier is not a degraded open");

        // Garbage tier file: validation fails, open degrades the same way —
        // but now the drop is recorded as a DegradedOpen warning.
        std::fs::write(&tier_path, vec![0u8; 8192]).unwrap();
        let opened = PartitionedSilcIndex::open_dir(Arc::clone(&g), &dir, &cfg).unwrap();
        assert!(opened.frontier_tier().is_none());
        assert_eq!(opened.open_warnings().len(), 1);
        match &opened.open_warnings()[0] {
            OpenWarning::DegradedOpen { component, detail } => {
                assert_eq!(component, "frontier tier");
                assert!(!detail.is_empty());
            }
        }
        let text = opened.open_warnings()[0].to_string();
        assert!(text.contains("degraded open"), "display form: {text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn io_stats_aggregate_and_reset() {
        let g =
            Arc::new(road_network(&RoadConfig { vertices: 120, seed: 9, ..Default::default() }));
        let dir = tmp_dir("stats");
        let idx = PartitionedSilcIndex::build_in_dir(Arc::clone(&g), &dir, &small_cfg(3)).unwrap();
        idx.clear_caches();
        idx.reset_io_stats();
        let s0 = idx.shard_index(0);
        let _ = s0.interval(VertexId(0), VertexId(1));
        assert!(idx.io_stats().requests() > 0, "a cold interval lookup must touch pages");
        idx.reset_io_stats();
        assert_eq!(idx.io_stats(), silc_storage::IoStats::default());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_dir_with_missing_shard_fails() {
        let g =
            Arc::new(road_network(&RoadConfig { vertices: 100, seed: 4, ..Default::default() }));
        let dir = tmp_dir("missing");
        let cfg = small_cfg(2);
        let _ = PartitionedSilcIndex::build_in_dir(Arc::clone(&g), &dir, &cfg).unwrap();
        std::fs::remove_file(dir.join(shard_file(1))).unwrap();
        match PartitionedSilcIndex::open_dir(g, &dir, &cfg) {
            Err(PartitionedBuildError::Shard { shard: 1, .. }) => {}
            other => panic!("expected Shard error, got {:?}", other.err().map(|e| e.to_string())),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_network_is_rejected() {
        let g = Arc::new(silc_network::NetworkBuilder::new().build());
        let dir = tmp_dir("empty");
        assert!(matches!(
            PartitionedSilcIndex::build_in_dir(g, &dir, &small_cfg(2)),
            Err(PartitionedBuildError::Partition(PartitionError::Empty))
        ));
    }
}
