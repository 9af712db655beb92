//! Set-up shared by the workloads: scratch space inside the checkout, and
//! the monolithic disk index `local_warm`, `local_cold` and `served_warm`
//! all query.

use crate::config::{Scale, GRID_EXPONENT};
use crate::inputs;
use crate::report::Metrics;
use crate::trace::{TracedStore, Tracer};
use silc::disk::write_index;
use silc::{BuildConfig, DiskSilcIndex, SilcIndex};
use silc_network::SpatialNetwork;
use silc_query::ObjectSet;
use silc_storage::FilePageStore;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Where traces and scratch files go: `out/` beside the build profile
/// directory the binary runs from (`benchmark/target/out/` by default,
/// `$CARGO_TARGET_DIR/out/` otherwise) — always inside the checkout, never
/// the system temp directory.
pub fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let profile_dir = exe.parent().expect("binary sits in a directory");
    let dir = profile_dir.parent().unwrap_or(profile_dir).join("out");
    std::fs::create_dir_all(&dir).expect("create the benchmark output directory");
    dir
}

/// A scratch directory removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(label: &str) -> WorkDir {
        let dir = out_dir().join(format!("work-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        WorkDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The two cache sizes that are the only difference between `local_warm`
/// and `local_cold`.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    pub pool_fraction: f64,
    pub entry_cache: usize,
}

/// Where set-up time went, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct MonoTimings {
    pub generate_s: f64,
    pub build_s: f64,
    pub write_s: f64,
    pub open_s: f64,
}

/// A built, written and opened monolithic index with its inputs.
pub struct Mono {
    pub network: Arc<SpatialNetwork>,
    pub objects: Arc<ObjectSet>,
    pub disk: Arc<DiskSilcIndex>,
    pub path: PathBuf,
    pub index_bytes: u64,
    pub timings: MonoTimings,
}

impl Mono {
    /// Generate → build → crash-safe write → open: everything that happens
    /// before the first query.
    pub fn setup(scale: &Scale, dir: &Path, caches: CacheConfig) -> Mono {
        let n = scale.n_mono;
        let t = Instant::now();
        let network = Arc::new(inputs::frozen_network(n, scale.fingerprint_mono));
        let objects = Arc::new(inputs::frozen_objects(&network));
        let generate_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let index = SilcIndex::build(
            network.clone(),
            &BuildConfig { grid_exponent: GRID_EXPONENT, threads: 0 },
        )
        .expect("generated road networks satisfy the index preconditions");
        let build_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let path = dir.join("mono.idx");
        write_index(&index, &path).expect("write the index file");
        drop(index);
        let write_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let disk = Arc::new(
            DiskSilcIndex::open_with_entry_cache(
                &path,
                network.clone(),
                caches.pool_fraction,
                caches.entry_cache,
            )
            .expect("open the index file"),
        );
        let open_s = t.elapsed().as_secs_f64();
        let index_bytes = std::fs::metadata(&path).expect("index file metadata").len();
        Mono {
            network,
            objects,
            disk,
            path,
            index_bytes,
            timings: MonoTimings { generate_s, build_s, write_s, open_s },
        }
    }

    /// Where this set-up's time and bytes went, as per-layer metrics.
    pub fn report_setup(&self, metrics: &mut Metrics) {
        metrics.set("network.generate_s", self.timings.generate_s);
        metrics.set("core.build_s", self.timings.build_s);
        metrics.set("core.write_s", self.timings.write_s);
        metrics.set("core.open_s", self.timings.open_s);
        metrics.set(
            "core.index_bytes_per_vertex",
            self.index_bytes as f64 / self.network.vertex_count() as f64,
        );
    }

    /// A second handle on the same file whose physical reads go through a
    /// [`TracedStore`].
    pub fn open_traced(&self, caches: CacheConfig, tracer: &Arc<Tracer>) -> Arc<DiskSilcIndex> {
        let store = FilePageStore::open(&self.path).expect("reopen the index file");
        Arc::new(
            DiskSilcIndex::from_store(
                Box::new(TracedStore::new(store, tracer.clone())),
                self.network.clone(),
                caches.pool_fraction,
                caches.entry_cache,
            )
            .expect("open the index through the traced store"),
        )
    }
}
