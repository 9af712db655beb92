//! The concurrent query-serving layer: [`QueryEngine`] and [`QuerySession`].
//!
//! The paper's query algorithms are cheap per call precisely so a server
//! can answer many of them (§6: disk-resident queries are I/O-bound through
//! a shared page cache). This module is the serving architecture around
//! them:
//!
//! * a [`QueryEngine`] pairs a shared, immutable index (anything
//!   implementing `DistanceBrowser` — in-memory or disk-resident) with a
//!   shared object set. It is `Send + Sync` and cheap to clone (two `Arc`
//!   bumps), so one engine serves any number of threads;
//! * a [`QuerySession`] is the per-thread handle: it owns the reusable
//!   workspaces (priority queue, per-object state table, candidate list,
//!   Dijkstra arrays, result buffers) that every algorithm runs through, so
//!   in steady state a query performs **zero hot-path heap allocations** —
//!   the second identical query through a session allocates nothing at all
//!   (locked by the `session_alloc` integration test).
//!
//! Results come back as `&KnnResult` borrowed from the session (the buffers
//! are reused by the next call); clone if you need to keep one. Every
//! session method is bit-identical to the corresponding free function —
//! both run the same `*_into` core.

use crate::approx::{approx_knn_into, try_approx_knn_into, ApproxDistanceOracle, ApproxScratch};
use crate::baselines::{ier_into, ine_into, BaselineScratch};
use crate::baselines_disk::{ier_disk_into, ine_disk_into};
use crate::knn::{inn_into, knn_into, try_inn_into, try_knn_into, KnnScratch, KnnVariant};
use crate::objects::ObjectSet;
use crate::result::KnnResult;
use silc::{DistanceBrowser, QueryError};
use silc_network::paged::PagedNetwork;
use silc_network::VertexId;
use std::sync::Arc;

/// A shared, thread-safe pairing of an index and an object set.
///
/// The engine holds no mutable state: it exists so that "the thing a server
/// shares between worker threads" is one value with one type, and so that
/// spawning a worker is `engine.session()` instead of threading two `Arc`s
/// and four workspace buffers by hand.
pub struct QueryEngine<B: DistanceBrowser + ?Sized> {
    browser: Arc<B>,
    objects: Arc<ObjectSet>,
}

/// Engines must stay shareable across query threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryEngine<silc::SilcIndex>>();
    assert_send_sync::<QueryEngine<silc::DiskSilcIndex>>();
};

impl<B: DistanceBrowser + ?Sized> Clone for QueryEngine<B> {
    fn clone(&self) -> Self {
        QueryEngine { browser: Arc::clone(&self.browser), objects: Arc::clone(&self.objects) }
    }
}

impl<B: DistanceBrowser + ?Sized> QueryEngine<B> {
    /// Pairs a shared index with a shared object set.
    pub fn new(browser: Arc<B>, objects: Arc<ObjectSet>) -> Self {
        QueryEngine { browser, objects }
    }

    /// The shared index.
    pub fn browser(&self) -> &Arc<B> {
        &self.browser
    }

    /// The shared object set.
    pub fn objects(&self) -> &Arc<ObjectSet> {
        &self.objects
    }

    /// Opens a session: the per-thread handle owning the reusable query
    /// workspaces. Cheap (empty buffers grow on first use); create one per
    /// worker thread and keep it for the thread's lifetime.
    pub fn session(&self) -> QuerySession<B> {
        QuerySession {
            browser: Arc::clone(&self.browser),
            objects: Arc::clone(&self.objects),
            knn: KnnScratch::new(),
            baseline: BaselineScratch::new(),
            approx: ApproxScratch::new(),
        }
    }
}

/// A per-thread query handle with reusable workspaces.
///
/// Not `Sync` by design — a session belongs to one worker. All algorithms
/// of the crate run through it; each returns a result borrowed from the
/// session's buffers.
pub struct QuerySession<B: DistanceBrowser + ?Sized> {
    browser: Arc<B>,
    objects: Arc<ObjectSet>,
    knn: KnnScratch,
    baseline: BaselineScratch,
    approx: ApproxScratch,
}

impl<B: DistanceBrowser + ?Sized> QuerySession<B> {
    /// The shared index.
    pub fn browser(&self) -> &B {
        &self.browser
    }

    /// The shared object set.
    pub fn objects(&self) -> &ObjectSet {
        &self.objects
    }

    /// The non-incremental kNN algorithm ([`crate::knn()`]) and its kNN-I /
    /// kNN-M variants, through the session workspaces.
    pub fn knn(&mut self, query: VertexId, k: usize, variant: KnnVariant) -> &KnnResult {
        knn_into(&*self.browser, &self.objects, query, k, variant, &mut self.knn);
        self.knn.result()
    }

    /// Fallible flavor of [`Self::knn`] for disk-resident indexes: page
    /// I/O failures and checksum mismatches come back as a typed
    /// [`QueryError`] instead of a panic. On `Ok` the answer is
    /// bit-identical to [`Self::knn`]'s (both run the same core); on `Err`
    /// the session stays usable but holds no meaningful result.
    pub fn try_knn(
        &mut self,
        query: VertexId,
        k: usize,
        variant: KnnVariant,
    ) -> Result<&KnnResult, QueryError> {
        try_knn_into(&*self.browser, &self.objects, query, k, variant, &mut self.knn)?;
        Ok(self.knn.result())
    }

    /// The incremental algorithm INN ([`crate::inn`]), through the session
    /// workspaces.
    pub fn inn(&mut self, query: VertexId, k: usize) -> &KnnResult {
        inn_into(&*self.browser, &self.objects, query, k, &mut self.knn);
        self.knn.result()
    }

    /// Fallible flavor of [`Self::inn`]; see [`Self::try_knn`] for the
    /// error contract.
    pub fn try_inn(&mut self, query: VertexId, k: usize) -> Result<&KnnResult, QueryError> {
        try_inn_into(&*self.browser, &self.objects, query, k, &mut self.knn)?;
        Ok(self.knn.result())
    }

    /// The INE competitor ([`crate::ine`]) over the engine's in-memory
    /// network, through the session workspaces.
    pub fn ine(&mut self, query: VertexId, k: usize) -> &KnnResult {
        ine_into(self.browser.network(), &self.objects, query, k, &mut self.baseline);
        self.baseline.result()
    }

    /// The IER competitor ([`crate::ier`]) over the engine's in-memory
    /// network, through the session workspaces.
    pub fn ier(&mut self, query: VertexId, k: usize) -> &KnnResult {
        ier_into(self.browser.network(), &self.objects, query, k, &mut self.baseline);
        self.baseline.result()
    }

    /// Disk-resident INE ([`crate::ine_disk`]) against a paged network,
    /// through the session workspaces.
    pub fn ine_disk(&mut self, paged: &PagedNetwork, query: VertexId, k: usize) -> &KnnResult {
        ine_disk_into(paged, &self.objects, query, k, &mut self.baseline);
        self.baseline.result()
    }

    /// Disk-resident IER ([`crate::ier_disk`]) against a paged network,
    /// through the session workspaces.
    pub fn ier_disk(
        &mut self,
        paged: &PagedNetwork,
        query: VertexId,
        k: usize,
        min_ratio: f64,
    ) -> &KnnResult {
        ier_disk_into(paged, &self.objects, query, k, min_ratio, &mut self.baseline);
        self.baseline.result()
    }

    /// ε-approximate kNN ([`crate::approx_knn`]) over any
    /// [`ApproxDistanceOracle`] — one oracle probe per Euclidean candidate
    /// instead of a shortest-path computation — through the session
    /// workspaces. The oracle is passed per call (it is an index in its own
    /// right, shared like the browser), so one session can serve both exact
    /// and approximate traffic.
    pub fn approx_knn<O: ApproxDistanceOracle + ?Sized>(
        &mut self,
        oracle: &O,
        query: VertexId,
        k: usize,
    ) -> &KnnResult {
        approx_knn_into(oracle, self.browser.network(), &self.objects, query, k, &mut self.approx);
        self.approx.result()
    }

    /// Fallible flavor of [`Self::approx_knn`]: disk-oracle probe failures
    /// come back as a typed [`QueryError`]; see [`Self::try_knn`] for the
    /// contract.
    pub fn try_approx_knn<O: ApproxDistanceOracle + ?Sized>(
        &mut self,
        oracle: &O,
        query: VertexId,
        k: usize,
    ) -> Result<&KnnResult, QueryError> {
        try_approx_knn_into(
            oracle,
            self.browser.network(),
            &self.objects,
            query,
            k,
            &mut self.approx,
        )?;
        Ok(self.approx.result())
    }

    /// The result of the most recent SILC-algorithm query (`knn`/`inn`).
    pub fn last_knn_result(&self) -> &KnnResult {
        self.knn.result()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ier, ier_disk, ine, ine_disk, inn, knn};
    use silc::{BuildConfig, SilcIndex};
    use silc_network::generate::{road_network, RoadConfig};
    use silc_network::paged::write_paged;

    fn fixture() -> (Arc<SilcIndex>, Arc<ObjectSet>) {
        let g =
            Arc::new(road_network(&RoadConfig { vertices: 180, seed: 909, ..Default::default() }));
        let idx = Arc::new(
            SilcIndex::build(g.clone(), &BuildConfig { grid_exponent: 9, threads: 0 }).unwrap(),
        );
        let objects = Arc::new(ObjectSet::random(&g, 0.12, 31));
        (idx, objects)
    }

    /// Bit-level equality: same objects, same vertices, same interval bits.
    fn assert_bit_identical(a: &KnnResult, b: &KnnResult, what: &str) {
        assert_eq!(a.neighbors.len(), b.neighbors.len(), "{what}: neighbor count");
        for (x, y) in a.neighbors.iter().zip(&b.neighbors) {
            assert_eq!(x.object, y.object, "{what}: object");
            assert_eq!(x.vertex, y.vertex, "{what}: vertex");
            assert_eq!(
                x.interval.lo.to_bits(),
                y.interval.lo.to_bits(),
                "{what}: interval lower bound bits"
            );
            assert_eq!(
                x.interval.hi.to_bits(),
                y.interval.hi.to_bits(),
                "{what}: interval upper bound bits"
            );
        }
    }

    #[test]
    fn session_results_are_bit_identical_to_one_shot_wrappers() {
        let (idx, objects) = fixture();
        let engine = QueryEngine::new(idx.clone(), objects.clone());
        let mut session = engine.session();
        let g = idx.network();
        for &q in &[0u32, 45, 90, 179] {
            let q = VertexId(q);
            for k in [1usize, 5, 12] {
                for variant in [KnnVariant::Basic, KnnVariant::EarlyEstimate, KnnVariant::MinDist] {
                    let one_shot = knn(&*idx, &objects, q, k, variant);
                    assert_bit_identical(
                        session.knn(q, k, variant),
                        &one_shot,
                        &format!("knn {variant:?} q={q} k={k}"),
                    );
                }
                assert_bit_identical(
                    session.inn(q, k),
                    &inn(&*idx, &objects, q, k),
                    &format!("inn q={q} k={k}"),
                );
                assert_bit_identical(
                    session.ine(q, k),
                    &ine(g, &objects, q, k),
                    &format!("ine q={q} k={k}"),
                );
                assert_bit_identical(
                    session.ier(q, k),
                    &ier(g, &objects, q, k),
                    &format!("ier q={q} k={k}"),
                );
            }
        }
    }

    #[test]
    fn session_disk_baselines_match_one_shot() {
        let (idx, objects) = fixture();
        let g = idx.network();
        let dir = std::env::temp_dir().join("silc-session-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.pnet");
        write_paged(g, &path).unwrap();
        let paged = PagedNetwork::open(&path, 0.25).unwrap();
        let ratio = g.min_weight_ratio();
        let engine = QueryEngine::new(idx.clone(), objects.clone());
        let mut session = engine.session();
        for &q in &[3u32, 120] {
            let q = VertexId(q);
            assert_bit_identical(
                session.ine_disk(&paged, q, 6),
                &ine_disk(&paged, &objects, q, 6),
                "ine_disk",
            );
            assert_bit_identical(
                session.ier_disk(&paged, q, 6, ratio),
                &ier_disk(&paged, &objects, q, 6, ratio),
                "ier_disk",
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn session_approx_knn_is_bit_identical_to_one_shot() {
        let (idx, objects) = fixture();
        let g = idx.network();
        let oracle = silc_pcp::DistanceOracle::build(g, 9, 8.0);
        let engine = QueryEngine::new(idx.clone(), objects.clone());
        let mut session = engine.session();
        for &q in &[0u32, 60, 150] {
            let q = VertexId(q);
            for k in [1usize, 5, 11] {
                let one_shot = crate::approx_knn(&oracle, g, &objects, q, k);
                assert_bit_identical(
                    session.approx_knn(&oracle, q, k),
                    &one_shot,
                    &format!("approx_knn q={q} k={k}"),
                );
            }
        }
    }

    #[test]
    fn fallible_session_methods_are_bit_identical_to_infallible() {
        // try_knn/try_inn/try_approx_knn run the same cores as their
        // panicking twins; on a healthy index every Ok answer must match
        // bit for bit.
        let (idx, objects) = fixture();
        let oracle = silc_pcp::DistanceOracle::build(idx.network(), 9, 8.0);
        let engine = QueryEngine::new(idx.clone(), objects.clone());
        let mut session = engine.session();
        let mut fallible = engine.session();
        for &q in &[0u32, 77, 179] {
            let q = VertexId(q);
            for k in [1usize, 6] {
                let a = session.knn(q, k, KnnVariant::MinDist).clone();
                assert_bit_identical(
                    fallible.try_knn(q, k, KnnVariant::MinDist).unwrap(),
                    &a,
                    "try_knn",
                );
                let a = session.inn(q, k).clone();
                assert_bit_identical(fallible.try_inn(q, k).unwrap(), &a, "try_inn");
                let a = session.approx_knn(&oracle, q, k).clone();
                assert_bit_identical(
                    fallible.try_approx_knn(&oracle, q, k).unwrap(),
                    &a,
                    "try_approx_knn",
                );
            }
        }
    }

    #[test]
    fn session_stats_match_one_shot() {
        // Workspace reuse must not change any reported counter: the figures
        // drawn from QueryStats may not depend on which path ran the query.
        let (idx, objects) = fixture();
        let engine = QueryEngine::new(idx.clone(), objects.clone());
        let mut session = engine.session();
        for &q in &[7u32, 66] {
            let q = VertexId(q);
            let s = session.knn(q, 8, KnnVariant::MinDist).stats;
            let o = knn(&*idx, &objects, q, 8, KnnVariant::MinDist).stats;
            assert_eq!(s.refinements, o.refinements);
            assert_eq!(s.max_queue, o.max_queue);
            assert_eq!(s.queue_pushes, o.queue_pushes);
            assert_eq!(s.kmindist_pruned, o.kmindist_pruned);
            assert_eq!(s.d0k.map(f64::to_bits), o.d0k.map(f64::to_bits));
        }
    }

    #[test]
    fn interleaved_queries_do_not_contaminate_each_other() {
        // Alternate algorithms, k, and query vertices through ONE session;
        // every answer must equal its fresh-workspace twin.
        let (idx, objects) = fixture();
        let engine = QueryEngine::new(idx.clone(), objects.clone());
        let mut session = engine.session();
        let qs = [0u32, 150, 23, 88, 42];
        for (i, &q) in qs.iter().enumerate() {
            let q = VertexId(q);
            let k = 1 + (i * 3) % 9;
            match i % 3 {
                0 => assert_bit_identical(
                    session.knn(q, k, KnnVariant::Basic),
                    &knn(&*idx, &objects, q, k, KnnVariant::Basic),
                    "interleaved knn",
                ),
                1 => assert_bit_identical(
                    session.inn(q, k),
                    &inn(&*idx, &objects, q, k),
                    "interleaved inn",
                ),
                _ => assert_bit_identical(
                    session.ine(q, k),
                    &ine(idx.network(), &objects, q, k),
                    "interleaved ine",
                ),
            }
        }
    }

    #[test]
    fn engine_is_cloneable_and_shareable() {
        let (idx, objects) = fixture();
        let engine = QueryEngine::new(idx, objects);
        let clone = engine.clone();
        assert!(Arc::ptr_eq(engine.browser(), clone.browser()));
        assert!(Arc::ptr_eq(engine.objects(), clone.objects()));
        let handles: Vec<_> = (0..3u32)
            .map(|t| {
                let engine = engine.clone();
                std::thread::spawn(move || {
                    let mut s = engine.session();
                    s.knn(VertexId(t * 17), 4, KnnVariant::Basic).neighbors.len()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 4);
        }
    }
}
