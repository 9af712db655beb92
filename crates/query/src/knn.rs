//! The paper's k-nearest-neighbor algorithms over a SILC index.
//!
//! All of them are best-first searches over a priority queue `Q` holding
//! quadtree blocks of the *object* index and individual objects, keyed by
//! the lower bound `δ−` of their network-distance interval from the query.
//! They differ in the bookkeeping around `Q`:
//!
//! * [`inn`] — incremental: pop, expand blocks, refine objects until the
//!   top object cannot collide with anything behind it, report, repeat.
//! * [`knn`] with [`KnnVariant::Basic`] — non-incremental: additionally
//!   keeps the candidate list `L` (best k by `δ+`) whose kth upper bound
//!   `Dk` prunes both queue insertions and termination (paper p.22–23).
//! * [`KnnVariant::EarlyEstimate`] (kNN-I) — also freezes the first full
//!   `L` into the estimate `D⁰k` and refuses to enqueue anything beyond it.
//! * [`KnnVariant::MinDist`] (kNN-M) — also confirms objects whose `δ+`
//!   falls below `KMINDIST`, the minimum possible kth-neighbor distance,
//!   skipping the refinements a total ordering would need; output is
//!   unsorted.
//!
//! Every algorithm runs over a [`KnnScratch`] — the heap, object-state
//! table, candidate list and result buffers a [`crate::QuerySession`] reuses
//! across queries so that the steady-state hot path allocates nothing. The
//! free functions here are one-shot wrappers that build a fresh scratch per
//! call.
//!
//! The loop reads no clock and hashes nothing: object states sit in a
//! table indexed by [`ObjectId`], and the cost of maintaining `L` is the
//! exact count [`QueryStats::candidate_ops`].

use crate::candidates::CandidateList;
use crate::objects::{ObjectId, ObjectSet};
use crate::result::{KnnResult, Neighbor, QueryStats};
use silc::refine::RefinableDistance;
use silc::{DistanceBrowser, QueryError};
use silc_network::VertexId;
use silc_quadtree::{NodeId, NodeView};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Which refinement-avoidance machinery the [`knn`] engine runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnnVariant {
    /// The plain non-incremental kNN algorithm (queues `Q` and `L`, `Dk`).
    Basic,
    /// kNN-I: prune queue insertions against the early estimate `D⁰k`.
    EarlyEstimate,
    /// kNN-M: confirm against `KMINDIST`; result order is not sorted.
    MinDist,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Block(NodeId),
    Object(ObjectId, u32),
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct QEntry {
    key: f64,
    seq: u64,
    kind: Kind,
}

impl Eq for QEntry {}

impl Ord for QEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by key; deterministic ties by insertion sequence.
        other.key.total_cmp(&self.key).then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for QEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

struct ObjState {
    refiner: RefinableDistance,
    version: u32,
    confirmed: bool,
}

/// The per-object refinement states of one query: a slot per
/// [`ObjectId`] plus the list of slots the query touched, so clearing and
/// scanning cost the touched objects, not the whole set.
#[derive(Default)]
struct StateTable {
    slots: Vec<Option<ObjState>>,
    touched: Vec<ObjectId>,
}

impl StateTable {
    /// Empties the touched slots and sizes the table for `objects` slots.
    /// Grows only when a larger object set than any before comes along.
    fn begin(&mut self, objects: usize) {
        for o in self.touched.drain(..) {
            self.slots[o.index()] = None;
        }
        if self.slots.len() < objects {
            self.slots.resize_with(objects, || None);
        }
        self.touched.reserve(objects);
    }

    /// The state of an object the query has touched.
    #[inline]
    fn state(&self, o: ObjectId) -> &ObjState {
        self.slots[o.index()].as_ref().expect("object state was never created")
    }

    #[inline]
    fn state_mut(&mut self, o: ObjectId) -> &mut ObjState {
        self.slots[o.index()].as_mut().expect("object state was never created")
    }

    #[inline]
    fn is_confirmed(&self, o: ObjectId) -> bool {
        self.slots[o.index()].as_ref().is_some_and(|s| s.confirmed)
    }

    /// Lower bounds `δ−` of every object the query has touched.
    fn lows(&self) -> impl Iterator<Item = f64> + '_ {
        self.touched.iter().map(|&o| self.state(o).refiner.interval().lo)
    }
}

/// The reusable workspaces of the SILC query algorithms: the priority queue
/// `Q`, the per-object refinement states, the candidate list `L`, and the
/// result buffers. Create once (per session / thread), run any number of
/// [`knn`]/[`inn`] queries through it — after the structures have grown to a
/// workload's steady-state size, further queries allocate nothing. The
/// state table is sized by the largest object set seen, so a scratch shared
/// across object sets (the router's shards) grows once per new maximum.
pub struct KnnScratch {
    heap: BinaryHeap<QEntry>,
    states: StateTable,
    candidates: CandidateList,
    /// `δ−` sample buffer for the `KMINDIST` computation of kNN-M.
    lows: Vec<f64>,
    /// `(exact distance, object)` buffer for the terminal fill-from-`L`.
    leftovers: Vec<(f64, ObjectId)>,
    result: KnnResult,
}

impl Default for KnnScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl KnnScratch {
    /// Empty workspaces; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        KnnScratch {
            heap: BinaryHeap::new(),
            states: StateTable::default(),
            candidates: CandidateList::new(1),
            lows: Vec::new(),
            leftovers: Vec::new(),
            result: KnnResult::default(),
        }
    }

    /// The result of the most recent query run through this scratch.
    pub fn result(&self) -> &KnnResult {
        &self.result
    }

    /// Consumes the scratch, yielding the last result — the one-shot path.
    pub fn into_result(self) -> KnnResult {
        self.result
    }

    /// Clears per-query state (allocations are retained).
    fn begin(&mut self, k: usize, objects: &ObjectSet) {
        self.heap.clear();
        self.states.begin(objects.len());
        self.candidates.reset(k);
        self.lows.clear();
        self.lows.reserve(objects.len());
        self.leftovers.clear();
        self.result.neighbors.clear();
        self.result.stats = QueryStats::default();
    }
}

/// The shared engine state: borrowed scratch structures plus per-query
/// bookkeeping.
struct Engine<'a, B: DistanceBrowser + ?Sized> {
    browser: &'a B,
    objects: &'a ObjectSet,
    query: VertexId,
    heap: &'a mut BinaryHeap<QEntry>,
    states: &'a mut StateTable,
    seq: u64,
    stats: QueryStats,
}

impl<'a, B: DistanceBrowser + ?Sized> Engine<'a, B> {
    fn new(
        browser: &'a B,
        objects: &'a ObjectSet,
        query: VertexId,
        heap: &'a mut BinaryHeap<QEntry>,
        states: &'a mut StateTable,
    ) -> Result<Self, QueryError> {
        let mut e =
            Engine { browser, objects, query, heap, states, seq: 0, stats: QueryStats::default() };
        if !objects.is_empty() {
            let root = objects.quadtree().root();
            let key = e.block_key(root)?;
            e.push(key, Kind::Block(root));
        }
        Ok(e)
    }

    fn block_key(&self, node: NodeId) -> Result<f64, QueryError> {
        let rect = self.objects.quadtree().rect(node);
        self.browser.try_region_lower_bound(self.query, &rect)
    }

    fn push(&mut self, key: f64, kind: Kind) {
        self.seq += 1;
        self.heap.push(QEntry { key, seq: self.seq, kind });
        self.stats.queue_pushes += 1;
        self.stats.max_queue = self.stats.max_queue.max(self.heap.len());
    }

    /// Ensures the object has a refiner, creating the zero-hop interval on
    /// first contact. Returns (interval, version).
    fn touch(&mut self, o: ObjectId) -> Result<(silc::DistInterval, u32), QueryError> {
        let slot = &mut self.states.slots[o.index()];
        if let Some(state) = slot {
            return Ok((state.refiner.interval(), state.version));
        }
        let refiner = RefinableDistance::try_new(self.browser, self.query, self.objects.vertex(o))?;
        let interval = refiner.interval();
        *slot = Some(ObjState { refiner, version: 0, confirmed: false });
        self.states.touched.push(o);
        Ok((interval, 0))
    }

    /// One refinement step; no-ops (already exact) are not counted as
    /// refinement operations since they touch no quadtree.
    fn refine(&mut self, o: ObjectId) -> Result<(silc::DistInterval, u32), QueryError> {
        let state = self.states.state_mut(o);
        if state.refiner.try_refine(self.browser)? {
            self.stats.refinements += 1;
        }
        state.version += 1;
        Ok((state.refiner.interval(), state.version))
    }

    /// `KMINDIST`: the minimum possible distance of the kth nearest
    /// neighbor given everything currently known — the kth smallest `δ−`
    /// over all discovered objects, floored by the smallest lower bound of
    /// any block still in the queue (an unexpanded block may hide arbitrarily
    /// many objects at its bound). `lows` is the reusable sample buffer.
    fn kmindist(&self, k: usize, lows: &mut Vec<f64>) -> Option<f64> {
        lows.clear();
        lows.extend(self.states.lows());
        if lows.len() < k {
            return None;
        }
        let (_, kth, _) = lows.select_nth_unstable_by(k - 1, f64::total_cmp);
        let mut bound = *kth;
        for entry in self.heap.iter() {
            if matches!(entry.kind, Kind::Block(_)) {
                bound = bound.min(entry.key);
            }
        }
        Some(bound)
    }
}

/// Infallible [`try_knn_into`] — the panic-at-the-boundary wrapper the
/// in-memory callers use.
///
/// # Panics
/// Panics where [`try_knn_into`] would error (disk failure after retries,
/// checksum mismatch).
pub(crate) fn knn_into<B: DistanceBrowser + ?Sized>(
    browser: &B,
    objects: &ObjectSet,
    query: VertexId,
    k: usize,
    variant: KnnVariant,
    scratch: &mut KnnScratch,
) {
    try_knn_into(browser, objects, query, k, variant, scratch).unwrap_or_else(|e| panic!("{e}"))
}

/// The non-incremental best-first kNN algorithm and its kNN-I / kNN-M
/// variants (paper §6), writing into reusable workspaces.
///
/// The result lands in `scratch.result()`; the free function [`knn`] and
/// [`crate::QuerySession::knn`] are its two callers. On an error the
/// scratch holds a partial (unreported) result and must not be read.
pub(crate) fn try_knn_into<B: DistanceBrowser + ?Sized>(
    browser: &B,
    objects: &ObjectSet,
    query: VertexId,
    k: usize,
    variant: KnnVariant,
    scratch: &mut KnnScratch,
) -> Result<(), QueryError> {
    assert!(k > 0, "k must be positive");
    scratch.begin(k, objects);
    let KnnScratch { heap, states, candidates, lows, leftovers, result } = scratch;
    let mut eng = Engine::new(browser, objects, query, heap, states)?;
    let reported = &mut result.neighbors;
    let mut d0k: Option<f64> = None;
    let use_d0k = matches!(variant, KnnVariant::EarlyEstimate | KnnVariant::MinDist);
    let use_kmindist = matches!(variant, KnnVariant::MinDist);

    // Only a δ− strictly beyond this bound is prunable (paper p.22: prune
    // when MinD > Dk) — at equality the object may still be the tied kth
    // neighbor, and dropping it from Q while it sits in L would let a worse
    // object be confirmed past it.
    let enqueue_bound =
        |cands: &CandidateList, d0k: &Option<f64>| cands.dk().min(d0k.unwrap_or(f64::INFINITY));

    while let Some(QEntry { key, kind, .. }) = eng.heap.pop() {
        // Stale object entries (superseded by a refinement) are skipped.
        if let Kind::Object(o, version) = kind {
            let state = eng.states.state(o);
            if state.confirmed || state.version != version {
                continue;
            }
        }
        // Halt: nothing left can improve on the k candidates.
        if key > candidates.dk() {
            break;
        }
        if reported.len() == k {
            break;
        }
        match kind {
            Kind::Block(node) => match eng.objects.quadtree().node(node) {
                NodeView::Leaf(items) => {
                    for &item in items {
                        let o = ObjectId(*eng.objects.quadtree().payload(item));
                        if eng.states.is_confirmed(o) {
                            continue;
                        }
                        let (iv, version) = eng.touch(o)?;
                        if iv.hi < candidates.dk() {
                            candidates.upsert(o, iv);
                            eng.stats.candidate_ops += 1;
                            if use_d0k && d0k.is_none() && candidates.is_full() {
                                d0k = Some(candidates.dk());
                            }
                        }
                        if iv.lo <= enqueue_bound(candidates, &d0k) {
                            eng.push(iv.lo, Kind::Object(o, version));
                        }
                    }
                }
                NodeView::Internal(children) => {
                    for child in children {
                        let child_key = eng.block_key(child)?;
                        if child_key < enqueue_bound(candidates, &d0k) {
                            eng.push(child_key, Kind::Block(child));
                        }
                    }
                }
            },
            Kind::Object(o, _) => {
                let iv = eng.states.state(o).refiner.interval();
                // kNN-M: confirm without ordering when provably in the top k.
                if use_kmindist && candidates.is_full() {
                    let quick = candidates.kth_lo().is_some_and(|lo| iv.hi <= lo);
                    if quick {
                        if let Some(kmin) = eng.kmindist(k, lows) {
                            eng.stats.kmindist_final = Some(kmin);
                            if iv.hi <= kmin {
                                eng.states.state_mut(o).confirmed = true;
                                eng.stats.kmindist_pruned += 1;
                                candidates.upsert(o, iv);
                                eng.stats.candidate_ops += 1;
                                reported.push(Neighbor {
                                    object: o,
                                    vertex: eng.objects.vertex(o),
                                    interval: iv,
                                });
                                continue;
                            }
                        }
                    }
                }
                // Collision test against the next-best element (paper p.23):
                // the top's interval starts at its key, so the intervals are
                // disjoint exactly when δ+(o) < key(top). An exact distance
                // tied with the top's lower bound also wins — everything
                // else is provably no closer (resolves equal-distance ties
                // that refinement cannot separate).
                let no_collision = match eng.heap.peek() {
                    Some(top) => iv.hi < top.key || (iv.is_exact() && iv.hi <= top.key),
                    None => true,
                };
                if no_collision {
                    eng.states.state_mut(o).confirmed = true;
                    candidates.upsert(o, iv);
                    eng.stats.candidate_ops += 1;
                    reported.push(Neighbor {
                        object: o,
                        vertex: eng.objects.vertex(o),
                        interval: iv,
                    });
                } else {
                    candidates.remove(o);
                    eng.stats.candidate_ops += 1;
                    let (iv, version) = eng.refine(o)?;
                    if iv.hi < candidates.dk() {
                        candidates.upsert(o, iv);
                        eng.stats.candidate_ops += 1;
                    }
                    if iv.lo <= enqueue_bound(candidates, &d0k) {
                        eng.push(iv.lo, Kind::Object(o, version));
                    }
                }
            }
        }
    }

    // Fill any remaining slots from L (the paper's "report L"): refine to
    // exact so the filled tail is correctly ordered.
    if reported.len() < k {
        leftovers.clear();
        for (o, _, _) in candidates.iter() {
            if !eng.states.is_confirmed(o) {
                leftovers.push((0.0, o));
            }
        }
        for slot in leftovers.iter_mut() {
            slot.0 = eng.states.state_mut(slot.1).refiner.try_refine_until_exact(browser)?;
        }
        // Unstable sort: keys are distinct (distance ties broken by the
        // unique object id), and the stable sort would allocate.
        leftovers.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        let need = k - reported.len();
        for &(d, o) in leftovers.iter().take(need) {
            reported.push(Neighbor {
                object: o,
                vertex: eng.objects.vertex(o),
                interval: silc::DistInterval::exact(d),
            });
        }
    }

    // Final statistics. `dk_final` is the tightest *known* upper bound on
    // the kth distance — the exact truth is recomputed by callers that need
    // it (e.g. the estimate-quality figure), outside any timed section.
    if use_kmindist && eng.stats.kmindist_final.is_none() {
        eng.stats.kmindist_final = eng.kmindist(k, lows);
    }
    eng.stats.d0k = d0k;
    eng.stats.dk_final = reported.iter().map(|n| n.interval.hi).fold(0.0, f64::max);
    result.stats = eng.stats;
    Ok(())
}

/// One-shot wrapper around `knn_into` with a fresh [`KnnScratch`].
///
/// Returns up to `k` neighbors: fewer only when the object set is smaller
/// than `k`. Neighbor intervals always contain the true network distance;
/// for [`KnnVariant::MinDist`] the reporting order is not sorted.
///
/// # Panics
/// Panics where [`try_knn`] would error.
pub fn knn<B: DistanceBrowser + ?Sized>(
    browser: &B,
    objects: &ObjectSet,
    query: VertexId,
    k: usize,
    variant: KnnVariant,
) -> KnnResult {
    try_knn(browser, objects, query, k, variant).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`knn`]: a disk fault that survived the pool's retries or a
/// page that failed its checksum surfaces as a [`QueryError`] instead of a
/// panic. Answers on the `Ok` path are identical to [`knn`]'s.
pub fn try_knn<B: DistanceBrowser + ?Sized>(
    browser: &B,
    objects: &ObjectSet,
    query: VertexId,
    k: usize,
    variant: KnnVariant,
) -> Result<KnnResult, QueryError> {
    let mut scratch = KnnScratch::new();
    try_knn_into(browser, objects, query, k, variant, &mut scratch)?;
    Ok(scratch.into_result())
}

/// The incremental algorithm (INN) over reusable workspaces: best-first
/// with collision-driven refinement but no candidate list, no `Dk`, no
/// pruning. The baseline the paper's queue-size and refinement-count
/// figures are normalized against.
///
/// Being *incremental*, INN honors the distance-browsing contract: each
/// reported neighbor carries its **exact** network distance (a consumer may
/// stop at any point and must be able to act on what it has), so every
/// confirmation pays the full refinement to exactness — the refinements the
/// non-incremental kNN avoids by reporting intervals.
pub(crate) fn inn_into<B: DistanceBrowser + ?Sized>(
    browser: &B,
    objects: &ObjectSet,
    query: VertexId,
    k: usize,
    scratch: &mut KnnScratch,
) {
    try_inn_into(browser, objects, query, k, scratch).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`inn_into`]: the single implementation both entry points run.
/// On an error the scratch holds a partial result and must not be read.
pub(crate) fn try_inn_into<B: DistanceBrowser + ?Sized>(
    browser: &B,
    objects: &ObjectSet,
    query: VertexId,
    k: usize,
    scratch: &mut KnnScratch,
) -> Result<(), QueryError> {
    assert!(k > 0, "k must be positive");
    scratch.begin(k, objects);
    let KnnScratch { heap, states, result, .. } = scratch;
    let mut eng = Engine::new(browser, objects, query, heap, states)?;
    let reported = &mut result.neighbors;

    while let Some(QEntry { kind, .. }) = eng.heap.pop() {
        if reported.len() == k {
            break;
        }
        if let Kind::Object(o, version) = kind {
            let state = eng.states.state(o);
            if state.confirmed || state.version != version {
                continue;
            }
        }
        match kind {
            Kind::Block(node) => match eng.objects.quadtree().node(node) {
                NodeView::Leaf(items) => {
                    for &item in items {
                        let o = ObjectId(*eng.objects.quadtree().payload(item));
                        let (iv, version) = eng.touch(o)?;
                        eng.push(iv.lo, Kind::Object(o, version));
                    }
                }
                NodeView::Internal(children) => {
                    for child in children {
                        let key = eng.block_key(child)?;
                        eng.push(key, Kind::Block(child));
                    }
                }
            },
            Kind::Object(o, _) => {
                let iv = eng.states.state(o).refiner.interval();
                let no_collision = match eng.heap.peek() {
                    Some(top) => iv.hi < top.key || (iv.is_exact() && iv.hi <= top.key),
                    None => true,
                };
                if no_collision {
                    // Report with the exact distance (see the doc comment);
                    // each remaining hop is a counted refinement.
                    let state = eng.states.state_mut(o);
                    state.confirmed = true;
                    let before = state.refiner.refinements();
                    let exact = state.refiner.try_refine_until_exact(browser)?;
                    let extra = state.refiner.refinements() - before;
                    eng.stats.refinements += extra;
                    reported.push(Neighbor {
                        object: o,
                        vertex: eng.objects.vertex(o),
                        interval: silc::DistInterval::exact(exact),
                    });
                } else {
                    let (iv, version) = eng.refine(o)?;
                    eng.push(iv.lo, Kind::Object(o, version));
                }
            }
        }
    }

    eng.stats.dk_final = reported.iter().map(|n| n.interval.hi).fold(0.0, f64::max);
    result.stats = eng.stats;
    Ok(())
}

/// One-shot wrapper around `inn_into` with a fresh [`KnnScratch`].
///
/// # Panics
/// Panics where [`try_inn`] would error.
pub fn inn<B: DistanceBrowser + ?Sized>(
    browser: &B,
    objects: &ObjectSet,
    query: VertexId,
    k: usize,
) -> KnnResult {
    try_inn(browser, objects, query, k).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`inn`]: disk faults and checksum failures surface as a
/// [`QueryError`] instead of a panic.
pub fn try_inn<B: DistanceBrowser + ?Sized>(
    browser: &B,
    objects: &ObjectSet,
    query: VertexId,
    k: usize,
) -> Result<KnnResult, QueryError> {
    let mut scratch = KnnScratch::new();
    try_inn_into(browser, objects, query, k, &mut scratch)?;
    Ok(scratch.into_result())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::brute_force_knn;
    use silc::{BuildConfig, SilcIndex};
    use silc_network::generate::{road_network, RoadConfig};
    use std::sync::Arc;

    fn fixture() -> (SilcIndex, ObjectSet) {
        let g =
            Arc::new(road_network(&RoadConfig { vertices: 200, seed: 404, ..Default::default() }));
        let idx =
            SilcIndex::build(g.clone(), &BuildConfig { grid_exponent: 9, threads: 0 }).unwrap();
        let objects = ObjectSet::random(&g, 0.15, 9);
        (idx, objects)
    }

    fn check_against_truth(
        result: &KnnResult,
        idx: &SilcIndex,
        objects: &ObjectSet,
        q: VertexId,
        k: usize,
    ) {
        let truth = brute_force_knn(idx.network(), objects, q, k);
        assert_eq!(result.neighbors.len(), truth.len());
        // Distance multisets must agree (object identity can differ on ties).
        let mut got: Vec<f64> = result
            .neighbors
            .iter()
            .map(|n| silc::path::network_distance(idx, q, n.vertex).unwrap())
            .collect();
        got.sort_by(f64::total_cmp);
        let mut want: Vec<f64> = truth.iter().map(|&(_, d)| d).collect();
        want.sort_by(f64::total_cmp);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-6, "distance mismatch: {g} vs {w}");
        }
        // Every reported interval must contain the object's true distance.
        for n in &result.neighbors {
            let d = silc::path::network_distance(idx, q, n.vertex).unwrap();
            assert!(
                n.interval.contains(d)
                    || (d - n.interval.lo).abs() < 1e-6
                    || (n.interval.hi - d).abs() < 1e-6,
                "interval {} misses true distance {d}",
                n.interval
            );
        }
    }

    #[test]
    fn knn_basic_matches_brute_force() {
        let (idx, objects) = fixture();
        for &q in &[0u32, 57, 123, 199] {
            let r = knn(&idx, &objects, VertexId(q), 5, KnnVariant::Basic);
            check_against_truth(&r, &idx, &objects, VertexId(q), 5);
            assert!(r.is_sorted(), "basic kNN must report in order");
        }
    }

    #[test]
    fn knn_variants_agree_with_basic() {
        let (idx, objects) = fixture();
        for &q in &[3u32, 88, 150] {
            for k in [1usize, 4, 10] {
                let basic = knn(&idx, &objects, VertexId(q), k, KnnVariant::Basic);
                for variant in [KnnVariant::EarlyEstimate, KnnVariant::MinDist] {
                    let r = knn(&idx, &objects, VertexId(q), k, variant);
                    check_against_truth(&r, &idx, &objects, VertexId(q), k);
                    assert_eq!(
                        r.object_ids(),
                        basic.object_ids(),
                        "{variant:?} returned a different set for q={q}, k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn inn_matches_brute_force_and_is_sorted() {
        let (idx, objects) = fixture();
        for &q in &[10u32, 77] {
            let r = inn(&idx, &objects, VertexId(q), 8);
            check_against_truth(&r, &idx, &objects, VertexId(q), 8);
            assert!(r.is_sorted());
        }
    }

    #[test]
    fn knn_uses_smaller_queue_than_inn() {
        let (idx, objects) = fixture();
        let mut knn_q = 0usize;
        let mut inn_q = 0usize;
        for &q in &[0u32, 31, 62, 93, 124, 155] {
            knn_q += knn(&idx, &objects, VertexId(q), 10, KnnVariant::Basic).stats.max_queue;
            inn_q += inn(&idx, &objects, VertexId(q), 10).stats.max_queue;
        }
        assert!(knn_q < inn_q, "Dk pruning should shrink the queue: kNN {knn_q} vs INN {inn_q}");
    }

    #[test]
    fn knn_m_skips_refinements() {
        let (idx, objects) = fixture();
        let mut m_refines = 0usize;
        let mut basic_refines = 0usize;
        let mut pruned = 0usize;
        for &q in &[5u32, 50, 95, 140, 185] {
            let m = knn(&idx, &objects, VertexId(q), 10, KnnVariant::MinDist);
            let b = knn(&idx, &objects, VertexId(q), 10, KnnVariant::Basic);
            m_refines += m.stats.refinements;
            basic_refines += b.stats.refinements;
            pruned += m.stats.kmindist_pruned;
        }
        assert!(
            m_refines <= basic_refines,
            "kNN-M refined more than kNN: {m_refines} vs {basic_refines}"
        );
        assert!(pruned > 0, "KMINDIST never confirmed anything");
    }

    #[test]
    fn query_on_object_vertex_returns_it_first() {
        let (idx, objects) = fixture();
        let (o, v) = objects.iter().next().unwrap();
        let r = knn(&idx, &objects, v, 1, KnnVariant::Basic);
        assert_eq!(r.neighbors[0].object, o);
        assert_eq!(r.neighbors[0].interval, silc::DistInterval::exact(0.0));
    }

    #[test]
    fn k_larger_than_object_count_returns_all() {
        let (idx, _) = fixture();
        let objects =
            ObjectSet::from_vertices(idx.network(), vec![VertexId(1), VertexId(2), VertexId(3)], 4);
        let r = knn(&idx, &objects, VertexId(0), 10, KnnVariant::Basic);
        assert_eq!(r.neighbors.len(), 3);
        let r = inn(&idx, &objects, VertexId(0), 10);
        assert_eq!(r.neighbors.len(), 3);
    }

    #[test]
    fn d0k_is_recorded_and_upper_bounds_dk() {
        let (idx, objects) = fixture();
        let r = knn(&idx, &objects, VertexId(42), 10, KnnVariant::EarlyEstimate);
        let d0k = r.stats.d0k.expect("D0k must be set once L fills");
        assert!(
            d0k >= r.stats.dk_final - 1e-9,
            "D0k {d0k} below the true kth distance {}",
            r.stats.dk_final
        );
    }

    #[test]
    fn kmindist_lower_bounds_dk() {
        let (idx, objects) = fixture();
        let r = knn(&idx, &objects, VertexId(42), 10, KnnVariant::MinDist);
        let kmin = r.stats.kmindist_final.expect("KMINDIST must be recorded");
        assert!(
            kmin <= r.stats.dk_final + 1e-9,
            "KMINDIST {kmin} above true kth distance {}",
            r.stats.dk_final
        );
    }

    /// Neighbors and statistics with every float as bits.
    fn fingerprint(r: &KnnResult) -> (Vec<(ObjectId, VertexId, u64, u64)>, String) {
        let neighbors = r
            .neighbors
            .iter()
            .map(|n| (n.object, n.vertex, n.interval.lo.to_bits(), n.interval.hi.to_bits()))
            .collect();
        (neighbors, format!("{:?}", r.stats))
    }

    #[test]
    fn one_scratch_across_object_sets_answers_like_a_fresh_one() {
        // A session's scratch alternating between object sets of 3, 560 and
        // 40 objects — the router reuses one scratch across shards the same
        // way — must answer exactly as a fresh scratch: slots a larger set
        // touched must not leak into a smaller one.
        let n = 600u32;
        let g = Arc::new(road_network(&RoadConfig {
            vertices: n as usize,
            seed: 31,
            ..Default::default()
        }));
        let idx =
            SilcIndex::build(g.clone(), &BuildConfig { grid_exponent: 10, threads: 0 }).unwrap();
        let sets: Vec<ObjectSet> = [(3u32, 1u32), (560, 2), (40, 3)]
            .iter()
            .map(|&(count, shift)| {
                let vertices = (0..count).map(|i| VertexId((i * 7 + shift * 101) % n)).collect();
                ObjectSet::from_vertices(&g, vertices, 8)
            })
            .collect();
        let mut scratch = KnnScratch::new();
        for _round in 0..2 {
            for objects in &sets {
                for q in [0u32, 123, 377, 599].map(VertexId) {
                    let k = 10.min(objects.len());
                    for variant in
                        [KnnVariant::Basic, KnnVariant::EarlyEstimate, KnnVariant::MinDist]
                    {
                        try_knn_into(&idx, objects, q, k, variant, &mut scratch).unwrap();
                        let fresh = knn(&idx, objects, q, k, variant);
                        assert_eq!(
                            fingerprint(scratch.result()),
                            fingerprint(&fresh),
                            "{variant:?}"
                        );
                    }
                    try_inn_into(&idx, objects, q, k, &mut scratch).unwrap();
                    assert_eq!(
                        fingerprint(scratch.result()),
                        fingerprint(&inn(&idx, objects, q, k))
                    );
                }
            }
        }
    }

    #[test]
    fn candidate_ops_count_the_work_on_l() {
        let (idx, objects) = fixture();
        let r = knn(&idx, &objects, VertexId(42), 10, KnnVariant::Basic);
        // Every reported neighbor entered L at least once.
        assert!(r.stats.candidate_ops >= r.neighbors.len(), "{:?}", r.stats);
        // INN keeps no candidate list.
        assert_eq!(inn(&idx, &objects, VertexId(42), 10).stats.candidate_ops, 0);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        let (idx, objects) = fixture();
        let _ = knn(&idx, &objects, VertexId(0), 0, KnnVariant::Basic);
    }

    #[test]
    fn exact_distance_ties_terminate() {
        // Two objects on the same vertex have exactly equal distances from
        // every query — refinement can never separate them, so the tie rule
        // must resolve the collision (regression test for an infinite
        // ping-pong between two exact intervals).
        let (idx, _) = fixture();
        let objects = ObjectSet::from_vertices(
            idx.network(),
            vec![VertexId(10), VertexId(10), VertexId(120)],
            4,
        );
        for variant in [KnnVariant::Basic, KnnVariant::EarlyEstimate, KnnVariant::MinDist] {
            let r = knn(&idx, &objects, VertexId(50), 2, variant);
            assert_eq!(r.neighbors.len(), 2, "{variant:?} lost a tied neighbor");
        }
        let r = inn(&idx, &objects, VertexId(50), 3);
        assert_eq!(r.neighbors.len(), 3);
        // The two co-located objects must both appear when they are nearest.
        let r = knn(&idx, &objects, VertexId(10), 2, KnnVariant::Basic);
        let mut ids = r.object_ids();
        ids.sort();
        assert_eq!(ids, vec![ObjectId(0), ObjectId(1)]);
    }
}
