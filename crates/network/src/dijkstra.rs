//! Dijkstra's algorithm: full SSSP with first-hop extraction, point-to-point
//! search, a step-wise expander, and the reusable [`SsspWorkspace`] that
//! makes repeated-SSSP precomputation allocation-free.
//!
//! The paper's motivating observation (p.3/p.7) is that Dijkstra *visits far
//! too many vertices*: e.g. 3191 of 4233 vertices to find a 76-edge path.
//! Every entry point here therefore reports how many vertices it settled so
//! the experiments can reproduce that comparison.
//!
//! # One-shot vs. reused searches
//!
//! [`full_sssp`] allocates fresh result vectors and is the right call for a
//! single search (tests, one query). Anything that runs *many* searches —
//! the SILC index builder runs one per vertex — should create one
//! [`SsspWorkspace`] per worker thread and call [`full_sssp_into`] in a
//! loop: the workspace owns every buffer (distances, parents, first hops,
//! the priority structure) and resets between runs in O(touched), so no
//! O(n) allocation or zeroing happens per source.
//!
//! # The two-phase engine
//!
//! A classic Dijkstra loop is a serial dependency chain — each pop waits on
//! the relaxations of the previous settle, so the CPU cannot overlap the
//! (random-access) distance gathers of consecutive settles. The workspace
//! engine therefore splits the computation:
//!
//! 1. **Distances** are computed with bucketed label-correcting relaxation
//!    (Δ-stepping with exact results for any bucket width): buckets are
//!    drained in batches whose relaxations are mutually independent, which
//!    restores instruction-level parallelism.
//! 2. **Parents, first hops and the settle order** are then *derived* from
//!    the final distances: Dijkstra's parent of `x` is exactly the
//!    in-neighbor `p` minimizing `(dist(p), p)` among those with
//!    `dist(p) + w(p,x) == dist(x)` and `(dist(p), p) < (dist(x), x)`.
//!
//! The derivation is provably identical to the textbook loop *unless* some
//! improving relaxation satisfies `d + w == d` in floating point (a zero or
//! denormal-small weight). The engine detects that degeneracy during phase
//! 1 and transparently restarts with a bit-faithful classic heap loop, so
//! results — including tie-breaking — always match [`full_sssp`]'s
//! documented semantics: vertices settle in ascending `(distance, id)`
//! order.

use crate::{SpatialNetwork, VertexId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Sentinel for "no vertex" in parent arrays.
pub const NO_VERTEX: u32 = u32::MAX;
/// Sentinel for "no first hop" (the source itself, or unreachable).
pub const NO_HOP: u32 = u32::MAX;

// ---------------------------------------------------------------------
// Packed keys and the shared min-heap
// ---------------------------------------------------------------------

/// Packs a non-negative finite distance and a vertex id into one ordered
/// integer: the IEEE-754 bit pattern of a non-negative `f64` is
/// order-preserving, so `(dist, vertex)` lexicographic order equals plain
/// `u128` order. One integer comparison replaces a float compare plus a
/// tie-break chain in every heap sift step.
#[inline(always)]
pub(crate) fn pack(dist: f64, vertex: u32) -> u128 {
    debug_assert!(dist >= 0.0 && dist.is_finite());
    ((dist.to_bits() as u128) << 32) | vertex as u128
}

#[inline(always)]
fn unpack(key: u128) -> (f64, u32) {
    (f64::from_bits((key >> 32) as u64), key as u32)
}

/// A min-heap over packed `(dist, vertex)` keys, used by the classic-order
/// fallback loop and by [`sssp_settle_until`]. Pop order over distinct keys
/// is the total `u128` order, so swapping the backing structure changes
/// performance, never results.
#[derive(Debug, Default)]
pub(crate) struct MinHeap {
    data: BinaryHeap<std::cmp::Reverse<u128>>,
}

impl MinHeap {
    pub(crate) fn clear(&mut self) {
        self.data.clear();
    }

    #[inline(always)]
    pub(crate) fn push(&mut self, key: u128) {
        self.data.push(std::cmp::Reverse(key));
    }

    #[inline(always)]
    pub(crate) fn pop(&mut self) -> Option<u128> {
        self.data.pop().map(|r| r.0)
    }
}

// ---------------------------------------------------------------------
// The reusable workspace
// ---------------------------------------------------------------------

/// Number of buckets in the phase-1 ring (must be a power of two). The
/// bucket width is chosen so the live key window (≤ the maximum edge
/// weight) covers at most a quarter of the ring — wrap-around can then
/// never alias an occupied bucket.
const RING_BITS: u32 = 10;
const RING_SLOTS: usize = 1 << RING_BITS;

/// Reusable single-source shortest-path state: distance/parent/first-hop
/// buffers plus the priority structures, reset in O(touched) between runs.
///
/// # When to reuse vs. one-shot
///
/// Create **one workspace per worker thread** and keep it for the worker's
/// whole lifetime whenever searches repeat — index precomputation, oracle
/// construction, all-pairs experiments. The buffers grow to the largest
/// graph seen and are never shrunk or re-zeroed; per-run reset cost is
/// proportional to what the previous run touched, not to the graph. For a
/// single search, [`full_sssp`] (which creates a throwaway workspace
/// internally) reads better and costs the same.
///
/// A workspace is freely reusable across *different* graphs and sources;
/// the between-runs invariant (`dist[v] = ∞` everywhere) makes stale state
/// from earlier runs unobservable.
#[derive(Debug, Default)]
pub struct SsspWorkspace {
    /// Tentative/final distances. Invariant between runs: all `∞` — the
    /// relax loop's working set stays as small as possible (8 bytes per
    /// vertex), which keeps the random gathers L1-resident far longer.
    dist: Vec<f64>,
    /// Parent on the shortest-path tree; valid only where `dist` is finite.
    parent: Vec<u32>,
    /// First-hop slot; valid only where `dist` is finite.
    hop: Vec<u32>,
    /// First-touch log of the current run: every vertex whose distance
    /// left `∞`, recorded once, with `dirty_len` the live prefix (the
    /// vector's full length is preallocated capacity). Restores the `dist`
    /// invariant at the next `begin`.
    dirty: Vec<u32>,
    dirty_len: usize,
    /// Per-run marks: `stamp[v] == generation` records a settled vertex in
    /// phase 1 (and the settled set in [`sssp_settle_until`]),
    /// `generation + 1` marks a resolved first hop in phase 2.
    stamp: Vec<u32>,
    generation: u32,
    /// Heap for the classic fallback and [`sssp_settle_until`].
    heap: MinHeap,
    /// Phase-1 bucket ring and its occupancy bitmap.
    ring: Vec<Vec<u32>>,
    occ: [u64; RING_SLOTS / 64],
    /// Engine scratch: the bucket batch being drained, the settled-vertex
    /// record, the tie log (manual-length buffer like `dirty`), and the
    /// parent-chain stack of the hop resolution.
    drain: Vec<u32>,
    settled_ids: Vec<u32>,
    tie_ids: Vec<u32>,
    chain: Vec<u32>,
}

impl SsspWorkspace {
    /// An empty workspace; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A workspace pre-sized for graphs of `n` vertices.
    pub fn with_capacity(n: usize) -> Self {
        let mut ws = Self::default();
        ws.grow(n, n.saturating_mul(4));
        ws
    }

    fn grow(&mut self, n: usize, m: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, f64::INFINITY);
            self.parent.resize(n, NO_VERTEX);
            self.hop.resize(n, NO_HOP);
            self.stamp.resize(n, 0);
        }
        // Improvement log: at most one entry per relaxation plus the source.
        if self.dirty.len() < m + 1 {
            self.dirty.resize(m + 1, 0);
        }
    }

    /// Starts a new run: restores the `dist = ∞` invariant over the
    /// previous run's improvements, grows buffers, bumps the generation.
    fn begin(&mut self, g: &SpatialNetwork) -> u32 {
        for &v in &self.dirty[..self.dirty_len] {
            self.dist[v as usize] = f64::INFINITY;
        }
        self.dirty_len = 0;
        self.heap.clear();
        self.grow(g.vertex_count(), g.edge_count());
        if self.generation >= u32::MAX - 2 {
            // Stamp wrap-around: one full re-zeroing every ~2 billion runs.
            for s in &mut self.stamp {
                *s = 0;
            }
            self.generation = 0;
        }
        // Each run owns two marks: `gen` (settled) and `gen + 1` (resolved).
        self.generation += 2;
        self.generation
    }
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/// Full single-source shortest paths from `source`, with first-hop colors.
///
/// Runs in `O(m log n)`. First hops satisfy the recursion the SILC path
/// retrieval relies on: if `t` is the first hop of `v`, then
/// `d(s,v) = w(s,t) + d(t,v)`. Ties are resolved as if vertices settle in
/// ascending `(distance, id)` order.
///
/// One-shot convenience over [`full_sssp_into`]: creates a throwaway
/// workspace and materializes owned result vectors. Repeated-SSSP callers
/// should hold a [`SsspWorkspace`] instead.
pub fn full_sssp(g: &SpatialNetwork, source: VertexId) -> SsspTree {
    let mut ws = SsspWorkspace::new();
    full_sssp_into(g, source, &mut ws).to_tree()
}

/// Full single-source shortest paths into a reusable workspace.
///
/// Identical results to [`full_sssp`] — the returned [`SsspRun`] is a
/// borrowed view of the workspace buffers instead of owned vectors, and no
/// per-run O(n) allocation or zeroing happens. See [`SsspWorkspace`] for
/// the reuse guidelines.
pub fn full_sssp_into<'ws>(
    g: &SpatialNetwork,
    source: VertexId,
    ws: &'ws mut SsspWorkspace,
) -> SsspRun<'ws> {
    full_sssp_visit(g, source, ws, |_, _, _| {})
}

/// [`full_sssp_into`] with a per-vertex callback: `visit(v, dist,
/// first_hop)` is invoked exactly once for every reached vertex, with its
/// final distance and first-hop color (the source gets [`NO_HOP`]).
///
/// The visit *order* is unspecified — the two-phase engine emits in bucket
/// discovery order, the classic path in settle order. Consumers that need
/// an order sort the (vertex, dist) pairs themselves; the SILC index
/// builder does not, it scatters colors straight into Morton-ordered
/// buffers without an intermediate pass.
pub fn full_sssp_visit<'ws, F: FnMut(VertexId, f64, u32)>(
    g: &SpatialNetwork,
    source: VertexId,
    ws: &'ws mut SsspWorkspace,
    mut visit: F,
) -> SsspRun<'ws> {
    let gen = ws.begin(g);
    let n = g.vertex_count();

    // Bucket width: ~2× the mean weight balances bucket occupancy against
    // intra-bucket correction cascades; the max-weight floor guarantees the
    // ring covers the live window with 4× margin.
    let delta = (4.0 * g.mean_weight()).max(g.max_weight() / (RING_SLOTS as f64 / 4.0));
    // Bucket indices must stay well below u64 saturation (monotonicity of
    // the f64→u64 cast breaks there). n·w_max bounds every finite distance.
    let bucket_bound = n as f64 * g.max_weight() / delta;
    let visited = if delta.is_finite() && delta > 0.0 && bucket_bound < 2f64.powi(60) {
        match two_phase_sssp(g, source, ws, gen, delta, &mut visit) {
            Some(v) => v,
            // Degenerate tie detected: restart classic, re-emitting visits.
            None => classic_sssp(g, source, ws, &mut visit),
        }
    } else {
        classic_sssp(g, source, ws, &mut visit)
    };

    SsspRun { dist: &ws.dist[..n], parent: &ws.parent[..n], hop: &ws.hop[..n], source, visited }
}

// ---------------------------------------------------------------------
// The classic heap loop (fallback + reference semantics)
// ---------------------------------------------------------------------

/// Textbook Dijkstra over the workspace buffers: lazy-deletion heap over
/// packed keys, settle order ascending `(dist, id)`. This is the semantic
/// reference the two-phase path must (and does) reproduce.
fn classic_sssp<F: FnMut(VertexId, f64, u32)>(
    g: &SpatialNetwork,
    source: VertexId,
    ws: &mut SsspWorkspace,
    visit: &mut F,
) -> usize {
    // The fast path may have run first: restore the dist invariant it broke.
    for &v in &ws.dirty[..ws.dirty_len] {
        ws.dist[v as usize] = f64::INFINITY;
    }
    ws.dirty_len = 0;
    ws.heap.clear();

    let dist = &mut ws.dist[..];
    let parent = &mut ws.parent[..];
    let hop = &mut ws.hop[..];
    // First-touch appends only: at most one log entry per reached vertex,
    // which `grow` (≥ m + 1) always covers.
    let dirty = &mut ws.dirty;
    let mut dlen = ws.dirty_len;
    let heap = &mut ws.heap;

    let si = source.index();
    dist[si] = 0.0;
    parent[si] = NO_VERTEX;
    hop[si] = NO_HOP;
    dirty[dlen] = source.0;
    dlen += 1;
    heap.push(pack(0.0, source.0));
    let mut visited = 0usize;

    while let Some(key) = heap.pop() {
        let (d, u) = unpack(key);
        let ui = u as usize;
        // A popped entry is stale iff a strictly better distance has been
        // written since it was pushed; equal (dist, vertex) keys are never
        // pushed twice because relaxations require strict improvement.
        if d.to_bits() != dist[ui].to_bits() {
            continue;
        }
        visited += 1;
        let h = hop[ui];
        visit(VertexId(u), d, h);
        // Settled targets need no explicit skip: their distance is final
        // and ≤ nd, so the improvement test fails on its own.
        let (targets, weights) = g.out_edge_slices(VertexId(u));
        if u == source.0 {
            for (slot, (&v, &w)) in targets.iter().zip(weights).enumerate() {
                let vi = v as usize;
                let nd = d + w;
                if nd < dist[vi] {
                    if dist[vi].is_infinite() {
                        dirty[dlen] = v;
                        dlen += 1;
                    }
                    dist[vi] = nd;
                    parent[vi] = u;
                    hop[vi] = slot as u32;
                    heap.push(pack(nd, v));
                }
            }
        } else {
            for (&v, &w) in targets.iter().zip(weights) {
                let vi = v as usize;
                let nd = d + w;
                if nd < dist[vi] {
                    if dist[vi].is_infinite() {
                        dirty[dlen] = v;
                        dlen += 1;
                    }
                    dist[vi] = nd;
                    parent[vi] = u;
                    hop[vi] = h;
                    heap.push(pack(nd, v));
                }
            }
        }
    }
    ws.dirty_len = dlen;
    visited
}

// ---------------------------------------------------------------------
// The two-phase engine
// ---------------------------------------------------------------------

/// Phase 1 (bucketed label-correcting distances + execution-order parents)
/// followed by phase 2 (tie canonicalization and first-hop resolution).
/// Returns `None` when a degenerate relaxation (`d + w == d`) is detected —
/// the caller then restarts on [`classic_sssp`], whose tie semantics are
/// authoritative in that regime. Visits are only emitted after the
/// degeneracy check, so every reached vertex is visited exactly once.
///
/// Why the results equal the classic loop's, bit for bit:
///
/// * Distances: bucketed relaxation to a fixpoint is exact for any bucket
///   width (all relaxations originate from keys at or beyond the current
///   bucket start, so completed buckets are final).
/// * Parents: the last writer of `dist[x]` reached exactly `dist[x]`, so it
///   is an *achiever* (`dist[p] + w(p,x) == dist[x]`). When the achiever is
///   unique it is also Dijkstra's parent. When several achieve equality, a
///   relaxation with `nd == dist[x]` must have occurred — recorded in the
///   tie list — and the canonical parent (the achiever settling first in
///   Dijkstra, i.e. minimal `(dist, id)` among achievers below `x`) is
///   restored by an in-edge scan over exactly those vertices.
/// * First hops: `hop(x) = hop(parent(x))` (the adjacency slot for direct
///   children of the source), resolved by memoized chain-walking.
///
/// The only regime where the derivation breaks is an equality chain whose
/// achiever does not settle strictly earlier (`d + w == d` for some
/// improving or tying relaxation) — precisely what the degeneracy flag
/// catches during phase 1.
fn two_phase_sssp<F: FnMut(VertexId, f64, u32)>(
    g: &SpatialNetwork,
    source: VertexId,
    ws: &mut SsspWorkspace,
    gen: u32,
    delta: f64,
    visit: &mut F,
) -> Option<usize> {
    let scale = 1.0 / delta;
    if ws.ring.is_empty() {
        ws.ring = (0..RING_SLOTS).map(|_| Vec::new()).collect();
    }
    let n = g.vertex_count();
    let dist = &mut ws.dist[..n];
    let parent = &mut ws.parent[..];
    let hop = &mut ws.hop[..];
    let stamp = &mut ws.stamp[..];
    let dirty = &mut ws.dirty;
    let mut dlen = 0usize;
    let ring = &mut ws.ring[..];
    let occ = &mut ws.occ;
    let drain = &mut ws.drain;
    let settled = &mut ws.settled_ids;
    let ties = &mut ws.tie_ids;
    let chain = &mut ws.chain;
    let mask = (RING_SLOTS - 1) as u64;

    let si = source.index();
    dist[si] = 0.0;
    parent[si] = NO_VERTEX;
    hop[si] = NO_HOP;
    dirty[dlen] = source.0;
    dlen += 1;
    ring[0].push(source.0);
    occ[0] |= 1;
    let mut remaining = 1usize; // queued-but-undrained bucket entries
    let mut degenerate = false;
    let mut cur = 0u64; // absolute index of the bucket being located

    // --- phase 1 ---
    while remaining > 0 {
        // Locate the next occupied bucket (bitmap word scan).
        let bucket = {
            let mut b = cur;
            loop {
                let s = (b & mask) as usize;
                let word = occ[s >> 6] >> (s & 63);
                if word != 0 {
                    break b + word.trailing_zeros() as u64;
                }
                b = (b & !63) + 64;
            }
        };
        let slot = (bucket & mask) as usize;

        // Drain the bucket to completion. All relaxations originate from
        // keys >= the bucket start, so new appends never land before
        // `bucket` and every distance below the bucket end is final once
        // the cascade stops.
        loop {
            std::mem::swap(&mut ring[slot], drain);
            remaining -= drain.len();
            for &u in drain.iter() {
                let ui = u as usize;
                // SAFETY throughout this block: `u` and every CSR target
                // are `< n` (validated at network construction), the
                // workspace arrays are sized ≥ n by `grow` (and `dirty`
                // ≥ m + 1, covering its first-touch-only appends), and
                // every bucket-mapped distance is finite, non-negative and
                // below the `bucket_bound < 2^60` the caller checked — so
                // the unchecked float→int casts cannot overflow. Pushing
                // into `ring[slot]` while iterating is fine: the swap
                // above made `drain` a separate vector.
                let d = unsafe { *dist.get_unchecked(ui) };
                // Stale unless the entry's vertex still belongs here. The
                // test reuses the bucket map exactly, so it can never
                // disagree with the append-side placement.
                if unsafe { (d * scale).to_int_unchecked::<u64>() } != bucket {
                    continue;
                }
                if stamp[ui] != gen {
                    stamp[ui] = gen;
                    settled.push(u);
                }
                let (targets, weights) = g.out_edge_slices(VertexId(u));
                for (&v, &w) in targets.iter().zip(weights) {
                    let vi = v as usize;
                    let nd = d + w;
                    let old = unsafe { *dist.get_unchecked(vi) };
                    if nd < old {
                        degenerate |= nd <= d;
                        unsafe {
                            if old.is_infinite() {
                                *dirty.get_unchecked_mut(dlen) = v;
                                dlen += 1;
                            }
                            *dist.get_unchecked_mut(vi) = nd;
                            *parent.get_unchecked_mut(vi) = u;
                            let b = (nd * scale).to_int_unchecked::<u64>();
                            let s = (b & mask) as usize;
                            ring.get_unchecked_mut(s).push(v);
                            *occ.get_unchecked_mut(s >> 6) |= 1 << (s & 63);
                        }
                        remaining += 1;
                    } else if nd == old {
                        degenerate |= nd <= d;
                        ties.push(v);
                    }
                }
            }
            drain.clear();
            if ring[slot].is_empty() {
                break;
            }
        }
        occ[slot >> 6] &= !(1 << (slot & 63));
        cur = bucket + 1;
    }
    ws.dirty_len = dlen;
    if degenerate {
        settled.clear();
        ties.clear();
        return None;
    }

    // --- phase 2a: canonicalize tied parents ---
    // Re-scans are idempotent, so duplicate tie entries need no dedup.
    for &x in ties.iter() {
        let xi = x as usize;
        if x == source.0 || stamp[xi] != gen {
            continue;
        }
        let key = pack(dist[xi], x);
        let (sources, weights) = g.in_edge_slices(VertexId(x));
        // Initializing `best` to x's own key folds the settles-before-x
        // filter into the minimum search.
        let mut best = key;
        for (&p, &w) in sources.iter().zip(weights) {
            let dp = dist[p as usize];
            let cand = pack(if dp.is_finite() { dp } else { f64::MAX }, p);
            let hit = (dp + w).to_bits() == dist[xi].to_bits();
            best = if hit && cand < best { cand } else { best };
        }
        debug_assert!(best < key, "tied vertex without an earlier achiever");
        parent[xi] = best as u32;
    }
    ties.clear();

    // --- phase 2b: resolve first hops along parent chains ---
    // `stamp == gen + 1` marks a resolved hop; chains are short and each
    // vertex is resolved exactly once (memoization), so this pass is
    // O(reached) with no sorting.
    stamp[si] = gen + 1;
    let visited = settled.len();
    for &x in settled.iter() {
        if stamp[x as usize] != gen + 1 {
            // Walk up to the nearest resolved ancestor, then unwind.
            chain.clear();
            let mut v = x;
            while stamp[v as usize] != gen + 1 {
                chain.push(v);
                v = parent[v as usize];
            }
            while let Some(c) = chain.pop() {
                let p = parent[c as usize];
                hop[c as usize] = if p == source.0 {
                    g.edge_slot(source, VertexId(c)).expect("parent edge exists") as u32
                } else {
                    hop[p as usize]
                };
                stamp[c as usize] = gen + 1;
            }
        }
        visit(VertexId(x), dist[x as usize], hop[x as usize]);
    }
    settled.clear();
    Some(visited)
}

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

/// Borrowed view of one completed SSSP run inside a [`SsspWorkspace`].
///
/// `dist` is fully valid for every vertex (`∞` when unreachable); parent
/// and first-hop reads are gated on reachability, so stale state from
/// earlier runs is unobservable.
pub struct SsspRun<'ws> {
    dist: &'ws [f64],
    parent: &'ws [u32],
    hop: &'ws [u32],
    source: VertexId,
    visited: usize,
}

impl SsspRun<'_> {
    /// Source of the run.
    #[inline]
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// Number of vertices settled (= reached).
    #[inline]
    pub fn visited(&self) -> usize {
        self.visited
    }

    /// Was `v` reached from the source?
    #[inline(always)]
    pub fn reached(&self, v: VertexId) -> bool {
        self.dist[v.index()].is_finite()
    }

    /// Network distance source → `v` (`∞` when unreachable).
    #[inline(always)]
    pub fn dist(&self, v: VertexId) -> f64 {
        self.dist[v.index()]
    }

    /// The full distance slice, indexed by vertex id — valid for every
    /// vertex, `∞` where unreachable.
    #[inline]
    pub fn dist_slice(&self) -> &[f64] {
        self.dist
    }

    /// Predecessor of `v` on the shortest-path tree ([`NO_VERTEX`] for the
    /// source and unreachable vertices).
    #[inline(always)]
    pub fn parent(&self, v: VertexId) -> u32 {
        if self.dist[v.index()].is_finite() {
            self.parent[v.index()]
        } else {
            NO_VERTEX
        }
    }

    /// Slot index (into the source's sorted adjacency list) of the first
    /// edge on the shortest path source → `v`; [`NO_HOP`] for the source
    /// itself and unreachable vertices.
    #[inline(always)]
    pub fn first_hop(&self, v: VertexId) -> u32 {
        if self.dist[v.index()].is_finite() {
            self.hop[v.index()]
        } else {
            NO_HOP
        }
    }

    /// Reconstructs the tree path source → `v` (inclusive), or `None` when
    /// `v` is unreachable.
    pub fn path_to(&self, v: VertexId) -> Option<Vec<VertexId>> {
        if !self.reached(v) {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v.0;
        while cur != self.source.0 {
            cur = self.parent[cur as usize];
            path.push(VertexId(cur));
        }
        path.reverse();
        Some(path)
    }

    /// Materializes the run as an owned [`SsspTree`] (O(n) copies — the
    /// one-shot path; reused pipelines read through the accessors instead).
    pub fn to_tree(&self) -> SsspTree {
        let n = self.dist.len();
        let mut parent = Vec::with_capacity(n);
        let mut first_hop = Vec::with_capacity(n);
        for i in 0..n as u32 {
            let v = VertexId(i);
            parent.push(self.parent(v));
            first_hop.push(self.first_hop(v));
        }
        SsspTree {
            source: self.source,
            dist: self.dist.to_vec(),
            parent,
            first_hop,
            visited: self.visited,
        }
    }
}

/// The shortest-path tree of one source vertex.
#[derive(Debug, Clone)]
pub struct SsspTree {
    /// Source of the tree.
    pub source: VertexId,
    /// `dist[v]` is the network distance source → v (`f64::INFINITY` when
    /// unreachable).
    pub dist: Vec<f64>,
    /// `parent[v]` is the predecessor on the tree path ([`NO_VERTEX`] for the
    /// source and unreachable vertices).
    pub parent: Vec<u32>,
    /// `first_hop[v]` is the *slot index* (into the source's sorted adjacency
    /// list) of the first edge on the shortest path source → v. This is the
    /// "color" of v in the source's shortest-path map. [`NO_HOP`] for the
    /// source itself and unreachable vertices.
    pub first_hop: Vec<u32>,
    /// Number of vertices settled.
    pub visited: usize,
}

impl SsspTree {
    /// Reconstructs the tree path source → v (inclusive), or `None` when `v`
    /// is unreachable.
    pub fn path_to(&self, v: VertexId) -> Option<Vec<VertexId>> {
        if self.dist[v.index()].is_infinite() {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v.0;
        while self.parent[cur as usize] != NO_VERTEX {
            cur = self.parent[cur as usize];
            path.push(VertexId(cur));
        }
        path.reverse();
        Some(path)
    }
}

/// Result of a point-to-point shortest-path search.
#[derive(Debug, Clone, PartialEq)]
pub struct PathResult {
    /// Total network distance.
    pub distance: f64,
    /// Vertices along the path, source first, target last.
    pub path: Vec<VertexId>,
    /// Number of vertices settled during the search.
    pub visited: usize,
}

/// Truncated multi-target Dijkstra over a reusable workspace: settles
/// vertices from `source` in ascending `(distance, id)` order — exactly the
/// classic loop's settle order — invoking `settle(v, d)` once per settled
/// vertex with its **final** distance, and stopping as soon as `settle`
/// returns `false` (or the reachable set is exhausted).
///
/// This is the batching primitive behind `silc-pcp`'s oracle construction:
/// instead of one point-to-point search per `(source, target)` probe, a
/// caller marks all targets of one source, runs a single truncated search,
/// and stops when the last marked target settles. No parent or first-hop
/// bookkeeping is done — the loop touches only distances, so it is cheaper
/// per settle than [`full_sssp_into`] — and the workspace reset discipline
/// is the same O(touched) as every other entry point.
///
/// Returns the number of vertices settled. Settled distances are exact and
/// a deterministic function of the graph alone (the fixpoint over path
/// sums), so batched callers observe bit-identical distances regardless of
/// how probes are grouped.
pub fn sssp_settle_until<F: FnMut(VertexId, f64) -> bool>(
    g: &SpatialNetwork,
    source: VertexId,
    ws: &mut SsspWorkspace,
    mut settle: F,
) -> usize {
    let gen = ws.begin(g);
    let dist = &mut ws.dist[..];
    let stamp = &mut ws.stamp[..];
    let dirty = &mut ws.dirty;
    let mut dlen = 0usize;
    let heap = &mut ws.heap;

    let si = source.index();
    dist[si] = 0.0;
    dirty[dlen] = source.0;
    dlen += 1;
    heap.push(pack(0.0, source.0));
    let mut visited = 0usize;

    while let Some(key) = heap.pop() {
        let (d, u) = unpack(key);
        let ui = u as usize;
        if stamp[ui] == gen {
            continue;
        }
        stamp[ui] = gen;
        visited += 1;
        if !settle(VertexId(u), d) {
            break;
        }
        let (targets, weights) = g.out_edge_slices(VertexId(u));
        for (&v, &w) in targets.iter().zip(weights) {
            let vi = v as usize;
            if stamp[vi] == gen {
                continue;
            }
            let nd = d + w;
            if nd < dist[vi] {
                if dist[vi].is_infinite() {
                    dirty[dlen] = v;
                    dlen += 1;
                }
                dist[vi] = nd;
                heap.push(pack(nd, v));
            }
        }
    }
    ws.dirty_len = dlen;
    visited
}

/// Point-to-point Dijkstra with early termination at `target`.
pub fn point_to_point(
    g: &SpatialNetwork,
    source: VertexId,
    target: VertexId,
) -> Option<PathResult> {
    let mut exp = Expander::new(g, source);
    while let Some((v, _)) = exp.next_settled() {
        if v == target {
            return Some(PathResult {
                distance: exp.dist(target).expect("target just settled"),
                path: exp.path_to(target).expect("target just settled"),
                visited: exp.visited(),
            });
        }
    }
    None
}

/// Network distance source → target, or `None` if unreachable.
pub fn distance(g: &SpatialNetwork, source: VertexId, target: VertexId) -> Option<f64> {
    point_to_point(g, source, target).map(|r| r.distance)
}

/// Min-heap entry ordered by distance, ties broken on vertex id so runs are
/// deterministic regardless of insertion order.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    dist: f64,
    vertex: u32,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we need a min-heap.
        other.dist.total_cmp(&self.dist).then_with(|| other.vertex.cmp(&self.vertex))
    }
}

impl PartialOrd for HeapEntry {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A step-wise Dijkstra expansion: settles one vertex per call.
///
/// This is exactly the primitive the INE baseline ("incremental network
/// expansion", Papadias et al. 2003) needs — it interleaves settling network
/// vertices with checking the objects that reside on them.
pub struct Expander<'g> {
    g: &'g SpatialNetwork,
    dist: Vec<f64>,
    parent: Vec<u32>,
    settled: Vec<bool>,
    heap: BinaryHeap<HeapEntry>,
    visited: usize,
    edges_relaxed: usize,
}

impl<'g> Expander<'g> {
    /// Starts an expansion from `source`.
    pub fn new(g: &'g SpatialNetwork, source: VertexId) -> Self {
        let n = g.vertex_count();
        let mut dist = vec![f64::INFINITY; n];
        dist[source.index()] = 0.0;
        let mut heap = BinaryHeap::new();
        heap.push(HeapEntry { dist: 0.0, vertex: source.0 });
        Expander {
            g,
            dist,
            parent: vec![NO_VERTEX; n],
            settled: vec![false; n],
            heap,
            visited: 0,
            edges_relaxed: 0,
        }
    }

    /// Settles and returns the next-closest unsettled vertex with its final
    /// distance, or `None` when the reachable part is exhausted.
    pub fn next_settled(&mut self) -> Option<(VertexId, f64)> {
        while let Some(HeapEntry { dist: d, vertex: u }) = self.heap.pop() {
            if self.settled[u as usize] {
                continue;
            }
            self.settled[u as usize] = true;
            self.visited += 1;
            let uid = VertexId(u);
            for (v, w) in self.g.out_edges(uid) {
                self.edges_relaxed += 1;
                let vi = v.index();
                if self.settled[vi] {
                    continue;
                }
                let nd = d + w;
                if nd < self.dist[vi] {
                    self.dist[vi] = nd;
                    self.parent[vi] = u;
                    self.heap.push(HeapEntry { dist: nd, vertex: v.0 });
                }
            }
            return Some((uid, d));
        }
        None
    }

    /// Final distance of a *settled* vertex (tentative distances of
    /// unsettled vertices are not exposed).
    pub fn dist(&self, v: VertexId) -> Option<f64> {
        if self.settled[v.index()] {
            Some(self.dist[v.index()])
        } else {
            None
        }
    }

    /// Path from the source to a settled vertex.
    pub fn path_to(&self, v: VertexId) -> Option<Vec<VertexId>> {
        if !self.settled[v.index()] {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v.0;
        while self.parent[cur as usize] != NO_VERTEX {
            cur = self.parent[cur as usize];
            path.push(VertexId(cur));
        }
        path.reverse();
        Some(path)
    }

    /// Number of vertices settled so far.
    pub fn visited(&self) -> usize {
        self.visited
    }

    /// Number of edge relaxations performed so far.
    pub fn edges_relaxed(&self) -> usize {
        self.edges_relaxed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{grid_network, road_network, GridConfig, RoadConfig};
    use crate::NetworkBuilder;
    use silc_geom::Point;

    /// The textbook loop the engine must reproduce bit-for-bit: lazy
    /// BinaryHeap, ties on vertex id, first-hop propagation at relax time.
    fn reference_sssp(g: &SpatialNetwork, source: VertexId) -> (SsspTree, Vec<u32>) {
        let n = g.vertex_count();
        let mut dist = vec![f64::INFINITY; n];
        let mut parent = vec![NO_VERTEX; n];
        let mut first_hop = vec![NO_HOP; n];
        let mut settled = vec![false; n];
        let mut heap = BinaryHeap::new();
        dist[source.index()] = 0.0;
        heap.push(HeapEntry { dist: 0.0, vertex: source.0 });
        let mut visited = 0usize;
        let mut order = Vec::new();
        while let Some(HeapEntry { dist: d, vertex: u }) = heap.pop() {
            if settled[u as usize] {
                continue;
            }
            settled[u as usize] = true;
            visited += 1;
            order.push(u);
            for (slot, (v, w)) in g.out_edges(VertexId(u)).enumerate() {
                let vi = v.index();
                if settled[vi] {
                    continue;
                }
                let nd = d + w;
                if nd < dist[vi] {
                    dist[vi] = nd;
                    parent[vi] = u;
                    first_hop[vi] = if u == source.0 { slot as u32 } else { first_hop[u as usize] };
                    heap.push(HeapEntry { dist: nd, vertex: v.0 });
                }
            }
        }
        (SsspTree { source, dist, parent, first_hop, visited }, order)
    }

    /// Asserts the engine (via one reused workspace) matches the reference
    /// on every vertex of `g` as source: dists bit-identical, parents,
    /// first hops, visited counts, and visit order.
    fn assert_engine_matches_reference(g: &SpatialNetwork, label: &str) {
        let mut ws = SsspWorkspace::new();
        for s in g.vertices() {
            let (truth, order) = reference_sssp(g, s);
            let mut visits: Vec<(u32, f64, u32)> = Vec::new();
            let run = full_sssp_visit(g, s, &mut ws, |v, d, h| visits.push((v.0, d, h)));
            assert_eq!(run.visited(), truth.visited, "[{label}] visited s={s}");
            for v in g.vertices() {
                let vi = v.index();
                assert_eq!(
                    run.dist(v).to_bits(),
                    truth.dist[vi].to_bits(),
                    "[{label}] dist mismatch s={s} v={v}"
                );
                assert_eq!(run.parent(v), truth.parent[vi], "[{label}] parent s={s} v={v}");
                assert_eq!(
                    run.first_hop(v),
                    truth.first_hop[vi],
                    "[{label}] first hop s={s} v={v}"
                );
            }
            // Visits: exactly once per reached vertex, final values; order
            // is unspecified, so compare as sets against the settle set.
            assert_eq!(visits.len(), order.len(), "[{label}] visit count s={s}");
            let mut got: Vec<u32> = visits.iter().map(|&(v, _, _)| v).collect();
            got.sort_unstable();
            let mut want = order.clone();
            want.sort_unstable();
            assert_eq!(got, want, "[{label}] visited set s={s}");
            for (v, d, h) in visits {
                assert_eq!(d.to_bits(), truth.dist[v as usize].to_bits());
                assert_eq!(h, truth.first_hop[v as usize]);
            }
        }
    }

    /// 0 -1- 1 -1- 2
    /// |           |
    /// 5 --------- 3   (0-5 cost 10, 2-3 cost 1, 3-5... )
    fn line_with_shortcut() -> SpatialNetwork {
        let mut b = NetworkBuilder::new();
        let v: Vec<_> = (0..4).map(|i| b.add_vertex(Point::new(i as f64, 0.0))).collect();
        b.add_edge_sym(v[0], v[1], 1.0);
        b.add_edge_sym(v[1], v[2], 1.0);
        b.add_edge_sym(v[2], v[3], 1.0);
        b.add_edge_sym(v[0], v[3], 10.0); // expensive direct road
        b.build()
    }

    #[test]
    fn sssp_distances() {
        let g = line_with_shortcut();
        let t = full_sssp(&g, VertexId(0));
        assert_eq!(t.dist, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(t.visited, 4);
    }

    #[test]
    fn sssp_first_hops_are_slots() {
        let g = line_with_shortcut();
        let t = full_sssp(&g, VertexId(0));
        // Vertex 0's sorted adjacency: [1 (slot 0), 3 (slot 1)].
        assert_eq!(t.first_hop[0], NO_HOP);
        assert_eq!(t.first_hop[1], 0);
        assert_eq!(t.first_hop[2], 0);
        assert_eq!(t.first_hop[3], 0); // through 1-2, not the direct road
    }

    #[test]
    fn first_hop_recursion_property() {
        // d(s,v) = w(s,t) + d(t,v) for t = first hop of v.
        let g = line_with_shortcut();
        let s = VertexId(0);
        let tree = full_sssp(&g, s);
        for v in g.vertices() {
            if v == s || tree.first_hop[v.index()] == NO_HOP {
                continue;
            }
            let (t, w) = g.out_edge(s, tree.first_hop[v.index()] as usize);
            let dt = full_sssp(&g, t);
            let lhs = tree.dist[v.index()];
            let rhs = w + dt.dist[v.index()];
            assert!((lhs - rhs).abs() < 1e-9, "recursion broken at {v}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn sssp_path_reconstruction() {
        let g = line_with_shortcut();
        let t = full_sssp(&g, VertexId(0));
        let path = t.path_to(VertexId(3)).unwrap();
        assert_eq!(path, vec![VertexId(0), VertexId(1), VertexId(2), VertexId(3)]);
    }

    #[test]
    fn unreachable_vertex() {
        let mut b = NetworkBuilder::new();
        let a = b.add_vertex(Point::new(0.0, 0.0));
        let c = b.add_vertex(Point::new(1.0, 0.0));
        let _iso = b.add_vertex(Point::new(5.0, 5.0));
        b.add_edge_sym(a, c, 1.0);
        let g = b.build();
        let t = full_sssp(&g, a);
        assert!(t.dist[2].is_infinite());
        assert_eq!(t.first_hop[2], NO_HOP);
        assert!(t.path_to(VertexId(2)).is_none());
        assert_eq!(t.visited, 2);
    }

    #[test]
    fn engine_matches_reference_on_tie_heavy_grid() {
        // Zero jitter / zero detour: weights are exact grid spacings, so
        // distance ties are everywhere — the adversarial case for derived
        // parents and settle order.
        let g = grid_network(&GridConfig {
            rows: 7,
            cols: 7,
            jitter: 0.0,
            detour: 0.0,
            keep_prob: 1.0,
            seed: 3,
            ..Default::default()
        });
        assert_engine_matches_reference(&g, "uniform grid");
    }

    #[test]
    fn engine_matches_reference_on_jittered_grid() {
        let g = grid_network(&GridConfig { rows: 8, cols: 8, seed: 11, ..Default::default() });
        assert_engine_matches_reference(&g, "jittered grid");
    }

    #[test]
    fn engine_matches_reference_on_road_network() {
        let g = road_network(&RoadConfig { vertices: 150, seed: 7, ..Default::default() });
        assert_engine_matches_reference(&g, "road");
    }

    #[test]
    fn engine_matches_reference_on_directed_graph() {
        // One-way edges: exercises the reverse-CSR parent derivation.
        let mut b = NetworkBuilder::new();
        let v: Vec<_> =
            (0..6).map(|i| b.add_vertex(Point::new(i as f64, (i % 2) as f64))).collect();
        b.add_edge(v[0], v[1], 1.0);
        b.add_edge(v[1], v[2], 1.0);
        b.add_edge(v[2], v[0], 1.0);
        b.add_edge(v[0], v[3], 2.5);
        b.add_edge(v[3], v[4], 0.5);
        b.add_edge(v[4], v[5], 0.5);
        b.add_edge(v[5], v[0], 0.5);
        b.add_edge_sym(v[2], v[4], 1.25);
        let g = b.build();
        assert_engine_matches_reference(&g, "directed");
    }

    #[test]
    fn engine_matches_reference_with_zero_weight_edges() {
        // Zero weights force the degenerate-tie fallback; results must
        // still match the reference loop exactly.
        let mut b = NetworkBuilder::new();
        let v: Vec<_> = (0..5).map(|i| b.add_vertex(Point::new(i as f64, 0.0))).collect();
        b.add_edge_sym(v[2], v[0], 0.0);
        b.add_edge_sym(v[0], v[1], 0.0);
        b.add_edge_sym(v[1], v[3], 1.0);
        b.add_edge_sym(v[3], v[4], 0.0);
        let g = b.build();
        assert_engine_matches_reference(&g, "zero weights");
    }

    #[test]
    fn engine_matches_reference_with_denormal_small_weights() {
        // w > 0 but d + w == d in f64: the subtle degeneracy the flag must
        // catch (the classic restart owns tie semantics here).
        let mut b = NetworkBuilder::new();
        let v: Vec<_> = (0..4).map(|i| b.add_vertex(Point::new(i as f64, 0.0))).collect();
        b.add_edge_sym(v[3], v[0], 1.0);
        b.add_edge_sym(v[0], v[1], 1e-300);
        b.add_edge_sym(v[1], v[2], 1e-300);
        let g = b.build();
        assert_engine_matches_reference(&g, "denormal weights");
    }

    #[test]
    fn workspace_reuse_across_graphs_of_different_sizes() {
        let big = grid_network(&GridConfig { rows: 8, cols: 8, seed: 1, ..Default::default() });
        let small = line_with_shortcut();
        let mut ws = SsspWorkspace::new();
        let _ = full_sssp_into(&big, VertexId(40), &mut ws);
        // The smaller graph must not see the bigger graph's stale state.
        let run = full_sssp_into(&small, VertexId(0), &mut ws);
        let tree = run.to_tree();
        assert_eq!(tree.dist, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(tree.dist.len(), small.vertex_count());
    }

    #[test]
    fn workspace_invariant_hides_unreachable_stale_state() {
        // Run on a connected graph, then on a disconnected one: the isolated
        // vertex must read as unreachable even though its buffer slot holds
        // stale parent/hop data from the first run.
        let connected = line_with_shortcut();
        let mut b = NetworkBuilder::new();
        let a = b.add_vertex(Point::new(0.0, 0.0));
        let c = b.add_vertex(Point::new(1.0, 0.0));
        let _iso = b.add_vertex(Point::new(5.0, 5.0));
        b.add_edge_sym(a, c, 1.0);
        let disconnected = b.build();

        let mut ws = SsspWorkspace::new();
        let _ = full_sssp_into(&connected, VertexId(0), &mut ws);
        let run = full_sssp_into(&disconnected, a, &mut ws);
        assert!(!run.reached(VertexId(2)));
        assert!(run.dist(VertexId(2)).is_infinite());
        assert_eq!(run.parent(VertexId(2)), NO_VERTEX);
        assert_eq!(run.first_hop(VertexId(2)), NO_HOP);
        assert!(run.path_to(VertexId(2)).is_none());
        assert_eq!(run.visited(), 2);
    }

    #[test]
    fn dist_slice_is_fully_valid() {
        let g = line_with_shortcut();
        let mut ws = SsspWorkspace::new();
        let run = full_sssp_into(&g, VertexId(1), &mut ws);
        assert_eq!(run.dist_slice(), &[1.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn min_heap_pops_sorted() {
        // Deterministic pseudo-random keys: the heap must pop them in
        // ascending u128 order (= ascending (dist, vertex)).
        let mut heap = MinHeap::default();
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut keys = Vec::new();
        for i in 0..500u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = pack((x % 1_000_000) as f64, i);
            keys.push(key);
            heap.push(key);
        }
        keys.sort_unstable();
        let mut popped = Vec::new();
        while let Some(k) = heap.pop() {
            popped.push(k);
        }
        assert_eq!(popped, keys);
    }

    #[test]
    fn pack_preserves_order() {
        let samples = [0.0, 1e-12, 0.5, 1.0, 1.5, 1e9, 1e300];
        for (i, &a) in samples.iter().enumerate() {
            for &b in &samples[i + 1..] {
                assert!(pack(a, 7) < pack(b, 3), "order broken for {a} vs {b}");
            }
            assert!(pack(a, 3) < pack(a, 4), "vertex tie-break broken at {a}");
        }
    }

    #[test]
    fn point_to_point_early_exit_visits_fewer() {
        let g = line_with_shortcut();
        let r = point_to_point(&g, VertexId(0), VertexId(1)).unwrap();
        assert_eq!(r.distance, 1.0);
        assert_eq!(r.path, vec![VertexId(0), VertexId(1)]);
        assert!(r.visited <= 2, "early exit should settle at most 2, got {}", r.visited);
    }

    #[test]
    fn point_to_point_unreachable_is_none() {
        let mut b = NetworkBuilder::new();
        let a = b.add_vertex(Point::new(0.0, 0.0));
        let c = b.add_vertex(Point::new(1.0, 0.0));
        b.add_edge(a, c, 1.0); // one-way: c cannot reach a
        let g = b.build();
        assert!(point_to_point(&g, c, a).is_none());
        assert_eq!(distance(&g, a, c), Some(1.0));
    }

    #[test]
    fn expander_settles_in_distance_order() {
        let g = line_with_shortcut();
        let mut exp = Expander::new(&g, VertexId(0));
        let mut last = -1.0;
        let mut order = Vec::new();
        while let Some((v, d)) = exp.next_settled() {
            assert!(d >= last);
            last = d;
            order.push(v.0);
        }
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert_eq!(exp.visited(), 4);
        assert!(exp.edges_relaxed() > 0);
    }

    #[test]
    fn settle_until_matches_expander_and_stops_early() {
        let g = road_network(&RoadConfig { vertices: 120, seed: 9, ..Default::default() });
        let mut ws = SsspWorkspace::new();
        for s in [VertexId(0), VertexId(57)] {
            // Full run: settle order and distances equal the Expander's.
            let mut got = Vec::new();
            let visited = sssp_settle_until(&g, s, &mut ws, |v, d| {
                got.push((v, d));
                true
            });
            let mut exp = Expander::new(&g, s);
            let mut want = Vec::new();
            while let Some(step) = exp.next_settled() {
                want.push(step);
            }
            assert_eq!(visited, want.len());
            assert_eq!(got.len(), want.len());
            for ((gv, gd), (wv, wd)) in got.iter().zip(&want) {
                assert_eq!(gv, wv, "settle order diverges from the classic loop");
                assert_eq!(gd.to_bits(), wd.to_bits(), "settled distance bits differ at {gv}");
            }
            // Truncated run: stop after the 10th settle; the reused
            // workspace must still produce identical prefixes.
            let mut prefix = Vec::new();
            let visited = sssp_settle_until(&g, s, &mut ws, |v, d| {
                prefix.push((v, d));
                prefix.len() < 10
            });
            assert_eq!(visited, 10);
            assert_eq!(&prefix[..], &got[..10]);
        }
    }

    #[test]
    fn deterministic_tie_breaking() {
        // Two equidistant vertices settle in id order.
        let mut b = NetworkBuilder::new();
        let s = b.add_vertex(Point::new(0.0, 0.0));
        let a = b.add_vertex(Point::new(1.0, 0.0));
        let c = b.add_vertex(Point::new(-1.0, 0.0));
        b.add_edge_sym(s, a, 1.0);
        b.add_edge_sym(s, c, 1.0);
        let g = b.build();
        let mut exp = Expander::new(&g, s);
        exp.next_settled(); // s
        assert_eq!(exp.next_settled().unwrap().0, a);
        assert_eq!(exp.next_settled().unwrap().0, c);
    }
}
