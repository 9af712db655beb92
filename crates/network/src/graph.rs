//! The spatial network graph.

use serde::{Deserialize, Serialize};
use silc_geom::{Point, Rect};

/// Identifier of a network vertex.
///
/// A thin `u32` newtype: networks of interest (road networks) have well under
/// 2³² vertices and halving the id size keeps adjacency arrays and priority
/// queue entries compact.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct VertexId(pub u32);

impl VertexId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for VertexId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A directed, weighted graph with a planar position at every vertex, stored
/// in compressed sparse row (CSR) form.
///
/// Invariants (established by [`NetworkBuilder::build`]):
/// * adjacency lists are sorted by target id (deterministic iteration and
///   `O(log deg)` weight lookup),
/// * all weights are finite and non-negative,
/// * `offsets.len() == vertex_count() + 1`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpatialNetwork {
    positions: Vec<Point>,
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<f64>,
    bounds: Rect,
    /// Reverse CSR (in-edges), built eagerly at construction: the two-phase
    /// SSSP engine derives parents from final distances by scanning each
    /// vertex's in-edges.
    rev_offsets: Vec<u32>,
    rev_sources: Vec<u32>,
    rev_weights: Vec<f64>,
    /// Cached weight statistics (min/mean/max over all edges), used to size
    /// the SSSP engine's bucket queue. 0.0 on edgeless graphs.
    min_weight: f64,
    mean_weight: f64,
    max_weight: f64,
}

/// Assembles the full network from forward-CSR parts: derives the reverse
/// CSR and the cached weight statistics. Single construction point shared by
/// the builder and deserialization.
fn finalize_network(
    positions: Vec<Point>,
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<f64>,
    bounds: Rect,
) -> SpatialNetwork {
    let n = positions.len();
    let m = targets.len();
    let mut rev_offsets = vec![0u32; n + 1];
    for &t in &targets {
        rev_offsets[t as usize + 1] += 1;
    }
    for i in 0..n {
        rev_offsets[i + 1] += rev_offsets[i];
    }
    let mut cursor = rev_offsets.clone();
    let mut rev_sources = vec![0u32; m];
    let mut rev_weights = vec![0.0f64; m];
    for u in 0..n {
        for e in offsets[u] as usize..offsets[u + 1] as usize {
            let t = targets[e] as usize;
            let slot = cursor[t] as usize;
            rev_sources[slot] = u as u32;
            rev_weights[slot] = weights[e];
            cursor[t] += 1;
        }
    }
    // Forward targets are scanned in ascending source order, so each
    // in-edge list is sorted by source id — deterministic iteration.
    let (mut min_w, mut max_w, mut sum_w) = (f64::INFINITY, 0.0f64, 0.0f64);
    for &w in &weights {
        min_w = min_w.min(w);
        max_w = max_w.max(w);
        sum_w += w;
    }
    let (min_weight, mean_weight) = if m == 0 { (0.0, 0.0) } else { (min_w, sum_w / m as f64) };
    SpatialNetwork {
        positions,
        offsets,
        targets,
        weights,
        bounds,
        rev_offsets,
        rev_sources,
        rev_weights,
        min_weight,
        mean_weight,
        max_weight: max_w,
    }
}

impl SpatialNetwork {
    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.positions.len()
    }

    /// Number of directed edges (a two-way road contributes two).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Position of vertex `v`.
    #[inline]
    pub fn position(&self, v: VertexId) -> Point {
        self.positions[v.index()]
    }

    /// All vertex positions, indexed by vertex id.
    #[inline]
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Bounding rectangle of all vertex positions.
    #[inline]
    pub fn bounds(&self) -> &Rect {
        &self.bounds
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.positions.len() as u32).map(VertexId)
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        let i = v.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Outgoing edges of `v` as `(target, weight)` pairs, sorted by target.
    #[inline]
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, f64)> + '_ {
        let i = v.index();
        let range = self.offsets[i] as usize..self.offsets[i + 1] as usize;
        self.targets[range.clone()]
            .iter()
            .zip(&self.weights[range])
            .map(|(&t, &w)| (VertexId(t), w))
    }

    /// Outgoing edges of `v` as raw parallel `(targets, weights)` slices —
    /// the zero-overhead form the SSSP inner loops iterate; slot `i` of the
    /// pair is the `i`-th sorted out-edge (the SILC color index).
    #[inline]
    pub fn out_edge_slices(&self, v: VertexId) -> (&[u32], &[f64]) {
        let i = v.index();
        let range = self.offsets[i] as usize..self.offsets[i + 1] as usize;
        (&self.targets[range.clone()], &self.weights[range])
    }

    /// Incoming edges of `v` as raw parallel `(sources, weights)` slices,
    /// sorted by source id. Backed by a reverse CSR built at construction.
    #[inline]
    pub fn in_edge_slices(&self, v: VertexId) -> (&[u32], &[f64]) {
        let i = v.index();
        let range = self.rev_offsets[i] as usize..self.rev_offsets[i + 1] as usize;
        (&self.rev_sources[range.clone()], &self.rev_weights[range])
    }

    /// Smallest edge weight (0.0 for edgeless graphs).
    #[inline]
    pub fn min_weight(&self) -> f64 {
        self.min_weight
    }

    /// Mean edge weight (0.0 for edgeless graphs).
    #[inline]
    pub fn mean_weight(&self) -> f64 {
        self.mean_weight
    }

    /// Largest edge weight (0.0 for edgeless graphs).
    #[inline]
    pub fn max_weight(&self) -> f64 {
        self.max_weight
    }

    /// The `slot`-th outgoing edge of `v` (slots index the sorted adjacency
    /// list; SILC colors are slot indices).
    ///
    /// # Panics
    /// Panics if `slot >= out_degree(v)`.
    #[inline]
    pub fn out_edge(&self, v: VertexId, slot: usize) -> (VertexId, f64) {
        let base = self.offsets[v.index()] as usize;
        debug_assert!(slot < self.out_degree(v));
        (VertexId(self.targets[base + slot]), self.weights[base + slot])
    }

    /// The weight of edge `u → v`, or `None` when absent. `O(log deg(u))`.
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<f64> {
        let i = u.index();
        let range = self.offsets[i] as usize..self.offsets[i + 1] as usize;
        let slice = &self.targets[range.clone()];
        slice.binary_search(&v.0).ok().map(|pos| self.weights[range.start + pos])
    }

    /// The slot index of edge `u → v` in `u`'s adjacency list, or `None`.
    pub fn edge_slot(&self, u: VertexId, v: VertexId) -> Option<usize> {
        let i = u.index();
        let range = self.offsets[i] as usize..self.offsets[i + 1] as usize;
        self.targets[range].binary_search(&v.0).ok()
    }

    /// Euclidean distance between the positions of `u` and `v`.
    #[inline]
    pub fn euclidean(&self, u: VertexId, v: VertexId) -> f64 {
        self.position(u).distance(&self.position(v))
    }

    /// The minimum over all edges of `weight / euclidean_length`.
    ///
    /// Scaling Euclidean distances by this ratio yields a valid
    /// network-distance lower bound (IER's candidate filter). Edges between
    /// coincident points are skipped; returns 1.0 for edgeless graphs,
    /// capped at 1.0 since the trivial bound `d_N ≥ 0` must stay valid for
    /// ratio-based reasoning on arbitrary vertex pairs.
    pub fn min_weight_ratio(&self) -> f64 {
        let mut ratio = f64::INFINITY;
        for u in self.vertices() {
            for (v, w) in self.out_edges(u) {
                let e = self.euclidean(u, v);
                if e > 0.0 {
                    ratio = ratio.min(w / e);
                }
            }
        }
        if ratio.is_finite() {
            ratio.clamp(0.0, 1.0)
        } else {
            1.0
        }
    }

    /// The vertex whose position is nearest to `p` (linear scan; use a
    /// spatial index for repeated queries).
    pub fn nearest_vertex(&self, p: &Point) -> Option<VertexId> {
        self.positions
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.distance_sq(p).partial_cmp(&b.distance_sq(p)).expect("positions are finite")
            })
            .map(|(i, _)| VertexId(i as u32))
    }

    /// Raw parts, for serialization.
    pub(crate) fn into_parts(self) -> (Vec<Point>, Vec<u32>, Vec<u32>, Vec<f64>) {
        (self.positions, self.offsets, self.targets, self.weights)
    }

    /// Rebuilds from raw parts, revalidating the CSR invariants.
    pub(crate) fn from_parts(
        positions: Vec<Point>,
        offsets: Vec<u32>,
        targets: Vec<u32>,
        weights: Vec<f64>,
    ) -> Result<Self, String> {
        if offsets.len() != positions.len() + 1 {
            return Err("offsets length mismatch".into());
        }
        if targets.len() != weights.len() {
            return Err("targets/weights length mismatch".into());
        }
        if *offsets.last().unwrap_or(&0) as usize != targets.len() {
            return Err("final offset does not match edge count".into());
        }
        let n = positions.len() as u32;
        if targets.iter().any(|&t| t >= n) {
            return Err("edge target out of range".into());
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err("non-finite or negative edge weight".into());
        }
        let bounds = Rect::bounding(&positions).unwrap_or_else(|| Rect::new(0.0, 0.0, 1.0, 1.0));
        Ok(finalize_network(positions, offsets, targets, weights, bounds))
    }
}

/// Incremental builder for [`SpatialNetwork`].
#[derive(Debug, Default, Clone)]
pub struct NetworkBuilder {
    positions: Vec<Point>,
    edges: Vec<(u32, u32, f64)>,
}

impl NetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with preallocated capacity.
    pub fn with_capacity(vertices: usize, edges: usize) -> Self {
        NetworkBuilder { positions: Vec::with_capacity(vertices), edges: Vec::with_capacity(edges) }
    }

    /// Adds a vertex at `p`, returning its id.
    ///
    /// # Panics
    /// Panics if `p` has non-finite coordinates.
    pub fn add_vertex(&mut self, p: Point) -> VertexId {
        assert!(p.is_finite(), "vertex position must be finite");
        let id = VertexId(self.positions.len() as u32);
        self.positions.push(p);
        id
    }

    /// Number of vertices added so far.
    pub fn vertex_count(&self) -> usize {
        self.positions.len()
    }

    /// Adds a directed edge `u → v` with travel cost `w`.
    ///
    /// # Panics
    /// Panics if either endpoint is unknown, if `w` is negative or
    /// non-finite, or on a self loop.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, w: f64) {
        assert!(u.index() < self.positions.len(), "unknown source vertex {u}");
        assert!(v.index() < self.positions.len(), "unknown target vertex {v}");
        assert!(w.is_finite() && w >= 0.0, "edge weight must be finite and non-negative");
        assert_ne!(u, v, "self loops are not allowed in spatial networks");
        self.edges.push((u.0, v.0, w));
    }

    /// Adds the two directed edges of a two-way road segment.
    pub fn add_edge_sym(&mut self, u: VertexId, v: VertexId, w: f64) {
        self.add_edge(u, v, w);
        self.add_edge(v, u, w);
    }

    /// Adds a two-way road whose cost is the Euclidean length times
    /// `detour_factor` (≥ 1 for realistic roads).
    pub fn add_road(&mut self, u: VertexId, v: VertexId, detour_factor: f64) {
        let w = self.positions[u.index()].distance(&self.positions[v.index()]) * detour_factor;
        self.add_edge_sym(u, v, w);
    }

    /// Finalizes the CSR representation. Duplicate parallel edges are merged
    /// keeping the cheapest weight.
    pub fn build(mut self) -> SpatialNetwork {
        let n = self.positions.len();
        // Sort by (source, target, weight); dedup keeps the first = cheapest.
        self.edges.sort_by(|a, b| {
            (a.0, a.1).cmp(&(b.0, b.1)).then(a.2.partial_cmp(&b.2).expect("finite weights"))
        });
        self.edges.dedup_by_key(|e| (e.0, e.1));

        let mut offsets = vec![0u32; n + 1];
        for &(u, _, _) in &self.edges {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let targets: Vec<u32> = self.edges.iter().map(|e| e.1).collect();
        let weights: Vec<f64> = self.edges.iter().map(|e| e.2).collect();
        let bounds =
            Rect::bounding(&self.positions).unwrap_or_else(|| Rect::new(0.0, 0.0, 1.0, 1.0));
        finalize_network(self.positions, offsets, targets, weights, bounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the small test network used throughout this module:
    ///
    /// ```text
    ///   2 --- 3
    ///   |     |
    ///   0 --- 1
    /// ```
    fn square() -> SpatialNetwork {
        let mut b = NetworkBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(1.0, 0.0));
        let v2 = b.add_vertex(Point::new(0.0, 1.0));
        let v3 = b.add_vertex(Point::new(1.0, 1.0));
        b.add_edge_sym(v0, v1, 1.0);
        b.add_edge_sym(v0, v2, 1.0);
        b.add_edge_sym(v1, v3, 1.0);
        b.add_edge_sym(v2, v3, 1.5);
        b.build()
    }

    #[test]
    fn counts() {
        let g = square();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 8);
    }

    #[test]
    fn adjacency_sorted_by_target() {
        let g = square();
        let targets: Vec<u32> = g.out_edges(VertexId(0)).map(|(v, _)| v.0).collect();
        assert_eq!(targets, vec![1, 2]);
        let targets: Vec<u32> = g.out_edges(VertexId(3)).map(|(v, _)| v.0).collect();
        assert_eq!(targets, vec![1, 2]);
    }

    #[test]
    fn edge_weight_lookup() {
        let g = square();
        assert_eq!(g.edge_weight(VertexId(2), VertexId(3)), Some(1.5));
        assert_eq!(g.edge_weight(VertexId(3), VertexId(2)), Some(1.5));
        assert_eq!(g.edge_weight(VertexId(0), VertexId(3)), None);
    }

    #[test]
    fn edge_slot_matches_out_edge() {
        let g = square();
        for u in g.vertices() {
            for (slot, (v, w)) in g.out_edges(u).enumerate() {
                assert_eq!(g.edge_slot(u, v), Some(slot));
                assert_eq!(g.out_edge(u, slot), (v, w));
            }
        }
    }

    #[test]
    fn duplicate_edges_keep_cheapest() {
        let mut b = NetworkBuilder::new();
        let u = b.add_vertex(Point::new(0.0, 0.0));
        let v = b.add_vertex(Point::new(1.0, 0.0));
        b.add_edge(u, v, 5.0);
        b.add_edge(u, v, 2.0);
        b.add_edge(u, v, 9.0);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_weight(u, v), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "self loops")]
    fn self_loop_rejected() {
        let mut b = NetworkBuilder::new();
        let u = b.add_vertex(Point::new(0.0, 0.0));
        b.add_edge(u, u, 1.0);
    }

    #[test]
    #[should_panic(expected = "unknown target")]
    fn unknown_vertex_rejected() {
        let mut b = NetworkBuilder::new();
        let u = b.add_vertex(Point::new(0.0, 0.0));
        b.add_edge(u, VertexId(7), 1.0);
    }

    #[test]
    fn bounds_cover_positions() {
        let g = square();
        assert_eq!(*g.bounds(), Rect::new(0.0, 0.0, 1.0, 1.0));
    }

    #[test]
    fn nearest_vertex_finds_closest() {
        let g = square();
        assert_eq!(g.nearest_vertex(&Point::new(0.1, 0.2)), Some(VertexId(0)));
        assert_eq!(g.nearest_vertex(&Point::new(0.9, 0.9)), Some(VertexId(3)));
    }

    #[test]
    fn min_weight_ratio_of_unit_square() {
        let g = square();
        // All weights equal Euclidean length except 2-3 (1.5 > 1.0), so the
        // minimum ratio is 1.0 (capped).
        assert_eq!(g.min_weight_ratio(), 1.0);
    }

    #[test]
    fn min_weight_ratio_detects_shortcuts() {
        let mut b = NetworkBuilder::new();
        let u = b.add_vertex(Point::new(0.0, 0.0));
        let v = b.add_vertex(Point::new(2.0, 0.0));
        b.add_edge(u, v, 1.0); // weight below Euclidean length
        let g = b.build();
        assert_eq!(g.min_weight_ratio(), 0.5);
    }

    #[test]
    fn empty_network() {
        let g = NetworkBuilder::new().build();
        assert_eq!(g.vertex_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.min_weight_ratio(), 1.0);
        assert_eq!(g.nearest_vertex(&Point::new(0.0, 0.0)), None);
    }

    #[test]
    fn roundtrip_parts() {
        let g = square();
        let (p, o, t, w) = g.clone().into_parts();
        let g2 = SpatialNetwork::from_parts(p, o, t, w).unwrap();
        assert_eq!(g2.vertex_count(), g.vertex_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        assert_eq!(g2.edge_weight(VertexId(2), VertexId(3)), Some(1.5));
    }

    #[test]
    fn from_parts_validates() {
        assert!(SpatialNetwork::from_parts(vec![Point::new(0.0, 0.0)], vec![0], vec![], vec![])
            .is_err()); // offsets too short
        assert!(SpatialNetwork::from_parts(
            vec![Point::new(0.0, 0.0)],
            vec![0, 1],
            vec![5],
            vec![1.0]
        )
        .is_err()); // target out of range
        assert!(SpatialNetwork::from_parts(
            vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)],
            vec![0, 1, 1],
            vec![1],
            vec![f64::NAN]
        )
        .is_err()); // NaN weight
    }
}
