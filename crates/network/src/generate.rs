//! Synthetic road-network generators.
//!
//! The paper evaluates on a TIGER-derived extract of the US eastern seaboard
//! (91,113 vertices, 114,176 edges — "important roads", so a sparse,
//! near-planar network with m/n ≈ 1.25 and near-Euclidean edge costs). We do
//! not have that proprietary extract; these generators produce synthetic
//! networks with the same structural properties SILC's guarantees rest on:
//! planar embedding, spatial coherence of shortest paths, and edge weights
//! proportional to geometric length.
//!
//! * [`grid_network`] — a perturbed partial grid: guaranteed connected via a
//!   random spanning tree, plus a tunable fraction of the remaining grid
//!   edges. Fast and parameter-free enough for unit tests.
//! * [`road_network`] — random points joined by a Gabriel-style proximity
//!   graph, thinned to a target edge/vertex ratio on top of a Euclidean
//!   minimum spanning tree. This is the workload generator the experiment
//!   harness uses.

use crate::analysis::DisjointSets;
use crate::{NetworkBuilder, SpatialNetwork, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silc_geom::Point;

/// Configuration for [`grid_network`].
#[derive(Debug, Clone)]
pub struct GridConfig {
    /// Grid rows (vertices along y).
    pub rows: usize,
    /// Grid columns (vertices along x).
    pub cols: usize,
    /// World-space distance between neighboring grid points.
    pub spacing: f64,
    /// Position jitter as a fraction of `spacing` (kept < 0.5 so neighbor
    /// geometry stays sane).
    pub jitter: f64,
    /// Probability of keeping each non-spanning-tree grid edge.
    pub keep_prob: f64,
    /// Edge weight is Euclidean length × `(1 + U(0, detour))`.
    pub detour: f64,
    /// RNG seed; equal seeds produce identical networks.
    pub seed: u64,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig {
            rows: 16,
            cols: 16,
            spacing: 1.0,
            jitter: 0.25,
            keep_prob: 0.85,
            detour: 0.2,
            seed: 42,
        }
    }
}

/// Generates a connected, perturbed partial-grid road network.
///
/// All `rows × cols` vertices are present and mutually reachable: a uniform
/// random spanning tree (via random edge weights + Kruskal) is always kept,
/// and every other grid edge survives with probability `keep_prob`.
pub fn grid_network(cfg: &GridConfig) -> SpatialNetwork {
    assert!(cfg.rows >= 1 && cfg.cols >= 1, "grid must be at least 1x1");
    assert!(cfg.jitter >= 0.0 && cfg.jitter < 0.5, "jitter must be in [0, 0.5)");
    assert!((0.0..=1.0).contains(&cfg.keep_prob), "keep_prob must be a probability");
    assert!(cfg.detour >= 0.0, "detour must be non-negative");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut b = NetworkBuilder::with_capacity(cfg.rows * cfg.cols, cfg.rows * cfg.cols * 4);

    let at = |r: usize, c: usize| VertexId((r * cfg.cols + c) as u32);
    for r in 0..cfg.rows {
        for c in 0..cfg.cols {
            let jx = rng.gen_range(-cfg.jitter..=cfg.jitter) * cfg.spacing;
            let jy = rng.gen_range(-cfg.jitter..=cfg.jitter) * cfg.spacing;
            b.add_vertex(Point::new(c as f64 * cfg.spacing + jx, r as f64 * cfg.spacing + jy));
        }
    }

    // Candidate edges: right and up neighbors, each tagged with a random
    // priority; Kruskal over priorities yields a uniform-ish spanning tree.
    let mut candidates: Vec<(f64, VertexId, VertexId)> = Vec::new();
    for r in 0..cfg.rows {
        for c in 0..cfg.cols {
            if c + 1 < cfg.cols {
                candidates.push((rng.gen::<f64>(), at(r, c), at(r, c + 1)));
            }
            if r + 1 < cfg.rows {
                candidates.push((rng.gen::<f64>(), at(r, c), at(r + 1, c)));
            }
        }
    }
    candidates.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut sets = DisjointSets::new(cfg.rows * cfg.cols);
    for &(_, u, v) in &candidates {
        let in_tree = sets.union(u.0, v.0);
        if in_tree || rng.gen::<f64>() < cfg.keep_prob {
            let detour = 1.0 + rng.gen_range(0.0..=cfg.detour);
            b.add_road(u, v, detour);
        }
    }
    b.build()
}

/// Configuration for [`road_network`].
#[derive(Debug, Clone)]
pub struct RoadConfig {
    /// Number of vertices.
    pub vertices: usize,
    /// Target undirected-edge/vertex ratio. The paper's network has ≈ 1.25.
    /// Values above the proximity graph's natural density (≈ 2) are capped.
    pub edge_factor: f64,
    /// Edge weight is Euclidean length × `(1 + U(0, detour))`.
    pub detour: f64,
    /// Side length of the square world the points are scattered in.
    pub extent: f64,
    /// RNG seed; equal seeds produce identical networks.
    pub seed: u64,
}

impl Default for RoadConfig {
    fn default() -> Self {
        RoadConfig { vertices: 1000, edge_factor: 1.25, detour: 0.2, extent: 1000.0, seed: 42 }
    }
}

/// Generates a connected road-like network from random points.
///
/// Pipeline: scatter points uniformly; build a Gabriel-style proximity graph
/// using a uniform cell grid (an edge `(u,v)` is kept when no third point
/// lies inside the circle with diameter `uv`, tested among each point's
/// nearby candidates); take its Euclidean minimum spanning tree to guarantee
/// connectivity (joining any component the proximity graph left isolated to
/// its nearest outside point); then add the shortest remaining proximity
/// edges until the undirected edge count reaches `edge_factor × n`.
pub fn road_network(cfg: &RoadConfig) -> SpatialNetwork {
    assert!(cfg.vertices >= 2, "need at least two vertices");
    assert!(cfg.edge_factor >= 1.0, "edge_factor below 1.0 cannot stay connected");
    assert!(cfg.extent > 0.0, "extent must be positive");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = cfg.vertices;
    let points: Vec<Point> = (0..n)
        .map(|_| Point::new(rng.gen_range(0.0..cfg.extent), rng.gen_range(0.0..cfg.extent)))
        .collect();

    let edges = gabriel_edges(&points, cfg.extent);

    // Kruskal MST over the proximity edges for guaranteed connectivity.
    let mut by_len: Vec<(f64, u32, u32)> = edges
        .iter()
        .map(|&(u, v)| (points[u as usize].distance(&points[v as usize]), u, v))
        .collect();
    by_len.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| (a.1, a.2).cmp(&(b.1, b.2))));

    let mut sets = DisjointSets::new(n);
    let mut chosen: Vec<(u32, u32)> = Vec::with_capacity(n * 2);
    let mut extras: Vec<(u32, u32)> = Vec::new();
    for &(_, u, v) in &by_len {
        if sets.union(u, v) {
            chosen.push((u, v));
        } else {
            extras.push((u, v));
        }
    }
    join_components(&points, &mut sets, &mut chosen);
    let target = ((cfg.edge_factor * n as f64).ceil() as usize).max(chosen.len());
    for &(u, v) in extras.iter() {
        if chosen.len() >= target {
            break;
        }
        chosen.push((u, v));
    }

    let mut b = NetworkBuilder::with_capacity(n, chosen.len() * 2);
    for &p in &points {
        b.add_vertex(p);
    }
    for &(u, v) in &chosen {
        let detour = 1.0 + rng.gen_range(0.0..=cfg.detour.max(f64::MIN_POSITIVE));
        b.add_road(VertexId(u), VertexId(v), detour);
    }
    let g = b.build();
    debug_assert!(crate::analysis::is_strongly_connected(&g));
    g
}

/// Joins the components a spanning forest left apart: while more than one
/// remains, links the smallest (lowest root id on ties) to its nearest
/// point in another component, ties broken by vertex ids. The proximity
/// graph's bounded neighbour search can miss every edge out of an isolated
/// cluster; a connected draw is left untouched, so its edges and RNG draws
/// stay exactly what they were.
fn join_components(points: &[Point], sets: &mut DisjointSets, chosen: &mut Vec<(u32, u32)>) {
    let n = points.len() as u32;
    while sets.component_count() > 1 {
        let roots: Vec<u32> = (0..n).map(|v| sets.find(v)).collect();
        let mut size = vec![0usize; n as usize];
        for &r in &roots {
            size[r as usize] += 1;
        }
        let stray = (0..n)
            .filter(|&v| roots[v as usize] == v)
            .min_by_key(|&r| (size[r as usize], r))
            .expect("at least two components");
        let mut best = (f64::INFINITY, 0, 0);
        for a in (0..n).filter(|&a| roots[a as usize] == stray) {
            for b in (0..n).filter(|&b| roots[b as usize] != stray) {
                let d = points[a as usize].distance_sq(&points[b as usize]);
                if d < best.0 {
                    best = (d, a, b);
                }
            }
        }
        let (_, a, b) = best;
        sets.union(a, b);
        chosen.push((a.min(b), a.max(b)));
    }
}

/// Gabriel-style proximity edges among `points`, computed with a uniform
/// cell grid: candidate neighbors are drawn from the surrounding cells, and
/// the empty-diametral-circle test runs against points near the midpoint.
fn gabriel_edges(points: &[Point], extent: f64) -> Vec<(u32, u32)> {
    let n = points.len();
    // ~2 points per cell on average.
    let cells_per_side = ((n as f64 / 2.0).sqrt().ceil() as usize).max(1);
    let cell = extent / cells_per_side as f64;
    let grid = CellGrid::build(points, cell, cells_per_side);

    let mut edges = Vec::with_capacity(n * 3);
    let mut candidates = Vec::new();
    for u in 0..n {
        candidates.clear();
        // Look for neighbors in growing rings until some are found; cap the
        // search radius to keep degenerate clusters from going quadratic.
        let mut ring = 1;
        while candidates.len() < 10 && ring <= cells_per_side {
            candidates.clear();
            grid.nearby(points[u], ring, &mut candidates);
            ring += 1;
        }
        for &v in &candidates {
            let v = v as usize;
            if v <= u {
                continue; // each undirected pair once
            }
            let mid = points[u].midpoint(&points[v]);
            let r_sq = points[u].distance_sq(&points[v]) / 4.0;
            // Empty diametral circle test among points near the midpoint.
            let ring_needed = ((r_sq.sqrt() / cell).ceil() as usize).max(1).min(cells_per_side);
            let mut witnesses = Vec::new();
            grid.nearby(mid, ring_needed, &mut witnesses);
            let blocked = witnesses.iter().any(|&w| {
                let w = w as usize;
                w != u && w != v && points[w].distance_sq(&mid) < r_sq - 1e-12
            });
            if !blocked {
                edges.push((u as u32, v as u32));
            }
        }
    }
    edges
}

/// A uniform bucket grid over points, for approximate neighborhood queries.
struct CellGrid {
    cells: Vec<Vec<u32>>,
    cell: f64,
    side: usize,
}

impl CellGrid {
    fn build(points: &[Point], cell: f64, side: usize) -> Self {
        let mut cells = vec![Vec::new(); side * side];
        for (i, p) in points.iter().enumerate() {
            let (cx, cy) = Self::cell_of(p, cell, side);
            cells[cy * side + cx].push(i as u32);
        }
        CellGrid { cells, cell, side }
    }

    fn cell_of(p: &Point, cell: f64, side: usize) -> (usize, usize) {
        let cx = ((p.x / cell) as isize).clamp(0, side as isize - 1) as usize;
        let cy = ((p.y / cell) as isize).clamp(0, side as isize - 1) as usize;
        (cx, cy)
    }

    /// Appends the indices of all points within `ring` cells of `p`'s cell.
    fn nearby(&self, p: Point, ring: usize, out: &mut Vec<u32>) {
        let (cx, cy) = Self::cell_of(&p, self.cell, self.side);
        let x0 = cx.saturating_sub(ring);
        let x1 = (cx + ring).min(self.side - 1);
        let y0 = cy.saturating_sub(ring);
        let y1 = (cy + ring).min(self.side - 1);
        for y in y0..=y1 {
            for x in x0..=x1 {
                out.extend_from_slice(&self.cells[y * self.side + x]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{is_strongly_connected, stats};

    #[test]
    fn grid_has_all_vertices_and_is_connected() {
        let g = grid_network(&GridConfig { rows: 10, cols: 14, ..Default::default() });
        assert_eq!(g.vertex_count(), 140);
        assert!(is_strongly_connected(&g));
    }

    #[test]
    fn grid_is_deterministic_per_seed() {
        let cfg = GridConfig { rows: 8, cols: 8, seed: 123, ..Default::default() };
        let a = grid_network(&cfg);
        let b = grid_network(&cfg);
        assert_eq!(a.edge_count(), b.edge_count());
        for v in a.vertices() {
            assert_eq!(a.position(v), b.position(v));
        }
        let c = grid_network(&GridConfig { seed: 124, ..cfg });
        // Different seed ⇒ (almost surely) different jitter.
        assert_ne!(a.position(VertexId(0)), c.position(VertexId(0)));
    }

    #[test]
    fn grid_keep_prob_zero_is_spanning_tree() {
        let g =
            grid_network(&GridConfig { rows: 9, cols: 9, keep_prob: 0.0, ..Default::default() });
        // Spanning tree: n-1 undirected edges = 2(n-1) arcs.
        assert_eq!(g.edge_count(), 2 * (81 - 1));
        assert!(is_strongly_connected(&g));
    }

    #[test]
    fn grid_weights_respect_detour_range() {
        let cfg = GridConfig { rows: 6, cols: 6, detour: 0.3, ..Default::default() };
        let g = grid_network(&cfg);
        for u in g.vertices() {
            for (v, w) in g.out_edges(u) {
                let e = g.euclidean(u, v);
                assert!(w >= e - 1e-9, "weight below Euclidean length");
                assert!(w <= e * 1.3 + 1e-9, "weight above detour cap");
            }
        }
    }

    #[test]
    fn road_network_is_connected_and_sized() {
        let cfg = RoadConfig { vertices: 500, edge_factor: 1.25, seed: 9, ..Default::default() };
        let g = road_network(&cfg);
        assert_eq!(g.vertex_count(), 500);
        assert!(is_strongly_connected(&g));
        let s = stats(&g);
        // Ratio should be at or slightly above the target (MST may exceed it
        // only for extreme configs) and well below Delaunay density.
        assert!(s.edge_vertex_ratio >= 0.99, "ratio {} too small", s.edge_vertex_ratio);
        assert!(s.edge_vertex_ratio <= 1.4, "ratio {} too large", s.edge_vertex_ratio);
    }

    #[test]
    fn road_network_joins_isolated_clusters() {
        // Draws whose proximity graph leaves a cluster with no edge out:
        // the spanning forest has more than one tree until it is repaired.
        for seed in [1168, 1529, 1585, 2089, 131378] {
            let g = road_network(&RoadConfig { vertices: 77, seed, ..Default::default() });
            assert_eq!(g.vertex_count(), 77);
            assert!(is_strongly_connected(&g), "seed {seed} is not strongly connected");
        }
    }

    #[test]
    fn road_network_deterministic_per_seed() {
        let cfg = RoadConfig { vertices: 300, seed: 5, ..Default::default() };
        let a = road_network(&cfg);
        let b = road_network(&cfg);
        assert_eq!(a.edge_count(), b.edge_count());
        for v in a.vertices() {
            assert_eq!(a.position(v), b.position(v));
        }
    }

    #[test]
    fn road_network_edge_factor_scales_density() {
        let sparse = road_network(&RoadConfig {
            vertices: 400,
            edge_factor: 1.0,
            seed: 11,
            ..Default::default()
        });
        let dense = road_network(&RoadConfig {
            vertices: 400,
            edge_factor: 1.6,
            seed: 11,
            ..Default::default()
        });
        assert!(dense.edge_count() > sparse.edge_count());
    }

    #[test]
    #[should_panic(expected = "edge_factor")]
    fn road_network_rejects_subcritical_factor() {
        road_network(&RoadConfig { edge_factor: 0.5, ..Default::default() });
    }

    #[test]
    fn gabriel_edges_of_square_exclude_long_diagonal() {
        // Four corners of a square plus the center: the diagonals' diametral
        // circles contain the center, so only rim + center edges survive.
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(0.0, 10.0),
            Point::new(10.0, 10.0),
            Point::new(5.0, 5.0),
        ];
        let edges = gabriel_edges(&pts, 10.0);
        let has = |a: u32, b: u32| edges.iter().any(|&(u, v)| (u, v) == (a.min(b), a.max(b)));
        assert!(!has(0, 3), "diagonal 0-3 must be blocked by the center");
        assert!(!has(1, 2), "diagonal 1-2 must be blocked by the center");
        assert!(has(0, 4) && has(1, 4) && has(2, 4) && has(3, 4));
    }
}
