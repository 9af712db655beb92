//! Shortest-path retrieval in size-of-path steps.
//!
//! With a SILC index, the shortest path `s → d` is recovered hop by hop:
//! look up `d`'s colored block in `s`'s quadtree, move to the indicated
//! neighbor `t`, look up `d` in `t`'s quadtree, and so on (paper p.17).
//! Each step costs one `O(log n)` block lookup, so the whole retrieval is
//! `O(k log n)` for a `k`-edge path — no Dijkstra, no visited set.

use crate::browser::DistanceBrowser;
use crate::error::BuildError;
use silc_network::VertexId;

/// A retrieved shortest path.
#[derive(Debug, Clone, PartialEq)]
pub struct SilcPath {
    /// Vertices along the path; `path[0]` is the source, the last element
    /// the destination.
    pub path: Vec<VertexId>,
    /// Total network distance.
    pub distance: f64,
}

impl SilcPath {
    /// Number of edges on the path.
    pub fn edge_count(&self) -> usize {
        self.path.len().saturating_sub(1)
    }
}

/// Retrieves the shortest path `s → d` by repeated next-hop lookups.
///
/// Fails with [`BuildError::Corrupt`] if the walk does not reach `d` within
/// `n` hops, which can only happen when the index does not belong to this
/// network, and with the lifted [`crate::QueryError`] when a lookup fails
/// (a corrupt record or page, a store fault).
pub fn shortest_path<B: DistanceBrowser + ?Sized>(
    b: &B,
    s: VertexId,
    d: VertexId,
) -> Result<SilcPath, BuildError> {
    let n = b.network().vertex_count();
    let mut path = Vec::with_capacity(16);
    path.push(s);
    let mut cur = s;
    let mut distance = 0.0;
    while cur != d {
        let (next, w) = b
            .try_next_hop(cur, d)?
            .ok_or_else(|| BuildError::Corrupt("next_hop returned None before target".into()))?;
        distance += w;
        cur = next;
        path.push(cur);
        if path.len() > n {
            return Err(BuildError::Corrupt(
                "next-hop walk exceeded vertex count; index does not match network".into(),
            ));
        }
    }
    Ok(SilcPath { path, distance })
}

/// The exact network distance `s → d` via path retrieval.
///
/// Prefer [`crate::refine::RefinableDistance`] when an interval suffices —
/// this walks the entire path.
pub fn network_distance<B: DistanceBrowser + ?Sized>(
    b: &B,
    s: VertexId,
    d: VertexId,
) -> Result<f64, BuildError> {
    // Walk without materializing the path vector.
    let n = b.network().vertex_count();
    let mut cur = s;
    let mut distance = 0.0;
    let mut hops = 0usize;
    while cur != d {
        let (next, w) = b
            .try_next_hop(cur, d)?
            .ok_or_else(|| BuildError::Corrupt("next_hop returned None before target".into()))?;
        distance += w;
        cur = next;
        hops += 1;
        if hops > n {
            return Err(BuildError::Corrupt(
                "next-hop walk exceeded vertex count; index does not match network".into(),
            ));
        }
    }
    Ok(distance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{BuildConfig, SilcIndex};
    use silc_network::dijkstra;
    use silc_network::generate::{road_network, RoadConfig};
    use std::sync::Arc;

    fn index() -> SilcIndex {
        let g = road_network(&RoadConfig { vertices: 150, seed: 77, ..Default::default() });
        SilcIndex::build(Arc::new(g), &BuildConfig { grid_exponent: 9, threads: 0 }).unwrap()
    }

    #[test]
    fn paths_are_valid_and_optimal() {
        let idx = index();
        let g = idx.network();
        for &(s, d) in &[(0u32, 149u32), (10, 11), (77, 3), (5, 5)] {
            let (s, d) = (VertexId(s), VertexId(d));
            let p = shortest_path(&idx, s, d).unwrap();
            assert_eq!(*p.path.first().unwrap(), s);
            assert_eq!(*p.path.last().unwrap(), d);
            // Each consecutive pair is a real edge whose weights sum to the
            // reported distance.
            let mut sum = 0.0;
            for w in p.path.windows(2) {
                sum += g.edge_weight(w[0], w[1]).expect("path uses real edges");
            }
            assert!((sum - p.distance).abs() < 1e-9);
            // And the distance is optimal.
            let truth = dijkstra::distance(g, s, d).unwrap();
            assert!((p.distance - truth).abs() < 1e-9, "{s}->{d}: {} vs {truth}", p.distance);
        }
    }

    #[test]
    fn trivial_path() {
        let idx = index();
        let p = shortest_path(&idx, VertexId(4), VertexId(4)).unwrap();
        assert_eq!(p.path, vec![VertexId(4)]);
        assert_eq!(p.distance, 0.0);
        assert_eq!(p.edge_count(), 0);
    }

    #[test]
    fn network_distance_equals_path_distance() {
        let idx = index();
        for &(s, d) in &[(3u32, 120u32), (99, 100)] {
            let (s, d) = (VertexId(s), VertexId(d));
            let via_path = shortest_path(&idx, s, d).unwrap().distance;
            let direct = network_distance(&idx, s, d).unwrap();
            assert!((via_path - direct).abs() < 1e-12);
        }
    }

    #[test]
    fn retrieval_touches_only_path_vertices() {
        // The headline claim (paper p.3): SILC retrieves the path in
        // size-of-path steps while Dijkstra settles most of the network.
        let idx = index();
        let g = idx.network();
        let (s, d) = (VertexId(0), VertexId(149));
        let p = shortest_path(&idx, s, d).unwrap();
        let dij = dijkstra::point_to_point(g, s, d).unwrap();
        assert!(
            p.path.len() < dij.visited,
            "SILC touched {} vertices, Dijkstra settled {}",
            p.path.len(),
            dij.visited
        );
    }
}
