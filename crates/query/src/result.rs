//! Query results and the statistics the paper's figures are plotted from.

use crate::objects::ObjectId;
use serde::Serialize;
use silc::DistInterval;
use silc_network::VertexId;

/// One reported neighbor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// The object.
    pub object: ObjectId,
    /// The vertex the object resides on.
    pub vertex: VertexId,
    /// The distance knowledge at confirmation time. Sorted algorithms
    /// (kNN, kNN-I, INN) confirm an object as soon as its interval cannot
    /// collide with anything else, so the interval may still be wide;
    /// it always contains the true network distance.
    pub interval: DistInterval,
}

/// Counters describing one query execution.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct QueryStats {
    /// Refinement operations performed (paper fig. p.35). Each advances one
    /// hop and costs at most one block lookup: none when the hop lands on
    /// the target.
    pub refinements: usize,
    /// Maximum size of the main priority queue `Q` (paper fig. p.34).
    pub max_queue: usize,
    /// Total queue insertions.
    pub queue_pushes: usize,
    /// Objects confirmed directly against `KMINDIST` (kNN-M only; paper
    /// fig. p.36).
    pub kmindist_pruned: usize,
    /// The early estimate `D⁰k` of the kth distance (kNN-I/kNN-M; paper
    /// fig. p.37).
    pub d0k: Option<f64>,
    /// The final `KMINDIST` estimate (kNN-M; paper fig. p.37).
    pub kmindist_final: Option<f64>,
    /// Upper bound on the kth neighbor distance at termination (`Dk`).
    pub dk_final: f64,
    /// Spatial-index probes (INE: object lookups per settled vertex; IER:
    /// Euclidean candidates drawn).
    pub index_queries: usize,
    /// Vertices settled by Dijkstra (INE and IER only).
    pub dijkstra_visited: usize,
    /// Upserts and removals on the candidate list `L` (the kNN algorithms
    /// only): the work of maintaining `L` and `Dk`, the cost the paper's
    /// fig. p.38 charges kNN for at large k. An exact count, not a timing.
    pub candidate_ops: usize,
}

/// The outcome of a k-nearest-neighbor query.
#[derive(Debug, Clone, Default)]
pub struct KnnResult {
    /// The neighbors, in confirmation order. For kNN, kNN-I, INN, INE and
    /// IER this is non-decreasing distance order; for kNN-M it is not
    /// (the point of that variant is skipping the total ordering).
    pub neighbors: Vec<Neighbor>,
    /// Execution counters.
    pub stats: QueryStats,
}

impl KnnResult {
    /// The neighbor objects as a set-comparison-friendly sorted vector.
    pub fn object_ids(&self) -> Vec<ObjectId> {
        let mut ids: Vec<ObjectId> = self.neighbors.iter().map(|n| n.object).collect();
        ids.sort_unstable();
        ids
    }

    /// `true` when neighbors are in non-decreasing order of interval lower
    /// bound (the sortedness guarantee of the non-`-M` algorithms).
    pub fn is_sorted(&self) -> bool {
        self.neighbors.windows(2).all(|w| w[0].interval.lo <= w[1].interval.lo + 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nb(o: u32, lo: f64, hi: f64) -> Neighbor {
        Neighbor { object: ObjectId(o), vertex: VertexId(o), interval: DistInterval::new(lo, hi) }
    }

    #[test]
    fn object_ids_are_sorted() {
        let r = KnnResult {
            neighbors: vec![nb(5, 1.0, 1.0), nb(2, 2.0, 2.0), nb(9, 3.0, 3.0)],
            stats: QueryStats::default(),
        };
        assert_eq!(r.object_ids(), vec![ObjectId(2), ObjectId(5), ObjectId(9)]);
    }

    #[test]
    fn sortedness_check() {
        let sorted = KnnResult {
            neighbors: vec![nb(0, 1.0, 2.0), nb(1, 1.5, 3.0)],
            stats: QueryStats::default(),
        };
        assert!(sorted.is_sorted());
        let unsorted = KnnResult {
            neighbors: vec![nb(0, 2.0, 2.0), nb(1, 1.0, 3.0)],
            stats: QueryStats::default(),
        };
        assert!(!unsorted.is_sorted());
    }
}
