//! The distance-browsing API shared by the in-memory and disk-resident
//! indexes.
//!
//! Everything the query algorithms in `silc-query` need is expressed through
//! [`DistanceBrowser`]: next-hop lookups, O(1)-after-lookup distance
//! intervals, and region lower bounds. The in-memory [`crate::SilcIndex`]
//! and the page-buffered [`crate::DiskSilcIndex`] both implement it, so every
//! kNN variant runs unchanged against either.

use crate::error::QueryError;
use crate::interval::DistInterval;
use crate::sp_quadtree::{BlockEntry, CellRect, COLOR_SOURCE};
use silc_geom::{GridMapper, Point, Rect};
use silc_morton::MortonCode;
use silc_network::{SpatialNetwork, VertexId};

/// Read access to a SILC index.
pub trait DistanceBrowser {
    /// The underlying spatial network.
    fn network(&self) -> &SpatialNetwork;

    /// The world → grid embedding the index was built with.
    fn mapper(&self) -> &GridMapper;

    /// The grid-cell Morton code assigned to vertex `v`.
    fn vertex_code(&self, v: VertexId) -> MortonCode;

    /// The block of `u`'s shortest-path quadtree containing `code`, if any.
    fn entry(&self, u: VertexId, code: MortonCode) -> Option<BlockEntry>;

    /// Minimum `λ−` over the blocks of `u`'s quadtree intersecting `rect`
    /// (see [`crate::SpQuadtree::min_lambda_in_rect`]).
    fn min_lambda(&self, u: VertexId, rect: &CellRect) -> Option<f64>;

    /// The network-wide minimum of `weight / euclidean_length`: the always
    /// valid fallback ratio for `d_network ≥ ratio · d_euclidean`.
    fn global_min_ratio(&self) -> f64;

    // ------------------------------------------------------------------
    // Fallible lookups
    // ------------------------------------------------------------------
    //
    // The disk-resident index can genuinely fail a lookup (an I/O error
    // that survived retries, a page that failed its checksum). The `try_*`
    // family surfaces that as a `QueryError`; the infallible methods stay
    // the convenient API for in-memory indexes and for callers that treat
    // a failed disk as fatal — they are wrappers that panic only at this
    // API boundary.

    /// Fallible [`Self::entry`]. In-memory indexes never fail; the default
    /// simply wraps the infallible lookup.
    fn try_entry(&self, u: VertexId, code: MortonCode) -> Result<Option<BlockEntry>, QueryError> {
        Ok(self.entry(u, code))
    }

    /// Fallible [`Self::min_lambda`].
    fn try_min_lambda(&self, u: VertexId, rect: &CellRect) -> Result<Option<f64>, QueryError> {
        Ok(self.min_lambda(u, rect))
    }

    /// Fallible [`Self::next_hop`]: a destination not covered by `u`'s
    /// quadtree, or covered by the source's own block — impossible for a
    /// well-formed index — surfaces as [`QueryError::Corrupt`] instead of a
    /// panic or another vertex's edge.
    fn try_next_hop(
        &self,
        u: VertexId,
        dest: VertexId,
    ) -> Result<Option<(VertexId, f64)>, QueryError> {
        if u == dest {
            return Ok(None);
        }
        let entry = self.try_entry(u, self.vertex_code(dest))?;
        let Some(entry) = entry.filter(|e| e.color != COLOR_SOURCE) else {
            // Distinct vertices never share a cell, so the source's own
            // block cannot hold `dest` in a well-formed index either.
            return Err(QueryError::Corrupt {
                page: None,
                detail: format!("quadtree of {u} gives no first hop to destination {dest}"),
            });
        };
        Ok(Some(self.network().out_edge(u, entry.color as usize)))
    }

    /// Fallible [`Self::interval`].
    fn try_interval(&self, u: VertexId, v: VertexId) -> Result<DistInterval, QueryError> {
        if u == v {
            return Ok(DistInterval::exact(0.0));
        }
        let euclid = self.network().euclidean(u, v);
        Ok(match self.try_entry(u, self.vertex_code(v))? {
            Some(e) => e.interval(euclid),
            None => DistInterval::new(self.global_min_ratio() * euclid, f64::INFINITY),
        })
    }

    /// Fallible [`Self::region_lower_bound`].
    fn try_region_lower_bound(&self, u: VertexId, world: &Rect) -> Result<f64, QueryError> {
        let euclid = world.min_distance(&self.network().position(u));
        if euclid == 0.0 {
            return Ok(0.0);
        }
        let rect = self.cell_rect_for(world);
        let lambda = self.try_min_lambda(u, &rect)?.unwrap_or_else(|| self.global_min_ratio());
        Ok(lambda * euclid)
    }

    // ------------------------------------------------------------------
    // Provided operations
    // ------------------------------------------------------------------

    /// The first edge on a shortest path `u → dest`: returns the next
    /// vertex and the edge weight. `None` when `u == dest`.
    ///
    /// # Panics
    /// Panics where [`Self::try_next_hop`] would error (I/O failure,
    /// corruption, uncovered destination).
    fn next_hop(&self, u: VertexId, dest: VertexId) -> Option<(VertexId, f64)> {
        self.try_next_hop(u, dest).unwrap_or_else(|e| panic!("{e}"))
    }

    /// `DISTANCE_INTERVAL(u, v)`: an interval guaranteed to contain the
    /// network distance `u → v`, from one block lookup.
    ///
    /// # Panics
    /// Panics where [`Self::try_interval`] would error.
    fn interval(&self, u: VertexId, v: VertexId) -> DistInterval {
        self.try_interval(u, v).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The grid-cell rectangle covering `world`, expanded by one cell on
    /// every side to absorb the rounding of vertex positions to cells.
    fn cell_rect_for(&self, world: &Rect) -> CellRect {
        let m = self.mapper();
        let lo = m.to_grid(&Point::new(world.min_x, world.min_y));
        let hi = m.to_grid(&Point::new(world.max_x, world.max_y));
        let max = m.side() - 1;
        CellRect::new(
            lo.x.saturating_sub(1),
            lo.y.saturating_sub(1),
            (hi.x + 1).min(max),
            (hi.y + 1).min(max),
        )
    }

    /// `DISTANCE_INTERVAL(u, region).lo`: a lower bound on the network
    /// distance from `u` to *anything located on a vertex inside* `world`.
    ///
    /// # Panics
    /// Panics where [`Self::try_region_lower_bound`] would error.
    fn region_lower_bound(&self, u: VertexId, world: &Rect) -> f64 {
        self.try_region_lower_bound(u, world).unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{BuildConfig, SilcIndex};
    use silc_network::dijkstra;
    use silc_network::generate::{grid_network, GridConfig};
    use std::sync::Arc;

    fn index() -> SilcIndex {
        let g = grid_network(&GridConfig { rows: 7, cols: 7, seed: 17, ..Default::default() });
        SilcIndex::build(Arc::new(g), &BuildConfig { grid_exponent: 8, threads: 2 }).unwrap()
    }

    #[test]
    fn next_hop_starts_a_shortest_path() {
        let idx = index();
        let g = idx.network();
        let (s, d) = (VertexId(0), VertexId(48));
        let (t, w) = idx.next_hop(s, d).unwrap();
        let total = dijkstra::distance(g, s, d).unwrap();
        let rest = dijkstra::distance(g, t, d).unwrap();
        assert!((total - (w + rest)).abs() < 1e-9);
        assert!(idx.next_hop(s, s).is_none());
    }

    #[test]
    fn interval_contains_true_distance() {
        let idx = index();
        let g = idx.network();
        for s in [VertexId(0), VertexId(24), VertexId(13)] {
            for d in g.vertices() {
                let i = idx.interval(s, d);
                let truth = dijkstra::distance(g, s, d).unwrap();
                assert!(
                    truth >= i.lo - 1e-9 && truth <= i.hi + 1e-9,
                    "{s}->{d}: {truth} outside {i}"
                );
            }
        }
    }

    #[test]
    fn region_lower_bound_is_valid() {
        let idx = index();
        let g = idx.network();
        let u = VertexId(3);
        let b = g.bounds();
        let world =
            Rect::new(b.min_x + b.width() * 0.6, b.min_y + b.height() * 0.6, b.max_x, b.max_y);
        let bound = idx.region_lower_bound(u, &world);
        for v in g.vertices() {
            if world.contains(&g.position(v)) {
                let d = dijkstra::distance(g, u, v).unwrap();
                assert!(d >= bound - 1e-9, "bound {bound} exceeds d({u},{v}) = {d}");
            }
        }
    }

    #[test]
    fn region_containing_u_has_zero_bound() {
        let idx = index();
        let u = VertexId(24);
        let p = idx.network().position(u);
        let world = Rect::new(p.x - 0.1, p.y - 0.1, p.x + 0.1, p.y + 0.1);
        assert_eq!(idx.region_lower_bound(u, &world), 0.0);
    }
}
