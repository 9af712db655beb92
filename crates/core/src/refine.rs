//! Progressive refinement of network distances.
//!
//! The defining primitive of SILC query processing (paper §5): a network
//! distance is carried as an interval `[δ−, δ+]` that one *refinement step*
//! tightens by advancing a single hop along the shortest path. The running
//! state is always `exact prefix + one interval` —
//! `d(q, o) = d(q, t) + [λ−·dE(t,o), λ+·dE(t,o)]` for the current
//! intermediate vertex `t` — which the paper contrasts (p.30) with distance
//! oracles whose estimates are sums of *two* intervals.
//!
//! A refinement step costs **one** block lookup. The paper's §5 point is
//! that the block of `t`'s shortest-path quadtree containing the target
//! yields two things at once: its colour is the next hop, and its
//! `[λ−, λ+]` is the interval for the rest of the path. The refiner keeps
//! that colour beside the interval it produced, so the next step walks the
//! edge without probing the same block again: a walk of `h` hops to the
//! target costs `h` lookups (one at first contact, one tail lookup per hop
//! but the last), against `2h` when the hop is looked up separately. A
//! walk whose interval turns exact before the target (a tail block with
//! `λ− = λ+`) stops there, having paid one tail lookup per hop.

use crate::browser::DistanceBrowser;
use crate::error::QueryError;
use crate::interval::DistInterval;
use crate::sp_quadtree::COLOR_SOURCE;
use silc_network::VertexId;
use std::cmp::Ordering;

/// A progressively refinable network distance between two vertex-resident
/// objects.
///
/// Besides the interval it carries the colour of the block entry that
/// produced it — the first-hop slot of the shortest path `cur → target` —
/// so [`Self::try_refine`] costs one block lookup, not two.
#[derive(Debug, Clone)]
pub struct RefinableDistance {
    origin: VertexId,
    target: VertexId,
    /// Current intermediate vertex `t` on the shortest path origin → target.
    cur: VertexId,
    /// Exact network distance origin → `cur`.
    prefix: f64,
    interval: DistInterval,
    refinements: usize,
    /// Colour (out-edge slot of `cur`) of the block of `cur`'s quadtree
    /// that holds `target`, from the lookup that produced `interval`.
    /// `None` when `cur == target` or no block but the source's own covers
    /// the target; the next step then asks
    /// [`DistanceBrowser::try_next_hop`], which reports that as corruption.
    color: Option<u16>,
}

/// One block lookup in `u`'s quadtree for `target`: the interval exactly
/// as [`DistanceBrowser::try_interval`] computes it, plus the block's
/// colour.
fn lookup<B: DistanceBrowser + ?Sized>(
    b: &B,
    u: VertexId,
    target: VertexId,
) -> Result<(DistInterval, Option<u16>), QueryError> {
    if u == target {
        return Ok((DistInterval::exact(0.0), None));
    }
    let euclid = b.network().euclidean(u, target);
    Ok(match b.try_entry(u, b.vertex_code(target))? {
        // The source's own block has no first hop: leave it to
        // `try_next_hop`, which reports it as corruption.
        Some(e) => (e.interval(euclid), Some(e.color).filter(|&c| c != COLOR_SOURCE)),
        None => (DistInterval::new(b.global_min_ratio() * euclid, f64::INFINITY), None),
    })
}

impl RefinableDistance {
    /// Starts refinement with the zero-hop interval
    /// `[λ−·dE(q,o), λ+·dE(q,o)]`.
    ///
    /// # Panics
    /// Panics where [`Self::try_new`] would error (disk failure on the
    /// initial lookup).
    pub fn new<B: DistanceBrowser + ?Sized>(b: &B, origin: VertexId, target: VertexId) -> Self {
        Self::try_new(b, origin, target).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::new`].
    pub fn try_new<B: DistanceBrowser + ?Sized>(
        b: &B,
        origin: VertexId,
        target: VertexId,
    ) -> Result<Self, QueryError> {
        let (interval, color) = lookup(b, origin, target)?;
        Ok(RefinableDistance {
            origin,
            target,
            cur: origin,
            prefix: 0.0,
            interval,
            refinements: 0,
            color,
        })
    }

    /// The origin object's vertex.
    pub fn origin(&self) -> VertexId {
        self.origin
    }

    /// The target object's vertex.
    pub fn target(&self) -> VertexId {
        self.target
    }

    /// The current distance interval.
    #[inline]
    pub fn interval(&self) -> DistInterval {
        self.interval
    }

    /// Is the distance known exactly?
    #[inline]
    pub fn is_exact(&self) -> bool {
        self.interval.is_exact()
    }

    /// Number of refinement steps taken so far.
    pub fn refinements(&self) -> usize {
        self.refinements
    }

    /// Advances one hop along the shortest path, tightening the interval.
    /// Returns `false` (and does nothing) once the distance is exact.
    ///
    /// The hop follows the carried colour; the only lookup is the tail
    /// interval from the new vertex, skipped when it is the target.
    ///
    /// # Panics
    /// Panics where [`Self::try_refine`] would error.
    pub fn refine<B: DistanceBrowser + ?Sized>(&mut self, b: &B) -> bool {
        self.try_refine(b).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::refine`]. On an error the state is unchanged —
    /// the interval stays the last sound one, so a caller may keep (or
    /// report) it even after the disk went away.
    pub fn try_refine<B: DistanceBrowser + ?Sized>(&mut self, b: &B) -> Result<bool, QueryError> {
        if self.is_exact() {
            return Ok(false);
        }
        let hop = match self.color {
            Some(color) => Some(b.network().out_edge(self.cur, color as usize)),
            None => b.try_next_hop(self.cur, self.target)?,
        };
        let Some((next, w)) = hop else {
            // cur == target: the interval should already be exact.
            self.interval = DistInterval::exact(self.prefix);
            return Ok(false);
        };
        // Complete every fallible lookup *before* mutating state, so an
        // error leaves a consistent (merely unrefined) distance.
        let tail = if next == self.target { None } else { Some(lookup(b, next, self.target)?) };
        self.refinements += 1;
        self.cur = next;
        self.prefix += w;
        match tail {
            None => {
                self.interval = DistInterval::exact(self.prefix);
                self.color = None;
            }
            Some((t, color)) => {
                self.color = color;
                let tail = t.offset(self.prefix);
                // Bounds can only tighten: intersect with what we already
                // knew. Both intervals contain the true distance in exact
                // arithmetic, but floating-point slop can make them barely
                // disjoint; the distance then lies in the (noise-sized) gap
                // between their facing endpoints, so that gap is the
                // tightest sound interval.
                self.interval = tail.intersect(&self.interval).unwrap_or_else(|| {
                    let gap_lo = tail.hi.min(self.interval.hi);
                    let gap_hi = tail.lo.max(self.interval.lo);
                    DistInterval::new(gap_lo, gap_hi)
                });
            }
        }
        Ok(true)
    }

    /// Refines to the exact network distance (worst case: walks the whole
    /// path).
    ///
    /// # Panics
    /// Panics where [`Self::try_refine_until_exact`] would error.
    pub fn refine_until_exact<B: DistanceBrowser + ?Sized>(&mut self, b: &B) -> f64 {
        while self.refine(b) {}
        self.interval.lo
    }

    /// Fallible [`Self::refine_until_exact`]. An error aborts the walk
    /// with the state consistent at the last completed hop.
    pub fn try_refine_until_exact<B: DistanceBrowser + ?Sized>(
        &mut self,
        b: &B,
    ) -> Result<f64, QueryError> {
        while self.try_refine(b)? {}
        Ok(self.interval.lo)
    }
}

/// Compares two network distances by progressive refinement, refining only
/// while their intervals collide and always the wider one first.
///
/// This is the paper's "Is Munich closer to Mainz than Bremen?" primitive
/// (p.18): most comparisons resolve after a handful of refinements, long
/// before either distance is known exactly.
pub fn compare_refining<B: DistanceBrowser + ?Sized>(
    b: &B,
    a: &mut RefinableDistance,
    c: &mut RefinableDistance,
) -> Ordering {
    loop {
        let (ia, ic) = (a.interval(), c.interval());
        if ia.strictly_before(&ic) {
            return Ordering::Less;
        }
        if ic.strictly_before(&ia) {
            return Ordering::Greater;
        }
        if ia.is_exact() && ic.is_exact() {
            return ia.lo.total_cmp(&ic.lo);
        }
        // Refine the wider interval first; fall back to the other one.
        // (The branches differ in refinement *order*, which matters:
        // short-circuiting stops at the first side that makes progress.)
        let refine_a_first = ia.width() >= ic.width();
        #[allow(clippy::if_same_then_else)]
        let progressed =
            if refine_a_first { a.refine(b) || c.refine(b) } else { c.refine(b) || a.refine(b) };
        debug_assert!(progressed, "no progress while intervals still collide");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{BuildConfig, SilcIndex};
    use crate::sp_quadtree::{BlockEntry, CellRect};
    use silc_geom::GridMapper;
    use silc_morton::MortonCode;
    use silc_network::dijkstra;
    use silc_network::generate::{grid_network, road_network, GridConfig, RoadConfig};
    use silc_network::SpatialNetwork;
    use std::cell::Cell;
    use std::sync::Arc;

    fn index() -> SilcIndex {
        let g = grid_network(&GridConfig { rows: 9, cols: 9, seed: 23, ..Default::default() });
        SilcIndex::build(Arc::new(g), &BuildConfig { grid_exponent: 8, threads: 2 }).unwrap()
    }

    /// The reference refiner: a separate next-hop lookup before every tail
    /// lookup, two lookups a hop. The one-lookup law is checked against it.
    struct ParentRefinable {
        target: VertexId,
        cur: VertexId,
        prefix: f64,
        interval: DistInterval,
        refinements: usize,
    }

    impl ParentRefinable {
        fn try_new<B: DistanceBrowser + ?Sized>(
            b: &B,
            origin: VertexId,
            target: VertexId,
        ) -> Result<Self, QueryError> {
            let interval = b.try_interval(origin, target)?;
            Ok(ParentRefinable { target, cur: origin, prefix: 0.0, interval, refinements: 0 })
        }

        fn is_exact(&self) -> bool {
            self.interval.is_exact()
        }

        fn parent_refine<B: DistanceBrowser + ?Sized>(
            &mut self,
            b: &B,
        ) -> Result<bool, QueryError> {
            if self.is_exact() {
                return Ok(false);
            }
            let Some((next, w)) = b.try_next_hop(self.cur, self.target)? else {
                // cur == target: the interval should already be exact.
                self.interval = DistInterval::exact(self.prefix);
                return Ok(false);
            };
            // Complete every fallible lookup *before* mutating state, so an
            // error leaves a consistent (merely unrefined) distance.
            let tail =
                if next == self.target { None } else { Some(b.try_interval(next, self.target)?) };
            self.refinements += 1;
            self.cur = next;
            self.prefix += w;
            match tail {
                None => self.interval = DistInterval::exact(self.prefix),
                Some(t) => {
                    let tail = t.offset(self.prefix);
                    // Bounds can only tighten: intersect with what we already
                    // knew. Both intervals contain the true distance in exact
                    // arithmetic, but floating-point slop can make them barely
                    // disjoint; the distance then lies in the (noise-sized) gap
                    // between their facing endpoints, so that gap is the
                    // tightest sound interval.
                    self.interval = tail.intersect(&self.interval).unwrap_or_else(|| {
                        let gap_lo = tail.hi.min(self.interval.hi);
                        let gap_hi = tail.lo.max(self.interval.lo);
                        DistInterval::new(gap_lo, gap_hi)
                    });
                }
            }
            Ok(true)
        }
    }

    /// An index that counts its block lookups.
    struct CountingBrowser<'a> {
        inner: &'a SilcIndex,
        lookups: Cell<usize>,
    }

    impl CountingBrowser<'_> {
        /// Runs `f`, returning its value and the lookups it made.
        fn counted<T>(&self, f: impl FnOnce() -> T) -> (T, usize) {
            self.lookups.set(0);
            let value = f();
            (value, self.lookups.get())
        }
    }

    impl DistanceBrowser for CountingBrowser<'_> {
        fn network(&self) -> &SpatialNetwork {
            self.inner.network()
        }
        fn mapper(&self) -> &GridMapper {
            self.inner.mapper()
        }
        fn vertex_code(&self, v: VertexId) -> MortonCode {
            self.inner.vertex_code(v)
        }
        fn entry(&self, u: VertexId, code: MortonCode) -> Option<BlockEntry> {
            self.inner.entry(u, code)
        }
        fn min_lambda(&self, u: VertexId, rect: &CellRect) -> Option<f64> {
            self.inner.min_lambda(u, rect)
        }
        fn global_min_ratio(&self) -> f64 {
            self.inner.global_min_ratio()
        }
        fn try_entry(
            &self,
            u: VertexId,
            code: MortonCode,
        ) -> Result<Option<BlockEntry>, QueryError> {
            self.lookups.set(self.lookups.get() + 1);
            self.inner.try_entry(u, code)
        }
    }

    fn bits(i: DistInterval) -> (u64, u64) {
        (i.lo.to_bits(), i.hi.to_bits())
    }

    /// Walks every source/destination pair with both refiners in lockstep:
    /// every step must agree bit for bit, and a walk of `h` hops that
    /// reaches the target costs `h` lookups here against the reference's
    /// `2h`. A walk that stops early — a tail block with `λ− = λ+` made
    /// the interval exact before the target — pays one more tail lookup
    /// on both sides. Returns how many walks reached their target and how
    /// many stopped early.
    fn assert_one_lookup_per_hop(idx: &SilcIndex) -> (usize, usize) {
        let b = CountingBrowser { inner: idx, lookups: Cell::new(0) };
        let (mut reached, mut early) = (0, 0);
        for s in idx.network().vertices() {
            for d in idx.network().vertices() {
                let (ours, mut ours_lookups) = b.counted(|| RefinableDistance::try_new(&b, s, d));
                let (parent, mut parent_lookups) = b.counted(|| ParentRefinable::try_new(&b, s, d));
                let (mut ours, mut parent) = (ours.unwrap(), parent.unwrap());
                loop {
                    assert_eq!(bits(ours.interval()), bits(parent.interval), "{s}->{d}");
                    assert_eq!(ours.refinements(), parent.refinements, "{s}->{d}");
                    let (stepped, n) = b.counted(|| ours.try_refine(&b).unwrap());
                    let (parent_stepped, m) = b.counted(|| parent.parent_refine(&b).unwrap());
                    assert_eq!(stepped, parent_stepped, "{s}->{d}");
                    ours_lookups += n;
                    parent_lookups += m;
                    if !stepped {
                        break;
                    }
                }
                assert_eq!(bits(ours.interval()), bits(parent.interval), "{s}->{d}");
                let h = ours.refinements();
                let short = usize::from(ours.cur != d);
                assert_eq!(ours_lookups, h + short, "{s}->{d}: {h} hops");
                assert_eq!(parent_lookups, 2 * h + short, "{s}->{d}: {h} hops");
                if short == 1 {
                    early += 1;
                } else if h > 0 {
                    reached += 1;
                }
            }
        }
        (reached, early)
    }

    #[test]
    fn a_refinement_costs_one_lookup_and_matches_the_parent_refiner() {
        let g = road_network(&RoadConfig { vertices: 200, seed: 404, ..Default::default() });
        let road =
            SilcIndex::build(Arc::new(g), &BuildConfig { grid_exponent: 9, threads: 2 }).unwrap();
        for idx in [index(), road] {
            let (reached, early) = assert_one_lookup_per_hop(&idx);
            // Both walk shapes must be exercised for the law to mean much.
            assert!(reached > 100 && early > 100, "reached {reached}, stopped early {early}");
        }
    }

    #[test]
    fn an_uncovered_destination_is_still_corruption() {
        // A browser whose quadtrees cover nothing: the first contact falls
        // back to the global ratio, and the first hop — with no colour
        // held — reports the destination as uncovered.
        struct Empty<'a>(&'a SilcIndex);
        impl DistanceBrowser for Empty<'_> {
            fn network(&self) -> &SpatialNetwork {
                self.0.network()
            }
            fn mapper(&self) -> &GridMapper {
                self.0.mapper()
            }
            fn vertex_code(&self, v: VertexId) -> MortonCode {
                self.0.vertex_code(v)
            }
            fn entry(&self, _: VertexId, _: MortonCode) -> Option<BlockEntry> {
                None
            }
            fn min_lambda(&self, u: VertexId, rect: &CellRect) -> Option<f64> {
                self.0.min_lambda(u, rect)
            }
            fn global_min_ratio(&self) -> f64 {
                self.0.global_min_ratio()
            }
        }
        let idx = index();
        let b = Empty(&idx);
        let mut r = RefinableDistance::try_new(&b, VertexId(0), VertexId(80)).unwrap();
        let before = r.interval();
        assert_eq!(before.hi, f64::INFINITY);
        assert!(matches!(r.try_refine(&b), Err(QueryError::Corrupt { .. })));
        assert_eq!(bits(r.interval()), bits(before), "an error must leave the state unchanged");
        assert_eq!(r.refinements(), 0);
    }

    #[test]
    fn refinement_tightens_monotonically_and_converges() {
        let idx = index();
        let (s, d) = (VertexId(0), VertexId(80));
        let truth = dijkstra::distance(idx.network(), s, d).unwrap();
        let mut r = RefinableDistance::new(&idx, s, d);
        let mut prev = r.interval();
        assert!(prev.contains(truth));
        while r.refine(&idx) {
            let cur = r.interval();
            assert!(cur.lo >= prev.lo - 1e-9, "lower bound regressed");
            assert!(cur.hi <= prev.hi + 1e-9, "upper bound regressed");
            assert!(
                cur.contains(truth)
                    || (truth - cur.lo).abs() < 1e-9
                    || (cur.hi - truth).abs() < 1e-9,
                "interval {cur} lost the true distance {truth}"
            );
            prev = cur;
        }
        assert!(r.is_exact());
        assert!((r.interval().lo - truth).abs() < 1e-9);
        // Refinement count equals the number of path edges walked.
        let path = dijkstra::point_to_point(idx.network(), s, d).unwrap().path;
        assert!(r.refinements() <= path.len());
    }

    #[test]
    fn identical_endpoints_are_exact_immediately() {
        let idx = index();
        let mut r = RefinableDistance::new(&idx, VertexId(5), VertexId(5));
        assert!(r.is_exact());
        assert_eq!(r.interval(), DistInterval::exact(0.0));
        assert!(!r.refine(&idx));
        assert_eq!(r.refinements(), 0);
    }

    #[test]
    fn refine_until_exact_matches_dijkstra_everywhere() {
        let idx = index();
        let s = VertexId(40);
        for d in idx.network().vertices() {
            let mut r = RefinableDistance::new(&idx, s, d);
            let got = r.refine_until_exact(&idx);
            let truth = dijkstra::distance(idx.network(), s, d).unwrap();
            assert!((got - truth).abs() < 1e-9, "{s}->{d}: {got} vs {truth}");
        }
    }

    #[test]
    fn comparison_answers_without_full_refinement() {
        let idx = index();
        let q = VertexId(0);
        // A nearby and a far-away target: intervals should separate quickly.
        let near = VertexId(1);
        let far = VertexId(80);
        let mut a = RefinableDistance::new(&idx, q, near);
        let mut c = RefinableDistance::new(&idx, q, far);
        let ord = compare_refining(&idx, &mut a, &mut c);
        assert_eq!(ord, Ordering::Less);
        let d_near = dijkstra::distance(idx.network(), q, near).unwrap();
        let d_far = dijkstra::distance(idx.network(), q, far).unwrap();
        assert!(d_near < d_far, "fixture assumption");
        // The far distance should not need to be refined to exactness.
        assert!(!c.is_exact() || c.refinements() == 0, "comparison over-refined the easy case");
    }

    #[test]
    fn comparison_is_consistent_with_truth() {
        let idx = index();
        let q = VertexId(30);
        for &(x, y) in &[(10u32, 70u32), (2, 3), (45, 44), (80, 0)] {
            let mut a = RefinableDistance::new(&idx, q, VertexId(x));
            let mut c = RefinableDistance::new(&idx, q, VertexId(y));
            let ord = compare_refining(&idx, &mut a, &mut c);
            let dx = dijkstra::distance(idx.network(), q, VertexId(x)).unwrap();
            let dy = dijkstra::distance(idx.network(), q, VertexId(y)).unwrap();
            assert_eq!(ord, dx.total_cmp(&dy), "wrong order for ({x}, {y})");
        }
    }
}
