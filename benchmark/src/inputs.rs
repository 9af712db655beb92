//! Everything a workload feeds the program. `--seed` draws the query stream
//! and the arrival gaps; the road network and the object set are the same
//! frozen ones on every seed. Measured on the seed code, a different
//! generated network moves `qps` and index size by ±10 %, and a different
//! draw of the 560 objects moves `qps` by ±8 % and p99 by ±25 % (how hard a
//! kNN is depends on how the objects lie around the query) — far more than
//! any bound worth having. So a seed varies what is asked, never what is
//! indexed.

use crate::config::{DENSITY, NETWORK_SEED, OBJECT_BUCKET};
use crate::rng::SplitMix64;
use silc_network::generate::{road_network, RoadConfig};
use silc_network::{SpatialNetwork, VertexId};
use silc_query::ObjectSet;

const STREAM_OBJECTS: u64 = 1;
const STREAM_QUERIES: u64 = 2;
pub const STREAM_ARRIVALS: u64 = 3;

/// A road network of `n` vertices (the generator every `BENCH_*` recorder
/// uses, with their parameters).
pub fn network(n: usize, seed: u64) -> SpatialNetwork {
    road_network(&RoadConfig { vertices: n, edge_factor: 1.25, detour: 0.2, extent: 1000.0, seed })
}

/// The frozen network of `n` vertices, with its fingerprint printed and
/// checked against `expected`: a generator change must fail loudly instead
/// of shifting every number.
pub fn frozen_network(n: usize, expected: u64) -> SpatialNetwork {
    let net = network(n, NETWORK_SEED);
    let found = fingerprint(&net);
    eprintln!(
        "# network: {n} vertices, {} directed edges, fingerprint {found:#018x}",
        net.edge_count()
    );
    assert!(
        found == expected,
        "the road-network generator changed: {n} vertices at seed {NETWORK_SEED} has \
         fingerprint {found:#018x}, the benchmark was frozen at {expected:#018x}; numbers from \
         this build are not comparable with earlier ones"
    );
    net
}

/// FNV-1a over every vertex position and every directed edge (target and
/// weight bits, in adjacency order).
pub fn fingerprint(net: &SpatialNetwork) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for p in net.positions() {
        eat(p.x.to_bits());
        eat(p.y.to_bits());
    }
    for v in net.vertices() {
        let (targets, weights) = net.out_edge_slices(v);
        for (&t, &w) in targets.iter().zip(weights) {
            eat(t as u64);
            eat(w.to_bits());
        }
    }
    h
}

/// The frozen object set of a frozen network.
pub fn frozen_objects(net: &SpatialNetwork) -> ObjectSet {
    objects(net, NETWORK_SEED)
}

/// `⌈DENSITY · n⌉` objects on distinct vertices (partial Fisher–Yates),
/// ordered by vertex id so object ids do not depend on the draw order.
pub fn objects(net: &SpatialNetwork, seed: u64) -> ObjectSet {
    let n = net.vertex_count();
    let count = ((DENSITY * n as f64).ceil() as usize).clamp(1, n);
    let mut rng = SplitMix64::stream(seed, STREAM_OBJECTS);
    let mut ids: Vec<u32> = (0..n as u32).collect();
    for i in 0..count {
        let j = i + rng.below((n - i) as u64) as usize;
        ids.swap(i, j);
    }
    ids.truncate(count);
    ids.sort_unstable();
    ObjectSet::from_vertices(net, ids.into_iter().map(VertexId).collect(), OBJECT_BUCKET)
}

/// The query-vertex stream: uniform over the vertices, endless, and the
/// same for every workload that shares `(seed, n)` — which is what makes
/// `local_warm`, `local_cold` and `served_warm` one-variable comparisons.
pub struct QueryStream {
    rng: SplitMix64,
    n: u64,
}

impl QueryStream {
    pub fn new(seed: u64, n: usize) -> Self {
        QueryStream { rng: SplitMix64::stream(seed, STREAM_QUERIES), n: n as u64 }
    }

    pub fn next_vertex(&mut self) -> VertexId {
        VertexId(self.rng.below(self.n) as u32)
    }

    /// The first `count` queries of the stream.
    pub fn prefix(seed: u64, n: usize, count: usize) -> Vec<VertexId> {
        let mut s = QueryStream::new(seed, n);
        (0..count).map(|_| s.next_vertex()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        let (a, b, c) = (network(300, 9), network(300, 9), network(300, 10));
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
        let verts = |net: &SpatialNetwork, seed| {
            objects(net, seed).iter().map(|(_, v)| v.0).collect::<Vec<_>>()
        };
        assert_eq!(verts(&a, 9), verts(&b, 9));
        assert_ne!(verts(&a, 9), verts(&a, 10));
        assert_eq!(QueryStream::prefix(9, 300, 50), QueryStream::prefix(9, 300, 50));
        assert_ne!(QueryStream::prefix(9, 300, 50), QueryStream::prefix(10, 300, 50));
    }

    #[test]
    fn objects_sit_on_distinct_vertices_at_the_stated_density() {
        let net = network(500, 3);
        let set = objects(&net, 3);
        assert_eq!(set.len(), 35);
        let mut verts: Vec<u32> = set.iter().map(|(_, v)| v.0).collect();
        assert!(verts.windows(2).all(|w| w[0] < w[1]), "sorted, so distinct");
        verts.dedup();
        assert_eq!(verts.len(), 35);
    }
}
