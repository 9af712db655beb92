//! Standard experiment workloads.
//!
//! The paper's testbed is a TIGER extract of the US eastern seaboard
//! (91,113 vertices / 114,176 edges, m/n ≈ 1.25). We substitute
//! `silc_network::generate::road_network` with the same edge/vertex ratio;
//! the network size defaults to 4,000 vertices so the full figure suite
//! runs on a laptop-class single core, and scales up with `--full`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silc::{BuildConfig, SilcIndex};
use silc_network::generate::{road_network, RoadConfig};
use silc_network::{SpatialNetwork, VertexId};
use silc_query::ObjectSet;
use std::sync::Arc;

/// Parameters of a standard workload.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Network size (vertices).
    pub vertices: usize,
    /// Undirected edge/vertex ratio (paper: ≈ 1.25).
    pub edge_factor: f64,
    /// Grid resolution exponent for the SILC index.
    pub grid_exponent: u32,
    /// Base RNG seed; networks, object sets and query points all derive
    /// from it deterministically.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig { vertices: 4000, edge_factor: 1.25, grid_exponent: 11, seed: 2008 }
    }
}

/// A network plus its SILC index, shared by the query experiments.
pub struct StandardWorkload {
    pub config: WorkloadConfig,
    pub network: Arc<SpatialNetwork>,
    pub index: SilcIndex,
}

impl StandardWorkload {
    /// Builds the workload (network generation + full SILC precompute).
    pub fn build(config: WorkloadConfig) -> Self {
        let network = Arc::new(road_network(&RoadConfig {
            vertices: config.vertices,
            edge_factor: config.edge_factor,
            detour: 0.2,
            extent: 1000.0,
            seed: config.seed,
        }));
        let index = SilcIndex::build(
            network.clone(),
            &BuildConfig { grid_exponent: config.grid_exponent, threads: 0 },
        )
        .expect("generated networks satisfy the index preconditions");
        StandardWorkload { config, network, index }
    }

    /// A deterministic object set of the given density for trial `trial`.
    pub fn objects(&self, density: f64, trial: u64) -> ObjectSet {
        ObjectSet::random(&self.network, density, self.config.seed ^ (trial.wrapping_mul(0x9E37)))
    }

    /// `count` deterministic query vertices for trial `trial`.
    pub fn queries(&self, count: usize, trial: u64) -> Vec<VertexId> {
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xABCD ^ trial);
        (0..count).map(|_| VertexId(rng.gen_range(0..self.network.vertex_count() as u32))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic() {
        let cfg = WorkloadConfig { vertices: 300, ..Default::default() };
        let a = StandardWorkload::build(cfg.clone());
        let b = StandardWorkload::build(cfg);
        assert_eq!(a.network.edge_count(), b.network.edge_count());
        assert_eq!(a.index.stats().total_blocks, b.index.stats().total_blocks);
        assert_eq!(a.queries(5, 1), b.queries(5, 1));
        let oa: Vec<_> = a.objects(0.1, 2).iter().collect();
        let ob: Vec<_> = b.objects(0.1, 2).iter().collect();
        assert_eq!(oa, ob);
    }

    #[test]
    fn trials_differ() {
        let w = StandardWorkload::build(WorkloadConfig { vertices: 300, ..Default::default() });
        let q1 = w.queries(10, 1);
        let q2 = w.queries(10, 2);
        assert_ne!(q1, q2);
        let o1: Vec<_> = w.objects(0.1, 1).iter().map(|(_, v)| v).collect();
        let o2: Vec<_> = w.objects(0.1, 2).iter().map(|(_, v)| v).collect();
        assert_ne!(o1, o2);
    }
}
