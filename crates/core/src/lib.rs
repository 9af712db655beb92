//! # SILC — Scalable Network Distance Browsing
//!
//! A from-scratch implementation of the SILC framework of Samet,
//! Sankaranarayanan and Alborzi, *Scalable Network Distance Browsing in
//! Spatial Databases*, SIGMOD 2008 (best paper).
//!
//! The framework precomputes, for **every** vertex `u` of a spatial network,
//! a *shortest-path quadtree*: the vertices of the network are colored by
//! the first edge of the shortest path from `u`, and the resulting spatially
//! coherent regions are stored as a flat, sorted list of Morton blocks, each
//! carrying the color plus interval bounds `[λ−, λ+]` on the ratio between
//! network and Euclidean distance. This turns shortest-path and
//! network-distance queries into purely geometric lookups:
//!
//! * the **next hop** toward any destination is one `O(log n)` block lookup,
//!   so a whole shortest path is retrieved in size-of-path steps
//!   ([`path::shortest_path`]),
//! * the **network distance** between any two objects is progressively
//!   refined through intervals `[δ−, δ+]` that tighten by one hop per step
//!   ([`refine::RefinableDistance`]) — most queries (comparisons, rankings)
//!   finish long before the interval collapses to an exact distance.
//!
//! Total storage is `O(N√N)` Morton blocks for `N` vertices (paper §4;
//! reproduced by the `storage_scaling` bench), against `O(N³)` for explicit
//! all-pairs paths and `O(N²)` for a next-hop matrix.
//!
//! ## Crate layout
//!
//! | module | contents |
//! |---|---|
//! | [`interval`] | network-distance intervals `[δ−, δ+]` |
//! | [`spmap`] | shortest-path maps (first-hop coloring of all vertices) |
//! | [`sp_quadtree`] | the shortest-path quadtree and its block decomposition |
//! | [`index`] | [`SilcIndex`]: parallel all-vertex precomputation |
//! | [`browser`] | [`DistanceBrowser`]: the lookup API shared by the in-memory and disk-resident indexes |
//! | [`refine`] | progressive refinement and interval comparison primitives |
//! | [`path`] | shortest-path retrieval in size-of-path steps |
//! | [`disk`] | [`DiskSilcIndex`]: the index serialized onto real disk pages behind an LRU buffer pool |
//! | [`mbr_baseline`] | the rejected R-tree-style MBR storage design (ablation A1) |
//!
//! The disk-resident forms are built for disks that misbehave: page files
//! carry per-page checksums (format `SILCIDX4`, the only one read),
//! transient read failures are retried inside the buffer pool, and every
//! surviving fault surfaces as a typed [`QueryError`] — corruption names
//! the poisoned page — through `try_`-prefixed fallible twins of the query
//! methods. See the `silc-storage` crate docs for the full fault model.
//!
//! ## Quickstart
//!
//! ```
//! use silc::prelude::*;
//! use silc_network::generate::{grid_network, GridConfig};
//!
//! // A small road network and its SILC index.
//! let network = std::sync::Arc::new(grid_network(&GridConfig {
//!     rows: 8, cols: 8, ..Default::default()
//! }));
//! let index = SilcIndex::build(network.clone(), &BuildConfig::default()).unwrap();
//!
//! // Network distance and shortest path between two vertices, no Dijkstra.
//! let (s, d) = (VertexId(0), VertexId(63));
//! let path = silc::path::shortest_path(&index, s, d).unwrap();
//! assert_eq!(path.path.first(), Some(&s));
//! assert_eq!(path.path.last(), Some(&d));
//! ```

pub mod browser;
pub mod disk;
pub mod error;
pub mod frontier;
pub mod index;
pub mod interval;
pub mod mbr_baseline;
pub mod partitioned;
pub mod path;
pub mod refine;
pub mod sp_quadtree;
pub mod spmap;

pub use browser::DistanceBrowser;
pub use disk::DiskSilcIndex;
pub use error::{BuildError, QueryError};
pub use frontier::FrontierTier;
pub use index::{BuildConfig, IndexStats, SilcIndex};
pub use interval::DistInterval;
pub use partitioned::{
    OpenWarning, PartitionedBuildConfig, PartitionedBuildError, PartitionedSilcIndex,
};
pub use sp_quadtree::{BlockEntry, CellRect, SpQuadtree, COLOR_SOURCE};

/// The most common imports.
pub mod prelude {
    pub use crate::browser::DistanceBrowser;
    pub use crate::index::{BuildConfig, SilcIndex};
    pub use crate::interval::DistInterval;
    pub use crate::refine::RefinableDistance;
    pub use silc_network::{SpatialNetwork, VertexId};
}
