//! Spatial networks: graphs with spatial positions at vertices and travel
//! costs on edges.
//!
//! This crate is the substrate under the SILC framework. It provides:
//!
//! * [`SpatialNetwork`] — a compact CSR representation of a directed,
//!   weighted graph whose vertices carry planar positions,
//! * [`NetworkBuilder`] — incremental construction,
//! * [`dijkstra`] — full single-source shortest paths with *first-hop*
//!   extraction (the coloring SILC precomputation needs), point-to-point
//!   search with visit counting, and a step-wise [`dijkstra::Expander`] that
//!   the INE baseline drives incrementally,
//! * [`generate`] — synthetic road-network generators (perturbed grids and
//!   Gabriel-graph road networks) standing in for the paper's TIGER-derived
//!   US eastern-seaboard network,
//! * [`analysis`] — connectivity checks and component extraction,
//! * [`io`] — a compact binary serialization so generated networks can be
//!   cached between experiment runs.

pub mod analysis;
pub mod dijkstra;
pub mod generate;
pub mod graph;
pub mod io;
pub mod paged;
pub mod partition;

pub use dijkstra::SsspWorkspace;
pub use graph::{NetworkBuilder, SpatialNetwork, VertexId};
pub use partition::{partition_network, NetworkPartition, PartitionConfig, PartitionError};
