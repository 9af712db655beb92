//! Path-coherent pairs: approximate distance oracles for spatial networks.
//!
//! The paper's closing sections (p.28–29) sketch the *PCP framework*:
//! decompose the network into pairs of vertex sets `(A, B)` such that all
//! shortest paths from `A` to `B` are interchangeable up to a bounded
//! relative error — "anyone driving from the North-East to the North-West
//! uses I-80". The construction is the classic well-separated pair
//! decomposition (Callahan & Kosaraju) applied to the spatially embedded
//! vertices; one representative network distance per pair then answers
//! *any* `n²` distance query approximately in `O(log n)` — the
//! "Distance Oracle" rows of the paper's trade-off table (p.11).
//!
//! * [`SplitTree`] — a compressed quadtree over the vertex positions,
//! * [`wspd()`] — the s-well-separated pair decomposition (`O(s²n)` pairs),
//! * [`build`] — the batched, parallel construction pipeline
//!   ([`PcpBuildConfig`]): one truncated multi-target search per distinct
//!   representative instead of one probe per pair, chunked self-scheduling
//!   workers, and byte-identical output for any thread count,
//! * [`DistanceOracle`] — representative distances **and per-pair error
//!   caps** plus the pair-location query,
//! * [`write_oracle`] / [`DiskDistanceOracle`] — the same oracle with full
//!   disk parity to `silc::disk`: a paged file format and a
//!   served-from-pages form behind a sharded buffer pool.
//!
//! ## The ε guarantee: per-pair caps
//!
//! Every stored pair carries its **own** relative-error cap, computed from
//! exact network radii during construction (with an exact-refinement
//! fallback for the cap distribution's tail — see [`build`] for the
//! derivation and soundness argument). [`DistanceOracle::epsilon`] is the
//! maximum stored cap — a guarantee that actually binds on road networks —
//! and [`DistanceOracle::epsilon_for`] /
//! [`DistanceOracle::distance_with_epsilon`] expose the covering pair's cap
//! per query, which is what lets `silc-query`'s approximate kNN intervals
//! tighten. The classic first-order `4t/s` stretch bound survives as
//! [`DistanceOracle::epsilon_apriori`] for comparison.
//!
//! ## The page format (version 4)
//!
//! [`write_oracle`] lays the oracle out the way `DiskSilcIndex` lays out
//! quadtrees: a versioned header (including the guaranteed ε), the
//! split-tree skeleton, and a per-node pair directory form the pinned
//! metadata, while the `O(s²n)` pair payload fills fixed-size pages served
//! through the `silc_storage::BufferPool` with decoded groups in a
//! `ShardedCache`. The payload is **compressed**: within a group
//! the sorted `b`-side node ids are delta+varint coded and the
//! representative vertices are elided (they are always the split tree's
//! canonical representatives, re-derived at decode time), roughly 17.5
//! bytes per pair — see [`mod@format`] for the exact layout. Version 4 is
//! the only version read: an older file is refused at open with a
//! `Corrupt` error asking for a rebuild. Distances and caps are stored as
//! full `f64` bits, so
//! [`DiskDistanceOracle::distance`] and
//! [`DiskDistanceOracle::distance_with_epsilon`] are bit-identical to the
//! memory oracle.

pub mod build;
pub mod disk;
pub mod error;
pub mod format;
pub mod oracle;
pub mod split_tree;
pub mod wspd;

pub use build::{PcpBuildConfig, PcpBuildStats};
pub use disk::DiskDistanceOracle;
pub use error::PcpError;
pub use format::{encode_oracle, write_oracle};
pub use oracle::DistanceOracle;
pub use split_tree::{NodeRef, SplitTree};
pub use wspd::{wspd, WspdPair};
