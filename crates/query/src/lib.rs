//! k-nearest-neighbor query processing over SILC indexes.
//!
//! This crate implements the query side of the paper: the non-incremental
//! best-first **kNN** algorithm (two priority structures `Q` and `L`, `Dk`
//! pruning, collision-driven refinement — paper §6), its variants
//!
//! * **INN** — the incremental algorithm kNN improves upon,
//! * **kNN-I** — additionally prunes queue insertions with the early
//!   estimate `D⁰k` obtained from the first k objects encountered,
//! * **kNN-M** — additionally confirms objects against `KMINDIST` (the
//!   minimum possible distance of the kth neighbor), giving up sorted
//!   output to skip most refinements,
//!
//! and the two competitors from Papadias et al. (VLDB 2003) the paper
//! evaluates against:
//!
//! * **INE** — incremental network expansion (Dijkstra with an object
//!   buffer),
//! * **IER** — incremental Euclidean restriction (Euclidean NN filter +
//!   one shortest-path computation per candidate).
//!
//! All SILC-based algorithms are generic over [`silc::DistanceBrowser`], so
//! they run identically against the in-memory and the disk-resident index;
//! every run returns [`QueryStats`] with the counters the paper's figures
//! report (refinements, maximum queue size, `D⁰k`/`KMINDIST` quality,
//! KMINDIST prunes, Dijkstra visits).
//!
//! ## The serving layer: engines and sessions
//!
//! Every algorithm exists in two forms sharing one implementation:
//!
//! * a **free function** (`knn`, `inn`, `ine`, `ier`, `ine_disk`,
//!   `ier_disk`) — a one-shot wrapper that builds a fresh workspace per
//!   call; convenient for tests and scripts,
//! * a **session method** ([`QuerySession::knn`], …) — runs the same core
//!   over the session's reusable workspaces (priority queue, object-state
//!   map, candidate list, Dijkstra arrays, result buffers), so a
//!   steady-state query performs **zero hot-path heap allocations**.
//!
//! The serving stack is also **oracle-generic**: [`ApproxDistanceOracle`]
//! abstracts the ε-approximate distance oracles of `silc-pcp` (memory and
//! disk-resident alike), and [`approx_knn`] / [`QuerySession::approx_knn`]
//! run IER-style kNN over one — a single oracle probe per candidate in
//! place of a shortest-path computation, with intervals that stay honest
//! about the ε error. This is what lets the paper's two halves (exact SILC
//! vs approximate PCP) be compared from the same disk substrate under the
//! same concurrency (`bench_tradeoff` in `silc-bench`).
//!
//! A [`QueryEngine`] pairs a shared `Arc` index with a shared object set
//! and is `Send + Sync`: clone it into every worker thread and open one
//! [`QuerySession`] per worker. Results from session methods are borrowed
//! from the session's buffers and are bit-identical to the one-shot
//! wrappers (locked by tests). Paired with the sharded buffer pool of
//! `DiskSilcIndex`, this is the crate's concurrent
//! query-serving architecture; the repository benchmark's `local_warm` and
//! `local_cold` workloads (`benchmark/`) measure it end to end.
//!
//! The same engine/session pattern extends across spatial shards:
//! [`PartitionedEngine`] / [`PartitionedSession`] (module [`router`]) route
//! a kNN over a `silc::PartitionedSilcIndex` — exact merging in the query's
//! home shard, sound distance intervals for cross-cut candidates, and a
//! `complete` flag certifying provably exact answers. `bench_scale` in
//! `silc-bench` drives it at 100 k vertices.
//!
//! Every session entry point has a fallible twin ([`QuerySession::try_knn`],
//! [`QuerySession::try_inn`], [`QuerySession::try_approx_knn`]) that
//! surfaces disk faults as typed [`silc::QueryError`]s instead of
//! panicking, and the partitioned router degrades gracefully when a shard
//! dies — healthy shards keep serving, the answer stays sound, and the
//! dead shards are reported in `degraded` (see [`router`]'s module docs).

pub mod approx;
pub mod baselines;
pub mod baselines_disk;
pub mod candidates;
pub mod edge_objects;
pub mod knn;
pub mod objects;
pub mod range;
pub mod result;
pub mod routable;
pub mod router;
pub mod session;
pub mod verify;

pub use approx::{approx_knn, try_approx_knn, ApproxDistanceOracle, ApproxScratch};
pub use baselines::{ier, ine, BaselineScratch};
pub use baselines_disk::{ier_disk, ine_disk};
pub use edge_objects::{EdgeObject, EdgeObjectDistance};
pub use knn::{inn, knn, try_inn, try_knn, KnnScratch, KnnVariant};
pub use objects::{ObjectId, ObjectSet};
pub use range::{within_distance, RangeResult};
pub use result::{KnnResult, Neighbor, QueryStats};
pub use routable::{Routable, RoutedAnswer, RoutingSession};
pub use router::{
    partitioned_knn, PartitionedEngine, PartitionedKnnResult, PartitionedNeighbor,
    PartitionedSession, RouterStats,
};
pub use session::{QueryEngine, QuerySession};
