//! Disk pages and buffering for disk-resident SILC indexes.
//!
//! The paper's experiments run the shortest-path quadtrees from disk through
//! an LRU cache holding 5 % of the pages, and show that I/O dominates query
//! time because every refinement may touch a different vertex's quadtree.
//! This crate provides that substrate for real:
//!
//! * [`PageStore`] — random access to fixed-size pages,
//! * [`FilePageStore`] — a real file on disk, read with `pread`,
//! * [`MemPageStore`] — an in-memory store for tests and baselines,
//! * [`BufferPool`] — a sharded LRU page cache with per-shard locks, store
//!   reads outside the lock, concurrent-miss dedup, and hit/miss/eviction
//!   counters with wall-clock accounting of time spent in the store;
//!   range reads coalesce cold spans into single store calls (at most
//!   [`MAX_COALESCED_PAGES`] pages) and an opt-in [`PrefetchPolicy`]
//!   extends them with sequential readahead, accounted exactly
//!   ([`IoStats::prefetched`] / [`IoStats::prefetch_hits`]),
//! * [`varint`] — canonical LEB128 varints and zigzag: PCP v4's pair
//!   groups and the frontier tier's metadata (`SILCFDT1`); since
//!   `SILCIDX4` the SILC index stores fixed-width records instead,
//! * [`ShardedCache`] — a generic concurrent LRU for objects *decoded* from
//!   pages (pair groups, frontier rows), sharing the pool's LRU core,
//! * [`TieredPool`] — a pool paired with a decoded-object cache, the
//!   stats/reset/clear plumbing of the disk structures that decode (the
//!   PCP oracle, the frontier tier); the SILC index searches pooled pages
//!   in place and uses a bare [`BufferPool`],
//! * [`ChecksumTable`] — per-page digests (8-lane FNV-1a) the pool verifies on
//!   every physical read, so bit rot surfaces as a typed error naming the
//!   page ([`PageCorrupt`]) instead of a silently wrong answer; every
//!   paged format writes and finds its table through [`checksum::seal`]
//!   and [`checksum::open_table`],
//! * retries — the pool retries a transient store fault up to twice, with
//!   a deterministic 1 ms then 2 ms backoff, and counts them exactly in
//!   [`IoStats`]'s `retries`/`faults_seen`,
//! * [`FaultInjectingPageStore`] — seeded, reproducible fault injection
//!   (transient, permanent, bit-flip, torn reads) for chaos tests.

pub mod cache;
pub mod checksum;
pub mod fault;
pub(crate) mod lru;
pub mod pool;
pub mod store;
pub mod tiered;
pub mod varint;

pub use cache::{CacheStats, ShardedCache};
pub use checksum::{
    as_page_corrupt, corrupt_page, fnv1a64, fnv1a64x8, read_span_verified, ChecksumTable,
    PageCorrupt,
};
pub use fault::{FaultCounts, FaultInjectingPageStore, FaultKind, FaultRates};
pub use pool::{BufferPool, IoStats, PrefetchPolicy, MAX_COALESCED_PAGES};
pub use store::{FilePageStore, MemPageStore, PageId, PageStore, PAGE_SIZE};
pub use tiered::{default_decoded_capacity, read_span, TieredPool};
