//! The two-tier read path of the disk structures that decode.
//!
//! A disk structure whose records must be decoded before use serves a
//! lookup in three tiers: a cache of objects already *decoded* from page
//! bytes (no page access, no decode), then the page [`BufferPool`] (decode
//! from cached bytes), then the store itself. [`TieredPool`] is that
//! pairing — the hit/miss accounting, the combined reset/clear plumbing,
//! the sized-cache constructors — written once for the PCP oracle and the
//! frontier tier. (The SILC index, which searches its pooled pages in
//! place, reads a bare [`BufferPool`].)

use crate::cache::{CacheStats, ShardedCache};
use crate::checksum::ChecksumTable;
use crate::pool::{BufferPool, IoStats, PrefetchPolicy};
use crate::store::{PageId, PageStore, PAGE_SIZE};
use std::io;
use std::sync::Arc;

/// Default decoded-cache capacity for an index serving `n` distinct keys:
/// small relative to the index (it holds decoded structs, not pages) but
/// big enough that a query's working set stays decoded.
pub fn default_decoded_capacity(n: usize) -> usize {
    (n / 8).clamp(32, 4096)
}

/// Reads `len` bytes starting at byte offset `from` directly from a store
/// (no pool, no cache) — the way disk indexes load their pinned metadata
/// regions (headers, directories) exactly once at open time. The whole
/// span is fetched with one [`PageStore::read_pages`] call.
pub fn read_span<S: PageStore>(store: &S, from: usize, len: usize) -> io::Result<Vec<u8>> {
    if len == 0 {
        return Ok(Vec::new());
    }
    let page_lo = from / PAGE_SIZE;
    let page_hi = (from + len - 1) / PAGE_SIZE;
    let pages = store.read_pages(PageId(page_lo as u64), page_hi - page_lo + 1)?;
    let mut out = Vec::with_capacity(len);
    let mut off = from % PAGE_SIZE;
    for data in &pages {
        let take = (len - out.len()).min(PAGE_SIZE - off);
        out.extend_from_slice(&data[off..off + take]);
        off = 0;
    }
    Ok(out)
}

/// A [`BufferPool`] paired with a [`ShardedCache`] of values decoded from
/// its pages, with the combined stats/reset/clear plumbing.
///
/// Thread-safe like its two layers; share it behind an `Arc` (or as a field
/// of an `Arc`-shared index).
pub struct TieredPool<S: PageStore, V> {
    pool: BufferPool<S>,
    cache: ShardedCache<V>,
}

impl<S: PageStore, V: Clone> TieredPool<S, V> {
    /// Pairs a pool sized to `cache_fraction` of the store's pages (the
    /// paper uses 0.05) with a decoded cache of `decoded_capacity` values
    /// (minimum 1; see [`default_decoded_capacity`]).
    pub fn new(store: S, cache_fraction: f64, decoded_capacity: usize) -> Self {
        TieredPool {
            pool: BufferPool::with_fraction(store, cache_fraction),
            cache: ShardedCache::new(decoded_capacity),
        }
    }

    /// The page-level buffer pool.
    pub fn pool(&self) -> &BufferPool<S> {
        &self.pool
    }

    /// Enables per-page checksum verification in the pool. Configure
    /// before sharing.
    pub fn set_checksums(&mut self, checks: ChecksumTable) {
        self.pool.set_checksums(Arc::new(checks));
    }

    /// Sets the pool's readahead hint (see [`PrefetchPolicy`]). Configure
    /// before sharing.
    pub fn set_prefetch_policy(&mut self, prefetch: PrefetchPolicy) {
        self.pool.set_prefetch_policy(prefetch);
    }

    /// The underlying page store.
    pub fn store(&self) -> &S {
        self.pool.store()
    }

    /// The decoded-object cache.
    pub fn cache(&self) -> &ShardedCache<V> {
        &self.cache
    }

    /// I/O counters of the page pool.
    pub fn io_stats(&self) -> IoStats {
        self.pool.stats()
    }

    /// Hit/miss counters of the decoded-object cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Zeroes the counters of both tiers (cached contents are kept).
    pub fn reset_stats(&self) {
        self.pool.reset_stats();
        self.cache.reset_stats();
    }

    /// Drops all cached pages *and* decoded values (cold start).
    pub fn clear(&self) {
        self.pool.clear();
        self.cache.clear();
    }

    /// Tiered lookup: the decoded cache first; on a miss, `decode` produces
    /// the value by reading through the pool, and the result is cached. A
    /// decode error propagates and nothing is cached, so a later retry
    /// re-attempts the read instead of serving a poisoned value.
    ///
    /// Like [`ShardedCache`], concurrent misses on the same key may decode
    /// twice (values come from already-buffered pages, so duplicating the
    /// cheap decode beats a condvar handshake); the pool below still
    /// deduplicates the actual store reads.
    pub fn try_get_or_decode(
        &self,
        key: u64,
        decode: impl FnOnce(&BufferPool<S>) -> io::Result<V>,
    ) -> io::Result<V> {
        if let Some(v) = self.cache.get(key) {
            return Ok(v);
        }
        let v = decode(&self.pool)?;
        self.cache.insert(key, v.clone());
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemPageStore;
    use std::sync::Arc;

    fn store_with(pages: usize) -> MemPageStore {
        let mut data = Vec::with_capacity(pages * PAGE_SIZE);
        for p in 0..pages {
            data.extend(std::iter::repeat_n(p as u8, PAGE_SIZE));
        }
        MemPageStore::new(&data)
    }

    #[test]
    fn default_capacity_is_clamped() {
        assert_eq!(default_decoded_capacity(0), 32);
        assert_eq!(default_decoded_capacity(100), 32);
        assert_eq!(default_decoded_capacity(800), 100);
        assert_eq!(default_decoded_capacity(1_000_000), 4096);
    }

    #[test]
    fn read_span_crosses_page_boundaries() {
        let store = store_with(3);
        let bytes = read_span(&store, PAGE_SIZE - 4, 8).unwrap();
        assert_eq!(&bytes[..4], &[0u8; 4]);
        assert_eq!(&bytes[4..], &[1u8; 4]);
        assert!(read_span(&store, 3 * PAGE_SIZE - 1, 2).is_err(), "past EOF must fail");
    }

    #[test]
    fn pooled_read_span_is_cached_and_prefetch_aware() {
        let mut tiered: TieredPool<MemPageStore, u8> = TieredPool::new(store_with(4), 1.0, 4);
        tiered.set_prefetch_policy(PrefetchPolicy { window: 2 });
        let read = |from: u64, to: u64| {
            let mut out = Vec::new();
            tiered.pool().read_range(from, to, &mut out).unwrap();
            out
        };
        let span = PAGE_SIZE as u64 - 2..PAGE_SIZE as u64 + 2;
        let bytes = read(span.start, span.end);
        assert_eq!(bytes, &[0, 0, 1, 1]);
        let s = tiered.io_stats();
        assert_eq!((s.misses, s.prefetched), (2, 2), "readahead past the requested span");
        // The same span again is all pool hits — no further store reads.
        assert_eq!(read(span.start, span.end), bytes);
        let s = tiered.io_stats();
        assert_eq!((s.hits, s.misses, s.prefetched), (2, 2, 2));
        assert_eq!(read(0, 0), Vec::<u8>::new());
    }

    #[test]
    fn get_or_decode_hits_cache_then_pool() {
        let tiered: TieredPool<MemPageStore, Arc<[u8]>> = TieredPool::new(store_with(4), 1.0, 8);
        let decode = |pool: &BufferPool<MemPageStore>| -> io::Result<Arc<[u8]>> {
            let page = pool.get(PageId(2))?;
            Ok(page[..4].to_vec().into())
        };
        let a = tiered.try_get_or_decode(7, decode).unwrap();
        assert_eq!(&a[..], &[2u8; 4]);
        // Second lookup: served from the decoded cache, no pool traffic.
        let io_before = tiered.io_stats();
        let b = tiered.try_get_or_decode(7, |_| unreachable!("must be cached")).unwrap();
        assert_eq!(&b[..], &[2u8; 4]);
        assert_eq!(tiered.io_stats(), io_before);
        let cs = tiered.cache_stats();
        assert_eq!((cs.hits, cs.misses), (1, 1));
    }

    #[test]
    fn try_get_or_decode_caches_success_not_failure() {
        let tiered: TieredPool<MemPageStore, u8> = TieredPool::new(store_with(2), 1.0, 4);
        let err =
            tiered.try_get_or_decode(9, |pool| pool.get(PageId(55)).map(|p| p[0])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // The failure was not cached: the next attempt decodes for real.
        let v = tiered.try_get_or_decode(9, |pool| pool.get(PageId(1)).map(|p| p[0])).unwrap();
        assert_eq!(v, 1);
        // And the success *was* cached.
        let v = tiered.try_get_or_decode(9, |_| unreachable!("must be cached")).unwrap();
        assert_eq!(v, 1);
    }

    #[test]
    fn reset_and_clear_cover_both_tiers() {
        let tiered: TieredPool<MemPageStore, u8> = TieredPool::new(store_with(2), 1.0, 4);
        let first_byte = |pool: &BufferPool<MemPageStore>| pool.get(PageId(0)).map(|p| p[0]);
        tiered.try_get_or_decode(0, first_byte).unwrap();
        assert!(tiered.io_stats().misses > 0);
        assert_eq!(tiered.cache_stats().misses, 1);
        tiered.reset_stats();
        assert_eq!(tiered.io_stats(), IoStats::default());
        assert_eq!(tiered.cache_stats(), CacheStats::default());
        // clear drops both the decoded value and the cached page.
        tiered.clear();
        tiered.try_get_or_decode(0, first_byte).unwrap();
        assert_eq!(tiered.cache_stats().misses, 1, "cleared value must re-decode");
        assert_eq!(tiered.io_stats().misses, 1, "cleared page must re-read");
    }
}
