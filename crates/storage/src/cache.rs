//! A sharded LRU cache for decoded objects.
//!
//! [`crate::BufferPool`] caches raw pages; anything built *from* those pages
//! (decoded pair groups, frontier rows, …) is re-materialized on
//! every lookup unless it is cached too. [`ShardedCache`] is that second
//! level: a concurrent, fixed-capacity LRU map from `u64` keys to clonable
//! values, sharded like the pool so parallel readers rarely contend.
//!
//! Unlike the pool there is no miss dedup: values are produced from already
//! cached pages (cheap, no I/O), so two threads occasionally decoding the
//! same entry concurrently is cheaper than a condvar handshake.

use crate::lru::LruList;
use std::sync::{Mutex, MutexGuard};

/// Default shard count; clamped so every shard holds at least one entry.
const DEFAULT_SHARDS: usize = 8;

/// Hit/miss/eviction counters of a [`ShardedCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn requests(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from cache (1.0 for an idle cache).
    pub fn hit_rate(&self) -> f64 {
        let total = self.requests();
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct CacheShard<V> {
    list: LruList<V>,
    stats: CacheStats,
}

/// A concurrent fixed-capacity LRU map from `u64` keys to clonable values.
pub struct ShardedCache<V> {
    shards: Box<[Mutex<CacheShard<V>>]>,
    capacity: usize,
}

impl<V: Clone> ShardedCache<V> {
    /// A cache holding at most `capacity` values (minimum 1) across the
    /// default shard count.
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, DEFAULT_SHARDS)
    }

    /// A cache with an explicit shard count (clamped so every shard holds
    /// at least one value).
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let capacity = capacity.max(1);
        let shards = shards.clamp(1, capacity);
        let base = capacity / shards;
        let extra = capacity % shards;
        let shards: Box<[Mutex<CacheShard<V>>]> = (0..shards)
            .map(|i| {
                Mutex::new(CacheShard {
                    list: LruList::new(base + usize::from(i < extra)),
                    stats: CacheStats::default(),
                })
            })
            .collect();
        ShardedCache { shards, capacity }
    }

    /// Maximum number of cached values (summed over all shards).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn shard(&self, key: u64) -> MutexGuard<'_, CacheShard<V>> {
        self.shards[(key % self.shards.len() as u64) as usize]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&self, key: u64) -> Option<V> {
        let mut shard = self.shard(key);
        match shard.list.get(key) {
            Some(v) => {
                shard.stats.hits += 1;
                Some(v)
            }
            None => {
                shard.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) `key`, evicting the shard's least recently
    /// used value when full.
    pub fn insert(&self, key: u64, value: V) {
        let mut shard = self.shard(key);
        if shard.list.insert(key, value).is_some() {
            shard.stats.evictions += 1;
        }
    }

    /// Snapshot of the counters, aggregated across shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in self.shards.iter() {
            let st = shard.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            total.hits += st.stats.hits;
            total.misses += st.stats.misses;
            total.evictions += st.stats.evictions;
        }
        total
    }

    /// Zeroes the counters (cached values are kept).
    pub fn reset_stats(&self) {
        for shard in self.shards.iter() {
            shard.lock().unwrap_or_else(std::sync::PoisonError::into_inner).stats =
                CacheStats::default();
        }
    }

    /// Drops every cached value (counters are kept).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.lock().unwrap_or_else(std::sync::PoisonError::into_inner).list.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_insert_roundtrip() {
        let c: ShardedCache<u32> = ShardedCache::new(4);
        assert_eq!(c.get(1), None);
        c.insert(1, 11);
        assert_eq!(c.get(1), Some(11));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_bounds_shards() {
        let c: ShardedCache<u8> = ShardedCache::new(2);
        assert!(c.shards.len() <= 2);
        assert_eq!(c.capacity(), 2);
    }

    #[test]
    fn eviction_counted() {
        let c: ShardedCache<u64> = ShardedCache::with_shards(1, 1);
        c.insert(0, 0);
        c.insert(1, 1);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.get(0), None);
        assert_eq!(c.get(1), Some(1));
    }

    #[test]
    fn clear_and_reset() {
        let c: ShardedCache<u64> = ShardedCache::new(8);
        c.insert(3, 3);
        c.clear();
        assert_eq!(c.get(3), None, "cleared values are gone");
        c.reset_stats();
        assert_eq!(c.stats(), CacheStats::default());
    }

    #[test]
    fn concurrent_use_is_consistent() {
        let c = std::sync::Arc::new(ShardedCache::<u64>::new(16));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let c = std::sync::Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let k = (i + t) % 32;
                        match c.get(k) {
                            Some(v) => assert_eq!(v, k * 10),
                            None => c.insert(k, k * 10),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = c.stats();
        assert_eq!(s.requests(), 800);
    }
}
