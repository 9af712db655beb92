//! A sharded LRU buffer pool over a [`PageStore`].
//!
//! The pool is the one shared structure every concurrent query thread goes
//! through, so it is built for parallel readers: pages are partitioned
//! across N independent shards (by page id), each with its own mutex, LRU
//! list and I/O counters. Store reads happen **outside** the shard lock —
//! a miss publishes the page id in the shard's inflight set, releases the
//! lock, reads, then re-locks to insert; concurrent requests for the same
//! page wait on the shard's condvar instead of issuing a duplicate read.

use crate::checksum::ChecksumTable;
use crate::lru::LruList;
use crate::store::{PageId, PageStore, PAGE_SIZE};
use std::collections::HashSet;
use std::io;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Counters describing the pool's I/O behaviour since creation (or the last
/// [`BufferPool::reset_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Page requests served from the cache (including requests that waited
    /// for a concurrent loader of the same page).
    pub hits: u64,
    /// Page requests that went to the underlying store.
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
    /// Bytes read from the underlying store.
    pub bytes_read: u64,
    /// Wall-clock nanoseconds spent reading from the underlying store.
    pub read_nanos: u64,
    /// Store read attempts re-issued after a transient fault (at most two
    /// per store call).
    pub retries: u64,
    /// Store faults observed: transient errors, permanent errors, torn
    /// (short) reads, and checksum mismatches — whether or not a retry
    /// later succeeded.
    pub faults_seen: u64,
    /// Pages fetched beyond a requested range by the pool's
    /// [`PrefetchPolicy`]. Not requests: `hits + misses` stays the number
    /// of pages callers asked for, while `misses + prefetched` is the
    /// number of pages physically read from the store.
    pub prefetched: u64,
    /// Requests served from a page that entered the cache as a prefetch —
    /// the subset of `hits` the readahead hint paid for. A prefetched page
    /// is counted here at most once (its first hit); later hits on it are
    /// ordinary hits.
    pub prefetch_hits: u64,
}

impl IoStats {
    /// Total page requests.
    pub fn requests(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of requests served from cache (1.0 for an idle pool).
    pub fn hit_rate(&self) -> f64 {
        let total = self.requests();
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Time spent in the store, as seconds.
    pub fn read_seconds(&self) -> f64 {
        self.read_nanos as f64 / 1e9
    }

    /// Element-wise sum — aggregation across shards.
    fn add(&mut self, other: &IoStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.bytes_read += other.bytes_read;
        self.read_nanos += other.read_nanos;
        self.retries += other.retries;
        self.faults_seen += other.faults_seen;
        self.prefetched += other.prefetched;
        self.prefetch_hits += other.prefetch_hits;
    }
}

/// Readahead hint for [`BufferPool::read_range`].
///
/// When a cold run reaches the end of a requested range, the pool may
/// extend the same single [`PageStore::read_pages`] call by up to `window`
/// further sequential pages — betting that a scan continues where it left
/// off (entry regions and pair groups are laid out in scan order). The
/// extension never exceeds [`MAX_COALESCED_PAGES`] in total, never reads
/// past the store, and only covers pages that are neither cached nor
/// already being read.
///
/// Accounting is exact (see [`IoStats::prefetched`] /
/// [`IoStats::prefetch_hits`]), so a benchmark can prove whether the hint
/// pays. Note that with checksums enabled a corrupt *prefetched* page
/// fails the whole `read_range`, exactly like a corrupt requested page —
/// readahead does not widen the set of errors that go unreported.
///
/// The default window is 0: readahead off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchPolicy {
    /// Maximum number of pages to read ahead past a requested range.
    pub window: usize,
}

/// Total attempts per store call, the first one included. Only transient
/// faults (`io::ErrorKind::Interrupted`, `TimedOut` or `WouldBlock`) and
/// torn (short) reads are retried — the faults a healthy disk can recover
/// from on the next attempt. Permanent errors and checksum mismatches are
/// never retried.
const MAX_ATTEMPTS: u32 = 3;

/// Sleep before the first retry; it doubles per further retry (1 ms, then
/// 2 ms) with no jitter, so a given fault schedule always produces the same
/// retry sequence.
const BACKOFF: Duration = Duration::from_millis(1);

/// Is this the kind of store error a retry can plausibly clear?
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    )
}

/// Faults seen and retries issued during one store call sequence; merged
/// into the shard's [`IoStats`] under its lock afterwards.
#[derive(Default, Clone, Copy)]
struct FaultAcct {
    faults: u64,
    retries: u64,
}

/// Default shard count; clamped so every shard caches at least one page.
const DEFAULT_SHARDS: usize = 8;

/// Longest run of pages [`BufferPool::read_range`] reads with one store
/// call, readahead included — bounds the transient allocation (256 KiB)
/// while still collapsing any realistic entry-region scan into a single
/// syscall. A [`PrefetchPolicy`] window is clamped so that the claimed run
/// plus its extension never exceeds this many pages.
pub const MAX_COALESCED_PAGES: usize = 64;

/// Outcome of probing a single page under its shard lock.
enum Probe {
    /// Cached; the hit has been counted.
    Hit(Arc<[u8]>),
    /// Another thread is loading it.
    Busy,
    /// Neither cached nor inflight; the caller now owns the inflight claim.
    Claimed,
}

/// Releases a run of inflight claims if the owning read never completed
/// (store error or panic) — without it, waiters on any claimed page would
/// sleep in the condvar forever.
struct RunGuard<'a, S: PageStore> {
    pool: &'a BufferPool<S>,
    first: u64,
    count: usize,
    armed: bool,
}

impl<S: PageStore> Drop for RunGuard<'_, S> {
    fn drop(&mut self) {
        if self.armed {
            for i in 0..self.count as u64 {
                let page = self.first + i;
                let shard = self.pool.shard(page);
                shard.lock().inflight.remove(&page);
                shard.loaded.notify_all();
            }
        }
    }
}

/// Per-shard state: the LRU list of cached pages, the shard's inflight
/// reads, and its I/O counters. All behind the shard mutex.
struct LruState {
    list: LruList<Arc<[u8]>>,
    /// Pages currently being read from the store by some thread. A page is
    /// never cached and inflight at the same time.
    inflight: HashSet<u64>,
    /// Cached pages that entered as readahead and have not been requested
    /// yet — the first request of such a page counts a `prefetch_hit`.
    /// Eviction removes a page from here too, so a later ordinary re-read
    /// is never miscounted as a prefetch payoff.
    prefetched: HashSet<u64>,
    stats: IoStats,
}

impl LruState {
    fn new(capacity: usize) -> Self {
        LruState {
            list: LruList::new(capacity),
            inflight: HashSet::new(),
            prefetched: HashSet::new(),
            stats: IoStats::default(),
        }
    }

    /// Counts a cache hit of `page`, classifying the first hit of a
    /// prefetched page.
    fn count_hit(&mut self, page: u64) {
        self.stats.hits += 1;
        if self.prefetched.remove(&page) {
            self.stats.prefetch_hits += 1;
        }
    }

    /// Inserts `page`, counting an eviction and dropping evicted-page
    /// metadata.
    fn insert_page(&mut self, page: u64, data: Arc<[u8]>) {
        if let Some(victim) = self.list.insert(page, data) {
            self.stats.evictions += 1;
            self.prefetched.remove(&victim);
        }
    }
}

struct Shard {
    state: Mutex<LruState>,
    /// Signalled whenever an inflight read completes (or fails).
    loaded: Condvar,
}

impl Shard {
    fn lock(&self) -> MutexGuard<'_, LruState> {
        // A poisoned shard (a panic under the lock) keeps serving: the LRU
        // structure is only mutated through small, non-panicking steps.
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A fixed-capacity sharded LRU cache of pages in front of a [`PageStore`].
///
/// Thread-safe and built for concurrent readers: page ids are partitioned
/// across shards, each with its own lock, so readers touching different
/// pages rarely contend. Store reads run outside the shard lock; concurrent
/// misses on the same page are deduplicated (one read, everyone else waits
/// and is then served from memory — counted as a hit).
///
/// [`Self::read_range`] coalesces cold contiguous spans into single store
/// calls of at most [`MAX_COALESCED_PAGES`] pages, and an optional
/// [`PrefetchPolicy`] extends such a run past the requested range (within
/// the same cap) when a sequential scan is expected to continue.
pub struct BufferPool<S: PageStore> {
    store: S,
    capacity: usize,
    shards: Box<[Shard]>,
    prefetch: PrefetchPolicy,
    checks: Option<Arc<ChecksumTable>>,
}

impl<S: PageStore> BufferPool<S> {
    /// Creates a pool holding at most `capacity` pages (minimum 1) across
    /// the default shard count.
    pub fn new(store: S, capacity: usize) -> Self {
        Self::with_shards(store, capacity, DEFAULT_SHARDS)
    }

    /// Creates a pool with an explicit shard count (minimum 1; clamped so
    /// every shard caches at least one page). `shards = 1` gives a single
    /// globally ordered LRU — useful when exact eviction order matters more
    /// than concurrency.
    pub fn with_shards(store: S, capacity: usize, shards: usize) -> Self {
        let capacity = capacity.max(1);
        let shards = shards.clamp(1, capacity);
        // Distribute capacity as evenly as possible; totals stay exact.
        let base = capacity / shards;
        let extra = capacity % shards;
        let shards: Box<[Shard]> = (0..shards)
            .map(|i| Shard {
                state: Mutex::new(LruState::new(base + usize::from(i < extra))),
                loaded: Condvar::new(),
            })
            .collect();
        BufferPool { store, capacity, shards, prefetch: PrefetchPolicy::default(), checks: None }
    }

    /// Creates a pool sized to `fraction` of the store's pages — the paper
    /// uses 5 % (`fraction = 0.05`).
    pub fn with_fraction(store: S, fraction: f64) -> Self {
        assert!(fraction > 0.0 && fraction <= 1.0, "fraction must be in (0, 1]");
        let cap = ((store.page_count() as f64 * fraction).ceil() as usize).max(1);
        Self::new(store, cap)
    }

    /// Maximum number of cached pages (summed over all shards).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of shards the cache is partitioned into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The underlying store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Sets the readahead hint for [`Self::read_range`] (see
    /// [`PrefetchPolicy`]). Configure before sharing the pool across
    /// threads.
    pub fn set_prefetch_policy(&mut self, prefetch: PrefetchPolicy) {
        self.prefetch = prefetch;
    }

    /// The pool's current prefetch policy.
    pub fn prefetch_policy(&self) -> PrefetchPolicy {
        self.prefetch
    }

    /// Verifies every page fetched from the store against `checks` —
    /// cache hits pay nothing. A mismatch surfaces as the typed error of
    /// [`corrupt_page`](crate::checksum::corrupt_page), naming the page.
    /// Configure before sharing the pool across threads.
    pub fn set_checksums(&mut self, checks: Arc<ChecksumTable>) {
        self.checks = Some(checks);
    }

    /// One store call for a single page, with retries on transient faults
    /// and checksum verification, accounting into `acct`. Runs with no
    /// shard lock held.
    fn fetch_page(&self, page: PageId, acct: &mut FaultAcct) -> io::Result<Arc<[u8]>> {
        let mut attempt = 1u32;
        loop {
            let result = self.store.read_page(page).and_then(|data| {
                if data.len() != PAGE_SIZE {
                    // A torn read: the store delivered fewer bytes than a
                    // page. Modeled as transient — re-reading a healthy
                    // store yields the full page.
                    return Err(io::Error::new(
                        io::ErrorKind::Interrupted,
                        format!("torn read: page {} returned {} bytes", page.0, data.len()),
                    ));
                }
                Ok(data)
            });
            match result {
                Ok(data) => {
                    if let Some(checks) = &self.checks {
                        if let Err(e) = checks.verify(page.0, &data) {
                            acct.faults += 1; // corruption is never retried
                            return Err(e);
                        }
                    }
                    return Ok(data);
                }
                Err(e) => {
                    acct.faults += 1;
                    if is_transient(&e) && attempt < MAX_ATTEMPTS {
                        acct.retries += 1;
                        std::thread::sleep(BACKOFF * (1 << (attempt - 1)));
                        attempt += 1;
                        continue;
                    }
                    return Err(e);
                }
            }
        }
    }

    /// One store call for a run of pages, with the same retry, torn-read
    /// and checksum semantics as [`Self::fetch_page`].
    fn fetch_run(
        &self,
        first: PageId,
        count: usize,
        acct: &mut FaultAcct,
    ) -> io::Result<Vec<Arc<[u8]>>> {
        let mut attempt = 1u32;
        loop {
            let result = self.store.read_pages(first, count).and_then(|pages| {
                if pages.len() != count {
                    return Err(io::Error::new(
                        io::ErrorKind::Interrupted,
                        format!("torn run: {} pages returned for a run of {count}", pages.len()),
                    ));
                }
                if let Some(i) = pages.iter().position(|p| p.len() != PAGE_SIZE) {
                    return Err(io::Error::new(
                        io::ErrorKind::Interrupted,
                        format!(
                            "torn read: page {} returned {} bytes",
                            first.0 + i as u64,
                            pages[i].len()
                        ),
                    ));
                }
                Ok(pages)
            });
            match result {
                Ok(pages) => {
                    if let Some(checks) = &self.checks {
                        for (i, data) in pages.iter().enumerate() {
                            if let Err(e) = checks.verify(first.0 + i as u64, data) {
                                acct.faults += 1;
                                return Err(e);
                            }
                        }
                    }
                    return Ok(pages);
                }
                Err(e) => {
                    acct.faults += 1;
                    if is_transient(&e) && attempt < MAX_ATTEMPTS {
                        acct.retries += 1;
                        std::thread::sleep(BACKOFF * (1 << (attempt - 1)));
                        attempt += 1;
                        continue;
                    }
                    return Err(e);
                }
            }
        }
    }

    #[inline]
    fn shard(&self, page: u64) -> &Shard {
        // Modulo keeps consecutive pages on different shards, so the
        // sequential scans of entry lists spread across all locks.
        &self.shards[(page % self.shards.len() as u64) as usize]
    }

    /// Fetches a page, from cache when possible.
    pub fn get(&self, page: PageId) -> io::Result<Arc<[u8]>> {
        let shard = self.shard(page.0);
        let mut st = shard.lock();
        loop {
            if let Some(data) = st.list.get(page.0) {
                st.count_hit(page.0);
                return Ok(data);
            }
            if st.inflight.contains(&page.0) {
                // Another thread is reading this page: wait for it rather
                // than duplicating the store read, then re-check the map.
                st = shard.loaded.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
                continue;
            }
            st.inflight.insert(page.0);
            break;
        }
        drop(st);

        // The store read happens with no lock held. The guard covers a
        // *panicking* store implementation: without it, an unwind here would
        // leave the page id in the inflight set forever, deadlocking every
        // future `get` of this page in its condvar wait.
        struct InflightGuard<'a> {
            shard: &'a Shard,
            page: u64,
            armed: bool,
        }
        impl Drop for InflightGuard<'_> {
            fn drop(&mut self) {
                if self.armed {
                    self.shard.lock().inflight.remove(&self.page);
                    self.shard.loaded.notify_all();
                }
            }
        }
        let mut guard = InflightGuard { shard, page: page.0, armed: true };
        let mut acct = FaultAcct::default();
        let start = Instant::now();
        let result = self.fetch_page(page, &mut acct);
        let nanos = start.elapsed().as_nanos() as u64;

        let mut st = shard.lock();
        guard.armed = false; // cleanup happens right here, under the lock
        st.inflight.remove(&page.0);
        shard.loaded.notify_all();
        st.stats.faults_seen += acct.faults;
        st.stats.retries += acct.retries;
        let data = match result {
            Ok(data) => data,
            Err(e) => {
                // Waiters re-check, find neither a cached page nor an
                // inflight read, and retry the store themselves.
                return Err(e);
            }
        };
        st.stats.misses += 1;
        st.stats.bytes_read += data.len() as u64;
        st.stats.read_nanos += nanos;
        st.insert_page(page.0, Arc::clone(&data));
        Ok(data)
    }

    /// Probes one page under its shard lock without triggering a store
    /// read: a cache hit is counted and returned, a page someone else is
    /// loading reports [`Probe::Busy`], and anything else is claimed as
    /// inflight by the caller ([`Probe::Claimed`]) — who then owns the read
    /// and the cleanup.
    fn probe(&self, page: u64) -> Probe {
        let shard = self.shard(page);
        let mut st = shard.lock();
        if let Some(data) = st.list.get(page) {
            st.count_hit(page);
            return Probe::Hit(data);
        }
        if st.inflight.contains(&page) {
            return Probe::Busy;
        }
        st.inflight.insert(page);
        Probe::Claimed
    }

    /// Claims `page` as inflight if it is neither cached nor already being
    /// loaded. Unlike [`BufferPool::probe`] this counts nothing: a `false`
    /// just ends the run, and the page is probed properly later.
    fn try_claim(&self, page: u64) -> bool {
        let mut st = self.shard(page).lock();
        if st.list.contains(page) || st.inflight.contains(&page) {
            return false;
        }
        st.inflight.insert(page);
        true
    }

    /// Appends the bytes in `[byte_lo, byte_hi)` to `out`, fetching each
    /// covered page through the cache — the access pattern of decoding a
    /// variable-length record region that ignores page boundaries.
    ///
    /// Runs of consecutive uncached pages are claimed together (at most
    /// [`MAX_COALESCED_PAGES`] per run) and read with a single
    /// [`PageStore::read_pages`] call (one syscall instead of one per page
    /// on a file store), which is what makes cold sequential scans of
    /// entry regions cheap. When a [`PrefetchPolicy`] is set, a run that
    /// reaches the end of the range is extended past it by up to `window`
    /// readahead pages in the same store call. The I/O counters stay
    /// exact: every covered page still counts exactly one hit or one miss,
    /// and `misses + prefetched` equals the pages fetched from the store.
    pub fn read_range(&self, byte_lo: u64, byte_hi: u64, out: &mut Vec<u8>) -> io::Result<()> {
        if byte_hi <= byte_lo {
            return Ok(());
        }
        let slice_of = |data: &Arc<[u8]>, page: u64, out: &mut Vec<u8>| {
            let lo = byte_lo.max(page * PAGE_SIZE as u64) - page * PAGE_SIZE as u64;
            let hi = byte_hi.min((page + 1) * PAGE_SIZE as u64) - page * PAGE_SIZE as u64;
            out.extend_from_slice(&data[lo as usize..hi as usize]);
        };
        let page_lo = byte_lo / PAGE_SIZE as u64;
        let page_hi = (byte_hi - 1) / PAGE_SIZE as u64;
        let mut page = page_lo;
        while page <= page_hi {
            match self.probe(page) {
                Probe::Hit(data) => {
                    slice_of(&data, page, out);
                    page += 1;
                }
                Probe::Busy => {
                    // Someone else is loading it: `get` waits on the condvar
                    // and counts the request once resolved.
                    let data = self.get(PageId(page))?;
                    slice_of(&data, page, out);
                    page += 1;
                }
                Probe::Claimed => {
                    // Extend the claim over the longest run of consecutive
                    // pages that are neither cached nor inflight, then read
                    // the whole run with one store call.
                    let cap = MAX_COALESCED_PAGES.min((page_hi - page + 1) as usize);
                    let mut count = 1usize;
                    while count < cap && self.try_claim(page + count as u64) {
                        count += 1;
                    }
                    // Readahead: a cold run that reaches the end of the
                    // requested range keeps claiming up to `window` further
                    // sequential pages — same store call, same cap, never
                    // past the store's end.
                    if self.prefetch.window > 0 && page + count as u64 == page_hi + 1 {
                        let store_pages = self.store.page_count();
                        let limit = (count + self.prefetch.window)
                            .min(MAX_COALESCED_PAGES)
                            .min(store_pages.saturating_sub(page) as usize);
                        while count < limit && self.try_claim(page + count as u64) {
                            count += 1;
                        }
                    }
                    // The guard covers a panicking or failing store: the
                    // claimed inflight entries must be released either way,
                    // or future readers of these pages deadlock.
                    let mut guard = RunGuard { pool: self, first: page, count, armed: true };
                    let mut acct = FaultAcct::default();
                    let start = Instant::now();
                    let pages = self.fetch_run(PageId(page), count, &mut acct);
                    let nanos = start.elapsed().as_nanos() as u64;
                    if acct.faults != 0 {
                        // Like read_nanos, the run's fault counters are
                        // attributed once, to the first page's shard.
                        let mut st = self.shard(page).lock();
                        st.stats.faults_seen += acct.faults;
                        st.stats.retries += acct.retries;
                    }
                    let pages = pages?; // guard releases the claims on error
                    for (i, data) in pages.iter().enumerate() {
                        let p = page + i as u64;
                        let shard = self.shard(p);
                        let mut st = shard.lock();
                        st.inflight.remove(&p);
                        if p <= page_hi {
                            st.stats.misses += 1;
                        } else {
                            // A readahead page: physically read, but not a
                            // request — its first hit proves the bet paid.
                            st.stats.prefetched += 1;
                            st.prefetched.insert(p);
                        }
                        st.stats.bytes_read += data.len() as u64;
                        if i == 0 {
                            // The run's wall-clock is one store call; it is
                            // attributed once, to the first page's shard, so
                            // the aggregate stays exact.
                            st.stats.read_nanos += nanos;
                        }
                        st.insert_page(p, Arc::clone(data));
                        drop(st);
                        shard.loaded.notify_all();
                        if p <= page_hi {
                            slice_of(data, p, out);
                        }
                    }
                    guard.armed = false;
                    page += count as u64;
                }
            }
        }
        Ok(())
    }

    /// Snapshot of the I/O counters, aggregated across shards.
    ///
    /// Each shard's counters are internally consistent (`hits + misses`
    /// equals the successful requests routed to it); the aggregate is a sum
    /// of per-shard snapshots, so totals are exact once concurrent `get`s
    /// have returned.
    pub fn stats(&self) -> IoStats {
        let mut total = IoStats::default();
        for shard in self.shards.iter() {
            total.add(&shard.lock().stats);
        }
        total
    }

    /// Zeroes the I/O counters (the cache contents are kept).
    pub fn reset_stats(&self) {
        for shard in self.shards.iter() {
            shard.lock().stats = IoStats::default();
        }
    }

    /// Drops every cached page (counters are kept). Used to cold-start
    /// experiment repetitions.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut st = shard.lock();
            st.list.clear();
            st.prefetched.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{MemPageStore, PAGE_SIZE};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn store_with(pages: usize) -> MemPageStore {
        let mut data = Vec::with_capacity(pages * PAGE_SIZE);
        for p in 0..pages {
            data.extend(std::iter::repeat_n(p as u8, PAGE_SIZE));
        }
        MemPageStore::new(&data)
    }

    /// A store that counts (and can stall) physical reads — for dedup and
    /// coalescing tests. `reads` counts pages fetched, `calls` counts store
    /// operations; a coalesced run is one call fetching many pages.
    struct CountingStore {
        inner: MemPageStore,
        reads: AtomicU64,
        calls: AtomicU64,
        delay: std::time::Duration,
    }

    impl PageStore for CountingStore {
        fn read_page(&self, page: PageId) -> io::Result<Arc<[u8]>> {
            self.reads.fetch_add(1, Ordering::Relaxed);
            self.calls.fetch_add(1, Ordering::Relaxed);
            if !self.delay.is_zero() {
                std::thread::sleep(self.delay);
            }
            self.inner.read_page(page)
        }

        fn page_count(&self) -> u64 {
            self.inner.page_count()
        }

        fn read_pages(&self, first: PageId, count: usize) -> io::Result<Vec<Arc<[u8]>>> {
            self.reads.fetch_add(count as u64, Ordering::Relaxed);
            self.calls.fetch_add(1, Ordering::Relaxed);
            if !self.delay.is_zero() {
                std::thread::sleep(self.delay);
            }
            self.inner.read_pages(first, count)
        }
    }

    #[test]
    fn hit_after_miss() {
        let pool = BufferPool::new(store_with(4), 2);
        let a = pool.get(PageId(1)).unwrap();
        assert_eq!(a[0], 1);
        let _b = pool.get(PageId(1)).unwrap();
        let s = pool.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.bytes_read, PAGE_SIZE as u64);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Single shard: exact global LRU order is observable.
        let pool = BufferPool::with_shards(store_with(4), 2, 1);
        pool.get(PageId(0)).unwrap(); // cache: [0]
        pool.get(PageId(1)).unwrap(); // cache: [1, 0]
        pool.get(PageId(0)).unwrap(); // touch 0 -> [0, 1]
        pool.get(PageId(2)).unwrap(); // evicts 1 -> [2, 0]
        let before = pool.stats();
        assert_eq!(before.evictions, 1);
        pool.get(PageId(0)).unwrap(); // still cached
        assert_eq!(pool.stats().hits, before.hits + 1);
        pool.get(PageId(1)).unwrap(); // evicted: miss
        assert_eq!(pool.stats().misses, before.misses + 1);
    }

    #[test]
    fn capacity_one_thrashes() {
        let pool = BufferPool::new(store_with(3), 1);
        assert_eq!(pool.shard_count(), 1, "capacity bounds the shard count");
        for _ in 0..3 {
            pool.get(PageId(0)).unwrap();
            pool.get(PageId(1)).unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 6);
        assert_eq!(s.evictions, 5);
    }

    #[test]
    fn fraction_sizing() {
        let pool = BufferPool::with_fraction(store_with(100), 0.05);
        assert_eq!(pool.capacity(), 5);
        let tiny = BufferPool::with_fraction(store_with(3), 0.05);
        assert_eq!(tiny.capacity(), 1);
    }

    #[test]
    fn shard_capacities_sum_to_total() {
        for cap in [1usize, 2, 5, 7, 8, 9, 64] {
            let pool = BufferPool::new(store_with(4), cap);
            assert_eq!(pool.capacity(), cap);
            assert!(pool.shard_count() <= cap);
            let shard_total: usize = pool.shards.iter().map(|s| s.lock().list.capacity()).sum();
            assert_eq!(shard_total, cap, "per-shard capacities must sum to the total");
            assert!(pool.shards.iter().all(|s| s.lock().list.capacity() >= 1));
        }
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn zero_fraction_rejected() {
        let _ = BufferPool::with_fraction(store_with(1), 0.0);
    }

    #[test]
    fn clear_then_reuse() {
        let pool = BufferPool::new(store_with(4), 4);
        pool.get(PageId(0)).unwrap();
        pool.get(PageId(1)).unwrap();
        pool.clear();
        pool.get(PageId(0)).unwrap();
        let s = pool.stats();
        assert_eq!(s.misses, 3, "all requests after clear() are cold");
        pool.reset_stats();
        assert_eq!(pool.stats(), IoStats::default());
    }

    #[test]
    fn error_propagates_without_poisoning() {
        let pool = BufferPool::new(store_with(2), 2);
        assert!(pool.get(PageId(10)).is_err());
        // The pool still works afterwards, including for the failed page id
        // (no stuck inflight entry).
        assert!(pool.get(PageId(0)).is_ok());
        assert!(pool.get(PageId(10)).is_err());
    }

    #[test]
    fn hit_rate_math() {
        let s = IoStats { hits: 3, misses: 1, ..Default::default() };
        assert_eq!(s.requests(), 4);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(IoStats::default().hit_rate(), 1.0);
    }

    #[test]
    fn shared_across_threads() {
        let pool = std::sync::Arc::new(BufferPool::new(store_with(8), 4));
        let mut handles = Vec::new();
        for t in 0..4 {
            let p = std::sync::Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    let page = PageId((i + t) % 8);
                    let data = p.get(page).unwrap();
                    assert_eq!(data[0] as u64, page.0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.stats().requests(), 200);
    }

    #[test]
    fn concurrent_misses_on_one_page_read_store_once() {
        let store = CountingStore {
            inner: store_with(2),
            reads: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            delay: std::time::Duration::from_millis(20),
        };
        let pool = std::sync::Arc::new(BufferPool::new(store, 2));
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let p = std::sync::Arc::clone(&pool);
                let b = std::sync::Arc::clone(&barrier);
                std::thread::spawn(move || {
                    b.wait();
                    let data = p.get(PageId(1)).unwrap();
                    assert_eq!(data[0], 1);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            pool.store().reads.load(Ordering::Relaxed),
            1,
            "concurrent misses must be deduplicated into one store read"
        );
        let s = pool.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 7, "waiters are served from memory and count as hits");
    }

    #[test]
    fn panicking_store_does_not_strand_the_inflight_entry() {
        // A store that panics (not Errs) on its first read of page 1: the
        // unwinding thread must clean up its inflight entry, or every later
        // get(1) deadlocks in the condvar wait.
        struct PanicOnceStore {
            inner: MemPageStore,
            armed: std::sync::atomic::AtomicBool,
        }
        impl PageStore for PanicOnceStore {
            fn read_page(&self, page: PageId) -> io::Result<Arc<[u8]>> {
                if page.0 == 1 && self.armed.swap(false, Ordering::SeqCst) {
                    panic!("injected store panic");
                }
                self.inner.read_page(page)
            }
            fn page_count(&self) -> u64 {
                self.inner.page_count()
            }
        }
        let store = PanicOnceStore {
            inner: store_with(4),
            armed: std::sync::atomic::AtomicBool::new(true),
        };
        let pool = std::sync::Arc::new(BufferPool::new(store, 2));
        let p = std::sync::Arc::clone(&pool);
        let crashed = std::thread::spawn(move || p.get(PageId(1))).join();
        assert!(crashed.is_err(), "the injected panic must propagate");
        // The next read of the same page must neither hang nor fail.
        let data = pool.get(PageId(1)).unwrap();
        assert_eq!(data[0], 1);
        assert_eq!(pool.stats().misses, 1, "only the successful read is counted");
    }

    #[test]
    fn stress_accounting_stays_consistent() {
        // Many threads hammer a pool much smaller than the page set; at the
        // end every counter identity must hold exactly — no lost updates.
        const THREADS: u64 = 8;
        const ITERS: u64 = 400;
        const PAGES: u64 = 32;
        let store = CountingStore {
            inner: store_with(PAGES as usize),
            reads: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            delay: std::time::Duration::ZERO,
        };
        let pool = std::sync::Arc::new(BufferPool::new(store, 8));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let p = std::sync::Arc::clone(&pool);
                std::thread::spawn(move || {
                    // Each thread walks a different stride so the access
                    // pattern mixes heavy sharing with private pages.
                    let mut x = t;
                    for i in 0..ITERS {
                        x = (x.wrapping_mul(6364136223846793005).wrapping_add(t + i)) % PAGES;
                        let data = p.get(PageId(x)).unwrap();
                        assert_eq!(data[0] as u64, x, "wrong page content under contention");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.requests(), THREADS * ITERS, "hits + misses must equal total requests");
        assert_eq!(
            s.misses,
            pool.store().reads.load(Ordering::Relaxed),
            "every miss is exactly one store read"
        );
        assert_eq!(s.bytes_read, s.misses * PAGE_SIZE as u64);
        assert!(s.evictions <= s.misses, "cannot evict more than was inserted");
        // The cache never exceeds its capacity.
        let cached: usize = pool.shards.iter().map(|sh| sh.lock().list.len()).sum();
        assert!(cached <= pool.capacity());
    }

    #[test]
    fn transient_faults_are_retried_with_exact_counters() {
        use crate::fault::{FaultInjectingPageStore, FaultKind};
        let store = FaultInjectingPageStore::scripted(
            store_with(2),
            [Some(FaultKind::Transient), None, Some(FaultKind::Torn), None],
        );
        let pool = BufferPool::new(store, 2);
        // One transient error, then one torn read — each absorbed by one
        // retry, invisible to the caller.
        assert_eq!(pool.get(PageId(0)).unwrap()[0], 0);
        assert_eq!(pool.get(PageId(1)).unwrap()[0], 1);
        let s = pool.stats();
        assert_eq!((s.faults_seen, s.retries), (2, 2));
        assert_eq!((s.misses, s.hits), (2, 0));
        assert_eq!(s.bytes_read, 2 * PAGE_SIZE as u64);
    }

    #[test]
    fn exhausted_retries_surface_the_transient_error() {
        use crate::fault::{FaultInjectingPageStore, FaultKind};
        let store =
            FaultInjectingPageStore::scripted(store_with(2), vec![Some(FaultKind::Transient); 5]);
        let pool = BufferPool::new(store, 2); // 3 attempts
        let err = pool.get(PageId(0)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        let s = pool.stats();
        assert_eq!((s.faults_seen, s.retries), (3, 2), "3 attempts = 2 retries");
        assert_eq!(s.misses, 0, "a failed read is not a miss");
        // Two script entries remain; the next get consumes them and then
        // succeeds on the third attempt.
        assert_eq!(pool.get(PageId(0)).unwrap()[0], 0);
        let s = pool.stats();
        assert_eq!((s.faults_seen, s.retries, s.misses), (5, 4, 1));
    }

    #[test]
    fn permanent_faults_propagate_without_retry() {
        use crate::fault::{FaultInjectingPageStore, FaultKind};
        let store = FaultInjectingPageStore::scripted(store_with(2), [Some(FaultKind::Permanent)]);
        let pool = BufferPool::new(store, 2);
        assert!(pool.get(PageId(1)).is_err());
        let s = pool.stats();
        assert_eq!((s.faults_seen, s.retries), (1, 0), "permanent faults are not retried");
        assert_eq!(pool.store().injected().permanent, 1, "exactly one store attempt");
        // The page is dead in the store; the pool keeps failing it while
        // other pages still work.
        assert!(pool.get(PageId(1)).is_err());
        assert!(pool.get(PageId(0)).is_ok());
    }

    #[test]
    fn checksum_mismatch_is_typed_and_not_retried() {
        use crate::checksum::{as_page_corrupt, ChecksumTable};
        let mut payload = Vec::new();
        for p in 0..2usize {
            payload.extend(std::iter::repeat_n(p as u8, PAGE_SIZE));
        }
        let table = Arc::new(ChecksumTable::compute(&payload));
        payload[PAGE_SIZE + 5] ^= 0x10; // flip one bit in page 1
        let mut pool = BufferPool::new(MemPageStore::new(&payload), 2);
        pool.set_checksums(Arc::clone(&table));
        assert!(pool.get(PageId(0)).is_ok(), "intact page verifies");
        let err = pool.get(PageId(1)).unwrap_err();
        let pc = as_page_corrupt(&err).expect("typed corruption payload");
        assert_eq!(pc.page, 1, "the error names the corrupt page");
        let s = pool.stats();
        assert_eq!((s.faults_seen, s.retries), (1, 0), "corruption is never retried");
        assert_eq!(s.misses, 1, "only the verified read is a miss");
    }

    #[test]
    fn read_range_retries_faulty_coalesced_runs() {
        use crate::fault::{FaultInjectingPageStore, FaultKind};
        const PAGES: usize = 4;
        // Attempt 1 of the run dies on its second page; attempt 2 sees an
        // exhausted script and succeeds.
        let store = FaultInjectingPageStore::scripted(
            store_with(PAGES),
            [None, Some(FaultKind::Transient)],
        );
        let pool = BufferPool::new(store, PAGES);
        let mut out = Vec::new();
        pool.read_range(0, (PAGES * PAGE_SIZE) as u64, &mut out).unwrap();
        assert_eq!(out.len(), PAGES * PAGE_SIZE);
        for (i, &b) in out.iter().enumerate() {
            assert_eq!(b as usize, i / PAGE_SIZE);
        }
        let s = pool.stats();
        assert_eq!((s.faults_seen, s.retries), (1, 1));
        assert_eq!((s.misses, s.hits), (PAGES as u64, 0));
    }

    #[test]
    fn read_range_coalesces_cold_contiguous_spans() {
        const PAGES: usize = 8;
        let store = CountingStore {
            inner: store_with(PAGES),
            reads: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            delay: std::time::Duration::ZERO,
        };
        let pool = BufferPool::new(store, PAGES);
        let lo = 100u64;
        let hi = (PAGES * PAGE_SIZE - 50) as u64;
        let mut out = Vec::new();
        pool.read_range(lo, hi, &mut out).unwrap();
        assert_eq!(out.len(), (hi - lo) as usize);
        for (i, &b) in out.iter().enumerate() {
            assert_eq!(b as usize, (lo as usize + i) / PAGE_SIZE, "wrong byte at offset {i}");
        }
        assert_eq!(
            pool.store().calls.load(Ordering::Relaxed),
            1,
            "a cold contiguous span must be one physical store call"
        );
        assert_eq!(pool.store().reads.load(Ordering::Relaxed), PAGES as u64);
        let s = pool.stats();
        assert_eq!((s.misses, s.hits), (PAGES as u64, 0));
        assert_eq!(s.bytes_read, (PAGES * PAGE_SIZE) as u64);
        // Warm pass: all hits, zero further store traffic.
        out.clear();
        pool.read_range(lo, hi, &mut out).unwrap();
        assert_eq!(pool.store().calls.load(Ordering::Relaxed), 1);
        let s = pool.stats();
        assert_eq!((s.misses, s.hits), (PAGES as u64, PAGES as u64));
    }

    #[test]
    fn read_range_coalesces_around_cached_pages() {
        const PAGES: usize = 8;
        let store = CountingStore {
            inner: store_with(PAGES),
            reads: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            delay: std::time::Duration::ZERO,
        };
        let pool = BufferPool::new(store, PAGES);
        pool.get(PageId(3)).unwrap(); // pre-warm one page mid-span
        let mut out = Vec::new();
        pool.read_range(0, (PAGES * PAGE_SIZE) as u64, &mut out).unwrap();
        assert_eq!(out.len(), PAGES * PAGE_SIZE);
        // Two runs around the cached page: [0..=2] and [4..=7].
        assert_eq!(pool.store().calls.load(Ordering::Relaxed), 3, "get + two coalesced runs");
        assert_eq!(pool.store().reads.load(Ordering::Relaxed), PAGES as u64);
        let s = pool.stats();
        assert_eq!(s.misses, PAGES as u64);
        assert_eq!(s.hits, 1, "the pre-warmed page is served from cache");
        assert_eq!(s.misses, pool.store().reads.load(Ordering::Relaxed));
    }

    #[test]
    fn read_range_run_error_releases_claims() {
        let pool = BufferPool::new(store_with(2), 4);
        let mut out = Vec::new();
        // Spans pages 0..=3 of a 2-page store: the coalesced run fails.
        assert!(pool.read_range(0, 4 * PAGE_SIZE as u64, &mut out).is_err());
        // No inflight entry may be stranded: every page in the failed run
        // must still be fetchable (or fail fast) instead of deadlocking.
        assert!(pool.get(PageId(0)).is_ok());
        assert!(pool.get(PageId(1)).is_ok());
        assert!(pool.get(PageId(2)).is_err());
        out.clear();
        pool.read_range(0, 2 * PAGE_SIZE as u64, &mut out).unwrap();
        assert_eq!(out.len(), 2 * PAGE_SIZE);
    }

    fn counting_pool(pages: usize, capacity: usize) -> BufferPool<CountingStore> {
        let store = CountingStore {
            inner: store_with(pages),
            reads: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            delay: std::time::Duration::ZERO,
        };
        BufferPool::new(store, capacity)
    }

    #[test]
    fn prefetch_extends_cold_runs_with_exact_accounting() {
        const PAGES: usize = 16;
        let mut pool = counting_pool(PAGES, PAGES);
        pool.set_prefetch_policy(PrefetchPolicy { window: 4 });
        assert_eq!(pool.prefetch_policy(), PrefetchPolicy { window: 4 });
        // Cold read of pages 0..=3 prefetches 4..=7 in the same store call.
        let mut out = Vec::new();
        pool.read_range(0, 4 * PAGE_SIZE as u64, &mut out).unwrap();
        assert_eq!(out.len(), 4 * PAGE_SIZE, "readahead bytes never leak into the result");
        assert_eq!(pool.store().calls.load(Ordering::Relaxed), 1, "run + readahead is one call");
        assert_eq!(pool.store().reads.load(Ordering::Relaxed), 8);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.prefetched, s.prefetch_hits), (0, 4, 4, 0));
        assert_eq!(s.requests(), 4, "prefetched pages are not requests");
        assert_eq!(s.misses + s.prefetched, pool.store().reads.load(Ordering::Relaxed));
        assert_eq!(s.bytes_read, 8 * PAGE_SIZE as u64);
        // The continuation scan is served entirely from readahead pages.
        out.clear();
        pool.read_range(4 * PAGE_SIZE as u64, 8 * PAGE_SIZE as u64, &mut out).unwrap();
        assert_eq!(out.len(), 4 * PAGE_SIZE);
        assert_eq!(pool.store().calls.load(Ordering::Relaxed), 1, "no further store traffic");
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.prefetched, s.prefetch_hits), (4, 4, 4, 4));
        // A second touch of a prefetched page is an ordinary hit.
        pool.get(PageId(5)).unwrap();
        let s = pool.stats();
        assert_eq!((s.hits, s.prefetch_hits), (5, 4), "prefetch payoff is counted once per page");
    }

    #[test]
    fn prefetch_stops_at_store_end_and_coalescing_cap() {
        // A huge window is clamped by the store's size...
        let mut pool = counting_pool(4, 4);
        pool.set_prefetch_policy(PrefetchPolicy { window: 100 });
        let mut out = Vec::new();
        pool.read_range(0, 2 * PAGE_SIZE as u64, &mut out).unwrap();
        let s = pool.stats();
        assert_eq!((s.misses, s.prefetched), (2, 2), "readahead never reads past the store");
        assert_eq!(pool.store().calls.load(Ordering::Relaxed), 1);
        // ...and by MAX_COALESCED_PAGES for a larger store.
        let mut pool = counting_pool(MAX_COALESCED_PAGES + 16, MAX_COALESCED_PAGES + 16);
        pool.set_prefetch_policy(PrefetchPolicy { window: 100 });
        out.clear();
        pool.read_range(0, PAGE_SIZE as u64, &mut out).unwrap();
        let s = pool.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.prefetched, (MAX_COALESCED_PAGES - 1) as u64, "run + readahead ≤ cap");
        assert_eq!(pool.store().calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn prefetch_hint_cuts_store_calls_on_sequential_scans() {
        // The acceptance experiment in miniature: the same chunked
        // sequential scan, with and without the hint.
        const PAGES: usize = 8;
        let plain = counting_pool(PAGES, PAGES);
        let mut hinted = counting_pool(PAGES, PAGES);
        hinted.set_prefetch_policy(PrefetchPolicy { window: PAGES });
        for pool in [&plain, &hinted] {
            let mut out = Vec::new();
            for chunk in 0..PAGES / 2 {
                out.clear();
                let lo = (chunk * 2 * PAGE_SIZE) as u64;
                pool.read_range(lo, lo + 2 * PAGE_SIZE as u64, &mut out).unwrap();
                assert_eq!(out.len(), 2 * PAGE_SIZE);
            }
        }
        assert_eq!(plain.store().calls.load(Ordering::Relaxed), (PAGES / 2) as u64);
        assert_eq!(hinted.store().calls.load(Ordering::Relaxed), 1, "the hint collapses the scan");
        let s = hinted.stats();
        assert_eq!((s.hits, s.misses, s.prefetched), (6, 2, 6));
        assert_eq!(s.prefetch_hits, 6, "every later chunk is served from readahead");
    }

    #[test]
    fn evicted_prefetch_pages_lose_their_payoff_marker() {
        // Capacity 1: the readahead page evicts nothing at insert, then is
        // itself evicted by an ordinary miss. Re-reading it later must not
        // count a prefetch hit.
        let mut pool = counting_pool(4, 1);
        pool.set_prefetch_policy(PrefetchPolicy { window: 1 });
        let mut out = Vec::new();
        pool.read_range(0, PAGE_SIZE as u64, &mut out).unwrap(); // reads 0, prefetches 1
        assert_eq!(pool.stats().prefetched, 1);
        pool.get(PageId(2)).unwrap(); // evicts page 1
        pool.get(PageId(1)).unwrap(); // ordinary miss
        pool.get(PageId(1)).unwrap(); // ordinary hit
        let s = pool.stats();
        assert_eq!(s.prefetch_hits, 0, "an evicted readahead page is no longer a payoff");
        assert_eq!((s.hits, s.misses), (1, 3));
    }

    #[test]
    fn clear_drops_prefetch_markers() {
        let mut pool = counting_pool(4, 4);
        pool.set_prefetch_policy(PrefetchPolicy { window: 2 });
        let mut out = Vec::new();
        pool.read_range(0, PAGE_SIZE as u64, &mut out).unwrap();
        assert_eq!(pool.stats().prefetched, 2);
        pool.clear();
        pool.get(PageId(1)).unwrap(); // cold again: a miss, not a stale payoff
        let s = pool.stats();
        assert_eq!((s.prefetch_hits, s.misses), (0, 2));
    }

    #[test]
    fn concurrent_read_ranges_stay_deduplicated() {
        const PAGES: usize = 16;
        let store = CountingStore {
            inner: store_with(PAGES),
            reads: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            delay: std::time::Duration::from_millis(5),
        };
        let pool = std::sync::Arc::new(BufferPool::new(store, PAGES));
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let p = std::sync::Arc::clone(&pool);
                let b = std::sync::Arc::clone(&barrier);
                std::thread::spawn(move || {
                    b.wait();
                    let mut out = Vec::new();
                    p.read_range(0, (PAGES * PAGE_SIZE) as u64, &mut out).unwrap();
                    assert_eq!(out.len(), PAGES * PAGE_SIZE);
                    for (i, &byte) in out.iter().enumerate() {
                        assert_eq!(byte as usize, i / PAGE_SIZE);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.requests(), (4 * PAGES) as u64, "each thread touches every page once");
        assert_eq!(
            s.misses,
            pool.store().reads.load(Ordering::Relaxed),
            "every miss is exactly one page fetched from the store"
        );
        assert_eq!(s.bytes_read, s.misses * PAGE_SIZE as u64);
    }
}
