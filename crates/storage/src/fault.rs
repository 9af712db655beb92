//! Deterministic fault injection for [`PageStore`]s.
//!
//! [`FaultInjectingPageStore`] wraps any store and perturbs its page reads
//! according to a reproducible schedule — either a fixed script (one entry
//! consumed per page-read event) or a seeded pseudo-random schedule with
//! per-kind rates. Both are fully deterministic: the same schedule against
//! the same access sequence injects the same faults, which is what lets the
//! fault-injection suites assert *exact* retry counters and bit-identical
//! recovered answers.
//!
//! ## Example
//!
//! ```
//! use silc_storage::{
//!     BufferPool, FaultInjectingPageStore, FaultKind, MemPageStore, PageId, PAGE_SIZE,
//! };
//!
//! let inner = MemPageStore::new(&vec![7u8; 2 * PAGE_SIZE]);
//! // First read event hits a transient fault, everything after succeeds.
//! let store = FaultInjectingPageStore::scripted(inner, [Some(FaultKind::Transient), None]);
//! let pool = BufferPool::new(store, 2);
//! let page = pool.get(PageId(0)).unwrap(); // retried transparently
//! assert_eq!(page[0], 7);
//! let stats = pool.stats();
//! assert_eq!((stats.faults_seen, stats.retries), (1, 1));
//! ```

use crate::store::{PageId, PageStore, PAGE_SIZE};
use std::collections::{HashSet, VecDeque};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The kinds of fault the injector can produce on a page read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A transient error (`io::ErrorKind::Interrupted`): succeeds when
    /// retried. What the [`BufferPool`](crate::BufferPool)'s retries absorb.
    Transient,
    /// A permanent error (`io::ErrorKind::Other`): the page joins a dead
    /// set, so retries keep failing. What must propagate as a typed error.
    Permanent,
    /// One bit of the returned page flipped (one-shot): the read itself
    /// succeeds, so only a checksum can catch it.
    BitFlip,
    /// A short read: the returned buffer is truncated below [`PAGE_SIZE`]
    /// (one-shot). Retryable, like a transient error.
    Torn,
}

/// Per-kind injection rates for the seeded schedule, each in `[0, 1]`.
/// Rates are applied cumulatively per read event (their sum should stay
/// at or below 1).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultRates {
    /// Probability of a [`FaultKind::Transient`] fault per read event.
    pub transient: f64,
    /// Probability of a [`FaultKind::Permanent`] fault per read event.
    pub permanent: f64,
    /// Probability of a [`FaultKind::BitFlip`] per read event.
    pub bit_flip: f64,
    /// Probability of a [`FaultKind::Torn`] read per read event.
    pub torn: f64,
}

/// How many faults of each kind the injector has produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Transient errors injected.
    pub transient: u64,
    /// Permanent errors injected (first occurrences; dead-page re-failures
    /// count here too).
    pub permanent: u64,
    /// Bits flipped.
    pub bit_flips: u64,
    /// Torn (short) reads injected.
    pub torn: u64,
}

impl FaultCounts {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.transient + self.permanent + self.bit_flips + self.torn
    }
}

enum Schedule {
    /// One optional fault per page-read event, consumed front to back;
    /// an exhausted script injects nothing.
    Script(VecDeque<Option<FaultKind>>),
    /// SplitMix64-driven draws against cumulative [`FaultRates`].
    Seeded { state: u64, rates: FaultRates },
}

impl Schedule {
    fn next_fault(&mut self) -> Option<FaultKind> {
        match self {
            Schedule::Script(q) => q.pop_front().flatten(),
            Schedule::Seeded { state, rates } => {
                // SplitMix64: deterministic, no external crates.
                *state = state.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = *state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^= z >> 31;
                let u = (z >> 11) as f64 / (1u64 << 53) as f64;
                let mut edge = rates.transient;
                if u < edge {
                    return Some(FaultKind::Transient);
                }
                edge += rates.permanent;
                if u < edge {
                    return Some(FaultKind::Permanent);
                }
                edge += rates.bit_flip;
                if u < edge {
                    return Some(FaultKind::BitFlip);
                }
                edge += rates.torn;
                if u < edge {
                    return Some(FaultKind::Torn);
                }
                None
            }
        }
    }
}

struct FaultState {
    schedule: Schedule,
    /// Pages a permanent fault has claimed: every later read fails too.
    dead_pages: HashSet<u64>,
    /// The whole store failed (a dead shard): every read fails.
    killed: bool,
}

/// A [`PageStore`] wrapper that injects faults from a deterministic
/// schedule; see the [module docs](self) for an example.
///
/// `read_pages` deliberately loops `read_page`, so every page of a
/// coalesced run consults the schedule individually.
pub struct FaultInjectingPageStore<S: PageStore> {
    inner: S,
    state: Mutex<FaultState>,
    transient: AtomicU64,
    permanent: AtomicU64,
    bit_flips: AtomicU64,
    torn: AtomicU64,
}

impl<S: PageStore> FaultInjectingPageStore<S> {
    /// Wraps `inner` with an empty script: injects nothing until
    /// [`Self::kill`] is called.
    pub fn passthrough(inner: S) -> Self {
        Self::scripted(inner, std::iter::empty::<Option<FaultKind>>())
    }

    /// Wraps `inner` with a fixed script: the i-th page-read event suffers
    /// the i-th entry (`None` = no fault); events past the script succeed.
    pub fn scripted(inner: S, script: impl IntoIterator<Item = Option<FaultKind>>) -> Self {
        Self::with_schedule(inner, Schedule::Script(script.into_iter().collect()))
    }

    /// Wraps `inner` with a seeded pseudo-random schedule: each page-read
    /// event independently draws a fault kind per `rates`.
    pub fn seeded(inner: S, seed: u64, rates: FaultRates) -> Self {
        Self::with_schedule(inner, Schedule::Seeded { state: seed, rates })
    }

    fn with_schedule(inner: S, schedule: Schedule) -> Self {
        FaultInjectingPageStore {
            inner,
            state: Mutex::new(FaultState { schedule, dead_pages: HashSet::new(), killed: false }),
            transient: AtomicU64::new(0),
            permanent: AtomicU64::new(0),
            bit_flips: AtomicU64::new(0),
            torn: AtomicU64::new(0),
        }
    }

    /// Marks the whole store dead: every subsequent read fails permanently.
    /// Models a vanished shard file or a dead disk.
    pub fn kill(&self) {
        self.lock().killed = true;
    }

    /// How many faults of each kind have been injected so far.
    pub fn injected(&self) -> FaultCounts {
        FaultCounts {
            transient: self.transient.load(Ordering::Relaxed),
            permanent: self.permanent.load(Ordering::Relaxed),
            bit_flips: self.bit_flips.load(Ordering::Relaxed),
            torn: self.torn.load(Ordering::Relaxed),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn permanent_error(page: PageId) -> io::Error {
        io::Error::other(format!("injected permanent fault on page {}", page.0))
    }
}

impl<S: PageStore> PageStore for FaultInjectingPageStore<S> {
    fn read_page(&self, page: PageId) -> io::Result<Arc<[u8]>> {
        let fault = {
            let mut st = self.lock();
            if st.killed {
                self.permanent.fetch_add(1, Ordering::Relaxed);
                return Err(io::Error::other("injected store failure: store is dead"));
            }
            if st.dead_pages.contains(&page.0) {
                self.permanent.fetch_add(1, Ordering::Relaxed);
                return Err(Self::permanent_error(page));
            }
            let fault = st.schedule.next_fault();
            if fault == Some(FaultKind::Permanent) {
                st.dead_pages.insert(page.0);
            }
            fault
        };
        match fault {
            None => self.inner.read_page(page),
            Some(FaultKind::Transient) => {
                self.transient.fetch_add(1, Ordering::Relaxed);
                Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    format!("injected transient fault on page {}", page.0),
                ))
            }
            Some(FaultKind::Permanent) => {
                self.permanent.fetch_add(1, Ordering::Relaxed);
                Err(Self::permanent_error(page))
            }
            Some(FaultKind::BitFlip) => {
                self.bit_flips.fetch_add(1, Ordering::Relaxed);
                let data = self.inner.read_page(page)?;
                let mut flipped = data.to_vec();
                // Deterministic position derived from the page id.
                let bit = (page.0 as usize).wrapping_mul(131) % (PAGE_SIZE * 8);
                flipped[bit / 8] ^= 1 << (bit % 8);
                Ok(flipped.into())
            }
            Some(FaultKind::Torn) => {
                self.torn.fetch_add(1, Ordering::Relaxed);
                let data = self.inner.read_page(page)?;
                Ok(data[..PAGE_SIZE / 2].to_vec().into())
            }
        }
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemPageStore;

    fn store_with(pages: usize) -> MemPageStore {
        let mut data = Vec::with_capacity(pages * PAGE_SIZE);
        for p in 0..pages {
            data.extend(std::iter::repeat_n(p as u8, PAGE_SIZE));
        }
        MemPageStore::new(&data)
    }

    #[test]
    fn script_injects_in_order_then_passes_through() {
        let s = FaultInjectingPageStore::scripted(
            store_with(2),
            [Some(FaultKind::Transient), None, Some(FaultKind::Torn)],
        );
        let e = s.read_page(PageId(0)).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::Interrupted);
        assert_eq!(s.read_page(PageId(0)).unwrap()[0], 0);
        assert_eq!(s.read_page(PageId(1)).unwrap().len(), PAGE_SIZE / 2, "torn read is short");
        // Script exhausted: clean reads from here on.
        assert_eq!(s.read_page(PageId(1)).unwrap().len(), PAGE_SIZE);
        let c = s.injected();
        assert_eq!((c.transient, c.torn, c.total()), (1, 1, 2));
    }

    #[test]
    fn permanent_faults_stick_to_their_page() {
        let s = FaultInjectingPageStore::scripted(store_with(2), [Some(FaultKind::Permanent)]);
        assert!(s.read_page(PageId(1)).is_err());
        // Retrying the dead page keeps failing even though the script is
        // exhausted; other pages are fine.
        assert!(s.read_page(PageId(1)).is_err());
        assert!(s.read_page(PageId(0)).is_ok());
        assert_eq!(s.injected().permanent, 2);
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit() {
        let s = FaultInjectingPageStore::scripted(store_with(2), [Some(FaultKind::BitFlip)]);
        let flipped = s.read_page(PageId(1)).unwrap();
        let clean = s.read_page(PageId(1)).unwrap();
        let differing: u32 =
            flipped.iter().zip(clean.iter()).map(|(a, b)| (a ^ b).count_ones()).sum();
        assert_eq!(differing, 1, "exactly one bit must differ");
    }

    #[test]
    fn kill_fails_everything() {
        let s = FaultInjectingPageStore::passthrough(store_with(2));
        assert!(s.read_page(PageId(0)).is_ok());
        s.kill();
        assert!(s.read_page(PageId(0)).is_err());
        assert!(s.read_pages(PageId(0), 2).is_err());
    }

    #[test]
    fn seeded_schedule_is_reproducible() {
        let rates = FaultRates { transient: 0.3, torn: 0.2, ..Default::default() };
        let run = |seed: u64| {
            let s = FaultInjectingPageStore::seeded(store_with(4), seed, rates);
            let outcomes: Vec<bool> = (0..64).map(|i| s.read_page(PageId(i % 4)).is_ok()).collect();
            (outcomes, s.injected())
        };
        let (a, ca) = run(42);
        let (b, cb) = run(42);
        assert_eq!(a, b, "same seed, same fault sequence");
        assert_eq!(ca, cb);
        assert!(ca.total() > 0, "rates this high must inject something in 64 reads");
        let (c, _) = run(43);
        assert_ne!(a, c, "different seed, different sequence");
    }

    #[test]
    fn read_pages_consults_the_schedule_per_page() {
        let s =
            FaultInjectingPageStore::scripted(store_with(4), [None, Some(FaultKind::Transient)]);
        // The default read_pages loops read_page, so the second page of the
        // run hits the scripted fault.
        assert!(s.read_pages(PageId(0), 4).is_err());
        assert_eq!(s.injected().transient, 1);
    }
}
