//! The bounded submission queue and its locality-sorted drain.
//!
//! `BATCH` bodies from every connection land in one server-wide
//! [`SubmissionQueue`]; executor threads drain up to `max_batch` jobs at a
//! time and — in [`BatchOrder::Morton`] mode — execute each drained batch
//! in Morton order of the query vertices' positions. Spatially adjacent
//! query points read overlapping shortest-path-quadtree pages, so sorting
//! a batch turns random page faults into sequential-ish, cache-friendly
//! runs; this is the paper's locality argument applied to the *arrival
//! stream* instead of the index layout. [`BatchOrder::Fifo`] preserves
//! arrival order and exists as the A/B baseline `bench_latency` measures
//! against. Ordering never changes an answer — only cache behavior.
//!
//! The queue is deliberately **bounded**: when it fills, submission fails
//! and the connection answers `SERVER_BUSY` instead of queueing unbounded
//! work (the open-loop bench's backpressure signal).

use crate::protocol::QueryBody;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Execution order of a drained batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchOrder {
    /// Arrival order — the baseline.
    Fifo,
    /// Morton order of the query vertices' positions — the locality
    /// optimization.
    Morton,
}

/// One queued query body, tagged with everything needed to route its
/// answer back: which reply channel, which request, which sequence slot.
#[derive(Debug)]
pub struct Job<R> {
    /// Reply channel of the submitting connection.
    pub reply: R,
    /// Request id of the enclosing `BATCH` frame.
    pub request_id: u64,
    /// Zero-based position of this body within its batch.
    pub sequence: u32,
    /// The query itself.
    pub body: QueryBody,
    /// Morton code of the query vertex's position (`0` for out-of-range
    /// vertices — they fail validation at execution, order is moot).
    pub morton: u64,
}

struct QueueState<R> {
    jobs: VecDeque<Job<R>>,
    closed: bool,
}

/// A bounded MPMC queue of [`Job`]s: `Mutex` + `Condvar`, nothing fancier,
/// because the contended path is the executor draining in bulk.
pub struct SubmissionQueue<R> {
    state: Mutex<QueueState<R>>,
    nonempty: Condvar,
    capacity: usize,
}

impl<R> SubmissionQueue<R> {
    /// Creates a queue holding at most `capacity` jobs.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        SubmissionQueue {
            state: Mutex::new(QueueState { jobs: VecDeque::new(), closed: false }),
            nonempty: Condvar::new(),
            capacity,
        }
    }

    /// Total job slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs currently queued.
    pub fn depth(&self) -> usize {
        self.state.lock().unwrap().jobs.len()
    }

    /// Submits the jobs of one `BATCH` frame under one lock hold and one
    /// wake-up, so an executor drains (and Morton-sorts) them together. The
    /// longest prefix that fits is queued, in order; returns its length and
    /// leaves the rest in `jobs` — queue full or closed — for the caller to
    /// answer `SERVER_BUSY` (or drop on shutdown). Never blocks:
    /// backpressure is the point.
    pub fn try_submit_all(&self, jobs: &mut Vec<Job<R>>) -> usize {
        let mut s = self.state.lock().unwrap();
        let free = if s.closed { 0 } else { self.capacity - s.jobs.len() };
        let accepted = free.min(jobs.len());
        s.jobs.extend(jobs.drain(..accepted));
        drop(s);
        if accepted > 0 {
            self.nonempty.notify_one();
        }
        accepted
    }

    /// Blocks until at least one job is available (or the queue closes),
    /// then moves up to `max` jobs into `out`. Returns `false` when the
    /// queue is closed *and* drained — the executor's exit signal.
    pub fn drain(&self, max: usize, out: &mut Vec<Job<R>>) -> bool {
        let mut s = self.state.lock().unwrap();
        while s.jobs.is_empty() {
            if s.closed {
                return false;
            }
            s = self.nonempty.wait(s).unwrap();
        }
        let n = s.jobs.len().min(max);
        out.extend(s.jobs.drain(..n));
        // More work left: wake a sibling executor, if any.
        if !s.jobs.is_empty() {
            self.nonempty.notify_one();
        }
        true
    }

    /// Closes the queue: submissions fail, blocked drains wake, executors
    /// drain the remainder and exit.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.nonempty.notify_all();
    }
}

/// Orders a drained batch for execution. Morton sort is stable, so jobs on
/// the same cell keep arrival order and FIFO is exactly the identity.
pub fn order_batch<R>(jobs: &mut [Job<R>], order: BatchOrder) {
    if order == BatchOrder::Morton {
        jobs.sort_by_key(|j| j.morton);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Algorithm;
    use std::sync::Arc;

    fn job(seq: u32, morton: u64) -> Job<()> {
        Job {
            reply: (),
            request_id: 1,
            sequence: seq,
            body: QueryBody { algorithm: Algorithm::Knn, vertex: seq, k: 1 },
            morton,
        }
    }

    /// Submits one job; hands it back when it did not fit.
    fn submit(q: &SubmissionQueue<()>, job: Job<()>) -> Result<(), Job<()>> {
        let mut one = vec![job];
        match q.try_submit_all(&mut one) {
            0 => Err(one.pop().unwrap()),
            _ => Ok(()),
        }
    }

    #[test]
    fn backpressure_engages_at_capacity() {
        let q: SubmissionQueue<()> = SubmissionQueue::new(2);
        assert!(submit(&q, job(0, 0)).is_ok());
        assert!(submit(&q, job(1, 0)).is_ok());
        let bounced = submit(&q, job(2, 0)).unwrap_err();
        assert_eq!(bounced.sequence, 2, "the rejected job comes back intact");
        assert_eq!(q.depth(), 2);

        let mut out = Vec::new();
        assert!(q.drain(1, &mut out));
        assert_eq!(out.len(), 1);
        assert!(submit(&q, job(3, 0)).is_ok(), "draining frees a slot");
    }

    #[test]
    fn try_submit_all_queues_the_prefix_that_fits_and_leaves_the_rest_in_order() {
        let q: SubmissionQueue<()> = SubmissionQueue::new(5);
        submit(&q, job(100, 0)).unwrap();
        submit(&q, job(101, 0)).unwrap();

        // Three slots free, seven jobs offered.
        let mut jobs: Vec<Job<()>> = (0..7).map(|i| job(i, 0)).collect();
        assert_eq!(q.try_submit_all(&mut jobs), 3);
        assert_eq!(jobs.iter().map(|j| j.sequence).collect::<Vec<_>>(), vec![3, 4, 5, 6]);
        assert_eq!(q.depth(), 5);
        assert_eq!(q.try_submit_all(&mut jobs), 0, "a full queue takes nothing");
        assert_eq!(jobs.len(), 4);

        // One drain sees the whole accepted prefix, behind what was queued
        // before it, in submission order.
        let mut out = Vec::new();
        assert!(q.drain(64, &mut out));
        assert_eq!(out.iter().map(|j| j.sequence).collect::<Vec<_>>(), vec![100, 101, 0, 1, 2]);

        // Everything fits: nothing is left behind. Nothing offered: nothing happens.
        assert_eq!(q.try_submit_all(&mut jobs), 4);
        assert!(jobs.is_empty());
        assert_eq!(q.try_submit_all(&mut jobs), 0);
        assert_eq!(q.depth(), 4);

        q.close();
        let mut late = vec![job(9, 0)];
        assert_eq!(q.try_submit_all(&mut late), 0, "a closed queue takes nothing");
        assert_eq!(late.len(), 1);
    }

    #[test]
    fn drain_respects_max_and_close_drains_remainder() {
        let q: SubmissionQueue<()> = SubmissionQueue::new(8);
        for i in 0..5 {
            submit(&q, job(i, 0)).unwrap();
        }
        let mut out = Vec::new();
        assert!(q.drain(3, &mut out));
        assert_eq!(out.len(), 3);
        q.close();
        assert!(submit(&q, job(9, 0)).is_err(), "closed queue rejects");
        assert!(q.drain(10, &mut out), "close still hands out queued jobs");
        assert_eq!(out.len(), 5);
        assert!(!q.drain(10, &mut out), "closed and empty ends the executor");
    }

    #[test]
    fn close_wakes_a_blocked_drain() {
        let q: Arc<SubmissionQueue<()>> = Arc::new(SubmissionQueue::new(2));
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || {
            let mut out = Vec::new();
            q2.drain(4, &mut out)
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert!(!t.join().unwrap(), "blocked drain observes the close");
    }

    #[test]
    fn morton_order_sorts_and_fifo_preserves_arrival() {
        let mut jobs = vec![job(0, 30), job(1, 10), job(2, 20), job(3, 10)];
        order_batch(&mut jobs, BatchOrder::Fifo);
        assert_eq!(jobs.iter().map(|j| j.sequence).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        order_batch(&mut jobs, BatchOrder::Morton);
        // Stable: the two morton==10 jobs keep arrival order 1 then 3.
        assert_eq!(jobs.iter().map(|j| j.sequence).collect::<Vec<_>>(), vec![1, 3, 2, 0]);
    }
}
