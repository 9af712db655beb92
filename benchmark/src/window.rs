//! Measured windows. An untraced run is three *rounds* — set up, warm up,
//! measure for a third of `--seconds` — and reports the median round. The
//! sandbox's speed wanders by ±10 % over seconds (the same binary on the
//! same inputs), and three rounds on three freshly built indexes are three
//! independent draws of it, where one long window is one draw; a stall
//! spoils one round, not the run's tail.

use crate::check::{Sample, Sampler};
use crate::inputs::QueryStream;
use crate::report::{Metrics, RunResult};
use crate::stats::{median, percentile};
use silc_network::VertexId;
use std::time::{Duration, Instant};

/// The three timing figures of one window.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub qps: f64,
    pub p50_us: Option<f64>,
    /// `None` when the window held fewer than 1 000 samples.
    pub p99_us: Option<f64>,
    pub samples: usize,
}

impl Timing {
    /// `completed` queries in `seconds`, with their latencies in µs.
    pub fn of(completed: usize, seconds: f64, latency_us: &mut [f64]) -> Timing {
        latency_us.sort_by(f64::total_cmp);
        Timing {
            qps: completed as f64 / seconds,
            p50_us: percentile(latency_us, 50.0),
            p99_us: percentile(latency_us, 99.0),
            samples: latency_us.len(),
        }
    }
}

/// Runs `call` back to back for `seconds`, one query at a time, and returns
/// the window's timing. `call` answers the query, takes the clock, and only
/// then copies the answer into the sample slot it may be handed — so
/// sampling never sits inside a latency.
pub fn closed_loop(
    seconds: f64,
    stream: &mut QueryStream,
    sampler: &mut Sampler,
    mut call: impl FnMut(VertexId, Option<&mut Sample>) -> Instant,
) -> Timing {
    // Room for 200 k queries/s: far above anything here, so no regrowth.
    let mut latency_us = Vec::with_capacity((seconds * 200_000.0) as usize);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut now = start;
    while now < deadline {
        let q = stream.next_vertex();
        let slot = sampler.slot(latency_us.len());
        let t0 = Instant::now();
        now = call(q, slot);
        latency_us.push((now - t0).as_nanos() as f64 / 1e3);
    }
    Timing::of(latency_us.len(), (now - start).as_secs_f64(), &mut latency_us)
}

/// Replays `queries` once, back to back; returns the wall time and each
/// query's latency in µs.
pub fn replay(queries: &[VertexId], mut call: impl FnMut(usize, VertexId)) -> (f64, Vec<f64>) {
    let mut latency_us = Vec::with_capacity(queries.len());
    let start = Instant::now();
    let mut t0 = start;
    for (i, &q) in queries.iter().enumerate() {
        call(i, q);
        let t1 = Instant::now();
        latency_us.push((t1 - t0).as_nanos() as f64 / 1e3);
        t0 = t1;
    }
    (start.elapsed().as_secs_f64(), latency_us)
}

/// One round of an untraced run.
pub struct Round {
    pub setup_s: f64,
    /// Peak resident set of the process at the end of the round, MiB.
    pub peak_rss_mib: f64,
    pub timing: Timing,
    /// Queries issued, and how many of them failed or were answered wrongly.
    pub attempted: u64,
    pub failed: u64,
}

/// Folds rounds into the run's result: the timing figures and `setup_s` are
/// the median round's, `attempted` / `failed` are summed, and the run is
/// correct when nothing failed and every round could support its p99
/// (`--smoke` rounds are too short on purpose and are let through).
pub fn finish(workload: &str, rounds: &[Round], smoke: bool) -> RunResult {
    let of = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    for (i, r) in rounds.iter().enumerate() {
        eprintln!(
            "# {workload} round {}: set-up {:.3} s, peak {:.1} MiB, {} samples, {:.1} q/s, p50 {:.1} µs, \
             p99 {:.1} µs, {} failed",
            i + 1,
            r.setup_s,
            r.peak_rss_mib,
            r.timing.samples,
            r.timing.qps,
            r.timing.p50_us.unwrap_or(0.0),
            r.timing.p99_us.unwrap_or(0.0),
            r.failed
        );
    }
    let supported = rounds.iter().all(|r| r.timing.p50_us.is_some() && r.timing.p99_us.is_some());
    if !supported {
        eprintln!("# a round held fewer than 1 000 samples: p99 needs ten samples beyond it");
    }
    let mut metrics = Metrics::default();
    metrics.set("qps", of(&|r| r.timing.qps));
    metrics.set("p50_us", of(&|r| r.timing.p50_us.unwrap_or(0.0)));
    metrics.set("p99_us", of(&|r| r.timing.p99_us.unwrap_or(0.0)));
    metrics.set("setup_s", of(&|r| r.setup_s));
    // The first round's: one set-up and one window in a fresh process. Later
    // rounds add what the allocator kept of earlier ones, which is either
    // ≈ 1 or ≈ 5 MiB depending on how the build threads' arenas fell.
    metrics.set("peak_rss_mib", rounds[0].peak_rss_mib);
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    RunResult {
        correct: failed == 0 && (supported || smoke),
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(qps: f64, p99_us: Option<f64>, setup_s: f64, failed: u64) -> Round {
        Round {
            setup_s,
            peak_rss_mib: 40.0,
            timing: Timing { qps, p50_us: Some(1e6 / qps), p99_us, samples: 5000 },
            attempted: 5000,
            failed,
        }
    }

    #[test]
    fn the_median_round_is_reported_and_one_bad_round_is_shrugged_off() {
        let rounds = [
            round(5000.0, Some(400.0), 1.5, 0),
            round(900.0, Some(9e4), 4.0, 0),
            round(5200.0, Some(380.0), 1.4, 0),
        ];
        let r = finish("w", &rounds, false);
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (15_000, 0));
        assert_eq!(r.metrics.get("qps"), Some(5000.0));
        assert_eq!(r.metrics.get("p99_us"), Some(400.0));
        assert_eq!(r.metrics.get("setup_s"), Some(1.5));
        assert_eq!(r.metrics.get("peak_rss_mib"), Some(40.0));
    }

    #[test]
    fn a_failure_or_an_unsupported_p99_makes_the_run_incorrect() {
        let failing = [round(5000.0, Some(400.0), 1.5, 0), round(5000.0, Some(400.0), 1.5, 2)];
        let r = finish("w", &failing, false);
        assert!(!r.correct);
        assert_eq!(r.failed, 2);
        let short = [round(5000.0, None, 1.5, 0)];
        assert!(!finish("w", &short, false).correct);
        assert!(finish("w", &short, true).correct, "smoke windows are short on purpose");
    }

    #[test]
    fn timing_refuses_a_p99_the_sample_cannot_support() {
        let mut few: Vec<f64> = (0..999).map(f64::from).collect();
        let t = Timing::of(999, 1.0, &mut few);
        assert_eq!((t.qps, t.p50_us, t.p99_us), (999.0, Some(499.0), None));
        let mut enough: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        assert_eq!(Timing::of(1000, 0.5, &mut enough).p99_us, Some(989.0));
    }

    #[test]
    fn closed_loop_samples_outside_the_latency() {
        let mut stream = QueryStream::new(1, 100);
        let mut sampler = Sampler::new(8);
        let mut handed = 0;
        let t = closed_loop(0.05, &mut stream, &mut sampler, |q, slot| {
            let now = Instant::now();
            if let Some(s) = slot {
                handed += 1;
                s.query = q.0;
            }
            now
        });
        assert!(t.samples >= 1 && t.qps > 0.0);
        assert_eq!(handed, sampler.samples().len());
        assert!(handed >= 1);
    }
}
