//! `local_warm` and `local_cold`: `QuerySession::knn` on the monolithic
//! disk index, driven in-process by one query thread. The two share index
//! bytes and query stream; only the two cache sizes differ.

use crate::check::{count_differing, count_wrong, Sample, Sampler};
use crate::config::*;
use crate::inputs::QueryStream;
use crate::report::{peak_rss_mib, Metrics, RunResult};
use crate::setup::{CacheConfig, Mono, WorkDir};
use crate::trace::{write_trace_file, Breakdown, Layer, Span, TracedBrowser, Tracer};
use crate::window::{closed_loop, finish, replay, Round};
use crate::Args;
use silc::DistanceBrowser;
use silc_network::{SpatialNetwork, VertexId};
use silc_query::{KnnResult, KnnVariant, QueryEngine, QuerySession};
use silc_storage::IoStats;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Temperature {
    Warm,
    Cold,
}

impl Temperature {
    pub fn caches(self, n: usize) -> CacheConfig {
        match self {
            // Everything fits: after one query per vertex every page is
            // pooled and every entry list decoded.
            Temperature::Warm => CacheConfig { pool_fraction: 1.0, entry_cache: n },
            Temperature::Cold => {
                CacheConfig { pool_fraction: COLD_POOL_FRACTION, entry_cache: COLD_ENTRY_CACHE }
            }
        }
    }
}

/// Brings the caches to the state the window is meant to measure.
pub fn warm_up<B: DistanceBrowser + ?Sized>(
    session: &mut QuerySession<B>,
    n: usize,
    temperature: Temperature,
) {
    match temperature {
        Temperature::Warm => {
            for v in 0..n as u32 {
                session.knn(VertexId(v), K, KnnVariant::Basic);
            }
        }
        Temperature::Cold => {
            for i in 0..COLD_WARMUP_QUERIES {
                session.knn(VertexId(((i * 7919) % n) as u32), K, KnnVariant::Basic);
            }
        }
    }
}

pub fn fill_from_knn(slot: &mut Sample, q: VertexId, r: &KnnResult) {
    slot.fill(q, true, r.neighbors.iter().map(|n| (n.object.0, n.interval.lo, n.interval.hi)));
}

/// The untraced run: end-to-end metrics only.
pub fn run_untraced(args: &Args, temperature: Temperature) -> RunResult {
    let n = args.scale.n_mono;
    let caches = temperature.caches(n);
    let work = WorkDir::new(&args.workload);
    // One stream across the rounds: each round asks new queries.
    let mut stream = QueryStream::new(args.seed, n);
    let mut rounds = Vec::new();
    for _ in 0..args.rounds {
        let t = Instant::now();
        let mono = Mono::setup(&args.scale, work.path(), caches);
        let mut session = QueryEngine::new(mono.disk.clone(), mono.objects.clone()).session();
        let setup_s = t.elapsed().as_secs_f64();
        warm_up(&mut session, n, temperature);

        let mut sampler = Sampler::new(args.scale.max_checks_mono / args.rounds);
        let mut errors = 0u64;
        let timing =
            closed_loop(args.seconds / args.rounds as f64, &mut stream, &mut sampler, |q, slot| {
                let answer = session.try_knn(q, K, KnnVariant::Basic);
                let done = Instant::now();
                match (answer, slot) {
                    (Ok(r), Some(slot)) => fill_from_knn(slot, q, r),
                    (Ok(_), None) => {}
                    (Err(_), _) => errors += 1,
                }
                done
            });
        let wrong = count_wrong(&mono.network, &mono.objects, sampler.samples()) as u64;
        eprintln!(
            "# {} answers checked against brute force: {wrong} wrong; {errors} typed errors",
            sampler.samples().len()
        );
        rounds.push(Round {
            setup_s,
            peak_rss_mib: peak_rss_mib(),
            timing,
            attempted: timing.samples as u64,
            failed: wrong + errors,
        });
    }
    finish(&args.workload, &rounds, args.smoke)
}

/// `core.*` browser figures and `storage.*` pool/store figures of a traced
/// pass over `queries` queries.
///
/// Span figures are per *detailed* query; the pool's and cache's own
/// counters run on every query and are per query of the whole window.
pub fn report_read_path(
    metrics: &mut Metrics,
    b: &Breakdown,
    io: IoStats,
    entry_cache_hit_rate: f64,
    queries: usize,
    detailed: usize,
) {
    let per = |v: f64| v / queries as f64;
    let per_detailed = |v: f64| v / detailed as f64;
    metrics
        .set("core.browser_calls_per_query", per_detailed(b.count[Layer::Browser as usize] as f64));
    metrics.set("core.browser_self_us_per_query", per_detailed(b.self_us(Layer::Browser)));
    metrics.set("core.entry_cache_hit_rate", entry_cache_hit_rate);
    metrics.set("storage.pool_requests_per_query", per(io.requests() as f64));
    metrics.set("storage.pool_hit_rate", io.hit_rate());
    metrics.set("storage.evictions_per_query", per(io.evictions as f64));
    metrics
        .set("storage.store_reads_per_query", per_detailed(b.count[Layer::Store as usize] as f64));
    metrics.set("storage.store_bytes_per_query", per(io.bytes_read as f64));
    metrics.set("storage.store_self_us_per_query", per_detailed(b.self_us(Layer::Store)));
    metrics.set("storage.retries", io.retries as f64);
    metrics.set("storage.prefetched_per_query", per(io.prefetched as f64));
    metrics.set(
        "storage.prefetch_hit_share",
        if io.prefetched == 0 { 0.0 } else { io.prefetch_hits as f64 / io.prefetched as f64 },
    );
}

/// The end of every traced run: the workload-independent probes, the
/// `trace.*` figures, the summary line and the trace file. `false` when the
/// trace itself cannot be trusted.
pub fn finish_traced(
    metrics: &mut Metrics,
    args: &Args,
    mono_network: Option<&SpatialNetwork>,
    tracer: &Tracer,
    spans: &[Span],
    b: &Breakdown,
    (plain_s, traced_s): (f64, f64),
) -> bool {
    crate::probes::run_all(metrics, args, mono_network);
    metrics.set("trace.overhead_pct", 100.0 * (traced_s - plain_s) / plain_s);
    metrics.set("trace.spans", spans.len() as f64);
    metrics.set("trace.accounted_share", b.root_ns as f64 / 1e9 / traced_s);
    eprintln!(
        "# {}: traced window replayed plain in {plain_s:.3} s, traced in {traced_s:.3} s",
        args.workload
    );
    write_trace_file(&args.workload, spans);
    if tracer.dropped() > 0 || b.violations > 0 {
        eprintln!(
            "# TRACE UNUSABLE: {} spans dropped, {} spans shorter than their children",
            tracer.dropped(),
            b.violations
        );
        return false;
    }
    true
}

/// The traced run: per-layer metrics from the first `traced_queries`
/// queries of the stream, replayed once plain and once through the
/// decorators.
pub fn run_traced(args: &Args, temperature: Temperature) -> RunResult {
    let n = args.scale.n_mono;
    let caches = temperature.caches(n);
    let work = WorkDir::new(&args.workload);
    let mono = Mono::setup(&args.scale, work.path(), caches);
    let queries = QueryStream::prefix(args.seed, n, args.scale.traced_queries);
    let count = queries.len();

    let (tracer, detailed) = Tracer::for_window(count);
    let traced_disk = mono.open_traced(caches, &tracer);
    let mut plain = QueryEngine::new(mono.disk.clone(), mono.objects.clone()).session();
    let browser = Arc::new(TracedBrowser::new(traced_disk.clone(), tracer.clone()));
    let mut traced = QueryEngine::new(browser, mono.objects.clone()).session();
    warm_up(&mut plain, n, temperature);
    warm_up(&mut traced, n, temperature);

    let mut plain_samples = Sampler::new(count / SAMPLE_EVERY + 1);
    let (plain_s, _) = replay(&queries, |i, q| {
        let r = plain.knn(q, K, KnnVariant::Basic);
        if let Some(slot) = plain_samples.slot(i) {
            fill_from_knn(slot, q, r);
        }
    });

    traced_disk.reset_io_stats();
    let mut traced_samples = Sampler::new(count / SAMPLE_EVERY + 1);
    let (mut refinements, mut queue_pushes, mut max_queue) = (0usize, 0usize, 0usize);
    tracer.set_enabled(true);
    let (traced_s, _) = replay(&queries, |i, q| {
        let root = tracer.root(Layer::Query, i as u32, 0, is_detailed(i));
        let r = traced.knn(q, K, KnnVariant::Basic);
        drop(root);
        refinements += r.stats.refinements;
        queue_pushes += r.stats.queue_pushes;
        max_queue += r.stats.max_queue;
        if let Some(slot) = traced_samples.slot(i) {
            fill_from_knn(slot, q, r);
        }
    });
    tracer.set_enabled(false);

    let spans = tracer.spans();
    let b = Breakdown::of(&spans);
    let differing = count_differing(
        plain_samples.samples(),
        traced_samples.samples(),
        "traced answers differ from the undecorated engine's",
    );

    let mut metrics = Metrics::default();
    metrics.set("query.self_us_per_query", b.self_us(Layer::Query) / detailed as f64);
    metrics.set("query.refinements_per_query", refinements as f64 / count as f64);
    metrics.set("query.queue_pushes_per_query", queue_pushes as f64 / count as f64);
    metrics.set("query.max_queue_mean", max_queue as f64 / count as f64);
    report_read_path(
        &mut metrics,
        &b,
        traced_disk.io_stats(),
        traced_disk.entry_cache_stats().hit_rate(),
        count,
        detailed,
    );
    mono.report_setup(&mut metrics);
    let trusted = finish_traced(
        &mut metrics,
        args,
        Some(&mono.network),
        &tracer,
        &spans,
        &b,
        (plain_s, traced_s),
    );
    RunResult {
        correct: trusted && differing == 0,
        attempted: count as u64,
        failed: differing,
        metrics,
    }
}
