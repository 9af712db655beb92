//! `served_warm`: a loopback `silc-server` over the `local_warm` engine
//! configuration and query stream, so served − local is the serving tier
//! alone. One TCP connection carries everything: closed-loop batches of 32
//! (throughput), then open-loop single queries on a Poisson schedule
//! (latency from each query's *scheduled* send instant), then — in the
//! traced run — the frozen offered-load ladder.

use crate::check::{count_differing, count_wrong, Sample, Sampler};
use crate::config::*;
use crate::inputs::{QueryStream, STREAM_ARRIVALS};
use crate::local::{fill_from_knn, finish_traced, report_read_path, warm_up, Temperature};
use crate::report::{peak_rss_mib, Metrics, RunResult};
use crate::rng::{poisson_schedule, SplitMix64};
use crate::setup::{Mono, WorkDir};
use crate::stats::{median, percentile};
use crate::trace::{Breakdown, Layer, TracedBrowser, Tracer};
use crate::window::{finish, replay, Round, Timing};
use crate::Args;
use silc_network::VertexId;
use silc_query::{KnnVariant, QueryEngine};
use silc_server::protocol::encode_frame;
use silc_server::server::DynBrowser;
use silc_server::{
    Algorithm, AnswerBody, Client, Frame, Outcome, QueryBody, Server, ServerBackend, ServerConfig,
};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn body(q: VertexId) -> QueryBody {
    QueryBody { algorithm: Algorithm::Knn, vertex: q.0, k: K as u32 }
}

fn fill_from_wire(slot: &mut Sample, q: VertexId, a: &AnswerBody) {
    slot.fill(
        q,
        a.complete,
        a.neighbors
            .iter()
            .map(|n| (n.object, f64::from_bits(n.lo_bits), f64::from_bits(n.hi_bits))),
    );
}

fn start_server(engine: Arc<QueryEngine<DynBrowser>>) -> Server {
    let backend = ServerBackend { engine, routable: None, oracle: None, warnings: Vec::new() };
    Server::start("127.0.0.1:0", backend, ServerConfig::default()).expect("start loopback server")
}

fn connect(server: &Server) -> Client {
    Client::connect(server.addr()).expect("connect to the loopback server")
}

/// Replies that are not answers, by kind.
#[derive(Debug, Clone, Copy, Default)]
struct Failures {
    busy: u64,
    errors: u64,
    missing: u64,
}

impl Failures {
    fn total(&self) -> u64 {
        self.busy + self.errors + self.missing
    }
}

/// Closed loop: `BATCH`es of [`BATCH`] back to back, one in flight. Calls
/// `next_batch` for the queries of each batch until it returns `false`;
/// every round trip is one `batch` root span when `tracer` is recording.
/// Returns each batch's `(finish offset, round-trip)` in ns.
fn closed_batches(
    client: &mut Client,
    tracer: Option<&Tracer>,
    sampler: &mut Sampler,
    failures: &mut Failures,
    mut next_batch: impl FnMut(&mut Vec<VertexId>) -> bool,
) -> Vec<(u64, u64)> {
    let mut queries = Vec::with_capacity(BATCH);
    let mut bodies = Vec::with_capacity(BATCH);
    let mut done = Vec::new();
    let mut issued = 0usize;
    let start = Instant::now();
    while next_batch(&mut queries) {
        bodies.clear();
        bodies.extend(queries.iter().map(|&q| body(q)));
        let t0 = Instant::now();
        let root = tracer.map(|t| {
            t.root(Layer::Batch, done.len() as u32, bodies.len() as u32, is_detailed(issued))
        });
        let outcomes = client.batch(&bodies).expect("closed-loop batch on a healthy connection");
        drop(root);
        let t1 = Instant::now();
        done.push(((t1 - start).as_nanos() as u64, (t1 - t0).as_nanos() as u64));
        for (&q, outcome) in queries.iter().zip(&outcomes) {
            let slot = sampler.slot(issued);
            issued += 1;
            match outcome {
                Outcome::Answer(a) => {
                    if let Some(slot) = slot {
                        fill_from_wire(slot, q, a);
                    }
                }
                Outcome::Busy => failures.busy += 1,
                Outcome::ServerError { .. } => failures.errors += 1,
            }
        }
    }
    done
}

/// Phase A throughput: bodies completed over the time to the last
/// completion, so the window's own end does not quantise the figure (a
/// 32-body batch is a coarse unit).
fn phase_a_qps(done: &[(u64, u64)]) -> f64 {
    match done.last() {
        Some(&(finish_ns, _)) => (done.len() * BATCH) as f64 / (finish_ns as f64 / 1e9),
        None => 0.0,
    }
}

/// What one open-loop window saw.
struct OpenLoop {
    /// Latencies in µs, scheduled send → decoded answer, ascending.
    latency_us: Vec<f64>,
    seconds: f64,
    sent: u64,
    failures: Failures,
    /// How late the generator ran, µs per send.
    sender_lag_us: Vec<f64>,
    /// Last reply − last send.
    drain_s: f64,
    samples: Vec<Sample>,
}

impl OpenLoop {
    /// Answered queries per second and the latency percentiles.
    fn timing(&mut self) -> Timing {
        Timing::of(self.latency_us.len(), self.seconds, &mut self.latency_us)
    }
}

/// Open loop: one single-body `BATCH` per Poisson arrival at `rate`/s for
/// `seconds`, sent whether or not earlier replies are back; replies are
/// read on the cloned half. Latency runs from the scheduled send instant.
fn open_loop(
    server: &Server,
    sender: &mut Client,
    rate: f64,
    seconds: f64,
    stream: &mut QueryStream,
    arrivals: &mut SplitMix64,
    max_samples: usize,
) -> OpenLoop {
    let schedule = Arc::new(poisson_schedule(rate, seconds, arrivals));
    let queries: Arc<Vec<VertexId>> =
        Arc::new((0..schedule.len()).map(|_| stream.next_vertex()).collect());
    let total = schedule.len();
    let mut receiver_half = sender.try_clone().expect("clone the connection");
    let start = Instant::now() + Duration::from_millis(5);

    let (reply_tx, reply_rx) = mpsc::channel();
    let receiver = {
        let (schedule, queries) = (schedule.clone(), queries.clone());
        std::thread::spawn(move || {
            let mut latency_us = Vec::with_capacity(total);
            let mut sampler = Sampler::new(max_samples);
            let mut failures = Failures::default();
            let mut received = 0usize;
            let mut last_reply = start;
            while received < total {
                let Ok(Some((rid, _, outcome))) = receiver_half.recv() else { break };
                let now = Instant::now();
                received += 1;
                last_reply = now;
                let i = (rid - 1) as usize;
                match outcome {
                    Outcome::Answer(a) => {
                        let due = start + Duration::from_nanos(schedule[i]);
                        let us = now.saturating_duration_since(due).as_nanos() as f64 / 1e3;
                        latency_us.push(us);
                        if let Some(slot) = sampler.slot(i) {
                            fill_from_wire(slot, queries[i], &a);
                        }
                    }
                    Outcome::Busy => failures.busy += 1,
                    Outcome::ServerError { .. } => failures.errors += 1,
                }
            }
            failures.missing = (total - received) as u64;
            let _ = reply_tx.send(());
            latency_us.sort_by(f64::total_cmp);
            (latency_us, sampler, failures, last_reply)
        })
    };

    let mut lag_us = Vec::with_capacity(total);
    let mut last_send = start;
    for (i, (&due_ns, &q)) in schedule.iter().zip(queries.iter()).enumerate() {
        let due = start + Duration::from_nanos(due_ns);
        // Sleep to just short of the instant, then spin: the scheduler's
        // wake-up slack would otherwise be booked as server latency.
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            if wait > Duration::from_micros(150) {
                std::thread::sleep(wait - Duration::from_micros(150));
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
        }
        last_send = Instant::now();
        lag_us.push((last_send - due).as_nanos() as f64 / 1e3);
        sender.send_batch_nowait(i as u64 + 1, &[body(q)]).expect("send on a healthy connection");
    }

    // Replies still owed after this long are missing. GOODBYE makes the
    // server close the connection, which ends the receiver's blocked read;
    // later windows get a fresh connection.
    let grace = Duration::from_secs_f64(DRAIN_LIMIT_S * 5.0);
    if reply_rx.recv_timeout(grace).is_err() {
        eprintln!("# open loop at {rate} q/s: replies still missing {grace:?} after the last send");
        let _ = sender.send_raw(&encode_frame(&Frame::Goodbye));
        *sender = connect(server);
    }
    let (latency_us, sampler, failures, last_reply) =
        receiver.join().expect("receiver thread panicked");
    OpenLoop {
        latency_us,
        seconds,
        sent: total as u64,
        failures,
        sender_lag_us: lag_us,
        drain_s: last_reply.saturating_duration_since(last_send).as_secs_f64(),
        samples: sampler.samples().to_vec(),
    }
}

/// Answers the served samples should be bit-identical to: the same engine
/// asked locally.
fn differing_from_local(engine: &QueryEngine<DynBrowser>, samples: &[Sample]) -> u64 {
    let mut session = engine.session();
    let mut local = Sample::default();
    let mut differing = 0;
    for s in samples {
        let q = VertexId(s.query);
        fill_from_knn(&mut local, q, session.knn(q, K, KnnVariant::Basic));
        differing += u64::from(local != *s);
    }
    if differing > 0 {
        eprintln!("# {differing} served answers differ from the local session's");
    }
    differing
}

struct Serving {
    mono: Mono,
    engine: Arc<QueryEngine<DynBrowser>>,
    server: Server,
    client: Client,
}

impl Serving {
    fn setup(args: &Args, work: &WorkDir) -> Serving {
        let n = args.scale.n_mono;
        let mono = Mono::setup(&args.scale, work.path(), Temperature::Warm.caches(n));
        let browser: Arc<DynBrowser> = mono.disk.clone();
        let engine = Arc::new(QueryEngine::new(browser, mono.objects.clone()));
        let server = start_server(engine.clone());
        let client = connect(&server);
        Serving { mono, engine, server, client }
    }
}

/// Warms the engine's shared caches locally, then the executor's own
/// session scratch with a few batches over the wire.
fn warm(engine: &QueryEngine<DynBrowser>, client: &mut Client, n: usize) {
    warm_up(&mut engine.session(), n, Temperature::Warm);
    for b in 0..16 {
        let bodies: Vec<QueryBody> =
            (0..BATCH).map(|i| body(VertexId(((b * BATCH + i) * 7919 % n) as u32))).collect();
        client.batch(&bodies).expect("warm-up batch");
    }
}

pub fn run_untraced(args: &Args) -> RunResult {
    let n = args.scale.n_mono;
    let work = WorkDir::new(&args.workload);
    let mut stream = QueryStream::new(args.seed, n);
    let mut arrivals = SplitMix64::stream(args.seed, STREAM_ARRIVALS);
    let seconds = args.seconds / args.rounds as f64;
    let checks = args.scale.max_checks_mono / args.rounds / 2;
    let mut rounds = Vec::new();
    for _ in 0..args.rounds {
        let t = Instant::now();
        let mut s = Serving::setup(args, &work);
        let setup_s = t.elapsed().as_secs_f64();
        warm(&s.engine, &mut s.client, n);

        // Phase A — closed loop, throughput.
        let mut sampler = Sampler::new(checks);
        let mut failures = Failures::default();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds * PHASE_A_SHARE);
        let done = closed_batches(&mut s.client, None, &mut sampler, &mut failures, |queries| {
            queries.clear();
            queries.extend((0..BATCH).map(|_| stream.next_vertex()));
            Instant::now() < deadline
        });
        let sent_a = (done.len() * BATCH) as u64;

        // Phase B — open loop at the frozen reference rate, latency.
        let mut b = open_loop(
            &s.server,
            &mut s.client,
            REFERENCE_RATE_QPS as f64,
            seconds * (1.0 - PHASE_A_SHARE),
            &mut stream,
            &mut arrivals,
            checks,
        );

        let mut samples = sampler.samples().to_vec();
        samples.extend_from_slice(&b.samples);
        let differing = differing_from_local(&s.engine, &samples);
        let wrong = count_wrong(&s.mono.network, &s.mono.objects, &samples) as u64;
        let lost = failures.total() + b.failures.total();
        eprintln!(
            "# phase A {sent_a} queries in batches of {BATCH}; phase B {} queries at {} q/s \
             (sender lag p99 {:.0} µs, drain {:.3} s); {} busy, {} errors, {} missing; \
             {} answers checked, {differing} differ from local, {wrong} wrong",
            b.sent,
            REFERENCE_RATE_QPS,
            lag_p99(&b.sender_lag_us),
            b.drain_s,
            failures.busy + b.failures.busy,
            failures.errors + b.failures.errors,
            b.failures.missing,
            samples.len(),
        );
        let timing = Timing { qps: phase_a_qps(&done), ..b.timing() };
        rounds.push(Round {
            setup_s,
            peak_rss_mib: peak_rss_mib(),
            timing,
            attempted: sent_a + b.sent,
            // A served answer that is wrong also differs from the local one.
            failed: lost + differing.max(wrong),
        });
        let _ = s.client.goodbye();
        s.server.shutdown();
    }
    finish(&args.workload, &rounds, args.smoke)
}

fn lag_p99(lag_us: &[f64]) -> f64 {
    let mut sorted = lag_us.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 99.0).unwrap_or(0.0)
}

/// One ladder rung's verdict inputs.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    pub rate: u32,
    pub p50_us: Option<f64>,
    pub p99_us: Option<f64>,
    pub failed: u64,
    pub drain_s: f64,
}

impl Rung {
    /// A rung passes when its p99 is supported by the sample and within the
    /// limit, nothing failed, and the backlog was gone within the drain
    /// limit of the last send.
    pub fn passes(&self) -> bool {
        self.p99_us.is_some_and(|p| p <= LATENCY_LIMIT_US)
            && self.failed == 0
            && self.drain_s <= DRAIN_LIMIT_S
    }
}

/// The highest rate that passes with every lower rung passing too.
pub fn max_rate_ok(rungs: &[Rung]) -> u32 {
    rungs.iter().take_while(|r| r.passes()).map(|r| r.rate).last().unwrap_or(0)
}

/// Replays `queries` as closed-loop batches; returns the wall time, each
/// batch's `(finish, round trip)` and the failures.
fn replay_batches(
    client: &mut Client,
    queries: &[VertexId],
    tracer: Option<&Tracer>,
    sampler: &mut Sampler,
) -> (f64, Vec<(u64, u64)>, Failures) {
    let mut failures = Failures::default();
    let mut chunks = queries.chunks_exact(BATCH);
    let t = Instant::now();
    let done = closed_batches(client, tracer, sampler, &mut failures, |batch| {
        batch.clear();
        chunks.next().is_some_and(|c| {
            batch.extend_from_slice(c);
            true
        })
    });
    (t.elapsed().as_secs_f64(), done, failures)
}

pub fn run_traced(args: &Args) -> RunResult {
    let n = args.scale.n_mono;
    let caches = Temperature::Warm.caches(n);
    let work = WorkDir::new(&args.workload);
    let mut s = Serving::setup(args, &work);
    warm(&s.engine, &mut s.client, n);
    let queries = QueryStream::prefix(args.seed, n, args.scale.traced_queries / BATCH * BATCH);
    let count = queries.len();

    // The same stream answered locally: the reference for the answers and
    // for `server.overhead_us_p50`.
    let mut local = s.engine.session();
    let mut reference = Sampler::new(count / SAMPLE_EVERY + 1);
    let (_, local_ns) = replay(&queries, |i, q| {
        let r = local.knn(q, K, KnnVariant::Basic);
        if let Some(slot) = reference.slot(i) {
            fill_from_knn(slot, q, r);
        }
    });
    let local_p50_us = median(&local_ns);

    // Closed-loop batches over the plain server …
    let mut plain_samples = Sampler::new(count / SAMPLE_EVERY + 1);
    let (plain_s, plain_done, plain_failures) =
        replay_batches(&mut s.client, &queries, None, &mut plain_samples);

    // … and over a second server whose engine looks up through the
    // decorators, with `Server::status()` polled alongside.
    let (tracer, detailed) = Tracer::for_window(count);
    let traced_disk = s.mono.open_traced(caches, &tracer);
    let traced_browser: Arc<DynBrowser> =
        Arc::new(TracedBrowser::new(traced_disk.clone(), tracer.clone()));
    let traced_engine = Arc::new(QueryEngine::new(traced_browser, s.mono.objects.clone()));
    let traced_server = start_server(traced_engine.clone());
    let mut traced_client = connect(&traced_server);
    warm(&traced_engine, &mut traced_client, n);
    traced_disk.reset_io_stats();
    let before = traced_server.status();
    let polling = AtomicBool::new(true);
    let mut traced_samples = Sampler::new(count / SAMPLE_EVERY + 1);
    tracer.set_enabled(true);
    let ((traced_s, _, traced_failures), queue_depth_max) = std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            let mut deepest = 0;
            while polling.load(Relaxed) {
                deepest = deepest.max(traced_server.status().queue_depth);
                std::thread::sleep(Duration::from_millis(10));
            }
            deepest
        });
        let out = replay_batches(&mut traced_client, &queries, Some(&tracer), &mut traced_samples);
        polling.store(false, Relaxed);
        (out, poller.join().expect("status poller panicked"))
    });
    tracer.set_enabled(false);
    let after = traced_server.status();
    let _ = traced_client.goodbye();
    traced_server.shutdown();
    let spans = tracer.spans();
    let b = Breakdown::of(&spans);

    let differing: u64 = [&plain_samples, &traced_samples]
        .iter()
        .map(|got| {
            count_differing(
                reference.samples(),
                got.samples(),
                "served answers differ from the local session's",
            )
        })
        .sum();

    let mut metrics = Metrics::default();
    report_read_path(
        &mut metrics,
        &b,
        traced_disk.io_stats(),
        traced_disk.entry_cache_stats().hit_rate(),
        count,
        detailed,
    );
    metrics.set("server.batch_self_us_per_query", b.self_us(Layer::Batch) / detailed as f64);
    let mut rtt_ms: Vec<f64> = plain_done.iter().map(|&(_, rtt)| rtt as f64 / 1e6).collect();
    rtt_ms.sort_by(f64::total_cmp);
    metrics.set("server.batch32_rtt_ms_p50", percentile(&rtt_ms, 50.0).unwrap_or(0.0));
    let drains = after.batches_drained - before.batches_drained;
    metrics.set(
        "server.bodies_per_drain",
        (after.bodies_executed - before.bodies_executed) as f64 / drains.max(1) as f64,
    );
    metrics.set("server.queue_depth_max", queue_depth_max as f64);

    // The ladder, on the plain server. Every rung runs: the submission
    // queue sheds with SERVER_BUSY, so an overloaded rung still ends on
    // time, and the rungs above the first miss stay informative.
    let mut stream = QueryStream::new(args.seed, n);
    let mut arrivals = SplitMix64::stream(args.seed, STREAM_ARRIVALS);
    let mut rungs = Vec::new();
    for rate in LADDER_QPS {
        let seconds = args.scale.rung_seconds.max(args.scale.rung_min_arrivals / rate as f64);
        let r = open_loop(
            &s.server,
            &mut s.client,
            rate as f64,
            seconds,
            &mut stream,
            &mut arrivals,
            0,
        );
        let rung = Rung {
            rate,
            p50_us: percentile(&r.latency_us, 50.0),
            p99_us: percentile(&r.latency_us, 99.0),
            failed: r.failures.total(),
            drain_s: r.drain_s,
        };
        eprintln!(
            "# rung {rate} q/s: {} sent, p50 {:.0} µs, p99 {:.0} µs, {} failed, drain {:.3} s → {}",
            r.sent,
            rung.p50_us.unwrap_or(0.0),
            rung.p99_us.unwrap_or(0.0),
            rung.failed,
            rung.drain_s,
            if rung.passes() { "ok" } else { "miss" }
        );
        metrics.set(format!("server.rate_{rate}.p50_us"), rung.p50_us.unwrap_or(0.0));
        metrics.set(format!("server.rate_{rate}.p99_us"), rung.p99_us.unwrap_or(0.0));
        if rate == REFERENCE_RATE_QPS {
            metrics.set("server.overhead_us_p50", rung.p50_us.unwrap_or(0.0) - local_p50_us);
            metrics.set("server.sender_lag_us_p99", lag_p99(&r.sender_lag_us));
            metrics.set("server.busy_share", r.failures.busy as f64 / r.sent.max(1) as f64);
        }
        rungs.push(rung);
    }
    metrics.set("server.max_rate_ok_qps", max_rate_ok(&rungs) as f64);

    s.mono.report_setup(&mut metrics);
    let trusted = finish_traced(
        &mut metrics,
        args,
        Some(&s.mono.network),
        &tracer,
        &spans,
        &b,
        (plain_s, traced_s),
    );
    let lost = plain_failures.total() + traced_failures.total();
    let _ = s.client.goodbye();
    s.server.shutdown();
    // Sheds on an overloaded rung are what the ladder measures, not
    // failures of the run; only the two replay passes are counted.
    RunResult {
        correct: trusted && differing == 0 && lost == 0,
        attempted: 2 * count as u64,
        failed: differing + lost,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(rate: u32, p99_us: Option<f64>, failed: u64, drain_s: f64) -> Rung {
        Rung { rate, p50_us: Some(100.0), p99_us, failed, drain_s }
    }

    #[test]
    fn a_rung_needs_supported_p99_within_limit_no_failures_and_no_backlog() {
        assert!(rung(100, Some(LATENCY_LIMIT_US), 0, DRAIN_LIMIT_S).passes());
        assert!(!rung(100, Some(LATENCY_LIMIT_US + 1.0), 0, 0.0).passes());
        assert!(!rung(100, None, 0, 0.0).passes(), "unsupported p99 is a miss");
        assert!(!rung(100, Some(50.0), 1, 0.0).passes(), "a shed query misses every limit");
        assert!(!rung(100, Some(50.0), 0, DRAIN_LIMIT_S + 0.01).passes(), "growing backlog");
    }

    #[test]
    fn max_rate_is_the_last_rung_before_the_first_miss() {
        let ok = |r| rung(r, Some(500.0), 0, 0.0);
        let miss = |r| rung(r, Some(50_000.0), 0, 0.0);
        assert_eq!(max_rate_ok(&[ok(100), ok(200), ok(400)]), 400);
        assert_eq!(max_rate_ok(&[ok(100), miss(200), ok(400)]), 100);
        assert_eq!(max_rate_ok(&[miss(100), ok(200)]), 0);
        assert_eq!(max_rate_ok(&[]), 0);
    }

    #[test]
    fn phase_a_throughput_is_bodies_over_time_to_the_last_completion() {
        // One batch every 50 ms for a second.
        let done: Vec<(u64, u64)> = (1..=20u64).map(|i| (i * 50_000_000, 49_000_000)).collect();
        assert_eq!(phase_a_qps(&done), 20.0 * BATCH as f64);
        assert_eq!(phase_a_qps(&[]), 0.0);
    }
}
