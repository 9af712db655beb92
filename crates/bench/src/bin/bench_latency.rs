//! Open-loop tail latency through the TCP server.
//!
//! A closed-loop driver (the repository benchmark's `served_warm`
//! workload) measures how fast the engine can go when clients politely
//! wait their turn; this one measures
//! what a *clock-driven* client population sees. Query batches arrive as a
//! Poisson process at a configured offered load whether or not the server
//! has caught up, so queueing delay — the thing closed loops hide — shows
//! up in the percentiles. Each offered load is replayed twice, identical
//! schedule and query points, under both drained-batch execution orders
//! (`morton`, `fifo`), so the record pins the locality claim: Morton-sorted
//! batches must beat FIFO on buffer-pool hit rate at the same load.
//!
//! Reported per run: offered vs achieved QPS, p50/p99/p999 latency
//! (measured from each batch's *scheduled* arrival, so sender lag counts),
//! `SERVER_BUSY` sheds, and both cache layers' hit rates from the
//! in-process disk index handle. Since `SILCIDX4` the index has no
//! decoded-entry cache: `entry_cache_hit_rate` reads the idle stub of
//! `DiskSilcIndex::entry_cache_stats` (1.0, zero requests), kept so the
//! record's schema holds until this recorder is retired.
//!
//! ```text
//! cargo run -p silc-bench --release --bin bench_latency -- [FLAGS]
//!
//! FLAGS
//!   --vertices N      road-network size                     (default 2000)
//!   --seed S          master RNG seed                       (default 2008)
//!   --batch B         query bodies per arrival              (default 32)
//!   --duration-ms D   measured window per run               (default 2000)
//!   --loads CSV       offered fractions of measured capacity (default 0.3,0.6,0.9)
//!   --out PATH        output file                           (default BENCH_latency.json)
//!   --smoke           CI smoke mode: 300 vertices, 100 ms, batch 16,
//!                     write to target/ — only checks the pipeline runs
//! ```
//!
//! Workload constants match the repository benchmark (`benchmark/`): kNN
//! (Basic), `k = 10`, object density 0.07. The page cache is deliberately small (2 % of the
//! pages, not the paper's 5 %) so batch order has pages to fight over.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silc::disk::{write_index, DiskSilcIndex};
use silc::{BuildConfig, SilcIndex};
use silc_bench::stats::percentile;
use silc_network::generate::{road_network, RoadConfig};
use silc_query::{ObjectSet, QueryEngine};
use silc_server::batch::BatchOrder;
use silc_server::server::DynBrowser;
use silc_server::{Algorithm, Client, Outcome, QueryBody, Server, ServerBackend, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    vertices: usize,
    seed: u64,
    batch: usize,
    duration_ms: u64,
    loads: Vec<f64>,
    out: String,
    smoke: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        vertices: 2000,
        seed: 2008,
        batch: 32,
        duration_ms: 2000,
        loads: vec![0.3, 0.6, 0.9],
        out: "BENCH_latency.json".to_string(),
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    let (mut saw_vertices, mut saw_batch, mut saw_duration, mut saw_out) =
        (false, false, false, false);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--vertices" => {
                args.vertices = it.next().and_then(|v| v.parse().ok()).expect("--vertices N");
                saw_vertices = true;
            }
            "--seed" => args.seed = it.next().and_then(|v| v.parse().ok()).expect("--seed S"),
            "--batch" => {
                args.batch =
                    it.next().and_then(|v| v.parse().ok()).filter(|&b| b > 0).expect("--batch B");
                saw_batch = true;
            }
            "--duration-ms" => {
                args.duration_ms = it.next().and_then(|v| v.parse().ok()).expect("--duration-ms D");
                saw_duration = true;
            }
            "--loads" => {
                args.loads = it
                    .next()
                    .expect("--loads CSV")
                    .split(',')
                    .map(|f| f.trim().parse().expect("--loads takes numbers"))
                    .collect();
                assert!(!args.loads.is_empty(), "--loads must name at least one fraction");
            }
            "--out" => {
                args.out = it.next().expect("--out PATH");
                saw_out = true;
            }
            "--smoke" => args.smoke = true,
            "--help" | "-h" => {
                println!("see the module docs at the top of bench_latency.rs for usage");
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}"),
        }
    }
    if args.smoke {
        if !saw_vertices {
            args.vertices = 300;
        }
        if !saw_batch {
            args.batch = 16;
        }
        if !saw_duration {
            args.duration_ms = 100;
        }
        if !saw_out {
            args.out = "target/bench_latency_smoke.json".to_string();
        }
    }
    args
}

/// One precomputed open-loop schedule: Poisson arrival offsets plus the
/// query bodies of each arrival. Identical across the order replays.
struct Schedule {
    arrivals: Vec<Duration>,
    bodies: Vec<Vec<QueryBody>>,
}

fn poisson_schedule(
    offered_qps: f64,
    batch: usize,
    duration: Duration,
    n: u32,
    k: u32,
    seed: u64,
) -> Schedule {
    let batch_rate = offered_qps / batch as f64;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut arrivals = Vec::new();
    let mut bodies = Vec::new();
    let mut t = 0.0f64;
    while t < duration.as_secs_f64() && arrivals.len() < 1_000_000 {
        arrivals.push(Duration::from_secs_f64(t));
        bodies.push(
            (0..batch)
                .map(|_| QueryBody { algorithm: Algorithm::Knn, vertex: rng.gen_range(0..n), k })
                .collect(),
        );
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / batch_rate;
    }
    Schedule { arrivals, bodies }
}

struct RunResult {
    order: &'static str,
    offered_fraction: f64,
    offered_qps: f64,
    sent: usize,
    answered: usize,
    busy: usize,
    achieved_qps: f64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    pool_hit_rate: f64,
    entry_cache_hit_rate: f64,
}

/// Replays one schedule against a fresh server: a sender half paces the
/// batches on the clock, a receiver half timestamps every reply against
/// the batch's *scheduled* arrival.
fn run_open_loop(
    engine: &Arc<QueryEngine<DynBrowser>>,
    disk: &Arc<DiskSilcIndex>,
    order: BatchOrder,
    schedule: &Schedule,
    offered_fraction: f64,
    offered_qps: f64,
) -> RunResult {
    let backend = ServerBackend {
        engine: engine.clone(),
        routable: None,
        oracle: None,
        warnings: Vec::new(),
    };
    let cfg = ServerConfig { order, ..ServerConfig::default() };
    let server = Server::start("127.0.0.1:0", backend, cfg).expect("start bench server");

    // Warm the caches to steady state with the first schedule entries,
    // closed-loop, then zero the counters so the run owns its stats.
    let mut warm = Client::connect(server.addr()).expect("connect warmup client");
    for bodies in schedule.bodies.iter().take(24) {
        let _ = warm.batch(bodies).expect("warmup batch");
    }
    warm.goodbye().ok();
    disk.reset_io_stats();

    let sender_client = Client::connect(server.addr()).expect("connect bench client");
    let mut receiver_client = sender_client.try_clone().expect("clone connection");
    let total_bodies: usize = schedule.bodies.iter().map(Vec::len).sum();
    let start = Instant::now();

    let sender = {
        let (arrivals, bodies) = (schedule.arrivals.clone(), schedule.bodies.clone());
        let mut client = sender_client;
        std::thread::spawn(move || {
            for (i, batch) in bodies.iter().enumerate() {
                if let Some(wait) = (start + arrivals[i]).checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                client.send_batch_nowait(i as u64 + 1, batch).expect("send batch");
            }
        })
    };

    // The receiver half: every body comes back exactly once (answer, busy
    // shed, or typed error), so it drains until the schedule's body count
    // is met — no coordination with the sender needed.
    let receiver = {
        let arrivals = schedule.arrivals.clone();
        std::thread::spawn(move || {
            let mut latencies_us: Vec<f64> = Vec::with_capacity(total_bodies);
            let mut busy = 0usize;
            let mut received = 0usize;
            while received < total_bodies {
                match receiver_client.recv() {
                    Ok(Some((rid, _seq, outcome))) => {
                        received += 1;
                        match outcome {
                            Outcome::Answer(_) => {
                                let scheduled = start + arrivals[(rid - 1) as usize];
                                latencies_us.push(scheduled.elapsed().as_secs_f64() * 1e6);
                            }
                            Outcome::Busy => busy += 1,
                            Outcome::ServerError { code, detail } => {
                                panic!("query failed mid-benchmark: code {code}: {detail}")
                            }
                        }
                    }
                    Ok(None) => break,
                    Err(e) => panic!("receiver failed: {e}"),
                }
            }
            (latencies_us, busy)
        })
    };

    sender.join().expect("sender panicked");
    let (mut latencies_us, busy) = receiver.join().expect("receiver panicked");
    let elapsed_s = start.elapsed().as_secs_f64();
    server.shutdown();

    let sent = total_bodies;
    let answered = latencies_us.len();
    assert!(answered > 0, "open-loop run answered nothing");
    assert_eq!(answered + busy, sent, "a reply went missing");
    latencies_us.sort_by(f64::total_cmp);
    let io = disk.io_stats();
    let cache = disk.entry_cache_stats();
    RunResult {
        order: match order {
            BatchOrder::Morton => "morton",
            BatchOrder::Fifo => "fifo",
        },
        offered_fraction,
        offered_qps,
        sent,
        answered,
        busy,
        achieved_qps: answered as f64 / elapsed_s,
        p50_us: percentile(&latencies_us, 50.0),
        p99_us: percentile(&latencies_us, 99.0),
        p999_us: percentile(&latencies_us, 99.9),
        pool_hit_rate: io.hit_rate(),
        entry_cache_hit_rate: cache.hit_rate(),
    }
}

/// Closed-loop capacity probe: one client, back-to-back batches, the rate
/// the offered-load fractions are anchored to.
fn measure_capacity(
    engine: &Arc<QueryEngine<DynBrowser>>,
    batch: usize,
    duration: Duration,
    n: u32,
    k: u32,
    seed: u64,
) -> f64 {
    let backend = ServerBackend {
        engine: engine.clone(),
        routable: None,
        oracle: None,
        warnings: Vec::new(),
    };
    let server =
        Server::start("127.0.0.1:0", backend, ServerConfig::default()).expect("start probe server");
    let mut client = Client::connect(server.addr()).expect("connect probe client");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xCAFE);
    let fresh_batch = |rng: &mut StdRng| -> Vec<QueryBody> {
        (0..batch)
            .map(|_| QueryBody { algorithm: Algorithm::Knn, vertex: rng.gen_range(0..n), k })
            .collect()
    };
    // Warm-up, then measure.
    for _ in 0..4 {
        client.batch(&fresh_batch(&mut rng)).expect("warmup batch");
    }
    let start = Instant::now();
    let mut answered = 0usize;
    while start.elapsed() < duration {
        let outcomes = client.batch(&fresh_batch(&mut rng)).expect("probe batch");
        answered += outcomes.iter().filter(|o| matches!(o, Outcome::Answer(_))).count();
    }
    let qps = answered as f64 / start.elapsed().as_secs_f64();
    client.goodbye().ok();
    server.shutdown();
    qps
}

fn main() {
    let args = parse_args();
    let grid_exponent = 11u32;
    let (k, density, cache_fraction) = (10u32, 0.07f64, 0.02f64);
    eprintln!(
        "# bench latency: n = {}, seed = {}, batch = {}, loads = {:?}, {} ms windows",
        args.vertices, args.seed, args.batch, args.loads, args.duration_ms
    );

    let network = Arc::new(road_network(&RoadConfig {
        vertices: args.vertices,
        edge_factor: 1.25,
        detour: 0.2,
        extent: 1000.0,
        seed: args.seed,
    }));
    let n = network.vertex_count() as u32;
    let index = SilcIndex::build(network.clone(), &BuildConfig { grid_exponent, threads: 0 })
        .expect("latency network must satisfy the index preconditions");
    let dir = std::env::temp_dir().join("silc-bench-latency");
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    let idx_path = dir.join(format!("lat-{}-{}.idx", args.vertices, args.seed));
    write_index(&index, &idx_path).expect("serialize index");
    drop(index);
    let disk = Arc::new(
        DiskSilcIndex::open(&idx_path, network.clone(), cache_fraction).expect("open disk index"),
    );
    let browser: Arc<DynBrowser> = disk.clone();
    let objects = Arc::new(ObjectSet::random(&network, density, args.seed ^ 0xBA5E));
    let k = k.min(objects.len() as u32);
    let engine = Arc::new(QueryEngine::new(browser, objects));
    eprintln!("# disk index: {} pages, pool capacity 2%", disk.page_count());

    let duration = Duration::from_millis(args.duration_ms);
    let capacity_qps = measure_capacity(&engine, args.batch, duration, n, k, args.seed);
    eprintln!("# closed-loop capacity: {capacity_qps:.0} QPS");

    let mut runs: Vec<RunResult> = Vec::new();
    for &fraction in &args.loads {
        let offered_qps = capacity_qps * fraction;
        let schedule = poisson_schedule(
            offered_qps,
            args.batch,
            duration,
            n,
            k,
            args.seed ^ fraction.to_bits(),
        );
        // Same schedule, both execution orders: the Morton-vs-FIFO A/B.
        for order in [BatchOrder::Morton, BatchOrder::Fifo] {
            let r = run_open_loop(&engine, &disk, order, &schedule, fraction, offered_qps);
            eprintln!(
                "# {:>6} @ {:.1}×: offered {:.0} QPS, achieved {:.0} QPS, p50 {:.0}µs, \
                 p99 {:.0}µs, p999 {:.0}µs, busy {}, pool hit {:.3}, entry cache hit {:.3}",
                r.order,
                r.offered_fraction,
                r.offered_qps,
                r.achieved_qps,
                r.p50_us,
                r.p99_us,
                r.p999_us,
                r.busy,
                r.pool_hit_rate,
                r.entry_cache_hit_rate,
            );
            runs.push(r);
        }
    }

    // Hand-assembled JSON (the serde shims are no-op derives); flat fields
    // plus one object per run so re-recorded files diff line by line.
    let host_threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let mut json = format!(
        "{{\n  \"vertices\": {},\n  \"seed\": {},\n  \"grid_exponent\": {},\n  \
         \"cache_fraction\": {},\n  \"knn_k\": {},\n  \"knn_density\": {},\n  \
         \"batch_size\": {},\n  \"duration_ms\": {},\n  \"host_threads\": {},\n  \
         \"capacity_qps\": {:.1},\n  \"runs\": [\n",
        args.vertices,
        args.seed,
        grid_exponent,
        cache_fraction,
        k,
        density,
        args.batch,
        args.duration_ms,
        host_threads,
        capacity_qps,
    );
    for (i, r) in runs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"order\": \"{}\", \"offered_fraction\": {}, \"offered_qps\": {:.1}, \
             \"sent\": {}, \"answered\": {}, \"busy\": {}, \"achieved_qps\": {:.1}, \
             \"p50_us\": {:.3}, \"p99_us\": {:.3}, \"p999_us\": {:.3}, \
             \"pool_hit_rate\": {:.6}, \"entry_cache_hit_rate\": {:.6}}}{}\n",
            r.order,
            r.offered_fraction,
            r.offered_qps,
            r.sent,
            r.answered,
            r.busy,
            r.achieved_qps,
            r.p50_us,
            r.p99_us,
            r.p999_us,
            r.pool_hit_rate,
            r.entry_cache_hit_rate,
            if i + 1 < runs.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");

    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&args.out, &json).expect("write latency file");
    println!("{json}");
    eprintln!("# wrote {}", args.out);
    std::fs::remove_file(&idx_path).ok();
}
