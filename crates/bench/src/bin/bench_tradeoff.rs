//! The paper's central trade-off, measured from a common disk substrate:
//! the exact O(n²)-precompute SILC index versus the ε-approximate PCP
//! oracle (trade-off table p.11, PCP framework pp.28–29).
//!
//! Builds both indexes over the *same* road network, serializes both into
//! page files, and serves point-to-point distance queries through three
//! backends — the disk SILC index (exact, progressive refinement), the
//! memory PCP oracle, and the disk PCP oracle — where both disk backends
//! read through the same `silc_storage::BufferPool` machinery with the
//! paper's 5 % page cache. Per backend it records build time, on-disk
//! bytes, QPS/p50/p99 latency, both cache layers' hit rates, and the
//! observed relative error against the exact answers next to the oracle's
//! guaranteed ε bound. The disk SILC index has had no decoded-entry cache
//! since `SILCIDX4`: its `cache_hit_rate` reads the idle stub of
//! `DiskSilcIndex::entry_cache_stats` (1.0, zero requests), kept so the
//! record's schema holds until this recorder is retired.
//!
//! The PCP oracle is built **twice** — serial (`threads = 1`) and parallel
//! (`threads = 0`) — with both encodes asserted byte-identical in flight,
//! and the record includes the batched build's probe counts (multi-target
//! searches vs stored pairs) plus both error contracts: the guaranteed ε
//! (max per-pair cap) and the a-priori `4t/s` bound, next to the observed
//! error.
//!
//! ```text
//! cargo run -p silc-bench --release --bin bench_tradeoff -- [FLAGS]
//!
//! FLAGS
//!   --vertices N      road-network size                   (default 2000)
//!   --seed S          master RNG seed                     (default 2008)
//!   --separation S    WSPD separation factor s            (default 8.0)
//!   --queries Q       distance queries per backend        (default 4000)
//!   --out PATH        output file                  (default BENCH_tradeoff.json)
//!   --smoke           CI smoke mode: 250 vertices, 300 queries, s = 6,
//!                     write to target/ — only checks the pipeline runs
//! ```
//!
//! Queries run single-threaded closed-loop; each backend starts cold
//! (`clear_cache`), warms on the first 10 % of the query set, then the
//! full set is timed with freshly reset cache counters.

use silc::disk::{write_index, DiskSilcIndex};
use silc::{BuildConfig, SilcIndex};
use silc_bench::stats::percentile;
use silc_network::generate::{road_network, RoadConfig};
use silc_network::VertexId;
use silc_pcp::{write_oracle, DiskDistanceOracle, DistanceOracle};
use std::sync::Arc;
use std::time::Instant;

struct Args {
    vertices: usize,
    seed: u64,
    separation: f64,
    queries: usize,
    out: String,
    smoke: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        vertices: 2000,
        seed: 2008,
        separation: 8.0,
        queries: 4000,
        out: "BENCH_tradeoff.json".to_string(),
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    let (mut saw_vertices, mut saw_sep, mut saw_queries, mut saw_out) =
        (false, false, false, false);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--vertices" => {
                args.vertices = it.next().and_then(|v| v.parse().ok()).expect("--vertices N");
                saw_vertices = true;
            }
            "--seed" => args.seed = it.next().and_then(|v| v.parse().ok()).expect("--seed S"),
            "--separation" => {
                args.separation = it.next().and_then(|v| v.parse().ok()).expect("--separation S");
                saw_sep = true;
            }
            "--queries" => {
                args.queries = it.next().and_then(|v| v.parse().ok()).expect("--queries Q");
                saw_queries = true;
            }
            "--out" => {
                args.out = it.next().expect("--out PATH");
                saw_out = true;
            }
            "--smoke" => args.smoke = true,
            "--help" | "-h" => {
                println!("see the module docs at the top of bench_tradeoff.rs for usage");
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}"),
        }
    }
    if args.smoke {
        if !saw_vertices {
            args.vertices = 250;
        }
        if !saw_sep {
            args.separation = 6.0;
        }
        if !saw_queries {
            args.queries = 300;
        }
        if !saw_out {
            args.out = "target/bench_tradeoff_smoke.json".to_string();
        }
    }
    args
}

struct BackendResult {
    name: &'static str,
    build_s: f64,
    index_bytes: u64,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    pool_hit_rate: Option<f64>,
    cache_hit_rate: Option<f64>,
    mean_rel_error: f64,
    max_rel_error: f64,
}

/// Closed-loop single-threaded latency run: from a cold start, a warm-up
/// pass over the first 10 % of the query set brings the caches to steady
/// state, stats are reset, then the **full** set is timed (the warm prefix
/// re-runs warmed; error statistics need every answer). Returns
/// (answers, sorted latencies µs, elapsed s).
fn run_queries(
    pairs: &[(VertexId, VertexId)],
    mut distance: impl FnMut(VertexId, VertexId) -> f64,
    mut reset: impl FnMut(),
) -> (Vec<f64>, Vec<f64>, f64) {
    let warm = (pairs.len() / 10).max(1).min(pairs.len());
    for &(u, v) in &pairs[..warm] {
        let _ = distance(u, v);
    }
    reset();
    let mut answers = Vec::with_capacity(pairs.len());
    let mut lat = Vec::with_capacity(pairs.len());
    let start = Instant::now();
    for &(u, v) in pairs {
        let t = Instant::now();
        let d = distance(u, v);
        lat.push(t.elapsed().as_secs_f64() * 1e6);
        answers.push(d);
    }
    let elapsed = start.elapsed().as_secs_f64();
    lat.sort_by(f64::total_cmp);
    (answers, lat, elapsed)
}

/// (mean, max) relative error of `approx` against the exact `truth`.
fn rel_error(truth: &[f64], approx: &[f64]) -> (f64, f64) {
    let mut sum = 0.0;
    let mut worst = 0.0f64;
    let mut count = 0usize;
    for (&t, &a) in truth.iter().zip(approx) {
        if t <= 0.0 {
            continue;
        }
        let err = (a - t).abs() / t;
        sum += err;
        worst = worst.max(err);
        count += 1;
    }
    (sum / count.max(1) as f64, worst)
}

fn main() {
    let args = parse_args();
    let grid_exponent = 10u32;
    let cache_fraction = 0.05f64;
    eprintln!(
        "# bench tradeoff: n = {}, seed = {}, s = {}, {} queries",
        args.vertices, args.seed, args.separation, args.queries
    );

    let network = Arc::new(road_network(&RoadConfig {
        vertices: args.vertices,
        edge_factor: 1.25,
        detour: 0.2,
        extent: 1000.0,
        seed: args.seed,
    }));
    let n = network.vertex_count() as u64;
    let dir = std::env::temp_dir().join("silc-bench-tradeoff");
    std::fs::create_dir_all(&dir).expect("create scratch directory");

    // Build + serialize the exact SILC index.
    let t = Instant::now();
    let index = SilcIndex::build(network.clone(), &BuildConfig { grid_exponent, threads: 0 })
        .expect("tradeoff network must satisfy the index preconditions");
    let silc_path = dir.join(format!("silc-{}-{}.idx", args.vertices, args.seed));
    write_index(&index, &silc_path).expect("serialize SILC index");
    let silc_build_s = t.elapsed().as_secs_f64();
    drop(index);
    let silc_bytes = std::fs::metadata(&silc_path).expect("stat SILC index").len();
    let disk_silc = Arc::new(
        DiskSilcIndex::open(&silc_path, network.clone(), cache_fraction)
            .expect("open disk SILC index"),
    );

    // Build the ε-approximate PCP oracle twice — serial, then parallel —
    // asserting the batched build's determinism contract in flight. Both
    // timers cover build **plus** serialization, mirroring the SILC timer
    // above, and the serial artifact is the one served (so `build_s`
    // describes exactly the file being benchmarked).
    let pcp_path = dir.join(format!("pcp-{}-{}.pcp", args.vertices, args.seed));
    let t = Instant::now();
    let oracle = DistanceOracle::build_with(
        &network,
        &silc_pcp::PcpBuildConfig { grid_exponent, separation: args.separation, threads: 1 },
    );
    write_oracle(&oracle, &pcp_path).expect("serialize PCP oracle");
    let pcp_build_serial_s = t.elapsed().as_secs_f64();
    // At least two workers even on a 1-core host, so the byte-equality
    // assertion below always exercises the real chunked-worker path (with
    // `threads: 0` it would degenerate to a second serial build there and
    // prove nothing).
    let parallel_threads =
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).max(2);
    let t = Instant::now();
    let parallel_oracle = DistanceOracle::build_with(
        &network,
        &silc_pcp::PcpBuildConfig {
            grid_exponent,
            separation: args.separation,
            threads: parallel_threads,
        },
    );
    let parallel_encoded = silc_pcp::encode_oracle(&parallel_oracle);
    let pcp_build_parallel_s = t.elapsed().as_secs_f64();
    assert_eq!(
        silc_pcp::encode_oracle(&oracle),
        parallel_encoded,
        "serial and parallel PCP builds must encode byte-identically"
    );
    let parallel_workers = parallel_oracle.build_stats().workers;
    drop(parallel_encoded);
    drop(parallel_oracle);
    let build_stats = oracle.build_stats().clone();
    let pcp_build_s = pcp_build_serial_s;
    let pcp_bytes = std::fs::metadata(&pcp_path).expect("stat PCP oracle").len();
    let disk_pcp =
        DiskDistanceOracle::open(&pcp_path, cache_fraction).expect("open disk PCP oracle");
    eprintln!(
        "# built: SILC {:.2}s / {} KiB on disk; PCP {:.2}s serial / {:.2}s parallel ({} workers), \
         {} pairs via {} batched + {} refine SSSPs, {} KiB on disk, ε = {:.4} (a-priori {:.4})",
        silc_build_s,
        silc_bytes / 1024,
        pcp_build_serial_s,
        pcp_build_parallel_s,
        parallel_workers,
        oracle.pair_count(),
        build_stats.batch_sources,
        build_stats.refine_sources,
        pcp_bytes / 1024,
        oracle.epsilon(),
        oracle.epsilon_apriori()
    );

    // One deterministic query set shared by every backend.
    let pairs: Vec<(VertexId, VertexId)> = (0..args.queries as u64)
        .map(|i| {
            let u = (i.wrapping_mul(2654435761).wrapping_add(args.seed)) % n;
            let mut v = (i.wrapping_mul(40503).wrapping_add(args.seed ^ 0x5111C)) % n;
            if v == u {
                v = (v + 1) % n;
            }
            (VertexId(u as u32), VertexId(v as u32))
        })
        .collect();

    // Exact answers through the disk SILC index (progressive refinement to
    // exactness — no Dijkstra at query time).
    disk_silc.clear_cache();
    let (exact, silc_lat, silc_elapsed) = run_queries(
        &pairs,
        |u, v| silc::path::network_distance(&*disk_silc, u, v).expect("connected network"),
        || disk_silc.reset_io_stats(),
    );
    let silc_io = disk_silc.io_stats();
    let silc_cache = disk_silc.entry_cache_stats();

    // The memory PCP oracle.
    let (mem_answers, mem_lat, mem_elapsed) =
        run_queries(&pairs, |u, v| oracle.distance(u, v), || {});

    // The disk PCP oracle, from the same buffer-pool substrate, verifying
    // a per-page checksum on every physical pool read.
    disk_pcp.clear_cache();
    let (disk_answers, disk_lat, disk_elapsed) =
        run_queries(&pairs, |u, v| disk_pcp.distance(u, v), || disk_pcp.reset_io_stats());
    let pcp_io = disk_pcp.io_stats();
    let pcp_cache = disk_pcp.pair_cache_stats();

    for (i, (&m, &d)) in mem_answers.iter().zip(&disk_answers).enumerate() {
        assert_eq!(m.to_bits(), d.to_bits(), "memory/disk PCP answers diverged at query {i}");
    }

    let (mem_mean, mem_max) = rel_error(&exact, &mem_answers);
    let (disk_mean, disk_max) = rel_error(&exact, &disk_answers);
    let guaranteed = oracle.epsilon();
    let guaranteed_apriori = oracle.epsilon_apriori();
    if mem_max > guaranteed {
        eprintln!(
            "# WARNING: observed error {mem_max:.4} exceeds the guaranteed bound \
             {guaranteed:.4} — the per-pair caps are unsound for this network; investigate \
             before committing this record"
        );
    }

    let results = [
        BackendResult {
            name: "silc_disk",
            build_s: silc_build_s,
            index_bytes: silc_bytes,
            qps: pairs.len() as f64 / silc_elapsed,
            p50_us: percentile(&silc_lat, 50.0),
            p99_us: percentile(&silc_lat, 99.0),
            pool_hit_rate: Some(silc_io.hit_rate()),
            cache_hit_rate: Some(silc_cache.hit_rate()),
            mean_rel_error: 0.0,
            max_rel_error: 0.0,
        },
        BackendResult {
            name: "pcp_mem",
            build_s: pcp_build_s,
            index_bytes: pcp_bytes,
            qps: pairs.len() as f64 / mem_elapsed,
            p50_us: percentile(&mem_lat, 50.0),
            p99_us: percentile(&mem_lat, 99.0),
            pool_hit_rate: None,
            cache_hit_rate: None,
            mean_rel_error: mem_mean,
            max_rel_error: mem_max,
        },
        BackendResult {
            name: "pcp_disk",
            build_s: pcp_build_s,
            index_bytes: pcp_bytes,
            qps: pairs.len() as f64 / disk_elapsed,
            p50_us: percentile(&disk_lat, 50.0),
            p99_us: percentile(&disk_lat, 99.0),
            pool_hit_rate: Some(pcp_io.hit_rate()),
            cache_hit_rate: Some(pcp_cache.hit_rate()),
            mean_rel_error: disk_mean,
            max_rel_error: disk_max,
        },
    ];
    for r in &results {
        eprintln!(
            "# {:>9}: build {:.2}s, {:>9} B, {:>8.0} QPS, p50 {:>7.2}µs, p99 {:>7.2}µs, \
             pool hit {}, cache hit {}, err mean {:.5} max {:.5}",
            r.name,
            r.build_s,
            r.index_bytes,
            r.qps,
            r.p50_us,
            r.p99_us,
            r.pool_hit_rate.map_or("    -".into(), |h| format!("{h:.3}")),
            r.cache_hit_rate.map_or("    -".into(), |h| format!("{h:.3}")),
            r.mean_rel_error,
            r.max_rel_error,
        );
    }

    // Hand-assembled JSON (the serde shims are no-op derives); one object
    // per backend so re-recorded files diff line by line.
    let fmt_opt = |o: Option<f64>| o.map_or("null".to_string(), |v| format!("{v:.6}"));
    let host_threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let mut json = format!(
        "{{\n  \"vertices\": {},\n  \"seed\": {},\n  \"grid_exponent\": {},\n  \
         \"separation\": {},\n  \"cache_fraction\": {},\n  \"queries\": {},\n  \
         \"host_threads\": {},\n  \"pcp_pairs\": {},\n  \"pcp_stretch\": {:.6},\n  \
         \"pcp_build_serial_s\": {:.3},\n  \"pcp_build_parallel_s\": {:.3},\n  \
         \"pcp_build_workers\": {},\n  \"pcp_batch_sssp\": {},\n  \
         \"pcp_batch_settled\": {},\n  \"pcp_refine_sssp\": {},\n  \
         \"pcp_refined_pairs\": {},\n  \"guaranteed_epsilon\": {:.6},\n  \
         \"guaranteed_epsilon_apriori\": {:.6},\n  \"backends\": [\n",
        args.vertices,
        args.seed,
        grid_exponent,
        args.separation,
        cache_fraction,
        pairs.len(),
        host_threads,
        oracle.pair_count(),
        oracle.stretch(),
        pcp_build_serial_s,
        pcp_build_parallel_s,
        parallel_workers,
        build_stats.batch_sources,
        build_stats.batch_settled,
        build_stats.refine_sources,
        build_stats.refined_pairs,
        guaranteed,
        guaranteed_apriori,
    );
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"build_s\": {:.3}, \"index_bytes\": {}, \"qps\": {:.1}, \
             \"p50_us\": {:.3}, \"p99_us\": {:.3}, \"pool_hit_rate\": {}, \
             \"cache_hit_rate\": {}, \"mean_rel_error\": {:.6}, \"max_rel_error\": {:.6}}}{}\n",
            r.name,
            r.build_s,
            r.index_bytes,
            r.qps,
            r.p50_us,
            r.p99_us,
            fmt_opt(r.pool_hit_rate),
            fmt_opt(r.cache_hit_rate),
            r.mean_rel_error,
            r.max_rel_error,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");

    if let Some(parent) = std::path::Path::new(&args.out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
    }
    std::fs::write(&args.out, &json).expect("write tradeoff file");
    println!("{json}");
    eprintln!("# wrote {}", args.out);
    std::fs::remove_file(&silc_path).ok();
    std::fs::remove_file(&pcp_path).ok();
}
