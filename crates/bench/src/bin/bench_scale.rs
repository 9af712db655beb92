//! The scale benchmark: partitioned build + routed kNN at sizes the
//! monolithic precompute cannot reach.
//!
//! The single-index SILC precompute is `O(n² · log n)` — one SSSP per
//! vertex over the whole network. The partitioned index caps every SSSP
//! at its shard, so total build work drops to
//! `O(n · s · log s)` for shard size `s`: linear in `n` once the shard
//! size is fixed. This recorder measures that wall directly: for each
//! requested size it round-trips the generated network through the
//! FMI-style text format (exercising the interchange reader in the same
//! pipeline real datasets would use), partitions it, builds one disk
//! index per shard, and drives the cross-shard kNN router in a closed
//! loop. The smallest size also builds the *monolithic* index once, and
//! every larger size reports the quadratic projection from that base —
//! the number the partitioned build is beating.
//!
//! ```text
//! cargo run -p silc-bench --release --bin bench_scale -- [FLAGS]
//!
//! FLAGS
//!   --sizes A,B,C     comma-separated vertex counts  (default 2000,20000,100000,1000000)
//!   --seed S          master RNG seed                (default 2008)
//!   --shard-target T  aim for ~T vertices per shard  (default 1000)
//!   --duration-ms D   measured query window per size (default 2000)
//!   --out PATH        output file                    (default BENCH_scale.json)
//!   --smoke           CI smoke mode: sizes 400, 150 ms, write to target/ —
//!                     checks the pipeline runs AND that the frontier tier
//!                     certifies every fault-free query (complete == 1.0)
//! ```
//!
//! Workload constants match the repository benchmark's `routed_100k`
//! workload (`benchmark/`): `k = 10`, object density 0.07, cache fraction
//! 0.05, grid exponent 11.

use silc::partitioned::{PartitionedBuildConfig, PartitionedSilcIndex};
use silc::{BuildConfig, SilcIndex};
use silc_bench::stats::percentile;
use silc_network::generate::{road_network, RoadConfig};
use silc_network::io::{read_fmi, write_fmi};
use silc_network::partition::PartitionConfig;
use silc_network::VertexId;
use silc_query::{ObjectSet, PartitionedEngine};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    sizes: Vec<usize>,
    seed: u64,
    shard_target: usize,
    duration_ms: u64,
    out: String,
    smoke: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        sizes: vec![2000, 20000, 100000, 1000000],
        seed: 2008,
        shard_target: 1000,
        duration_ms: 2000,
        out: "BENCH_scale.json".to_string(),
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    let (mut saw_sizes, mut saw_duration, mut saw_out) = (false, false, false);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--sizes" => {
                let list = it.next().expect("--sizes A,B,C");
                args.sizes = list
                    .split(',')
                    .map(|v| v.trim().parse().expect("--sizes takes positive integers"))
                    .collect();
                assert!(!args.sizes.is_empty(), "--sizes must name at least one size");
                saw_sizes = true;
            }
            "--seed" => args.seed = it.next().and_then(|v| v.parse().ok()).expect("--seed S"),
            "--shard-target" => {
                args.shard_target = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&t| t > 0)
                    .expect("--shard-target T");
            }
            "--duration-ms" => {
                args.duration_ms = it.next().and_then(|v| v.parse().ok()).expect("--duration-ms D");
                saw_duration = true;
            }
            "--out" => {
                args.out = it.next().expect("--out PATH");
                saw_out = true;
            }
            "--smoke" => args.smoke = true,
            "--help" | "-h" => {
                println!("see the module docs at the top of bench_scale.rs for usage");
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}"),
        }
    }
    if args.smoke {
        if !saw_sizes {
            args.sizes = vec![400];
        }
        if !saw_duration {
            args.duration_ms = 150;
        }
        if !saw_out {
            args.out = "target/bench_scale_smoke.json".to_string();
        }
    }
    args
}

struct SizeResult {
    vertices: usize,
    shards: usize,
    cut_edges: usize,
    frontier_vertices: usize,
    fmi_roundtrip_s: f64,
    build_s: f64,
    projected_single_s: f64,
    speedup_vs_projected: f64,
    bytes_total: u64,
    /// Sum of the shards' compressed (delta+varint) entry regions, as
    /// stored on disk.
    entry_bytes: u64,
    /// On-disk size of the frontier-distance tier (exact cross-shard
    /// routing artifact), reported separately from the shard indexes.
    frontier_bytes: u64,
    /// Build wall time split: the per-shard index loop vs. the frontier
    /// tier SSSP batch (`build_s` is their sum plus partitioning).
    shard_build_s: f64,
    frontier_build_s: f64,
    /// Pool readahead payoff across build, engine bring-up (the cold
    /// frontier-graph tier scan — the sequential-read case the tier's
    /// readahead window targets), and warm-up. The measured query window
    /// itself runs from warm caches and adds ~nothing.
    prefetch_hits: u64,
    shard_bytes: Vec<u64>,
    engine_s: f64,
    queries: usize,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    complete_fraction: f64,
}

/// The fixed workload constants shared by every size.
#[derive(Clone, Copy)]
struct Workload {
    grid_exponent: u32,
    cache_fraction: f64,
    k: usize,
    density: f64,
}

/// One full pipeline run at `n` vertices. `base` is the measured
/// monolithic build `(n₀, seconds)` used for the quadratic projection.
fn run_size(
    n: usize,
    args: &Args,
    dir: &std::path::Path,
    base: (usize, f64),
    w: Workload,
) -> SizeResult {
    eprintln!("# --- n = {n} ---");
    let generated = road_network(&RoadConfig {
        vertices: n,
        edge_factor: 1.25,
        detour: 0.2,
        extent: 1000.0,
        seed: args.seed,
    });

    // Round-trip through the FMI-style text format: the same path a real
    // dataset would enter through, and a live check that the reader
    // scales past toy inputs.
    let t = Instant::now();
    let fmi_path = dir.join(format!("scale-{n}.fmi"));
    let mut writer = std::io::BufWriter::new(std::fs::File::create(&fmi_path).expect("create fmi"));
    write_fmi(&generated, &mut writer).expect("write fmi");
    std::io::Write::flush(&mut writer).expect("flush fmi");
    drop(writer);
    let mut reader = std::io::BufReader::new(std::fs::File::open(&fmi_path).expect("open fmi"));
    let network = Arc::new(read_fmi(&mut reader).expect("read fmi"));
    let fmi_roundtrip_s = t.elapsed().as_secs_f64();
    std::fs::remove_file(&fmi_path).ok();
    assert_eq!(network.vertex_count(), generated.vertex_count(), "fmi round-trip lost vertices");
    assert_eq!(network.edge_count(), generated.edge_count(), "fmi round-trip lost edges");
    drop(generated);

    let shards = n.div_ceil(args.shard_target).clamp(2, 1024);
    let cfg = PartitionedBuildConfig {
        partition: PartitionConfig { shards, ..Default::default() },
        grid_exponent: w.grid_exponent,
        threads: 0,
        cache_fraction: w.cache_fraction,
    };
    let t = Instant::now();
    let idx_dir = dir.join(format!("scale-{n}"));
    let index = Arc::new(
        PartitionedSilcIndex::build_in_dir(Arc::clone(&network), &idx_dir, &cfg)
            .expect("partitioned build"),
    );
    let build_s = t.elapsed().as_secs_f64();
    let (base_n, base_s) = base;
    let ratio = n as f64 / base_n as f64;
    let projected_single_s = base_s * ratio * ratio;
    let part = index.partition();
    // Bytes-on-disk of the compressed entry regions.
    let entry_bytes: u64 =
        (0..index.shard_count()).map(|s| index.shard_index(s).entry_region_bytes()).sum();
    let timings = index.build_timings().expect("fresh build records timings");
    eprintln!(
        "# built {} shards in {build_s:.2}s (shard loop {:.2}s + frontier tier {:.2}s; \
         {} cut edges, {} bytes + {} tier bytes, entry regions {} B); \
         projected single-index build {projected_single_s:.1}s",
        part.shard_count(),
        timings.shards_s,
        timings.frontier_s,
        part.cut_edges().len(),
        index.total_bytes(),
        index.frontier_bytes(),
        entry_bytes,
    );

    let objects = Arc::new(ObjectSet::random(&network, w.density, args.seed ^ 0xBA5E));
    let k = w.k.min(objects.len());
    let t = Instant::now();
    let engine = PartitionedEngine::new(Arc::clone(&index), objects);
    let engine_s = t.elapsed().as_secs_f64();

    // Closed-loop routed kNN, single worker: the question here is
    // per-query cost at scale, not concurrency.
    let nv = network.vertex_count() as u64;
    let mut session = engine.session();
    for i in 0..32u64 {
        let _ = session.knn(VertexId(((i * 131 + 17) % nv) as u32), k);
    }
    let prefetch_hits = index.io_stats().prefetch_hits;
    index.reset_io_stats();
    let duration = Duration::from_millis(args.duration_ms);
    let start = Instant::now();
    let mut latencies_us: Vec<f64> = Vec::with_capacity(1 << 14);
    let mut complete = 0usize;
    let mut i = 0u64;
    while start.elapsed() < duration {
        let q = VertexId((i.wrapping_mul(6364136223846793005).wrapping_add(7) % nv) as u32);
        let t = Instant::now();
        let r = session.knn(q, k);
        let us = t.elapsed().as_secs_f64() * 1e6;
        assert_eq!(r.neighbors.len(), k, "short result mid-benchmark");
        complete += r.complete as usize;
        latencies_us.push(us);
        i += 1;
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    latencies_us.sort_by(f64::total_cmp);

    let res = SizeResult {
        vertices: n,
        shards: part.shard_count(),
        cut_edges: part.cut_edges().len(),
        frontier_vertices: engine.frontier_len(),
        fmi_roundtrip_s,
        build_s,
        projected_single_s,
        speedup_vs_projected: projected_single_s / build_s,
        bytes_total: index.total_bytes(),
        entry_bytes,
        frontier_bytes: index.frontier_bytes(),
        shard_build_s: timings.shards_s,
        frontier_build_s: timings.frontier_s,
        prefetch_hits,
        shard_bytes: index.shard_bytes().to_vec(),
        engine_s,
        queries: latencies_us.len(),
        qps: latencies_us.len() as f64 / elapsed_s,
        p50_us: percentile(&latencies_us, 50.0),
        p99_us: percentile(&latencies_us, 99.0),
        complete_fraction: complete as f64 / latencies_us.len().max(1) as f64,
    };
    eprintln!(
        "# n {}: {:.0} QPS, p50 {:.1}µs, p99 {:.1}µs, complete {:.3}, \
         prefetch hits {}, speedup {:.1}x",
        n,
        res.qps,
        res.p50_us,
        res.p99_us,
        res.complete_fraction,
        res.prefetch_hits,
        res.speedup_vs_projected
    );
    if args.smoke {
        assert!(
            engine.exact_routing(),
            "smoke: fault-free build must come up in exact routing mode"
        );
        assert_eq!(
            res.complete_fraction, 1.0,
            "smoke: exact routing must certify every fault-free query"
        );
    }
    std::fs::remove_dir_all(&idx_dir).ok();
    res
}

fn main() {
    let args = parse_args();
    let grid_exponent = 11u32;
    let (k, density, cache_fraction) = (10usize, 0.07f64, 0.05f64);
    eprintln!(
        "# bench scale: sizes {:?}, seed {}, shard target {}, {} ms windows",
        args.sizes, args.seed, args.shard_target, args.duration_ms
    );
    let dir = std::env::temp_dir().join("silc-bench-scale");
    std::fs::create_dir_all(&dir).expect("create scratch directory");

    // Monolithic base: one real single-index build at the smallest size,
    // from which every larger size's quadratic projection extrapolates.
    let base_n = *args.sizes.iter().min().expect("at least one size");
    let base_network = Arc::new(road_network(&RoadConfig {
        vertices: base_n,
        edge_factor: 1.25,
        detour: 0.2,
        extent: 1000.0,
        seed: args.seed,
    }));
    let t = Instant::now();
    let base_index =
        SilcIndex::build(Arc::clone(&base_network), &BuildConfig { grid_exponent, threads: 0 })
            .expect("monolithic base build");
    let base_build_s = t.elapsed().as_secs_f64();
    drop(base_index);
    drop(base_network);
    eprintln!("# monolithic base: n = {base_n} built in {base_build_s:.2}s");

    let workload = Workload { grid_exponent, cache_fraction, k, density };
    let results: Vec<SizeResult> = args
        .sizes
        .iter()
        .map(|&n| run_size(n, &args, &dir, (base_n, base_build_s), workload))
        .collect();

    // Hand-assembled JSON (the serde shims are no-op derives); flat fields
    // plus one object per size so re-recorded files diff line by line.
    let host_threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let mut json = format!(
        "{{\n  \"seed\": {},\n  \"shard_target\": {},\n  \"grid_exponent\": {},\n  \
         \"cache_fraction\": {},\n  \"knn_k\": {},\n  \"knn_density\": {},\n  \
         \"duration_ms\": {},\n  \"host_threads\": {},\n  \"base_vertices\": {},\n  \
         \"base_build_s\": {:.4},\n  \"sizes\": [\n",
        args.seed,
        args.shard_target,
        grid_exponent,
        cache_fraction,
        k,
        density,
        args.duration_ms,
        host_threads,
        base_n,
        base_build_s,
    );
    for (i, r) in results.iter().enumerate() {
        let shard_bytes =
            r.shard_bytes.iter().map(|b| b.to_string()).collect::<Vec<_>>().join(", ");
        json.push_str(&format!(
            "    {{\"vertices\": {}, \"shards\": {}, \"cut_edges\": {}, \
             \"frontier_vertices\": {}, \"fmi_roundtrip_s\": {:.4}, \"build_s\": {:.4}, \
             \"projected_single_s\": {:.4}, \"speedup_vs_projected\": {:.2}, \
             \"bytes_total\": {}, \"entry_bytes\": {}, \
             \"frontier_bytes\": {}, \"shard_build_s\": {:.4}, \"frontier_build_s\": {:.4}, \
             \"prefetch_hits\": {}, \
             \"engine_s\": {:.4}, \"queries\": {}, \"qps\": {:.1}, \
             \"p50_us\": {:.3}, \"p99_us\": {:.3}, \"complete_fraction\": {:.4},\n     \
             \"shard_bytes\": [{}]}}{}\n",
            r.vertices,
            r.shards,
            r.cut_edges,
            r.frontier_vertices,
            r.fmi_roundtrip_s,
            r.build_s,
            r.projected_single_s,
            r.speedup_vs_projected,
            r.bytes_total,
            r.entry_bytes,
            r.frontier_bytes,
            r.shard_build_s,
            r.frontier_build_s,
            r.prefetch_hits,
            r.engine_s,
            r.queries,
            r.qps,
            r.p50_us,
            r.p99_us,
            r.complete_fraction,
            shard_bytes,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");

    if let Some(parent) = std::path::Path::new(&args.out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
    }
    std::fs::write(&args.out, &json).expect("write scale file");
    println!("{json}");
    eprintln!("# wrote {}", args.out);
}
