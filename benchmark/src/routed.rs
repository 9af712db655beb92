//! `routed_100k`: partitioned build (≈100 shards + the `SILCFDT1` frontier
//! tier), then `PartitionedSession::knn` in a closed loop. The write path
//! dominates its set-up; the router and the tier rows do its query work.

use crate::check::{count_differing, count_wrong, Sample, Sampler};
use crate::config::*;
use crate::inputs::{self, QueryStream};
use crate::local::{finish_traced, report_read_path};
use crate::report::{peak_rss_mib, Metrics, RunResult};
use crate::setup::WorkDir;
use crate::trace::{Breakdown, Layer, TracedStore, Tracer};
use crate::window::{closed_loop, finish, replay, Round};
use crate::Args;
use silc::partitioned::{PartitionedBuildConfig, PartitionedSilcIndex};
use silc_network::partition::PartitionConfig;
use silc_network::{partition_network, SpatialNetwork, VertexId};
use silc_query::{ObjectSet, PartitionedEngine, PartitionedKnnResult, PartitionedSession};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

fn build_config(n: usize) -> PartitionedBuildConfig {
    PartitionedBuildConfig {
        partition: PartitionConfig {
            shards: n.div_ceil(SHARD_TARGET).clamp(2, 1024),
            ..PartitionConfig::default()
        },
        grid_exponent: GRID_EXPONENT,
        threads: 0,
        cache_fraction: ROUTED_CACHE_FRACTION,
    }
}

struct Routed {
    network: Arc<SpatialNetwork>,
    objects: Arc<ObjectSet>,
    index: Arc<PartitionedSilcIndex>,
    generate_s: f64,
}

impl Routed {
    fn setup(scale: &Scale, dir: &Path) -> Routed {
        let n = scale.n_routed;
        let t = Instant::now();
        let network = Arc::new(inputs::frozen_network(n, scale.fingerprint_routed));
        let objects = Arc::new(inputs::frozen_objects(&network));
        let generate_s = t.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(dir);
        let index = Arc::new(
            PartitionedSilcIndex::build_in_dir(network.clone(), dir, &build_config(n))
                .expect("partitioned build of a generated road network"),
        );
        Routed { network, objects, index, generate_s }
    }

    fn index_bytes(&self) -> u64 {
        self.index.total_bytes() + self.index.frontier_bytes()
    }
}

fn fill_from_routed(slot: &mut Sample, q: VertexId, r: &PartitionedKnnResult) {
    slot.fill(
        q,
        r.complete,
        r.neighbors.iter().map(|n| (n.object.0, n.interval.lo, n.interval.hi)),
    );
}

fn warm_up(session: &mut PartitionedSession, n: usize) {
    for i in 0..ROUTED_WARMUP_QUERIES {
        session.knn(VertexId(((i * 7919) % n) as u32), K);
    }
}

pub fn run_untraced(args: &Args) -> RunResult {
    let n = args.scale.n_routed;
    let work = WorkDir::new(&args.workload);
    let dir = work.path().join("shards");
    let mut stream = QueryStream::new(args.seed, n);
    let mut rounds = Vec::new();
    for _ in 0..args.rounds {
        // The engine (per-shard object sets, frontier graph) must exist
        // before the first query, so it is part of set-up.
        let t = Instant::now();
        let routed = Routed::setup(&args.scale, &dir);
        let engine = PartitionedEngine::new(routed.index.clone(), routed.objects.clone());
        let mut session = engine.session();
        let setup_s = t.elapsed().as_secs_f64();
        warm_up(&mut session, n);

        let mut sampler = Sampler::new(args.scale.max_checks_routed / args.rounds);
        let mut uncertified = 0u64;
        let timing =
            closed_loop(args.seconds / args.rounds as f64, &mut stream, &mut sampler, |q, slot| {
                let r = session.knn(q, K);
                let done = Instant::now();
                uncertified += u64::from(!r.complete);
                if let Some(slot) = slot {
                    fill_from_routed(slot, q, r);
                }
                done
            });
        let wrong = count_wrong(&routed.network, &routed.objects, sampler.samples()) as u64;
        eprintln!(
            "# {} shards; {} answers checked against brute force: {wrong} wrong; \
             {uncertified} uncertified",
            routed.index.shard_count(),
            sampler.samples().len()
        );
        rounds.push(Round {
            setup_s,
            peak_rss_mib: peak_rss_mib(),
            timing,
            attempted: timing.samples as u64,
            // A sampled uncertified answer is also a wrong one; count it once.
            failed: wrong.max(uncertified),
        });
    }
    finish(&args.workload, &rounds, args.smoke)
}

pub fn run_traced(args: &Args) -> RunResult {
    let n = args.scale.n_routed;
    let work = WorkDir::new(&args.workload);
    let dir = work.path().join("shards");
    let routed = Routed::setup(&args.scale, &dir);
    let timings = routed.index.build_timings().expect("a fresh build records its timings");
    let cfg = build_config(n);

    // The partitioner runs inside the build; time the same call on its own.
    let t = Instant::now();
    let shards = partition_network(&routed.network, &cfg.partition)
        .expect("partition a connected network")
        .shard_count();
    let partition_s = t.elapsed().as_secs_f64();
    assert_eq!(shards, routed.index.shard_count());

    let queries = QueryStream::prefix(args.seed, n, args.scale.traced_queries);
    let count = queries.len();
    let (tracer, detailed) = Tracer::for_window(count);
    let t = Instant::now();
    let traced_index = Arc::new(
        PartitionedSilcIndex::open_dir_with(routed.network.clone(), &dir, &cfg, |_, store| {
            Box::new(TracedStore::new(store, tracer.clone()))
        })
        .expect("reopen the index directory through traced stores"),
    );
    let open_s = t.elapsed().as_secs_f64();

    let mut plain = PartitionedEngine::new(routed.index.clone(), routed.objects.clone()).session();
    let mut traced = PartitionedEngine::new(traced_index.clone(), routed.objects.clone()).session();
    warm_up(&mut plain, n);
    warm_up(&mut traced, n);

    let mut plain_samples = Sampler::new(count / SAMPLE_EVERY + 1);
    let (plain_s, _) = replay(&queries, |i, q| {
        let r = plain.knn(q, K);
        if let Some(slot) = plain_samples.slot(i) {
            fill_from_routed(slot, q, r);
        }
    });

    traced_index.reset_io_stats();
    let tier = traced_index.frontier_tier().expect("a fresh directory has its tier").clone();
    let mut traced_samples = Sampler::new(count / SAMPLE_EVERY + 1);
    let (mut expanded, mut dijkstras, mut candidates, mut pruned, mut complete) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    tracer.set_enabled(true);
    let (traced_s, _) = replay(&queries, |i, q| {
        let root = tracer.root(Layer::Query, i as u32, 0, is_detailed(i));
        let r = traced.knn(q, K);
        drop(root);
        expanded += r.stats.shards_expanded as u64;
        dijkstras += u64::from(r.stats.frontier_dijkstra);
        candidates += r.stats.candidates as u64;
        pruned += r.stats.pruned as u64;
        complete += u64::from(r.complete);
        if let Some(slot) = traced_samples.slot(i) {
            fill_from_routed(slot, q, r);
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

    let per = |v: u64| v as f64 / count as f64;
    let mut metrics = Metrics::default();
    // No browser seam here (the router holds its shard indexes itself), so
    // the root's self time is router + shard lookups + pool; only physical
    // reads are split off.
    metrics.set("query.router_self_us_per_query", b.self_us(Layer::Query) / detailed as f64);
    metrics.set("query.shards_expanded_per_query", per(expanded));
    metrics.set("query.frontier_dijkstra_share", per(dijkstras));
    metrics.set("query.candidates_per_query", per(candidates));
    metrics.set(
        "query.pruned_share",
        if candidates == 0 { 0.0 } else { pruned as f64 / candidates as f64 },
    );
    metrics.set("query.complete_share", per(complete));
    let tier_io = tier.io_stats();
    metrics.set("core.tier_pages_per_query", per(tier_io.requests()));
    let (mut hits, mut lookups) = (0u64, 0u64);
    for s in 0..traced_index.shard_count() {
        let cache = traced_index.shard_index(s).entry_cache_stats();
        hits += cache.hits;
        lookups += cache.requests();
    }
    // Pool and store figures cover every shard and the tier.
    report_read_path(
        &mut metrics,
        &b,
        traced_index.io_stats(),
        hits as f64 / lookups.max(1) as f64,
        count,
        detailed,
    );
    metrics.set("network.generate_s", routed.generate_s);
    metrics.set("network.partition_s", partition_s);
    metrics.set("core.shard_build_s", timings.shards_s);
    metrics.set("core.frontier_build_s", timings.frontier_s);
    metrics.set("core.open_s", open_s);
    metrics.set("core.index_bytes_per_vertex", routed.index_bytes() as f64 / n as f64);
    let trusted = finish_traced(&mut metrics, args, None, &tracer, &spans, &b, (plain_s, traced_s));
    RunResult {
        correct: trusted && differing == 0 && complete == count as u64,
        attempted: count as u64,
        failed: differing.max(count as u64 - complete),
        metrics,
    }
}
