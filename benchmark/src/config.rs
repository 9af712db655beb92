//! Frozen constants. Two commits are comparable only if every number here
//! is the same on both; none of them is re-derived at run time. Why each
//! value was chosen is recorded in `README.md` § Frozen constants.

/// Neighbours per query (the paper's and every `BENCH_*` recorder's `k`).
pub const K: usize = 10;
/// Objects per vertex.
pub const DENSITY: f64 = 0.07;
/// Grid exponent of every index built here.
pub const GRID_EXPONENT: u32 = 11;
/// Bucket size of the object PR quadtree (what `ObjectSet::random` uses).
pub const OBJECT_BUCKET: usize = 8;

/// `local_cold`: pool fraction and decoded-entry cache, both far below the
/// query working set.
pub const COLD_POOL_FRACTION: f64 = 0.02;
pub const COLD_ENTRY_CACHE: usize = 32;
/// Queries that bring the cold caches to their steady state before timing.
pub const COLD_WARMUP_QUERIES: usize = 1000;
/// `routed_100k`: the paper's 5 % pool on every shard and on the tier.
pub const ROUTED_CACHE_FRACTION: f64 = 0.05;
pub const SHARD_TARGET: usize = 1000;
pub const ROUTED_WARMUP_QUERIES: usize = 2000;

/// Every `SAMPLE_EVERY`-th answer is kept and checked after the window.
pub const SAMPLE_EVERY: usize = 64;
/// Rounds (set up, warm up, measure `--seconds / ROUNDS`) per untraced run;
/// every end-to-end metric is the median round's.
pub const ROUNDS: usize = 3;

/// Traced windows record the spans beneath the root only for every
/// `DETAIL_EVERY`-th block of `BATCH` requests (see `trace.rs`).
pub const DETAIL_EVERY: usize = 8;
/// Span slots preallocated per detailed query: about twice what the
/// busiest workload records (≈ 520 lookups plus their store reads).
pub const SPANS_PER_DETAILED_QUERY: usize = 1200;

/// Whether query number `i` of a traced window is a detailed one. Blocks of
/// `BATCH`, so that `served_warm` — whose requests are batches — details
/// exactly the queries the local workloads do.
pub fn is_detailed(i: usize) -> bool {
    (i / BATCH).is_multiple_of(DETAIL_EVERY)
}

/// `served_warm`: bodies per closed-loop `BATCH`.
pub const BATCH: usize = 32;
/// Share of the measured window spent in the closed-loop phase A; the rest
/// is the open-loop phase B.
pub const PHASE_A_SHARE: f64 = 0.3;
/// The frozen offered-load ladder (queries/s) and the rung phase B runs at.
pub const LADDER_QPS: [u32; 6] = [100, 200, 400, 800, 1600, 3200];
pub const REFERENCE_RATE_QPS: u32 = 800;
/// A rung passes when its p99 stays at or under this, nothing failed, and
/// the last reply came within `DRAIN_LIMIT_S` of the last send.
pub const LATENCY_LIMIT_US: f64 = 10_000.0;
pub const DRAIN_LIMIT_S: f64 = 1.0;

/// Seed of the one road network every run uses (and the default `--seed`).
pub const NETWORK_SEED: u64 = 2008;

/// Sizes that differ between the full benchmark and `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Vertices of the monolithic index (`local_*`, `served_warm`).
    pub n_mono: usize,
    /// Vertices of the partitioned index (`routed_100k`).
    pub n_routed: usize,
    /// Queries in a traced window: the first this-many of the stream.
    pub traced_queries: usize,
    /// Most answers checked against brute force per window.
    pub max_checks_mono: usize,
    pub max_checks_routed: usize,
    /// Sources of the `network.sssp_us` probe.
    pub sssp_sources: usize,
    /// Seconds per ladder rung, stretched at the low rates until the rung
    /// expects `rung_min_arrivals` (p99 needs ten samples beyond it).
    pub rung_seconds: f64,
    pub rung_min_arrivals: f64,
    /// Fingerprints of the frozen networks.
    pub fingerprint_mono: u64,
    pub fingerprint_routed: u64,
}

impl Scale {
    pub const FULL: Scale = Scale {
        n_mono: 8000,
        n_routed: 100_000,
        traced_queries: 8192,
        max_checks_mono: 512,
        max_checks_routed: 200,
        sssp_sources: 200,
        rung_seconds: 5.0,
        rung_min_arrivals: 1100.0,
        fingerprint_mono: 0xEADA_5DC5_39CD_C921,
        fingerprint_routed: 0xCEC5_64CF_7844_651B,
    };

    pub const SMOKE: Scale = Scale {
        n_mono: 400,
        n_routed: 4000,
        traced_queries: 1024,
        max_checks_mono: 64,
        max_checks_routed: 64,
        sssp_sources: 20,
        rung_seconds: 0.5,
        rung_min_arrivals: 0.0,
        fingerprint_mono: 0x26BB_9D46_7D2E_F616,
        fingerprint_routed: 0x435F_8DFA_1228_B9A5,
    };
}
