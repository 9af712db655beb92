//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p silc-bench --release --bin figures -- [EXPERIMENT] [FLAGS]
//!
//! EXPERIMENT (default: all)
//!   table1            Table p.11  — precomputation trade-offs
//!   dijkstra-visits   pp.3/7      — Dijkstra visit-count anecdote
//!   storage-scaling   Figure p.16 — Morton blocks vs n, slope ≈ 1.5
//!   exec-vs-s         Figure p.33a — execution time, density sweep
//!   exec-vs-k         Figure p.33b — execution time, k sweep
//!   queue-size        Figure p.34 — max |Q| as % of INN
//!   refinements       Figure p.35 — refinements as % of INN
//!   kmindist-pruning  Figure p.36 — % neighbors pruned via KMINDIST
//!   estimate-quality  Figure p.37 — D0k / KMINDIST vs Dk
//!   io-time           Figure p.38 — total vs I/O time, disk index
//!   ablation-mbr      A1          — MBR storage vs quadtree
//!   ablation-lambda   A2          — per-block λ bounds vs global ratio
//!   pcp               X1          — PCP distance-oracle trade-off
//!   all               everything above
//!
//! FLAGS
//!   --vertices N   network size for the query sweeps   (default 4000)
//!   --trials T     object sets per data point          (default 6)
//!   --queries Q    query vertices per trial            (default 8)
//!   --seed S       master RNG seed                     (default 2008)
//!   --full         paper-scale settings: 50 trials, larger networks
//! ```
//!
//! `storage-scaling` builds its own networks: 500–8 000 vertices by
//! default, 1 000–32 000 with `--full`, and with `--vertices N` (without
//! `--full`) sizes doubling up to N, so a small smoke run stays small.

use silc_bench::experiments::{ablation, io_time, pcp, precompute, sweep};
use silc_bench::{StandardWorkload, WorkloadConfig};
use std::time::Instant;

#[derive(Debug, Clone)]
struct Args {
    experiment: String,
    vertices: usize,
    trials: u64,
    queries: usize,
    seed: u64,
    full: bool,
    /// Whether `--vertices` was given (it then also sizes
    /// `storage-scaling`).
    saw_vertices: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        experiment: "all".to_string(),
        vertices: 4000,
        trials: 6,
        queries: 8,
        seed: 2008,
        full: false,
        saw_vertices: false,
    };
    let mut it = std::env::args().skip(1);
    let mut saw_trials = false;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--vertices" => {
                args.vertices = it.next().and_then(|v| v.parse().ok()).expect("--vertices N");
                args.saw_vertices = true;
            }
            "--trials" => {
                args.trials = it.next().and_then(|v| v.parse().ok()).expect("--trials T");
                saw_trials = true;
            }
            "--queries" => {
                args.queries = it.next().and_then(|v| v.parse().ok()).expect("--queries Q")
            }
            "--seed" => args.seed = it.next().and_then(|v| v.parse().ok()).expect("--seed S"),
            "--full" => args.full = true,
            "--help" | "-h" => {
                println!("see the module docs at the top of figures.rs for usage");
                std::process::exit(0);
            }
            other if !other.starts_with('-') => args.experiment = other.to_string(),
            other => panic!("unknown flag {other}"),
        }
    }
    if args.full {
        // Paper-scale settings (still tractable on one core).
        if !args.saw_vertices {
            args.vertices = 8000;
        }
        if !saw_trials {
            args.trials = 50;
        }
    }
    args
}

/// Network sizes for `storage-scaling`: the paper-scale list with
/// `--full`; with `--vertices N`, sizes doubling up to N (up to 200 when
/// N is smaller, so there are at least three, none below 50 vertices);
/// otherwise the default list.
fn storage_scaling_sizes(args: &Args) -> Vec<usize> {
    if args.full {
        return vec![1000, 2000, 4000, 8000, 16000, 32000];
    }
    if !args.saw_vertices {
        return vec![500, 1000, 2000, 4000, 8000];
    }
    let top = args.vertices.max(200);
    let mut sizes: Vec<usize> =
        std::iter::successors(Some(top), |&n| Some(n / 2)).take_while(|&n| n >= 50).collect();
    sizes.reverse();
    sizes
}

fn main() {
    let args = parse_args();
    let started = Instant::now();
    println!(
        "# SILC figure harness — experiment: {} (vertices {}, trials {}, queries {}, seed {})",
        args.experiment, args.vertices, args.trials, args.queries, args.seed
    );

    let wants = |name: &str| args.experiment == "all" || args.experiment == name;
    let sweep_cfg =
        sweep::SweepConfig { trials: args.trials, queries: args.queries, ..Default::default() };

    // Precomputation-side experiments (build their own networks).
    if wants("table1") {
        precompute::table1(if args.full { 1000 } else { 400 }, args.seed).print();
    }
    if wants("dijkstra-visits") {
        precompute::dijkstra_visits(4233, args.seed).print();
    }
    if wants("storage-scaling") {
        precompute::storage_scaling(&storage_scaling_sizes(&args), 12, args.seed).print();
    }
    if wants("pcp") {
        let seps: &[f64] = if args.full { &[2.0, 4.0, 8.0, 16.0] } else { &[2.0, 4.0, 8.0] };
        pcp::pcp_tradeoff(if args.full { 1000 } else { 400 }, seps, args.seed).print();
    }

    // Query-side experiments share one workload (network + SILC index).
    let needs_workload = [
        "exec-vs-s",
        "exec-vs-k",
        "queue-size",
        "refinements",
        "kmindist-pruning",
        "estimate-quality",
        "io-time",
        "ablation-mbr",
        "ablation-lambda",
    ]
    .iter()
    .any(|e| wants(e));
    if needs_workload {
        eprintln!("# building workload: n = {} …", args.vertices);
        let t = Instant::now();
        let w = StandardWorkload::build(WorkloadConfig {
            vertices: args.vertices,
            seed: args.seed,
            ..Default::default()
        });
        eprintln!(
            "# workload ready in {:.1}s ({} Morton blocks, {:.1} blocks/vertex)",
            t.elapsed().as_secs_f64(),
            w.index.stats().total_blocks,
            w.index.stats().total_blocks as f64 / args.vertices as f64
        );

        let needs_s_sweep =
            ["exec-vs-s", "queue-size", "refinements", "kmindist-pruning", "estimate-quality"]
                .iter()
                .any(|e| wants(e));
        let needs_k_sweep = needs_s_sweep || wants("exec-vs-k");
        let s_data = needs_s_sweep.then(|| sweep::sweep_density(&w, &sweep_cfg));
        let k_data = needs_k_sweep.then(|| sweep::sweep_k(&w, &sweep_cfg));

        if let Some(data) = &s_data {
            if wants("exec-vs-s") {
                sweep::view_exec_time(data, "a").print();
            }
        }
        if let Some(data) = &k_data {
            if wants("exec-vs-k") {
                sweep::view_exec_time(data, "b").print();
            }
        }
        for (label, data) in [("S", &s_data), ("k", &k_data)] {
            let Some(data) = data else { continue };
            let _ = label;
            if wants("queue-size") {
                sweep::view_queue_size(data).print();
            }
            if wants("refinements") {
                sweep::view_refinements(data).print();
            }
            if wants("kmindist-pruning") {
                sweep::view_kmindist_pruning(data).print();
            }
            if wants("estimate-quality") {
                sweep::view_estimate_quality(data).print();
            }
        }

        if wants("io-time") {
            io_time::io_sweep(
                &w,
                "S",
                &[0.001, 0.01, 0.05, 0.2],
                10,
                0.07,
                args.trials.min(4),
                args.queries.min(6),
                0.05,
            )
            .print();
            io_time::io_sweep(
                &w,
                "k",
                &[5.0, 10.0, 50.0, 100.0, 300.0],
                10,
                0.07,
                args.trials.min(4),
                args.queries.min(6),
                0.05,
            )
            .print();
        }
        if wants("ablation-mbr") {
            ablation::ablation_mbr(&w, 40).print();
        }
        if wants("ablation-lambda") {
            ablation::ablation_lambda(&w, 0.07, 10, args.trials, args.queries).print();
        }
    }

    println!("\n# done in {:.1}s", started.elapsed().as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(vertices: Option<usize>, full: bool) -> Args {
        Args {
            experiment: "storage-scaling".to_string(),
            vertices: vertices.unwrap_or(4000),
            trials: 1,
            queries: 1,
            seed: 1,
            full,
            saw_vertices: vertices.is_some(),
        }
    }

    #[test]
    fn storage_scaling_follows_the_vertices_flag() {
        assert_eq!(storage_scaling_sizes(&args(None, false)), [500, 1000, 2000, 4000, 8000]);
        let full = [1000, 2000, 4000, 8000, 16000, 32000];
        assert_eq!(storage_scaling_sizes(&args(None, true)), full);
        assert_eq!(storage_scaling_sizes(&args(Some(300), true)), full);
        assert_eq!(storage_scaling_sizes(&args(Some(300), false)), [75, 150, 300]);
        assert_eq!(storage_scaling_sizes(&args(Some(10), false)), [50, 100, 200]);
        for n in [1, 120, 199, 200, 201, 999, 4000] {
            let sizes = storage_scaling_sizes(&args(Some(n), false));
            assert!(sizes.len() >= 3 && sizes[0] >= 50, "{n}: {sizes:?}");
            assert!(sizes.windows(2).all(|w| w[1] == 2 * w[0] || w[1] == 2 * w[0] + 1));
            assert_eq!(*sizes.last().unwrap(), n.max(200));
        }
    }
}
