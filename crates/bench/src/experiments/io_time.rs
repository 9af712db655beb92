//! Figure p.38: total execution time vs I/O time of the SILC algorithms
//! against the disk-resident index (LRU cache = 5 % of pages).

use crate::experiments::Report;
use crate::stats::mean;
use crate::workloads::StandardWorkload;
use silc::{disk, DiskSilcIndex};
use silc_network::paged::{write_paged, PagedNetwork};
use silc_query::{ier_disk, ine_disk, inn, knn, KnnVariant};
use std::collections::BTreeMap;
use std::time::Instant;

const ALGOS: [&str; 6] = ["INE", "IER", "INN", "KNN", "KNN-I", "KNN-M"];

#[derive(Debug, Default, Clone)]
struct Point {
    total_ms: BTreeMap<&'static str, Vec<f64>>,
    io_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Upserts and removals on kNN's candidate list `L`.
    l_ops: BTreeMap<&'static str, Vec<f64>>,
}

/// Runs the disk-resident sweep; `xs` are either densities (axis "S") or
/// k values (axis "k").
#[allow(clippy::too_many_arguments)] // experiment parameterization mirrors the paper's knobs
pub fn io_sweep(
    w: &StandardWorkload,
    axis: &'static str,
    xs: &[f64],
    fixed_k: usize,
    fixed_density: f64,
    trials: u64,
    queries: usize,
    cache_fraction: f64,
) -> Report {
    // Serialize the index and the network into real page files: SILC reads
    // quadtree pages, the baselines read network-adjacency pages, both
    // through LRU pools of the same relative size.
    let dir = std::env::temp_dir().join("silc-bench-io");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(format!("io-{}-{}.idx", w.config.vertices, w.config.seed));
    disk::write_index(&w.index, &path).expect("serialize index");
    let disk_index =
        DiskSilcIndex::open(&path, w.network.clone(), cache_fraction).expect("open index");
    let net_path = dir.join(format!("io-{}-{}.pnet", w.config.vertices, w.config.seed));
    write_paged(&w.network, &net_path).expect("serialize network");
    let paged_net = PagedNetwork::open(&net_path, cache_fraction).expect("open paged network");
    let min_ratio = w.network.min_weight_ratio();

    let mut points: Vec<(f64, Point)> = Vec::new();
    for &x in xs {
        let (density, k) = match axis {
            "S" => (x, fixed_k),
            _ => (fixed_density, x as usize),
        };
        let mut point = Point::default();
        for trial in 0..trials {
            let objects = w.objects(density, trial);
            let k = k.min(objects.len());
            if k == 0 {
                continue;
            }
            for &q in &w.queries(queries, trial) {
                for name in ALGOS {
                    // Cold caches per (query, algorithm) repetition so every
                    // algorithm faces the same disk state.
                    disk_index.clear_cache();
                    disk_index.reset_io_stats();
                    paged_net.clear_cache();
                    paged_net.reset_io_stats();
                    let t = Instant::now();
                    let stats = match name {
                        "INE" => ine_disk(&paged_net, &objects, q, k).stats,
                        "IER" => ier_disk(&paged_net, &objects, q, k, min_ratio).stats,
                        "INN" => inn(&disk_index, &objects, q, k).stats,
                        "KNN" => knn(&disk_index, &objects, q, k, KnnVariant::Basic).stats,
                        "KNN-I" => {
                            knn(&disk_index, &objects, q, k, KnnVariant::EarlyEstimate).stats
                        }
                        _ => knn(&disk_index, &objects, q, k, KnnVariant::MinDist).stats,
                    };
                    let total = t.elapsed().as_secs_f64() * 1e3;
                    let io = (disk_index.io_stats().read_seconds()
                        + paged_net.io_stats().read_seconds())
                        * 1e3;
                    point.total_ms.entry(name).or_default().push(total);
                    point.io_ms.entry(name).or_default().push(io);
                    point.l_ops.entry(name).or_default().push(stats.candidate_ops as f64);
                }
            }
        }
        points.push((x, point));
    }

    let mut r = Report::new(format!(
        "Figure p.38: total vs I/O time (ms), disk-resident index, {axis} sweep, cache = {:.0}% of {} pages",
        cache_fraction * 100.0,
        disk_index.page_count()
    ));
    let header: String = ALGOS
        .iter()
        .flat_map(|a| [format!("{a:>10}"), format!("{:>10}", format!("{a}-io"))])
        .collect();
    r.line(format!("{:>10}{}{:>10}", axis, header, "KNN-L ops"));
    for (x, p) in &points {
        let mut cells = String::new();
        for a in ALGOS {
            cells.push_str(&format!(
                "{:>10.3}{:>10.3}",
                mean(p.total_ms.get(a).map(Vec::as_slice).unwrap_or(&[])),
                mean(p.io_ms.get(a).map(Vec::as_slice).unwrap_or(&[])),
            ));
        }
        cells.push_str(&format!(
            "{:>10.1}",
            mean(p.l_ops.get("KNN").map(Vec::as_slice).unwrap_or(&[]))
        ));
        r.line(format!("{x:>10}{cells}"));
    }
    r.line("paper shape: disk-resident INE/IER pay network-page I/O per expansion and".to_string());
    r.line(
        "fall behind SILC; I/O dominates; kNN best at small k; for k > 20 kNN-I/INN".to_string(),
    );
    r.line("win as L & Dk maintenance (KNN-L ops, upserts + removals on L) grows".to_string());
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&net_path).ok();
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WorkloadConfig;

    #[test]
    fn io_sweep_reports_nonzero_io() {
        let w = StandardWorkload::build(WorkloadConfig { vertices: 250, ..Default::default() });
        let r = io_sweep(&w, "S", &[0.1], 3, 0.1, 1, 2, 0.05);
        assert!(r.lines.len() >= 2);
        // The data row must contain strictly positive totals.
        let row = &r.lines[1];
        assert!(row.split_whitespace().skip(1).all(|c| c.parse::<f64>().unwrap() >= 0.0));
    }
}
