//! The shared query sweeps behind figures p.33–p.37.
//!
//! One sweep runs all six algorithms (INE, IER, INN, kNN, kNN-I, kNN-M)
//! over the paper's two parameter axes — object density `S` at `k = 10`,
//! and `k` at `S = 0.07·N` — collecting every statistic the five figures
//! report. Running the sweep once and deriving all views keeps the numbers
//! across figures mutually consistent, exactly like the paper's single
//! experiment run.

use crate::experiments::Report;
use crate::stats::mean;
use crate::workloads::StandardWorkload;
use silc_query::{ier, ine, inn, knn, KnnVariant};
use std::collections::BTreeMap;
use std::time::Instant;

/// The six algorithms of the evaluation, in the paper's order.
pub const ALGORITHMS: [&str; 6] = ["INE", "IER", "INN", "KNN-I", "KNN", "KNN-M"];

/// Aggregated per-algorithm measurements at one sweep point.
#[derive(Debug, Clone, Default)]
pub struct AlgoAggregate {
    pub time_ms: Vec<f64>,
    pub refinements: Vec<f64>,
    pub max_queue: Vec<f64>,
    pub kmindist_pruned_pct: Vec<f64>,
    /// `D⁰k / Dk` in percent (kNN-I, kNN-M).
    pub d0k_pct: Vec<f64>,
    /// `KMINDIST / Dk` in percent (kNN-M).
    pub kmindist_pct: Vec<f64>,
}

/// One point of a sweep (one density or one k).
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The x value (density or k).
    pub x: f64,
    pub algos: BTreeMap<&'static str, AlgoAggregate>,
}

/// A completed sweep.
#[derive(Debug, Clone)]
pub struct SweepData {
    /// "S" for the density sweep, "k" for the k sweep.
    pub axis: &'static str,
    pub points: Vec<SweepPoint>,
}

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Densities for the S sweep (paper: 0.001 … 0.2 at k = 10).
    pub densities: Vec<f64>,
    /// Neighbor counts for the k sweep (paper: 5 … 300 at S = 0.07N).
    pub ks: Vec<usize>,
    /// k used during the density sweep.
    pub fixed_k: usize,
    /// Density used during the k sweep.
    pub fixed_density: f64,
    /// Random object sets per point (paper: ≥ 50).
    pub trials: u64,
    /// Query vertices per trial.
    pub queries: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            densities: vec![0.001, 0.01, 0.05, 0.1, 0.2],
            ks: vec![5, 10, 50, 100, 300],
            fixed_k: 10,
            fixed_density: 0.07,
            trials: 6,
            queries: 8,
        }
    }
}

/// Runs one (density, k) point, measuring all six algorithms.
fn run_point(
    w: &StandardWorkload,
    density: f64,
    k: usize,
    cfg: &SweepConfig,
) -> BTreeMap<&'static str, AlgoAggregate> {
    let mut agg: BTreeMap<&'static str, AlgoAggregate> =
        ALGORITHMS.iter().map(|&a| (a, AlgoAggregate::default())).collect();
    for trial in 0..cfg.trials {
        let objects = w.objects(density, trial);
        let k = k.min(objects.len());
        if k == 0 {
            continue;
        }
        for &q in &w.queries(cfg.queries, trial) {
            // Baselines.
            let t = Instant::now();
            let r = ine(&w.network, &objects, q, k);
            let a = agg.get_mut("INE").unwrap();
            a.time_ms.push(t.elapsed().as_secs_f64() * 1e3);
            a.max_queue.push(r.stats.max_queue as f64);

            let t = Instant::now();
            let r = ier(&w.network, &objects, q, k);
            let a = agg.get_mut("IER").unwrap();
            a.time_ms.push(t.elapsed().as_secs_f64() * 1e3);
            a.max_queue.push(r.stats.max_queue as f64);

            // SILC: incremental.
            let t = Instant::now();
            let r = inn(&w.index, &objects, q, k);
            let a = agg.get_mut("INN").unwrap();
            a.time_ms.push(t.elapsed().as_secs_f64() * 1e3);
            a.refinements.push(r.stats.refinements as f64);
            a.max_queue.push(r.stats.max_queue as f64);

            // SILC: non-incremental and variants.
            for (name, variant) in [
                ("KNN", KnnVariant::Basic),
                ("KNN-I", KnnVariant::EarlyEstimate),
                ("KNN-M", KnnVariant::MinDist),
            ] {
                let t = Instant::now();
                let r = knn(&w.index, &objects, q, k, variant);
                let elapsed = t.elapsed().as_secs_f64() * 1e3;
                let a = agg.get_mut(name).unwrap();
                a.time_ms.push(elapsed);
                a.refinements.push(r.stats.refinements as f64);
                a.max_queue.push(r.stats.max_queue as f64);
                // Estimate quality is measured against the *true* kth
                // distance, recomputed outside the timed section.
                let true_dk = r
                    .neighbors
                    .iter()
                    .map(|n| {
                        silc::path::network_distance(&w.index, q, n.vertex)
                            .expect("index covers network")
                    })
                    .fold(0.0, f64::max);
                if true_dk > 0.0 {
                    if let Some(d0k) = r.stats.d0k {
                        a.d0k_pct.push(100.0 * d0k / true_dk);
                    }
                    if let Some(km) = r.stats.kmindist_final {
                        a.kmindist_pct.push(100.0 * km / true_dk);
                    }
                }
                if variant == KnnVariant::MinDist {
                    a.kmindist_pruned_pct.push(100.0 * r.stats.kmindist_pruned as f64 / k as f64);
                }
            }
        }
    }
    agg
}

/// The density sweep (k fixed at `cfg.fixed_k`).
pub fn sweep_density(w: &StandardWorkload, cfg: &SweepConfig) -> SweepData {
    SweepData {
        axis: "S",
        points: cfg
            .densities
            .iter()
            .map(|&d| SweepPoint { x: d, algos: run_point(w, d, cfg.fixed_k, cfg) })
            .collect(),
    }
}

/// The k sweep (density fixed at `cfg.fixed_density`).
pub fn sweep_k(w: &StandardWorkload, cfg: &SweepConfig) -> SweepData {
    SweepData {
        axis: "k",
        points: cfg
            .ks
            .iter()
            .map(|&k| SweepPoint { x: k as f64, algos: run_point(w, cfg.fixed_density, k, cfg) })
            .collect(),
    }
}

// ---------------------------------------------------------------------
// Figure views
// ---------------------------------------------------------------------

fn axis_header(data: &SweepData) -> String {
    format!("{:>10}", data.axis)
}

/// Figure p.33: execution time of all six algorithms.
pub fn view_exec_time(data: &SweepData, which: &str) -> Report {
    let mut r =
        Report::new(format!("Figure p.33{which}: execution time (ms), {} sweep", data.axis));
    r.line(format!(
        "{}{}",
        axis_header(data),
        ALGORITHMS.iter().map(|a| format!("{a:>10}")).collect::<String>()
    ));
    for p in &data.points {
        let cells: String =
            ALGORITHMS.iter().map(|a| format!("{:>10.3}", mean(&p.algos[a].time_ms))).collect();
        r.line(format!("{:>10}{}", p.x, cells));
    }
    r.line("paper shape: kNN & variants ≥ 1 order of magnitude faster than INE/IER at".to_string());
    r.line("small k / moderate S; IER slowest; INE catches up as S or k grows".to_string());
    r
}

/// Figure p.34: max priority-queue size of kNN variants as % of INN.
pub fn view_queue_size(data: &SweepData) -> Report {
    let mut r =
        Report::new(format!("Figure p.34: max queue size as % of INN, {} sweep", data.axis));
    let algos = ["KNN-I", "KNN", "KNN-M"];
    r.line(format!(
        "{}{}",
        axis_header(data),
        algos.iter().map(|a| format!("{a:>10}")).collect::<String>()
    ));
    for p in &data.points {
        let base = mean(&p.algos["INN"].max_queue).max(1e-12);
        let cells: String = algos
            .iter()
            .map(|a| format!("{:>10.1}", 100.0 * mean(&p.algos[*a].max_queue) / base))
            .collect();
        r.line(format!("{:>10}{}", p.x, cells));
    }
    r.line("paper shape: ≈ 35% of INN on average; savings shrink as k grows".to_string());
    r
}

/// Figure p.35: refinement operations as % of INN.
pub fn view_refinements(data: &SweepData) -> Report {
    let mut r =
        Report::new(format!("Figure p.35: refinement operations as % of INN, {} sweep", data.axis));
    let algos = ["KNN", "KNN-I", "KNN-M"];
    r.line(format!(
        "{}{}",
        axis_header(data),
        algos.iter().map(|a| format!("{a:>10}")).collect::<String>()
    ));
    for p in &data.points {
        let base = mean(&p.algos["INN"].refinements).max(1e-12);
        let cells: String = algos
            .iter()
            .map(|a| format!("{:>10.1}", 100.0 * mean(&p.algos[*a].refinements) / base))
            .collect();
        r.line(format!("{:>10}{}", p.x, cells));
    }
    r.line("paper shape: kNN-M saves ≥ 30% of kNN's refinements (ordering cost)".to_string());
    r
}

/// Figure p.36: % of the k neighbors confirmed directly against KMINDIST.
pub fn view_kmindist_pruning(data: &SweepData) -> Report {
    let mut r = Report::new(format!(
        "Figure p.36: neighbors pruned against KMINDIST (kNN-M), {} sweep",
        data.axis
    ));
    r.line(format!("{}{:>12}", axis_header(data), "% pruned"));
    for p in &data.points {
        r.line(format!("{:>10}{:>12.1}", p.x, mean(&p.algos["KNN-M"].kmindist_pruned_pct)));
    }
    r.line("paper shape: up to 80–90% of neighbors added without further refinement".to_string());
    r
}

/// Figure p.37: quality of the D⁰k and KMINDIST estimates relative to Dk.
pub fn view_estimate_quality(data: &SweepData) -> Report {
    let mut r =
        Report::new(format!("Figure p.37: estimate quality (% of true Dk), {} sweep", data.axis));
    r.line(format!("{}{:>12}{:>12}", axis_header(data), "D0k %", "KMINDIST %"));
    for p in &data.points {
        r.line(format!(
            "{:>10}{:>12.1}{:>12.1}",
            p.x,
            mean(&p.algos["KNN-I"].d0k_pct),
            mean(&p.algos["KNN-M"].kmindist_pct),
        ));
    }
    r.line("paper shape: D0k ≈ 120% of Dk; KMINDIST ≈ 90% of Dk".to_string());
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WorkloadConfig;

    fn tiny_sweep() -> (StandardWorkload, SweepData) {
        let w = StandardWorkload::build(WorkloadConfig { vertices: 250, ..Default::default() });
        let cfg = SweepConfig {
            densities: vec![0.05, 0.2],
            ks: vec![3],
            fixed_k: 3,
            fixed_density: 0.1,
            trials: 2,
            queries: 3,
        };
        let data = sweep_density(&w, &cfg);
        (w, data)
    }

    #[test]
    fn sweep_collects_all_algorithms() {
        let (_, data) = tiny_sweep();
        assert_eq!(data.points.len(), 2);
        for p in &data.points {
            for a in ALGORITHMS {
                let agg = &p.algos[a];
                assert_eq!(agg.time_ms.len(), 6, "algorithm {a} missing runs");
            }
            // SILC variants collect refinement stats; baselines don't.
            assert!(!p.algos["KNN"].refinements.is_empty());
            assert!(p.algos["INE"].refinements.is_empty());
            assert!(!p.algos["KNN-M"].kmindist_pruned_pct.is_empty());
        }
    }

    #[test]
    fn views_render_every_point() {
        let (w, data) = tiny_sweep();
        let cfg = SweepConfig {
            ks: vec![2, 4],
            fixed_density: 0.1,
            trials: 1,
            queries: 2,
            ..Default::default()
        };
        let kdata = sweep_k(&w, &cfg);
        for report in [
            view_exec_time(&data, "a"),
            view_exec_time(&kdata, "b"),
            view_queue_size(&data),
            view_refinements(&data),
            view_kmindist_pruning(&data),
            view_estimate_quality(&data),
        ] {
            // Header + one line per point + ≥1 note.
            assert!(report.lines.len() >= 3, "report {} too short", report.title);
        }
    }
}
