//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each experiment in [`experiments`] corresponds to one artifact of the
//! paper's evaluation and returns a report that the `figures` binary — the
//! one harness that regenerates the paper's table and figures, and whose
//! docs list them all — prints. Performance evidence comes from the
//! repository benchmark (`BENCHMARK.json`, `benchmark/`), not from here.

pub mod experiments;
pub mod schema;
pub mod stats;
pub mod workloads;

pub use workloads::{StandardWorkload, WorkloadConfig};

/// Network size for the runnable examples: the walkthrough's default,
/// overridable via `SILC_EXAMPLE_VERTICES` so the smoke test can run the
/// examples on tiny networks. Overrides are floored at 16 vertices — the
/// examples derive scaled vertex ids (`n - 10`, `n * 9 / 10`, …) that
/// degenerate or underflow below that.
pub fn example_vertices(default: usize) -> usize {
    std::env::var("SILC_EXAMPLE_VERTICES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map(|n| n.max(16))
        .unwrap_or(default)
}
