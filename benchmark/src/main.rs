//! The repository benchmark: one command, four workloads, end-to-end
//! metrics from untraced windows and per-layer metrics from a traced one.
//! `README.md` beside this package is the manual; `BENCHMARK.json` at the
//! repository root is the list of what is reported.
//!
//! ```text
//! silc-benchmark [--seed N] [--seconds S] [--smoke] [--out FILE]
//!     every workload, untraced then traced, each run in its own process
//! silc-benchmark --workload NAME [...]
//!     one workload, untraced then traced
//! silc-benchmark --workload NAME --trace 0|1 [...]
//!     one run, in this process; the last stdout line is the result object
//! silc-benchmark --repeat N [--out FILE] [...]
//!     the whole set N times, alternating workload order; prints spreads
//! silc-benchmark --agree A.json B.json
//!     compares two --repeat files against the bounds; non-zero on a breach
//! ```

mod agree;
mod check;
mod config;
mod inputs;
mod json;
mod local;
mod probes;
mod report;
mod rng;
mod routed;
mod served;
mod setup;
mod stats;
mod trace;
mod window;

use config::Scale;
use local::Temperature;
use report::{RunResult, Spec};
use std::process::ExitCode;

/// Everything a run is parameterised by.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// `Some(false)` untraced, `Some(true)` traced, `None` both (as children).
    pub trace: Option<bool>,
    pub smoke: bool,
    pub scale: Scale,
    pub rounds: usize,
    pub repeat: usize,
    pub out: Option<String>,
    pub agree: Option<(String, String)>,
}

fn usage(problem: &str) -> ! {
    eprintln!("silc-benchmark: {problem}");
    eprintln!(
        "usage: silc-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--smoke] [--repeat N] [--out FILE] | --agree A.json B.json"
    );
    std::process::exit(2);
}

fn parse_args(spec: &Spec) -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: config::NETWORK_SEED,
        seconds: spec.run_seconds,
        trace: None,
        smoke: false,
        scale: Scale::FULL,
        rounds: config::ROUNDS,
        repeat: 0,
        out: None,
        agree: None,
    };
    let mut seconds_given = false;
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = value(&mut it, &flag),
            "--seed" => {
                args.seed = value(&mut it, &flag).parse().unwrap_or_else(|_| usage("bad --seed"))
            }
            "--seconds" => {
                args.seconds = value(&mut it, &flag)
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| usage("bad --seconds"));
                seconds_given = true;
            }
            "--trace" => {
                args.trace = Some(match value(&mut it, &flag).as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--smoke" => args.smoke = true,
            "--repeat" => {
                args.repeat = value(&mut it, &flag)
                    .parse()
                    .ok()
                    .filter(|&n| n >= 2)
                    .unwrap_or_else(|| usage("--repeat needs a count of at least 2"))
            }
            "--out" => args.out = Some(value(&mut it, &flag)),
            "--agree" => args.agree = Some((value(&mut it, &flag), value(&mut it, &flag))),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if args.smoke {
        args.scale = Scale::SMOKE;
        args.rounds = 1;
        if !seconds_given {
            args.seconds = 1.0;
        }
    }
    if !args.workload.is_empty() && !spec.workloads.contains(&args.workload) {
        usage(&format!("unknown workload {} (have: {})", args.workload, spec.workloads.join(", ")));
    }
    if args.trace.is_some() && args.workload.is_empty() {
        usage("--trace needs --workload");
    }
    args
}

/// One run in this process.
fn run_leaf(args: &Args, spec: &Spec, traced: bool) -> ExitCode {
    eprintln!(
        "# silc-benchmark {} seed {} {} — {} host threads; index files are served from the \
         OS page cache, so latencies are this sandbox's, not a storage device's",
        args.workload,
        args.seed,
        if traced { "traced".to_string() } else { format!("untraced, {} s window", args.seconds) },
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    );
    let result: RunResult = match (args.workload.as_str(), traced) {
        ("local_warm", false) => local::run_untraced(args, Temperature::Warm),
        ("local_warm", true) => local::run_traced(args, Temperature::Warm),
        ("local_cold", false) => local::run_untraced(args, Temperature::Cold),
        ("local_cold", true) => local::run_traced(args, Temperature::Cold),
        ("served_warm", false) => served::run_untraced(args),
        ("served_warm", true) => served::run_traced(args),
        ("routed_100k", false) => routed::run_untraced(args),
        ("routed_100k", true) => routed::run_traced(args),
        (other, _) => usage(&format!("unknown workload {other}")),
    };
    let listed = if traced { &spec.per_layer } else { &spec.end_to_end };
    // Per-layer metrics of layers a workload does not have read 0; every
    // end-to-end metric must have been measured.
    let line = match result.to_json(listed, !traced) {
        Ok(v) => v.render(),
        Err(e) => {
            eprintln!("silc-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in listed {
        if let Some(v) = result.metrics.get(&m.name) {
            eprintln!("{:<40} {:>16.4} {}", m.name, v, m.unit);
        }
    }
    println!("{line}");
    if result.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "silc-benchmark: {} — run is NOT correct ({} failed)",
            args.workload, result.failed
        );
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let spec = Spec::load();
    let args = parse_args(&spec);
    if let Some((a, b)) = &args.agree {
        return agree::agree(&spec, a, b);
    }
    match args.trace {
        Some(traced) => run_leaf(&args, &spec, traced),
        None if args.repeat > 0 => agree::repeat(&spec, &args),
        None => agree::suite(&spec, &args),
    }
}
