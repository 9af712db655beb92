//! Running the whole set (each run in a child process), repeating it, and
//! checking that two repeated sets agree within the committed bounds.
//!
//! A result file is `{"seed", "seconds", "smoke", "sets": [set, …]}` where a
//! set maps each workload to `{"correct", "attempted", "failed",
//! "end_to_end": {metric: value}, "per_layer": {metric: value}}`.

use crate::json::{self, Value};
use crate::report::{MetricSpec, Spec};
use crate::stats::{median, quartiles, relative_spread};
use crate::Args;
use std::process::{Command, ExitCode, Stdio};

/// Per-layer counts that involve no clock and one thread of execution, so
/// the same seed must reproduce them digit for digit.
const EXACT_PER_LAYER: [&str; 6] = [
    "core.index_bytes_per_vertex",
    "query.refinements_per_query",
    "query.queue_pushes_per_query",
    "core.browser_calls_per_query",
    "storage.store_reads_per_query",
    "storage.retries",
];

/// Runs one leaf in a child process and returns its result object. A child
/// that exits non-zero still counts if it printed a result (`correct` is
/// false in it); one that printed none is an error.
fn run_child(args: &Args, workload: &str, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
    last.ok_or_else(|| format!("{workload} (trace {traced}) printed no result ({})", out.status))
        .and_then(json::parse)
}

/// `{metric: value}` out of a leaf's `{metric: {value, unit}}`.
fn flatten(result: &Value) -> Value {
    let metrics = result.get("metrics").map(Value::fields).unwrap_or_default();
    Value::Obj(
        metrics
            .iter()
            .map(|(name, m)| (name.clone(), m.get("value").cloned().unwrap_or(Value::Null)))
            .collect(),
    )
}

/// One pass over `order`: every workload untraced, then traced.
fn run_set(args: &Args, order: &[String]) -> Result<Value, String> {
    let mut set = Vec::new();
    for workload in order {
        let untraced = run_child(args, workload, false)?;
        let traced = run_child(args, workload, true)?;
        let flag = |k: &str| {
            untraced.get(k).and_then(Value::as_bool) == Some(true)
                && traced.get(k).and_then(Value::as_bool) == Some(true)
        };
        let sum = |k: &str| {
            [&untraced, &traced].iter().filter_map(|r| r.get(k).and_then(Value::as_f64)).sum()
        };
        set.push((
            workload.clone(),
            Value::Obj(vec![
                ("correct".into(), Value::Bool(flag("correct"))),
                ("attempted".into(), Value::Num(sum("attempted"))),
                ("failed".into(), Value::Num(sum("failed"))),
                ("end_to_end".into(), flatten(&untraced)),
                ("per_layer".into(), flatten(&traced)),
            ]),
        ));
    }
    Ok(Value::Obj(set))
}

fn result_file(args: &Args, sets: Vec<Value>) -> Value {
    Value::Obj(vec![
        ("seed".into(), Value::Num(args.seed as f64)),
        ("seconds".into(), Value::Num(args.seconds)),
        ("smoke".into(), Value::Bool(args.smoke)),
        ("sets".into(), Value::Arr(sets)),
    ])
}

fn write_out(args: &Args, file: &Value) {
    if let Some(path) = &args.out {
        // One set per line keeps repeated files diffable.
        let text =
            file.render().replace("\"sets\": [", "\"sets\": [\n").replace("}}}, {", "}}},\n{");
        std::fs::write(path, text + "\n").unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("# results written to {path}");
    }
}

fn metric(set: &Value, workload: &str, group: &str, name: &str) -> Option<f64> {
    set.get(workload)?.get(group)?.get(name)?.as_f64()
}

fn all_correct(set: &Value) -> bool {
    set.fields().iter().all(|(_, w)| w.get("correct").and_then(Value::as_bool) == Some(true))
}

/// The properties that make the workloads one-variable comparisons; they
/// hold by construction, so a failure means the benchmark (or a decorator)
/// broke, not that the program got slower.
fn design_checks(set: &Value, smoke: bool) -> Vec<(String, bool)> {
    let get = |w: &str, name: &str| metric(set, w, "per_layer", name).unwrap_or(f64::NAN);
    let mut checks = vec![
        (
            "query.refinements_per_query identical on local_warm and local_cold".to_string(),
            get("local_warm", "query.refinements_per_query")
                == get("local_cold", "query.refinements_per_query"),
        ),
        (
            "core.browser_calls_per_query identical on local_warm, local_cold, served_warm".into(),
            get("local_warm", "core.browser_calls_per_query")
                == get("local_cold", "core.browser_calls_per_query")
                && get("local_warm", "core.browser_calls_per_query")
                    == get("served_warm", "core.browser_calls_per_query"),
        ),
        (
            "storage.store_reads_per_query is 0 on local_warm and served_warm".into(),
            get("local_warm", "storage.store_reads_per_query") == 0.0
                && get("served_warm", "storage.store_reads_per_query") == 0.0,
        ),
        (
            "storage.store_reads_per_query exceeds 1 on local_cold".into(),
            get("local_cold", "storage.store_reads_per_query") > 1.0,
        ),
        (
            "query.complete_share is 1 on routed_100k".into(),
            get("routed_100k", "query.complete_share") == 1.0,
        ),
        (
            "storage.retries is 0 everywhere".into(),
            set.fields().iter().all(|(w, _)| get(w, "storage.retries") == 0.0),
        ),
    ];
    if !smoke {
        checks.push((
            "server.overhead_us_p50 is positive".into(),
            get("served_warm", "server.overhead_us_p50") > 0.0,
        ));
        checks.push((
            "the trace accounts for at least 95 % of local wall time".into(),
            get("local_warm", "trace.accounted_share") >= 0.95
                && get("local_cold", "trace.accounted_share") >= 0.95,
        ));
        checks.push((
            "trace.overhead_pct is at most 15 on local_warm".into(),
            get("local_warm", "trace.overhead_pct") <= 15.0,
        ));
    }
    checks
}

fn print_set(spec: &Spec, set: &Value) {
    for (workload, w) in set.fields() {
        println!(
            "\n== {workload}: correct {}, attempted {}, failed {}",
            w.get("correct").and_then(Value::as_bool).unwrap_or(false),
            w.get("attempted").and_then(Value::as_f64).unwrap_or(0.0),
            w.get("failed").and_then(Value::as_f64).unwrap_or(0.0),
        );
        for (group, listed) in [("end_to_end", &spec.end_to_end), ("per_layer", &spec.per_layer)] {
            for m in listed.iter() {
                let v = metric(set, workload, group, &m.name).unwrap_or(f64::NAN);
                let better =
                    if m.higher_is_better { "higher is better" } else { "lower is better" };
                println!("{:<12} {:<40} {:>16.4} {:<8} {better}", group, m.name, v, m.unit);
            }
        }
    }
}

/// The default command: every workload once (or one, with `--workload`).
pub fn suite(spec: &Spec, args: &Args) -> ExitCode {
    let order: Vec<String> =
        if args.workload.is_empty() { spec.workloads.clone() } else { vec![args.workload.clone()] };
    let set = match run_set(args, &order) {
        Ok(set) => set,
        Err(e) => {
            eprintln!("silc-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_set(spec, &set);
    let mut ok = all_correct(&set);
    if args.workload.is_empty() {
        println!();
        for (what, holds) in design_checks(&set, args.smoke) {
            println!("check {} — {what}", if holds { "PASS" } else { "FAIL" });
            ok &= holds;
        }
    }
    write_out(args, &result_file(args, vec![set]));
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("silc-benchmark: a run was incorrect or a design check failed");
        ExitCode::FAILURE
    }
}

/// Values of one metric across a file's sets.
fn across(sets: &[Value], workload: &str, group: &str, name: &str) -> Vec<f64> {
    sets.iter().filter_map(|s| metric(s, workload, group, name)).collect()
}

/// `--repeat N`: the whole set N times, workload order alternating so no
/// workload always runs on a cold or a hot machine.
pub fn repeat(spec: &Spec, args: &Args) -> ExitCode {
    let mut sets = Vec::new();
    let mut ok = true;
    for round in 0..args.repeat {
        let mut order = spec.workloads.clone();
        if round % 2 == 1 {
            order.reverse();
        }
        eprintln!("# repeat {} of {}: {}", round + 1, args.repeat, order.join(", "));
        match run_set(args, &order) {
            Ok(set) => {
                ok &= all_correct(&set);
                sets.push(set);
            }
            Err(e) => {
                eprintln!("silc-benchmark: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "{:<12} {:<12} {:<40} {:>14} {:>14} {:>14} {:>9}",
        "workload", "group", "metric", "median", "q1", "q3", "spread"
    );
    for workload in &spec.workloads {
        for (group, listed) in [("end_to_end", &spec.end_to_end), ("per_layer", &spec.per_layer)] {
            for m in listed.iter() {
                let v = across(&sets, workload, group, &m.name);
                let (q1, q3) = quartiles(&v);
                println!(
                    "{:<12} {:<12} {:<40} {:>14.4} {:>14.4} {:>14.4} {:>8.2}%",
                    workload,
                    group,
                    m.name,
                    median(&v),
                    q1,
                    q3,
                    100.0 * relative_spread(&v)
                );
            }
        }
    }
    write_out(args, &result_file(args, sets));
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("silc-benchmark: at least one run was incorrect");
        ExitCode::FAILURE
    }
}

/// One line of the agreement table; `None` when the pair agrees.
fn breach(m: &MetricSpec, a: &[f64], b: &[f64]) -> Option<String> {
    let bound = m.bound?;
    let (med_a, med_b) = (median(a), median(b));
    let gap = (med_a - med_b).abs() / med_a.abs().max(f64::MIN_POSITIVE);
    let spread = relative_spread(a).max(relative_spread(b));
    if gap > bound {
        Some(format!("medians {med_a:.4} and {med_b:.4} differ by {:.2} %", 100.0 * gap))
    } else if spread > bound {
        Some(format!("run-to-run spread {:.2} % exceeds the bound", 100.0 * spread))
    } else {
        None
    }
}

/// `--agree A B`: two `--repeat` files of the same code must agree on every
/// end-to-end metric within its bound, and on every exact count exactly.
pub fn agree(spec: &Spec, path_a: &str, path_b: &str) -> ExitCode {
    let load = |path: &str| -> Result<(Value, Vec<Value>), String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let file = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let sets = file.get("sets").map(|s| s.as_array().to_vec()).unwrap_or_default();
        if sets.len() < 2 {
            return Err(format!("{path}: needs at least two sets (use --repeat)"));
        }
        Ok((file, sets))
    };
    let ((file_a, a), (file_b, b)) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("silc-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    let same_inputs = ["seed", "seconds", "smoke"].iter().all(|k| file_a.get(k) == file_b.get(k));
    let mut breaches = 0;
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let (va, vb) = (
                across(&a, workload, "end_to_end", &m.name),
                across(&b, workload, "end_to_end", &m.name),
            );
            if va.len() < 2 || vb.len() < 2 {
                println!("BREACH {workload} {}: missing from a file", m.name);
                breaches += 1;
                continue;
            }
            match breach(m, &va, &vb) {
                Some(why) => {
                    println!(
                        "BREACH {workload} {} (bound {:.0} %): {why}",
                        m.name,
                        100.0 * m.bound.unwrap_or(0.0)
                    );
                    breaches += 1;
                }
                None => println!(
                    "ok     {workload} {}: {:.4} vs {:.4} {}",
                    m.name,
                    median(&va),
                    median(&vb),
                    m.unit
                ),
            }
        }
        if !same_inputs {
            continue;
        }
        for name in EXACT_PER_LAYER {
            let mut all = across(&a, workload, "per_layer", name);
            all.extend(across(&b, workload, "per_layer", name));
            if all.windows(2).any(|w| w[0] != w[1]) {
                println!("BREACH {workload} {name}: an exact count did not repeat: {all:?}");
                breaches += 1;
            }
        }
    }
    if !same_inputs {
        println!("note: the files differ in seed, seconds or smoke; exact counts not compared");
    }
    if breaches == 0 {
        println!("the two result sets agree");
        ExitCode::SUCCESS
    } else {
        println!("{breaches} breach(es)");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower_is_better(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "p50_us".into(),
            unit: "us".into(),
            higher_is_better: false,
            bound: Some(bound),
        }
    }

    #[test]
    fn medians_within_the_bound_agree_and_beyond_it_breach() {
        let m = lower_is_better(0.05);
        assert!(breach(&m, &[100.0, 101.0, 99.0], &[103.0, 104.0, 102.0]).is_none());
        assert!(breach(&m, &[100.0, 101.0, 99.0], &[107.0, 108.0, 106.0]).is_some());
        assert!(breach(&m, &[107.0, 108.0, 106.0], &[100.0, 101.0, 99.0]).is_some(), "either way");
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_a_breach_too() {
        let m = lower_is_better(0.05);
        assert!(breach(&m, &[80.0, 100.0, 120.0], &[99.0, 100.0, 101.0]).is_some());
    }

    #[test]
    fn design_checks_read_the_set() {
        let layer = |refs: f64, calls: f64, reads: f64| {
            Value::Obj(vec![(
                "per_layer".into(),
                Value::Obj(vec![
                    ("query.refinements_per_query".into(), Value::Num(refs)),
                    ("core.browser_calls_per_query".into(), Value::Num(calls)),
                    ("storage.store_reads_per_query".into(), Value::Num(reads)),
                    ("storage.retries".into(), Value::Num(0.0)),
                    ("query.complete_share".into(), Value::Num(1.0)),
                ]),
            )])
        };
        let set = Value::Obj(vec![
            ("local_warm".into(), layer(3.5, 40.0, 0.0)),
            ("local_cold".into(), layer(3.5, 40.0, 12.0)),
            ("served_warm".into(), layer(0.0, 40.0, 0.0)),
            ("routed_100k".into(), layer(0.0, 0.0, 2.0)),
        ]);
        assert!(design_checks(&set, true).iter().all(|(_, ok)| *ok));
        let broken = Value::Obj(vec![
            ("local_warm".into(), layer(3.5, 40.0, 0.0)),
            ("local_cold".into(), layer(3.6, 41.0, 0.5)),
            ("served_warm".into(), layer(0.0, 40.0, 0.0)),
            ("routed_100k".into(), layer(0.0, 0.0, 2.0)),
        ]);
        let failed = design_checks(&broken, true).iter().filter(|(_, ok)| !ok).count();
        assert_eq!(failed, 3);
    }
}
