//! Metric bookkeeping: what a run measured, checked against what
//! `BENCHMARK.json` says the benchmark reports, and the result line.

use crate::json::{self, Value};

/// `BENCHMARK.json` as it was when this binary was built: the one list of
/// workloads, metric names, units, directions and bounds.
const SPEC_TEXT: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the reference median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
    pub run_seconds: f64,
}

impl Spec {
    pub fn load() -> Spec {
        Spec::parse(SPEC_TEXT).unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
    }

    fn parse(text: &str) -> Result<Spec, String> {
        let root = json::parse(text)?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            root.get(key)
                .ok_or(format!("missing {key}"))?
                .as_array()
                .iter()
                .map(|m| {
                    let text = |k: &str| {
                        m.get(k).and_then(Value::as_str).ok_or(format!("{key}: missing {k}"))
                    };
                    Ok(MetricSpec {
                        name: text("name")?.to_string(),
                        unit: text("unit")?.to_string(),
                        higher_is_better: text("better")? == "higher",
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: root
                .get("workloads")
                .ok_or("missing workloads")?
                .as_array()
                .iter()
                .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            run_seconds: root
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("missing run_seconds")?,
        })
    }
}

/// What one run measured, in measurement order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(!self.0.iter().any(|(n, _)| *n == name), "metric {name} measured twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// The outcome of one leaf run.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl RunResult {
    /// The result object: exactly the metrics `listed`, each with its unit.
    /// A listed per-layer metric this workload has no such layer for reads
    /// 0; a measured metric that is not listed, or a missing end-to-end
    /// metric, is a bug in the benchmark and is refused.
    pub fn to_json(&self, listed: &[MetricSpec], all_required: bool) -> Result<Value, String> {
        for (name, _) in &self.metrics.0 {
            if !listed.iter().any(|m| m.name == *name) {
                return Err(format!("metric {name} is measured but not in BENCHMARK.json"));
            }
        }
        let mut fields = Vec::new();
        for m in listed {
            let value = match self.metrics.get(&m.name) {
                Some(v) => v,
                None if all_required => return Err(format!("metric {} was not measured", m.name)),
                None => 0.0,
            };
            if !value.is_finite() {
                return Err(format!("metric {} is not a finite number", m.name));
            }
            fields.push((
                m.name.clone(),
                Value::Obj(vec![
                    ("value".into(), Value::Num(value)),
                    ("unit".into(), Value::Str(m.unit.clone())),
                ]),
            ));
        }
        Ok(Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), Value::Obj(fields)),
        ]))
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_spec_meets_the_contract_limits() {
        let spec = Spec::load();
        assert_eq!(spec.workloads, ["local_warm", "local_cold", "served_warm", "routed_100k"]);
        assert!((1.0..=60.0).contains(&spec.run_seconds));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        let mut names: Vec<&str> =
            spec.end_to_end.iter().chain(&spec.per_layer).map(|m| m.name.as_str()).collect();
        for m in spec.end_to_end.iter() {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
            assert!(bound <= setup.bound.unwrap(), "setup_s must have the largest bound");
        }
        for n in &names {
            assert!(n.len() <= 64 && n.as_bytes()[0].is_ascii_alphanumeric(), "{n}");
            assert!(n.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)), "{n}");
        }
        names.sort_unstable();
        assert!(names.windows(2).all(|w| w[0] != w[1]), "a metric name is used twice");
        assert!(SPEC_TEXT.len() <= 64 * 1024);
    }

    #[test]
    fn result_lists_exactly_the_spec_and_refuses_strays() {
        let listed = [
            MetricSpec {
                name: "a".into(),
                unit: "ms".into(),
                higher_is_better: false,
                bound: None,
            },
            MetricSpec {
                name: "b".into(),
                unit: "count".into(),
                higher_is_better: true,
                bound: None,
            },
        ];
        let mut r =
            RunResult { correct: true, attempted: 7, failed: 0, metrics: Metrics::default() };
        r.metrics.set("a", 1.25);
        assert!(r.to_json(&listed, true).is_err(), "b missing");
        let line = r.to_json(&listed, false).unwrap().render();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
        r.metrics.set("stray", 1.0);
        assert!(r.to_json(&listed, false).is_err());
    }

    #[test]
    fn peak_rss_reads_something() {
        assert!(peak_rss_mib() > 0.0);
    }
}
