//! What a run reports: every metric by name and unit, the checks, and
//! the contract's one-line JSON result.

use std::fmt::Write as _;

use crate::json::{number, quote};
use crate::workloads::{MetricDecl, Workload};

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: Workload,
    pub seed: u64,
    pub trace: bool,
    /// `Cpus_allowed_list` of the run: one CPU when it ran pinned.
    pub cpus_allowed: String,
    /// Pinned configuration and sizes, as printed.
    pub setup: Vec<String>,
    /// The gated set of this mode: every end-to-end metric with
    /// `--trace 0`, every per-layer metric with `--trace 1`.
    pub metrics: Vec<Metric>,
    /// Printed and recorded, never gated: tails, ratios, drift.
    pub info: Vec<Metric>,
    /// What each round (build, recovery) of a timed phase measured, in
    /// order, under the name of the metric that is its best (printed).
    pub by_round: Vec<(&'static str, Vec<f64>)>,
    pub input_digest: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Why `correct` is false, when it is.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    #[cfg(test)]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.info)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    fn metrics_json(metrics: &[Metric]) -> String {
        let fields: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    number(m.value),
                    quote(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The last line of standard output: exactly `correct`,
    /// `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            Self::metrics_json(&self.metrics)
        )
    }

    /// The `--out` record: the result line plus what `compare` needs to
    /// file it (workload, seed, mode), where it ran and the
    /// informational metrics.
    pub fn record_line(&self) -> String {
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"cpus_allowed\": {}, \"input_digest\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"info\": {}}}",
            quote(self.workload.name()),
            self.seed,
            u8::from(self.trace),
            quote(&self.cpus_allowed),
            quote(&format!("{:016x}", self.input_digest)),
            self.correct(),
            self.attempted.max(1),
            self.failed,
            Self::metrics_json(&self.metrics),
            Self::metrics_json(&self.info)
        )
    }

    /// The human-readable report (everything but the result line).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workload {}  seed {}  trace {}  input_digest {:016x}",
            self.workload.name(),
            self.seed,
            u8::from(self.trace),
            self.input_digest
        );
        for line in &self.setup {
            let _ = writeln!(out, "  {line}");
        }
        let title = if self.trace {
            "per-layer"
        } else {
            "end-to-end"
        };
        let _ = writeln!(out, "{title} metrics");
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<52} {:>16.4} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(out, "informational (not gated)");
        for m in &self.info {
            let _ = writeln!(out, "  {:<52} {:>16.4} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(out, "by round (the metric is the best of them)");
        for (name, values) in &self.by_round {
            let cells: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            let _ = writeln!(out, "  {name}: {}", cells.join(" "));
        }
        let _ = writeln!(
            out,
            "checks: correct={} attempted={} failed={}",
            self.correct(),
            self.attempted,
            self.failed
        );
        for p in &self.problems {
            let _ = writeln!(out, "  PROBLEM: {p}");
        }
        out
    }
}

/// Pair measured values with the declared names, in declaration order.
/// A declared metric nobody measured is a bug in the benchmark and
/// makes the run incorrect.
pub fn declared(
    decls: &[MetricDecl],
    mut measured: Vec<(&'static str, f64)>,
    problems: &mut Vec<String>,
) -> Vec<Metric> {
    let mut out = Vec::with_capacity(decls.len());
    for (name, unit) in decls {
        let value = match measured.iter().position(|(n, _)| n == name) {
            Some(i) => measured.swap_remove(i).1,
            None => {
                problems.push(format!("metric {name} was not measured"));
                0.0
            }
        };
        if !value.is_finite() {
            problems.push(format!("metric {name} is not a finite number"));
        }
        out.push(Metric {
            name: (*name).to_string(),
            unit,
            value,
        });
    }
    for (name, _) in measured {
        problems.push(format!("metric {name} is not declared"));
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::json;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut problems = Vec::new();
        let metrics = declared(
            &[("setup_s", "s"), ("latency_ms", "ms")],
            vec![("latency_ms", 1.2034), ("setup_s", 0.8127)],
            &mut problems,
        );
        assert!(problems.is_empty());
        let o = Outcome {
            workload: Workload::ColdWide,
            seed: 3,
            trace: false,
            cpus_allowed: "1".into(),
            setup: vec![],
            metrics,
            info: vec![],
            by_round: vec![("latency_ms", vec![1.3, 1.2034])],
            input_digest: 7,
            attempted: 1000,
            failed: 0,
            problems,
        };
        let v = json::parse(&o.result_line()).unwrap();
        let keys: Vec<&str> = v.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("latency_ms").unwrap().get("value").unwrap().as_f64(),
            Some(1.2034)
        );
        assert_eq!(
            m.get("setup_s").unwrap().get("unit").unwrap().as_str(),
            Some("s")
        );
        let r = json::parse(&o.record_line()).unwrap();
        assert_eq!(r.get("workload").unwrap().as_str(), Some("cold_wide"));
        assert_eq!(r.get("cpus_allowed").unwrap().as_str(), Some("1"));
        assert!(o.render().contains("latency_ms: 1.3000 1.2034"));
    }

    #[test]
    fn an_unmeasured_or_undeclared_metric_is_a_problem() {
        let mut problems = Vec::new();
        declared(&[("a", "s")], vec![("b", 1.0)], &mut problems);
        assert_eq!(problems.len(), 2);
    }
}
