//! `compare`: two sets of runs, metric by metric, against the bounds
//! BENCHMARK.json fixes. `stability`: the same code run as two
//! alternated sets, which must agree.
//!
//! Per workload × end-to-end metric each side's median and quartiles
//! (Python's `statistics.quantiles(n=4)`, the driver's rule) and a
//! verdict: `unresolved` when either side's interquartile spread is
//! wider than the bound, otherwise `worse` / `better` when B's median
//! moved by more than the bound, otherwise `same`. The metrics every
//! run measures without a bound (`workloads::INFORMATIONAL`) follow in a
//! table of their own, judged against the bound the issue wanted for
//! them; they never decide an exit code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use crate::estim::{median, quartiles};
use crate::json::{self, Value};
use crate::workloads::{Workload, INFORMATIONAL};
use crate::{Args, Result};

/// One end-to-end metric of the spec.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

pub fn parse_spec(text: &str) -> Result<Vec<Bound>> {
    let spec = json::parse(text)?;
    let list = spec
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("spec has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .ok_or(format!("end_to_end entry lacks {k}"))
            };
            Ok(Bound {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                lower_is_better: field("better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("end_to_end entry lacks bound")?,
            })
        })
        .collect()
}

/// The unbounded metrics, as `compare` judges them.
pub fn informational() -> Vec<Bound> {
    INFORMATIONAL
        .iter()
        .map(|&(name, unit, lower_is_better, bound)| Bound {
            name: name.to_string(),
            unit: unit.to_string(),
            lower_is_better,
            bound,
        })
        .collect()
}

/// The untraced runs of one `--out` file.
#[derive(Debug, Clone, Default)]
pub struct RunSet {
    /// workload → metric → one value per run.
    pub values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    pub attempted: f64,
    pub failed: f64,
    pub incorrect: u64,
}

pub fn parse_runs(text: &str) -> Result<RunSet> {
    let mut set = RunSet::default();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let rec = json::parse(line)?;
        if rec.get("trace").and_then(Value::as_f64).unwrap_or(0.0) != 0.0 {
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("record lacks workload")?;
        set.attempted += rec.get("attempted").and_then(Value::as_f64).unwrap_or(0.0);
        set.failed += rec.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        if rec.get("correct").and_then(Value::as_bool) != Some(true) {
            set.incorrect += 1;
        }
        let per_metric = set.values.entry(workload.to_string()).or_default();
        for section in ["metrics", "info"] {
            let Some(metrics) = rec.get(section).and_then(Value::as_object) else {
                continue;
            };
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Value::as_f64) {
                    per_metric.entry(name.clone()).or_default().push(v);
                }
            }
        }
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and quartiles of one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Side {
    pub fn of(values: &[f64]) -> Side {
        let m = median(values);
        let (q1, _, q3) = quartiles(values).unwrap_or((m, m, m));
        Side {
            n: values.len(),
            q1,
            median: m,
            q3,
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub bound: f64,
    pub a: Side,
    pub b: Side,
    /// How much worse B's median is than A's, as a share of A's
    /// (negative: better).
    pub worse_by: f64,
    pub verdict: Verdict,
}

pub fn judge(bound: &Bound, a: &[f64], b: &[f64]) -> (Side, Side, f64, Verdict) {
    let (sa, sb) = (Side::of(a), Side::of(b));
    let change = if sa.median == 0.0 {
        0.0
    } else {
        (sb.median - sa.median) / sa.median.abs()
    };
    let worse_by = if bound.lower_is_better {
        change
    } else {
        -change
    };
    let verdict = if sa.spread() > bound.bound || sb.spread() > bound.bound {
        Verdict::Unresolved
    } else if worse_by > bound.bound {
        Verdict::Worse
    } else if worse_by < -bound.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (sa, sb, worse_by, verdict)
}

pub fn compare(spec: &[Bound], a: &RunSet, b: &RunSet) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, metrics_a) in &a.values {
        let Some(metrics_b) = b.values.get(workload) else {
            continue;
        };
        for bound in spec {
            let (Some(va), Some(vb)) = (metrics_a.get(&bound.name), metrics_b.get(&bound.name))
            else {
                continue;
            };
            let (sa, sb, worse_by, verdict) = judge(bound, va, vb);
            rows.push(Row {
                workload: workload.clone(),
                metric: bound.name.clone(),
                unit: bound.unit.clone(),
                bound: bound.bound,
                a: sa,
                b: sb,
                worse_by,
                verdict,
            });
        }
    }
    rows
}

fn failed_share(set: &RunSet) -> f64 {
    if set.attempted == 0.0 {
        0.0
    } else {
        set.failed / set.attempted
    }
}

pub fn render_rows(rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| workload | metric | unit | bound | A median [q1, q3] (n) | B median [q1, q3] (n) | A spread | B spread | B worse by | verdict |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|---|");
    for r in rows {
        let side = |s: &Side| format!("{:.4} [{:.4}, {:.4}] ({})", s.median, s.q1, s.q3, s.n);
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.0}% | {} | {} | {:.1}% | {:.1}% | {:+.1}% | {} |",
            r.workload,
            r.metric,
            r.unit,
            r.bound * 100.0,
            side(&r.a),
            side(&r.b),
            r.a.spread() * 100.0,
            r.b.spread() * 100.0,
            r.worse_by * 100.0,
            r.verdict.name()
        );
    }
    out
}

pub fn render(rows: &[Row], a: &RunSet, b: &RunSet) -> String {
    let mut out = render_rows(rows);
    let _ = writeln!(
        out,
        "\nfailed operations: A {:.4}% of {} (incorrect runs: {}), B {:.4}% of {} (incorrect runs: {})",
        failed_share(a) * 100.0,
        a.attempted,
        a.incorrect,
        failed_share(b) * 100.0,
        b.attempted,
        b.incorrect
    );
    out
}

pub fn cmd_compare(raw: &[String]) -> Result<ExitCode> {
    let args = Args::parse(raw, &[]);
    let [file_a, file_b] = args.positional.as_slice() else {
        return Err("compare needs A.jsonl B.jsonl".into());
    };
    let spec_path = args.value("spec").unwrap_or("BENCHMARK.json");
    let spec = parse_spec(&std::fs::read_to_string(spec_path)?)?;
    let a = parse_runs(&std::fs::read_to_string(file_a)?)?;
    let b = parse_runs(&std::fs::read_to_string(file_b)?)?;
    let rows = compare(&spec, &a, &b);
    print!("{}", render(&rows, &a, &b));
    println!("\ninformational (no bound in the spec; judged against the issue's, never gated):\n");
    print!("{}", render_rows(&compare(&informational(), &a, &b)));
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    let more_failures = failed_share(&b) > failed_share(&a) || b.incorrect > a.incorrect;
    if more_failures {
        println!("B fails more operations than A");
    }
    Ok(if worse > 0 || more_failures {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// Largest distance of a single run from its set's median, per row.
fn single_run_distance(rows: &[Row], sets: &[RunSet]) -> Vec<f64> {
    rows.iter()
        .map(|row| {
            let mut worst: f64 = 0.0;
            for set in sets {
                let Some(values) = set
                    .values
                    .get(&row.workload)
                    .and_then(|m| m.get(&row.metric))
                else {
                    continue;
                };
                let m = median(values);
                if m != 0.0 {
                    worst = values
                        .iter()
                        .fold(worst, |w, v| w.max((v - m).abs() / m.abs()));
                }
            }
            worst
        })
        .collect()
}

/// The drift across rounds inside a run, per workload and phase: the
/// median over all runs of `*_round_trend_pct` (second half of the
/// rounds against the first).
fn round_trends(sets: &[RunSet]) -> Vec<(String, String, f64)> {
    let mut out = Vec::new();
    let Some(first) = sets.first() else {
        return out;
    };
    for (workload, metrics) in &first.values {
        for name in metrics.keys().filter(|n| n.ends_with("_round_trend_pct")) {
            let all: Vec<f64> = sets
                .iter()
                .filter_map(|set| set.values.get(workload).and_then(|m| m.get(name)))
                .flatten()
                .copied()
                .collect();
            out.push((
                workload.clone(),
                name.trim_end_matches("_round_trend_pct").to_string(),
                median(&all),
            ));
        }
    }
    out
}

/// Why a gated pair does not hold (the issue's rule): its verdict is
/// not `same`, or the set medians are more than half the bound apart.
/// The driver never gates the spread of `setup_s`, only its median.
fn fault(row: &Row) -> Option<&'static str> {
    let spread_gated = row.metric != "setup_s";
    if row.verdict == Verdict::Unresolved && spread_gated {
        Some("spread wider than the bound")
    } else if matches!(row.verdict, Verdict::Worse | Verdict::Better) {
        Some("set medians more than the bound apart")
    } else if row.worse_by.abs() > row.bound / 2.0 {
        Some("set medians more than half the bound apart")
    } else {
        None
    }
}

/// `stability`: run the same code as `--sets` alternated sets of
/// `--runs` runs over all four workloads, compare the first two sets,
/// write the table. Exits 0 when every gated pair holds.
pub fn cmd_stability(raw: &[String]) -> Result<ExitCode> {
    let args = Args::parse(raw, &["smoke"]);
    let sets = args.number("sets", 2)?.max(2) as usize;
    let runs = args.number("runs", 5)?.max(1);
    let spec_path = args.value("spec").unwrap_or("BENCHMARK.json");
    let spec = parse_spec(&std::fs::read_to_string(spec_path)?)?;
    let md = PathBuf::from(args.value("out-md").unwrap_or("benchmark/STABILITY.md"));
    let home = PathBuf::from(args.value("home").unwrap_or(".bench_home"));
    std::fs::create_dir_all(&home)?;
    let files: Vec<PathBuf> = (0..sets)
        .map(|k| home.join(format!("stability-set-{k}.jsonl")))
        .collect();
    for f in &files {
        if f.exists() {
            std::fs::remove_file(f)?;
        }
    }
    let exe = std::env::current_exe()?;
    for run in 0..runs {
        for workload in Workload::ALL {
            for file in &files {
                let mut cmd = Command::new(&exe);
                cmd.args([
                    "run",
                    "--workload",
                    workload.name(),
                    "--seed",
                    &(run + 1).to_string(),
                ]);
                cmd.arg("--home").arg(&home).arg("--out").arg(file);
                if args.flag("smoke") {
                    cmd.arg("--smoke");
                }
                let output = cmd.output()?;
                if !output.status.success() {
                    return Err(format!(
                        "run of {} (seed {}) failed: {}",
                        workload.name(),
                        run + 1,
                        String::from_utf8_lossy(&output.stderr)
                    )
                    .into());
                }
                eprintln!(
                    "stability: run {} of {runs}, {} done",
                    run + 1,
                    workload.name()
                );
            }
        }
    }
    let parsed: Vec<RunSet> = files
        .iter()
        .map(|f| parse_runs(&std::fs::read_to_string(f)?))
        .collect::<Result<_>>()?;
    let text = stability_report(&spec, &parsed, sets, runs);
    write_file(&md, &text.0)?;
    print!("{}", text.0);
    for f in &files {
        std::fs::remove_file(f)?;
    }
    Ok(if text.1 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// STABILITY.md, and whether every gated pair holds.
fn stability_report(spec: &[Bound], parsed: &[RunSet], sets: usize, runs: u64) -> (String, bool) {
    let rows = compare(spec, &parsed[0], &parsed[1]);
    let faults: Vec<(&Row, &str)> = rows
        .iter()
        .filter_map(|r| fault(r).map(|why| (r, why)))
        .collect();
    let mut text = String::new();
    let _ = writeln!(text, "# Benchmark stability\n");
    let _ = writeln!(
        text,
        "Written by `benchmark stability --sets {sets} --runs {runs}`: the same binary run as {sets} sets, alternated run \
         by run over the four workloads (run *r* of every set uses seed *r*), compared with `benchmark compare` against \
         the bounds of BENCHMARK.json. A gated pair holds when its verdict is `same` (both interquartile spreads within \
         the bound; the driver does not gate the spread of `setup_s`) and the set medians are at most half the bound \
         apart. A metric with a pair that does not hold belongs in the informational list, not under a wider bound.\n"
    );
    let _ = writeln!(
        text,
        "Result: **{}** ({} of {} gated pairs do not hold).\n",
        if faults.is_empty() {
            "stable"
        } else {
            "UNSTABLE"
        },
        faults.len(),
        rows.len()
    );
    for (row, why) in &faults {
        let _ = writeln!(text, "* `{}` on `{}`: {why}", row.metric, row.workload);
    }
    if !faults.is_empty() {
        text.push('\n');
    }
    text.push_str(&render(&rows, &parsed[0], &parsed[1]));

    let info = compare(&informational(), &parsed[0], &parsed[1]);
    let _ = writeln!(
        text,
        "\n## Informational metrics\n\nMeasured and printed by every run, recorded under `info`, never gated: on \
         this box at least one workload's spread is wider than half the bound the issue wanted. Judged here against \
         that bound so that every spread is on record.\n"
    );
    text.push_str(&render_rows(&info));

    let _ = writeln!(
        text,
        "\n## Single runs\n\nLargest distance of any single run from its set's median.\n\n\
         | workload | metric | gated | largest distance |\n|---|---|---|---|"
    );
    let all: Vec<Row> = rows.iter().chain(&info).cloned().collect();
    for (row, far) in all.iter().zip(single_run_distance(&all, parsed)) {
        let gated = if spec.iter().any(|b| b.name == row.metric) {
            "yes"
        } else {
            "no"
        };
        let _ = writeln!(
            text,
            "| {} | {} | {gated} | {:.1}% |",
            row.workload,
            row.metric,
            far * 100.0
        );
    }

    let _ = writeln!(
        text,
        "\n## Trend across rounds\n\nMedian over all runs of the drift inside a run: the second half of a phase's \
         rounds against the first half (statistically identical rounds stay within ±5 %).\n\n\
         | workload | phase | drift | within 5 % |\n|---|---|---|---|"
    );
    for (workload, phase, drift) in round_trends(parsed) {
        let ok = if drift.abs() <= 5.0 { "yes" } else { "NO" };
        let _ = writeln!(text, "| {workload} | {phase} | {drift:+.1}% | {ok} |");
    }
    (text, faults.is_empty())
}

fn write_file(path: &Path, text: &str) -> Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    const SPEC: &str = r#"{"end_to_end": [
        {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#;

    fn file(latencies: &[f64], rates: &[f64]) -> String {
        latencies
            .iter()
            .zip(rates)
            .map(|(l, r)| {
                format!(
                    "{{\"workload\": \"w\", \"seed\": 1, \"trace\": 0, \"correct\": true, \"attempted\": 100, \"failed\": 0, \
                     \"metrics\": {{\"latency_ms\": {{\"value\": {l}, \"unit\": \"ms\"}}, \"rate\": {{\"value\": {r}, \"unit\": \"1/s\"}}}}}}\n"
                )
            })
            .collect()
    }

    fn verdicts(a: &str, b: &str) -> Vec<Verdict> {
        let spec = parse_spec(SPEC).unwrap();
        compare(&spec, &parse_runs(a).unwrap(), &parse_runs(b).unwrap())
            .iter()
            .map(|r| r.verdict)
            .collect()
    }

    #[test]
    fn identical_files_are_the_same() {
        let a = file(
            &[1.00, 1.01, 0.99, 1.02, 1.0],
            &[500.0, 505.0, 495.0, 498.0, 502.0],
        );
        assert_eq!(verdicts(&a, &a), [Verdict::Same, Verdict::Same]);
    }

    #[test]
    fn fifteen_percent_slower_is_worse_and_a_lower_rate_too() {
        let a = file(
            &[1.00, 1.01, 0.99, 1.02, 1.0],
            &[500.0, 505.0, 495.0, 498.0, 502.0],
        );
        let b = file(
            &[1.15, 1.16, 1.14, 1.17, 1.15],
            &[430.0, 432.0, 428.0, 431.0, 429.0],
        );
        assert_eq!(verdicts(&a, &b), [Verdict::Worse, Verdict::Worse]);
        assert_eq!(verdicts(&b, &a), [Verdict::Better, Verdict::Better]);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let a = file(
            &[1.0, 1.4, 0.7, 1.3, 0.8],
            &[500.0, 505.0, 495.0, 498.0, 502.0],
        );
        let b = file(
            &[1.15, 1.16, 1.14, 1.17, 1.15],
            &[500.0, 505.0, 495.0, 498.0, 502.0],
        );
        assert_eq!(verdicts(&a, &b), [Verdict::Unresolved, Verdict::Same]);
    }

    #[test]
    fn a_gated_pair_holds_within_half_its_bound_and_setup_spread_is_excused() {
        let row = |metric: &str, a: &[f64], b: &[f64]| {
            let bound = Bound {
                name: metric.to_string(),
                unit: "ms".to_string(),
                lower_is_better: true,
                bound: 0.1,
            };
            let (sa, sb, worse_by, verdict) = judge(&bound, a, b);
            Row {
                workload: "w".to_string(),
                metric: metric.to_string(),
                unit: bound.unit.clone(),
                bound: bound.bound,
                a: sa,
                b: sb,
                worse_by,
                verdict,
            }
        };
        let steady = [1.00, 1.01, 0.99, 1.02, 1.0];
        let six_percent_off = [1.06, 1.07, 1.05, 1.08, 1.06];
        let wide = [1.0, 1.4, 0.7, 1.3, 0.8];
        assert_eq!(fault(&row("latency_ms", &steady, &steady)), None);
        assert!(fault(&row("latency_ms", &steady, &six_percent_off)).is_some());
        assert!(fault(&row("latency_ms", &wide, &steady)).is_some());
        assert_eq!(fault(&row("setup_s", &wide, &steady)), None);
        assert!(fault(&row("setup_s", &steady, &six_percent_off)).is_some());
    }

    #[test]
    fn failed_operations_are_counted_per_side() {
        let a = parse_runs(&file(&[1.0], &[1.0])).unwrap();
        assert_eq!(failed_share(&a), 0.0);
        let b =
            parse_runs(&file(&[1.0], &[1.0]).replace("\"failed\": 0", "\"failed\": 5")).unwrap();
        assert_eq!(failed_share(&b), 0.05);
        let traced = file(&[1.0], &[1.0]).replace("\"trace\": 0", "\"trace\": 1");
        assert!(parse_runs(&traced).unwrap().values.is_empty());
    }
}
