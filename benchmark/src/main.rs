//! The repo benchmark: four closed-loop single-client scenarios over
//! `tsnet`, best-of-rounds estimators, a per-layer trace taken
//! from outside. See README.md and ../BENCHMARK.json.

#![forbid(unsafe_code)]

mod compare;
mod driver;
mod estim;
mod gen;
mod json;
mod layers;
mod phases;
mod report;
mod run;
mod store;
#[cfg(test)]
mod tests;
mod trace;
mod verify;
mod workloads;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use driver::Handicap;
use workloads::Workload;

/// Crate-wide result: every layer's error type boxes into it.
pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

const USAGE: &str = "usage:
  benchmark run --workload NAME --seed N [--trace 0|1] [--smoke] [--home DIR] [--out FILE]
      (--seconds S is accepted, as the driver passes it, and changes nothing: op counts are fixed)
  benchmark compare A.jsonl B.jsonl --spec BENCHMARK.json
  benchmark stability [--sets 2] [--runs 5] [--spec BENCHMARK.json] [--out-md FILE] [--smoke]
workloads: cold_wide hot_zoom ingest_fleet live_tail";

/// `--name value` pairs and bare `--flags` after the subcommand.
pub(crate) struct Args {
    pub(crate) positional: Vec<String>,
    named: Vec<(String, Option<String>)>,
}

impl Args {
    pub(crate) fn parse(raw: &[String], flags: &[&str]) -> Args {
        let mut args = Args {
            positional: Vec::new(),
            named: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(name) if flags.contains(&name) => args.named.push((name.to_string(), None)),
                Some(name) => args.named.push((name.to_string(), it.next().cloned())),
                None => args.positional.push(a.clone()),
            }
        }
        args
    }

    pub(crate) fn value(&self, name: &str) -> Option<&str> {
        self.named
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    pub(crate) fn flag(&self, name: &str) -> bool {
        self.named.iter().any(|(n, _)| n == name)
    }

    pub(crate) fn number(&self, name: &str, default: u64) -> Result<u64> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} {v}: not a number").into()),
        }
    }
}

/// `query=1000,write=1000` (µs of busy-wait; test-only).
fn parse_handicap(spec: Option<&str>) -> Result<Handicap> {
    let mut h = Handicap::default();
    for part in spec.unwrap_or("").split(',').filter(|p| !p.is_empty()) {
        let (op, us) = part
            .split_once('=')
            .ok_or("--handicap wants op=microseconds")?;
        let us: u64 = us
            .parse()
            .map_err(|_| format!("--handicap {part}: not a number"))?;
        match op {
            "query" => h.query_us = us,
            "write" => h.write_us = us,
            _ => return Err(format!("--handicap {op}: unknown op (query, write)").into()),
        }
    }
    Ok(h)
}

/// The last CPU of a `Cpus_allowed_list` that names several (`0-1`,
/// `0,2-3`); `None` when it names one.
fn last_of_several(allowed: &str) -> Option<&str> {
    let last = allowed.rsplit([',', '-']).next()?.trim();
    (last != allowed.trim() && last.parse::<u32>().is_ok()).then_some(last)
}

/// Put the process — still one thread; every thread started later
/// inherits the placement — on the last CPU it may use. On a small
/// shared box the wake-ups between the client, the server's worker and
/// its writer threads otherwise migrate across CPUs: a loopback echo
/// between two threads takes 7 µs on one CPU and 45–60 µs, with a p90
/// of 2 ms, across two (README, "Noise"). A run that could not be
/// placed says so, loudly, and its record shows the CPUs it had.
fn pin_to_one_cpu() {
    let allowed = store::cpus_allowed().unwrap_or_default();
    let Some(cpu) = last_of_several(&allowed) else {
        if allowed.is_empty() {
            eprintln!("benchmark: WARNING: cannot tell which CPUs this run may use; it is not pinned and its timings will be noisier");
        }
        return;
    };
    let placed = std::process::Command::new("taskset")
        .args(["-cp", cpu, &std::process::id().to_string()])
        .stdout(std::process::Stdio::null())
        .status()
        .is_ok_and(|s| s.success());
    if !placed || store::cpus_allowed().as_deref() != Some(cpu) {
        eprintln!("benchmark: WARNING: `taskset -cp {cpu}` did not place this run; it runs on CPUs {allowed} and its timings will be noisier");
    }
}

fn cmd_run(raw: &[String]) -> Result<ExitCode> {
    pin_to_one_cpu();
    let args = Args::parse(raw, &["smoke"]);
    // The driver passes `--seconds run_seconds`; op counts are fixed.
    args.number("seconds", 0)?;
    let name = args.value("workload").ok_or("run needs --workload NAME")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let home = match args.value("home") {
        Some(dir) => PathBuf::from(dir),
        None => PathBuf::from(".bench_home"),
    };
    let opts = run::Options {
        workload,
        seed: args.number("seed", 1)?,
        trace: args.number("trace", 0)? != 0,
        smoke: args.flag("smoke"),
        // One directory per process, so runs side by side do not collide.
        home: home.join(format!("{name}-{}", std::process::id())),
        handicap: parse_handicap(args.value("handicap"))?,
    };
    let outcome = run::run(&opts)?;
    if opts.trace {
        let kept = home.join("trace.jsonl");
        std::fs::rename(opts.home.join("trace.jsonl"), &kept)?;
        println!("trace written to {}", kept.display());
    }
    std::fs::remove_dir_all(&opts.home)?;
    print!("{}", outcome.render());
    if let Some(path) = args.value("out") {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(file, "{}", outcome.record_line())?;
    }
    println!("{}", outcome.result_line());
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match raw.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare::cmd_compare(rest),
        Some((cmd, rest)) if cmd == "stability" => compare::cmd_stability(rest),
        _ => Err(USAGE.into()),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod main_tests {
    use super::last_of_several;

    #[test]
    fn only_a_list_of_several_cpus_is_narrowed() {
        assert_eq!(last_of_several("0-1"), Some("1"));
        assert_eq!(last_of_several("0,2-3"), Some("3"));
        assert_eq!(last_of_several("0,2"), Some("2"));
        assert_eq!(last_of_several("1"), None);
        assert_eq!(last_of_several(""), None);
    }
}
