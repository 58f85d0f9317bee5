//! `repro` — regenerate the paper's evaluation artifacts.
//!
//! ```text
//! repro --exp all                 # every experiment at default scale
//! repro --exp fig10 --scale 0.05  # one figure, 5% of full data size
//! repro --exp fig12 --out out.json
//! ```
//!
//! Experiments: the paper artefacts (table2, fig8, fig10–fig14,
//! pixels), the two microbenches (pages, kernels), or
//! `all`. An unknown name exits 2. End-to-end measurement of the
//! engine and server lives in `benchmark/`, not here.
//!
//! `--out` writes `{"meta": {...}, "rows": [...]}` — the meta header
//! records the run's scale/repeats and the read-path configuration
//! every store is opened with, so committed BENCH files are
//! self-describing.

// CLI entry point: bad flags and failed experiment setup end the
// process with a message, which is the UX a command-line tool owes its
// operator. The workspace panic-freedom deny-set targets the libraries.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::exit
)]

use std::io::Write;

use bench::experiments::kernels::{self, KernelsReport};
use bench::experiments::pages::{self, PagesReport, PagesRow};
use bench::experiments::{fig10, fig11, fig12, fig13, fig14, fig8, pixels, table2};
use bench::harness::{print_table, BenchMeta, BenchReport, ExpRow, Harness};

/// Every name `--exp` accepts besides `all`, in `--exp all` run order.
const EXPERIMENTS: [&str; 10] = [
    "table2", "fig8", "fig10", "fig11", "fig12", "fig13", "fig14", "pixels", "pages", "kernels",
];

struct Args {
    exp: String,
    scale: f64,
    repeats: usize,
    out: Option<String>,
    datasets: Option<Vec<workload::Dataset>>,
}

fn parse_args() -> Args {
    let mut args = Args {
        exp: "all".to_string(),
        scale: 0.02,
        repeats: 3,
        out: None,
        datasets: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--exp" => args.exp = it.next().expect("--exp needs a value"),
            "--scale" => {
                args.scale = it
                    .next()
                    .expect("--scale needs a value")
                    .parse()
                    .expect("number")
            }
            "--repeats" => {
                args.repeats = it
                    .next()
                    .expect("--repeats needs a value")
                    .parse()
                    .expect("int")
            }
            "--out" => args.out = Some(it.next().expect("--out needs a path")),
            "--dataset" => {
                let name = it.next().expect("--dataset needs a name");
                let d = workload::Dataset::ALL
                    .into_iter()
                    .find(|d| d.name().eq_ignore_ascii_case(&name))
                    .unwrap_or_else(|| panic!("unknown dataset {name}"));
                args.datasets.get_or_insert_with(Vec::new).push(d);
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro [--exp {}|all] \
                     [--scale F] [--repeats N] [--out FILE.json] [--dataset NAME]...",
                    EXPERIMENTS.join("|")
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    if args.exp != "all" && !EXPERIMENTS.contains(&args.exp.as_str()) {
        eprintln!(
            "unknown experiment: {} (valid: {}, all)",
            args.exp,
            EXPERIMENTS.join(", ")
        );
        std::process::exit(2);
    }
    args
}

fn main() {
    let args = parse_args();
    let mut h = Harness::new(args.scale, args.repeats);
    if let Some(ds) = &args.datasets {
        h = h.with_datasets(ds.clone());
    }
    println!(
        "# M4-LSM reproduction harness — exp={} scale={} repeats={}\n",
        args.exp, args.scale, args.repeats
    );

    let mut rows: Vec<ExpRow> = Vec::new();
    let run_measured = |name: &str, rows: &mut Vec<ExpRow>, h: &Harness| {
        let new = match name {
            "fig10" => fig10::run(h),
            "fig11" => fig11::run(h),
            "fig12" => fig12::run(h),
            "fig13" => fig13::run(h),
            "fig14" => fig14::run(h),
            _ => unreachable!(),
        };
        println!("\n== {name} ==");
        print_table(&new);
        summarize(name, &new);
        rows.extend(new);
    };

    let all = args.exp == "all";
    if all || args.exp == "table2" {
        println!("\n== table2 ==");
        table2::run(&h);
    }
    if all || args.exp == "fig8" {
        println!("\n== fig8 ==");
        fig8::run(&h);
    }
    for name in ["fig10", "fig11", "fig12", "fig13", "fig14"] {
        if all || args.exp == name {
            run_measured(name, &mut rows, &h);
        }
    }
    if all || args.exp == "pixels" {
        println!("\n== pixels ==");
        let p = pixels::run(&h);
        pixels::print(&p);
    }
    let mut pages_rows: Vec<PagesRow> = Vec::new();
    if all || args.exp == "pages" {
        println!("\n== pages ==");
        pages_rows = pages::run(&h);
        pages::print(&pages_rows);
        pages::summarize(&pages_rows);
    }
    let mut kernels_out: Option<KernelsReport> = None;
    if all || args.exp == "kernels" {
        println!("\n== kernels ==");
        let results = kernels::run(&h);
        kernels::print(&results);
        kernels_out = Some(results);
    }

    if let Some(path) = &args.out {
        let meta = BenchMeta::new(&h);
        let (json, n) = if args.exp == "pages" {
            let report = PagesReport {
                meta,
                rows: pages_rows,
            };
            (
                serde_json::to_string_pretty(&report).expect("serialize pages report"),
                report.rows.len(),
            )
        } else if args.exp == "kernels" {
            let report = kernels_out.take().expect("kernels experiment ran");
            (
                serde_json::to_string_pretty(&report).expect("serialize kernels report"),
                report.decimal.len() + report.crc32.len(),
            )
        } else {
            if !pages_rows.is_empty() {
                println!("\nnote: pages rows are only serialized by `--exp pages --out ...`");
            }
            if kernels_out.is_some() {
                println!("\nnote: kernel rows are only serialized by `--exp kernels --out ...`");
            }
            let report = BenchReport { meta, rows };
            (
                serde_json::to_string_pretty(&report).expect("serialize report"),
                report.rows.len(),
            )
        };
        std::fs::File::create(path)
            .and_then(|mut f| f.write_all(json.as_bytes()))
            .expect("write output file");
        println!("\nwrote {n} rows to {path}");
    }
    h.cleanup();
}

/// Print the headline ratio the paper reports for each figure.
fn summarize(name: &str, rows: &[ExpRow]) {
    let avg = |op: &str| {
        let v: Vec<f64> = rows
            .iter()
            .filter(|r| r.operator == op)
            .map(|r| r.latency_ms)
            .collect();
        if v.is_empty() {
            f64::NAN
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let udf = avg("M4-UDF");
    let lsm = avg("M4-LSM");
    if udf.is_finite() && lsm.is_finite() && lsm > 0.0 {
        println!(
            "-- {name}: mean latency M4-UDF {udf:.2} ms vs M4-LSM {lsm:.2} ms (speedup {:.1}x)",
            udf / lsm
        );
    }
}
