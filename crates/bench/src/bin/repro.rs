//! `repro` — regenerate the paper's evaluation artifacts.
//!
//! ```text
//! repro --exp all                 # every experiment at default scale
//! repro --exp fig10 --scale 0.05  # one figure, 5% of full data size
//! repro --exp fig12 --out out.json
//! ```
//!
//! Experiments: table2, fig8, fig10, fig11, fig12, fig13, fig14,
//! pixels, ablation, compaction, parallel, pages, ingest, serve,
//! subscribe, decode, cardinality, all.
//!
//! `--out` writes `{"meta": {...}, "rows": [...]}` — the meta header
//! records the run's scale/repeats and the baseline write-path knobs
//! (write_shards, fsync_policy, compaction_*) so
//! committed BENCH files are self-describing.

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

use bench::experiments::cardinality::{self, CardinalityReport, CardinalityRow, RegistrationRow};
use bench::experiments::compaction::{self, CompactionReport, CompactionRow};
use bench::experiments::decode::{self, DecodeReport, DecodeResults};
use bench::experiments::ingest::{self, IngestReport, IngestRow};
use bench::experiments::pages::{self, PagesReport, PagesRow};
use bench::experiments::serve::{self, ServeReport, ServeRow};
use bench::experiments::subscribe::{self, SubscribeReport, SubscribeRow};
use bench::experiments::{
    ablation, fig10, fig11, fig12, fig13, fig14, fig8, parallel, pixels, table2,
};
use bench::harness::{print_table, BenchMeta, BenchReport, ExpRow, Harness};
use tskv::config::EngineConfig;

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
                    "usage: repro [--exp table2|fig8|fig10|fig11|fig12|fig13|fig14|pixels|ablation|compaction|parallel|pages|ingest|serve|subscribe|decode|cardinality|all] \
                     [--scale F] [--repeats N] [--out FILE.json] [--dataset NAME]..."
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
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
            "ablation" => ablation::run(h),
            "parallel" => parallel::run(h),
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
    for name in [
        "fig10", "fig11", "fig12", "fig13", "fig14", "ablation", "parallel",
    ] {
        if all || args.exp == name {
            run_measured(name, &mut rows, &h);
        }
    }
    let mut compaction_rows: Vec<CompactionRow> = Vec::new();
    if all || args.exp == "compaction" {
        println!("\n== compaction ==");
        compaction_rows = compaction::run(&h);
        compaction::print(&compaction_rows);
        compaction::summarize(&compaction_rows);
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
    let mut ingest_rows: Vec<IngestRow> = Vec::new();
    if all || args.exp == "ingest" {
        println!("\n== ingest ==");
        ingest_rows = ingest::run(&h);
        ingest::print(&ingest_rows);
        ingest::summarize(&ingest_rows);
    }
    let mut serve_rows: Vec<ServeRow> = Vec::new();
    if all || args.exp == "serve" {
        println!("\n== serve ==");
        serve_rows = serve::run(&h);
        serve::print(&serve_rows);
        serve::summarize(&serve_rows);
    }
    let mut subscribe_rows: Vec<SubscribeRow> = Vec::new();
    if all || args.exp == "subscribe" {
        println!("\n== subscribe ==");
        subscribe_rows = subscribe::run(&h);
        subscribe::print(&subscribe_rows);
        subscribe::summarize(&subscribe_rows);
    }
    let mut cardinality_out: Option<(RegistrationRow, Vec<CardinalityRow>)> = None;
    if all || args.exp == "cardinality" {
        println!("\n== cardinality ==");
        let (registration, rows) = cardinality::run(&h);
        cardinality::print(&registration, &rows);
        cardinality::summarize(&registration, &rows);
        cardinality_out = Some((registration, rows));
    }
    let mut decode_out: Option<DecodeResults> = None;
    if all || args.exp == "decode" {
        println!("\n== decode ==");
        let results = decode::run(&h);
        decode::print(&results);
        decode::summarize(&results);
        decode_out = Some(results);
    }

    if let Some(path) = &args.out {
        let meta = BenchMeta::new(&h, &EngineConfig::default());
        let (json, n) = if args.exp == "compaction" {
            let report = CompactionReport {
                meta,
                rows: compaction_rows,
            };
            (
                serde_json::to_string_pretty(&report).expect("serialize compaction report"),
                report.rows.len(),
            )
        } else if args.exp == "pages" {
            let report = PagesReport {
                meta,
                rows: pages_rows,
            };
            (
                serde_json::to_string_pretty(&report).expect("serialize pages report"),
                report.rows.len(),
            )
        } else if args.exp == "ingest" {
            let report = IngestReport {
                meta,
                rows: ingest_rows,
            };
            (
                serde_json::to_string_pretty(&report).expect("serialize ingest report"),
                report.rows.len(),
            )
        } else if args.exp == "serve" {
            let report = ServeReport {
                meta,
                rows: serve_rows,
            };
            (
                serde_json::to_string_pretty(&report).expect("serialize serve report"),
                report.rows.len(),
            )
        } else if args.exp == "subscribe" {
            let report = SubscribeReport {
                meta,
                rows: subscribe_rows,
            };
            (
                serde_json::to_string_pretty(&report).expect("serialize subscribe report"),
                report.rows.len(),
            )
        } else if args.exp == "cardinality" {
            let (registration, card_rows) = cardinality_out.take().expect("cardinality ran");
            let report = CardinalityReport {
                meta,
                registration,
                rows: card_rows,
                hot_path_string_free: cardinality::hot_path_string_free(),
            };
            (
                serde_json::to_string_pretty(&report).expect("serialize cardinality report"),
                report.rows.len(),
            )
        } else if args.exp == "decode" {
            let DecodeResults {
                rows,
                crc32,
                memtable,
                pool,
            } = decode_out.take().expect("decode experiment ran");
            let report = DecodeReport {
                meta,
                rows,
                crc32,
                memtable,
                pool,
            };
            (
                serde_json::to_string_pretty(&report).expect("serialize decode report"),
                report.rows.len(),
            )
        } else {
            if !compaction_rows.is_empty() {
                println!(
                    "\nnote: compaction rows are only serialized by `--exp compaction --out ...`"
                );
            }
            if !pages_rows.is_empty() {
                println!("\nnote: pages rows are only serialized by `--exp pages --out ...`");
            }
            if !ingest_rows.is_empty() {
                println!("\nnote: ingest rows are only serialized by `--exp ingest --out ...`");
            }
            if !serve_rows.is_empty() {
                println!("\nnote: serve rows are only serialized by `--exp serve --out ...`");
            }
            if !subscribe_rows.is_empty() {
                println!(
                    "\nnote: subscribe rows are only serialized by `--exp subscribe --out ...`"
                );
            }
            if decode_out.is_some() {
                println!("\nnote: decode rows are only serialized by `--exp decode --out ...`");
            }
            if cardinality_out.is_some() {
                println!(
                    "\nnote: cardinality rows are only serialized by `--exp cardinality --out ...`"
                );
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
    if name == "parallel" {
        summarize_parallel(rows);
        return;
    }
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

/// Headline numbers for the parallel read path: cold fan-out speedup,
/// warm-cache decode reduction, and single-thread cache overhead.
fn summarize_parallel(rows: &[ExpRow]) {
    let mean = |exp: &str, op: &str, threads: f64, f: &dyn Fn(&ExpRow) -> f64| {
        let v: Vec<f64> = rows
            .iter()
            .filter(|r| r.experiment == exp && r.operator == op && r.value == threads)
            .map(f)
            .collect();
        if v.is_empty() {
            f64::NAN
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let lat = |r: &ExpRow| r.latency_ms;
    let dec = |r: &ExpRow| r.points_decoded as f64;
    let cold1 = mean("par-nocache", "cold", 1.0, &lat);
    let cold4 = mean("par-nocache", "cold", 4.0, &lat);
    if cold1.is_finite() && cold4 > 0.0 {
        println!(
            "-- parallel: cold 4-thread speedup {:.2}x (1t {cold1:.2} ms / 4t {cold4:.2} ms)",
            cold1 / cold4
        );
    }
    let cold_dec = mean("par-cache", "cold", 4.0, &dec);
    let warm_dec = mean("par-cache", "warm", 4.0, &dec);
    if cold_dec.is_finite() && warm_dec.is_finite() {
        let ratio = if warm_dec > 0.0 {
            cold_dec / warm_dec
        } else {
            f64::INFINITY
        };
        println!(
            "-- parallel: warm-cache decode reduction {ratio:.1}x ({cold_dec:.0} -> {warm_dec:.0} points)"
        );
    }
    let nocache1 = mean("par-nocache", "cold", 1.0, &lat);
    let cache1 = mean("par-cache", "cold", 1.0, &lat);
    if nocache1.is_finite() && nocache1 > 0.0 && cache1.is_finite() {
        println!(
            "-- parallel: single-thread cold overhead with cache on {:+.1}%",
            (cache1 / nocache1 - 1.0) * 100.0
        );
    }
}
