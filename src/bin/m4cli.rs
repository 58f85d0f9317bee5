//! `m4cli` — command-line client for the m4-lsm store.
//!
//! ```text
//! m4cli ingest <store> <series> <csv>     # CSV rows: timestamp_ms,value
//! m4cli list   <store>                    # series and their stats
//! m4cli query  <store> "<SQL>" [--w N --tqs T --tqe T] [--udf]
//! m4cli render <store> <series> <out.pbm> [--width N --height N]
//! m4cli compact <store> <series>
//! m4cli delete <store> <series> <t_start> <t_end>
//! ```
//!
//! The SQL dialect is the paper's Appendix A.1 statement (see
//! `m4::sql`); `--w/--tqs/--tqe` bind the `@w/@tqs/@tqe` parameters.

use std::io::BufRead;
use std::process::ExitCode;

use m4lsm::m4::render::{render_m4, value_range, PixelMap};
use m4lsm::m4::sql::{execute, M4Statement, Params};
use m4lsm::m4::{M4Lsm, M4Query, Operator};
use m4lsm::tsfile::types::Point;
use m4lsm::tskv::config::EngineConfig;
use m4lsm::tskv::readers::MergeReader;
use m4lsm::tskv::TsKv;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn usage() -> String {
    "usage: m4cli <ingest|list|query|render|compact|delete> <store> [...]\n\
     \n  ingest <store> <series> <csv-file>\
     \n  list <store>\
     \n  query <store> \"<SQL>\" [--w N] [--tqs T] [--tqe T] [--udf]\
     \n  render <store> <series> <out.pbm> [--width N] [--height N]\
     \n  compact <store> <series>\
     \n  delete <store> <series> <t_start> <t_end>"
        .to_string()
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().ok_or_else(usage)?;
    let store = args.get(1).ok_or_else(usage)?;
    let kv = TsKv::open(store, EngineConfig::default())?;
    match cmd.as_str() {
        "ingest" => {
            let series = args.get(2).ok_or_else(usage)?;
            let csv = args.get(3).ok_or_else(usage)?;
            let file = std::fs::File::open(csv)?;
            let mut batch = Vec::with_capacity(10_000);
            let mut total = 0usize;
            let mut skipped = 0usize;
            for line in std::io::BufReader::new(file).lines() {
                let line = line?;
                let trimmed = line.trim();
                if trimmed.is_empty() || trimmed.starts_with('#') {
                    continue;
                }
                let mut cols = trimmed.split(',');
                let parsed = (|| {
                    let t: i64 = cols.next()?.trim().parse().ok()?;
                    let v: f64 = cols.next()?.trim().parse().ok()?;
                    Some(Point::new(t, v))
                })();
                match parsed {
                    Some(p) => {
                        batch.push(p);
                        if batch.len() == 10_000 {
                            kv.insert_batch(series, &batch)?;
                            total += batch.len();
                            batch.clear();
                        }
                    }
                    None => skipped += 1,
                }
            }
            kv.insert_batch(series, &batch)?;
            total += batch.len();
            kv.flush(series)?;
            println!("ingested {total} points into {series} ({skipped} malformed lines skipped)");
        }
        "list" => {
            for name in kv.series_names() {
                let snap = kv.snapshot(&name)?;
                let chunks = snap.chunks();
                let range = chunks.iter().map(|c| c.time_range()).reduce(|a, b| {
                    tsfile::types::TimeRange::new(a.start.min(b.start), a.end.max(b.end))
                });
                match range {
                    Some(r) => println!(
                        "{name}: {} chunks, {} raw points, t ∈ {r}, {} deletes pending",
                        chunks.len(),
                        snap.raw_point_count(),
                        snap.deletes().len()
                    ),
                    None => println!("{name}: empty"),
                }
            }
        }
        "query" => {
            let sql = args.get(2).ok_or_else(usage)?;
            let mut params = Params::new();
            let mut op = Operator::Lsm;
            let mut it = args[3..].iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--w" => {
                        params.set("w", it.next().ok_or("--w needs a value")?.parse()?);
                    }
                    "--tqs" => {
                        params.set("tqs", it.next().ok_or("--tqs needs a value")?.parse()?);
                    }
                    "--tqe" => {
                        params.set("tqe", it.next().ok_or("--tqe needs a value")?.parse()?);
                    }
                    "--udf" => op = Operator::Udf,
                    other => return Err(format!("unknown flag {other}").into()),
                }
            }
            let stmt = M4Statement::parse(sql)?;
            let t = std::time::Instant::now();
            let table = execute(&kv, &stmt, &params, op)?;
            let elapsed = t.elapsed();
            print!("{}", table.to_text());
            println!("{} rows in {elapsed:?}", table.rows.len());
        }
        "render" => {
            let series = args.get(2).ok_or_else(usage)?;
            let out = args.get(3).ok_or_else(usage)?;
            let mut width = 1000usize;
            let mut height = 500usize;
            let mut it = args[4..].iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--width" => width = it.next().ok_or("--width needs a value")?.parse()?,
                    "--height" => height = it.next().ok_or("--height needs a value")?.parse()?,
                    other => return Err(format!("unknown flag {other}").into()),
                }
            }
            let snap = kv.snapshot(series)?;
            let chunks = snap.chunks();
            let (t0, t1) = chunks
                .iter()
                .map(|c| c.time_range())
                .fold(None::<(i64, i64)>, |acc, r| {
                    Some(match acc {
                        None => (r.start, r.end),
                        Some((a, b)) => (a.min(r.start), b.max(r.end)),
                    })
                })
                .ok_or("series is empty")?;
            let query = M4Query::new(t0, t1 + 1, width)?;
            let result = M4Lsm::new().execute(&snap, &query)?;
            let merged = MergeReader::with_range(&snap, query.full_range()).collect_merged()?;
            let (vmin, vmax) = value_range(&merged).ok_or("series is empty")?;
            let map = PixelMap::new(&query, vmin, vmax, width, height);
            let canvas = render_m4(&result, &map)?;
            canvas.write_pbm(std::fs::File::create(out)?)?;
            println!(
                "wrote {width}x{height} chart to {out} ({} set pixels)",
                canvas.set_pixels()
            );
        }
        "compact" => {
            let series = args.get(2).ok_or_else(usage)?;
            let report = kv.compact(series)?;
            println!(
                "compacted {series}: {} files removed, {} chunks merged, {} points written, {} deletes applied",
                report.files_removed, report.chunks_merged, report.points_written, report.deletes_applied
            );
        }
        "delete" => {
            let series = args.get(2).ok_or_else(usage)?;
            let t0: i64 = args.get(3).ok_or_else(usage)?.parse()?;
            let t1: i64 = args.get(4).ok_or_else(usage)?.parse()?;
            kv.delete(series, t0, t1)?;
            println!("deleted [{t0}, {t1}] from {series}");
        }
        _ => return Err(usage().into()),
    }
    Ok(())
}
