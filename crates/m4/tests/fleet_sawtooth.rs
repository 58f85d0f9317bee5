//! Engine regression for the decimal block's delta frame: one
//! `ingest_fleet`-shaped series — a quarter-unit sawtooth that rises one
//! step a second and wraps every 2 000, written in 10-point batches
//! with one in ten swapped out of order, flushed every 2 000 points and
//! then compacted — stores its values as deltas, at a few bytes a page
//! where Gorilla's XOR spends about 1.4 bytes a value, or, in a chunk
//! with no wrap inside, as no bytes at all (a ramp its footer entry
//! implies, on a constant cadence: a bodiless chunk), and answers M4
//! queries exactly as `m4::oracle` does on both operators.

// Tests assert by panicking; the workspace panic-freedom deny-set
// (root Cargo.toml) is aimed at library code.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
// Test fixtures make and remove their own files.
#![allow(clippy::disallowed_methods)]

use std::collections::BTreeMap;
use std::path::Path;
use testdir::TestDir;

use m4::oracle::m4_scan;
use m4::{M4Lsm, M4Query, M4Udf};
use tsfile::encoding::packed::Framing;
use tsfile::page::ValueForm;
use tsfile::types::Point;
use tsfile::TsFileReader;
use tskv::config::EngineConfig;
use tskv::TsKv;
use workload::multiseries::MultiSeriesSpec;

/// Every data file under `dir`, recursively.
fn data_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap().flatten() {
        let path = entry.path();
        if path.is_dir() {
            data_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "tsfile") {
            out.push(path);
        }
    }
}

#[test]
fn a_fleet_sawtooth_stores_its_deltas_and_answers_m4_exactly() {
    let dir = TestDir::new("m4-fleet-sawtooth");
    let kv = TsKv::open(
        &dir,
        EngineConfig {
            memtable_threshold: 2_000,
            ..Default::default()
        },
    )
    .unwrap();
    let spec = MultiSeriesSpec {
        series_count: 1,
        zipf_s: 0.0,
        batch_points: 10,
        out_of_order_frac: 0.1,
        seed: 7,
    };
    let mut model: BTreeMap<i64, f64> = BTreeMap::new();
    let mut swapped = 0;
    for (_, batch) in spec.plan(3_000) {
        if model.last_key_value().is_some_and(|(&t, _)| batch[0].t < t) {
            swapped += 1;
        }
        kv.insert_batch("fleet", &batch).unwrap();
        model.extend(batch.iter().map(|p| (p.t, p.v)));
    }
    assert!(swapped > 100, "{swapped} batches arrived out of order");
    kv.flush("fleet").unwrap();
    kv.compact("fleet").unwrap();

    let mut files = Vec::new();
    data_files(&dir, &mut files);
    let bytes: u64 = files
        .iter()
        .map(|p| std::fs::metadata(p).unwrap().len())
        .sum();
    let per_point = bytes as f64 / model.len() as f64;
    // 482 B for 30 000 points (0.0161 B/point).
    assert!(
        per_point < 0.02,
        "{bytes} bytes of data files for {} points: {per_point:.3} B/point",
        model.len()
    );
    // Every chunk's values are a decimal block in the delta frame, or
    // a ramp its footer entry implies (a chunk with no wrap inside).
    let (mut pages, mut implied) = (0, 0);
    for path in &files {
        let reader = TsFileReader::open(path).unwrap();
        for meta in reader.chunk_metas() {
            let body = reader.read_chunk_raw(meta).unwrap();
            let framing = tsfile::page::framings(&body).unwrap()[1];
            let values = tsfile::page::forms(&body).unwrap().values;
            let decimal_delta = values == ValueForm::Decimal && framing == Some(Framing::Delta);
            assert!(
                decimal_delta || values == ValueForm::Implied,
                "chunk at t={}: {values:?}, {framing:?}",
                meta.stats.first.t
            );
            implied += usize::from(values == ValueForm::Implied);
            pages += 1;
        }
    }
    assert!(pages >= 30, "{pages} chunks");
    assert!(implied >= 1, "no chunk of {pages} implied its values");

    let live: Vec<Point> = model.iter().map(|(&t, &v)| Point::new(t, v)).collect();
    let (first, last) = (live[0].t, live[live.len() - 1].t);
    let snap = kv.snapshot("fleet").unwrap();
    for (qs, qe, w) in [
        (first, last + 1, 1),
        (first, last + 1, 100),
        (first + 1_234_567, first + 9_876_543, 37),
        (first - 5_000, first + 2_500_000, 1_000),
    ] {
        let query = M4Query::new(qs, qe, w).unwrap();
        let expected = m4_scan(&live, &query);
        let udf = M4Udf::new().execute(&snap, &query).unwrap();
        assert!(udf.equivalent(&expected), "M4-UDF deviates on {query:?}");
        let lsm = M4Lsm::new().execute(&snap, &query).unwrap();
        assert!(lsm.equivalent(&expected), "M4-LSM deviates on {query:?}");
    }
    drop(kv);
}
