//! M4-LSM's decisions in counters the decoded-chunk cache cannot move.
//!
//! `claim_counters`-shaped stores (two `workload::Dataset` analogues,
//! 256-point chunks, 30 % overlap, random deletes, an unflushed
//! memtable tail) are queried at `w` ∈ {4, 100, 1000}: once with the
//! cache off, and once with a warm 16 MiB cache (each query run before
//! it is measured). Per query, the loads the operator asked for
//! (`cache_hits + cache_misses`), the spans it folded and executed, the
//! points it took from the loaders and the probes it issued are equal in
//! both runs, and so is every other counter but the three that say what
//! the cache saved: `chunks_loaded`, `pages_decoded`, `points_decoded`
//! (and the `bytes_read` those loads read).

// Tests assert by panicking; the workspace panic-freedom deny-set
// (root Cargo.toml) is aimed at library code.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]
// Test fixtures make, corrupt and remove their own files.
#![allow(clippy::disallowed_methods)]

use std::path::Path;
use testdir::TestDir;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tskv::config::EngineConfig;
use tskv::stats::IoSnapshot;
use tskv::{FsyncPolicy, TsKv};
use workload::{apply_random_deletes, load_with_overlap, Dataset};

use m4::{M4Lsm, M4Query};

const POINTS: usize = 12_000;
const TAIL: usize = 300;

fn open(dir: &Path, cache_capacity_bytes: u64) -> TsKv {
    let config = EngineConfig {
        points_per_chunk: 256,
        memtable_threshold: 1_024,
        cache_capacity_bytes,
        fsync_policy: FsyncPolicy::Never,
        ..Default::default()
    };
    TsKv::open(dir, config).unwrap()
}

/// Each query's counters, in order, over every series of the store.
fn census(kv: &TsKv, queries: &[(String, M4Query)], warm: bool) -> Vec<IoSnapshot> {
    queries
        .iter()
        .map(|(series, query)| {
            let snap = kv.snapshot(series).unwrap();
            if warm {
                M4Lsm::new().execute(&snap, query).unwrap();
            }
            let before = snap.io().snapshot();
            M4Lsm::new().execute(&snap, query).unwrap();
            snap.io().snapshot() - before
        })
        .collect()
}

/// What is left of a query's counters once what the cache saved is
/// taken out: the operator's decisions.
fn decisions(d: &IoSnapshot) -> IoSnapshot {
    IoSnapshot {
        chunks_loaded: 0,
        pages_decoded: 0,
        points_decoded: 0,
        bytes_read: 0,
        cache_hits: d.cache_hits + d.cache_misses,
        cache_misses: 0,
        pool_hits: 0,
        pool_misses: 0,
        ..*d
    }
}

#[test]
fn the_cache_moves_no_decision_counter() {
    let dir = TestDir::new("m4-decisions");
    let mut queries = Vec::new();
    {
        let kv = open(&dir, 0);
        for dataset in [Dataset::ALL[0], Dataset::ALL[1]] {
            let spec = dataset.spec();
            let all = dataset.generate(POINTS as f64 / spec.points as f64);
            let (sealed, tail) = all.split_at(all.len() - TAIL);
            let (t_qs, t_qe) = (all[0].t, all[all.len() - 1].t + 1);
            let series = dataset.name().to_string();
            let mut rng = StdRng::seed_from_u64(7);
            load_with_overlap(&kv, &series, sealed, 0.3, &mut rng).unwrap();
            kv.insert_batch(&series, tail).unwrap();
            apply_random_deletes(&kv, &series, 6, (t_qe - t_qs) / 100, t_qs, t_qe, &mut rng)
                .unwrap();
            for w in [4, 100, 1000] {
                queries.push((series.clone(), M4Query::new(t_qs, t_qe, w).unwrap()));
            }
        }
    }
    let cold = census(&open(&dir, 0), &queries, false);
    let warm = census(&open(&dir, 16 << 20), &queries, true);
    for ((series, query), (cold, warm)) in queries.iter().zip(cold.iter().zip(&warm)) {
        let cell = format!("{series} w {}", query.w);
        assert_eq!(decisions(cold), decisions(warm), "{cell}");
        assert_eq!(cold.cache_hits, 0, "{cell}");
        assert!(
            cold.lsm_points_consumed > 0 && cold.lsm_probes > 0,
            "{cell}: {cold:?}"
        );
        // Warm, every load is a hit: no page decoded, and only the
        // memtable tail's points.
        assert!(
            warm.cache_misses == 0 && warm.pages_decoded == 0,
            "{cell}: {warm:?}"
        );
        assert!(
            warm.points_decoded < cold.points_decoded,
            "{cell}: {warm:?}"
        );
    }
}
