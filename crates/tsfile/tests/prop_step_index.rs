//! Property tests for the step-regression model: on ANY strictly
//! increasing timestamp column the three Table 1 operations must agree
//! exactly with binary search, and the learned model must respect its
//! own verified error bound.

// Tests assert by panicking; the workspace panic-freedom deny-set
// (root Cargo.toml) is aimed at library code.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use proptest::prelude::*;
use tsfile::index::{binary_search_ops, StepIndex};

/// Strategy: build a strictly increasing timestamp vector from segments
/// of regular cadence with occasional gaps and jitter — the realistic
/// shapes — plus completely arbitrary deltas as a worst case.
fn gappy_timestamps() -> impl Strategy<Value = Vec<i64>> {
    (
        1_000_000_000i64..2_000_000_000_000,
        1i64..10_000,
        prop::collection::vec((1usize..200, 0i64..1_000_000, 0i64..20), 1..8),
    )
        .prop_map(|(start, delta, segments)| {
            let mut ts = Vec::new();
            let mut t = start;
            for (run, gap, jitter_mod) in segments {
                for _ in 0..run {
                    ts.push(t);
                    let jitter = if jitter_mod > 0 { t % jitter_mod } else { 0 };
                    t += delta + jitter;
                }
                t += gap;
            }
            ts
        })
}

fn arbitrary_increasing() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(1i64..1_000_000, 2..300).prop_map(|deltas| {
        let mut t = 0i64;
        deltas
            .into_iter()
            .map(|d| {
                t += d;
                t
            })
            .collect()
    })
}

fn check_ops(
    ts: &[i64],
    idx: &StepIndex,
    probes: impl Iterator<Item = i64>,
) -> Result<(), TestCaseError> {
    for t in probes {
        prop_assert_eq!(
            idx.exists_at(ts, t),
            binary_search_ops::exists_at(ts, t),
            "exists_at({})",
            t
        );
        prop_assert_eq!(
            idx.first_after(ts, t),
            binary_search_ops::first_after(ts, t),
            "first_after({})",
            t
        );
        prop_assert_eq!(
            idx.last_before(ts, t),
            binary_search_ops::last_before(ts, t),
            "last_before({})",
            t
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ops_match_binary_search_on_gappy(ts in gappy_timestamps()) {
        let Some(idx) = StepIndex::learn(&ts) else { return Ok(()) };
        let probes = ts
            .iter()
            .copied()
            .step_by(7)
            .chain(ts.iter().step_by(11).map(|t| t + 1))
            .chain(ts.iter().step_by(13).map(|t| t - 1))
            .chain([ts[0] - 10_000, ts[ts.len() - 1] + 10_000]);
        check_ops(&ts, &idx, probes)?;
    }

    #[test]
    fn ops_match_binary_search_on_arbitrary(ts in arbitrary_increasing()) {
        let Some(idx) = StepIndex::learn(&ts) else { return Ok(()) };
        let probes = ts
            .iter()
            .copied()
            .chain(ts.iter().map(|t| t + 1))
            .chain([0, ts[ts.len() - 1] + 1]);
        check_ops(&ts, &idx, probes)?;
    }

    #[test]
    fn epsilon_bound_holds(ts in gappy_timestamps()) {
        let Some(idx) = StepIndex::learn(&ts) else { return Ok(()) };
        for (i, &t) in ts.iter().enumerate() {
            let err = (idx.predict(t) - (i + 1) as f64).abs();
            prop_assert!(
                err <= idx.epsilon() as f64 + 1e-9,
                "position {} err {} > ε {}", i, err, idx.epsilon()
            );
        }
    }
}
