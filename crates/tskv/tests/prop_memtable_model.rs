//! `MemTable` (append run + late-point overlay) against the plain
//! `BTreeMap` it replaced.
//!
//! Random histories of in-order appends, overwrites, late inserts,
//! `insert_if_absent`, bulk `extend`, `delete_range`, `to_points` and
//! `drain_sorted` run against both; after every step the return value,
//! `len`, `is_empty`, `time_range` and the full contents agree. Keys
//! are drawn from a narrow range so overwrites, late points and deletes
//! that cut the run's tail back below late points all happen often.

// Tests assert by panicking; the workspace panic-freedom deny-set
// (root Cargo.toml) is aimed at library code.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::BTreeMap;

use proptest::prelude::*;
use tsfile::types::{Point, TimeRange};
use tskv::memtable::MemTable;

#[derive(Debug, Clone)]
enum Op {
    /// Insert `gap` past the current maximum (the in-order case).
    Append(u8, i8),
    /// Insert anywhere: overwrites and late points.
    Insert(u8, i8),
    InsertIfAbsent(u8, i8),
    /// Bulk insert, any order, duplicates allowed.
    Extend(Vec<(u8, i8)>),
    /// Bulk insert of a sorted run starting `gap` past the maximum.
    ExtendPastTail(u8, Vec<(u8, i8)>),
    Delete(u8, u8),
    Drain,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let pairs = || prop::collection::vec((any::<u8>(), any::<i8>()), 0..12);
    prop_oneof![
        4 => (1u8..4, any::<i8>()).prop_map(|(gap, v)| Op::Append(gap, v)),
        4 => (any::<u8>(), any::<i8>()).prop_map(|(t, v)| Op::Insert(t, v)),
        2 => (any::<u8>(), any::<i8>()).prop_map(|(t, v)| Op::InsertIfAbsent(t, v)),
        2 => pairs().prop_map(Op::Extend),
        2 => (1u8..4, pairs()).prop_map(|(gap, run)| Op::ExtendPastTail(gap, run)),
        2 => (any::<u8>(), 0u8..40).prop_map(|(lo, len)| Op::Delete(lo, len)),
        1 => (0u8..1).prop_map(|_| Op::Drain),
    ]
}

type Model = BTreeMap<i64, f64>;

fn model_points(model: &Model) -> Vec<Point> {
    model.iter().map(|(&t, &v)| Point::new(t, v)).collect()
}

fn past_max(model: &Model, gap: u8) -> i64 {
    model
        .keys()
        .next_back()
        .map_or(0, |&max| max + i64::from(gap))
}

/// Apply `op` to both; the return values must agree.
fn step(mem: &mut MemTable, model: &mut Model, op: &Op) -> Result<(), TestCaseError> {
    match op {
        Op::Append(gap, v) => {
            let p = Point::new(past_max(model, *gap), f64::from(*v));
            prop_assert_eq!(mem.insert(p), model.insert(p.t, p.v).is_none());
        }
        Op::Insert(t, v) => {
            let p = Point::new(i64::from(*t), f64::from(*v));
            prop_assert_eq!(mem.insert(p), model.insert(p.t, p.v).is_none());
        }
        Op::InsertIfAbsent(t, v) => {
            let p = Point::new(i64::from(*t), f64::from(*v));
            let absent = !model.contains_key(&p.t);
            if absent {
                model.insert(p.t, p.v);
            }
            prop_assert_eq!(mem.insert_if_absent(p), absent);
        }
        Op::Extend(pairs) => {
            let batch: Vec<Point> = pairs
                .iter()
                .map(|&(t, v)| Point::new(i64::from(t), f64::from(v)))
                .collect();
            mem.extend(&batch);
            model.extend(batch.iter().map(|p| (p.t, p.v)));
        }
        Op::ExtendPastTail(gap, pairs) => {
            let mut t = past_max(model, *gap);
            let mut batch = Vec::new();
            for &(step, v) in pairs {
                batch.push(Point::new(t, f64::from(v)));
                t += 1 + i64::from(step % 3);
            }
            mem.extend(&batch);
            model.extend(batch.iter().map(|p| (p.t, p.v)));
        }
        Op::Delete(lo, len) => {
            let range = TimeRange::new(i64::from(*lo), i64::from(*lo) + i64::from(*len));
            let doomed: Vec<i64> = model
                .range(range.start..=range.end)
                .map(|(&t, _)| t)
                .collect();
            for t in &doomed {
                model.remove(t);
            }
            prop_assert_eq!(mem.delete_range(range), doomed.len());
        }
        Op::Drain => {
            prop_assert_eq!(mem.drain_sorted(), model_points(model));
            model.clear();
        }
    }
    Ok(())
}

fn check_equal(mem: &MemTable, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(mem.len(), model.len());
    prop_assert_eq!(mem.is_empty(), model.is_empty());
    let range = model
        .keys()
        .next()
        .zip(model.keys().next_back())
        .map(|(&first, &last)| TimeRange::new(first, last));
    prop_assert_eq!(mem.time_range(), range);
    prop_assert_eq!(mem.to_points(), model_points(model));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_histories_match_the_btreemap_model(
        ops in prop::collection::vec(op_strategy(), 1..80),
    ) {
        let mut mem = MemTable::new();
        let mut model = Model::new();
        for op in &ops {
            step(&mut mem, &mut model, op)?;
            check_equal(&mem, &model)?;
        }
        prop_assert_eq!(mem.drain_sorted(), model_points(&model));
        prop_assert!(mem.is_empty());
        prop_assert_eq!(mem.time_range(), None);
    }
}

#[test]
fn reverse_order_input_is_sorted_and_counted_once() {
    let descending: Vec<Point> = (0..500i64).rev().map(|t| Point::new(t, t as f64)).collect();
    let mut one_by_one = MemTable::new();
    for p in &descending {
        assert!(one_by_one.insert(*p));
    }
    let mut bulk = MemTable::new();
    bulk.extend(&descending);
    let ascending: Vec<Point> = descending.iter().rev().copied().collect();
    for mut mem in [one_by_one, bulk] {
        assert_eq!(mem.len(), 500);
        assert_eq!(mem.time_range(), Some(TimeRange::new(0, 499)));
        assert_eq!(mem.to_points(), ascending);
        assert_eq!(mem.drain_sorted(), ascending);
    }
}

#[test]
fn all_duplicate_input_keeps_one_point_with_the_last_value() {
    let same: Vec<Point> = (0..300).map(|i| Point::new(42, f64::from(i))).collect();
    let mut mem = MemTable::new();
    mem.extend(&same);
    assert!(!mem.insert(Point::new(42, 1_000.0)));
    assert!(!mem.insert_if_absent(Point::new(42, -1.0)));
    assert_eq!(mem.len(), 1);
    assert_eq!(mem.time_range(), Some(TimeRange::new(42, 42)));
    assert_eq!(mem.to_points(), vec![Point::new(42, 1_000.0)]);
}
