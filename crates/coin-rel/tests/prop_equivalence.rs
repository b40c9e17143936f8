//! Equivalence of the hash-based `Distinct` against its forced external-sort
//! path, and the boundaries of its spill fallback. The comparisons against
//! the pre-optimization join and aggregation baselines live beside those
//! baselines, in the bench crate's suite of the same name.

use coin_rel::exec::{drain, Distinct, ValuesScan};
use coin_rel::tempstore::{cmp_rows, TempStore};
use coin_rel::{ColumnType, Row, Schema, Value};
use proptest::prelude::*;

/// Values drawn to force collisions: overlapping ints and int-valued
/// floats (`Int(2)` must key-match `Float(2.0)`), NULLs, short strings.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-4i64..4).prop_map(Value::Int),
        (-4i32..4).prop_map(|i| Value::Float(f64::from(i))),
        (-2i32..2).prop_map(|i| Value::Float(f64::from(i) + 0.5)),
        prop_oneof![Just(""), Just("a"), Just("ab"), Just("b")].prop_map(Value::str),
    ]
}

fn arb_rows(width: usize, max: usize) -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(prop::collection::vec(arb_value(), width..=width), 0..max)
}

fn scan(rows: Vec<Row>) -> coin_rel::BoxOp {
    let schema = Schema::of(&[("a", ColumnType::Any), ("b", ColumnType::Any)]);
    Box::new(ValuesScan::new(schema, rows))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96,
        // CI determinism: never read or write regression files.
        failure_persistence: None,
        ..ProptestConfig::default()
    })]

    /// Hash distinct == forced-sort distinct (the pre-PR path), including
    /// output order; and a mid-stream spill threshold changes nothing.
    #[test]
    fn hash_distinct_equals_sort_distinct(rows in arb_rows(2, 30), threshold in 0usize..8) {
        let hash = Distinct::new(scan(rows.clone()), TempStore::new());
        let new = drain(Box::new(hash)).unwrap();
        let sort = Distinct::new(scan(rows.clone()), TempStore::new()).with_spill_threshold(0);
        let old = drain(Box::new(sort)).unwrap();
        prop_assert_eq!(&new, &old);

        // Any threshold — including ones that flip to the sort path midway
        // through the input — must produce the identical result.
        let mid = Distinct::new(scan(rows), TempStore::new()).with_spill_threshold(threshold);
        let via_threshold = drain(Box::new(mid)).unwrap();
        prop_assert_eq!(&new, &via_threshold);
    }
}

// ---------------------------------------------------------------------------
// Spill-threshold boundary tests for the hash-distinct fallback
// ---------------------------------------------------------------------------

/// `n` rows with exactly `distinct` distinct values in column 0.
fn rows_with_distinct(n: usize, distinct: usize) -> Vec<Row> {
    (0..n)
        .map(|i| vec![Value::Int((i % distinct) as i64), Value::Int(0)])
        .collect()
}

fn run_distinct(rows: Vec<Row>, threshold: usize) -> (Vec<Row>, bool) {
    let mut d = Distinct::new(scan(rows), TempStore::new()).with_spill_threshold(threshold);
    let mut out = Vec::new();
    while let Some(r) = d.next().unwrap() {
        out.push(r);
    }
    (out, d.spilled())
}

use coin_rel::exec::Operator;

#[test]
fn distinct_set_exactly_at_threshold_stays_in_memory() {
    // 8 distinct rows, threshold 8: the 8th insert fills the set to the
    // bound but never exceeds it — no fallback.
    let (out, spilled) = run_distinct(rows_with_distinct(64, 8), 8);
    assert_eq!(out.len(), 8);
    assert!(!spilled, "at-threshold set must not spill");
}

#[test]
fn one_past_threshold_falls_back_to_sort() {
    // 9 distinct rows, threshold 8: the 9th *new* row trips the fallback.
    let (out, spilled) = run_distinct(rows_with_distinct(64, 9), 8);
    assert_eq!(out.len(), 9);
    assert!(spilled, "crossing the threshold must fall back");
    // Same answer as the pure in-memory path.
    let (want, _) = run_distinct(rows_with_distinct(64, 9), usize::MAX);
    assert_eq!(out, want);
}

#[test]
fn duplicates_never_count_toward_threshold() {
    // 1000 input rows but only 4 distinct: far under threshold, no spill.
    let (out, spilled) = run_distinct(rows_with_distinct(1000, 4), 8);
    assert_eq!(out.len(), 4);
    assert!(!spilled);
}

#[test]
fn threshold_zero_is_the_pure_sort_path() {
    let (out, spilled) = run_distinct(rows_with_distinct(16, 5), 0);
    assert_eq!(out.len(), 5);
    assert!(spilled);
}

#[test]
fn output_is_sorted_in_both_modes() {
    let key: Vec<(usize, bool)> = vec![(0, false), (1, false)];
    for threshold in [0usize, 3, usize::MAX] {
        let (out, _) = run_distinct(rows_with_distinct(40, 7), threshold);
        for w in out.windows(2) {
            assert_ne!(
                cmp_rows(&w[0], &w[1], &key),
                std::cmp::Ordering::Greater,
                "unsorted output at threshold {threshold}"
            );
        }
    }
}

#[test]
fn spill_fallback_does_not_respill_the_dedup_set() {
    // Regression: the fallback used to re-push the already-deduplicated
    // set through the external sorter, re-sorting it and writing it to
    // disk a second time — spill accounting double-counted rows the hash
    // phase had already paid for. The set is now handed over as one
    // pre-sorted in-memory run, so only the *tail* of the input can reach
    // disk.
    let threshold = 50;
    let run_capacity = 64;
    let n = 1001; // 50 distinct head rows, 951-row tail after the trip
    let distinct = 100;
    let rows = rows_with_distinct(n, distinct);
    let tail = (n - threshold) as u64;

    let store = TempStore::new();
    let mut d = Distinct::new(scan(rows), store.clone())
        .with_spill_threshold(threshold)
        .with_run_capacity(run_capacity);
    let mut out = Vec::new();
    while let Some(r) = d.next().unwrap() {
        out.push(r);
    }
    let delta = store.spill_stats();

    assert!(d.spilled(), "fallback path must run");
    assert_eq!(out.len(), distinct);
    assert!(delta.rows_spilled > 0, "tail must exercise the disk path");
    // The dedup set never hits disk: with the old double-push the head
    // would be spilled too and this bound would be exceeded.
    assert!(
        delta.rows_spilled <= tail,
        "spilled {} rows but the tail is only {tail} — the dedup set was re-spilled",
        delta.rows_spilled
    );
    // Same answer as the pure hash path.
    let (want, _) = run_distinct(rows_with_distinct(n, distinct), usize::MAX);
    assert_eq!(out, want);
}
