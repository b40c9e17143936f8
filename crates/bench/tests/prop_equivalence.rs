//! Equivalence of the allocation-lean hot-path operators against their
//! pre-optimization baselines ([`coin_bench::reference`]): the same seeded
//! inputs flow through the new hash-based join/aggregate and the legacy
//! implementations (nested loop, string-keyed hash join, BTreeMap
//! aggregation), and the results must be identical multisets — in fact
//! identical sequences wherever both sides define an output order.
//!
//! The file keeps the name it had beside the operators in coin-rel, so
//! every property keeps its name-derived seed.

use coin_bench::reference::{BTreeAggregate, StringKeyHashJoin};
use coin_rel::exec::{drain, AggFn, AggSpec, Aggregate, HashJoin, NestedLoopJoin, ValuesScan};
use coin_rel::expr::CExpr;
use coin_rel::tempstore::cmp_rows;
use coin_rel::{ColumnType, Row, Schema, Value};
use coin_sql::BinOp;
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

/// Rows whose second column is NULL or numeric — valid SUM/AVG input.
fn arb_agg_rows(max: usize) -> impl Strategy<Value = Vec<Row>> {
    let measure = prop_oneof![
        Just(Value::Null),
        (-20i64..20).prop_map(Value::Int),
        (-4i32..4).prop_map(|i| Value::Float(f64::from(i) + 0.25)),
    ];
    prop::collection::vec((arb_value(), measure), 0..max)
        .prop_map(|pairs| pairs.into_iter().map(|(k, v)| vec![k, v]).collect())
}

fn scan(rows: Vec<Row>) -> coin_rel::BoxOp {
    let schema = Schema::of(&[("a", ColumnType::Any), ("b", ColumnType::Any)]);
    Box::new(ValuesScan::new(schema, rows))
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    let width = rows.first().map_or(0, Vec::len);
    let key: Vec<(usize, bool)> = (0..width).map(|i| (i, false)).collect();
    rows.sort_by(|a, b| cmp_rows(a, b, &key));
    rows
}

fn count_sum_specs() -> Vec<AggSpec> {
    vec![
        AggSpec {
            f: AggFn::CountStar,
            arg: None,
        },
        AggSpec {
            f: AggFn::Sum,
            arg: Some(CExpr::Col(1)),
        },
        AggSpec {
            f: AggFn::Min,
            arg: Some(CExpr::Col(1)),
        },
        AggSpec {
            f: AggFn::Max,
            arg: Some(CExpr::Col(1)),
        },
    ]
}

fn agg_schema() -> Schema {
    Schema::of(&[
        ("k", ColumnType::Any),
        ("n", ColumnType::Int),
        ("s", ColumnType::Any),
        ("lo", ColumnType::Any),
        ("hi", ColumnType::Any),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96,
        // CI determinism: never read or write regression files.
        failure_persistence: None,
        ..ProptestConfig::default()
    })]

    /// Direct-hash join == string-keyed hash join == nested loop with an
    /// `=` predicate, as multisets.
    #[test]
    fn hash_join_equals_both_baselines(l in arb_rows(2, 14), r in arb_rows(2, 14)) {
        let hj = HashJoin::new(scan(l.clone()), scan(r.clone()), vec![0], vec![0], None);
        let new = sorted(drain(Box::new(hj)).unwrap());

        let legacy = StringKeyHashJoin::new(
            scan(l.clone()), scan(r.clone()), vec![0], vec![0], None);
        let old = sorted(drain(Box::new(legacy)).unwrap());
        prop_assert_eq!(&new, &old);

        let pred = CExpr::Cmp(Box::new(CExpr::Col(0)), BinOp::Eq, Box::new(CExpr::Col(2)));
        let nl = NestedLoopJoin::new(scan(l), scan(r), Some(pred));
        let nested = sorted(drain(Box::new(nl)).unwrap());
        prop_assert_eq!(&new, &nested);
    }

    /// Two-column keys and a residual predicate.
    #[test]
    fn multi_key_join_with_residual(l in arb_rows(2, 14), r in arb_rows(2, 14)) {
        // Residual over the combined row: b (col 1) < b' (col 3) — any
        // non-trivial predicate exercises the post-match path.
        let residual = || Some(CExpr::Cmp(
            Box::new(CExpr::Col(1)), BinOp::Lt, Box::new(CExpr::Col(3))));
        let hj = HashJoin::new(
            scan(l.clone()), scan(r.clone()), vec![0, 1], vec![0, 1], residual());
        let new = sorted(drain(Box::new(hj)).unwrap());
        let legacy = StringKeyHashJoin::new(
            scan(l), scan(r), vec![0, 1], vec![0, 1], residual());
        let old = sorted(drain(Box::new(legacy)).unwrap());
        prop_assert_eq!(new, old);
    }

    /// Hash aggregation == BTreeMap aggregation, including output order
    /// (both sort group keys).
    #[test]
    fn hash_aggregate_equals_btree(rows in arb_agg_rows(30)) {
        let agg = Aggregate::new(
            scan(rows.clone()), vec![CExpr::Col(0)], count_sum_specs(), agg_schema());
        let new = drain(Box::new(agg)).unwrap();
        let legacy = BTreeAggregate::new(
            scan(rows), vec![CExpr::Col(0)], count_sum_specs(), agg_schema());
        let old = drain(Box::new(legacy)).unwrap();
        prop_assert_eq!(new, old);
    }

    /// Multi-column grouping (NULL groups with NULL, Int(2) with
    /// Float(2.0)) and global aggregation over possibly-empty inputs.
    #[test]
    fn grouping_variants_agree(rows in arb_agg_rows(30)) {
        // Two-column key.
        let schema = Schema::of(&[
            ("k1", ColumnType::Any), ("k2", ColumnType::Any), ("n", ColumnType::Int)]);
        let specs = || vec![AggSpec { f: AggFn::Count, arg: Some(CExpr::Col(1)) }];
        let agg = Aggregate::new(
            scan(rows.clone()), vec![CExpr::Col(0), CExpr::Col(1)], specs(), schema.clone());
        let new = drain(Box::new(agg)).unwrap();
        let legacy = BTreeAggregate::new(
            scan(rows.clone()), vec![CExpr::Col(0), CExpr::Col(1)], specs(), schema);
        let old = drain(Box::new(legacy)).unwrap();
        prop_assert_eq!(new, old);

        // Global (no GROUP BY): one row even over the empty input.
        let gschema = Schema::of(&[("n", ColumnType::Int)]);
        let agg = Aggregate::new(scan(rows.clone()), vec![], specs(), gschema.clone());
        let new = drain(Box::new(agg)).unwrap();
        let legacy = BTreeAggregate::new(scan(rows), vec![], specs(), gschema);
        let old = drain(Box::new(legacy)).unwrap();
        prop_assert_eq!(&new, &old);
        prop_assert_eq!(new.len(), 1);
    }
}
