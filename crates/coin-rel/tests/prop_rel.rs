//! Property-based differential tests for the relational engine.

use coin_rel::exec::{drain, HashJoin, NestedLoopJoin, Sort, ValuesScan};
use coin_rel::expr::CExpr;
use coin_rel::tempstore::{cmp_rows, ExternalSorter, TempStore};
use coin_rel::{execute_sql, Catalog, ColumnType, Row, Schema, Table, Value};
use coin_sql::BinOp;
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-20i64..20).prop_map(Value::Int),
        (-5i32..5).prop_map(|i| Value::Float(f64::from(i) + 0.5)),
        prop_oneof![Just("a"), Just("b"), Just("c")].prop_map(Value::str),
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
        cases: 128,
        // CI determinism: never read or write regression files.
        failure_persistence: None,
        ..ProptestConfig::default()
    })]

    /// Hash join and nested-loop join agree on equi-joins.
    #[test]
    fn hash_join_equals_nested_loop(l in arb_rows(2, 12), r in arb_rows(2, 12)) {
        let hj = HashJoin::new(scan(l.clone()), scan(r.clone()), vec![0], vec![0], None);
        let mut got = drain(Box::new(hj)).unwrap();
        let pred = CExpr::Cmp(Box::new(CExpr::Col(0)), BinOp::Eq, Box::new(CExpr::Col(2)));
        let nl = NestedLoopJoin::new(scan(l), scan(r), Some(pred));
        let mut want = drain(Box::new(nl)).unwrap();
        let key: Vec<(usize, bool)> = (0..4).map(|i| (i, false)).collect();
        got.sort_by(|a, b| cmp_rows(a, b, &key));
        want.sort_by(|a, b| cmp_rows(a, b, &key));
        prop_assert_eq!(got, want);
    }

    /// External sort (tiny runs, forced spills) equals in-memory sort.
    #[test]
    fn external_sort_equals_memory_sort(rows in arb_rows(2, 60)) {
        let mut sorter = ExternalSorter::new(TempStore::new(), vec![(0, false), (1, true)], 4);
        for r in rows.clone() {
            sorter.push(r).unwrap();
        }
        let got = sorter.finish().unwrap();
        let mut want = rows;
        want.sort_by(|a, b| cmp_rows(a, b, &[(0, false), (1, true)]));
        prop_assert_eq!(got, want);
    }

    /// Sort operator with forced spilling produces the same multiset as the
    /// in-memory path, correctly ordered by the sort key. (Merge sort over
    /// runs is not stable, so equal-key rows may permute — that's fine.)
    #[test]
    fn sort_operator_spill_ablation(rows in arb_rows(2, 50)) {
        let spilled = Sort::new(scan(rows.clone()), vec![(1, false)], TempStore::new()).with_run_capacity(3);
        let memory = Sort::new(scan(rows), vec![(1, false)], TempStore::new());
        let a = drain(Box::new(spilled)).unwrap();
        let b = drain(Box::new(memory)).unwrap();
        // Both outputs are sorted by the key…
        for w in a.windows(2) {
            prop_assert_ne!(cmp_rows(&w[0], &w[1], &[(1, false)]), std::cmp::Ordering::Greater);
        }
        // …and contain the same rows.
        let full: Vec<(usize, bool)> = (0..2).map(|i| (i, false)).collect();
        let mut am = a;
        let mut bm = b;
        am.sort_by(|x, y| cmp_rows(x, y, &full));
        bm.sort_by(|x, y| cmp_rows(x, y, &full));
        prop_assert_eq!(am, bm);
    }

    /// WHERE k > c via SQL equals manual filtering (no NULL subtleties:
    /// ints only).
    #[test]
    fn sql_filter_matches_oracle(vals in prop::collection::vec(-50i64..50, 0..30), c in -50i64..50) {
        let rows: Vec<Row> = vals.iter().map(|&v| vec![Value::Int(v)]).collect();
        let t = Table::from_rows("t", Schema::of(&[("x", ColumnType::Int)]), rows);
        let catalog = Catalog::new().with_table(t);
        let out = execute_sql(&format!("SELECT x FROM t WHERE x > {c}"), &catalog).unwrap();
        let expected: Vec<i64> = vals.iter().copied().filter(|&v| v > c).collect();
        let got: Vec<i64> = out.rows.iter().map(|r| match r[0] {
            Value::Int(i) => i,
            _ => unreachable!(),
        }).collect();
        prop_assert_eq!(got, expected);
    }

    /// SUM via SQL equals the direct sum.
    #[test]
    fn sql_sum_matches_oracle(vals in prop::collection::vec(-100i64..100, 1..30)) {
        let rows: Vec<Row> = vals.iter().map(|&v| vec![Value::Int(v)]).collect();
        let t = Table::from_rows("t", Schema::of(&[("x", ColumnType::Int)]), rows);
        let catalog = Catalog::new().with_table(t);
        let out = execute_sql("SELECT SUM(x) FROM t", &catalog).unwrap();
        prop_assert_eq!(out.rows[0][0].clone(), Value::Int(vals.iter().sum()));
    }

    /// UNION (distinct) returns the set union of branch results.
    #[test]
    fn union_is_set_union(
        a in prop::collection::btree_set(-20i64..20, 0..10),
        b in prop::collection::btree_set(-20i64..20, 0..10),
    ) {
        let mk = |name: &str, vals: &std::collections::BTreeSet<i64>| Table::from_rows(
            name,
            Schema::of(&[("x", ColumnType::Int)]),
            vals.iter().map(|&v| vec![Value::Int(v)]).collect(),
        );
        let catalog = Catalog::new().with_table(mk("ta", &a)).with_table(mk("tb", &b));
        let out = execute_sql("SELECT x FROM ta UNION SELECT x FROM tb", &catalog).unwrap();
        let want: std::collections::BTreeSet<i64> = a.union(&b).copied().collect();
        prop_assert_eq!(out.rows.len(), want.len());
    }
}
