//! Mediation edge cases beyond the Figure 2 scenario: self-joins,
//! desugared predicates, error paths, and conversion corner cases.

use coin_core::fixtures::figure2_system;
use coin_core::system::CoinSystem;
use coin_core::{ContextTheory, Conversion, Elevation, ModifierSpec};
use coin_rel::{Catalog, ColumnType, Schema, Table, Value};
use coin_wrapper::RelationalSource;

#[test]
fn self_join_case_splits_each_binding_independently() {
    let sys = figure2_system();
    // Each binding of r1 gets its own symbolic column terms, so only the
    // binding whose financials are referenced case-splits.
    let mediated = sys
        .mediate(
            "SELECT a.revenue FROM r1 a, r1 b WHERE a.cname = b.cname",
            "c_recv",
        )
        .unwrap();
    assert_eq!(mediated.query.branches().len(), 3);
    let sql = mediated.query.to_string();
    assert!(sql.contains("a.currency"), "{sql}");
    assert!(!sql.contains("b.currency"), "b.revenue unused: {sql}");
}

#[test]
fn self_join_comparing_both_sides_splits_both() {
    let sys = figure2_system();
    let mediated = sys
        .mediate(
            "SELECT a.cname FROM r1 a, r1 b WHERE a.revenue > b.revenue",
            "c_recv",
        )
        .unwrap();
    // 3 cases for a × 3 cases for b = 9 branches.
    assert_eq!(mediated.query.branches().len(), 9);
}

#[test]
fn between_desugars_and_converts() {
    let sys = figure2_system();
    let mediated = sys
        .mediate(
            "SELECT r1.cname FROM r1 WHERE r1.revenue BETWEEN 1000000 AND 200000000",
            "c_recv",
        )
        .unwrap();
    let sql = mediated.query.to_string();
    // The JPY branch must apply the conversion to both bound comparisons.
    assert!(
        sql.contains("r1.revenue * 1000 * r3.rate >= 1000000"),
        "{sql}"
    );
    assert!(
        sql.contains("r1.revenue * 1000 * r3.rate <= 200000000"),
        "{sql}"
    );

    let answer = sys
        .query(
            "SELECT r1.cname FROM r1 WHERE r1.revenue BETWEEN 1000000 AND 200000000",
            "c_recv",
        )
        .unwrap();
    // IBM 100M ✓; NTT 9.6M ✓ — both within [1M, 200M] in receiver units.
    assert_eq!(answer.table.rows.len(), 2);
}

#[test]
fn literal_only_predicates_pass_through() {
    let sys = figure2_system();
    let answer = sys
        .query("SELECT r2.cname FROM r2 WHERE 1 < 2", "c_recv")
        .unwrap();
    assert_eq!(answer.table.rows.len(), 2);
    let none = sys
        .query("SELECT r2.cname FROM r2 WHERE 2 < 1", "c_recv")
        .unwrap();
    assert!(none.table.rows.is_empty());
}

#[test]
fn arithmetic_on_converted_columns_in_where() {
    // revenue / 2 > expenses: the conversion must wrap the column inside
    // the receiver's arithmetic.
    let sys = figure2_system();
    let mediated = sys
        .mediate(
            "SELECT r1.cname FROM r1, r2 \
             WHERE r1.cname = r2.cname AND r1.revenue / 2 > r2.expenses",
            "c_recv",
        )
        .unwrap();
    let sql = mediated.query.to_string();
    assert!(
        sql.contains("r1.revenue * 1000 * r3.rate / 2 > r2.expenses"),
        "{sql}"
    );
}

#[test]
fn missing_conversion_function_is_model_error() {
    // A system with a modifier but no registered conversion.
    let mut dm = coin_core::DomainModel::new();
    dm.add_type("weight", &["unit"]).unwrap();
    let mut sys = CoinSystem::new(dm);
    let t = Table::from_rows(
        "parts",
        Schema::of(&[("pid", ColumnType::Int), ("w", ColumnType::Int)]),
        vec![vec![Value::Int(1), Value::Int(10)]],
    );
    sys.add_source(RelationalSource::new("db", Catalog::new().with_table(t)))
        .unwrap();
    sys.add_context(ContextTheory::new("c_src").set(
        "weight",
        "unit",
        ModifierSpec::constant("kg"),
    ))
    .unwrap();
    sys.add_context(ContextTheory::new("c_recv").set(
        "weight",
        "unit",
        ModifierSpec::constant("lb"),
    ))
    .unwrap();
    sys.add_elevation(Elevation::new("parts", "c_src").column("w", "weight"))
        .unwrap();
    let err = sys
        .mediate("SELECT p.w FROM parts p", "c_recv")
        .unwrap_err();
    assert!(err.to_string().contains("conversion"), "{err}");
}

#[test]
fn ratio_conversion_between_constant_units() {
    // Same system, but with a ratio conversion registered and numeric
    // scale-like units.
    let mut dm = coin_core::DomainModel::new();
    dm.add_type("weight", &["unitFactor"]).unwrap();
    let mut sys = CoinSystem::new(dm);
    sys.add_conversion("unitFactor", Conversion::Ratio).unwrap();
    let t = Table::from_rows(
        "parts",
        Schema::of(&[("pid", ColumnType::Int), ("w", ColumnType::Int)]),
        vec![vec![Value::Int(1), Value::Int(10)]],
    );
    sys.add_source(RelationalSource::new("db", Catalog::new().with_table(t)))
        .unwrap();
    // Source reports in grams (factor 1), receiver wants kilograms
    // (factor 1000): value × 1/1000.
    sys.add_context(ContextTheory::new("c_src").set(
        "weight",
        "unitFactor",
        ModifierSpec::constant(1i64),
    ))
    .unwrap();
    sys.add_context(ContextTheory::new("c_recv").set(
        "weight",
        "unitFactor",
        ModifierSpec::constant(1000i64),
    ))
    .unwrap();
    sys.add_elevation(Elevation::new("parts", "c_src").column("w", "weight"))
        .unwrap();
    let answer = sys.query("SELECT p.w FROM parts p", "c_recv").unwrap();
    assert_eq!(answer.table.rows[0][0], Value::Float(0.01));
}

#[test]
fn projection_of_plain_columns_is_identity_single_branch() {
    let sys = figure2_system();
    let mediated = sys
        .mediate("SELECT r1.cname, r1.currency FROM r1", "c_recv")
        .unwrap();
    // cname (companyName, no modifiers) and currency (currencyType, no
    // modifiers): nothing to mediate.
    assert_eq!(mediated.query.branches().len(), 1);
    assert_eq!(
        mediated.query.to_string(),
        "SELECT r1.cname, r1.currency FROM r1"
    );
}

#[test]
fn constants_in_select_list() {
    let sys = figure2_system();
    let answer = sys.query("SELECT r2.cname, 42 FROM r2", "c_recv").unwrap();
    assert_eq!(answer.table.rows.len(), 2);
    assert!(answer.table.rows.iter().all(|r| r[1] == Value::Int(42)));
}

#[test]
fn arithmetic_of_two_converted_columns_in_select() {
    // SELECT r1.revenue + r1.revenue — conversion applied once, shared
    // hypotheses (the same case split must not multiply branches).
    let sys = figure2_system();
    let mediated = sys
        .mediate("SELECT r1.revenue + r1.revenue FROM r1", "c_recv")
        .unwrap();
    assert_eq!(mediated.query.branches().len(), 3);
    let answer = sys
        .query("SELECT r1.cname, r1.revenue + r1.revenue FROM r1", "c_recv")
        .unwrap();
    let ntt = answer
        .table
        .rows
        .iter()
        .find(|r| r[0] == Value::str("NTT"))
        .unwrap();
    assert_eq!(ntt[1].as_f64().unwrap(), 2.0 * 9_600_000.0);
}

#[test]
fn unmediated_relation_mixed_with_mediated_one() {
    // r3 has elevation axioms in receiver context (identity): joining it
    // explicitly in the receiver query must still work.
    let sys = figure2_system();
    let answer = sys
        .query(
            "SELECT r3.rate FROM r3 WHERE r3.fromCur = 'JPY' AND r3.toCur = 'USD'",
            "c_recv",
        )
        .unwrap();
    assert_eq!(answer.table.rows, vec![vec![Value::Float(0.0096)]]);
}

#[test]
fn negated_between_rejected() {
    let sys = figure2_system();
    assert!(sys
        .mediate(
            "SELECT r1.cname FROM r1 WHERE r1.revenue NOT BETWEEN 1 AND 2",
            "c_recv"
        )
        .is_err());
}

#[test]
fn like_in_where_rejected_with_clear_error() {
    let sys = figure2_system();
    let err = sys
        .mediate("SELECT r1.cname FROM r1 WHERE r1.cname LIKE 'N%'", "c_recv")
        .unwrap_err();
    assert!(err.to_string().contains("LIKE"), "{err}");
}

/// `SELECT t0.revenue, …, t{n-1}.revenue FROM r1 t0, …, r1 t{n-1}`: every
/// binding case-splits three ways, so mediation needs 3^n cases.
fn n_way_revenue_self_join(n: usize) -> String {
    let items: Vec<String> = (0..n).map(|i| format!("t{i}.revenue")).collect();
    let from: Vec<String> = (0..n).map(|i| format!("r1 t{i}")).collect();
    format!("SELECT {} FROM {}", items.join(", "), from.join(", "))
}

#[test]
fn case_budget_overflow_is_an_error_not_a_partial_union() {
    let sys = figure2_system();
    // 3^7 = 2187 cases exceed the mediator's 512-case budget: a partial
    // UNION would silently drop answers, so mediation must refuse.
    let seven = n_way_revenue_self_join(7);
    let err = sys.query(&seven, "c_recv").unwrap_err();
    assert!(err.to_string().contains("search bounds"), "{err}");
    assert!(sys.mediate(&seven, "c_recv").is_err());
    let (naive, _) = sys.query_naive(&seven).unwrap();
    assert_eq!(
        naive.rows.len(),
        128,
        "the naive answer the union would cut"
    );

    // 3^5 = 243 cases fit: every row of the 2^5 cross product answers.
    let five = n_way_revenue_self_join(5);
    assert_eq!(sys.mediate(&five, "c_recv").unwrap().branches.len(), 243);
    assert_eq!(sys.query(&five, "c_recv").unwrap().table.rows.len(), 32);
}
