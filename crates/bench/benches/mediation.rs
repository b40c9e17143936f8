//! EX-MED: mediation-engine cost structure.
//!
//! The mediated query is "usually a union of sub-queries corresponding
//! respectively to the possible conflicts" (paper §2) — so the rewriting
//! cost grows with the number of conflict *cases*, not with data size.
//! This bench sweeps the number of data-dependent cases in the source
//! context (each case adds a union branch) and, as the generality ablation
//! called out in DESIGN.md §5, compares the abductive rewriter against the
//! hand-specialized Figure 2 translator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use coin_core::system::CoinSystem;
use coin_core::{ContextTheory, Conversion, Elevation, ModifierSpec};
use coin_rel::{Catalog, ColumnType, Schema, Table, Value};
use coin_wrapper::RelationalSource;

/// A system whose source context case-splits the scale factor over `k`
/// region values (k cases + default ⇒ k+1 scale branches, each then split
/// again by the currency conversion cases).
fn system_with_k_cases(k: usize) -> CoinSystem {
    let (domain, _) = coin_core::model::figure2_domain();
    let mut sys = CoinSystem::new(domain);
    sys.add_conversion("scaleFactor", Conversion::Ratio)
        .unwrap();
    sys.add_conversion(
        "currency",
        Conversion::Lookup {
            relation: "rates".into(),
            from_col: "fromCur".into(),
            to_col: "toCur".into(),
            factor_col: "rate".into(),
        },
    )
    .unwrap();

    let fin = Table::from_rows(
        "fin",
        Schema::of(&[
            ("cname", ColumnType::Str),
            ("amount", ColumnType::Int),
            ("region", ColumnType::Str),
        ]),
        (0..8)
            .map(|i| {
                vec![
                    Value::str(&format!("c{i}")),
                    Value::Int(1000 + i),
                    Value::str(&format!("region{}", i as usize % (k + 1))),
                ]
            })
            .collect(),
    );
    let rates = Table::from_rows(
        "rates",
        Schema::of(&[
            ("fromCur", ColumnType::Str),
            ("toCur", ColumnType::Str),
            ("rate", ColumnType::Float),
        ]),
        vec![vec![
            Value::str("JPY"),
            Value::str("USD"),
            Value::Float(0.0096),
        ]],
    );
    sys.add_source(RelationalSource::new("db", Catalog::new().with_table(fin)))
        .unwrap();
    sys.add_source(RelationalSource::new(
        "forex",
        Catalog::new().with_table(rates),
    ))
    .unwrap();

    // k conditional cases on region + default (flat case list).
    let spec = if k == 0 {
        ModifierSpec::constant(1i64)
    } else {
        ModifierSpec::cases(
            (0..k)
                .map(|i| {
                    (
                        "region",
                        Value::str(&format!("region{i}")),
                        ModifierSpec::constant(10i64.pow((i % 7) as u32 + 1)),
                    )
                })
                .collect(),
            ModifierSpec::constant(1i64),
        )
    };
    sys.add_context(
        ContextTheory::new("c_src")
            .set("companyFinancials", "scaleFactor", spec)
            .set(
                "companyFinancials",
                "currency",
                ModifierSpec::constant("JPY"),
            ),
    )
    .unwrap();
    sys.add_context(
        ContextTheory::new("c_recv")
            .set(
                "companyFinancials",
                "currency",
                ModifierSpec::constant("USD"),
            )
            .set(
                "companyFinancials",
                "scaleFactor",
                ModifierSpec::constant(1i64),
            ),
    )
    .unwrap();
    sys.add_elevation(
        Elevation::new("fin", "c_src")
            .column("cname", "companyName")
            .column("amount", "companyFinancials"),
    )
    .unwrap();
    sys.add_elevation(
        Elevation::new("rates", "c_recv")
            .column("fromCur", "currencyType")
            .column("toCur", "currencyType")
            .column("rate", "exchangeRate"),
    )
    .unwrap();
    sys
}

fn bench_case_growth(c: &mut Criterion) {
    let mut g = c.benchmark_group("mediation_case_growth");
    for k in [0usize, 1, 2, 4, 8] {
        let sys = system_with_k_cases(k);
        let sql = "SELECT f.cname, f.amount FROM fin f WHERE f.amount > 5000";
        // Report branch count once so EXPERIMENTS.md can record the shape.
        let branches = sys.mediate(sql, "c_recv").unwrap().query.branches().len();
        eprintln!("[mediation_case_growth] k={k} -> {branches} union branches");
        g.bench_with_input(BenchmarkId::new("cases", k), &k, |b, _| {
            b.iter(|| {
                let m = sys.mediate(black_box(sql), "c_recv").unwrap();
                black_box(m.query.branches().len())
            })
        });
        // The cached compile path is flat in k: the case growth is paid
        // once per model epoch, then amortized across every execution.
        g.bench_with_input(BenchmarkId::new("cases_cached", k), &k, |b, _| {
            sys.prepare(sql, "c_recv").unwrap(); // warm the cache
            b.iter(|| {
                let p = sys.prepare(black_box(sql), "c_recv").unwrap();
                black_box(p.mediated().query.branches().len())
            })
        });
    }
    g.finish();
}

fn bench_generality_ablation(c: &mut Criterion) {
    // Abductive general rewriter vs the hand-specialized rewriter on the
    // same scenario: the price of generality.
    use coin_bench::pairwise::figure2_handwritten_rewrite;
    use coin_core::fixtures::figure2_system;

    let sys = figure2_system();
    let q1 = "SELECT r1.cname, r1.revenue FROM r1, r2 \
              WHERE r1.cname = r2.cname AND r1.revenue > r2.expenses";
    let mut g = c.benchmark_group("mediation_generality");
    g.bench_function("abductive_rewrite", |b| {
        b.iter(|| black_box(sys.mediate(black_box(q1), "c_recv").unwrap().statements))
    });
    g.bench_function("handwritten_rewrite", |b| {
        b.iter(|| {
            // The baseline "rewrite" is a constant lookup + parse.
            let q = coin_sql::parse_query(black_box(figure2_handwritten_rewrite())).unwrap();
            black_box(q.branches().len())
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_case_growth, bench_generality_ablation
}
criterion_main!(benches);
