//! EX-F2 benchmark: the paper's §3 example.
//!
//! Times each stage of the pipeline on the Figure 2 scenario: mediation
//! (abductive rewriting) alone, full mediated execution, the naive
//! execution baseline, and executing the hand-written mediated query from
//! the paper (to separate rewriting cost from execution cost).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use coin_bench::pairwise::figure2_handwritten_rewrite;
use coin_core::fixtures::figure2_system;

const Q1: &str = "SELECT r1.cname, r1.revenue FROM r1, r2 \
                  WHERE r1.cname = r2.cname AND r1.revenue > r2.expenses";

fn bench_figure2(c: &mut Criterion) {
    let sys = figure2_system();
    let mut g = c.benchmark_group("figure2");

    g.bench_function("mediate_only", |b| {
        b.iter(|| {
            let m = sys.mediate(black_box(Q1), "c_recv").unwrap();
            black_box(m.query.branches().len())
        })
    });

    // The warm compile path: the same (sql, receiver) served from the
    // prepared-query cache instead of re-running the abductive rewrite.
    // This is the ≥5× headline of the prepare/execute split.
    g.bench_function("mediate_cached", |b| {
        sys.prepare(Q1, "c_recv").unwrap(); // warm the cache
        b.iter(|| {
            let p = sys.prepare(black_box(Q1), "c_recv").unwrap();
            black_box(p.mediated().query.branches().len())
        })
    });

    // Cold compile + execute per iteration (explicitly bypassing the
    // cache, which the warm benches above already populated) — this keeps
    // measuring the full per-call pipeline the group header describes.
    g.bench_function("mediated_end_to_end", |b| {
        b.iter(|| {
            let prepared = sys.prepare_uncached(black_box(Q1), "c_recv").unwrap();
            let a = prepared.execute(&sys).unwrap();
            assert_eq!(a.table.rows.len(), 1);
            black_box(a.table.rows.len())
        })
    });

    // Execute-many over one caller-held PreparedQuery: the steady-state
    // per-request cost once compilation is amortized, directly comparable
    // to naive_execution / handwritten_mediated_execution below.
    g.bench_function("prepared_execution", |b| {
        let prepared = sys.prepare(Q1, "c_recv").unwrap();
        b.iter(|| {
            let a = prepared.execute(&sys).unwrap();
            assert_eq!(a.table.rows.len(), 1);
            black_box(a.table.rows.len())
        })
    });

    g.bench_function("naive_execution", |b| {
        b.iter(|| {
            let (t, _) = sys.query_naive(black_box(Q1)).unwrap();
            black_box(t.rows.len())
        })
    });

    g.bench_function("handwritten_mediated_execution", |b| {
        let sql = figure2_handwritten_rewrite();
        b.iter(|| {
            let (t, _) = sys.query_naive(black_box(sql)).unwrap();
            assert_eq!(t.rows.len(), 1);
            black_box(t.rows.len())
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
    targets = bench_figure2
}
criterion_main!(benches);
