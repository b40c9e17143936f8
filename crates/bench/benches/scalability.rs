//! EX-SCALE: the scalability claim (paper §1).
//!
//! Two measurements:
//!
//! 1. **administration size** — COIN context/elevation axioms grow O(n) in
//!    the number of sources while pairwise a-priori integration rules grow
//!    O(n²) (printed once; recorded in EXPERIMENTS.md);
//! 2. **mediation latency vs deployment size** — rewriting a query touches
//!    only the contexts of the sources it references, so latency stays flat
//!    as the total number of registered sources grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use coin_bench::pairwise::PairwiseIntegration;
use coin_core::fixtures::synthetic_system;

fn bench_scalability(c: &mut Criterion) {
    let mut g = c.benchmark_group("scalability_mediation_latency");
    for n in [2usize, 8, 32, 128] {
        let sys = synthetic_system(n, 4, 7);
        let pairwise =
            PairwiseIntegration::derive(sys.domain(), sys.contexts(), "companyFinancials").unwrap();
        eprintln!(
            "[scalability] n={n}: COIN axioms = {}, pairwise rules = {}",
            sys.axiom_count(),
            pairwise.statement_count()
        );
        let sql = "SELECT f.cname, f.amount FROM fin0 f WHERE f.amount > 1000";
        g.bench_with_input(BenchmarkId::new("sources", n), &n, |b, _| {
            b.iter(|| {
                let m = sys.mediate(black_box(sql), "c_recv").unwrap();
                black_box(m.statements)
            })
        });
    }
    g.finish();

    // Administration cost of *deriving* the integration, as a timed
    // comparison: instantiating one more COIN context vs re-deriving the
    // pairwise rule set.
    let mut g = c.benchmark_group("scalability_administration");
    for n in [8usize, 32] {
        let sys = synthetic_system(n, 1, 7);
        g.bench_with_input(BenchmarkId::new("pairwise_derive", n), &n, |b, _| {
            b.iter(|| {
                let pw =
                    PairwiseIntegration::derive(sys.domain(), sys.contexts(), "companyFinancials")
                        .unwrap();
                black_box(pw.statement_count())
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(15)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_scalability
}
criterion_main!(benches);
