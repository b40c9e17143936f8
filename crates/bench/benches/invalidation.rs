//! Mixed admin+query benchmark: dependency-tracked plan invalidation vs
//! the whole-cache "epoch hammer".
//!
//! PR 8 replaced epoch-keyed whole-cache purging with per-part model
//! versions: each `PreparedQuery` records the model parts its compilation
//! read, and administration evicts only the plans whose footprint
//! intersects the mutated parts. This bench interleaves administration
//! for *new* contexts (the extensibility story: sources joining a running
//! federation) with a steady query workload over the already-integrated
//! sources:
//!
//! * `fine_grained` — the current system: unrelated `add_context` calls
//!   leave every cached plan hot, so the workload keeps hitting;
//! * `epoch_hammer` — the same loop emptying the plan cache after each
//!   administration (capacity 0, then [`DEFAULT_CACHE_CAPACITY`] again),
//!   restoring the old behavior where every mutation forced the whole
//!   working set to re-mediate.
//!
//! A hit-rate summary prints after the criterion runs; setting
//! `INVAL_GATE_MIN_HITRATE` (CI: `0.9`) turns a fine-grained hit rate
//! below the floor into a hard failure — cached plans for sources the
//! administration never touched must survive ≥ 90% of the time.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use coin_core::cache::DEFAULT_CACHE_CAPACITY;
use coin_core::fixtures::synthetic_system;
use coin_core::{CoinSystem, ContextTheory, ModifierSpec};

/// Sources in the steady working set (and thus plans in the cache).
const SOURCES: usize = 6;
/// Rows per source: small, so the compile side dominates a recompile and
/// the bench isolates invalidation policy rather than execution cost.
const ROWS: usize = 16;

fn queries() -> Vec<String> {
    (0..SOURCES)
        .map(|i| format!("SELECT SUM(f.amount) FROM fin{i} f"))
        .collect()
}

/// One admin+query round: register a fresh (unrelated) context, then run
/// the whole working set in the receiver context.
fn round(sys: &mut CoinSystem, name_seq: &mut usize, queries: &[String], hammer: bool) {
    *name_seq += 1;
    sys.add_context(ContextTheory::new(&format!("c_adm{name_seq}")).set(
        "companyFinancials",
        "currency",
        ModifierSpec::constant("EUR"),
    ))
    .expect("fresh context names never collide");
    if hammer {
        // The old policy: every administration flushed everything.
        sys.set_cache_capacity(0);
        sys.set_cache_capacity(DEFAULT_CACHE_CAPACITY);
    }
    for q in queries {
        black_box(
            sys.query(q, "c_recv")
                .expect("workload query")
                .table
                .rows
                .len(),
        );
    }
}

fn bench_invalidation(c: &mut Criterion) {
    let queries = queries();
    let mut g = c.benchmark_group("invalidation");

    {
        let mut sys = synthetic_system(SOURCES, ROWS, 42);
        let mut seq = 0usize;
        g.bench_function("fine_grained", |b| {
            b.iter(|| round(&mut sys, &mut seq, &queries, false))
        });
    }
    {
        let mut sys = synthetic_system(SOURCES, ROWS, 42);
        let mut seq = 0usize;
        g.bench_function("epoch_hammer", |b| {
            b.iter(|| round(&mut sys, &mut seq, &queries, true))
        });
    }
    g.finish();
}

/// The acceptance headline: under interleaved administration of contexts
/// no cached plan reads, the working set's hit rate stays ≥ 90% (it is
/// 100% with dependency tracking; the old epoch hammer scored ~0%). With
/// `INVAL_GATE_MIN_HITRATE` set (the CI bench job sets 0.9), a rate below
/// the floor fails the run.
fn hitrate_gate() {
    let queries = queries();
    let mut sys = synthetic_system(SOURCES, ROWS, 7);
    // Warm every plan once (these misses are the cold compiles, not an
    // invalidation effect — excluded from the measured window).
    for q in &queries {
        sys.query(q, "c_recv").expect("warm-up query");
    }
    let before = sys.cache_stats();
    let mut seq = 0usize;
    for _ in 0..20 {
        round(&mut sys, &mut seq, &queries, false);
    }
    let after = sys.cache_stats();
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    let rate = hits as f64 / (hits + misses).max(1) as f64;
    println!(
        "invalidation: {hits} hits / {misses} misses under interleaved \
         admin — hit rate {:.1}%",
        rate * 100.0
    );
    if let Some(min) = std::env::var("INVAL_GATE_MIN_HITRATE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
    {
        assert!(
            rate >= min,
            "invalidation hit rate {rate:.3} below the \
             INVAL_GATE_MIN_HITRATE={min} floor"
        );
    }
}

fn bench_hitrate_gate(_c: &mut Criterion) {
    hitrate_gate();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_invalidation, bench_hitrate_gate
}
criterion_main!(benches);
