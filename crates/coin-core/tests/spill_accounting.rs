//! Spill accounting belongs to the execution, not to a thread: a
//! [`MediatedRows`] reports exactly what its own temp store wrote, even
//! when it is created on one thread and drained on another that has spill
//! history of its own (or none at all).

use coin_core::fixtures::synthetic_system;
use coin_core::MediatedRows;

/// The engine's Sort flushes 64Ki-row runs as they fill and merges the
/// in-memory tail without a spill, so more than 128Ki rows put at least
/// two runs on disk.
const ROWS: usize = 140_000;

fn drain(rows: &mut MediatedRows) -> usize {
    let mut n = 0;
    while rows.next().unwrap().is_some() {
        n += 1;
    }
    n
}

/// The stream's reported spill equals its execution store's counters.
fn assert_spill_is_the_stores(rows: &MediatedRows) {
    assert!(rows.finished());
    let store = rows.temp_store().spill_stats();
    let stats = rows.stats();
    assert!(
        store.runs_written >= 2,
        "expected at least 2 runs, got {}",
        store.runs_written
    );
    assert_eq!(stats.spill_runs, store.runs_written);
    assert_eq!(stats.spill_bytes, store.bytes_spilled);
    assert_eq!(stats.spill_max_run_bytes, store.max_run_bytes);
}

#[test]
fn spill_stats_are_exact_when_drained_on_another_thread() {
    let system = synthetic_system(1, ROWS, 7);

    // Thread A runs a wide spilling sort to completion first …
    let mut wide = system
        .query_stream(
            "SELECT fin0.cname, fin0.amount FROM fin0 ORDER BY fin0.amount",
            "c_recv",
            None,
        )
        .unwrap();
    assert_eq!(drain(&mut wide), ROWS);
    assert_spill_is_the_stores(&wide);

    // … then creates a narrower spilling stream and hands it to a fresh
    // thread B, whose own history is empty.
    let narrow = system
        .query_stream(
            "SELECT fin0.amount FROM fin0 ORDER BY fin0.amount",
            "c_recv",
            None,
        )
        .unwrap();
    let narrow = std::thread::spawn(move || {
        let mut rows = narrow;
        assert_eq!(drain(&mut rows), ROWS);
        rows
    })
    .join()
    .unwrap();
    assert_spill_is_the_stores(&narrow);
    assert!(narrow.stats().spill_bytes < wide.stats().spill_bytes);
}
