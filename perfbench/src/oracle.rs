//! Answer oracles and counter self-checks, run after the timed window.

use std::collections::HashMap;

use coin_core::CoinSystem;
use coin_rel::{Row, Value};

use crate::rig::{Phase, Sample};
use crate::stats::fraction;
use crate::workload::{self, Kind, CLIENTS, CONTEXT};

pub enum Oracle {
    /// Exactly one row, `["NTT", 9600000.0]`.
    Fig2Warm,
    /// `CoinSystem::query` on an in-process `figure2_system()`.
    Fig2Cold,
    /// Row count and order-insensitive digest of the in-process answer.
    BulkJoin { rows: usize, digest: u64 },
}

impl Oracle {
    pub fn new(kind: Kind, system: &CoinSystem) -> Result<Oracle, String> {
        Ok(match kind {
            Kind::Fig2Warm => Oracle::Fig2Warm,
            Kind::Fig2Cold => Oracle::Fig2Cold,
            Kind::BulkJoin => {
                let answer = system
                    .query(workload::BULK_SQL, CONTEXT)
                    .map_err(|e| format!("in-process bulk_join: {e}"))?;
                Oracle::BulkJoin {
                    rows: answer.table.rows.len(),
                    digest: workload::row_digest(&answer.table.rows),
                }
            }
        })
    }
}

/// Decode the rows of every distinct answer section.
fn parse_answers(kind: Kind, phase: &Phase) -> HashMap<u64, Result<Vec<Row>, String>> {
    phase
        .answers()
        .into_iter()
        .map(|(key, section)| {
            let rows = match kind {
                Kind::Fig2Cold => workload::parse_rows(section),
                Kind::Fig2Warm | Kind::BulkJoin => workload::rows_section(section)
                    .ok_or_else(|| "no rows".to_string())
                    .and_then(workload::parse_rows),
            };
            (key, rows)
        })
        .collect()
}

/// Each `fig2_cold` request's text is unique: ask an in-process system for
/// every one, on two threads. Returns the wrong answers.
fn check_cold(
    seed: u64,
    phase: &Phase,
    parsed: &HashMap<u64, Result<Vec<Row>, String>>,
) -> Vec<String> {
    let ok: Vec<(&Sample, u64)> = phase.ok_samples().collect();
    std::thread::scope(|s| {
        let workers: Vec<_> = ok
            .chunks(ok.len().div_ceil(2).max(1))
            .map(|chunk| {
                s.spawn(move || {
                    let system = Kind::Fig2Cold.build_system(seed);
                    let mut wrong = Vec::new();
                    for (sample, key) in chunk {
                        let id = u64::from(sample.id);
                        let (c, idx) = ((id % CLIENTS as u64) as usize, id / CLIENTS as u64);
                        let req = workload::request(Kind::Fig2Cold, seed, c, idx, false);
                        let want = system.query(&req.sql, CONTEXT).map(|a| a.table.rows);
                        let got = &parsed[key];
                        match (want, got) {
                            (Ok(want), Ok(got)) if &want == got => {}
                            (want, got) => wrong.push(format!(
                                "request {}: got {got:?}, in-process {want:?}",
                                sample.id
                            )),
                        }
                    }
                    wrong
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("oracle thread panicked"))
            .collect()
    })
}

/// Check every successful sample's answer; returns the number of wrong
/// answers and a few reasons.
fn check_answers(kind: Kind, seed: u64, phase: &Phase, oracle: &Oracle) -> (u64, Vec<String>) {
    let parsed = parse_answers(kind, phase);
    let mut reasons = Vec::new();
    let bad_keys: Vec<u64> = match oracle {
        Oracle::Fig2Cold => {
            let wrong = check_cold(seed, phase, &parsed);
            let n = wrong.len() as u64;
            reasons.extend(wrong.into_iter().take(5));
            return (n, reasons);
        }
        Oracle::Fig2Warm => {
            let expected = vec![vec![Value::str("NTT"), Value::Float(9_600_000.0)]];
            if parsed.len() > 1 {
                reasons.push(format!(
                    "{} distinct bodies for one SQL (streamed and stream:false must be \
                     byte-identical)",
                    parsed.len()
                ));
            }
            // The most frequent body is the reference; every other is wrong.
            let mut counts: HashMap<u64, usize> = HashMap::new();
            for (_, key) in phase.ok_samples() {
                *counts.entry(key).or_default() += 1;
            }
            let reference = counts.iter().max_by_key(|(_, n)| **n).map(|(k, _)| *k);
            parsed
                .iter()
                .filter(|(key, rows)| {
                    Some(**key) != reference || (*rows).as_ref().ok() != Some(&expected)
                })
                .map(|(key, _)| *key)
                .collect()
        }
        Oracle::BulkJoin { rows, digest } => parsed
            .iter()
            .filter(|(_, got)| match got {
                Ok(got) => got.len() != *rows || workload::row_digest(got) != *digest,
                Err(_) => true,
            })
            .map(|(key, _)| *key)
            .collect(),
    };
    for key in &bad_keys {
        reasons.push(format!(
            "wrong answer: {}",
            match &parsed[key] {
                Ok(rows) => format!("{} rows, first {:?}", rows.len(), rows.first()),
                Err(e) => e.clone(),
            }
        ));
    }
    let wrong = phase
        .ok_samples()
        .filter(|(_, key)| bad_keys.contains(key))
        .count() as u64;
    (wrong, reasons)
}

/// Counter self-checks: a workload that silently stopped exercising its
/// layer must not pass.
fn self_check(kind: Kind, seed: u64, phase: &Phase, oracle: &Oracle) -> Vec<String> {
    let mut problems = Vec::new();
    let (before, after) = phase.cache;
    let hits = after.hits - before.hits;
    let lookups = hits + (after.misses - before.misses);
    let hit_frac = fraction(hits, lookups);
    match kind {
        Kind::Fig2Warm if hit_frac.is_none_or(|f| f < 0.99) => problems.push(format!(
            "fig2_warm must hit the plan cache: hit fraction {hit_frac:?} < 0.99"
        )),
        Kind::Fig2Cold if hit_frac.is_none_or(|f| f > 0.01) => problems.push(format!(
            "fig2_cold must miss the plan cache: hit fraction {hit_frac:?} > 0.01"
        )),
        _ => {}
    }
    if let Oracle::BulkJoin { rows, .. } = oracle {
        if seed == workload::DEFAULT_SEED && *rows != workload::BULK_ROWS_AT_DEFAULT_SEED {
            problems.push(format!(
                "bulk_join must return {} rows at seed {seed}, got {rows}",
                workload::BULK_ROWS_AT_DEFAULT_SEED
            ));
        }
    }
    if phase.ok_samples().next().is_none() {
        problems.push("no request completed".to_string());
    }
    problems
}

/// Verify a phase's answers and counters; returns (failed, problems).
pub fn verify(kind: Kind, seed: u64, phase: &Phase, oracle: &Oracle) -> (u64, Vec<String>) {
    let (wrong, mut problems) = check_answers(kind, seed, phase, oracle);
    problems.extend(phase.clients.iter().flat_map(|c| c.reasons.iter().cloned()));
    problems.extend(self_check(kind, seed, phase, oracle));
    (phase.failed() + wrong, problems)
}
