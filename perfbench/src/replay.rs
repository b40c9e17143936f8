//! In-process replay of the traced request stream on a separate system
//! instance (so the server's cache counters stay clean), with a span
//! around each call into a layer's public entry point.
//!
//! The first pass follows a request's path through the server:
//! `parse_json` → `CoinSystem::prepare` → `PreparedQuery::execute_stream`
//! → `MediatedRows::next` → `write_value` → `Query::to_string` +
//! `Mediated::explain`. The second pass, over the same requests, times the
//! compile stages one by one (`coin_sql::parse_query`,
//! `CoinSystem::mediate`, `Planner::plan_query`) and the cache outcome the
//! path did not take. The passes are kept apart so the probes do not
//! disturb the caches the path runs with.

use std::hint::black_box;
use std::time::{Duration, Instant};

use coin_core::{CacheStatus, CoinSystem};
use coin_planner::{ExecStats, Planner};
use coin_server::protocol::write_value;
use coin_server::{parse_json, Json, JsonBuf};

use crate::trace::Trace;
use crate::workload::{self, Kind, Request, CLIENTS};

pub const PREPARE_HIT: &str = "compile.prepare_hit";
pub const PREPARE_MISS: &str = "compile.prepare_miss";

/// One replayed request.
pub struct Replayed {
    pub id: u64,
    pub stream: bool,
    /// Work the server does after its handler returns for a streamed
    /// response: drain, serialize, render the tail.
    pub produce_us: f64,
    /// Work the server's handler itself does: decode, prepare, stage, and
    /// for `"stream": false` also the production.
    pub handler_equiv_us: f64,
    pub cache_hit: bool,
    pub stats: ExecStats,
    pub rows_out: usize,
}

fn sql_and_context(doc: &Json) -> Result<(&str, &str), String> {
    let sql = doc.get("sql").and_then(Json::as_str).ok_or("no sql")?;
    let context = doc
        .get("context")
        .and_then(Json::as_str)
        .ok_or("no context")?;
    Ok((sql, context))
}

/// The request's path through the server's handler and stream producer.
fn path(
    system: &CoinSystem,
    req: &Request,
    id: u64,
    trace: &mut Trace,
) -> Result<Replayed, String> {
    let first = trace.spans.len();
    let root = trace.begin("request", id, None);
    let doc = trace
        .time("protocol.decode", id, root, || parse_json(&req.body))
        .map_err(|e| format!("decode: {e:?}"))?;
    let (sql, context) = sql_and_context(&doc)?;
    let prepare = trace.begin(PREPARE_MISS, id, Some(root));
    let (prepared, status) = system
        .prepare_with_status(sql, context)
        .map_err(|e| e.to_string())?;
    trace.end(prepare);
    let cache_hit = status == CacheStatus::Hit;
    if cache_hit {
        trace.rename(prepare, PREPARE_HIT);
    }
    let mut rows = trace
        .time("execute.stage", id, root, || {
            prepared.execute_stream(system, None)
        })
        .map_err(|e| e.to_string())?;
    let drained = trace
        .time("execute.drain", id, root, || {
            let mut out = Vec::new();
            while let Some(row) = rows.next()? {
                out.push(row);
            }
            Ok::<_, coin_core::CoinError>(out)
        })
        .map_err(|e| e.to_string())?;
    trace.time("protocol.serialize", id, root, || {
        let mut buf = JsonBuf::new();
        buf.begin_arr();
        for row in &drained {
            buf.begin_arr();
            for v in row {
                write_value(v, &mut buf);
            }
            buf.end_arr();
        }
        buf.end_arr();
        black_box(buf.as_str().len())
    });
    trace.time("protocol.tail_render", id, root, || {
        let m = rows.mediated();
        black_box(m.query.to_string().len() + m.explain().len())
    });
    trace.end(root);

    let us = |names: &[&str]| -> f64 {
        trace.spans[first..]
            .iter()
            .filter(|s| s.parent == Some(root) && names.contains(&s.name))
            .map(|s| s.duration_ns() as f64 / 1e3)
            .sum()
    };
    let produce_us = us(&[
        "execute.drain",
        "protocol.serialize",
        "protocol.tail_render",
    ]);
    let pre_stream = us(&[
        "protocol.decode",
        PREPARE_HIT,
        PREPARE_MISS,
        "execute.stage",
    ]);
    Ok(Replayed {
        id,
        stream: req.stream,
        produce_us,
        handler_equiv_us: if req.stream {
            pre_stream
        } else {
            pre_stream + produce_us
        },
        cache_hit,
        stats: *rows.stats(),
        rows_out: drained.len(),
    })
}

/// The compile stages one by one, and the cache outcome the path did not
/// take: a compile without the cache when the path hit, a hit when it
/// missed.
fn probe(
    system: &CoinSystem,
    planner: &Planner,
    req: &Request,
    id: u64,
    path_hit: bool,
    trace: &mut Trace,
) -> Result<(), String> {
    let doc = parse_json(&req.body).map_err(|e| format!("decode: {e:?}"))?;
    let (sql, context) = sql_and_context(&doc)?;
    let root = trace.begin("probe", id, None);
    trace
        .time("compile.sql_parse", id, root, || coin_sql::parse_query(sql))
        .map_err(|e| e.to_string())?;
    let mediated = trace
        .time("compile.mediate", id, root, || system.mediate(sql, context))
        .map_err(|e| e.to_string())?;
    trace
        .time("compile.plan", id, root, || {
            planner.plan_query(&mediated.query)
        })
        .map_err(|e| e.to_string())?;
    if path_hit {
        trace
            .time(PREPARE_MISS, id, root, || {
                system.prepare_uncached(sql, context)
            })
            .map_err(|e| e.to_string())?;
    } else {
        // The path's plan may have been evicted since; make sure it is
        // cached before timing the hit.
        system.prepare(sql, context).map_err(|e| e.to_string())?;
        let (_, status) = trace
            .time(PREPARE_HIT, id, root, || {
                system.prepare_with_status(sql, context)
            })
            .map_err(|e| e.to_string())?;
        if status != CacheStatus::Hit {
            return Err(format!("request {id}: re-prepare missed the cache"));
        }
    }
    trace.end(root);
    Ok(())
}

/// Replay the requests the traced server saw (`sent_per_client`), in
/// stream order, for at most `seconds`: half for the path pass, the rest
/// for the probe pass.
pub fn replay(
    kind: Kind,
    seed: u64,
    seconds: f64,
    sent_per_client: &[u64],
) -> Result<(Trace, Vec<Replayed>), String> {
    let system = kind.build_system(seed);
    let planner = Planner::new(system.dictionary().clone());
    let mut scratch = Trace::new();
    for idx in 0..kind.warmup_per_client() {
        for c in 0..CLIENTS {
            let req = workload::request(kind, seed, c, idx, true);
            let r = path(&system, &req, u64::MAX, &mut scratch)?;
            probe(&system, &planner, &req, u64::MAX, r.cache_hit, &mut scratch)?;
        }
    }
    drop(scratch);

    let start = Instant::now();
    let path_deadline = start + Duration::from_secs_f64(seconds / 2.0);
    let deadline = start + Duration::from_secs_f64(seconds);
    let longest = sent_per_client.iter().copied().max().unwrap_or(0);
    let stream = (0..longest).flat_map(|idx| {
        sent_per_client
            .iter()
            .enumerate()
            .filter(move |(_, &sent)| idx < sent)
            .map(move |(c, _)| {
                (
                    idx * CLIENTS as u64 + c as u64,
                    workload::request(kind, seed, c, idx, false),
                )
            })
    });
    let mut trace = Trace::new();
    let mut replayed = Vec::new();
    let mut requests = Vec::new();
    for (id, req) in stream {
        if Instant::now() >= path_deadline {
            break;
        }
        replayed.push(path(&system, &req, id, &mut trace)?);
        requests.push(req);
    }
    for (r, req) in replayed.iter().zip(&requests) {
        if Instant::now() >= deadline {
            break;
        }
        probe(&system, &planner, req, r.id, r.cache_hit, &mut trace)?;
    }
    Ok((trace, replayed))
}
