//! End-to-end `/query` benchmark for the COIN mediator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig2_warm|fig2_cold|bulk_join --seed N --seconds S --trace 0|1
//! ```
//!
//! Starts the real server in-process (`start_server_with(…,
//! ServerConfig::default())`) and drives it over loopback HTTP/1.1
//! keep-alive from a closed loop of 2 client threads with one connection
//! each. Every answer is checked against an oracle after the timed
//! window. `--trace 0` reports the end-to-end metrics; `--trace 1` runs
//! the same untraced phase, then a traced server (a handler wrapper
//! timing `protocol_handler`), then an in-process replay of the same
//! request stream that records a span around each layer's entry point,
//! and reports the per-layer metrics. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod client;
mod metrics;
mod oracle;
mod replay;
mod rig;
mod stats;
mod trace;
mod workload;

use std::collections::{BTreeMap, HashMap};
use std::process::ExitCode;
use std::time::Instant;

use oracle::Oracle;
use replay::{Replayed, PREPARE_HIT, PREPARE_MISS};
use rig::{Phase, Rig};
use stats::{fraction, median, per_request, percentile, window_stats, Completion};
use trace::Trace;
use workload::{Kind, CLIENTS};

/// Times the set-up is repeated in an untraced run; `setup_s` is the
/// median.
const SETUP_REPEATS: usize = 15;
/// Equal windows a measured phase is split into; throughput and latency
/// percentiles are the medians over the windows, so a short stall on the
/// machine moves one window, not the result.
const WINDOWS: usize = 10;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = workload::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {value:?}; one of {names:?}")
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}; 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn machine_facts() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!("nproc={nproc} cpu={cpu:?} profile={profile}")
}

/// Peak resident set size of this process (server and clients), MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// End-to-end figures of one untraced phase.
struct EndToEnd {
    throughput_rps: f64,
    latency_p50_ms: f64,
    latency_p90_ms: f64,
}

fn end_to_end(phase: &Phase) -> Option<EndToEnd> {
    let done: Vec<Completion> = phase.ok_samples().map(|(s, _)| s.completion()).collect();
    let windows = window_stats(&done, phase.span_s, WINDOWS);
    let pick =
        |f: fn(&stats::WindowStats) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    Some(EndToEnd {
        throughput_rps: pick(|w| w.throughput_rps)?,
        latency_p50_ms: pick(|w| w.p50_ms)?,
        latency_p90_ms: pick(|w| w.p90_ms)?,
    })
}

fn print_phase_diagnostics(label: &str, phase: &Phase) {
    let lat = phase.latencies_ms();
    let attempted = phase.attempted();
    if let (Some(p50), Some(p99)) = (percentile(&lat, 50.0), percentile(&lat, 99.0)) {
        println!(
            "{label}: {attempted} requests in {:.1} s ({:.1} req/s overall), whole-run p50 {:.4} ms, \
             diag.latency_p99_ms = {:.4} ms (n={})",
            phase.span_s,
            lat.len() as f64 / phase.span_s,
            p50.value,
            p99.value,
            p99.samples
        );
    }
    let done: Vec<Completion> = phase.ok_samples().map(|(s, _)| s.completion()).collect();
    let windows = window_stats(&done, phase.span_s, WINDOWS);
    let rps: Vec<String> = windows
        .iter()
        .map(|w| format!("{:.0}", w.throughput_rps))
        .collect();
    println!("{label}: req/s per window [{}]", rps.join(" "));
}

/// Per-layer metrics from the traced run's three parts.
fn per_layer(
    untraced: &Phase,
    traced: &Phase,
    handler_log: &[(u64, f64)],
    trace: &Trace,
    replayed: &[Replayed],
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut m = BTreeMap::new();
    let missing = |what: &str| format!("traced run produced no {what}");

    // Transport and compile counters of the untraced phase.
    let (tb, ta) = &untraced.transport;
    let (cb, ca) = untraced.cache;
    let reqs = untraced.server_requests();
    let per_req =
        |b: u64, a: u64| per_request(b, a, reqs).ok_or_else(|| missing("server requests"));
    m.insert(
        "transport.wakeups_per_req",
        per_req(tb.reactor_wakeups, ta.reactor_wakeups)?,
    );
    m.insert(
        "transport.interest_ops_per_req",
        per_req(tb.interest_ops, ta.interest_ops)?,
    );
    m.insert(
        "transport.keepalive_reuse_frac",
        per_req(tb.keepalive_reuses, ta.keepalive_reuses)?,
    );
    m.insert(
        "transport.shed_per_req",
        per_req(tb.connections_shed, ta.connections_shed)?,
    );
    m.insert(
        "transport.streams_aborted",
        (ta.streams_aborted - tb.streams_aborted) as f64,
    );
    let hits = ca.hits - cb.hits;
    m.insert(
        "compile.cache_hit_frac",
        fraction(hits, hits + ca.misses - cb.misses).ok_or_else(|| missing("cache lookups"))?,
    );
    m.insert(
        "compile.compiles_per_req",
        per_req(cb.compiles, ca.compiles)?,
    );
    m.insert(
        "compile.evictions_per_req",
        per_req(cb.evictions, ca.evictions)?,
    );
    m.insert(
        "protocol.response_bytes",
        untraced
            .mean_response_bytes()
            .ok_or_else(|| missing("responses"))?,
    );

    // Handler time and the transport remainder, from the traced server.
    let handler: HashMap<u64, f64> = handler_log.iter().copied().collect();
    let produced: HashMap<u64, f64> = replayed.iter().map(|r| (r.id, r.produce_us)).collect();
    let any_materialized = traced.ok_samples().any(|(s, _)| !s.stream);
    let mut handler_us = Vec::new();
    let mut overhead_us = Vec::new();
    for (s, _) in traced.ok_samples() {
        let id = u64::from(s.id);
        let Some(&h) = handler.get(&id) else {
            continue;
        };
        let rtt_us = f64::from(s.latency_ms) * 1e3;
        if !s.stream {
            handler_us.push(h);
            overhead_us.push(rtt_us - h);
        } else if !any_materialized {
            // Streamed responses are produced after the handler returns;
            // take that production time from the replay of the same request.
            if let Some(p) = produced.get(&id) {
                handler_us.push(h);
                overhead_us.push(rtt_us - h - p);
            }
        }
    }
    m.insert(
        "protocol.handler_p50_us",
        median(&handler_us).ok_or_else(|| missing("handler times"))?,
    );
    m.insert(
        "transport.overhead_p50_us",
        median(&overhead_us).ok_or_else(|| missing("transport remainders"))?,
    );
    let untraced_p50 = median(&untraced.latencies_ms()).ok_or_else(|| missing("latencies"))?;
    let traced_p50 = median(&traced.latencies_ms()).ok_or_else(|| missing("traced latencies"))?;
    m.insert("trace.overhead_frac", traced_p50 / untraced_p50 - 1.0);

    // Layer spans from the in-process replay.
    let self_ns = trace.self_times_ns();
    for (metric, span) in [
        ("protocol.decode_us", "protocol.decode"),
        ("protocol.serialize_us", "protocol.serialize"),
        ("protocol.tail_render_us", "protocol.tail_render"),
        ("compile.prepare_hit_us", PREPARE_HIT),
        ("compile.prepare_miss_us", PREPARE_MISS),
        ("compile.mediate_us", "compile.mediate"),
        ("compile.plan_us", "compile.plan"),
        ("compile.sql_parse_us", "compile.sql_parse"),
        ("execute.stage_us", "execute.stage"),
        ("execute.drain_us", "execute.drain"),
    ] {
        let v = median(&trace.self_us(&self_ns, span)).ok_or_else(|| missing(span))?;
        m.insert(metric, v);
    }
    let n = replayed.len() as f64;
    if replayed.is_empty() {
        return Err(missing("replayed requests"));
    }
    let mean = |f: fn(&Replayed) -> f64| replayed.iter().map(f).sum::<f64>() / n;
    m.insert(
        "execute.remote_queries_per_req",
        mean(|r| r.stats.remote_queries as f64),
    );
    m.insert(
        "execute.rows_shipped_per_req",
        mean(|r| r.stats.rows_shipped as f64),
    );
    m.insert("execute.rows_out_per_req", mean(|r| r.rows_out as f64));
    m.insert(
        "execute.spill_bytes_per_req",
        mean(|r| r.stats.spill_bytes as f64),
    );

    // How far the in-process layer sum is from the HTTP handler time.
    let equiv: Vec<f64> = replayed
        .iter()
        .filter(|r| handler.contains_key(&r.id) && (!any_materialized || !r.stream))
        .map(|r| r.handler_equiv_us)
        .collect();
    if let (Some(e), Some(h)) = (median(&equiv), median(&handler_us)) {
        println!(
            "diag.layer_sum_gap_frac = {:.4} (in-process layer sum p50 {e:.1} us vs handler p50 \
             {h:.1} us, {} requests)",
            e / h - 1.0,
            equiv.len()
        );
    }
    let request_self = trace.self_us(&self_ns, "request");
    if let Some(v) = median(&request_self) {
        println!("diag.request_self_us = {v:.2} (replay time outside every layer span)");
    }
    Ok(m)
}

fn write_spans(kind: Kind, trace: &Trace) -> Result<String, String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let path = format!("{dir}/spans-{}.tsv", kind.name());
    let file = std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    trace
        .write_tsv(&mut out)
        .and_then(|_| std::io::Write::flush(&mut out))
        .map_err(|e| format!("{path}: {e}"))?;
    Ok(path)
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

fn run(args: &Args) -> Result<bool, String> {
    let kind = args.kind;
    println!("machine: {}", machine_facts());
    println!(
        "workload: {} seed={} seconds={} trace={} (closed loop, {CLIENTS} clients, one keep-alive \
         connection each, loopback)",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("why: {}", kind.why());
    let reference = kind.build_system(args.seed);
    println!(
        "inputs: digest={:016x} (first {} requests per client{})",
        workload::input_digest(kind, args.seed, &reference)?,
        workload::DIGEST_REQUESTS,
        if kind == Kind::BulkJoin {
            " and the seeded source tables"
        } else {
            ""
        }
    );
    let oracle = Oracle::new(kind, &reference)?;
    drop(reference);

    // Set-up: build the system, start the server, warm until steady.
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut rig: Option<Rig> = None;
    for _ in 0..repeats {
        if let Some(old) = rig.take() {
            old.handle.stop();
        }
        let start = Instant::now();
        rig = Some(rig::start_rig(kind, args.seed, false)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("at least one set-up");
    let untraced_s = if args.trace {
        args.seconds / 3.0
    } else {
        args.seconds
    };
    let untraced = rig::drive(&mut rig, kind, args.seed, untraced_s)?;
    rig.handle.stop();
    // Before the oracles run: their memory is the benchmark's, not the
    // server's.
    let peak_rss_mib = peak_rss_mib().ok_or("no VmHWM in /proc/self/status")?;
    print_phase_diagnostics("untraced", &untraced);
    let e2e = end_to_end(&untraced).ok_or("no request completed")?;

    let (mut failed, mut problems) = oracle::verify(kind, args.seed, &untraced, &oracle);
    let mut attempted = untraced.attempted();
    let values: BTreeMap<&str, f64> = if !args.trace {
        // Printed, not gated: on a shared 2-vCPU host their run-to-run
        // spread (tail-driven) was above any bound the format allows.
        println!(
            "{} diag.throughput_rps = {} 1/s, diag.latency_p90_ms = {} ms (medians over windows)",
            kind.name(),
            e2e.throughput_rps,
            e2e.latency_p90_ms
        );
        BTreeMap::from([
            ("latency_p50_ms", e2e.latency_p50_ms),
            ("setup_s", median(&setup_s).expect("at least one set-up")),
            ("peak_rss_mib", peak_rss_mib),
        ])
    } else {
        let mut traced_rig = rig::start_rig(kind, args.seed, true)?;
        let traced = rig::drive(&mut traced_rig, kind, args.seed, args.seconds / 3.0)?;
        let log = traced_rig.handler_log.take().expect("traced rig has a log");
        traced_rig.handle.stop();
        let log = std::mem::take(&mut *log.lock().expect("handler log lock"));
        print_phase_diagnostics("traced server", &traced);
        let (traced_failed, traced_problems) = oracle::verify(kind, args.seed, &traced, &oracle);
        failed += traced_failed;
        attempted += traced.attempted();
        problems.extend(traced_problems);

        let (trace, replayed) = replay::replay(
            kind,
            args.seed,
            args.seconds / 3.0,
            &traced.sent_per_client(),
        )?;
        println!(
            "replay: {} requests in-process, {} spans written to {}",
            replayed.len(),
            trace.spans.len(),
            write_spans(kind, &trace)?
        );
        per_layer(&untraced, &traced, &log, &trace, &replayed)?
    };

    let defs: Vec<(&str, &str, String)> = if args.trace {
        metrics::PER_LAYER
            .iter()
            .map(|d| {
                let note = format!(
                    "{} is better; layer {}; moves {}",
                    d.better, d.layer, d.moves
                );
                (d.name, d.unit, note)
            })
            .collect()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|d| (d.name, d.unit, format!("{} is better", d.better)))
            .collect()
    };
    let mut metrics = Vec::new();
    for (name, unit, note) in defs {
        let value = *values
            .get(name)
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {name} was not computed"))?;
        println!("{} {name} = {value} {unit} ({note})", kind.name());
        metrics.push((name, value, unit));
    }
    println!(
        "failed_frac = {} ({failed} of {attempted})",
        failed as f64 / attempted.max(1) as f64
    );
    for p in &problems {
        eprintln!("CHECK FAILED: {p}");
    }
    let correct = failed == 0 && problems.is_empty();
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coin_server::{parse_json, Json};

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 10, 0, &[("latency_p50_ms", 0.25, "ms")]);
        let doc = parse_json(&line).unwrap();
        let Json::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metric = doc.get("metrics").unwrap().get("latency_p50_ms").unwrap();
        assert_eq!(metric.get("value").unwrap().as_f64(), Some(0.25));
        assert_eq!(metric.get("unit").unwrap().as_str(), Some("ms"));
    }
}
