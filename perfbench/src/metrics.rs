//! Every metric the benchmark reports, with its unit and direction, and for
//! each per-layer metric the layer it measures and the end-to-end metric
//! (and workload) it should move. BENCHMARK.json lists the same names;
//! a test keeps the two in step.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// `crate::module` set the metric is taken at.
    pub layer: &'static str,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

/// Throughput and p90 are printed as diagnostics but not listed: their
/// run-to-run spread on a shared 2-vCPU host exceeded the largest bound
/// the benchmark format admits.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
    },
];

const TRANSPORT: &str = "transport coin-server::{reactor,conn,http,poller}";
const PROTOCOL: &str = "protocol coin-server::{protocol,json}";
const COMPILE: &str =
    "compile coin-core::{system,cache,prepared,mediate}, coin-sql, coin-logic, coin-planner::optimize";
const EXECUTE: &str = "execute coin-planner::exec, coin-wrapper, coin-pattern, coin-rel";

pub const PER_LAYER: &[PerLayer] = &[
    PerLayer {
        name: "transport.overhead_p50_us",
        unit: "us",
        better: "lower",
        layer: TRANSPORT,
        moves: "latency_p50_ms on fig2_warm",
    },
    PerLayer {
        name: "transport.wakeups_per_req",
        unit: "count",
        better: "lower",
        layer: TRANSPORT,
        moves: "latency_p50_ms on fig2_warm and bulk_join",
    },
    PerLayer {
        name: "transport.interest_ops_per_req",
        unit: "count",
        better: "lower",
        layer: TRANSPORT,
        moves: "latency_p50_ms on fig2_warm and bulk_join",
    },
    PerLayer {
        name: "transport.keepalive_reuse_frac",
        unit: "frac",
        better: "higher",
        layer: TRANSPORT,
        moves: "failed requests, all workloads",
    },
    PerLayer {
        name: "transport.shed_per_req",
        unit: "count",
        better: "lower",
        layer: TRANSPORT,
        moves: "failed requests, all workloads",
    },
    PerLayer {
        name: "transport.streams_aborted",
        unit: "count",
        better: "lower",
        layer: TRANSPORT,
        moves: "failed requests, all workloads",
    },
    PerLayer {
        name: "protocol.handler_p50_us",
        unit: "us",
        better: "lower",
        layer: PROTOCOL,
        moves: "latency_p50_ms on fig2_warm",
    },
    PerLayer {
        name: "protocol.decode_us",
        unit: "us",
        better: "lower",
        layer: PROTOCOL,
        moves: "latency_p50_ms on fig2_warm",
    },
    PerLayer {
        name: "protocol.tail_render_us",
        unit: "us",
        better: "lower",
        layer: PROTOCOL,
        moves: "latency_p50_ms on fig2_warm",
    },
    PerLayer {
        name: "protocol.serialize_us",
        unit: "us",
        better: "lower",
        layer: PROTOCOL,
        moves: "latency_p50_ms on bulk_join",
    },
    PerLayer {
        name: "protocol.response_bytes",
        unit: "bytes",
        better: "lower",
        layer: PROTOCOL,
        moves: "latency_p50_ms on bulk_join",
    },
    PerLayer {
        name: "compile.prepare_hit_us",
        unit: "us",
        better: "lower",
        layer: COMPILE,
        moves: "latency_p50_ms on fig2_warm",
    },
    PerLayer {
        name: "compile.prepare_miss_us",
        unit: "us",
        better: "lower",
        layer: COMPILE,
        moves: "latency_p50_ms on fig2_cold",
    },
    PerLayer {
        name: "compile.mediate_us",
        unit: "us",
        better: "lower",
        layer: COMPILE,
        moves: "latency_p50_ms on fig2_cold",
    },
    PerLayer {
        name: "compile.plan_us",
        unit: "us",
        better: "lower",
        layer: COMPILE,
        moves: "latency_p50_ms on fig2_cold",
    },
    PerLayer {
        name: "compile.sql_parse_us",
        unit: "us",
        better: "lower",
        layer: COMPILE,
        moves: "latency_p50_ms on fig2_cold",
    },
    PerLayer {
        name: "compile.cache_hit_frac",
        unit: "frac",
        better: "higher",
        layer: COMPILE,
        moves: "fig2_warm (about 1) against fig2_cold (about 0)",
    },
    PerLayer {
        name: "compile.compiles_per_req",
        unit: "count",
        better: "lower",
        layer: COMPILE,
        moves: "fig2_warm (about 0) against fig2_cold (about 1)",
    },
    PerLayer {
        name: "compile.evictions_per_req",
        unit: "count",
        better: "lower",
        layer: COMPILE,
        moves: "fig2_warm (about 0) against fig2_cold (about 1)",
    },
    PerLayer {
        name: "execute.stage_us",
        unit: "us",
        better: "lower",
        layer: EXECUTE,
        moves: "latency_p50_ms on fig2_warm and bulk_join",
    },
    PerLayer {
        name: "execute.drain_us",
        unit: "us",
        better: "lower",
        layer: EXECUTE,
        moves: "latency_p50_ms on bulk_join",
    },
    PerLayer {
        name: "execute.remote_queries_per_req",
        unit: "count",
        better: "lower",
        layer: EXECUTE,
        moves: "latency_p50_ms on fig2_warm and bulk_join",
    },
    PerLayer {
        name: "execute.rows_shipped_per_req",
        unit: "count",
        better: "lower",
        layer: EXECUTE,
        moves: "latency_p50_ms on fig2_warm and bulk_join",
    },
    PerLayer {
        name: "execute.rows_out_per_req",
        unit: "count",
        better: "lower",
        layer: EXECUTE,
        moves: "none: fixed by the answer; a change here is a wrong answer",
    },
    PerLayer {
        name: "execute.spill_bytes_per_req",
        unit: "bytes",
        better: "lower",
        layer: EXECUTE,
        moves: "latency_p50_ms on bulk_join",
    },
    PerLayer {
        name: "trace.overhead_frac",
        unit: "frac",
        better: "lower",
        layer: "trace (the benchmark's handler wrapper)",
        moves: "none: it bounds the cost of tracing",
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use coin_server::json::Json;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    /// BENCHMARK.json (at the repository root) names exactly the metrics
    /// this file defines, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = coin_server::parse_json(&text).expect("BENCHMARK.json parses");
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect();
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect();
        assert_eq!(listed(&doc, "end_to_end"), e2e);
        assert_eq!(listed(&doc, "per_layer"), layers);
        let workloads: Vec<_> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                let field = |f: &str| w.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("why"))
            })
            .collect();
        let ours: Vec<_> = crate::workload::Kind::ALL
            .iter()
            .map(|k| (k.name().to_string(), k.why().to_string()))
            .collect();
        assert_eq!(workloads, ours);
    }
}
