//! The three workloads: their systems, their seeded request streams, and
//! the oracles their answers are checked against.

use coin_core::fixtures::{figure2_system, synthetic_system};
use coin_core::CoinSystem;
use coin_rel::Value;
use coin_server::json::Json;
use coin_server::parse_json;
use coin_server::protocol::json_to_value;

use crate::stats::hash_bytes;

/// Paper §3 query Q1, posed in the receiver context `c_recv`.
pub const Q1: &str = "SELECT r1.cname, r1.revenue FROM r1, r2 \
                      WHERE r1.cname = r2.cname AND r1.revenue > r2.expenses";
/// A USD × GBP join that needs a currency conversion on one side.
pub const BULK_SQL: &str = "SELECT a.cname, a.amount, b.amount FROM fin0 a, fin3 b \
                            WHERE a.cname = b.cname AND a.amount < b.amount";
pub const CONTEXT: &str = "c_recv";
/// Closed-loop clients, one keep-alive connection each. COIN receivers
/// (the ODBC-style `Statement`, the QBE form) block on each reply.
pub const CLIENTS: usize = 2;
/// The seed when none is given; `bulk_join`'s row-count self-check is
/// pinned at it.
pub const DEFAULT_SEED: u64 = 7;
pub const BULK_ROWS_AT_DEFAULT_SEED: usize = 3482;
/// Requests per client covered by the printed request digest.
pub const DIGEST_REQUESTS: u64 = 1000;
/// `fig2_cold` keeps `k` request-unique by putting the request's slot in
/// the low bits; 2^17 requests per client is far above what one run sends.
const COLD_SLOT_BITS: u32 = 18;
/// Upper bound on the random high part of `k`: 74 · 2^18 ≈ 19.4M, so about
/// half the thresholds fall below NTT's converted revenue (9.6M).
const COLD_HIGH_VALUES: u64 = 74;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fig2Warm,
    Fig2Cold,
    BulkJoin,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Fig2Warm, Kind::Fig2Cold, Kind::BulkJoin];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig2Warm => "fig2_warm",
            Kind::Fig2Cold => "fig2_cold",
            Kind::BulkJoin => "bulk_join",
        }
    }

    /// Why the workload exists (the same sentence as in BENCHMARK.json).
    pub fn why(self) -> &'static str {
        match self {
            Kind::Fig2Warm => {
                "2 closed-loop clients: paper Q1 with the plan cached, half streamed and half \
                 stream:false, so fixed per-request costs (transport, decode, 7 fetches, \
                 rendering) dominate"
            }
            Kind::Fig2Cold => {
                "2 closed-loop clients: Q1 with a request-unique threshold, so every request \
                 misses the plan cache and pays mediation, planning and LRU eviction"
            }
            Kind::BulkJoin => {
                "2 closed-loop clients: a streamed USD x GBP join over 2x5000 rows returning \
                 ~3.5k converted rows, so fetch, join, conversion and row serialization dominate"
            }
        }
    }

    /// Warm-up requests each client sends before measuring: enough to
    /// cache the plans, open both connections and fault in every code
    /// path the measured requests take.
    pub fn warmup_per_client(self) -> u64 {
        match self {
            Kind::Fig2Warm => 300,
            Kind::Fig2Cold => 60,
            Kind::BulkJoin => 8,
        }
    }

    /// The deployment the server (and each in-process replica) runs.
    pub fn build_system(self, seed: u64) -> CoinSystem {
        match self {
            Kind::Fig2Warm | Kind::Fig2Cold => figure2_system(),
            Kind::BulkJoin => synthetic_system(4, 5000, seed),
        }
    }
}

/// One generated `/query` request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub sql: String,
    pub stream: bool,
    pub body: String,
}

/// SplitMix64 finalizer: a stateless mix, so request `(client, idx)` can
/// be regenerated in any order (the replay and the oracle need that).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn draw(seed: u64, client: usize, idx: u64, warmup: bool) -> u64 {
    mix(mix(mix(seed) ^ client as u64) ^ idx ^ (u64::from(warmup) << 63))
}

/// Request `idx` of `client`'s stream. Warm-up requests come from a
/// disjoint stream (for `fig2_cold`, thresholds with a `.5` fraction, so
/// no warm-up plan is ever reused by a measured request).
pub fn request(kind: Kind, seed: u64, client: usize, idx: u64, warmup: bool) -> Request {
    let r = draw(seed, client, idx, warmup);
    let (sql, stream) = match kind {
        Kind::Fig2Warm => (Q1.to_string(), r & 1 == 0),
        Kind::Fig2Cold => {
            let slot = idx * CLIENTS as u64 + client as u64;
            assert!(
                slot < 1 << COLD_SLOT_BITS,
                "fig2_cold ran out of request-unique thresholds"
            );
            let k = ((r % COLD_HIGH_VALUES) << COLD_SLOT_BITS) | slot;
            let fraction = if warmup { ".5" } else { "" };
            (format!("{Q1} AND r1.revenue > {k}{fraction}"), true)
        }
        Kind::BulkJoin => (BULK_SQL.to_string(), true),
    };
    let mut fields = vec![
        ("sql".to_string(), Json::Str(sql.clone())),
        ("context".to_string(), Json::str(CONTEXT)),
    ];
    if !stream {
        fields.push(("stream".to_string(), Json::Bool(false)));
    }
    Request {
        body: Json::Obj(fields).to_string(),
        sql,
        stream,
    }
}

/// Digest of the generated inputs: the first [`DIGEST_REQUESTS`] requests
/// of every client, plus (for `bulk_join`, whose requests do not vary)
/// the seeded source tables themselves.
pub fn input_digest(kind: Kind, seed: u64, system: &CoinSystem) -> Result<u64, String> {
    let mut h = 0u64;
    for client in 0..CLIENTS {
        for idx in 0..DIGEST_REQUESTS {
            let r = request(kind, seed, client, idx, false);
            h = hash_bytes(r.body.as_bytes(), h);
        }
    }
    if kind == Kind::BulkJoin {
        for i in 0..4 {
            let (table, _) = system
                .query_naive(&format!("SELECT cname, amount FROM fin{i}"))
                .map_err(|e| e.to_string())?;
            for row in &table.rows {
                h = hash_bytes(format!("{row:?}").as_bytes(), h);
            }
        }
    }
    Ok(h)
}

/// Order-insensitive digest of a row set.
pub fn row_digest(rows: &[Vec<Value>]) -> u64 {
    rows.iter().fold(0u64, |acc, row| {
        acc.wrapping_add(hash_bytes(format!("{row:?}").as_bytes(), 0))
    })
}

/// The part of a mediated `/query` body that must not vary between two
/// answers to the same SQL: everything before the cumulative
/// `cache_hits`/`cache_misses` counters.
pub fn stable_prefix(body: &[u8]) -> Option<&[u8]> {
    rfind(body, b",\"cache_hits\":").map(|i| &body[..i])
}

/// The `"rows"` array of a mediated `/query` body.
pub fn rows_section(body: &[u8]) -> Option<&[u8]> {
    let start = find(body, b"\"rows\":")? + b"\"rows\":".len();
    let end = rfind(body, b",\"mediated_sql\":")?;
    (start <= end).then(|| &body[start..end])
}

/// Decode a `"rows"` array into values.
pub fn parse_rows(section: &[u8]) -> Result<Vec<Vec<Value>>, String> {
    let text = std::str::from_utf8(section).map_err(|_| "rows are not UTF-8".to_string())?;
    let doc = parse_json(text).map_err(|e| format!("rows are not JSON: {e:?}"))?;
    let rows = doc.as_array().ok_or("rows is not an array")?;
    rows.iter()
        .map(|row| {
            row.as_array()
                .ok_or_else(|| "row is not an array".to_string())?
                .iter()
                .map(|v| json_to_value(v).ok_or_else(|| format!("bad wire value {v:?}")))
                .collect()
        })
        .collect()
}

/// First position of `needle` in `haystack`.
pub fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn rfind(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).rposition(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_digests_and_different_seeds_differ() {
        for kind in Kind::ALL {
            let a = kind.build_system(DEFAULT_SEED);
            let b = kind.build_system(8);
            let d7 = input_digest(kind, DEFAULT_SEED, &a).unwrap();
            assert_eq!(d7, input_digest(kind, DEFAULT_SEED, &a).unwrap());
            assert_eq!(
                d7,
                input_digest(kind, DEFAULT_SEED, &kind.build_system(DEFAULT_SEED)).unwrap()
            );
            assert_ne!(d7, input_digest(kind, 8, &b).unwrap(), "{}", kind.name());
        }
    }

    #[test]
    fn cold_requests_never_repeat_and_warmup_is_disjoint() {
        let mut seen = std::collections::HashSet::new();
        for client in 0..CLIENTS {
            for idx in 0..5000 {
                assert!(seen.insert(request(Kind::Fig2Cold, 3, client, idx, false).sql));
            }
            for idx in 0..100 {
                assert!(seen.insert(request(Kind::Fig2Cold, 3, client, idx, true).sql));
            }
        }
    }

    #[test]
    fn warm_mix_sends_both_stream_modes() {
        let streamed = (0..1000)
            .filter(|&i| request(Kind::Fig2Warm, 1, 0, i, false).stream)
            .count();
        assert!((400..600).contains(&streamed), "{streamed}");
        let r = request(Kind::Fig2Warm, 1, 0, 0, false);
        let doc = parse_json(&r.body).unwrap();
        assert_eq!(doc.get("sql").unwrap().as_str(), Some(Q1));
        assert_eq!(
            doc.get("stream").and_then(Json::as_bool).unwrap_or(true),
            r.stream
        );
    }

    #[test]
    fn body_sections() {
        let body = br#"{"columns":[],"rows":[[["s","NTT"],["f",9600000]]],"mediated_sql":"x","cache":"hit","cache_hits":3,"cache_misses":1}"#;
        assert_eq!(
            rows_section(body).unwrap(),
            br#"[[["s","NTT"],["f",9600000]]]"#
        );
        assert!(stable_prefix(body).unwrap().ends_with(br#""cache":"hit""#));
        assert_eq!(
            parse_rows(rows_section(body).unwrap()).unwrap(),
            vec![vec![Value::str("NTT"), Value::Float(9_600_000.0)]]
        );
        assert!(rows_section(br#"{"error":"boom"}"#).is_none());
        let a = vec![vec![Value::Int(1)], vec![Value::Int(2)]];
        let b = vec![vec![Value::Int(2)], vec![Value::Int(1)]];
        assert_eq!(row_digest(&a), row_digest(&b));
        assert_ne!(row_digest(&a), row_digest(&a[..1]));
    }
}
