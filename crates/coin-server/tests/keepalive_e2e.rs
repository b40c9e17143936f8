//! Keep-alive transport e2e: one connection serving many sequential
//! mediation requests, exact framing (`Content-Length` or chunked),
//! pipelining, idle timeout, `Connection: close`, and fault isolation
//! for malformed or oversized requests.
//!
//! The whole suite runs over the transport conformance matrix
//! (poll/epoll × 1/4 shards): the keep-alive dialect is a wire contract
//! and must not vary with the backend behind it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use coin_core::fixtures::figure2_system;
use coin_server::http::{HttpClient, HttpError};
use coin_server::{parse_json, start_server_with, Connection, Json, ServerConfig, ServerHandle};

#[path = "support/transport.rs"]
mod support;

use support::{reactor_matrix, wait_until, TransportCase, EPHEMERAL};

const Q1: &str = "SELECT r1.cname, r1.revenue FROM r1, r2 \
                  WHERE r1.cname = r2.cname AND r1.revenue > r2.expenses";

fn start(case: TransportCase, config: ServerConfig) -> ServerHandle {
    start_server_with(Arc::new(figure2_system()), EPHEMERAL, case.apply(config)).unwrap()
}

fn query_body(sql: &str) -> String {
    format!("{{\"sql\":\"{sql}\",\"context\":\"c_recv\",\"mode\":\"mediated\"}}")
}

#[test]
fn one_connection_serves_many_query_and_stats_requests() {
    for case in reactor_matrix() {
        let server = start(case, ServerConfig::default());
        let mut client = HttpClient::new(server.addr);
        for round in 0..10 {
            let body = client
                .request(
                    "POST",
                    "/query",
                    Some("application/json"),
                    query_body(Q1).as_bytes(),
                )
                .unwrap();
            let text = String::from_utf8_lossy(&body);
            assert!(
                text.contains("NTT"),
                "[{}] round {round}: {text}",
                case.name
            );
            let stats = client.request("GET", "/stats", None, &[]).unwrap();
            assert!(String::from_utf8_lossy(&stats).contains("cache_hits"));
        }
        assert_eq!(client.connects(), 1, "[{}] one TCP connection", case.name);
        assert_eq!(client.requests(), 20);
        let m = server.metrics();
        assert_eq!(m.connections_accepted, 1, "[{}] {m:?}", case.name);
        assert_eq!(m.requests, 20);
        assert_eq!(m.keepalive_reuses, 19);
        server.stop();
    }
}

#[test]
fn odbc_connection_reuses_its_socket() {
    for case in reactor_matrix() {
        let server = start(case, ServerConfig::default());
        let conn = Connection::open(server.addr, "c_recv");
        for _ in 0..5 {
            let rs = conn.statement().execute(Q1).unwrap();
            assert_eq!(rs.len(), 1);
            conn.server_stats().unwrap();
        }
        assert_eq!(conn.transport_connects(), 1, "[{}]", case.name);
        assert_eq!(server.metrics().connections_accepted, 1);
        server.stop();
    }
}

#[test]
fn responses_carry_exact_framing() {
    // Keep-alive requires self-delimiting responses: streamed `/query`
    // answers are `Transfer-Encoding: chunked`, everything else carries
    // an exact `Content-Length`. Both kinds interleave on one socket.
    for case in reactor_matrix() {
        let server = start(case, ServerConfig::default());
        let mut client = HttpClient::new(server.addr);
        for _ in 0..3 {
            let resp = client
                .send(
                    "POST",
                    "/query",
                    Some("application/json"),
                    query_body(Q1).as_bytes(),
                )
                .unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(
                resp.headers.get("transfer-encoding").map(String::as_str),
                Some("chunked"),
                "[{}] streamed /query responses are chunk-framed",
                case.name
            );
            assert!(!resp.headers.contains_key("content-length"));
            assert_eq!(
                resp.headers.get("connection").map(String::as_str),
                Some("keep-alive")
            );

            let resp = client.send("GET", "/stats", None, &[]).unwrap();
            assert_eq!(resp.status, 200);
            let framed: usize = resp
                .headers
                .get("content-length")
                .expect("non-streamed responses must be length-framed")
                .parse()
                .unwrap();
            assert_eq!(framed, resp.body.len());
            assert_eq!(
                resp.headers.get("connection").map(String::as_str),
                Some("keep-alive")
            );
        }
        assert_eq!(client.connects(), 1, "[{}] one socket", case.name);
        server.stop();
    }
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    for case in reactor_matrix() {
        let server = start(case, ServerConfig::default());
        let mut raw = TcpStream::connect(server.addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // Two requests written back-to-back before reading anything.
        let pipelined = "GET /stats HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n\
                         GET /dictionary HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n";
        raw.write_all(pipelined.as_bytes()).unwrap();
        raw.flush().unwrap();

        let mut reader = BufReader::new(raw);
        let mut bodies = Vec::new();
        for _ in 0..2 {
            let mut status = String::new();
            reader.read_line(&mut status).unwrap();
            assert!(status.contains("200"), "[{}] {status}", case.name);
            let mut len = 0usize;
            loop {
                let mut hline = String::new();
                reader.read_line(&mut hline).unwrap();
                if hline.trim_end().is_empty() {
                    break;
                }
                if let Some((k, v)) = hline.trim_end().split_once(':') {
                    if k.eq_ignore_ascii_case("content-length") {
                        len = v.trim().parse().unwrap();
                    }
                }
            }
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body).unwrap();
            bodies.push(String::from_utf8_lossy(&body).into_owned());
        }
        assert!(bodies[0].contains("cache_hits"), "first answer is /stats");
        assert!(bodies[1].contains("tables"), "second answer is /dictionary");
        assert_eq!(server.metrics().connections_accepted, 1);
        server.stop();
    }
}

#[test]
fn idle_timeout_closes_the_connection_and_client_reconnects() {
    for case in reactor_matrix() {
        let server = start(
            case,
            ServerConfig {
                idle_timeout: Duration::from_millis(100),
                ..ServerConfig::default()
            },
        );
        let mut client = HttpClient::new(server.addr);
        client.request("GET", "/stats", None, &[]).unwrap();
        assert_eq!(client.connects(), 1);
        // Outlive the server's idle timeout — the open-connection gauge
        // falling to zero is the signal that the server reaped the
        // socket (a fixed sleep here was a flake under load).
        wait_until("the idle socket is reaped", || {
            server.metrics().open_connections == 0
        });
        // The pooled socket is stale; the next request transparently
        // reconnects.
        client.request("GET", "/stats", None, &[]).unwrap();
        assert_eq!(client.connects(), 2, "[{}] socket replaced", case.name);
        assert_eq!(server.metrics().connections_accepted, 2);
        server.stop();
    }
}

#[test]
fn stale_socket_replay_is_method_aware() {
    for case in reactor_matrix() {
        let server = start(
            case,
            ServerConfig {
                idle_timeout: Duration::from_millis(100),
                ..ServerConfig::default()
            },
        );
        // A POST through the default policy must NOT be replayed on the
        // stale-socket signature: the disconnect surfaces as an error.
        let mut client = HttpClient::new(server.addr);
        client
            .request(
                "POST",
                "/query",
                Some("application/json"),
                query_body(Q1).as_bytes(),
            )
            .unwrap();
        wait_until("the idle socket is reaped", || {
            server.metrics().open_connections == 0
        });
        let second = client.send(
            "POST",
            "/query",
            Some("application/json"),
            query_body(Q1).as_bytes(),
        );
        assert!(
            matches!(second, Err(HttpError::Io(_))),
            "[{}] non-idempotent request must not be replayed: {second:?}",
            case.name
        );

        // The same POST with the caller vouching for idempotency is
        // transparently replayed on a fresh socket (as `Connection` does
        // for the read-only /query endpoint).
        let mut client = HttpClient::new(server.addr);
        client
            .request(
                "POST",
                "/query",
                Some("application/json"),
                query_body(Q1).as_bytes(),
            )
            .unwrap();
        wait_until("the idle socket is reaped again", || {
            server.metrics().open_connections == 0
        });
        let resp = client
            .send_assuming_idempotent(
                "POST",
                "/query",
                Some("application/json"),
                query_body(Q1).as_bytes(),
            )
            .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(client.connects(), 2, "[{}] replay reconnected", case.name);
        server.stop();
    }
}

#[test]
fn connection_close_header_is_honored() {
    for case in reactor_matrix() {
        let server = start(case, ServerConfig::default());
        let mut raw = TcpStream::connect(server.addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        raw.write_all(b"GET /stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        raw.flush().unwrap();
        let mut reply = Vec::new();
        let mut reader = BufReader::new(raw);
        // The server must answer and then close: read_to_end terminates.
        reader.read_to_end(&mut reply).unwrap();
        let text = String::from_utf8_lossy(&reply);
        assert!(text.starts_with("HTTP/1.1 200"), "[{}] {text}", case.name);
        assert!(text.to_ascii_lowercase().contains("connection: close"));
        server.stop();
    }
}

#[test]
fn http_10_defaults_to_close() {
    for case in reactor_matrix() {
        let server = start(case, ServerConfig::default());
        let mut raw = TcpStream::connect(server.addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        raw.write_all(b"GET /stats HTTP/1.0\r\nHost: x\r\n\r\n")
            .unwrap();
        raw.flush().unwrap();
        let mut reply = Vec::new();
        BufReader::new(raw).read_to_end(&mut reply).unwrap();
        let text = String::from_utf8_lossy(&reply);
        assert!(text.contains("200"), "[{}] {text}", case.name);
        assert!(text.to_ascii_lowercase().contains("connection: close"));
        server.stop();
    }
}

#[test]
fn max_requests_per_connection_is_enforced() {
    for case in reactor_matrix() {
        let server = start(
            case,
            ServerConfig {
                max_requests_per_connection: 3,
                ..ServerConfig::default()
            },
        );
        let mut client = HttpClient::new(server.addr);
        for _ in 0..6 {
            client.request("GET", "/stats", None, &[]).unwrap();
        }
        assert_eq!(client.connects(), 2, "[{}] recycled after 3", case.name);
        server.stop();
    }
}

#[test]
fn malformed_framing_gets_4xx_without_killing_the_worker() {
    for case in reactor_matrix() {
        let server = start(
            case,
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        );
        for garbage in [
            "NONSENSE\r\n\r\n",
            "GET\r\n\r\n",
            "GET /stats JUNK/9\r\n\r\n",
            "POST /query HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
        ] {
            let mut raw = TcpStream::connect(server.addr).unwrap();
            raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            raw.write_all(garbage.as_bytes()).unwrap();
            raw.flush().unwrap();
            let mut status = String::new();
            BufReader::new(raw).read_line(&mut status).unwrap();
            assert!(
                status.contains("400"),
                "[{}] {garbage:?} -> {status}",
                case.name
            );
        }
        // The single worker survived all four bad connections.
        let conn = Connection::open(server.addr, "c_recv");
        assert_eq!(conn.statement().execute(Q1).unwrap().len(), 1);
        assert_eq!(server.metrics().malformed_requests, 4, "[{}]", case.name);
        server.stop();
    }
}

#[test]
fn stalled_request_gets_408_within_the_read_deadline() {
    // Slow-loris defense: a request that starts but never finishes must
    // be answered 408 once `read_timeout` elapses, not held forever.
    for case in reactor_matrix() {
        let server = start(
            case,
            ServerConfig {
                read_timeout: Duration::from_millis(150),
                ..ServerConfig::default()
            },
        );
        let mut raw = TcpStream::connect(server.addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        raw.write_all(b"GET /stats HT").unwrap(); // partial request line
        raw.flush().unwrap();
        let mut reply = Vec::new();
        BufReader::new(raw).read_to_end(&mut reply).unwrap();
        let text = String::from_utf8_lossy(&reply);
        assert!(text.contains("408"), "[{}] {text}", case.name);
        assert!(text.to_ascii_lowercase().contains("connection: close"));
        assert_eq!(server.metrics().request_timeouts, 1, "[{}]", case.name);
        // The worker is free again.
        let conn = Connection::open(server.addr, "c_recv");
        assert_eq!(conn.statement().execute(Q1).unwrap().len(), 1);
        server.stop();
    }
}

#[test]
fn oversized_header_gets_431() {
    for case in reactor_matrix() {
        let server = start(case, ServerConfig::default());
        let mut raw = TcpStream::connect(server.addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // One header line just past the 8 KiB line cap (small enough to
        // fit in the socket buffer, so the write never races the
        // server's close).
        let pad = "x".repeat(10 * 1024);
        raw.write_all(format!("GET /stats HTTP/1.1\r\nHost: x\r\nX-Pad: {pad}\r\n\r\n").as_bytes())
            .unwrap();
        raw.flush().unwrap();
        let mut reply = Vec::new();
        BufReader::new(raw).read_to_end(&mut reply).unwrap();
        let text = String::from_utf8_lossy(&reply);
        assert!(text.contains("431"), "[{}] {text}", case.name);
        server.stop();
    }
}

#[test]
fn oversized_body_gets_413_and_connection_close() {
    for case in reactor_matrix() {
        let server = start(
            case,
            ServerConfig {
                workers: 1,
                max_body_bytes: 1024,
                ..ServerConfig::default()
            },
        );
        let mut raw = TcpStream::connect(server.addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        raw.write_all(b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 10000\r\n\r\n")
            .unwrap();
        raw.flush().unwrap();
        let mut reply = Vec::new();
        BufReader::new(raw).read_to_end(&mut reply).unwrap();
        let text = String::from_utf8_lossy(&reply);
        assert!(text.contains("413"), "[{}] {text}", case.name);
        assert!(text.to_ascii_lowercase().contains("connection: close"));
        // Worker lives on.
        let conn = Connection::open(server.addr, "c_recv");
        assert_eq!(conn.statement().execute(Q1).unwrap().len(), 1);
        server.stop();
    }
}

/// Everything the server sends before it closes the connection (a reset
/// after the close still leaves the bytes that arrived first).
fn read_until_closed(mut raw: TcpStream) -> String {
    let mut reply = Vec::new();
    let mut buf = [0u8; 4096];
    while let Ok(n) = raw.read(&mut buf) {
        if n == 0 {
            break;
        }
        reply.extend_from_slice(&buf[..n]);
    }
    String::from_utf8_lossy(&reply).into_owned()
}

#[test]
fn unframeable_bodies_are_refused_and_never_reparsed() {
    // RFC 9112 §6.3: a body the server cannot frame by one Content-Length
    // is refused and the connection closed. Framing it any other way
    // would answer the bytes behind it as a second request.
    let smuggled = "GET /stats HTTP/1.1\r\nHost: x\r\n\r\n";
    let requests = [
        (
            format!(
                "POST /query HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n{smuggled}"
            ),
            501,
        ),
        (
            format!(
                "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\
                 Content-Length: 0\r\n\r\n{smuggled}",
                smuggled.len()
            ),
            400,
        ),
    ];
    for case in reactor_matrix() {
        let server = start(case, ServerConfig::default());
        for (request, status) in &requests {
            let mut raw = TcpStream::connect(server.addr).unwrap();
            raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            raw.write_all(request.as_bytes()).unwrap();
            let text = read_until_closed(raw);
            assert!(
                text.starts_with(&format!("HTTP/1.1 {status} ")),
                "[{}] {text}",
                case.name
            );
            assert_eq!(
                text.matches("HTTP/1.1 ").count(),
                1,
                "[{}] the bytes after the refused request were answered: {text}",
                case.name
            );
            assert!(text.to_ascii_lowercase().contains("connection: close"));
        }
        // A fresh connection is served as usual.
        let conn = Connection::open(server.addr, "c_recv");
        assert_eq!(conn.statement().execute(Q1).unwrap().len(), 1);
        server.stop();
    }
}

#[test]
fn deeply_nested_json_body_is_an_error_not_a_crash() {
    // 20 000 nested arrays: a 40 KB body, far under `max_body_bytes`,
    // that an unbounded recursive descent turns into a stack overflow
    // aborting the whole process.
    let body = "[".repeat(20_000) + &"]".repeat(20_000);
    for case in reactor_matrix() {
        let server = start(case, ServerConfig::default());
        let mut client = HttpClient::new(server.addr);
        let resp = client
            .send("POST", "/query", Some("application/json"), body.as_bytes())
            .unwrap();
        let doc = parse_json(&String::from_utf8_lossy(&resp.body)).unwrap();
        let error = doc.get("error").and_then(Json::as_str).unwrap_or_default();
        assert!(error.contains("bad request body"), "[{}] {doc}", case.name);
        let conn = Connection::open(server.addr, "c_recv");
        assert_eq!(conn.statement().execute(Q1).unwrap().len(), 1);
        server.stop();
    }
}

/// `SELECT … FROM r1` whose WHERE nests `n` levels of one recursive SQL
/// form.
fn deep_where(form: &str, n: usize) -> String {
    let pred = match form {
        "parens" => format!("{}1{} = 1", "(".repeat(n), ")".repeat(n)),
        "NOT" => format!("{}r1.revenue > 0", "NOT ".repeat(n)),
        // `n` ones in a left-deep sum.
        "chain" => format!("{}1 > 0", "1+".repeat(n - 1)),
        // A balanced tree of 2^n conjuncts.
        "AND tree" => (0..n).fold("r1.revenue > 0".into(), |e, _| format!("({e}) AND ({e})")),
        other => unreachable!("{other}"),
    };
    format!("SELECT r1.cname FROM r1 WHERE {pred}")
}

#[test]
fn deeply_nested_sql_is_an_error_not_a_crash() {
    // 1000 parentheses (a 2 KB body), 50 000 NOTs and a 100 KB left-deep
    // `1+1+…+1`: each overflowed a worker's stack, in the SQL parser or
    // when the parsed query was printed. A balanced tree of 1024
    // conjuncts is only 12 levels deep, but the planner rebuilds it as a
    // 1024-deep chain.
    let too_deep = [
        deep_where("parens", 1000),
        deep_where("NOT", 50_000),
        deep_where("chain", 50_000),
        deep_where("AND tree", 10),
    ];
    // The same forms exactly at the bound (the NOT operand and the
    // comparison each add one level; an AND counts its conjuncts' sum)
    // are answered.
    let max = coin_sql::MAX_DEPTH;
    let at_bound = [
        deep_where("parens", max - 1),
        deep_where("NOT", max - 2),
        deep_where("chain", max - 1),
        deep_where("AND tree", max.ilog2() as usize - 1),
    ];
    for case in reactor_matrix() {
        let server = start(case, ServerConfig::default());
        let mut client = HttpClient::new(server.addr);
        for mode in ["naive", "mediated"] {
            let mut post = |sql: &str| {
                let body =
                    format!("{{\"sql\":\"{sql}\",\"context\":\"c_recv\",\"mode\":\"{mode}\"}}");
                let resp = client
                    .send("POST", "/query", Some("application/json"), body.as_bytes())
                    .unwrap();
                parse_json(&String::from_utf8_lossy(&resp.body)).unwrap()
            };
            for sql in &too_deep {
                let doc = post(sql);
                let error = doc.get("error").and_then(Json::as_str).unwrap_or_default();
                assert!(
                    error.contains("deeper than"),
                    "[{}] {mode}: {doc}",
                    case.name
                );
            }
            for sql in &at_bound {
                // Both companies have positive revenue; mediation answers
                // or (for NOT, which it cannot push) refuses, never crashes.
                let doc = post(sql);
                let rows = doc.get("rows").and_then(Json::as_array);
                let error = doc.get("error").and_then(Json::as_str).unwrap_or_default();
                assert!(
                    rows.map(<[Json]>::len) == Some(2)
                        || (mode == "mediated" && error.starts_with("mediation does not support")),
                    "[{}] {mode}: {doc}",
                    case.name
                );
            }
        }
        let conn = Connection::open(server.addr, "c_recv");
        assert_eq!(conn.statement().execute(Q1).unwrap().len(), 1);
        server.stop();
    }
}

#[test]
fn keep_alive_can_be_disabled_server_side() {
    for case in reactor_matrix() {
        let server = start(
            case,
            ServerConfig {
                keep_alive: false,
                ..ServerConfig::default()
            },
        );
        let mut client = HttpClient::new(server.addr);
        for _ in 0..3 {
            let resp = client.send("GET", "/stats", None, &[]).unwrap();
            assert_eq!(
                resp.headers.get("connection").map(String::as_str),
                Some("close")
            );
        }
        assert_eq!(client.connects(), 3, "[{}] fresh conn each", case.name);
        server.stop();
    }
}
