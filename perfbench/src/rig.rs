//! The server under test, its closed-loop clients and one measured phase.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use coin_server::http::{serve_with, Handler, HttpRequest, ServerConfig, ServerHandle};
use coin_server::protocol::protocol_handler;
use coin_server::{parse_json, start_server_with, Json, ServerMetricsSnapshot};

use crate::client::Client;
use crate::stats::{self, Completion};
use crate::workload::{self, Kind, CLIENTS};

/// Distinct answer sections one client keeps for checking. Each workload
/// produces at most two; more means answers vary where they must not.
const MAX_DISTINCT_ANSWERS: usize = 16;
/// Header carrying the request id in the traced server phase only.
const ID_HEADER: &str = "x-bench-id";
/// `(request id, handler microseconds)` from the traced server.
pub type HandlerLog = Arc<Mutex<Vec<(u64, f64)>>>;

/// A running server and its warmed, connected clients.
pub struct Rig {
    pub handle: ServerHandle,
    pub clients: Vec<Client>,
    pub handler_log: Option<HandlerLog>,
}

/// Wrap the product handler so each call is timed; requests without the
/// id header (warm-up, `/stats`) are not logged.
fn timed_handler(inner: Handler, log: HandlerLog) -> Handler {
    Arc::new(move |req: &HttpRequest| {
        let start = Instant::now();
        let response = inner(req);
        let us = start.elapsed().as_secs_f64() * 1e6;
        if let Some(id) = req.headers.get(ID_HEADER).and_then(|v| v.parse().ok()) {
            log.lock().expect("handler log lock").push((id, us));
        }
        response
    })
}

/// Build the system, start the server, connect the clients and warm up.
pub fn start_rig(kind: Kind, seed: u64, traced: bool) -> Result<Rig, String> {
    let system = Arc::new(kind.build_system(seed));
    let config = ServerConfig::default();
    let (handle, handler_log) = if traced {
        let log = HandlerLog::default();
        let handler = timed_handler(protocol_handler(system), Arc::clone(&log));
        (serve_with("127.0.0.1:0", config, handler), Some(log))
    } else {
        (start_server_with(system, "127.0.0.1:0", config), None)
    };
    let handle = handle.map_err(|e| format!("server start: {e}"))?;
    let mut clients = (0..CLIENTS)
        .map(|_| Client::connect(handle.addr))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| s.spawn(move || warm_up(client, kind, seed, c)))
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().expect("warm-up thread panicked"))
    })?;
    Ok(Rig {
        handle,
        clients,
        handler_log,
    })
}

fn warm_up(client: &mut Client, kind: Kind, seed: u64, c: usize) -> Result<(), String> {
    let mut body = Vec::new();
    for idx in 0..kind.warmup_per_client() {
        let req = workload::request(kind, seed, c, idx, true);
        let status = client
            .send("POST", "/query", None, req.body.as_bytes(), &mut body)
            .map_err(|e| format!("warm-up: {e}"))?;
        if status != 200 || workload::rows_section(&body).is_none() {
            return Err(format!(
                "warm-up request failed: HTTP {status} {}",
                String::from_utf8_lossy(&body[..body.len().min(300)])
            ));
        }
    }
    Ok(())
}

/// Plan-cache counters read from `GET /stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
    pub compiles: u64,
    pub evictions: u64,
}

fn read_stats(client: &mut Client) -> Result<CacheCounters, String> {
    let mut body = Vec::new();
    let status = client
        .send("GET", "/stats", None, b"", &mut body)
        .map_err(|e| format!("/stats: {e}"))?;
    let text = String::from_utf8_lossy(&body);
    let doc = parse_json(&text).map_err(|e| format!("/stats HTTP {status}: {e:?}"))?;
    let field = |k: &str| {
        doc.get(k)
            .and_then(Json::as_f64)
            .map(|v| v as u64)
            .ok_or_else(|| format!("/stats lacks {k}"))
    };
    Ok(CacheCounters {
        hits: field("cache_hits")?,
        misses: field("cache_misses")?,
        compiles: field("cache_compiles")?,
        evictions: field("cache_evictions")?,
    })
}

/// Marks a failed request in [`Sample::answer`].
const FAILED: u16 = u16::MAX;

/// One measured request. Kept to 16 bytes: a run holds one per request,
/// and they count towards the peak RSS.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// `idx * CLIENTS + client`.
    pub id: u32,
    /// Completion, seconds since the phase started.
    pub done_s: f32,
    pub latency_ms: f32,
    /// Index into the client's distinct answers, or [`FAILED`].
    answer: u16,
    pub stream: bool,
}

impl Sample {
    pub fn completion(&self) -> Completion {
        Completion {
            at_s: f64::from(self.done_s),
            latency_ms: f64::from(self.latency_ms),
        }
    }
}

/// What one client saw in a phase.
#[derive(Default)]
pub struct ClientRun {
    pub samples: Vec<Sample>,
    pub failed: u64,
    /// The first few failure reasons.
    pub reasons: Vec<String>,
    /// Distinct answer sections `(hash, bytes)`, kept for the oracle.
    pub answers: Vec<(u64, Vec<u8>)>,
    /// Body bytes of the successful responses.
    pub ok_bytes: u64,
    pub sent: u64,
}

/// A measured phase against one server. Samples stay with the client
/// that took them (merging would copy them all while both copies count
/// towards the peak RSS).
pub struct Phase {
    pub clients: Vec<ClientRun>,
    pub span_s: f64,
    pub transport: (ServerMetricsSnapshot, ServerMetricsSnapshot),
    pub cache: (CacheCounters, CacheCounters),
}

impl Phase {
    /// The successful samples, each with the hash of its answer section.
    pub fn ok_samples(&self) -> impl Iterator<Item = (&Sample, u64)> {
        self.clients.iter().flat_map(|c| {
            c.samples
                .iter()
                .filter(|s| s.answer != FAILED)
                .map(|s| (s, c.answers[usize::from(s.answer)].0))
        })
    }

    pub fn attempted(&self) -> u64 {
        self.clients.iter().map(|c| c.samples.len() as u64).sum()
    }

    pub fn failed(&self) -> u64 {
        self.clients.iter().map(|c| c.failed).sum()
    }

    pub fn sent_per_client(&self) -> Vec<u64> {
        self.clients.iter().map(|c| c.sent).collect()
    }

    /// Every distinct answer section any client saw.
    pub fn answers(&self) -> HashMap<u64, &[u8]> {
        self.clients
            .iter()
            .flat_map(|c| c.answers.iter().map(|(k, v)| (*k, v.as_slice())))
            .collect()
    }

    /// Mean body size of the successful responses.
    pub fn mean_response_bytes(&self) -> Option<f64> {
        let ok = self.ok_samples().count() as u64;
        let bytes: u64 = self.clients.iter().map(|c| c.ok_bytes).sum();
        stats::fraction(bytes, ok)
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.ok_samples()
            .map(|(s, _)| f64::from(s.latency_ms))
            .collect()
    }

    pub fn server_requests(&self) -> u64 {
        self.transport.1.requests - self.transport.0.requests
    }
}

/// The section of a response the oracle checks: the rows for `fig2_cold`
/// (each request's text differs), the whole stable prefix otherwise (so
/// streamed and `"stream": false` answers must be byte-identical).
fn answer_section(kind: Kind, body: &[u8]) -> Option<&[u8]> {
    match kind {
        Kind::Fig2Cold => workload::rows_section(body),
        Kind::Fig2Warm | Kind::BulkJoin => workload::stable_prefix(body),
    }
}

fn run_client(
    client: &mut Client,
    kind: Kind,
    seed: u64,
    c: usize,
    t0: Instant,
    deadline: Instant,
    tag_ids: bool,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut body = Vec::with_capacity(256 * 1024);
    let mut idx = 0u64;
    while Instant::now() < deadline {
        let req = workload::request(kind, seed, c, idx, false);
        let id = idx * CLIENTS as u64 + c as u64;
        let id_text = id.to_string();
        let header = tag_ids.then_some((ID_HEADER, id_text.as_str()));
        let start = Instant::now();
        let result = client.send("POST", "/query", header, req.body.as_bytes(), &mut body);
        let end = Instant::now();
        let answer = match result {
            Ok(200) => match answer_section(kind, &body) {
                Some(section) => {
                    let key = stats::hash_bytes(section, 0);
                    match run.answers.iter().position(|(k, _)| *k == key) {
                        Some(i) => Ok(i),
                        None if run.answers.len() < MAX_DISTINCT_ANSWERS => {
                            run.answers.push((key, section.to_vec()));
                            Ok(run.answers.len() - 1)
                        }
                        None => {
                            Err("more distinct answers than the workload can produce".to_string())
                        }
                    }
                }
                None => Err(format!(
                    "not an answer: {}",
                    String::from_utf8_lossy(&body[..body.len().min(300)])
                )),
            },
            Ok(status) => Err(format!("HTTP {status}")),
            Err(e) => {
                let reconnected = client.reconnect();
                Err(format!("transport error {e}; reconnect {reconnected:?}"))
            }
        };
        let answer = match answer {
            Ok(i) => {
                run.ok_bytes += body.len() as u64;
                u16::try_from(i).expect("MAX_DISTINCT_ANSWERS fits in u16")
            }
            Err(reason) => {
                run.failed += 1;
                if run.reasons.len() < 5 {
                    run.reasons.push(format!("request {id}: {reason}"));
                }
                FAILED
            }
        };
        run.samples.push(Sample {
            id: u32::try_from(id).expect("fewer than 2^32 requests per phase"),
            done_s: (end - t0).as_secs_f32(),
            latency_ms: (end - start).as_secs_f32() * 1e3,
            answer,
            stream: req.stream,
        });
        idx += 1;
    }
    run.sent = idx;
    run
}

/// Drive the closed loop for `seconds`, reading the server's counters
/// before and after.
pub fn drive(rig: &mut Rig, kind: Kind, seed: u64, seconds: f64) -> Result<Phase, String> {
    let tag_ids = rig.handler_log.is_some();
    let cache_before = read_stats(&mut rig.clients[0])?;
    let transport_before = rig.handle.metrics();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let clients: Vec<ClientRun> = std::thread::scope(|s| {
        let workers: Vec<_> = rig
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || run_client(client, kind, seed, c, t0, deadline, tag_ids))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let transport_after = rig.handle.metrics();
    let cache_after = read_stats(&mut rig.clients[0])?;
    Ok(Phase {
        clients,
        span_s: seconds,
        transport: (transport_before, transport_after),
        cache: (cache_before, cache_after),
    })
}
