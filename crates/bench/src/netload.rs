//! Network load driver: PR 5's harness pointed at a real socket.
//!
//! [`run_network`] drives `POST /v1/search` against a running
//! `litsearch serve` instance with the same closed/open-loop worker
//! model as [`crate::load`], recording *client-observed* latency into
//! the `serve.http.request` rolling series (open-loop arrivals anchor
//! latency at the scheduled arrival time, so queue delay on the server
//! counts — no coordinated omission). `429` deadline sheds are tallied
//! separately under `serve.http.shed`: a shed is the server keeping
//! its latency promise, not a failure, but a *nominal-load* run should
//! shed nothing (CI's serve-smoke gates on exactly that). Overload
//! itself is checked on the real server under a manual clock, in
//! `tests/serve_overload.rs`.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use obs::SloSpec;
use serde::Value;

use crate::load::{LoadHarness, LoadReport, LoopMode};
use context_search::{ContextSetKind, ScoreFunction};

/// Serving objectives for the wire path: p99 of client-observed
/// `serve.http.request` latency under the threshold, and 99.9%
/// non-error responses.
pub fn network_serve_slos(latency_threshold_ns: u64) -> Vec<SloSpec> {
    vec![
        SloSpec::latency(
            "serve-http-latency-p99",
            "serve.http.request",
            latency_threshold_ns,
            0.99,
        ),
        SloSpec::availability("serve-http-availability", "serve.http.request", 0.999),
    ]
}

/// A [`LoadReport`] plus wire-only tallies.
pub struct NetLoadReport {
    /// The harness report (windows, SLOs, slow queries).
    pub report: LoadReport,
    /// The target that was driven.
    pub target: String,
    /// `429` deadline sheds observed (counted separately from errors).
    pub shed: u64,
    /// `503` queue-full rejections observed.
    pub rejected: u64,
    /// Connect/read/write failures (these *do* count as errors).
    pub transport_errors: u64,
}

impl NetLoadReport {
    /// JSON object form: the load report with wire tallies appended.
    pub fn to_value(&self) -> Value {
        let mut value = self.report.to_value();
        if let Value::Map(fields) = &mut value {
            fields.push(("target".to_string(), Value::Str(self.target.clone())));
            fields.push(("shed".to_string(), Value::UInt(self.shed)));
            fields.push(("rejected".to_string(), Value::UInt(self.rejected)));
            fields.push((
                "transport_errors".to_string(),
                Value::UInt(self.transport_errors),
            ));
        }
        value
    }

    /// Pretty JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("report serializes")
    }

    /// Terminal dashboard: the harness rendering plus a wire footer.
    pub fn render_dashboard(&self) -> String {
        let mut out = self.report.render_dashboard();
        out.push_str(&format!(
            "\nwire: target {}  shed(429) {}  rejected(503) {}  transport_errors {}\n",
            self.target, self.shed, self.rejected, self.transport_errors
        ));
        out
    }
}

/// `http://host:port` (or bare `host:port`) → `host:port`.
fn host_port(target: &str) -> Result<String, String> {
    let stripped = target
        .strip_prefix("http://")
        .unwrap_or(target)
        .trim_end_matches('/');
    if stripped.is_empty() || !stripped.contains(':') {
        return Err(format!("target {target:?} must look like http://HOST:PORT"));
    }
    Ok(stripped.to_string())
}

fn kind_name(kind: ContextSetKind) -> &'static str {
    kind.name()
}

fn function_name(function: ScoreFunction) -> &'static str {
    function.name()
}

/// Build the `/v1/search` request bytes for one query.
fn search_request(
    host: &str,
    query: &str,
    kind: ContextSetKind,
    function: ScoreFunction,
    limit: usize,
) -> Vec<u8> {
    let body = serde_json::to_string(&Value::Map(vec![
        ("query".to_string(), Value::Str(query.to_string())),
        ("kind".to_string(), Value::Str(kind_name(kind).to_string())),
        (
            "function".to_string(),
            Value::Str(function_name(function).to_string()),
        ),
        ("limit".to_string(), Value::UInt(limit as u64)),
    ]))
    .expect("request body serializes");
    let mut bytes = format!(
        "POST /v1/search HTTP/1.1\r\nhost: {host}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

/// Read one `content-length`-framed response. Returns the status code
/// and whether the server asked to close the connection.
fn read_response(stream: &mut TcpStream, scratch: &mut Vec<u8>) -> Result<(u16, bool), String> {
    scratch.clear();
    let mut chunk = [0u8; 8192];
    let head_end = loop {
        if let Some(pos) = scratch.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        if scratch.len() > 64 * 1024 {
            return Err("response head too large".to_string());
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err("connection closed mid-response".to_string()),
            Ok(n) => scratch.extend_from_slice(&chunk[..n]),
            Err(err)
                if err.kind() == ErrorKind::WouldBlock || err.kind() == ErrorKind::TimedOut =>
            {
                continue
            }
            Err(err) => return Err(format!("read failed: {err}")),
        }
    };
    let head = std::str::from_utf8(&scratch[..head_end])
        .map_err(|_| "response head not UTF-8".to_string())?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut content_length = 0usize;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| format!("bad content-length {value:?}"))?;
        } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
            close = true;
        }
    }
    let total = head_end + 4 + content_length;
    while scratch.len() < total {
        match stream.read(&mut chunk) {
            Ok(0) => return Err("connection closed mid-body".to_string()),
            Ok(n) => scratch.extend_from_slice(&chunk[..n]),
            Err(err)
                if err.kind() == ErrorKind::WouldBlock || err.kind() == ErrorKind::TimedOut =>
            {
                continue
            }
            Err(err) => return Err(format!("read failed: {err}")),
        }
    }
    scratch.drain(..total);
    Ok((status, close))
}

/// Drive the harness's configured workload over real sockets. The
/// harness should carry network SLOs (see [`network_serve_slos`]);
/// `target` looks like `http://127.0.0.1:port`.
pub fn run_network(
    harness: &LoadHarness,
    target: &str,
    queries: &[String],
) -> Result<NetLoadReport, String> {
    if queries.is_empty() {
        return Err("network load run needs at least one query".to_string());
    }
    let cfg = harness.config();
    let host = host_port(target)?;
    let threads = cfg.threads.max(1);
    let clock = harness.clock().clone();
    let rolling = harness.rolling().clone();
    let slowlog = harness.slowlog().clone();

    let total_queries = AtomicU64::new(0);
    let total_errors = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    let transport_errors = AtomicU64::new(0);
    let start_ns = clock.now_ns();

    std::thread::scope(|scope| {
        for w in 0..threads {
            let host = host.as_str();
            let clock = &clock;
            let rolling = &rolling;
            let slowlog = &slowlog;
            let total_queries = &total_queries;
            let total_errors = &total_errors;
            let shed = &shed;
            let rejected = &rejected;
            let transport_errors = &transport_errors;
            scope.spawn(move || {
                let mut conn: Option<TcpStream> = None;
                let mut scratch: Vec<u8> = Vec::with_capacity(8192);
                for i in 0..cfg.queries_per_thread {
                    let query = &queries[(w * cfg.queries_per_thread + i) % queries.len()];
                    let request = search_request(host, query, cfg.kind, cfg.function, cfg.limit);

                    // Open loop: latency anchors at the scheduled
                    // arrival, not at send — queue delay counts.
                    let anchor_ns = match cfg.mode {
                        LoopMode::Closed => clock.now_ns(),
                        LoopMode::Open { qps_per_worker } => {
                            let arrival_ns = start_ns
                                + ((i as f64) * 1e9 / qps_per_worker.max(0.000_001)) as u64;
                            let now = clock.now_ns();
                            if arrival_ns > now {
                                std::thread::sleep(Duration::from_nanos(arrival_ns - now));
                            }
                            arrival_ns
                        }
                    };

                    let outcome = (|| -> Result<u16, String> {
                        for attempt in 0..2 {
                            let stream = match conn.as_mut() {
                                Some(stream) => stream,
                                None => {
                                    let fresh = TcpStream::connect(host)
                                        .map_err(|err| format!("connect {host}: {err}"))?;
                                    let _ = fresh.set_nodelay(true);
                                    let _ =
                                        fresh.set_read_timeout(Some(Duration::from_millis(100)));
                                    conn.insert(fresh)
                                }
                            };
                            let sent = stream.write_all(&request);
                            let got = match sent {
                                Ok(()) => read_response(stream, &mut scratch),
                                Err(err) => Err(format!("write failed: {err}")),
                            };
                            match got {
                                Ok((status, close)) => {
                                    if close {
                                        conn = None;
                                        scratch.clear();
                                    }
                                    return Ok(status);
                                }
                                Err(err) => {
                                    // Stale keep-alive sockets die on
                                    // first use; retry once on a fresh
                                    // connection.
                                    conn = None;
                                    scratch.clear();
                                    if attempt == 1 {
                                        return Err(err);
                                    }
                                }
                            }
                        }
                        Err("unreachable: retry loop returned".to_string())
                    })();

                    let completion_ns = clock.now_ns();
                    let latency_ns = completion_ns.saturating_sub(anchor_ns);
                    total_queries.fetch_add(1, Ordering::Relaxed);
                    match outcome {
                        Ok(429) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                            rolling.record_at(
                                w,
                                "serve.http.shed",
                                completion_ns,
                                latency_ns,
                                false,
                            );
                        }
                        Ok(503) => {
                            rejected.fetch_add(1, Ordering::Relaxed);
                            rolling.record_at(
                                w,
                                "serve.http.shed",
                                completion_ns,
                                latency_ns,
                                false,
                            );
                        }
                        Ok(status) => {
                            let error = status >= 400;
                            if error {
                                total_errors.fetch_add(1, Ordering::Relaxed);
                            }
                            rolling.record_at(
                                w,
                                "serve.http.request",
                                completion_ns,
                                latency_ns,
                                error,
                            );
                            if slowlog.is_slow(latency_ns) {
                                slowlog.push(obs::SlowQuery {
                                    query: query.clone(),
                                    duration_ns: latency_ns,
                                    ts_ns: completion_ns,
                                    stats: vec![("status".to_string(), u64::from(status))],
                                    trace: None,
                                });
                            }
                        }
                        Err(_) => {
                            transport_errors.fetch_add(1, Ordering::Relaxed);
                            total_errors.fetch_add(1, Ordering::Relaxed);
                            rolling.record_at(
                                w,
                                "serve.http.request",
                                completion_ns,
                                latency_ns,
                                true,
                            );
                        }
                    }
                }
            });
        }
    });

    let report = harness.report_at(
        clock.now_ns(),
        total_queries.load(Ordering::Relaxed),
        total_errors.load(Ordering::Relaxed),
    );
    Ok(NetLoadReport {
        report,
        target: target.to_string(),
        shed: shed.load(Ordering::Relaxed),
        rejected: rejected.load(Ordering::Relaxed),
        transport_errors: transport_errors.load(Ordering::Relaxed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_port_accepts_http_prefix() {
        assert_eq!(
            host_port("http://127.0.0.1:8080").unwrap(),
            "127.0.0.1:8080"
        );
        assert_eq!(host_port("127.0.0.1:9/").unwrap(), "127.0.0.1:9");
        assert!(host_port("http://nohostport").is_err());
    }
}
