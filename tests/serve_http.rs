//! End-to-end tests of the network serving subsystem (`crates/serve`).
//!
//! Three contracts from the PR:
//! 1. **Wire byte-identity**: the `/v1/search` response body over a real
//!    TCP connection is byte-for-byte what [`serve::encode_results`]
//!    produces for the equivalent in-process [`Searcher::query`] call,
//!    from 8 concurrent keep-alive connections at once.
//! 2. **Graceful drain**: every connection accepted before (or by the
//!    backlog sweep during) drain gets a complete response; afterwards
//!    the listener is closed.
//! 3. **CLI SIGTERM**: `litsearch serve` drains and exits cleanly on
//!    SIGTERM, leaving the port closed.
//! 4. **Keep-alive deadlines**: time a keep-alive connection sits idle
//!    between requests does not spend the next request's deadline.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use litsearch::context_search::{ContextSetKind, ScoreFunction};
use litsearch::demo::{snapshot, Scale};
use litsearch::serve::{self, SearchDefaults, ServerConfig};

/// The five standard prepared (paper set, function) pairs.
const PAIRS: [(ContextSetKind, ScoreFunction); 5] = [
    (ContextSetKind::TextBased, ScoreFunction::Text),
    (ContextSetKind::TextBased, ScoreFunction::Citation),
    (ContextSetKind::PatternBased, ScoreFunction::Pattern),
    (ContextSetKind::PatternBased, ScoreFunction::Citation),
    (ContextSetKind::PatternBased, ScoreFunction::Text),
];

/// Read one `Content-Length`-framed response from `stream`, carrying
/// leftover pipelined bytes across calls in `buf`.
fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> (u16, Vec<u8>) {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
            let status: u16 = head
                .lines()
                .next()
                .and_then(|line| line.split(' ').nth(1))
                .and_then(|code| code.parse().ok())
                .expect("status line");
            let content_length: usize = head
                .lines()
                .find_map(|line| {
                    let (name, value) = line.split_once(':')?;
                    if name.eq_ignore_ascii_case("content-length") {
                        value.trim().parse().ok()
                    } else {
                        None
                    }
                })
                .expect("content-length header");
            let total = head_end + 4 + content_length;
            while buf.len() < total {
                let n = stream.read(&mut chunk).expect("read body");
                assert!(n > 0, "EOF mid-body");
                buf.extend_from_slice(&chunk[..n]);
            }
            let body = buf[head_end + 4..total].to_vec();
            buf.drain(..total);
            return (status, body);
        }
        let n = stream.read(&mut chunk).expect("read head");
        assert!(n > 0, "EOF before response head completed");
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn search_request(query: &str, kind: ContextSetKind, function: ScoreFunction) -> Vec<u8> {
    let body = format!(
        "{{\"query\":{query:?},\"kind\":\"{}\",\"function\":\"{}\",\"limit\":5}}",
        kind.name(),
        function.name(),
    );
    format!(
        "POST /v1/search HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[test]
fn wire_results_are_byte_identical_across_eight_concurrent_connections() {
    let snap = snapshot(Scale::Tiny, 21);
    let searcher = snap.searcher();
    let queries: Vec<String> = snap
        .ontology()
        .term_ids()
        .map(|t| snap.ontology().term(t).name.clone())
        .take(16)
        .collect();

    let handle = serve::start(
        searcher.clone(),
        ServerConfig {
            workers: 4,
            queue_depth: 64,
            deadline_ns: 0, // never shed: every request must execute
            defaults: SearchDefaults::default(),
            ..Default::default()
        },
    )
    .expect("server starts on an ephemeral port");
    let addr = handle.local_addr();

    std::thread::scope(|scope| {
        for i in 0..8 {
            let searcher = searcher.clone();
            let queries = &queries;
            scope.spawn(move || {
                let (kind, function) = PAIRS[i % PAIRS.len()];
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .expect("read timeout");
                let mut buf = Vec::new();
                for query in queries {
                    stream
                        .write_all(&search_request(query, kind, function))
                        .expect("write request");
                    let (status, wire_body) = read_response(&mut stream, &mut buf);
                    assert_eq!(status, 200, "query {query:?} on conn {i}");
                    let expect = serve::encode_results(
                        &searcher
                            .query(query, kind, function, 5)
                            .expect("pair is prepared"),
                    );
                    assert_eq!(
                        wire_body,
                        expect.into_bytes(),
                        "wire bytes diverge from in-process results for {query:?} \
                         ({kind:?}/{function:?}) on conn {i}"
                    );
                }
            });
        }
    });

    let summary = handle.await_drained();
    assert_eq!(summary.requests, 8 * 16);
    assert_eq!(summary.responses_ok, 8 * 16);
    assert_eq!(summary.http_errors, 0);
    assert_eq!(summary.parse_errors, 0);
}

#[test]
fn graceful_drain_answers_all_admitted_requests_then_closes_listener() {
    let snap = snapshot(Scale::Tiny, 33);
    let searcher = snap.searcher();
    let query = snap
        .ontology()
        .term_ids()
        .map(|t| snap.ontology().term(t).name.clone())
        .next()
        .expect("non-empty ontology");

    // One worker so connections genuinely queue behind each other.
    let handle = serve::start(
        searcher,
        ServerConfig {
            workers: 1,
            queue_depth: 16,
            deadline_ns: 0,
            ..Default::default()
        },
    )
    .expect("server starts");
    let addr = handle.local_addr();

    // Establish 4 connections and push a full request down each before
    // drain begins: whatever the acceptor has not yet dequeued sits in
    // the kernel backlog and must be served by the drain sweep.
    let mut streams: Vec<TcpStream> = (0..4)
        .map(|_| {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            let body = format!("{{\"query\":{query:?},\"limit\":3}}");
            let req = format!(
                "POST /v1/search HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            );
            s.write_all(req.as_bytes()).expect("write request");
            s
        })
        .collect();

    handle.initiate_drain();

    // Every admitted request still gets a complete 200.
    for stream in &mut streams {
        let mut buf = Vec::new();
        let (status, body) = read_response(stream, &mut buf);
        assert_eq!(status, 200, "in-flight request dropped during drain");
        assert!(body.starts_with(b"{\"count\":"), "truncated drain response");
    }
    drop(streams);

    let summary = handle.await_drained();
    assert_eq!(summary.accepted, 4);
    assert_eq!(summary.requests, 4);
    assert_eq!(summary.responses_ok, 4);
    assert_eq!(summary.parse_errors, 0);

    // Listener is gone: new connections are refused.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "listener still accepting after drain"
    );
}

#[test]
fn keep_alive_idle_time_does_not_spend_the_next_deadline() {
    let snap = snapshot(Scale::Tiny, 21);
    let clock = Arc::new(obs::ManualClock::new(1_000_000_000));
    let handle = serve::start_with_clock(
        snap.searcher(),
        ServerConfig {
            workers: 2,
            deadline_ns: 50_000_000,
            ..Default::default()
        },
        Arc::clone(&clock) as Arc<dyn obs::Clock>,
    )
    .expect("server starts");
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");

    // Each pause between requests is longer than the whole deadline.
    let mut buf = Vec::new();
    let mut statuses = Vec::new();
    for _ in 0..8 {
        let request = search_request(
            "biological process",
            ContextSetKind::PatternBased,
            ScoreFunction::Citation,
        );
        stream.write_all(&request).expect("write request");
        statuses.push(read_response(&mut stream, &mut buf).0);
        clock.advance(60_000_000);
    }
    assert_eq!(
        statuses,
        vec![200; 8],
        "idle time spent a follower's deadline"
    );
    drop(stream);

    let summary = handle.await_drained();
    assert_eq!(summary.responses_ok, 8);
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGTERM: i32 = 15;

#[test]
fn cli_serve_drains_on_sigterm_and_closes_the_port() {
    let dir = std::env::temp_dir().join(format!("litsearch_serve_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let port_file = dir.join("port.txt");
    let _ = std::fs::remove_file(&port_file);

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_litsearch"))
        .args([
            "serve",
            "--port",
            "0",
            "--workers",
            "2",
            "--queue-depth",
            "16",
            "--deadline-ms",
            "5000",
            "--port-file",
        ])
        .arg(&port_file)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn litsearch serve");

    // The demo snapshot builds before the listener comes up.
    let mut port: Option<u16> = None;
    for _ in 0..600 {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if let Ok(p) = text.trim().parse() {
                port = Some(p);
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    let port = port.expect("server never wrote its port file");
    let addr = std::net::SocketAddr::from(([127, 0, 0, 1], port));

    // One health check and one search must complete before the signal.
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut buf = Vec::new();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
        .expect("write healthz");
    let (status, body) = read_response(&mut stream, &mut buf);
    assert_eq!(status, 200);
    assert!(body.starts_with(b"{\"status\":\"ok\""));

    let body = "{\"query\":\"process\"}";
    let search = format!(
        "POST /v1/search HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(search.as_bytes()).expect("write search");
    let (status, body) = read_response(&mut stream, &mut buf);
    assert_eq!(status, 200);
    assert!(
        body.starts_with(b"{\"count\":"),
        "incomplete search response"
    );
    drop(stream);

    let rc = unsafe { kill(child.id() as i32, SIGTERM) };
    assert_eq!(rc, 0, "kill(SIGTERM) failed");

    let mut exit = None;
    for _ in 0..300 {
        if let Some(st) = child.try_wait().expect("try_wait") {
            exit = Some(st);
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    let exit = exit.unwrap_or_else(|| {
        let _ = child.kill();
        panic!("serve process did not exit within 30s of SIGTERM");
    });
    assert!(exit.success(), "serve exited with {exit:?}");

    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "port still open after SIGTERM drain"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
