//! Overload on the real server, deterministically.
//!
//! The acceptor → admission queue → worker path of `serve::server` runs
//! under an [`obs::ManualClock`]. Every executed request costs a fixed
//! [`COST_NS`] of that clock: the exec hook parks its worker until the
//! clock reaches the request's start plus the cost. The test thread
//! opens one connection per arrival and moves the clock to the
//! next arrival or completion only when the server can do nothing more
//! at the current time: the acceptor has stamped every arrival, every
//! response the server has decided has reached its client, and every
//! admitted, unanswered request is parked in the hook or queued behind
//! [`WORKERS`] parked workers. Statuses and latencies are then a
//! function of the arrival schedule alone, whatever the threads do.
//!
//! The claims checked: deadline shedding keeps served p99 inside the
//! deadline at 2× capacity where an unbounded, non-shedding control
//! does not; half capacity sheds nothing; a drain begun mid-overload
//! answers every admitted request; every connection gets exactly one
//! response.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use litsearch::bench::load::network_serve_slos;
use litsearch::context_search::Searcher;
use litsearch::demo::{snapshot, Scale};
use litsearch::serve::{self, DrainSummary, ExecHook, ServerConfig, ServerStats};
use obs::{Clock, ManualClock, RollingConfig, RollingRecorder, SloReport};

const WORKERS: usize = 4;
const QUEUE_DEPTH: usize = 64;
const DEADLINE_NS: u64 = 50_000_000;
/// Execution cost of every request on the manual clock.
const COST_NS: u64 = 5_000_000;
const ARRIVALS: usize = 400;
/// Clock reading at the first arrival.
const T0_NS: u64 = 1_000_000_000;
/// Real time the test waits for the server to settle before it
/// reports a hang.
const STALL: Duration = Duration::from_secs(30);

// A full queue holds more work than the deadline allows, so without
// shedding the tail of the queue is served late.
const _: () = assert!(QUEUE_DEPTH as u64 * COST_NS / WORKERS as u64 > DEADLINE_NS);

/// One arrival schedule and server configuration.
#[derive(Clone, Copy)]
struct Run {
    /// Arrival rate as a multiple of capacity (`WORKERS / COST_NS`).
    factor: f64,
    /// Admission-queue bound (`0` = unbounded).
    queue_depth: usize,
    /// Deadline shedding on.
    shed: bool,
    /// Begin drain once this many arrivals are stamped, and send no
    /// more.
    drain_after: Option<usize>,
}

const SHEDDING: Run = Run {
    factor: 2.0,
    queue_depth: QUEUE_DEPTH,
    shed: true,
    drain_after: None,
};
const CONTROL: Run = Run {
    queue_depth: 0,
    shed: false,
    ..SHEDDING
};
const HALF: Run = Run {
    factor: 0.5,
    ..SHEDDING
};

fn testbed() -> &'static (Searcher, Vec<String>) {
    static TESTBED: OnceLock<(Searcher, Vec<String>)> = OnceLock::new();
    TESTBED.get_or_init(|| {
        let snap = snapshot(Scale::Tiny, 21);
        let queries = snap
            .ontology()
            .term_ids()
            .map(|t| snap.ontology().term(t).name.clone())
            .take(16)
            .collect();
        (snap.searcher(), queries)
    })
}

/// Workers parked in the exec hook, by the clock reading at which each
/// finishes.
struct Gate {
    clock: Arc<ManualClock>,
    parked: Mutex<Vec<u64>>,
    released: Condvar,
}

impl Gate {
    /// The exec hook: park until the clock reaches now + [`COST_NS`].
    fn park(&self) {
        let mut parked = self.parked.lock().unwrap();
        let due = self.clock.now_ns() + COST_NS;
        parked.push(due);
        while self.clock.now_ns() < due {
            parked = self.released.wait(parked).unwrap();
        }
    }

    /// Workers parked, and the earliest finish among them.
    fn parked(&self) -> (usize, Option<u64>) {
        let parked = self.parked.lock().unwrap();
        (parked.len(), parked.iter().copied().min())
    }

    /// Move the clock to `t_ns` and release every worker due by then.
    /// A released worker stops counting as parked here, before it runs
    /// again, so the test cannot mistake it for a settled one.
    fn advance_to(&self, t_ns: u64) {
        let mut parked = self.parked.lock().unwrap();
        self.clock.set_ns(t_ns);
        parked.retain(|&due| due > t_ns);
        self.released.notify_all();
    }
}

/// One connection, one request.
struct Client {
    stream: Option<TcpStream>,
    arrival_ns: u64,
    bytes: Vec<u8>,
    /// Status and latency on the manual clock, once the server closed.
    answer: Option<(u16, u64)>,
}

impl Client {
    fn connect(addr: SocketAddr, query: &str, arrival_ns: u64) -> Self {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let body = format!("{{\"query\":{query:?},\"limit\":3}}");
        let request = format!(
            "POST /v1/search HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes()).expect("send request");
        stream.set_nonblocking(true).expect("nonblocking client");
        Self {
            stream: Some(stream),
            arrival_ns,
            bytes: Vec::new(),
            answer: None,
        }
    }

    /// Read what has arrived; at end of stream, record the one
    /// response at `now_ns`.
    fn receive(&mut self, now_ns: u64) -> Option<(u16, u64)> {
        let stream = self.stream.as_mut()?;
        let mut chunk = [0u8; 4096];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => self.bytes.extend_from_slice(&chunk[..n]),
                Err(err) if err.kind() == ErrorKind::WouldBlock => return None,
                // A door rejection closes with the request unread.
                Err(err) if err.kind() == ErrorKind::ConnectionReset => break,
                Err(err) => panic!("client read failed: {err}"),
            }
        }
        self.stream = None;
        let answer = (one_response(&self.bytes), now_ns - self.arrival_ns);
        self.answer = Some(answer);
        Some(answer)
    }
}

/// The status of the response in `bytes`, which must hold exactly one.
fn one_response(bytes: &[u8]) -> u16 {
    let text = String::from_utf8_lossy(bytes);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no complete response head in {text:?}"));
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {head:?}"));
    let length: usize = head
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .unwrap_or_else(|| panic!("no content-length in {head:?}"));
    assert_eq!(body.len(), length, "exactly one response per connection");
    status
}

/// Responses the server has decided; each counter is bumped before its
/// response is written.
fn decided(stats: &ServerStats) -> usize {
    [
        &stats.responses_ok,
        &stats.http_errors,
        &stats.parse_errors,
        &stats.shed_deadline,
        &stats.shed_queue_full,
    ]
    .iter()
    .map(|c| c.load(Ordering::SeqCst) as usize)
    .sum()
}

struct Outcome {
    /// Status and latency per arrival, in arrival order.
    answers: Vec<(u16, u64)>,
    /// `network_serve_slos(DEADLINE_NS)` over the served latencies.
    slo: SloReport,
    summary: DrainSummary,
    addr: SocketAddr,
}

impl Outcome {
    fn count(&self, status: u16) -> usize {
        self.answers.iter().filter(|&&(s, _)| s == status).count()
    }

    /// Nearest-rank percentile of the served (200) latencies.
    fn served_ns(&self, q: f64) -> u64 {
        let mut served: Vec<u64> = self
            .answers
            .iter()
            .filter(|&&(s, _)| s == 200)
            .map(|&(_, ns)| ns)
            .collect();
        assert!(!served.is_empty(), "nothing was served");
        served.sort_unstable();
        let rank = ((q * served.len() as f64).ceil() as usize).clamp(1, served.len());
        served[rank - 1]
    }

    fn render(&self, label: &str) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        format!(
            "{label}: {} × 200, {} × 429, {} × 503; served p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
            self.count(200),
            self.count(429),
            self.count(503),
            ms(self.served_ns(0.50)),
            ms(self.served_ns(0.99)),
            ms(self.served_ns(1.0)),
        )
    }
}

/// Serve one run to its last response and drain the server.
fn drive(run: Run) -> Outcome {
    // One run at a time: each holds hundreds of sockets and five
    // threads, and the outcome does not depend on the host's speed.
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());

    let (searcher, queries) = testbed();
    let clock = Arc::new(ManualClock::new(T0_NS));
    let gate = Arc::new(Gate {
        clock: Arc::clone(&clock),
        parked: Mutex::new(Vec::new()),
        released: Condvar::new(),
    });
    let hook: ExecHook = {
        let gate = Arc::clone(&gate);
        Arc::new(move || gate.park())
    };
    let handle = serve::start_with_exec_hook(
        searcher.clone(),
        ServerConfig {
            workers: WORKERS,
            queue_depth: run.queue_depth,
            deadline_ns: DEADLINE_NS,
            shed: run.shed,
            ..Default::default()
        },
        Arc::clone(&clock) as Arc<dyn Clock>,
        hook,
    )
    .expect("server starts");
    let addr = handle.local_addr();
    let rolling = RollingRecorder::new(
        RollingConfig {
            bucket_secs: 1,
            window_secs: 60,
            shards: 1,
        },
        Arc::clone(&clock) as Arc<dyn Clock>,
    );

    let interval_ns = (COST_NS as f64 / WORKERS as f64 / run.factor).round() as u64;
    let n_arrivals = run.drain_after.unwrap_or(ARRIVALS);
    let mut clients: Vec<Client> = Vec::with_capacity(n_arrivals);
    let mut received = 0;
    let mut received_admitted = 0;
    let mut draining = false;
    let mut last_state = (0, 0, 0, 0);
    let mut last_change = Instant::now();
    loop {
        // Read order matters: `parked` only grows behind the test
        // thread's back, and `decided` cannot change once every admitted request
        // is parked or answered.
        let stats = handle.stats();
        let admitted = stats.enqueued.load(Ordering::SeqCst) as usize;
        let stamped = admitted + stats.shed_queue_full.load(Ordering::SeqCst) as usize;
        let (parked, next_due) = gate.parked();
        let decided = decided(stats);

        let state = (stamped, parked, decided, received);
        if state != last_state {
            last_state = state;
            last_change = Instant::now();
        } else if last_change.elapsed() > STALL {
            panic!(
                "server stalled: {} arrivals, {stamped} stamped, {admitted} admitted, \
                 {parked} parked, {decided} decided, {received} received",
                clients.len()
            );
        }

        if decided > received {
            let before = received;
            let now_ns = clock.now_ns();
            for client in &mut clients {
                let Some((status, latency_ns)) = client.receive(now_ns) else {
                    continue;
                };
                received += 1;
                match status {
                    503 => continue,
                    429 => rolling.record("client.shed", latency_ns, false),
                    _ => rolling.record("client.request", latency_ns, status != 200),
                }
                received_admitted += 1;
            }
            if received == before {
                std::thread::sleep(Duration::from_micros(20));
            }
            continue;
        }
        let unanswered = admitted - received_admitted;
        if stamped < clients.len() || (parked != unanswered && parked != WORKERS) {
            std::thread::sleep(Duration::from_micros(20));
            continue;
        }

        // Settled: nothing more happens until the clock moves.
        if run.drain_after == Some(clients.len()) && !draining {
            handle.initiate_drain();
            draining = true;
        }
        let next_arrival_ns =
            (clients.len() < n_arrivals).then(|| T0_NS + clients.len() as u64 * interval_ns);
        // Completions first: a worker finishing at an arrival's instant
        // frees its queue slot for it.
        let next_due = next_due.filter(|&due| next_arrival_ns.is_none_or(|a| due <= a));
        match (next_due, next_arrival_ns) {
            (Some(due), _) => gate.advance_to(due),
            (None, Some(arrival)) => {
                gate.advance_to(arrival);
                let query = &queries[clients.len() % queries.len()];
                clients.push(Client::connect(addr, query, arrival));
            }
            (None, None) => break,
        }
    }

    let summary = handle.await_drained();
    let answers: Vec<(u16, u64)> = clients
        .iter()
        .map(|c| c.answer.expect("every connection is answered"))
        .collect();
    assert_eq!(summary.accepted as usize, n_arrivals);
    for &(status, _) in &answers {
        assert!(
            matches!(status, 200 | 429 | 503),
            "unexpected status {status}"
        );
    }
    let slo = obs::slo::evaluate_at(
        &rolling,
        &network_serve_slos(DEADLINE_NS),
        &obs::default_burn_windows(),
        rolling.clock().now_ns(),
    );
    Outcome {
        answers,
        slo,
        summary,
        addr,
    }
}

#[test]
fn shedding_keeps_served_p99_inside_the_deadline_at_twice_capacity() {
    let first = drive(SHEDDING);
    println!("{}", first.render("2.0x, shedding"));
    assert!(
        first.served_ns(0.99) <= DEADLINE_NS,
        "{}",
        first.render("served p99 over the deadline")
    );
    assert!(first.count(429) >= 1, "{}", first.render("nothing shed"));
    assert_eq!(first.summary.shed_deadline as usize, first.count(429));
    assert_eq!(first.summary.shed_queue_full as usize, first.count(503));
    assert_eq!(first.summary.responses_ok as usize, first.count(200));

    let second = drive(SHEDDING);
    assert_eq!(
        first.answers,
        second.answers,
        "repeated run differs: {} / {}",
        first.render("first"),
        second.render("second")
    );
}

#[test]
fn unbounded_control_at_twice_capacity_misses_the_deadline_and_the_slo() {
    let control = drive(CONTROL);
    println!("{}", control.render("2.0x, unbounded control"));
    assert!(
        control.served_ns(0.99) > DEADLINE_NS,
        "{}",
        control.render("control served p99 inside the deadline")
    );
    assert_eq!(
        control.count(200),
        ARRIVALS,
        "the control serves everything"
    );
    assert!(
        control.slo.has_hard_violation(),
        "control latencies pass the SLO: {}",
        control.slo.to_markdown()
    );
}

#[test]
fn half_capacity_sheds_nothing_and_meets_the_slo() {
    let half = drive(HALF);
    println!("{}", half.render("0.5x"));
    assert_eq!(half.count(429), 0, "{}", half.render("shed at 0.5x"));
    assert_eq!(half.count(503), 0, "{}", half.render("rejected at 0.5x"));
    assert_eq!(half.served_ns(1.0), COST_NS, "nothing waits at 0.5x");
    assert!(
        !half.slo.has_hard_violation(),
        "0.5x latencies fail the SLO: {}",
        half.slo.to_markdown()
    );
}

#[test]
fn drain_halfway_through_overload_answers_every_admitted_request() {
    let drained = drive(Run {
        drain_after: Some(ARRIVALS / 2),
        ..SHEDDING
    });
    println!("{}", drained.render("2.0x, drained after 200 arrivals"));
    let admitted = ARRIVALS / 2 - drained.count(503);
    assert_eq!(
        drained.count(200) + drained.count(429),
        admitted,
        "an admitted request went unanswered"
    );
    assert!(drained.count(429) >= 1, "the drain began under overload");
    assert!(
        drained.served_ns(0.99) <= DEADLINE_NS,
        "{}",
        drained.render("served p99 over the deadline")
    );
    assert_eq!(drained.summary.requests as usize, admitted);
    assert!(
        TcpStream::connect_timeout(&drained.addr, Duration::from_millis(500)).is_err(),
        "listener still accepting after the drain"
    );
}
