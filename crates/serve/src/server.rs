//! Acceptor thread, worker pool, deadline shedding, graceful drain.
//!
//! Data flow: one nonblocking acceptor feeds the bounded
//! [`AdmissionQueue`]; `workers` threads each hold the shared
//! lock-free [`Searcher`] (inside [`AppState`]) and pull connections
//! off the queue. Per-request deadlines are stamped at *enqueue* time
//! with the injectable [`obs::Clock`], so time spent waiting in line
//! counts against the budget — the same accounting `litsearch top`'s
//! open loop uses to avoid the coordinated-omission trap. A request
//! whose remaining budget is below the EWMA-estimated service cost is
//! answered `429 + Retry-After` immediately instead of executing past
//! its deadline; a connection that does not fit in the queue is
//! answered `503 + Retry-After` straight from the acceptor.
//!
//! Drain ([`ServerHandle::initiate_drain`] → [`ServerHandle::await_drained`]):
//! stop accepting (after sweeping the kernel backlog so nothing
//! already accepted by the OS is orphaned), close the listener, close
//! queue intake, let workers finish every admitted connection, then
//! join. Zero accepted requests are dropped.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use context_search::Searcher;
use obs::{Clock, MonotonicClock, SlowQuery};

use crate::admission::{AdmissionQueue, PendingConn};
use crate::handler::{handle_request, AppState, SearchDefaults};
use crate::http::{self, Parsed, Request, Response};

/// How the server listens, queues, sheds, and times out.
#[derive(Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads (each holds a `Searcher` handle).
    pub workers: usize,
    /// Admission-queue depth bound; `0` = unbounded (control runs).
    pub queue_depth: usize,
    /// Per-request deadline in nanoseconds, anchored at enqueue;
    /// `0` disables deadline accounting entirely.
    pub deadline_ns: u64,
    /// Shed requests whose remaining budget is below the estimated
    /// service cost (`false` = the unbounded-queueing control mode).
    pub shed: bool,
    /// Defaults for omitted `/v1/search` body fields.
    pub defaults: SearchDefaults,
    /// Close keep-alive connections idle longer than this.
    pub keep_alive_idle_ns: u64,
    /// Optional ranking-quality shadow scorer to feed per request.
    pub shadow: Option<Arc<context_search::QualityShadow>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            deadline_ns: 50_000_000,
            shed: true,
            defaults: SearchDefaults::default(),
            keep_alive_idle_ns: 5_000_000_000,
            shadow: None,
        }
    }
}

/// Monotonic counters every thread shares; [`DrainSummary`] snapshots
/// them at shutdown.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted from the kernel.
    pub accepted: AtomicU64,
    /// Connections admitted to the queue.
    pub enqueued: AtomicU64,
    /// Connections rejected 503 at the door (queue full).
    pub shed_queue_full: AtomicU64,
    /// Requests rejected 429 (deadline budget below estimated cost).
    pub shed_deadline: AtomicU64,
    /// Complete requests parsed and dispatched.
    pub requests: AtomicU64,
    /// Responses with status < 400.
    pub responses_ok: AtomicU64,
    /// Responses with status >= 400 (excluding deadline sheds).
    pub http_errors: AtomicU64,
    /// Connections dropped for unparseable input.
    pub parse_errors: AtomicU64,
    /// EWMA of `/v1/search` execution cost (ns); the shedding
    /// estimate. Zero until the first request completes.
    pub est_exec_ns: AtomicU64,
}

/// Final tallies reported after a drain completes.
#[derive(Debug, Clone, Copy)]
pub struct DrainSummary {
    /// Connections accepted from the kernel.
    pub accepted: u64,
    /// Complete requests parsed and dispatched.
    pub requests: u64,
    /// Responses with status < 400.
    pub responses_ok: u64,
    /// Responses with status >= 400 (excluding deadline sheds).
    pub http_errors: u64,
    /// Connections dropped for unparseable input.
    pub parse_errors: u64,
    /// 429 deadline sheds.
    pub shed_deadline: u64,
    /// 503 queue-full rejections.
    pub shed_queue_full: u64,
}

impl DrainSummary {
    fn from_stats(stats: &ServerStats) -> Self {
        Self {
            accepted: stats.accepted.load(Ordering::Relaxed),
            requests: stats.requests.load(Ordering::Relaxed),
            responses_ok: stats.responses_ok.load(Ordering::Relaxed),
            http_errors: stats.http_errors.load(Ordering::Relaxed),
            parse_errors: stats.parse_errors.load(Ordering::Relaxed),
            shed_deadline: stats.shed_deadline.load(Ordering::Relaxed),
            shed_queue_full: stats.shed_queue_full.load(Ordering::Relaxed),
        }
    }

    /// One-line human rendering for drain logs.
    pub fn render(&self) -> String {
        format!(
            "accepted={} requests={} ok={} errors={} parse_errors={} shed_deadline={} shed_queue_full={}",
            self.accepted,
            self.requests,
            self.responses_ok,
            self.http_errors,
            self.parse_errors,
            self.shed_deadline,
            self.shed_queue_full,
        )
    }
}

/// Handle to a running server; dropping it does **not** stop the
/// threads — call [`ServerHandle::await_drained`].
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters (readable while serving).
    pub fn stats(&self) -> &Arc<ServerStats> {
        &self.stats
    }

    /// Begin graceful drain: stop accepting, finish in-flight.
    /// Idempotent; returns immediately.
    pub fn initiate_drain(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Drain and join every thread, then report final tallies.
    pub fn await_drained(mut self) -> DrainSummary {
        self.initiate_drain();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        obs::counter("serve.admission.drained", 1);
        DrainSummary::from_stats(&self.stats)
    }
}

/// Called by each worker inside `serve.http.exec`, after
/// [`handle_request`] returns (see [`start_with_exec_hook`]).
pub type ExecHook = Arc<dyn Fn() + Send + Sync>;

/// Start a server with the default monotonic clock.
pub fn start(searcher: Searcher, config: ServerConfig) -> std::io::Result<ServerHandle> {
    start_with_clock(searcher, config, Arc::new(MonotonicClock::new()))
}

/// Start a server with an injected [`Clock`] (tests use
/// [`obs::ManualClock`] to step deadlines deterministically).
pub fn start_with_clock(
    searcher: Searcher,
    config: ServerConfig,
    clock: Arc<dyn Clock>,
) -> std::io::Result<ServerHandle> {
    spawn_server(searcher, config, clock, None)
}

/// [`start_with_clock`], with `hook` run by the worker after each
/// executed request and before its cost is measured: a test that parks
/// the worker in the hook until its [`obs::ManualClock`] reaches a
/// chosen time gives every request that execution cost
/// (`tests/serve_overload.rs` drives overload this way).
pub fn start_with_exec_hook(
    searcher: Searcher,
    config: ServerConfig,
    clock: Arc<dyn Clock>,
    hook: ExecHook,
) -> std::io::Result<ServerHandle> {
    spawn_server(searcher, config, clock, Some(hook))
}

fn spawn_server(
    searcher: Searcher,
    config: ServerConfig,
    clock: Arc<dyn Clock>,
    exec_hook: Option<ExecHook>,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let queue = Arc::new(AdmissionQueue::with_depth(config.queue_depth));
    let shutdown = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(ServerStats::default());
    let queue_depth_gauge = Arc::new(AtomicU64::new(0));
    let state = Arc::new(AppState {
        searcher,
        defaults: config.defaults,
        draining: Arc::clone(&shutdown),
        queue_depth: Arc::clone(&queue_depth_gauge),
        served_seq: Arc::new(AtomicU64::new(0)),
        shadow: config.shadow.clone(),
    });

    let acceptor = {
        let queue = Arc::clone(&queue);
        let shutdown = Arc::clone(&shutdown);
        let stats = Arc::clone(&stats);
        let clock = Arc::clone(&clock);
        let gauge = Arc::clone(&queue_depth_gauge);
        std::thread::Builder::new()
            .name("serve-acceptor".to_string())
            .spawn(move || acceptor_loop(listener, &queue, &shutdown, &stats, &clock, &gauge))?
    };

    let params = Arc::new(WorkerParams {
        deadline_ns: config.deadline_ns,
        shed: config.shed,
        keep_alive_idle_ns: config.keep_alive_idle_ns,
        exec_hook,
    });
    let mut workers = Vec::with_capacity(config.workers.max(1));
    for index in 0..config.workers.max(1) {
        let queue = Arc::clone(&queue);
        let state = Arc::clone(&state);
        let stats = Arc::clone(&stats);
        let clock = Arc::clone(&clock);
        let params = Arc::clone(&params);
        let shutdown = Arc::clone(&shutdown);
        let gauge = Arc::clone(&queue_depth_gauge);
        workers.push(
            std::thread::Builder::new()
                .name(format!("serve-worker-{index}"))
                .spawn(move || {
                    worker_loop(&queue, &state, &params, &stats, &clock, &shutdown, &gauge)
                })?,
        );
    }

    Ok(ServerHandle {
        addr,
        shutdown,
        stats,
        acceptor: Some(acceptor),
        workers,
    })
}

/// Knobs the per-connection loop needs.
struct WorkerParams {
    deadline_ns: u64,
    shed: bool,
    keep_alive_idle_ns: u64,
    exec_hook: Option<ExecHook>,
}

fn acceptor_loop(
    listener: TcpListener,
    queue: &AdmissionQueue,
    shutdown: &AtomicBool,
    stats: &ServerStats,
    clock: &Arc<dyn Clock>,
    gauge: &AtomicU64,
) {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            // Sweep the kernel backlog: sockets the OS already
            // accepted on our behalf must be served, not orphaned.
            let mut idle_rounds = 0;
            while idle_rounds < 3 {
                match listener.accept() {
                    Ok((stream, _)) => {
                        idle_rounds = 0;
                        admit_conn(stream, queue, stats, clock, gauge);
                    }
                    Err(err) if err.kind() == ErrorKind::WouldBlock => {
                        idle_rounds += 1;
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(_) => break,
                }
            }
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => admit_conn(stream, queue, stats, clock, gauge),
            Err(err) if err.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(500));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    // Closing the listener before closing intake guarantees no new
    // connection can arrive once workers start their final drain.
    drop(listener);
    queue.close_intake();
}

fn admit_conn(
    stream: TcpStream,
    queue: &AdmissionQueue,
    stats: &ServerStats,
    clock: &Arc<dyn Clock>,
    gauge: &AtomicU64,
) {
    let _accept_span = obs::span("serve.http.accept");
    stats.accepted.fetch_add(1, Ordering::Relaxed);
    obs::counter("serve.admission.accepted", 1);
    let conn = PendingConn {
        stream,
        enqueue_ns: clock.now_ns(),
    };
    match queue.enqueue_conn(conn) {
        Ok(depth) => {
            stats.enqueued.fetch_add(1, Ordering::Relaxed);
            obs::counter("serve.admission.enqueued", 1);
            gauge.store(depth as u64, Ordering::Relaxed);
        }
        Err(rejected) => {
            stats.shed_queue_full.fetch_add(1, Ordering::Relaxed);
            obs::counter("serve.admission.shed_queue_full", 1);
            reject_at_door(rejected.stream);
        }
    }
}

/// Best-effort 503 straight from the acceptor; never blocks it long.
fn reject_at_door(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(50)));
    let response =
        Response::json_error(503, "admission queue full; retry shortly").with_retry_after(1);
    let _ = stream.write_all(&response.to_bytes(false));
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    queue: &AdmissionQueue,
    state: &AppState,
    params: &WorkerParams,
    stats: &ServerStats,
    clock: &Arc<dyn Clock>,
    shutdown: &AtomicBool,
    gauge: &AtomicU64,
) {
    while let Some(conn) = queue.dequeue_conn() {
        gauge.store(queue.depth_now() as u64, Ordering::Relaxed);
        serve_connection(conn, state, params, stats, clock, shutdown);
    }
}

fn serve_connection(
    conn: PendingConn,
    state: &AppState,
    params: &WorkerParams,
    stats: &ServerStats,
    clock: &Arc<dyn Clock>,
    shutdown: &AtomicBool,
) {
    let mut stream = conn.stream;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    let _ = stream.set_nodelay(true);

    let dequeue_ns = clock.now_ns();
    let wait_ns = dequeue_ns.saturating_sub(conn.enqueue_ns);
    obs::observe_ns("serve.http.queue_wait", wait_ns);
    if let Some(rolling) = obs::rolling() {
        rolling.record("serve.http.queue_wait", wait_ns, false);
    }

    // The first request's deadline is anchored at enqueue: queue wait
    // spends budget. A pipelined follower already in the buffer is
    // anchored when the previous response finishes; one that arrives
    // later is anchored when the read bringing its first byte returns,
    // so keep-alive idle time never spends its budget.
    let mut req_start_ns = conn.enqueue_ns;
    let mut idle_since_ns = dequeue_ns;
    let mut responded = false;
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    // How far the search for the end of the head has got in `buf`.
    let mut head_scanned = 0;
    let mut chunk = [0u8; 4096];
    loop {
        let parse_start_ns = clock.now_ns();
        let parsed = http::parse_request_resuming(&buf, &mut head_scanned);
        match parsed {
            Parsed::Complete(request, consumed) => {
                record_stage(
                    "serve.http.parse",
                    clock.now_ns().saturating_sub(parse_start_ns),
                );
                buf.drain(..consumed);
                head_scanned = 0;
                let keep_going = handle_one(
                    &mut stream,
                    &request,
                    req_start_ns,
                    state,
                    params,
                    stats,
                    clock,
                );
                // On drain, finish pipelined followers already in the
                // buffer before closing the connection.
                if !keep_going
                    || !request.keep_alive
                    || (shutdown.load(Ordering::SeqCst) && buf.is_empty())
                {
                    break;
                }
                responded = true;
                req_start_ns = clock.now_ns();
                idle_since_ns = req_start_ns;
                // Loop straight back to the parser: a pipelined
                // follower may already be sitting in the buffer.
            }
            Parsed::Invalid(err) => {
                record_stage(
                    "serve.http.parse",
                    clock.now_ns().saturating_sub(parse_start_ns),
                );
                stats.parse_errors.fetch_add(1, Ordering::Relaxed);
                obs::counter("serve.http.errors", 1);
                let response = Response::json_error(400, &err.to_string());
                let _ = write_response(&mut stream, &response, false);
                break;
            }
            Parsed::Partial => {
                let now = clock.now_ns();
                let draining = shutdown.load(Ordering::SeqCst);
                if buf.is_empty() {
                    // Nothing in flight: drop the connection after the
                    // keep-alive idle budget. During drain this falls
                    // through to one more read attempt first — a
                    // request the client already sent may be sitting
                    // in the socket buffer, and dropping it unread
                    // would break the zero-dropped-in-flight promise.
                    if !draining && now.saturating_sub(idle_since_ns) > params.keep_alive_idle_ns {
                        break;
                    }
                } else if draining && now.saturating_sub(idle_since_ns) > 2_000_000_000 {
                    // Half-received request during drain: bounded
                    // grace, then 408 so the client knows to resend.
                    let response = Response::json_error(408, "server draining; request incomplete");
                    let _ = write_response(&mut stream, &response, false);
                    break;
                }
                match stream.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(n) => {
                        idle_since_ns = clock.now_ns();
                        if responded && buf.is_empty() {
                            req_start_ns = idle_since_ns;
                        }
                        buf.extend_from_slice(chunk.get(..n).unwrap_or_default());
                    }
                    Err(err)
                        if err.kind() == ErrorKind::WouldBlock
                            || err.kind() == ErrorKind::TimedOut =>
                    {
                        // Idle at drain time (read timed out with an
                        // empty buffer): nothing in flight, close.
                        if draining && buf.is_empty() {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
        }
    }
}

/// Dispatch one parsed request: shed or execute, then write. Returns
/// whether the connection is still usable.
fn handle_one(
    stream: &mut TcpStream,
    request: &Request,
    req_start_ns: u64,
    state: &AppState,
    params: &WorkerParams,
    stats: &ServerStats,
    clock: &Arc<dyn Clock>,
) -> bool {
    let _request_span = obs::span("serve.http.request");
    stats.requests.fetch_add(1, Ordering::Relaxed);

    if params.deadline_ns > 0 && params.shed && request.target == "/v1/search" {
        let elapsed_ns = clock.now_ns().saturating_sub(req_start_ns);
        let remaining_ns = params.deadline_ns.saturating_sub(elapsed_ns);
        let est_ns = stats.est_exec_ns.load(Ordering::Relaxed);
        if remaining_ns == 0 || remaining_ns < est_ns {
            stats.shed_deadline.fetch_add(1, Ordering::Relaxed);
            obs::counter("serve.admission.shed_deadline", 1);
            if let Some(rolling) = obs::rolling() {
                rolling.record("serve.http.shed", elapsed_ns, false);
            }
            let response = Response::json_error(
                429,
                "deadline budget exhausted before execution; retry with backoff",
            )
            .with_retry_after(1);
            return write_response(stream, &response, request.keep_alive);
        }
    }

    let exec_start_ns = clock.now_ns();
    let response = {
        let _exec_span = obs::span("serve.http.exec");
        let response = handle_request(state, request);
        if let Some(hook) = &params.exec_hook {
            hook();
        }
        response
    };
    let exec_ns = clock.now_ns().saturating_sub(exec_start_ns);
    if request.target == "/v1/search" && response.status == 200 {
        update_cost_estimate(stats, exec_ns);
    }

    if response.status >= 400 {
        stats.http_errors.fetch_add(1, Ordering::Relaxed);
        obs::counter("serve.http.errors", 1);
    } else {
        stats.responses_ok.fetch_add(1, Ordering::Relaxed);
        obs::counter("serve.http.responses", 1);
    }

    let write_start_ns = clock.now_ns();
    let ok = write_response(stream, &response, request.keep_alive);
    record_stage(
        "serve.http.write",
        clock.now_ns().saturating_sub(write_start_ns),
    );

    // End-to-end wall time (queue wait + shed check + exec + write)
    // feeds the slow-request leaderboard when one is attached.
    let total_ns = clock.now_ns().saturating_sub(req_start_ns);
    if let Some(log) = obs::slow_log() {
        if log.is_slow(total_ns) {
            log.push(SlowQuery {
                query: format!("{} {}", request.method, request.target),
                duration_ns: total_ns,
                ts_ns: clock.now_ns(),
                stats: vec![("exec_ns".to_string(), exec_ns)],
            });
        }
    }
    ok
}

/// Record a pipeline-stage duration into the histogram and, when one
/// is attached, the rolling window (spans do the same on drop; these
/// stages are timed manually because they repeat within one span).
fn record_stage(name: &'static str, duration_ns: u64) {
    obs::observe_ns(name, duration_ns);
    if let Some(rolling) = obs::rolling() {
        rolling.record(name, duration_ns, false);
    }
}

/// EWMA with alpha 1/8, seeded by the first observation.
fn update_cost_estimate(stats: &ServerStats, exec_ns: u64) {
    let prev = stats.est_exec_ns.load(Ordering::Relaxed);
    let next = if prev == 0 {
        exec_ns
    } else {
        (prev.saturating_mul(7).saturating_add(exec_ns)) / 8
    };
    stats.est_exec_ns.store(next, Ordering::Relaxed);
}

fn write_response(stream: &mut TcpStream, response: &Response, keep_alive: bool) -> bool {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    stream.write_all(&response.to_bytes(keep_alive)).is_ok()
}
