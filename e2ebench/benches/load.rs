//! The client side: `litsearch serve` processes, HTTP exchanges over
//! loopback, and the two closed-loop callers.

use crate::Mix;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Closed-loop callers in the one client process.
pub(crate) const CALLERS: usize = 2;
/// Worker threads of the server under test; every other server setting
/// keeps its shipped default.
pub(crate) const SERVER_WORKERS: &str = "2";
/// Longest a server may take from launch to a bound port.
const START_TIMEOUT: Duration = Duration::from_secs(120);
/// Longest one exchange may stall before it counts as a transport error.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// A running `litsearch serve`; dropping it kills the process and waits.
pub(crate) struct Server {
    child: Child,
    pub(crate) addr: SocketAddr,
}

impl Server {
    /// Launch a server on an ephemeral port and wait until it is bound.
    pub(crate) fn start(
        litsearch: &Path,
        snapshot: &Path,
        work: &Path,
        tag: &str,
    ) -> Result<Self, String> {
        let port_file = work.join(format!("port-{tag}.txt"));
        let log = std::fs::File::create(work.join(format!("serve-{tag}.log")))
            .map_err(|e| format!("cannot create server log: {e}"))?;
        let child = Command::new(litsearch)
            .arg("serve")
            .arg("--snapshot")
            .arg(snapshot)
            .args(["--port", "0", "--workers", SERVER_WORKERS, "--port-file"])
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot launch {}: {e}", litsearch.display()))?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let launched = Instant::now();
        loop {
            if let Some(port) = std::fs::read_to_string(&port_file)
                .ok()
                .and_then(|s| s.trim().parse::<u16>().ok())
            {
                server.addr.set_port(port);
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("litsearch serve exited during start-up: {status}"));
            }
            if launched.elapsed() > START_TIMEOUT {
                return Err("litsearch serve did not bind within the start-up timeout".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// CPU time of the whole process so far, in nanoseconds: the sum of
    /// its threads' `/proc/<pid>/task/<tid>/schedstat` run times, the
    /// nanosecond form of utime + stime in `/proc/<pid>/stat` (whose
    /// 10 ms ticks are too coarse for one-second slices).
    pub(crate) fn cpu_ns(&self) -> Result<u64, String> {
        let tasks = format!("/proc/{}/task", self.child.id());
        let mut total = 0;
        for task in std::fs::read_dir(&tasks).map_err(|e| format!("cannot list {tasks}: {e}"))? {
            let path = task.map_err(|e| e.to_string())?.path().join("schedstat");
            // A thread may exit between the listing and the read.
            let Ok(stat) = std::fs::read_to_string(&path) else {
                continue;
            };
            total += stat
                .split_whitespace()
                .next()
                .and_then(|ns| ns.parse::<u64>().ok())
                .ok_or_else(|| format!("bad {}", path.display()))?;
        }
        Ok(total)
    }

    /// Peak resident set (`VmHWM`) in bytes.
    pub(crate) fn peak_rss_bytes(&self) -> Result<u64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
            .map(|kb| kb * 1024)
            .ok_or_else(|| "no VmHWM in server status".to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

pub(crate) fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

/// Send one request and read its response into `buf`. Returns the
/// status and the body's range in `buf`.
pub(crate) fn exchange(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    request: &[u8],
) -> io::Result<(u16, Range<usize>)> {
    buf.clear();
    stream.write_all(request)?;
    let mut chunk = [0u8; 64 * 1024];
    loop {
        if let Some((status, body)) = parse_head(buf)? {
            if buf.len() >= body.end {
                return Ok((status, body));
            }
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Status and body range of a response whose head is complete in
/// `buf`; `None` while the head is still arriving.
pub(crate) fn parse_head(buf: &[u8]) -> io::Result<Option<(u16, Range<usize>)>> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let Some(head_len) = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4) else {
        return Ok(None);
    };
    let head =
        std::str::from_utf8(&buf[..head_len]).map_err(|_| bad("response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.strip_prefix("HTTP/1.1 "))
        .and_then(|l| l.get(..3))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .ok_or_else(|| bad("no content-length"))?;
    Ok(Some((status, head_len..head_len + length)))
}

/// One request on a fresh connection with `connection: close`. The
/// latency runs from the start of `connect` to the answer's last byte;
/// the connection is then read to its end, so the server closes first.
fn exchange_once(
    addr: SocketAddr,
    buf: &mut Vec<u8>,
    request: &[u8],
) -> io::Result<(u16, Range<usize>, Instant)> {
    let mut stream = connect(addr)?;
    let (status, body) = exchange(&mut stream, buf, request)?;
    let done = Instant::now();
    let mut rest = [0u8; 1024];
    while matches!(stream.read(&mut rest), Ok(n) if n > 0) {}
    Ok((status, body, done))
}

/// Counts and latencies of one phase.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    /// Answers that failed a check (also counted in `failed`).
    pub(crate) wrong: u64,
    /// Completion time and latency (ns) of every answer completed
    /// inside the measured window.
    pub(crate) samples: Vec<(Instant, u64)>,
}

impl Tally {
    pub(crate) fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.samples.extend(other.samples);
    }
}

/// One caller: its connection, read buffer, and the answer bodies it
/// has already checked in full, per request of the mix. An answer
/// byte-identical to a checked one passes every check that one did.
pub(crate) struct Caller<'a> {
    mix: &'a Mix,
    addr: SocketAddr,
    new_conn: bool,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    checked: Vec<Vec<Vec<u8>>>,
    pub(crate) tally: Tally,
}

impl<'a> Caller<'a> {
    /// A caller that sends every request on a new connection with
    /// `connection: close` when `new_conn` is set, else over one keep-alive
    /// connection.
    pub(crate) fn new(mix: &'a Mix, addr: SocketAddr, new_conn: bool) -> Self {
        Self {
            mix,
            addr,
            new_conn,
            stream: None,
            buf: Vec::with_capacity(64 * 1024),
            checked: vec![Vec::new(); mix.entries.len()],
            tally: Tally::default(),
        }
    }

    /// Send request `i` of the mix, check the answer, and return its
    /// latency and completion time if it succeeded. A failure is
    /// counted, never retried.
    pub(crate) fn request(&mut self, i: usize) -> Option<(Duration, Instant)> {
        self.tally.attempted += 1;
        let entry = &self.mix.entries[i];
        let start = Instant::now();
        let sent = if self.new_conn {
            exchange_once(self.addr, &mut self.buf, &entry.close)
        } else {
            let stream = match self.stream.take() {
                Some(s) => Ok(s),
                None => connect(self.addr),
            };
            stream.and_then(|mut s| {
                let out = exchange(&mut s, &mut self.buf, &entry.keep_alive)?;
                self.stream = Some(s);
                Ok((out.0, out.1, Instant::now()))
            })
        };
        let (status, body, done) = match sent {
            Ok(answer) => answer,
            Err(e) => {
                self.fail(i, &format!("transport error: {e}"), false);
                return None;
            }
        };
        if status != 200 {
            self.fail(i, &format!("status {status}"), false);
            return None;
        }
        let body = &self.buf[body];
        if !self.checked[i].iter().any(|b| b.as_slice() == body) {
            if let Err(e) = self.mix.check(i, body) {
                self.fail(i, &format!("wrong answer: {e}"), true);
                return None;
            }
            self.checked[i].push(body.to_vec());
        }
        Some((done - start, done))
    }

    /// Send `GET /healthz` on this caller's keep-alive connection, check
    /// the answer, and return its latency if it succeeded: the server's
    /// socket, parse, dispatch and write path with no search behind it.
    pub(crate) fn healthz(&mut self) -> Option<Duration> {
        self.tally.attempted += 1;
        let start = Instant::now();
        let stream = match self.stream.take() {
            Some(s) => Ok(s),
            None => connect(self.addr),
        };
        let sent = stream.and_then(|mut s| {
            let out = exchange(&mut s, &mut self.buf, HEALTHZ)?;
            self.stream = Some(s);
            Ok(out)
        });
        let latency = start.elapsed();
        let what = match sent {
            Err(e) => format!("transport error: {e}"),
            Ok((200, body)) => match check_healthz(&self.buf[body]) {
                Ok(()) => return Some(latency),
                Err(e) => {
                    self.tally.wrong += 1;
                    format!("wrong answer: {e}")
                }
            },
            Ok((status, _)) => format!("status {status}"),
        };
        self.tally.failed += 1;
        if self.tally.failed <= 5 {
            eprintln!("GET /healthz failed: {what}");
        }
        None
    }

    fn fail(&mut self, i: usize, what: &str, wrong: bool) {
        self.tally.failed += 1;
        self.tally.wrong += u64::from(wrong);
        if self.tally.failed <= 5 {
            eprintln!(
                "request {i} ({:?}) failed: {what}",
                self.mix.entries[i].query
            );
        }
    }
}

const HEALTHZ: &[u8] = b"GET /healthz HTTP/1.1\r\nhost: 127.0.0.1\r\n\r\n";

/// A live, non-draining server answers `{"status": "ok", "queue_depth": n}`.
fn check_healthz(body: &[u8]) -> Result<(), String> {
    let doc = crate::json::parse(body)?;
    if doc.get("status") != Some(&crate::json::Json::Str("ok".into())) {
        return Err("status is not \"ok\"".into());
    }
    doc.get("queue_depth")
        .and_then(|d| d.uint())
        .map(|_| ())
        .ok_or_else(|| "no whole-number queue_depth".into())
}

/// Length of one slice of the measured window.
pub(crate) const SLICE: Duration = Duration::from_secs(1);

/// The measured phase's outcome.
pub(crate) struct Load {
    pub(crate) tally: Tally,
    /// (instant, server CPU ns so far) at the start of the window and at
    /// the end of each slice.
    pub(crate) marks: Vec<(Instant, u64)>,
    /// Machine-wide CPU time the hypervisor took during the window (steal).
    pub(crate) steal_ticks: u64,
}

/// Machine-wide steal ticks so far (`/proc/stat`, 8th value of `cpu`).
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Two closed-loop callers, each on its own keep-alive connection: each
/// first sends the whole mix once (warm-up, not counted), then sends
/// request after request for `window`, each as soon as the previous
/// answer has been read. The window's server CPU is read at every
/// [`SLICE`] boundary.
///
/// A caller that has finished its warm-up keeps sending until the window
/// opens instead of waiting idle: the server charges a keep-alive
/// connection's idle time to its next request's deadline.
pub(crate) fn closed_loop(
    mix: &Mix,
    server: &Server,
    window: Duration,
) -> Result<(Tally, Load), String> {
    let warmed = AtomicUsize::new(0);
    let opened: OnceLock<(Instant, Instant)> = OnceLock::new();
    let n = mix.entries.len();
    std::thread::scope(|scope| {
        let callers: Vec<_> = (0..CALLERS)
            .map(|c| {
                let (warmed, opened) = (&warmed, &opened);
                scope.spawn(move || {
                    let mut caller = Caller::new(mix, server.addr, false);
                    let mut next = c * n / CALLERS;
                    let mut step = |caller: &mut Caller| {
                        let sent = caller.request(next);
                        next = (next + 1) % n;
                        sent
                    };
                    for _ in 0..n {
                        step(&mut caller);
                    }
                    warmed.fetch_add(1, Ordering::SeqCst);
                    let (start, end) = loop {
                        if let Some(&w) = opened.get() {
                            break w;
                        }
                        step(&mut caller);
                    };
                    let warm = std::mem::take(&mut caller.tally);
                    while Instant::now() < end {
                        if let Some((latency, done)) = step(&mut caller) {
                            if done >= start && done <= end {
                                caller.tally.samples.push((done, latency.as_nanos() as u64));
                            }
                        }
                    }
                    (warm, caller.tally)
                })
            })
            .collect();
        while warmed.load(Ordering::SeqCst) < CALLERS && !callers.iter().any(|c| c.is_finished()) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let steal_start = steal_ticks();
        let cpu_start = server.cpu_ns();
        let start = Instant::now();
        opened.set((start, start + window)).expect("set once");
        let mut marks = vec![(start, cpu_start)];
        let slices = (window.as_nanos() / SLICE.as_nanos()).max(1) as u32;
        for k in 1..=slices {
            let due = start + SLICE * k;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            marks.push((Instant::now(), server.cpu_ns()));
        }
        let steal = steal_ticks().saturating_sub(steal_start);
        let mut warm = Tally::default();
        let mut measured = Tally::default();
        for handle in callers {
            let (w, m) = handle
                .join()
                .map_err(|_| "a caller thread panicked".to_string())?;
            warm.merge(w);
            measured.merge(m);
        }
        let marks = marks
            .into_iter()
            .map(|(at, cpu)| cpu.map(|c| (at, c)))
            .collect::<Result<Vec<_>, String>>()?;
        Ok((
            warm,
            Load {
                tally: measured,
                marks,
                steal_ticks: steal,
            },
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_head_reads_status_and_length() {
        let ok =
            b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\nContent-Length: 2\r\n\r\n{}";
        let (status, body) = parse_head(ok).unwrap().unwrap();
        assert_eq!((status, &ok[body]), (200, &b"{}"[..]));
        let shed = b"HTTP/1.1 429 Too Many Requests\r\ncontent-length: 0\r\nretry-after: 1\r\n\r\n";
        assert_eq!(parse_head(shed).unwrap().unwrap().0, 429);
        assert!(parse_head(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n")
            .unwrap()
            .is_none());
        assert!(parse_head(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
        assert!(parse_head(b"SMTP 200\r\ncontent-length: 0\r\n\r\n").is_err());
    }

    #[test]
    fn healthz_check_rejects_a_broken_answer() {
        assert!(check_healthz(br#"{"status":"ok","queue_depth":0}"#).is_ok());
        assert!(check_healthz(br#"{"status":"draining","queue_depth":0}"#).is_err());
        assert!(check_healthz(br#"{"status":"ok"}"#).is_err());
        assert!(check_healthz(br#"{"status":"ok","queue_depth":-1}"#).is_err());
        assert!(check_healthz(b"ok").is_err());
    }
}
