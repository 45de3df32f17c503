//! Bounded slow-query log: the worst offenders.
//!
//! Windowed percentiles ([`crate::rolling`]) say *that* the tail is
//! slow; the slow-query log says *which queries*. A query is a pure
//! function of the snapshot, so running it again under
//! `litsearch search --trace` gives its explain trace.
//!
//! The log is a bounded leaderboard, not a stream: it keeps the
//! `capacity` slowest entries seen so far, evicting by a **total**
//! order (duration desc, then timestamp, then query text) so the
//! retained set is a pure function of what was pushed — identical
//! across runs and thread interleavings. Everything else (count of
//! evictions, JSONL dump order) follows from that order.

use parking_lot::Mutex;
use serde::Value;
use std::cmp::Ordering;

/// One slow query: what ran and how long it took.
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// The query text.
    pub query: String,
    /// End-to-end duration, nanoseconds.
    pub duration_ns: u64,
    /// Clock reading when the query completed, nanoseconds.
    pub ts_ns: u64,
    /// Counters for the execution (`status`, `exec_ns`, ...), in a
    /// fixed caller-chosen order.
    pub stats: Vec<(String, u64)>,
}

impl SlowQuery {
    /// Leaderboard order: slowest first; ties broken by timestamp then
    /// query text so the order (and therefore eviction) is total.
    fn cmp_rank(&self, other: &Self) -> Ordering {
        other
            .duration_ns
            .cmp(&self.duration_ns)
            .then_with(|| self.ts_ns.cmp(&other.ts_ns))
            .then_with(|| self.query.cmp(&other.query))
    }

    /// JSON object form.
    pub fn to_value(&self) -> Value {
        let stats: Vec<(String, Value)> = self
            .stats
            .iter()
            .map(|(k, v)| (k.clone(), Value::UInt(*v)))
            .collect();
        Value::Map(vec![
            ("query".to_string(), Value::Str(self.query.clone())),
            ("duration_ns".to_string(), Value::UInt(self.duration_ns)),
            ("ts_ns".to_string(), Value::UInt(self.ts_ns)),
            ("stats".to_string(), Value::Map(stats)),
        ])
    }
}

struct LogState {
    /// Kept sorted by [`SlowQuery::cmp_rank`] (slowest first).
    entries: Vec<SlowQuery>,
    evicted: u64,
}

/// The bounded slow-query leaderboard. One process-global instance
/// lives in the [`Registry`](crate::Registry)'s orbit (see
/// [`crate::slow_log`]); independent logs exist for tests and embedded
/// harnesses.
pub struct SlowQueryLog {
    threshold_ns: u64,
    capacity: usize,
    state: Mutex<LogState>,
}

impl SlowQueryLog {
    /// A log keeping the `capacity` slowest queries at or over
    /// `threshold_ns`.
    pub fn new(threshold_ns: u64, capacity: usize) -> Self {
        Self {
            threshold_ns,
            capacity: capacity.max(1),
            state: Mutex::new(LogState {
                entries: Vec::new(),
                evicted: 0,
            }),
        }
    }

    /// The slowness threshold, nanoseconds.
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns
    }

    /// Maximum retained entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether a duration qualifies for the log.
    #[inline]
    pub fn is_slow(&self, duration_ns: u64) -> bool {
        duration_ns >= self.threshold_ns
    }

    /// Push an entry, keeping the `capacity` slowest. Entries under the
    /// threshold are ignored (callers may check [`is_slow`](Self::is_slow)
    /// first to skip building the entry at all).
    pub fn push(&self, entry: SlowQuery) {
        if !self.is_slow(entry.duration_ns) {
            return;
        }
        let mut state = self.state.lock();
        let pos = state
            .entries
            .binary_search_by(|e| e.cmp_rank(&entry))
            .unwrap_or_else(|p| p);
        if pos >= self.capacity {
            state.evicted += 1;
            return;
        }
        state.entries.insert(pos, entry);
        if state.entries.len() > self.capacity {
            state.entries.truncate(self.capacity);
            state.evicted += 1;
        }
    }

    /// The current leaderboard, slowest first.
    pub fn leaderboard(&self) -> Vec<SlowQuery> {
        self.state.lock().entries.clone()
    }

    /// Retained entries.
    pub fn len(&self) -> usize {
        self.state.lock().entries.len()
    }

    /// Whether nothing qualified yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Qualifying entries that did not fit (or were pushed out).
    pub fn evicted(&self) -> u64 {
        self.state.lock().evicted
    }

    /// Drop every entry and the eviction count. Part of the
    /// [`Registry::reset`](crate::Registry::reset) contract.
    pub fn clear(&self) {
        let mut state = self.state.lock();
        state.entries.clear();
        state.evicted = 0;
    }

    /// JSON array of the leaderboard, slowest first.
    pub fn to_value(&self) -> Value {
        Value::Seq(
            self.state
                .lock()
                .entries
                .iter()
                .map(SlowQuery::to_value)
                .collect(),
        )
    }

    /// One compact JSON object per slow query per line, slowest first.
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.state.lock().entries.iter() {
            out.push_str(&serde_json::to_string(&e.to_value()).expect("entry serializes"));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(query: &str, duration_ns: u64, ts_ns: u64) -> SlowQuery {
        SlowQuery {
            query: query.to_string(),
            duration_ns,
            ts_ns,
            stats: vec![("scored_pairs".to_string(), 7)],
        }
    }

    #[test]
    fn keeps_the_slowest_and_counts_evictions() {
        let log = SlowQueryLog::new(100, 3);
        log.push(q("under-threshold", 99, 0));
        assert!(log.is_empty(), "below threshold never enters");
        for (i, d) in [150u64, 120, 400, 300, 110].iter().enumerate() {
            log.push(q(&format!("q{i}"), *d, i as u64));
        }
        let board = log.leaderboard();
        let durations: Vec<u64> = board.iter().map(|e| e.duration_ns).collect();
        assert_eq!(durations, vec![400, 300, 150]);
        assert_eq!(log.evicted(), 2);
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn order_is_total_under_duration_ties() {
        let log = SlowQueryLog::new(0, 10);
        log.push(q("b", 100, 5));
        log.push(q("a", 100, 5));
        log.push(q("c", 100, 2));
        let names: Vec<String> = log.leaderboard().iter().map(|e| e.query.clone()).collect();
        assert_eq!(names, vec!["c", "a", "b"], "ts then query breaks ties");
    }

    #[test]
    fn dump_jsonl_is_one_object_per_line_with_stats() {
        let log = SlowQueryLog::new(0, 10);
        log.push(q("kinase", 500, 1));
        log.push(q("p53", 900, 2));
        let dump = log.dump_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        let first: Value = serde_json::from_str(lines[0]).expect("line parses");
        assert_eq!(first["query"].as_str(), Some("p53"), "slowest first");
        assert_eq!(first["stats"]["scored_pairs"].as_f64(), Some(7.0));
    }

    #[test]
    fn clear_resets_entries_and_evictions() {
        let log = SlowQueryLog::new(0, 1);
        log.push(q("a", 10, 0));
        log.push(q("b", 20, 1));
        assert_eq!(log.evicted(), 1);
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.evicted(), 0);
    }
}
