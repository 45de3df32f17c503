//! Integration tests over the public obs API: nested-span attribution,
//! concurrent counters, and snapshot serialization round-trips.

use std::sync::Mutex;
use std::time::Duration;

/// Tests touching the process-global registry's enabled flag must not
/// interleave (the test harness runs tests on parallel threads).
static GLOBAL_STATE: Mutex<()> = Mutex::new(());

/// Nested spans split wall-clock into self-time and child-time.
#[test]
fn nested_spans_attribute_self_time() {
    let _guard = GLOBAL_STATE.lock().unwrap();
    obs::enable();
    {
        let _outer = obs::span("nesttest.outer");
        std::thread::sleep(Duration::from_millis(20));
        {
            let _inner = obs::span("nesttest.inner");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    let snap = obs::snapshot();
    let outer = snap.span("nesttest.outer").expect("outer recorded");
    let inner = snap.span("nesttest.inner").expect("inner recorded");
    assert_eq!(outer.count, 1);
    assert_eq!(inner.count, 1);
    // The inner span ran entirely within the outer one.
    assert!(inner.total_ns <= outer.total_ns);
    // Inner has no children: self == total.
    assert_eq!(inner.self_ns, inner.total_ns);
    // Outer's self-time excludes the inner 20 ms: it must be close to
    // half its total, and self + child must reassemble the total.
    assert!(
        outer.self_ns < outer.total_ns,
        "outer self {} should exclude child time (total {})",
        outer.self_ns,
        outer.total_ns
    );
    let reassembled = outer.self_ns + inner.total_ns;
    let diff = reassembled.abs_diff(outer.total_ns);
    assert!(
        diff < outer.total_ns / 10,
        "self + child ≈ total: {} + {} vs {}",
        outer.self_ns,
        inner.total_ns,
        outer.total_ns
    );
}

/// Sibling spans at the same nesting level all count as children.
#[test]
fn sequential_children_all_subtract_from_parent() {
    let _guard = GLOBAL_STATE.lock().unwrap();
    obs::enable();
    {
        let _outer = obs::span("seqtest.outer");
        for _ in 0..3 {
            let _child = obs::span("seqtest.child");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    let snap = obs::snapshot();
    let outer = snap.span("seqtest.outer").unwrap();
    let child = snap.span("seqtest.child").unwrap();
    assert_eq!(child.count, 3);
    assert!(child.total_ns >= Duration::from_millis(15).as_nanos() as u64);
    assert!(
        outer.self_ns <= outer.total_ns - child.total_ns + outer.total_ns / 10,
        "all three children subtract: self {} total {} children {}",
        outer.self_ns,
        outer.total_ns,
        child.total_ns
    );
}

/// Counter increments from many threads are all accounted for.
#[test]
fn concurrent_counter_increments_are_lossless() {
    let registry = obs::Registry::new();
    registry.enable();
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..PER_THREAD {
                    registry.counter("concurrent.hits", 1);
                }
            });
        }
    });
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("concurrent.hits"),
        Some(THREADS as u64 * PER_THREAD)
    );
}

/// Concurrent histogram observations keep an exact total count.
#[test]
fn concurrent_observations_are_lossless() {
    let registry = obs::Registry::new();
    registry.enable();
    let registry = &registry;
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            scope.spawn(move || {
                for i in 0..5_000u64 {
                    registry.observe("concurrent.latency", t * 10_000 + i);
                }
            });
        }
    });
    let snap = registry.snapshot();
    let h = snap.histogram("concurrent.latency").unwrap();
    assert_eq!(h.count, 20_000);
    assert_eq!(h.min, 0);
    assert_eq!(h.max, 34_999);
}

/// A snapshot survives a JSON round-trip bit-for-bit.
#[test]
fn snapshot_round_trips_through_json() {
    let registry = obs::Registry::new();
    registry.enable();
    registry.counter("rt.queries", 17);
    registry.gauge("rt.papers", 8_000.0);
    for v in [100u64, 2_000, 35_000, 1_000_000] {
        registry.observe("rt.latency_ns", v);
    }
    let snap = registry.snapshot();
    let json = snap.to_json();
    let back = obs::MetricsSnapshot::from_json(&json).expect("parses back");
    assert_eq!(snap, back);
    // And the JSON is a real JSON document with the expected fields.
    assert!(json.contains("\"counters\""));
    assert!(json.contains("\"rt.queries\""));
    assert!(json.contains("\"p99\""));
}

/// Markdown rendering includes every section with data.
#[test]
fn markdown_report_lists_all_metrics() {
    let registry = obs::Registry::new();
    registry.enable();
    registry.counter("md.count", 3);
    registry.gauge("md.gauge", 0.5);
    registry.observe("md.hist", 42);
    let md = registry.snapshot().to_markdown();
    assert!(md.contains("## Counters"));
    assert!(md.contains("## Gauges"));
    assert!(md.contains("## Histograms"));
    assert!(md.contains("md.count"));
    assert!(md.contains("md.hist"));
}

/// The documented reset contract: `Registry::reset` clears recorded
/// metrics AND the attached rolling windows and slow-query log, while
/// keeping the attachments attached.
#[test]
fn reset_clears_rolling_windows_and_slow_log() {
    use obs::{Clock, ManualClock, RollingConfig, RollingRecorder, SECOND_NS};
    use std::sync::Arc;

    let registry = obs::Registry::new();
    registry.enable();
    let rolling = Arc::new(RollingRecorder::new(
        RollingConfig::default(),
        Arc::new(ManualClock::new(0)) as Arc<dyn Clock>,
    ));
    registry.attach_rolling(rolling.clone());
    let slowlog = Arc::new(obs::SlowQueryLog::new(0, 8));
    registry.attach_slow_log(slowlog.clone());

    // Populate both: windows fill, a slow query lands in the log.
    for i in 0..600u64 {
        rolling.record_at(0, "q", i * SECOND_NS / 10, 1000, true);
    }
    slowlog.push(obs::SlowQuery {
        query: "kinase".to_string(),
        duration_ns: 99,
        ts_ns: 0,
        stats: Vec::new(),
    });
    registry.counter("resettest.hits", 3);
    assert_eq!(slowlog.len(), 1);
    assert!(rolling.window_at("q", 60, 60 * SECOND_NS).is_some());

    registry.reset();

    // Everything empty, attachments still live.
    assert!(registry.snapshot().counter("resettest.hits").is_none());
    assert!(
        rolling.window_at("q", 60, 60 * SECOND_NS).is_none(),
        "reset registry reports empty windows"
    );
    assert!(slowlog.is_empty(), "slow-query log cleared");
    assert!(registry.rolling().is_some(), "attachment survives reset");
    assert!(registry.slow_log().is_some());

    // New observations land in the still-attached windows.
    rolling.record_at(0, "q", 61 * SECOND_NS, 500, false);
    let w = rolling.window_at("q", 10, 61 * SECOND_NS).expect("rearmed");
    assert_eq!(w.count, 1);
}

/// Span durations recorded through an attached rolling recorder show
/// up in windowed stats under the span's name.
#[test]
fn attached_rolling_recorder_sees_span_durations() {
    let _guard = GLOBAL_STATE.lock().unwrap();
    use obs::{Clock, ManualClock, RollingConfig, RollingRecorder};
    use std::sync::Arc;

    obs::enable();
    let clock = Arc::new(ManualClock::new(0));
    let rolling = Arc::new(RollingRecorder::new(
        RollingConfig::default(),
        clock as Arc<dyn Clock>,
    ));
    obs::attach_rolling(rolling.clone());
    {
        let _s = obs::span("rolltest.query");
    }
    let w = rolling
        .window("rolltest.query", 60)
        .expect("span fed the window");
    assert_eq!(w.count, 1);
    obs::global().detach_rolling();
    assert!(obs::rolling().is_none());
}

/// Disabled spans cost no bookkeeping and record nothing.
#[test]
fn disabled_spans_record_nothing() {
    // Use a name no other test uses; the global registry is shared.
    let _guard = GLOBAL_STATE.lock().unwrap();
    obs::disable();
    {
        let _s = obs::span("disabledtest.never");
    }
    obs::enable();
    assert!(obs::snapshot().span("disabledtest.never").is_none());
}

/// A muted thread records nothing through the hooks serving code
/// uses; its background span reaches the span table and never the
/// rolling windows. Other threads keep recording.
#[test]
fn muted_thread_records_only_its_background_span_outside_the_windows() {
    let _guard = GLOBAL_STATE.lock().unwrap();
    use obs::{Clock, ManualClock, RollingConfig, RollingRecorder};
    use std::sync::Arc;

    obs::enable();
    let rolling = Arc::new(RollingRecorder::new(
        RollingConfig::default(),
        Arc::new(ManualClock::new(0)) as Arc<dyn Clock>,
    ));
    obs::attach_rolling(rolling.clone());
    std::thread::spawn(|| {
        obs::mute_thread();
        let _work = obs::background_span("mutetest.background");
        let _rerank = obs::span("mutetest.serving");
        obs::counter("mutetest.counter", 1);
        obs::gauge("mutetest.gauge", 1.0);
        obs::observe_ns("mutetest.histogram", 1);
    })
    .join()
    .unwrap();
    {
        let _served = obs::span("mutetest.serving");
    }

    let snap = obs::snapshot();
    assert_eq!(snap.span("mutetest.background").map(|s| s.count), Some(1));
    assert_eq!(snap.span("mutetest.serving").map(|s| s.count), Some(1));
    assert!(snap.counter("mutetest.counter").is_none());
    assert!(snap.gauges.iter().all(|g| g.name != "mutetest.gauge"));
    assert!(snap.histogram("mutetest.histogram").is_none());
    assert!(rolling.window("mutetest.background", 60).is_none());
    assert_eq!(
        rolling.window("mutetest.serving", 60).map(|w| w.count),
        Some(1)
    );
    obs::global().detach_rolling();
}
