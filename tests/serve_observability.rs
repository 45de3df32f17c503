//! The live-observability acceptance bar on wall-clock load runs:
//! every threshold-crossing slow query carries a captured explain
//! trace, and one run renders both the dashboard and the SLO report.
//! The runs attach a process-global rolling recorder, so each check
//! holds whatever spans other tests add to it. Deterministic latency
//! and SLO checks run on the real server under a manual clock in
//! `tests/serve_overload.rs`.

use litsearch::bench::load::{LoadConfig, LoadHarness};
use litsearch::context_search::Searcher;
use litsearch::corpus::queries::{generate_queries, QueryConfig};
use litsearch::demo::{snapshot, Scale};
use std::sync::OnceLock;

fn testbed() -> &'static (Searcher, Vec<String>) {
    static TESTBED: OnceLock<(Searcher, Vec<String>)> = OnceLock::new();
    TESTBED.get_or_init(|| {
        let snap = snapshot(Scale::Tiny, 42);
        let queries = generate_queries(
            snap.ontology(),
            snap.corpus(),
            &QueryConfig {
                n_queries: 24,
                seed: 42,
                ..Default::default()
            },
        );
        let queries = queries.into_iter().map(|q| q.text).collect();
        (snap.searcher(), queries)
    })
}

fn small_config(threads: usize) -> LoadConfig {
    LoadConfig {
        threads,
        queries_per_thread: 50,
        slow_capacity: 8,
        error_every: 40,
        ..Default::default()
    }
}

#[test]
fn every_slow_query_carries_a_captured_explain_trace() {
    let (searcher, queries) = testbed();
    let harness = LoadHarness::new(LoadConfig {
        slow_threshold_ns: 1, // everything crosses the bar
        ..small_config(4)
    });
    let report = harness.run(searcher, queries);
    assert!(!report.slow.is_empty(), "threshold 1 ns must catch queries");
    // Wall-clock order decides which queries make the leaderboard; a
    // query with no results has no score decomposition to explain.
    let results = |slow: &obs::SlowQuery| {
        slow.stats
            .iter()
            .find(|(k, _)| k == "results")
            .map_or(0, |&(_, v)| v)
    };
    assert!(
        report.slow.iter().any(|slow| results(slow) > 0),
        "the leaderboard holds a query with results"
    );
    for slow in &report.slow {
        assert!(
            slow.duration_ns >= harness.slowlog().threshold_ns(),
            "leaderboard only holds threshold-crossers"
        );
        let trace = slow
            .trace
            .as_ref()
            .unwrap_or_else(|| panic!("slow query {:?} lost its trace", slow.query));
        assert!(
            trace.events.iter().any(|e| e.name == "engine.search"),
            "trace spans the search pipeline"
        );
        assert!(
            results(slow) == 0 || trace.events.iter().any(|e| e.name == "explain.hit"),
            "trace of {:?} lacks the score decomposition instants",
            slow.query
        );
    }
}

#[test]
fn dashboard_and_slo_report_render_from_one_run() {
    let (searcher, queries) = testbed();
    let report = LoadHarness::new(LoadConfig {
        error_every: 2, // hard availability violation
        capture_traces: false,
        ..small_config(2)
    })
    .run(searcher, queries);
    assert!(report.has_hard_violation());
    let json = report.to_json();
    assert!(json.contains("\"serve.query\""), "{json}");
    assert!(json.contains("\"burn_rate\""), "{json}");
    let dash = report.render_dashboard();
    assert!(dash.contains("serving dashboard"));
    assert!(dash.contains("CRITICAL"));
    let md = report.slo.to_markdown();
    assert!(md.contains("serve-availability"));
    assert!(md.contains("critical"));
}
