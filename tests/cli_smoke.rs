//! End-to-end smoke test of the `litsearch` CLI binary: the full
//! offline→online pipeline through the actual executable.

use std::process::Command;

fn litsearch(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_litsearch"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn full_pipeline_through_the_cli() {
    let dir = std::env::temp_dir().join(format!("litsearch_cli_test_{}", std::process::id()));
    let data = dir.to_str().unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    // generate
    let out = litsearch(&[
        "generate", "--out", data, "--terms", "80", "--papers", "150", "--seed", "7",
    ]);
    assert!(
        out.status.success(),
        "generate: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("ontology.obo").exists());
    assert!(dir.join("corpus.json").exists());

    // assign
    let out = litsearch(&["assign", "--data", data, "--kind", "pattern"]);
    assert!(
        out.status.success(),
        "assign: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("sets_pattern.json").exists());

    // prestige
    let out = litsearch(&[
        "prestige",
        "--data",
        data,
        "--kind",
        "pattern",
        "--function",
        "pattern",
    ]);
    assert!(
        out.status.success(),
        "prestige: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("prestige_pattern_pattern.json").exists());

    // search
    let out = litsearch(&[
        "search",
        "--data",
        data,
        "--kind",
        "pattern",
        "--function",
        "pattern",
        "--query",
        "biological process",
        "--limit",
        "3",
    ]);
    assert!(
        out.status.success(),
        "search: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("selected contexts"), "{stdout}");
    assert!(stdout.contains("results"), "{stdout}");

    // stats
    let out = litsearch(&["stats", "--data", data]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("papers   : 150"), "{stdout}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `--metrics <path>` makes prestige and search write telemetry
/// snapshots with the per-stage spans and PageRank convergence stats.
#[test]
fn metrics_flag_writes_telemetry_snapshots() {
    let dir = std::env::temp_dir().join(format!("litsearch_metrics_test_{}", std::process::id()));
    let data = dir.to_str().unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    let out = litsearch(&[
        "generate", "--out", data, "--terms", "80", "--papers", "150", "--seed", "7",
    ]);
    assert!(
        out.status.success(),
        "generate: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = litsearch(&["assign", "--data", data, "--kind", "pattern"]);
    assert!(
        out.status.success(),
        "assign: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // prestige --metrics: prepare's spans, PageRank stats.
    let prestige_metrics = dir.join("prestige_metrics.json");
    let out = litsearch(&[
        "prestige",
        "--data",
        data,
        "--kind",
        "pattern",
        "--function",
        "citation",
        "--metrics",
        prestige_metrics.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "prestige: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("metrics written"),
        "stderr should announce the metrics file"
    );
    let json = std::fs::read_to_string(&prestige_metrics).expect("metrics file written");
    let snap = obs::MetricsSnapshot::from_json(&json).expect("metrics file parses");
    for name in [
        "prepare.total",
        "index.build",
        "prepare.prestige.pattern_citation",
    ] {
        let span = snap
            .span(name)
            .unwrap_or_else(|| panic!("span {name} missing"));
        assert!(span.count >= 1, "span {name} never closed");
        assert!(span.total_ns > 0, "span {name} has no recorded time");
    }
    // Citation prestige runs PageRank per context: iterations accumulate.
    assert!(
        snap.counter("citegraph.pagerank.iterations").unwrap_or(0) >= 1,
        "pagerank iterations should be >= 1: {json}"
    );
    assert!(snap.counter("citegraph.pagerank.runs").unwrap_or(0) >= 1);

    // search --metrics: the online-phase breakdown.
    let search_metrics = dir.join("search_metrics.json");
    let out = litsearch(&[
        "search",
        "--data",
        data,
        "--kind",
        "pattern",
        "--function",
        "citation",
        "--query",
        "biological process",
        "--limit",
        "3",
        "--repeat",
        "3",
        "--metrics",
        search_metrics.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "search: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("latency breakdown"),
        "expected breakdown, got: {stderr}"
    );
    let json = std::fs::read_to_string(&search_metrics).expect("metrics file written");
    let snap = obs::MetricsSnapshot::from_json(&json).expect("metrics file parses");
    for name in [
        "engine.search",
        "search.select_contexts",
        "search.candidates",
        "search.rank",
    ] {
        let span = snap
            .span(name)
            .unwrap_or_else(|| panic!("span {name} missing"));
        assert!(
            span.count >= 3,
            "span {name} should cover all --repeat runs"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// `--trace <path>` writes a valid Chrome-trace JSON file: balanced
/// begin/end events per thread, a stable trace ID across the file and
/// the CLI announcement, and the explain instants of the query path.
/// `litsearch trace --file <path>` then summarizes it.
#[test]
fn trace_flag_writes_chrome_trace() {
    let dir = std::env::temp_dir().join(format!("litsearch_trace_test_{}", std::process::id()));
    let data = dir.to_str().unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    for args in [
        vec![
            "generate", "--out", data, "--terms", "60", "--papers", "120", "--seed", "7",
        ],
        vec!["assign", "--data", data, "--kind", "pattern"],
        vec![
            "prestige",
            "--data",
            data,
            "--kind",
            "pattern",
            "--function",
            "citation",
        ],
    ] {
        let out = litsearch(&args);
        assert!(
            out.status.success(),
            "{:?}: {}",
            args[0],
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let trace_path = dir.join("trace.json");
    let jsonl_path = dir.join("trace.jsonl");
    let out = litsearch(&[
        "search",
        "--data",
        data,
        "--kind",
        "pattern",
        "--function",
        "citation",
        "--query",
        "biological process",
        "--limit",
        "3",
        "--trace",
        trace_path.to_str().unwrap(),
        "--trace-jsonl",
        jsonl_path.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "search: {stderr}");

    // The announced trace ID is the one in the file.
    let announced = stderr
        .lines()
        .find_map(|l| l.strip_prefix("tracing enabled (trace id "))
        .and_then(|rest| rest.strip_suffix(')'))
        .expect("CLI announces the trace id");
    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    let data = obs::TraceData::from_chrome_json(&text).expect("valid Chrome trace JSON");
    assert_eq!(data.trace_id.to_string(), announced, "stable trace id");
    assert_eq!(data.dropped, 0);
    assert!(!data.events.is_empty());

    // Begin/end events balance per thread, and ends never precede
    // their begins (a stack suffices because events are in order).
    let tids: std::collections::HashSet<u64> = data.events.iter().map(|e| e.tid).collect();
    for tid in tids {
        let mut depth = 0i64;
        for e in data.events.iter().filter(|e| e.tid == tid) {
            match e.phase {
                obs::TracePhase::Begin => depth += 1,
                obs::TracePhase::End => {
                    depth -= 1;
                    assert!(depth >= 0, "unbalanced end on tid {tid}");
                }
                obs::TracePhase::Instant => {}
            }
        }
        assert_eq!(depth, 0, "unclosed spans on tid {tid}");
    }

    // The query path and its explain instants are in the trace.
    for name in [
        "engine.search",
        "search.candidates",
        "search.contexts_selected",
        "search.keyword_candidates",
        "search.relevancy_candidates",
    ] {
        assert!(
            data.events.iter().any(|e| e.name == name),
            "missing {name} in trace"
        );
    }

    // Every JSONL line is an object carrying the same trace id.
    let jsonl = std::fs::read_to_string(&jsonl_path).expect("jsonl written");
    for line in jsonl.lines() {
        assert!(
            line.contains(announced),
            "jsonl line lost the trace id: {line}"
        );
    }

    // The summary subcommand renders a self-time tree from the file.
    let out = litsearch(&["trace", "--file", trace_path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "trace summary: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("engine.search"), "{stdout}");
    assert!(stdout.contains(announced), "{stdout}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `prepare` + `search --snapshot`: the warm-start pipeline through the
/// executable. For every prepared pair, `assign` and `prestige` write
/// the snapshot's own files byte for byte, and `search --data` prints
/// exactly what `search --snapshot` prints. The metrics snapshots show
/// prepare's stage spans adding up to `prepare.total` (cold) vs. the
/// loader span with no per-context prestige work (warm), and one- and
/// two-thread prepares write the same bytes.
#[test]
fn prepare_then_snapshot_search_through_the_cli() {
    let dir = std::env::temp_dir().join(format!("litsearch_prepare_test_{}", std::process::id()));
    let data = dir.to_str().unwrap();
    let snap_dir = dir.join("snap");
    let snap = snap_dir.to_str().unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    let out = litsearch(&[
        "generate", "--out", data, "--terms", "80", "--papers", "150", "--seed", "7",
    ]);
    assert!(
        out.status.success(),
        "generate: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // prepare --metrics: the stages run under prepare.total.
    let prepare_metrics = dir.join("prepare_metrics.json");
    let out = litsearch(&[
        "prepare",
        "--data",
        data,
        "--out",
        snap,
        "--build-threads",
        "2",
        "--metrics",
        prepare_metrics.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "prepare: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    for file in ["snapshot.json", "ontology.obo", "corpus.json"] {
        assert!(snap_dir.join(file).exists(), "snapshot missing {file}");
    }
    let json = std::fs::read_to_string(&prepare_metrics).unwrap();
    let m = obs::MetricsSnapshot::from_json(&json).unwrap();
    for name in [
        "prepare.total",
        "prepare.index",
        "prepare.text_sets",
        "prepare.pattern_sets",
        "prepare.prestige.pattern_pattern",
        "prepare.propagate.text_citation",
        "persist.save_snapshot",
    ] {
        assert!(m.span(name).is_some(), "span {name} missing: {json}");
    }
    // The stages nest in prepare.total on its own thread, so its self
    // time is exactly its total less the stages' totals.
    let total = m.span("prepare.total").unwrap();
    let stages_ns: u64 = m
        .spans
        .iter()
        .filter(|s| s.name.starts_with("prepare.") && s.name != "prepare.total")
        .map(|s| s.total_ns)
        .sum();
    assert_eq!(
        Some(total.self_ns),
        total.total_ns.checked_sub(stages_ns),
        "prepare.total's self time is not its total less its stages': {json}"
    );

    // Any thread count prepares the same bytes.
    let one_thread_dir = dir.join("snap_one_thread");
    let out = litsearch(&[
        "prepare",
        "--data",
        data,
        "--out",
        one_thread_dir.to_str().unwrap(),
        "--build-threads",
        "1",
    ]);
    assert!(
        out.status.success(),
        "prepare --build-threads 1: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let file_names = |dir: &std::path::Path| {
        let mut names: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        names.sort();
        names
    };
    assert_eq!(file_names(&snap_dir), file_names(&one_thread_dir));
    for name in file_names(&snap_dir) {
        assert!(
            std::fs::read(snap_dir.join(&name)).unwrap()
                == std::fs::read(one_thread_dir.join(&name)).unwrap(),
            "{name:?} differs between --build-threads 2 and 1"
        );
    }

    let same_file = |name: &str| {
        let piecemeal = std::fs::read(dir.join(name)).unwrap();
        let prepared = std::fs::read(snap_dir.join(name)).unwrap();
        assert!(piecemeal == prepared, "{name} differs from the snapshot's");
    };
    for kind in ["text", "pattern"] {
        let out = litsearch(&["assign", "--data", data, "--kind", kind]);
        assert!(out.status.success(), "assign {kind}");
        same_file(&format!("sets_{kind}.json"));
    }
    for (kind, function) in [
        ("text", "text"),
        ("text", "citation"),
        ("pattern", "pattern"),
        ("pattern", "citation"),
        ("pattern", "text"),
    ] {
        let out = litsearch(&[
            "prestige",
            "--data",
            data,
            "--kind",
            kind,
            "--function",
            function,
        ]);
        assert!(out.status.success(), "prestige {kind}/{function}");
        same_file(&format!("prestige_{kind}_{function}.json"));

        let search = |source: &str, dir: &str| {
            let out = litsearch(&[
                "search",
                source,
                dir,
                "--kind",
                kind,
                "--function",
                function,
                "--query",
                "biological process",
                "--limit",
                "5",
            ]);
            assert!(
                out.status.success(),
                "search {source} {kind}/{function}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            out.stdout
        };
        let cold = search("--data", data);
        let warm = search("--snapshot", snap);
        assert_eq!(
            String::from_utf8_lossy(&cold),
            String::from_utf8_lossy(&warm),
            "{kind}/{function}: --data and --snapshot must print the same results"
        );
        assert!(
            String::from_utf8_lossy(&warm).contains("R="),
            "{kind}/{function}: no results"
        );
    }

    // The metrics of a warm search show the load path did no
    // per-context prestige work.
    let warm_metrics = dir.join("warm_metrics.json");
    let warm = litsearch(&[
        "search",
        "--snapshot",
        snap,
        "--kind",
        "pattern",
        "--function",
        "pattern",
        "--query",
        "biological process",
        "--limit",
        "5",
        "--metrics",
        warm_metrics.to_str().unwrap(),
    ]);
    assert!(
        warm.status.success(),
        "warm search: {}",
        String::from_utf8_lossy(&warm.stderr)
    );
    let json = std::fs::read_to_string(&warm_metrics).unwrap();
    let m = obs::MetricsSnapshot::from_json(&json).unwrap();
    assert!(m.span("persist.load_snapshot").is_some(), "{json}");
    assert!(m.span("engine.search").is_some(), "{json}");
    for skipped in ["prepare.total", "prestige.context_pagerank"] {
        assert!(
            m.span(skipped).is_none(),
            "warm start must not run {skipped}: {json}"
        );
    }

    // A missing snapshot directory fails with an error.
    let out = litsearch(&[
        "search",
        "--snapshot",
        "/definitely/not/here",
        "--kind",
        "pattern",
        "--function",
        "pattern",
        "--query",
        "x",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));

    let _ = std::fs::remove_dir_all(&dir);
}

/// `top --once --json` over the demo snapshot, parsed.
fn top_json(args: &[&str]) -> (std::process::Output, serde_json::Value) {
    let out = litsearch(&[&["top", "--once", "--json"], args].concat());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let v = serde_json::from_str(stdout.trim())
        .unwrap_or_else(|e| panic!("report is not JSON ({e}): {stdout}"));
    (out, v)
}

/// The count of one windowed series in a `top` report.
fn window_count(report: &serde_json::Value, series: &str) -> Option<f64> {
    report["windows"]
        .as_array()?
        .iter()
        .find(|w| w["name"].as_str() == Some(series))?["count"]
        .as_f64()
}

/// `top --once --json` without `--target`: one batch at a server
/// started in process, with the machine-readable dashboard report on
/// stdout. The client's series sits beside the server's own spans, and
/// no series is fed by both: each row counts at most one observation
/// per request.
#[test]
fn top_once_json_emits_the_dashboard_report() {
    let (out, v) = top_json(&["--threads", "2", "--queries", "20"]);
    assert!(
        out.status.success(),
        "top: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(v.get("mode").and_then(|m| m.as_str()), Some("closed"));
    assert_eq!(window_count(&v, "client.request"), Some(40.0), "{v:?}");
    for series in ["serve.http.exec", "serve.query", "search.rank"] {
        assert!(
            window_count(&v, series).is_some_and(|n| n >= 1.0),
            "no server row {series}: {v:?}"
        );
    }
    let windows = v.get("windows").and_then(|w| w.as_array()).unwrap();
    for w in windows {
        let count = w.get("count").and_then(|c| c.as_f64()).unwrap();
        assert!(count <= 40.0, "a row counts more than 40 requests: {w:?}");
    }
    assert!(v.get("slo").is_some(), "report carries the SLO block");
    // Quality sampling is opt-in; without --quality there is no panel.
    assert!(v.get("quality").is_none(), "{v:?}");

    // --quality N adds the ranking-quality block from the server's
    // shadow scorer: sampled queries, pairwise overlaps, margins and
    // per-function score distributions. The shadow queue holds more
    // than the run's 10 samples, so none drop. Its re-ranks stay out
    // of the serving rows, and its signals out of the latency windows.
    let (out, v) = top_json(&["--threads", "2", "--queries", "20", "--quality", "4"]);
    assert!(
        out.status.success(),
        "top --quality: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(window_count(&v, "client.request"), Some(40.0), "{v:?}");
    assert_eq!(window_count(&v, "engine.search"), Some(40.0), "{v:?}");
    for series in ["serve.http.exec", "serve.query", "search.rank"] {
        assert!(
            window_count(&v, series).is_some_and(|n| n >= 1.0),
            "no server row {series}: {v:?}"
        );
    }
    let windows = v.get("windows").and_then(|w| w.as_array()).unwrap();
    for w in windows {
        let count = w.get("count").and_then(|c| c.as_f64()).unwrap();
        assert!(count <= 40.0, "a row counts more than 40 requests: {w:?}");
        let name = w.get("name").and_then(|n| n.as_str()).unwrap();
        assert!(!name.starts_with("quality."), "a quality row: {w:?}");
    }
    let quality = v.get("quality").expect("quality panel present");
    for field in ["sampled", "overlaps", "margins", "functions"] {
        assert!(quality.get(field).is_some(), "no {field}: {v:?}");
    }
    let sampled = quality.get("sampled").and_then(|s| s.as_f64()).unwrap();
    assert!(sampled >= 1.0, "no shadow-scored queries: {v:?}");
    let dropped = quality.get("dropped").and_then(|d| d.as_f64()).unwrap();
    assert_eq!(dropped, 0.0, "no sample may drop: {v:?}");
    assert!(
        quality
            .get("overlaps")
            .and_then(|o| o.as_array())
            .is_some_and(|o| !o.is_empty()),
        "{v:?}"
    );
}

/// `top`'s gate and loop shapes on the in-process server: a latency
/// objective the server cannot meet is a measured hard violation, an
/// open-loop rate answers every request, and shadow scoring aimed at a
/// remote server is refused before any load runs.
#[test]
fn top_gates_on_measured_latency_and_paces_an_open_loop() {
    let (out, v) = top_json(&[
        "--threads",
        "2",
        "--queries",
        "10",
        "--slow-threshold-ms",
        "0",
        "--fail-on-violation",
    ]);
    assert!(!out.status.success(), "a 0 ms objective must fail the run");
    let slos = v["slo"]["slos"].as_array().expect("SLO block");
    let latency = slos
        .iter()
        .find(|e| e["objective"]["kind"].as_str() == Some("latency"))
        .expect("latency objective");
    assert_eq!(latency["status"].as_str(), Some("critical"), "{v:?}");

    // The same violation on the terminal dashboard, with every section.
    let out = litsearch(&[
        "top",
        "--once",
        "--threads",
        "1",
        "--queries",
        "5",
        "--slow-threshold-ms",
        "0",
    ]);
    assert!(out.status.success(), "no --fail-on-violation, no failure");
    let dash = String::from_utf8_lossy(&out.stdout);
    for section in [
        "serving dashboard",
        "serve.query",
        "SLO burn:",
        "CRITICAL",
        "slow queries",
    ] {
        assert!(dash.contains(section), "no {section:?} in: {dash}");
    }

    let (out, v) = top_json(&["--threads", "2", "--queries", "10", "--qps", "200"]);
    assert!(
        out.status.success(),
        "top --qps: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(v["mode"].as_str(), Some("open"), "{v:?}");
    assert_eq!(v["total_queries"].as_f64(), Some(20.0), "{v:?}");
    assert_eq!(v["transport_errors"].as_f64(), Some(0.0), "{v:?}");
    assert_eq!(v["errors"].as_f64(), Some(0.0), "{v:?}");
    let answered = window_count(&v, "client.request").unwrap_or(0.0)
        + window_count(&v, "client.shed").unwrap_or(0.0);
    assert_eq!(answered, 20.0, "{v:?}");

    let out = litsearch(&[
        "top",
        "--once",
        "--target",
        "http://127.0.0.1:1",
        "--quality",
        "4",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "remote --quality must be refused");
    assert!(stderr.contains("--quality"), "{stderr}");
    assert!(
        !stderr.contains("snapshot"),
        "refused after loading: {stderr}"
    );
    assert!(
        !stderr.contains("driving"),
        "refused after load began: {stderr}"
    );
}

/// The `quality` subcommand: deterministic report bytes across runs,
/// and a baseline written by one run judges the next run clean.
#[test]
fn quality_subcommand_is_deterministic_and_round_trips_its_baseline() {
    let dir = std::env::temp_dir().join(format!("litsearch_quality_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = dir.join("quality_baseline.json");

    let args = [
        "quality",
        "--queries",
        "48",
        "--sample-every",
        "2",
        "--report",
        "json",
    ];
    let first = litsearch(&args);
    assert!(
        first.status.success(),
        "quality: {}",
        String::from_utf8_lossy(&first.stderr)
    );
    let second = litsearch(&args);
    assert!(second.status.success());
    assert_eq!(
        first.stdout, second.stdout,
        "quality report must be byte-stable across runs"
    );
    let v: serde_json::Value = serde_json::from_str(String::from_utf8_lossy(&first.stdout).trim())
        .expect("report is valid JSON");
    assert!(v.get("sampled").and_then(|s| s.as_f64()).unwrap() >= 1.0);

    // Derive a baseline, then judge an identical run against it with
    // the gate armed: same workload, so the verdict must be clean.
    let out = litsearch(&[
        "quality",
        "--queries",
        "48",
        "--sample-every",
        "2",
        "--write-baseline",
        baseline.to_str().unwrap(),
        "--out",
        dir.join("report.md").to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "write-baseline: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let judged = litsearch(&[
        "quality",
        "--queries",
        "48",
        "--sample-every",
        "2",
        "--baseline",
        baseline.to_str().unwrap(),
        "--fail-on-drift",
        "--out",
        dir.join("judged.md").to_str().unwrap(),
    ]);
    assert!(
        judged.status.success(),
        "identical workload must not drift: {}",
        String::from_utf8_lossy(&judged.stderr)
    );
    let report = std::fs::read_to_string(dir.join("judged.md")).unwrap();
    assert!(report.contains("# Ranking-quality report"), "{report}");
    assert!(
        report.contains("Drift"),
        "judged report has a verdict: {report}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn helpful_errors_for_bad_usage() {
    // Unknown command.
    let out = litsearch(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing required flag.
    let out = litsearch(&["assign", "--kind", "pattern"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--data"));

    // Bad enum value.
    let out = litsearch(&["assign", "--data", "/nonexistent", "--kind", "nope"]);
    assert!(!out.status.success());

    // Missing data directory.
    let out = litsearch(&["stats", "--data", "/definitely/not/here"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    // A flag the command does not read is refused by name.
    for args in [["quality", "--threads", "8"], ["top", "--error-every", "2"]] {
        let out = litsearch(&args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(args[1]), "{args:?}: {stderr}");
    }

    // Switches take no value: `--once` does not swallow `--json`.
    let out = litsearch(&["top", "--once", "--json"]);
    assert!(
        out.status.success(),
        "top --once --json: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    serde_json::from_str::<serde_json::Value>(stdout.trim()).expect("one JSON report");

    // Help succeeds.
    let out = litsearch(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}
