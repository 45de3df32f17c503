//! End-to-end exit-code contract for the `litsearch-lint` binary:
//! `0` clean, `1` findings, `2` usage errors. CI keys off these, so
//! they are tested against the real executable, not the library.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_litsearch-lint");

const CLEAN_BASELINE: &str = r#"{"spans": []}"#;

/// A throwaway on-disk workspace the binary can `--root` into.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!(
            "litsearch-lint-fixture-{}-{}",
            std::process::id(),
            tag
        ));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("create fixture root");
        let fx = Self { root };
        // A workspace manifest so discover_root-style logic sees a root,
        // and the four baselines span-coverage insists on.
        fx.write("Cargo.toml", "[workspace]\nmembers = []\n");
        fx.write("results/metrics_baseline.json", CLEAN_BASELINE);
        fx.write("results/metrics_prepare_baseline.json", CLEAN_BASELINE);
        fx.write("results/metrics_warm_baseline.json", CLEAN_BASELINE);
        fx.write("results/quality_baseline.json", r#"{"series": []}"#);
        fx
    }

    fn write(&self, rel: &str, content: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).expect("fixture dirs");
        fs::write(path, content).expect("fixture file");
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

fn run(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("run binary")
}

fn root_arg(fx: &Fixture) -> String {
    fx.root.display().to_string()
}

#[test]
fn clean_fixture_exits_zero() {
    let fx = Fixture::new("clean");
    fx.write(
        "crates/core/src/search/serve.rs",
        "pub fn serve() -> Option<u32> {\n    Some(1)\n}\n",
    );
    let out = run(&["--root", &root_arg(&fx)]);
    assert!(
        out.status.success(),
        "expected exit 0, got {:?}\nstdout: {}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn seeded_panic_on_serving_path_exits_one_with_json_finding() {
    let fx = Fixture::new("seeded");
    fx.write(
        "crates/core/src/search/serve.rs",
        "pub fn serve(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    );
    let out = run(&["--root", &root_arg(&fx), "--format", "json"]);
    assert_eq!(out.status.code(), Some(1), "deny finding must fail the run");
    let json = String::from_utf8_lossy(&out.stdout);
    let v: serde_json::Value = serde_json::from_str(&json).expect("report is valid JSON");
    let findings = v.get("findings").and_then(|f| f.as_array()).unwrap();
    assert!(
        findings.iter().any(|f| {
            f.get("rule").and_then(|r| r.as_str()) == Some("no-panic-serving")
                && f.get("path").and_then(|p| p.as_str()) == Some("crates/core/src/search/serve.rs")
        }),
        "JSON report must carry the seeded finding: {json}"
    );
}

#[test]
fn gated_span_missing_from_source_exits_one() {
    let fx = Fixture::new("drift");
    fx.write(
        "crates/core/src/lib.rs",
        "pub fn f() {\n    let _s = obs::span(\"engine.search\");\n}\n",
    );
    fx.write(
        "results/metrics_baseline.json",
        r#"{"spans": [{"name": "engine.search"}, {"name": "engine.renamed_away"}]}"#,
    );
    let out = run(&["--root", &root_arg(&fx), "--format", "text"]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("span-coverage") && text.contains("engine.renamed_away"),
        "coverage finding must name the missing span: {text}"
    );
}

#[test]
fn deleted_or_corrupt_baseline_exits_one() {
    let fx = Fixture::new("unhealthy");
    fx.write("crates/core/src/lib.rs", "pub fn f() {}\n");
    fx.write("results/metrics_baseline.json", "{not json");
    fs::remove_file(fx.root.join("results/quality_baseline.json")).expect("remove baseline");
    let out = run(&["--root", &root_arg(&fx), "--format", "text"]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in ["span-coverage", "not valid JSON", "unreadable"] {
        assert!(text.contains(needle), "missing {needle:?}: {text}");
    }
}

#[test]
fn warn_only_fixture_exits_zero_without_and_one_with_deny_warnings() {
    let fx = Fixture::new("warn");
    // hashmap-order-leak is warn severity by default.
    fx.write(
        "crates/core/src/lib.rs",
        "use std::collections::HashMap;\npub fn f(m: HashMap<u32, u32>) -> Vec<u32> {\n    m.keys().copied().collect()\n}\n",
    );
    let soft = run(&["--root", &root_arg(&fx)]);
    assert!(
        soft.status.success(),
        "warn-only must pass by default: {}",
        String::from_utf8_lossy(&soft.stdout)
    );
    let hard = run(&["--root", &root_arg(&fx), "--deny-warnings"]);
    assert_eq!(
        hard.status.code(),
        Some(1),
        "--deny-warnings must gate warns"
    );
}

#[test]
fn the_real_workspace_exits_zero_under_deny_warnings() {
    // crates/analysis -> crates -> root
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let out = run(&[
        "--root",
        &root.display().to_string(),
        "--deny-warnings",
        "--format",
        "json",
    ]);
    assert!(
        out.status.success(),
        "the workspace must lint clean (this is the CI gate):\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn usage_errors_exit_two() {
    for bad in [
        &["--no-such-flag"][..],
        &["--format", "yaml"][..],
        &["--deny", "no-such-rule"][..],
        &["--root"][..],
    ] {
        let out = run(bad);
        assert_eq!(out.status.code(), Some(2), "args {bad:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("litsearch-lint: error:"),
            "args {bad:?}"
        );
    }
}

#[test]
fn list_rules_names_all_nine() {
    let out = run(&["--list-rules"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "no-panic-serving",
        "no-locks-on-hot-path",
        "float-total-order",
        "no-wallclock-outside-obs",
        "span-coverage",
        "hashmap-order-leak",
        "panic-reachable-serving",
        "lock-reachable-hot-path",
        "alloc-on-hot-path",
    ] {
        assert!(text.contains(rule), "--list-rules missing {rule}: {text}");
    }
    assert!(
        !text.contains("span-name-drift"),
        "span-coverage owns the baseline checks: {text}"
    );
}

#[test]
fn paths_fast_mode_checks_only_the_listed_files() {
    let fx = Fixture::new("fastmode");
    // Listed file has a per-file violation; the unlisted file has one
    // too; the baseline gates a span nobody defines (a workspace-rule
    // violation fast mode must NOT evaluate).
    fx.write(
        "crates/core/src/search/serve.rs",
        "pub fn serve(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    );
    fx.write(
        "crates/core/src/search/select.rs",
        "pub fn pick(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    );
    fx.write(
        "results/metrics_baseline.json",
        r#"{"spans": [{"name": "engine.gone_forever"}]}"#,
    );
    let out = run(&[
        "--root",
        &root_arg(&fx),
        "--paths",
        "crates/core/src/search/serve.rs",
        "--format",
        "json",
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "listed violation must still fail"
    );
    let json = String::from_utf8_lossy(&out.stdout);
    let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    let rules: Vec<&str> = v["findings"]
        .as_array()
        .unwrap()
        .iter()
        .filter_map(|f| f["rule"].as_str())
        .collect();
    assert!(rules.contains(&"no-panic-serving"), "{json}");
    assert!(
        !json.contains("select.rs"),
        "unlisted file must not be scanned: {json}"
    );
    assert!(
        !rules.contains(&"span-coverage"),
        "workspace rules must be skipped in fast mode: {json}"
    );
}

#[test]
fn paths_cannot_combine_with_emit_flags() {
    let out = run(&["--paths", "src/lib.rs", "--emit-callgraph", "cg.json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("full workspace scan"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn emit_callgraph_and_registry_write_artifacts() {
    let fx = Fixture::new("emit");
    fx.write(
        "crates/core/src/search/serve.rs",
        "impl Searcher {\n    pub fn query(&self) -> u32 {\n        obs::span(\"serve.query\");\n        helper()\n    }\n}\nfn helper() -> u32 { 1 }\n",
    );
    let dot = fx.root.join("callgraph.dot");
    let json = fx.root.join("callgraph.json");
    let reg = fx.root.join("span_registry.json");
    let out = run(&[
        "--root",
        &root_arg(&fx),
        "--emit-callgraph",
        &dot.display().to_string(),
        "--emit-registry",
        &reg.display().to_string(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let dot_text = fs::read_to_string(&dot).expect("dot written");
    assert!(dot_text.starts_with("digraph callgraph"), "{dot_text}");
    assert!(dot_text.contains("Searcher::query"), "{dot_text}");
    let reg_text = fs::read_to_string(&reg).expect("registry written");
    let v: serde_json::Value = serde_json::from_str(&reg_text).expect("registry is JSON");
    assert!(
        v["names"]
            .as_array()
            .unwrap()
            .iter()
            .any(|n| n["name"] == "serve.query"),
        "{reg_text}"
    );
    // A non-.dot extension switches to the JSON rendering.
    let out = run(&[
        "--root",
        &root_arg(&fx),
        "--emit-callgraph",
        &json.display().to_string(),
    ]);
    assert!(out.status.success());
    let cg: serde_json::Value =
        serde_json::from_str(&fs::read_to_string(&json).expect("json written"))
            .expect("call graph is JSON");
    assert!(cg.get("nodes").is_some() && cg.get("edges").is_some());
}

#[test]
fn report_lands_in_out_file() {
    let fx = Fixture::new("outfile");
    fx.write("crates/core/src/lib.rs", "pub fn f() {}\n");
    let report = fx.root.join("lint-report.json");
    let out = run(&[
        "--root",
        &root_arg(&fx),
        "--format",
        "json",
        "--out",
        &report.display().to_string(),
    ]);
    assert!(out.status.success());
    let written = fs::read_to_string(&report).expect("report file written");
    let v: serde_json::Value = serde_json::from_str(&written).expect("valid JSON report");
    assert!(v.get("files_scanned").is_some());
}
