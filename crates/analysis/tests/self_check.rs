//! The lint suite run against its own workspace: the repository must
//! lint clean, and every suppression must be justified.
//!
//! This is the acceptance gate for the whole `analysis` crate — if a
//! rule over-approximates on real code, or someone lands a violation,
//! this test (and the CI `lint` job) fails.

use analysis::callgraph::CallGraph;
use analysis::reach::{ALLOC_ROOTS, SERVE_ROOTS};
use analysis::rules::span_coverage;
use analysis::{lint, LintConfig, Workspace};
use std::path::{Path, PathBuf};

/// The most suppressions the workspace is allowed to carry. More than
/// this means rules are being silenced instead of findings fixed.
const MAX_SUPPRESSIONS: usize = 10;

fn workspace_root() -> PathBuf {
    // crates/analysis -> crates -> root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

#[test]
fn the_workspace_lints_clean() {
    let ws = Workspace::from_root(&workspace_root()).expect("scan workspace");
    assert!(
        ws.files.len() > 50,
        "scanned only {} files — wrong root?",
        ws.files.len()
    );
    let report = lint(&ws, &LintConfig::default());
    assert_eq!(
        report.deny_count(),
        0,
        "deny findings in the workspace:\n{}",
        report.to_text()
    );
    assert_eq!(
        report.warn_count(),
        0,
        "warn findings in the workspace (CI runs --deny-warnings):\n{}",
        report.to_text()
    );
}

#[test]
fn suppressions_are_few_and_justified() {
    let ws = Workspace::from_root(&workspace_root()).expect("scan workspace");
    let report = lint(&ws, &LintConfig::default());
    assert!(
        report.suppressions.len() <= MAX_SUPPRESSIONS,
        "{} suppressions exceed the budget of {MAX_SUPPRESSIONS}:\n{}",
        report.suppressions.len(),
        report.to_text()
    );
    for s in &report.suppressions {
        assert!(
            s.reason.trim().len() >= 10,
            "suppression at {}:{} has a throwaway reason: {:?}",
            s.path,
            s.line,
            s.reason
        );
    }
}

#[test]
fn every_reachability_root_names_a_real_function() {
    // `reachable_from` skips a root that matches no function, so a root
    // left behind by moved or renamed query code would switch the
    // serve-path rules off without a finding.
    let ws = Workspace::from_root(&workspace_root()).expect("scan workspace");
    let graph = CallGraph::build(&ws);
    for &(path, name) in SERVE_ROOTS.iter().chain(ALLOC_ROOTS) {
        let node = graph
            .find(path, name)
            .unwrap_or_else(|| panic!("root {path}::{name} names no function in the workspace"));
        assert!(
            !graph.nodes[node].is_boundary,
            "root {path}::{name} sits on the reachability stop-list"
        );
    }
}

#[test]
fn checked_in_span_registry_is_current() {
    // CI archives `results/span_registry.json` as the instrumentation
    // surface of record; the checked-in copy must match what the
    // scanner extracts from source right now. Regenerate with
    //   cargo run -p analysis -- --emit-registry results/span_registry.json
    let root = workspace_root();
    let ws = Workspace::from_root(&root).expect("scan workspace");
    let fresh = span_coverage::registry_json(&ws);
    let checked_in = std::fs::read_to_string(root.join("results/span_registry.json"))
        .expect("results/span_registry.json is checked in");
    assert_eq!(
        fresh, checked_in,
        "results/span_registry.json is stale; regenerate it with --emit-registry"
    );
}

#[test]
fn every_baseline_is_present_and_parsed() {
    let ws = Workspace::from_root(&workspace_root()).expect("scan workspace");
    assert_eq!(ws.baselines.len(), 4);
    for b in &ws.baselines {
        assert!(
            b.content.is_ok(),
            "baseline {} unreadable: {:?}",
            b.path,
            b.content
        );
    }
}
