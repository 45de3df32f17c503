//! Workspace loading, rule driving, and suppression accounting.
//!
//! The engine owns everything between "a directory on disk" and "a
//! [`LintReport`]":
//!
//! * walking the workspace for `.rs` files (skipping `target/`,
//!   `vendor/`, and `.git/`) and scanning each into tokens;
//! * loading the baselines the span-coverage rule cross-checks;
//! * running per-file rules (test-path files excluded) and
//!   workspace rules;
//! * honoring `// lint:allow(rule-id, reason)` directives — a
//!   directive silences matching findings on its own line and the
//!   next, must name a known rule, and must carry a reason; malformed
//!   or unused directives are themselves findings under the
//!   `lint-allow` meta-rule.

use crate::callgraph::CallGraph;
use crate::report::{Finding, LintReport, Severity, SuppressionUse};
use crate::rules::{all_rules, span_coverage, RawFinding, Rule};
use crate::scanner::{scan, SourceFile};
use std::collections::{BTreeSet, HashMap};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One metrics baseline, read (or not) from `results/`.
#[derive(Debug)]
pub struct Baseline {
    /// Workspace-relative path.
    pub path: String,
    /// File contents, or the read error. Errors are findings, not
    /// engine failures: a deleted baseline must fail the lint run.
    pub content: Result<String, String>,
}

/// Everything the rules look at.
#[derive(Debug)]
pub struct Workspace {
    /// Scanned `.rs` files, sorted by path for deterministic reports.
    pub files: Vec<SourceFile>,
    /// The metrics baselines (see [`span_coverage::BASELINE_FILES`]).
    pub baselines: Vec<Baseline>,
}

impl Workspace {
    /// Load a workspace from its root directory.
    pub fn from_root(root: &Path) -> io::Result<Self> {
        let mut paths = Vec::new();
        collect_rs_files(root, root, &mut paths)?;
        paths.sort();
        let mut files = Vec::with_capacity(paths.len());
        for rel in paths {
            let src = fs::read_to_string(root.join(&rel))?;
            files.push(scan(&rel, &src));
        }
        let baselines = span_coverage::BASELINE_FILES
            .iter()
            .map(|rel| Baseline {
                path: (*rel).to_string(),
                content: fs::read_to_string(root.join(rel)).map_err(|e| e.to_string()),
            })
            .collect();
        Ok(Self { files, baselines })
    }

    /// Load a workspace restricted to the given workspace-relative
    /// paths (`--paths` fast mode). Paths not found on disk are
    /// silently dropped: a changed-file list may name deleted files.
    pub fn from_root_filtered(root: &Path, keep: &[String]) -> io::Result<Self> {
        let mut ws = Self::from_root(root)?;
        let keep: BTreeSet<&str> = keep.iter().map(String::as_str).collect();
        ws.files.retain(|f| keep.contains(f.path.as_str()));
        Ok(ws)
    }

    /// Build a workspace from in-memory sources — the test seam.
    pub fn from_memory(sources: &[(&str, &str)], baselines: &[(&str, &str)]) -> Self {
        Self {
            files: sources.iter().map(|(p, s)| scan(p, s)).collect(),
            baselines: baselines
                .iter()
                .map(|(p, c)| Baseline {
                    path: (*p).to_string(),
                    content: Ok((*c).to_string()),
                })
                .collect(),
        }
    }
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | "vendor" | ".git") {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Severity overrides from the CLI (`--warn RULE` / `--deny RULE`).
#[derive(Debug, Default)]
pub struct LintConfig {
    /// (rule id, forced severity); later entries win.
    pub overrides: Vec<(String, Severity)>,
    /// `--paths` fast mode: only the per-file token rules run. The
    /// workspace-scoped rules (call-graph reachability, span
    /// registry/baseline checks) need every file to reach a verdict,
    /// so they are skipped and their suppressions are not stale-checked.
    pub fast_only: bool,
}

impl LintConfig {
    fn severity_for(&self, rule: &dyn Rule) -> Severity {
        self.overrides
            .iter()
            .rev()
            .find(|(id, _)| id == rule.id())
            .map_or_else(|| rule.default_severity(), |(_, sev)| *sev)
    }

    /// True when `id` names a registered rule (validates overrides).
    pub fn known_rule(id: &str) -> bool {
        all_rules().iter().any(|r| r.id() == id)
    }
}

/// Meta-rule id for problems with the suppression comments themselves.
pub const LINT_ALLOW_RULE: &str = "lint-allow";

/// Run every rule over the workspace and settle suppressions.
pub fn lint(ws: &Workspace, config: &LintConfig) -> LintReport {
    // One call graph serves every interprocedural rule; fast mode
    // (partial workspace) cannot build a truthful one, so it skips
    // the workspace-scoped rules altogether.
    let graph = if config.fast_only {
        None
    } else {
        Some(CallGraph::build(ws))
    };
    let mut raw: Vec<(&'static str, Severity, RawFinding)> = Vec::new();
    for rule in all_rules() {
        let severity = config.severity_for(rule.as_ref());
        for file in &ws.files {
            if file.is_test_path() || !rule.applies_to(&file.path) {
                continue;
            }
            for f in rule.check_file(file) {
                raw.push((rule.id(), severity, f));
            }
        }
        if let Some(graph) = &graph {
            for f in rule.check_workspace(ws) {
                raw.push((rule.id(), severity, f));
            }
            for f in rule.check_graph(ws, graph) {
                raw.push((rule.id(), severity, f));
            }
        }
    }

    // Suppression pass. Directive index: (path, rule) -> directives.
    let mut report = LintReport {
        files_scanned: ws.files.len(),
        ..LintReport::default()
    };
    let mut used: HashMap<(String, u32), (String, bool)> = HashMap::new();
    for file in &ws.files {
        for d in &file.allows {
            let valid = LintConfig::known_rule(&d.rule) && !d.reason.trim().is_empty();
            used.insert((file.path.clone(), d.line), (d.rule.clone(), !valid));
            if !LintConfig::known_rule(&d.rule) {
                report.findings.push(Finding {
                    rule: LINT_ALLOW_RULE.to_string(),
                    severity: Severity::Deny,
                    path: file.path.clone(),
                    line: d.line,
                    col: 0,
                    message: format!(
                        "lint:allow names unknown rule `{}`; run --list-rules for valid ids",
                        d.rule
                    ),
                    chain: Vec::new(),
                });
            } else if d.reason.trim().is_empty() {
                report.findings.push(Finding {
                    rule: LINT_ALLOW_RULE.to_string(),
                    severity: Severity::Deny,
                    path: file.path.clone(),
                    line: d.line,
                    col: 0,
                    message: format!(
                        "lint:allow({}) has no reason; suppressions must justify themselves",
                        d.rule
                    ),
                    chain: Vec::new(),
                });
            }
        }
    }

    for (rule_id, severity, f) in raw {
        let directive = ws
            .files
            .iter()
            .find(|file| file.path == f.path)
            .and_then(|file| {
                file.allows.iter().find(|d| {
                    d.rule == rule_id
                        && !d.reason.trim().is_empty()
                        && (d.line == f.line || d.line + 1 == f.line)
                })
            });
        if let Some(d) = directive {
            if let Some((_, was_used)) = used.get_mut(&(f.path.clone(), d.line)) {
                if !*was_used {
                    *was_used = true;
                    report.suppressions.push(SuppressionUse {
                        rule: rule_id.to_string(),
                        path: f.path.clone(),
                        line: d.line,
                        reason: d.reason.clone(),
                    });
                }
            }
            continue;
        }
        report.findings.push(Finding {
            rule: rule_id.to_string(),
            severity,
            path: f.path,
            line: f.line,
            col: f.col,
            message: f.message,
            chain: f.chain,
        });
    }

    // Valid directives that silenced nothing are stale — warn (which
    // --deny-warnings turns into a failure) so they get cleaned up
    // once the underlying code is fixed. Fast mode skipped the
    // workspace-scoped rules, so their directives get no verdict.
    let workspace_rules: BTreeSet<&'static str> = all_rules()
        .iter()
        .filter(|r| r.workspace_scoped())
        .map(|r| r.id())
        .collect();
    for ((path, line), (rule, was_used)) in &used {
        if *was_used {
            continue;
        }
        if config.fast_only && workspace_rules.contains(rule.as_str()) {
            continue;
        }
        report.findings.push(Finding {
            rule: LINT_ALLOW_RULE.to_string(),
            severity: Severity::Warn,
            path: path.clone(),
            line: *line,
            col: 0,
            message: format!(
                "lint:allow({rule}) on line {line} suppresses nothing; remove the stale directive"
            ),
            chain: Vec::new(),
        });
    }

    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.col, &a.rule).cmp(&(&b.path, b.line, b.col, &b.rule)));
    report
        .suppressions
        .sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    report
}

/// Ascend from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]` — how the binary finds the root when run
/// from a crate subdirectory.
pub fn discover_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLEAN_BASELINE: &str = r#"{"spans": []}"#;
    const CLEAN_SERIES_BASELINE: &str = r#"{"series": []}"#;

    fn lint_mem(sources: &[(&str, &str)]) -> LintReport {
        let ws = Workspace::from_memory(
            sources,
            &[
                ("results/metrics_baseline.json", CLEAN_BASELINE),
                ("results/metrics_prepare_baseline.json", CLEAN_BASELINE),
                ("results/metrics_warm_baseline.json", CLEAN_BASELINE),
                ("results/quality_baseline.json", CLEAN_SERIES_BASELINE),
            ],
        );
        lint(&ws, &LintConfig::default())
    }

    #[test]
    fn finding_surfaces_with_rule_and_position() {
        let r = lint_mem(&[(
            "crates/core/src/search/serve.rs",
            "fn f() {\n    x.unwrap();\n}\n",
        )]);
        assert_eq!(r.deny_count(), 1, "{:?}", r.findings);
        let f = &r.findings[0];
        assert_eq!(f.rule, "no-panic-serving");
        assert_eq!((f.line, f.col), (2, 7));
    }

    #[test]
    fn allow_with_reason_suppresses_same_and_next_line() {
        let trailing = "fn f() {\n    x.unwrap(); // lint:allow(no-panic-serving, demo)\n}\n";
        let leading = "fn f() {\n    // lint:allow(no-panic-serving, demo)\n    x.unwrap();\n}\n";
        for src in [trailing, leading] {
            let r = lint_mem(&[("crates/core/src/search/serve.rs", src)]);
            assert_eq!(r.deny_count(), 0, "{:?}", r.findings);
            assert_eq!(r.suppressions.len(), 1);
            assert_eq!(r.suppressions[0].reason, "demo");
        }
    }

    #[test]
    fn allow_without_reason_is_a_deny_finding_and_does_not_suppress() {
        let src = "fn f() {\n    x.unwrap(); // lint:allow(no-panic-serving)\n}\n";
        let r = lint_mem(&[("crates/core/src/search/serve.rs", src)]);
        // The unwrap still fires AND the reasonless directive fires.
        assert_eq!(r.deny_count(), 2, "{:?}", r.findings);
        assert!(r
            .findings
            .iter()
            .any(|f| f.rule == LINT_ALLOW_RULE && f.message.contains("no reason")));
    }

    #[test]
    fn allow_for_unknown_rule_is_a_deny_finding() {
        let src = "// lint:allow(no-such-rule, because)\nfn f() {}\n";
        let r = lint_mem(&[("crates/core/src/lib.rs", src)]);
        assert_eq!(r.deny_count(), 1);
        assert!(r.findings[0].message.contains("unknown rule"));
    }

    #[test]
    fn stale_allow_is_a_warn_finding() {
        let src = "// lint:allow(no-panic-serving, was fixed)\nfn f() {}\n";
        let r = lint_mem(&[("crates/core/src/search/serve.rs", src)]);
        assert_eq!(r.deny_count(), 0);
        assert_eq!(r.warn_count(), 1);
        assert!(r.findings[0].message.contains("suppresses nothing"));
    }

    #[test]
    fn allow_does_not_cross_rules() {
        let src =
            "fn f(m: &Mutex<u8>) {\n    m.lock(); // lint:allow(no-panic-serving, wrong rule)\n}\n";
        let r = lint_mem(&[("crates/core/src/search/serve.rs", src)]);
        // no-locks findings (Mutex + .lock()) survive; directive is stale.
        assert!(r.findings.iter().any(|f| f.rule == "no-locks-on-hot-path"));
        assert!(r.findings.iter().any(|f| f.rule == LINT_ALLOW_RULE));
    }

    #[test]
    fn severity_override_flips_exit_behavior() {
        let src = "fn f() {\n    x.unwrap();\n}\n";
        let ws = Workspace::from_memory(
            &[("crates/core/src/search/serve.rs", src)],
            &[
                ("results/metrics_baseline.json", CLEAN_BASELINE),
                ("results/metrics_prepare_baseline.json", CLEAN_BASELINE),
                ("results/metrics_warm_baseline.json", CLEAN_BASELINE),
                ("results/quality_baseline.json", CLEAN_SERIES_BASELINE),
            ],
        );
        let cfg = LintConfig {
            overrides: vec![("no-panic-serving".to_string(), Severity::Warn)],
            fast_only: false,
        };
        let r = lint(&ws, &cfg);
        assert_eq!(r.deny_count(), 0);
        assert_eq!(r.warn_count(), 1);
        assert_eq!(r.exit_code(false), 0);
        assert_eq!(r.exit_code(true), 1);
    }

    #[test]
    fn test_path_files_are_skipped_for_per_file_rules() {
        let r = lint_mem(&[(
            "crates/core/tests/serve_test.rs",
            "fn f() { x.unwrap(); a.partial_cmp(&b); }\n",
        )]);
        assert_eq!(r.findings.len(), 0, "{:?}", r.findings);
    }

    #[test]
    fn findings_are_sorted_and_deterministic() {
        let src = "fn f() {\n    b.unwrap();\n    a.unwrap();\n}\n";
        let r1 = lint_mem(&[("crates/core/src/search/serve.rs", src)]);
        let r2 = lint_mem(&[("crates/core/src/search/serve.rs", src)]);
        let pos1: Vec<_> = r1.findings.iter().map(|f| (f.line, f.col)).collect();
        let pos2: Vec<_> = r2.findings.iter().map(|f| (f.line, f.col)).collect();
        assert_eq!(pos1, pos2);
        assert_eq!(pos1, vec![(2, 7), (3, 7)]);
    }
}
