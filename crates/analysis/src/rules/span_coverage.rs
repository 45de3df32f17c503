//! `span-coverage`: the workspace span-name registry, and the gate
//! that the checked-in baselines are healthy and every name they gate
//! is in it.
//!
//! The registry is the set of dotted lowercase string literals in
//! non-test source (`"serve.query"`, `"prepare.index"`,
//! `"quality.overlap.citation_text"`), each with the sites where it
//! appears and how (an `obs::span`/call argument, a `const`/`static`
//! initializer, or a plain literal). `--emit-registry` writes it to
//! `results/span_registry.json` so CI can archive the full
//! instrumentation surface.
//!
//! The perf gate (`metrics-diff --gate`) and the quality drift gate
//! read the four baselines in [`BASELINE_FILES`]. Deleting or
//! corrupting one must not silently disable its gate, so an unreadable
//! baseline, invalid JSON, or an unrecognized shape is a deny finding;
//! so is a gated name that no longer exists anywhere in source — at
//! lint time, not as a confusing gate error later.
//!
//! Name grammar (documented approximation): segments of
//! `[a-z0-9_]+` starting with a letter, joined by `.`, at least two
//! segments; names whose final segment is a file extension
//! (`metrics.json`, `serve.rs`) are not spans.

use super::{RawFinding, Rule};
use crate::engine::{Baseline, Workspace};
use crate::report::{json_str, Severity};
use crate::scanner::TokKind;
use std::collections::BTreeMap;

/// The baseline files whose span sets are enforced, workspace-relative.
/// Metrics baselines carry a `spans` array of `{name, ...}` objects;
/// the quality baseline carries a `series` array of plain name strings
/// (the summary series the drift gate reads) — both spellings are
/// names that must survive in source.
pub const BASELINE_FILES: &[&str] = &[
    "results/metrics_baseline.json",
    "results/metrics_prepare_baseline.json",
    "results/metrics_warm_baseline.json",
    "results/quality_baseline.json",
];

/// The gated span/series names of one baseline, or the health finding
/// that stops the baseline from gating anything.
fn baseline_names(b: &Baseline) -> Result<Vec<String>, String> {
    let content = b.content.as_ref().map_err(|e| {
        format!("baseline unreadable ({e}); the perf and quality gates depend on this file")
    })?;
    let value: serde_json::Value =
        serde_json::from_str(content).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    if let Some(spans) = value.get("spans").and_then(|s| s.as_array()) {
        Ok(spans
            .iter()
            .filter_map(|span| span.get("name").and_then(|n| n.as_str()))
            .map(str::to_string)
            .collect())
    } else if let Some(series) = value.get("series").and_then(|s| s.as_array()) {
        Ok(series
            .iter()
            .filter_map(|s| s.as_str())
            .map(str::to_string)
            .collect())
    } else {
        Err("baseline has neither a `spans` nor a `series` array; \
             regenerate it with `--metrics` / `litsearch quality --write-baseline`"
            .to_string())
    }
}

/// Final segments that mark a dotted literal as a file name, not a
/// span name.
const FILE_EXTENSIONS: &[&str] = &[
    "json", "jsonl", "md", "rs", "toml", "txt", "csv", "tsv", "log", "dot",
];

/// One appearance of a span name in source.
#[derive(Debug, Clone)]
pub struct SpanSite {
    /// Workspace-relative file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// `call:<fn>` for a call argument, `const` inside a
    /// const/static initializer, `literal` otherwise.
    pub kind: String,
}

/// True when `s` parses as a span name under the module-doc grammar.
pub fn is_span_name(s: &str) -> bool {
    let segs: Vec<&str> = s.split('.').collect();
    if segs.len() < 2 {
        return false;
    }
    for seg in &segs {
        let mut chars = seg.chars();
        match chars.next() {
            Some(c) if c.is_ascii_lowercase() => {}
            _ => return false,
        }
        if !chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_') {
            return false;
        }
    }
    !FILE_EXTENSIONS.contains(segs.last().unwrap())
}

/// Extract the registry: span name → sorted sites.
pub fn build_registry(ws: &Workspace) -> BTreeMap<String, Vec<SpanSite>> {
    let mut out: BTreeMap<String, Vec<SpanSite>> = BTreeMap::new();
    for file in &ws.files {
        if file.is_test_path() {
            continue;
        }
        // Track whether we're inside a const/static item initializer:
        // set at `const`/`static`, cleared at the closing `;`.
        let mut in_const = false;
        for (i, t) in file.tokens.iter().enumerate() {
            if t.kind == TokKind::Ident && (t.text == "const" || t.text == "static") {
                in_const = true;
            } else if t.text == ";" {
                in_const = false;
            }
            if t.kind != TokKind::Str || t.in_test || !is_span_name(&t.text) {
                continue;
            }
            let kind = {
                let prev = |k: usize| file.tokens.get(i.wrapping_sub(k));
                let called = prev(1)
                    .filter(|p| p.text == "(")
                    .and_then(|_| prev(2))
                    .filter(|f| f.kind == TokKind::Ident);
                match called {
                    Some(f) => format!("call:{}", f.text),
                    None if in_const => "const".to_string(),
                    None => "literal".to_string(),
                }
            };
            out.entry(t.text.clone()).or_default().push(SpanSite {
                path: file.path.clone(),
                line: t.line,
                kind,
            });
        }
    }
    for sites in out.values_mut() {
        sites.sort_by(|a, b| (&a.path, a.line, &a.kind).cmp(&(&b.path, b.line, &b.kind)));
    }
    out
}

/// Deterministic JSON for `--emit-registry` /
/// `results/span_registry.json`.
pub fn registry_json(ws: &Workspace) -> String {
    let reg = build_registry(ws);
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"count\": {},\n  \"names\": [\n", reg.len()));
    let total = reg.len();
    for (k, (name, sites)) in reg.iter().enumerate() {
        let rendered: Vec<String> = sites
            .iter()
            .map(|site| {
                format!(
                    "{{\"path\": {}, \"line\": {}, \"kind\": {}}}",
                    json_str(&site.path),
                    site.line,
                    json_str(&site.kind)
                )
            })
            .collect();
        s.push_str(&format!(
            "    {{\"name\": {}, \"sites\": [{}]}}{}\n",
            json_str(name),
            rendered.join(", "),
            if k + 1 < total { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// See module docs.
pub struct SpanCoverage;

impl Rule for SpanCoverage {
    fn id(&self) -> &'static str {
        "span-coverage"
    }

    fn summary(&self) -> &'static str {
        "the checked-in baselines must be readable, valid JSON and a recognized shape, \
         and every name they gate must exist in the workspace span registry"
    }

    fn default_severity(&self) -> Severity {
        Severity::Deny
    }

    fn workspace_scoped(&self) -> bool {
        true
    }

    fn check_workspace(&self, ws: &Workspace) -> Vec<RawFinding> {
        let registry = build_registry(ws);
        let mut out = Vec::new();
        for b in &ws.baselines {
            let names = match baseline_names(b) {
                Ok(names) => names,
                Err(health) => {
                    out.push(RawFinding::at_pos(&b.path, 0, 0, health));
                    continue;
                }
            };
            for name in names {
                if !registry.contains_key(&name) {
                    out.push(RawFinding::at_pos(
                        &b.path,
                        0,
                        0,
                        format!(
                            "gated span {name:?} is missing from the workspace span registry; \
                             the rename will fail (or silently skip) the CI perf gate — \
                             update the baseline and CI --gate flags together"
                        ),
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Workspace;

    fn ws(src: &str, baseline: &str) -> Workspace {
        Workspace::from_memory(
            &[("crates/core/src/lib.rs", src)],
            &[("results/metrics_baseline.json", baseline)],
        )
    }

    #[test]
    fn matching_spans_pass() {
        let w = ws(
            r#"fn f() { let _s = obs::span("engine.search"); }"#,
            r#"{"spans": [{"name": "engine.search", "p50_ns": 1}]}"#,
        );
        assert!(SpanCoverage.check_workspace(&w).is_empty());
    }

    #[test]
    fn malformed_or_missing_baseline_is_flagged() {
        let w = ws("fn f() {}", "{not json");
        let found = SpanCoverage.check_workspace(&w);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("not valid JSON"));
        let mut w2 = ws("fn f() {}", "{}");
        let found = SpanCoverage.check_workspace(&w2);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("neither"));
        w2.baselines[0].content = Err("No such file".to_string());
        let found = SpanCoverage.check_workspace(&w2);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("unreadable"));
        assert_eq!(found[0].path, "results/metrics_baseline.json");
    }

    #[test]
    fn baseline_names_parse_both_shapes() {
        let w = ws(
            "fn f() {}",
            r#"{"spans": [{"name": "a.b"}, {"name": "c.d"}]}"#,
        );
        assert_eq!(baseline_names(&w.baselines[0]).unwrap(), ["a.b", "c.d"]);
        let w = ws("fn f() {}", r#"{"series": ["q.x"]}"#);
        assert_eq!(baseline_names(&w.baselines[0]).unwrap(), ["q.x"]);
        let w = ws("fn f() {}", "{broken");
        assert!(baseline_names(&w.baselines[0]).is_err());
    }

    #[test]
    fn renamed_span_is_flagged() {
        let w = ws(
            r#"fn f() { let _s = obs::span("engine.search_v2"); }"#,
            r#"{"spans": [{"name": "engine.search", "p50_ns": 1}]}"#,
        );
        let found = SpanCoverage.check_workspace(&w);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("engine.search"));
        assert_eq!(found[0].path, "results/metrics_baseline.json");
    }

    #[test]
    fn series_string_arrays_are_gated_too() {
        let w = ws(
            r#"pub const OVERLAP: &str = "quality.overlap.citation_text";"#,
            r#"{"series": ["quality.overlap.citation_text"]}"#,
        );
        assert!(SpanCoverage.check_workspace(&w).is_empty());
        let w = ws(
            r#"pub const OVERLAP: &str = "quality.overlap.citation_text";"#,
            r#"{"series": ["quality.overlap.citation_text_v2"]}"#,
        );
        let found = SpanCoverage.check_workspace(&w);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("citation_text_v2"));
    }

    #[test]
    fn literal_anywhere_in_source_counts() {
        // The literal need not be at an obs::span call site — stage
        // names travel through match arms, CLI tables, etc.
        let w = ws(
            r#"const STAGES: &[&str] = &["prepare.index"];"#,
            r#"{"spans": [{"name": "prepare.index"}]}"#,
        );
        assert!(SpanCoverage.check_workspace(&w).is_empty());
    }

    #[test]
    fn name_grammar_excludes_files_and_prose() {
        for yes in ["serve.query", "quality.overlap.citation_text", "a.b_c2"] {
            assert!(is_span_name(yes), "{yes}");
        }
        for no in [
            "metrics.json",
            "serve.rs",
            "Serve.Query",
            "oneword",
            "trailing.",
            ".leading",
            "has space.x",
            "9lead.x",
        ] {
            assert!(!is_span_name(no), "{no}");
        }
    }

    #[test]
    fn site_kinds_are_classified() {
        let w = ws(
            "pub const N: &str = \"serve.query\";\nfn f() {\n    let _s = obs::span(\"engine.search\");\n    log(\"free.floating\")\n}\nfn g() -> &'static str { \"plain.literal\" }\n",
            r#"{"spans": []}"#,
        );
        let reg = build_registry(&w);
        assert_eq!(reg["serve.query"][0].kind, "const");
        assert_eq!(reg["engine.search"][0].kind, "call:span");
        assert_eq!(reg["free.floating"][0].kind, "call:log");
        assert_eq!(reg["plain.literal"][0].kind, "literal");
    }

    #[test]
    fn test_code_is_not_coverage() {
        let w = Workspace::from_memory(
            &[
                (
                    "crates/core/tests/t.rs",
                    r#"fn t() { obs::span("only.in_tests"); }"#,
                ),
                (
                    "crates/core/src/lib.rs",
                    "#[cfg(test)]\nmod tests {\n    fn t() { obs::span(\"cfg.test_only\"); }\n}\n",
                ),
            ],
            &[(
                "results/metrics_baseline.json",
                r#"{"spans": [{"name": "only.in_tests"}]}"#,
            )],
        );
        assert!(build_registry(&w).is_empty());
        assert_eq!(SpanCoverage.check_workspace(&w).len(), 1);
    }

    #[test]
    fn registry_json_is_deterministic_and_parseable() {
        let w = ws(
            "fn f() { obs::span(\"b.two\"); obs::span(\"a.one\"); }\n",
            r#"{"spans": []}"#,
        );
        let j1 = registry_json(&w);
        let j2 = registry_json(&w);
        assert_eq!(j1, j2);
        let v: serde_json::Value = serde_json::from_str(&j1).unwrap();
        assert_eq!(v["count"].as_f64(), Some(2.0));
        assert_eq!(v["names"][0]["name"], "a.one", "sorted by name");
    }
}
