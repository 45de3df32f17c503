//! Approximate workspace call graph over [`crate::items`] output.
//!
//! ## Resolution rules (documented over-approximation)
//!
//! Call sites are resolved by name, never by type inference:
//!
//! - `self.m(…)` — methods named `m` on the caller's own impl type;
//!   if the type defines none (trait-object or inherited call), falls
//!   back to *every* method named `m` in the workspace.
//! - `Type::m(…)` / `Self::m(…)` (uppercase qualifier) — methods of
//!   that impl type only. Unknown types (std: `Vec::new`) resolve to
//!   nothing and contribute no edge.
//! - `module::f(…)` (lowercase path) — free functions named `f` whose
//!   module path ends with the written qualifier segments.
//! - `recv.m(…)` — every method named `m` anywhere in the workspace.
//!   This is the main source of false edges; the boundary stop-list in
//!   this module is sized for it.
//! - `f(…)` (bare lowercase) — every free function named `f`.
//!   Uppercase bare calls are tuple-struct constructors: no edge.
//! - `name!(…)` — macros never create edges; panicking macros are
//!   leaf facts instead.
//!
//! The contract is one-sided: the graph may contain edges the compiler
//! would not (callers pay with an occasional boundary entry), but a
//! call between two workspace functions is never silently missing.
//!
//! ## Boundary (stop-list)
//!
//! Reachability never *enters* these modules — they are present in the
//! exported graph but their facts are not reported and their callees
//! are not traversed:
//!
//! - `crates/obs/**` — telemetry; locks and wall-clock reads are its
//!   job, and `no-wallclock-outside-obs` already polices the border.
//! - `crates/bench/**`, `crates/analysis/**` — harness/tooling, never
//!   linked into serving.
//! - `shadow.rs` — the off-hot-path shadow sampler (its locks are the
//!   sanctioned sampling window).

use crate::engine::Workspace;
use crate::items::{extract_items, FnItem};
use crate::reach::{extract_facts, Fact};
use crate::scanner::{is_keyword, SourceFile, Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// Module trees reachability must not enter (path prefixes).
pub const BOUNDARY_PREFIXES: &[&str] = &["crates/obs/", "crates/bench/", "crates/analysis/"];

/// Single files reachability must not enter.
pub const BOUNDARY_FILES: &[&str] = &["crates/core/src/search/shadow.rs"];

/// True when `path` is on the stop-list.
pub fn is_boundary_path(path: &str) -> bool {
    BOUNDARY_PREFIXES.iter().any(|p| path.starts_with(p)) || BOUNDARY_FILES.contains(&path)
}

/// One function in the graph.
#[derive(Debug, Clone)]
pub struct Node {
    /// Stable display id, e.g. `core::search::serve::Searcher::query`.
    pub id: String,
    /// Function name.
    pub name: String,
    /// Impl/trait self type, if a method.
    pub impl_type: Option<String>,
    /// Workspace-relative file.
    pub path: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Module path: crate segment + file modules + inline modules.
    pub module_path: Vec<String>,
    /// On the reachability stop-list.
    pub is_boundary: bool,
    /// Leaf capability facts found in this function's own body.
    pub facts: Vec<Fact>,
}

/// A call site recognized in a function body.
#[derive(Debug, Clone)]
enum Call {
    /// `self.m(…)`
    SelfMethod { name: String, line: u32 },
    /// `recv.m(…)`
    Method { name: String, line: u32 },
    /// `f(…)`
    Free { name: String, line: u32 },
    /// `a::b::f(…)` — qualifier segments, `crate`/`self`/`super`
    /// already stripped.
    Path {
        qualifier: Vec<String>,
        name: String,
        line: u32,
    },
}

/// The workspace call graph.
pub struct CallGraph {
    /// Nodes sorted by (path, line).
    pub nodes: Vec<Node>,
    /// Sorted adjacency: `edges[n]` = callee indices.
    pub edges: Vec<Vec<usize>>,
    /// First call site per edge: (caller path, line).
    pub edge_sites: BTreeMap<(usize, usize), u32>,
}

impl CallGraph {
    /// Build the graph for every non-test file / function.
    pub fn build(ws: &Workspace) -> CallGraph {
        // 1. Extract items per file.
        let mut per_file: Vec<(&SourceFile, Vec<FnItem>)> = Vec::new();
        for f in &ws.files {
            if f.is_test_path() {
                continue;
            }
            per_file.push((f, extract_items(f)));
        }

        // 2. Materialize nodes (test fns dropped).
        let mut nodes: Vec<Node> = Vec::new();
        let mut bodies: Vec<Option<(usize, usize)>> = Vec::new();
        let mut file_of: Vec<usize> = Vec::new();
        for (fi, (f, items)) in per_file.iter().enumerate() {
            for it in items {
                if it.is_test {
                    continue;
                }
                let mut module_path = derive_file_modules(&f.path);
                module_path.extend(it.inline_mods.iter().cloned());
                nodes.push(Node {
                    id: String::new(),
                    name: it.name.clone(),
                    impl_type: it.impl_type.clone(),
                    path: f.path.clone(),
                    line: it.line,
                    module_path,
                    is_boundary: is_boundary_path(&f.path),
                    facts: Vec::new(),
                });
                bodies.push(it.body);
                file_of.push(fi);
            }
        }

        // 3. Stable ids, deduplicated with @line.
        let mut base_ids: Vec<String> = nodes
            .iter()
            .map(|n| {
                let mut id = n.module_path.join("::");
                if let Some(t) = &n.impl_type {
                    id.push_str("::");
                    id.push_str(t);
                }
                id.push_str("::");
                id.push_str(&n.name);
                id
            })
            .collect();
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for id in &base_ids {
            *counts.entry(id.as_str()).or_default() += 1;
        }
        let dups: BTreeSet<String> = counts
            .iter()
            .filter(|(_, c)| **c > 1)
            .map(|(id, _)| id.to_string())
            .collect();
        for (k, id) in base_ids.iter_mut().enumerate() {
            if dups.contains(id.as_str()) {
                id.push_str(&format!("@{}", nodes[k].line));
            }
        }
        for (k, id) in base_ids.into_iter().enumerate() {
            nodes[k].id = id;
        }

        // 4. Scan bodies: call sites + leaf facts. A nested fn's body
        // range is excluded from its parent's scan.
        let mut calls: Vec<Vec<Call>> = vec![Vec::new(); nodes.len()];
        let mut facts: Vec<Vec<Fact>> = vec![Vec::new(); nodes.len()];
        for k in 0..nodes.len() {
            let Some((bs, be)) = bodies[k] else { continue };
            let file = per_file[file_of[k]].0;
            let nested: Vec<(usize, usize)> = (0..nodes.len())
                .filter(|&o| o != k && file_of[o] == file_of[k])
                .filter_map(|o| bodies[o])
                .filter(|&(os, oe)| bs < os && oe <= be)
                .collect();
            let (c, f) = scan_body(&file.tokens, bs, be, &nested);
            calls[k] = c;
            facts[k] = f;
        }
        for (k, f) in facts.into_iter().enumerate() {
            nodes[k].facts = f;
        }

        // 5. Name indexes.
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_impl: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (k, n) in nodes.iter().enumerate() {
            match &n.impl_type {
                Some(t) => {
                    methods_by_name.entry(n.name.as_str()).or_default().push(k);
                    by_impl
                        .entry((t.as_str(), n.name.as_str()))
                        .or_default()
                        .push(k);
                }
                None => free_by_name.entry(n.name.as_str()).or_default().push(k),
            }
        }

        // 6. Resolve calls to edges.
        let mut edge_set: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut edge_sites: BTreeMap<(usize, usize), u32> = BTreeMap::new();
        let empty: Vec<usize> = Vec::new();
        for (k, cs) in calls.iter().enumerate() {
            for c in cs {
                let (targets, line): (&[usize], u32) = match c {
                    Call::SelfMethod { name, line } => {
                        let own = nodes[k]
                            .impl_type
                            .as_deref()
                            .and_then(|t| by_impl.get(&(t, name.as_str())));
                        match own {
                            Some(v) => (v.as_slice(), *line),
                            None => (
                                methods_by_name
                                    .get(name.as_str())
                                    .map(Vec::as_slice)
                                    .unwrap_or(&empty),
                                *line,
                            ),
                        }
                    }
                    Call::Method { name, line } => (
                        methods_by_name
                            .get(name.as_str())
                            .map(Vec::as_slice)
                            .unwrap_or(&empty),
                        *line,
                    ),
                    Call::Free { name, line } => (
                        free_by_name
                            .get(name.as_str())
                            .map(Vec::as_slice)
                            .unwrap_or(&empty),
                        *line,
                    ),
                    Call::Path {
                        qualifier,
                        name,
                        line,
                    } => {
                        let last = qualifier.last().map(String::as_str).unwrap_or("");
                        if last == "Self" {
                            let own = nodes[k]
                                .impl_type
                                .as_deref()
                                .and_then(|t| by_impl.get(&(t, name.as_str())));
                            (own.map(Vec::as_slice).unwrap_or(&empty), *line)
                        } else if last.starts_with(char::is_uppercase) {
                            (
                                by_impl
                                    .get(&(last, name.as_str()))
                                    .map(Vec::as_slice)
                                    .unwrap_or(&empty),
                                *line,
                            )
                        } else {
                            // Module path: free fns whose module path
                            // ends with the qualifier. Resolved per
                            // call, so borrow the name bucket.
                            let bucket = free_by_name.get(name.as_str()).unwrap_or(&empty);
                            let matched: Vec<usize> = bucket
                                .iter()
                                .copied()
                                .filter(|&t| {
                                    module_suffix_matches(&nodes[t].module_path, qualifier)
                                })
                                .collect();
                            for &t in &matched {
                                edge_set.insert((k, t));
                                edge_sites.entry((k, t)).or_insert(*line);
                            }
                            continue;
                        }
                    }
                };
                for &t in targets {
                    edge_set.insert((k, t));
                    edge_sites.entry((k, t)).or_insert(line);
                }
            }
        }
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for (a, b) in edge_set {
            edges[a].push(b);
        }
        CallGraph {
            nodes,
            edges,
            edge_sites,
        }
    }

    /// Node index by (exact path, fn name); first match in node order.
    pub fn find(&self, path: &str, name: &str) -> Option<usize> {
        self.nodes
            .iter()
            .position(|n| n.path == path && n.name == name)
    }

    /// Deterministic JSON export.
    pub fn to_json(&self) -> String {
        use crate::report::json_str;
        let mut s = String::from("{\n  \"nodes\": [\n");
        for (k, n) in self.nodes.iter().enumerate() {
            let caps: BTreeSet<&str> = n.facts.iter().map(|f| f.cap.label()).collect();
            let caps: Vec<String> = caps.into_iter().map(json_str).collect();
            s.push_str(&format!(
                "    {{\"id\": {}, \"path\": {}, \"line\": {}, \"boundary\": {}, \"facts\": [{}]}}{}\n",
                json_str(&n.id),
                json_str(&n.path),
                n.line,
                n.is_boundary,
                caps.join(", "),
                if k + 1 < self.nodes.len() { "," } else { "" },
            ));
        }
        s.push_str("  ],\n  \"edges\": [\n");
        let total: usize = self.edges.iter().map(Vec::len).sum();
        let mut seen = 0usize;
        for (a, outs) in self.edges.iter().enumerate() {
            for &b in outs {
                seen += 1;
                let line = self.edge_sites.get(&(a, b)).copied().unwrap_or(0);
                s.push_str(&format!(
                    "    {{\"from\": {}, \"to\": {}, \"line\": {}}}{}\n",
                    json_str(&self.nodes[a].id),
                    json_str(&self.nodes[b].id),
                    line,
                    if seen < total { "," } else { "" },
                ));
            }
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Deterministic Graphviz DOT export; boundary nodes are dashed.
    pub fn to_dot(&self) -> String {
        let mut s =
            String::from("digraph callgraph {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n");
        for n in &self.nodes {
            let style = if n.is_boundary {
                ", style=dashed"
            } else if !n.facts.is_empty() {
                ", style=bold"
            } else {
                ""
            };
            let caps: BTreeSet<&str> = n.facts.iter().map(|f| f.cap.label()).collect();
            let label = if caps.is_empty() {
                n.id.clone()
            } else {
                format!(
                    "{}\\n[{}]",
                    n.id,
                    caps.into_iter().collect::<Vec<_>>().join(", ")
                )
            };
            s.push_str(&format!(
                "  \"{}\" [label=\"{}\"{}];\n",
                n.id.replace('"', "\\\""),
                label.replace('"', "\\\""),
                style
            ));
        }
        for (a, outs) in self.edges.iter().enumerate() {
            for &b in outs {
                s.push_str(&format!(
                    "  \"{}\" -> \"{}\";\n",
                    self.nodes[a].id.replace('"', "\\\""),
                    self.nodes[b].id.replace('"', "\\\"")
                ));
            }
        }
        s.push_str("}\n");
        s
    }
}

/// `true` when `module_path` ends with `qualifier`
/// (`[core, search, select]` matches `select` and `search::select`).
fn module_suffix_matches(module_path: &[String], qualifier: &[String]) -> bool {
    if qualifier.is_empty() || qualifier.len() > module_path.len() {
        return false;
    }
    module_path[module_path.len() - qualifier.len()..]
        .iter()
        .zip(qualifier)
        .all(|(a, b)| a == b)
}

/// Crate segment + file modules from a workspace-relative path:
/// `crates/core/src/search/serve.rs` → `[core, search, serve]`,
/// `src/main.rs` → `[litsearch, main]`, `lib.rs`/`mod.rs` drop their
/// final segment.
fn derive_file_modules(path: &str) -> Vec<String> {
    let mut segs: Vec<&str> = path.split('/').collect();
    let file = segs.pop().unwrap_or("");
    let mut out: Vec<String> = Vec::new();
    let mut rest: &[&str] = &segs;
    if segs.first() == Some(&"crates") && segs.len() >= 2 {
        out.push(segs[1].to_string());
        rest = &segs[2..];
    } else {
        out.push("litsearch".to_string());
    }
    let mut iter = rest.iter().peekable();
    if iter.peek() == Some(&&"src") {
        iter.next();
    }
    for s in iter {
        if *s != "bin" {
            out.push((*s).to_string());
        }
    }
    let stem = file.strip_suffix(".rs").unwrap_or(file);
    if stem != "lib" && stem != "mod" {
        out.push(stem.to_string());
    }
    out
}

fn text(toks: &[Tok], i: usize) -> &str {
    toks.get(i).map_or("", |t| t.text.as_str())
}

/// Scan one body range for call sites and leaf facts, skipping nested
/// fn body ranges and `#[cfg(test)]` tokens.
fn scan_body(
    toks: &[Tok],
    bs: usize,
    be: usize,
    nested: &[(usize, usize)],
) -> (Vec<Call>, Vec<Fact>) {
    let mut calls = Vec::new();
    let mut i = bs;
    while i <= be.min(toks.len().saturating_sub(1)) {
        if let Some(&(_, ne)) = nested.iter().find(|&&(ns, _)| ns == i) {
            i = ne + 1;
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident || t.in_test || is_keyword(&t.text) {
            i += 1;
            continue;
        }
        if text(toks, i + 1) != "(" {
            i += 1;
            continue;
        }
        let prev = if i == 0 { "" } else { text(toks, i - 1) };
        match prev {
            "fn" => {}
            "." => {
                let on_self = text(toks, i - 2) == "self" && (i < 3 || text(toks, i - 3) != ".");
                if on_self {
                    calls.push(Call::SelfMethod {
                        name: t.text.clone(),
                        line: t.line,
                    });
                } else {
                    calls.push(Call::Method {
                        name: t.text.clone(),
                        line: t.line,
                    });
                }
            }
            "::" => {
                let mut qualifier: Vec<String> = Vec::new();
                let mut j = i - 1; // at "::"
                while j >= 1 && toks[j].text == "::" && toks[j - 1].kind == TokKind::Ident {
                    qualifier.push(toks[j - 1].text.clone());
                    if j < 2 || toks[j - 2].text != "::" {
                        break;
                    }
                    j -= 2;
                }
                qualifier.reverse();
                qualifier.retain(|q| !matches!(q.as_str(), "crate" | "self" | "super"));
                if !qualifier.is_empty() {
                    calls.push(Call::Path {
                        qualifier,
                        name: t.text.clone(),
                        line: t.line,
                    });
                }
            }
            _ => {
                if t.text.starts_with(|c: char| c.is_lowercase() || c == '_') {
                    calls.push(Call::Free {
                        name: t.text.clone(),
                        line: t.line,
                    });
                }
            }
        }
        i += 1;
    }
    let facts = extract_facts(toks, bs, be, nested);
    (calls, facts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Workspace;

    const BASELINES: &[(&str, &str)] = &[
        ("results/metrics_baseline.json", r#"{"spans": []}"#),
        ("results/metrics_prepare_baseline.json", r#"{"spans": []}"#),
        ("results/metrics_warm_baseline.json", r#"{"spans": []}"#),
        ("results/quality_baseline.json", r#"{"series": []}"#),
    ];

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        CallGraph::build(&Workspace::from_memory(files, BASELINES))
    }

    #[test]
    fn module_derivation() {
        assert_eq!(
            derive_file_modules("crates/core/src/search/serve.rs"),
            ["core", "search", "serve"]
        );
        assert_eq!(
            derive_file_modules("crates/textproc/src/lib.rs"),
            ["textproc"]
        );
        assert_eq!(
            derive_file_modules("crates/core/src/search/mod.rs"),
            ["core", "search"]
        );
        assert_eq!(derive_file_modules("src/main.rs"), ["litsearch", "main"]);
    }

    #[test]
    fn self_method_resolves_within_impl_first() {
        let g = graph(&[
            (
                "crates/core/src/a.rs",
                "pub struct A;\nimpl A {\n    pub fn top(&self) { self.helper(); }\n    fn helper(&self) {}\n}\n",
            ),
            (
                "crates/core/src/b.rs",
                "pub struct B;\nimpl B {\n    pub fn helper(&self) {}\n}\n",
            ),
        ]);
        let top = g.find("crates/core/src/a.rs", "top").unwrap();
        let own = g.find("crates/core/src/a.rs", "helper").unwrap();
        let other = g.find("crates/core/src/b.rs", "helper").unwrap();
        assert!(g.edges[top].contains(&own));
        assert!(
            !g.edges[top].contains(&other),
            "self-call must not leak to another impl with the same method name"
        );
    }

    #[test]
    fn bare_method_over_approximates() {
        let g = graph(&[
            (
                "crates/core/src/a.rs",
                "pub fn go(b: crate::B) { b.helper(); }\n",
            ),
            (
                "crates/core/src/b.rs",
                "pub struct B;\nimpl B {\n    pub fn helper(&self) {}\n}\npub struct C;\nimpl C {\n    pub fn helper(&self) {}\n}\n",
            ),
        ]);
        let go = g.find("crates/core/src/a.rs", "go").unwrap();
        assert_eq!(g.edges[go].len(), 2, "both helpers are candidates");
    }

    #[test]
    fn module_path_calls_need_suffix_match() {
        let g = graph(&[
            (
                "crates/core/src/search/serve.rs",
                "pub fn run() { select::pick(); other::pick(); }\n",
            ),
            ("crates/core/src/search/select.rs", "pub fn pick() {}\n"),
        ]);
        let run = g.find("crates/core/src/search/serve.rs", "run").unwrap();
        let pick = g.find("crates/core/src/search/select.rs", "pick").unwrap();
        assert_eq!(g.edges[run], [pick], "other::pick must not match");
    }

    #[test]
    fn type_qualified_calls_bind_to_impl() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "pub struct A;\nimpl A {\n    pub fn new() -> A { A }\n}\npub fn mk() { let _ = A::new(); let _ = Vec::new(); }\n",
        )]);
        let mk = g.find("crates/core/src/a.rs", "mk").unwrap();
        let new = g.find("crates/core/src/a.rs", "new").unwrap();
        assert_eq!(g.edges[mk], [new], "std Vec::new contributes no edge");
    }

    #[test]
    fn macro_names_create_no_edges() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "pub fn json() {}\npub fn go() { let _ = format!(\"x\"); json();\n}\n",
        )]);
        let go = g.find("crates/core/src/a.rs", "go").unwrap();
        let json = g.find("crates/core/src/a.rs", "json").unwrap();
        assert_eq!(g.edges[go], [json], "format! is not a call to fn format");
    }

    #[test]
    fn boundary_paths_are_marked() {
        let g = graph(&[
            ("crates/obs/src/lib.rs", "pub fn span() {}\n"),
            ("crates/core/src/search/shadow.rs", "pub fn observe() {}\n"),
            ("crates/core/src/search/serve.rs", "pub fn query() {}\n"),
        ]);
        let by_path = |p: &str| {
            g.nodes
                .iter()
                .find(|n| n.path == p)
                .map(|n| n.is_boundary)
                .unwrap()
        };
        assert!(by_path("crates/obs/src/lib.rs"));
        assert!(by_path("crates/core/src/search/shadow.rs"));
        assert!(!by_path("crates/core/src/search/serve.rs"));
    }

    #[test]
    fn exports_are_deterministic_and_well_formed() {
        let files: &[(&str, &str)] = &[(
            "crates/core/src/a.rs",
            "pub fn a() { b(); }\npub fn b() { x.unwrap(); }\n",
        )];
        let g1 = graph(files);
        let g2 = graph(files);
        assert_eq!(g1.to_json(), g2.to_json());
        assert_eq!(g1.to_dot(), g2.to_dot());
        let v: serde_json::Value = serde_json::from_str(&g1.to_json()).unwrap();
        assert!(v["nodes"].as_array().unwrap().len() == 2);
        assert_eq!(v["edges"][0]["from"], "core::a::a");
        assert_eq!(v["edges"][0]["to"], "core::a::b");
        let b = v["nodes"]
            .as_array()
            .unwrap()
            .iter()
            .find(|n| n["id"] == "core::a::b")
            .unwrap();
        assert_eq!(b["facts"][0], "may-panic");
    }
}
