//! The rule set: each rule guards one architectural invariant.
//!
//! | rule id | invariant |
//! |---|---|
//! | `no-panic-serving` | the query/serve path and snapshot persistence never panic |
//! | `no-locks-on-hot-path` | PR 3's lock-free serving claim stays true |
//! | `float-total-order` | ranking comparisons are total (NaN-safe, deterministic) |
//! | `no-wallclock-outside-obs` | wall-clock reads stay inside telemetry/bench code |
//! | `span-coverage` | the checked-in baselines stay readable and well-formed, and every name they gate exists in the workspace span registry |
//! | `hashmap-order-leak` | hash iteration order never leaks into ranked output |
//! | `panic-reachable-serving` | no panic site is call-reachable from a serve entrypoint |
//! | `lock-reachable-hot-path` | no lock is call-reachable from a serve entrypoint |
//! | `alloc-on-hot-path` | the per-candidate kernel never allocates outside the scratch pool |
//!
//! The per-file rules are token-pattern matchers over [`SourceFile`]
//! streams — no type information. Where that forces a heuristic
//! (float expressions, hash-iteration flow), the rule errs toward
//! silence on patterns it cannot classify and the dynamic tests cover
//! the remainder. The `*-reachable-*` rules run over the approximate
//! call graph ([`crate::callgraph`]) instead and err the other way:
//! name-based resolution over-approximates, and the boundary stop-list
//! plus narrowed leaf-fact sets (see [`crate::reach`]) keep the
//! false-positive rate at zero on this workspace.

use crate::callgraph::CallGraph;
use crate::engine::Workspace;
use crate::report::{ChainStep, Severity};
use crate::scanner::{SourceFile, Tok};

pub mod float_order;
pub mod hashmap_order;
pub mod interproc;
pub mod no_locks;
pub mod no_panic;
pub mod span_coverage;
pub mod wallclock;

/// A finding before severity assignment.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line (0 = whole file).
    pub line: u32,
    /// 1-based column (0 = whole file).
    pub col: u32,
    /// Explanation.
    pub message: String,
    /// Witness call chain for interprocedural findings (root first).
    pub chain: Vec<ChainStep>,
}

impl RawFinding {
    /// Finding anchored at a token.
    pub fn at(file: &SourceFile, tok: &Tok, message: String) -> Self {
        Self {
            path: file.path.clone(),
            line: tok.line,
            col: tok.col,
            message,
            chain: Vec::new(),
        }
    }

    /// Finding anchored at an explicit position, no chain.
    pub fn at_pos(path: &str, line: u32, col: u32, message: String) -> Self {
        Self {
            path: path.to_string(),
            line,
            col,
            message,
            chain: Vec::new(),
        }
    }
}

/// One lint rule.
pub trait Rule {
    /// Stable id used in reports and `lint:allow(...)`.
    fn id(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn summary(&self) -> &'static str;
    /// Severity before config overrides.
    fn default_severity(&self) -> Severity;
    /// Whether this per-file rule wants `path` (test paths are already
    /// filtered by the engine). Workspace rules return `false`.
    fn applies_to(&self, _path: &str) -> bool {
        false
    }
    /// Per-file check.
    fn check_file(&self, _file: &SourceFile) -> Vec<RawFinding> {
        Vec::new()
    }
    /// Whole-workspace check (cross-file state).
    fn check_workspace(&self, _ws: &Workspace) -> Vec<RawFinding> {
        Vec::new()
    }
    /// Interprocedural check over the workspace call graph. Only runs
    /// when the engine built a graph (full-workspace scans).
    fn check_graph(&self, _ws: &Workspace, _graph: &CallGraph) -> Vec<RawFinding> {
        Vec::new()
    }
    /// True for rules whose verdict needs the whole workspace (the
    /// call graph or cross-file state). `--paths` fast mode skips
    /// them, and their `lint:allow` directives are exempt from the
    /// stale check there.
    fn workspace_scoped(&self) -> bool {
        false
    }
}

/// Every rule, in report order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(no_panic::NoPanicServing),
        Box::new(no_locks::NoLocksOnHotPath),
        Box::new(float_order::FloatTotalOrder),
        Box::new(wallclock::NoWallclockOutsideObs),
        Box::new(span_coverage::SpanCoverage),
        Box::new(hashmap_order::HashmapOrderLeak),
        Box::new(interproc::PanicReachableServing),
        Box::new(interproc::LockReachableHotPath),
        Box::new(interproc::AllocOnHotPath),
    ]
}

/// Text of the token at `i`, or "".
pub(crate) fn text_at(toks: &[Tok], i: usize) -> &str {
    toks.get(i).map_or("", |t| t.text.as_str())
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::scanner::scan;

    /// Run one rule over a synthetic file.
    pub fn findings_on(rule: &dyn Rule, path: &str, src: &str) -> Vec<RawFinding> {
        let f = scan(path, src);
        rule.check_file(&f)
    }
}
