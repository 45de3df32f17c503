//! Experiment harness: shared setup and the per-figure experiment
//! implementations that regenerate every table/figure of the paper's
//! evaluation section (§5). Each `src/bin/fig5_*.rs` binary is a thin
//! wrapper over a function here; `run_all` executes everything and
//! collects the tables.
//!
//! Scale flags (all binaries): `--paper-scale` mirrors the paper's
//! setup (72k papers, min context size 100 — takes a while);
//! `--terms N`, `--papers N`, `--queries N`, `--seed N`,
//! `--min-context N` override individual knobs.

pub mod diff;
pub mod experiments;
pub mod load;
pub mod setup;

pub use diff::{diff_snapshots, DiffReport, DiffThresholds, SpanDiff, SpanVerdict};
pub use experiments::*;
pub use load::{network_serve_slos, quality_gate, LoadConfig, LoadHarness, LoadReport, LoopMode};
pub use setup::{ExpConfig, Setup};
