//! Declarative service-level objectives with multi-window burn-rate
//! evaluation.
//!
//! An [`SloSpec`] states an objective over one rolling series — "99%
//! of `serve.query` executions complete under 50 ms", "99.9% of
//! queries succeed" — and the evaluator turns the live window contents
//! of a [`RollingRecorder`] into a *burn rate*: how fast the error
//! budget is being consumed, where 1.0 means "exactly at the
//! sustainable rate". The classic multi-window rule guards against
//! both flavors of false alarm: a short window alone spikes on a
//! transient blip, a long window alone stays red for ages after
//! recovery — so a status level is declared only when **every** window
//! that has data burns at that level.
//!
//! Evaluation is a pure function of (specs, window contents, read
//! time): under an injected [`ManualClock`](crate::ManualClock) the
//! whole [`SloReport`], JSON and markdown included, is bit-identical
//! across runs.

use crate::rolling::RollingRecorder;
use serde::Value;

/// What an objective constrains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SloKind {
    /// Good event = observation at or under the latency threshold.
    Latency {
        /// An observation above this many nanoseconds burns budget.
        threshold_ns: u64,
    },
    /// Good event = observation not flagged as an error.
    Availability,
}

/// One declarative objective over a rolling series.
#[derive(Debug, Clone)]
pub struct SloSpec {
    /// Objective name, e.g. `query-latency-p99`.
    pub name: String,
    /// The rolling series it reads, e.g. `serve.query`.
    pub series: String,
    /// Latency-threshold or availability flavor.
    pub kind: SloKind,
    /// Target fraction of good events, in (0, 1) — `0.99` means "99%
    /// good"; the error budget is `1 − target`.
    pub target: f64,
}

impl SloSpec {
    /// "99% of `series` under `threshold_ns`."
    pub fn latency(name: &str, series: &str, threshold_ns: u64, target: f64) -> Self {
        Self {
            name: name.to_string(),
            series: series.to_string(),
            kind: SloKind::Latency { threshold_ns },
            target,
        }
    }

    /// "`target` fraction of `series` succeeds."
    pub fn availability(name: &str, series: &str, target: f64) -> Self {
        Self {
            name: name.to_string(),
            series: series.to_string(),
            kind: SloKind::Availability,
            target,
        }
    }
}

/// One evaluation window with its alerting thresholds.
#[derive(Debug, Clone, Copy)]
pub struct BurnWindow {
    /// Window length, seconds.
    pub secs: u64,
    /// Burn rate at or above this is a warning.
    pub warn: f64,
    /// Burn rate at or above this is a hard violation.
    pub critical: f64,
}

/// The default short + long pair: the short window reacts fast, the
/// long window confirms the burn is sustained.
pub fn default_burn_windows() -> Vec<BurnWindow> {
    vec![
        BurnWindow {
            secs: 10,
            warn: 2.0,
            critical: 10.0,
        },
        BurnWindow {
            secs: 60,
            warn: 1.0,
            critical: 2.0,
        },
    ]
}

/// Joint status of one objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SloStatus {
    /// Budget burn is sustainable in at least one window.
    Ok,
    /// Every window with data burns at warning rate.
    Warn,
    /// Every window with data burns at critical rate — a hard
    /// violation.
    Critical,
}

impl SloStatus {
    fn name(self) -> &'static str {
        match self {
            SloStatus::Ok => "ok",
            SloStatus::Warn => "warn",
            SloStatus::Critical => "critical",
        }
    }
}

/// Burn measurement of one objective over one window.
#[derive(Debug, Clone)]
pub struct WindowBurn {
    /// Window length, seconds.
    pub secs: u64,
    /// Events in the window.
    pub count: u64,
    /// Budget-burning events in the window.
    pub bad: u64,
    /// `bad / count` (0 when empty).
    pub bad_fraction: f64,
    /// `bad_fraction / (1 − target)`.
    pub burn_rate: f64,
    /// This window's own verdict against its thresholds.
    pub status: SloStatus,
}

/// One objective, evaluated.
#[derive(Debug, Clone)]
pub struct SloEval {
    /// The spec this evaluates.
    pub spec: SloSpec,
    /// Per-window burn measurements.
    pub windows: Vec<WindowBurn>,
    /// The joint multi-window verdict.
    pub status: SloStatus,
}

/// Every objective evaluated at one instant.
#[derive(Debug, Clone)]
pub struct SloReport {
    /// Clock reading the evaluation ran at, nanoseconds.
    pub at_ns: u64,
    /// One entry per spec, in spec order.
    pub evals: Vec<SloEval>,
}

/// Evaluate `specs` against the recorder's windows at `at_ns`.
pub fn evaluate_at(
    recorder: &RollingRecorder,
    specs: &[SloSpec],
    burn_windows: &[BurnWindow],
    at_ns: u64,
) -> SloReport {
    let evals = specs
        .iter()
        .map(|spec| {
            let budget = (1.0 - spec.target).max(1e-9);
            let windows: Vec<WindowBurn> = burn_windows
                .iter()
                .map(|bw| {
                    let stats = recorder.window_at(&spec.series, bw.secs, at_ns);
                    let (count, bad) = match (&stats, spec.kind) {
                        (None, _) => (0, 0),
                        (Some(w), SloKind::Availability) => (w.count, w.errors),
                        (Some(w), SloKind::Latency { threshold_ns }) => {
                            (w.count, w.histogram.count_over(threshold_ns))
                        }
                    };
                    let bad_fraction = if count == 0 {
                        0.0
                    } else {
                        bad as f64 / count as f64
                    };
                    let burn_rate = bad_fraction / budget;
                    let status = if count == 0 {
                        SloStatus::Ok
                    } else if burn_rate >= bw.critical {
                        SloStatus::Critical
                    } else if burn_rate >= bw.warn {
                        SloStatus::Warn
                    } else {
                        SloStatus::Ok
                    };
                    WindowBurn {
                        secs: bw.secs,
                        count,
                        bad,
                        bad_fraction,
                        burn_rate,
                        status,
                    }
                })
                .collect();
            // Multi-window rule: the joint status is the *minimum* over
            // windows that have data — every window must agree.
            let status = windows
                .iter()
                .filter(|w| w.count > 0)
                .map(|w| w.status)
                .min()
                .unwrap_or(SloStatus::Ok);
            SloEval {
                spec: spec.clone(),
                windows,
                status,
            }
        })
        .collect();
    SloReport { at_ns, evals }
}

impl SloReport {
    /// True when any objective is jointly critical.
    pub fn has_hard_violation(&self) -> bool {
        self.evals.iter().any(|e| e.status == SloStatus::Critical)
    }

    /// The worst joint status in the report.
    pub fn worst(&self) -> SloStatus {
        self.evals
            .iter()
            .map(|e| e.status)
            .max()
            .unwrap_or(SloStatus::Ok)
    }

    /// JSON object form, field order fixed.
    pub fn to_value(&self) -> Value {
        let evals: Vec<Value> = self
            .evals
            .iter()
            .map(|e| {
                let windows: Vec<Value> = e
                    .windows
                    .iter()
                    .map(|w| {
                        Value::Map(vec![
                            ("secs".to_string(), Value::UInt(w.secs)),
                            ("count".to_string(), Value::UInt(w.count)),
                            ("bad".to_string(), Value::UInt(w.bad)),
                            ("bad_fraction".to_string(), Value::Float(w.bad_fraction)),
                            ("burn_rate".to_string(), Value::Float(w.burn_rate)),
                            (
                                "status".to_string(),
                                Value::Str(w.status.name().to_string()),
                            ),
                        ])
                    })
                    .collect();
                let objective = match e.spec.kind {
                    SloKind::Latency { threshold_ns } => Value::Map(vec![
                        ("kind".to_string(), Value::Str("latency".to_string())),
                        ("threshold_ns".to_string(), Value::UInt(threshold_ns)),
                    ]),
                    SloKind::Availability => Value::Map(vec![(
                        "kind".to_string(),
                        Value::Str("availability".to_string()),
                    )]),
                };
                Value::Map(vec![
                    ("name".to_string(), Value::Str(e.spec.name.clone())),
                    ("series".to_string(), Value::Str(e.spec.series.clone())),
                    ("objective".to_string(), objective),
                    ("target".to_string(), Value::Float(e.spec.target)),
                    (
                        "status".to_string(),
                        Value::Str(e.status.name().to_string()),
                    ),
                    ("windows".to_string(), Value::Seq(windows)),
                ])
            })
            .collect();
        Value::Map(vec![
            ("at_ns".to_string(), Value::UInt(self.at_ns)),
            (
                "worst".to_string(),
                Value::Str(self.worst().name().to_string()),
            ),
            ("slos".to_string(), Value::Seq(evals)),
        ])
    }

    /// Markdown table, one row per (objective, window).
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("# SLO report\n\n");
        out.push_str(&format!("worst status: **{}**\n\n", self.worst().name()));
        out.push_str(
            "| objective | series | target | window | events | bad | burn rate | status |\n\
             |---|---|---:|---:|---:|---:|---:|---|\n",
        );
        for e in &self.evals {
            for w in &e.windows {
                out.push_str(&format!(
                    "| {} | {} | {:.4} | {}s | {} | {} | {:.3} | {} |\n",
                    e.spec.name,
                    e.spec.series,
                    e.spec.target,
                    w.secs,
                    w.count,
                    w.bad,
                    w.burn_rate,
                    w.status.name(),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, ManualClock};
    use crate::rolling::{RollingConfig, SECOND_NS};
    use std::sync::Arc;

    fn recorder() -> RollingRecorder {
        RollingRecorder::new(
            RollingConfig {
                bucket_secs: 1,
                window_secs: 120,
                shards: 1,
            },
            Arc::new(ManualClock::new(0)) as Arc<dyn Clock>,
        )
    }

    fn windows() -> Vec<BurnWindow> {
        default_burn_windows()
    }

    #[test]
    fn healthy_series_is_ok() {
        let rec = recorder();
        for i in 0..600u64 {
            rec.record_at(0, "serve.query", i * SECOND_NS / 10, 1_000_000, false);
        }
        let specs = vec![
            SloSpec::latency("latency", "serve.query", 50_000_000, 0.99),
            SloSpec::availability("availability", "serve.query", 0.999),
        ];
        let report = evaluate_at(&rec, &specs, &windows(), 60 * SECOND_NS);
        assert_eq!(report.worst(), SloStatus::Ok);
        assert!(!report.has_hard_violation());
        assert!(report.to_markdown().contains("| latency |"));
    }

    #[test]
    fn sustained_errors_burn_to_critical_in_all_windows() {
        let rec = recorder();
        // 50% errors against a 99.9% availability target: burn ≈ 500.
        for i in 0..600u64 {
            rec.record_at(0, "q", i * SECOND_NS / 10, 1000, i % 2 == 0);
        }
        let specs = vec![SloSpec::availability("avail", "q", 0.999)];
        let report = evaluate_at(&rec, &specs, &windows(), 60 * SECOND_NS);
        assert_eq!(report.worst(), SloStatus::Critical);
        assert!(report.has_hard_violation());
    }

    #[test]
    fn short_blip_alone_is_not_a_joint_violation() {
        let rec = recorder();
        // 55 s of healthy traffic, then 5 s of pure errors: the 10 s
        // window burns critical, the 60 s window does not confirm.
        for i in 0..550u64 {
            rec.record_at(0, "q", i * SECOND_NS / 10, 1000, false);
        }
        for i in 550..600u64 {
            rec.record_at(0, "q", i * SECOND_NS / 10, 1000, true);
        }
        let specs = vec![SloSpec::availability("avail", "q", 0.95)];
        let report = evaluate_at(&rec, &specs, &windows(), 60 * SECOND_NS);
        let eval = &report.evals[0];
        assert_eq!(eval.windows[0].status, SloStatus::Critical, "short window");
        assert!(eval.windows[1].status < SloStatus::Critical, "long window");
        assert!(
            !report.has_hard_violation(),
            "multi-window rule requires agreement"
        );
    }

    #[test]
    fn latency_objective_counts_over_threshold() {
        let rec = recorder();
        // 20% of observations at 100 ms against "99% under 50 ms":
        // burn ≈ 20, critical everywhere.
        for i in 0..600u64 {
            let slow = i % 5 == 0;
            let v = if slow { 100_000_000 } else { 1_000_000 };
            rec.record_at(0, "q", i * SECOND_NS / 10, v, false);
        }
        let specs = vec![SloSpec::latency("lat", "q", 50_000_000, 0.99)];
        let report = evaluate_at(&rec, &specs, &windows(), 60 * SECOND_NS);
        assert!(report.has_hard_violation());
        let long = &report.evals[0].windows[1];
        assert!(
            (long.bad_fraction - 0.2).abs() < 0.02,
            "bad fraction ≈ 20%, got {}",
            long.bad_fraction
        );
    }

    #[test]
    fn empty_windows_are_ok() {
        let rec = recorder();
        let specs = vec![SloSpec::availability("avail", "q", 0.999)];
        assert_eq!(
            evaluate_at(&rec, &specs, &windows(), 0).worst(),
            SloStatus::Ok
        );
    }
}
