//! Continuous ranking-quality observability: aggregation, drift
//! detection, and reporting over shadow-scoring events.
//!
//! The paper's evaluation chapter compares the three prestige functions
//! offline — top-k% overlapping ratio between their rankings (Fig 5.3)
//! and separability of per-context score distributions (Figs 5.4–5.7).
//! This module runs the same statistics *continuously* against sampled
//! live queries: the core crate's shadow scorer re-ranks a sampled
//! query under every prepared prestige function, computes the overlaps
//! with `eval`'s own function, and emits one [`QualityEvent`]; the
//! [`QualityAggregator`] folds events into one run summary:
//!
//! * **run-level accumulators** — integer bin counts and scaled-integer
//!   sums only, so the summary is independent of event arrival order
//!   (worker interleaving) and byte-stable for a fixed sample stream
//!   (`litsearch quality`),
//! * **score sketches** per prestige function ([`ScoreSketch`]) — bin
//!   counts over the normalized score range [0, 1], binned and reduced
//!   to a separability SD by `eval`'s own two steps, plus quantiles.
//!
//! Drift is judged against a checked-in [`QualityBaseline`]
//! (`results/quality_baseline.json`): overlap bands in both directions
//! (functions diverging *or* collapsing into one ranking), winning-
//! context agreement, separability uniformity, and median-score shift.
//!
//! Every series name below is a `'static` literal so the
//! `span-coverage` lint can anchor the names in
//! `results/quality_baseline.json` to the source.

use crate::slo::SloStatus;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Fixed-point scale of the run accumulators: a ratio in [0, 1] is
/// summed as `(ratio * RATIO_SCALE).round() as u64`, so sums are exact
/// and independent of the order events arrive in.
pub const RATIO_SCALE: u64 = 1_000_000;

/// Separability ranges of every score sketch (the paper's 10 equal
/// score ranges, Figs 5.4–5.7).
pub const SKETCH_BINS: usize = 10;

/// Pairwise top-k% overlap series between prestige-function rankings.
pub const OVERLAP_CITATION_TEXT: &str = "quality.overlap.citation_text";
/// See [`OVERLAP_CITATION_TEXT`].
pub const OVERLAP_CITATION_PATTERN: &str = "quality.overlap.citation_pattern";
/// See [`OVERLAP_CITATION_TEXT`].
pub const OVERLAP_TEXT_PATTERN: &str = "quality.overlap.text_pattern";
/// Winning-context agreement: the share of sampled queries where every
/// function picks the same winning context.
pub const AGREEMENT: &str = "quality.agreement";
/// Top1−top2 relevancy margin series, one per prestige function.
pub const MARGIN_CITATION: &str = "quality.margin.citation";
/// See [`MARGIN_CITATION`].
pub const MARGIN_TEXT: &str = "quality.margin.text";
/// See [`MARGIN_CITATION`].
pub const MARGIN_PATTERN: &str = "quality.margin.pattern";
/// Separability-sketch identifiers: they name the per-function score
/// sketches in summaries, baselines, and reports.
pub const SEPARABILITY_CITATION: &str = "quality.separability.citation";
/// See [`SEPARABILITY_CITATION`].
pub const SEPARABILITY_TEXT: &str = "quality.separability.text";
/// See [`SEPARABILITY_CITATION`].
pub const SEPARABILITY_PATTERN: &str = "quality.separability.pattern";
/// Span name the shadow evaluator runs under (off the serve path).
pub const SHADOW_EVAL_SPAN: &str = "quality.shadow_eval";

/// Every quality series/sketch name, in report order.
pub fn all_series() -> [&'static str; 10] {
    [
        OVERLAP_CITATION_TEXT,
        OVERLAP_CITATION_PATTERN,
        OVERLAP_TEXT_PATTERN,
        AGREEMENT,
        MARGIN_CITATION,
        MARGIN_TEXT,
        MARGIN_PATTERN,
        SEPARABILITY_CITATION,
        SEPARABILITY_TEXT,
        SEPARABILITY_PATTERN,
    ]
}

/// The overlap series for a pair of prestige-function names
/// (order-insensitive); `None` for unknown names.
pub fn overlap_series(a: &str, b: &str) -> Option<&'static str> {
    match (a, b) {
        ("citation", "text") | ("text", "citation") => Some(OVERLAP_CITATION_TEXT),
        ("citation", "pattern") | ("pattern", "citation") => Some(OVERLAP_CITATION_PATTERN),
        ("text", "pattern") | ("pattern", "text") => Some(OVERLAP_TEXT_PATTERN),
        _ => None,
    }
}

/// The margin series for one prestige-function name.
pub fn margin_series(function: &str) -> Option<&'static str> {
    match function {
        "citation" => Some(MARGIN_CITATION),
        "text" => Some(MARGIN_TEXT),
        "pattern" => Some(MARGIN_PATTERN),
        _ => None,
    }
}

/// The separability-sketch name for one prestige-function name.
pub fn separability_series(function: &str) -> Option<&'static str> {
    match function {
        "citation" => Some(SEPARABILITY_CITATION),
        "text" => Some(SEPARABILITY_TEXT),
        "pattern" => Some(SEPARABILITY_PATTERN),
        _ => None,
    }
}

fn scale_ratio(r: f64) -> u64 {
    (r.clamp(0.0, 1.0) * RATIO_SCALE as f64).round() as u64
}

fn unscale(sum_scaled: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        (sum_scaled as f64 / RATIO_SCALE as f64) / count as f64
    }
}

/// One shadow-scored query, as emitted by the core crate's shadow
/// evaluator. Function names are the `ScoreFunction::name()` literals
/// (`"citation"` / `"text"` / `"pattern"`); the obs crate stays
/// ignorant of core types.
#[derive(Debug, Clone)]
pub struct QualityEvent {
    /// Pairwise top-k% overlap between function rankings.
    pub overlaps: Vec<(&'static str, &'static str, f64)>,
    /// Did every evaluated function pick the same winning context?
    /// `None` when fewer than two functions produced results.
    pub agreement: Option<bool>,
    /// Per-function top1−top2 relevancy margin, clamped to [0, 1].
    pub margins: Vec<(&'static str, f64)>,
    /// Per-function normalized prestige scores of the winning context
    /// (feeds the separability sketches).
    pub scores: Vec<(&'static str, Vec<f64>)>,
}

/// Sketch of one score distribution over [0, 1]: [`SKETCH_BINS`] bin
/// counts (the separability statistic's input), a fixed-point sum for
/// the mean, and min/max. Everything derivable from it is independent
/// of push order.
#[derive(Debug, Clone)]
pub struct ScoreSketch {
    bins: [u64; SKETCH_BINS],
    sum_scaled: u64,
    min: f64,
    max: f64,
}

impl Default for ScoreSketch {
    fn default() -> Self {
        Self {
            bins: [0; SKETCH_BINS],
            sum_scaled: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl ScoreSketch {
    /// Add one score (clamped to [0, 1]).
    pub fn push(&mut self, score: f64) {
        let s = score.clamp(0.0, 1.0);
        self.bins[eval::separability_bin(s, SKETCH_BINS)] += 1;
        self.sum_scaled += scale_ratio(s);
        self.min = self.min.min(s);
        self.max = self.max.max(s);
    }

    /// Scores observed.
    pub fn count(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Mean score (0 when empty), from the fixed-point sum.
    pub fn mean(&self) -> f64 {
        unscale(self.sum_scaled, self.count())
    }

    /// Smallest score observed (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest score observed (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The paper's separability SD over everything pushed.
    pub fn separability_sd(&self) -> f64 {
        eval::separability_sd_of_counts(&self.bins)
    }

    /// Bin-midpoint quantile: the midpoint of the bin holding the
    /// `ceil(q·count)`-th score. Coarse (bin-width resolution) but
    /// exactly reproducible from counts alone.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let n_bins = SKETCH_BINS as f64;
        let mut seen = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (i as f64 + 0.5) / n_bins;
            }
        }
        (n_bins - 0.5) / n_bins
    }

    /// Raw bin counts (ascending score ranges).
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }
}

/// Fixed-point mean accumulator for one ratio series.
#[derive(Debug, Default, Clone)]
struct RatioAcc {
    count: u64,
    sum_scaled: u64,
}

impl RatioAcc {
    fn push(&mut self, r: f64) {
        self.count += 1;
        self.sum_scaled += scale_ratio(r);
    }

    fn mean(&self) -> f64 {
        unscale(self.sum_scaled, self.count)
    }
}

#[derive(Debug, Default)]
struct AggState {
    events: u64,
    agree_true: u64,
    agree_total: u64,
    overlaps: BTreeMap<&'static str, RatioAcc>,
    margins: BTreeMap<&'static str, RatioAcc>,
    sketches: BTreeMap<&'static str, ScoreSketch>,
}

/// Folds [`QualityEvent`]s into order-independent run accumulators.
/// One instance is shared between the shadow worker (writer) and report
/// builders (readers); all state is commutative, so any arrival
/// interleaving yields the same summary.
#[derive(Default)]
pub struct QualityAggregator {
    state: Mutex<AggState>,
    dropped: AtomicU64,
}

impl QualityAggregator {
    /// An empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one event in.
    pub fn record(&self, event: &QualityEvent) {
        let mut state = self.state.lock();
        state.events += 1;
        for &(a, b, v) in &event.overlaps {
            if let Some(series) = overlap_series(a, b) {
                state.overlaps.entry(series).or_default().push(v);
            }
        }
        if let Some(agree) = event.agreement {
            state.agree_total += 1;
            if agree {
                state.agree_true += 1;
            }
        }
        for &(function, m) in &event.margins {
            if let Some(series) = margin_series(function) {
                state.margins.entry(series).or_default().push(m);
            }
        }
        for (function, scores) in &event.scores {
            if let Some(series) = separability_series(function) {
                let sketch = state.sketches.entry(series).or_default();
                for &s in scores {
                    sketch.push(s);
                }
            }
        }
    }

    /// Count shadow submissions dropped before evaluation (bounded
    /// queue full). Recorded by the shadow, surfaced in the summary.
    pub fn add_dropped(&self, n: u64) {
        self.dropped.fetch_add(n, Ordering::Relaxed);
    }

    /// The run-level summary of every event so far.
    pub fn summary(&self) -> QualitySummary {
        let state = self.state.lock();
        let overlaps = state
            .overlaps
            .iter()
            .map(|(series, acc)| SeriesMean {
                series: series.to_string(),
                count: acc.count,
                mean: acc.mean(),
            })
            .collect();
        let margins = state
            .margins
            .iter()
            .map(|(series, acc)| SeriesMean {
                series: series.to_string(),
                count: acc.count,
                mean: acc.mean(),
            })
            .collect();
        let functions = state
            .sketches
            .iter()
            .map(|(series, sketch)| FunctionScores {
                series: series.to_string(),
                count: sketch.count(),
                mean: sketch.mean(),
                min: sketch.min(),
                max: sketch.max(),
                p10: sketch.quantile(0.10),
                p50: sketch.quantile(0.50),
                p90: sketch.quantile(0.90),
                separability_sd: sketch.separability_sd(),
                bins: sketch.bins().to_vec(),
            })
            .collect();
        QualitySummary {
            sampled: state.events,
            dropped: self.dropped.load(Ordering::Relaxed),
            agreement_count: state.agree_total,
            agreement_rate: if state.agree_total == 0 {
                0.0
            } else {
                state.agree_true as f64 / state.agree_total as f64
            },
            overlaps,
            margins,
            functions,
        }
    }
}

/// Count + mean of one ratio series over the whole run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeriesMean {
    /// Series name.
    pub series: String,
    /// Observations.
    pub count: u64,
    /// Mean ratio in [0, 1].
    pub mean: f64,
}

/// Run-level score-distribution digest for one prestige function.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FunctionScores {
    /// Sketch name (`quality.separability.<function>`).
    pub series: String,
    /// Scores observed.
    pub count: u64,
    /// Mean score.
    pub mean: f64,
    /// Smallest score.
    pub min: f64,
    /// Largest score.
    pub max: f64,
    /// 10th-percentile score (bin midpoint).
    pub p10: f64,
    /// Median score (bin midpoint).
    pub p50: f64,
    /// 90th-percentile score (bin midpoint).
    pub p90: f64,
    /// The paper's separability SD of the distribution.
    pub separability_sd: f64,
    /// Raw sketch bin counts.
    pub bins: Vec<u64>,
}

/// Everything the drift checks and reports consume: order-independent
/// run aggregates of every quality signal.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QualitySummary {
    /// Shadow-scored queries aggregated, those no function answered
    /// included.
    pub sampled: u64,
    /// Shadow submissions dropped (queue full) before evaluation.
    pub dropped: u64,
    /// Events that carried an agreement verdict.
    pub agreement_count: u64,
    /// Fraction of those where every function picked the same winning
    /// context.
    pub agreement_rate: f64,
    /// Pairwise overlap series, report order.
    pub overlaps: Vec<SeriesMean>,
    /// Margin series, report order.
    pub margins: Vec<SeriesMean>,
    /// Per-function score digests, report order.
    pub functions: Vec<FunctionScores>,
}

impl QualitySummary {
    fn overlap(&self, series: &str) -> Option<&SeriesMean> {
        self.overlaps.iter().find(|o| o.series == series)
    }

    fn function(&self, series: &str) -> Option<&FunctionScores> {
        self.functions.iter().find(|f| f.series == series)
    }
}

/// Acceptable band for one overlap series: drift is flagged when the
/// observed mean leaves `[min, max]` by more than the warn/critical
/// slack — functions diverging (below) or collapsing into one ranking
/// (above) are both anomalies.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverlapBand {
    /// The overlap series this bounds.
    pub series: String,
    /// Warn when the mean drops below this.
    pub min_warn: f64,
    /// Critical when the mean drops below this.
    pub min_critical: f64,
    /// Warn when the mean rises above this.
    pub max_warn: f64,
    /// Critical when the mean rises above this.
    pub max_critical: f64,
}

/// Separability bound for one function's score distribution: SD above
/// the bound means scores piled into few bins (the citation function's
/// failure mode in the paper).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeparabilityBound {
    /// The sketch this bounds (`quality.separability.<function>`).
    pub series: String,
    /// Warn when SD exceeds this.
    pub max_sd_warn: f64,
    /// Critical when SD exceeds this.
    pub max_sd_critical: f64,
}

/// Median-shift bound for one function's score distribution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantileBand {
    /// The sketch this bounds (`quality.separability.<function>`).
    pub series: String,
    /// The healthy run's median score.
    pub baseline_p50: f64,
    /// Warn when `|p50 − baseline|` exceeds this.
    pub warn_shift: f64,
    /// Critical when `|p50 − baseline|` exceeds this.
    pub critical_shift: f64,
}

/// Magic marker of a quality baseline document.
pub const BASELINE_MAGIC: &str = "litsearch-quality-baseline";
/// Current baseline schema version.
pub const BASELINE_VERSION: u32 = 1;

/// The checked-in drift reference (`results/quality_baseline.json`):
/// bands derived from a healthy deterministic run, plus the full
/// quality series list (anchored to source literals by the
/// `span-coverage` lint so renames cannot silently detach the gate).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QualityBaseline {
    /// Must equal [`BASELINE_MAGIC`].
    pub magic: String,
    /// Must equal [`BASELINE_VERSION`].
    pub version: u32,
    /// Every quality series/sketch name the layer emits.
    pub series: Vec<String>,
    /// Sketch bin count the bands assume.
    pub n_bins: usize,
    /// Below this many sampled events the drift verdict is a lone
    /// Warn ("insufficient samples") and no band is judged.
    pub min_sampled: u64,
    /// Warn when winning-context agreement drops below this.
    pub agreement_min_warn: f64,
    /// Critical when winning-context agreement drops below this.
    pub agreement_min_critical: f64,
    /// Per-pair overlap bands.
    pub overlap: Vec<OverlapBand>,
    /// Per-function separability bounds.
    pub separability: Vec<SeparabilityBound>,
    /// Per-function median-shift bands.
    pub score_p50: Vec<QuantileBand>,
}

// Slacks of a baseline derived from a healthy run: overlap bands
// around the observed mean, agreement floors below the observed rate,
// separability-SD ceilings above the observed SD, median-shift
// tolerances, and the sample count below which a run is not judged.
const OVERLAP_WARN: f64 = 0.10;
const OVERLAP_CRITICAL: f64 = 0.20;
const AGREEMENT_WARN: f64 = 0.10;
const AGREEMENT_CRITICAL: f64 = 0.25;
const SEPARABILITY_WARN: f64 = 2.0;
const SEPARABILITY_CRITICAL: f64 = 5.0;
const P50_WARN: f64 = 0.10;
const P50_CRITICAL: f64 = 0.20;
const MIN_SAMPLED: u64 = 8;

impl QualityBaseline {
    /// Derive a baseline from a healthy run's summary.
    pub fn from_summary(summary: &QualitySummary) -> Self {
        let overlap = summary
            .overlaps
            .iter()
            .map(|o| OverlapBand {
                series: o.series.clone(),
                min_warn: (o.mean - OVERLAP_WARN).max(0.0),
                min_critical: (o.mean - OVERLAP_CRITICAL).max(0.0),
                max_warn: (o.mean + OVERLAP_WARN).min(1.0),
                max_critical: (o.mean + OVERLAP_CRITICAL).min(1.0),
            })
            .collect();
        let separability = summary
            .functions
            .iter()
            .map(|f| SeparabilityBound {
                series: f.series.clone(),
                max_sd_warn: f.separability_sd + SEPARABILITY_WARN,
                max_sd_critical: f.separability_sd + SEPARABILITY_CRITICAL,
            })
            .collect();
        let score_p50 = summary
            .functions
            .iter()
            .map(|f| QuantileBand {
                series: f.series.clone(),
                baseline_p50: f.p50,
                warn_shift: P50_WARN,
                critical_shift: P50_CRITICAL,
            })
            .collect();
        Self {
            magic: BASELINE_MAGIC.to_string(),
            version: BASELINE_VERSION,
            series: all_series().iter().map(|s| s.to_string()).collect(),
            n_bins: SKETCH_BINS,
            min_sampled: MIN_SAMPLED,
            agreement_min_warn: (summary.agreement_rate - AGREEMENT_WARN).max(0.0),
            agreement_min_critical: (summary.agreement_rate - AGREEMENT_CRITICAL).max(0.0),
            overlap,
            separability,
            score_p50,
        }
    }

    /// Parse and validate a baseline document.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let baseline: QualityBaseline =
            serde_json::from_str(text).map_err(|e| format!("quality baseline: {e}"))?;
        if baseline.magic != BASELINE_MAGIC {
            return Err(format!(
                "quality baseline has magic {:?}, expected {BASELINE_MAGIC:?}",
                baseline.magic
            ));
        }
        if baseline.version != BASELINE_VERSION {
            return Err(format!(
                "quality baseline is version {}, expected {BASELINE_VERSION}",
                baseline.version
            ));
        }
        Ok(baseline)
    }

    /// Pretty JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("quality baseline serializes")
    }

    /// Judge a summary against the bands. Insufficient samples produce
    /// a single Warn check; a band whose series is missing from the
    /// summary is a Critical check (the signal silently disappeared —
    /// exactly what a drift gate must catch).
    pub fn evaluate(&self, summary: &QualitySummary) -> QualityDriftReport {
        let mut checks = Vec::new();
        if summary.sampled < self.min_sampled {
            checks.push(DriftCheck {
                name: "sample-size".to_string(),
                subject: "sampled".to_string(),
                observed: summary.sampled as f64,
                bound: format!(">= {}", self.min_sampled),
                status: SloStatus::Warn,
            });
            let status = worst_of(&checks);
            return QualityDriftReport { checks, status };
        }
        for band in &self.overlap {
            match summary.overlap(&band.series) {
                None => checks.push(missing(&band.series, "overlap")),
                Some(o) => {
                    let status = if o.mean < band.min_critical || o.mean > band.max_critical {
                        SloStatus::Critical
                    } else if o.mean < band.min_warn || o.mean > band.max_warn {
                        SloStatus::Warn
                    } else {
                        SloStatus::Ok
                    };
                    checks.push(DriftCheck {
                        name: "overlap-band".to_string(),
                        subject: band.series.clone(),
                        observed: o.mean,
                        bound: format!(
                            "[{:.3}, {:.3}] warn / [{:.3}, {:.3}] critical",
                            band.min_warn, band.max_warn, band.min_critical, band.max_critical
                        ),
                        status,
                    });
                }
            }
        }
        {
            // No agreement samples means the signal vanished entirely.
            let status = if summary.agreement_count == 0
                || summary.agreement_rate < self.agreement_min_critical
            {
                SloStatus::Critical
            } else if summary.agreement_rate < self.agreement_min_warn {
                SloStatus::Warn
            } else {
                SloStatus::Ok
            };
            checks.push(DriftCheck {
                name: "agreement".to_string(),
                subject: AGREEMENT.to_string(),
                observed: summary.agreement_rate,
                bound: format!(
                    ">= {:.3} warn / >= {:.3} critical",
                    self.agreement_min_warn, self.agreement_min_critical
                ),
                status,
            });
        }
        for bound in &self.separability {
            match summary.function(&bound.series) {
                None => checks.push(missing(&bound.series, "separability")),
                Some(f) => {
                    let status = if f.separability_sd > bound.max_sd_critical {
                        SloStatus::Critical
                    } else if f.separability_sd > bound.max_sd_warn {
                        SloStatus::Warn
                    } else {
                        SloStatus::Ok
                    };
                    checks.push(DriftCheck {
                        name: "separability".to_string(),
                        subject: bound.series.clone(),
                        observed: f.separability_sd,
                        bound: format!(
                            "<= {:.2} warn / <= {:.2} critical",
                            bound.max_sd_warn, bound.max_sd_critical
                        ),
                        status,
                    });
                }
            }
        }
        for band in &self.score_p50 {
            match summary.function(&band.series) {
                None => checks.push(missing(&band.series, "score-p50")),
                Some(f) => {
                    let shift = (f.p50 - band.baseline_p50).abs();
                    let status = if shift > band.critical_shift {
                        SloStatus::Critical
                    } else if shift > band.warn_shift {
                        SloStatus::Warn
                    } else {
                        SloStatus::Ok
                    };
                    checks.push(DriftCheck {
                        name: "score-p50-shift".to_string(),
                        subject: band.series.clone(),
                        observed: shift,
                        bound: format!(
                            "<= {:.3} warn / <= {:.3} critical (baseline p50 {:.3})",
                            band.warn_shift, band.critical_shift, band.baseline_p50
                        ),
                        status,
                    });
                }
            }
        }
        let status = worst_of(&checks);
        QualityDriftReport { checks, status }
    }
}

fn missing(series: &str, kind: &str) -> DriftCheck {
    DriftCheck {
        name: format!("{kind}-missing"),
        subject: series.to_string(),
        observed: 0.0,
        bound: "series present in summary".to_string(),
        status: SloStatus::Critical,
    }
}

fn worst_of(checks: &[DriftCheck]) -> SloStatus {
    checks
        .iter()
        .map(|c| c.status)
        .max()
        .unwrap_or(SloStatus::Ok)
}

fn status_name(s: SloStatus) -> &'static str {
    match s {
        SloStatus::Ok => "ok",
        SloStatus::Warn => "warn",
        SloStatus::Critical => "critical",
    }
}

/// One drift judgment.
#[derive(Debug, Clone)]
pub struct DriftCheck {
    /// Check kind (`overlap-band`, `agreement`, `separability`,
    /// `score-p50-shift`, `sample-size`, `*-missing`).
    pub name: String,
    /// The series/sketch judged.
    pub subject: String,
    /// The observed statistic.
    pub observed: f64,
    /// Human-readable bound description.
    pub bound: String,
    /// Verdict.
    pub status: SloStatus,
}

/// Every drift check from one evaluation, plus the worst verdict.
#[derive(Debug, Clone)]
pub struct QualityDriftReport {
    /// One entry per band, baseline order.
    pub checks: Vec<DriftCheck>,
    /// Worst verdict across checks.
    pub status: SloStatus,
}

impl QualityDriftReport {
    /// True when any check is critical — the `--fail-on-drift` signal.
    pub fn has_hard_violation(&self) -> bool {
        self.status == SloStatus::Critical
    }

    /// JSON object form, field order fixed.
    pub fn to_value(&self) -> Value {
        let checks: Vec<Value> = self
            .checks
            .iter()
            .map(|c| {
                Value::Map(vec![
                    ("name".to_string(), Value::Str(c.name.clone())),
                    ("subject".to_string(), Value::Str(c.subject.clone())),
                    ("observed".to_string(), Value::Float(c.observed)),
                    ("bound".to_string(), Value::Str(c.bound.clone())),
                    (
                        "status".to_string(),
                        Value::Str(status_name(c.status).to_string()),
                    ),
                ])
            })
            .collect();
        Value::Map(vec![
            (
                "status".to_string(),
                Value::Str(status_name(self.status).to_string()),
            ),
            ("checks".to_string(), Value::Seq(checks)),
        ])
    }
}

/// Summary + optional drift verdict, rendered as JSON or markdown —
/// the payload of `litsearch quality --report`, of a server's
/// `/quality`, and of `litsearch top --quality N`'s panel.
#[derive(Debug, Clone)]
pub struct QualityReport {
    /// The run-level aggregates.
    pub summary: QualitySummary,
    /// Drift verdict, when a baseline was supplied.
    pub drift: Option<QualityDriftReport>,
}

impl QualityReport {
    /// JSON object form, field order fixed.
    pub fn to_value(&self) -> Value {
        let s = &self.summary;
        let overlaps: Vec<Value> = s.overlaps.iter().map(series_mean_value).collect();
        let margins: Vec<Value> = s.margins.iter().map(series_mean_value).collect();
        let functions: Vec<Value> = s
            .functions
            .iter()
            .map(|f| {
                Value::Map(vec![
                    ("series".to_string(), Value::Str(f.series.clone())),
                    ("count".to_string(), Value::UInt(f.count)),
                    ("mean".to_string(), Value::Float(f.mean)),
                    ("min".to_string(), Value::Float(f.min)),
                    ("max".to_string(), Value::Float(f.max)),
                    ("p10".to_string(), Value::Float(f.p10)),
                    ("p50".to_string(), Value::Float(f.p50)),
                    ("p90".to_string(), Value::Float(f.p90)),
                    (
                        "separability_sd".to_string(),
                        Value::Float(f.separability_sd),
                    ),
                    (
                        "bins".to_string(),
                        Value::Seq(f.bins.iter().map(|&b| Value::UInt(b)).collect()),
                    ),
                ])
            })
            .collect();
        let mut fields = vec![
            ("sampled".to_string(), Value::UInt(s.sampled)),
            ("dropped".to_string(), Value::UInt(s.dropped)),
            (
                "agreement_count".to_string(),
                Value::UInt(s.agreement_count),
            ),
            ("agreement_rate".to_string(), Value::Float(s.agreement_rate)),
            ("overlaps".to_string(), Value::Seq(overlaps)),
            ("margins".to_string(), Value::Seq(margins)),
            ("functions".to_string(), Value::Seq(functions)),
        ];
        if let Some(drift) = &self.drift {
            fields.push(("drift".to_string(), drift.to_value()));
        }
        Value::Map(fields)
    }

    /// Pretty JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("quality report serializes")
    }

    /// Markdown report: sampling, overlap/margin tables, per-function
    /// score digests, and the drift verdict table.
    pub fn to_markdown(&self) -> String {
        let s = &self.summary;
        let mut out = String::from("# Ranking-quality report\n\n");
        out.push_str(&format!(
            "sampled: {} shadow-scored queries ({} dropped)\n\n",
            s.sampled, s.dropped
        ));
        out.push_str(&format!(
            "winning-context agreement: **{:.1}%** over {} queries\n\n",
            100.0 * s.agreement_rate,
            s.agreement_count
        ));
        out.push_str(
            "## Pairwise top-k% overlap\n\n| pair | queries | mean overlap |\n|---|---:|---:|\n",
        );
        for o in &s.overlaps {
            out.push_str(&format!("| {} | {} | {:.4} |\n", o.series, o.count, o.mean));
        }
        out.push_str("\n## Score margins (top1 − top2)\n\n| function | queries | mean margin |\n|---|---:|---:|\n");
        for m in &s.margins {
            out.push_str(&format!("| {} | {} | {:.4} |\n", m.series, m.count, m.mean));
        }
        out.push_str("\n## Score distributions\n\n| function | scores | mean | p10 | p50 | p90 | separability SD |\n|---|---:|---:|---:|---:|---:|---:|\n");
        for f in &s.functions {
            out.push_str(&format!(
                "| {} | {} | {:.4} | {:.3} | {:.3} | {:.3} | {:.2} |\n",
                f.series, f.count, f.mean, f.p10, f.p50, f.p90, f.separability_sd
            ));
        }
        if let Some(drift) = &self.drift {
            out.push_str(&format!(
                "\n## Drift vs baseline\n\nverdict: **{}**\n\n| check | subject | observed | bound | status |\n|---|---|---:|---|---|\n",
                status_name(drift.status)
            ));
            for c in &drift.checks {
                out.push_str(&format!(
                    "| {} | {} | {:.4} | {} | {} |\n",
                    c.name,
                    c.subject,
                    c.observed,
                    c.bound,
                    status_name(c.status)
                ));
            }
        }
        out
    }
}

fn series_mean_value(m: &SeriesMean) -> Value {
    Value::Map(vec![
        ("series".to_string(), Value::Str(m.series.clone())),
        ("count".to_string(), Value::UInt(m.count)),
        ("mean".to_string(), Value::Float(m.mean)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(agree: bool, overlap: f64) -> QualityEvent {
        QualityEvent {
            overlaps: vec![
                ("citation", "text", overlap),
                ("citation", "pattern", 0.5),
                ("text", "pattern", 0.75),
            ],
            agreement: Some(agree),
            margins: vec![("citation", 0.2), ("text", 0.1), ("pattern", 0.3)],
            scores: vec![
                ("citation", vec![0.05, 0.95]),
                ("text", vec![0.25, 0.75]),
                ("pattern", vec![0.45, 0.55]),
            ],
        }
    }

    fn aggregate(events: impl IntoIterator<Item = QualityEvent>) -> QualitySummary {
        let agg = QualityAggregator::new();
        for e in events {
            agg.record(&e);
        }
        agg.summary()
    }

    #[test]
    fn aggregator_folds_events_into_the_summary() {
        let summary = aggregate((0..10u64).map(|i| event(i % 5 != 0, 0.6)));
        assert_eq!(summary.sampled, 10);
        assert_eq!(summary.agreement_count, 10);
        assert!((summary.agreement_rate - 0.8).abs() < 1e-12);
        assert_eq!(summary.overlaps.len(), 3);
        assert!((summary.overlap(OVERLAP_CITATION_TEXT).unwrap().mean - 0.6).abs() < 1e-9);
        let citation = summary.function(SEPARABILITY_CITATION).unwrap();
        assert_eq!(citation.count, 20);
        assert!(citation.separability_sd > 0.0);
    }

    #[test]
    fn summary_is_arrival_order_independent() {
        let events: Vec<QualityEvent> = (0..20u64)
            .map(|i| event(i % 3 == 0, (i % 10) as f64 / 10.0))
            .collect();
        let a = aggregate(events.iter().cloned());
        let b = aggregate(events.into_iter().rev());
        // Byte-stable: the rendered reports agree exactly.
        let ra = QualityReport {
            summary: a,
            drift: None,
        };
        let rb = QualityReport {
            summary: b,
            drift: None,
        };
        assert_eq!(ra.to_json(), rb.to_json());
    }

    #[test]
    fn sketch_quantiles_come_from_bins() {
        let scores: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let mut sk = ScoreSketch::default();
        for &s in &scores {
            sk.push(s);
        }
        assert_eq!(sk.count(), 100);
        assert!((sk.quantile(0.5) - 0.45).abs() < 1e-12, "bin midpoint");
        assert!((sk.quantile(0.0) - 0.05).abs() < 1e-12);
        assert!((sk.quantile(1.0) - 0.95).abs() < 1e-12);
        assert!(sk.separability_sd() < 1e-9, "uniform scores separate");
        // The sketch's SD is the figures' statistic over the same scores.
        let skewed = [0.0, 0.05, 0.15, 0.15, 0.95, 1.0, 1.5, -0.5];
        let mut sk = ScoreSketch::default();
        for &s in &skewed {
            sk.push(s);
        }
        assert_eq!(
            sk.separability_sd().to_bits(),
            eval::separability_sd(&skewed, SKETCH_BINS).to_bits()
        );
    }

    #[test]
    fn baseline_round_trips_and_judges_itself_ok() {
        let summary = aggregate((0..10).map(|_| event(true, 0.6)));
        let baseline = QualityBaseline::from_summary(&summary);
        let parsed = QualityBaseline::from_json(&baseline.to_json()).unwrap();
        assert_eq!(parsed.series.len(), all_series().len());
        assert_eq!(parsed.n_bins, SKETCH_BINS);
        let report = parsed.evaluate(&summary);
        assert_eq!(report.status, SloStatus::Ok, "healthy run judges ok");
        assert!(!report.has_hard_violation());
    }

    #[test]
    fn drift_fires_on_overlap_collapse() {
        let healthy = aggregate((0..10).map(|_| event(true, 0.5)));
        let baseline = QualityBaseline::from_summary(&healthy);
        assert_eq!(baseline.evaluate(&healthy).status, SloStatus::Ok);

        // A second run where the functions collapse into one ranking:
        // overlap 1.0 blows past max_critical = 0.7.
        let drifted = baseline.evaluate(&aggregate((0..10).map(|_| event(true, 1.0))));
        assert_eq!(drifted.status, SloStatus::Critical);
        assert!(drifted.has_hard_violation());
        assert!(drifted
            .checks
            .iter()
            .any(|c| c.name == "overlap-band" && c.status == SloStatus::Critical));
    }

    #[test]
    fn missing_series_is_a_hard_violation() {
        let healthy = aggregate((0..10).map(|_| event(true, 0.5)));
        let baseline = QualityBaseline::from_summary(&healthy);
        // A summary that stopped carrying the citation sketch entirely.
        let mut gutted = healthy.clone();
        gutted
            .functions
            .retain(|f| f.series != SEPARABILITY_CITATION);
        let report = baseline.evaluate(&gutted);
        assert_eq!(report.status, SloStatus::Critical);
        assert!(report
            .checks
            .iter()
            .any(|c| c.name.ends_with("-missing") && c.subject == SEPARABILITY_CITATION));
    }

    #[test]
    fn too_few_samples_is_a_lone_warn() {
        let summary = aggregate([event(true, 0.5)]);
        let mut baseline = QualityBaseline::from_summary(&summary);
        baseline.min_sampled = 100;
        let report = baseline.evaluate(&summary);
        assert_eq!(report.status, SloStatus::Warn);
        assert_eq!(report.checks.len(), 1);
        assert_eq!(report.checks[0].name, "sample-size");
    }

    #[test]
    fn bad_baseline_documents_are_rejected() {
        assert!(QualityBaseline::from_json("{").is_err());
        let baseline = QualityBaseline::from_summary(&QualityAggregator::new().summary());
        let mut wrong_magic = baseline.clone();
        wrong_magic.magic = "something-else".to_string();
        assert!(QualityBaseline::from_json(&wrong_magic.to_json())
            .unwrap_err()
            .contains("magic"));
        let mut wrong_version = baseline;
        wrong_version.version = 99;
        assert!(QualityBaseline::from_json(&wrong_version.to_json())
            .unwrap_err()
            .contains("version"));
    }
}
