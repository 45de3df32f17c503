//! Evaluation methodology of the paper (§2, §5): accuracy and
//! separability of prestige score functions.
//!
//! * [`mod@precision`] — precision of thresholded result sets against a
//!   ground-truth answer set, with average/median curves over queries
//!   and thresholds (Figs 5.1, 5.2),
//! * [`overlap`] — the top-k(%) overlapping ratio between two score
//!   functions, with the paper's tie-handling rule (Fig 5.3),
//! * [`separability`] — the score-distribution standard-deviation
//!   statistic and SD histograms (Figs 5.4–5.7),
//! * [`stats`] — small numeric helpers (mean, median),
//! * [`report`] — table rendering for harness output (markdown + JSON).
//!
//! The live shadow scorer (`obs::quality`, `context_search::shadow`)
//! computes its overlap and separability with these same functions:
//! [`separability_sd`] is a binning step ([`separability_bin`]) and the
//! SD of the bin counts ([`separability_sd_of_counts`]), so a sketch
//! that keeps only bin counts gets the figures' statistic bit for bit.

pub mod overlap;
pub mod precision;
pub mod report;
pub mod separability;
pub mod stats;

pub use overlap::{top_k_overlap, top_k_percent_overlap};
pub use precision::{f1, precision, precision_curve, recall, PrecisionCurves};
pub use separability::{
    sd_histogram, separability_bin, separability_sd, separability_sd_of_counts,
};
pub use stats::{mean, median};
