//! Context assignment: building the two §4 context paper sets.
//!
//! * [`text`] — the *text-based context paper set*: each context with
//!   annotation evidence gets a representative paper; papers
//!   sufficiently similar to the representative join the context.
//! * [`pattern`] — the *pattern-based context paper set*: the
//!   simplified pattern technique (middle tuples only), descendant
//!   aggregation, and the closest-ancestor fallback for empty contexts
//!   (whose scores later decay by `RateOfDecay`).
//!
//! Both builders also expose [`patterns_by_context`], the per-context
//! scored pattern sets shared between assignment and the pattern-based
//! prestige function.

pub mod pattern;
pub mod text;

pub use pattern::{build_pattern_sets, patterns_by_context, ContextPatterns, PhraseHit};
pub use text::build_text_sets;
