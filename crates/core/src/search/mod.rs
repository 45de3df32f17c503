//! Query-time machinery: context selection, relevancy scoring, and the
//! lock-free serving handle.

pub(crate) mod exec;
pub mod explain;
pub mod gopubmed;
pub mod related;
pub mod relevancy;
pub(crate) mod scratch;
pub mod select;
pub mod serve;
pub mod shadow;

pub use exec::{QueryStats, SearchResult};
pub use relevancy::relevancy;
pub use select::select_contexts;
pub use serve::{Searcher, ServeError};
pub use shadow::{shadow_evaluate, QualityShadow, ShadowConfig, SHADOW_FUNCTIONS};
