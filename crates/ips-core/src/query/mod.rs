//! The inline feature-computation engine (§II-B read APIs).
//!
//! Query processing follows the paper's two steps: first locate the slices
//! overlapping the resolved time range, then merge and aggregate all features
//! under the requested slot (optionally narrowed to one action type) in one
//! fold over the window's runs into a feature-id table, decaying per slice,
//! and finish with a filter or a top-K selection on precomputed sort keys.

pub mod engine;
pub(crate) mod merge;
pub mod request;
pub mod topk;
pub mod udaf;

pub use engine::{execute, merged_features};
pub use request::{FeatureEntry, FilterPredicate, ProfileQuery, QueryKind, QueryResult};
pub use topk::top_k_by;
pub use udaf::{execute_udaf, execute_udaf_top_k, UserDefinedAggregate};
