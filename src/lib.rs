//! Umbrella crate for the TER-iDS reproduction workspace.
//!
//! The implementation lives in the `crates/` members; this root package
//! exists to host the workspace-level integration tests (`tests/`) and
//! runnable examples (`examples/`), and re-exports every member so docs
//! for the whole system build from one place.

pub use ter_datasets as datasets;
pub use ter_ids as core;
pub use ter_impute as impute;
pub use ter_repo as repo;
pub use ter_rules as rules;
pub use ter_stream as stream;
pub use ter_text as text;
pub use ter_topics as topics;
