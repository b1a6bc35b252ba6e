//! Data repository substrate for the TER-iDS reproduction.
//!
//! The paper assumes a static, complete data repository `R` "collected or
//! inferred from historical stream data" that powers the CDD-based
//! imputation (§2.2/§3). This crate provides:
//!
//! * [`Schema`] / [`Record`] — the `d`-attribute textual tuple model shared
//!   by the repository and the streams (missing attributes are `None`,
//!   printed as "−" in the paper);
//! * [`Repository`] — the complete sample store with per-attribute value
//!   domains `dom(A_j)` and support for the dynamic-update extension of
//!   §5.5;
//! * [`pivot`] — the cost-model-based pivot selection of §5.4/Appendix B
//!   (Shannon-entropy quality measure, `P` buckets, `eMin`, `cntMax`,
//!   main + auxiliary pivots);
//! * [`DrIndex`] — the DR-index `I_R` of §5.1, kept as exact inverted
//!   postings per attribute (domain value → samples, token → domain
//!   values) instead of the paper's aR-tree over pivot distances: on this
//!   repository's data most values sit at distance exactly 1 from every
//!   pivot, so the pivot space cannot prune (see [`drindex`]).

pub mod drindex;
pub mod pivot;
pub mod record;
pub mod repository;

pub use drindex::DrIndex;
pub use pivot::{AttributePivots, PivotConfig, PivotTable};
pub use record::{Record, RecordId, Schema};
pub use repository::Repository;
