//! Index substrate for the TER-iDS reproduction.
//!
//! §5 of the paper builds three structures on top of the same machinery:
//! the CDD-index `I_j` (aR-trees under a lattice of combined rules), the
//! DR-index `I_R` (an aR-tree over pivot-converted repository points), and
//! the ER-grid `G_ER` (a grid synopsis over pivot-converted stream tuples).
//! This reproduction keeps `I_R` as inverted postings instead (see
//! `ter_repo::drindex`), so only `I_j` and `G_ER` are built from here.
//!
//! This crate provides the generic building blocks:
//!
//! * [`Aggregate`] — merge-able node summaries (topic bit vectors, distance
//!   intervals, token-size intervals, …);
//! * [`ArTree`] — an aggregate R-tree ([Lazaridis & Mehrotra, SIGMOD'01],
//!   reference \[20\] of the paper) with STR bulk loading, incremental
//!   insert/delete, and pruning traversal driven by node aggregates;
//! * [`Grid`] — an equi-width grid over `[0,1]^d` whose cells are FIFOs
//!   with two-stack sliding aggregates: O(1) insert and amortized O(1)
//!   expiry of a cell's oldest entry, the backbone of the ER-grid.
//!
//! The TER-iDS-specific aggregate contents live in the crates that own the
//! semantics (`ter-rules` for the CDD-index, `ter-ids` for the ER-grid).

pub mod artree;
pub mod grid;
pub mod rect;

pub use artree::{ArTree, Entry};
pub use grid::{CellKey, Grid, RegionGrid};
pub use rect::Rect;

/// A merge-able aggregate summary.
///
/// Inner aR-tree nodes and grid cells carry the merge of the aggregates of
/// everything beneath them; pruning rules inspect the merged summary to
/// discard whole subtrees/cells (Theorems 4.1–4.3 all operate on such
/// summaries before touching tuples).
pub trait Aggregate: Clone {
    /// Folds `other` into `self`. Must be commutative and associative so
    /// that node summaries are independent of insertion order.
    fn merge(&mut self, other: &Self);
}

/// Unit aggregate for plain R-tree usage (tests, simple indexes).
impl Aggregate for () {
    fn merge(&mut self, _other: &Self) {}
}

#[cfg(test)]
mod proptests;
