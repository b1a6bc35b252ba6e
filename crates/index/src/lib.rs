//! Index substrate for the TER-iDS reproduction.
//!
//! §5 of the paper builds three structures on top of the same machinery:
//! the CDD-index `I_j` (aR-trees under a lattice of combined rules), the
//! DR-index `I_R` (an aR-tree over pivot-converted repository points), and
//! the ER-grid `G_ER` (a grid synopsis over pivot-converted stream tuples).
//! This reproduction keeps `I_R` as inverted postings instead (see
//! `ter_repo::drindex`) and `G_ER` as per-stream token-signature lists
//! (see `ter_ids::candidates`), so only `I_j` is built from here.
//!
//! This crate provides the generic building blocks:
//!
//! * [`Aggregate`] — merge-able node summaries (topic bit vectors, distance
//!   intervals, token-size intervals, …);
//! * [`ArTree`] — an aggregate R-tree ([Lazaridis & Mehrotra, SIGMOD'01],
//!   reference \[20\] of the paper) with STR bulk loading, incremental
//!   insert/delete, and pruning traversal driven by node aggregates.
//!
//! The TER-iDS-specific aggregate contents live in the crate that owns
//! the semantics (`ter-rules` for the CDD-index).

pub mod artree;
pub mod rect;

pub use artree::{ArTree, Entry};
pub use rect::Rect;

/// A merge-able aggregate summary.
///
/// Inner aR-tree nodes carry the merge of the aggregates of everything
/// beneath them; pruning rules inspect the merged summary to discard whole
/// subtrees before touching entries.
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
