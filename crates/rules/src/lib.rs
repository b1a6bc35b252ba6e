//! Dependency rules for imputation: DDs, CDDs, editing rules (§2.2, §3).
//!
//! A conditional differential dependency (CDD, Definition 3) has the form
//! `(X → A_j, φ[X A_j])`: if two tuples satisfy every determinant
//! constraint `φ[A_x]` (a distance interval `[ε.min, ε.max]` or a shared
//! constant value `v`), their dependent-attribute distance must fall in
//! `A_j.I`. CDDs generalize both differential dependencies (all-interval
//! constraints, reference \[35\]) and editing rules (constant constraints
//! with an exact-copy dependent, reference \[12\]).
//!
//! This crate provides:
//!
//! * [`Cdd`] / [`Constraint`] — the rule model, with the paper's relaxed
//!   `0 ≤ ε.min < ε.max` intervals;
//! * [`discovery`] — rule detection from a complete repository `R`
//!   (bucketed pair statistics for interval rules, frequent-constant
//!   refinement for conditional/editing rules), used both offline
//!   (Algorithm 1 line 2, Figure 12) and for the §5.5 dynamic updates;
//! * [`CddIndex`] — the CDD-index `I_j` of §5.1: the rules whose
//!   dependent is `A_j`, filtered exactly per record in rule-list order
//!   (the paper's lattice of aR-trees is not built; see [`cddindex`]).

pub mod cddindex;
pub mod discovery;
pub mod rule;

pub use cddindex::CddIndex;
pub use discovery::{detect_cdds, detect_dds, detect_editing_rules, DiscoveryConfig};
pub use rule::{Cdd, Constraint};
