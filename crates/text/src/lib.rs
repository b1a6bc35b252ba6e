//! Text substrate for the TER-iDS reproduction.
//!
//! Everything in the paper operates on *token sets* extracted from textual
//! attribute values: the similarity function (Definition 5) is a summed
//! per-attribute Jaccard similarity, topic matching (`ϖ(r, K)`) is token-set
//! membership, and the metric-space conversion used by all indexes is the
//! Jaccard *distance* to a pivot string.
//!
//! This crate provides the shared primitives:
//!
//! * [`Dictionary`] — string-to-[`Token`] interning so the hot loops work on
//!   `u32`s instead of strings;
//! * [`TokenSet`] — an immutable sorted set of tokens with allocation-free
//!   Jaccard similarity/distance ([`TokenSet::jaccard`],
//!   [`TokenSet::jaccard_distance`]);
//! * [`tokenize()`](tokenize::tokenize) — the tokenizer used for every attribute value;
//! * [`KeywordSet`] — query-topic membership;
//! * [`Interval`] — closed `f64` intervals used by rules, aggregates, and
//!   pruning bounds throughout the system.

pub mod dict;
pub mod fxhash;
pub mod interval;
pub mod keywords;
pub mod tokenize;
pub mod tokenset;

pub use dict::{Dictionary, Token};
pub use interval::Interval;
pub use keywords::KeywordSet;
pub use tokenize::tokenize;
pub use tokenset::TokenSet;

#[cfg(test)]
mod proptests;
