//! Sharded, batch-parallel, stage-pipelined execution layer for TER-iDS.
//!
//! The sequential [`ter_ids::TerIdsEngine`] processes one arrival at a
//! time on one core. This crate scales that pipeline out without changing
//! a single reported pair or statistic:
//!
//! * [`ShardRouter`] (defined in `ter_ids`, beside the
//!   [`ter_ids::LiveState`] whose grid shards it assigns) hash-partitions
//!   the ER-grid's cells into `S` shards;
//! * `stages` names the per-arrival pipeline — **impute → traverse →
//!   refine → merge** — as pure stage kernels;
//! * `pool` keeps a persistent worker pool alive across batches
//!   (spawn once per [`ShardedTerIdsEngine::with_pool`] session, not per
//!   batch), each worker owning its shard group for a batch and its
//!   imputer for the session;
//! * [`engine`] drives the stages: inline on the calling thread with one
//!   thread, otherwise through the pool, pipelining arrival `i`'s refine
//!   with arrival `i+1`'s traverse so the driving thread waits once per
//!   arrival — instrumented in [`ter_ids::StageMetrics`];
//! * [`merge`] deterministically folds the per-shard partial results back
//!   together (stable `(arrival_seq, norm_pair)` ordering), with expiry
//!   and result-set maintenance in the sequential merge phase so window
//!   semantics are unchanged.
//!
//! The contract — output **bit-identical** to the sequential engine for
//! every shard count, thread count, and batch size — is
//! enforced by the differential suite in `tests/parallel_parity.rs` and
//! the property tests in `proptests.rs`.

pub mod engine;
pub mod merge;
pub(crate) mod pool;
pub(crate) mod stages;

#[cfg(test)]
mod proptests;

pub use engine::{ExecConfig, PooledEngine, ShardedTerIdsEngine};
pub use merge::{merge_outcomes, merge_surfaced, RefineOutcome};
pub use ter_ids::ShardRouter;
