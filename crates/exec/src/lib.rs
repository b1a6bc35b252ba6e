//! The batched TER-iDS engine and its per-stage telemetry.
//!
//! [`ShardedTerIdsEngine`] consumes arrivals in batches
//! ([`ter_ids::ErProcessor::step_batch`]): it imputes the batch, then runs
//! the sequential engine's own per-arrival loop
//! ([`ter_ids::TerIdsEngine::step_imputed`]) over it, and records one
//! `ter_obs` event per stage and one for the whole step per batch, which
//! the kind table routes to the registry, the flight recorder and the
//! batch's causal trace. Its output is therefore the sequential engine's,
//! arrival for arrival, for every batch size — enforced by the
//! differential suite in `tests/parallel_parity.rs`.
//!
//! The engine runs on the caller's thread: a step costs a few
//! microseconds, less than handing work to another thread (see
//! [`ExecConfig`]).

pub mod engine;

pub use engine::{ExecConfig, ShardedTerIdsEngine};
