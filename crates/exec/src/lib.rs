//! A frozen name, kept for the benchmark in `perfbench/` only.
//!
//! The engine is [`ter_ids::TerIdsEngine`], which steps arrivals one at a
//! time or a batch at a time and records the batched drive's stage
//! telemetry. This crate holds no engine logic: [`ShardedTerIdsEngine`]
//! forwards every call to a `TerIdsEngine`, and [`ExecConfig`] carries no
//! setting. Both stay until the benchmark stops naming them; nothing
//! else in the workspace uses this crate, apart from the type of
//! `ter_serve::ServeOptions::exec`.

use std::ops::Deref;

use ter_ids::{
    EngineState, ErProcessor, LiveState, Params, PhaseTiming, PruneStats, PruningMode, ResultSet,
    StepOutput, TerContext, TerIdsEngine,
};
use ter_stream::Arrival;
use ter_text::fxhash::FxHashSet;

/// Execution settings, of which none are left. The engine once split its
/// candidate lists into shards driven by worker threads, configured here
/// as `(shards, threads)`; both are gone because one thread beat every
/// multi-threaded configuration on per-arrival work of a few
/// microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecConfig;

impl ExecConfig {
    /// The one configuration; the former shard and thread counts are
    /// ignored.
    pub fn new(_shards: usize, _threads: usize) -> Self {
        Self
    }
}

/// A [`TerIdsEngine`] under its former batched name: every call forwards
/// to the inner engine, except [`ErProcessor::process`], which steps a
/// batch of one.
pub struct ShardedTerIdsEngine<'a>(TerIdsEngine<'a>);

impl<'a> ShardedTerIdsEngine<'a> {
    /// See [`TerIdsEngine::new`].
    pub fn new(ctx: &'a TerContext, params: Params, mode: PruningMode, _exec: ExecConfig) -> Self {
        Self(TerIdsEngine::new(ctx, params, mode))
    }

    /// See [`TerIdsEngine::import_state`].
    pub fn import_state(&mut self, state: &EngineState) -> Result<(), String> {
        self.0.import_state(state)
    }
}

impl Deref for ShardedTerIdsEngine<'_> {
    type Target = LiveState;

    fn deref(&self) -> &LiveState {
        &self.0
    }
}

impl ErProcessor for ShardedTerIdsEngine<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn process(&mut self, arrival: &Arrival) -> StepOutput {
        self.step_batch(std::slice::from_ref(arrival))
            .pop()
            .expect("one output per arrival")
    }

    fn step_batch(&mut self, batch: &[Arrival]) -> Vec<StepOutput> {
        self.0.step_batch(batch)
    }

    fn results(&self) -> &ResultSet {
        self.0.results()
    }

    fn reported(&self) -> &FxHashSet<(u64, u64)> {
        self.0.reported()
    }

    fn prune_stats(&self) -> PruneStats {
        self.0.prune_stats()
    }

    fn timing(&self) -> PhaseTiming {
        self.0.timing()
    }
}
