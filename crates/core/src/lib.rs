//! TER-iDS: Topic-aware Entity Resolution over incomplete Data Streams.
//!
//! The primary contribution of the reproduced paper (Ren, Lian, Ghazinour,
//! SIGMOD 2021): continuously report pairs of tuples from sliding windows
//! of different incomplete streams that (a) are topic-related and (b)
//! represent the same entity with probability above `α` (problem statement,
//! §2.3), while imputing missing attributes on the fly via CDD rules.
//!
//! Crate layout:
//!
//! * [`params`] — the Table 5 parameters (`α`, `ρ = γ/d`, `w`, …);
//! * [`meta`] — per-tuple derived state: imputed probabilistic tuple,
//!   pivot-distance bounds/expectations, token-size bounds, topic vectors
//!   and per-attribute token signatures (§5.2's per-tuple aggregates);
//! * [`pruning`] — Theorems 4.1–4.3 with Lemmas 4.1–4.3 (topic-keyword,
//!   similarity-upper-bound via token sizes, via pivots and via token
//!   signatures, Paley–Zygmund probability upper bound);
//! * [`refine`] — exact `Pr_TER-iDS` (Equation 2) and the
//!   instance-pair-level early termination of Theorem 4.4;
//! * [`candidates`] — the per-stream FIFO signature lists that replace
//!   the paper's ER-grid, the candidate scan, and the accounting of
//!   never-examined pairs;
//! * [`engine`] — Algorithm 1/2: the full TER-iDS processor with
//!   candidate-list maintenance and the imputation/pruning/refinement
//!   pipeline, whose per-arrival loop the batched engine in `ter_exec`
//!   runs too;
//! * [`live`] — the dynamic state of a TER-iDS engine and its export
//!   ([`LiveState`]);
//! * [`baselines`] — the five §6 competitors (`Ij+GER`, `CDD+ER`, `DD+ER`,
//!   `er+ER`, `con+ER`);
//! * [`metrics`] — precision/recall/F-score (Equation 6) and pruning-power
//!   accounting (Figure 4);
//! * [`results`] — the maintained entity result set `ES` with expiry;
//! * [`state`] — the engine-agnostic dynamic-state snapshot
//!   ([`EngineState`]) behind the `ter_store` checkpoint/recovery layer.

pub mod baselines;
pub mod candidates;
pub mod engine;
pub mod live;
pub mod meta;
pub mod metrics;
pub mod params;
pub mod pruning;
pub mod refine;
pub mod results;
pub mod state;

#[cfg(test)]
mod proptests;

pub use baselines::NaiveEngine;
pub use engine::{PruningMode, StageLaps, StepOutput, TerContext, TerIdsEngine};
pub use live::LiveState;
pub use meta::TupleMeta;
pub use metrics::{evaluate, Evaluation, PhaseTiming, PruneStats};
pub use params::Params;
pub use refine::{decide_pair, PairContext, PairDecision, RefineOutcome};
pub use results::ResultSet;
pub use state::{delta_between, EngineState, LiveEntry, StateDelta};

use ter_stream::Arrival;

/// Common interface over the TER-iDS engine and all baselines so that the
/// benchmark harness can drive any method uniformly.
pub trait ErProcessor {
    /// Method label as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Consumes one arriving tuple, returning newly reported matches and
    /// per-phase timings for this step.
    fn process(&mut self, arrival: &Arrival) -> StepOutput;

    /// Consumes a batch of arrivals, returning one [`StepOutput`] per
    /// arrival in arrival order, exactly what [`ErProcessor::process`]
    /// returns for each in turn. The default processes the batch one
    /// tuple at a time, so every engine and baseline can be driven with
    /// the same batched loop; the batched engine in `ter_exec` overrides
    /// it to record per-batch stage telemetry.
    fn step_batch(&mut self, batch: &[Arrival]) -> Vec<StepOutput> {
        batch.iter().map(|a| self.process(a)).collect()
    }

    /// Matches currently alive (both tuples unexpired) — the set `ES`.
    fn results(&self) -> &ResultSet;

    /// Every pair ever reported (for accuracy evaluation over a run).
    fn reported(&self) -> &ter_text::fxhash::FxHashSet<(u64, u64)>;

    /// Cumulative pruning statistics (all zeros for baselines that apply
    /// no pruning).
    fn prune_stats(&self) -> PruneStats;

    /// Cumulative per-phase timing.
    fn timing(&self) -> PhaseTiming;
}
