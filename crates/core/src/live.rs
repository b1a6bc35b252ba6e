//! The dynamic state of a TER-iDS engine, held once for both engines.
//!
//! [`LiveState`] is everything that changes as tuples arrive and expire:
//! the sliding window, the live tuples' metadata, the per-stream counts,
//! the result set `ES`, the reported history, the pruning statistics, the
//! phase timings, and the candidate lists ([`CandidateLists`]).
//!
//! The per-arrival loop ([`TerIdsEngine::step_imputed`](crate::TerIdsEngine::step_imputed),
//! which the batched engine in `ter_exec` runs too) mutates it in two
//! steps:
//!
//! 1. `advance_window` — the window push and the expiry of
//!    the tuple it evicts from the lists, the metadata, the stream counts
//!    and the result set (Algorithm 2 lines 2–7).
//! 2. `finalize_arrival` — statistics, the result set, the
//!    reported history, and the new tuple's list entry, stream count and
//!    metadata (lines 11–13, 15–26).
//!
//! Export of the canonical [`EngineState`] and every read accessor live
//! here too, so a checkpoint taken from either engine restores into
//! either, and the query layer reads both engines through one view. The
//! engines dereference to their `LiveState`, which is how
//! `engine.live_ids()` or `engine.export_state()` reach these methods.
//! Import needs the static context to rebuild each live tuple's
//! metadata, so it is the engine's
//! ([`TerIdsEngine::import_state`](crate::TerIdsEngine::import_state)),
//! which hands the rebuilt state to `restore` here.

use std::sync::Arc;

use ter_stream::{Arrival, SlidingWindow};
use ter_text::fxhash::{FxHashMap, FxHashSet};

use crate::candidates::{account_pairs, CandidateLists, StreamCounts};
use crate::engine::StepOutput;
use crate::meta::TupleMeta;
use crate::metrics::{PhaseTiming, PruneStats};
use crate::refine::RefineOutcome;
use crate::results::ResultSet;
use crate::state::{EngineState, LiveEntry};

/// The dynamic state of one engine. See the [module docs](self).
pub struct LiveState {
    arity: usize,
    /// The live tuples, split by stream and topicality.
    pub(crate) lists: CandidateLists,
    pub(crate) window: SlidingWindow<u64>,
    pub(crate) metas: FxHashMap<u64, Arc<TupleMeta>>,
    /// Live and topical tuple counts per stream (O(streams) pair
    /// accounting).
    pub(crate) counts: StreamCounts,
    results: ResultSet,
    reported: FxHashSet<(u64, u64)>,
    stats: PruneStats,
    timing: PhaseTiming,
}

impl LiveState {
    /// An empty state: a window of capacity `window` over tuples of
    /// arity `arity`.
    pub fn new(arity: usize, window: usize) -> Self {
        Self {
            arity,
            lists: CandidateLists::new(arity),
            window: SlidingWindow::new(window),
            metas: FxHashMap::default(),
            counts: StreamCounts::default(),
            results: ResultSet::new(),
            reported: FxHashSet::default(),
            stats: PruneStats::default(),
            timing: PhaseTiming::default(),
        }
    }

    /// Pushes `arrival` into the window and expires the tuple it evicts
    /// from the lists, the metadata, the stream counts and the result
    /// set. Returns the step's output with `expired` and `retractions`
    /// (normalized, sorted) filled in.
    pub(crate) fn advance_window(&mut self, arrival: &Arrival) -> StepOutput {
        let mut out = StepOutput::default();
        if let Some((_, old_id)) = self.window.push(arrival.timestamp, arrival.record.id) {
            out.expired.push(old_id);
            if let Some(meta) = self.metas.remove(&old_id) {
                self.lists.evict(&meta);
                self.counts.remove(&meta);
                out.retractions = self.results.remove_involving(old_id);
            }
        }
        out
    }

    /// The merge step for one arrival: folds the refine outcome (matches
    /// sorted by normalized pair) into the statistics, attributes the
    /// never-examined pairs, publishes the matches, and registers the new
    /// tuple. Returns the step's new matches.
    pub(crate) fn finalize_arrival(
        &mut self,
        meta: Arc<TupleMeta>,
        examined: u64,
        outcome: RefineOutcome,
    ) -> Vec<(u64, u64)> {
        self.stats.sim += outcome.sim;
        self.stats.prob += outcome.prob;
        self.stats.instance += outcome.instance;
        self.stats.matches += outcome.matches.len() as u64;
        account_pairs(&meta, examined, &self.counts, &mut self.stats);
        let new_matches = outcome.matches;
        for &(a, b) in &new_matches {
            self.results.insert(a, b);
            self.reported.insert((a, b));
        }
        self.lists.insert(&meta);
        self.counts.add(&meta);
        let id = meta.id;
        let prev = self.metas.insert(id, meta);
        assert!(prev.is_none(), "duplicate tuple id {id}");
        new_matches
    }

    /// Adds one step's phase timings to the running totals.
    pub(crate) fn accumulate_timing(&mut self, step: &PhaseTiming) {
        self.timing.accumulate(step);
    }

    /// Number of unexpired tuples.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Window capacity `w`.
    pub fn window_capacity(&self) -> usize {
        self.window.capacity()
    }

    /// Metadata (including the imputed probabilistic tuple) of a live
    /// tuple.
    pub fn meta(&self, id: u64) -> Option<&TupleMeta> {
        self.metas.get(&id).map(Arc::as_ref)
    }

    /// Ids of the unexpired tuples, ascending.
    pub fn live_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.metas.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// The lengths of the non-empty candidate lists: one per (stream,
    /// topicality) that holds a live tuple. A diagnostic of how the
    /// window splits; the benchmark reports their count and the largest
    /// one's share of the window. The name predates the lists, from when
    /// they were the cells of a grid.
    pub fn cell_entry_counts(&self) -> Vec<usize> {
        self.lists.list_lengths().collect()
    }

    /// Live tuple count per stream id.
    pub fn stream_tuple_counts(&self) -> &[usize] {
        self.counts.live()
    }

    /// Number of live tuples currently flagged possibly-topical.
    pub fn topical_count(&self) -> usize {
        self.counts.topical_total()
    }

    /// Matches currently alive (both tuples unexpired) — the set `ES`.
    pub fn results(&self) -> &ResultSet {
        &self.results
    }

    /// Every pair ever reported.
    pub fn reported(&self) -> &FxHashSet<(u64, u64)> {
        &self.reported
    }

    /// Cumulative pruning statistics.
    pub fn prune_stats(&self) -> PruneStats {
        self.stats
    }

    /// Cumulative per-phase timing.
    pub fn timing(&self) -> PhaseTiming {
        self.timing
    }

    /// Snapshots the state in the canonical [`EngineState`]
    /// representation: window order and sorted pairs, each live tuple as
    /// the inputs of its metadata. Neither the metadata nor the candidate
    /// lists are exported; an importing engine derives both. The export
    /// is therefore equal across engines at the same stream position.
    pub fn export_state(&self) -> EngineState {
        let live = self
            .window
            .iter()
            .map(|(timestamp, id)| {
                let meta = &self.metas[id];
                LiveEntry {
                    timestamp,
                    stream_id: meta.stream_id,
                    tuple: meta.tuple.clone(),
                }
            })
            .collect();
        let mut results: Vec<(u64, u64)> = self.results.iter().collect();
        results.sort_unstable();
        let mut reported: Vec<(u64, u64)> = self.reported.iter().copied().collect();
        reported.sort_unstable();
        EngineState {
            window_capacity: self.window.capacity(),
            live,
            stream_counts: self.counts.live().to_vec(),
            results,
            reported,
            stats: self.stats,
        }
    }

    /// Replaces the state with a snapshot already validated against this
    /// state's arity and capacity, whose live tuples' metadata `metas`
    /// the engine derived in window order. Rebuilds the window and the
    /// candidate lists by inserting the tuples in order. Phase timings
    /// restart at zero (wall clock is not recoverable state).
    pub(crate) fn restore(&mut self, state: &EngineState, metas: Vec<Arc<TupleMeta>>) {
        let mut lists = CandidateLists::new(self.arity);
        let mut window = SlidingWindow::new(self.window.capacity());
        for meta in &metas {
            lists.insert(meta);
            // Validation bounds the length by the capacity and checks
            // monotonic timestamps, so no push can evict or assert.
            window.push(meta.timestamp, meta.id);
        }
        let mut results = ResultSet::new();
        for &(a, b) in &state.results {
            results.insert(a, b);
        }
        self.counts = StreamCounts::restore(&state.stream_counts, &metas);
        self.lists = lists;
        self.window = window;
        self.metas = metas.into_iter().map(|meta| (meta.id, meta)).collect();
        self.results = results;
        self.reported = state.reported.iter().copied().collect();
        self.stats = state.stats;
        self.timing = PhaseTiming::default();
    }
}
