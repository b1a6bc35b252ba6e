//! The dynamic state of a TER-iDS engine, held once for both engines.
//!
//! [`LiveState`] is everything that changes as tuples arrive and expire:
//! the sliding window, the live tuples' metadata, the per-stream counts,
//! the result set `ES`, the reported history, the pruning statistics, the
//! phase timings, and the ER-grid as `S` shards whose cells a
//! [`ShardRouter`] assigns. The sequential [`TerIdsEngine`](crate::TerIdsEngine)
//! keeps one shard; the sharded engine in `ter_exec` keeps `S` and hands
//! them to its workers for the length of a batch.
//!
//! Both engines run the same per-arrival bookkeeping through it:
//!
//! 1. [`LiveState::advance_window`] — the window push and the expiry of
//!    the tuple it evicts (Algorithm 2 lines 2–7). The grid evict is left
//!    to the engine, which owns the traversal of its shards.
//! 2. [`LiveState::finalize_arrival`] — statistics, the result set, the
//!    reported history, the stream counts and the metadata of the new
//!    tuple (lines 11–13, 15–26), again without the grid insert.
//!
//! Export and import of the canonical [`EngineState`] and every read
//! accessor live here too, so a checkpoint taken from either engine
//! restores into either, and the query layer reads both engines through
//! one view. The engines dereference to their `LiveState`, which is how
//! `engine.live_ids()` or `engine.export_state()` reach these methods.
//! The other mutating methods are an engine's building blocks and keep
//! the state consistent only in the order an engine calls them, with
//! the grid updates in between.

use std::sync::Arc;

use ter_index::CellKey;
use ter_stream::{Arrival, SlidingWindow};
use ter_text::fxhash::{FxHashMap, FxHashSet};

use crate::candidates::{account_pairs, ErGrid, ErPayload, StreamCounts};
use crate::engine::StepOutput;
use crate::meta::TupleMeta;
use crate::metrics::{PhaseTiming, PruneStats};
use crate::refine::RefineOutcome;
use crate::results::ResultSet;
use crate::router::ShardRouter;
use crate::state::EngineState;

/// The dynamic state of one engine. See the [module docs](self).
pub struct LiveState {
    arity: usize,
    grid_cells: u16,
    router: ShardRouter,
    /// The partitioned ER-grid; shard `s` holds exactly the cells with
    /// `router.shard_of(key) == s`.
    pub(crate) shards: Vec<ErGrid>,
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
    /// arity `arity`, and an ER-grid of `grid_cells` cells per dimension
    /// split into `shards` shards.
    pub fn new(arity: usize, window: usize, grid_cells: u16, shards: usize) -> Self {
        let router = ShardRouter::new(shards);
        Self {
            arity,
            grid_cells,
            router,
            shards: Self::empty_shards(arity, grid_cells, router),
            window: SlidingWindow::new(window),
            metas: FxHashMap::default(),
            counts: StreamCounts::default(),
            results: ResultSet::new(),
            reported: FxHashSet::default(),
            stats: PruneStats::default(),
            timing: PhaseTiming::default(),
        }
    }

    fn empty_shards(arity: usize, grid_cells: u16, router: ShardRouter) -> Vec<ErGrid> {
        (0..router.shard_count())
            .map(|_| ErGrid::new(arity, grid_cells))
            .collect()
    }

    /// The router assigning grid cells to shards.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// Takes the grid shards out, in shard order, for a batch's traversal.
    /// They must come back through [`LiveState::restore_shards`] before
    /// the state is read or exported again.
    pub fn take_shards(&mut self) -> Vec<ErGrid> {
        std::mem::take(&mut self.shards)
    }

    /// Puts back the shards [`LiveState::take_shards`] took, in shard
    /// order.
    pub fn restore_shards(&mut self, shards: Vec<ErGrid>) {
        debug_assert_eq!(shards.len(), self.router.shard_count());
        self.shards = shards;
    }

    /// Pushes `arrival` into the window and expires the tuple it evicts
    /// from the metadata, the stream counts and the result set. Returns
    /// the evicted tuple's metadata, which the caller must still evict
    /// from its grid shards, and the step's output with `expired` and
    /// `retractions` (normalized, sorted) filled in.
    pub fn advance_window(&mut self, arrival: &Arrival) -> (Option<Arc<TupleMeta>>, StepOutput) {
        let mut out = StepOutput::default();
        let evicted = self
            .window
            .push(arrival.timestamp, arrival.record.id)
            .and_then(|(_, old_id)| {
                out.expired.push(old_id);
                let meta = self.metas.remove(&old_id)?;
                self.counts.remove(&meta);
                out.retractions = self.results.remove_involving(old_id);
                Some(meta)
            });
        (evicted, out)
    }

    /// The metadata of the examined candidates, in id order.
    pub fn candidate_metas(&self, ids: &[u64]) -> Vec<Arc<TupleMeta>> {
        ids.iter().map(|id| Arc::clone(&self.metas[id])).collect()
    }

    /// The merge step for one arrival: folds the refine outcome (matches
    /// sorted by normalized pair) into the statistics, attributes the
    /// never-examined pairs, publishes the matches, and registers the new
    /// tuple everywhere but in the grid. Returns the step's new matches.
    pub fn finalize_arrival(
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
        self.counts.add(&meta);
        let id = meta.id;
        let prev = self.metas.insert(id, meta);
        assert!(prev.is_none(), "duplicate tuple id {id}");
        new_matches
    }

    /// Adds one step's phase timings to the running totals.
    pub fn accumulate_timing(&mut self, step: &PhaseTiming) {
        self.timing.accumulate(step);
    }

    /// The sliding window of `(timestamp, id)` entries.
    pub fn window(&self) -> &SlidingWindow<u64> {
        &self.window
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

    /// The shared metadata of a live tuple, for handing to workers.
    pub fn meta_arc(&self, id: u64) -> Option<&Arc<TupleMeta>> {
        self.metas.get(&id)
    }

    /// Ids of the unexpired tuples, ascending.
    pub fn live_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.metas.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Entry counts of every occupied grid cell across all shards — the
    /// density statistic the query planner's greedy join-order heuristic
    /// reads instead of maintaining histograms.
    pub fn cell_entry_counts(&self) -> Vec<usize> {
        self.shards
            .iter()
            .flat_map(|g| g.iter_cells().map(|(_, entries)| entries.len()))
            .collect()
    }

    /// Cell-entry count per shard (diagnostics: shows how the router
    /// spreads grid load).
    pub fn shard_entry_counts(&self) -> Vec<usize> {
        self.shards.iter().map(ErGrid::cell_entry_count).collect()
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
    /// representation: window order, sorted pairs, and the shards merged
    /// back into one cell list sorted by key (the router partitions the
    /// cells, so the union is disjoint), each cell listing its entries in
    /// window order. The export is therefore independent of the shard
    /// count, and equal across engines at the same stream position.
    pub fn export_state(&self) -> EngineState {
        let window: Vec<(u64, u64)> = self.window.iter().map(|(t, id)| (t, *id)).collect();
        let metas = window
            .iter()
            .map(|(_, id)| self.metas[id].as_ref().clone())
            .collect();
        let mut results: Vec<(u64, u64)> = self.results.iter().collect();
        results.sort_unstable();
        let mut reported: Vec<(u64, u64)> = self.reported.iter().copied().collect();
        reported.sort_unstable();
        let mut cells: Vec<(CellKey, Vec<u64>)> = self
            .shards
            .iter()
            .flat_map(|g| g.iter_cells())
            .map(|(k, entries)| (k.clone(), entries.map(|e| e.payload.id).collect()))
            .collect();
        cells.sort_by(|(a, _), (b, _)| a.cmp(b));
        EngineState {
            window_capacity: self.window.capacity(),
            grid_cells: self.grid_cells,
            window,
            metas,
            stream_counts: self.counts.live().to_vec(),
            results,
            reported,
            stats: self.stats,
            cells,
        }
    }

    /// Replaces the state with a validated snapshot (recovery: load the
    /// newest checkpoint, then replay the WAL suffix), routing each
    /// persisted cell to its owning shard. Snapshots from either engine
    /// and any shard count are accepted. Phase timings restart at zero
    /// (wall clock is not recoverable state). On `Err` the state is left
    /// untouched — the recovery path must never panic or half-apply.
    pub fn import_state(&mut self, state: &EngineState) -> Result<(), String> {
        state.validate(self.arity, self.window.capacity(), self.grid_cells)?;
        let metas: FxHashMap<u64, Arc<TupleMeta>> = state
            .metas
            .iter()
            .map(|meta| (meta.id, Arc::new(meta.clone())))
            .collect();
        let mut shards = Self::empty_shards(self.arity, self.grid_cells, self.router);
        for (key, ids) in state.cells_in_window_order() {
            let shard = &mut shards[self.router.shard_of(key)];
            for id in ids {
                let meta = &metas[&id];
                shard.insert_at(
                    [key.clone()],
                    &meta.region(),
                    ErPayload::of(meta),
                    meta.aggregate(),
                );
            }
        }
        let mut window = SlidingWindow::new(self.window.capacity());
        for &(ts, id) in &state.window {
            // validate() bounds the length by the capacity and checks
            // monotonic timestamps, so no push can evict or assert.
            window.push(ts, id);
        }
        let mut results = ResultSet::new();
        for &(a, b) in &state.results {
            results.insert(a, b);
        }
        self.shards = shards;
        self.window = window;
        self.metas = metas;
        self.counts = StreamCounts::restore(&state.stream_counts, &state.metas);
        self.results = results;
        self.reported = state.reported.iter().copied().collect();
        self.stats = state.stats;
        self.timing = PhaseTiming::default();
        Ok(())
    }
}
