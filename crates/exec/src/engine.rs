//! The sharded, batch-parallel TER-iDS engine.
//!
//! [`ShardedTerIdsEngine`] processes arrivals in batches
//! ([`ter_ids::ErProcessor::step_batch`]) and produces output
//! **bit-identical** to the sequential [`ter_ids::TerIdsEngine`] for any
//! shard count, thread count, batch size, and drive mode. The
//! per-arrival pipeline is decomposed into the named stages of
//! `stages` — **impute → traverse → refine → merge** —
//! and executed by the persistent worker pool of
//! `pool`:
//!
//! 1. **Impute** — rule selection, imputation, and [`TupleMeta`]
//!    derivation read only the static [`TerContext`], so the whole batch
//!    is imputed concurrently (contiguous chunks across workers) with
//!    per-arrival results equal to the sequential engine's.
//! 2. **Traverse** — the ER-grid is partitioned into `S` shards by
//!    cell-key hash ([`ShardRouter`]); each worker owns a disjoint shard
//!    group for the batch and applies grid mutations (the previous
//!    arrival's insert, this arrival's expiry) in arrival order before
//!    enumerating its candidates with the sequential engine's own
//!    [`candidates::examined_ids`] — cell pruning plus the stream and
//!    topical filters in one walk — so every cell sees exactly the op
//!    sequence the monolithic grid would and yields the same ids.
//! 3. **Refine** — the workers' sorted id lists are merged into one
//!    sorted candidate list and partitioned; each worker routes its slice
//!    through the shared cascade ([`ter_ids::decide_pair`]). Small
//!    candidate sets are refined on the driving thread instead — a
//!    synchronization barrier is not worth a handful of pairs
//!    (`refine_fanout_min`).
//! 4. **Merge** — window maintenance, expiry, result-set and statistics
//!    updates happen on the driving thread in arrival order (per-worker
//!    tallies merged deterministically, matches ordered by
//!    `(arrival_seq, norm_pair)`), so window semantics are unchanged.
//!
//! # Drive modes
//!
//! The lock-step drive pays two barriers per arrival: the merge thread
//! waits for every worker's traverse, computes the candidate set, fans
//! the refine out, and waits again. The **overlapped** drive
//! ([`ExecConfig::overlap`], the default) halves that: after imputation
//! both arrival `i`'s refine *and* arrival `i+1`'s traverse inputs are
//! known (the eviction schedule is a pure function of the window and the
//! arrival order — `stages::eviction_schedule`), so the
//! merge thread queues `Refine(i)` and `Step(i+1)` together and pays one
//! combined wait. Workers answer in FIFO order, so the interleaving is
//! deterministic; the op order seen by every grid cell and the merge
//! order are *identical* to the lock-step drive, which is why the parity
//! suites can require bit-equality across both modes. The saving is
//! instrumented: [`StageMetrics::er_barriers`] counts the merge thread's
//! wait rounds.
//!
//! # Pool sessions
//!
//! With `threads == 1` the whole pipeline runs inline on the driving
//! thread — no pool, no channels — so the single-thread configuration is
//! a fair baseline rather than a message-passing straw man. With more
//! threads, a plain [`ErProcessor::step_batch`] call spins the pool up
//! for that one batch; long-lived consumers (the `ter_serve` daemon, the
//! benches) wrap their feed loop in [`ShardedTerIdsEngine::with_pool`]
//! so the workers persist across batches and only the shard groups
//! travel per batch.

use std::sync::Arc;
use std::time::Instant;

use ter_ids::candidates::{self, ErPayload, StreamCounts};
use ter_ids::meta::TupleMeta;
use ter_ids::{
    EngineState, ErProcessor, Params, PhaseTiming, PruneStats, PruningMode, ResultSet,
    StageMetrics, StepOutput, TerContext,
};
use ter_impute::RuleImputer;
use ter_stream::{Arrival, SlidingWindow};
use ter_text::fxhash::{FxHashMap, FxHashSet};

use crate::merge::{merge_outcomes, RefineOutcome};
use crate::pool::{pool_channels, worker_loop, Pool};
use crate::router::ShardRouter;
use crate::stages::{
    apply_insert, eviction_schedule, impute_one, refine_slice, ShardGrid, WorkerCtx,
};

/// Parallel execution knobs.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Number of ER-grid shards `S` (cells are hash-partitioned across
    /// them). Result-invariant; more shards than threads lets the router
    /// balance cell load across workers.
    pub shards: usize,
    /// Worker threads `T` driving imputation, traversal, and refinement.
    /// Result-invariant; `1` runs the whole pipeline inline.
    pub threads: usize,
    /// Overlap arrival `i`'s refine with arrival `i+1`'s traverse,
    /// halving the merge thread's barrier count per arrival.
    /// Result-invariant (enforced by the parity suites); ignored when
    /// `threads == 1`.
    pub overlap: bool,
    /// Candidate sets smaller than this are refined on the driving
    /// thread: the per-arrival fan-out barrier costs more than deciding
    /// a few pairs. Result-invariant — both paths run the same
    /// [`decide_pair`](ter_ids::decide_pair) cascade.
    pub refine_fanout_min: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Self {
            shards: 8,
            threads,
            overlap: true,
            refine_fanout_min: 16,
        }
    }
}

impl ExecConfig {
    /// `shards`/`threads` with the default drive knobs (overlap on,
    /// fan-out threshold 16).
    pub fn new(shards: usize, threads: usize) -> Self {
        Self {
            shards,
            threads,
            ..Self::default()
        }
    }

    /// The same configuration with the overlapped drive toggled.
    pub fn with_overlap(self, overlap: bool) -> Self {
        Self { overlap, ..self }
    }
}

/// The sharded, batch-parallel TER-iDS engine. See the [module docs](self).
pub struct ShardedTerIdsEngine<'a> {
    ctx: &'a TerContext,
    params: Params,
    mode: PruningMode,
    exec: ExecConfig,
    gamma: f64,
    router: ShardRouter,
    imputer: RuleImputer<'a>,
    /// The partitioned ER-grid; shard `s` holds exactly the cells with
    /// `router.shard_of(key) == s`. Handed to the workers for the
    /// duration of a batch and reassembled afterwards.
    shards: Vec<ShardGrid>,
    window: SlidingWindow<u64>,
    metas: FxHashMap<u64, Arc<TupleMeta>>,
    counts: StreamCounts,
    results: ResultSet,
    reported: FxHashSet<(u64, u64)>,
    stats: PruneStats,
    timing: PhaseTiming,
    metrics: StageMetrics,
    name: &'static str,
}

impl<'a> ShardedTerIdsEngine<'a> {
    /// Creates a sharded engine over a prebuilt context.
    pub fn new(ctx: &'a TerContext, params: Params, mode: PruningMode, exec: ExecConfig) -> Self {
        params.validate().expect("invalid parameters");
        assert!(exec.shards > 0, "at least one shard");
        assert!(exec.threads > 0, "at least one worker thread");
        let d = ctx.arity();
        Self {
            ctx,
            params,
            mode,
            exec,
            gamma: params.gamma(d),
            router: ShardRouter::new(exec.shards),
            imputer: ctx.indexed_imputer(params.impute),
            shards: (0..exec.shards)
                .map(|_| ShardGrid::new(d, params.grid_cells))
                .collect(),
            window: SlidingWindow::new(params.window),
            metas: FxHashMap::default(),
            counts: StreamCounts::default(),
            results: ResultSet::new(),
            reported: FxHashSet::default(),
            stats: PruneStats::default(),
            timing: PhaseTiming::default(),
            metrics: StageMetrics::default(),
            name: match mode {
                PruningMode::Full => "TER-iDS(shard)",
                PruningMode::GridOnly => "Ij+GER(shard)",
            },
        }
    }

    /// The similarity threshold `γ = ρ · d` in use.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Shard count `S`.
    pub fn shard_count(&self) -> usize {
        self.exec.shards
    }

    /// Worker thread count `T`.
    pub fn thread_count(&self) -> usize {
        self.exec.threads
    }

    /// Number of unexpired tuples.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Window capacity `w` (the service layer reports it alongside the
    /// occupancy).
    pub fn window_capacity(&self) -> usize {
        self.params.window
    }

    /// Metadata (including the imputed probabilistic tuple) of a live
    /// tuple.
    pub fn meta(&self, id: u64) -> Option<&TupleMeta> {
        self.metas.get(&id).map(Arc::as_ref)
    }

    /// Ids of the unexpired tuples, ascending (for differential tests
    /// against the sequential engine).
    pub fn live_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.metas.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Cell-entry count per shard (diagnostics: shows how the router
    /// spreads grid load).
    pub fn shard_entry_counts(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(ShardGrid::cell_entry_count)
            .collect()
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

    /// Live tuple count per stream id.
    pub fn stream_tuple_counts(&self) -> &[usize] {
        self.counts.live()
    }

    /// Number of live tuples currently flagged possibly-topical.
    pub fn topical_count(&self) -> usize {
        self.counts.topical_total()
    }

    /// Runs `f` against this engine with a **persistent** worker pool
    /// attached: the `threads` workers (each owning its session-long
    /// CDD-indexed imputer) spawn once, and every
    /// [`PooledEngine::step_batch`] inside reuses them — only the shard
    /// groups travel per batch. With `threads == 1` no pool is spawned
    /// and the handle drives the inline path, so callers can wrap their
    /// feed loop unconditionally. The pool joins before `with_pool`
    /// returns.
    pub fn with_pool<R>(&mut self, f: impl FnOnce(&mut PooledEngine<'_, 'a>) -> R) -> R {
        if self.exec.threads == 1 {
            return f(&mut PooledEngine {
                eng: self,
                pool: None,
            });
        }
        let ctx: &'a TerContext = self.ctx;
        let wctx = self.worker_ctx();
        let impute_cfg = self.params.impute;
        let threads = self.exec.threads;
        std::thread::scope(move |scope| {
            let mut chans = Vec::with_capacity(threads);
            for _ in 0..threads {
                let (chan, req_rx, resp_tx) = pool_channels();
                scope.spawn(move || {
                    // Each worker owns its imputer for the session; it is
                    // a cheap view over the context's prebuilt indexes,
                    // and identical inputs give identical imputations.
                    let imputer = ctx.indexed_imputer(impute_cfg);
                    worker_loop(wctx, ctx, &imputer, req_rx, resp_tx);
                });
                chans.push(chan);
            }
            let mut pe = PooledEngine {
                eng: self,
                pool: Some(Pool::new(chans)),
            };
            let out = f(&mut pe);
            // Dropping the handle drops the request senders — the
            // session-end signal — and the scope joins the workers.
            drop(pe);
            out
        })
    }

    /// The session-invariant worker inputs, borrowing only from the
    /// static context (never from `self`), so a live pool and a mutable
    /// engine coexist.
    fn worker_ctx(&self) -> WorkerCtx<'a> {
        let ctx = self.ctx;
        WorkerCtx {
            router: self.router,
            pair: ter_ids::PairContext {
                keywords: &ctx.keywords,
                gamma: self.gamma,
                alpha: self.params.alpha,
                aux_counts: &ctx.aux_counts,
                mode: self.mode,
            },
        }
    }

    /// Snapshots the engine's dynamic state. The representation is the
    /// canonical engine-agnostic [`EngineState`]: shard grids are merged
    /// back into one sorted logical cell list (the router partitions
    /// cells, so the union is disjoint), and every cell lists its entries
    /// in window order, as the monolithic grid's do — the exported state
    /// is *equal* to the sequential engine's at the same stream position.
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
        let mut cells: Vec<(ter_index::CellKey, Vec<u64>)> = self
            .shards
            .iter()
            .flat_map(|g| g.iter_cells())
            .map(|(k, entries)| (k.clone(), entries.map(|e| e.payload.id).collect()))
            .collect();
        cells.sort_by(|(a, _), (b, _)| a.cmp(b));
        EngineState {
            window_capacity: self.params.window,
            grid_cells: self.params.grid_cells,
            window,
            metas,
            stream_counts: self.counts.live().to_vec(),
            results,
            reported,
            stats: self.stats,
            cells,
        }
    }

    /// Replaces the engine's dynamic state with a validated snapshot,
    /// routing each persisted cell to its owning shard. Accepts snapshots
    /// exported by either engine (the representation is shard-agnostic),
    /// so a sequential checkpoint restores into a sharded engine and vice
    /// versa. On `Err` the engine is left untouched.
    pub fn import_state(&mut self, state: &EngineState) -> Result<(), String> {
        let d = self.ctx.arity();
        state.validate(d, self.params.window, self.params.grid_cells)?;
        let metas: FxHashMap<u64, Arc<TupleMeta>> = state
            .metas
            .iter()
            .map(|meta| (meta.id, Arc::new(meta.clone())))
            .collect();
        let mut shards: Vec<ShardGrid> = (0..self.exec.shards)
            .map(|_| ShardGrid::new(d, self.params.grid_cells))
            .collect();
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
        let mut window = SlidingWindow::new(self.params.window);
        for &(ts, id) in &state.window {
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

    /// Removes the expired tuple from the merge-level maps. Returns its
    /// metadata so the workers can evict it from their shards, plus the
    /// live pairs the eviction dropped (normalized and sorted — the
    /// step's retraction delta).
    fn expire(&mut self, old_id: u64) -> (Option<Arc<TupleMeta>>, Vec<(u64, u64)>) {
        let Some(meta) = self.metas.remove(&old_id) else {
            return (None, Vec::new());
        };
        self.counts.remove(&meta);
        let removed = self.results.remove_involving(old_id);
        (Some(meta), removed)
    }

    /// The metadata of the examined candidates, in id order.
    fn candidate_metas(&self, ids: &[u64]) -> Vec<Arc<TupleMeta>> {
        ids.iter().map(|id| Arc::clone(&self.metas[id])).collect()
    }

    /// The merge stage for one arrival: fold the refine outcome into the
    /// statistics, attribute never-examined pairs, publish matches, and
    /// register the new tuple. Strictly sequential, in arrival order —
    /// shared verbatim by every drive mode, which is what keeps them
    /// bit-identical.
    fn finalize_arrival(
        &mut self,
        meta: &Arc<TupleMeta>,
        examined: u64,
        outcome: RefineOutcome,
    ) -> Vec<(u64, u64)> {
        self.stats.sim += outcome.sim;
        self.stats.prob += outcome.prob;
        self.stats.instance += outcome.instance;
        self.stats.matches += outcome.matches.len() as u64;
        candidates::account_pairs(meta, examined, &self.counts, &mut self.stats);
        let new_matches = outcome.matches; // sorted by norm_pair
        for &(a, b) in &new_matches {
            self.results.insert(a, b);
            self.reported.insert((a, b));
        }
        self.counts.add(meta);
        let prev = self.metas.insert(meta.id, Arc::clone(meta));
        assert!(prev.is_none(), "duplicate tuple id {}", meta.id);
        new_matches
    }
}

/// How one batch executes the traverse/refine stages: inline on the
/// driving thread (`threads == 1`) or against the session's worker pool.
/// Both variants apply the same ops in the same order; the lock-step
/// merge loop ([`drive_lockstep`]) is shared.
enum BatchWorkers<'p, 'a> {
    Inline {
        shards: Vec<(usize, ShardGrid)>,
        wctx: WorkerCtx<'a>,
    },
    Pool {
        pool: &'p Pool,
        wctx: WorkerCtx<'a>,
    },
}

impl BatchWorkers<'_, '_> {
    /// Traverse stage for one arrival: grid maintenance + candidate
    /// enumeration; returns the sorted candidate ids.
    fn step(
        &mut self,
        insert: Option<&Arc<TupleMeta>>,
        evict: Option<&Arc<TupleMeta>>,
        probe: &Arc<TupleMeta>,
        metrics: &mut StageMetrics,
    ) -> Vec<u64> {
        match self {
            BatchWorkers::Inline { shards, wctx } => {
                if let Some(meta) = insert {
                    apply_insert(shards, wctx.router, meta);
                }
                if let Some(meta) = evict {
                    crate::stages::apply_evict(shards, meta);
                }
                crate::stages::traverse_shards(shards, wctx, probe)
            }
            BatchWorkers::Pool { pool, .. } => {
                pool.send_step(insert, evict, probe);
                metrics.er_barriers += 1;
                pool.collect_surfaced()
            }
        }
    }

    /// Refine stage for one arrival: the pair-decision cascade over the
    /// examined candidates, fanned out when it is worth a barrier.
    fn refine(
        &mut self,
        probe: &Arc<TupleMeta>,
        cands: &[Arc<TupleMeta>],
        fanout_min: usize,
        metrics: &mut StageMetrics,
    ) -> RefineOutcome {
        match self {
            BatchWorkers::Inline { wctx, .. } => merge_outcomes([refine_slice(wctx, probe, cands)]),
            BatchWorkers::Pool { pool, wctx } => {
                if cands.len() < fanout_min {
                    return merge_outcomes([refine_slice(wctx, probe, cands)]);
                }
                let sent = pool.send_refine(probe, cands);
                if sent == 0 {
                    return RefineOutcome::default();
                }
                metrics.er_barriers += 1;
                metrics.fanned_refines += 1;
                pool.collect_refined(sent)
            }
        }
    }
}

/// Records one batch's accumulated per-stage wall-times into the global
/// observability registry — one histogram observation per stage per
/// batch, so the hot loop only pays local integer adds. No-op when
/// observability is disabled ([`ter_obs::timer`] returns `None` then, so
/// the accumulators stay zero and nothing is recorded).
fn record_stage_batch(traverse_us: u64, refine_us: u64, merge_us: u64, barrier_us: Option<u64>) {
    if !ter_obs::enabled() {
        return;
    }
    let seq = ter_obs::OBS.engine_batches.get();
    ter_obs::OBS.engine_traverse_micros.record(traverse_us);
    ter_obs::flight(ter_obs::kind::TRAVERSE, seq, 0, 0, traverse_us);
    ter_obs::trace::add_current_elapsed(ter_obs::trace::kind::TRAVERSE, traverse_us);
    ter_obs::OBS.engine_refine_micros.record(refine_us);
    ter_obs::flight(ter_obs::kind::REFINE, seq, 0, 0, refine_us);
    ter_obs::trace::add_current_elapsed(ter_obs::trace::kind::REFINE, refine_us);
    ter_obs::OBS.engine_merge_micros.record(merge_us);
    ter_obs::flight(ter_obs::kind::MERGE, seq, 0, 0, merge_us);
    ter_obs::trace::add_current_elapsed(ter_obs::trace::kind::MERGE, merge_us);
    if let Some(b) = barrier_us {
        ter_obs::OBS.engine_barrier_wait_micros.record(b);
        ter_obs::trace::add_current_elapsed(ter_obs::trace::kind::BARRIER, b);
    }
}

/// Adds the microseconds since an enabled [`ter_obs::timer`] to a local
/// stage accumulator (free when disabled).
fn lap(t0: Option<Instant>, acc: &mut u64) {
    if let Some(t0) = t0 {
        *acc += t0.elapsed().as_micros() as u64;
    }
}

/// The lock-step drive: per arrival, wait for the traverse, then wait for
/// the fanned refine — two barriers. Shared by the inline path (where
/// the "waits" are plain function calls and cost nothing).
fn drive_lockstep<'a>(
    eng: &mut ShardedTerIdsEngine<'a>,
    batch: &[Arrival],
    per_arrival: &[(Arc<TupleMeta>, PhaseTiming)],
    workers: &mut BatchWorkers<'_, 'a>,
) -> (Vec<StepOutput>, Option<Arc<TupleMeta>>) {
    let mut outputs = Vec::with_capacity(batch.len());
    let (mut traverse_us, mut refine_us, mut merge_us) = (0u64, 0u64, 0u64);
    // The previous arrival's tuple; inserted into the grid by the
    // workers at the start of the *next* step, preserving the
    // sequential op order insert(i) → evict(i+1) → traverse(i+1).
    let mut pending_insert: Option<Arc<TupleMeta>> = None;
    for (arrival, (meta, imp_timing)) in batch.iter().zip(per_arrival) {
        let er_start = Instant::now();

        // ---- expiry (merge phase: window semantics unchanged) ----
        let mut t0 = ter_obs::timer();
        let mut retractions = Vec::new();
        let mut expired = Vec::new();
        let evicted = eng
            .window
            .push(arrival.timestamp, arrival.record.id)
            .and_then(|(_, old_id)| {
                expired.push(old_id);
                let (meta, removed) = eng.expire(old_id);
                retractions = removed;
                meta
            });
        lap(t0, &mut merge_us);

        // ---- traverse ----
        t0 = ter_obs::timer();
        let surfaced = workers.step(
            pending_insert.as_ref(),
            evicted.as_ref(),
            meta,
            &mut eng.metrics,
        );
        lap(t0, &mut traverse_us);

        // ---- candidate selection (ascending-id order, so the slice
        // partition across workers is deterministic) ----
        t0 = ter_obs::timer();
        let cands = eng.candidate_metas(&surfaced);
        let examined = cands.len() as u64;

        // ---- refine ----
        let outcome = workers.refine(meta, &cands, eng.exec.refine_fanout_min, &mut eng.metrics);
        lap(t0, &mut refine_us);

        // ---- merge ----
        t0 = ter_obs::timer();
        let new_matches = eng.finalize_arrival(meta, examined, outcome);
        lap(t0, &mut merge_us);
        pending_insert = Some(Arc::clone(meta));

        let mut step_timing = *imp_timing;
        step_timing.er += er_start.elapsed();
        eng.timing.accumulate(&step_timing);
        outputs.push(StepOutput {
            new_matches,
            retractions,
            expired,
            timing: step_timing,
        });
    }
    record_stage_batch(traverse_us, refine_us, merge_us, None);
    (outputs, pending_insert)
}

/// Resolves a scheduled eviction to its metadata: an in-batch arrival
/// (it may expire before the batch ends) or a prior window resident.
fn scheduled_evict_meta(
    scheduled: Option<u64>,
    idx_of: &FxHashMap<u64, usize>,
    per_arrival: &[(Arc<TupleMeta>, PhaseTiming)],
    metas: &FxHashMap<u64, Arc<TupleMeta>>,
) -> Option<Arc<TupleMeta>> {
    scheduled.map(|id| match idx_of.get(&id) {
        Some(&k) => Arc::clone(&per_arrival[k].0),
        None => Arc::clone(metas.get(&id).expect("scheduled eviction of unknown tuple")),
    })
}

/// The overlapped drive: one combined barrier per arrival. Arrival
/// `i+1`'s traverse (insert `i`, evict per the precomputed schedule,
/// probe `i+1`) is queued right after arrival `i`'s refine, so the
/// workers flow from refining `i` straight into traversing `i+1` while
/// the merge thread finalizes `i`. Grid op order and merge order are
/// identical to the lock-step drive — only the waiting changes.
fn drive_overlapped<'a>(
    eng: &mut ShardedTerIdsEngine<'a>,
    pool: &Pool,
    wctx: WorkerCtx<'a>,
    batch: &[Arrival],
    per_arrival: &[(Arc<TupleMeta>, PhaseTiming)],
) -> (Vec<StepOutput>, Option<Arc<TupleMeta>>) {
    let n = batch.len();
    let sched = eviction_schedule(&eng.window, batch);
    let idx_of: FxHashMap<u64, usize> = batch
        .iter()
        .enumerate()
        .map(|(i, a)| (a.record.id, i))
        .collect();

    // Prologue: arrival 0's traverse has no pending insert (the previous
    // batch's final insert was applied at its `End`).
    let ev0 = scheduled_evict_meta(sched[0], &idx_of, per_arrival, &eng.metas);
    pool.send_step(None, ev0.as_ref(), &per_arrival[0].0);
    eng.metrics.er_barriers += 1;
    let (mut traverse_us, mut refine_us, mut merge_us, mut barrier_us) = (0u64, 0u64, 0u64, 0u64);
    let mut t0 = ter_obs::timer();
    let mut surfaced = pool.collect_surfaced();
    lap(t0, &mut traverse_us);
    lap(t0, &mut barrier_us);

    let mut outputs = Vec::with_capacity(n);
    for i in 0..n {
        let (meta, imp_timing) = &per_arrival[i];
        let er_start = Instant::now();

        // ---- expiry (the real push; the schedule must agree) ----
        t0 = ter_obs::timer();
        let mut retractions = Vec::new();
        let mut expired = Vec::new();
        let evicted = eng
            .window
            .push(batch[i].timestamp, batch[i].record.id)
            .and_then(|(_, old_id)| {
                expired.push(old_id);
                let (meta, removed) = eng.expire(old_id);
                retractions = removed;
                meta
            });
        debug_assert_eq!(
            evicted.as_ref().map(|m| m.id),
            sched[i],
            "eviction schedule diverged from the window"
        );
        lap(t0, &mut merge_us);

        // ---- candidate selection ----
        t0 = ter_obs::timer();
        let cands = eng.candidate_metas(&surfaced);
        let examined = cands.len() as u64;

        // ---- queue refine(i), then traverse(i+1), then wait once ----
        let fan_sent = if cands.len() >= eng.exec.refine_fanout_min {
            pool.send_refine(meta, &cands)
        } else {
            0
        };
        if i + 1 < n {
            let ev = scheduled_evict_meta(sched[i + 1], &idx_of, per_arrival, &eng.metas);
            pool.send_step(Some(meta), ev.as_ref(), &per_arrival[i + 1].0);
        }
        // A small candidate set refines here, on the driving thread,
        // overlapping the workers' traverse of i+1.
        let mut outcome = if fan_sent == 0 {
            merge_outcomes([refine_slice(&wctx, meta, &cands)])
        } else {
            eng.metrics.fanned_refines += 1;
            RefineOutcome::default()
        };
        if fan_sent > 0 || i + 1 < n {
            eng.metrics.er_barriers += 1;
        }
        lap(t0, &mut refine_us);
        if fan_sent > 0 {
            // FIFO per worker: its Refined(i) reply precedes its
            // Surfaced(i+1) reply, so this drain order is deterministic.
            t0 = ter_obs::timer();
            outcome = pool.collect_refined(fan_sent);
            lap(t0, &mut refine_us);
            lap(t0, &mut barrier_us);
        }
        if i + 1 < n {
            t0 = ter_obs::timer();
            surfaced = pool.collect_surfaced();
            lap(t0, &mut traverse_us);
            lap(t0, &mut barrier_us);
        }

        // ---- merge ----
        t0 = ter_obs::timer();
        let new_matches = eng.finalize_arrival(meta, examined, outcome);
        lap(t0, &mut merge_us);
        let mut step_timing = *imp_timing;
        step_timing.er += er_start.elapsed();
        eng.timing.accumulate(&step_timing);
        outputs.push(StepOutput {
            new_matches,
            retractions,
            expired,
            timing: step_timing,
        });
    }
    eng.metrics.overlapped_arrivals += n as u64;
    record_stage_batch(traverse_us, refine_us, merge_us, Some(barrier_us));
    (outputs, Some(Arc::clone(&per_arrival[n - 1].0)))
}

/// An engine with a live pool session attached (see
/// [`ShardedTerIdsEngine::with_pool`]). Drives batches through the
/// persistent workers; between batches the full state lives in the
/// engine, so state export/import and every read accessor work
/// mid-session.
pub struct PooledEngine<'s, 'a> {
    eng: &'s mut ShardedTerIdsEngine<'a>,
    pool: Option<Pool>,
}

impl<'a> PooledEngine<'_, 'a> {
    /// Read access to the underlying engine.
    pub fn engine(&self) -> &ShardedTerIdsEngine<'a> {
        self.eng
    }

    /// Mutable access to the underlying engine (the pool holds no engine
    /// state between batches, so any engine operation is safe here).
    pub fn engine_mut(&mut self) -> &mut ShardedTerIdsEngine<'a> {
        self.eng
    }

    /// [`ShardedTerIdsEngine::export_state`] pass-through.
    pub fn export_state(&self) -> EngineState {
        self.eng.export_state()
    }

    /// [`ShardedTerIdsEngine::import_state`] pass-through.
    pub fn import_state(&mut self, state: &EngineState) -> Result<(), String> {
        self.eng.import_state(state)
    }

    /// Phases 1–4 for one batch through the session's workers.
    fn step_batch_impl(&mut self, batch: &[Arrival]) -> Vec<StepOutput> {
        if batch.is_empty() {
            return Vec::new();
        }
        let batch_t0 = ter_obs::timer();
        ter_obs::OBS.engine_batches.inc();
        // Library mode: no outer driver owns a causal trace for this
        // batch, so it roots its own (keyed by the engine batch ordinal).
        // In daemon mode the serve step stage owns the trace and this is
        // a no-op.
        let self_rooted = ter_obs::trace::root_if_unattached(ter_obs::OBS.engine_batches.get());
        let eng = &mut *self.eng;
        let wctx = eng.worker_ctx();
        let outputs = match &self.pool {
            None => {
                // Inline fast path: same ops, same order, no pool.
                let t0 = ter_obs::timer();
                let per_arrival: Vec<(Arc<TupleMeta>, PhaseTiming)> = batch
                    .iter()
                    .map(|a| impute_one(&eng.imputer, eng.ctx, a))
                    .collect();
                let impute_us = ter_obs::OBS.engine_impute_micros.observe_since(t0);
                ter_obs::flight(
                    ter_obs::kind::IMPUTE,
                    ter_obs::OBS.engine_batches.get(),
                    batch.len() as u64,
                    0,
                    impute_us,
                );
                ter_obs::trace::add_current_elapsed(ter_obs::trace::kind::IMPUTE, impute_us);
                let owned: Vec<(usize, ShardGrid)> = eng.shards.drain(..).enumerate().collect();
                let mut workers = BatchWorkers::Inline {
                    shards: owned,
                    wctx,
                };
                let (outputs, pending) = drive_lockstep(eng, batch, &per_arrival, &mut workers);
                let BatchWorkers::Inline { mut shards, .. } = workers else {
                    unreachable!()
                };
                if let Some(meta) = pending {
                    apply_insert(&mut shards, eng.router, &meta);
                }
                eng.shards = shards.into_iter().map(|(_, g)| g).collect();
                outputs
            }
            Some(pool) => {
                eng.metrics.pooled_batches += 1;
                // ---- impute stage ----
                let t0 = ter_obs::timer();
                let per_arrival = if batch.len() == 1 {
                    vec![impute_one(&eng.imputer, eng.ctx, &batch[0])]
                } else {
                    pool.impute_batch(batch)
                };
                let impute_us = ter_obs::OBS.engine_impute_micros.observe_since(t0);
                ter_obs::flight(
                    ter_obs::kind::IMPUTE,
                    ter_obs::OBS.engine_batches.get(),
                    batch.len() as u64,
                    0,
                    impute_us,
                );
                ter_obs::trace::add_current_elapsed(ter_obs::trace::kind::IMPUTE, impute_us);
                // Workers own disjoint shard groups for the whole batch
                // (shard s → worker s mod T), so each cell's op sequence
                // is applied by exactly one worker, in arrival order —
                // identical to the monolithic grid.
                let shard_count = eng.shards.len();
                let threads = pool.len();
                let mut groups: Vec<Vec<(usize, ShardGrid)>> =
                    (0..threads).map(|_| Vec::new()).collect();
                for (sid, grid) in eng.shards.drain(..).enumerate() {
                    groups[sid % threads].push((sid, grid));
                }
                pool.begin(groups);
                let (outputs, pending) = if eng.exec.overlap {
                    drive_overlapped(eng, pool, wctx, batch, &per_arrival)
                } else {
                    let mut workers = BatchWorkers::Pool { pool, wctx };
                    drive_lockstep(eng, batch, &per_arrival, &mut workers)
                };
                eng.shards = pool.finish(pending, shard_count);
                outputs
            }
        };
        let batch_us = batch_t0.map_or(0, |t| t.elapsed().as_micros() as u64);
        ter_obs::flight(
            ter_obs::kind::BATCH,
            ter_obs::OBS.engine_batches.get(),
            batch.len() as u64,
            0,
            batch_us,
        );
        if self_rooted {
            ter_obs::trace::add_current_elapsed(ter_obs::trace::kind::STEP, batch_us);
            ter_obs::trace::end_current();
        }
        outputs
    }
}

impl ErProcessor for PooledEngine<'_, '_> {
    fn name(&self) -> &'static str {
        self.eng.name
    }

    fn process(&mut self, arrival: &Arrival) -> StepOutput {
        self.step_batch_impl(std::slice::from_ref(arrival))
            .pop()
            .expect("one output per arrival")
    }

    fn step_batch(&mut self, batch: &[Arrival]) -> Vec<StepOutput> {
        self.step_batch_impl(batch)
    }

    fn results(&self) -> &ResultSet {
        &self.eng.results
    }

    fn reported(&self) -> &FxHashSet<(u64, u64)> {
        &self.eng.reported
    }

    fn prune_stats(&self) -> PruneStats {
        self.eng.stats
    }

    fn timing(&self) -> PhaseTiming {
        self.eng.timing
    }

    fn stage_metrics(&self) -> StageMetrics {
        self.eng.metrics
    }
}

impl ErProcessor for ShardedTerIdsEngine<'_> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn process(&mut self, arrival: &Arrival) -> StepOutput {
        self.step_batch(std::slice::from_ref(arrival))
            .pop()
            .expect("one output per arrival")
    }

    /// One batch through a transient pool session (the pool spins up and
    /// joins within the call). Long-lived consumers should hold a
    /// session open via [`ShardedTerIdsEngine::with_pool`] instead.
    fn step_batch(&mut self, batch: &[Arrival]) -> Vec<StepOutput> {
        if batch.is_empty() {
            return Vec::new();
        }
        self.with_pool(|pe| pe.step_batch_impl(batch))
    }

    fn results(&self) -> &ResultSet {
        &self.results
    }

    fn reported(&self) -> &FxHashSet<(u64, u64)> {
        &self.reported
    }

    fn prune_stats(&self) -> PruneStats {
        self.stats
    }

    fn timing(&self) -> PhaseTiming {
        self.timing
    }

    fn stage_metrics(&self) -> StageMetrics {
        self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ter_ids::TerIdsEngine;
    use ter_repo::{PivotConfig, Record, Repository, Schema};
    use ter_rules::DiscoveryConfig;
    use ter_stream::StreamSet;
    use ter_text::{Dictionary, KeywordSet};

    /// The same 2-stream scenario as the sequential engine's unit tests.
    fn scenario() -> (TerContext, StreamSet) {
        let schema = Schema::new(vec!["title", "tags"]);
        let mut dict = Dictionary::new();
        let repo_rows = [
            ("space cowboy adventure", "scifi western"),
            ("space cowboy adventure saga", "scifi western"),
            ("high school romance", "drama comedy"),
            ("high school romance club", "drama comedy"),
            ("cooking master", "comedy food"),
            ("idol music live", "music idol"),
        ];
        let repo_recs = repo_rows
            .iter()
            .enumerate()
            .map(|(i, (a, b))| {
                Record::from_texts(&schema, 1000 + i as u64, &[Some(a), Some(b)], &mut dict)
            })
            .collect();
        let repo = Repository::from_records(schema.clone(), repo_recs);
        let keywords = KeywordSet::parse("scifi", &dict);
        let ctx = TerContext::build(
            repo,
            keywords,
            &PivotConfig::default(),
            &DiscoveryConfig {
                min_support: 2,
                min_constant_support: 2,
                ..DiscoveryConfig::default()
            },
            16,
        );
        let s0 = vec![
            Record::from_texts(
                &schema,
                1,
                &[Some("space cowboy adventure"), Some("scifi western")],
                &mut dict,
            ),
            Record::from_texts(
                &schema,
                3,
                &[Some("cooking master"), Some("comedy food")],
                &mut dict,
            ),
        ];
        let s1 = vec![
            Record::from_texts(
                &schema,
                2,
                &[Some("space cowboy adventure"), Some("scifi western")],
                &mut dict,
            ),
            Record::from_texts(
                &schema,
                4,
                &[Some("idol music live"), Some("music idol")],
                &mut dict,
            ),
        ];
        (ctx, StreamSet::new(vec![s0, s1]))
    }

    #[test]
    fn finds_the_obvious_match_in_one_batch() {
        let (ctx, streams) = scenario();
        let mut e = ShardedTerIdsEngine::new(
            &ctx,
            Params::default(),
            PruningMode::Full,
            ExecConfig::new(4, 2),
        );
        let outs = e.step_batch(&streams.arrivals());
        let all: Vec<(u64, u64)> = outs.iter().flat_map(|o| o.new_matches.clone()).collect();
        assert_eq!(all, vec![(1, 2)]);
        assert!(e.results().contains(1, 2));
        assert_eq!(e.window_len(), 4);
    }

    #[test]
    fn agrees_with_sequential_engine_across_batch_sizes() {
        let (ctx, streams) = scenario();
        let mut seq = TerIdsEngine::new(&ctx, Params::default(), PruningMode::Full);
        let mut seq_steps = Vec::new();
        for a in streams.arrivals() {
            let mut m = seq.process(&a).new_matches;
            m.sort_unstable();
            seq_steps.push(m);
        }
        for batch in 1..=5 {
            for threads in [1usize, 2] {
                for overlap in [false, true] {
                    let exec = ExecConfig::new(3, threads).with_overlap(overlap);
                    let mut par =
                        ShardedTerIdsEngine::new(&ctx, Params::default(), PruningMode::Full, exec);
                    let mut par_steps = Vec::new();
                    for chunk in streams.arrival_batches(batch) {
                        par_steps.extend(par.step_batch(&chunk).into_iter().map(|o| o.new_matches));
                    }
                    let tag = format!("batch {batch}, threads {threads}, overlap {overlap}");
                    assert_eq!(par_steps, seq_steps, "{tag}");
                    assert_eq!(par.prune_stats(), seq.prune_stats(), "{tag}");
                    assert_eq!(par.live_ids(), seq.live_ids(), "{tag}");
                }
            }
        }
    }

    /// A persistent pool session across several batches must be
    /// bit-identical to per-batch transient sessions, and must actually
    /// run pooled (the metrics say so).
    #[test]
    fn persistent_session_agrees_with_transient_batches() {
        let (ctx, streams) = scenario();
        let exec = ExecConfig::new(4, 2);
        let arrivals = streams.arrivals();

        let mut transient =
            ShardedTerIdsEngine::new(&ctx, Params::default(), PruningMode::Full, exec);
        let mut t_steps = Vec::new();
        for chunk in arrivals.chunks(2) {
            t_steps.extend(
                transient
                    .step_batch(chunk)
                    .into_iter()
                    .map(|o| o.new_matches),
            );
        }

        let mut pooled = ShardedTerIdsEngine::new(&ctx, Params::default(), PruningMode::Full, exec);
        let p_steps = pooled.with_pool(|pe| {
            let mut steps = Vec::new();
            for chunk in arrivals.chunks(2) {
                steps.extend(pe.step_batch(chunk).into_iter().map(|o| o.new_matches));
            }
            // State is fully materialized between batches mid-session.
            assert_eq!(pe.export_state(), pe.engine().export_state());
            steps
        });
        assert_eq!(p_steps, t_steps);
        assert_eq!(pooled.prune_stats(), transient.prune_stats());
        assert_eq!(pooled.export_state(), transient.export_state());
        assert_eq!(pooled.stage_metrics().pooled_batches, 2);
        assert!(pooled.stage_metrics().overlapped_arrivals >= 4);
    }

    /// The instrumented barrier claim: with every refine forced onto the
    /// pool, the lock-step drive pays exactly two barriers per arrival
    /// (traverse + refine), the overlapped drive at most one plus one
    /// prologue per batch.
    #[test]
    fn overlap_halves_the_barrier_count() {
        let (ctx, streams) = scenario();
        let arrivals = streams.arrivals();
        let base = ExecConfig {
            shards: 4,
            threads: 2,
            overlap: false,
            refine_fanout_min: 0, // always fan out (when candidates exist)
        };

        let mut lockstep =
            ShardedTerIdsEngine::new(&ctx, Params::default(), PruningMode::Full, base);
        lockstep.step_batch(&arrivals);
        let lm = lockstep.stage_metrics();
        assert_eq!(
            lm.er_barriers,
            arrivals.len() as u64 + lm.fanned_refines,
            "lock-step: one traverse barrier per arrival + one per fanned refine"
        );
        assert!(lm.fanned_refines > 0, "scenario exercises fanned refines");
        assert_eq!(lm.overlapped_arrivals, 0);

        let mut overlapped = ShardedTerIdsEngine::new(
            &ctx,
            Params::default(),
            PruningMode::Full,
            base.with_overlap(true),
        );
        overlapped.step_batch(&arrivals);
        let om = overlapped.stage_metrics();
        let batches = 1;
        assert!(
            om.er_barriers <= arrivals.len() as u64 + batches,
            "overlapped: at most one barrier per arrival plus one prologue per batch \
             (got {} for {} arrivals)",
            om.er_barriers,
            arrivals.len()
        );
        assert!(
            om.er_barriers < lm.er_barriers,
            "overlap must reduce barriers"
        );
        assert_eq!(om.overlapped_arrivals, arrivals.len() as u64);

        // And the outputs are still bit-identical.
        assert_eq!(overlapped.export_state(), lockstep.export_state());
    }

    #[test]
    fn expiry_matches_sequential_semantics() {
        let (ctx, streams) = scenario();
        let params = Params {
            window: 2,
            ..Params::default()
        };
        let mut e =
            ShardedTerIdsEngine::new(&ctx, params, PruningMode::Full, ExecConfig::new(2, 2));
        let arrivals = streams.arrivals();
        e.step_batch(&arrivals[..2]);
        assert!(e.results().contains(1, 2));
        e.step_batch(&arrivals[2..3]);
        assert!(!e.results().contains(1, 2), "pair must expire with tuple 1");
        assert!(e.reported().contains(&(1, 2)));
        assert_eq!(e.window_len(), 2);
    }

    /// A window smaller than the batch forces in-batch arrivals to expire
    /// before the batch ends — the eviction schedule must resolve their
    /// metadata from the batch itself, in both drive modes.
    #[test]
    fn in_batch_expiry_is_bit_identical_across_drives() {
        let (ctx, streams) = scenario();
        let params = Params {
            window: 1,
            ..Params::default()
        };
        let arrivals = streams.arrivals();
        let mut seq = TerIdsEngine::new(&ctx, params, PruningMode::Full);
        for a in &arrivals {
            seq.process(a);
        }
        for overlap in [false, true] {
            let exec = ExecConfig::new(3, 2).with_overlap(overlap);
            let mut par = ShardedTerIdsEngine::new(&ctx, params, PruningMode::Full, exec);
            par.step_batch(&arrivals);
            assert_eq!(par.export_state(), seq.export_state(), "overlap {overlap}");
        }
    }

    #[test]
    fn timing_is_recorded() {
        let (ctx, streams) = scenario();
        let mut e = ShardedTerIdsEngine::new(
            &ctx,
            Params::default(),
            PruningMode::Full,
            ExecConfig::new(2, 2),
        );
        e.step_batch(&streams.arrivals());
        let t = e.timing();
        assert_eq!(t.arrivals, 4);
        assert!(t.total().as_nanos() > 0);
    }

    /// The sharded engine's exported state must be byte-for-byte the
    /// sequential engine's (same canonical representation, same per-cell
    /// entry order), and checkpoints must restore across engine kinds.
    #[test]
    fn state_is_engine_agnostic() {
        let (ctx, streams) = scenario();
        let params = Params {
            window: 3, // forces an eviction across the 4 arrivals
            ..Params::default()
        };
        let arrivals = streams.arrivals();
        let mut seq = TerIdsEngine::new(&ctx, params, PruningMode::Full);
        for a in &arrivals {
            seq.process(a);
        }
        let mut par =
            ShardedTerIdsEngine::new(&ctx, params, PruningMode::Full, ExecConfig::new(4, 2));
        par.step_batch(&arrivals);
        let state = seq.export_state();
        assert_eq!(par.export_state(), state, "export representations differ");

        // Sequential checkpoint → sharded engine (different shard count).
        let mut restored =
            ShardedTerIdsEngine::new(&ctx, params, PruningMode::Full, ExecConfig::new(3, 1));
        restored.import_state(&state).unwrap();
        assert_eq!(restored.export_state(), state);
        assert_eq!(restored.live_ids(), seq.live_ids());

        // Sharded checkpoint → sequential engine.
        let mut back = TerIdsEngine::new(&ctx, params, PruningMode::Full);
        back.import_state(&par.export_state()).unwrap();
        assert_eq!(back.export_state(), state);
    }

    #[test]
    fn import_rejects_mismatched_window() {
        let (ctx, streams) = scenario();
        let exec = ExecConfig::new(2, 1);
        let mut e = ShardedTerIdsEngine::new(&ctx, Params::default(), PruningMode::Full, exec);
        e.step_batch(&streams.arrivals());
        let state = e.export_state();
        let mut other = ShardedTerIdsEngine::new(
            &ctx,
            Params {
                window: 9,
                ..Params::default()
            },
            PruningMode::Full,
            exec,
        );
        assert!(other.import_state(&state).is_err());
        assert_eq!(other.window_len(), 0);
    }

    #[test]
    fn grid_load_is_spread_across_shards() {
        let (ctx, streams) = scenario();
        let mut e = ShardedTerIdsEngine::new(
            &ctx,
            Params::default(),
            PruningMode::Full,
            ExecConfig::new(8, 2),
        );
        e.step_batch(&streams.arrivals());
        let counts = e.shard_entry_counts();
        assert_eq!(counts.len(), 8);
        assert!(counts.iter().sum::<usize>() > 0);
    }
}
