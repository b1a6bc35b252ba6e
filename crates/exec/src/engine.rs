//! The sharded, batch-parallel TER-iDS engine.
//!
//! [`ShardedTerIdsEngine`] processes arrivals in batches
//! ([`ter_ids::ErProcessor::step_batch`]) and produces output
//! **bit-identical** to the sequential [`ter_ids::TerIdsEngine`] for any
//! shard count, thread count and batch size. Its dynamic state is the
//! same [`LiveState`] the sequential engine keeps, with `S` grid shards.
//! The per-arrival pipeline is decomposed into the named stages of
//! `stages` — **impute → traverse → refine → merge** — and executed by
//! the persistent worker pool of `pool`:
//!
//! 1. **Impute** — rule selection, imputation, and [`TupleMeta`]
//!    derivation read only the static [`TerContext`], so the whole batch
//!    is imputed concurrently (contiguous chunks across workers) with
//!    per-arrival results equal to the sequential engine's.
//! 2. **Traverse** — the ER-grid is partitioned into `S` shards by
//!    cell-key hash ([`ter_ids::ShardRouter`]); each worker owns a
//!    disjoint shard group for the batch and applies grid mutations (the
//!    previous arrival's insert, this arrival's expiry) in arrival order
//!    before enumerating its candidates with the sequential engine's own
//!    [`ter_ids::candidates::examined_ids`] — cell pruning plus the
//!    stream, topical and signature filters in one walk — so every cell
//!    sees exactly the op sequence the monolithic grid would and yields
//!    the same ids.
//! 3. **Refine** — the workers' sorted id lists are merged into one
//!    sorted candidate list and partitioned; each worker routes its slice
//!    through the shared cascade ([`ter_ids::decide_pair`]). Candidate
//!    sets below [`REFINE_FANOUT_MIN`] are refined on the driving thread
//!    instead.
//! 4. **Merge** — window maintenance, expiry, result-set and statistics
//!    updates happen on the driving thread in arrival order
//!    ([`LiveState::advance_window`], [`LiveState::finalize_arrival`]), so
//!    window semantics are unchanged.
//!
//! # Drives
//!
//! With `threads == 1` the whole pipeline runs inline on the driving
//! thread — no pool, no channels — so the single-thread configuration is
//! a fair baseline rather than a message-passing straw man.
//!
//! With more threads, one drive runs against the pool. Waiting for each
//! arrival's traverse and then for its fanned refine would cost the
//! driving thread two barriers per arrival. Instead, once arrival `i`'s
//! candidates are known, both `i`'s refine *and* `i+1`'s traverse inputs
//! are known too (the eviction schedule is a pure function of the window
//! and the arrival order — `stages::eviction_schedule`), so the drive
//! queues `Refine(i)` and `Step(i+1)` together and pays one combined
//! wait: at most one barrier per arrival plus one prologue per batch.
//! Workers answer in FIFO order, so the interleaving is deterministic and
//! every grid cell sees the same op order as in the inline drive.
//! [`StageMetrics::er_barriers`] counts the waits.
//!
//! # Pool sessions
//!
//! A plain [`ErProcessor::step_batch`] call spins the pool up for that
//! one batch; long-lived consumers (the `ter_serve` daemon, the benches)
//! wrap their feed loop in [`ShardedTerIdsEngine::with_pool`] so the
//! workers persist across batches and only the shard groups travel per
//! batch.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::time::Instant;

use ter_ids::meta::TupleMeta;
use ter_ids::{
    ErProcessor, LiveState, Params, PhaseTiming, PruneStats, PruningMode, ResultSet, StageMetrics,
    StepOutput, TerContext,
};
use ter_impute::RuleImputer;
use ter_stream::Arrival;
use ter_text::fxhash::{FxHashMap, FxHashSet};

use crate::merge::{merge_outcomes, RefineOutcome};
use crate::pool::{pool_channels, worker_loop, Pool};
use crate::stages::{
    apply_evict, apply_insert, eviction_schedule, impute_one, refine_slice, traverse_shards,
    ShardGrid, WorkerCtx,
};

/// Candidate sets smaller than this are refined on the driving thread
/// rather than fanned out to the pool: a barrier costs more than deciding
/// a few pairs. Result-invariant — both paths run the same
/// [`decide_pair`](ter_ids::decide_pair) cascade.
pub const REFINE_FANOUT_MIN: usize = 16;

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
}

impl Default for ExecConfig {
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Self::new(8, threads)
    }
}

impl ExecConfig {
    /// `shards` grid shards driven by `threads` threads.
    pub fn new(shards: usize, threads: usize) -> Self {
        Self { shards, threads }
    }
}

/// The sharded, batch-parallel TER-iDS engine. See the [module docs](self).
///
/// Like the sequential engine it dereferences to its [`LiveState`], which
/// holds the window, the metadata, the results and the `S` grid shards,
/// and provides the accessors and the state export and import.
pub struct ShardedTerIdsEngine<'a> {
    ctx: &'a TerContext,
    params: Params,
    mode: PruningMode,
    exec: ExecConfig,
    gamma: f64,
    imputer: RuleImputer<'a>,
    live: LiveState,
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
            imputer: ctx.indexed_imputer(params.impute),
            live: LiveState::new(d, params.window, params.grid_cells, exec.shards),
            metrics: StageMetrics::default(),
            name: match mode {
                PruningMode::Full => "TER-iDS(shard)",
                PruningMode::GridOnly => "Ij+GER(shard)",
            },
        }
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
            router: self.live.router(),
            pair: ter_ids::PairContext {
                keywords: &ctx.keywords,
                gamma: self.gamma,
                alpha: self.params.alpha,
                aux_counts: &ctx.aux_counts,
                mode: self.mode,
            },
        }
    }
}

impl Deref for ShardedTerIdsEngine<'_> {
    type Target = LiveState;

    fn deref(&self) -> &LiveState {
        &self.live
    }
}

impl DerefMut for ShardedTerIdsEngine<'_> {
    fn deref_mut(&mut self) -> &mut LiveState {
        &mut self.live
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

/// Runs a batch's impute stage and records it as one observation.
fn impute_stage<T>(batch: &[Arrival], impute: impl FnOnce() -> T) -> T {
    let t0 = ter_obs::timer();
    let per_arrival = impute();
    let impute_us = ter_obs::OBS.engine_impute_micros.observe_since(t0);
    ter_obs::flight(
        ter_obs::kind::IMPUTE,
        ter_obs::OBS.engine_batches.get(),
        batch.len() as u64,
        0,
        impute_us,
    );
    ter_obs::trace::add_current_elapsed(ter_obs::trace::kind::IMPUTE, impute_us);
    per_arrival
}

/// Adds the microseconds since an enabled [`ter_obs::timer`] to a local
/// stage accumulator (free when disabled).
fn lap(t0: Option<Instant>, acc: &mut u64) {
    if let Some(t0) = t0 {
        *acc += t0.elapsed().as_micros() as u64;
    }
}

/// The inline drive (`threads == 1`): every stage of every arrival runs
/// on the driving thread, over all shards, in arrival order.
fn drive_inline(eng: &mut ShardedTerIdsEngine<'_>, batch: &[Arrival]) -> Vec<StepOutput> {
    let wctx = eng.worker_ctx();
    let per_arrival: Vec<(Arc<TupleMeta>, PhaseTiming)> = impute_stage(batch, || {
        batch
            .iter()
            .map(|a| impute_one(&eng.imputer, eng.ctx, a))
            .collect()
    });
    let mut shards: Vec<(usize, ShardGrid)> =
        eng.live.take_shards().into_iter().enumerate().collect();
    let mut outputs = Vec::with_capacity(batch.len());
    let (mut traverse_us, mut refine_us, mut merge_us) = (0u64, 0u64, 0u64);
    // The previous arrival's tuple; inserted into the grid at the start
    // of the *next* step, preserving the sequential op order
    // insert(i) → evict(i+1) → traverse(i+1).
    let mut pending_insert: Option<Arc<TupleMeta>> = None;
    for (arrival, (meta, imp_timing)) in batch.iter().zip(&per_arrival) {
        let er_start = Instant::now();

        // ---- expiry (merge phase: window semantics unchanged) ----
        let mut t0 = ter_obs::timer();
        let (evicted, mut out) = eng.live.advance_window(arrival);
        lap(t0, &mut merge_us);

        // ---- traverse ----
        t0 = ter_obs::timer();
        if let Some(meta) = &pending_insert {
            apply_insert(&mut shards, wctx.router, meta);
        }
        if let Some(meta) = &evicted {
            apply_evict(&mut shards, wctx.router, meta);
        }
        let surfaced = traverse_shards(&shards, &wctx, meta);
        lap(t0, &mut traverse_us);

        // ---- refine (candidates in ascending-id order) ----
        t0 = ter_obs::timer();
        let cands = eng.live.candidate_metas(&surfaced);
        let examined = cands.len() as u64;
        let outcome = merge_outcomes([refine_slice(&wctx, meta, &cands)]);
        lap(t0, &mut refine_us);

        // ---- merge ----
        t0 = ter_obs::timer();
        out.new_matches = eng
            .live
            .finalize_arrival(Arc::clone(meta), examined, outcome);
        lap(t0, &mut merge_us);
        pending_insert = Some(Arc::clone(meta));

        let mut step_timing = *imp_timing;
        step_timing.er += er_start.elapsed();
        eng.live.accumulate_timing(&step_timing);
        out.timing = step_timing;
        outputs.push(out);
    }
    record_stage_batch(traverse_us, refine_us, merge_us, None);
    if let Some(meta) = pending_insert {
        apply_insert(&mut shards, wctx.router, &meta);
    }
    eng.live
        .restore_shards(shards.into_iter().map(|(_, g)| g).collect());
    outputs
}

/// Resolves a scheduled eviction to its metadata: an in-batch arrival
/// (it may expire before the batch ends) or a prior window resident.
fn scheduled_evict_meta(
    scheduled: Option<u64>,
    idx_of: &FxHashMap<u64, usize>,
    per_arrival: &[(Arc<TupleMeta>, PhaseTiming)],
    live: &LiveState,
) -> Option<Arc<TupleMeta>> {
    scheduled.map(|id| match idx_of.get(&id) {
        Some(&k) => Arc::clone(&per_arrival[k].0),
        None => Arc::clone(
            live.meta_arc(id)
                .expect("scheduled eviction of unknown tuple"),
        ),
    })
}

/// The pooled drive: one combined barrier per arrival. Arrival `i+1`'s
/// traverse (insert `i`, evict per the precomputed schedule, probe
/// `i+1`) is queued right after arrival `i`'s refine, so the workers flow
/// from refining `i` straight into traversing `i+1` while the driving
/// thread finalizes `i`. Grid op order and merge order are those of the
/// inline drive — only the waiting differs.
fn drive_pooled(
    eng: &mut ShardedTerIdsEngine<'_>,
    pool: &Pool,
    batch: &[Arrival],
) -> Vec<StepOutput> {
    eng.metrics.pooled_batches += 1;
    let wctx = eng.worker_ctx();
    let per_arrival: Vec<(Arc<TupleMeta>, PhaseTiming)> = impute_stage(batch, || {
        if batch.len() == 1 {
            vec![impute_one(&eng.imputer, eng.ctx, &batch[0])]
        } else {
            pool.impute_batch(batch)
        }
    });
    // Workers own disjoint shard groups for the whole batch (shard s →
    // worker s mod T), so each cell's op sequence is applied by exactly
    // one worker, in arrival order — identical to the monolithic grid.
    let shards = eng.live.take_shards();
    let shard_count = shards.len();
    let threads = pool.len();
    let mut groups: Vec<Vec<(usize, ShardGrid)>> = (0..threads).map(|_| Vec::new()).collect();
    for (sid, grid) in shards.into_iter().enumerate() {
        groups[sid % threads].push((sid, grid));
    }
    pool.begin(groups);

    let n = batch.len();
    let sched = eviction_schedule(eng.live.window(), batch);
    let idx_of: FxHashMap<u64, usize> = batch
        .iter()
        .enumerate()
        .map(|(i, a)| (a.record.id, i))
        .collect();

    // Prologue: arrival 0's traverse has no pending insert (the previous
    // batch's final insert was applied at its `End`).
    let ev0 = scheduled_evict_meta(sched[0], &idx_of, &per_arrival, &eng.live);
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
        let (evicted, mut out) = eng.live.advance_window(&batch[i]);
        debug_assert_eq!(
            evicted.as_ref().map(|m| m.id),
            sched[i],
            "eviction schedule diverged from the window"
        );
        lap(t0, &mut merge_us);

        // ---- candidate selection ----
        t0 = ter_obs::timer();
        let cands = eng.live.candidate_metas(&surfaced);
        let examined = cands.len() as u64;

        // ---- queue refine(i), then traverse(i+1), then wait once ----
        let fan_sent = if cands.len() >= REFINE_FANOUT_MIN {
            pool.send_refine(meta, &cands)
        } else {
            0
        };
        if i + 1 < n {
            let ev = scheduled_evict_meta(sched[i + 1], &idx_of, &per_arrival, &eng.live);
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
        out.new_matches = eng
            .live
            .finalize_arrival(Arc::clone(meta), examined, outcome);
        lap(t0, &mut merge_us);
        let mut step_timing = *imp_timing;
        step_timing.er += er_start.elapsed();
        eng.live.accumulate_timing(&step_timing);
        out.timing = step_timing;
        outputs.push(out);
    }
    record_stage_batch(traverse_us, refine_us, merge_us, Some(barrier_us));
    let last = Arc::clone(&per_arrival[n - 1].0);
    eng.live
        .restore_shards(pool.finish(Some(last), shard_count));
    outputs
}

/// An engine with a live pool session attached (see
/// [`ShardedTerIdsEngine::with_pool`]). Drives batches through the
/// persistent workers; between batches the full state lives in the
/// engine, so state export/import and every read accessor work
/// mid-session through [`PooledEngine::engine`].
pub struct PooledEngine<'s, 'a> {
    eng: &'s mut ShardedTerIdsEngine<'a>,
    pool: Option<Pool>,
}

impl<'a> PooledEngine<'_, 'a> {
    /// Read access to the underlying engine.
    pub fn engine(&self) -> &ShardedTerIdsEngine<'a> {
        self.eng
    }

    /// Phases 1–4 for one batch through the session's workers, one
    /// [`StepOutput`] per arrival in arrival order (the
    /// [`ErProcessor::step_batch`] contract).
    pub fn step_batch(&mut self, batch: &[Arrival]) -> Vec<StepOutput> {
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
        let outputs = match &self.pool {
            None => drive_inline(self.eng, batch),
            Some(pool) => drive_pooled(self.eng, pool, batch),
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
        self.with_pool(|pe| pe.step_batch(batch))
    }

    fn results(&self) -> &ResultSet {
        self.live.results()
    }

    fn reported(&self) -> &FxHashSet<(u64, u64)> {
        self.live.reported()
    }

    fn prune_stats(&self) -> PruneStats {
        self.live.prune_stats()
    }

    fn timing(&self) -> PhaseTiming {
        self.live.timing()
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
                let exec = ExecConfig::new(3, threads);
                let mut par =
                    ShardedTerIdsEngine::new(&ctx, Params::default(), PruningMode::Full, exec);
                let mut par_steps = Vec::new();
                for chunk in streams.arrival_batches(batch) {
                    par_steps.extend(par.step_batch(&chunk).into_iter().map(|o| o.new_matches));
                }
                let tag = format!("batch {batch}, threads {threads}");
                assert_eq!(par_steps, seq_steps, "{tag}");
                assert_eq!(par.prune_stats(), seq.prune_stats(), "{tag}");
                assert_eq!(par.live_ids(), seq.live_ids(), "{tag}");
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
            (steps, pe.engine().export_state())
        });
        let (p_steps, mid_session) = p_steps;
        assert_eq!(p_steps, t_steps);
        assert_eq!(mid_session, transient.export_state());
        assert_eq!(pooled.prune_stats(), transient.prune_stats());
        assert_eq!(pooled.export_state(), transient.export_state());
        assert_eq!(pooled.stage_metrics().pooled_batches, 2);
    }

    /// The instrumented barrier claim at preset scale: the pooled drive
    /// pays at most one barrier per arrival plus one prologue per batch,
    /// even though more arrivals fan their refine out than there are
    /// batches — a drive that waited on each fanned refine before queuing
    /// the next traverse would pay one barrier per arrival plus one per
    /// fanned refine. Results stay equal to the inline drive's. The grid
    /// walk's signature tests leave few candidates per arrival, so the
    /// scenario needs a large window for refines to fan out: 1,176
    /// arrivals at `w` = 600 give 37 batches and 95 fanned refines.
    #[test]
    fn pooled_drive_pays_one_barrier_per_arrival() {
        let ds = ter_datasets::preset(
            ter_datasets::Preset::Citations,
            &ter_datasets::GenOptions {
                scale: 1.2,
                missing_rate: 0.3,
                missing_attrs: 1,
                ..ter_datasets::GenOptions::default()
            },
        );
        let ctx = TerContext::build(
            ds.repo.clone(),
            ds.keywords(),
            &PivotConfig::default(),
            &DiscoveryConfig::default(),
            16,
        );
        let params = Params {
            window: 600,
            ..Params::default()
        };
        let arrivals = ds.streams.arrivals();
        let n = arrivals.len() as u64;
        let batch = 32;
        let batches = arrivals.len().div_ceil(batch) as u64;
        let run = |exec: ExecConfig| {
            let mut e = ShardedTerIdsEngine::new(&ctx, params, PruningMode::Full, exec);
            for chunk in arrivals.chunks(batch) {
                e.step_batch(chunk);
            }
            (e.stage_metrics(), e.export_state())
        };
        let (m, pooled) = run(ExecConfig::new(4, 3));
        assert!(
            m.fanned_refines > batches,
            "only {} of {n} arrivals fanned out a refine over {batches} batches",
            m.fanned_refines
        );
        assert!(
            m.er_barriers <= n + batches,
            "at most one barrier per arrival plus one prologue per batch \
             (got {} for {n} arrivals in {batches} batches)",
            m.er_barriers
        );
        assert_eq!(m.pooled_batches, batches);
        let (inline_metrics, inline) = run(ExecConfig::new(4, 1));
        assert_eq!(inline_metrics, StageMetrics::default());
        assert_eq!(pooled, inline, "the drives must agree");
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
    /// before the batch ends — the pooled drive's eviction schedule must
    /// resolve their metadata from the batch itself. Both drives (inline
    /// and pooled) must agree with the sequential engine.
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
        for threads in [1, 2] {
            let exec = ExecConfig::new(3, threads);
            let mut par = ShardedTerIdsEngine::new(&ctx, params, PruningMode::Full, exec);
            par.step_batch(&arrivals);
            assert_eq!(par.export_state(), seq.export_state(), "threads {threads}");
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
