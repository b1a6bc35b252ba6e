//! The TER-iDS processing engine (Algorithms 1 and 2).
//!
//! Per arriving tuple:
//!
//! 1. **Expiry** — the tuple leaving the window is evicted from the
//!    ER-grid and its pairs removed from the result set (lines 2–7).
//! 2. **Imputation** — applicable CDD rules are selected through the
//!    CDD-indexes, matching samples retrieved through the DR-index, and
//!    the imputed probabilistic tuple assembled (line 9's
//!    `I_j ⋈ I_R` side; both phases timed separately for Figure 6).
//! 3. **Candidate retrieval** — the ER-grid is traversed with cell-level
//!    topic/similarity pruning (the `⋈ G_ER` side of the 3-way join);
//!    surviving cells surface candidate tuples (lines 9, 14–25).
//! 4. **Pair pruning & refinement** — Theorems 4.1 → 4.2 → 4.3 in order,
//!    then Theorem 4.4 early-terminated exact refinement; survivors enter
//!    the result set (lines 15–26).

use std::time::Instant;

use ter_impute::{ImputeConfig, RuleImputer, RuleRetrieval};
use ter_index::RegionGrid;
use ter_repo::{DrIndex, PivotConfig, PivotTable, Repository};
use ter_rules::{detect_cdds, detect_dds, detect_editing_rules, Cdd, CddIndex, DiscoveryConfig};
use ter_stream::{Arrival, ProbTuple, SlidingWindow};
use ter_text::fxhash::{FxHashMap, FxHashSet};
use ter_text::KeywordSet;

use crate::candidates;
use crate::meta::{AuxLayout, ErAggregate, TupleMeta};
use crate::metrics::{PhaseTiming, PruneStats};
use crate::params::Params;
pub use crate::params::PruningMode;
use crate::pruning;
use crate::refine::{decide_pair, PairContext, PairDecision};
use crate::results::{norm_pair, ResultSet};
use crate::state::EngineState;
use crate::ErProcessor;

/// Everything built in the offline pre-computation phase (Algorithm 1
/// lines 1–4): pivots, rules (CDD + the baselines' DD/editing rules),
/// CDD-indexes, and the DR-index. Engines borrow from one context, so one
/// dataset's pre-computation is shared across all compared methods.
pub struct TerContext {
    /// The static complete repository `R`.
    pub repo: Repository,
    /// Selected pivots (§5.4).
    pub pivots: PivotTable,
    /// Auxiliary-pivot slot layout.
    pub layout: AuxLayout,
    /// Auxiliary-pivot counts per attribute (pruning input).
    pub aux_counts: Vec<usize>,
    /// Discovered CDD rules.
    pub cdds: Vec<Cdd>,
    /// Discovered DD rules (for the `DD+ER` baseline).
    pub dds: Vec<Cdd>,
    /// Discovered editing rules (for the `er+ER` baseline).
    pub editing_rules: Vec<Cdd>,
    /// One CDD-index `I_j` per attribute.
    pub cdd_indexes: Vec<CddIndex>,
    /// The DR-index `I_R`.
    pub dr_index: DrIndex,
    /// Query topic keywords `K`.
    pub keywords: KeywordSet,
}

impl TerContext {
    /// Runs the offline pre-computation phase. `fanout` is passed on to
    /// [`DrIndex::build`], which ignores it.
    pub fn build(
        repo: Repository,
        keywords: KeywordSet,
        pivot_cfg: &PivotConfig,
        discovery_cfg: &DiscoveryConfig,
        fanout: usize,
    ) -> Self {
        let pivots = PivotTable::select(&repo, pivot_cfg);
        let layout = AuxLayout::new(&pivots);
        let aux_counts = (0..pivots.arity()).map(|j| pivots.aux_count(j)).collect();
        let cdds = detect_cdds(&repo, discovery_cfg);
        let dds = detect_dds(&repo, discovery_cfg);
        let editing_rules = detect_editing_rules(&repo, discovery_cfg);
        let d = repo.schema().arity();
        let cdd_indexes = (0..d).map(|j| CddIndex::build(j, &cdds, &pivots)).collect();
        let dr_index = DrIndex::build(&repo, &pivots, &keywords, fanout);
        Self {
            repo,
            pivots,
            layout,
            aux_counts,
            cdds,
            dds,
            editing_rules,
            cdd_indexes,
            dr_index,
            keywords,
        }
    }

    /// Arity `d` of the schema.
    pub fn arity(&self) -> usize {
        self.repo.schema().arity()
    }

    /// Builds the CDD-indexed rule imputer that every TER-iDS engine
    /// (sequential or sharded) drives over this context. Imputation is a
    /// pure function of the context and the arriving record, which is what
    /// lets the batch-parallel engine impute a whole batch concurrently
    /// while staying bit-identical to the sequential engine.
    pub fn indexed_imputer(&self, cfg: ImputeConfig) -> RuleImputer<'_> {
        RuleImputer::new(
            "CDD-indexed",
            &self.repo,
            &self.pivots,
            &self.cdds,
            RuleRetrieval::Indexed {
                cdd_indexes: &self.cdd_indexes,
                dr_index: &self.dr_index,
            },
            cfg,
        )
    }
}

/// Output of processing one arrival.
///
/// Together, `new_matches` / `retractions` / `expired` are the step's
/// **window delta**: folding them over any prior state reproduces the
/// engine's live result set and window membership exactly. The standing
/// query layer subscribes to this stream and must stay bit-identical to
/// a from-scratch evaluation after every step, so all three lists are
/// deterministic functions of the arrival order — identical across the
/// sequential and sharded engines.
#[derive(Debug, Clone, Default)]
pub struct StepOutput {
    /// Pairs newly reported at this timestamp, `(min, max)`-normalized and
    /// sorted — identical across the sequential and sharded engines.
    pub new_matches: Vec<(u64, u64)>,
    /// Pairs removed from the live result set by this step's expiry,
    /// `(min, max)`-normalized and sorted.
    pub retractions: Vec<(u64, u64)>,
    /// Tuples the window evicted at this step (at most one under the
    /// count-based window).
    pub expired: Vec<u64>,
    /// Phase timing of this step.
    pub timing: PhaseTiming,
}

/// The TER-iDS engine. See the [module docs](self).
pub struct TerIdsEngine<'a> {
    ctx: &'a TerContext,
    params: Params,
    mode: PruningMode,
    gamma: f64,
    imputer: RuleImputer<'a>,
    grid: RegionGrid<u64, ErAggregate>,
    window: SlidingWindow<u64>,
    metas: FxHashMap<u64, TupleMeta>,
    /// Live tuple count per stream (for O(1) candidate-pair accounting).
    stream_counts: Vec<usize>,
    /// Live tuples with `possibly_topical = true` — the inverted list
    /// realizing Theorem 4.1: a non-topical arrival can only match a
    /// topical counterpart, so only this (small) set is ever examined.
    topical_ids: FxHashSet<u64>,
    results: ResultSet,
    reported: FxHashSet<(u64, u64)>,
    stats: PruneStats,
    timing: PhaseTiming,
    name: &'static str,
}

impl<'a> TerIdsEngine<'a> {
    /// Creates an engine over a prebuilt context.
    pub fn new(ctx: &'a TerContext, params: Params, mode: PruningMode) -> Self {
        params.validate().expect("invalid parameters");
        let d = ctx.arity();
        let imputer = ctx.indexed_imputer(params.impute);
        Self {
            ctx,
            params,
            mode,
            gamma: params.gamma(d),
            imputer,
            grid: RegionGrid::new(d, params.grid_cells),
            window: SlidingWindow::new(params.window),
            metas: FxHashMap::default(),
            stream_counts: Vec::new(),
            topical_ids: FxHashSet::default(),
            results: ResultSet::new(),
            reported: FxHashSet::default(),
            stats: PruneStats::default(),
            timing: PhaseTiming::default(),
            name: match mode {
                PruningMode::Full => "TER-iDS",
                PruningMode::GridOnly => "Ij+GER",
            },
        }
    }

    /// The similarity threshold `γ = ρ · d` in use.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Number of unexpired tuples.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Window capacity `w`.
    pub fn window_capacity(&self) -> usize {
        self.params.window
    }

    /// Metadata of a live tuple.
    pub fn meta(&self, id: u64) -> Option<&TupleMeta> {
        self.metas.get(&id)
    }

    /// Ids of the unexpired tuples, ascending (for differential tests
    /// against the batch-parallel engine).
    pub fn live_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.metas.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Snapshots the engine's dynamic state in the canonical
    /// [`EngineState`] representation (window order, sorted pairs, sorted
    /// cell keys). The sharded engine exports an *equal* state at the same
    /// stream position, so checkpoints are portable across engines.
    pub fn export_state(&self) -> EngineState {
        let window: Vec<(u64, u64)> = self.window.iter().map(|(t, id)| (t, *id)).collect();
        let metas = window
            .iter()
            .map(|(_, id)| self.metas[id].clone())
            .collect();
        let mut results: Vec<(u64, u64)> = self.results.iter().collect();
        results.sort_unstable();
        let mut reported: Vec<(u64, u64)> = self.reported.iter().copied().collect();
        reported.sort_unstable();
        let mut cells: Vec<(ter_index::CellKey, Vec<u64>)> = self
            .grid
            .iter_cells()
            .map(|(k, entries)| (k.clone(), entries.iter().map(|e| e.payload).collect()))
            .collect();
        cells.sort_by(|(a, _), (b, _)| a.cmp(b));
        EngineState {
            window_capacity: self.params.window,
            grid_cells: self.params.grid_cells,
            window,
            metas,
            stream_counts: self.stream_counts.clone(),
            results,
            reported,
            stats: self.stats,
            cells,
        }
    }

    /// Replaces the engine's dynamic state with a validated snapshot
    /// (recovery: load the newest checkpoint, then replay the WAL suffix
    /// through [`ErProcessor::step_batch`]). The static context, params,
    /// and pruning mode stay as constructed; phase timings restart at zero
    /// (wall clock is not recoverable state). On `Err` the engine is left
    /// untouched — the recovery path must never panic or half-apply.
    pub fn import_state(&mut self, state: &EngineState) -> Result<(), String> {
        let d = self.ctx.arity();
        state.validate(d, self.params.window, self.params.grid_cells)?;
        let mut metas: FxHashMap<u64, TupleMeta> = FxHashMap::default();
        let mut topical_ids: FxHashSet<u64> = FxHashSet::default();
        for meta in &state.metas {
            if meta.possibly_topical {
                topical_ids.insert(meta.id);
            }
            metas.insert(meta.id, meta.clone());
        }
        let mut grid = RegionGrid::new(d, self.params.grid_cells);
        for (key, ids) in &state.cells {
            for id in ids {
                let meta = &metas[id];
                grid.insert_at([key.clone()], &meta.region(), *id, meta.aggregate());
            }
        }
        let mut window = SlidingWindow::new(self.params.window);
        for &(ts, id) in &state.window {
            // validate() bounds the length by the capacity and checks
            // monotonic timestamps, so no push can evict or assert.
            window.push(ts, id);
        }
        let mut results = ResultSet::new();
        for &(a, b) in &state.results {
            results.insert(a, b);
        }
        self.grid = grid;
        self.window = window;
        self.metas = metas;
        self.stream_counts = state.stream_counts.clone();
        self.topical_ids = topical_ids;
        self.results = results;
        self.reported = state.reported.iter().copied().collect();
        self.stats = state.stats;
        self.timing = PhaseTiming::default();
        Ok(())
    }

    /// Evicts the expired tuple from grid, metadata, and result set;
    /// returns the live pairs the eviction dropped, normalized and sorted
    /// (the step's retraction delta).
    fn expire(&mut self, old_id: u64) -> Vec<(u64, u64)> {
        if let Some(meta) = self.metas.remove(&old_id) {
            self.grid.evict(&meta.region(), &old_id);
            let removed = self.results.remove_involving(old_id);
            self.stream_counts[meta.stream_id] -= 1;
            self.topical_ids.remove(&old_id);
            removed
        } else {
            Vec::new()
        }
    }

    /// Cell keys currently holding at least one live tuple, with their
    /// entry counts — the density statistic the query planner's greedy
    /// join-order heuristic reads instead of maintaining histograms.
    pub fn cell_entry_counts(&self) -> Vec<usize> {
        self.grid
            .iter_cells()
            .map(|(_, entries)| entries.len())
            .collect()
    }

    /// Live tuple count per stream id.
    pub fn stream_tuple_counts(&self) -> &[usize] {
        &self.stream_counts
    }

    /// Number of live tuples currently flagged possibly-topical.
    pub fn topical_count(&self) -> usize {
        self.topical_ids.len()
    }
}

impl ErProcessor for TerIdsEngine<'_> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn process(&mut self, arrival: &Arrival) -> StepOutput {
        let mut step_timing = PhaseTiming {
            arrivals: 1,
            ..PhaseTiming::default()
        };

        // ---- expiry (Algorithm 2 lines 2–7) ----
        let er_start = Instant::now();
        let mut retractions = Vec::new();
        let mut expired = Vec::new();
        if let Some((_, old_id)) = self.window.push(arrival.timestamp, arrival.record.id) {
            expired.push(old_id);
            retractions = self.expire(old_id);
        }
        step_timing.er += er_start.elapsed();

        // ---- imputation (line 9, the I_j ⋈ I_R side) ----
        let pt = if arrival.record.is_complete() {
            ProbTuple::certain(arrival.record.clone())
        } else {
            let t = Instant::now();
            let selected = self.imputer.select_rules(&arrival.record);
            step_timing.rule_selection += t.elapsed();
            let t = Instant::now();
            let pt = self.imputer.impute_with_rules(&arrival.record, &selected);
            step_timing.imputation += t.elapsed();
            pt
        };
        let t = Instant::now();
        let meta = TupleMeta::build(
            arrival.record.id,
            arrival.stream_id,
            arrival.timestamp,
            pt,
            &self.ctx.pivots,
            &self.ctx.layout,
            &self.ctx.keywords,
        );

        // ---- candidate retrieval through the ER-grid ----
        let gamma = self.gamma;
        let aux_counts = &self.ctx.aux_counts;
        let mut surfaced: FxHashSet<u64> = FxHashSet::default();
        self.grid.traverse(
            |_rect, agg| pruning::cell_survives(&meta, agg, gamma, aux_counts),
            |entry| {
                surfaced.insert(entry.payload);
            },
        );

        // ---- pair-level pruning + refinement ----
        // Candidate pairs = live tuples of *other* streams (the problem
        // statement pairs tuples "from two of n data streams"); selection,
        // Theorem 4.1's inverted list, and the bulk attribution of pairs
        // in pruned-out cells live in [`candidates`], shared with the
        // sharded engine.
        let cands =
            candidates::examined_candidates(&meta, &surfaced, &self.topical_ids, &self.metas);
        let examined = cands.len() as u64;

        let pair_ctx = PairContext {
            keywords: &self.ctx.keywords,
            gamma,
            alpha: self.params.alpha,
            aux_counts,
            mode: self.mode,
        };
        let mut new_matches = Vec::new();
        for other in cands {
            match decide_pair(&meta, other, &pair_ctx) {
                PairDecision::SimPruned => self.stats.sim += 1,
                PairDecision::ProbPruned => self.stats.prob += 1,
                PairDecision::InstancePruned => self.stats.instance += 1,
                PairDecision::Match => {
                    self.stats.matches += 1;
                    new_matches.push(norm_pair(meta.id, other.id));
                }
            }
        }
        candidates::account_pairs(
            &meta,
            examined,
            &self.stream_counts,
            &self.topical_ids,
            &self.metas,
            &mut self.stats,
        );
        // Candidates are examined in ascending-id order and pairs are
        // normalized, so a step's match list is a deterministic function
        // of the arrival order — directly comparable with the sharded
        // engine's merged output.
        new_matches.sort_unstable();
        for &(a, b) in &new_matches {
            self.results.insert(a, b);
            self.reported.insert((a, b));
        }

        // ---- register the new tuple (lines 11–13) ----
        self.grid.insert(meta.region(), meta.id, meta.aggregate());
        if self.stream_counts.len() <= meta.stream_id {
            self.stream_counts.resize(meta.stream_id + 1, 0);
        }
        self.stream_counts[meta.stream_id] += 1;
        if meta.possibly_topical {
            self.topical_ids.insert(meta.id);
        }
        let prev = self.metas.insert(meta.id, meta);
        assert!(prev.is_none(), "duplicate tuple id {}", arrival.record.id);
        step_timing.er += t.elapsed();

        self.timing.accumulate(&step_timing);
        StepOutput {
            new_matches,
            retractions,
            expired,
            timing: step_timing,
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use ter_repo::{Record, Schema};
    use ter_stream::StreamSet;
    use ter_text::Dictionary;

    /// Builds a small 2-stream scenario with an obvious match.
    fn scenario() -> (TerContext, StreamSet, Dictionary) {
        let schema = Schema::new(vec!["title", "tags"]);
        let mut dict = Dictionary::new();
        let mut repo_recs = Vec::new();
        // Near-duplicate repository pairs so that discovery finds a tight
        // title→tags rule (close titles ⇒ identical tags).
        let repo_rows = [
            ("space cowboy adventure", "scifi western"),
            ("space cowboy adventure saga", "scifi western"),
            ("high school romance", "drama comedy"),
            ("high school romance club", "drama comedy"),
            ("cooking master", "comedy food"),
            ("idol music live", "music idol"),
        ];
        for (i, (a, b)) in repo_rows.iter().enumerate() {
            repo_recs.push(Record::from_texts(
                &schema,
                1000 + i as u64,
                &[Some(a), Some(b)],
                &mut dict,
            ));
        }
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

        // Stream A and stream B share one entity ("space cowboy adventure").
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
        (ctx, StreamSet::new(vec![s0, s1]), dict)
    }

    #[test]
    fn finds_the_obvious_cross_stream_match() {
        let (ctx, streams, _) = scenario();
        let mut engine = TerIdsEngine::new(&ctx, Params::default(), PruningMode::Full);
        let mut all = Vec::new();
        for a in streams.arrivals() {
            all.extend(engine.process(&a).new_matches);
        }
        assert!(all.contains(&(1, 2)), "matches: {all:?}");
        // The non-topical cooking/idol tuples must not match anything.
        assert_eq!(all.len(), 1);
        assert!(engine.results().contains(1, 2));
    }

    #[test]
    fn grid_only_mode_agrees_on_results() {
        let (ctx, streams, _) = scenario();
        let mut full = TerIdsEngine::new(&ctx, Params::default(), PruningMode::Full);
        let mut grid_only = TerIdsEngine::new(&ctx, Params::default(), PruningMode::GridOnly);
        for a in streams.arrivals() {
            full.process(&a);
            grid_only.process(&a);
        }
        let mut r1: Vec<_> = full.reported().iter().copied().collect();
        let mut r2: Vec<_> = grid_only.reported().iter().copied().collect();
        r1.sort_unstable();
        r2.sort_unstable();
        assert_eq!(r1, r2);
    }

    #[test]
    fn expiry_removes_results() {
        let (ctx, streams, _) = scenario();
        let params = Params {
            window: 2,
            ..Params::default()
        };
        let mut engine = TerIdsEngine::new(&ctx, params, PruningMode::Full);
        let arrivals = streams.arrivals();
        // t0: tuple 1 (s0), t1: tuple 2 (s1) → match (1,2) with w=2.
        engine.process(&arrivals[0]);
        engine.process(&arrivals[1]);
        assert!(engine.results().contains(1, 2));
        // t2: tuple 3 arrives, tuple 1 expires → pair (1,2) leaves ES.
        engine.process(&arrivals[2]);
        assert!(!engine.results().contains(1, 2));
        // But it stays in the reported history.
        assert!(engine.reported().contains(&(1, 2)));
        assert_eq!(engine.window_len(), 2);
    }

    #[test]
    fn incomplete_tuple_is_imputed_and_matched() {
        let (ctx, _, mut dict) = scenario();
        let schema = Schema::new(vec!["title", "tags"]);
        // Tags missing — imputation from the repository should still let it
        // match its complete twin (repo contains the same entity).
        let s0 = vec![Record::from_texts(
            &schema,
            1,
            &[Some("space cowboy adventure"), Some("scifi western")],
            &mut dict,
        )];
        let s1 = vec![Record::from_texts(
            &schema,
            2,
            &[Some("space cowboy adventure"), None],
            &mut dict,
        )];
        let streams = StreamSet::new(vec![s0, s1]);
        let params = Params {
            rho: 0.55, // γ = 1.1: title match alone (1.0) is not enough
            ..Params::default()
        };
        let mut engine = TerIdsEngine::new(&ctx, params, PruningMode::Full);
        let mut all = Vec::new();
        for a in streams.arrivals() {
            all.extend(engine.process(&a).new_matches);
        }
        assert!(
            all.contains(&(1, 2)),
            "imputed tuple failed to match: {all:?}"
        );
    }

    #[test]
    fn stats_account_for_every_pair() {
        let (ctx, streams, _) = scenario();
        let mut engine = TerIdsEngine::new(&ctx, Params::default(), PruningMode::Full);
        for a in streams.arrivals() {
            engine.process(&a);
        }
        let s = engine.prune_stats();
        assert_eq!(
            s.topic + s.sim + s.prob + s.instance + s.matches,
            s.total_pairs,
            "stats must partition the candidate pairs: {s:?}"
        );
        assert!(s.total_pairs > 0);
    }

    #[test]
    fn timing_is_recorded() {
        let (ctx, streams, _) = scenario();
        let mut engine = TerIdsEngine::new(&ctx, Params::default(), PruningMode::Full);
        for a in streams.arrivals() {
            engine.process(&a);
        }
        let t = engine.timing();
        assert_eq!(t.arrivals, 4);
        assert!(t.total().as_nanos() > 0);
    }

    /// Export at every prefix, import into a fresh engine, continue — the
    /// restored run must be bit-identical to the uninterrupted one.
    #[test]
    fn state_round_trip_resumes_identically() {
        let (ctx, streams, _) = scenario();
        let params = Params {
            window: 2, // small window so cuts straddle eviction boundaries
            ..Params::default()
        };
        let arrivals = streams.arrivals();
        let mut oracle = TerIdsEngine::new(&ctx, params, PruningMode::Full);
        let oracle_steps: Vec<Vec<(u64, u64)>> = arrivals
            .iter()
            .map(|a| oracle.process(a).new_matches)
            .collect();
        for cut in 0..arrivals.len() {
            let mut first = TerIdsEngine::new(&ctx, params, PruningMode::Full);
            for a in &arrivals[..cut] {
                first.process(a);
            }
            let state = first.export_state();
            let mut second = TerIdsEngine::new(&ctx, params, PruningMode::Full);
            second.import_state(&state).unwrap();
            assert_eq!(second.export_state(), state, "cut {cut}: re-export drifted");
            for (i, a) in arrivals[cut..].iter().enumerate() {
                assert_eq!(
                    second.process(a).new_matches,
                    oracle_steps[cut + i],
                    "cut {cut}: step {} diverged",
                    cut + i
                );
            }
            assert_eq!(second.export_state(), oracle.export_state(), "cut {cut}");
        }
    }

    #[test]
    fn import_rejects_mismatched_window() {
        let (ctx, streams, _) = scenario();
        let mut engine = TerIdsEngine::new(&ctx, Params::default(), PruningMode::Full);
        for a in streams.arrivals() {
            engine.process(&a);
        }
        let state = engine.export_state();
        let mut other = TerIdsEngine::new(
            &ctx,
            Params {
                window: 7,
                ..Params::default()
            },
            PruningMode::Full,
        );
        assert!(other.import_state(&state).is_err());
        // A different grid resolution is refused too — the persisted cell
        // keys would land in wrong rectangles.
        let mut coarse = TerIdsEngine::new(
            &ctx,
            Params {
                grid_cells: 11,
                ..Params::default()
            },
            PruningMode::Full,
        );
        assert!(coarse.import_state(&state).is_err());
        // The failed import must leave the engine untouched and usable.
        assert_eq!(other.window_len(), 0);
        for a in streams.arrivals() {
            other.process(&a);
        }
        assert!(other.results().contains(1, 2));
    }
}
