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
//!    the entries of surviving cells are filtered in the same walk (other
//!    stream; possibly topical unless the probe is) into the sorted
//!    candidate id list ([`candidates::examined_ids`], lines 9, 14–25).
//! 4. **Pair pruning & refinement** — Theorems 4.1 → 4.2 → 4.3 in order,
//!    then Theorem 4.4 early-terminated exact refinement; survivors enter
//!    the result set (lines 15–26).

use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::time::Instant;

use ter_impute::{ImputeConfig, RuleImputer, RuleRetrieval};
use ter_repo::{DrIndex, PivotConfig, PivotTable, Repository};
use ter_rules::{detect_cdds, detect_dds, detect_editing_rules, Cdd, CddIndex, DiscoveryConfig};
use ter_stream::{Arrival, ProbTuple};
use ter_text::fxhash::FxHashSet;
use ter_text::KeywordSet;

use crate::candidates::{self, ErPayload};
use crate::live::LiveState;
use crate::meta::{AuxLayout, TupleMeta};
use crate::metrics::{PhaseTiming, PruneStats};
use crate::params::Params;
pub use crate::params::PruningMode;
use crate::refine::{decide_pair, PairContext, PairDecision, RefineOutcome};
use crate::results::{norm_pair, ResultSet};
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
///
/// Its dynamic state is a one-shard [`LiveState`], which it dereferences
/// to: the window, result and metadata accessors and
/// [`LiveState::export_state`] / [`LiveState::import_state`] are the
/// state's, shared with the sharded engine.
pub struct TerIdsEngine<'a> {
    ctx: &'a TerContext,
    params: Params,
    mode: PruningMode,
    gamma: f64,
    imputer: RuleImputer<'a>,
    live: LiveState,
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
            live: LiveState::new(d, params.window, params.grid_cells, 1),
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
}

impl Deref for TerIdsEngine<'_> {
    type Target = LiveState;

    fn deref(&self) -> &LiveState {
        &self.live
    }
}

impl DerefMut for TerIdsEngine<'_> {
    fn deref_mut(&mut self) -> &mut LiveState {
        &mut self.live
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
        let (evicted, mut out) = self.live.advance_window(arrival);
        if let Some(old) = evicted {
            self.live.shards[0].evict(&old.region(), &ErPayload::of(&old));
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
        // Cell pruning, the stream and Theorem 4.1 filters, and the bulk
        // attribution of never-examined pairs live in [`candidates`],
        // shared with the sharded engine.
        let gamma = self.gamma;
        let aux_counts = &self.ctx.aux_counts;
        let cands = candidates::examined_ids(&self.live.shards, &meta, gamma, aux_counts);
        let examined = cands.len() as u64;

        // ---- pair-level pruning + refinement ----
        let pair_ctx = PairContext {
            keywords: &self.ctx.keywords,
            gamma,
            alpha: self.params.alpha,
            aux_counts,
            mode: self.mode,
        };
        let mut outcome = RefineOutcome::default();
        for id in &cands {
            let other = &self.live.metas[id];
            match decide_pair(&meta, other, &pair_ctx) {
                PairDecision::SimPruned => outcome.sim += 1,
                PairDecision::ProbPruned => outcome.prob += 1,
                PairDecision::InstancePruned => outcome.instance += 1,
                PairDecision::Match => outcome.matches.push(norm_pair(meta.id, other.id)),
            }
        }
        // Candidates are examined in ascending-id order and pairs are
        // normalized, so a step's match list is a deterministic function
        // of the arrival order — directly comparable with the sharded
        // engine's merged output.
        outcome.matches.sort_unstable();

        // ---- register the new tuple (lines 11–13) ----
        self.live.shards[0].insert(meta.region(), ErPayload::of(&meta), meta.aggregate());
        out.new_matches = self
            .live
            .finalize_arrival(Arc::new(meta), examined, outcome);
        step_timing.er += t.elapsed();

        self.live.accumulate_timing(&step_timing);
        out.timing = step_timing;
        out
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

    /// The candidate definition, spelled out step by step instead of in
    /// one fused walk: every id held by a cell whose aggregate, re-merged
    /// here from the live metadata of its entries, survives cell-level
    /// pruning (topic, the cell's OR-merged signatures, pivot and size
    /// bounds), intersected with the live topical tuples unless the probe
    /// may be topical, minus the probe and its own stream, minus the
    /// tuples whose own signatures intersect the probe's in at most `γ`
    /// attributes. Kept here only as the reference for the test below.
    fn surfaced_then_filtered(engine: &TerIdsEngine<'_>, probe: &TupleMeta) -> Vec<u64> {
        let (metas, gamma) = (&engine.live.metas, engine.gamma);
        let mut surfaced: FxHashSet<u64> = FxHashSet::default();
        for (_, entries) in engine.live.shards[0].iter_cells() {
            let ids: Vec<u64> = entries.map(|e| e.payload.id).collect();
            let mut agg = metas[&ids[0]].aggregate();
            for id in &ids[1..] {
                ter_index::Aggregate::merge(&mut agg, &metas[id].aggregate());
            }
            if crate::pruning::cell_survives(probe, &agg, gamma, &engine.ctx.aux_counts) {
                surfaced.extend(ids);
            }
        }
        let topical_ids: FxHashSet<u64> = metas
            .values()
            .filter(|m| m.possibly_topical)
            .map(|m| m.id)
            .collect();
        let mut ids: Vec<u64> = if probe.possibly_topical {
            surfaced.iter().copied().collect()
        } else {
            topical_ids
                .iter()
                .copied()
                .filter(|id| surfaced.contains(id))
                .collect()
        };
        ids.sort_unstable();
        ids.into_iter()
            .filter(|&id| id != probe.id)
            .filter(|id| metas[id].stream_id != probe.stream_id)
            .filter(|id| crate::pruning::ub_sim_signature(probe, &metas[id]) > gamma)
            .collect()
    }

    /// A generated scenario over the unit tests' schema: a repository of
    /// 60 tuples and three streams of `n` tuples in total, titles and tags
    /// drawn from small vocabularies (so regions overlap and cells fill),
    /// a third of the stream tags missing. A title's first word fixes only
    /// two of three tags, so imputation yields several candidates and
    /// imputed regions span several cells; some tags are topical.
    fn generated_scenario(n: u64) -> (TerContext, StreamSet) {
        let schema = Schema::new(vec!["title", "tags"]);
        let mut dict = Dictionary::new();
        let titles = ["space", "cowboy", "adventure", "saga", "high", "school"];
        let tags = ["scifi", "western", "drama", "comedy", "food", "music"];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |m: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % m
        };
        let mut record = |id: u64, missing: bool, dict: &mut Dictionary| {
            // The title's first word fixes two of the three tags: a
            // dependency CDD discovery finds, with the third left to
            // chance.
            let lead = next(6);
            let title = format!("{} {}", titles[lead], titles[next(6)]);
            let tag = format!("{} {} {}", tags[lead], tags[(lead + 1) % 6], tags[next(6)]);
            let tag = (!missing).then_some(tag.as_str());
            Record::from_texts(&schema, id, &[Some(&title), tag], dict)
        };
        let repo_recs = (0..60)
            .map(|i| record(10_000 + i, false, &mut dict))
            .collect();
        let mut streams = vec![Vec::new(), Vec::new(), Vec::new()];
        for id in 0..n {
            streams[(id % 3) as usize].push(record(id, id % 3 == 1, &mut dict));
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
        (ctx, StreamSet::new(streams))
    }

    /// The grid-driven candidate list equals the step-by-step definition
    /// at every step, and O(streams) pair accounting equals the old walk
    /// over the topical inverted list.
    #[test]
    fn grid_driven_candidates_equal_surfaced_then_filtered() {
        let (ctx, streams) = generated_scenario(240);
        for grid_cells in [2u16, 5] {
            let params = Params {
                window: 30,
                grid_cells,
                ..Params::default()
            };
            let mut engine = TerIdsEngine::new(&ctx, params, PruningMode::Full);
            let (mut nonempty, mut spanning) = (0, 0);
            for a in streams.arrivals() {
                let pt = if a.record.is_complete() {
                    ProbTuple::certain(a.record.clone())
                } else {
                    let rules = engine.imputer.select_rules(&a.record);
                    engine.imputer.impute_with_rules(&a.record, &rules)
                };
                let probe = TupleMeta::build(
                    a.record.id,
                    a.stream_id,
                    a.timestamp,
                    pt,
                    &ctx.pivots,
                    &ctx.layout,
                    &ctx.keywords,
                );
                // Expire first, as `process` does, so both definitions
                // see the window the probe is matched against.
                let mut shadow = TerIdsEngine::new(&ctx, params, PruningMode::Full);
                shadow.import_state(&engine.export_state()).unwrap();
                if let (Some(old), _) = shadow.live.advance_window(&a) {
                    shadow.live.shards[0].evict(&old.region(), &ErPayload::of(&old));
                }
                let expect = surfaced_then_filtered(&shadow, &probe);
                let got = candidates::examined_ids(
                    &shadow.live.shards,
                    &probe,
                    shadow.gamma,
                    &ctx.aux_counts,
                );
                assert_eq!(got, expect, "arrival {}", a.record.id);
                nonempty += usize::from(!got.is_empty());

                let mut old = PruneStats::default();
                let topical_other = shadow
                    .live
                    .metas
                    .values()
                    .filter(|m| m.possibly_topical && m.stream_id != probe.stream_id)
                    .count() as u64;
                let eligible: u64 = shadow
                    .live
                    .metas
                    .values()
                    .filter(|m| m.stream_id != probe.stream_id)
                    .count() as u64;
                let examined = got.len() as u64;
                old.total_pairs = eligible;
                if probe.possibly_topical {
                    old.sim = eligible - examined;
                } else {
                    old.topic = eligible - topical_other;
                    old.sim = topical_other - examined;
                }
                let mut new = PruneStats::default();
                candidates::account_pairs(&probe, examined, &shadow.live.counts, &mut new);
                assert_eq!(new, old, "arrival {}", a.record.id);

                engine.process(&a);
                spanning =
                    spanning.max(engine.live.shards[0].cell_entry_count() - engine.window_len());
            }
            assert!(nonempty > 100, "only {nonempty} arrivals had candidates");
            assert!(spanning > 0, "no region spans two cells");
        }
    }

    /// Snapshots written before cells kept window order may list a
    /// cell's ids in any order. Import puts them back in window order, so
    /// the restored cells evict oldest-first and the run continues
    /// exactly as the uninterrupted one.
    #[test]
    fn import_restores_window_order_of_scrambled_cells() {
        let (ctx, streams) = generated_scenario(120);
        let arrivals = streams.arrivals();
        let params = Params {
            window: 25,
            grid_cells: 2,
            ..Params::default()
        };
        let mut oracle = TerIdsEngine::new(&ctx, params, PruningMode::Full);
        for a in &arrivals[..60] {
            oracle.process(a);
        }
        let mut scrambled = oracle.export_state();
        assert!(scrambled.cells.iter().any(|(_, ids)| ids.len() > 2));
        for (_, ids) in &mut scrambled.cells {
            ids.reverse();
        }
        let mut restored = TerIdsEngine::new(&ctx, params, PruningMode::Full);
        restored.import_state(&scrambled).unwrap();
        assert_eq!(restored.export_state(), oracle.export_state());
        for a in &arrivals[60..] {
            assert_eq!(
                restored.process(a).new_matches,
                oracle.process(a).new_matches
            );
        }
        assert_eq!(restored.export_state(), oracle.export_state());
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
