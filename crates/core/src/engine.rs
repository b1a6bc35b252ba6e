//! The TER-iDS processing engine (Algorithms 1 and 2).
//!
//! Per arriving tuple:
//!
//! 1. **Imputation** (`TerIdsEngine::impute`) — applicable CDD rules
//!    are selected through the CDD-indexes, matching samples retrieved
//!    through the DR-index, and the imputed probabilistic tuple assembled
//!    (line 9's `I_j ⋈ I_R` side; both phases timed separately for
//!    Figure 6). A pure function of the context and the record.
//! 2. **Expiry** — the tuple leaving the window is popped from its
//!    candidate list and its pairs removed from the result set (lines
//!    2–7).
//! 3. **Candidate retrieval** — the other streams' candidate lists are
//!    scanned (the `⋈ G_ER` side of the 3-way join, with per-stream
//!    signature lists in place of the paper's ER-grid): only the topical
//!    lists unless the probe may be topical, and only entries whose token
//!    signatures pass Theorem 4.2's signature bound, into the sorted
//!    candidate id list
//!    ([`CandidateLists::examined_ids`](crate::candidates::CandidateLists::examined_ids),
//!    lines 9, 14–25).
//! 4. **Pair pruning & refinement** — Theorems 4.1 → 4.2 → 4.3 in order,
//!    then Theorem 4.4 early-terminated exact refinement; survivors enter
//!    the result set (lines 15–26).
//! 5. **Insert and finalize** — the new tuple joins its candidate list,
//!    and the statistics, results and reported history take its step.
//!
//! Steps 2–5 are one function, `TerIdsEngine::step_imputed`. Both drives
//! run it: [`ErProcessor::process`] imputes and steps one arrival, and
//! [`ErProcessor::step_batch`] imputes a whole batch first (imputation
//! reads only the static context, so imputing ahead of the batch's
//! expiries changes nothing), then steps each arrival in turn. The two
//! report the same outputs arrival for arrival.
//!
//! Only the batched drive is instrumented. Per batch, it records the
//! impute, traverse, refine and merge wall times and the whole step once
//! each as `ter_obs` events; the kind table routes them to the
//! histograms, the flight recorder and the batch's causal trace. A batch
//! with no trace attached (library mode) roots its own and closes it
//! after the `STEP` event. `process` records nothing.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ter_impute::{ImputeConfig, RuleImputer, RuleRetrieval};
use ter_obs::kind;
use ter_repo::{DrIndex, PivotConfig, PivotTable, Repository};
use ter_rules::{detect_cdds, detect_dds, detect_editing_rules, Cdd, CddIndex, DiscoveryConfig};
use ter_stream::{Arrival, ProbTuple};
use ter_text::fxhash::FxHashSet;
use ter_text::KeywordSet;

use crate::live::LiveState;
use crate::meta::{AuxLayout, TupleMeta};
use crate::metrics::{PhaseTiming, PruneStats};
use crate::params::Params;
pub use crate::params::PruningMode;
use crate::refine::{decide_pair, PairContext, PairDecision, RefineOutcome};
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

    /// Builds the CDD-indexed rule imputer that the TER-iDS engine drives
    /// over this context. Imputation is a pure function of the context and
    /// the arriving record, so [`ErProcessor::step_batch`] may impute a
    /// whole batch before it steps the batch's first arrival and still
    /// report what one-at-a-time processing reports.
    pub fn indexed_imputer(&self, cfg: ImputeConfig) -> RuleImputer<'_> {
        RuleImputer::new(
            "CDD-indexed",
            &self.repo,
            &self.cdds,
            RuleRetrieval::Indexed {
                cdd_indexes: &self.cdd_indexes,
                dr_index: &self.dr_index,
            },
            cfg,
        )
    }
}

/// Wall time of the ER stages of `TerIdsEngine::step_imputed`,
/// accumulated over the arrivals it is passed for: the candidate scan
/// (`traverse`), the pair cascade (`refine`), and the expiry plus the
/// insert and bookkeeping of the new tuple (`merge`).
#[derive(Debug, Clone, Copy, Default)]
struct StageLaps {
    traverse: Duration,
    refine: Duration,
    merge: Duration,
}

/// Output of processing one arrival.
///
/// Together, `new_matches` / `retractions` / `expired` are the step's
/// **window delta**: folding them over any prior state reproduces the
/// engine's live result set and window membership exactly. The standing
/// query layer subscribes to this stream and must stay bit-identical to
/// a from-scratch evaluation after every step, so all three lists are
/// deterministic functions of the arrival order — identical whether the
/// engine is driven one arrival or one batch at a time.
#[derive(Debug, Clone, Default)]
pub struct StepOutput {
    /// Pairs newly reported at this timestamp, `(min, max)`-normalized and
    /// sorted.
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
/// Its dynamic state is a [`LiveState`], which it dereferences to: the
/// window, result and metadata accessors and
/// [`LiveState::export_state`] are the state's. Import
/// ([`TerIdsEngine::import_state`]) is the engine's, because it rebuilds
/// each live tuple's metadata from the context.
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
            live: LiveState::new(d, params.window),
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

    /// Imputes `arrival` and derives its [`TupleMeta`], reading only the
    /// static context. The returned timing counts one arrival, its rule
    /// selection and imputation, and the metadata derivation as ER time.
    fn impute(&self, arrival: &Arrival) -> (Arc<TupleMeta>, PhaseTiming) {
        let mut timing = PhaseTiming {
            arrivals: 1,
            ..PhaseTiming::default()
        };
        let pt = if arrival.record.is_complete() {
            ProbTuple::certain(arrival.record.clone())
        } else {
            let t = Instant::now();
            let selected = self.imputer.select_rules(&arrival.record);
            timing.rule_selection += t.elapsed();
            let t = Instant::now();
            let pt = self.imputer.impute_with_rules(&arrival.record, &selected);
            timing.imputation += t.elapsed();
            pt
        };
        let t = Instant::now();
        let meta = self.derive_meta(arrival.timestamp, arrival.stream_id, pt);
        timing.er += t.elapsed();
        (meta, timing)
    }

    /// The metadata of an imputed tuple: the one derivation both arrival
    /// and import run, so a restored tuple's metadata is the arrival's.
    fn derive_meta(&self, timestamp: u64, stream_id: usize, tuple: ProbTuple) -> Arc<TupleMeta> {
        Arc::new(TupleMeta::build(
            tuple.base.id,
            stream_id,
            timestamp,
            tuple,
            &self.ctx.pivots,
            &self.ctx.layout,
            &self.ctx.keywords,
        ))
    }

    /// Replaces the dynamic state with a snapshot (recovery: load the
    /// newest checkpoint, then replay the WAL suffix). The snapshot holds
    /// each live tuple's imputed tuple; its metadata is derived here as
    /// at arrival, so it always agrees with the tuple and the context.
    /// On `Err` the engine is left untouched — the recovery path must
    /// never panic or half-apply.
    pub fn import_state(&mut self, state: &EngineState) -> Result<(), String> {
        state.validate(self.ctx.arity(), self.live.window_capacity())?;
        let metas = state
            .live
            .iter()
            .map(|e| self.derive_meta(e.timestamp, e.stream_id, e.tuple.clone()))
            .collect();
        self.live.restore(state, metas);
        Ok(())
    }

    /// Steps an arrival already imputed by `TerIdsEngine::impute`:
    /// expiry → candidate scan → refinement → insert → finalize. `timing`
    /// is the imputation's; the step adds its ER time, folds it into the
    /// running totals and returns it in the output. `laps` accumulates
    /// the step's traverse/refine/merge split.
    fn step_imputed(
        &mut self,
        arrival: &Arrival,
        meta: Arc<TupleMeta>,
        mut timing: PhaseTiming,
        laps: &mut StageLaps,
    ) -> StepOutput {
        debug_assert_eq!(meta.id, arrival.record.id);
        let t0 = Instant::now();
        let mut out = self.live.advance_window(arrival);
        let t1 = Instant::now();
        let cands = self.live.lists.examined_ids(&meta, self.gamma);
        let t2 = Instant::now();
        let pair_ctx = PairContext {
            keywords: &self.ctx.keywords,
            gamma: self.gamma,
            alpha: self.params.alpha,
            aux_counts: &self.ctx.aux_counts,
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
        // of the arrival order.
        outcome.matches.sort_unstable();
        let t3 = Instant::now();
        out.new_matches = self
            .live
            .finalize_arrival(meta, cands.len() as u64, outcome);
        let t4 = Instant::now();
        laps.traverse += t2 - t1;
        laps.refine += t3 - t2;
        laps.merge += (t1 - t0) + (t4 - t3);
        timing.er += t4 - t0;
        self.live.accumulate_timing(&timing);
        out.timing = timing;
        out
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
        let (meta, timing) = self.impute(arrival);
        self.step_imputed(arrival, meta, timing, &mut StageLaps::default())
    }

    /// Imputes the batch, then steps each arrival through the loop
    /// [`ErProcessor::process`] runs, recording one event per stage and
    /// one for the step (see the [module docs](self)). The outputs are
    /// those of `process` called on each arrival in turn.
    fn step_batch(&mut self, batch: &[Arrival]) -> Vec<StepOutput> {
        if batch.is_empty() {
            return Vec::new();
        }
        let batch_t0 = ter_obs::timer();
        ter_obs::OBS.engine_batches.inc();
        // In the daemon the step stage has opened this batch's trace; a
        // library caller's batch roots its own, keyed by the engine batch
        // ordinal. Every stage records under that trace's sequence.
        let (seq, rooted) = ter_obs::trace::attach(ter_obs::OBS.engine_batches.get());
        let n = batch.len() as u64;
        let impute_t0 = ter_obs::timer();
        let imputed: Vec<_> = batch.iter().map(|a| self.impute(a)).collect();
        ter_obs::record(kind::IMPUTE, seq, n, 0, ter_obs::since(impute_t0));
        let mut laps = StageLaps::default();
        let outputs = batch
            .iter()
            .zip(imputed)
            .map(|(arrival, (meta, timing))| self.step_imputed(arrival, meta, timing, &mut laps))
            .collect();
        for (k, lap) in [
            (kind::TRAVERSE, laps.traverse),
            (kind::REFINE, laps.refine),
            (kind::MERGE, laps.merge),
        ] {
            ter_obs::record(k, seq, 0, 0, lap.as_micros() as u64);
        }
        ter_obs::record(kind::STEP, seq, n, 0, ter_obs::since(batch_t0));
        if rooted {
            ter_obs::trace::end(seq, ter_obs::trace::now());
        }
        outputs
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
    use ter_stream::{AttrCandidates, StreamSet};
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
        let mut batched = TerIdsEngine::new(&ctx, Params::default(), PruningMode::Full);
        batched.step_batch(&streams.arrivals());
        for t in [engine.timing(), batched.timing()] {
            assert_eq!(t.arrivals, 4);
            assert!(t.total().as_nanos() > 0);
        }
    }

    #[test]
    fn finds_the_obvious_match_in_one_batch() {
        let (ctx, streams, _) = scenario();
        let mut e = TerIdsEngine::new(&ctx, Params::default(), PruningMode::Full);
        let outs = e.step_batch(&streams.arrivals());
        let all: Vec<(u64, u64)> = outs.iter().flat_map(|o| o.new_matches.clone()).collect();
        assert_eq!(all, vec![(1, 2)]);
        assert!(e.results().contains(1, 2));
        assert_eq!(e.window_len(), 4);
    }

    /// `step_batch` at every batch size reports what `process` reports,
    /// arrival for arrival.
    #[test]
    fn agrees_with_sequential_engine_across_batch_sizes() {
        let (ctx, streams, _) = scenario();
        let mut seq = TerIdsEngine::new(&ctx, Params::default(), PruningMode::Full);
        let seq_steps: Vec<_> = streams
            .arrivals()
            .iter()
            .map(|a| seq.process(a).new_matches)
            .collect();
        for batch in 1..=5 {
            let mut par = TerIdsEngine::new(&ctx, Params::default(), PruningMode::Full);
            let mut par_steps = Vec::new();
            for chunk in streams.arrival_batches(batch) {
                par_steps.extend(par.step_batch(&chunk).into_iter().map(|o| o.new_matches));
            }
            assert_eq!(par_steps, seq_steps, "batch {batch}");
            assert_eq!(par.prune_stats(), seq.prune_stats(), "batch {batch}");
            assert_eq!(par.export_state(), seq.export_state(), "batch {batch}");
        }
    }

    /// One engine kept across several batches must be bit-identical to a
    /// transient engine per batch, each restored from the state the
    /// previous one exported: everything a later batch depends on is in
    /// the exported state between batches, candidate lists included.
    #[test]
    fn persistent_session_agrees_with_transient_batches() {
        let (ctx, streams, _) = scenario();
        let params = Params {
            window: 3, // forces an eviction in the second batch
            ..Params::default()
        };
        let arrivals = streams.arrivals();

        let mut persistent = TerIdsEngine::new(&ctx, params, PruningMode::Full);
        let mut p_steps = Vec::new();
        let mut p_states = Vec::new();
        for chunk in arrivals.chunks(2) {
            p_steps.extend(
                persistent
                    .step_batch(chunk)
                    .into_iter()
                    .map(|o| o.new_matches),
            );
            p_states.push(persistent.export_state());
        }

        let mut t_steps = Vec::new();
        let mut t_states = Vec::new();
        for chunk in arrivals.chunks(2) {
            let mut transient = TerIdsEngine::new(&ctx, params, PruningMode::Full);
            if let Some(prev) = t_states.last() {
                transient.import_state(prev).unwrap();
            }
            t_steps.extend(
                transient
                    .step_batch(chunk)
                    .into_iter()
                    .map(|o| o.new_matches),
            );
            t_states.push(transient.export_state());
        }

        assert_eq!(p_steps, t_steps);
        assert_eq!(p_states, t_states);
        assert_eq!(p_states.len(), 2);
        assert_eq!(persistent.prune_stats(), t_states[1].stats);
        assert_eq!(persistent.window_len(), 3);
    }

    #[test]
    fn expiry_matches_sequential_semantics() {
        let (ctx, streams, _) = scenario();
        let params = Params {
            window: 2,
            ..Params::default()
        };
        let mut e = TerIdsEngine::new(&ctx, params, PruningMode::Full);
        let arrivals = streams.arrivals();
        e.step_batch(&arrivals[..2]);
        assert!(e.results().contains(1, 2));
        e.step_batch(&arrivals[2..3]);
        assert!(!e.results().contains(1, 2), "pair must expire with tuple 1");
        assert!(e.reported().contains(&(1, 2)));
        assert_eq!(e.window_len(), 2);
    }

    /// A window smaller than the batch forces in-batch arrivals to expire
    /// before the batch ends, after the whole batch was imputed; the
    /// batched drive must still agree with the per-arrival one.
    #[test]
    fn in_batch_expiry_is_bit_identical_across_drives() {
        let (ctx, streams, _) = scenario();
        let params = Params {
            window: 1,
            ..Params::default()
        };
        let arrivals = streams.arrivals();
        let mut seq = TerIdsEngine::new(&ctx, params, PruningMode::Full);
        let seq_outs: Vec<_> = arrivals.iter().map(|a| seq.process(a)).collect();
        let mut par = TerIdsEngine::new(&ctx, params, PruningMode::Full);
        let par_outs = par.step_batch(&arrivals);
        for (s, p) in seq_outs.iter().zip(&par_outs) {
            assert_eq!(
                (&s.new_matches, &s.retractions, &s.expired),
                (&p.new_matches, &p.retractions, &p.expired)
            );
        }
        assert_eq!(par.export_state(), seq.export_state());
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

    /// The candidate definition, spelled out over the live metadata
    /// instead of the lists: every live tuple of another stream, topical
    /// unless the probe may be, whose token signatures intersect the
    /// probe's in more than `γ` attributes, ascending. Kept here only as
    /// the reference for the test below.
    fn filtered_window(engine: &TerIdsEngine<'_>, probe: &TupleMeta) -> Vec<u64> {
        let mut ids: Vec<u64> = engine
            .live
            .metas
            .values()
            .filter(|m| m.stream_id != probe.stream_id)
            .filter(|m| probe.possibly_topical || m.possibly_topical)
            .filter(|m| crate::pruning::ub_sim_signature(probe, m) > engine.gamma)
            .map(|m| m.id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// A generated scenario over the unit tests' schema: a repository of
    /// 60 tuples and three streams of `n` tuples in total, titles and tags
    /// drawn from small vocabularies (so signatures often intersect), a
    /// third of the stream tags missing. A title's first word fixes only
    /// two of three tags, so imputation yields several candidates; some
    /// tags are topical.
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

    /// The list-scan candidate list equals the filter over the live
    /// metadata at every step, and O(streams) pair accounting equals the
    /// walk over the live tuples.
    #[test]
    fn list_scan_candidates_equal_filtered_window() {
        let (ctx, streams) = generated_scenario(240);
        let params = Params {
            window: 30,
            ..Params::default()
        };
        let mut engine = TerIdsEngine::new(&ctx, params, PruningMode::Full);
        let (mut nonempty, mut plain_probes) = (0, 0);
        for a in streams.arrivals() {
            let (probe, _) = engine.impute(&a);
            // Expire first, as `process` does, so both definitions see
            // the window the probe is matched against.
            let mut shadow = TerIdsEngine::new(&ctx, params, PruningMode::Full);
            shadow.import_state(&engine.export_state()).unwrap();
            shadow.live.advance_window(&a);
            let expect = filtered_window(&shadow, &probe);
            let got = shadow.live.lists.examined_ids(&probe, shadow.gamma);
            assert_eq!(got, expect, "arrival {}", a.record.id);
            nonempty += usize::from(!got.is_empty());
            plain_probes += usize::from(!probe.possibly_topical);

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
            crate::candidates::account_pairs(&probe, examined, &shadow.live.counts, &mut new);
            assert_eq!(new, old, "arrival {}", a.record.id);

            engine.process(&a);
            assert_eq!(engine.live.lists.len(), engine.window_len());
        }
        assert!(nonempty > 100, "only {nonempty} arrivals had candidates");
        assert!(plain_probes > 50, "only {plain_probes} non-topical probes");
    }

    /// A refused import leaves the engine as it was, and usable. Refused
    /// are a window capacity other than the engine's and the tuples the
    /// metadata derivation cannot take: a wrong arity, an imputation that
    /// does not cover exactly the missing attributes.
    #[test]
    fn refused_imports_leave_the_engine_untouched() {
        let (ctx, streams, _) = scenario();
        let arrivals = streams.arrivals();
        let mut full = TerIdsEngine::new(&ctx, Params::default(), PruningMode::Full);
        for a in &arrivals {
            full.process(a);
        }
        let corruptions: [fn(&mut EngineState); 4] = [
            |s| s.window_capacity = 7,
            // Three attributes against a two-attribute schema.
            |s| {
                s.live[0]
                    .tuple
                    .base
                    .attrs
                    .push(Some(ter_text::TokenSet::empty()))
            },
            // A missing attribute left without candidates.
            |s| s.live[0].tuple.base.attrs[1] = None,
            // Candidates for a present attribute.
            |s| {
                s.live[0]
                    .tuple
                    .imputed
                    .push(AttrCandidates::normalized(0, vec![]))
            },
        ];
        for corrupt in corruptions {
            let mut bad = full.export_state();
            corrupt(&mut bad);
            let mut engine = TerIdsEngine::new(&ctx, Params::default(), PruningMode::Full);
            engine.process(&arrivals[0]);
            let before = engine.export_state();
            assert!(engine.import_state(&bad).is_err(), "{bad:?} accepted");
            assert_eq!(engine.export_state(), before);
            assert_eq!(engine.meta(1).map(|m| m.id), Some(1));
            for a in &arrivals[1..] {
                engine.process(a);
            }
            assert!(engine.results().contains(1, 2));
        }
    }
}
