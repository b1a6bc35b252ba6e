//! The batched TER-iDS engine.
//!
//! [`ShardedTerIdsEngine`] wraps a [`TerIdsEngine`] and steps arrivals a
//! batch at a time:
//!
//! 1. **Impute** — every arrival of the batch is imputed and its
//!    [`ter_ids::TupleMeta`] derived ([`TerIdsEngine::impute`]);
//!    imputation reads only the static context, so imputing ahead of the
//!    batch's expiries changes nothing.
//! 2. **Step** — each arrival in turn runs
//!    [`TerIdsEngine::step_imputed`]: expiry, candidate scan (traverse),
//!    pair cascade (refine), insert and bookkeeping (merge).
//!
//! Per batch, the impute, traverse, refine and merge wall times and the
//! whole step are recorded once each as `ter_obs` events; the kind table
//! routes them to the histograms, the flight recorder and the batch's
//! causal trace. A batch with no trace attached (library mode) roots its
//! own and closes it after the `STEP` event.

use std::ops::{Deref, DerefMut};

use ter_ids::{
    EngineState, ErProcessor, LiveState, Params, PhaseTiming, PruneStats, PruningMode, ResultSet,
    StageLaps, StepOutput, TerContext, TerIdsEngine,
};
use ter_obs::kind;
use ter_stream::Arrival;
use ter_text::fxhash::FxHashSet;

/// Execution settings, of which none are left. The engine once split its
/// candidate lists into shards driven by worker threads, configured here
/// as `(shards, threads)`; both are gone because one thread beat every
/// multi-threaded configuration on per-arrival work of a few
/// microseconds. The type stays so existing callers (the benchmark among
/// them) compile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecConfig;

impl ExecConfig {
    /// The one configuration; the former shard and thread counts are
    /// ignored.
    pub fn new(_shards: usize, _threads: usize) -> Self {
        Self
    }
}

/// The batched TER-iDS engine. See the [module docs](self).
///
/// Like the sequential engine it dereferences to its [`LiveState`], which
/// holds the window, the metadata, the results and the candidate lists,
/// and provides the accessors and the state export.
pub struct ShardedTerIdsEngine<'a> {
    engine: TerIdsEngine<'a>,
    name: &'static str,
}

impl<'a> ShardedTerIdsEngine<'a> {
    /// Creates a batched engine over a prebuilt context.
    pub fn new(ctx: &'a TerContext, params: Params, mode: PruningMode, _exec: ExecConfig) -> Self {
        Self {
            engine: TerIdsEngine::new(ctx, params, mode),
            name: match mode {
                PruningMode::Full => "TER-iDS(shard)",
                PruningMode::GridOnly => "Ij+GER(shard)",
            },
        }
    }

    /// Replaces the dynamic state with a snapshot; see
    /// [`TerIdsEngine::import_state`].
    pub fn import_state(&mut self, state: &EngineState) -> Result<(), String> {
        self.engine.import_state(state)
    }
}

impl Deref for ShardedTerIdsEngine<'_> {
    type Target = LiveState;

    fn deref(&self) -> &LiveState {
        &self.engine
    }
}

impl DerefMut for ShardedTerIdsEngine<'_> {
    fn deref_mut(&mut self) -> &mut LiveState {
        &mut self.engine
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

    /// Imputes the batch, then steps each arrival through
    /// [`TerIdsEngine::step_imputed`], recording one event per stage and
    /// one for the step. The outputs are those of [`ErProcessor::process`]
    /// called on each arrival in turn.
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
        let imputed: Vec<_> = batch.iter().map(|a| self.engine.impute(a)).collect();
        ter_obs::record(kind::IMPUTE, seq, n, 0, ter_obs::since(impute_t0));
        let mut laps = StageLaps::default();
        let outputs = batch
            .iter()
            .zip(imputed)
            .map(|(arrival, (meta, timing))| {
                self.engine.step_imputed(arrival, meta, timing, &mut laps)
            })
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
        self.engine.results()
    }

    fn reported(&self) -> &FxHashSet<(u64, u64)> {
        self.engine.reported()
    }

    fn prune_stats(&self) -> PruneStats {
        self.engine.prune_stats()
    }

    fn timing(&self) -> PhaseTiming {
        self.engine.timing()
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
        let mut e =
            ShardedTerIdsEngine::new(&ctx, Params::default(), PruningMode::Full, ExecConfig);
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
            let mut par =
                ShardedTerIdsEngine::new(&ctx, Params::default(), PruningMode::Full, ExecConfig);
            let mut par_steps = Vec::new();
            for chunk in streams.arrival_batches(batch) {
                par_steps.extend(par.step_batch(&chunk).into_iter().map(|o| o.new_matches));
            }
            assert_eq!(par_steps, seq_steps, "batch {batch}");
            assert_eq!(par.prune_stats(), seq.prune_stats(), "batch {batch}");
            assert_eq!(par.live_ids(), seq.live_ids(), "batch {batch}");
        }
    }

    /// One engine kept across several batches must be bit-identical to a
    /// transient engine per batch, each restored from the state the
    /// previous one exported: everything a later batch depends on is in
    /// the exported state between batches, candidate lists included.
    #[test]
    fn persistent_session_agrees_with_transient_batches() {
        let (ctx, streams) = scenario();
        let params = Params {
            window: 3, // forces an eviction in the second batch
            ..Params::default()
        };
        let arrivals = streams.arrivals();

        let mut persistent = ShardedTerIdsEngine::new(&ctx, params, PruningMode::Full, ExecConfig);
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
            let mut transient =
                ShardedTerIdsEngine::new(&ctx, params, PruningMode::Full, ExecConfig);
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
        let (ctx, streams) = scenario();
        let params = Params {
            window: 2,
            ..Params::default()
        };
        let mut e = ShardedTerIdsEngine::new(&ctx, params, PruningMode::Full, ExecConfig);
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
    /// batched drive must still agree with the sequential engine.
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
        let mut par = ShardedTerIdsEngine::new(&ctx, params, PruningMode::Full, ExecConfig);
        par.step_batch(&arrivals);
        assert_eq!(par.export_state(), seq.export_state());
    }

    #[test]
    fn timing_is_recorded() {
        let (ctx, streams) = scenario();
        let mut e =
            ShardedTerIdsEngine::new(&ctx, Params::default(), PruningMode::Full, ExecConfig);
        e.step_batch(&streams.arrivals());
        let t = e.timing();
        assert_eq!(t.arrivals, 4);
        assert!(t.total().as_nanos() > 0);
    }

    /// The batched engine's exported state must be byte-for-byte the
    /// sequential engine's (same canonical representation), and
    /// checkpoints must restore across engine kinds.
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
        let mut par = ShardedTerIdsEngine::new(&ctx, params, PruningMode::Full, ExecConfig);
        par.step_batch(&arrivals);
        let state = seq.export_state();
        assert_eq!(par.export_state(), state, "export representations differ");

        // Sequential checkpoint → batched engine.
        let mut restored = ShardedTerIdsEngine::new(&ctx, params, PruningMode::Full, ExecConfig);
        restored.import_state(&state).unwrap();
        assert_eq!(restored.export_state(), state);
        assert_eq!(restored.live_ids(), seq.live_ids());

        // Batched checkpoint → sequential engine.
        let mut back = TerIdsEngine::new(&ctx, params, PruningMode::Full);
        back.import_state(&par.export_state()).unwrap();
        assert_eq!(back.export_state(), state);
    }
}
