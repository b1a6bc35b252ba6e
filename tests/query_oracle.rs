//! Differential re-evaluation oracle for the declarative query layer:
//! proptest-generated patterns, run as standing queries over every
//! dataset preset, must fold to exactly the from-scratch evaluation
//! after **every** arrival batch — on the sequential engine and the
//! sharded engine alike, with both engines agreeing row-for-row.
//!
//! This is the repo's gold standard applied to the query layer: the
//! incremental path (delta application in `ter_query::StandingQuery`)
//! and the one-shot path (greedy-planned iterator evaluation) are
//! independent implementations, and the generated-pattern space crosses
//! joins, self-joins via shared variables, every predicate kind, and
//! projections — so agreement after every window slide is evidence, not
//! coincidence.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use proptest::prelude::*;
use ter_datasets::{preset, GenOptions, Preset};
use ter_exec::{ExecConfig, ShardedTerIdsEngine};
use ter_ids::{ErProcessor, Params, PruningMode, TerContext, TerIdsEngine};
use ter_query::{evaluate, fold_notification, BatchDelta, Pattern, StandingQuery};
use ter_repo::PivotConfig;
use ter_rules::DiscoveryConfig;
use ter_stream::StreamSet;

/// Arrivals per batch: small enough that a run crosses many batch
/// boundaries (each a delta-application point), large enough that one
/// batch can carry additions *and* expiries at once.
const BATCH: usize = 6;
/// Batches per case — enough to fill and slide the window.
const BATCHES: usize = 10;

/// One built fixture per preset, shared across all proptest cases (the
/// contexts are by far the most expensive part of a case).
fn fixtures() -> &'static Vec<(TerContext, StreamSet, Params)> {
    static FIXTURES: OnceLock<Vec<(TerContext, StreamSet, Params)>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        Preset::all()
            .iter()
            .map(|&p| {
                let ds = preset(
                    p,
                    &GenOptions {
                        scale: 0.05,
                        ..GenOptions::default()
                    },
                );
                let params = Params {
                    // Smaller than BATCH * BATCHES so the window slides
                    // and the delta stream carries real retractions.
                    window: 16,
                    ..Params::default()
                };
                let keywords = ds.keywords();
                let ctx = TerContext::build(
                    ds.repo.clone(),
                    keywords,
                    &PivotConfig::default(),
                    &DiscoveryConfig::default(),
                    params.fanout,
                );
                (ctx, ds.streams, params)
            })
            .collect()
    })
}

const VARS: [&str; 3] = ["a", "b", "c"];

/// A generated-but-always-valid pattern source string: 1–3 atoms over
/// three variable names (variables are introduced by atoms, so range
/// restriction holds by construction; `match(v, v)` is repaired to a
/// two-variable atom), 0–2 predicates over introduced variables, and an
/// optional single-variable projection.
fn arb_pattern() -> impl Strategy<Value = String> {
    let atoms = proptest::collection::vec((0u8..2, 0usize..3, 0usize..3), 1..4);
    let preds = proptest::collection::vec((0u8..5, 0usize..3, 0u64..48), 0..3);
    (atoms, preds, any::<bool>()).prop_map(|(atoms, preds, project)| {
        let mut used: Vec<&str> = Vec::new();
        let use_var = |i: usize, used: &mut Vec<&str>| {
            let v = VARS[i % VARS.len()];
            if !used.contains(&v) {
                used.push(v);
            }
            v
        };
        let atom_srcs: Vec<String> = atoms
            .into_iter()
            .map(|(kind, i, j)| {
                if kind == 0 {
                    let j = if j % VARS.len() == i % VARS.len() {
                        i + 1
                    } else {
                        j
                    };
                    let x = use_var(i, &mut used);
                    let y = use_var(j, &mut used);
                    format!("match({x}, {y})")
                } else {
                    format!("live({})", use_var(i, &mut used))
                }
            })
            .collect();
        let pred_srcs: Vec<String> = preds
            .into_iter()
            .map(|(kind, vi, n)| {
                let v = used[vi % used.len()];
                match kind {
                    0 => format!("stream({v}) = {}", n % 4),
                    1 => format!("topical({v})"),
                    2 => format!("ts({v}) >= {n}"),
                    3 => format!("ts({v}) <= {n}"),
                    _ => format!("id({v}) = {n}"),
                }
            })
            .collect();
        let mut src = atom_srcs.join(", ");
        if !pred_srcs.is_empty() {
            src.push_str(" where ");
            src.push_str(&pred_srcs.join(", "));
        }
        if project {
            src.push_str(&format!(" -> {}", used[0]));
        }
        src
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The headline guarantee, property-tested: for any generated
    /// pattern and any preset, the accumulated notification stream of a
    /// standing query is bit-identical to re-running the query from
    /// scratch after every single batch — under both engines, which
    /// must also agree with each other.
    #[test]
    fn standing_fold_equals_from_scratch_on_all_presets(
        pi in 0usize..5,
        src in arb_pattern(),
    ) {
        let (ctx, streams, params) = &fixtures()[pi];
        let pattern = Pattern::parse(&src).expect("generated pattern parses");

        let mut seq_eng = TerIdsEngine::new(ctx, *params, PruningMode::Full);
        let mut par_eng =
            ShardedTerIdsEngine::new(ctx, *params, PruningMode::Full, ExecConfig);
        let mut sq_seq = StandingQuery::new(pattern.clone());
        let mut sq_par = StandingQuery::new(pattern.clone());
        let mut fold_seq: BTreeSet<Vec<u64>> = sq_seq.seed(&seq_eng).into_iter().collect();
        let mut fold_par: BTreeSet<Vec<u64>> = sq_par.seed(&par_eng).into_iter().collect();

        for (bi, chunk) in streams
            .arrival_batches(BATCH)
            .into_iter()
            .take(BATCHES)
            .enumerate()
        {
            let out_seq = seq_eng.step_batch(&chunk);
            let out_par = par_eng.step_batch(&chunk);

            let delta = BatchDelta::from_steps(&chunk, &out_seq);
            let (added, retracted) = sq_seq.apply_batch(&seq_eng, &delta);
            fold_notification(&mut fold_seq, &added, &retracted);
            let fresh_seq = evaluate(&pattern, &seq_eng);
            prop_assert_eq!(
                fold_seq.iter().cloned().collect::<Vec<_>>(),
                fresh_seq.clone(),
                "sequential fold ≡ from-scratch, preset {}, batch {}, pattern {}",
                pi, bi, src
            );

            let delta = BatchDelta::from_steps(&chunk, &out_par);
            let (added, retracted) = sq_par.apply_batch(&par_eng, &delta);
            fold_notification(&mut fold_par, &added, &retracted);
            let fresh_par = evaluate(&pattern, &par_eng);
            prop_assert_eq!(
                fold_par.iter().cloned().collect::<Vec<_>>(),
                fresh_par.clone(),
                "sharded fold ≡ from-scratch, preset {}, batch {}, pattern {}",
                pi, bi, src
            );

            prop_assert_eq!(
                fresh_seq, fresh_par,
                "engines disagree, preset {}, batch {}, pattern {}",
                pi, bi, src
            );
        }
    }
}

/// The delta hook itself, differentially: per batch, the batched and
/// sequential engines must report identical expiry/retraction streams —
/// the foundation every standing query stands on.
#[test]
fn window_delta_streams_are_identical_across_engines() {
    let (ctx, streams, params) = &fixtures()[0];
    let mut seq_eng = TerIdsEngine::new(ctx, *params, PruningMode::Full);
    let mut par_eng = ShardedTerIdsEngine::new(ctx, *params, PruningMode::Full, ExecConfig);
    for (bi, chunk) in streams
        .arrival_batches(BATCH)
        .into_iter()
        .take(BATCHES)
        .enumerate()
    {
        let out_seq = seq_eng.step_batch(&chunk);
        let out_par = par_eng.step_batch(&chunk);
        let d_seq = BatchDelta::from_steps(&chunk, &out_seq);
        let d_par = BatchDelta::from_steps(&chunk, &out_par);
        assert_eq!(d_seq.arrived, d_par.arrived, "batch {bi}");
        assert_eq!(d_seq.expired, d_par.expired, "batch {bi}");
        assert_eq!(d_seq.added_pairs, d_par.added_pairs, "batch {bi}");
        assert_eq!(d_seq.removed_pairs, d_par.removed_pairs, "batch {bi}");
    }
}
