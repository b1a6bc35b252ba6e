//! `ter_query`: a declarative pattern-query layer over the live TER-iDS
//! state — one-shot evaluation and incrementally-maintained *standing*
//! queries.
//!
//! * [`pattern`] — the AST and parser for the conjunctive pattern
//!   grammar (`match`/`live` atoms, `stream`/`topical`/`ts`/`id`
//!   selections, optional projection);
//! * [`plan`](mod@plan) — statistics-free greedy join ordering driven entirely by
//!   counters the engine already maintains (live/pair/stream/topical
//!   counts, prune stats), with up-front empty-result detection;
//! * [`eval`] — evaluation as composable streaming iterators: one
//!   `flat_map` stage per atom, predicates applied at first binding,
//!   results in canonical sorted-deduped row form;
//! * [`standing`] — incremental maintenance against the engine's
//!   window-delta stream ([`ter_ids::StepOutput`]'s
//!   `new_matches`/`retractions`/`expired`), emitting net row
//!   additions/retractions per batch whose fold is bit-identical to
//!   from-scratch re-evaluation after every batch.
//!
//! Every engine that dereferences to a [`ter_ids::LiveState`], such as
//! [`ter_ids::TerIdsEngine`], implements [`QueryView`].

pub mod eval;
pub mod pattern;
pub mod plan;
pub mod standing;

pub use eval::{evaluate, evaluate_traced, EvalTrace, QueryView};
pub use pattern::{Atom, Pattern, Pred, VarId};
pub use plan::{plan, Plan, PlanStats};
pub use standing::{fold_notification, BatchDelta, StandingQuery};

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use ter_datasets::{preset, GenOptions, Preset};
    use ter_ids::{ErProcessor, Params, PruningMode, TerContext, TerIdsEngine};
    use ter_repo::PivotConfig;
    use ter_rules::DiscoveryConfig;
    use ter_stream::StreamSet;

    fn fixture() -> (TerContext, StreamSet, Params) {
        let ds = preset(
            Preset::Citations,
            &GenOptions {
                scale: 0.08,
                ..GenOptions::default()
            },
        );
        let params = Params {
            window: 24,
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
    }

    /// Exhaustive reference evaluation: enumerate every assignment of
    /// the pattern's variables over the live ids, keep those satisfying
    /// all atoms and predicates, project, sort, dedup. Correct by
    /// construction (every atom implies liveness of its variables), and
    /// deliberately ignorant of plans, adjacency indexes, and deltas.
    fn brute<V: QueryView>(p: &Pattern, view: &V) -> Vec<Vec<u64>> {
        let ids = view.live_ids();
        let n = p.vars.len();
        let mut rows = Vec::new();
        let mut asg = vec![0u64; n];
        fn rec<V: QueryView>(
            p: &Pattern,
            view: &V,
            ids: &[u64],
            asg: &mut Vec<u64>,
            depth: usize,
            rows: &mut Vec<Vec<u64>>,
        ) {
            if depth == asg.len() {
                let ok = p.atoms.iter().all(|a| match *a {
                    Atom::Match(x, y) => view.result_set().contains(asg[x], asg[y]),
                    Atom::Live(v) => view.meta_of(asg[v]).is_some(),
                }) && p
                    .preds
                    .iter()
                    .all(|pr| crate::eval::var_ok(p, view, pr.var(), asg[pr.var()]));
                if ok {
                    rows.push(p.projection.iter().map(|&v| asg[v]).collect());
                }
                return;
            }
            for &id in ids {
                asg[depth] = id;
                rec(p, view, ids, asg, depth + 1, rows);
            }
        }
        rec(p, view, &ids, &mut asg, 0, &mut rows);
        rows.sort_unstable();
        rows.dedup();
        rows
    }

    fn fixed_patterns() -> Vec<Pattern> {
        [
            "match(a, b)",
            "match(a, b) -> a",
            "match(a, b) where stream(a) = 0",
            "match(a, b), match(b, c)",
            "match(a, b), match(b, c) -> a, c",
            "live(a) where topical(a)",
            "live(a), live(b) where stream(a) = 0, stream(b) = 1, ts(a) >= 10",
            "match(a, b), live(c) where ts(c) <= 40 -> a, c",
            "match(a, b) where topical(a), topical(b)",
        ]
        .iter()
        .map(|s| Pattern::parse(s).unwrap())
        .collect()
    }

    /// One engine steps arrival by arrival, the other batch by batch.
    #[test]
    fn one_shot_matches_brute_force_on_both_engines() {
        let (ctx, streams, params) = fixture();
        let mut seq = TerIdsEngine::new(&ctx, params, PruningMode::Full);
        let mut par = TerIdsEngine::new(&ctx, params, PruningMode::Full);
        let patterns = fixed_patterns();
        for (i, chunk) in streams.arrival_batches(7).into_iter().enumerate() {
            for a in &chunk {
                seq.process(a);
            }
            par.step_batch(&chunk);
            // Checking every batch is quadratic in the run; every 3rd
            // batch crosses plenty of window slides already.
            if i % 3 != 0 {
                continue;
            }
            for p in &patterns {
                let want = brute(p, &seq);
                assert_eq!(evaluate(p, &seq), want, "seq vs brute, batch {i}");
                assert_eq!(evaluate(p, &par), want, "batched vs brute, batch {i}");
            }
        }
    }

    #[test]
    fn standing_fold_is_bit_identical_to_one_shot_every_batch() {
        let (ctx, streams, params) = fixture();
        let mut eng = TerIdsEngine::new(&ctx, params, PruningMode::Full);
        let patterns = fixed_patterns();
        let mut standing: Vec<StandingQuery> = patterns
            .iter()
            .map(|p| StandingQuery::new(p.clone()))
            .collect();
        let mut folds: Vec<BTreeSet<Vec<u64>>> = standing
            .iter_mut()
            .map(|s| s.seed(&eng).into_iter().collect())
            .collect();
        for (bi, chunk) in streams.arrival_batches(5).into_iter().enumerate() {
            let outputs = eng.step_batch(&chunk);
            let delta = BatchDelta::from_steps(&chunk, &outputs);
            for ((p, s), fold) in patterns.iter().zip(&mut standing).zip(&mut folds) {
                let (added, retracted) = s.apply_batch(&eng, &delta);
                fold_notification(fold, &added, &retracted);
                let folded: Vec<Vec<u64>> = fold.iter().cloned().collect();
                let fresh = evaluate(p, &eng);
                assert_eq!(folded, fresh, "fold ≡ one-shot, batch {bi}");
                assert_eq!(s.rows(), fresh, "internal rows ≡ one-shot, batch {bi}");
            }
        }
    }

    #[test]
    fn empty_window_yields_empty_results_without_scanning() {
        let (ctx, _, params) = fixture();
        let eng = TerIdsEngine::new(&ctx, params, PruningMode::Full);
        for p in fixed_patterns() {
            assert!(plan(&p, &eng.plan_stats()).empty);
            assert!(evaluate(&p, &eng).is_empty());
        }
    }

    #[test]
    fn traced_evaluation_is_bit_identical_and_counts_every_atom() {
        let (ctx, streams, params) = fixture();
        let mut eng = TerIdsEngine::new(&ctx, params, PruningMode::Full);
        let patterns = fixed_patterns();
        for (i, chunk) in streams.arrival_batches(7).into_iter().enumerate() {
            eng.step_batch(&chunk);
            if i % 3 != 0 {
                continue;
            }
            for p in &patterns {
                let plain = evaluate(p, &eng);
                let (traced, trace) = evaluate_traced(p, &eng);
                assert_eq!(traced, plain, "traced ≡ plain, batch {i}");
                assert_eq!(trace.rows as usize, plain.len());
                assert_eq!(trace.atom_rows.len(), trace.order.len());
                assert_eq!(trace.costs.len(), trace.order.len());
                let q = plan(p, &eng.plan_stats());
                assert_eq!(trace.order, q.order, "trace reports the real plan");
                if !q.empty {
                    // The last intermediate is the unprojected binding
                    // count, an upper bound on the deduped rows.
                    assert!(trace.atom_rows.last().copied().unwrap_or(0) >= trace.rows);
                }
            }
        }
    }

    #[test]
    fn projection_and_dedup_are_applied() {
        let (ctx, streams, params) = fixture();
        let mut eng = TerIdsEngine::new(&ctx, params, PruningMode::Full);
        for chunk in streams.arrival_batches(8) {
            eng.step_batch(&chunk);
        }
        let wide = Pattern::parse("match(a, b)").unwrap();
        let narrow = Pattern::parse("match(a, b) -> a").unwrap();
        let wide_rows = evaluate(&wide, &eng);
        let narrow_rows = evaluate(&narrow, &eng);
        let expect: BTreeSet<Vec<u64>> = wide_rows.iter().map(|r| vec![r[0]]).collect();
        assert_eq!(narrow_rows, expect.into_iter().collect::<Vec<_>>());
        assert!(narrow_rows.iter().all(|r| r.len() == 1));
    }
}
