//! End-to-end pipeline checks on preset datasets: accuracy, pruning
//! power, window/result-set invariants, and the dynamic-repository
//! extension (§5.5).

use ter_datasets::{co_window_pairs, preset, GenOptions, Preset};
use ter_ids::{evaluate, ErProcessor, Params, PruningMode, TerContext, TerIdsEngine};
use ter_repo::{DrIndex, PivotConfig};
use ter_rules::DiscoveryConfig;
use ter_text::KeywordSet;

#[test]
fn citations_accuracy_and_pruning_power() {
    let ds = preset(
        Preset::Citations,
        &GenOptions {
            scale: 0.3,
            missing_rate: 0.3,
            missing_attrs: 1,
            ..GenOptions::default()
        },
    );
    let keywords = ds.keywords();
    let ctx = TerContext::build(
        ds.repo.clone(),
        keywords.clone(),
        &PivotConfig::default(),
        &DiscoveryConfig::default(),
        16,
    );
    let params = Params {
        window: 120,
        ..Params::default()
    };
    let mut engine = TerIdsEngine::new(&ctx, params, PruningMode::Full);
    let arrivals = ds.streams.arrivals();
    for a in &arrivals {
        engine.process(a);
    }
    let gt = co_window_pairs(
        &ds.topical_entity_pairs(&keywords),
        &arrivals,
        params.window,
    );
    let eval = evaluate(engine.reported(), &gt);
    assert!(
        eval.f_score > 0.7,
        "Citations F-score {:.3} (tp {}, fp {}, fn {})",
        eval.f_score,
        eval.tp,
        eval.fp,
        eval.fn_
    );
    let stats = engine.prune_stats();
    // The paper prunes 98%+; with scaled data and a single topic filter we
    // still expect the vast majority of pairs to be discarded cheaply.
    assert!(
        stats.total_pruned_pct() > 80.0,
        "pruning power too low: {:.1}%",
        stats.total_pruned_pct()
    );
    // Topic pruning dominates (Figure 4's shape).
    assert!(stats.topic > stats.prob);
}

#[test]
fn window_invariant_results_only_contain_live_tuples() {
    let ds = preset(
        Preset::Anime,
        &GenOptions {
            scale: 0.15,
            ..GenOptions::default()
        },
    );
    let keywords = KeywordSet::universe();
    let ctx = TerContext::build(
        ds.repo.clone(),
        keywords,
        &PivotConfig::default(),
        &DiscoveryConfig::default(),
        16,
    );
    let params = Params {
        window: 40,
        ..Params::default()
    };
    let mut engine = TerIdsEngine::new(&ctx, params, PruningMode::Full);
    let arrivals = ds.streams.arrivals();
    for (i, a) in arrivals.iter().enumerate() {
        engine.process(a);
        // Every live result pair references only unexpired tuples.
        let live_ids: std::collections::HashSet<u64> = arrivals
            [i.saturating_sub(params.window - 1)..=i]
            .iter()
            .map(|x| x.record.id)
            .collect();
        for (x, y) in engine.results().iter() {
            assert!(live_ids.contains(&x), "expired tuple {x} in ES at step {i}");
            assert!(live_ids.contains(&y), "expired tuple {y} in ES at step {i}");
        }
    }
}

#[test]
fn universe_keywords_superset_of_topic_results() {
    let ds = preset(
        Preset::Bikes,
        &GenOptions {
            scale: 0.15,
            ..GenOptions::default()
        },
    );
    let params = Params {
        window: 60,
        ..Params::default()
    };
    let arrivals = ds.streams.arrivals();

    let run = |keywords: KeywordSet| {
        let ctx = TerContext::build(
            ds.repo.clone(),
            keywords,
            &PivotConfig::default(),
            &DiscoveryConfig::default(),
            16,
        );
        let mut e = TerIdsEngine::new(&ctx, params, PruningMode::Full);
        for a in &arrivals {
            e.process(a);
        }
        e.reported().clone()
    };

    let topical = run(ds.keywords());
    let all = run(KeywordSet::universe());
    for pair in &topical {
        assert!(
            all.contains(pair),
            "topic-filtered result {pair:?} missing from unfiltered run"
        );
    }
    assert!(all.len() >= topical.len());
    assert!(!topical.is_empty());
}

/// §5.5: growing the repository dynamically (new complete tuples) must be
/// reflected by the DR-index and can only improve imputation support.
#[test]
fn dynamic_repository_extension() {
    let ds = preset(
        Preset::Citations,
        &GenOptions {
            scale: 0.15,
            repo_ratio: 0.2,
            ..GenOptions::default()
        },
    );
    let keywords = KeywordSet::universe();
    let pivots = ter_repo::PivotTable::select(&ds.repo, &PivotConfig::default());
    let mut repo = ds.repo.clone();
    let mut dr = DrIndex::build(&repo, &pivots, &keywords, 16);
    let before = dr.len();

    // Promote the first 10 complete stream tuples into R (batch update).
    let newcomers: Vec<_> = ds
        .clean_streams
        .stream(0)
        .iter()
        .take(10)
        .cloned()
        .map(|mut r| {
            r.id += 5_000_000; // repository ids must not collide
            r
        })
        .collect();
    for r in newcomers {
        repo.insert(r);
        dr.insert_sample(&repo, &pivots, &keywords, repo.len() - 1);
    }
    assert_eq!(dr.len(), before + 10);

    // Rules can be re-detected over the grown repository.
    let rules_after = ter_rules::detect_cdds(&repo, &DiscoveryConfig::default());
    assert!(!rules_after.is_empty());
}
