//! Fast CI smoke: the full imputation → pruning → refinement pipeline on a
//! tiny preset (`scale = 0.1`), mirroring the `health_community` example's
//! scenario shape. Runs in well under a second so CI always exercises the
//! whole engine even when the longer suites are the ones that regress.

use ter_datasets::{co_window_pairs, preset, GenOptions, Preset};
use ter_ids::{evaluate, ErProcessor, Params, PruningMode, TerContext, TerIdsEngine};
use ter_repo::PivotConfig;
use ter_rules::DiscoveryConfig;

#[test]
fn tiny_preset_pipeline_end_to_end() {
    let ds = preset(
        Preset::Citations,
        &GenOptions {
            scale: 0.1,
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
    // Pre-computation actually happened: CDD rules were discovered from the
    // repository, so incomplete arrivals go through real imputation.
    assert!(!ctx.cdds.is_empty(), "no CDD rules discovered");

    let params = Params {
        window: 60,
        ..Params::default()
    };
    let mut engine = TerIdsEngine::new(&ctx, params, PruningMode::Full);
    let arrivals = ds.streams.arrivals();
    assert!(!arrivals.is_empty());
    for a in &arrivals {
        engine.process(a);
    }

    // Refinement reported something, and it is not garbage: the reported
    // pairs score reasonably against the topical ground truth.
    let gt = co_window_pairs(
        &ds.topical_entity_pairs(&keywords),
        &arrivals,
        params.window,
    );
    assert!(!gt.is_empty(), "degenerate ground truth at this scale");
    let eval = evaluate(engine.reported(), &gt);
    assert!(
        eval.f_score > 0.5,
        "smoke F-score {:.3} (tp {}, fp {}, fn {})",
        eval.f_score,
        eval.tp,
        eval.fp,
        eval.fn_
    );

    // Pruning fired on every tier it tracks pairs for.
    let stats = engine.prune_stats();
    assert!(stats.total_pairs > 0);
    assert!(
        stats.total_pruned_pct() > 50.0,
        "pruning power too low: {:.1}%",
        stats.total_pruned_pct()
    );
}

/// The engine must report the same pairs with pair-level pruning on and off
/// (grid-only decides candidates by the index bounds and the exact
/// probability alone) — a cheap guard
/// that pruning is *sound* on the smoke data.
#[test]
fn tiny_preset_pruning_is_lossless() {
    let ds = preset(
        Preset::Citations,
        &GenOptions {
            scale: 0.1,
            ..GenOptions::default()
        },
    );
    let keywords = ds.keywords();
    let ctx = TerContext::build(
        ds.repo.clone(),
        keywords,
        &PivotConfig::default(),
        &DiscoveryConfig::default(),
        16,
    );
    let params = Params {
        window: 60,
        ..Params::default()
    };
    let arrivals = ds.streams.arrivals();

    let mut full = TerIdsEngine::new(&ctx, params, PruningMode::Full);
    let mut none = TerIdsEngine::new(&ctx, params, PruningMode::GridOnly);
    for a in &arrivals {
        full.process(a);
        none.process(a);
    }
    let mut with_pruning: Vec<_> = full.reported().iter().copied().collect();
    let mut without: Vec<_> = none.reported().iter().copied().collect();
    with_pruning.sort_unstable();
    without.sort_unstable();
    assert_eq!(with_pruning, without, "pruning changed the reported pairs");
}
