//! Work-count check of the token-signature similarity bound: on a fixed
//! generated stream, the pairs that reach instance-level refinement
//! (Theorem 4.4) must be at least 10× fewer than the pairs the pivot,
//! token-size and probability bounds alone would let through. Both counts
//! are pure functions of the seeded stream, so the check is deterministic.

use ter_datasets::{preset, GenOptions, Preset};
use ter_ids::pruning::{prob_prunable, topic_prunable, ub_sim};
use ter_ids::{ErProcessor, Params, PruningMode, TerContext, TerIdsEngine};
use ter_repo::PivotConfig;
use ter_rules::DiscoveryConfig;

#[test]
fn signature_bound_cuts_refined_pairs_tenfold() {
    let ds = preset(
        Preset::Anime,
        &GenOptions {
            scale: 0.4,
            missing_rate: 0.3,
            ..GenOptions::default()
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
        window: 200,
        ..Params::default()
    };
    let mut engine = TerIdsEngine::new(&ctx, params, PruningMode::Full);
    let gamma = engine.gamma();

    // The pairs the cascade without the signature bound refines: every
    // other-stream live tuple the probe is not topic-pruned against and
    // that passes Lemmas 4.1–4.3. Cell-level pruning is implied — a cell
    // bound is never below the pair bound of a tuple in the cell.
    let mut refined_without_signatures = 0u64;
    for a in ds.streams.arrivals() {
        engine.process(&a);
        let probe = engine.meta(a.record.id).expect("probe is live");
        for id in engine.live_ids() {
            let other = engine.meta(id).expect("live id has metadata");
            if other.stream_id == probe.stream_id || topic_prunable(probe, other) {
                continue;
            }
            if ub_sim(probe, other, &ctx.aux_counts) > gamma
                && !prob_prunable(probe, other, gamma, params.alpha)
            {
                refined_without_signatures += 1;
            }
        }
    }

    let stats = engine.prune_stats();
    let refined = stats.instance + stats.matches;
    assert!(
        stats.matches > 0,
        "no matches: the stream exercises nothing"
    );
    assert!(
        refined * 10 <= refined_without_signatures,
        "signature bound left {refined} refined pairs of {refined_without_signatures}"
    );
}
