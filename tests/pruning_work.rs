//! Work-count checks of the token-signature similarity bound on a fixed
//! generated stream:
//!
//! * the pairs that reach instance-level refinement (Theorem 4.4) must be
//!   at least 10× fewer than the pairs the pivot, token-size and
//!   probability bounds alone would let through;
//! * the candidate scan (`examined_ids`) must hand `decide_pair` at most
//!   a tenth of the live entries that pass its stream and topical tests,
//!   so its signature test does the rest.
//!
//! Every count is a pure function of the seeded stream, so the checks
//! are deterministic.

use ter_datasets::{preset, Dataset, GenOptions, Preset};
use ter_ids::candidates::CandidateLists;
use ter_ids::pruning::{prob_prunable, topic_prunable, ub_sim};
use ter_ids::{ErProcessor, Params, PruningMode, TerContext, TerIdsEngine};
use ter_repo::PivotConfig;
use ter_rules::DiscoveryConfig;
use ter_text::fxhash::FxHashMap;

/// The stream both checks run on: Anime at 40% scale (480 arrivals), 30%
/// of the values missing, a window of 200. The scan's stream and topical
/// tests leave 10,443 live entries over it, and it hands on 392.
fn setup() -> (Dataset, TerContext, Params) {
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
    (ds, ctx, params)
}

#[test]
fn signature_bound_cuts_refined_pairs_tenfold() {
    let (ds, ctx, params) = setup();
    let mut engine = TerIdsEngine::new(&ctx, params, PruningMode::Full);
    let gamma = engine.gamma();

    // The pairs the cascade without the signature bound refines: every
    // other-stream live tuple the probe is not topic-pruned against and
    // that passes Lemmas 4.1–4.3.
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

#[test]
fn list_scan_hands_on_a_tenth_of_eligible_entries() {
    let (ds, ctx, params) = setup();
    let mut engine = TerIdsEngine::new(&ctx, params, PruningMode::Full);
    let gamma = engine.gamma();

    // A mirror of the engine's candidate lists, driven in its order
    // (evict the expired tuple, scan for the probe, insert the probe),
    // beside the live metadata the stream and topical tests are counted
    // over.
    let mut lists = CandidateLists::new(ctx.arity());
    let mut live: FxHashMap<u64, ter_ids::TupleMeta> = FxHashMap::default();
    let (mut examined, mut eligible) = (0usize, 0usize);
    for a in ds.streams.arrivals() {
        let out = engine.process(&a);
        for id in &out.expired {
            lists.evict(&live.remove(id).expect("expired tuple was live"));
        }
        let probe = engine.meta(a.record.id).expect("probe is live").clone();
        examined += lists.examined_ids(&probe, gamma).len();
        eligible += live
            .values()
            .filter(|m| m.stream_id != probe.stream_id)
            .filter(|m| probe.possibly_topical || m.possibly_topical)
            .count();
        lists.insert(&probe);
        live.insert(probe.id, probe);
    }

    // The mirror scans what the engine's lists hold: every pair the
    // engine decided past the similarity bounds is among its candidates.
    let stats = engine.prune_stats();
    assert!(stats.prob + stats.instance + stats.matches <= examined as u64);
    assert!(
        eligible > 5_000,
        "only {eligible} entries eligible: the stream exercises nothing"
    );
    assert!(
        examined * 10 <= eligible,
        "the scan handed on {examined} of the {eligible} eligible entries"
    );
}
