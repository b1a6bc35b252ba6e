//! Work-count checks of the token-signature similarity bound on a fixed
//! generated stream:
//!
//! * the pairs that reach instance-level refinement (Theorem 4.4) must be
//!   at least 10× fewer than the pairs the pivot, token-size and
//!   probability bounds alone would let through;
//! * the ER-grid walk (`examined_ids`) must hand `decide_pair` at most a
//!   tenth of the entries the same walk surfaces without its signature
//!   tests.
//!
//! Every count is a pure function of the seeded stream, so the checks
//! are deterministic.

use ter_datasets::{preset, Dataset, GenOptions, Preset};
use ter_ids::candidates::{examined_ids, ErGrid, ErPayload};
use ter_ids::pruning::{prob_prunable, topic_prunable, ub_sim};
use ter_ids::{ErProcessor, Params, PruningMode, TerContext, TerIdsEngine, TupleMeta};
use ter_repo::PivotConfig;
use ter_rules::DiscoveryConfig;
use ter_text::fxhash::FxHashMap;

/// The stream both checks run on: Anime at 40% scale (480 arrivals), 30%
/// of the values missing, a window of 200. The walk surfaces 10,405
/// entries over it and hands on 391.
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

/// `meta` with every signature bit set: a tuple the signature tests can
/// never reject, whatever it is paired with. Its other bounds are
/// untouched, so a grid of such copies is walked exactly like the real
/// one except for the signature tests.
fn signature_blind(meta: &TupleMeta) -> TupleMeta {
    let mut blind = meta.clone();
    blind.signatures = vec![u64::MAX; meta.arity()].into_boxed_slice();
    blind
}

#[test]
fn grid_walk_hands_on_a_tenth_of_what_it_surfaces() {
    let (ds, ctx, params) = setup();
    let mut engine = TerIdsEngine::new(&ctx, params, PruningMode::Full);
    let gamma = engine.gamma();
    let arity = ctx.arity();

    // Two mirrors of the engine's ER-grid, driven in its order (evict the
    // expired tuple, walk for the probe, insert the probe): one of the
    // real aggregates, and one of signature-blind ones.
    let mut grid = ErGrid::new(arity, params.grid_cells);
    let mut blind_grid = ErGrid::new(arity, params.grid_cells);
    let mut live: FxHashMap<u64, TupleMeta> = FxHashMap::default();
    let (mut examined, mut surfaced) = (0usize, 0usize);
    for a in ds.streams.arrivals() {
        let out = engine.process(&a);
        for id in &out.expired {
            let old = live.remove(id).expect("expired tuple was live");
            let payload = ErPayload::of(&old);
            assert!(grid.evict(&old.region(), &payload));
            assert!(blind_grid.evict(&old.region(), &payload));
        }
        let probe = engine.meta(a.record.id).expect("probe is live").clone();
        let blind_probe = signature_blind(&probe);
        examined += examined_ids([&grid], &probe, gamma, &ctx.aux_counts).len();
        surfaced += examined_ids([&blind_grid], &blind_probe, gamma, &ctx.aux_counts).len();
        grid.insert(probe.region(), ErPayload::of(&probe), probe.aggregate());
        let payload = ErPayload::of(&blind_probe);
        blind_grid.insert(blind_probe.region(), payload, blind_probe.aggregate());
        live.insert(probe.id, probe);
    }

    // The mirror walks what the engine's grid holds: every pair the
    // engine decided past the similarity bounds is among its candidates.
    let stats = engine.prune_stats();
    assert!(stats.prob + stats.instance + stats.matches <= examined as u64);
    assert!(
        surfaced > 5_000,
        "only {surfaced} entries surfaced: the stream exercises nothing"
    );
    assert!(
        examined * 10 <= surfaced,
        "the walk handed on {examined} of the {surfaced} entries it surfaced"
    );
}
