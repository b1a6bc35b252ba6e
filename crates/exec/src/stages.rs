//! The named stages of the batch-parallel TER-iDS pipeline.
//!
//! Each arrival flows through four stages — **impute → traverse →
//! refine → merge** — and every function here is one stage's kernel,
//! pure with respect to the engine's dynamic state:
//!
//! * [`impute_one`] — rule selection, imputation, and [`TupleMeta`]
//!   derivation; a function of the static [`TerContext`] and the arriving
//!   record alone, which is what lets whole batches impute concurrently.
//! * [`apply_insert`] / [`apply_evict`] / [`traverse_shards`] — the
//!   traverse stage: grid maintenance in arrival order (each cell key
//!   routed once, to the shard owning it) followed by candidate
//!   enumeration over a worker's shard group — cell-level pruning, the
//!   stream/topical filters and the per-entry signature bound in one
//!   walk, the sequential engine's own [`examined_ids`].
//! * [`refine_slice`] — the refine stage: the Theorem 4.1–4.4
//!   pair-decision cascade over a candidate slice.
//! * [`eviction_schedule`] — the merge stage's look-ahead: which tuple
//!   each arrival of a batch will expire, a pure function of the window
//!   contents and the arrival order. Knowing the schedule up front is
//!   what allows the pooled drive to hand arrival `i+1`'s traverse to
//!   the workers while arrival `i` is still refining.
//!
//! The merge stage itself (window/expiry bookkeeping, statistics,
//! result-set maintenance) stays sequential on the driving thread — see
//! [`ter_ids::LiveState::finalize_arrival`] — so window semantics are
//! exactly the sequential engine's.

use std::sync::Arc;
use std::time::Instant;

use ter_ids::candidates::{examined_ids, ErGrid, ErPayload};
use ter_ids::meta::TupleMeta;
use ter_ids::results::norm_pair;
use ter_ids::{decide_pair, PairContext, PairDecision, PhaseTiming, TerContext};
use ter_impute::RuleImputer;
use ter_index::{CellKey, Rect};
use ter_stream::{Arrival, ProbTuple, SlidingWindow};

use crate::merge::RefineOutcome;
use ter_ids::ShardRouter;

/// One shard of the partitioned ER-grid.
pub(crate) type ShardGrid = ErGrid;

/// Inputs shared by every ER worker for the duration of a pool session.
/// Borrows only from the static [`TerContext`] (never from the engine),
/// so a persistent pool can hold one for its whole lifetime while the
/// driving thread keeps mutating the engine's dynamic state.
#[derive(Clone, Copy)]
pub(crate) struct WorkerCtx<'a> {
    pub router: ShardRouter,
    pub pair: PairContext<'a>,
}

/// Phase-1 (impute) work for one arrival: imputation + metadata
/// derivation. A pure function of the static context and the arriving
/// record — mirrors the sequential engine's imputation block including
/// its phase timings.
pub(crate) fn impute_one(
    imputer: &RuleImputer<'_>,
    ctx: &TerContext,
    arrival: &Arrival,
) -> (Arc<TupleMeta>, PhaseTiming) {
    let mut timing = PhaseTiming {
        arrivals: 1,
        ..PhaseTiming::default()
    };
    let pt = if arrival.record.is_complete() {
        ProbTuple::certain(arrival.record.clone())
    } else {
        let t = Instant::now();
        let selected = imputer.select_rules(&arrival.record);
        timing.rule_selection += t.elapsed();
        let t = Instant::now();
        let pt = imputer.impute_with_rules(&arrival.record, &selected);
        timing.imputation += t.elapsed();
        pt
    };
    let meta = TupleMeta::build(
        arrival.record.id,
        arrival.stream_id,
        arrival.timestamp,
        pt,
        &ctx.pivots,
        &ctx.layout,
        &ctx.keywords,
    );
    (Arc::new(meta), timing)
}

/// The cells `region` intersects, each with the id of the shard that owns
/// it. All shard grids share dimensions, so any of them enumerates the
/// keys; an empty group has none.
fn routed_keys(
    shards: &[(usize, ShardGrid)],
    router: ShardRouter,
    region: &Rect,
) -> Vec<(usize, CellKey)> {
    let Some((_, first)) = shards.first() else {
        return Vec::new();
    };
    first
        .cell_keys_of(region)
        .into_iter()
        .map(|key| (router.shard_of(&key), key))
        .collect()
}

/// Applies one tuple's grid insert to a worker's shard group: the
/// region's cells are enumerated and routed once, then each shard grid
/// receives exactly its owned subset.
pub(crate) fn apply_insert(
    shards: &mut [(usize, ShardGrid)],
    router: ShardRouter,
    meta: &TupleMeta,
) {
    let region = meta.region();
    let routed = routed_keys(shards, router, &region);
    let agg = meta.aggregate();
    let payload = ErPayload::of(meta);
    for (sid, grid) in shards.iter_mut() {
        let mut owned = routed
            .iter()
            .filter(|(owner, _)| owner == sid)
            .map(|(_, k)| k.clone())
            .peekable();
        if owned.peek().is_some() {
            grid.insert_at(owned, &region, payload, agg.clone());
        }
    }
}

/// Evicts one tuple from a worker's shard group: the region's cells are
/// enumerated and routed once, as on insert, and each cell is evicted
/// from the shard owning it. Cells owned outside the group are skipped.
pub(crate) fn apply_evict(
    shards: &mut [(usize, ShardGrid)],
    router: ShardRouter,
    meta: &TupleMeta,
) {
    let routed = routed_keys(shards, router, &meta.region());
    let payload = ErPayload::of(meta);
    for (owner, key) in routed {
        if let Some((_, grid)) = shards.iter_mut().find(|(sid, _)| *sid == owner) {
            grid.evict_at([key], &payload);
        }
    }
}

/// The candidate ids `probe` must examine within a worker's shard group,
/// sorted and deduplicated.
pub(crate) fn traverse_shards(
    shards: &[(usize, ShardGrid)],
    ctx: &WorkerCtx<'_>,
    probe: &TupleMeta,
) -> Vec<u64> {
    examined_ids(
        shards.iter().map(|(_, grid)| grid),
        probe,
        ctx.pair.gamma,
        ctx.pair.aux_counts,
    )
}

/// Runs the pair-decision cascade over a candidate slice.
pub(crate) fn refine_slice(
    ctx: &WorkerCtx<'_>,
    probe: &TupleMeta,
    cands: &[Arc<TupleMeta>],
) -> RefineOutcome {
    let mut out = RefineOutcome::default();
    for other in cands {
        match decide_pair(probe, other, &ctx.pair) {
            PairDecision::SimPruned => out.sim += 1,
            PairDecision::ProbPruned => out.prob += 1,
            PairDecision::InstancePruned => out.instance += 1,
            PairDecision::Match => out.matches.push(norm_pair(probe.id, other.id)),
        }
    }
    out
}

/// The batch's eviction look-ahead: which tuple id (if any) each arrival
/// will expire when pushed. A pure function of the current window and the
/// arrival order — simulated on a clone, the real window is untouched.
/// The pooled drive uses entry `i+1` to dispatch arrival `i+1`'s
/// grid maintenance before arrival `i` has merged; the merge loop then
/// asserts the real eviction agrees.
pub(crate) fn eviction_schedule(
    window: &SlidingWindow<u64>,
    batch: &[Arrival],
) -> Vec<Option<u64>> {
    let mut sim = window.clone();
    batch
        .iter()
        .map(|a| sim.push(a.timestamp, a.record.id).map(|(_, id)| id))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_schedule_matches_real_pushes() {
        let mk = |id: u64, ts: u64| Arrival {
            stream_id: 0,
            timestamp: ts,
            record: ter_repo::Record::from_texts(
                &ter_repo::Schema::new(vec!["a"]),
                id,
                &[Some("x")],
                &mut ter_text::Dictionary::new(),
            ),
        };
        let mut window = SlidingWindow::new(2);
        window.push(0, 10);
        window.push(1, 11);
        let batch: Vec<Arrival> = (0..4).map(|i| mk(20 + i, 2 + i)).collect();
        let sched = eviction_schedule(&window, &batch);
        // Capacity 2, two residents: every push evicts; in-batch tuples
        // start expiring from the third arrival on.
        assert_eq!(sched, vec![Some(10), Some(11), Some(20), Some(21)]);
        // The schedule is a prediction: replaying the pushes for real
        // must agree, and the original window must be untouched.
        assert_eq!(window.len(), 2);
        for (a, expect) in batch.iter().zip(&sched) {
            let got = window.push(a.timestamp, a.record.id).map(|(_, id)| id);
            assert_eq!(got, *expect);
        }
    }
}
