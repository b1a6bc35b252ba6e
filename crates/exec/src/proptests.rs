//! Property tests for the shard router, the list-maintenance stages and
//! the deterministic merge.
//!
//! Three guarantees underpin the engine-level parity proof:
//!
//! 1. the router partitions tuples — every id routes to exactly one
//!    shard;
//! 2. replaying a sliding-window insert/evict history through the
//!    traverse stage's kernels against any shard count and any grouping
//!    of shards into workers leaves every live tuple in exactly the shard
//!    its id routes to, and the merged per-worker scans equal the
//!    monolithic scan — retained vs expired tuples relative to the window
//!    bounds never depend on the shard count;
//! 3. the merged output is a deterministic function of the input contents
//!    and arrival order — never of worker count, slice partition, or
//!    completion order.

use proptest::prelude::*;

use ter_ids::candidates::{examined_ids, CandidateLists};
use ter_ids::meta::TupleMeta;
use ter_ids::{PairContext, PruningMode, ShardRouter};
use ter_repo::{Record, Schema};
use ter_stream::ProbTuple;
use ter_text::{Dictionary, Interval, KeywordSet, TopicVector};

use crate::merge::{merge_outcomes, merge_surfaced, RefineOutcome};
use crate::stages::{apply_evict, apply_insert, traverse_shards, WorkerCtx};

/// A hand-built 3-attribute meta: the candidate lists read only its id,
/// stream, topicality and signatures, so the pivot fields are dummies.
fn meta(id: u64, stream_id: usize, topical: bool, signatures: [u64; 3]) -> TupleMeta {
    let schema = Schema::new(vec!["a", "b", "c"]);
    let rec = Record::from_texts(&schema, id, &[Some("x"); 3], &mut Dictionary::new());
    TupleMeta {
        id,
        stream_id,
        timestamp: id,
        tuple: ProbTuple::certain(rec),
        main_bounds: vec![Interval::point(0.0); 3],
        main_expect: vec![0.0; 3],
        aux_bounds: vec![],
        size_bounds: vec![Interval::point(0.0); 3],
        topics: TopicVector::zeros(1),
        possibly_topical: topical,
        signatures: signatures.into(),
    }
}

/// Signature words over four bits, so attributes often intersect.
fn arb_meta_parts() -> impl Strategy<Value = (usize, bool, [u64; 3])> {
    (0usize..3, any::<bool>(), (0u64..16, 0u64..16, 0u64..16))
        .prop_map(|(sid, topical, (a, b, c))| (sid, topical, [a, b, c]))
}

/// `(shard, id)` of every entry of every shard, sorted — the exact
/// placement, comparable across shardings. A probe from no stream, with
/// every signature bit set and a negative threshold, passes every test
/// of the scan, so the scan lists a shard's whole contents.
fn placement(shards: &[(usize, CandidateLists)]) -> Vec<(usize, u64)> {
    let everything = meta(u64::MAX, usize::MAX, true, [u64::MAX; 3]);
    let mut out: Vec<(usize, u64)> = shards
        .iter()
        .flat_map(|(sid, lists)| {
            examined_ids([lists], &everything, -1.0)
                .into_iter()
                .map(move |id| (*sid, id))
        })
        .collect();
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property 1: for every id and shard count, exactly one shard owns
    /// the tuple, and the owner is a pure function of the id.
    #[test]
    fn every_tuple_routes_to_exactly_one_shard(
        id in any::<u64>(),
        shards in 1usize..=8,
    ) {
        let router = ShardRouter::new(shards);
        let owners: Vec<usize> = (0..shards).filter(|&s| router.owns(s, id)).collect();
        prop_assert_eq!(owners.len(), 1, "id {} owned by {:?}", id, owners);
        prop_assert_eq!(owners[0], router.shard_of(id));
        prop_assert_eq!(router.shard_of(id), router.shard_of(id));
    }

    /// Property 2: replaying a sliding-window history (evict the tuple
    /// leaving the window, scan for the arriving one, insert it) through
    /// `apply_evict` / `traverse_shards` / `apply_insert` against S shards
    /// grouped over T workers leaves every live tuple in exactly the shard
    /// its id routes to, and the merged worker scans equal the scan of one
    /// monolithic set of lists, for every S and T.
    #[test]
    fn sharded_window_churn_equals_monolithic(
        parts in proptest::collection::vec(arb_meta_parts(), 1..32),
        window in 1usize..=6,
        gamma in 0u32..3,
    ) {
        let metas: Vec<TupleMeta> = parts
            .iter()
            .enumerate()
            .map(|(i, &(sid, topical, sigs))| meta((i as u64 * 37) % 101, sid, topical, sigs))
            .collect();
        let kw = KeywordSet::universe();
        let gamma = f64::from(gamma);
        for shards in [1usize, 2, 3, 4, 8] {
            let router = ShardRouter::new(shards);
            let ctx = WorkerCtx {
                router,
                pair: PairContext {
                    keywords: &kw,
                    gamma,
                    alpha: 0.5,
                    aux_counts: &[0; 3],
                    mode: PruningMode::Full,
                },
            };
            for threads in [1usize, 2, 3] {
                let mut mono = CandidateLists::new(3);
                let mut groups: Vec<Vec<(usize, CandidateLists)>> =
                    (0..threads).map(|_| Vec::new()).collect();
                for sid in 0..shards {
                    groups[sid % threads].push((sid, CandidateLists::new(3)));
                }
                for (i, probe) in metas.iter().enumerate() {
                    if i >= window {
                        let old = &metas[i - window];
                        mono.evict(old);
                        for group in &mut groups {
                            apply_evict(group, router, old);
                        }
                    }
                    let parts: Vec<Vec<u64>> = groups
                        .iter()
                        .map(|group| traverse_shards(group, &ctx, probe))
                        .collect();
                    prop_assert_eq!(
                        merge_surfaced(parts),
                        examined_ids([&mono], probe, gamma),
                        "S = {}, T = {}, arrival {}",
                        shards,
                        threads,
                        i
                    );
                    mono.insert(probe);
                    for group in &mut groups {
                        apply_insert(group, router, probe);
                    }
                }
                let mut all: Vec<(usize, CandidateLists)> = groups.into_iter().flatten().collect();
                all.sort_by_key(|(sid, _)| *sid);
                let live = &metas[metas.len().saturating_sub(window)..];
                let mut expect: Vec<(usize, u64)> =
                    live.iter().map(|m| (router.shard_of(m.id), m.id)).collect();
                expect.sort_unstable();
                prop_assert_eq!(placement(&all), expect, "S = {}, T = {}", shards, threads);
            }
        }
    }

    /// Property 3: the merged refine outcome is a deterministic function
    /// of the partial results' contents — re-partitioning the same pairs
    /// into different slices, in a different order, merges identically.
    #[test]
    fn merged_output_is_deterministic_in_input_order(
        pairs in proptest::collection::vec((0u64..50, 50u64..100), 0..40),
        split in 1usize..=5,
        rotate in 0usize..5,
    ) {
        let make_parts = |chunk: usize, rot: usize| -> Vec<RefineOutcome> {
            let mut parts: Vec<RefineOutcome> = pairs
                .chunks(chunk.max(1))
                .map(|c| RefineOutcome {
                    sim: c.len() as u64,
                    prob: 0,
                    instance: 1,
                    matches: c.to_vec(),
                })
                .collect();
            if !parts.is_empty() {
                let mid = rot % parts.len();
                parts.rotate_left(mid);
            }
            parts
        };
        let baseline = merge_outcomes(make_parts(pairs.len().max(1), 0));
        let other = merge_outcomes(make_parts(split, rotate));
        prop_assert_eq!(baseline.matches, other.matches);
        prop_assert_eq!(baseline.sim + baseline.instance > 0, !pairs.is_empty());

        // Surfaced-id union of sorted per-worker lists: partition- and
        // order-insensitive too, and equal to the sorted distinct ids.
        let ids: Vec<u64> = pairs.iter().map(|&(a, _)| a).collect();
        let sorted = |part: &[u64]| {
            let mut v = part.to_vec();
            v.sort_unstable();
            v.dedup();
            v
        };
        let chunked: Vec<Vec<u64>> = ids.chunks(split.max(1)).rev().map(sorted).collect();
        prop_assert_eq!(merge_surfaced(chunked), sorted(&ids));
    }
}
