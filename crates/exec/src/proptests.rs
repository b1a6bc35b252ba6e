//! Property tests for the shard router and the deterministic merge.
//!
//! Three guarantees underpin the engine-level parity proof:
//!
//! 1. the router partitions cells — every cell (hence every cell of every
//!    tuple's region) routes to exactly one shard;
//! 2. replaying a sliding-window insert/evict history against any shard
//!    count leaves the union of shard grids cell-for-cell equal to the
//!    monolithic grid — retained vs expired tuples relative to the window
//!    bounds never depend on the shard count;
//! 3. the merged output is a deterministic function of the input contents
//!    and arrival order — never of worker count, slice partition, or
//!    completion order.

use proptest::prelude::*;

use ter_index::{Aggregate, Rect, RegionGrid};
use ter_text::Interval;

use crate::merge::{merge_outcomes, merge_surfaced, RefineOutcome};
use ter_ids::ShardRouter;

#[derive(Debug, Clone, PartialEq)]
struct Count(usize);
impl Aggregate for Count {
    fn merge(&mut self, o: &Self) {
        self.0 += o.0;
    }
}

fn arb_rect(dim: usize) -> impl Strategy<Value = Rect> {
    proptest::collection::vec(
        ((0u32..=100), (0u32..=100)).prop_map(|(a, b)| {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            Interval::new(lo as f64 / 100.0, hi as f64 / 100.0)
        }),
        dim,
    )
    .prop_map(Rect::new)
}

/// Sorted `(cell key, payload)` pairs of one or more grids — the exact
/// placement, comparable across shardings.
fn placement(grids: &[RegionGrid<u64, Count>]) -> Vec<(Vec<u16>, u64)> {
    let mut out: Vec<(Vec<u16>, u64)> = grids
        .iter()
        .flat_map(|g| {
            g.iter_cells().flat_map(|(key, entries)| {
                entries
                    .map(move |e| (key.to_vec(), e.payload))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property 1: for every cell key and shard count, exactly one shard
    /// owns the cell, and the owner is a pure function of the key.
    #[test]
    fn every_cell_routes_to_exactly_one_shard(
        key in proptest::collection::vec(0u16..64, 1..5),
        shards in 1usize..=8,
    ) {
        let router = ShardRouter::new(shards);
        let owners: Vec<usize> =
            (0..shards).filter(|&s| router.owns(s, &key)).collect();
        prop_assert_eq!(owners.len(), 1, "key {:?} owned by {:?}", key, owners);
        prop_assert_eq!(owners[0], router.shard_of(&key));
        prop_assert_eq!(router.shard_of(&key), router.shard_of(&key));
    }

    /// Property 2: replaying a sliding-window history (insert the arriving
    /// region, evict the one leaving the window) against S shard grids
    /// leaves their union cell-for-cell identical to the monolithic grid,
    /// for every S — so which tuples are retained vs expired relative to
    /// the window bounds never depends on the shard count.
    #[test]
    fn sharded_window_churn_equals_monolithic(
        rects in proptest::collection::vec(arb_rect(2), 1..24),
        window in 1usize..=6,
        cells in 2u16..=6,
    ) {
        let mono_placement = {
            let mut mono: RegionGrid<u64, Count> = RegionGrid::new(2, cells);
            for (i, r) in rects.iter().enumerate() {
                mono.insert(r.clone(), i as u64, Count(1));
                if i >= window {
                    let old = i - window;
                    mono.evict(&rects[old], &(old as u64));
                }
            }
            placement(std::slice::from_ref(&mono))
        };
        for shards in [1usize, 2, 3, 4, 8] {
            let router = ShardRouter::new(shards);
            let mut grids: Vec<RegionGrid<u64, Count>> =
                (0..shards).map(|_| RegionGrid::new(2, cells)).collect();
            for (i, r) in rects.iter().enumerate() {
                for (s, g) in grids.iter_mut().enumerate() {
                    g.insert_where(r.clone(), i as u64, Count(1), |key| router.owns(s, key));
                }
                if i >= window {
                    let old = i - window;
                    for g in grids.iter_mut() {
                        g.evict(&rects[old], &(old as u64));
                    }
                }
            }
            prop_assert_eq!(
                placement(&grids),
                mono_placement.clone(),
                "shard count {}",
                shards
            );
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
