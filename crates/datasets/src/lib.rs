//! Synthetic datasets mirroring the paper's five evaluation datasets
//! (Table 4: Citations, Anime, Bikes, EBooks, Songs).
//!
//! The originals are real-world entity-matching corpora we cannot ship;
//! the generator reproduces the *properties the evaluation depends on*
//! (see DESIGN.md §4): two sources with a controlled fraction of shared
//! entities, topic-clustered vocabularies (so topic-keyword pruning has
//! selectivity), per-attribute token-set geometry (EBooks' long
//! `description` attribute is reproduced so its "largest token sets →
//! slowest" artifact shows up), attribute correlations that make CDD
//! discovery productive, and ground-truth match pairs by construction.
//!
//! [`preset`] builds one of the five datasets; [`GenOptions`] sets the
//! missing-value rate and arity, the repository ratio, the stream scale
//! and the seed. Topics are drawn uniformly. Everything is seeded and
//! deterministic.

pub mod generator;
pub mod presets;

pub use generator::{generate, AttrKind, AttrSpec, Dataset, DatasetSpec, GenOptions};
pub use presets::{preset, Preset};

use ter_text::fxhash::FxHashSet;

/// Restricts ground-truth pairs to those whose members co-exist in some
/// count-based window of size `w` under the round-robin arrival order —
/// pairs further apart can never be reported by a windowed method, so they
/// are excluded from the recall denominator (both for our engine and for
/// every baseline, keeping the comparison fair).
pub fn co_window_pairs(
    groundtruth: &FxHashSet<(u64, u64)>,
    arrivals: &[ter_stream::Arrival],
    w: usize,
) -> FxHashSet<(u64, u64)> {
    let mut position = ter_text::fxhash::FxHashMap::default();
    for a in arrivals {
        position.insert(a.record.id, a.timestamp);
    }
    groundtruth
        .iter()
        .filter(|(a, b)| match (position.get(a), position.get(b)) {
            (Some(&ta), Some(&tb)) => ta.abs_diff(tb) < w as u64,
            _ => false,
        })
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ter_repo::{Record, Schema};
    use ter_stream::StreamSet;
    use ter_text::Dictionary;

    #[test]
    fn co_window_filters_far_pairs() {
        let schema = Schema::new(vec!["a"]);
        let mut dict = Dictionary::new();
        let mk = |id: u64, d: &mut Dictionary| Record::from_texts(&schema, id, &[Some("x")], d);
        // Stream 0: ids 1..=4; stream 1: ids 11..=14 (round robin:
        // 1,11,2,12,3,13,4,14 → timestamps 0..8).
        let s0: Vec<Record> = (1..=4).map(|i| mk(i, &mut dict)).collect();
        let s1: Vec<Record> = (11..=14).map(|i| mk(i, &mut dict)).collect();
        let arrivals = StreamSet::new(vec![s0, s1]).arrivals();
        let gt: FxHashSet<(u64, u64)> = [(1, 11), (1, 14), (4, 11)].into_iter().collect();
        // (1,11): ts 0 vs 1 → within any window ≥ 2.
        // (1,14): ts 0 vs 7 → needs w > 7.
        // (4,11): ts 6 vs 1 → needs w > 5.
        let near = co_window_pairs(&gt, &arrivals, 3);
        assert_eq!(near.len(), 1);
        assert!(near.contains(&(1, 11)));
        let all = co_window_pairs(&gt, &arrivals, 100);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn pairs_with_unknown_ids_are_dropped() {
        let gt: FxHashSet<(u64, u64)> = [(100, 200)].into_iter().collect();
        assert!(co_window_pairs(&gt, &[], 10).is_empty());
    }
}
