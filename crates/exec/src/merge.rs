//! Deterministic merges of per-shard / per-worker step results.
//!
//! Workers race; merges must not. Every function here maps the *contents*
//! of the per-worker partial results to one canonical value — the output
//! never depends on which worker finished first or how the work was
//! partitioned, which is what makes the batch-parallel engine's output a
//! deterministic function of the arrival order alone (property-tested in
//! `proptests.rs`).

pub use ter_ids::RefineOutcome;

/// Union of per-worker candidate id lists, each sorted and deduplicated.
/// The shard groups partition the live tuples, so the union — sorted,
/// deduplicated — equals the sequential engine's candidate list.
pub fn merge_surfaced(parts: Vec<Vec<u64>>) -> Vec<u64> {
    let mut ids = parts.concat();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Merges per-worker outcomes into one arrival-level outcome. Counters
/// are summed; matches are sorted by normalized pair, so the merged match
/// order is a deterministic function of the match *set* — independent of
/// worker count, slice boundaries, and completion order.
pub fn merge_outcomes(parts: impl IntoIterator<Item = RefineOutcome>) -> RefineOutcome {
    let mut out = RefineOutcome::default();
    for p in parts {
        out.absorb(p);
    }
    out.matches.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surfaced_union_deduplicates() {
        let merged = merge_surfaced(vec![vec![1, 2, 3], vec![3, 4], vec![], vec![2]]);
        assert_eq!(merged, vec![1, 2, 3, 4]);
        assert_eq!(merge_surfaced(vec![vec![], vec![5, 9]]), vec![5, 9]);
        assert_eq!(merge_surfaced(Vec::new()), Vec::<u64>::new());
    }

    #[test]
    fn outcome_merge_sums_and_sorts() {
        let a = RefineOutcome {
            sim: 2,
            prob: 1,
            instance: 0,
            matches: vec![(5, 9), (1, 2)],
        };
        let b = RefineOutcome {
            sim: 1,
            prob: 0,
            instance: 3,
            matches: vec![(3, 4)],
        };
        let m = merge_outcomes([a.clone(), b.clone()]);
        assert_eq!((m.sim, m.prob, m.instance), (3, 1, 3));
        assert_eq!(m.matches, vec![(1, 2), (3, 4), (5, 9)]);
        // Partition order must not matter.
        assert_eq!(m, merge_outcomes([b, a]));
    }

    #[test]
    fn empty_merge_is_default() {
        assert_eq!(merge_outcomes([]), RefineOutcome::default());
    }
}
