//! Candidate enumeration and pair accounting, shared by the sequential
//! engine and the sharded batch-parallel engine (`ter_exec`).
//!
//! Both engines must take identical decisions about *which* live tuples
//! are examined (cell-level pruning, Theorem 4.1's topical restriction,
//! stream filtering, the per-entry token-signature bound) and how
//! never-examined pairs are attributed in the pruning statistics — any
//! divergence breaks the bit-identical-stats contract their
//! differential tests enforce. So there is one enumeration,
//! [`examined_ids`]: the sequential engine runs it over its single grid,
//! the sharded engine over each worker's shard group, and the per-worker
//! id lists merge as sorted vectors.

use ter_index::RegionGrid;

use crate::meta::{ErAggregate, TupleMeta};
use crate::metrics::PruneStats;
use crate::pruning::{cell_survives, signature_overlap};

/// What an ER-grid entry carries besides its aggregate: the tuple id and
/// the two attributes candidate selection filters on, so the cell walk
/// decides each entry without a metadata lookup. Equality is on the id
/// alone — the id names the tuple, the rest is derived from it.
#[derive(Debug, Clone, Copy)]
pub struct ErPayload {
    /// Tuple id.
    pub id: u64,
    /// Source stream.
    pub stream: u32,
    /// Whether some instance can contain a query keyword.
    pub topical: bool,
}

impl ErPayload {
    /// The payload registering `meta` in the ER-grid.
    pub fn of(meta: &TupleMeta) -> Self {
        Self {
            id: meta.id,
            stream: u32::try_from(meta.stream_id).expect("stream id exceeds u32"),
            topical: meta.possibly_topical,
        }
    }
}

impl PartialEq for ErPayload {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

/// The ER-grid `G_ER`, or one shard of it.
pub type ErGrid = RegionGrid<ErPayload, ErAggregate>;

/// The ids the pair-level cascade must examine for `probe`, ascending and
/// deduplicated: every entry of a cell that survives cell-level pruning
/// ([`cell_survives`], which includes the cell's OR-merged token
/// signatures) whose tuple comes from another stream (the problem
/// statement pairs tuples "from two of n data streams"), may be topical
/// unless the probe itself may be (Theorem 4.1), and shares tokens with
/// the probe in more than `γ` attributes (Theorem 4.2 by the signature
/// bound, [`ub_sim_signature`](crate::pruning::ub_sim_signature), read off
/// the entry's aggregate). Each test runs before the id is collected, so
/// a rejected entry costs no sort, no metadata lookup and no
/// [`decide_pair`](crate::decide_pair) call; it would have been
/// `SimPruned` there, and [`account_pairs`] counts it as `sim`. A region
/// spanning several surviving cells is reported once.
///
/// `grids` is the whole ER-grid or any group of its shards; the results
/// of disjoint shard groups merge with a sorted-vector union.
pub fn examined_ids<'g>(
    grids: impl IntoIterator<Item = &'g ErGrid>,
    probe: &TupleMeta,
    gamma: f64,
    aux_counts: &[usize],
) -> Vec<u64> {
    let mut ids = Vec::new();
    for grid in grids {
        grid.traverse(
            |_key, agg| cell_survives(probe, agg, gamma, aux_counts),
            |entry| {
                let e = entry.payload;
                if e.stream as usize != probe.stream_id
                    && (probe.possibly_topical || e.topical)
                    && signature_overlap(&probe.signatures, entry.agg.signatures()) > gamma
                {
                    ids.push(e.id);
                }
            },
        );
    }
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Live and possibly-topical tuple counts per stream — what
/// [`account_pairs`] needs, kept up to date at insert and expiry so pair
/// accounting costs O(streams), not O(window).
#[derive(Debug, Clone, Default)]
pub struct StreamCounts {
    live: Vec<usize>,
    topical: Vec<usize>,
}

impl StreamCounts {
    /// Counts for a restored window: the persisted per-stream live counts
    /// (which may carry zero entries for streams with no live tuple) and
    /// topical counts derived from the live metadata.
    pub fn restore(live: &[usize], metas: &[TupleMeta]) -> Self {
        let mut topical = vec![0; live.len()];
        for meta in metas.iter().filter(|m| m.possibly_topical) {
            topical[meta.stream_id] += 1;
        }
        Self {
            live: live.to_vec(),
            topical,
        }
    }

    /// Counts a tuple entering the window.
    pub fn add(&mut self, meta: &TupleMeta) {
        if self.live.len() <= meta.stream_id {
            self.live.resize(meta.stream_id + 1, 0);
            self.topical.resize(meta.stream_id + 1, 0);
        }
        self.live[meta.stream_id] += 1;
        if meta.possibly_topical {
            self.topical[meta.stream_id] += 1;
        }
    }

    /// Uncounts a tuple leaving the window.
    pub fn remove(&mut self, meta: &TupleMeta) {
        self.live[meta.stream_id] -= 1;
        if meta.possibly_topical {
            self.topical[meta.stream_id] -= 1;
        }
    }

    /// Live tuple count per stream id.
    pub fn live(&self) -> &[usize] {
        &self.live
    }

    /// Number of live tuples flagged possibly-topical.
    pub fn topical_total(&self) -> usize {
        self.topical.iter().sum()
    }
}

/// Counts this arrival's candidate pairs into `stats`: the eligible total
/// pairs (live tuples of other streams), plus bulk attribution of the
/// pairs never examined —
///
/// * topical probe: everything skipped was cell-pruned or rejected by
///   the entry's signature bound, and a cell visited for a topical tuple
///   can only fail a similarity check → `sim`;
/// * non-topical probe: skipped tuples are the non-topical ones
///   (Theorem 4.1, `topic`) plus topical ones that were cell-pruned or
///   signature-rejected (`sim`).
///
/// Call after the examined candidates were decided (their outcomes are
/// tallied by the caller) and before the probe is counted in `counts`.
pub fn account_pairs(
    probe: &TupleMeta,
    examined: u64,
    counts: &StreamCounts,
    stats: &mut PruneStats,
) {
    let other = |per_stream: &[usize]| -> u64 {
        per_stream
            .iter()
            .enumerate()
            .filter(|(sid, _)| *sid != probe.stream_id)
            .map(|(_, &c)| c as u64)
            .sum()
    };
    let eligible = other(&counts.live);
    stats.total_pairs += eligible;
    if probe.possibly_topical {
        stats.sim += eligible - examined;
    } else {
        let topical_eligible = other(&counts.topical);
        stats.topic += eligible - topical_eligible;
        stats.sim += topical_eligible - examined;
    }
}
