//! Candidate enumeration and pair accounting.
//!
//! The live tuples are kept in [`CandidateLists`]: one FIFO list per
//! (stream, topicality) pair, each holding the tuples' ids and, beside
//! them, their per-attribute token signatures. This replaces the paper's
//! pivot-space ER-grid `G_ER` (§5.2). On the benchmark streams nearly the
//! whole window sat in one grid cell, and a flat scan with the stream,
//! topical and signature tests kept exactly the candidates the cell walk
//! kept, at lower cost; the cells' pivot and size bounds removed nothing
//! the signature test does not.
//!
//! Which live tuples are examined (stream filtering, Theorem 4.1's
//! topical restriction, the per-entry token-signature bound) is decided
//! by one scan, [`CandidateLists::examined_ids`], and how never-examined
//! pairs are attributed in the pruning statistics by one function,
//! [`account_pairs`].

use std::collections::VecDeque;
use std::sync::Arc;

use crate::meta::TupleMeta;
use crate::metrics::PruneStats;
use crate::pruning::signature_overlap;

/// One FIFO list of live tuples, structure-of-arrays: the ids in arrival
/// order, and beside them each entry's `d` signature words, entry after
/// entry.
#[derive(Debug, Clone, Default)]
struct SignatureList {
    ids: VecDeque<u64>,
    words: VecDeque<u64>,
}

/// The live tuples, split into one signature list per
/// (stream, topicality) pair. Every list is a subsequence of the window,
/// so the tuple the window evicts is always the front of its list:
/// insert is a push at the back, expiry a pop at the front.
#[derive(Debug, Clone)]
pub struct CandidateLists {
    arity: usize,
    /// `lists[stream][possibly_topical as usize]`.
    lists: Vec<[SignatureList; 2]>,
}

impl CandidateLists {
    /// Empty lists for tuples of arity `arity`.
    pub fn new(arity: usize) -> Self {
        Self {
            arity,
            lists: Vec::new(),
        }
    }

    /// Appends a tuple entering the window to its list.
    pub fn insert(&mut self, meta: &TupleMeta) {
        debug_assert_eq!(meta.signatures.len(), self.arity);
        if self.lists.len() <= meta.stream_id {
            self.lists.resize_with(meta.stream_id + 1, Default::default);
        }
        let list = &mut self.lists[meta.stream_id][usize::from(meta.possibly_topical)];
        list.ids.push_back(meta.id);
        list.words.extend(meta.signatures.iter().copied());
    }

    /// Removes a tuple leaving the window, which is the oldest entry of
    /// its list.
    pub fn evict(&mut self, meta: &TupleMeta) {
        let list = &mut self.lists[meta.stream_id][usize::from(meta.possibly_topical)];
        let front = list.ids.pop_front();
        debug_assert_eq!(
            front,
            Some(meta.id),
            "evicted tuple is not its list's oldest"
        );
        list.words.drain(..self.arity);
    }

    /// Number of entries over all lists.
    pub fn len(&self) -> usize {
        self.lists.iter().flatten().map(|l| l.ids.len()).sum()
    }

    /// Whether no list holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The lengths of the non-empty lists.
    pub fn list_lengths(&self) -> impl Iterator<Item = usize> + '_ {
        self.lists
            .iter()
            .flatten()
            .map(|l| l.ids.len())
            .filter(|&n| n > 0)
    }

    /// Pushes the ids of `list` whose signatures intersect `probe` in
    /// more than `gamma` attributes.
    fn scan(&self, list: &SignatureList, probe: &[u64], gamma: f64, out: &mut Vec<u64>) {
        let mut words = list.words.iter();
        for &id in &list.ids {
            if signature_overlap(probe, words.by_ref().take(self.arity)) > gamma {
                out.push(id);
            }
        }
    }

    /// The ids the pair-level cascade must examine for `probe`, ascending:
    /// every live tuple that comes from another stream (the problem
    /// statement pairs tuples "from two of n data streams"), may be
    /// topical unless the probe itself may be (Theorem 4.1), and shares
    /// tokens with the probe in more than `γ` attributes (Theorem 4.2 by
    /// the signature bound,
    /// [`ub_sim_signature`](crate::pruning::ub_sim_signature)). The first
    /// two tests pick the lists to scan: the other streams' topical lists,
    /// and their non-topical lists only for a possibly topical probe. The
    /// third runs per entry before its id is collected, so a rejected
    /// entry costs no sort, no metadata lookup and no
    /// [`decide_pair`](crate::decide_pair) call; it would have been
    /// `SimPruned` there, and [`account_pairs`] counts it as `sim`.
    pub fn examined_ids(&self, probe: &TupleMeta, gamma: f64) -> Vec<u64> {
        let mut ids = Vec::new();
        for (stream, [plain, topical]) in self.lists.iter().enumerate() {
            if stream == probe.stream_id {
                continue;
            }
            self.scan(topical, &probe.signatures, gamma, &mut ids);
            if probe.possibly_topical {
                self.scan(plain, &probe.signatures, gamma, &mut ids);
            }
        }
        ids.sort_unstable();
        ids
    }
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
    pub fn restore(live: &[usize], metas: &[Arc<TupleMeta>]) -> Self {
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
/// * topical probe: everything skipped was rejected by its signature
///   bound → `sim`;
/// * non-topical probe: skipped tuples are the non-topical ones
///   (Theorem 4.1, `topic`) plus topical ones rejected by their
///   signature bound (`sim`).
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
