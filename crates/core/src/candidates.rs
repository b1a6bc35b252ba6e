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

use std::sync::Arc;

use crate::meta::TupleMeta;
use crate::metrics::PruneStats;
use crate::pruning::{overlap_threshold, signature_overlap};

/// One FIFO list of live tuples in one contiguous buffer: entry after
/// entry, each the tuple's id followed by its `d` signature words. The
/// entries before `head` are expired; they are dropped once they make up
/// half the buffer, so expiry costs amortized O(1) and the scan reads one
/// slice front to back.
#[derive(Debug, Clone, Default)]
struct SignatureList {
    entries: Vec<u64>,
    /// Offset of the oldest live entry.
    head: usize,
}

impl SignatureList {
    /// The live entries, `stride` words each.
    fn live(&self) -> &[u64] {
        &self.entries[self.head..]
    }
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

    /// Words per list entry: the id and the `d` signature words.
    fn stride(&self) -> usize {
        self.arity + 1
    }

    /// Appends a tuple entering the window to its list.
    pub fn insert(&mut self, meta: &TupleMeta) {
        debug_assert_eq!(meta.signatures.len(), self.arity);
        if self.lists.len() <= meta.stream_id {
            self.lists.resize_with(meta.stream_id + 1, Default::default);
        }
        let list = &mut self.lists[meta.stream_id][usize::from(meta.possibly_topical)];
        list.entries.push(meta.id);
        list.entries.extend_from_slice(&meta.signatures);
    }

    /// Removes a tuple leaving the window, which is the oldest entry of
    /// its list.
    pub fn evict(&mut self, meta: &TupleMeta) {
        let stride = self.stride();
        let list = &mut self.lists[meta.stream_id][usize::from(meta.possibly_topical)];
        debug_assert_eq!(
            list.live().first(),
            Some(&meta.id),
            "evicted tuple is not its list's oldest"
        );
        list.head += stride;
        if 2 * list.head >= list.entries.len() {
            list.entries.drain(..list.head);
            list.head = 0;
        }
    }

    /// Number of entries over all lists.
    pub fn len(&self) -> usize {
        self.list_lengths().sum()
    }

    /// Whether no list holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The lengths of the non-empty lists.
    pub fn list_lengths(&self) -> impl Iterator<Item = usize> + '_ {
        let stride = self.stride();
        self.lists
            .iter()
            .flatten()
            .map(move |l| l.live().len() / stride)
            .filter(|&n| n > 0)
    }

    /// Pushes the ids of `list` whose signatures intersect `probe` in at
    /// least `min_overlap` attributes.
    fn scan(&self, list: &SignatureList, probe: &[u64], min_overlap: usize, out: &mut Vec<u64>) {
        for entry in list.live().chunks_exact(self.stride()) {
            if signature_overlap(probe, &entry[1..]) >= min_overlap {
                out.push(entry[0]);
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
        let min_overlap = overlap_threshold(gamma);
        let mut ids = Vec::new();
        for (stream, [plain, topical]) in self.lists.iter().enumerate() {
            if stream == probe.stream_id {
                continue;
            }
            self.scan(topical, &probe.signatures, min_overlap, &mut ids);
            if probe.possibly_topical {
                self.scan(plain, &probe.signatures, min_overlap, &mut ids);
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

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;
    use ter_repo::Record;
    use ter_stream::ProbTuple;
    use ter_text::TokenSet;

    /// Metadata carrying only what the lists read: the ids, the
    /// topicality and the signatures.
    fn meta(id: u64, stream_id: usize, possibly_topical: bool, signatures: Vec<u64>) -> TupleMeta {
        let base = Record {
            id,
            attrs: vec![Some(TokenSet::empty()); signatures.len()],
        };
        TupleMeta {
            id,
            stream_id,
            timestamp: id,
            tuple: Arc::new(ProbTuple::certain(base)),
            main_bounds: Vec::new(),
            main_expect: Vec::new(),
            aux_bounds: Vec::new(),
            size_bounds: Vec::new(),
            possibly_topical,
            signatures: signatures.into(),
        }
    }

    /// Over a sliding window of random four-attribute signatures, the
    /// contiguous scan's integer test keeps exactly the entries whose
    /// overlap exceeds `γ` as an `f64`, at integer thresholds (where `>`
    /// and `≥` part), fractional ones, and the edges; and expiry with its
    /// compaction keeps every list in window order.
    #[test]
    fn scan_keeps_exactly_the_overlaps_above_gamma() {
        const GAMMAS: [f64; 11] = [-1.0, -0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, f64::NAN];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut lists = CandidateLists::new(4);
        let mut window: VecDeque<TupleMeta> = VecDeque::new();
        let mut seen = [0usize; GAMMAS.len()];
        for id in 0..300 {
            // Two of eight bits per word, so overlaps spread over 0..=4.
            let sigs = (0..4)
                .map(|_| (1 << (next() % 8)) | (1 << (next() % 8)))
                .collect();
            let probe = meta(id, (next() % 3) as usize, next() % 3 == 0, sigs);
            if window.len() == 24 {
                lists.evict(&window.pop_front().unwrap());
            }
            for (g, &gamma) in GAMMAS.iter().enumerate() {
                let mut expect: Vec<u64> = window
                    .iter()
                    .filter(|m| m.stream_id != probe.stream_id)
                    .filter(|m| probe.possibly_topical || m.possibly_topical)
                    .filter(|m| signature_overlap(&probe.signatures, &m.signatures) as f64 > gamma)
                    .map(|m| m.id)
                    .collect();
                expect.sort_unstable();
                assert_eq!(
                    lists.examined_ids(&probe, gamma),
                    expect,
                    "γ {gamma}, arrival {id}"
                );
                seen[g] += expect.len();
            }
            lists.insert(&probe);
            window.push_back(probe);
            assert_eq!(lists.len(), window.len());
        }
        // Every threshold below the arity keeps some entries; NaN and 4
        // keep none.
        assert!(seen[..9].iter().all(|&n| n > 0), "{seen:?}");
        assert_eq!(seen[9..], [0, 0]);
    }
}
