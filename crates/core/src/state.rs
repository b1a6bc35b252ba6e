//! Engine-agnostic snapshot of a TER-iDS engine's dynamic state.
//!
//! [`EngineState`] captures everything that changes as arrivals are
//! consumed — the sliding window, per-tuple metadata (including the
//! imputed probabilistic tuples), per-stream live counts, the live result
//! set `ES`, the reported-pair history and cumulative prune statistics.
//! Everything an engine derives from the static
//! [`TerContext`](crate::TerContext) (pivots, rules, indexes, keywords) is
//! deliberately *not* here: the offline pre-computation is a deterministic
//! function of the repository, so a restarted service rebuilds it and
//! grafts this state on top. Neither are the candidate lists
//! ([`CandidateLists`](crate::candidates::CandidateLists)): they are the
//! window split by stream and topicality, and an importing engine rebuilds
//! them by inserting the window in order.
//!
//! The representation is canonical — window entries in arrival order,
//! result/reported pairs sorted — so the sequential `TerIdsEngine` and the
//! sharded `ShardedTerIdsEngine` export *equal* states at the same stream
//! position, and a checkpoint taken from one engine restores into the
//! other.
//!
//! Import is validating, not trusting: [`EngineState::validate`] checks
//! every cross-field invariant (window/meta agreement, timestamp
//! monotonicity, id uniqueness, stream-count consistency, pair liveness)
//! and returns `Err` instead of panicking, because the
//! recovery path must survive arbitrary on-disk corruption that slipped
//! past the frame CRCs.

use ter_text::fxhash::FxHashSet;

use crate::meta::TupleMeta;
use crate::metrics::PruneStats;

/// A snapshot of one engine's dynamic state. See the [module docs](self).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EngineState {
    /// Window capacity `w` the snapshot was taken under (import into an
    /// engine with a different `w` is refused — the result set would not
    /// be comparable).
    pub window_capacity: usize,
    /// `(timestamp, tuple id)` of every unexpired tuple, oldest first.
    pub window: Vec<(u64, u64)>,
    /// Metadata of the unexpired tuples, in window (arrival) order.
    pub metas: Vec<TupleMeta>,
    /// Live tuple count per stream. Kept verbatim (not re-derived) because
    /// trailing zero entries from fully-expired streams are part of the
    /// engine's observable accounting state.
    pub stream_counts: Vec<usize>,
    /// The live result set `ES`, `(min, max)`-normalized and sorted.
    pub results: Vec<(u64, u64)>,
    /// Every pair ever reported, `(min, max)`-normalized and sorted.
    pub reported: Vec<(u64, u64)>,
    /// Cumulative pruning counters.
    pub stats: PruneStats,
}

impl EngineState {
    /// Checks every invariant an importing engine relies on, against the
    /// engine's schema arity and configured window capacity. Returns a
    /// description of the first violation.
    pub fn validate(&self, arity: usize, window_capacity: usize) -> Result<(), String> {
        if self.window_capacity != window_capacity {
            return Err(format!(
                "state window capacity {} != engine window {}",
                self.window_capacity, window_capacity
            ));
        }
        if self.window.len() > window_capacity {
            return Err(format!(
                "{} window entries exceed capacity {}",
                self.window.len(),
                window_capacity
            ));
        }
        if self.metas.len() != self.window.len() {
            return Err(format!(
                "{} metas for {} window entries",
                self.metas.len(),
                self.window.len()
            ));
        }
        let mut ids: FxHashSet<u64> = FxHashSet::default();
        let mut prev_ts: Option<u64> = None;
        for ((ts, id), meta) in self.window.iter().zip(&self.metas) {
            if prev_ts.is_some_and(|p| p > *ts) {
                return Err(format!("window timestamps decrease at {ts}"));
            }
            prev_ts = Some(*ts);
            if meta.id != *id || meta.timestamp != *ts {
                return Err(format!(
                    "meta ({}, t={}) does not match window entry ({id}, t={ts})",
                    meta.id, meta.timestamp
                ));
            }
            if meta.arity() != arity {
                return Err(format!(
                    "meta {id} has arity {} but engine schema has {arity}",
                    meta.arity()
                ));
            }
            // The candidate lists store `arity` signature words per entry.
            if meta.signatures.len() != arity {
                return Err(format!(
                    "meta {id} has {} signature words for arity {arity}",
                    meta.signatures.len()
                ));
            }
            if !ids.insert(*id) {
                return Err(format!("duplicate tuple id {id}"));
            }
        }
        // Stream counts must agree with the live metas: each live stream's
        // count exact, extra (historical) entries zero.
        let mut derived: Vec<usize> = Vec::new();
        for meta in &self.metas {
            if derived.len() <= meta.stream_id {
                derived.resize(meta.stream_id + 1, 0);
            }
            derived[meta.stream_id] += 1;
        }
        if self.stream_counts.len() < derived.len() {
            return Err(format!(
                "stream_counts has {} entries but live tuples span {} streams",
                self.stream_counts.len(),
                derived.len()
            ));
        }
        for (sid, &count) in self.stream_counts.iter().enumerate() {
            let expect = derived.get(sid).copied().unwrap_or(0);
            if count != expect {
                return Err(format!(
                    "stream {sid} count {count} but {expect} live tuples"
                ));
            }
        }
        for &(a, b) in &self.results {
            if a >= b {
                return Err(format!("result pair ({a}, {b}) not normalized"));
            }
            if !ids.contains(&a) || !ids.contains(&b) {
                return Err(format!("result pair ({a}, {b}) references expired tuples"));
            }
        }
        for &(a, b) in &self.reported {
            if a >= b {
                return Err(format!("reported pair ({a}, {b}) not normalized"));
            }
        }
        Ok(())
    }

    /// Number of live tuples in the snapshot.
    pub fn live_count(&self) -> usize {
        self.window.len()
    }
}

/// The incremental difference between two [`EngineState`] snapshots of
/// the *same* engine at two stream positions — the payload of a delta
/// checkpoint.
///
/// Legality rests on the window discipline: entries are appended at the
/// back and evicted from the front, never reordered or mutated in place,
/// so the base's window splits into an evicted prefix and a surviving
/// suffix that is bit-identical in the successor. The delta then carries
/// exactly the evicted ids, the new arrivals (with their metas), the
/// result-set adds/removes, the reported-pair additions (reported is
/// append-only), plus the small whole-copy fields (stream counts, prune counters) whose
/// size does not grow with the window. At low churn the encoded delta is
/// proportional to the churn, not to the window.
///
/// [`delta_between`] refuses (returns `Err`) whenever the two snapshots
/// do not satisfy the append/evict-only relationship — a surviving meta
/// that changed, a reported pair that vanished — so a caller can always
/// fall back to a full checkpoint instead of persisting a lie.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StateDelta {
    /// Window capacity both snapshots were taken under.
    pub window_capacity: usize,
    /// Ids evicted from the window front since the base, oldest first.
    pub evicted: Vec<u64>,
    /// `(timestamp, id)` of entries appended since the base, in arrival
    /// order.
    pub arrivals: Vec<(u64, u64)>,
    /// Metadata of the appended entries, in the same order.
    pub arrival_metas: Vec<TupleMeta>,
    /// Full replacement of the per-stream live counts (small).
    pub stream_counts: Vec<usize>,
    /// Result pairs present in the successor but not the base, sorted.
    pub results_added: Vec<(u64, u64)>,
    /// Result pairs present in the base but not the successor, sorted.
    pub results_removed: Vec<(u64, u64)>,
    /// Reported pairs new in the successor, sorted (reported history is
    /// append-only; a vanished pair makes [`delta_between`] refuse).
    pub reported_added: Vec<(u64, u64)>,
    /// Full replacement of the cumulative prune counters (small).
    pub stats: PruneStats,
}

impl StateDelta {
    /// Whether the delta carries no change at all.
    pub fn is_empty(&self) -> bool {
        self.evicted.is_empty()
            && self.arrivals.is_empty()
            && self.results_added.is_empty()
            && self.results_removed.is_empty()
            && self.reported_added.is_empty()
    }

    /// Number of window entries the delta touches (arrivals + evictions)
    /// — the churn the delta's size should be proportional to.
    pub fn churn(&self) -> usize {
        self.evicted.len() + self.arrivals.len()
    }

    /// Reconstructs the successor snapshot from the base. Validating, not
    /// trusting: every structural assumption (eviction prefix matches,
    /// added pairs absent from the base, removed pairs present) is
    /// checked and a violation returns `Err` — the recovery
    /// path feeds this arbitrary on-disk bytes and must degrade, never
    /// panic. The result still goes through the importing engine's
    /// [`EngineState::validate`], so this only needs to be
    /// self-consistent, not exhaustive.
    pub fn apply(&self, base: &EngineState) -> Result<EngineState, String> {
        if self.window_capacity != base.window_capacity {
            return Err(format!(
                "delta window capacity {} != base {}",
                self.window_capacity, base.window_capacity
            ));
        }
        if self.arrival_metas.len() != self.arrivals.len() {
            return Err(format!(
                "{} metas for {} delta arrivals",
                self.arrival_metas.len(),
                self.arrivals.len()
            ));
        }
        let e = self.evicted.len();
        if e > base.window.len() {
            return Err(format!(
                "delta evicts {e} of {} base entries",
                base.window.len()
            ));
        }
        for (i, id) in self.evicted.iter().enumerate() {
            if base.window[i].1 != *id {
                return Err(format!(
                    "evicted id {id} does not match base window front {}",
                    base.window[i].1
                ));
            }
        }
        let mut window = base.window[e..].to_vec();
        window.extend_from_slice(&self.arrivals);
        let mut metas = base.metas[e..].to_vec();
        metas.extend(self.arrival_metas.iter().cloned());
        let results = apply_pair_delta(
            &base.results,
            &self.results_added,
            &self.results_removed,
            "result",
        )?;
        let reported = apply_pair_delta(&base.reported, &self.reported_added, &[], "reported")?;
        Ok(EngineState {
            window_capacity: self.window_capacity,
            window,
            metas,
            stream_counts: self.stream_counts.clone(),
            results,
            reported,
            stats: self.stats,
        })
    }
}

/// `base ∪ added ∖ removed` over sorted pair lists, verifying that every
/// added pair is genuinely absent from the base and every removed pair
/// genuinely present (set semantics — anything else means the delta does
/// not belong to this base).
fn apply_pair_delta(
    base: &[(u64, u64)],
    added: &[(u64, u64)],
    removed: &[(u64, u64)],
    what: &str,
) -> Result<Vec<(u64, u64)>, String> {
    for w in [added, removed] {
        if w.windows(2).any(|p| p[0] >= p[1]) {
            return Err(format!("delta {what} pairs not strictly sorted"));
        }
    }
    for p in removed {
        if base.binary_search(p).is_err() {
            return Err(format!("delta removes {what} pair {p:?} absent from base"));
        }
    }
    let mut out = Vec::with_capacity(base.len() + added.len() - removed.len());
    let (mut bi, mut ai) = (0, 0);
    let mut ri = 0;
    while bi < base.len() || ai < added.len() {
        let take_add = match (base.get(bi), added.get(ai)) {
            (Some(b), Some(a)) => {
                if a == b {
                    return Err(format!("delta adds {what} pair {a:?} already in base"));
                }
                a < b
            }
            (None, Some(_)) => true,
            _ => false,
        };
        if take_add {
            out.push(added[ai]);
            ai += 1;
        } else {
            let b = base[bi];
            bi += 1;
            if removed.get(ri) == Some(&b) {
                ri += 1;
                continue;
            }
            out.push(b);
        }
    }
    Ok(out)
}

/// Computes the [`StateDelta`] taking `base` to `next`, or `Err` when the
/// two snapshots do not stand in the append/evict-only relationship the
/// delta encoding requires (callers fall back to a full checkpoint).
///
/// Guaranteed inverse of [`StateDelta::apply`]:
/// `delta_between(base, next)?.apply(base)? == *next` — the delta-chain
/// parity tests assert this bit-for-bit across both engines.
pub fn delta_between(base: &EngineState, next: &EngineState) -> Result<StateDelta, String> {
    if base.window_capacity != next.window_capacity {
        return Err(format!(
            "window capacity changed {} -> {}",
            base.window_capacity, next.window_capacity
        ));
    }
    // Survivors of the base window are exactly its entries whose id is
    // still live in `next`; evict-only-from-front means they must form a
    // suffix of the base *and* a prefix of the successor, bit-identical
    // metas included. Any mismatch refuses the delta.
    let next_ids: FxHashSet<u64> = next.window.iter().map(|&(_, id)| id).collect();
    let evict_count = base
        .window
        .iter()
        .take_while(|(_, id)| !next_ids.contains(id))
        .count();
    let survivors = base.window.len() - evict_count;
    if survivors > next.window.len() || base.window[evict_count..] != next.window[..survivors] {
        return Err("base window is not an evict-prefix of the successor".into());
    }
    if base.metas[evict_count..] != next.metas[..survivors] {
        return Err("a surviving window entry's meta changed".into());
    }
    let evicted: Vec<u64> = base.window[..evict_count]
        .iter()
        .map(|&(_, id)| id)
        .collect();
    let arrivals: Vec<(u64, u64)> = next.window[survivors..].to_vec();
    let arrival_metas: Vec<TupleMeta> = next.metas[survivors..].to_vec();

    let (results_added, results_removed) = diff_sorted_pairs(&base.results, &next.results);
    let (reported_added, reported_removed) = diff_sorted_pairs(&base.reported, &next.reported);
    if !reported_removed.is_empty() {
        return Err(format!(
            "reported pair {:?} vanished (history must be append-only)",
            reported_removed[0]
        ));
    }

    Ok(StateDelta {
        window_capacity: next.window_capacity,
        evicted,
        arrivals,
        arrival_metas,
        stream_counts: next.stream_counts.clone(),
        results_added,
        results_removed,
        reported_added,
        stats: next.stats,
    })
}

/// Sorted pair lists partitioned by side: `(in next only, in base only)`.
type PairDiff = (Vec<(u64, u64)>, Vec<(u64, u64)>);

fn diff_sorted_pairs(base: &[(u64, u64)], next: &[(u64, u64)]) -> PairDiff {
    let mut added = Vec::new();
    let mut removed = Vec::new();
    let (mut bi, mut ni) = (0, 0);
    while bi < base.len() || ni < next.len() {
        match (base.get(bi), next.get(ni)) {
            (Some(b), Some(n)) => {
                if b == n {
                    bi += 1;
                    ni += 1;
                } else if b < n {
                    removed.push(*b);
                    bi += 1;
                } else {
                    added.push(*n);
                    ni += 1;
                }
            }
            (Some(b), None) => {
                removed.push(*b);
                bi += 1;
            }
            (None, Some(n)) => {
                added.push(*n);
                ni += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    (added, removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ter_repo::{Record, Schema};
    use ter_stream::ProbTuple;
    use ter_text::{Dictionary, TopicVector};

    /// A minimal hand-built meta (field-literal; validation only looks at
    /// id/stream/timestamp/arity).
    fn meta(id: u64, stream_id: usize, timestamp: u64) -> TupleMeta {
        let schema = Schema::new(vec!["a", "b"]);
        let mut dict = Dictionary::new();
        let rec = Record::from_texts(&schema, id, &[Some("x"), Some("y")], &mut dict);
        let tuple = ProbTuple::certain(rec);
        TupleMeta {
            id,
            stream_id,
            timestamp,
            signatures: TupleMeta::signatures_of(&tuple),
            tuple,
            main_bounds: vec![ter_text::Interval::point(0.1); 2],
            main_expect: vec![0.1; 2],
            aux_bounds: vec![],
            size_bounds: vec![ter_text::Interval::point(1.0); 2],
            topics: TopicVector::zeros(1),
            possibly_topical: false,
        }
    }

    fn valid_state() -> EngineState {
        EngineState {
            window_capacity: 4,
            window: vec![(0, 10), (1, 11)],
            metas: vec![meta(10, 0, 0), meta(11, 1, 1)],
            stream_counts: vec![1, 1],
            results: vec![(10, 11)],
            reported: vec![(10, 11)],
            stats: PruneStats::default(),
        }
    }

    #[test]
    fn valid_state_passes() {
        valid_state().validate(2, 4).unwrap();
    }

    type Mutation = Box<dyn Fn(&mut EngineState)>;

    #[test]
    fn rejections() {
        let cases: Vec<(&str, Mutation)> = vec![
            ("capacity", Box::new(|s| s.window_capacity = 8)),
            ("meta count", Box::new(|s| s.metas.truncate(1))),
            ("timestamps", Box::new(|s| s.window[1].0 = 0)),
            ("id mismatch", Box::new(|s| s.window[1].1 = 99)),
            ("stream counts", Box::new(|s| s.stream_counts = vec![2, 0])),
            (
                "signature width",
                Box::new(|s| s.metas[1].signatures = vec![0; 3].into()),
            ),
            ("result liveness", Box::new(|s| s.results = vec![(10, 99)])),
            (
                "result normalization",
                Box::new(|s| s.results = vec![(11, 10)]),
            ),
        ];
        for (label, mutate) in cases {
            let mut s = valid_state();
            mutate(&mut s);
            assert!(s.validate(2, 4).is_err(), "{label} accepted");
        }
    }

    #[test]
    fn window_overflow_rejected() {
        let s = valid_state();
        assert!(s.validate(2, 1).is_err());
    }

    /// A successor of `valid_state`: entry 10 evicted, 12 and 13 arrived,
    /// one result removed with the eviction, one added.
    fn successor_state() -> EngineState {
        EngineState {
            window_capacity: 4,
            window: vec![(1, 11), (2, 12), (3, 13)],
            metas: vec![meta(11, 1, 1), meta(12, 0, 2), meta(13, 0, 3)],
            stream_counts: vec![2, 1],
            results: vec![(11, 12)],
            reported: vec![(10, 11), (11, 12)],
            stats: PruneStats {
                total_pairs: 7,
                ..PruneStats::default()
            },
        }
    }

    #[test]
    fn delta_round_trips_bit_identically() {
        let base = valid_state();
        let next = successor_state();
        let d = delta_between(&base, &next).unwrap();
        assert_eq!(d.evicted, vec![10]);
        assert_eq!(d.arrivals, vec![(2, 12), (3, 13)]);
        assert_eq!(d.churn(), 3);
        assert_eq!(d.results_added, vec![(11, 12)]);
        assert_eq!(d.results_removed, vec![(10, 11)]);
        assert_eq!(d.reported_added, vec![(11, 12)]);
        assert_eq!(d.apply(&base).unwrap(), next);
        next.validate(2, 4).unwrap();
    }

    #[test]
    fn empty_delta_between_equal_states() {
        let s = valid_state();
        let d = delta_between(&s, &s).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.churn(), 0);
        assert_eq!(d.apply(&s).unwrap(), s);
    }

    #[test]
    fn full_turnover_delta_round_trips() {
        let base = valid_state();
        // Nothing survives: both base entries evicted, two fresh ones.
        let next = EngineState {
            window_capacity: 4,
            window: vec![(5, 20), (6, 21)],
            metas: vec![meta(20, 0, 5), meta(21, 1, 6)],
            stream_counts: vec![1, 1],
            results: vec![],
            reported: vec![(10, 11)],
            stats: PruneStats::default(),
        };
        let d = delta_between(&base, &next).unwrap();
        assert_eq!(d.evicted, vec![10, 11]);
        assert_eq!(d.churn(), 4);
        assert_eq!(d.apply(&base).unwrap(), next);
    }

    #[test]
    fn delta_refusals() {
        let base = valid_state();
        // Changed capacity.
        let mut next = successor_state();
        next.window_capacity = 8;
        assert!(delta_between(&base, &next).is_err());
        // Reordered window (survivor out of order is not append/evict).
        let mut next = base.clone();
        next.window.swap(0, 1);
        next.metas.swap(0, 1);
        assert!(delta_between(&base, &next).is_err());
        // A surviving meta mutated in place.
        let mut next = successor_state();
        next.metas[0].stream_id = 0;
        assert!(delta_between(&base, &next).is_err());
        // Reported history lost a pair.
        let mut next = successor_state();
        next.reported.clear();
        assert!(delta_between(&base, &next).is_err());
    }

    #[test]
    fn apply_rejects_foreign_or_corrupt_deltas() {
        let base = valid_state();
        let good = delta_between(&base, &successor_state()).unwrap();
        // Wrong base: evicted id does not match the window front.
        let mut d = good.clone();
        d.evicted = vec![99];
        assert!(d.apply(&base).is_err());
        // Evicts more than the base holds.
        let mut d = good.clone();
        d.evicted = vec![10, 11, 12];
        assert!(d.apply(&base).is_err());
        // Adds a result pair the base already has.
        let mut d = good.clone();
        d.results_added = vec![(10, 11)];
        assert!(d.apply(&base).is_err());
        // Removes a result pair the base does not have.
        let mut d = good.clone();
        d.results_removed = vec![(1, 2)];
        assert!(d.apply(&base).is_err());
        // Meta count disagrees with arrivals.
        let mut d = good.clone();
        d.arrival_metas.pop();
        assert!(d.apply(&base).is_err());
        // Unsorted result pairs.
        let mut d = good.clone();
        d.results_added = vec![(12, 13), (11, 12)];
        assert!(d.apply(&base).is_err());
        // Capacity mismatch.
        let mut d = good.clone();
        d.window_capacity = 16;
        assert!(d.apply(&base).is_err());
        // The unmodified delta still applies (the clones above did not
        // poison it).
        assert_eq!(d.window_capacity, 16);
        assert_eq!(good.apply(&base).unwrap(), successor_state());
    }
}
