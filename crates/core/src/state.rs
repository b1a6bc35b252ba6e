//! Engine-agnostic snapshot of a TER-iDS engine's dynamic state.
//!
//! [`EngineState`] holds the inputs of everything that changes as
//! arrivals are consumed — each live tuple's arrival timestamp, stream and
//! imputed probabilistic tuple, in window order — plus the per-stream live
//! counts, the live result set `ES`, the reported-pair history and
//! cumulative prune statistics. Nothing derived is here:
//!
//! * the per-tuple [`TupleMeta`](crate::TupleMeta) (pivot-distance
//!   bounds and expectations, token-size bounds, the topical flag, token
//!   signatures) is a function of the imputed tuple and the static
//!   [`TerContext`](crate::TerContext), so an importing engine rebuilds
//!   it with the same [`TupleMeta::build`](crate::TupleMeta::build) call
//!   the arrival path makes, and the two can never disagree;
//! * the context itself (pivots, rules, indexes, keywords) is a
//!   deterministic function of the repository, so a restarted service
//!   rebuilds it and grafts this state on top;
//! * the candidate lists
//!   ([`CandidateLists`](crate::candidates::CandidateLists)) are the
//!   window split by stream and topicality, rebuilt by inserting the
//!   window in order.
//!
//! The representation is canonical — live entries in arrival order,
//! result/reported pairs sorted — so an engine driven one arrival at a
//! time and one driven in batches export *equal* states at the same
//! stream position, and a checkpoint taken from either restores into the
//! other.
//!
//! Each live tuple is an `Arc<ProbTuple>`, the same allocation the
//! engine's [`TupleMeta`](crate::TupleMeta) holds. An export copies one
//! pointer per live tuple; cloning a snapshot, applying a
//! [`StateDelta`] and importing a snapshot share the tuples instead of
//! copying them; and [`delta_between`] recognises a surviving tuple by
//! pointer before it compares contents. Equality stays by value, so a
//! state decoded from checkpoint bytes, which shares nothing, compares
//! and diffs exactly as the export it was written from.
//!
//! Import is validating, not trusting: [`EngineState::validate`] checks
//! every invariant the metadata derivation and the engine rely on (tuple
//! arity, imputation covering exactly the missing attributes, timestamp
//! monotonicity, id uniqueness, stream-count consistency, pair liveness)
//! and returns `Err` instead of panicking, because the recovery path must
//! survive arbitrary on-disk corruption that slipped past the frame CRCs.

use std::sync::Arc;

use ter_stream::ProbTuple;
use ter_text::fxhash::FxHashSet;

use crate::metrics::PruneStats;

/// One live tuple as persisted: the inputs its metadata is derived from.
#[derive(Debug, Clone)]
pub struct LiveEntry {
    /// Arrival timestamp.
    pub timestamp: u64,
    /// Source stream.
    pub stream_id: usize,
    /// The imputed probabilistic tuple `r^p`, shared with the engine's
    /// metadata; its base record carries the tuple id.
    pub tuple: Arc<ProbTuple>,
}

impl LiveEntry {
    /// The tuple id.
    pub fn id(&self) -> u64 {
        self.tuple.base.id
    }
}

/// By value; a shared tuple is equal to itself without a deep
/// comparison.
impl PartialEq for LiveEntry {
    fn eq(&self, other: &Self) -> bool {
        self.timestamp == other.timestamp
            && self.stream_id == other.stream_id
            && (Arc::ptr_eq(&self.tuple, &other.tuple) || self.tuple == other.tuple)
    }
}

/// A snapshot of one engine's dynamic state. See the [module docs](self).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EngineState {
    /// Window capacity `w` the snapshot was taken under (import into an
    /// engine with a different `w` is refused — the result set would not
    /// be comparable).
    pub window_capacity: usize,
    /// The unexpired tuples, oldest first.
    pub live: Vec<LiveEntry>,
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
        if self.live.len() > window_capacity {
            return Err(format!(
                "{} live tuples exceed capacity {}",
                self.live.len(),
                window_capacity
            ));
        }
        let mut ids: FxHashSet<u64> = FxHashSet::default();
        let mut prev_ts: Option<u64> = None;
        // Stream counts must agree with the live tuples: each live
        // stream's count exact, extra (historical) entries zero.
        let mut derived = vec![0usize; self.stream_counts.len()];
        for entry in &self.live {
            let (id, ts) = (entry.id(), entry.timestamp);
            if prev_ts.is_some_and(|p| p > ts) {
                return Err(format!("window timestamps decrease at {ts}"));
            }
            prev_ts = Some(ts);
            let base = &entry.tuple.base;
            if base.attrs.len() != arity {
                return Err(format!(
                    "tuple {id} has arity {} but engine schema has {arity}",
                    base.attrs.len()
                ));
            }
            // `ProbTuple::new`'s invariants, which the metadata
            // derivation and the instance enumeration index by.
            let imputed = entry.tuple.imputed.iter().map(|c| c.attr);
            if !imputed.eq(base.missing_attrs())
                || entry.tuple.imputed.iter().any(|c| c.candidates.is_empty())
            {
                return Err(format!(
                    "tuple {id}: imputation does not cover exactly its missing attributes"
                ));
            }
            if !ids.insert(id) {
                return Err(format!("duplicate tuple id {id}"));
            }
            let Some(count) = derived.get_mut(entry.stream_id) else {
                let sid = entry.stream_id;
                return Err(format!("tuple {id} is on stream {sid}, past stream_counts"));
            };
            *count += 1;
        }
        for (sid, (&count, &expect)) in self.stream_counts.iter().zip(&derived).enumerate() {
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
        self.live.len()
    }
}

/// The incremental difference between two [`EngineState`] snapshots of
/// the *same* engine at two stream positions — the payload of a delta
/// checkpoint.
///
/// Legality rests on the window discipline: entries are appended at the
/// back and evicted from the front, never reordered or mutated in place,
/// so the base's live entries split into an evicted prefix and a
/// surviving suffix that is bit-identical in the successor. The delta
/// then carries exactly the evicted ids, the new arrivals' entries, the
/// result-set adds/removes, the reported-pair additions (reported is
/// append-only), plus the small whole-copy fields (stream counts, prune
/// counters) whose size does not grow with the window. At low churn the
/// encoded delta is proportional to the churn, not to the window.
///
/// [`delta_between`] refuses (returns `Err`) whenever the two snapshots
/// do not satisfy the append/evict-only relationship — a surviving entry
/// that changed, a reported pair that vanished — so a caller can always
/// fall back to a full checkpoint instead of persisting a lie.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StateDelta {
    /// Window capacity both snapshots were taken under.
    pub window_capacity: usize,
    /// Ids evicted from the window front since the base, oldest first.
    pub evicted: Vec<u64>,
    /// Entries appended since the base, in arrival order.
    pub arrivals: Vec<LiveEntry>,
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
        let e = self.evicted.len();
        if e > base.live.len() {
            return Err(format!(
                "delta evicts {e} of {} base entries",
                base.live.len()
            ));
        }
        for (entry, id) in base.live.iter().zip(&self.evicted) {
            if entry.id() != *id {
                return Err(format!(
                    "evicted id {id} does not match base window front {}",
                    entry.id()
                ));
            }
        }
        // The survivors' tuples are shared with the base, not copied.
        let mut live = Vec::with_capacity(base.live.len() - e + self.arrivals.len());
        live.extend_from_slice(&base.live[e..]);
        live.extend_from_slice(&self.arrivals);
        let results = apply_pair_delta(
            &base.results,
            &self.results_added,
            &self.results_removed,
            "result",
        )?;
        let reported = apply_pair_delta(&base.reported, &self.reported_added, &[], "reported")?;
        Ok(EngineState {
            window_capacity: self.window_capacity,
            live,
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
/// parity tests assert this bit-for-bit.
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
    // tuples included. Any mismatch refuses the delta. Between two
    // exports of one engine the survivors share their tuples, so the
    // comparison stops at the pointer (see `LiveEntry`'s `PartialEq`).
    let next_ids: FxHashSet<u64> = next.live.iter().map(LiveEntry::id).collect();
    let evict_count = base
        .live
        .iter()
        .take_while(|entry| !next_ids.contains(&entry.id()))
        .count();
    let survivors = base.live.len() - evict_count;
    if survivors > next.live.len() || base.live[evict_count..] != next.live[..survivors] {
        return Err("base window is not an evict-prefix of the successor".into());
    }
    let evicted: Vec<u64> = base.live[..evict_count].iter().map(LiveEntry::id).collect();
    let arrivals = next.live[survivors..].to_vec();

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
    use ter_repo::Record;
    use ter_stream::AttrCandidates;
    use ter_text::TokenSet;

    /// A complete two-attribute tuple.
    fn entry(id: u64, stream_id: usize, timestamp: u64) -> LiveEntry {
        let base = Record {
            id,
            attrs: vec![Some(TokenSet::empty()); 2],
        };
        LiveEntry {
            timestamp,
            stream_id,
            tuple: ProbTuple::certain(base).into(),
        }
    }

    fn valid_state() -> EngineState {
        EngineState {
            window_capacity: 4,
            live: vec![entry(10, 0, 0), entry(11, 1, 1)],
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
            ("timestamps", Box::new(|s| s.live[0].timestamp = 5)),
            (
                "duplicate id",
                Box::new(|s| Arc::make_mut(&mut s.live[1].tuple).base.id = 10),
            ),
            ("stream counts", Box::new(|s| s.stream_counts = vec![2, 0])),
            ("unknown stream", Box::new(|s| s.live[1].stream_id = 2)),
            // Wrong arity and imputations of other than the missing
            // attributes: see `refused_imports_leave_the_engine_untouched`.
            (
                "empty candidate distribution",
                Box::new(|s| {
                    let tuple = Arc::make_mut(&mut s.live[1].tuple);
                    tuple.base.attrs[1] = None;
                    tuple.imputed = vec![AttrCandidates {
                        attr: 1,
                        candidates: vec![],
                    }];
                }),
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
            live: vec![entry(11, 1, 1), entry(12, 0, 2), entry(13, 0, 3)],
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
        assert_eq!(d.arrivals, vec![entry(12, 0, 2), entry(13, 0, 3)]);
        assert_eq!(d.churn(), 3);
        assert_eq!(d.results_added, vec![(11, 12)]);
        assert_eq!(d.results_removed, vec![(10, 11)]);
        assert_eq!(d.reported_added, vec![(11, 12)]);
        assert_eq!(d.apply(&base).unwrap(), next);
        next.validate(2, 4).unwrap();
    }

    /// `apply` shares the survivors' tuples with its base and the
    /// arrivals' with the delta, and a deep copy of each side diffs as
    /// the shared original does.
    #[test]
    fn apply_shares_surviving_tuples_with_its_base() {
        let base = valid_state();
        let d = delta_between(&base, &successor_state()).unwrap();
        let next = d.apply(&base).unwrap();
        assert!(Arc::ptr_eq(&next.live[0].tuple, &base.live[1].tuple));
        for (got, arrival) in next.live[1..].iter().zip(&d.arrivals) {
            assert!(Arc::ptr_eq(&got.tuple, &arrival.tuple));
        }
        let unshared = |s: &EngineState| {
            let mut s = s.clone();
            for e in &mut s.live {
                e.tuple = Arc::new((*e.tuple).clone());
            }
            s
        };
        let deep = delta_between(&unshared(&base), &unshared(&next)).unwrap();
        assert_eq!(deep, delta_between(&base, &next).unwrap());
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
            live: vec![entry(20, 0, 5), entry(21, 1, 6)],
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
        next.live.swap(0, 1);
        assert!(delta_between(&base, &next).is_err());
        // A surviving entry mutated in place.
        let mut next = successor_state();
        next.live[0].stream_id = 0;
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
