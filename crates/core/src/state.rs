//! Engine-agnostic snapshot of a TER-iDS engine's dynamic state.
//!
//! [`EngineState`] captures everything that changes as arrivals are
//! consumed — the sliding window, per-tuple metadata (including the
//! imputed probabilistic tuples), per-stream live counts, the live result
//! set `ES`, the reported-pair history, cumulative prune statistics, and
//! the ER-grid's per-cell entry lists. Everything an engine derives from
//! the static [`TerContext`](crate::TerContext) (pivots, rules, indexes,
//! keywords) is deliberately *not* here: the offline pre-computation is a
//! deterministic function of the repository, so a restarted service
//! rebuilds it and grafts this state on top.
//!
//! The representation is canonical — window entries in arrival order,
//! result/reported pairs sorted, grid cells sorted by key with entries in
//! window order — so the sequential `TerIdsEngine` and the sharded
//! `ShardedTerIdsEngine` export *equal* states at the same stream
//! position (every cell is a FIFO of the window in both), and a
//! checkpoint taken from one engine restores into the other.
//!
//! Import is validating, not trusting: [`EngineState::validate`] checks
//! every cross-field invariant (window/meta agreement, timestamp
//! monotonicity, id uniqueness, stream-count consistency, pair liveness,
//! cell-key shape) and returns `Err` instead of panicking, because the
//! recovery path must survive arbitrary on-disk corruption that slipped
//! past the frame CRCs.

use ter_index::CellKey;
use ter_text::fxhash::{FxHashMap, FxHashSet};

use crate::meta::TupleMeta;
use crate::metrics::PruneStats;

/// A snapshot of one engine's dynamic state. See the [module docs](self).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EngineState {
    /// Window capacity `w` the snapshot was taken under (import into an
    /// engine with a different `w` is refused — the result set would not
    /// be comparable).
    pub window_capacity: usize,
    /// ER-grid resolution (cells per dimension) the cell keys were
    /// computed under. Import into a grid of a different resolution is
    /// refused — the keys would land in wrong rectangles and evictions
    /// would miss them.
    pub grid_cells: u16,
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
    /// ER-grid cells: `(cell key, ids of the tuples in the cell)`, sorted
    /// by key, each cell's ids in window order (oldest first) — the order
    /// of the cell's FIFO, which eviction relies on. Cell aggregates merge
    /// with min/max/OR, so they do not depend on the order; importers
    /// restore it with [`EngineState::cells_in_window_order`].
    pub cells: Vec<(CellKey, Vec<u64>)>,
}

impl EngineState {
    /// Checks every invariant an importing engine relies on, against the
    /// engine's schema arity, configured window capacity, and grid
    /// resolution. Returns a description of the first violation.
    pub fn validate(
        &self,
        arity: usize,
        window_capacity: usize,
        grid_cells: u16,
    ) -> Result<(), String> {
        if self.window_capacity != window_capacity {
            return Err(format!(
                "state window capacity {} != engine window {}",
                self.window_capacity, window_capacity
            ));
        }
        if self.grid_cells != grid_cells {
            return Err(format!(
                "state grid resolution {} != engine grid_cells {}",
                self.grid_cells, grid_cells
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
        let mut prev_key: Option<&CellKey> = None;
        for (key, entries) in &self.cells {
            if key.len() != arity {
                return Err(format!(
                    "cell key of {} dims in a {arity}-dim grid",
                    key.len()
                ));
            }
            if key.iter().any(|&k| k >= grid_cells) {
                return Err(format!("cell key {key:?} outside a {grid_cells}-cell grid"));
            }
            if prev_key.is_some_and(|p| p >= key) {
                return Err("cell keys not strictly sorted".into());
            }
            prev_key = Some(key);
            if entries.is_empty() {
                return Err("empty grid cell persisted".into());
            }
            for id in entries {
                if !ids.contains(id) {
                    return Err(format!("cell entry {id} is not a live tuple"));
                }
            }
        }
        Ok(())
    }

    /// Number of live tuples in the snapshot.
    pub fn live_count(&self) -> usize {
        self.window.len()
    }

    /// The persisted cells with each cell's ids in window order — the
    /// order an importing engine re-inserts them in, so every restored
    /// cell is again a FIFO of the window and evicts its oldest entry
    /// first. Snapshots written before cells kept window order hold some
    /// cells out of order; they restore through this sort too. Call on a
    /// [validated](Self::validate) state (every cell id is live).
    pub fn cells_in_window_order(&self) -> impl Iterator<Item = (&CellKey, Vec<u64>)> {
        let position: FxHashMap<u64, usize> = self
            .window
            .iter()
            .enumerate()
            .map(|(pos, &(_, id))| (id, pos))
            .collect();
        self.cells.iter().map(move |(key, ids)| {
            let mut ids = ids.clone();
            ids.sort_by_key(|id| position[id]);
            (key, ids)
        })
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
/// append-only), and a full replacement for every *touched* grid cell —
/// plus the small whole-copy fields (stream counts, prune counters) whose
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
    /// Grid resolution both snapshots were taken under.
    pub grid_cells: u16,
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
    /// Touched grid cells, sorted by key: the successor's full entry
    /// list for that key, or an empty list when the cell disappeared.
    pub cells_changed: Vec<(CellKey, Vec<u64>)>,
}

impl StateDelta {
    /// Whether the delta carries no change at all.
    pub fn is_empty(&self) -> bool {
        self.evicted.is_empty()
            && self.arrivals.is_empty()
            && self.results_added.is_empty()
            && self.results_removed.is_empty()
            && self.reported_added.is_empty()
            && self.cells_changed.is_empty()
    }

    /// Number of window entries the delta touches (arrivals + evictions)
    /// — the churn the delta's size should be proportional to.
    pub fn churn(&self) -> usize {
        self.evicted.len() + self.arrivals.len()
    }

    /// Reconstructs the successor snapshot from the base. Validating, not
    /// trusting: every structural assumption (eviction prefix matches,
    /// added pairs absent from the base, removed pairs present, cell keys
    /// sorted) is checked and a violation returns `Err` — the recovery
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
        if self.grid_cells != base.grid_cells {
            return Err(format!(
                "delta grid resolution {} != base {}",
                self.grid_cells, base.grid_cells
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
        // Merge the touched cells over the base's sorted cell list: both
        // sides sorted by key, one linear walk. An empty replacement
        // deletes the cell.
        let mut cells: Vec<(CellKey, Vec<u64>)> =
            Vec::with_capacity(base.cells.len() + self.cells_changed.len());
        let mut prev_key: Option<&CellKey> = None;
        for (key, _) in &self.cells_changed {
            if prev_key.is_some_and(|p| p >= key) {
                return Err("delta cell keys not strictly sorted".into());
            }
            prev_key = Some(key);
        }
        let (mut bi, mut di) = (0, 0);
        while bi < base.cells.len() || di < self.cells_changed.len() {
            let take_delta = match (base.cells.get(bi), self.cells_changed.get(di)) {
                (Some((bk, _)), Some((dk, _))) => {
                    if bk == dk {
                        bi += 1; // replaced (or deleted) below
                        true
                    } else {
                        dk < bk
                    }
                }
                (None, Some(_)) => true,
                (Some(_), None) => false,
                (None, None) => unreachable!(),
            };
            if take_delta {
                let (key, entries) = &self.cells_changed[di];
                di += 1;
                if !entries.is_empty() {
                    cells.push((key.clone(), entries.clone()));
                }
            } else {
                cells.push(base.cells[bi].clone());
                bi += 1;
            }
        }
        Ok(EngineState {
            window_capacity: self.window_capacity,
            grid_cells: self.grid_cells,
            window,
            metas,
            stream_counts: self.stream_counts.clone(),
            results,
            reported,
            stats: self.stats,
            cells,
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
    if base.grid_cells != next.grid_cells {
        return Err(format!(
            "grid resolution changed {} -> {}",
            base.grid_cells, next.grid_cells
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

    // Touched cells: one merge walk over the two sorted cell lists.
    let mut cells_changed: Vec<(CellKey, Vec<u64>)> = Vec::new();
    let (mut bi, mut ni) = (0, 0);
    while bi < base.cells.len() || ni < next.cells.len() {
        match (base.cells.get(bi), next.cells.get(ni)) {
            (Some((bk, bv)), Some((nk, nv))) => {
                if bk == nk {
                    if bv != nv {
                        cells_changed.push((nk.clone(), nv.clone()));
                    }
                    bi += 1;
                    ni += 1;
                } else if bk < nk {
                    cells_changed.push((bk.clone(), Vec::new()));
                    bi += 1;
                } else {
                    cells_changed.push((nk.clone(), nv.clone()));
                    ni += 1;
                }
            }
            (Some((bk, _)), None) => {
                cells_changed.push((bk.clone(), Vec::new()));
                bi += 1;
            }
            (None, Some((nk, nv))) => {
                cells_changed.push((nk.clone(), nv.clone()));
                ni += 1;
            }
            (None, None) => unreachable!(),
        }
    }

    Ok(StateDelta {
        window_capacity: next.window_capacity,
        grid_cells: next.grid_cells,
        evicted,
        arrivals,
        arrival_metas,
        stream_counts: next.stream_counts.clone(),
        results_added,
        results_removed,
        reported_added,
        stats: next.stats,
        cells_changed,
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
            grid_cells: 5,
            window: vec![(0, 10), (1, 11)],
            metas: vec![meta(10, 0, 0), meta(11, 1, 1)],
            stream_counts: vec![1, 1],
            results: vec![(10, 11)],
            reported: vec![(10, 11)],
            stats: PruneStats::default(),
            cells: vec![(vec![0, 0].into_boxed_slice(), vec![10, 11])],
        }
    }

    #[test]
    fn valid_state_passes() {
        valid_state().validate(2, 4, 5).unwrap();
    }

    type Mutation = Box<dyn Fn(&mut EngineState)>;

    #[test]
    fn rejections() {
        let cases: Vec<(&str, Mutation)> = vec![
            ("capacity", Box::new(|s| s.window_capacity = 8)),
            ("grid resolution", Box::new(|s| s.grid_cells = 9)),
            (
                "cell key range",
                Box::new(|s| s.cells[0].0 = vec![0, 5].into_boxed_slice()),
            ),
            ("meta count", Box::new(|s| s.metas.truncate(1))),
            ("timestamps", Box::new(|s| s.window[1].0 = 0)),
            ("id mismatch", Box::new(|s| s.window[1].1 = 99)),
            ("stream counts", Box::new(|s| s.stream_counts = vec![2, 0])),
            ("result liveness", Box::new(|s| s.results = vec![(10, 99)])),
            (
                "result normalization",
                Box::new(|s| s.results = vec![(11, 10)]),
            ),
            ("cell entry liveness", Box::new(|s| s.cells[0].1.push(99))),
            (
                "cell key dims",
                Box::new(|s| s.cells[0].0 = vec![0].into_boxed_slice()),
            ),
            (
                "cell key order",
                Box::new(|s| {
                    let c = s.cells[0].clone();
                    s.cells.push(c);
                }),
            ),
        ];
        for (label, mutate) in cases {
            let mut s = valid_state();
            mutate(&mut s);
            assert!(s.validate(2, 4, 5).is_err(), "{label} accepted");
        }
    }

    #[test]
    fn window_overflow_rejected() {
        let s = valid_state();
        assert!(s.validate(2, 1, 5).is_err());
    }

    /// A successor of `valid_state`: entry 10 evicted, 12 and 13 arrived,
    /// one result removed with the eviction, one added, one cell touched,
    /// one cell gone, one cell new.
    fn successor_state() -> EngineState {
        EngineState {
            window_capacity: 4,
            grid_cells: 5,
            window: vec![(1, 11), (2, 12), (3, 13)],
            metas: vec![meta(11, 1, 1), meta(12, 0, 2), meta(13, 0, 3)],
            stream_counts: vec![2, 1],
            results: vec![(11, 12)],
            reported: vec![(10, 11), (11, 12)],
            stats: PruneStats {
                total_pairs: 7,
                ..PruneStats::default()
            },
            cells: vec![
                (vec![0, 0].into_boxed_slice(), vec![11, 12]),
                (vec![1, 1].into_boxed_slice(), vec![13]),
            ],
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
        // One replaced cell, one new; validates apply merges correctly.
        assert_eq!(d.cells_changed.len(), 2);
        assert_eq!(d.apply(&base).unwrap(), next);
        next.validate(2, 4, 5).unwrap();
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
            grid_cells: 5,
            window: vec![(5, 20), (6, 21)],
            metas: vec![meta(20, 0, 5), meta(21, 1, 6)],
            stream_counts: vec![1, 1],
            results: vec![],
            reported: vec![(10, 11)],
            stats: PruneStats::default(),
            cells: vec![(vec![2, 2].into_boxed_slice(), vec![20, 21])],
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
        // Unsorted touched-cell keys.
        let mut d = good.clone();
        d.cells_changed.reverse();
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
