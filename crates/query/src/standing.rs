//! Standing queries: incremental maintenance of a pattern's result under
//! the engine's window-delta stream.
//!
//! A [`StandingQuery`] stores the full variable bindings of its pattern
//! (not just the projected rows) plus a support count per projected row.
//! Per arrival batch it consumes a [`BatchDelta`] — the union of the
//! batch's [`StepOutput`] match/retraction/expiry lists — and emits the
//! *net* row additions and retractions. The contract, enforced by the
//! differential oracle suites: folding those notifications over the
//! subscription snapshot reproduces a from-scratch [`evaluate`](crate::eval::evaluate) of the
//! pattern against the post-batch engine state, bit-identically, after
//! every batch.
//!
//! Why delta application against the *post-batch* view is sound: tuple
//! ids are unique and one tuple arrives per timestamp, so within a batch
//! a fact (live tuple or result pair) is added at most once and, once
//! removed, never re-added. A binding invalidated by the batch therefore
//! contains an expired id or a retracted pair (a syntactic scan of the
//! stored bindings finds it), and a binding newly valid after the batch
//! uses at least one added fact — seeding each added pair / arrived id
//! at each atom position and evaluating the remaining atoms against the
//! new view reaches all of them. Facts that died again within the same
//! batch are filtered by re-checking membership in the new view at seed
//! time.

use std::collections::BTreeSet;

use ter_ids::results::norm_pair;
use ter_ids::StepOutput;
use ter_stream::Arrival;
use ter_text::fxhash::{FxHashMap, FxHashSet};

use crate::eval::{eval_from, full_bindings, project_one, var_ok, QueryView};
use crate::pattern::{Atom, Pattern};
use crate::plan::plan;

/// The window delta of one arrival batch, folded over its step outputs.
#[derive(Debug, Clone, Default)]
pub struct BatchDelta {
    /// Ids that arrived this batch, in arrival order.
    pub arrived: Vec<u64>,
    /// Ids the window evicted this batch.
    pub expired: Vec<u64>,
    /// Pairs reported this batch (normalized).
    pub added_pairs: Vec<(u64, u64)>,
    /// Pairs retracted by expiry this batch (normalized).
    pub removed_pairs: Vec<(u64, u64)>,
}

impl BatchDelta {
    /// Collects the delta of one batch from its arrivals and outputs.
    pub fn from_steps(batch: &[Arrival], outputs: &[StepOutput]) -> Self {
        assert_eq!(batch.len(), outputs.len(), "one StepOutput per arrival");
        let mut delta = BatchDelta {
            arrived: batch.iter().map(|a| a.record.id).collect(),
            ..BatchDelta::default()
        };
        for o in outputs {
            delta.expired.extend_from_slice(&o.expired);
            delta.added_pairs.extend_from_slice(&o.new_matches);
            delta.removed_pairs.extend_from_slice(&o.retractions);
        }
        delta
    }
}

/// An incrementally-maintained pattern query.
#[derive(Debug, Clone)]
pub struct StandingQuery {
    pattern: Pattern,
    /// Full variable assignments currently satisfying the pattern.
    bindings: BTreeSet<Vec<u64>>,
    /// Projected row → number of supporting full bindings. A row is in
    /// the result while its support is positive.
    support: FxHashMap<Vec<u64>, usize>,
}

impl StandingQuery {
    /// Wraps a parsed pattern; the result starts empty until [`seed`].
    ///
    /// [`seed`]: StandingQuery::seed
    pub fn new(pattern: Pattern) -> Self {
        StandingQuery {
            pattern,
            bindings: BTreeSet::new(),
            support: FxHashMap::default(),
        }
    }

    /// The registered pattern.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// (Re-)evaluates from scratch against `view` and returns the
    /// snapshot rows (sorted, deduped) — the subscription's starting
    /// point.
    pub fn seed<V: QueryView + ?Sized>(&mut self, view: &V) -> Vec<Vec<u64>> {
        self.bindings.clear();
        self.support.clear();
        for b in full_bindings(&self.pattern, view) {
            let row = project_one(&self.pattern, &b);
            if self.bindings.insert(b) {
                *self.support.entry(row).or_insert(0) += 1;
            }
        }
        self.rows()
    }

    /// Current projected result rows, sorted — always equal to a
    /// from-scratch [`crate::evaluate`] against the view the last
    /// seed/apply saw.
    pub fn rows(&self) -> Vec<Vec<u64>> {
        let mut rows: Vec<Vec<u64>> = self.support.keys().cloned().collect();
        rows.sort_unstable();
        rows
    }

    /// Applies one batch's delta against the post-batch `view`; returns
    /// the net `(added, retracted)` projected rows, each sorted. Rows
    /// whose support merely changed without crossing zero emit nothing.
    pub fn apply_batch<V: QueryView + ?Sized>(
        &mut self,
        view: &V,
        delta: &BatchDelta,
    ) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
        // The incremental evaluation is the notify fan-out's compute
        // cost: charge it to the driving batch's causal trace
        // (accumulating across subscribers).
        let t0 = ter_obs::timer();
        let out = self.apply_batch_inner(view, delta);
        if let Some(t0) = t0 {
            ter_obs::trace::add_current_elapsed(
                ter_obs::trace::kind::NOTIFY,
                t0.elapsed().as_micros() as u64,
            );
        }
        out
    }

    fn apply_batch_inner<V: QueryView + ?Sized>(
        &mut self,
        view: &V,
        delta: &BatchDelta,
    ) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
        // Support per touched row *before* this batch, captured lazily.
        let mut before: FxHashMap<Vec<u64>, usize> = FxHashMap::default();

        // ---- retraction phase: drop invalidated bindings ----
        let expired: FxHashSet<u64> = delta.expired.iter().copied().collect();
        let removed: FxHashSet<(u64, u64)> = delta
            .removed_pairs
            .iter()
            .map(|&(a, b)| norm_pair(a, b))
            .collect();
        if !expired.is_empty() || !removed.is_empty() {
            let dead: Vec<Vec<u64>> = self
                .bindings
                .iter()
                .filter(|b| {
                    b.iter().any(|id| expired.contains(id))
                        || self.pattern.atoms.iter().any(|a| match *a {
                            Atom::Match(x, y) => removed.contains(&norm_pair(b[x], b[y])),
                            Atom::Live(_) => false,
                        })
                })
                .cloned()
                .collect();
            for b in dead {
                self.bindings.remove(&b);
                let row = project_one(&self.pattern, &b);
                let sup = self
                    .support
                    .get_mut(&row)
                    .expect("stored binding has a supported row");
                before.entry(row.clone()).or_insert(*sup);
                *sup -= 1;
                if *sup == 0 {
                    self.support.remove(&row);
                }
            }
        }

        // ---- addition phase: seed each new fact at each atom ----
        let order = plan(&self.pattern, &view.plan_stats()).order;
        let nvars = self.pattern.vars.len();
        let mut found: Vec<Vec<u64>> = Vec::new();
        for (ai, atom) in self.pattern.atoms.iter().enumerate() {
            let rest: Vec<usize> = order.iter().copied().filter(|&i| i != ai).collect();
            match *atom {
                Atom::Match(x, y) => {
                    for &(a, c) in &delta.added_pairs {
                        // Retracted again later in the batch?
                        if !view.result_set().contains(a, c) {
                            continue;
                        }
                        for (ida, idc) in [(a, c), (c, a)] {
                            if var_ok(&self.pattern, view, x, ida)
                                && var_ok(&self.pattern, view, y, idc)
                            {
                                let mut seed = vec![None; nvars];
                                seed[x] = Some(ida);
                                seed[y] = Some(idc);
                                found.extend(eval_from(&self.pattern, &rest, view, seed));
                            }
                        }
                    }
                }
                Atom::Live(v) => {
                    for &id in &delta.arrived {
                        // `var_ok` also rejects arrived-then-expired ids.
                        if var_ok(&self.pattern, view, v, id) {
                            let mut seed = vec![None; nvars];
                            seed[v] = Some(id);
                            found.extend(eval_from(&self.pattern, &rest, view, seed));
                        }
                    }
                }
            }
        }
        for b in found {
            let row = project_one(&self.pattern, &b);
            if self.bindings.insert(b) {
                let sup = self.support.entry(row.clone()).or_insert(0);
                before.entry(row).or_insert(*sup);
                *sup += 1;
            }
        }

        // ---- net notification: rows whose support crossed zero ----
        let mut added = Vec::new();
        let mut retracted = Vec::new();
        for (row, old) in before {
            let new = self.support.get(&row).copied().unwrap_or(0);
            match (old > 0, new > 0) {
                (false, true) => added.push(row),
                (true, false) => retracted.push(row),
                _ => {}
            }
        }
        added.sort_unstable();
        retracted.sort_unstable();
        (added, retracted)
    }
}

/// Folds a notification stream over a snapshot: the client-side half of
/// the standing-query contract. Applies retractions then additions of
/// one batch; the result after every batch must equal the one-shot query
/// against the engine at that point.
pub fn fold_notification(
    rows: &mut BTreeSet<Vec<u64>>,
    added: &[Vec<u64>],
    retracted: &[Vec<u64>],
) {
    for r in retracted {
        assert!(rows.remove(r), "retraction of a row the fold never had");
    }
    for r in added {
        assert!(
            rows.insert(r.clone()),
            "addition of a row the fold already had"
        );
    }
}
