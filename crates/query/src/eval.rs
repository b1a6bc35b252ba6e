//! Pattern evaluation: selections, joins, and projections as composable
//! streaming iterators over a [`QueryView`].
//!
//! Evaluation threads partial bindings (`Vec<Option<u64>>`, one slot per
//! pattern variable) through the planned atom order. Each atom is a
//! `flat_map` stage: a fully-bound atom degenerates to a membership
//! probe, a half-bound `match` walks the result set's adjacency row, and
//! an unbound atom scans its relation. Predicates are applied the moment
//! their variable binds, so a selective predicate prunes the stream at
//! the earliest possible stage. An empty intermediate terminates the
//! whole pipeline for free — `flat_map` over nothing is nothing. An
//! unbound `live(v)` scans the window once per evaluation: the
//! predicate-filtered live ids of `v` are computed on first use and kept
//! in `LiveSets` for every later partial binding.

use std::cell::OnceCell;
use std::ops::Deref;

use crate::pattern::{Atom, Pattern, Pred, VarId};
use crate::plan::{plan, PlanStats};
use ter_ids::{LiveState, ResultSet, TupleMeta};

/// Read access to the live engine state a query runs against. Both the
/// sequential and the batched engine implement this through the
/// [`LiveState`] they dereference to, which is what lets every
/// differential suite run the same pattern against both sides.
pub trait QueryView {
    /// Ids of the unexpired tuples, ascending.
    fn live_ids(&self) -> Vec<u64>;
    /// Metadata of a live tuple (`None` once expired).
    fn meta_of(&self, id: u64) -> Option<&TupleMeta>;
    /// The live result-pair set.
    fn result_set(&self) -> &ResultSet;
    /// Planner counters snapshot.
    fn plan_stats(&self) -> PlanStats;
}

impl<E: Deref<Target = LiveState>> QueryView for E {
    fn live_ids(&self) -> Vec<u64> {
        LiveState::live_ids(self)
    }

    fn meta_of(&self, id: u64) -> Option<&TupleMeta> {
        self.meta(id)
    }

    fn result_set(&self) -> &ResultSet {
        LiveState::results(self)
    }

    fn plan_stats(&self) -> PlanStats {
        let live: &LiveState = self;
        PlanStats {
            live: live.window_len(),
            pairs: live.results().len(),
            stream_counts: live.stream_tuple_counts().to_vec(),
            topical: live.topical_count(),
            prune: live.prune_stats(),
        }
    }
}

/// Whether binding `v := id` satisfies every predicate on `v` (and `id`
/// is live at all).
pub(crate) fn var_ok<V: QueryView + ?Sized>(
    pattern: &Pattern,
    view: &V,
    v: VarId,
    id: u64,
) -> bool {
    let Some(meta) = view.meta_of(id) else {
        return false;
    };
    pattern.preds.iter().all(|p| {
        p.var() != v
            || match *p {
                Pred::Stream(_, s) => meta.stream_id == s,
                Pred::Topical(_) => meta.possibly_topical,
                Pred::TsGe(_, t) => meta.timestamp >= t,
                Pred::TsLe(_, t) => meta.timestamp <= t,
                Pred::IdEq(_, i) => id == i,
            }
    })
}

/// Each variable's live ids that pass its predicates, ascending — computed
/// on first use and shared by every partial binding of one evaluation.
/// Only valid while the view it was filled from stays unchanged.
pub(crate) struct LiveSets(Vec<OnceCell<Vec<u64>>>);

impl LiveSets {
    /// Empty caches, one per pattern variable.
    pub(crate) fn new(pattern: &Pattern) -> Self {
        Self(pattern.vars.iter().map(|_| OnceCell::new()).collect())
    }

    fn of<V: QueryView + ?Sized>(&self, pattern: &Pattern, view: &V, v: VarId) -> &[u64] {
        self.0[v].get_or_init(|| {
            view.live_ids()
                .into_iter()
                .filter(|&id| var_ok(pattern, view, v, id))
                .collect()
        })
    }
}

fn bind(b: &[Option<u64>], v: VarId, id: u64) -> Vec<Option<u64>> {
    let mut nb = b.to_vec();
    nb[v] = Some(id);
    nb
}

/// One pipeline stage: all extensions of `b` satisfying `atom`.
/// Invariant: already-bound variables passed every predicate when they
/// were bound, so only structural membership is re-checked for them.
fn extend<V: QueryView + ?Sized>(
    pattern: &Pattern,
    view: &V,
    live: &LiveSets,
    b: &[Option<u64>],
    atom: Atom,
) -> Vec<Vec<Option<u64>>> {
    match atom {
        Atom::Live(v) => match b[v] {
            Some(id) => {
                if view.meta_of(id).is_some() {
                    vec![b.to_vec()]
                } else {
                    Vec::new()
                }
            }
            None => live
                .of(pattern, view, v)
                .iter()
                .map(|&id| bind(b, v, id))
                .collect(),
        },
        Atom::Match(x, y) => match (b[x], b[y]) {
            (Some(a), Some(c)) => {
                if view.result_set().contains(a, c) {
                    vec![b.to_vec()]
                } else {
                    Vec::new()
                }
            }
            (Some(a), None) => view
                .result_set()
                .partners(a)
                .filter(|&c| var_ok(pattern, view, y, c))
                .map(|c| bind(b, y, c))
                .collect(),
            (None, Some(c)) => view
                .result_set()
                .partners(c)
                .filter(|&a| var_ok(pattern, view, x, a))
                .map(|a| bind(b, x, a))
                .collect(),
            (None, None) => view
                .result_set()
                .iter()
                .flat_map(|(lo, hi)| [(lo, hi), (hi, lo)])
                .filter(|&(a, c)| var_ok(pattern, view, x, a) && var_ok(pattern, view, y, c))
                .map(|(a, c)| {
                    let mut nb = b.to_vec();
                    nb[x] = Some(a);
                    nb[y] = Some(c);
                    nb
                })
                .collect(),
        },
    }
}

/// Runs the atoms in `order` as a streaming iterator pipeline from the
/// given seed binding, yielding every binding that satisfies them. Seed
/// bindings must already satisfy their variables' predicates. `live` may
/// be shared by several calls against the same, unchanged view.
pub(crate) fn bindings<'a, V: QueryView + ?Sized>(
    pattern: &'a Pattern,
    order: &[usize],
    view: &'a V,
    live: &'a LiveSets,
    seed: Vec<Option<u64>>,
) -> impl Iterator<Item = Vec<Option<u64>>> + 'a {
    let mut it: Box<dyn Iterator<Item = Vec<Option<u64>>> + 'a> = Box::new(std::iter::once(seed));
    for &ai in order {
        let atom = pattern.atoms[ai];
        it = Box::new(it.flat_map(move |b| extend(pattern, view, live, &b, atom)));
    }
    it
}

/// The ids of a binding whose every variable is bound.
pub(crate) fn ground(b: Vec<Option<u64>>) -> Vec<u64> {
    b.into_iter()
        .map(|v| v.expect("every variable appears in an atom"))
        .collect()
}

/// `row` of every full binding of the pattern's variables against the
/// view (planned order), each taken as it is reached, so no list of the
/// bindings themselves is built.
pub(crate) fn full_bindings<V: QueryView + ?Sized, T>(
    pattern: &Pattern,
    view: &V,
    row: impl FnMut(Vec<Option<u64>>) -> T,
) -> Vec<T> {
    let plan = plan(pattern, &view.plan_stats());
    if plan.empty {
        return Vec::new();
    }
    let live = LiveSets::new(pattern);
    let seed = vec![None; pattern.vars.len()];
    bindings(pattern, &plan.order, view, &live, seed)
        .map(row)
        .collect()
}

/// Projects one full binding onto the pattern's output columns.
pub(crate) fn project_one(pattern: &Pattern, b: &[u64]) -> Vec<u64> {
    pattern.projection.iter().map(|&v| b[v]).collect()
}

/// One-shot evaluation: the projected result rows, sorted and deduped —
/// the canonical form every oracle compares bit-for-bit.
pub fn evaluate<V: QueryView + ?Sized>(pattern: &Pattern, view: &V) -> Vec<Vec<u64>> {
    let mut rows = full_bindings(pattern, view, |b| {
        pattern
            .projection
            .iter()
            .map(|&v| b[v].expect("every variable appears in an atom"))
            .collect::<Vec<u64>>()
    });
    rows.sort_unstable();
    rows.dedup();
    rows
}

/// What [`evaluate_traced`] observed: the greedy plan plus the number of
/// partial bindings alive after each planned atom — a poor-man's EXPLAIN
/// for the join order. `atom_rows[k]` is the intermediate cardinality
/// after executing `order[k]`; a spike there is the atom the planner
/// should have ordered later.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalTrace {
    /// Atom indices in execution order (the plan).
    pub order: Vec<usize>,
    /// The planner's cost estimate for each atom at selection time,
    /// parallel to `order`.
    pub costs: Vec<f64>,
    /// Partial bindings alive after each atom, parallel to `order`.
    pub atom_rows: Vec<u64>,
    /// Final projected/sorted/deduped row count.
    pub rows: u64,
}

/// [`evaluate`] with per-atom cardinality tracing. Returns exactly the
/// same rows (per-stage materialization instead of one fused iterator —
/// the atom order, the work done, and the output are identical), plus
/// the trace the observability layer turns into `query_atom` flight
/// events.
pub fn evaluate_traced<V: QueryView + ?Sized>(
    pattern: &Pattern,
    view: &V,
) -> (Vec<Vec<u64>>, EvalTrace) {
    let plan = plan(pattern, &view.plan_stats());
    let mut trace = EvalTrace {
        order: plan.order.clone(),
        costs: plan.costs.clone(),
        atom_rows: Vec::with_capacity(plan.order.len()),
        rows: 0,
    };
    if plan.empty {
        trace.atom_rows = vec![0; plan.order.len()];
        return (Vec::new(), trace);
    }
    let live = LiveSets::new(pattern);
    let mut frontier: Vec<Vec<Option<u64>>> = vec![vec![None; pattern.vars.len()]];
    for &ai in &plan.order {
        let atom = pattern.atoms[ai];
        frontier = frontier
            .iter()
            .flat_map(|b| extend(pattern, view, &live, b, atom))
            .collect();
        trace.atom_rows.push(frontier.len() as u64);
    }
    let mut rows: Vec<Vec<u64>> = frontier
        .iter()
        .map(|b| {
            let full: Vec<u64> = b
                .iter()
                .map(|v| v.expect("every variable appears in an atom"))
                .collect();
            project_one(pattern, &full)
        })
        .collect();
    rows.sort_unstable();
    rows.dedup();
    trace.rows = rows.len() as u64;
    (rows, trace)
}
