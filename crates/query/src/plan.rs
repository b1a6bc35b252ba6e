//! Statistics-free greedy join ordering.
//!
//! There are no histograms to maintain: every input the cost model needs
//! is a counter the engine already keeps for its own pruning — live
//! tuple count, live pair count, per-stream counts, the topical-id set
//! size, and the cumulative [`PruneStats`]. The
//! planner repeatedly picks the cheapest not-yet-placed atom given the
//! variables bound so far (classic greedy selectivity ordering), and
//! recognises guaranteed-empty queries up front so evaluation can
//! terminate before touching any state.

use crate::pattern::{Atom, Pattern, Pred, VarId};
use ter_ids::PruneStats;

/// The engine-maintained counters the planner reads. Snapshot these from
/// a [`crate::QueryView`] right before planning — they describe the live
/// state the query will run against.
#[derive(Debug, Clone, Default)]
pub struct PlanStats {
    /// Live (unexpired) tuples.
    pub live: usize,
    /// Live result pairs.
    pub pairs: usize,
    /// Live tuples per stream id.
    pub stream_counts: Vec<usize>,
    /// Live tuples flagged possibly-topical.
    pub topical: usize,
    /// Cumulative pruning counters (the refine cascade's history).
    pub prune: PruneStats,
}

impl PlanStats {
    /// Historical fraction of candidate pairs that survived the refine
    /// cascade as matches — a density prior for unbound pair scans.
    pub fn match_survival(&self) -> f64 {
        self.prune.matches as f64 / self.prune.total_pairs.max(1) as f64
    }
}

/// A join order plus the up-front emptiness verdict.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Atom indexes into [`Pattern::atoms`], evaluation order.
    pub order: Vec<usize>,
    /// True when the stats alone prove the result empty (no live pairs
    /// but the pattern has a `match` atom; or no live tuples at all):
    /// evaluation short-circuits without scanning anything.
    pub empty: bool,
    /// The cost estimate under which each atom in `order` was picked
    /// (same indexing as `order`; for tests and `explain`).
    pub costs: Vec<f64>,
}

/// Combined selectivity factor of the predicates on `v`: the estimated
/// fraction of live tuples a candidate binding of `v` survives.
fn pred_factor(pattern: &Pattern, stats: &PlanStats, v: VarId) -> f64 {
    let live = stats.live.max(1) as f64;
    let mut f = 1.0;
    for p in &pattern.preds {
        if p.var() != v {
            continue;
        }
        f *= match *p {
            Pred::IdEq(..) => 1.0 / live,
            Pred::Stream(_, s) => stats.stream_counts.get(s).copied().unwrap_or(0) as f64 / live,
            Pred::Topical(_) => stats.topical as f64 / live,
            // No order statistics on timestamps are kept; a half is the
            // classic guess for a one-sided range.
            Pred::TsGe(..) | Pred::TsLe(..) => 0.5,
        };
    }
    f
}

/// Estimated cost of evaluating `atom` next, given which variables are
/// already bound.
fn atom_cost(pattern: &Pattern, stats: &PlanStats, atom: Atom, bound: &[bool]) -> f64 {
    let live = stats.live.max(1) as f64;
    let pairs = stats.pairs as f64;
    match atom {
        Atom::Match(a, b) => match (bound[a], bound[b]) {
            // Membership probe.
            (true, true) => 0.5,
            // Adjacency-row walk: average degree, narrowed by the
            // unbound side's predicates.
            (true, false) => (2.0 * pairs / live) * pred_factor(pattern, stats, b),
            (false, true) => (2.0 * pairs / live) * pred_factor(pattern, stats, a),
            // Full pair scan, both orientations. The prune-stats
            // survival ratio is the output-density prior: a stream whose
            // cascade admits many matches makes this scan produce
            // proportionally more rows for downstream atoms to join.
            (false, false) => {
                2.0 * pairs
                    * (1.0 + stats.match_survival())
                    * pred_factor(pattern, stats, a)
                    * pred_factor(pattern, stats, b)
            }
        },
        Atom::Live(v) => {
            if bound[v] {
                0.5
            } else {
                live * pred_factor(pattern, stats, v)
            }
        }
    }
}

/// Greedy join ordering: repeatedly place the cheapest remaining atom
/// (ties broken by source position, so plans are deterministic).
pub fn plan(pattern: &Pattern, stats: &PlanStats) -> Plan {
    let has_match = pattern.atoms.iter().any(|a| matches!(a, Atom::Match(..)));
    let empty = (!pattern.atoms.is_empty() && stats.live == 0) || (has_match && stats.pairs == 0);

    let mut bound = vec![false; pattern.vars.len()];
    let mut remaining: Vec<usize> = (0..pattern.atoms.len()).collect();
    let mut order = Vec::with_capacity(remaining.len());
    let mut costs = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let (slot, cost) = remaining
            .iter()
            .enumerate()
            .map(|(slot, &ai)| (slot, atom_cost(pattern, stats, pattern.atoms[ai], &bound)))
            .fold((0, f64::INFINITY), |best, (slot, cost)| {
                if cost < best.1 {
                    (slot, cost)
                } else {
                    best
                }
            });
        let ai = remaining.remove(slot);
        for v in pattern.atoms[ai].vars() {
            bound[v] = true;
        }
        order.push(ai);
        costs.push(cost);
    }
    Plan {
        order,
        empty,
        costs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pattern;

    fn stats() -> PlanStats {
        PlanStats {
            live: 100,
            pairs: 40,
            stream_counts: vec![60, 30, 10],
            topical: 20,
            prune: PruneStats {
                total_pairs: 1000,
                matches: 50,
                ..PruneStats::default()
            },
        }
    }

    #[test]
    fn id_equality_atom_goes_first() {
        // live(c) with id(c)=7 is a point lookup (cost ~1); the pair scan
        // should wait until c is bound... it shares no variable, but the
        // cheapest atom still leads.
        let p = Pattern::parse("match(a, b), live(c) where id(c) = 7").unwrap();
        let plan = plan(&p, &stats());
        assert_eq!(plan.order[0], 1, "the id-selected live atom leads");
    }

    #[test]
    fn bound_match_becomes_probe() {
        // id(a)=5 makes match(a, b) nearly free (the 1/live factor
        // applies to the scan), after which live(a) is a bound probe;
        // the unconstrained pair scan of match(c, d) goes last.
        let p = Pattern::parse("match(c, d), match(a, b), live(a) where id(a) = 5").unwrap();
        let plan = plan(&p, &stats());
        assert_eq!(plan.order[0], 1, "id-selected match scan first");
        assert_eq!(plan.order[1], 2, "then the bound live probe");
        assert_eq!(plan.order[2], 0, "unconstrained full scan last");
        assert!(plan.costs[1] < plan.costs[2]);
    }

    #[test]
    fn empty_pair_set_short_circuits_match_patterns_only() {
        let s = PlanStats {
            pairs: 0,
            ..stats()
        };
        let with_match = Pattern::parse("match(a, b)").unwrap();
        assert!(plan(&with_match, &s).empty);
        let live_only = Pattern::parse("live(a)").unwrap();
        assert!(!plan(&live_only, &s).empty);
        let nothing_live = PlanStats { live: 0, ..stats() };
        assert!(plan(&live_only, &nothing_live).empty);
    }

    #[test]
    fn narrower_stream_scan_preferred() {
        // stream 2 holds 10 of 100 live tuples; stream 0 holds 60.
        let p = Pattern::parse("live(a), live(b) where stream(a) = 0, stream(b) = 2").unwrap();
        let plan = plan(&p, &stats());
        assert_eq!(plan.order, vec![1, 0]);
        assert!(plan.costs[0] < plan.costs[1]);
    }

    #[test]
    fn plan_orders_are_deterministic_permutations() {
        let p = Pattern::parse("match(a, b), live(b), match(b, c)").unwrap();
        let s = stats();
        let one = plan(&p, &s);
        let two = plan(&p, &s);
        assert_eq!(one.order, two.order);
        let mut sorted = one.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }
}
