//! Exact `Pr_TER-iDS` computation (Equation 2) and the instance-pair-level
//! pruning / early termination of Theorem 4.4.
//!
//! Refinement enumerates instance pairs `(r_{i,m}, r_{j,m'})` with the
//! first tuple's instances outer and the second's inner, each in odometer
//! order, without allocating (an instance is a view naming its index). No
//! probability-mass order is needed for correctness; Theorem 4.4 only
//! needs the running sums: after processing a set `S` of pairs,
//!
//! ```text
//! Pr ≤ Σ_{S} Pr(pair) + (1 − Σ_{S} p_i·p_j)      (prune when ≤ α)
//! Pr ≥ Σ_{S} Pr(pair)                            (accept when > α)
//! ```
//!
//! so the loop stops as soon as either bound decides the pair.
//!
//! [`decide_pair`] runs refinement last: a pair reaches it only when
//! neither similarity bound of Theorem 4.2 (the token-signature count,
//! then the pivot and token-size bounds) nor the probability bound of
//! Theorem 4.3 rejects it. The `SimPruned` outcome counts both similarity
//! bounds. The candidate scan ([`crate::candidates::CandidateLists::examined_ids`]) already
//! drops every entry the signature count rejects, so for the pairs the
//! engines examine the signature test here is a re-check that passes;
//! it stays so that `decide_pair` decides any pair on its own.

use ter_text::KeywordSet;

use crate::meta::TupleMeta;
use crate::params::PruningMode;
use crate::pruning;

/// Outcome of refining one tuple pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Refinement {
    /// The pair matches (`Pr_TER-iDS > α`); carries the accumulated
    /// qualifying probability at decision time (a lower bound on the exact
    /// probability when early-accepted).
    Match(f64),
    /// Rejected by the Theorem 4.4 upper bound before exhausting pairs.
    PrunedEarly {
        /// Instance pairs examined before the bound dropped below `α`.
        pairs_examined: usize,
    },
    /// Rejected after full enumeration (`Pr_TER-iDS ≤ α` exactly).
    NoMatch(f64),
}

/// Shared inputs of the pair-decision cascade — identical for every pair
/// examined on behalf of one probe tuple, so engines build it once per
/// arrival and hand it to [`decide_pair`].
#[derive(Debug, Clone, Copy)]
pub struct PairContext<'a> {
    /// Query topic keywords `K`.
    pub keywords: &'a KeywordSet,
    /// Similarity threshold `γ = ρ · d`.
    pub gamma: f64,
    /// Probabilistic threshold `α`.
    pub alpha: f64,
    /// Auxiliary-pivot counts per attribute.
    pub aux_counts: &'a [usize],
    /// Which prunings to apply.
    pub mode: PruningMode,
}

/// Outcome of the pair-level cascade for one *examined* candidate pair,
/// i.e. one that survived Theorem 4.1 and the candidate scan's
/// signature test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairDecision {
    /// Pruned by Theorem 4.2 (a similarity upper bound: token signatures,
    /// or pivot distances and token-set sizes).
    SimPruned,
    /// Pruned by Theorem 4.3 (probability upper bound).
    ProbPruned,
    /// Rejected at the instance-pair level (Theorem 4.4 early termination
    /// or full refinement concluding `Pr ≤ α`).
    InstancePruned,
    /// `Pr_TER-iDS > α`: report the pair.
    Match,
}

/// The [`PairDecision`] tallies of one arrival's examined candidates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefineOutcome {
    /// Pairs pruned by Theorem 4.2 (similarity upper bound).
    pub sim: u64,
    /// Pairs pruned by Theorem 4.3 (probability upper bound).
    pub prob: u64,
    /// Pairs rejected at the instance-pair level (Theorem 4.4).
    pub instance: u64,
    /// Matching pairs, already `(min, max)`-normalized.
    pub matches: Vec<(u64, u64)>,
}

/// The pair-level pruning → refinement cascade (Theorems 4.2 → 4.3 → 4.4,
/// in the paper's order) for one examined pair. A pure function of its
/// inputs.
pub fn decide_pair(a: &TupleMeta, b: &TupleMeta, ctx: &PairContext<'_>) -> PairDecision {
    match ctx.mode {
        PruningMode::Full => {
            // Theorem 4.1 cannot fire here: callers only examine pairs
            // where one side is possibly topical (the probe, or a
            // candidate the scan kept for being possibly topical).
            debug_assert!(!pruning::topic_prunable(a, b));
            // Theorem 4.2 twice: the signature bound costs a few word
            // ANDs (the scan already applied it to examined pairs),
            // the pivot/size bound a pass over every pivot interval.
            if pruning::ub_sim_signature(a, b) <= ctx.gamma
                || pruning::ub_sim(a, b, ctx.aux_counts) <= ctx.gamma
            {
                return PairDecision::SimPruned;
            }
            if pruning::prob_prunable(a, b, ctx.gamma, ctx.alpha) {
                return PairDecision::ProbPruned;
            }
            match refine_pair(a, b, ctx.keywords, ctx.gamma, ctx.alpha) {
                Refinement::Match(_) => PairDecision::Match,
                Refinement::PrunedEarly { .. } | Refinement::NoMatch(_) => {
                    PairDecision::InstancePruned
                }
            }
        }
        PruningMode::GridOnly => {
            // The pivot and size bound the ER-grid applied per cell,
            // applied per pair: index pruning, then exact probability.
            if pruning::ub_sim(a, b, ctx.aux_counts) <= ctx.gamma {
                return PairDecision::SimPruned;
            }
            if exact_probability(a, b, ctx.keywords, ctx.gamma) > ctx.alpha {
                PairDecision::Match
            } else {
                PairDecision::InstancePruned
            }
        }
    }
}

/// Exact probability (Equation 2), no early termination. Exposed for
/// tests, the oracle, and the no-pruning baselines.
pub fn exact_probability(a: &TupleMeta, b: &TupleMeta, keywords: &KeywordSet, gamma: f64) -> f64 {
    let mut pr = 0.0;
    for ia in a.tuple.instances() {
        let a_topical = keywords.is_universe() || ia.contains_any_token(keywords.tokens());
        for ib in b.tuple.instances() {
            let topical =
                a_topical || keywords.is_universe() || ib.contains_any_token(keywords.tokens());
            if topical && ia.similarity_exceeds(&ib, gamma) {
                pr += ia.prob * ib.prob;
            }
        }
    }
    pr
}

/// Refines a tuple pair with Theorem 4.4 early termination.
pub fn refine_pair(
    a: &TupleMeta,
    b: &TupleMeta,
    keywords: &KeywordSet,
    gamma: f64,
    alpha: f64,
) -> Refinement {
    let mut qualifying = 0.0; // Σ_S Pr(pair)
    let mut processed = 0.0; // Σ_S p_i · p_j
    let mut examined = 0usize;
    for ia in a.tuple.instances() {
        let a_topical = keywords.is_universe() || ia.contains_any_token(keywords.tokens());
        for ib in b.tuple.instances() {
            let mass = ia.prob * ib.prob;
            let topical = a_topical || ib.contains_any_token(keywords.tokens());
            if topical && ia.similarity_exceeds(&ib, gamma) {
                qualifying += mass;
            }
            processed += mass;
            examined += 1;
            if qualifying > alpha {
                return Refinement::Match(qualifying);
            }
            // Theorem 4.4: optimistic mass of unprocessed pairs.
            if qualifying + (1.0 - processed) <= alpha {
                return Refinement::PrunedEarly {
                    pairs_examined: examined,
                };
            }
        }
    }
    // Exhausted: exact probability is `qualifying`.
    if qualifying > alpha {
        Refinement::Match(qualifying)
    } else {
        Refinement::NoMatch(qualifying)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::{AuxLayout, TupleMeta};
    use ter_repo::{PivotConfig, PivotTable, Record, Repository, Schema};
    use ter_stream::{AttrCandidates, ProbTuple};
    use ter_text::Dictionary;

    struct Fx {
        pivots: PivotTable,
        layout: AuxLayout,
        dict: Dictionary,
        schema: Schema,
    }

    fn fx() -> Fx {
        let schema = Schema::new(vec!["a", "b"]);
        let mut dict = Dictionary::new();
        let rows = [
            ("alpha beta", "red green"),
            ("gamma delta", "blue yellow"),
            ("alpha gamma", "red blue"),
            ("beta delta", "green yellow"),
        ];
        let recs = rows
            .iter()
            .enumerate()
            .map(|(i, (x, y))| {
                Record::from_texts(&schema, i as u64, &[Some(x), Some(y)], &mut dict)
            })
            .collect();
        let repo = Repository::from_records(schema.clone(), recs);
        let pivots = PivotTable::select(&repo, &PivotConfig::default());
        let layout = AuxLayout::new(&pivots);
        Fx {
            pivots,
            layout,
            dict,
            schema,
        }
    }

    fn certain(fxt: &mut Fx, id: u64, a: &str, b: &str, kw: &KeywordSet) -> TupleMeta {
        let r = Record::from_texts(&fxt.schema, id, &[Some(a), Some(b)], &mut fxt.dict);
        TupleMeta::build(
            id,
            0,
            0,
            ProbTuple::certain(r),
            &fxt.pivots,
            &fxt.layout,
            kw,
        )
    }

    #[test]
    fn exact_probability_certain_pair() {
        let mut f = fx();
        let kw = KeywordSet::universe();
        let a = certain(&mut f, 1, "alpha beta", "red green", &kw);
        let b = certain(&mut f, 2, "alpha beta", "red green", &kw);
        // Identical: sim = 2 > γ for γ < 2.
        assert_eq!(exact_probability(&a, &b, &kw, 1.5), 1.0);
        assert_eq!(exact_probability(&a, &b, &kw, 2.0), 0.0); // strict >
    }

    #[test]
    fn exact_probability_respects_topic() {
        let mut f = fx();
        let kw_match = KeywordSet::parse("alpha", &f.dict);
        let kw_miss = KeywordSet::parse("zeta", &f.dict); // not in dict → empty
        let a = certain(&mut f, 1, "alpha beta", "red green", &kw_match);
        let b = certain(&mut f, 2, "alpha beta", "red green", &kw_match);
        assert_eq!(exact_probability(&a, &b, &kw_match, 1.5), 1.0);
        assert_eq!(exact_probability(&a, &b, &kw_miss, 1.5), 0.0);
    }

    #[test]
    fn probabilistic_pair_prob_is_mass_of_matching_instances() {
        let mut f = fx();
        let kw = KeywordSet::universe();
        let base = Record::from_texts(&f.schema, 1, &[Some("alpha beta"), None], &mut f.dict);
        let close = ter_text::tokenize("red green", &mut f.dict);
        let far = ter_text::tokenize("purple orange", &mut f.dict);
        let pt = ProbTuple::new(
            base,
            vec![AttrCandidates::normalized(
                1,
                vec![(close, 3.0), (far, 1.0)],
            )],
        );
        let a = TupleMeta::build(1, 0, 0, pt, &f.pivots, &f.layout, &kw);
        let b = certain(&mut f, 2, "alpha beta", "red green", &kw);
        // Matching instance: candidate "red green" (p=0.75) → sim=2 > 1.5.
        // Other candidate: sim = 1 + 0 < 1.5.
        let pr = exact_probability(&a, &b, &kw, 1.5);
        assert!((pr - 0.75).abs() < 1e-12);
    }

    #[test]
    fn refine_matches_exact_decision() {
        let mut f = fx();
        let kw = KeywordSet::universe();
        let base = Record::from_texts(&f.schema, 1, &[Some("alpha beta"), None], &mut f.dict);
        let c1 = ter_text::tokenize("red green", &mut f.dict);
        let c2 = ter_text::tokenize("purple orange", &mut f.dict);
        let pt = ProbTuple::new(
            base,
            vec![AttrCandidates::normalized(1, vec![(c1, 1.0), (c2, 1.0)])],
        );
        let a = TupleMeta::build(1, 0, 0, pt, &f.pivots, &f.layout, &kw);
        let b = certain(&mut f, 2, "alpha beta", "red green", &kw);
        let exact = exact_probability(&a, &b, &kw, 1.5);
        for alpha in [0.1, 0.4, 0.49, 0.51, 0.9] {
            let r = refine_pair(&a, &b, &kw, 1.5, alpha);
            let is_match = matches!(r, Refinement::Match(_));
            assert_eq!(is_match, exact > alpha, "alpha={alpha}, refine={r:?}");
        }
    }

    #[test]
    fn early_accept_stops_before_exhaustion() {
        let mut f = fx();
        let kw = KeywordSet::universe();
        let a = certain(&mut f, 1, "alpha beta", "red green", &kw);
        let b = certain(&mut f, 2, "alpha beta", "red green", &kw);
        // Identical certain tuples, α=0.5: first instance pair qualifies
        // with mass 1 > 0.5 → Match(1.0).
        assert_eq!(refine_pair(&a, &b, &kw, 1.5, 0.5), Refinement::Match(1.0));
    }

    #[test]
    fn early_prune_reports_examined_pairs() {
        let mut f = fx();
        let kw = KeywordSet::universe();
        let a = certain(&mut f, 1, "alpha beta", "red green", &kw);
        let b = certain(&mut f, 2, "gamma delta", "blue yellow", &kw);
        // Disjoint: first pair disqualifies, remaining mass 0 ≤ α.
        match refine_pair(&a, &b, &kw, 1.0, 0.3) {
            Refinement::PrunedEarly { pairs_examined } => assert_eq!(pairs_examined, 1),
            other => panic!("expected early prune, got {other:?}"),
        }
    }

    #[test]
    fn pair_sharing_tokens_in_at_most_gamma_attributes_is_sim_pruned() {
        let mut f = fx();
        let kw = KeywordSet::universe();
        // Same first attribute; second attributes that share no token with
        // each other nor with any pivot, so their pivot distances agree.
        let a = certain(&mut f, 1, "alpha beta", "purple orange", &kw);
        let b = certain(&mut f, 2, "alpha beta", "pink white", &kw);
        assert_eq!(crate::pruning::ub_sim_signature(&a, &b), 1.0);
        let aux_counts: Vec<usize> = (0..f.pivots.arity())
            .map(|j| f.pivots.aux_count(j))
            .collect();
        let ctx = PairContext {
            keywords: &kw,
            gamma: 1.0,
            alpha: 0.0,
            aux_counts: &aux_counts,
            mode: PruningMode::Full,
        };
        // The pivot and size bounds alone let the pair through.
        assert!(crate::pruning::ub_sim(&a, &b, &aux_counts) > ctx.gamma);
        assert_eq!(decide_pair(&a, &b, &ctx), PairDecision::SimPruned);
        // Sharing tokens in both attributes (> γ) is not signature-pruned:
        // the identical pair matches.
        let c = certain(&mut f, 3, "alpha beta", "purple orange", &kw);
        assert_eq!(decide_pair(&a, &c, &ctx), PairDecision::Match);
    }

    #[test]
    fn alpha_zero_requires_positive_probability() {
        let mut f = fx();
        let kw = KeywordSet::universe();
        let a = certain(&mut f, 1, "alpha beta", "red green", &kw);
        let b = certain(&mut f, 2, "alpha gamma", "red blue", &kw);
        // sim = 1/3 + 1/3 ≈ 0.67; with γ=0.5 it matches; α=0 means any
        // positive probability qualifies.
        let r = refine_pair(&a, &b, &kw, 0.5, 0.0);
        assert!(matches!(r, Refinement::Match(_)));
    }
}
