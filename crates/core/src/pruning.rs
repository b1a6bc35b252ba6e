//! The pruning strategies of §4 (Theorems 4.1–4.3, Lemmas 4.1–4.3).
//!
//! All functions here are *sound*: they may fail to prune, but they never
//! prune a pair that could satisfy the TER-iDS predicate (property-tested
//! against exhaustive instance enumeration in `proptests.rs`).
//!
//! Besides the paper's similarity bounds (Lemma 4.1 on token-set sizes,
//! Lemma 4.2 on pivot distances), Theorem 4.2 is also applied with a
//! token-signature bound, [`ub_sim_signature`]: the number of attributes
//! whose 64-bit token signatures intersect. It is the bitmap filter of
//! exact set-similarity joins (Sandes, Teodoro and Melo, *Information
//! Systems* 2020) counted per attribute. It costs a few word ANDs, and on
//! streams where most window tuples share no token with the probe it
//! rejects almost every pair the pivot and size bounds let through. The
//! candidate scan ([`crate::candidates::examined_ids`]) applies it to each
//! live tuple's signatures before the tuple becomes a candidate. A pair it
//! rejects there is never examined, and the engines count it as
//! similarity-pruned with the other never-examined pairs. For the pairs
//! that are examined, the same test at the head of [`crate::decide_pair`]
//! is a re-check that no longer rejects anything.

use ter_text::Interval;

use crate::meta::TupleMeta;

/// Theorem 4.1 (topic keyword pruning): the pair can be pruned iff *no*
/// instance of either imputed tuple can contain a query keyword.
#[inline]
pub fn topic_prunable(a: &TupleMeta, b: &TupleMeta) -> bool {
    !a.possibly_topical && !b.possibly_topical
}

/// Lemma 4.1: per-attribute similarity upper bound from token-set sizes.
///
/// With `|T⁻|`/`|T⁺|` the min/max token-set sizes over instances:
/// `ub = |T⁺_b| / |T⁻_a|` if `|T⁻_a| > |T⁺_b|`, symmetric in the other
/// direction, else 1.
#[inline]
pub fn ub_sim_attr_size(a: &Interval, b: &Interval) -> f64 {
    let (a_min, a_max) = (a.lo, a.hi);
    let (b_min, b_max) = (b.lo, b.hi);
    if a_min > b_max {
        b_max / a_min
    } else if a_max < b_min {
        a_max / b_min
    } else {
        1.0
    }
}

/// Token-signature similarity bound: `ub_sim(r_i, r_j) ≤` the number of
/// attributes whose signatures ([`TupleMeta::signatures_of`]) intersect.
///
/// Exact, not just sound up to rounding: disjoint signatures mean that no
/// instance pair shares a token in that attribute, so its
/// `er_similarity` term is exactly `0.0` (two empty values score 0 too),
/// and a float sum of `k` terms each at most 1 is at most `k`.
#[inline]
pub fn ub_sim_signature(a: &TupleMeta, b: &TupleMeta) -> f64 {
    signature_overlap(&a.signatures, b.signatures.iter())
}

/// The number of attributes whose signature words intersect, as the
/// `f64` that [`ub_sim_signature`] compares with `γ`. Takes words, not
/// tuples, so the candidate scan tests the words it keeps beside each
/// live tuple's id against the probe.
#[inline]
pub fn signature_overlap<'w>(a: &[u64], b: impl IntoIterator<Item = &'w u64>) -> f64 {
    a.iter().zip(b).filter(|(x, y)| *x & **y != 0).count() as f64
}

/// Lemma 4.1 summed over attributes: `ub_sim(r_i, r_j) = Σ_k ub_k`.
pub fn ub_sim_size(a: &TupleMeta, b: &TupleMeta) -> f64 {
    a.size_bounds
        .iter()
        .zip(&b.size_bounds)
        .map(|(x, y)| ub_sim_attr_size(x, y))
        .sum()
}

/// Lemma 4.2: pivot-based similarity upper bound
/// `ub_sim = d − Σ_k min_dist(r_i[A_k], r_j[A_k])`, using the main pivot
/// only (the auxiliary-pivot refinement lives in [`ub_sim`]).
pub fn ub_sim_pivot_main(a: &TupleMeta, b: &TupleMeta) -> f64 {
    let d = a.arity() as f64;
    let gap_sum: f64 = (0..a.arity())
        .map(|k| a.main_bounds[k].min_gap(&b.main_bounds[k]))
        .sum();
    d - gap_sum
}

/// Combined Theorem 4.2 check: `min(ub_size, ub_pivot) ≤ γ` ⇒ prune.
pub fn sim_prunable(a: &TupleMeta, b: &TupleMeta, gamma: f64, layout_counts: &[usize]) -> bool {
    ub_sim(a, b, layout_counts) <= gamma
}

/// The tightest available similarity upper bound: the minimum of the
/// token-size bound (Lemma 4.1) and the pivot bound (Lemma 4.2, using the
/// main pivot and every auxiliary pivot per attribute).
///
/// `aux_counts[k]` is the number of auxiliary pivots of attribute `k`
/// (prefix-summed into the flattened `aux_bounds` layout).
#[allow(clippy::needless_range_loop)] // k indexes parallel per-attribute arrays
pub fn ub_sim(a: &TupleMeta, b: &TupleMeta, aux_counts: &[usize]) -> f64 {
    let d = a.arity() as f64;
    let mut gap_sum = 0.0;
    let mut aux_off = 0;
    for k in 0..a.arity() {
        let mut gap = a.main_bounds[k].min_gap(&b.main_bounds[k]);
        for s in 0..aux_counts[k] {
            let slot = aux_off + s;
            gap = gap.max(a.aux_bounds[slot].min_gap(&b.aux_bounds[slot]));
        }
        aux_off += aux_counts[k];
        gap_sum += gap;
    }
    let pivot_ub = d - gap_sum;
    pivot_ub.min(ub_sim_size(a, b))
}

/// Lemma 4.3 (Paley–Zygmund probability upper bound).
///
/// With `X = dist(r_i, piv)`, `Y = dist(r_j, piv)` (total main-pivot
/// distances), their expectations and bounds give an upper bound on
/// `Pr{ sim(r_i, r_j) > γ }`, hence on `Pr_TER-iDS`. Returns 1 when the
/// lemma's side conditions fail (no pruning possible).
pub fn prob_upper_bound(a: &TupleMeta, b: &TupleMeta, gamma: f64) -> f64 {
    let d = a.arity() as f64;
    let ex = a.total_main_expect();
    let ey = b.total_main_expect();
    let bx = a.total_main_bounds();
    let by = b.total_main_bounds();
    let (lb_x, ub_x) = (bx.lo, bx.hi);
    let (lb_y, ub_y) = (by.lo, by.hi);
    let dg = d - gamma;

    // Case 1: X − Y ≥ 0 surely.
    if lb_x >= ub_y && ex - ey > 0.0 {
        let theta = dg / (ex - ey);
        let denom = ub_x - lb_y;
        if (0.0..=1.0).contains(&theta) && denom > 0.0 {
            return 1.0 - (1.0 - theta).powi(2) * (ex - ey) / denom;
        }
    }
    // Case 2: Y − X ≥ 0 surely.
    if lb_y >= ub_x && ey - ex > 0.0 {
        let theta = dg / (ey - ex);
        let denom = ub_y - lb_x;
        if (0.0..=1.0).contains(&theta) && denom > 0.0 {
            return 1.0 - (1.0 - theta).powi(2) * (ey - ex) / denom;
        }
    }
    1.0
}

/// Theorem 4.3: prune when the probability upper bound is at most `α`.
#[inline]
pub fn prob_prunable(a: &TupleMeta, b: &TupleMeta, gamma: f64, alpha: f64) -> bool {
    prob_upper_bound(a, b, gamma) <= alpha
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::AuxLayout;
    use ter_repo::{PivotConfig, PivotTable, Record, Repository, Schema};
    use ter_stream::{AttrCandidates, ProbTuple};
    use ter_text::{Dictionary, KeywordSet};

    struct Fixture {
        pivots: PivotTable,
        layout: AuxLayout,
        dict: Dictionary,
        schema: Schema,
    }

    fn fixture() -> Fixture {
        let schema = Schema::new(vec!["title", "tags", "studio"]);
        let mut dict = Dictionary::new();
        let rows = [
            ("space cowboy adventure", "scifi western bounty", "sunrise"),
            ("high school romance story", "drama comedy school", "kyoani"),
            ("mecha battle future war", "scifi action mecha", "sunrise"),
            ("cooking master challenge", "comedy food contest", "shaft"),
            (
                "detective mystery case files",
                "mystery crime noir",
                "production ig",
            ),
            ("idol band music live", "music idol slice", "aniplex"),
        ];
        let recs = rows
            .iter()
            .enumerate()
            .map(|(i, (a, b, c))| {
                Record::from_texts(&schema, i as u64, &[Some(a), Some(b), Some(c)], &mut dict)
            })
            .collect();
        let repo = Repository::from_records(schema.clone(), recs);
        let pivots = PivotTable::select(&repo, &PivotConfig::default());
        let layout = AuxLayout::new(&pivots);
        Fixture {
            pivots,
            layout,
            dict,
            schema,
        }
    }

    fn meta_of(fx: &mut Fixture, id: u64, texts: &[&str], kw: &KeywordSet) -> TupleMeta {
        let texts: Vec<Option<&str>> = texts.iter().map(|t| Some(*t)).collect();
        let r = Record::from_texts(&fx.schema, id, &texts, &mut fx.dict);
        TupleMeta::build(id, 0, 0, ProbTuple::certain(r), &fx.pivots, &fx.layout, kw)
    }

    fn aux_counts(fx: &Fixture) -> Vec<usize> {
        (0..fx.pivots.arity())
            .map(|j| fx.pivots.aux_count(j))
            .collect()
    }

    #[test]
    fn topic_pruning_requires_both_non_topical() {
        let mut fx = fixture();
        let kw = KeywordSet::parse("scifi", &fx.dict);
        let a = meta_of(
            &mut fx,
            1,
            &["space cowboy", "scifi western", "sunrise"],
            &kw,
        );
        let b = meta_of(&mut fx, 2, &["cooking", "comedy food", "shaft"], &kw);
        let c = meta_of(&mut fx, 3, &["romance", "drama", "kyoani"], &kw);
        assert!(!topic_prunable(&a, &b)); // a is topical
        assert!(topic_prunable(&b, &c)); // neither topical
    }

    #[test]
    fn size_bound_matches_paper_example_5() {
        // Example 5: |T(r1[A])|=10, |T(r2[A])|=8, |T(r1[B])|=7, |T(r2[B])|=10,
        // |T(r1[C])| ∈ [5,7], |T(r2[C])| ∈ [10,12] → ub = 0.8 + 0.7 + 0.7 = 2.2
        let ub_a = ub_sim_attr_size(&Interval::point(10.0), &Interval::point(8.0));
        let ub_b = ub_sim_attr_size(&Interval::point(7.0), &Interval::point(10.0));
        let ub_c = ub_sim_attr_size(&Interval::new(5.0, 7.0), &Interval::new(10.0, 12.0));
        assert!((ub_a - 0.8).abs() < 1e-12);
        assert!((ub_b - 0.7).abs() < 1e-12);
        assert!((ub_c - 0.7).abs() < 1e-12);
        assert!((ub_a + ub_b + ub_c - 2.2).abs() < 1e-12);
    }

    #[test]
    fn size_bound_overlapping_sizes_is_one() {
        assert_eq!(
            ub_sim_attr_size(&Interval::new(3.0, 6.0), &Interval::new(5.0, 9.0)),
            1.0
        );
    }

    #[test]
    fn ub_sim_dominates_true_similarity_for_certain_tuples() {
        let mut fx = fixture();
        let kw = KeywordSet::universe();
        let a = meta_of(
            &mut fx,
            1,
            &["space cowboy adventure", "scifi western", "sunrise"],
            &kw,
        );
        let b = meta_of(
            &mut fx,
            2,
            &["space cowboy story", "scifi western", "sunrise"],
            &kw,
        );
        let counts = aux_counts(&fx);
        let true_sim = a.tuple.base.similarity(&b.tuple.base);
        let ub = ub_sim(&a, &b, &counts);
        assert!(
            ub >= true_sim - 1e-9,
            "ub {ub} < true similarity {true_sim}"
        );
    }

    #[test]
    fn identical_tuples_not_sim_prunable() {
        let mut fx = fixture();
        let kw = KeywordSet::universe();
        let a = meta_of(
            &mut fx,
            1,
            &["mecha battle", "scifi action", "sunrise"],
            &kw,
        );
        let b = meta_of(
            &mut fx,
            2,
            &["mecha battle", "scifi action", "sunrise"],
            &kw,
        );
        let counts = aux_counts(&fx);
        // identical tuples: similarity = 3 = d; any γ < d must not prune.
        assert!(!sim_prunable(&a, &b, 2.9, &counts));
    }

    #[test]
    fn prob_upper_bound_example_7_shape() {
        // Reconstruct Example 7's numbers through synthetic metas is
        // impractical; instead verify the closed form directly.
        // E(X)=0.7, E(Y)=1.2, lb_X=0.3, ub_X=1.1, lb_Y=1.1, ub_Y=1.3,
        // d=3, γ=2.8 → UB = 1 − (1 − 0.2/0.5)² · 0.5/1.0 = 0.82
        let theta: f64 = (3.0 - 2.8) / (1.2 - 0.7);
        let ub = 1.0 - (1.0 - theta).powi(2) * (1.2 - 0.7) / (1.3 - 0.3);
        assert!((ub - 0.82).abs() < 1e-9);
    }

    #[test]
    fn prob_upper_bound_is_one_without_separation() {
        let mut fx = fixture();
        let kw = KeywordSet::universe();
        let a = meta_of(
            &mut fx,
            1,
            &["mecha battle", "scifi action", "sunrise"],
            &kw,
        );
        let b = meta_of(
            &mut fx,
            2,
            &["mecha battle", "scifi action", "sunrise"],
            &kw,
        );
        // Identical tuples: bounds coincide; lemma conditions require strict
        // separation, so the bound degrades to 1 (no pruning).
        assert_eq!(prob_upper_bound(&a, &b, 1.5), 1.0);
    }

    #[test]
    fn prob_upper_bound_dominates_exact_probability_uncertain() {
        let mut fx = fixture();
        let kw = KeywordSet::universe();
        // Tuple with an uncertain attribute far from / close to b.
        let base = Record::from_texts(
            &fx.schema,
            7,
            &[Some("space cowboy adventure"), None, Some("sunrise")],
            &mut fx.dict,
        );
        let c1 = ter_text::tokenize("scifi western bounty", &mut fx.dict);
        let c2 = ter_text::tokenize("mystery crime noir", &mut fx.dict);
        let pt = ProbTuple::new(
            base,
            vec![AttrCandidates::normalized(1, vec![(c1, 1.0), (c2, 1.0)])],
        );
        let a = TupleMeta::build(7, 0, 0, pt, &fx.pivots, &fx.layout, &kw);
        let b = meta_of(
            &mut fx,
            8,
            &["space cowboy adventure", "scifi western bounty", "sunrise"],
            &kw,
        );
        for gamma in [1.0, 1.5, 2.0, 2.5, 2.9] {
            let exact: f64 = a
                .tuple
                .instances()
                .flat_map(|ia| {
                    b.tuple.instances().map(move |ib| {
                        if ia.similarity(&ib) > gamma {
                            ia.prob * ib.prob
                        } else {
                            0.0
                        }
                    })
                })
                .sum();
            let ub = prob_upper_bound(&a, &b, gamma);
            assert!(ub >= exact - 1e-9, "γ={gamma}: ub {ub} < exact {exact}");
        }
    }

    #[test]
    fn disjoint_far_tuples_are_sim_prunable_for_high_gamma() {
        let mut fx = fixture();
        let kw = KeywordSet::universe();
        let a = meta_of(
            &mut fx,
            1,
            &["space cowboy adventure", "scifi western bounty", "sunrise"],
            &kw,
        );
        let b = meta_of(
            &mut fx,
            2,
            &["idol band music live", "music idol slice", "aniplex"],
            &kw,
        );
        let counts = aux_counts(&fx);
        // Completely disjoint tuples: true similarity 0; a tight γ close to
        // d should allow pruning via at least one bound.
        let ub = ub_sim(&a, &b, &counts);
        assert!(ub < 3.0);
        assert!(sim_prunable(&a, &b, ub + 1e-9, &counts));
    }
}
