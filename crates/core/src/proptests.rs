//! Property tests: the pruning rules of §4 must be *sound* — an upper
//! bound below the threshold must imply the exact quantity is too —
//! verified against exhaustive instance enumeration on random imputed
//! tuples.

use proptest::prelude::*;

use ter_repo::{PivotConfig, PivotTable, Record, Repository, Schema};
use ter_stream::{AttrCandidates, ProbTuple};
use ter_text::{Dictionary, KeywordSet, Token, TokenSet};

use crate::candidates::CandidateLists;
use crate::meta::{AuxLayout, TupleMeta};
use crate::params::PruningMode;
use crate::pruning;
use crate::refine::{
    decide_pair, exact_probability, refine_pair, PairContext, PairDecision, Refinement,
};

/// A compact fixture: vocabulary of 40 tokens, 2-attribute schema,
/// repository of token-set samples to select pivots from.
struct Fx {
    pivots: PivotTable,
    layout: AuxLayout,
}

fn fixture() -> Fx {
    let schema = Schema::new(vec!["a", "b"]);
    let mut dict = Dictionary::new();
    let recs: Vec<Record> = (0..12u64)
        .map(|i| {
            let t1 = format!("w{} w{} w{}", i % 7, (i * 3) % 11, (i * 5) % 13);
            let t2 = format!("w{} w{}", (i * 2) % 9, (i * 7) % 11);
            Record::from_texts(&schema, i, &[Some(&t1), Some(&t2)], &mut dict)
        })
        .collect();
    let repo = Repository::from_records(schema, recs);
    let pivots = PivotTable::select(&repo, &PivotConfig::default());
    let layout = AuxLayout::new(&pivots);
    Fx { pivots, layout }
}

fn arb_tokenset() -> impl Strategy<Value = TokenSet> {
    proptest::collection::vec(0u32..40, 1..6)
        .prop_map(|v| TokenSet::new(v.into_iter().map(Token).collect()))
}

/// A random imputed tuple over the 2-attribute schema: attribute 0 is
/// always present; attribute 1 is either present or imputed with 1–3
/// candidates.
fn arb_prob_tuple(id: u64) -> impl Strategy<Value = (TokenSet, Vec<(TokenSet, f64)>)> {
    (
        arb_tokenset(),
        proptest::collection::vec((arb_tokenset(), 1u32..5), 1..4),
    )
        .prop_map(|(a0, cands)| {
            (
                a0,
                cands
                    .into_iter()
                    .map(|(ts, w)| (ts, w as f64))
                    .collect::<Vec<_>>(),
            )
        })
        .prop_map(move |x| {
            let _ = id;
            x
        })
}

fn build_meta(fx: &Fx, id: u64, a0: TokenSet, cands: Vec<(TokenSet, f64)>) -> TupleMeta {
    let schema = Schema::new(vec!["a", "b"]);
    let base = Record::new(&schema, id, vec![Some(a0), None]);
    let pt = ProbTuple::new(base, vec![AttrCandidates::normalized(1, cands)]);
    TupleMeta::build(
        id,
        (id % 2) as usize,
        id,
        pt,
        &fx.pivots,
        &fx.layout,
        &KeywordSet::universe(),
    )
}

/// One attribute of a [`arb_signature_tuple`]: present with a value, or
/// missing and imputed; values and candidates may be empty. Tokens come
/// from 12 ids, so attributes often share some.
type SigAttr = (bool, TokenSet, Vec<(TokenSet, u32)>);

fn arb_sig_value() -> impl Strategy<Value = TokenSet> {
    proptest::collection::vec(0u32..12, 0..4)
        .prop_map(|v| TokenSet::new(v.into_iter().map(Token).collect()))
}

fn arb_signature_tuple() -> impl Strategy<Value = Vec<SigAttr>> {
    proptest::collection::vec(
        (
            any::<bool>(),
            arb_sig_value(),
            proptest::collection::vec((arb_sig_value(), 1u32..5), 1..4),
        ),
        3,
    )
}

/// Metadata of a 3-attribute tuple built from `attrs`.
fn signature_meta(fx: &Fx, id: u64, attrs: &[SigAttr]) -> TupleMeta {
    let schema = Schema::new(vec!["a", "b", "c"]);
    let values = attrs
        .iter()
        .map(|(present, v, _)| present.then(|| v.clone()))
        .collect();
    let imputed = attrs
        .iter()
        .enumerate()
        .filter(|(_, (present, _, _))| !present)
        .map(|(j, (_, _, cands))| {
            AttrCandidates::normalized(
                j,
                cands.iter().map(|(v, w)| (v.clone(), *w as f64)).collect(),
            )
        })
        .collect();
    let pt = ProbTuple::new(Record::new(&schema, id, values), imputed);
    TupleMeta::build(
        id,
        (id % 2) as usize,
        id,
        pt,
        &fx.pivots,
        &fx.layout,
        &KeywordSet::universe(),
    )
}

/// [`fixture`] over the 3-attribute schema of [`signature_meta`].
fn fixture3() -> Fx {
    let schema = Schema::new(vec!["a", "b", "c"]);
    let mut dict = Dictionary::new();
    let recs: Vec<Record> = (0..12u64)
        .map(|i| {
            let t: Vec<String> = [(3, 5), (7, 11), (2, 9)]
                .iter()
                .map(|(x, y)| format!("w{} w{}", (i * x) % 12, (i * y) % 12))
                .collect();
            Record::from_texts(
                &schema,
                i,
                &[Some(&t[0]), Some(&t[1]), Some(&t[2])],
                &mut dict,
            )
        })
        .collect();
    let repo = Repository::from_records(schema, recs);
    let pivots = PivotTable::select(&repo, &PivotConfig::default());
    let layout = AuxLayout::new(&pivots);
    Fx { pivots, layout }
}

/// Auxiliary-pivot counts per attribute of a fixture.
fn aux_counts(fx: &Fx) -> Vec<usize> {
    (0..fx.pivots.arity())
        .map(|j| fx.pivots.aux_count(j))
        .collect()
}

/// The candidate definition over plain metadata: every tuple of
/// `live` from another stream than `probe`'s, topical unless the probe
/// may be, whose signatures intersect the probe's in more than `gamma`
/// attributes, ascending.
fn brute_force_candidates<'m>(
    live: impl IntoIterator<Item = &'m TupleMeta>,
    probe: &TupleMeta,
    gamma: f64,
) -> Vec<u64> {
    let mut ids: Vec<u64> = live
        .into_iter()
        .filter(|m| m.stream_id != probe.stream_id)
        .filter(|m| probe.possibly_topical || m.possibly_topical)
        .filter(|m| {
            let shared = (0..m.arity())
                .filter(|&j| m.signatures[j] & probe.signatures[j] != 0)
                .count();
            shared as f64 > gamma
        })
        .map(|m| m.id)
        .collect();
    ids.sort_unstable();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The token-signature bound is exact: no instance pair's summed
    /// similarity exceeds the number of attributes whose signatures
    /// intersect — imputed multi-candidate attributes, empty values and
    /// `∅`/`∅` pairs included. Compared without tolerance.
    #[test]
    fn signature_bound_dominates_every_instance_pair(
        ta in arb_signature_tuple(),
        tb in arb_signature_tuple(),
    ) {
        let fx = fixture3();
        let a = signature_meta(&fx, 1, &ta);
        let b = signature_meta(&fx, 2, &tb);
        let ub = pruning::ub_sim_signature(&a, &b);
        for ia in a.tuple.instances() {
            for ib in b.tuple.instances() {
                let s = ia.similarity(&ib);
                prop_assert!(s <= ub, "instance sim {} > signature bound {}", s, ub);
            }
        }
    }

    /// Lemma 4.1 + Lemma 4.2 (`ub_sim`): never below any instance pair's
    /// true similarity.
    #[test]
    fn similarity_upper_bound_is_sound(
        ta in arb_prob_tuple(1),
        tb in arb_prob_tuple(2),
    ) {
        let fx = fixture();
        let a = build_meta(&fx, 1, ta.0, ta.1);
        let b = build_meta(&fx, 2, tb.0, tb.1);
        let aux_counts: Vec<usize> =
            (0..fx.pivots.arity()).map(|j| fx.pivots.aux_count(j)).collect();
        let ub = pruning::ub_sim(&a, &b, &aux_counts);
        for ia in a.tuple.instances() {
            for ib in b.tuple.instances() {
                let s = ia.similarity(&ib);
                prop_assert!(ub >= s - 1e-9, "ub {ub} < instance sim {s}");
            }
        }
    }

    /// The early-exit threshold test refinement uses decides exactly like
    /// comparing the full similarity sum — at thresholds on the sums
    /// themselves, just beside them, and on the attribute-count grid
    /// where the early-exit bound lands.
    #[test]
    fn similarity_threshold_test_matches_the_sum(
        ta in arb_prob_tuple(1),
        tb in arb_prob_tuple(2),
        gamma_pct in 0u32..=100,
    ) {
        let fx = fixture();
        let a = build_meta(&fx, 1, ta.0, ta.1);
        let b = build_meta(&fx, 2, tb.0, tb.1);
        for ia in a.tuple.instances() {
            for ib in b.tuple.instances() {
                let s = ia.similarity(&ib);
                let grid = 2.0 * gamma_pct as f64 / 100.0;
                for t in [s, s - 1e-12, s + 1e-12, grid, 0.0, 1.0, 2.0] {
                    prop_assert_eq!(ia.similarity_exceeds(&ib, t), s > t, "sim {} vs {}", s, t);
                }
            }
        }
    }

    /// Lemma 4.3: the Paley–Zygmund bound dominates the exact probability
    /// for every γ.
    #[test]
    fn probability_upper_bound_is_sound(
        ta in arb_prob_tuple(1),
        tb in arb_prob_tuple(2),
        gamma_pct in 5u32..95,
    ) {
        let fx = fixture();
        let a = build_meta(&fx, 1, ta.0, ta.1);
        let b = build_meta(&fx, 2, tb.0, tb.1);
        let gamma = 2.0 * gamma_pct as f64 / 100.0;
        let kw = KeywordSet::universe();
        let exact = exact_probability(&a, &b, &kw, gamma);
        let ub = pruning::prob_upper_bound(&a, &b, gamma);
        prop_assert!(ub >= exact - 1e-9, "ub {ub} < exact {exact} at γ={gamma}");
    }

    /// Theorem 4.4 refinement decides exactly like full enumeration.
    #[test]
    fn refinement_decision_is_exact(
        ta in arb_prob_tuple(1),
        tb in arb_prob_tuple(2),
        alpha_pct in 0u32..100,
        gamma_pct in 5u32..95,
    ) {
        let fx = fixture();
        let a = build_meta(&fx, 1, ta.0, ta.1);
        let b = build_meta(&fx, 2, tb.0, tb.1);
        let alpha = alpha_pct as f64 / 100.0;
        let gamma = 2.0 * gamma_pct as f64 / 100.0;
        let kw = KeywordSet::universe();
        let exact = exact_probability(&a, &b, &kw, gamma);
        let decision = refine_pair(&a, &b, &kw, gamma, alpha);
        let is_match = matches!(decision, Refinement::Match(_));
        prop_assert_eq!(is_match, exact > alpha,
            "exact={} alpha={} decision={:?}", exact, alpha, decision);
    }

    /// A pruned pair (any of the three cheap rules) must have exact
    /// probability ≤ α — pruning soundness end to end.
    #[test]
    fn cheap_prunes_never_lose_matches(
        ta in arb_prob_tuple(1),
        tb in arb_prob_tuple(2),
        alpha_pct in 5u32..95,
    ) {
        let fx = fixture();
        let a = build_meta(&fx, 1, ta.0, ta.1);
        let b = build_meta(&fx, 2, tb.0, tb.1);
        let gamma = 1.0;
        let alpha = alpha_pct as f64 / 100.0;
        let kw = KeywordSet::universe();
        let aux_counts: Vec<usize> =
            (0..fx.pivots.arity()).map(|j| fx.pivots.aux_count(j)).collect();
        let exact = exact_probability(&a, &b, &kw, gamma);
        if pruning::ub_sim(&a, &b, &aux_counts) <= gamma {
            prop_assert!(exact <= 1e-12, "sim-pruned pair has Pr={exact}");
        }
        if pruning::prob_prunable(&a, &b, gamma, alpha) {
            prop_assert!(exact <= alpha + 1e-9, "prob-pruned pair has Pr={exact} > α={alpha}");
        }
    }

    /// Topic pruning soundness: if `topic_prunable`, no instance pair can
    /// satisfy the keyword predicate.
    #[test]
    fn topic_prune_is_sound(
        ta in arb_prob_tuple(1),
        tb in arb_prob_tuple(2),
        kw_tokens in proptest::collection::vec(0u32..40, 1..4),
    ) {
        let fx = fixture();
        let schema = Schema::new(vec!["a", "b"]);
        let kw = KeywordSet::new(TokenSet::new(
            kw_tokens.into_iter().map(Token).collect(),
        ));
        let mk = |id: u64, t: &(TokenSet, Vec<(TokenSet, f64)>)| {
            let base = Record::new(&schema, id, vec![Some(t.0.clone()), None]);
            let pt = ProbTuple::new(base, vec![AttrCandidates::normalized(1, t.1.clone())]);
            TupleMeta::build(id, (id % 2) as usize, id, pt, &fx.pivots, &fx.layout, &kw)
        };
        let a = mk(1, &ta);
        let b = mk(2, &tb);
        if pruning::topic_prunable(&a, &b) {
            let exact = exact_probability(&a, &b, &kw, 0.0);
            prop_assert!(exact <= 1e-12, "topic-pruned pair has Pr={exact}");
        }
    }

    /// The scan's signature test only drops pairs the cascade would
    /// reject as `SimPruned`: every other-stream entry whose signatures
    /// intersect the probe's in at most `γ` attributes is missing from
    /// `examined_ids` and is `SimPruned` by `decide_pair`; every examined
    /// id passes the test.
    #[test]
    fn walk_drops_only_sim_pruned_entries(
        window in proptest::collection::vec(arb_signature_tuple(), 1..12),
        probe in arb_signature_tuple(),
        gamma_pct in 0u32..=100,
    ) {
        let fx = fixture3();
        let counts = aux_counts(&fx);
        let gamma = 3.0 * gamma_pct as f64 / 100.0;
        let kw = KeywordSet::universe();
        let ctx = PairContext {
            keywords: &kw,
            gamma,
            alpha: 0.5,
            aux_counts: &counts,
            mode: PruningMode::Full,
        };
        let metas: Vec<TupleMeta> = window
            .iter()
            .enumerate()
            .map(|(i, attrs)| signature_meta(&fx, i as u64, attrs))
            .collect();
        let mut lists = CandidateLists::new(3);
        for meta in &metas {
            lists.insert(meta);
        }
        let probe = signature_meta(&fx, 99, &probe);
        let examined = lists.examined_ids(&probe, gamma);
        for other in metas.iter().filter(|m| m.stream_id != probe.stream_id) {
            if pruning::ub_sim_signature(&probe, other) <= gamma {
                prop_assert!(!examined.contains(&other.id), "dropped id {} examined", other.id);
                prop_assert_eq!(decide_pair(&probe, other, &ctx), PairDecision::SimPruned);
            }
        }
        for &id in &examined {
            prop_assert!(pruning::ub_sim_signature(&probe, &metas[id as usize]) > gamma);
        }
    }

    /// Under FIFO churn (insert the newest, evict the oldest), with tuples
    /// drawn from three streams with mixed topicality, the scan equals the
    /// brute-force filter over the live metadata at every step: other
    /// stream, topical unless the probe may be, signatures intersecting in
    /// more than `γ` attributes, ascending ids.
    #[test]
    fn examined_ids_equal_brute_force_under_fifo_churn(
        stream in proptest::collection::vec(
            (arb_signature_tuple(), 0usize..3, any::<bool>()),
            1..40,
        ),
        w in 1usize..12,
        half_gamma in 0u32..=6,
    ) {
        let fx = fixture3();
        // Integer thresholds are where `>` and `≥` differ.
        let gamma = f64::from(half_gamma) / 2.0;
        // Ids are not in arrival order, so the scan has to sort.
        let metas: Vec<TupleMeta> = stream
            .iter()
            .enumerate()
            .map(|(i, (attrs, sid, topical))| {
                let id = (i as u64 * 7919) % 1000;
                let mut meta = signature_meta(&fx, id, attrs);
                meta.stream_id = *sid;
                meta.possibly_topical = *topical;
                meta
            })
            .collect();
        let mut lists = CandidateLists::new(3);
        for (i, probe) in metas.iter().enumerate() {
            // The engines' order: expire, scan, insert.
            if i >= w {
                lists.evict(&metas[i - w]);
            }
            let live = &metas[(i + 1).saturating_sub(w)..i];
            prop_assert_eq!(
                lists.examined_ids(probe, gamma),
                brute_force_candidates(live, probe, gamma),
                "arrival {}",
                i
            );
            lists.insert(probe);
            prop_assert_eq!(lists.len(), (i + 1).min(w));
        }
    }

    /// The lists are split by (stream, topicality). Replaying a
    /// sliding-window history (evict the tuple leaving the window, scan
    /// for the arriving one, insert it) through them leaves every live
    /// tuple in the list of its group and nothing else: the list lengths
    /// equal the live group sizes, and at every step the scan equals the
    /// scan of lists rebuilt in one pass from the live window, as a
    /// checkpoint import builds them. Signatures are four-bit words, so
    /// entries often intersect the probe.
    #[test]
    fn sharded_window_churn_equals_monolithic(
        parts in proptest::collection::vec(
            (0usize..3, any::<bool>(), (0u64..16, 0u64..16, 0u64..16)),
            1..32,
        ),
        window in 1usize..=6,
        gamma in 0u32..3,
    ) {
        let fx = fixture3();
        let empty: Vec<SigAttr> =
            vec![(true, TokenSet::new(vec![]), vec![(TokenSet::new(vec![]), 1)]); 3];
        let base = signature_meta(&fx, 0, &empty);
        let gamma = f64::from(gamma);
        let metas: Vec<TupleMeta> = parts
            .iter()
            .enumerate()
            .map(|(i, &(sid, topical, (a, b, c)))| {
                let mut meta = base.clone();
                meta.id = (i as u64 * 37) % 101;
                meta.stream_id = sid;
                meta.possibly_topical = topical;
                meta.signatures = vec![a, b, c].into();
                meta
            })
            .collect();
        let mut lists = CandidateLists::new(3);
        for (i, probe) in metas.iter().enumerate() {
            if i >= window {
                lists.evict(&metas[i - window]);
            }
            let mut rebuilt = CandidateLists::new(3);
            for meta in &metas[(i + 1).saturating_sub(window)..i] {
                rebuilt.insert(meta);
            }
            prop_assert_eq!(
                lists.examined_ids(probe, gamma),
                rebuilt.examined_ids(probe, gamma),
                "arrival {}",
                i
            );
            lists.insert(probe);
        }
        let live = &metas[metas.len().saturating_sub(window)..];
        let mut groups = std::collections::BTreeMap::new();
        for meta in live {
            *groups.entry((meta.stream_id, meta.possibly_topical)).or_insert(0usize) += 1;
        }
        let mut expect: Vec<usize> = groups.into_values().collect();
        expect.sort_unstable();
        let mut lengths: Vec<usize> = lists.list_lengths().collect();
        lengths.sort_unstable();
        prop_assert_eq!(lengths, expect);
        prop_assert_eq!(lists.len(), live.len());
    }
}
