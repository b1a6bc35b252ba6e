//! Imputed probabilistic tuples `r^p` (Definition 4).
//!
//! An imputed tuple contains mutually exclusive instances `r_{i,m}`, each
//! with an existence probability summing to at most 1. We represent the
//! instance set compactly as one candidate distribution per *missing*
//! attribute (Equations 3/4 impute each missing attribute independently);
//! instances are the cartesian product, an instance's probability the
//! product of its per-attribute candidate probabilities. A complete tuple
//! is the degenerate case with a single instance of probability 1.
//!
//! When imputation finds no candidate for a missing attribute, the paper's
//! data simply keeps the attribute empty; we model that as a single
//! empty-token-set candidate with probability 1, so every tuple always has
//! at least one instance.

use ter_repo::Record;
use ter_text::{Interval, TokenSet};

/// Candidate imputed values for one missing attribute, with normalized
/// existence probabilities (Equation 3 for a single CDD, Equation 4 for
/// multiple CDDs).
///
/// `PartialEq` is exact (probabilities compared bitwise as `f64`) — the
/// persistence layer's recovery parity contract is bit-identity, not
/// approximate equality.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrCandidates {
    /// The missing attribute index.
    pub attr: usize,
    /// `(value, probability)` pairs; probabilities sum to 1 (± rounding).
    pub candidates: Vec<(TokenSet, f64)>,
}

impl AttrCandidates {
    /// Builds a candidate set, normalizing probabilities. An empty input
    /// becomes the "stays missing" distribution (one empty value, p = 1).
    pub fn normalized(attr: usize, mut candidates: Vec<(TokenSet, f64)>) -> Self {
        let total: f64 = candidates.iter().map(|(_, p)| p).sum();
        if candidates.is_empty() || total <= 0.0 {
            return Self {
                attr,
                candidates: vec![(TokenSet::empty(), 1.0)],
            };
        }
        for (_, p) in &mut candidates {
            *p /= total;
        }
        Self { attr, candidates }
    }

    /// Keeps only the `k` most probable candidates and renormalizes.
    /// Bounds the instance product for heavily ambiguous imputations
    /// (documented deviation, DESIGN.md §3).
    pub fn truncate_top_k(&mut self, k: usize) {
        if self.candidates.len() <= k {
            return;
        }
        self.candidates
            .sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        self.candidates.truncate(k.max(1));
        let total: f64 = self.candidates.iter().map(|(_, p)| p).sum();
        for (_, p) in &mut self.candidates {
            *p /= total;
        }
    }
}

/// The imputed probabilistic tuple `r^p`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbTuple {
    /// The original (possibly incomplete) tuple `r`.
    pub base: Record,
    /// Candidate distributions, one per missing attribute of `base`,
    /// sorted by attribute index.
    pub imputed: Vec<AttrCandidates>,
}

impl ProbTuple {
    /// Wraps a tuple with its per-missing-attribute candidates.
    ///
    /// # Panics
    /// Panics if `imputed` does not cover exactly the missing attributes
    /// of `base`, or is not sorted by attribute.
    pub fn new(base: Record, imputed: Vec<AttrCandidates>) -> Self {
        let missing = base.missing_attrs();
        let covered: Vec<usize> = imputed.iter().map(|c| c.attr).collect();
        assert_eq!(
            covered, missing,
            "imputation must cover exactly the missing attributes"
        );
        assert!(imputed.iter().all(|c| !c.candidates.is_empty()));
        Self { base, imputed }
    }

    /// A complete tuple as a degenerate probabilistic tuple.
    pub fn certain(base: Record) -> Self {
        assert!(base.is_complete(), "certain() requires a complete tuple");
        Self {
            base,
            imputed: Vec::new(),
        }
    }

    /// Whether the tuple has exactly one instance with probability 1.
    pub fn is_certain(&self) -> bool {
        self.imputed.iter().all(|c| c.candidates.len() == 1)
    }

    /// Number of instances `|{r_{i,m}}|` (product of candidate counts).
    pub fn instance_count(&self) -> usize {
        self.imputed
            .iter()
            .map(|c| c.candidates.len())
            .product::<usize>()
            .max(1)
    }

    /// Enumerates all instances with their probabilities, in odometer
    /// order (the first imputed attribute's candidate varies fastest).
    /// Allocation-free: an instance is a view naming its index.
    pub fn instances(&self) -> InstanceIter<'_> {
        InstanceIter {
            tuple: self,
            next: 0,
            count: self.instance_count(),
        }
    }

    /// Token-set-size bounds `[|T⁻(r^p[A_j])|, |T⁺(r^p[A_j])|]` over all
    /// instances (the quantities of Lemma 4.1).
    pub fn token_size_bounds(&self, j: usize) -> Interval {
        if let Some(v) = self.base.attr(j) {
            return Interval::point(v.len() as f64);
        }
        let slot = self.imputed.iter().position(|c| c.attr == j).unwrap();
        let mut iv = Interval::empty();
        for (v, _) in &self.imputed[slot].candidates {
            iv.expand(v.len() as f64);
        }
        iv
    }

    /// Union of tokens over *all* instances — if a keyword is absent here,
    /// no instance can contain it (the certainty required by the topic
    /// keyword pruning, Theorem 4.1).
    pub fn possible_tokens(&self) -> TokenSet {
        let mut acc = self.base.all_tokens();
        for c in &self.imputed {
            for (v, _) in &c.candidates {
                acc = acc.union(v);
            }
        }
        acc
    }

    /// Candidate values (with probabilities) of attribute `j`; a present
    /// attribute yields its single value with probability 1.
    pub fn attr_candidates(&self, j: usize) -> Vec<(&TokenSet, f64)> {
        if let Some(v) = self.base.attr(j) {
            return vec![(v, 1.0)];
        }
        let slot = self.imputed.iter().position(|c| c.attr == j).unwrap();
        self.imputed[slot]
            .candidates
            .iter()
            .map(|(v, p)| (v, *p))
            .collect()
    }
}

/// One instance `r_{i,m}` of an imputed tuple: a view naming the instance
/// by its index `m` in odometer order, whose digits (mixed radix, the
/// candidate counts of the imputed attributes, first attribute least
/// significant) pick one candidate per imputed attribute.
#[derive(Debug, Clone, Copy)]
pub struct Instance<'a> {
    tuple: &'a ProbTuple,
    index: usize,
    /// Existence probability `r_{i,m}.p`.
    pub prob: f64,
}

impl<'a> Instance<'a> {
    /// The instance's value on attribute `j`.
    pub fn attr(&self, j: usize) -> &'a TokenSet {
        if let Some(v) = self.tuple.base.attr(j) {
            return v;
        }
        let mut rest = self.index;
        for c in &self.tuple.imputed {
            let n = c.candidates.len();
            if c.attr == j {
                return &c.candidates[rest % n].0;
            }
            rest /= n;
        }
        panic!("missing attribute {j} without candidates")
    }

    /// Summed Jaccard similarity between two instances (Definition 5).
    pub fn similarity(&self, other: &Instance<'_>) -> f64 {
        let d = self.tuple.base.attrs.len();
        debug_assert_eq!(d, other.tuple.base.attrs.len());
        (0..d)
            .map(|j| self.attr(j).er_similarity(other.attr(j)))
            .sum()
    }

    /// Whether `self.similarity(other) > threshold` — the same decision,
    /// bit for bit, reached without computing every attribute: each term
    /// is at most 1 and float addition is monotone, so the running sum
    /// plus 1 per remaining attribute (added one at a time, as the sum
    /// adds its terms) bounds the finished sum from above, and the walk
    /// stops once that bound is at most `threshold`.
    pub fn similarity_exceeds(&self, other: &Instance<'_>, threshold: f64) -> bool {
        let d = self.tuple.base.attrs.len();
        debug_assert_eq!(d, other.tuple.base.attrs.len());
        let mut sum = 0.0;
        for j in 0..d {
            let bound = (j..d).fold(sum, |acc, _| acc + 1.0);
            if bound <= threshold {
                return false;
            }
            sum += self.attr(j).er_similarity(other.attr(j));
        }
        sum > threshold
    }

    /// Whether any attribute of the instance contains a token of `ts`.
    pub fn contains_any_token(&self, ts: &TokenSet) -> bool {
        let d = self.tuple.base.attrs.len();
        (0..d).any(|j| self.attr(j).intersects(ts))
    }
}

/// Iterator over all instances, in odometer order.
pub struct InstanceIter<'a> {
    tuple: &'a ProbTuple,
    next: usize,
    count: usize,
}

impl<'a> Iterator for InstanceIter<'a> {
    type Item = Instance<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next == self.count {
            return None;
        }
        let index = self.next;
        self.next += 1;
        let mut rest = index;
        let prob = self
            .tuple
            .imputed
            .iter()
            .map(|c| {
                let n = c.candidates.len();
                let p = c.candidates[rest % n].1;
                rest /= n;
                p
            })
            .product::<f64>();
        Some(Instance {
            tuple: self.tuple,
            index,
            prob,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.count - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for InstanceIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use ter_repo::Schema;
    use ter_text::Dictionary;

    fn schema() -> Schema {
        Schema::new(vec!["a", "b", "c"])
    }

    fn tset(d: &mut Dictionary, s: &str) -> TokenSet {
        ter_text::tokenize(s, d)
    }

    fn sample_tuple(d: &mut Dictionary) -> ProbTuple {
        let base = Record::from_texts(&schema(), 1, &[Some("x y"), None, None], d);
        let cand_b =
            AttrCandidates::normalized(1, vec![(tset(d, "p q"), 2.0), (tset(d, "p r"), 2.0)]);
        let cand_c = AttrCandidates::normalized(
            2,
            vec![
                (tset(d, "u"), 3.0),
                (tset(d, "v"), 1.0),
                (tset(d, "w"), 0.0),
            ],
        );
        ProbTuple::new(base, vec![cand_b, cand_c])
    }

    #[test]
    fn normalization_sums_to_one() {
        let mut d = Dictionary::new();
        let t = sample_tuple(&mut d);
        for c in &t.imputed {
            let sum: f64 = c.candidates.iter().map(|(_, p)| p).sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn instance_probabilities_sum_to_one() {
        let mut d = Dictionary::new();
        let t = sample_tuple(&mut d);
        assert_eq!(t.instance_count(), 6);
        let total: f64 = t.instances().map(|i| i.prob).sum();
        assert!((total - 1.0).abs() < 1e-9, "total={total}");
    }

    #[test]
    fn instance_attr_resolution() {
        let mut d = Dictionary::new();
        let t = sample_tuple(&mut d);
        let first = t.instances().next().unwrap();
        assert_eq!(first.attr(0), t.base.attr(0).unwrap());
        assert_eq!(first.attr(1), &t.imputed[0].candidates[0].0);
    }

    #[test]
    fn certain_tuple_single_instance() {
        let mut d = Dictionary::new();
        let base = Record::from_texts(&schema(), 2, &[Some("x"), Some("y"), Some("z")], &mut d);
        let t = ProbTuple::certain(base);
        assert!(t.is_certain());
        assert_eq!(t.instance_count(), 1);
        let inst: Vec<_> = t.instances().collect();
        assert_eq!(inst.len(), 1);
        assert_eq!(inst[0].prob, 1.0);
    }

    #[test]
    fn empty_candidates_become_stay_missing() {
        let c = AttrCandidates::normalized(1, vec![]);
        assert_eq!(c.candidates.len(), 1);
        assert!(c.candidates[0].0.is_empty());
        assert_eq!(c.candidates[0].1, 1.0);
    }

    #[test]
    fn truncate_top_k_renormalizes() {
        let mut d = Dictionary::new();
        let mut c = AttrCandidates::normalized(
            0,
            vec![
                (tset(&mut d, "a"), 4.0),
                (tset(&mut d, "b"), 3.0),
                (tset(&mut d, "c"), 2.0),
                (tset(&mut d, "e"), 1.0),
            ],
        );
        c.truncate_top_k(2);
        assert_eq!(c.candidates.len(), 2);
        let sum: f64 = c.candidates.iter().map(|(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // Kept the two most probable.
        assert!((c.candidates[0].1 - 4.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn token_size_bounds() {
        let mut d = Dictionary::new();
        let t = sample_tuple(&mut d);
        assert_eq!(t.token_size_bounds(0), Interval::point(2.0));
        assert_eq!(t.token_size_bounds(1), Interval::point(2.0)); // both candidates size 2
        assert_eq!(t.token_size_bounds(2), Interval::point(1.0)); // all candidates size 1
    }

    #[test]
    fn token_size_bounds_span_candidate_sizes() {
        let mut d = Dictionary::new();
        let base = Record::from_texts(&schema(), 9, &[Some("x"), Some("y"), None], &mut d);
        let cand = AttrCandidates::normalized(
            2,
            vec![
                (tset(&mut d, "one"), 1.0),
                (tset(&mut d, "two three four"), 1.0),
            ],
        );
        let t = ProbTuple::new(base, vec![cand]);
        assert_eq!(t.token_size_bounds(2), Interval::new(1.0, 3.0));
    }

    #[test]
    fn possible_tokens_covers_all_candidates() {
        let mut d = Dictionary::new();
        let t = sample_tuple(&mut d);
        let all = t.possible_tokens();
        for word in ["x", "y", "p", "q", "r", "u", "v"] {
            let tok = d.lookup(word).unwrap();
            assert!(all.contains(tok), "missing {word}");
        }
    }

    #[test]
    fn instance_similarity_matches_manual() {
        let mut d = Dictionary::new();
        let s = schema();
        let a = ProbTuple::certain(Record::from_texts(
            &s,
            1,
            &[Some("x y"), Some("p q"), Some("u")],
            &mut d,
        ));
        let b = ProbTuple::certain(Record::from_texts(
            &s,
            2,
            &[Some("x y"), Some("p r"), Some("v")],
            &mut d,
        ));
        let ia = a.instances().next().unwrap();
        let ib = b.instances().next().unwrap();
        // attr0: 1.0, attr1: |{p}|/|{p,q,r}| = 1/3, attr2: 0
        assert!((ia.similarity(&ib) - (1.0 + 1.0 / 3.0)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "cover exactly")]
    fn wrong_coverage_panics() {
        let mut d = Dictionary::new();
        let base = Record::from_texts(&schema(), 1, &[Some("x"), None, Some("z")], &mut d);
        // Covers attr 2 (present) instead of attr 1 (missing).
        let _ = ProbTuple::new(
            base,
            vec![AttrCandidates::normalized(
                2,
                vec![(tset(&mut d, "q"), 1.0)],
            )],
        );
    }

    #[test]
    fn attr_candidates_accessor() {
        let mut d = Dictionary::new();
        let t = sample_tuple(&mut d);
        assert_eq!(t.attr_candidates(0).len(), 1);
        assert_eq!(t.attr_candidates(1).len(), 2);
        assert_eq!(t.attr_candidates(2).len(), 3);
    }
}
