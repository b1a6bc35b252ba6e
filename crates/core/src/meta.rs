//! Per-tuple derived state (§5.2's per-tuple aggregates).
//!
//! When a tuple arrives and is imputed, the engine derives everything the
//! pruning rules will ever ask about it: main/auxiliary pivot-distance
//! bounds and expectations (for Lemmas 4.2/4.3), token-set-size bounds
//! (Lemma 4.1), and whether any *possible* token is a query keyword
//! (Theorem 4.1).
//! Each tuple also carries one 64-bit token signature per attribute, which
//! the similarity bound [`crate::pruning::ub_sim_signature`] reads and the
//! candidate lists ([`crate::candidates::CandidateLists`]) keep beside the
//! tuple's id.
//!
//! All of it is a function of the imputed tuple and the static context,
//! so none of it is persisted: a checkpoint stores the imputed tuple
//! ([`crate::state::LiveEntry`]) and import rebuilds the metadata with
//! [`TupleMeta::build`], as arrival does.

use ter_repo::PivotTable;
use ter_stream::ProbTuple;
use ter_text::{Interval, KeywordSet, Token, TokenSet};

/// Flattened layout of per-(attribute, auxiliary-pivot) slots.
#[derive(Debug, Clone)]
pub struct AuxLayout {
    offsets: Vec<usize>,
}

impl AuxLayout {
    /// Computes the layout from the pivot table.
    pub fn new(pivots: &PivotTable) -> Self {
        let mut offsets = Vec::with_capacity(pivots.arity() + 1);
        let mut off = 0;
        for j in 0..pivots.arity() {
            offsets.push(off);
            off += pivots.aux_count(j);
        }
        offsets.push(off);
        Self { offsets }
    }

    /// Slot of attribute `j`'s auxiliary pivot `a`.
    pub fn slot(&self, j: usize, a: usize) -> usize {
        self.offsets[j] + a
    }

    /// Number of auxiliary pivots of attribute `j`.
    pub fn count(&self, j: usize) -> usize {
        self.offsets[j + 1] - self.offsets[j]
    }

    /// Total number of slots.
    pub fn total(&self) -> usize {
        *self.offsets.last().unwrap()
    }
}

/// Everything the pruning rules need to know about one (imputed) tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct TupleMeta {
    /// Tuple id (unique across all streams).
    pub id: u64,
    /// Source stream.
    pub stream_id: usize,
    /// Arrival timestamp.
    pub timestamp: u64,
    /// The imputed probabilistic tuple `r^p`.
    pub tuple: ProbTuple,
    /// Per-attribute bounds `[lb_X_k, ub_X_k]` of the main-pivot distance
    /// over all instances (Lemma 4.2).
    pub main_bounds: Vec<Interval>,
    /// Per-attribute expectations `E(X_k)` of the main-pivot distance
    /// (Lemma 4.3).
    pub main_expect: Vec<f64>,
    /// Auxiliary-pivot distance bounds, flattened via [`AuxLayout`].
    pub aux_bounds: Vec<Interval>,
    /// Per-attribute token-set-size bounds `[|T⁻|, |T⁺|]` (Lemma 4.1).
    pub size_bounds: Vec<Interval>,
    /// Whether some instance can contain a query keyword (`¬` this for
    /// both tuples ⇒ Theorem 4.1 prunes the pair).
    pub possibly_topical: bool,
    /// Per-attribute token signatures over the attribute's *possible*
    /// tokens (see [`TupleMeta::signatures_of`]).
    pub signatures: Box<[u64]>,
}

/// The signature bit of one token: the top six bits of its id times
/// `2⁶⁴ / φ` (Fibonacci hashing), so nearby ids spread over the word.
#[inline]
fn token_bit(t: Token) -> u64 {
    1 << (u64::from(t.0).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58)
}

/// The OR of the signature bits of every token in `v` (0 for `∅`).
fn value_signature(v: &TokenSet) -> u64 {
    v.tokens().iter().fold(0, |sig, &t| sig | token_bit(t))
}

impl TupleMeta {
    /// Derives the metadata for an imputed tuple.
    pub fn build(
        id: u64,
        stream_id: usize,
        timestamp: u64,
        tuple: ProbTuple,
        pivots: &PivotTable,
        layout: &AuxLayout,
        keywords: &KeywordSet,
    ) -> Self {
        let d = pivots.arity();
        let mut main_bounds = Vec::with_capacity(d);
        let mut main_expect = Vec::with_capacity(d);
        let mut aux_bounds = vec![Interval::empty(); layout.total()];
        let mut size_bounds = Vec::with_capacity(d);
        for j in 0..d {
            let mut mb = Interval::empty();
            let mut ex = 0.0;
            for (val, p) in tuple.attr_candidates(j) {
                let dist = pivots.convert_value(j, val);
                mb.expand(dist);
                ex += dist * p;
                for a in 0..layout.count(j) {
                    aux_bounds[layout.slot(j, a)].expand(pivots.aux_distance(j, a, val));
                }
            }
            main_bounds.push(mb);
            main_expect.push(ex);
            size_bounds.push(tuple.token_size_bounds(j));
        }
        let possible_tokens = tuple.possible_tokens();
        let possibly_topical = keywords.matches(&possible_tokens);
        let signatures = Self::signatures_of(&tuple);
        Self {
            id,
            stream_id,
            timestamp,
            tuple,
            main_bounds,
            main_expect,
            aux_bounds,
            size_bounds,
            possibly_topical,
            signatures,
        }
    }

    /// Per-attribute token signatures of `tuple`: bit `h(t)` is set in
    /// attribute `j`'s word for every token `t` some instance can hold in
    /// `A_j` — the base value's tokens, or the union over the imputed
    /// candidates. Disjoint words mean no instance pair shares a token in
    /// that attribute (the bound of [`crate::pruning::ub_sim_signature`]).
    pub fn signatures_of(tuple: &ProbTuple) -> Box<[u64]> {
        let mut sigs: Box<[u64]> = tuple
            .base
            .attrs
            .iter()
            .map(|v| v.as_ref().map_or(0, value_signature))
            .collect();
        for c in &tuple.imputed {
            sigs[c.attr] = c
                .candidates
                .iter()
                .fold(0, |sig, (v, _)| sig | value_signature(v));
        }
        sigs
    }

    /// Arity `d`.
    pub fn arity(&self) -> usize {
        self.main_bounds.len()
    }

    /// Total main-pivot distance bounds `[lb_X, ub_X] = Σ_k [lb_X_k, ub_X_k]`.
    pub fn total_main_bounds(&self) -> Interval {
        let lo = self.main_bounds.iter().map(|i| i.lo).sum();
        let hi = self.main_bounds.iter().map(|i| i.hi).sum();
        Interval::new(lo, hi)
    }

    /// Total expectation `E(X) = Σ_k E(X_k)`.
    pub fn total_main_expect(&self) -> f64 {
        self.main_expect.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ter_repo::{PivotConfig, Record, Repository, Schema};
    use ter_stream::AttrCandidates;
    use ter_text::Dictionary;

    fn setup() -> (Repository, PivotTable, Dictionary, Schema) {
        let schema = Schema::new(vec!["title", "tags"]);
        let mut dict = Dictionary::new();
        let rows = [
            ("space cowboy adventure", "scifi western"),
            ("high school romance", "drama comedy"),
            ("mecha battle future", "scifi action"),
            ("cooking master challenge", "comedy food"),
        ];
        let recs = rows
            .iter()
            .enumerate()
            .map(|(i, (a, b))| {
                Record::from_texts(&schema, i as u64, &[Some(a), Some(b)], &mut dict)
            })
            .collect();
        let repo = Repository::from_records(schema.clone(), recs);
        let pivots = PivotTable::select(&repo, &PivotConfig::default());
        (repo, pivots, dict, schema)
    }

    #[test]
    fn certain_tuple_has_point_bounds() {
        let (_, pivots, mut dict, schema) = setup();
        let layout = AuxLayout::new(&pivots);
        let kw = KeywordSet::parse("scifi", &dict);
        let r = Record::from_texts(
            &schema,
            10,
            &[Some("space cowboy"), Some("scifi")],
            &mut dict,
        );
        let meta = TupleMeta::build(10, 0, 0, ProbTuple::certain(r), &pivots, &layout, &kw);
        for j in 0..2 {
            assert_eq!(meta.main_bounds[j].width(), 0.0);
            assert!((meta.main_expect[j] - meta.main_bounds[j].lo).abs() < 1e-12);
        }
        assert!(meta.possibly_topical);
    }

    #[test]
    fn uncertain_tuple_bounds_cover_candidates_and_expectation_inside() {
        let (_, pivots, mut dict, schema) = setup();
        let layout = AuxLayout::new(&pivots);
        let kw = KeywordSet::universe();
        let base = Record::from_texts(&schema, 11, &[Some("space cowboy"), None], &mut dict);
        let c1 = ter_text::tokenize("scifi western", &mut dict);
        let c2 = ter_text::tokenize("comedy food", &mut dict);
        let cand = AttrCandidates::normalized(1, vec![(c1.clone(), 3.0), (c2.clone(), 1.0)]);
        let pt = ProbTuple::new(base, vec![cand]);
        let meta = TupleMeta::build(11, 0, 0, pt, &pivots, &layout, &kw);
        let d1 = pivots.convert_value(1, &c1);
        let d2 = pivots.convert_value(1, &c2);
        assert!(meta.main_bounds[1].contains(d1));
        assert!(meta.main_bounds[1].contains(d2));
        let expect = 0.75 * d1 + 0.25 * d2;
        assert!((meta.main_expect[1] - expect).abs() < 1e-12);
        assert!(meta.main_bounds[1].contains(meta.main_expect[1]));
    }

    #[test]
    fn signatures_cover_every_possible_token() {
        let (_, pivots, mut dict, schema) = setup();
        let layout = AuxLayout::new(&pivots);
        let kw = KeywordSet::universe();
        let base = Record::from_texts(&schema, 14, &[Some(""), None], &mut dict);
        let c1 = ter_text::tokenize("scifi western", &mut dict);
        let c2 = ter_text::tokenize("comedy food", &mut dict);
        let cand = AttrCandidates::normalized(1, vec![(c1.clone(), 1.0), (c2.clone(), 1.0)]);
        let pt = ProbTuple::new(base, vec![cand]);
        let meta = TupleMeta::build(14, 0, 0, pt, &pivots, &layout, &kw);
        // An empty value has no token, so no bit.
        assert_eq!(meta.signatures[0], 0);
        let bits = c1.tokens().iter().chain(c2.tokens()).map(|&t| token_bit(t));
        assert_eq!(meta.signatures[1], bits.fold(0, |s, b| s | b));
        assert_eq!(meta.signatures, TupleMeta::signatures_of(&meta.tuple));
    }

    #[test]
    fn topicality_covers_possible_instances() {
        let (_, pivots, mut dict, schema) = setup();
        let layout = AuxLayout::new(&pivots);
        let base = Record::from_texts(&schema, 12, &[Some("cooking show"), None], &mut dict);
        let scifi = ter_text::tokenize("scifi", &mut dict);
        let kw = KeywordSet::parse("scifi", &dict);
        let cand = AttrCandidates::normalized(1, vec![(scifi, 0.1)]);
        let pt = ProbTuple::new(base, vec![cand]);
        let meta = TupleMeta::build(12, 0, 0, pt, &pivots, &layout, &kw);
        // Only a low-probability instance is topical — but "possibly" must
        // still be true (Theorem 4.1 needs certainty to prune).
        assert!(meta.possibly_topical);
    }

    #[test]
    fn non_topical_tuple() {
        let (_, pivots, mut dict, schema) = setup();
        let layout = AuxLayout::new(&pivots);
        let r = Record::from_texts(
            &schema,
            13,
            &[Some("cooking show"), Some("food")],
            &mut dict,
        );
        let kw = KeywordSet::parse("scifi", &dict);
        let meta = TupleMeta::build(13, 0, 0, ProbTuple::certain(r), &pivots, &layout, &kw);
        assert!(!meta.possibly_topical);
    }

    #[test]
    fn total_bounds_sum_dimensions() {
        let (_, pivots, mut dict, schema) = setup();
        let layout = AuxLayout::new(&pivots);
        let kw = KeywordSet::universe();
        let r = Record::from_texts(
            &schema,
            4,
            &[Some("space cowboy"), Some("scifi western")],
            &mut dict,
        );
        let meta = TupleMeta::build(4, 0, 0, ProbTuple::certain(r), &pivots, &layout, &kw);
        let t = meta.total_main_bounds();
        let sum_lo: f64 = meta.main_bounds.iter().map(|i| i.lo).sum();
        assert!((t.lo - sum_lo).abs() < 1e-12);
        assert!((meta.total_main_expect() - meta.main_expect.iter().sum::<f64>()).abs() < 1e-12);
    }
}
