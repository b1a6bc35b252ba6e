//! Query topic keywords and Boolean topic vectors.
//!
//! The TER-iDS problem statement filters pairs by `ϖ(r, K)`: whether a
//! tuple's token set contains at least one query keyword `k ∈ K`. The
//! indexes of §5 store per-node/per-cell *Boolean vectors* whose bits mark
//! the (non-)existence of each keyword under that node — enabling topic
//! keyword pruning (Theorem 4.1) without visiting the tuples.

use crate::dict::Dictionary;
use crate::tokenize::tokenize_readonly;
use crate::tokenset::TokenSet;

/// A set of query topic keywords `K`.
///
/// `K = ∅` is allowed and means "no tuple is topic-related" (so ER returns
/// nothing); to run un-filtered ER use [`KeywordSet::universe`], which makes
/// `ϖ` always true — the paper's "set K to the domain of all keywords".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeywordSet {
    /// When `true`, every tuple is considered topic-related.
    universe: bool,
    keywords: TokenSet,
}

impl KeywordSet {
    /// Builds a keyword set from tokens.
    pub fn new(keywords: TokenSet) -> Self {
        Self {
            universe: false,
            keywords,
        }
    }

    /// Parses whitespace/punctuation-separated keywords against an existing
    /// dictionary (unknown words can never match, so they are dropped).
    pub fn parse(text: &str, dict: &Dictionary) -> Self {
        Self::new(tokenize_readonly(text, dict))
    }

    /// The universe keyword set: matches every tuple (topic-unconstrained ER).
    pub fn universe() -> Self {
        Self {
            universe: true,
            keywords: TokenSet::empty(),
        }
    }

    /// Whether this is the universe set.
    pub fn is_universe(&self) -> bool {
        self.universe
    }

    /// The keyword tokens (empty for the universe set).
    pub fn tokens(&self) -> &TokenSet {
        &self.keywords
    }

    /// Number of keywords (`0` for the universe set).
    pub fn len(&self) -> usize {
        self.keywords.len()
    }

    /// Whether the set holds no keywords and is not the universe.
    pub fn is_empty(&self) -> bool {
        !self.universe && self.keywords.is_empty()
    }

    /// The Boolean topic function `ϖ(ts, K)`: does `ts` contain any keyword?
    #[inline]
    pub fn matches(&self, ts: &TokenSet) -> bool {
        self.universe || self.keywords.intersects(ts)
    }

    /// Builds the per-tuple topic vector: bit `i` set iff keyword `i`
    /// (in token order) occurs in `ts`.
    pub fn topic_vector(&self, ts: &TokenSet) -> TopicVector {
        if self.universe {
            return TopicVector::all_set(1);
        }
        let mut v = TopicVector::zeros(self.keywords.len());
        for (i, &k) in self.keywords.tokens().iter().enumerate() {
            if ts.contains(k) {
                v.set(i);
            }
        }
        v
    }
}

/// A compact bit vector marking keyword (non-)existence.
///
/// This is the aggregate `V` §5.1–5.2 store in index nodes and with
/// imputed tuples: an OR over the vectors of everything beneath.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TopicVector {
    bits: Vec<u64>,
    len: usize,
}

impl TopicVector {
    /// An all-zero vector for `len` keywords.
    pub fn zeros(len: usize) -> Self {
        Self {
            bits: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// An all-one vector for `len` keywords.
    pub fn all_set(len: usize) -> Self {
        let mut v = Self::zeros(len);
        for i in 0..len {
            v.set(i);
        }
        v
    }

    /// Number of keyword slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector tracks zero keywords.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.bits[i / 64] |= 1 << (i % 64);
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// Whether any bit is set — i.e. whether anything under this aggregate
    /// can satisfy the topic constraint.
    #[inline]
    pub fn any(&self) -> bool {
        self.bits.iter().any(|&w| w != 0)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The packed 64-bit words backing the vector (persistence hook:
    /// round-trips through [`TopicVector::from_words`] bit-exactly).
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Rebuilds a vector from its packed words (inverse of
    /// [`TopicVector::words`]).
    ///
    /// # Panics
    /// Panics if `words` is not exactly `len.div_ceil(64)` words long or
    /// sets bits at positions `>= len` — decoders validate before calling.
    pub fn from_words(len: usize, words: Vec<u64>) -> Self {
        assert_eq!(words.len(), len.div_ceil(64), "word count mismatch");
        if len % 64 != 0 {
            if let Some(last) = words.last() {
                assert_eq!(last >> (len % 64), 0, "stray bits beyond len");
            }
        }
        Self { bits: words, len }
    }

    /// ORs `other` into `self` (aggregate merge when a child is added).
    pub fn or_assign(&mut self, other: &TopicVector) {
        assert_eq!(self.len, other.len, "topic vector length mismatch");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::tokenize;

    fn setup() -> (Dictionary, TokenSet, TokenSet) {
        let mut d = Dictionary::new();
        let a = tokenize("male loss of weight diabetes", &mut d);
        let b = tokenize("female fever cough pneumonia", &mut d);
        (d, a, b)
    }

    #[test]
    fn matches_on_shared_keyword() {
        let (d, a, b) = setup();
        let k = KeywordSet::parse("diabetes", &d);
        assert!(k.matches(&a));
        assert!(!k.matches(&b));
    }

    #[test]
    fn empty_keyword_set_matches_nothing() {
        let (d, a, _) = setup();
        let k = KeywordSet::parse("", &d);
        assert!(k.is_empty());
        assert!(!k.matches(&a));
    }

    #[test]
    fn universe_matches_everything() {
        let (_, a, b) = setup();
        let k = KeywordSet::universe();
        assert!(k.matches(&a) && k.matches(&b));
        assert!(k.matches(&TokenSet::empty()));
    }

    #[test]
    fn unknown_keywords_are_dropped() {
        let (d, a, _) = setup();
        let k = KeywordSet::parse("zebra diabetes", &d);
        assert_eq!(k.len(), 1);
        assert!(k.matches(&a));
    }

    #[test]
    fn topic_vector_marks_present_keywords() {
        let (d, a, _) = setup();
        let k = KeywordSet::parse("diabetes fever", &d);
        let v = k.topic_vector(&a);
        assert_eq!(v.count_ones(), 1);
        assert!(v.any());
    }

    #[test]
    fn topic_vector_or_merge() {
        let (d, a, b) = setup();
        let k = KeywordSet::parse("diabetes fever", &d);
        let mut va = k.topic_vector(&a);
        let vb = k.topic_vector(&b);
        va.or_assign(&vb);
        assert_eq!(va.count_ones(), 2);
    }

    #[test]
    fn topic_vector_bits_over_64() {
        let mut v = TopicVector::zeros(130);
        v.set(0);
        v.set(64);
        v.set(129);
        assert!(v.get(0) && v.get(64) && v.get(129));
        assert!(!v.get(1) && !v.get(65) && !v.get(128));
        assert_eq!(v.count_ones(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn topic_vector_out_of_range_panics() {
        let mut v = TopicVector::zeros(4);
        v.set(4);
    }

    #[test]
    fn all_set_vector() {
        let v = TopicVector::all_set(70);
        assert_eq!(v.count_ones(), 70);
        assert!(v.get(69));
    }
}
