//! Query topic keywords.
//!
//! The TER-iDS problem statement filters pairs by `ϖ(r, K)`: whether a
//! tuple's token set contains at least one query keyword `k ∈ K`.

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
}
