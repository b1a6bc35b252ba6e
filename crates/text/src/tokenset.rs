//! Immutable sorted token sets and the Jaccard similarity/distance on them.
//!
//! Definition 5 of the paper measures attribute similarity as
//! `|T(r[A]) ∩ T(r'[A])| / |T(r[A]) ∪ T(r'[A])|`. Keeping token sets sorted
//! lets both set sizes be computed with one linear merge and zero
//! allocations. Jaccard **distance** (`1 − similarity`) is a metric on sets,
//! which is the property the pivot-based pruning (Lemma 4.2) and the
//! metric-space conversion of §5.1–5.2 rely on.

use crate::dict::Token;

/// An immutable, deduplicated, sorted set of tokens.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct TokenSet {
    tokens: Box<[Token]>,
}

impl TokenSet {
    /// Builds a token set from arbitrary tokens (sorts and deduplicates).
    pub fn new(mut tokens: Vec<Token>) -> Self {
        tokens.sort_unstable();
        tokens.dedup();
        Self {
            tokens: tokens.into_boxed_slice(),
        }
    }

    /// Builds from a slice already known to be strictly sorted.
    ///
    /// # Panics
    /// Panics (debug builds) if the invariant does not hold.
    pub fn from_sorted(tokens: Vec<Token>) -> Self {
        debug_assert!(
            tokens.windows(2).all(|w| w[0] < w[1]),
            "not strictly sorted"
        );
        Self {
            tokens: tokens.into_boxed_slice(),
        }
    }

    /// The empty token set (e.g. an empty attribute value).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Number of distinct tokens.
    #[inline]
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the set has no tokens.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// The sorted tokens.
    #[inline]
    pub fn tokens(&self) -> &[Token] {
        &self.tokens
    }

    /// Membership test (binary search).
    #[inline]
    pub fn contains(&self, tok: Token) -> bool {
        self.tokens.binary_search(&tok).is_ok()
    }

    /// Whether the two sets share at least one token.
    ///
    /// Used by topic matching `ϖ(r, K)`: early-exits on the first hit.
    pub fn intersects(&self, other: &TokenSet) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.tokens.len() && j < other.tokens.len() {
            match self.tokens[i].cmp(&other.tokens[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Size of the intersection (linear merge, no allocation).
    pub fn intersection_size(&self, other: &TokenSet) -> usize {
        let (mut i, mut j, mut n) = (0, 0, 0);
        while i < self.tokens.len() && j < other.tokens.len() {
            match self.tokens[i].cmp(&other.tokens[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    /// Size of the union (via inclusion–exclusion).
    pub fn union_size(&self, other: &TokenSet) -> usize {
        self.len() + other.len() - self.intersection_size(other)
    }

    /// Jaccard similarity `|A∩B| / |A∪B|` in `[0,1]`.
    ///
    /// Two empty sets are defined to be identical (`1.0`), matching the
    /// convention that two absent attribute values agree; this keeps
    /// `jaccard_distance` a metric on the whole domain.
    pub fn jaccard(&self, other: &TokenSet) -> f64 {
        Self::jaccard_from_counts(self.intersection_size(other), self.len(), other.len())
    }

    /// Jaccard similarity of two sets of sizes `len_a` and `len_b` that
    /// share `inter` tokens — the arithmetic of [`TokenSet::jaccard`], for
    /// callers that count the overlap themselves (an inverted index), so
    /// their distances are bit-identical to [`TokenSet::jaccard_distance`].
    #[inline]
    pub fn jaccard_from_counts(inter: usize, len_a: usize, len_b: usize) -> f64 {
        let union = len_a + len_b - inter;
        if union == 0 {
            1.0
        } else {
            inter as f64 / union as f64
        }
    }

    /// Jaccard distance `1 − jaccard`, a metric (satisfies the triangle
    /// inequality), as required by Lemma 4.2 and the pivot conversion.
    #[inline]
    pub fn jaccard_distance(&self, other: &TokenSet) -> f64 {
        1.0 - self.jaccard(other)
    }

    /// The similarity used by the ER predicate (Definition 5): Jaccard,
    /// except that two *empty* values score 0 — an attribute that is
    /// absent on both sides carries no matching evidence (two extraction
    /// failures are not an agreement). The metric convention
    /// (`jaccard(∅, ∅) = 1`) is kept for pivot distances, where it is
    /// required for the triangle inequality.
    #[inline]
    pub fn er_similarity(&self, other: &TokenSet) -> f64 {
        if self.is_empty() && other.is_empty() {
            0.0
        } else {
            self.jaccard(other)
        }
    }

    /// Materialized union of two sets (used by rule discovery, not by the
    /// per-arrival hot path).
    pub fn union(&self, other: &TokenSet) -> TokenSet {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0, 0);
        while i < self.tokens.len() && j < other.tokens.len() {
            match self.tokens[i].cmp(&other.tokens[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.tokens[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.tokens[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.tokens[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.tokens[i..]);
        out.extend_from_slice(&other.tokens[j..]);
        TokenSet::from_sorted(out)
    }
}

impl FromIterator<Token> for TokenSet {
    fn from_iter<I: IntoIterator<Item = Token>>(iter: I) -> Self {
        TokenSet::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(ids: &[u32]) -> TokenSet {
        TokenSet::new(ids.iter().map(|&i| Token(i)).collect())
    }

    #[test]
    fn new_sorts_and_dedups() {
        let s = TokenSet::new(vec![Token(3), Token(1), Token(3), Token(2)]);
        assert_eq!(s.tokens(), &[Token(1), Token(2), Token(3)]);
    }

    #[test]
    fn intersection_and_union_sizes() {
        let a = ts(&[1, 2, 3, 4]);
        let b = ts(&[3, 4, 5]);
        assert_eq!(a.intersection_size(&b), 2);
        assert_eq!(a.union_size(&b), 5);
    }

    #[test]
    fn jaccard_known_values() {
        let a = ts(&[1, 2, 3, 4]);
        let b = ts(&[3, 4, 5]);
        assert!((a.jaccard(&b) - 2.0 / 5.0).abs() < 1e-12);
        assert!((a.jaccard_distance(&b) - 3.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn jaccard_identity() {
        let a = ts(&[7, 8, 9]);
        assert_eq!(a.jaccard(&a), 1.0);
        assert_eq!(a.jaccard_distance(&a), 0.0);
    }

    #[test]
    fn jaccard_disjoint() {
        let a = ts(&[1, 2]);
        let b = ts(&[3, 4]);
        assert_eq!(a.jaccard(&b), 0.0);
        assert_eq!(a.jaccard_distance(&b), 1.0);
    }

    #[test]
    fn empty_sets_are_identical() {
        let e = TokenSet::empty();
        assert_eq!(e.jaccard(&e), 1.0);
        let a = ts(&[1]);
        assert_eq!(e.jaccard(&a), 0.0);
    }

    #[test]
    fn intersects_early_exit() {
        let a = ts(&[1, 5, 9]);
        assert!(a.intersects(&ts(&[9])));
        assert!(!a.intersects(&ts(&[2, 4, 8])));
        assert!(!a.intersects(&TokenSet::empty()));
    }

    #[test]
    fn contains_binary_search() {
        let a = ts(&[2, 4, 6, 8]);
        assert!(a.contains(Token(6)));
        assert!(!a.contains(Token(5)));
    }

    #[test]
    fn union_materializes() {
        let a = ts(&[1, 3]);
        let b = ts(&[2, 3, 4]);
        assert_eq!(a.union(&b), ts(&[1, 2, 3, 4]));
    }

    #[test]
    fn from_iter_collects() {
        let s: TokenSet = [Token(5), Token(1), Token(5)].into_iter().collect();
        assert_eq!(s.len(), 2);
    }
}
