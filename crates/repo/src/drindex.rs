//! The DR-index `I_R` (§5.1), kept as exact inverted postings.
//!
//! The paper builds `I_R` as an aR-tree over pivot-converted samples: each
//! sample becomes the point of its Jaccard distances to one main pivot per
//! attribute, and imputation range-queries that space with bounds derived
//! from the CDD constraints. That only prunes when the distances spread
//! out. On this repository's generated data they do not: most attribute
//! values share no token with any pivot, so they sit at distance exactly 1
//! from all of them. On two `impute_heavy` datasets (seed 7), 88% of the
//! values of attributes 1–3 (16,620 of 18,819) were at distance 1 from the
//! main pivot and from both auxiliary pivots, and the pivot range query
//! returned 129 samples for every one that matched. More pivots cannot
//! separate values that share no token with any of them.
//!
//! An exact inverted index can. Per attribute `A_j`, the index keeps
//!
//! * **value postings** — domain id → positions of the samples holding
//!   that value ([`DrIndex::samples_with_value`]);
//! * **token postings** — token → ids of the domain values containing it.
//!
//! [`DrIndex::values_within`] answers "which values of `dom(A_j)` lie at a
//! Jaccard distance in `[lo, hi]` of `q`" by counting each value's token
//! overlap `o` with `q` through the token postings: its distance is
//! `1 − o/(|q|+|v|−o)`, the same integers and formula as
//! [`TokenSet::jaccard_distance`]. A value that shares no token with a
//! non-empty `q` is at distance 1, so for `hi < 1` only values reached
//! through the postings can qualify. The work scales with the values that
//! share a token with `q`, not with the domain. Value postings then turn
//! the qualifying values into samples.
//!
//! Both postings are sized to what the repository holds: the token
//! postings are a hash map over the tokens present, not a table over the
//! whole dictionary.

use ter_text::fxhash::FxHashMap;
use ter_text::{Interval, KeywordSet, Token, TokenSet};

use crate::pivot::PivotTable;
use crate::repository::Repository;

/// Postings of one attribute (see the [module docs](self)).
#[derive(Debug, Clone, Default)]
struct AttrPostings {
    /// `values[v]` = positions of the samples whose value has domain id
    /// `v`, ascending.
    values: Vec<Vec<u32>>,
    /// Token → ids of the domain values containing it, ascending.
    tokens: FxHashMap<Token, Vec<u32>>,
}

/// The DR-index over a repository (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct DrIndex {
    attrs: Vec<AttrPostings>,
    /// Number of samples indexed.
    len: usize,
}

impl DrIndex {
    /// Builds the postings over every sample of `repo`.
    ///
    /// `_pivots`, `_keywords` and `_max_fanout` are unused: they configured
    /// the pivot aR-tree this index replaces, and the signature is kept for
    /// callers that build it alongside the pivot-based CDD-indexes.
    pub fn build(
        repo: &Repository,
        _pivots: &PivotTable,
        _keywords: &KeywordSet,
        _max_fanout: usize,
    ) -> Self {
        let mut index = Self {
            attrs: vec![AttrPostings::default(); repo.schema().arity()],
            len: 0,
        };
        for pos in 0..repo.len() {
            index.add(repo, pos);
        }
        index
    }

    /// Appends one more sample to the postings (dynamic repository,
    /// §5.5). `pos` must be the sample's position in the repository, and
    /// every sample inserted into the repository must be added here too
    /// for retrieval to see it. `_pivots` and `_keywords` are unused (see
    /// [`DrIndex::build`]).
    pub fn insert_sample(
        &mut self,
        repo: &Repository,
        _pivots: &PivotTable,
        _keywords: &KeywordSet,
        pos: usize,
    ) {
        self.add(repo, pos);
    }

    fn add(&mut self, repo: &Repository, pos: usize) {
        for (j, postings) in self.attrs.iter_mut().enumerate() {
            let domain = repo.domain(j);
            let vid = repo.value_id(pos, j) as usize;
            // Domain ids are dense and assigned on first occurrence, so a
            // new value extends the value postings by exactly its id.
            while postings.values.len() <= vid {
                let id = postings.values.len() as u32;
                postings.values.push(Vec::new());
                for &t in domain.value(id).tokens() {
                    postings.tokens.entry(t).or_default().push(id);
                }
            }
            postings.values[vid].push(pos as u32);
        }
        self.len += 1;
    }

    /// Number of samples indexed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no sample is indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Positions of the samples whose attribute `j` has domain id `vid`,
    /// ascending.
    pub fn samples_with_value(&self, j: usize, vid: u32) -> &[u32] {
        self.attrs[j]
            .values
            .get(vid as usize)
            .map_or(&[], Vec::as_slice)
    }

    /// Ids of the values of `dom(A_j)` whose Jaccard distance to `q` lies
    /// in `range`, ascending. Exact: the same set as
    /// [`Domain::scan_within`](crate::repository::Domain::scan_within).
    ///
    /// For `range.hi < 1` and a non-empty `q` only values sharing a token
    /// with `q` can qualify, and they are found through the token
    /// postings. Otherwise (every value at distance 1 may qualify, or `q`
    /// is empty and shares no token with anything) the domain is scanned.
    pub fn values_within(
        &self,
        repo: &Repository,
        j: usize,
        q: &TokenSet,
        range: Interval,
    ) -> Vec<u32> {
        let domain = repo.domain(j);
        if range.hi >= 1.0 || q.is_empty() {
            return domain.scan_within(q, range);
        }
        let tokens = &self.attrs[j].tokens;
        let mut hits: Vec<u32> = q
            .tokens()
            .iter()
            .filter_map(|t| tokens.get(t))
            .flatten()
            .copied()
            .collect();
        hits.sort_unstable();
        hits.chunk_by(|a, b| a == b)
            .filter(|run| {
                let v = domain.value(run[0]);
                let d = 1.0 - TokenSet::jaccard_from_counts(run.len(), q.len(), v.len());
                range.contains(d)
            })
            .map(|run| run[0])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pivot::PivotConfig;
    use crate::record::{Record, Schema};
    use ter_text::Dictionary;

    fn setup() -> (Repository, PivotTable, Dictionary) {
        let schema = Schema::new(vec!["title", "venue"]);
        let mut dict = Dictionary::new();
        let texts = [
            ("entity resolution over streams", "sigmod"),
            ("approximate joins on data streams", "sigmod"),
            ("skyline queries incomplete streams", "vldb"),
            ("topic aware entity matching", "vldb"),
            ("record linkage web databases", "icde"),
            ("probabilistic entity linking networks", "sigmod"),
            ("temporal record linking profiles", "icde"),
            ("meta blocking entity resolution", "tkde"),
            ("", "tkde"),
        ];
        let recs = texts
            .iter()
            .enumerate()
            .map(|(i, (a, b))| {
                Record::from_texts(&schema, i as u64, &[Some(a), Some(b)], &mut dict)
            })
            .collect();
        let repo = Repository::from_records(schema, recs);
        let pivots = PivotTable::select(&repo, &PivotConfig::default());
        (repo, pivots, dict)
    }

    #[test]
    fn build_indexes_all_samples() {
        let (repo, pivots, _) = setup();
        let idx = DrIndex::build(&repo, &pivots, &KeywordSet::universe(), 4);
        assert_eq!(idx.len(), repo.len());
        for j in 0..2 {
            let mut all: Vec<u32> = (0..repo.domain(j).len() as u32)
                .flat_map(|v| idx.samples_with_value(j, v).to_vec())
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..repo.len() as u32).collect::<Vec<_>>());
        }
        // "sigmod" is held by samples 0, 1 and 5.
        let sigmod = repo.domain(1).value(repo.value_id(0, 1)).clone();
        let vid = repo.domain(1).lookup(&sigmod).unwrap();
        assert_eq!(idx.samples_with_value(1, vid), &[0, 1, 5]);
    }

    #[test]
    fn candidate_query_matches_linear_scan() {
        let (repo, pivots, mut dict) = setup();
        let idx = DrIndex::build(&repo, &pivots, &KeywordSet::universe(), 4);
        let queries = [
            "entity resolution",
            "record linking",
            "streams",
            "unseen words only",
            "",
        ];
        let ranges = [
            Interval::new(0.0, 0.0),
            Interval::new(0.0, 0.5),
            Interval::new(0.25, 0.8),
            Interval::new(0.5, 1.0),
            Interval::new(1.0, 1.0),
            Interval::unit(),
        ];
        for text in queries {
            let q = ter_text::tokenize(text, &mut dict);
            for range in ranges {
                assert_eq!(
                    idx.values_within(&repo, 0, &q, range),
                    repo.domain(0).scan_within(&q, range),
                    "q = {text:?}, range = {range:?}"
                );
            }
        }
    }

    #[test]
    fn out_of_range_bounds_are_clamped() {
        let (repo, pivots, mut dict) = setup();
        let idx = DrIndex::build(&repo, &pivots, &KeywordSet::universe(), 4);
        // Every distance lies in [0,1]; wider bounds take the whole domain.
        let q = ter_text::tokenize("entity resolution", &mut dict);
        let got = idx.values_within(&repo, 0, &q, Interval::new(-0.5, 1.5));
        assert_eq!(got.len(), repo.domain(0).len());
        let near = idx.values_within(&repo, 0, &q, Interval::new(-0.5, 0.5));
        assert_eq!(
            near,
            idx.values_within(&repo, 0, &q, Interval::new(0.0, 0.5))
        );
    }

    #[test]
    fn dynamic_insert_is_queryable() {
        let (mut repo, pivots, mut dict) = setup();
        let kw = KeywordSet::universe();
        let mut idx = DrIndex::build(&repo, &pivots, &kw, 4);
        let schema = repo.schema().clone();
        repo.insert(Record::from_texts(
            &schema,
            99,
            &[Some("crowdsourced entity matching oracle"), Some("vldb")],
            &mut dict,
        ));
        let pos = repo.len() - 1;
        idx.insert_sample(&repo, &pivots, &kw, pos);
        assert_eq!(idx.len(), repo.len());
        // The new value and its new tokens are reachable.
        let q = ter_text::tokenize("crowdsourced oracle", &mut dict);
        let got = idx.values_within(&repo, 0, &q, Interval::new(0.0, 0.6));
        assert_eq!(got, vec![repo.value_id(pos, 0)]);
        assert_eq!(idx.samples_with_value(0, got[0]), &[pos as u32]);
        // An existing value gains the new sample in its postings.
        let vldb = repo.value_id(pos, 1);
        assert_eq!(idx.samples_with_value(1, vldb), &[2, 3, pos as u32]);
    }
}
