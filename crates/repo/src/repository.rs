//! The static complete data repository `R` with per-attribute domains.
//!
//! §3 of the paper imputes a missing `r[A_j]` by (1) finding repository
//! samples `s` satisfying the CDD constraints on the determinant attributes
//! and (2) collecting candidate values `val ∈ dom(A_j)` with
//! `dist(s[A_j], val) ∈ A_j.I`. The repository therefore maintains, for
//! every attribute, the deduplicated value domain `dom(A_j)` plus each
//! sample's value as a *domain id*, so step (2) never re-hashes token sets.

use ter_text::fxhash::FxHashMap;
use ter_text::{Interval, TokenSet};

use crate::record::{Record, RecordId, Schema};

/// Per-attribute value domain `dom(A_j)`: deduplicated values with dense ids.
#[derive(Debug, Clone, Default)]
pub struct Domain {
    values: Vec<TokenSet>,
    ids: FxHashMap<TokenSet, u32>,
}

impl Domain {
    /// Interns `value`, returning its domain id.
    pub fn intern(&mut self, value: &TokenSet) -> u32 {
        if let Some(&id) = self.ids.get(value) {
            return id;
        }
        let id = self.values.len() as u32;
        self.values.push(value.clone());
        self.ids.insert(value.clone(), id);
        id
    }

    /// Id of `value` if it occurs in the domain.
    pub fn lookup(&self, value: &TokenSet) -> Option<u32> {
        self.ids.get(value).copied()
    }

    /// The value with domain id `id`.
    pub fn value(&self, id: u32) -> &TokenSet {
        &self.values[id as usize]
    }

    /// All distinct values.
    pub fn values(&self) -> &[TokenSet] {
        &self.values
    }

    /// Ids of the values whose Jaccard distance to `q` lies in `range`,
    /// ascending — an exact scan of the whole domain.
    pub fn scan_within(&self, q: &TokenSet, range: Interval) -> Vec<u32> {
        (0..self.values.len() as u32)
            .filter(|&id| range.contains(q.jaccard_distance(self.value(id))))
            .collect()
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// The complete data repository `R` (Definition in §2.2, "Imputing Missing
/// Attributes"). Samples must be complete; incomplete insertions are
/// rejected, mirroring the paper's assumption.
#[derive(Debug, Clone)]
pub struct Repository {
    schema: Schema,
    samples: Vec<Record>,
    /// `value_ids[i][j]` = domain id of sample `i`'s attribute `j`.
    value_ids: Vec<Vec<u32>>,
    domains: Vec<Domain>,
}

impl Repository {
    /// Creates an empty repository over `schema`.
    pub fn new(schema: Schema) -> Self {
        let d = schema.arity();
        Self {
            schema,
            samples: Vec::new(),
            value_ids: Vec::new(),
            domains: vec![Domain::default(); d],
        }
    }

    /// Builds a repository from complete records.
    ///
    /// # Panics
    /// Panics if any record is incomplete or has the wrong arity.
    pub fn from_records(schema: Schema, records: Vec<Record>) -> Self {
        let mut repo = Self::new(schema);
        for r in records {
            repo.insert(r);
        }
        repo
    }

    /// Inserts one complete sample (also the §5.5 dynamic-update path).
    pub fn insert(&mut self, record: Record) {
        assert_eq!(record.attrs.len(), self.schema.arity(), "arity mismatch");
        assert!(
            record.is_complete(),
            "repository samples must be complete (record {})",
            record.id
        );
        let ids = record
            .attrs
            .iter()
            .enumerate()
            .map(|(j, v)| self.domains[j].intern(v.as_ref().unwrap()))
            .collect();
        self.value_ids.push(ids);
        self.samples.push(record);
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of samples `|R|`.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the repository holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// All samples.
    pub fn samples(&self) -> &[Record] {
        &self.samples
    }

    /// Sample at position `i` (positions are stable; there is no deletion).
    pub fn sample(&self, i: usize) -> &Record {
        &self.samples[i]
    }

    /// Position of the sample with record id `id`, if present.
    pub fn position_of(&self, id: RecordId) -> Option<usize> {
        self.samples.iter().position(|s| s.id == id)
    }

    /// The domain `dom(A_j)`.
    pub fn domain(&self, j: usize) -> &Domain {
        &self.domains[j]
    }

    /// Domain id of sample `i`'s attribute `j`.
    pub fn value_id(&self, i: usize, j: usize) -> u32 {
        self.value_ids[i][j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ter_text::Dictionary;

    fn small_repo() -> (Repository, Dictionary) {
        let schema = Schema::new(vec!["gender", "symptom", "diagnosis"]);
        let mut dict = Dictionary::new();
        let recs = vec![
            Record::from_texts(
                &schema,
                1,
                &[
                    Some("male"),
                    Some("weight loss blurred vision"),
                    Some("diabetes"),
                ],
                &mut dict,
            ),
            Record::from_texts(
                &schema,
                2,
                &[Some("female"), Some("fever cough"), Some("pneumonia")],
                &mut dict,
            ),
            Record::from_texts(
                &schema,
                3,
                &[Some("male"), Some("fever cough"), Some("flu")],
                &mut dict,
            ),
        ];
        (Repository::from_records(schema, recs), dict)
    }

    #[test]
    fn domains_deduplicate() {
        let (repo, _) = small_repo();
        assert_eq!(repo.domain(0).len(), 2); // male, female
        assert_eq!(repo.domain(1).len(), 2); // two symptom strings
        assert_eq!(repo.domain(2).len(), 3);
    }

    #[test]
    fn value_ids_resolve_to_values() {
        let (repo, _) = small_repo();
        for i in 0..repo.len() {
            for j in 0..repo.schema().arity() {
                let id = repo.value_id(i, j);
                assert_eq!(repo.domain(j).value(id), repo.sample(i).attr(j).unwrap());
            }
        }
    }

    #[test]
    #[should_panic(expected = "complete")]
    fn incomplete_sample_rejected() {
        let schema = Schema::new(vec!["a", "b"]);
        let mut repo = Repository::new(schema.clone());
        repo.insert(Record::new(&schema, 1, vec![None, Some(TokenSet::empty())]));
    }

    #[test]
    fn dynamic_insert_extends_domains() {
        let (mut repo, mut dict) = small_repo();
        let schema = repo.schema().clone();
        let n = repo.len();
        repo.insert(Record::from_texts(
            &schema,
            4,
            &[
                Some("female"),
                Some("red eye itchy"),
                Some("conjunctivitis"),
            ],
            &mut dict,
        ));
        assert_eq!(repo.len(), n + 1);
        assert_eq!(repo.domain(2).len(), 4);
        assert_eq!(repo.position_of(4), Some(n));
    }

    #[test]
    fn domain_lookup_roundtrip() {
        let (repo, mut dict) = small_repo();
        let v = ter_text::tokenize("fever cough", &mut dict);
        let id = repo.domain(1).lookup(&v).expect("value in domain");
        assert_eq!(repo.domain(1).value(id), &v);
        let absent = ter_text::tokenize("absent thing", &mut dict);
        assert_eq!(repo.domain(1).lookup(&absent), None);
    }
}
