//! The two-source entity-matching dataset generator.
//!
//! Entities are drawn from topic clusters; each source materializes a
//! perturbed copy of its entities, so cross-source copies of the same
//! entity are highly (but not perfectly) similar while unrelated entities
//! overlap only through topic vocabulary. A complete repository `R` is
//! generated from the same distributions for the imputation side, and
//! missing values are injected MAR-style with rate `ξ` over `m` attributes
//! (the knobs of Figures 9/13 and 15/17).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use ter_repo::{Record, Repository, Schema};
use ter_stream::StreamSet;
use ter_text::fxhash::FxHashSet;
use ter_text::{Dictionary, KeywordSet, TokenSet};

/// How one attribute's token set is produced.
#[derive(Debug, Clone, Copy)]
pub enum AttrKind {
    /// A single topic-label token — near-constant within a topic; the
    /// source of constant (editing-rule-style) CDD constraints.
    Category,
    /// `base` tokens shared by every entity of the topic plus `noise`
    /// entity-specific tokens — the source of interval CDD constraints.
    TopicPhrase {
        /// Topic-shared token count.
        base: usize,
        /// Entity-specific token count.
        noise: usize,
    },
    /// `tokens` entity-unique tokens plus one topic token — the
    /// identifying attribute (title/model/name).
    EntityName {
        /// Entity-specific token count.
        tokens: usize,
    },
    /// A long mixture of topic and entity tokens (EBooks' description).
    Description {
        /// Total token count.
        tokens: usize,
    },
}

/// One attribute of the generated schema.
#[derive(Debug, Clone)]
pub struct AttrSpec {
    /// Attribute name.
    pub name: &'static str,
    /// Generation model.
    pub kind: AttrKind,
}

/// Static shape of a dataset (its "schema" in the Table 4 sense).
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Dataset name (paper's label).
    pub name: &'static str,
    /// Attribute models.
    pub attrs: Vec<AttrSpec>,
    /// Number of topic clusters.
    pub topics: usize,
    /// Topic vocabulary size per topic.
    pub vocab_per_topic: usize,
    /// Tuples emitted by source A.
    pub size_a: usize,
    /// Tuples emitted by source B.
    pub size_b: usize,
    /// Fraction of source-B tuples that duplicate a source-A entity.
    pub match_fraction: f64,
    /// Per-token replacement probability when materializing a copy.
    pub perturbation: f64,
}

/// Runtime generation options (the experiment knobs of Table 5).
#[derive(Debug, Clone, Copy)]
pub struct GenOptions {
    /// Missing rate `ξ`: fraction of stream tuples made incomplete.
    pub missing_rate: f64,
    /// Number of missing attributes `m` per incomplete tuple.
    pub missing_attrs: usize,
    /// Repository size ratio `η` w.r.t. the total stream size.
    pub repo_ratio: f64,
    /// Stream size multiplier (scale experiments down/up).
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GenOptions {
    fn default() -> Self {
        Self {
            missing_rate: 0.3,
            missing_attrs: 1,
            repo_ratio: 0.3,
            scale: 1.0,
            seed: 7,
        }
    }
}

/// A fully generated dataset.
pub struct Dataset {
    /// Paper-style dataset label.
    pub name: &'static str,
    /// The shared schema.
    pub schema: Schema,
    /// Shared token dictionary.
    pub dict: Dictionary,
    /// The complete repository `R`.
    pub repo: Repository,
    /// The two incomplete streams (missing values injected).
    pub streams: StreamSet,
    /// The same streams before missing-value injection (for Equation-2
    /// ground truth and debugging).
    pub clean_streams: StreamSet,
    /// Same-entity cross-source pairs (construction ground truth).
    pub entity_pairs: FxHashSet<(u64, u64)>,
    /// A suggested topic keyword query: the topic-0 category label plus
    /// two topic-0 vocabulary words.
    pub suggested_keywords: String,
}

impl Dataset {
    /// The keyword set for the suggested query.
    pub fn keywords(&self) -> KeywordSet {
        KeywordSet::parse(&self.suggested_keywords, &self.dict)
    }

    /// Equation-2 ground truth on the *clean* data: cross-source pairs
    /// with `sim > ρ·d` where at least one side matches `keywords`
    /// (the construction the paper uses for Anime/Bikes/EBooks).
    pub fn groundtruth_by_threshold(
        &self,
        rho: f64,
        keywords: &KeywordSet,
    ) -> FxHashSet<(u64, u64)> {
        let d = self.schema.arity() as f64;
        let gamma = rho * d;
        let a = self.clean_streams.stream(0);
        let b = self.clean_streams.stream(1);
        let mut out = FxHashSet::default();
        for ra in a {
            let ta = ra.all_tokens();
            let a_topical = keywords.matches(&ta);
            for rb in b {
                if !a_topical && !keywords.matches(&rb.all_tokens()) {
                    continue;
                }
                if ra.similarity(rb) > gamma {
                    out.insert((ra.id.min(rb.id), ra.id.max(rb.id)));
                }
            }
        }
        out
    }

    /// The paper's ground-truth convention (§6.1): Citations and Songs
    /// ship "actual groundtruth" (here: same-entity pairs), while for
    /// Anime, Bikes, and EBooks "the groundtruth of matching pairs is
    /// based on Equation (2)" (here: the similarity-threshold pairs).
    pub fn paper_groundtruth(&self, rho: f64, keywords: &KeywordSet) -> FxHashSet<(u64, u64)> {
        match self.name {
            "Citations" | "Songs" => self.topical_entity_pairs(keywords),
            _ => self.groundtruth_by_threshold(rho, keywords),
        }
    }

    /// Entity-based ground truth filtered to topic-related pairs.
    pub fn topical_entity_pairs(&self, keywords: &KeywordSet) -> FxHashSet<(u64, u64)> {
        let lookup = |id: u64| -> Option<&Record> {
            self.clean_streams
                .stream(0)
                .iter()
                .chain(self.clean_streams.stream(1))
                .find(|r| r.id == id)
        };
        self.entity_pairs
            .iter()
            .filter(|(a, b)| {
                let ta = lookup(*a).map(|r| keywords.matches(&r.all_tokens()));
                let tb = lookup(*b).map(|r| keywords.matches(&r.all_tokens()));
                ta == Some(true) || tb == Some(true)
            })
            .copied()
            .collect()
    }
}

/// One abstract entity: its topic and per-attribute "true" token sets.
struct Entity {
    topic: usize,
    attrs: Vec<Vec<u32>>, // token indices into the dictionary
}

/// Generates a dataset from a spec and options.
pub fn generate(spec: &DatasetSpec, opts: &GenOptions) -> Dataset {
    assert!(spec.attrs.len() >= 2, "need at least two attributes");
    assert!(
        opts.missing_attrs < spec.attrs.len(),
        "m must leave at least one attribute present"
    );
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut dict = Dictionary::new();
    let schema = Schema::new(
        spec.attrs
            .iter()
            .map(|a| a.name.to_owned())
            .collect::<Vec<_>>(),
    );

    // ---- vocabularies ----
    // Topic vocabularies + per-topic category label.
    let topic_vocab: Vec<Vec<u32>> = (0..spec.topics)
        .map(|t| {
            (0..spec.vocab_per_topic)
                .map(|i| dict.intern(&format!("t{t}w{i}")).0)
                .collect()
        })
        .collect();
    let category_label: Vec<u32> = (0..spec.topics)
        .map(|t| dict.intern(&format!("cat{t}")).0)
        .collect();

    let size_a = ((spec.size_a as f64) * opts.scale).round().max(4.0) as usize;
    let size_b = ((spec.size_b as f64) * opts.scale).round().max(4.0) as usize;
    let matched = ((size_b as f64) * spec.match_fraction).round() as usize;
    let n_entities = size_a + (size_b - matched.min(size_b));
    let repo_size = (((size_a + size_b) as f64) * opts.repo_ratio)
        .round()
        .max(8.0) as usize;

    // ---- entities ----
    let mut next_entity_word = 0u64;
    let mut make_entity = |rng: &mut StdRng, dict: &mut Dictionary| -> Entity {
        let topic = rng.gen_range(0..spec.topics);
        let tv = &topic_vocab[topic];
        let attrs = spec
            .attrs
            .iter()
            .map(|a| match a.kind {
                AttrKind::Category => vec![category_label[topic]],
                AttrKind::TopicPhrase { base, noise } => {
                    let mut toks: Vec<u32> = tv[..base.min(tv.len())].to_vec();
                    for _ in 0..noise {
                        toks.push(tv[rng.gen_range(0..tv.len())]);
                    }
                    toks
                }
                AttrKind::EntityName { tokens } => {
                    // Real titles/names vary in length; the variance is
                    // what gives the token-size similarity bound
                    // (Lemma 4.1) its pruning power.
                    let n = rng.gen_range(tokens.saturating_sub(2).max(1)..=tokens + 2);
                    let mut toks = Vec::with_capacity(n + 1);
                    for _ in 0..n {
                        let w = dict.intern(&format!("e{next_entity_word}")).0;
                        next_entity_word += 1;
                        toks.push(w);
                    }
                    toks.push(tv[rng.gen_range(0..tv.len())]);
                    toks
                }
                AttrKind::Description { tokens } => {
                    let n = rng
                        .gen_range(tokens.saturating_sub(tokens / 3).max(2)..=tokens + tokens / 3);
                    let mut toks = Vec::with_capacity(n);
                    for i in 0..n {
                        if i % 3 == 0 {
                            let w = dict.intern(&format!("e{next_entity_word}")).0;
                            next_entity_word += 1;
                            toks.push(w);
                        } else {
                            toks.push(tv[rng.gen_range(0..tv.len())]);
                        }
                    }
                    toks
                }
            })
            .collect();
        Entity { topic, attrs }
    };

    let entities: Vec<Entity> = (0..n_entities)
        .map(|_| make_entity(&mut rng, &mut dict))
        .collect();

    // ---- materialize a perturbed copy of an entity ----
    let materialize = |entity: &Entity, id: u64, rng: &mut StdRng| -> Record {
        let attrs = entity
            .attrs
            .iter()
            .enumerate()
            .map(|(j, toks)| {
                let tv = &topic_vocab[entity.topic];
                let perturbed: Vec<ter_text::Token> = toks
                    .iter()
                    .map(|&w| {
                        // The category attribute is never perturbed (it is
                        // the rule-bearing constant).
                        let is_cat = matches!(spec.attrs[j].kind, AttrKind::Category);
                        if !is_cat && rng.gen_bool(spec.perturbation) {
                            ter_text::Token(tv[rng.gen_range(0..tv.len())])
                        } else {
                            ter_text::Token(w)
                        }
                    })
                    .collect();
                Some(TokenSet::new(perturbed))
            })
            .collect();
        Record { id, attrs }
    };

    // ---- streams ----
    // Source A materializes entities 0..size_a; source B re-materializes
    // the first `matched` of them (the shared entities) plus fresh ones.
    // Shared entities appear at similar positions so they co-exist in
    // windows (jitter below typical window sizes).
    let mut stream_a = Vec::with_capacity(size_a);
    for (i, e) in entities.iter().take(size_a).enumerate() {
        stream_a.push(materialize(e, 1 + i as u64, &mut rng));
    }
    let b_base = 1_000_000u64;
    let mut stream_b = Vec::with_capacity(size_b);
    // Positions in B: matched entities keep (jittered) A positions scaled
    // to B's length; fill the rest with fresh entities.
    let mut b_slots: Vec<Option<usize>> = vec![None; size_b]; // entity index
    let step = size_a as f64 / matched.max(1) as f64;
    for k in 0..matched {
        let a_idx = ((k as f64) * step) as usize % size_a;
        let jitter = rng.gen_range(0..8);
        let pos = ((a_idx * size_b) / size_a + jitter).min(size_b - 1);
        // Find the nearest free slot.
        let mut p = pos;
        loop {
            if b_slots[p].is_none() {
                b_slots[p] = Some(a_idx);
                break;
            }
            p = (p + 1) % size_b;
        }
    }
    let mut fresh = size_a; // next unused entity index
    for slot in b_slots.iter_mut() {
        if slot.is_none() {
            *slot = Some(fresh.min(n_entities - 1));
            fresh += 1;
        }
    }
    let mut entity_pairs = FxHashSet::default();
    for (pos, slot) in b_slots.iter().enumerate() {
        let e_idx = slot.unwrap();
        let id = b_base + pos as u64;
        stream_b.push(materialize(&entities[e_idx], id, &mut rng));
        if e_idx < size_a {
            let a_id = 1 + e_idx as u64;
            entity_pairs.insert((a_id.min(id), a_id.max(id)));
        }
    }

    let clean_streams = StreamSet::new(vec![stream_a.clone(), stream_b.clone()]);

    // ---- missing-value injection (MAR): rate ξ, m attributes ----
    let d = spec.attrs.len();
    let inject = |stream: &mut Vec<Record>, rng: &mut StdRng| {
        let n_missing = ((stream.len() as f64) * opts.missing_rate).round() as usize;
        let mut idx: Vec<usize> = (0..stream.len()).collect();
        idx.shuffle(rng);
        for &i in idx.iter().take(n_missing) {
            let mut attrs: Vec<usize> = (0..d).collect();
            attrs.shuffle(rng);
            for &j in attrs.iter().take(opts.missing_attrs) {
                stream[i].attrs[j] = None;
            }
        }
    };
    inject(&mut stream_a, &mut rng);
    inject(&mut stream_b, &mut rng);
    let streams = StreamSet::new(vec![stream_a, stream_b]);

    // ---- repository R: historical copies of the same entity pool ----
    // The paper's R is "collected/inferred by historical stream data", so
    // it contains past records of the *same* entities. Two materialized
    // copies per covered entity give rule discovery the tight same-entity
    // distance buckets (e.g. close authors ⇒ close title) and let
    // imputation recover entity-specific values. Entities that occur in
    // both sources are covered first (historical data is densest where
    // the sources overlap), so growing η directly grows imputation
    // support — the mechanism behind the Figure 14 accuracy trend.
    let mut coverage_order: Vec<usize> = Vec::with_capacity(n_entities);
    let mut seen = vec![false; n_entities];
    for slot in &b_slots {
        let e_idx = slot.unwrap();
        if e_idx < size_a && !seen[e_idx] {
            seen[e_idx] = true;
            coverage_order.push(e_idx);
        }
    }
    for (e_idx, covered_already) in seen.iter().enumerate() {
        if !covered_already {
            coverage_order.push(e_idx);
        }
    }
    // A quarter of the budget goes to twin (duplicate) copies — enough for
    // rule discovery's same-entity distance buckets; the rest maximizes
    // entity coverage, which drives imputation accuracy.
    let twins = (repo_size / 8).max(1);
    let singles = repo_size.saturating_sub(2 * twins);
    let mut repo_recs: Vec<Record> = Vec::with_capacity(repo_size);
    let mut next_repo_id = 2_000_000u64;
    for k in 0..twins {
        let e = &entities[coverage_order[k % coverage_order.len()]];
        repo_recs.push(materialize(e, next_repo_id, &mut rng));
        repo_recs.push(materialize(e, next_repo_id + 1, &mut rng));
        next_repo_id += 2;
    }
    for k in 0..singles {
        let e = &entities[coverage_order[(twins + k) % coverage_order.len()]];
        repo_recs.push(materialize(e, next_repo_id, &mut rng));
        next_repo_id += 1;
    }
    let repo = Repository::from_records(schema.clone(), repo_recs);

    // ---- suggested topic query: topic 0's label + two topic words ----
    let suggested_keywords = "cat0 t0w0 t0w1".to_owned();

    Dataset {
        name: spec.name,
        schema,
        dict,
        repo,
        streams,
        clean_streams,
        entity_pairs,
        suggested_keywords,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> DatasetSpec {
        DatasetSpec {
            name: "test",
            attrs: vec![
                AttrSpec {
                    name: "category",
                    kind: AttrKind::Category,
                },
                AttrSpec {
                    name: "name",
                    kind: AttrKind::EntityName { tokens: 3 },
                },
                AttrSpec {
                    name: "tags",
                    kind: AttrKind::TopicPhrase { base: 3, noise: 1 },
                },
            ],
            topics: 3,
            vocab_per_topic: 12,
            size_a: 60,
            size_b: 70,
            match_fraction: 0.5,
            perturbation: 0.1,
        }
    }

    #[test]
    fn sizes_and_ids_are_as_configured() {
        let ds = generate(&small_spec(), &GenOptions::default());
        assert_eq!(ds.streams.stream(0).len(), 60);
        assert_eq!(ds.streams.stream(1).len(), 70);
        // Unique ids across streams.
        let mut ids = FxHashSet::default();
        for r in ds.streams.stream(0).iter().chain(ds.streams.stream(1)) {
            assert!(ids.insert(r.id), "duplicate id {}", r.id);
        }
    }

    #[test]
    fn entity_pairs_count_matches_fraction() {
        let ds = generate(&small_spec(), &GenOptions::default());
        assert_eq!(ds.entity_pairs.len(), 35); // 0.5 × 70
    }

    #[test]
    fn matched_pairs_are_similar_on_clean_data() {
        let ds = generate(&small_spec(), &GenOptions::default());
        let d = ds.schema.arity() as f64;
        let a = ds.clean_streams.stream(0);
        let b = ds.clean_streams.stream(1);
        let mut sims = Vec::new();
        for (ia, ib) in ds.entity_pairs.iter() {
            let ra = a.iter().find(|r| r.id == *ia).unwrap();
            let rb = b.iter().find(|r| r.id == *ib).unwrap();
            sims.push(ra.similarity(rb));
        }
        let avg: f64 = sims.iter().sum::<f64>() / sims.len() as f64;
        assert!(avg > 0.6 * d, "avg matched similarity {avg} too low");
    }

    #[test]
    fn unmatched_pairs_are_dissimilar() {
        let ds = generate(&small_spec(), &GenOptions::default());
        let d = ds.schema.arity() as f64;
        let a = ds.clean_streams.stream(0);
        let b = ds.clean_streams.stream(1);
        let mut worst = 0.0f64;
        let mut count = 0;
        for ra in a.iter().take(20) {
            for rb in b.iter().take(20) {
                let key = (ra.id.min(rb.id), ra.id.max(rb.id));
                if !ds.entity_pairs.contains(&key) {
                    worst = worst.max(ra.similarity(rb));
                    count += 1;
                }
            }
        }
        assert!(count > 0);
        // Non-matches share at most topic vocabulary; the entity-name
        // attribute keeps them below the similarity of true matches.
        assert!(worst < 0.75 * d, "non-match similarity too high: {worst}");
    }

    #[test]
    fn missing_rate_is_respected() {
        let opts = GenOptions {
            missing_rate: 0.4,
            missing_attrs: 2,
            ..GenOptions::default()
        };
        let ds = generate(&small_spec(), &opts);
        for (sid, expected) in [(0usize, 24usize), (1, 28)] {
            let incomplete = ds
                .streams
                .stream(sid)
                .iter()
                .filter(|r| !r.is_complete())
                .count();
            assert_eq!(incomplete, expected, "stream {sid}");
        }
        // Every incomplete tuple misses exactly m attributes.
        for r in ds.streams.stream(0).iter().filter(|r| !r.is_complete()) {
            assert_eq!(r.missing_attrs().len(), 2);
        }
    }

    #[test]
    fn zero_missing_rate_keeps_everything_complete() {
        let opts = GenOptions {
            missing_rate: 0.0,
            ..GenOptions::default()
        };
        let ds = generate(&small_spec(), &opts);
        assert!(ds.streams.stream(0).iter().all(|r| r.is_complete()));
    }

    #[test]
    fn repository_is_complete_and_scaled() {
        let opts = GenOptions {
            repo_ratio: 0.2,
            ..GenOptions::default()
        };
        let ds = generate(&small_spec(), &opts);
        assert_eq!(ds.repo.len(), 26); // 0.2 × 130
        assert!(ds.repo.samples().iter().all(|r| r.is_complete()));
    }

    #[test]
    fn deterministic_generation() {
        let a = generate(&small_spec(), &GenOptions::default());
        let b = generate(&small_spec(), &GenOptions::default());
        assert_eq!(a.entity_pairs, b.entity_pairs);
        assert_eq!(a.streams.stream(0), b.streams.stream(0));
    }

    #[test]
    fn threshold_groundtruth_mostly_agrees_with_entities() {
        let ds = generate(&small_spec(), &GenOptions::default());
        let kw = KeywordSet::universe();
        let by_threshold = ds.groundtruth_by_threshold(0.5, &kw);
        let overlap = by_threshold.intersection(&ds.entity_pairs).count();
        assert!(
            overlap as f64 >= 0.8 * ds.entity_pairs.len() as f64,
            "only {overlap}/{} entity pairs exceed the threshold",
            ds.entity_pairs.len()
        );
    }

    #[test]
    fn topical_pairs_are_a_subset() {
        let ds = generate(&small_spec(), &GenOptions::default());
        let kw = ds.keywords();
        let topical = ds.topical_entity_pairs(&kw);
        assert!(topical.len() <= ds.entity_pairs.len());
        assert!(topical.iter().all(|p| ds.entity_pairs.contains(p)));
        // With 3 topics, roughly a third of pairs are topic-0-related.
        assert!(!topical.is_empty());
    }

    #[test]
    fn scale_shrinks_streams() {
        let opts = GenOptions {
            scale: 0.5,
            ..GenOptions::default()
        };
        let ds = generate(&small_spec(), &opts);
        assert_eq!(ds.streams.stream(0).len(), 30);
        assert_eq!(ds.streams.stream(1).len(), 35);
    }
}
