//! Rule-driven imputation (Equations 3 and 4).
//!
//! For each missing attribute `A_j` of an incomplete tuple `r`:
//!
//! 1. **Rule selection** — find the applicable rules `X → A_j` (all
//!    determinants present in `r`, constants matching). Indexed retrieval
//!    uses the CDD-index `I_j`; linear retrieval scans the rule list.
//! 2. **Sample retrieval** — for each rule, find repository samples `s`
//!    satisfying the determinant constraints w.r.t. `r`. Indexed retrieval
//!    turns each determinant into the exact set of domain values that
//!    pass it — a constant's own id, or the values within the interval of
//!    `r[A_x]` found through the DR-index `I_R`'s token postings — then
//!    enumerates the samples of the most selective determinant through
//!    `I_R`'s value postings and checks the others by domain id. `I_R` is
//!    an inverted index rather than the paper's pivot aR-tree because the
//!    pivot distances collapse on this data (most values are at distance
//!    1 from every pivot; see `ter_repo::drindex`). Linear retrieval scans
//!    `R` and is the reference the indexed path is tested against.
//! 3. **Candidate collection** — every matching `(rule, sample)` pair votes
//!    for the domain values `val ∈ dom(A_j)` with
//!    `dist(s[A_j], val) ∈ A_j.I`; frequencies are combined across rules
//!    and normalized into existence probabilities (Equation 4). The vote
//!    runs once per distinct `s[A_j]` of a rule's matches, adding its
//!    multiplicity, and finds the values in `A_j.I` with the same exact
//!    range search as step 2 (a domain scan under linear retrieval).
//!
//! The two retrieval modes return identical candidates (property-tested),
//! which is why the paper reports identical F-scores for `TER-iDS`,
//! `I_j+G_ER`, and `CDD+ER` — they differ only in wall-clock time.

use ter_repo::{DrIndex, PivotTable, Record, Repository};
use ter_rules::{Cdd, CddIndex, Constraint};
use ter_stream::{AttrCandidates, ProbTuple};
use ter_text::{Interval, TokenSet};

use crate::{ImputeConfig, ImputeContext, Imputer};

/// How rules and samples are retrieved.
pub enum RuleRetrieval<'a> {
    /// Linear scans over the rule list and the repository
    /// (the `CDD+ER` / `DD+ER` / `er+ER` baselines).
    Linear,
    /// CDD-indexes (one per attribute) joined with the DR-index
    /// (the paper's approach and the `I_j+G_ER` baseline).
    Indexed {
        /// `cdd_indexes[j]` serves dependent attribute `j`.
        cdd_indexes: &'a [CddIndex],
        /// The DR-index over the repository.
        dr_index: &'a DrIndex,
    },
}

/// Rule-driven imputer over a repository. See the [module docs](self).
pub struct RuleImputer<'a> {
    name: &'static str,
    repo: &'a Repository,
    pivots: &'a PivotTable,
    rules: &'a [Cdd],
    retrieval: RuleRetrieval<'a>,
    cfg: ImputeConfig,
}

impl<'a> RuleImputer<'a> {
    /// Builds an imputer.
    pub fn new(
        name: &'static str,
        repo: &'a Repository,
        pivots: &'a PivotTable,
        rules: &'a [Cdd],
        retrieval: RuleRetrieval<'a>,
        cfg: ImputeConfig,
    ) -> Self {
        Self {
            name,
            repo,
            pivots,
            rules,
            retrieval,
            cfg,
        }
    }

    /// Phase 1: the applicable rules for each missing attribute of
    /// `record` (timed separately by the engine for the Figure 6 break-up).
    pub fn select_rules(&self, record: &Record) -> Vec<(usize, Vec<&'a Cdd>)> {
        record
            .missing_attrs()
            .into_iter()
            .map(|j| {
                let rules = match &self.retrieval {
                    RuleRetrieval::Linear => self
                        .rules
                        .iter()
                        .filter(|r| r.dependent == j && r.applicable_to(record))
                        .collect(),
                    RuleRetrieval::Indexed { cdd_indexes, .. } => {
                        cdd_indexes[j].applicable_rules(record, self.pivots)
                    }
                };
                (j, rules)
            })
            .collect()
    }

    /// Phase 2: candidate collection given the selected rules.
    pub fn impute_with_rules(
        &self,
        record: &Record,
        selected: &[(usize, Vec<&'a Cdd>)],
    ) -> ProbTuple {
        let imputed = selected
            .iter()
            .map(|(j, rules)| {
                let mut cand = self.collect_candidates(record, *j, rules);
                cand.truncate_top_k(self.cfg.max_candidates_per_attr);
                cand
            })
            .collect();
        ProbTuple::new(record.clone(), imputed)
    }

    /// Ids of the values of `dom(A_attr)` at a Jaccard distance in `range`
    /// from `q`, ascending: through the DR-index's token postings when
    /// indexed, by a domain scan when linear. Both are exact.
    fn values_within(&self, attr: usize, q: &TokenSet, range: Interval) -> Vec<u32> {
        match &self.retrieval {
            RuleRetrieval::Linear => self.repo.domain(attr).scan_within(q, range),
            RuleRetrieval::Indexed { dr_index, .. } => {
                dr_index.values_within(self.repo, attr, q, range)
            }
        }
    }

    /// Samples matching `rule` w.r.t. `record` (positions into `R`).
    fn matching_samples(&self, record: &Record, rule: &Cdd) -> Vec<usize> {
        let RuleRetrieval::Indexed { dr_index, .. } = &self.retrieval else {
            return (0..self.repo.len())
                .filter(|&i| rule.sample_matches(record, self.repo.sample(i)))
                .collect();
        };
        // The domain ids passing each determinant, ascending; a
        // determinant every value passes (`[0, 1]` or wider) drops out.
        let mut passing: Vec<(usize, Vec<u32>, usize)> = Vec::new();
        for (a, c) in rule.determinants() {
            let rv = record.attr(*a).expect("determinant present");
            let ids = match c {
                Constraint::Constant(v) if rv == v => {
                    self.repo.domain(*a).lookup(v).into_iter().collect()
                }
                Constraint::Constant(_) => Vec::new(),
                Constraint::Interval(i) if i.lo <= 0.0 && i.hi >= 1.0 => continue,
                Constraint::Interval(i) => self.values_within(*a, rv, *i),
            };
            let samples = ids
                .iter()
                .map(|&v| dr_index.samples_with_value(*a, v).len())
                .sum();
            passing.push((*a, ids, samples));
        }
        // Enumerate the most selective determinant's samples; check the
        // others by domain id.
        let Some(best) = (0..passing.len()).min_by_key(|&k| passing[k].2) else {
            return (0..self.repo.len()).collect();
        };
        let (a0, ids0, _) = passing.swap_remove(best);
        ids0.iter()
            .flat_map(|&v| dr_index.samples_with_value(a0, v))
            .map(|&pos| pos as usize)
            .filter(|&pos| {
                passing
                    .iter()
                    .all(|(a, ids, _)| ids.binary_search(&self.repo.value_id(pos, *a)).is_ok())
            })
            .collect()
    }

    /// Equation 3/4: frequency-vote domain values across all rules/samples.
    fn collect_candidates(
        &self,
        record: &Record,
        attr: usize,
        rules: &[&'a Cdd],
    ) -> AttrCandidates {
        let domain = self.repo.domain(attr);
        let mut freq = vec![0u32; domain.len()];
        for rule in rules {
            // One vote per distinct dependent value, weighted by how many
            // matching samples hold it.
            let mut dependents: Vec<u32> = self
                .matching_samples(record, rule)
                .into_iter()
                .map(|pos| self.repo.value_id(pos, attr))
                .collect();
            dependents.sort_unstable();
            for run in dependents.chunk_by(|a, b| a == b) {
                let q = domain.value(run[0]);
                for vid in self.values_within(attr, q, rule.dependent_interval) {
                    freq[vid as usize] += run.len() as u32;
                }
            }
        }
        let candidates = freq
            .iter()
            .enumerate()
            .filter(|(_, &f)| f > 0)
            .map(|(vid, &f)| (domain.value(vid as u32).clone(), f as f64))
            .collect();
        AttrCandidates::normalized(attr, candidates)
    }
}

impl Imputer for RuleImputer<'_> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn impute(&self, record: &Record, _ctx: &ImputeContext<'_>) -> ProbTuple {
        if record.is_complete() {
            return ProbTuple::certain(record.clone());
        }
        let selected = self.select_rules(record);
        self.impute_with_rules(record, &selected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use ter_repo::{PivotConfig, Schema};
    use ter_rules::{detect_cdds, DiscoveryConfig};
    use ter_text::{Dictionary, KeywordSet, Token};

    /// Repository in which gender+symptom determine diagnosis tightly.
    fn setup() -> (Repository, PivotTable, Dictionary) {
        let schema = Schema::new(vec!["gender", "symptom", "diagnosis"]);
        let mut dict = Dictionary::new();
        let rows = [
            ("male", "weight loss blurred vision", "type two diabetes"),
            ("male", "weight loss thirst", "type two diabetes"),
            ("male", "blurred vision thirst", "type one diabetes"),
            ("male", "weight loss fatigue", "type two diabetes"),
            ("female", "fever cough aches", "seasonal flu"),
            ("female", "fever sore throat", "seasonal flu"),
            ("female", "cough aches chills", "seasonal influenza flu"),
            ("female", "fever chills", "seasonal flu"),
        ];
        let recs = rows
            .iter()
            .enumerate()
            .map(|(i, (g, s, dx))| {
                Record::from_texts(&schema, i as u64, &[Some(g), Some(s), Some(dx)], &mut dict)
            })
            .collect();
        let repo = Repository::from_records(schema, recs);
        let pivots = PivotTable::select(&repo, &PivotConfig::default());
        (repo, pivots, dict)
    }

    fn incomplete(dict: &mut Dictionary) -> Record {
        let schema = Schema::new(vec!["gender", "symptom", "diagnosis"]);
        Record::from_texts(
            &schema,
            100,
            &[Some("male"), Some("weight loss blurred vision"), None],
            dict,
        )
    }

    #[test]
    fn linear_imputation_suggests_diabetes() {
        let (repo, pivots, mut dict) = setup();
        let rules = detect_cdds(&repo, &DiscoveryConfig::default());
        assert!(!rules.is_empty());
        let imputer = RuleImputer::new(
            "CDD",
            &repo,
            &pivots,
            &rules,
            RuleRetrieval::Linear,
            ImputeConfig::default(),
        );
        let r = incomplete(&mut dict);
        let pt = imputer.impute(&r, &ImputeContext::default());
        assert_eq!(pt.imputed.len(), 1);
        // The most probable candidate should be diabetes-flavoured.
        let best = pt.imputed[0]
            .candidates
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        let diabetes = dict.lookup("diabetes").unwrap();
        assert!(
            best.0.contains(diabetes),
            "best candidate lacks 'diabetes': {best:?}"
        );
    }

    // Random repositories for `indexed_equals_linear`, over a small token
    // alphabet so values repeat, overlap partly, and include the empty set.
    const ARITY: usize = 3;
    /// Interval endpoints, including `lo > 0` with `hi = 1`.
    const GRID: [f64; 7] = [0.0, 0.2, 0.25, 0.5, 0.6, 0.75, 1.0];

    fn value(rng: &mut TestRng) -> TokenSet {
        let n = rng.gen_usize(0, 4, false);
        TokenSet::new((0..n).map(|_| Token(rng.gen_u32(0, 7, false))).collect())
    }

    fn interval(rng: &mut TestRng) -> Interval {
        let a = GRID[rng.gen_usize(0, GRID.len(), false)];
        let b = GRID[rng.gen_usize(0, GRID.len(), false)];
        Interval::new(a.min(b), a.max(b))
    }

    /// A record whose values come from `pools` (or are fresh), with
    /// each attribute missing with probability `missing`.
    fn record(rng: &mut TestRng, id: u64, pools: &[Vec<TokenSet>], missing: f64) -> Record {
        let attrs = pools
            .iter()
            .map(|pool| {
                if rng.gen_f64(0.0, 1.0) < missing {
                    None
                } else if rng.gen_usize(0, 5, false) == 0 {
                    Some(value(rng))
                } else {
                    Some(pool[rng.gen_usize(0, pool.len(), false)].clone())
                }
            })
            .collect();
        Record::new(&Schema::new(vec!["a", "b", "c"]), id, attrs)
    }

    fn rule(rng: &mut TestRng, pools: &[Vec<TokenSet>]) -> Cdd {
        let dependent = rng.gen_usize(0, ARITY, false);
        let others: Vec<usize> = (0..ARITY).filter(|&a| a != dependent).collect();
        // One or both of the other attributes.
        let determinants = match rng.gen_usize(0, 3, false) {
            0 => vec![others[0]],
            1 => vec![others[1]],
            _ => others,
        }
        .into_iter()
        .map(|a| {
            let c = if rng.gen_usize(0, 3, false) == 0 {
                let pool = &pools[a];
                Constraint::Constant(pool[rng.gen_usize(0, pool.len(), false)].clone())
            } else {
                Constraint::Interval(interval(rng))
            };
            (a, c)
        })
        .collect();
        Cdd::new(determinants, dependent, interval(rng))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Indexed retrieval and its vote give the same candidates,
        /// bit for bit, as the linear scans — also for samples added
        /// after the DR-index was built.
        #[test]
        fn indexed_equals_linear(seed in any::<u64>()) {
            let mut rng = TestRng::seeded(seed);
            let pools: Vec<Vec<TokenSet>> = (0..ARITY)
                .map(|_| {
                    let mut pool: Vec<TokenSet> =
                        (0..rng.gen_usize(2, 7, true)).map(|_| value(&mut rng)).collect();
                    pool.push(TokenSet::empty());
                    pool
                })
                .collect();
            let complete = |rng: &mut TestRng, id| record(rng, id, &pools, 0.0);
            let schema = Schema::new(vec!["a", "b", "c"]);
            let n = rng.gen_usize(1, 20, true);
            let mut repo = Repository::from_records(
                schema,
                (0..n as u64).map(|id| complete(&mut rng, id)).collect(),
            );
            let pivots = PivotTable::select(&repo, &PivotConfig::default());
            let kw = KeywordSet::universe();
            let mut dr = DrIndex::build(&repo, &pivots, &kw, 4);
            for id in 0..rng.gen_usize(0, 8, true) as u64 {
                repo.insert(complete(&mut rng, 1000 + id));
                dr.insert_sample(&repo, &pivots, &kw, repo.len() - 1);
            }
            prop_assert_eq!(dr.len(), repo.len());

            let rules: Vec<Cdd> =
                (0..rng.gen_usize(1, 8, true)).map(|_| rule(&mut rng, &pools)).collect();
            let cdd_indexes: Vec<CddIndex> =
                (0..ARITY).map(|j| CddIndex::build(j, &rules, &pivots)).collect();
            let cfg = ImputeConfig { max_candidates_per_attr: usize::MAX };
            let linear =
                RuleImputer::new("CDD", &repo, &pivots, &rules, RuleRetrieval::Linear, cfg);
            let indexed = RuleImputer::new(
                "TER-iDS",
                &repo,
                &pivots,
                &rules,
                RuleRetrieval::Indexed { cdd_indexes: &cdd_indexes, dr_index: &dr },
                cfg,
            );
            let ctx = ImputeContext::default();
            for id in 0..6 {
                let r = record(&mut rng, 2000 + id, &pools, 0.4);
                // Same rules in, same candidates out: retrieval and
                // vote alone, then the whole path with rule selection.
                let selected = linear.select_rules(&r);
                prop_assert_eq!(
                    indexed.impute_with_rules(&r, &selected).imputed,
                    linear.impute_with_rules(&r, &selected).imputed,
                    "seed {} record {:?}",
                    seed,
                    r
                );
                prop_assert_eq!(
                    indexed.impute(&r, &ctx).imputed,
                    linear.impute(&r, &ctx).imputed,
                    "seed {} record {:?}",
                    seed,
                    r
                );
            }
        }
    }

    #[test]
    fn complete_record_passes_through() {
        let (repo, pivots, mut dict) = setup();
        let rules = detect_cdds(&repo, &DiscoveryConfig::default());
        let imputer = RuleImputer::new(
            "CDD",
            &repo,
            &pivots,
            &rules,
            RuleRetrieval::Linear,
            ImputeConfig::default(),
        );
        let schema = Schema::new(vec!["gender", "symptom", "diagnosis"]);
        let r = Record::from_texts(
            &schema,
            1,
            &[Some("male"), Some("thirst"), Some("diabetes")],
            &mut dict,
        );
        let pt = imputer.impute(&r, &ImputeContext::default());
        assert!(pt.is_certain());
        assert_eq!(pt.instance_count(), 1);
    }

    #[test]
    fn no_applicable_rule_stays_missing() {
        let (repo, pivots, mut dict) = setup();
        // No rules at all.
        let imputer = RuleImputer::new(
            "CDD",
            &repo,
            &pivots,
            &[],
            RuleRetrieval::Linear,
            ImputeConfig::default(),
        );
        let r = incomplete(&mut dict);
        let pt = imputer.impute(&r, &ImputeContext::default());
        assert_eq!(pt.imputed.len(), 1);
        assert_eq!(pt.imputed[0].candidates.len(), 1);
        assert!(pt.imputed[0].candidates[0].0.is_empty());
    }

    #[test]
    fn candidate_cap_is_respected() {
        let (repo, pivots, mut dict) = setup();
        let rules = detect_cdds(&repo, &DiscoveryConfig::default());
        let cfg = ImputeConfig {
            max_candidates_per_attr: 2,
        };
        let imputer = RuleImputer::new("CDD", &repo, &pivots, &rules, RuleRetrieval::Linear, cfg);
        let r = incomplete(&mut dict);
        let pt = imputer.impute(&r, &ImputeContext::default());
        assert!(pt.imputed[0].candidates.len() <= 2);
        let sum: f64 = pt.imputed[0].candidates.iter().map(|(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn multiple_missing_attributes() {
        let (repo, pivots, mut dict) = setup();
        let rules = detect_cdds(&repo, &DiscoveryConfig::default());
        let imputer = RuleImputer::new(
            "CDD",
            &repo,
            &pivots,
            &rules,
            RuleRetrieval::Linear,
            ImputeConfig::default(),
        );
        let schema = Schema::new(vec!["gender", "symptom", "diagnosis"]);
        let r = Record::from_texts(&schema, 103, &[Some("female"), None, None], &mut dict);
        let pt = imputer.impute(&r, &ImputeContext::default());
        assert_eq!(pt.imputed.len(), 2);
        assert!(pt.instance_count() >= 1);
        let total: f64 = pt.instances().map(|i| i.prob).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
