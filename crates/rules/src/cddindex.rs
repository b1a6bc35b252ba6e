//! The CDD-index `I_j` (§5.1, Figure 2): the rules whose dependent is
//! `A_j`, in rule-list order, filtered exactly per record.
//!
//! The paper groups these rules into a lattice by determinant set and
//! indexes each group with an aR-tree over pivot-converted constant
//! constraints. That tree is not built here: the rule lists are small
//! (tens to a few hundred CDDs), and a scan of them selected the same
//! rules as the tree in less time on every dataset preset (see the
//! README's paper mapping). The scan also keeps the rule-list order, so
//! selection through `I_j` equals the linear scan of the `CDD+ER`
//! baseline element for element.

use ter_repo::{PivotTable, Record};

use crate::rule::Cdd;

/// The CDD-index for one dependent attribute. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct CddIndex {
    rules: Vec<Cdd>,
}

impl CddIndex {
    /// Builds the index from the rules whose dependent is `dependent`.
    /// Rules with other dependents are ignored (callers typically build one
    /// `I_j` per attribute from one global rule list, Algorithm 1 line 3).
    ///
    /// `_pivots` is unused: it converted constants for the aR-tree this
    /// index replaces, and the signature is kept for the benchmark
    /// harness, which builds the index through it.
    pub fn build(dependent: usize, all_rules: &[Cdd], _pivots: &PivotTable) -> Self {
        let rules = all_rules
            .iter()
            .filter(|r| r.dependent == dependent)
            .cloned()
            .collect();
        Self { rules }
    }

    /// Rules applicable to `record` for imputing its missing `A_j`
    /// (every determinant present in `record`, constants matching
    /// exactly), in rule-list order.
    pub fn applicable_rules(&self, record: &Record) -> Vec<&Cdd> {
        self.rules
            .iter()
            .filter(|r| r.applicable_to(record))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Constraint;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use ter_repo::{PivotConfig, Record, Repository, Schema};
    use ter_text::{Dictionary, Interval, Token, TokenSet};

    fn schema() -> Schema {
        Schema::new(vec!["gender", "symptom", "diagnosis"])
    }

    fn setup() -> (Repository, PivotTable, Dictionary) {
        let mut dict = Dictionary::new();
        let s = schema();
        let recs = vec![
            Record::from_texts(
                &s,
                1,
                &[Some("male"), Some("weight loss"), Some("diabetes")],
                &mut dict,
            ),
            Record::from_texts(
                &s,
                2,
                &[Some("female"), Some("fever cough"), Some("flu")],
                &mut dict,
            ),
            Record::from_texts(
                &s,
                3,
                &[Some("male"), Some("blurred vision"), Some("diabetes")],
                &mut dict,
            ),
            Record::from_texts(
                &s,
                4,
                &[Some("female"), Some("red eye"), Some("conjunctivitis")],
                &mut dict,
            ),
        ];
        let repo = Repository::from_records(s, recs);
        let pivots = PivotTable::select(&repo, &PivotConfig::default());
        (repo, pivots, dict)
    }

    fn male(dict: &mut Dictionary) -> TokenSet {
        ter_text::tokenize("male", dict)
    }

    fn test_rules(dict: &mut Dictionary) -> Vec<Cdd> {
        vec![
            // constant rule: gender=male → diagnosis within 0.2
            Cdd::new(
                vec![(0, Constraint::Constant(male(dict)))],
                2,
                Interval::new(0.0, 0.2),
            ),
            // interval rule: symptom close → diagnosis within 0.5
            Cdd::new(
                vec![(1, Constraint::Interval(Interval::new(0.0, 0.5)))],
                2,
                Interval::new(0.0, 0.5),
            ),
            // combined rule (level 2)
            Cdd::new(
                vec![
                    (0, Constraint::Constant(male(dict))),
                    (1, Constraint::Interval(Interval::new(0.0, 0.3))),
                ],
                2,
                Interval::new(0.0, 0.1),
            ),
            // rule for a different dependent — must be excluded
            Cdd::new(
                vec![(0, Constraint::Interval(Interval::new(0.0, 0.5)))],
                1,
                Interval::new(0.0, 0.4),
            ),
        ]
    }

    #[test]
    fn build_filters_by_dependent() {
        let (_, pivots, mut dict) = setup();
        let rules = test_rules(&mut dict);
        let idx = CddIndex::build(2, &rules, &pivots);
        // A record on which every rule is applicable selects the three
        // rules whose dependent is 2, in rule-list order, and not the
        // fourth (dependent 1).
        let s = schema();
        let all_present = Record::from_texts(
            &s,
            30,
            &[Some("male"), Some("weight loss"), Some("x")],
            &mut dict,
        );
        assert!(rules.iter().all(|r| r.applicable_to(&all_present)));
        let selected: Vec<Cdd> = idx
            .applicable_rules(&all_present)
            .into_iter()
            .cloned()
            .collect();
        assert_eq!(selected, &rules[..3]);
    }

    #[test]
    fn applicable_rules_match_brute_force() {
        let (_, pivots, mut dict) = setup();
        let rules = test_rules(&mut dict);
        let idx = CddIndex::build(2, &rules, &pivots);
        let s = schema();
        let cases = [
            Record::from_texts(
                &s,
                10,
                &[Some("male"), Some("weight loss"), None],
                &mut dict,
            ),
            Record::from_texts(&s, 11, &[Some("female"), Some("fever"), None], &mut dict),
            Record::from_texts(&s, 12, &[Some("male"), None, None], &mut dict),
            Record::from_texts(&s, 13, &[None, None, None], &mut dict),
        ];
        for rec in &cases {
            let expect: Vec<&Cdd> = rules
                .iter()
                .filter(|r| r.dependent == 2 && r.applicable_to(rec))
                .collect();
            assert_eq!(idx.applicable_rules(rec), expect, "record {}", rec.id);
        }
    }

    #[test]
    fn constant_rules_excluded_for_other_values() {
        let (_, pivots, mut dict) = setup();
        let rules = test_rules(&mut dict);
        let idx = CddIndex::build(2, &rules, &pivots);
        let s = schema();
        let female_rec = Record::from_texts(
            &s,
            20,
            &[Some("female"), Some("weight loss"), None],
            &mut dict,
        );
        let applicable = idx.applicable_rules(&female_rec);
        // Only the pure interval rule applies (constants demand "male").
        assert_eq!(applicable.len(), 1);
        assert!(applicable[0].is_dd());
    }

    #[test]
    fn no_applicable_rules_gives_none_bound() {
        let (_, pivots, mut dict) = setup();
        let rules = test_rules(&mut dict);
        let idx = CddIndex::build(2, &rules, &pivots);
        let s = schema();
        let all_missing = Record::from_texts(&s, 40, &[None, None, None], &mut dict);
        assert!(idx.applicable_rules(&all_missing).is_empty());
    }

    #[test]
    fn empty_rule_list() {
        let (_, pivots, mut dict) = setup();
        let idx = CddIndex::build(2, &[], &pivots);
        let s = schema();
        let rec = Record::from_texts(&s, 50, &[Some("male"), Some("x"), None], &mut dict);
        assert!(idx.applicable_rules(&rec).is_empty());
        // The rules of another dependent alone leave the index as empty.
        let rules = test_rules(&mut dict);
        let idx = CddIndex::build(2, &rules[3..], &pivots);
        let all_present =
            Record::from_texts(&s, 51, &[Some("male"), Some("x"), Some("y")], &mut dict);
        assert!(rules[3].applicable_to(&all_present));
        assert!(idx.applicable_rules(&all_present).is_empty());
    }

    // Random rule lists for `applicable_rules_equal_linear_filter`, over a
    // small token alphabet so that record values hit rule constants often.
    fn value(rng: &mut TestRng) -> TokenSet {
        let n = rng.gen_usize(0, 3, true);
        TokenSet::new((0..n).map(|_| Token(rng.gen_u32(0, 6, false))).collect())
    }

    fn pick<T: Clone>(rng: &mut TestRng, items: &[T]) -> T {
        items[rng.gen_usize(0, items.len(), false)].clone()
    }

    /// A rule over `pools.len()` attributes with one to three determinants,
    /// each a constant from its attribute's pool or an interval.
    fn random_rule(rng: &mut TestRng, pools: &[Vec<TokenSet>]) -> Cdd {
        let arity = pools.len();
        let dependent = rng.gen_usize(0, arity, false);
        let mut others: Vec<usize> = (0..arity).filter(|&a| a != dependent).collect();
        let k = rng.gen_usize(1, others.len().min(3), true);
        let determinants = (0..k)
            .map(|_| {
                let a = others.remove(rng.gen_usize(0, others.len(), false));
                let c = if rng.gen_usize(0, 2, true) == 0 {
                    Constraint::Interval(Interval::new(0.0, rng.gen_f64(0.1, 1.0)))
                } else {
                    Constraint::Constant(pick(rng, &pools[a]))
                };
                (a, c)
            })
            .collect();
        Cdd::new(
            determinants,
            dependent,
            Interval::new(0.0, rng.gen_f64(0.1, 1.0)),
        )
    }

    /// A record whose attributes are missing a third of the time and
    /// otherwise take a rule constant or a fresh value.
    fn random_record(rng: &mut TestRng, id: u64, pools: &[Vec<TokenSet>]) -> Record {
        let names: Vec<String> = (0..pools.len()).map(|a| format!("a{a}")).collect();
        let attrs = pools
            .iter()
            .map(|pool| match rng.gen_usize(0, 3, false) {
                0 => None,
                1 => Some(value(rng)),
                _ => Some(pick(rng, pool)),
            })
            .collect();
        Record::new(&Schema::new(names), id, attrs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `I_j` selects exactly the rules a scan of the whole rule list
        /// selects for dependent `j`, in the same order.
        #[test]
        fn applicable_rules_equal_linear_filter(seed in any::<u64>()) {
            let mut rng = TestRng::seeded(seed);
            let arity = rng.gen_usize(3, 4, true);
            let pools: Vec<Vec<TokenSet>> = (0..arity)
                .map(|_| (0..rng.gen_usize(1, 4, true)).map(|_| value(&mut rng)).collect())
                .collect();
            let rules: Vec<Cdd> =
                (0..rng.gen_usize(0, 24, true)).map(|_| random_rule(&mut rng, &pools)).collect();
            let pivots = PivotTable::from_pivots(Vec::new());
            let indexes: Vec<CddIndex> =
                (0..arity).map(|j| CddIndex::build(j, &rules, &pivots)).collect();
            for id in 0..16 {
                let rec = random_record(&mut rng, id, &pools);
                for (j, idx) in indexes.iter().enumerate() {
                    let linear: Vec<&Cdd> = rules
                        .iter()
                        .filter(|r| r.dependent == j && r.applicable_to(&rec))
                        .collect();
                    prop_assert_eq!(
                        idx.applicable_rules(&rec),
                        linear,
                        "seed {} dependent {} record {:?}",
                        seed,
                        j,
                        rec
                    );
                }
            }
        }
    }
}
