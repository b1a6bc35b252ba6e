//! The CDD-index `I_j` (§5.1, Figure 2): a lattice of determinant-set
//! groups, each indexed by an aR-tree over constraint points.
//!
//! Rules with dependent attribute `A_j` are grouped by their determinant
//! attribute set `X` (the lattice levels of Figure 2 are the group sizes
//! `|X| = 1, 2, …`). Within a group, each rule becomes a point whose
//! coordinate on determinant `A_x` is
//!
//! * `dist(v, piv_1[A_x])` for a constant constraint `v` (the paper's
//!   pivot conversion of textual constants), or
//! * the sentinel `-1` for an interval constraint, which does not restrict
//!   the tuple's absolute value (the paper reserves `-1` for unconstrained
//!   dimensions; interval constraints restrict *pair* distances and are
//!   verified exactly after retrieval).
//!
//! Tree nodes aggregate the minimal interval bounding the dependent
//! constraints `A_j.I` beneath them — the coarse dependent ranges of the
//! 3-way index join (§5.3).

use ter_index::{ArTree, Rect};
use ter_repo::{PivotTable, Record};
use ter_text::Interval;

use crate::rule::{Cdd, Constraint};

/// Node aggregate: bounds the dependent intervals of the rules beneath.
#[derive(Debug, Clone)]
pub struct CddAggregate {
    /// Minimal interval covering every `A_j.I` under the node
    /// (`A_j.I_e` in §5.1's aggregate list).
    pub dependent_interval: Interval,
}

impl ter_index::Aggregate for CddAggregate {
    fn merge(&mut self, other: &Self) {
        self.dependent_interval
            .expand_interval(&other.dependent_interval);
    }
}

/// One lattice node: all rules sharing a determinant attribute set.
#[derive(Debug, Clone)]
struct Group {
    /// Sorted determinant attributes `X`.
    attrs: Vec<usize>,
    /// Rule indices (into [`CddIndex::rules`]) indexed by constraint point.
    tree: ArTree<usize, CddAggregate>,
}

/// The CDD-index for one dependent attribute. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct CddIndex {
    dependent: usize,
    rules: Vec<Cdd>,
    /// Groups ordered by lattice level (`|X|` ascending, then by attrs).
    groups: Vec<Group>,
}

impl CddIndex {
    /// Builds the index from the rules whose dependent is `dependent`.
    /// Rules with other dependents are ignored (callers typically build one
    /// `I_j` per attribute from one global rule list, Algorithm 1 line 3).
    pub fn build(dependent: usize, all_rules: &[Cdd], pivots: &PivotTable) -> Self {
        let rules: Vec<Cdd> = all_rules
            .iter()
            .filter(|r| r.dependent == dependent)
            .cloned()
            .collect();

        // Partition rule indices by determinant attribute set.
        let mut sets: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
        for (ri, rule) in rules.iter().enumerate() {
            let attrs: Vec<usize> = rule.determinant_attrs().collect();
            match sets.iter_mut().find(|(a, _)| *a == attrs) {
                Some((_, v)) => v.push(ri),
                None => sets.push((attrs, vec![ri])),
            }
        }
        // Lattice order: level (set size) ascending, then lexicographic.
        sets.sort_by(|a, b| (a.0.len(), &a.0).cmp(&(b.0.len(), &b.0)));

        let groups = sets
            .into_iter()
            .map(|(attrs, rule_ids)| {
                let dim = attrs.len();
                let entries = rule_ids
                    .into_iter()
                    .map(|ri| ter_index::Entry {
                        point: rule_point(&rules[ri], &attrs, pivots).into_boxed_slice(),
                        payload: ri,
                        agg: CddAggregate {
                            dependent_interval: rules[ri].dependent_interval,
                        },
                    })
                    .collect();
                Group {
                    attrs,
                    tree: ArTree::bulk_load(dim, 16, entries),
                }
            })
            .collect();

        Self {
            dependent,
            rules,
            groups,
        }
    }

    /// The dependent attribute `A_j` this index serves.
    pub fn dependent(&self) -> usize {
        self.dependent
    }

    /// All indexed rules.
    pub fn rules(&self) -> &[Cdd] {
        &self.rules
    }

    /// Number of indexed rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the index holds no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Number of lattice groups (distinct determinant sets).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Rules applicable to `record` for imputing its missing `A_j`:
    /// every determinant present in `record`, constants matching exactly.
    ///
    /// Retrieval descends each compatible lattice group's aR-tree with the
    /// 2^k boxes covering {constant-match, interval-sentinel} per dimension
    /// and verifies candidates exactly.
    pub fn applicable_rules<'a>(&'a self, record: &Record, pivots: &PivotTable) -> Vec<&'a Cdd> {
        let mut out = Vec::new();
        for group in &self.groups {
            // Lattice-level filter: X must be fully present in the record.
            if group.attrs.iter().any(|&a| record.is_missing(a)) {
                continue;
            }
            // Per-dimension admissible coordinates.
            let coords: Vec<f64> = group
                .attrs
                .iter()
                .map(|&a| pivots.convert_value(a, record.attr(a).unwrap()))
                .collect();
            // Enumerate the 2^k sentinel/constant boxes (k is the lattice
            // level, small by construction; fall back to one wide box that
            // covers both options per dimension beyond 8 determinants).
            let k = group.attrs.len();
            if k <= 8 {
                for mask in 0u32..(1 << k) {
                    let rect = Rect::new(
                        (0..k)
                            .map(|i| {
                                if mask & (1 << i) != 0 {
                                    Interval::point(coords[i])
                                } else {
                                    Interval::missing()
                                }
                            })
                            .collect(),
                    );
                    for e in group.tree.range_query(&rect) {
                        let rule = &self.rules[e.payload];
                        if rule.applicable_to(record) {
                            out.push(rule);
                        }
                    }
                }
            } else {
                let rect = Rect::new(
                    coords
                        .iter()
                        .map(|&c| Interval::new(-1.0, c.max(-1.0)))
                        .collect(),
                );
                for e in group.tree.range_query(&rect) {
                    let rule = &self.rules[e.payload];
                    if rule.applicable_to(record) {
                        out.push(rule);
                    }
                }
            }
        }
        out
    }

    /// Coarse bound on the dependent constraint over the rules applicable
    /// to `record`: the minimal interval covering their `A_j.I`s, from
    /// aggregates where possible. `None` when no rule applies.
    pub fn dependent_bound(&self, record: &Record, pivots: &PivotTable) -> Option<Interval> {
        let mut acc = Interval::empty();
        for rule in self.applicable_rules(record, pivots) {
            acc.expand_interval(&rule.dependent_interval);
        }
        if acc.is_empty() {
            None
        } else {
            Some(acc)
        }
    }
}

/// The constraint point of `rule` within its group (see module docs).
fn rule_point(rule: &Cdd, attrs: &[usize], pivots: &PivotTable) -> Vec<f64> {
    attrs
        .iter()
        .map(|&a| {
            let (_, c) = rule
                .determinants()
                .iter()
                .find(|(x, _)| *x == a)
                .expect("group attr must be a determinant");
            match c {
                Constraint::Constant(v) => pivots.convert_value(a, v),
                Constraint::Interval(_) => -1.0,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ter_repo::{PivotConfig, Record, Repository, Schema};
    use ter_text::{Dictionary, TokenSet};

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
    fn build_filters_by_dependent_and_forms_lattice() {
        let (_, pivots, mut dict) = setup();
        let rules = test_rules(&mut dict);
        let idx = CddIndex::build(2, &rules, &pivots);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.group_count(), 3); // {gender}, {symptom}, {gender,symptom}
        assert_eq!(idx.dependent(), 2);
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
            let mut got: Vec<_> = idx
                .applicable_rules(rec, &pivots)
                .into_iter()
                .cloned()
                .collect();
            let mut expect: Vec<Cdd> = idx
                .rules()
                .iter()
                .filter(|r| r.applicable_to(rec))
                .cloned()
                .collect();
            let key = |r: &Cdd| format!("{r:?}");
            got.sort_by_key(key);
            expect.sort_by_key(key);
            assert_eq!(got, expect, "record {}", rec.id);
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
        let applicable = idx.applicable_rules(&female_rec, &pivots);
        // Only the pure interval rule applies (constants demand "male").
        assert_eq!(applicable.len(), 1);
        assert!(applicable[0].is_dd());
    }

    #[test]
    fn dependent_bound_covers_applicable_rules() {
        let (_, pivots, mut dict) = setup();
        let rules = test_rules(&mut dict);
        let idx = CddIndex::build(2, &rules, &pivots);
        let s = schema();
        let rec = Record::from_texts(
            &s,
            30,
            &[Some("male"), Some("weight loss"), None],
            &mut dict,
        );
        let bound = idx.dependent_bound(&rec, &pivots).unwrap();
        for r in idx.applicable_rules(&rec, &pivots) {
            assert!(bound.contains_interval(&r.dependent_interval));
        }
    }

    #[test]
    fn no_applicable_rules_gives_none_bound() {
        let (_, pivots, mut dict) = setup();
        let rules = test_rules(&mut dict);
        let idx = CddIndex::build(2, &rules, &pivots);
        let s = schema();
        let all_missing = Record::from_texts(&s, 40, &[None, None, None], &mut dict);
        assert!(idx.dependent_bound(&all_missing, &pivots).is_none());
    }

    #[test]
    fn empty_rule_list() {
        let (_, pivots, mut dict) = setup();
        let idx = CddIndex::build(2, &[], &pivots);
        assert!(idx.is_empty());
        let s = schema();
        let rec = Record::from_texts(&s, 50, &[Some("male"), Some("x"), None], &mut dict);
        assert!(idx.applicable_rules(&rec, &pivots).is_empty());
    }
}
