//! Rule discovery from a complete repository `R` ("CDD Rule Detection",
//! §2.2; evaluated in Figure 12 / Appendix C.2).
//!
//! Following the literature the paper cites (\[19, 41\]), we mine rules from
//! pairwise distance statistics:
//!
//! * **Interval (DD-style) rules** — for every attribute pair `A_x → A_j`,
//!   bucket the determinant distances of sampled record pairs into
//!   equi-width intervals; each bucket whose observed dependent distances
//!   span an acceptably tight interval yields a CDD
//!   `A_x → A_j, {[b·w, (b+1)·w], [min d_j, max d_j]}` (the relaxed
//!   `ε.min ≥ 0` the paper introduces).
//! * **Constant (editing-rule-style) refinement** — when an attribute value
//!   `v` is frequent, pairs sharing `v` get their own, usually tighter,
//!   dependent interval: `A_x → A_j, {v, A_j.I}` (the paper's
//!   `Gender, Symptom → Diagnosis, {male, …}` example).
//! * **Combined rules** — a frequent constant on `A_x` conjoined with a
//!   distance bucket on a second attribute `A_y`.
//!
//! Pair statistics are subsampled deterministically above
//! [`DiscoveryConfig::max_pairs`] so detection stays near-linear for the
//! large repositories of the Songs-scale experiments.
//!
//! Each distance is computed once per pair list, into one dense vector per
//! attribute: over the sampled pairs, read by every (determinant,
//! dependent) pass of a call, and over each constant group's capped pair
//! list, read by the group's constant and combined passes of every
//! dependent and dropped before the next group. The sharing ends there:
//! [`detect_cdds`] and [`detect_dds`] each compute the sampled vectors, and
//! a value pair that recurs across row pairs is computed again.

use ter_text::fxhash::FxHashMap;
use ter_text::Interval;

use ter_repo::Repository;

use crate::rule::{Cdd, Constraint};

/// Tunables for rule discovery.
#[derive(Debug, Clone, Copy)]
pub struct DiscoveryConfig {
    /// Width of the determinant-distance buckets.
    pub bucket_width: f64,
    /// Emit a rule only if its dependent interval's upper end is at most
    /// this (looser rules impute too many candidates to be useful —
    /// the paper's "acceptable interval" criterion).
    pub accept_max: f64,
    /// Minimum number of observed pairs per bucket/constant group.
    pub min_support: usize,
    /// Cap on sampled record pairs per attribute pair.
    pub max_pairs: usize,
    /// Minimum number of repository samples sharing a constant value for
    /// constant-constraint mining.
    pub min_constant_support: usize,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        Self {
            bucket_width: 0.25,
            accept_max: 0.6,
            min_support: 4,
            max_pairs: 20_000,
            min_constant_support: 3,
        }
    }
}

impl DiscoveryConfig {
    /// Whether `cnt` pairs whose dependent distances span `dep` support an
    /// acceptably tight rule.
    fn accepts(&self, cnt: usize, dep: Interval) -> bool {
        cnt >= self.min_support && !dep.is_empty() && dep.hi <= self.accept_max
    }

    /// Per equi-width bucket of the determinant distances `det`: the number
    /// of pairs and the span of their dependent distances `dep`.
    fn buckets(&self, det: &[f64], dep: &[f64]) -> Vec<(usize, Interval)> {
        let n = (1.0 / self.bucket_width).ceil() as usize;
        let mut out = vec![(0, Interval::empty()); n];
        for (&dx, &dj) in det.iter().zip(dep) {
            let b = ((dx / self.bucket_width) as usize).min(n - 1);
            out[b].0 += 1;
            out[b].1.expand(dj);
        }
        out
    }

    /// Bucket `b`'s determinant interval `[b·w, (b+1)·w]`, clipped at 1.
    fn bucket_interval(&self, b: usize) -> Interval {
        let w = self.bucket_width;
        Interval::new(b as f64 * w, ((b + 1) as f64 * w).min(1.0))
    }
}

/// Deterministically lists `max_pairs` row pairs `(i, k)` with
/// `i < k < n`: every pair in order when there are at most `max_pairs`,
/// otherwise a pseudo-random draw that may repeat a pair.
fn sample_pairs(n: usize, max_pairs: usize) -> Vec<(usize, usize)> {
    let total = n.saturating_mul(n.saturating_sub(1)) / 2;
    let mut out = Vec::with_capacity(total.min(max_pairs));
    if total <= max_pairs {
        for i in 0..n {
            for k in (i + 1)..n {
                out.push((i, k));
            }
        }
        return out;
    }
    // Stride through the pair space with a multiplicative step; xorshift
    // mixes the index so pairs are spread rather than clustered.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    while out.len() < max_pairs {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let i = (state % n as u64) as usize;
        let k = ((state >> 32) % n as u64) as usize;
        if i < k {
            out.push((i, k));
        } else if k < i {
            out.push((k, i));
        }
    }
    out
}

/// Every attribute's distances over `pairs`, one dense vector per
/// attribute: 0 for equal value ids, else the values' Jaccard distance.
fn pair_distances(repo: &Repository, pairs: &[(usize, usize)]) -> Vec<Vec<f64>> {
    (0..repo.schema().arity())
        .map(|j| {
            let dom = repo.domain(j);
            pairs
                .iter()
                .map(|&(a, b)| {
                    let (ia, ib) = (repo.value_id(a, j), repo.value_id(b, j));
                    if ia == ib {
                        0.0
                    } else {
                        dom.value(ia.min(ib))
                            .jaccard_distance(dom.value(ia.max(ib)))
                    }
                })
                .collect()
        })
        .collect()
}

/// Detects CDD rules (interval, constant, and combined) for every
/// dependent attribute. Output order is deterministic.
pub fn detect_cdds(repo: &Repository, cfg: &DiscoveryConfig) -> Vec<Cdd> {
    let d = repo.schema().arity();
    if repo.len() < 2 {
        return Vec::new();
    }
    let sampled = pair_distances(repo, &sample_pairs(repo.len(), cfg.max_pairs));

    // Mined determinant by determinant, so that one constant group's
    // distances serve every dependent; listed dependent by dependent.
    let mut found: Vec<Vec<Cdd>> = vec![Vec::new(); d * d];
    for det in 0..d {
        // ---- interval rules: bucket determinant distances ----
        for dep in (0..d).filter(|&j| j != det) {
            let buckets = cfg.buckets(&sampled[det], &sampled[dep]);
            for (b, (cnt, dep_iv)) in buckets.into_iter().enumerate() {
                if cfg.accepts(cnt, dep_iv) {
                    found[dep * d + det].push(Cdd::new(
                        vec![(det, Constraint::Interval(cfg.bucket_interval(b)))],
                        dep,
                        dep_iv,
                    ));
                }
            }
        }

        // ---- constant refinement ----
        for (vid, rows) in constant_groups(repo, det, cfg.min_constant_support) {
            // The constant pass reads one pair more than the combined pass.
            let pairs: Vec<(usize, usize)> = rows
                .iter()
                .enumerate()
                .flat_map(|(ai, &ra)| rows[ai + 1..].iter().map(move |&rb| (ra, rb)))
                .take(cfg.max_pairs.saturating_add(1))
                .collect();
            let dists = pair_distances(repo, &pairs);
            let combined_len = pairs.len().min(cfg.max_pairs);
            let v = repo.domain(det).value(vid);
            for dep in (0..d).filter(|&j| j != det) {
                let rules = &mut found[dep * d + det];
                let mut dep_iv = Interval::empty();
                dists[dep].iter().for_each(|&dj| dep_iv.expand(dj));
                if pairs.len() < cfg.min_support || dep_iv.is_empty() {
                    continue;
                }
                let constant_accepted = dep_iv.hi <= cfg.accept_max;
                if constant_accepted {
                    rules.push(Cdd::new(
                        vec![(det, Constraint::Constant(v.clone()))],
                        dep,
                        dep_iv,
                    ));
                }

                // ---- combined constant + interval rules ----
                // Mined regardless of whether the single-constant rule was
                // accepted: combining a second determinant is most valuable
                // exactly when the constant alone is too loose (the paper's
                // editing-rule refinement rationale).
                for det2 in (0..d).filter(|&j| j != dep && j != det) {
                    let buckets =
                        cfg.buckets(&dists[det2][..combined_len], &dists[dep][..combined_len]);
                    for (b, (cnt, iv)) in buckets.into_iter().enumerate() {
                        // When the single-constant rule was accepted, only
                        // keep a combined rule that is strictly tighter.
                        if cfg.accepts(cnt, iv) && (!constant_accepted || iv.hi < dep_iv.hi) {
                            rules.push(Cdd::new(
                                vec![
                                    (det, Constraint::Constant(v.clone())),
                                    (det2, Constraint::Interval(cfg.bucket_interval(b))),
                                ],
                                dep,
                                iv,
                            ));
                        }
                    }
                }
            }
        }
    }
    found.into_iter().flatten().collect()
}

/// Detects plain differential dependencies: interval-only rules with the
/// classical `ε.min = 0` (so both constraints are anchored at zero). DDs
/// tolerate wider determinant ranges and therefore produce looser dependent
/// intervals — the behaviour behind the `DD+ER` baseline's lower accuracy
/// and higher cost (Figures 5, 13–17).
pub fn detect_dds(repo: &Repository, cfg: &DiscoveryConfig) -> Vec<Cdd> {
    let mut rules = Vec::new();
    let d = repo.schema().arity();
    if repo.len() < 2 {
        return rules;
    }
    let sampled = pair_distances(repo, &sample_pairs(repo.len(), cfg.max_pairs));
    for dep in 0..d {
        for det in (0..d).filter(|&j| j != dep) {
            // Cumulative buckets [0, (b+1)·w]: classical zero-anchored DDs.
            // A pair in bucket b belongs to every cumulative bucket ≥ b.
            let (mut cnt, mut span) = (0, Interval::empty());
            for (b, (bcnt, iv)) in cfg
                .buckets(&sampled[det], &sampled[dep])
                .into_iter()
                .enumerate()
            {
                cnt += bcnt;
                if !iv.is_empty() {
                    span.expand(iv.lo);
                    span.expand(iv.hi);
                }
                if cfg.accepts(cnt, span) {
                    let hi = cfg.bucket_interval(b).hi;
                    rules.push(Cdd::new(
                        vec![(det, Constraint::Interval(Interval::new(0.0, hi)))],
                        dep,
                        Interval::new(0.0, span.hi),
                    ));
                }
            }
        }
    }
    rules
}

/// Detects editing rules (reference \[12\]): constant determinants whose
/// group agrees *exactly* on the dependent attribute (`A_j.I = [0, 0]`).
pub fn detect_editing_rules(repo: &Repository, cfg: &DiscoveryConfig) -> Vec<Cdd> {
    let mut rules = Vec::new();
    let d = repo.schema().arity();
    let groups: Vec<_> = (0..d)
        .map(|det| constant_groups(repo, det, cfg.min_constant_support))
        .collect();
    for dep in 0..d {
        for det in (0..d).filter(|&j| j != dep) {
            for (vid, rows) in &groups[det] {
                let first_dep = repo.value_id(rows[0], dep);
                if rows.iter().all(|&r| repo.value_id(r, dep) == first_dep) {
                    rules.push(Cdd::new(
                        vec![(
                            det,
                            Constraint::Constant(repo.domain(det).value(*vid).clone()),
                        )],
                        dep,
                        Interval::point(0.0),
                    ));
                }
            }
        }
    }
    rules
}

/// Groups repository rows by their value id on `attr`, keeping groups with
/// at least `min_support` members. Deterministic order (by value id).
fn constant_groups(repo: &Repository, attr: usize, min_support: usize) -> Vec<(u32, Vec<usize>)> {
    let mut groups: FxHashMap<u32, Vec<usize>> = FxHashMap::default();
    for row in 0..repo.len() {
        groups
            .entry(repo.value_id(row, attr))
            .or_default()
            .push(row);
    }
    let mut out: Vec<(u32, Vec<usize>)> = groups
        .into_iter()
        .filter(|(_, rows)| rows.len() >= min_support)
        .collect();
    out.sort_by_key(|(vid, _)| *vid);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ter_repo::{Record, Schema};
    use ter_text::Dictionary;

    /// A repository where gender tightly determines diagnosis vocabulary:
    /// males have diabetes-flavoured diagnoses, females flu-flavoured.
    fn correlated_repo() -> Repository {
        let schema = Schema::new(vec!["gender", "symptom", "diagnosis"]);
        let mut dict = Dictionary::new();
        let mut recs = Vec::new();
        for i in 0..12u64 {
            let (g, s, dx) = if i % 2 == 0 {
                ("male", "weight loss blurred vision", "type two diabetes")
            } else {
                ("female", "fever cough aches", "seasonal flu")
            };
            recs.push(Record::from_texts(
                &schema,
                i,
                &[Some(g), Some(s), Some(dx)],
                &mut dict,
            ));
        }
        Repository::from_records(schema, recs)
    }

    #[test]
    fn detects_constant_rules_on_correlated_data() {
        let repo = correlated_repo();
        let rules = detect_cdds(&repo, &DiscoveryConfig::default());
        assert!(!rules.is_empty());
        // There must be a constant rule gender → diagnosis with a tight
        // (zero-width) dependent interval.
        let tight_constant = rules.iter().any(|r| {
            r.dependent == 2
                && r.dependent_interval.hi == 0.0
                && r.determinants()
                    .iter()
                    .any(|(a, c)| *a == 0 && matches!(c, Constraint::Constant(_)))
        });
        assert!(tight_constant, "rules: {}", rules.len());
    }

    #[test]
    fn discovered_rules_hold_on_training_data() {
        let repo = correlated_repo();
        let rules = detect_cdds(&repo, &DiscoveryConfig::default());
        for rule in &rules {
            for i in 0..repo.len() {
                for k in (i + 1)..repo.len() {
                    assert!(
                        rule.holds_on(repo.sample(i), repo.sample(k)),
                        "rule {rule:?} violated by pair ({i},{k})"
                    );
                }
            }
        }
    }

    #[test]
    fn editing_rules_require_exact_agreement() {
        let repo = correlated_repo();
        let ers = detect_editing_rules(&repo, &DiscoveryConfig::default());
        assert!(!ers.is_empty());
        for r in &ers {
            assert!(r.is_editing_rule());
        }
    }

    #[test]
    fn dds_are_zero_anchored_and_interval_only() {
        let repo = correlated_repo();
        let dds = detect_dds(&repo, &DiscoveryConfig::default());
        for r in &dds {
            assert!(r.is_dd());
            for (_, c) in r.determinants() {
                if let Constraint::Interval(i) = c {
                    assert_eq!(i.lo, 0.0);
                }
            }
            assert_eq!(r.dependent_interval.lo, 0.0);
        }
    }

    #[test]
    fn dd_intervals_no_tighter_than_cdd() {
        // The whole point of CDDs (and of the paper's accuracy argument):
        // a DD's dependent interval on the same (attr→attr) direction is
        // at least as wide as the best CDD's.
        let repo = correlated_repo();
        let cfg = DiscoveryConfig::default();
        let cdds = detect_cdds(&repo, &cfg);
        let dds = detect_dds(&repo, &cfg);
        let best_cdd = cdds
            .iter()
            .filter(|r| r.dependent == 2)
            .map(|r| r.dependent_interval.hi)
            .fold(f64::INFINITY, f64::min);
        let best_dd = dds
            .iter()
            .filter(|r| r.dependent == 2)
            .map(|r| r.dependent_interval.hi)
            .fold(f64::INFINITY, f64::min);
        if best_dd.is_finite() && best_cdd.is_finite() {
            assert!(best_cdd <= best_dd);
        }
    }

    #[test]
    fn tiny_repository_yields_no_rules() {
        let schema = Schema::new(vec!["a", "b"]);
        let mut dict = Dictionary::new();
        let recs = vec![Record::from_texts(
            &schema,
            1,
            &[Some("x"), Some("y")],
            &mut dict,
        )];
        let repo = Repository::from_records(schema, recs);
        assert!(detect_cdds(&repo, &DiscoveryConfig::default()).is_empty());
        assert!(detect_dds(&repo, &DiscoveryConfig::default()).is_empty());
    }

    #[test]
    fn sample_pairs_is_capped_ordered_and_deterministic() {
        let pairs = sample_pairs(100, 50);
        assert_eq!(pairs.len(), 50);
        for &(i, k) in &pairs {
            assert!(i < k && k < 100);
        }
        assert_eq!(pairs, sample_pairs(100, 50));
        // Below the cap every pair is listed once, in order.
        let all = sample_pairs(10, 1000);
        let expected: Vec<(usize, usize)> = (0..10)
            .flat_map(|i| ((i + 1)..10).map(move |k| (i, k)))
            .collect();
        assert_eq!(all, expected);
    }

    /// One constant group of four rows on `g`, so its pairs in enumeration
    /// order are (0,1), (0,2), (0,3), (1,2), (1,3) and (2,3). With
    /// `max_pairs` = 5 the constant pass sees all six pairs and the
    /// combined pass the first five: only the last, (2,3), reaches the
    /// dependent's widest distance.
    #[test]
    fn constant_pass_sees_one_pair_more_than_combined_pass() {
        let schema = Schema::new(vec!["g", "dep", "other"]);
        let mut dict = Dictionary::new();
        let deps = ["a b c d", "a b c d", "a b c d x", "a b c d y"];
        let recs = deps
            .iter()
            .enumerate()
            .map(|(i, dep)| {
                Record::from_texts(
                    &schema,
                    i as u64,
                    &[Some("grp"), Some(dep), Some("same")],
                    &mut dict,
                )
            })
            .collect();
        let repo = Repository::from_records(schema, recs);
        let dist = |a: usize, b: usize| {
            let (va, vb) = (repo.sample(a).attr(1), repo.sample(b).attr(1));
            va.unwrap().jaccard_distance(vb.unwrap())
        };
        let (pair5, first5) = (dist(2, 3), dist(0, 2));
        assert!(pair5 > first5 && pair5 <= 0.6);

        let cfg = DiscoveryConfig {
            max_pairs: 5,
            ..DiscoveryConfig::default()
        };
        let rules = detect_cdds(&repo, &cfg);
        let on_g = |r: &&Cdd| {
            r.dependent == 1 && matches!(r.determinants()[0], (0, Constraint::Constant(_)))
        };
        let constant: Vec<&Cdd> = rules
            .iter()
            .filter(on_g)
            .filter(|r| r.determinants().len() == 1)
            .collect();
        let combined: Vec<&Cdd> = rules
            .iter()
            .filter(on_g)
            .filter(|r| r.determinants().len() == 2)
            .collect();
        assert_eq!(constant.len(), 1);
        assert_eq!(constant[0].dependent_interval, Interval::new(0.0, pair5));
        assert_eq!(combined.len(), 1);
        assert_eq!(combined[0].dependent_interval, Interval::new(0.0, first5));
        assert_eq!(
            combined[0].determinants()[1],
            (2, Constraint::Interval(Interval::new(0.0, 0.25)))
        );
    }

    #[test]
    fn discovery_is_deterministic() {
        let repo = correlated_repo();
        let a = detect_cdds(&repo, &DiscoveryConfig::default());
        let b = detect_cdds(&repo, &DiscoveryConfig::default());
        assert_eq!(a, b);
    }
}
