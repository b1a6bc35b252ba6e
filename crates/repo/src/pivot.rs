//! Cost-model-based pivot selection (§5.4 and Appendix B).
//!
//! Textual attribute values are converted to numbers via Jaccard distance to
//! *pivot* strings; the CDD-index and the pair-level pivot bounds operate
//! in that converted space (the DR-index is token postings, see
//! [`crate::drindex`]). A good
//! pivot spreads the converted values evenly, which the paper measures with
//! the Shannon entropy of a `P`-bucket histogram (Equation 5):
//!
//! ```text
//! H(piv_a[A_x]) = − Σ_b pdf[p_b] · log(pdf[p_b])
//! ```
//!
//! Appendix B's algorithm: per attribute, pick the domain value with the
//! largest entropy as the *main* pivot; while the joint entropy of the
//! selected pivots stays below `eMin` and fewer than `cntMax` pivots are
//! chosen, greedily add the *auxiliary* pivot that maximizes the joint
//! entropy (each new pivot subdivides the converted space further).

use ter_text::fxhash::FxHashMap;
use ter_text::TokenSet;

use crate::repository::Repository;

/// Tunables of the pivot cost model (paper defaults: `P = 10`,
/// `eMin = 1.5`, `cntMax` varied in `[1, 5]` in Figure 11(b)).
#[derive(Debug, Clone, Copy)]
pub struct PivotConfig {
    /// Number of histogram buckets `P` in Equation (5).
    pub buckets: usize,
    /// Minimal acceptable (joint) entropy `eMin`.
    pub e_min: f64,
    /// Maximal number of pivots per attribute `cntMax`.
    pub cnt_max: usize,
    /// Cap on candidate pivot values examined per attribute (the paper
    /// scans the whole domain; large domains make that quadratic, so we
    /// deterministically subsample evenly spaced candidates).
    pub max_candidates: usize,
    /// Cap on repository samples used to estimate the histograms.
    pub max_samples: usize,
}

impl Default for PivotConfig {
    fn default() -> Self {
        Self {
            buckets: 10,
            e_min: 1.5,
            cnt_max: 3,
            max_candidates: 64,
            max_samples: 512,
        }
    }
}

/// Selected pivots for one attribute. `pivots[0]` is the main pivot used
/// for the metric-space conversion; the rest are auxiliary pivots used only
/// in index aggregates.
#[derive(Debug, Clone)]
pub struct AttributePivots {
    /// Pivot attribute values, main first.
    pub pivots: Vec<TokenSet>,
    /// Joint entropy achieved after selecting each prefix of `pivots`.
    pub entropy_trace: Vec<f64>,
}

impl AttributePivots {
    /// The main pivot `piv_1[A_x]`.
    pub fn main(&self) -> &TokenSet {
        &self.pivots[0]
    }

    /// Auxiliary pivots `piv_a`, `a ≥ 2`.
    pub fn auxiliaries(&self) -> &[TokenSet] {
        &self.pivots[1..]
    }

    /// Total number of pivots `n_x`.
    pub fn count(&self) -> usize {
        self.pivots.len()
    }
}

/// All selected pivots, one [`AttributePivots`] per attribute, plus the
/// conversion helpers used everywhere downstream.
#[derive(Debug, Clone)]
pub struct PivotTable {
    per_attr: Vec<AttributePivots>,
}

impl PivotTable {
    /// Runs the Appendix B selection over repository `R`.
    ///
    /// # Panics
    /// Panics if the repository is empty (there is nothing to pivot on).
    pub fn select(repo: &Repository, cfg: &PivotConfig) -> Self {
        assert!(
            !repo.is_empty(),
            "cannot select pivots from an empty repository"
        );
        let d = repo.schema().arity();
        let per_attr = (0..d).map(|j| select_for_attr(repo, j, cfg)).collect();
        Self { per_attr }
    }

    /// Builds a table from explicit pivots (tests, degenerate setups).
    pub fn from_pivots(per_attr: Vec<AttributePivots>) -> Self {
        assert!(per_attr.iter().all(|p| !p.pivots.is_empty()));
        Self { per_attr }
    }

    /// Pivots of attribute `j`.
    pub fn attr(&self, j: usize) -> &AttributePivots {
        &self.per_attr[j]
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.per_attr.len()
    }

    /// Converts one attribute value: `dist(value, piv_1[A_j])`.
    #[inline]
    pub fn convert_value(&self, j: usize, value: &TokenSet) -> f64 {
        self.per_attr[j].main().jaccard_distance(value)
    }

    /// Distance to auxiliary pivot `a` (0-based among auxiliaries).
    #[inline]
    pub fn aux_distance(&self, j: usize, a: usize, value: &TokenSet) -> f64 {
        self.per_attr[j].auxiliaries()[a].jaccard_distance(value)
    }

    /// Number of auxiliary pivots of attribute `j`.
    pub fn aux_count(&self, j: usize) -> usize {
        self.per_attr[j].count() - 1
    }
}

/// Shannon entropy (Equation 5) of the bucket histogram of `dists`.
pub fn bucket_entropy(dists: &[f64], buckets: usize) -> f64 {
    if dists.is_empty() {
        return 0.0;
    }
    let mut counts = vec![0usize; buckets];
    for &d in dists {
        let b = ((d.clamp(0.0, 1.0)) * buckets as f64) as usize;
        counts[b.min(buckets - 1)] += 1;
    }
    let n = dists.len() as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.ln()
        })
        .sum()
}

/// Joint entropy of the multi-pivot bucketization: each sample maps to the
/// tuple of its bucket ids under every selected pivot; entropy is taken
/// over that joint histogram (more pivots ⇒ finer cells ⇒ entropy can only
/// grow, matching Appendix B's "divide the converted space into more
/// sub-intervals").
fn joint_entropy(per_pivot_dists: &[Vec<f64>], buckets: usize) -> f64 {
    let n = per_pivot_dists.first().map_or(0, Vec::len);
    if n == 0 {
        return 0.0;
    }
    let mut counts: FxHashMap<u64, usize> = FxHashMap::default();
    for i in 0..n {
        // Pack bucket ids into a u64 key (buckets ≤ 2^8 per pivot, ≤ 8 pivots).
        let mut key = 0u64;
        for dists in per_pivot_dists {
            let b = ((dists[i].clamp(0.0, 1.0)) * buckets as f64) as u64;
            key = key << 8 | b.min(buckets as u64 - 1);
        }
        *counts.entry(key).or_insert(0) += 1;
    }
    counts
        .values()
        .map(|&c| {
            let p = c as f64 / n as f64;
            -p * p.ln()
        })
        .sum()
}

/// Evenly subsamples `k` indices out of `0..n` (deterministic).
fn subsample_indices(n: usize, k: usize) -> Vec<usize> {
    if n <= k {
        return (0..n).collect();
    }
    (0..k).map(|i| i * n / k).collect()
}

fn select_for_attr(repo: &Repository, j: usize, cfg: &PivotConfig) -> AttributePivots {
    let domain = repo.domain(j);
    let sample_rows = subsample_indices(repo.len(), cfg.max_samples);
    let sample_values: Vec<&TokenSet> = sample_rows
        .iter()
        .map(|&i| repo.sample(i).attr(j).unwrap())
        .collect();
    let candidate_ids = subsample_indices(domain.len(), cfg.max_candidates);

    // Distances of every sample to every candidate pivot.
    let cand_dists: Vec<Vec<f64>> = candidate_ids
        .iter()
        .map(|&cid| {
            let piv = domain.value(cid as u32);
            sample_values
                .iter()
                .map(|v| piv.jaccard_distance(v))
                .collect()
        })
        .collect();

    // Main pivot: maximal single entropy.
    let entropies: Vec<f64> = cand_dists
        .iter()
        .map(|d| bucket_entropy(d, cfg.buckets))
        .collect();
    let best = entropies
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .unwrap_or(0);

    let mut chosen = vec![best];
    let mut chosen_dists = vec![cand_dists[best].clone()];
    let mut trace = vec![entropies[best]];

    // Greedy auxiliary pivots while joint entropy < eMin.
    while *trace.last().unwrap() < cfg.e_min && chosen.len() < cfg.cnt_max {
        let mut best_gain: Option<(usize, f64)> = None;
        for (ci, dists) in cand_dists.iter().enumerate() {
            if chosen.contains(&ci) {
                continue;
            }
            chosen_dists.push(dists.clone());
            let h = joint_entropy(&chosen_dists, cfg.buckets);
            chosen_dists.pop();
            if best_gain.is_none_or(|(_, bh)| h > bh) {
                best_gain = Some((ci, h));
            }
        }
        let Some((ci, h)) = best_gain else { break };
        // Stop if the extra pivot does not improve the joint entropy.
        if h <= *trace.last().unwrap() + 1e-12 {
            break;
        }
        chosen.push(ci);
        chosen_dists.push(cand_dists[ci].clone());
        trace.push(h);
    }

    AttributePivots {
        pivots: chosen
            .iter()
            .map(|&ci| domain.value(candidate_ids[ci] as u32).clone())
            .collect(),
        entropy_trace: trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Record, Schema};
    use ter_text::Dictionary;

    fn repo_with_values(values: &[&str]) -> (Repository, Dictionary) {
        let schema = Schema::new(vec!["a"]);
        let mut dict = Dictionary::new();
        let recs = values
            .iter()
            .enumerate()
            .map(|(i, v)| Record::from_texts(&schema, i as u64, &[Some(v)], &mut dict))
            .collect();
        (Repository::from_records(schema, recs), dict)
    }

    #[test]
    fn entropy_of_uniform_buckets_is_high() {
        let dists: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let h = bucket_entropy(&dists, 10);
        assert!((h - (10.0f64).ln()).abs() < 1e-9, "h={h}");
    }

    #[test]
    fn entropy_of_single_bucket_is_zero() {
        let dists = vec![0.45; 50];
        assert_eq!(bucket_entropy(&dists, 10), 0.0);
    }

    #[test]
    fn entropy_empty_is_zero() {
        assert_eq!(bucket_entropy(&[], 10), 0.0);
    }

    #[test]
    fn joint_entropy_monotone_in_pivots() {
        let d1: Vec<f64> = (0..64).map(|i| (i % 4) as f64 / 4.0).collect();
        let d2: Vec<f64> = (0..64).map(|i| (i % 8) as f64 / 8.0).collect();
        let single = joint_entropy(std::slice::from_ref(&d1), 10);
        let joint = joint_entropy(&[d1, d2], 10);
        assert!(joint >= single - 1e-12);
    }

    #[test]
    fn select_picks_a_pivot_per_attribute() {
        let (repo, _) = repo_with_values(&[
            "alpha beta",
            "alpha gamma",
            "beta gamma delta",
            "delta epsilon",
            "epsilon zeta",
            "zeta alpha",
            "gamma delta",
            "beta epsilon",
        ]);
        let table = PivotTable::select(&repo, &PivotConfig::default());
        assert_eq!(table.arity(), 1);
        assert!(table.attr(0).count() >= 1);
        assert!(table.attr(0).count() <= 3);
    }

    #[test]
    fn low_entropy_domain_adds_auxiliaries_up_to_cnt_max() {
        // All values identical → every pivot has zero entropy; the
        // algorithm must stop at the no-improvement check, not loop.
        let (repo, _) = repo_with_values(&["same", "same", "same", "same"]);
        let cfg = PivotConfig {
            e_min: 5.0,
            cnt_max: 4,
            ..PivotConfig::default()
        };
        let table = PivotTable::select(&repo, &cfg);
        assert_eq!(table.attr(0).count(), 1);
        assert_eq!(table.attr(0).entropy_trace[0], 0.0);
    }

    #[test]
    fn convert_value_is_distance_to_main() {
        let (repo, mut dict) = repo_with_values(&["alpha beta", "gamma delta"]);
        let table = PivotTable::select(&repo, &PivotConfig::default());
        let v = ter_text::tokenize("alpha beta", &mut dict);
        let expected = table.attr(0).main().jaccard_distance(&v);
        assert_eq!(table.convert_value(0, &v), expected);
    }

    #[test]
    #[should_panic(expected = "empty repository")]
    fn empty_repo_panics() {
        let schema = Schema::new(vec!["a"]);
        let repo = Repository::new(schema);
        let _ = PivotTable::select(&repo, &PivotConfig::default());
    }

    #[test]
    fn high_e_min_selects_multiple_pivots_when_useful() {
        // Values spread so that one pivot cannot reach eMin but more help.
        let vals: Vec<String> = (0..32)
            .map(|i| {
                let mut words = Vec::new();
                for w in 0..5 {
                    words.push(format!("w{}", (i * 7 + w * 3) % 16));
                }
                words.join(" ")
            })
            .collect();
        let refs: Vec<&str> = vals.iter().map(String::as_str).collect();
        let (repo, _) = repo_with_values(&refs);
        let cfg = PivotConfig {
            e_min: 3.0,
            cnt_max: 4,
            ..PivotConfig::default()
        };
        let table = PivotTable::select(&repo, &cfg);
        let ap = table.attr(0);
        // Either reached eMin or used more than one pivot trying.
        assert!(ap.count() > 1 || *ap.entropy_trace.last().unwrap() >= cfg.e_min);
        // Entropy trace is non-decreasing.
        assert!(ap.entropy_trace.windows(2).all(|w| w[1] >= w[0] - 1e-12));
    }
}
