//! Evaluation metrics: F-score (Equation 6), pruning power (Figure 4),
//! and per-phase timing (Figure 6's break-up cost).

use std::time::Duration;

use ter_text::fxhash::FxHashSet;

/// Precision / recall / F-score of a reported pair set against ground
/// truth (Equation 6: recall = |reported ∩ truth| / |truth|, precision =
/// |reported ∩ truth| / |reported|).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// False negatives.
    pub fn_: usize,
    /// `tp / (tp + fp)`; 1 when nothing was reported and truth is empty.
    pub precision: f64,
    /// `tp / (tp + fn)`.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f_score: f64,
}

/// Evaluates reported pairs against ground truth. Pairs must be
/// order-normalized `(min, max)` in both sets.
pub fn evaluate(
    reported: &FxHashSet<(u64, u64)>,
    groundtruth: &FxHashSet<(u64, u64)>,
) -> Evaluation {
    let tp = reported.intersection(groundtruth).count();
    let fp = reported.len() - tp;
    let fn_ = groundtruth.len() - tp;
    let precision = if reported.is_empty() {
        if groundtruth.is_empty() {
            1.0
        } else {
            0.0
        }
    } else {
        tp as f64 / reported.len() as f64
    };
    let recall = if groundtruth.is_empty() {
        1.0
    } else {
        tp as f64 / groundtruth.len() as f64
    };
    let f_score = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    Evaluation {
        tp,
        fp,
        fn_,
        precision,
        recall,
        f_score,
    }
}

/// Cumulative pruning counters, applied in the paper's order
/// (Figure 4): topic keyword → similarity UB → probability UB →
/// instance-pair-level; survivors are refined exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Candidate tuple pairs considered (new tuple × other-stream window
    /// tuples).
    pub total_pairs: u64,
    /// Pruned by Theorem 4.1 (topic keywords).
    pub topic: u64,
    /// Pruned by Theorem 4.2 (a similarity upper bound: token signatures,
    /// or pivot distances and token-set sizes; pairs the candidate scan
    /// rejects by signature are counted here too).
    pub sim: u64,
    /// Pruned by Theorem 4.3 (probability upper bound).
    pub prob: u64,
    /// Rejected by Theorem 4.4 (instance-pair-level, incl. full refinement
    /// concluding `Pr ≤ α`).
    pub instance: u64,
    /// Pairs reported as matches.
    pub matches: u64,
}

impl PruneStats {
    /// Fraction of candidate pairs pruned by each strategy, in paper order.
    /// Returns `(topic, sim, prob, instance)` as percentages of
    /// `total_pairs`.
    pub fn percentages(&self) -> (f64, f64, f64, f64) {
        if self.total_pairs == 0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let t = self.total_pairs as f64;
        (
            100.0 * self.topic as f64 / t,
            100.0 * self.sim as f64 / t,
            100.0 * self.prob as f64 / t,
            100.0 * self.instance as f64 / t,
        )
    }

    /// Total pruned fraction (percent).
    pub fn total_pruned_pct(&self) -> f64 {
        let (a, b, c, d) = self.percentages();
        a + b + c + d
    }
}

/// Per-phase wall-clock accounting (Figure 6's break-up: online CDD
/// selection, online imputation, online ER).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTiming {
    /// Time selecting applicable CDD rules.
    pub rule_selection: Duration,
    /// Time retrieving samples and building candidate distributions.
    pub imputation: Duration,
    /// Time on candidate retrieval + pruning + refinement.
    pub er: Duration,
    /// Number of processed arrivals (for averaging).
    pub arrivals: u64,
}

impl PhaseTiming {
    /// Adds another timing record.
    pub fn accumulate(&mut self, other: &PhaseTiming) {
        self.rule_selection += other.rule_selection;
        self.imputation += other.imputation;
        self.er += other.er;
        self.arrivals += other.arrivals;
    }

    /// Total wall-clock across phases.
    pub fn total(&self) -> Duration {
        self.rule_selection + self.imputation + self.er
    }

    /// Average seconds per arrival (the paper's per-timestamp wall clock).
    pub fn avg_secs_per_arrival(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.total().as_secs_f64() / self.arrivals as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(pairs: &[(u64, u64)]) -> FxHashSet<(u64, u64)> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn perfect_match() {
        let e = evaluate(&set(&[(1, 2), (3, 4)]), &set(&[(1, 2), (3, 4)]));
        assert_eq!(e.f_score, 1.0);
        assert_eq!((e.tp, e.fp, e.fn_), (2, 0, 0));
    }

    #[test]
    fn partial_overlap() {
        let e = evaluate(&set(&[(1, 2), (5, 6)]), &set(&[(1, 2), (3, 4)]));
        assert_eq!(e.precision, 0.5);
        assert_eq!(e.recall, 0.5);
        assert_eq!(e.f_score, 0.5);
    }

    #[test]
    fn nothing_reported() {
        let e = evaluate(&set(&[]), &set(&[(1, 2)]));
        assert_eq!(e.precision, 0.0);
        assert_eq!(e.recall, 0.0);
        assert_eq!(e.f_score, 0.0);
    }

    #[test]
    fn empty_truth_and_empty_report_is_perfect() {
        let e = evaluate(&set(&[]), &set(&[]));
        assert_eq!(e.f_score, 1.0);
    }

    #[test]
    fn prune_percentages() {
        let s = PruneStats {
            total_pairs: 200,
            topic: 160,
            sim: 20,
            prob: 10,
            instance: 6,
            matches: 4,
        };
        let (t, si, p, i) = s.percentages();
        assert_eq!(t, 80.0);
        assert_eq!(si, 10.0);
        assert_eq!(p, 5.0);
        assert_eq!(i, 3.0);
        assert_eq!(s.total_pruned_pct(), 98.0);
    }

    #[test]
    fn zero_pairs_percentages_are_zero() {
        assert_eq!(PruneStats::default().percentages(), (0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn timing_accumulation_and_average() {
        let mut t = PhaseTiming::default();
        t.accumulate(&PhaseTiming {
            rule_selection: Duration::from_millis(10),
            imputation: Duration::from_millis(20),
            er: Duration::from_millis(30),
            arrivals: 2,
        });
        t.accumulate(&PhaseTiming {
            rule_selection: Duration::from_millis(10),
            imputation: Duration::from_millis(0),
            er: Duration::from_millis(30),
            arrivals: 2,
        });
        assert_eq!(t.total(), Duration::from_millis(100));
        assert!((t.avg_secs_per_arrival() - 0.025).abs() < 1e-12);
    }
}
