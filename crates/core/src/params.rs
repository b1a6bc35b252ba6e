//! Engine parameters (Table 5 of the paper).

use ter_impute::ImputeConfig;

/// How much of the §4 pruning arsenal an engine applies. The batched and
/// the per-arrival drive must agree bit-for-bit under either mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruningMode {
    /// All four pair-level prunings + early-terminated refinement — the
    /// full TER-iDS method.
    Full,
    /// Index pruning only; the candidates it yields are refined by full
    /// exact probability. This is the `I_j+G_ER` baseline: indexes
    /// applied, but none of the probability or instance-level pruning.
    /// The candidate scan is shared with [`PruningMode::Full`], signature
    /// test included, and the pivot and size bound the ER-grid's cells
    /// used to apply is applied per pair instead, so pairs either rejects
    /// count as `sim` here too.
    GridOnly,
}

/// TER-iDS runtime parameters. Paper defaults (Table 5, bold): `α = 0.5`,
/// `ρ = 0.5`, `w = 1000`; the reproduction's harness scales `w` down (see
/// DESIGN.md §5) but keeps the same ratios.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Probabilistic threshold `α ∈ [0, 1)`: report pairs with
    /// `Pr_TER-iDS > α`.
    pub alpha: f64,
    /// Similarity-threshold ratio `ρ = γ / d ∈ (0, 1)`; the similarity
    /// threshold is `γ = ρ · d` (per-attribute similarities sum to `d`).
    pub rho: f64,
    /// Sliding-window size `w` (count-based, Definition 2).
    pub window: usize,
    /// Fanout of the pivot aR-tree the DR-index used to be. No index
    /// reads it now (the DR-index is inverted postings, and the CDD-index
    /// sizes its own trees); only the store's context fingerprint does,
    /// so existing stores keep opening under the same parameters.
    pub fanout: usize,
    /// Imputation candidate cap.
    pub impute: ImputeConfig,
    /// Donor count for the `con+ER` baseline.
    pub donors: usize,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            alpha: 0.5,
            rho: 0.5,
            window: 400,
            fanout: 16,
            impute: ImputeConfig::default(),
            donors: 3,
        }
    }
}

impl Params {
    /// The absolute similarity threshold `γ = ρ · d` for arity `d`.
    pub fn gamma(&self, arity: usize) -> f64 {
        self.rho * arity as f64
    }

    /// Validates parameter ranges (problem statement: `γ ∈ (0, d)`,
    /// `α ∈ [0, 1)`).
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.alpha) {
            return Err(format!("alpha {} outside [0,1)", self.alpha));
        }
        if !(self.rho > 0.0 && self.rho < 1.0) {
            return Err(format!("rho {} outside (0,1)", self.rho));
        }
        if self.window == 0 {
            return Err("window must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_5_ratios() {
        let p = Params::default();
        assert_eq!(p.alpha, 0.5);
        assert_eq!(p.rho, 0.5);
        p.validate().unwrap();
    }

    #[test]
    fn gamma_scales_with_arity() {
        let p = Params {
            rho: 0.5,
            ..Params::default()
        };
        assert_eq!(p.gamma(4), 2.0);
        assert_eq!(p.gamma(7), 3.5);
    }

    #[test]
    fn validation_rejects_bad_ranges() {
        let mut p = Params {
            alpha: 1.0,
            ..Params::default()
        };
        assert!(p.validate().is_err());
        p.alpha = 0.5;
        p.rho = 0.0;
        assert!(p.validate().is_err());
        p.rho = 0.5;
        p.window = 0;
        assert!(p.validate().is_err());
    }
}
