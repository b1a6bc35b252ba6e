//! The five baselines of §6.1 ("State-of-the-art Approaches").
//!
//! | name      | imputation                         | ER                     |
//! |-----------|------------------------------------|------------------------|
//! | `Ij+GER`  | CDD rules via indexes              | ER-grid, no pair pruning (lives in [`crate::engine`] as [`crate::PruningMode::GridOnly`]) |
//! | `CDD+ER`  | CDD rules, linear scans            | nested loop, exact     |
//! | `DD+ER`   | DD rules, linear scans             | nested loop, exact     |
//! | `er+ER`   | editing rules, linear scans        | nested loop, exact     |
//! | `con+ER`  | window neighbours (no repository)  | nested loop, exact     |
//!
//! The nested-loop ER computes the exact `Pr_TER-iDS` (Equation 2) for
//! every cross-stream window pair — the quadratic cost the paper's
//! pruning/indexing avoids.

use std::time::Instant;

use ter_impute::{ConstraintImputer, ImputeContext, Imputer, RuleImputer, RuleRetrieval};
use ter_repo::Record;
use ter_stream::{Arrival, ProbTuple, SlidingWindow};
use ter_text::fxhash::{FxHashMap, FxHashSet};

use crate::engine::{StepOutput, TerContext};
use crate::meta::TupleMeta;
use crate::metrics::{PhaseTiming, PruneStats};
use crate::params::Params;
use crate::refine::exact_probability;
use crate::results::{norm_pair, ResultSet};
use crate::ErProcessor;

enum BaselineImputer<'a> {
    Rule(RuleImputer<'a>),
    Constraint(ConstraintImputer),
}

/// A no-index, no-pruning processor: impute, then nested-loop exact ER.
pub struct NaiveEngine<'a> {
    name: &'static str,
    ctx: &'a TerContext,
    params: Params,
    gamma: f64,
    imputer: BaselineImputer<'a>,
    window: SlidingWindow<u64>,
    /// Original (pre-imputation) records in window order — the donor pool
    /// for the constraint-based imputer.
    window_records: Vec<Record>,
    metas: FxHashMap<u64, TupleMeta>,
    results: ResultSet,
    reported: FxHashSet<(u64, u64)>,
    timing: PhaseTiming,
}

impl<'a> NaiveEngine<'a> {
    fn new(
        name: &'static str,
        ctx: &'a TerContext,
        params: Params,
        imputer: BaselineImputer<'a>,
    ) -> Self {
        params.validate().expect("invalid parameters");
        Self {
            name,
            ctx,
            params,
            gamma: params.gamma(ctx.arity()),
            imputer,
            window: SlidingWindow::new(params.window),
            window_records: Vec::new(),
            metas: FxHashMap::default(),
            results: ResultSet::new(),
            reported: FxHashSet::default(),
            timing: PhaseTiming::default(),
        }
    }

    /// `CDD+ER`: CDD imputation without indexes, nested-loop ER.
    pub fn cdd_er(ctx: &'a TerContext, params: Params) -> Self {
        let imputer = RuleImputer::new(
            "CDD-linear",
            &ctx.repo,
            &ctx.cdds,
            RuleRetrieval::Linear,
            params.impute,
        );
        Self::new("CDD+ER", ctx, params, BaselineImputer::Rule(imputer))
    }

    /// `DD+ER`: differential-dependency imputation, nested-loop ER.
    pub fn dd_er(ctx: &'a TerContext, params: Params) -> Self {
        let imputer = RuleImputer::new(
            "DD-linear",
            &ctx.repo,
            &ctx.dds,
            RuleRetrieval::Linear,
            params.impute,
        );
        Self::new("DD+ER", ctx, params, BaselineImputer::Rule(imputer))
    }

    /// `er+ER`: editing-rule imputation, nested-loop ER.
    pub fn er_er(ctx: &'a TerContext, params: Params) -> Self {
        let imputer = RuleImputer::new(
            "er-linear",
            &ctx.repo,
            &ctx.editing_rules,
            RuleRetrieval::Linear,
            params.impute,
        );
        Self::new("er+ER", ctx, params, BaselineImputer::Rule(imputer))
    }

    /// `con+ER`: constraint-based window imputation, nested-loop ER.
    pub fn con_er(ctx: &'a TerContext, params: Params) -> Self {
        let imputer = ConstraintImputer::new(params.donors, params.impute);
        Self::new("con+ER", ctx, params, BaselineImputer::Constraint(imputer))
    }
}

impl ErProcessor for NaiveEngine<'_> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn process(&mut self, arrival: &Arrival) -> StepOutput {
        let mut step = PhaseTiming {
            arrivals: 1,
            ..PhaseTiming::default()
        };

        // ---- expiry ----
        let t = Instant::now();
        let mut retractions = Vec::new();
        let mut expired = Vec::new();
        if let Some((_, old_id)) = self.window.push(arrival.timestamp, arrival.record.id) {
            expired.push(old_id);
            self.metas.remove(&old_id);
            retractions = self.results.remove_involving(old_id);
            if let Some(pos) = self.window_records.iter().position(|r| r.id == old_id) {
                self.window_records.remove(pos);
            }
        }
        step.er += t.elapsed();

        // ---- imputation ----
        let pt = if arrival.record.is_complete() {
            ProbTuple::certain(arrival.record.clone())
        } else {
            match &self.imputer {
                BaselineImputer::Rule(imp) => {
                    let t = Instant::now();
                    let selected = imp.select_rules(&arrival.record);
                    step.rule_selection += t.elapsed();
                    let t = Instant::now();
                    let pt = imp.impute_with_rules(&arrival.record, &selected);
                    step.imputation += t.elapsed();
                    pt
                }
                BaselineImputer::Constraint(imp) => {
                    let t = Instant::now();
                    let ctx = ImputeContext {
                        window: &self.window_records,
                    };
                    let pt = imp.impute(&arrival.record, &ctx);
                    step.imputation += t.elapsed();
                    pt
                }
            }
        };

        // ---- nested-loop exact ER ----
        let t = Instant::now();
        let meta = TupleMeta::build(
            arrival.record.id,
            arrival.stream_id,
            arrival.timestamp,
            pt,
            &self.ctx.pivots,
            &self.ctx.layout,
            &self.ctx.keywords,
        );
        let mut new_matches = Vec::new();
        for (_, &other_id) in self.window.iter() {
            if other_id == meta.id {
                continue;
            }
            let Some(other) = self.metas.get(&other_id) else {
                continue;
            };
            if other.stream_id == meta.stream_id {
                continue;
            }
            let pr = exact_probability(&meta, other, &self.ctx.keywords, self.gamma);
            if pr > self.params.alpha {
                new_matches.push(norm_pair(meta.id, other_id));
            }
        }
        for &(a, b) in &new_matches {
            self.results.insert(a, b);
            self.reported.insert((a, b));
        }
        self.window_records.push(arrival.record.clone());
        self.metas.insert(meta.id, meta);
        step.er += t.elapsed();

        self.timing.accumulate(&step);
        StepOutput {
            new_matches,
            retractions,
            expired,
            timing: step,
        }
    }

    fn results(&self) -> &ResultSet {
        &self.results
    }

    fn reported(&self) -> &FxHashSet<(u64, u64)> {
        &self.reported
    }

    fn prune_stats(&self) -> PruneStats {
        PruneStats::default()
    }

    fn timing(&self) -> PhaseTiming {
        self.timing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{PruningMode, TerIdsEngine};
    use ter_repo::{PivotConfig, Repository, Schema};
    use ter_rules::DiscoveryConfig;
    use ter_stream::StreamSet;
    use ter_text::{Dictionary, KeywordSet};

    fn scenario() -> (TerContext, StreamSet) {
        let schema = Schema::new(vec!["title", "tags"]);
        let mut dict = Dictionary::new();
        let rows = [
            ("space cowboy adventure", "scifi western"),
            ("space pirate saga", "scifi action"),
            ("high school romance", "drama comedy"),
            ("cooking master", "comedy food"),
            ("mecha future war", "scifi action"),
            ("idol music live", "music idol"),
        ];
        let recs = rows
            .iter()
            .enumerate()
            .map(|(i, (a, b))| {
                ter_repo::Record::from_texts(
                    &schema,
                    1000 + i as u64,
                    &[Some(a), Some(b)],
                    &mut dict,
                )
            })
            .collect();
        let repo = Repository::from_records(schema.clone(), recs);
        let keywords = KeywordSet::parse("scifi", &dict);
        let ctx = TerContext::build(
            repo,
            keywords,
            &PivotConfig::default(),
            &DiscoveryConfig {
                min_support: 2,
                min_constant_support: 2,
                ..DiscoveryConfig::default()
            },
            16,
        );
        let s0 = vec![
            Record::from_texts(
                &schema,
                1,
                &[Some("space cowboy adventure"), Some("scifi western")],
                &mut dict,
            ),
            Record::from_texts(
                &schema,
                3,
                &[Some("cooking master"), Some("comedy food")],
                &mut dict,
            ),
        ];
        let s1 = vec![
            Record::from_texts(
                &schema,
                2,
                &[Some("space cowboy adventure"), Some("scifi western")],
                &mut dict,
            ),
            Record::from_texts(
                &schema,
                4,
                &[Some("idol music live"), Some("music idol")],
                &mut dict,
            ),
        ];
        (ctx, StreamSet::new(vec![s0, s1]))
    }

    /// All CDD-based methods must report the same pairs; the TER-iDS engine
    /// agrees with the brute-force baseline (pruning soundness end-to-end).
    #[test]
    fn cdd_baselines_agree_with_engine() {
        let (ctx, streams) = scenario();
        let params = Params::default();
        let mut engine = TerIdsEngine::new(&ctx, params, PruningMode::Full);
        let mut cdd_er = NaiveEngine::cdd_er(&ctx, params);
        for a in streams.arrivals() {
            engine.process(&a);
            cdd_er.process(&a);
        }
        let mut r1: Vec<_> = engine.reported().iter().copied().collect();
        let mut r2: Vec<_> = cdd_er.reported().iter().copied().collect();
        r1.sort_unstable();
        r2.sort_unstable();
        assert_eq!(r1, r2);
        assert!(!r1.is_empty());
    }

    #[test]
    fn all_baselines_run() {
        let (ctx, streams) = scenario();
        let params = Params::default();
        let mut engines: Vec<NaiveEngine> = vec![
            NaiveEngine::cdd_er(&ctx, params),
            NaiveEngine::dd_er(&ctx, params),
            NaiveEngine::er_er(&ctx, params),
            NaiveEngine::con_er(&ctx, params),
        ];
        for a in streams.arrivals() {
            for e in &mut engines {
                e.process(&a);
            }
        }
        for e in &engines {
            // Every baseline finds the exact-duplicate pair (1,2).
            assert!(
                e.reported().contains(&(1, 2)),
                "{} missed the trivial match",
                e.name()
            );
            assert!(e.timing().arrivals == 4);
        }
    }

    #[test]
    fn baseline_expiry_updates_donor_pool_and_results() {
        let (ctx, streams) = scenario();
        let params = Params {
            window: 2,
            ..Params::default()
        };
        let mut con = NaiveEngine::con_er(&ctx, params);
        let arrivals = streams.arrivals();
        for a in &arrivals {
            con.process(a);
        }
        // Window holds the last 2 tuples only.
        assert_eq!(con.window_records.len(), 2);
        assert!(!con.results().contains(1, 2));
        assert!(con.reported().contains(&(1, 2)));
    }
}
