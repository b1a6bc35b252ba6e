//! Oracle tests: the fully-pruned TER-iDS engine must report *exactly* the
//! pairs a brute-force evaluator reports, on randomized datasets.
//!
//! This is the end-to-end soundness/completeness check for all four
//! pruning strategies, the candidate-list retrieval, and the index-backed
//! imputation at once: the brute-force side shares only the rule
//! semantics (linear scans everywhere, exact Equation-2 probabilities,
//! no pruning).

use ter_datasets::{generate, AttrKind, AttrSpec, DatasetSpec, GenOptions};
use ter_ids::{ErProcessor, NaiveEngine, Params, PruningMode, TerContext, TerIdsEngine};
use ter_repo::PivotConfig;
use ter_rules::DiscoveryConfig;

fn spec(seedish: usize) -> DatasetSpec {
    DatasetSpec {
        name: "oracle",
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
        topics: 2 + seedish % 3,
        vocab_per_topic: 10 + 2 * seedish,
        size_a: 40,
        size_b: 44,
        match_fraction: 0.5,
        perturbation: 0.1,
    }
}

fn run_and_compare(seed: u64, missing_rate: f64, missing_attrs: usize, params: Params) {
    let ds = generate(
        &spec(seed as usize % 4),
        &GenOptions {
            missing_rate,
            missing_attrs,
            repo_ratio: 0.4,
            scale: 1.0,
            entity_skew: 0.0,
            seed,
        },
    );
    let keywords = ds.keywords();
    let ctx = TerContext::build(
        ds.repo.clone(),
        keywords,
        &PivotConfig::default(),
        &DiscoveryConfig {
            min_support: 2,
            min_constant_support: 2,
            ..DiscoveryConfig::default()
        },
        8,
    );
    let mut engine = TerIdsEngine::new(&ctx, params, PruningMode::Full);
    let mut grid_only = TerIdsEngine::new(&ctx, params, PruningMode::GridOnly);
    let mut oracle = NaiveEngine::cdd_er(&ctx, params);
    for a in ds.streams.arrivals() {
        engine.process(&a);
        grid_only.process(&a);
        oracle.process(&a);
    }
    let mut want: Vec<_> = oracle.reported().iter().copied().collect();
    let mut full: Vec<_> = engine.reported().iter().copied().collect();
    let mut grid: Vec<_> = grid_only.reported().iter().copied().collect();
    want.sort_unstable();
    full.sort_unstable();
    grid.sort_unstable();
    assert_eq!(
        full, want,
        "TER-iDS(Full) diverged from oracle (seed {seed}, ξ={missing_rate}, m={missing_attrs})"
    );
    assert_eq!(
        grid, want,
        "Ij+GER diverged from oracle (seed {seed}, ξ={missing_rate}, m={missing_attrs})"
    );
    // Sanity: the scenarios must actually produce matches, otherwise the
    // comparison is vacuous.
    assert!(
        !want.is_empty(),
        "oracle found nothing (seed {seed}) — test setup too strict"
    );
}

#[test]
fn engine_equals_oracle_complete_data() {
    for seed in [1, 2, 3] {
        run_and_compare(
            seed,
            0.0,
            1,
            Params {
                window: 30,
                ..Params::default()
            },
        );
    }
}

#[test]
fn engine_equals_oracle_with_missing_values() {
    for seed in [4, 5, 6] {
        run_and_compare(
            seed,
            0.3,
            1,
            Params {
                window: 30,
                ..Params::default()
            },
        );
    }
}

#[test]
fn engine_equals_oracle_two_missing_attrs() {
    for seed in [7, 8] {
        run_and_compare(
            seed,
            0.4,
            2,
            Params {
                window: 25,
                ..Params::default()
            },
        );
    }
}

#[test]
fn engine_equals_oracle_varied_alpha() {
    for &alpha in &[0.1, 0.8] {
        run_and_compare(
            9,
            0.3,
            1,
            Params {
                alpha,
                window: 30,
                ..Params::default()
            },
        );
    }
}

#[test]
fn engine_equals_oracle_varied_gamma() {
    for &rho in &[0.35, 0.65] {
        run_and_compare(
            10,
            0.2,
            1,
            Params {
                rho,
                window: 30,
                ..Params::default()
            },
        );
    }
}

#[test]
fn engine_equals_oracle_tiny_window() {
    run_and_compare(
        11,
        0.3,
        1,
        Params {
            window: 4,
            ..Params::default()
        },
    );
}
