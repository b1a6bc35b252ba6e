//! Criterion micro-benchmarks for the hot primitives: Jaccard on token
//! sets, CDD-index rule selection, the DR-index's range search,
//! imputation of one tuple, refinement of one imputed pair, and one full
//! engine step.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use ter_datasets::{preset, GenOptions, Preset};
use ter_ids::refine::{exact_probability, refine_pair};
use ter_ids::{ErProcessor, Params, PruningMode, TerContext, TerIdsEngine, TupleMeta};
use ter_impute::{ImputeConfig, ImputeContext, Imputer, RuleImputer, RuleRetrieval};
use ter_repo::{PivotConfig, Record};
use ter_rules::DiscoveryConfig;
use ter_text::{Dictionary, Interval, Token, TokenSet};

fn bench_jaccard(c: &mut Criterion) {
    let a: TokenSet = (0..32u32).step_by(2).map(Token).collect();
    let b: TokenSet = (0..32u32).step_by(3).map(Token).collect();
    c.bench_function("jaccard/32-token sets", |bench| {
        bench.iter(|| std::hint::black_box(a.jaccard(&b)))
    });
    let long_a: TokenSet = (0..512u32).step_by(2).map(Token).collect();
    let long_b: TokenSet = (0..512u32).step_by(3).map(Token).collect();
    c.bench_function("jaccard/512-token sets", |bench| {
        bench.iter(|| std::hint::black_box(long_a.jaccard(&long_b)))
    });
}

fn bench_imputation(c: &mut Criterion) {
    let ds = preset(
        Preset::Citations,
        &GenOptions {
            scale: 0.2,
            ..GenOptions::default()
        },
    );
    let ctx = TerContext::build(
        ds.repo.clone(),
        ds.keywords(),
        &PivotConfig::default(),
        &DiscoveryConfig::default(),
        16,
    );
    let incomplete = ds
        .streams
        .stream(0)
        .iter()
        .find(|r| !r.is_complete())
        .expect("an incomplete tuple")
        .clone();
    let indexed = RuleImputer::new(
        "indexed",
        &ctx.repo,
        &ctx.cdds,
        RuleRetrieval::Indexed {
            cdd_indexes: &ctx.cdd_indexes,
            dr_index: &ctx.dr_index,
        },
        ImputeConfig::default(),
    );
    let linear = RuleImputer::new(
        "linear",
        &ctx.repo,
        &ctx.cdds,
        RuleRetrieval::Linear,
        ImputeConfig::default(),
    );
    // Rule selection through the CDD-index alone: one iteration selects
    // the rules for every missing attribute of every incomplete arrival
    // of the dataset; the line printed first gives the call count that
    // turns the iteration time into a cost per call.
    let arrivals = ds.streams.arrivals();
    let selections: Vec<(usize, &Record)> = arrivals
        .iter()
        .flat_map(|a| {
            a.record
                .missing_attrs()
                .into_iter()
                .map(move |j| (j, &a.record))
        })
        .collect();
    println!(
        "cdd_index/applicable_rules: {} calls per iteration over {} rules",
        selections.len(),
        ctx.cdds.len()
    );
    c.bench_function("cdd_index/applicable_rules (all calls)", |bench| {
        bench.iter(|| {
            selections
                .iter()
                .map(|&(j, r)| ctx.cdd_indexes[j].applicable_rules(r).len())
                .sum::<usize>()
        })
    });
    // The DR-index's range search alone: every present value of the
    // tuple against its own attribute's domain — the retrieval step
    // indexed imputation runs per determinant and per voting value.
    // `[0, 0.5]` merges the token postings; `[0, 0]` is the exact-match
    // lookup.
    let present: Vec<(usize, &TokenSet)> = (0..ctx.arity())
        .filter_map(|j| incomplete.attr(j).map(|v| (j, v)))
        .collect();
    for (name, range) in [
        ("dr_index/values_within [0, 0.5]", Interval::new(0.0, 0.5)),
        ("dr_index/values_within [0, 0]", Interval::new(0.0, 0.0)),
    ] {
        c.bench_function(name, |bench| {
            bench.iter(|| {
                present
                    .iter()
                    .map(|&(j, v)| ctx.dr_index.values_within(&ctx.repo, j, v, range).len())
                    .sum::<usize>()
            })
        });
    }
    let ictx = ImputeContext::default();
    c.bench_function("impute/indexed (CDD-index + DR-index)", |bench| {
        bench.iter(|| std::hint::black_box(indexed.impute(&incomplete, &ictx).instance_count()))
    });
    c.bench_function("impute/linear scans", |bench| {
        bench.iter(|| std::hint::black_box(linear.impute(&incomplete, &ictx).instance_count()))
    });
}

/// Refinement of one pair of imputed tuples: the exact probability
/// (every instance pair, Equation 2) and the Theorem 4.4 cascade at a
/// threshold no prefix decides, so both walk the full instance product.
fn bench_refine(c: &mut Criterion) {
    let ds = preset(
        Preset::Citations,
        &GenOptions {
            scale: 0.2,
            ..GenOptions::default()
        },
    );
    let ctx = TerContext::build(
        ds.repo.clone(),
        ds.keywords(),
        &PivotConfig::default(),
        &DiscoveryConfig::default(),
        16,
    );
    let imputer = ctx.indexed_imputer(ImputeConfig::default());
    let ictx = ImputeContext::default();
    // The two incomplete tuples with the most instances.
    let mut metas: Vec<TupleMeta> = ds
        .streams
        .arrivals()
        .iter()
        .filter(|a| !a.record.is_complete())
        .map(|a| {
            let pt = imputer.impute(&a.record, &ictx);
            TupleMeta::build(
                a.record.id,
                a.stream_id,
                a.timestamp,
                pt,
                &ctx.pivots,
                &ctx.layout,
                &ctx.keywords,
            )
        })
        .collect();
    metas.sort_by_key(|m| std::cmp::Reverse(m.tuple.instance_count()));
    let (a, b) = (&metas[0], &metas[1]);
    let shape = format!("{}x{}", a.tuple.instance_count(), b.tuple.instance_count());
    let gamma = Params::default().gamma(ctx.arity());
    c.bench_function(
        &format!("refine/exact probability ({shape} instances)"),
        |bench| bench.iter(|| std::hint::black_box(exact_probability(a, b, &ctx.keywords, gamma))),
    );
    let exact = exact_probability(a, b, &ctx.keywords, gamma);
    // Just above the exact value: no prefix accepts, and the optimistic
    // bound only falls below alpha at the end.
    let alpha = (exact + 1e-9).min(1.0);
    c.bench_function(
        &format!("refine/early-terminated ({shape} instances)"),
        |bench| bench.iter(|| std::hint::black_box(refine_pair(a, b, &ctx.keywords, gamma, alpha))),
    );
}

fn bench_engine_step(c: &mut Criterion) {
    let ds = preset(
        Preset::Anime,
        &GenOptions {
            scale: 0.2,
            ..GenOptions::default()
        },
    );
    let ctx = TerContext::build(
        ds.repo.clone(),
        ds.keywords(),
        &PivotConfig::default(),
        &DiscoveryConfig::default(),
        16,
    );
    let arrivals = ds.streams.arrivals();
    let params = Params {
        window: 100,
        ..Params::default()
    };
    c.bench_function("engine/full-stream (Anime scale 0.2)", |bench| {
        bench.iter(|| {
            let mut e = TerIdsEngine::new(&ctx, params, PruningMode::Full);
            for a in &arrivals {
                e.process(a);
            }
            std::hint::black_box(e.prune_stats().total_pairs)
        })
    });
}

fn bench_tokenize(c: &mut Criterion) {
    c.bench_function("tokenize/short attribute", |bench| {
        bench.iter_batched(
            Dictionary::new,
            |mut d| ter_text::tokenize("loss of weight, blurred vision", &mut d),
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_jaccard, bench_tokenize, bench_imputation, bench_refine, bench_engine_step
}
criterion_main!(benches);
