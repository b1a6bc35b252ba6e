//! Criterion micro-benchmarks for the hot primitives: Jaccard on token
//! sets, aR-tree maintenance/queries, ER-grid maintenance, the DR-index's
//! range search, imputation of one tuple, and one full engine step.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use ter_datasets::{preset, GenOptions, Preset};
use ter_ids::{ErProcessor, Params, PruningMode, TerContext, TerIdsEngine};
use ter_impute::{ImputeConfig, ImputeContext, Imputer, RuleImputer, RuleRetrieval};
use ter_index::{ArTree, Rect};
use ter_repo::PivotConfig;
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

fn bench_artree(c: &mut Criterion) {
    let points: Vec<Vec<f64>> = (0..2_000)
        .map(|i| vec![(i as f64 * 0.137) % 1.0, (i as f64 * 0.311) % 1.0])
        .collect();
    c.bench_function("artree/insert-2000", |bench| {
        bench.iter_batched(
            || points.clone(),
            |pts| {
                let mut t: ArTree<u32, ()> = ArTree::new(2, 16);
                for (i, p) in pts.into_iter().enumerate() {
                    t.insert(p, i as u32, ());
                }
                t
            },
            BatchSize::SmallInput,
        )
    });
    let mut tree: ArTree<u32, ()> = ArTree::new(2, 16);
    for (i, p) in points.iter().enumerate() {
        tree.insert(p.clone(), i as u32, ());
    }
    let range = Rect::new(vec![Interval::new(0.2, 0.4), Interval::new(0.2, 0.4)]);
    c.bench_function("artree/range-query-2000", |bench| {
        bench.iter(|| std::hint::black_box(tree.range_query(&range).len()))
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
        &ctx.pivots,
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
        &ctx.pivots,
        &ctx.cdds,
        RuleRetrieval::Linear,
        ImputeConfig::default(),
    );
    // The DR-index's range search alone: every present value of the
    // tuple against its own attribute's domain, through the token
    // postings (`hi < 1`) — the retrieval step indexed imputation runs
    // per determinant and per voting value.
    let present: Vec<(usize, &TokenSet)> = (0..ctx.arity())
        .filter_map(|j| incomplete.attr(j).map(|v| (j, v)))
        .collect();
    c.bench_function("dr_index/values_within [0, 0.5]", |bench| {
        bench.iter(|| {
            present
                .iter()
                .map(|&(j, v)| {
                    ctx.dr_index
                        .values_within(&ctx.repo, j, v, Interval::new(0.0, 0.5))
                        .len()
                })
                .sum::<usize>()
        })
    });
    let ictx = ImputeContext::default();
    c.bench_function("impute/indexed (CDD-index + DR-index)", |bench| {
        bench.iter(|| std::hint::black_box(indexed.impute(&incomplete, &ictx).instance_count()))
    });
    c.bench_function("impute/linear scans", |bench| {
        bench.iter(|| std::hint::black_box(linear.impute(&incomplete, &ictx).instance_count()))
    });
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
    targets = bench_jaccard, bench_tokenize, bench_artree, bench_imputation, bench_engine_step
}
criterion_main!(benches);
