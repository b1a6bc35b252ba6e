//! Differential parity: the batched engine must be **bit-identical** to
//! the sequential `TerIdsEngine` — same reported pairs at the same
//! arrivals, same live result set, same prune-statistic totals, and same
//! imputed probabilistic tuples — for every `ter_datasets` preset at
//! batch sizes 1 (the `process` path) and 17 (neither 1 nor a divisor of
//! the stream length, so batch boundaries and a final partial batch are
//! exercised), and in GridOnly mode.
//!
//! Exact float equality is intentional: both engines run the same
//! per-arrival loop, and the batched one imputes a whole batch before
//! stepping it, so any divergence — numeric, ordering, or accounting —
//! is a bug, not noise.

use ter_datasets::{preset, GenOptions, Preset};
use ter_exec::{ExecConfig, ShardedTerIdsEngine};
use ter_ids::{ErProcessor, Params, PruneStats, PruningMode, TerContext, TerIdsEngine};
use ter_repo::PivotConfig;
use ter_rules::DiscoveryConfig;
use ter_stream::Arrival;

/// Everything the parity check compares.
#[derive(Debug, PartialEq)]
struct RunTrace {
    /// Per-arrival reported matches, each step sorted by normalized pair.
    step_matches: Vec<Vec<(u64, u64)>>,
    /// Every pair ever reported, sorted.
    reported: Vec<(u64, u64)>,
    /// The live result set `ES` at end of stream, sorted.
    results: Vec<(u64, u64)>,
    /// Cumulative prune-statistic totals.
    stats: PruneStats,
    /// `(id, imputed probabilistic tuple)` of every unexpired tuple. The
    /// debug rendering includes every instance and its probability with
    /// full `f64` round-trip precision, so equality here is bit-equality
    /// of the imputation output.
    live_tuples: Vec<(u64, String)>,
}

fn sorted_pairs(iter: impl IntoIterator<Item = (u64, u64)>) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = iter.into_iter().collect();
    v.sort_unstable();
    v
}

fn trace_sequential(ctx: &TerContext, arrivals: &[Arrival], params: Params) -> RunTrace {
    let mut e = TerIdsEngine::new(ctx, params, PruningMode::Full);
    let mut step_matches = Vec::with_capacity(arrivals.len());
    for a in arrivals {
        let mut m = e.process(a).new_matches;
        m.sort_unstable();
        step_matches.push(m);
    }
    RunTrace {
        step_matches,
        reported: sorted_pairs(e.reported().iter().copied()),
        results: sorted_pairs(e.results().iter()),
        stats: e.prune_stats(),
        live_tuples: e
            .live_ids()
            .into_iter()
            .map(|id| (id, format!("{:?}", e.meta(id).unwrap().tuple)))
            .collect(),
    }
}

/// The batched run's trace.
fn trace_batched(ctx: &TerContext, arrivals: &[Arrival], params: Params, batch: usize) -> RunTrace {
    let mut e = ShardedTerIdsEngine::new(ctx, params, PruningMode::Full, ExecConfig);
    let mut step_matches = Vec::with_capacity(arrivals.len());
    for chunk in arrivals.chunks(batch) {
        step_matches.extend(e.step_batch(chunk).into_iter().map(|o| o.new_matches));
    }
    RunTrace {
        step_matches,
        reported: sorted_pairs(e.reported().iter().copied()),
        results: sorted_pairs(e.results().iter()),
        stats: e.prune_stats(),
        live_tuples: e
            .live_ids()
            .into_iter()
            .map(|id| (id, format!("{:?}", e.meta(id).unwrap().tuple)))
            .collect(),
    }
}

/// The generated stream of preset `p` at `scale` (30% of one attribute
/// missing) and its pre-computed context.
fn prepare(p: Preset, scale: f64) -> (TerContext, Vec<Arrival>) {
    let ds = preset(
        p,
        &GenOptions {
            scale,
            missing_rate: 0.3,
            missing_attrs: 1,
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
    (ctx, ds.streams.arrivals())
}

/// Runs one preset at batch sizes 1 and 17 and asserts each run
/// reproduces the sequential trace exactly.
fn assert_parity(p: Preset, scale: f64) {
    let (ctx, arrivals) = prepare(p, scale);
    let params = Params {
        window: 60,
        ..Params::default()
    };
    assert!(
        arrivals.len() > 60,
        "{}: stream too small to churn",
        p.name()
    );
    let seq = trace_sequential(&ctx, &arrivals, params);
    assert!(
        seq.stats.total_pairs > 0,
        "{}: degenerate run, nothing compared",
        p.name()
    );
    for batch in [1, 17] {
        assert_eq!(
            trace_batched(&ctx, &arrivals, params, batch),
            seq,
            "{}: batches of {batch} diverged from sequential",
            p.name()
        );
    }
}

#[test]
fn citations_parity() {
    assert_parity(Preset::Citations, 0.16);
}

#[test]
fn anime_parity() {
    assert_parity(Preset::Anime, 0.14);
}

#[test]
fn bikes_parity() {
    assert_parity(Preset::Bikes, 0.12);
}

#[test]
fn ebooks_parity() {
    assert_parity(Preset::EBooks, 0.12);
}

#[test]
fn songs_parity() {
    assert_parity(Preset::Songs, 0.06);
}

/// The GridOnly (`I_j+G_ER`) mode must batch identically as well — it
/// shares candidate retrieval but refines by full exact probability.
#[test]
fn grid_only_mode_parity() {
    let (ctx, arrivals) = prepare(Preset::Citations, 0.12);
    let params = Params {
        window: 50,
        ..Params::default()
    };
    let mut seq = TerIdsEngine::new(&ctx, params, PruningMode::GridOnly);
    for a in &arrivals {
        seq.process(a);
    }
    let mut par = ShardedTerIdsEngine::new(&ctx, params, PruningMode::GridOnly, ExecConfig);
    for chunk in arrivals.chunks(23) {
        par.step_batch(chunk);
    }
    assert_eq!(
        sorted_pairs(par.reported().iter().copied()),
        sorted_pairs(seq.reported().iter().copied())
    );
    assert_eq!(par.prune_stats(), seq.prune_stats());
}
