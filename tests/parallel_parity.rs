//! Differential parity: the sharded, batch-parallel engine must be
//! **bit-identical** to the sequential `TerIdsEngine` — same reported
//! pairs at the same arrivals, same live result set, same prune-statistic
//! totals, and same imputed probabilistic tuples — for every
//! `ter_datasets` preset × shard count {1, 2, 4} × thread count
//! {1, 2, 4}, regardless of batch size. Half the configurations run in a
//! **persistent pool session** (`with_pool`, the daemon's path), the
//! other half as per-batch transient sessions — so both session shapes
//! are enforced too.
//!
//! Exact float equality is intentional: both engines route every pair
//! through the same `decide_pair` cascade and every cell through the same
//! `cell_survives` predicate, so any divergence — numeric, ordering, or
//! accounting — is a bug, not noise.

use ter_datasets::{preset, GenOptions, Preset};
use ter_exec::{ExecConfig, ShardedTerIdsEngine};
use ter_ids::{
    ErProcessor, Params, PruneStats, PruningMode, StageMetrics, TerContext, TerIdsEngine,
};
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

/// The sharded run's trace, with its stage metrics.
fn trace_sharded(
    ctx: &TerContext,
    arrivals: &[Arrival],
    params: Params,
    exec: ExecConfig,
    batch: usize,
    pooled_session: bool,
) -> (RunTrace, StageMetrics) {
    let mut e = ShardedTerIdsEngine::new(ctx, params, PruningMode::Full, exec);
    let mut step_matches = Vec::with_capacity(arrivals.len());
    if pooled_session {
        // One persistent worker-pool session for the whole stream — the
        // daemon's execution shape.
        e.with_pool(|pe| {
            for chunk in arrivals.chunks(batch) {
                step_matches.extend(pe.step_batch(chunk).into_iter().map(|o| o.new_matches));
            }
        });
    } else {
        for chunk in arrivals.chunks(batch) {
            // Sharded step outputs are already sorted by (arrival_seq, norm_pair).
            step_matches.extend(e.step_batch(chunk).into_iter().map(|o| o.new_matches));
        }
    }
    let metrics = e.stage_metrics();
    // With more than one thread every batch runs on the pool; with one,
    // none does.
    let pooled = if exec.threads > 1 {
        arrivals.len().div_ceil(batch) as u64
    } else {
        0
    };
    assert_eq!(metrics.pooled_batches, pooled, "pooled drive must engage");
    let trace = RunTrace {
        step_matches,
        reported: sorted_pairs(e.reported().iter().copied()),
        results: sorted_pairs(e.results().iter()),
        stats: e.prune_stats(),
        live_tuples: e
            .live_ids()
            .into_iter()
            .map(|id| (id, format!("{:?}", e.meta(id).unwrap().tuple)))
            .collect(),
    };
    (trace, metrics)
}

/// Window of the fan-out scenarios. The grid walk rejects most entries by
/// their token signatures, so at the sweep's `w` = 60 no arrival keeps
/// `REFINE_FANOUT_MIN` (16) candidates and no refine fans out; on streams
/// of about 1,200 arrivals at `w` = 600 every preset has arrivals that do.
const FAN_WINDOW: usize = 600;

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

/// Runs the full shard × thread sweep for one preset and asserts every
/// configuration reproduces the sequential trace exactly; then runs the
/// fan-out scenario on the same preset at `fan_scale` (a stream of about
/// 1,200 arrivals) with a [`FAN_WINDOW`] window.
fn assert_parity(p: Preset, scale: f64, fan_scale: f64) {
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

    for (si, shards) in [1usize, 2, 4].into_iter().enumerate() {
        for (ti, threads) in [1usize, 2, 4].into_iter().enumerate() {
            // A batch size that is neither 1 nor a divisor of the stream
            // length, so batch boundaries and a final partial batch are
            // exercised. The session shape alternates across the grid, so
            // every shard count and every thread count runs both in a
            // persistent pool session and in transient per-batch ones.
            let pooled_session = (si + ti) % 2 == 0;
            let exec = ExecConfig::new(shards, threads);
            let (par, _) = trace_sharded(&ctx, &arrivals, params, exec, 17, pooled_session);
            assert_eq!(
                par,
                seq,
                "{}: sharded(S={shards}, T={threads}, persistent session={pooled_session}) \
                 diverged from sequential",
                p.name()
            );
        }
    }

    // Degenerate batching (batch = 1, the `process` path) must agree too.
    let (single, _) = trace_sharded(&ctx, &arrivals, params, ExecConfig::new(2, 2), 1, false);
    assert_eq!(single, seq, "{}: per-arrival batching diverged", p.name());

    // Refines fanned out to the pool interleave their replies with the
    // next arrival's traverse; the run must exercise that and stay
    // bit-identical.
    let (ctx, arrivals) = prepare(p, fan_scale);
    let params = Params {
        window: FAN_WINDOW,
        ..Params::default()
    };
    assert!(
        arrivals.len() > FAN_WINDOW,
        "{}: fan-out stream too small to churn",
        p.name()
    );
    let (par, metrics) = trace_sharded(&ctx, &arrivals, params, ExecConfig::new(4, 3), 17, true);
    assert!(
        metrics.fanned_refines > 0,
        "{}: no refine fanned out to the pool",
        p.name()
    );
    assert_eq!(
        par,
        trace_sequential(&ctx, &arrivals, params),
        "{}: fanned-out refines diverged",
        p.name()
    );
}

#[test]
fn citations_parity() {
    assert_parity(Preset::Citations, 0.16, 1.2);
}

#[test]
fn anime_parity() {
    assert_parity(Preset::Anime, 0.14, 1.0);
}

#[test]
fn bikes_parity() {
    assert_parity(Preset::Bikes, 0.12, 0.9);
}

#[test]
fn ebooks_parity() {
    assert_parity(Preset::EBooks, 0.12, 0.8);
}

#[test]
fn songs_parity() {
    assert_parity(Preset::Songs, 0.06, 0.4);
}

/// The GridOnly (`I_j+G_ER`) mode must shard identically as well — it
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
    let mut par =
        ShardedTerIdsEngine::new(&ctx, params, PruningMode::GridOnly, ExecConfig::new(4, 4));
    for chunk in arrivals.chunks(23) {
        par.step_batch(chunk);
    }
    assert_eq!(
        sorted_pairs(par.reported().iter().copied()),
        sorted_pairs(seq.reported().iter().copied())
    );
    assert_eq!(par.prune_stats(), seq.prune_stats());
}

/// The pipelining claim, instrumented at preset scale: in a persistent
/// pool session the pooled drive pays at most one barrier per arrival
/// plus one prologue per batch, although more arrivals fan their refine
/// out than there are batches (a drive that waited on each fanned refine
/// before queuing the next traverse would pay one barrier per arrival
/// plus one per fanned refine) — and the results stay bit-identical to
/// the sequential engine's. Runs at [`FAN_WINDOW`], where refines fan
/// out: 1,176 arrivals in 37 batches, 95 of them fanned out.
#[test]
fn pooled_drive_pays_one_barrier_per_arrival_at_preset_scale() {
    let (ctx, arrivals) = prepare(Preset::Citations, 1.2);
    let params = Params {
        window: FAN_WINDOW,
        ..Params::default()
    };
    let n = arrivals.len() as u64;
    let batch = 32usize;
    let batches = arrivals.len().div_ceil(batch) as u64;

    let (par, m) = trace_sharded(&ctx, &arrivals, params, ExecConfig::new(4, 3), batch, true);
    assert!(
        m.fanned_refines > batches,
        "more arrivals than batches must fan out a refine for the bound to bite \
         ({} of {n}, {batches} batches)",
        m.fanned_refines
    );
    assert!(
        m.er_barriers <= n + batches,
        "at most one barrier per arrival plus one prologue per batch \
         (got {} for {n} arrivals in {batches} batches)",
        m.er_barriers
    );
    assert_eq!(
        par,
        trace_sequential(&ctx, &arrivals, params),
        "instrumentation must not change results"
    );
}
