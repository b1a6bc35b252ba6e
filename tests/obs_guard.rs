//! The overhead guard: the telemetry layer must be effectively free, and
//! the traces it keeps must account for the time they claim.
//!
//! Two contracts, checked over identical engine runs with metrics
//! globally on vs. off:
//!
//! 1. **Bit-parity** — the reported per-arrival match lists are
//!    byte-for-byte identical. Metrics are write-only from the compute
//!    path; nothing they observe may feed back into a decision.
//! 2. **Within noise** — the instrumented run's best-of-3 wall time is
//!    within a generous factor of the uninstrumented best-of-3. The hot
//!    path adds a handful of relaxed atomic adds per *batch* (not per
//!    pair), so the true cost is well under a percent; the loose bound
//!    only exists to survive CI-container scheduling jitter.
//!
//! The causal tracing layer (`ter_obs::trace`) rides the same kill
//! switch and the same obligations: the off-arm of this guard is also
//! the tracing-off arm (spans share `set_enabled`), and the on-arm must
//! show traces were actually completed and retained — the guard must
//! not pass because tracing silently no-opped.
//!
//! A third contract is checked on its own run: in library mode each batch
//! roots its own trace, and the critical-path table built from those
//! traces must account for the `step_batch` time measured around the
//! calls.

use std::sync::Mutex;
use std::time::{Duration, Instant};
use ter_datasets::{preset, GenOptions, Preset};
use ter_exec::{ExecConfig, ShardedTerIdsEngine};
use ter_ids::{ErProcessor, Params, PruningMode, TerContext};
use ter_repo::PivotConfig;
use ter_rules::DiscoveryConfig;
use ter_stream::Arrival;

/// The registry, the kill switch and the trace table are process-global,
/// so the tests of this file take turns.
static GLOBAL_OBS: Mutex<()> = Mutex::new(());

fn fixture() -> (TerContext, Vec<Vec<Arrival>>, Params) {
    let ds = preset(
        Preset::Citations,
        &GenOptions {
            scale: 0.25,
            ..GenOptions::default()
        },
    );
    let params = Params {
        window: 80,
        ..Params::default()
    };
    let keywords = ds.keywords();
    let ctx = TerContext::build(
        ds.repo.clone(),
        keywords,
        &PivotConfig::default(),
        &DiscoveryConfig::default(),
        params.fanout,
    );
    let batches = ds.streams.arrival_batches(8);
    (ctx, batches, params)
}

/// One full engine run; returns (wall time, every reported match list).
fn run_once(
    ctx: &TerContext,
    params: Params,
    batches: &[Vec<Arrival>],
) -> (Duration, Vec<Vec<(u64, u64)>>) {
    let mut engine = ShardedTerIdsEngine::new(ctx, params, PruningMode::Full, ExecConfig);
    let t0 = Instant::now();
    let mut reported = Vec::new();
    for b in batches {
        reported.extend(engine.step_batch(b).into_iter().map(|o| o.new_matches));
    }
    (t0.elapsed(), reported)
}

#[test]
fn metrics_overhead_is_within_noise_and_outputs_bit_identical() {
    let _turn = GLOBAL_OBS.lock().unwrap_or_else(|e| e.into_inner());
    let (ctx, batches, params) = fixture();
    let runs = 3;

    // Interleave on/off runs so thermal/scheduler drift hits both arms.
    let mut best_on = Duration::MAX;
    let mut best_off = Duration::MAX;
    let mut reported_on = None;
    let mut reported_off = None;
    for _ in 0..runs {
        ter_obs::set_enabled(true);
        let (t, rep) = run_once(&ctx, params, &batches);
        best_on = best_on.min(t);
        if let Some(prev) = reported_on.replace(rep) {
            assert_eq!(
                &prev,
                reported_on.as_ref().unwrap(),
                "on-runs deterministic"
            );
        }
        ter_obs::set_enabled(false);
        let (t, rep) = run_once(&ctx, params, &batches);
        best_off = best_off.min(t);
        if let Some(prev) = reported_off.replace(rep) {
            assert_eq!(
                &prev,
                reported_off.as_ref().unwrap(),
                "off-runs deterministic"
            );
        }
    }
    ter_obs::set_enabled(true);

    // 1. Bit-parity: telemetry never feeds back into results.
    assert_eq!(
        reported_on, reported_off,
        "metrics-on and metrics-off runs must report identical matches"
    );

    // 2. Overhead within noise. The instrumentation is a few dozen
    // relaxed atomics per batch; 2x is pure scheduling-jitter headroom
    // on a loaded CI container, not a statement about the real cost.
    let ratio = best_on.as_secs_f64() / best_off.as_secs_f64().max(1e-9);
    assert!(
        ratio <= 2.0,
        "metrics-on best-of-{runs} ({best_on:?}) vs metrics-off ({best_off:?}): ratio {ratio:.3}"
    );

    // The on-runs actually recorded: the guard must not pass because
    // instrumentation silently no-opped.
    let rows = ter_obs::snapshot();
    let batches_total = rows
        .iter()
        .find(|r| r.name == "ter_engine_batches_total")
        .unwrap()
        .value;
    assert!(
        batches_total >= (runs * batches.len()) as u64,
        "instrumented runs must have counted their batches"
    );

    // Tracing arm: the causal-trace layer shares the kill switch, so the
    // off-runs above are also the tracing-off bit-parity arm. The on-runs
    // must have actually completed traces (library mode self-roots one
    // per batch) and the tail sampler must have retained at least one.
    let (cp, retained) = ter_obs::trace::snapshot();
    assert!(
        cp.traces >= (runs * batches.len()) as u64,
        "tracing-on runs must have completed one trace per batch \
         (got {} traces for {} batches)",
        cp.traces,
        runs * batches.len()
    );
    assert_eq!(
        cp.segment_sum(),
        cp.total_micros,
        "attribution table must partition its own total"
    );
    assert!(
        !retained.is_empty(),
        "tail sampler retained no traces from the instrumented runs"
    );
    assert!(
        retained
            .iter()
            .all(|t| t.spans.iter().any(|s| s.kind == ter_obs::kind::STEP)),
        "every retained library-mode trace carries its STEP span"
    );
}

/// Causal-trace honesty: the critical-path analyzer's segments must
/// account for the latency measured from the outside — within 5% plus
/// 2 µs of rounding per trace (each span truncates to whole
/// microseconds) plus 100 µs.
#[test]
fn library_critical_path_accounts_for_measured_step_time() {
    let _turn = GLOBAL_OBS.lock().unwrap_or_else(|e| e.into_inner());
    ter_obs::set_enabled(true);
    let (ctx, batches, params) = fixture();
    let mut engine = ShardedTerIdsEngine::new(&ctx, params, PruningMode::Full, ExecConfig);
    let (cp0, _) = ter_obs::trace::snapshot();
    let mut stepped_us = 0u64;
    for b in &batches {
        let t0 = Instant::now();
        engine.step_batch(b);
        stepped_us += t0.elapsed().as_micros() as u64;
    }
    let (cp1, _) = ter_obs::trace::snapshot();
    let cp = cp1.delta(&cp0);
    assert_eq!(cp.traces, batches.len() as u64, "one trace per batch");
    assert_eq!(
        cp.segment_sum(),
        cp.total_micros,
        "attribution table does not partition its own total"
    );
    let tol = stepped_us / 20 + 2 * cp.traces + 100;
    assert!(
        stepped_us.abs_diff(cp.total_micros) <= tol,
        "trace attribution accounts for {}us of {stepped_us}us measured (tolerance {tol}us)",
        cp.total_micros
    );
}
