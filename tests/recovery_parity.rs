//! Crash-recovery parity: an engine restored from (checkpoint + WAL
//! replay) at any cut point must be **bit-identical** to one that never
//! crashed — same per-step match lists (both for the replayed WAL suffix
//! and for everything processed after recovery), same live result set,
//! same reported history, same prune-statistic totals, and same imputed
//! tuples — across all five dataset presets. The restored engine steps
//! whole batches; the never-crashed oracle steps one arrival at a time.
//! Right after the import, every live tuple's metadata, which the
//! checkpoint does not store, must equal what the engine derived at
//! arrival.
//!
//! Each scenario simulates the full production protocol:
//!
//! 1. run an engine over a prefix of the stream, WAL-logging every batch
//!    *before* stepping it and checkpointing at a configured batch;
//! 2. "crash" (drop engine and store — anything not fsynced is gone);
//! 3. reopen the store, recover (newest checkpoint + WAL suffix replay),
//!    resume the feed from `Recovery::resume_seq` via the stream cursor;
//! 4. compare every observable against an uninterrupted oracle run.
//!
//! Cut/checkpoint placements include mid-window fills and a checkpoint
//! taken immediately after the first eviction boundary (window size 60,
//! batch 16 ⇒ batch 4 ends at arrival 64, just past the first eviction at
//! arrival 60) — the spot where expiry bookkeeping is most likely to be
//! dropped from a snapshot.

mod restore;

use std::fs;

use ter_datasets::{preset, GenOptions, Preset};
use ter_ids::{EngineState, ErProcessor, Params, PruningMode, TerContext, TerIdsEngine};
use ter_repo::PivotConfig;
use ter_rules::DiscoveryConfig;
use ter_store::{context_fingerprint, TerStore};
use ter_stream::Arrival;

use restore::{live_metas, step, TempDir};

const BATCH: usize = 16;
const WINDOW: usize = 60;

/// (checkpoint after batch, crash after batch): mid-window fill, a
/// checkpoint right past the first eviction boundary, and a long-replay
/// configuration with many evictions on both sides of the cut.
const SCENARIOS: [(u64, u64); 3] = [(1, 3), (4, 5), (2, 6)];

fn build_ctx(p: Preset, scale: f64) -> (TerContext, Vec<Arrival>, Params) {
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
    let params = Params {
        window: WINDOW,
        ..Params::default()
    };
    let arrivals = ds.streams.arrivals();
    (ctx, arrivals, params)
}

/// Runs one kill-and-recover scenario and asserts bit-identity against
/// the oracle's per-step matches and final state.
#[allow(clippy::too_many_arguments)]
fn run_scenario(
    name: &str,
    ctx: &TerContext,
    arrivals: &[Arrival],
    params: Params,
    oracle_steps: &[Vec<(u64, u64)>],
    oracle_final: &EngineState,
    ckpt_batch: u64,
    crash_batch: u64,
) {
    let dir = TempDir::new(&format!("{name}_{ckpt_batch}_{crash_batch}"));
    let fp = context_fingerprint(ctx, &params);
    let crash_at = (crash_batch as usize * BATCH).min(arrivals.len());

    // Phase 1: normal operation until the crash. WAL first, then step.
    // The metadata the engine derived at arrival is kept for comparison
    // with the metadata import rebuilds.
    let ckpt_metas = {
        let mut store = TerStore::open(dir.path(), fp).expect("open store");
        let mut engine = TerIdsEngine::new(ctx, params, PruningMode::Full);
        let mut ckpt_metas = Vec::new();
        for (i, batch) in arrivals[..crash_at].chunks(BATCH).enumerate() {
            store.log_batch(batch).expect("log batch");
            engine.step_batch(batch);
            if i as u64 + 1 == ckpt_batch {
                store
                    .checkpoint(&engine.export_state())
                    .expect("checkpoint");
                ckpt_metas = live_metas(&engine);
            }
        }
        // Crash: engine and store dropped, nothing flushed beyond fsyncs.
        ckpt_metas
    };

    // Phase 2: recover.
    let store = TerStore::open(dir.path(), fp).expect("reopen store");
    let rec = store.recover().expect("recover");
    assert_eq!(rec.checkpoint_seq, ckpt_batch, "{name}: checkpoint seq");
    let mut engine = TerIdsEngine::new(ctx, params, PruningMode::Full);
    let state = rec.state.as_ref().expect("checkpoint state");
    engine.import_state(state).expect("import checkpoint");
    assert!(
        live_metas(&engine) == ckpt_metas,
        "{name}: rebuilt metadata differs from the metadata arrival derived"
    );

    // The replayed WAL suffix must re-emit the oracle's matches for
    // exactly the arrivals between checkpoint and crash.
    let replay_from = rec.checkpoint_seq as usize * BATCH;
    let mut replay_steps = Vec::new();
    for batch in &rec.suffix {
        replay_steps.extend(step(&mut engine, batch));
    }
    assert_eq!(
        replay_steps,
        &oracle_steps[replay_from..crash_at],
        "{name}: replayed steps diverged"
    );
    assert_eq!(
        rec.resume_seq() as usize * BATCH,
        crash_at,
        "{name}: resume point"
    );

    // Phase 3: resume the live feed where the WAL left off and finish the
    // stream; every subsequent step must match the oracle bit-for-bit.
    let mut post_steps = Vec::new();
    for batch in arrivals[crash_at..].chunks(BATCH) {
        post_steps.extend(step(&mut engine, batch));
    }
    assert_eq!(
        post_steps,
        &oracle_steps[crash_at..],
        "{name}: post-recovery steps diverged"
    );

    // Final state: window, imputed tuples (bit-exact), results, reported
    // history and prune stats all identical.
    assert_eq!(
        &engine.export_state(),
        oracle_final,
        "{name}: final state diverged"
    );
}

fn assert_recovery_parity(p: Preset, scale: f64) {
    let (ctx, arrivals, params) = build_ctx(p, scale);
    assert!(
        arrivals.len() > SCENARIOS.iter().map(|&(_, c)| c).max().unwrap() as usize * BATCH,
        "{}: stream too small for the configured cuts",
        p.name()
    );

    // Uninterrupted oracle, stepped one arrival at a time.
    let mut oracle = TerIdsEngine::new(&ctx, params, PruningMode::Full);
    let oracle_steps: Vec<Vec<(u64, u64)>> = arrivals
        .iter()
        .map(|a| oracle.process(a).new_matches)
        .collect();
    assert!(
        oracle.prune_stats().total_pairs > 0,
        "{}: degenerate run, nothing compared",
        p.name()
    );
    let oracle_final = oracle.export_state();

    for &(ckpt_batch, crash_batch) in &SCENARIOS {
        run_scenario(
            p.name(),
            &ctx,
            &arrivals,
            params,
            &oracle_steps,
            &oracle_final,
            ckpt_batch,
            crash_batch,
        );
    }
}

#[test]
fn citations_recovery_parity() {
    assert_recovery_parity(Preset::Citations, 0.16);
}

#[test]
fn anime_recovery_parity() {
    assert_recovery_parity(Preset::Anime, 0.14);
}

#[test]
fn bikes_recovery_parity() {
    assert_recovery_parity(Preset::Bikes, 0.12);
}

#[test]
fn ebooks_recovery_parity() {
    assert_recovery_parity(Preset::EBooks, 0.12);
}

#[test]
fn songs_recovery_parity() {
    assert_recovery_parity(Preset::Songs, 0.06);
}

/// Torn WAL tails lose only the torn batch: cutting the log mid-frame
/// recovers to the last committed batch and the engine re-derives the
/// rest from the live feed, staying bit-identical throughout.
#[test]
fn torn_wal_tail_recovers_to_prefix() {
    let (ctx, arrivals, params) = build_ctx(Preset::Citations, 0.14);
    let dir = TempDir::new("torn");
    let fp = context_fingerprint(&ctx, &params);
    let batches = 4;

    let wal_path = {
        let mut store = TerStore::open(dir.path(), fp).unwrap();
        for batch in arrivals[..batches * BATCH].chunks(BATCH) {
            store.log_batch(batch).unwrap();
        }
        dir.path().join(ter_store::store::WAL_FILE)
    };
    // Tear the last frame: chop 7 bytes off the file.
    let bytes = fs::read(&wal_path).unwrap();
    fs::write(&wal_path, &bytes[..bytes.len() - 7]).unwrap();

    let store = TerStore::open(dir.path(), fp).unwrap();
    assert_eq!(store.wal_seq(), batches as u64 - 1, "torn batch dropped");
    let rec = store.recover().unwrap();
    assert!(rec.state.is_none());
    assert_eq!(rec.suffix.len(), batches - 1);

    // Replaying the surviving prefix matches the oracle over it.
    let mut oracle = TerIdsEngine::new(&ctx, params, PruningMode::Full);
    for a in &arrivals[..(batches - 1) * BATCH] {
        oracle.process(a);
    }
    let mut recovered = TerIdsEngine::new(&ctx, params, PruningMode::Full);
    rec.replay_into(&mut recovered);
    assert_eq!(recovered.export_state(), oracle.export_state());
}
