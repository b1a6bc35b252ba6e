//! Crash-recovery parity: an engine restored from (checkpoint + WAL
//! replay) at any cut point must be **bit-identical** to one that never
//! crashed — same per-step match lists (both for the replayed WAL suffix
//! and for everything processed after recovery), same live result set,
//! same reported history, same prune-statistic totals, and same imputed
//! tuples — for both `TerIdsEngine` and `ShardedTerIdsEngine` across all
//! five dataset presets.
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

use std::fs;
use std::ops::DerefMut;
use std::path::{Path, PathBuf};

use ter_datasets::{preset, GenOptions, Preset};
use ter_exec::{ExecConfig, ShardedTerIdsEngine};
use ter_ids::{EngineState, ErProcessor, LiveState, Params, PruningMode, TerContext, TerIdsEngine};
use ter_repo::PivotConfig;
use ter_rules::DiscoveryConfig;
use ter_store::{context_fingerprint, TerStore};
use ter_stream::Arrival;

const BATCH: usize = 16;
const WINDOW: usize = 60;

/// (checkpoint after batch, crash after batch): mid-window fill, a
/// checkpoint right past the first eviction boundary, and a long-replay
/// configuration with many evictions on both sides of the cut.
const SCENARIOS: [(u64, u64); 3] = [(1, 3), (4, 5), (2, 6)];

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let p =
            std::env::temp_dir().join(format!("ter_recovery_parity_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        Self(p)
    }
    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

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

/// Which engine kind a scenario drives.
#[derive(Clone, Copy)]
enum Kind {
    Sequential,
    Sharded,
}

fn make_engine<'a>(
    kind: Kind,
    ctx: &'a TerContext,
    params: Params,
) -> Box<dyn EngineUnderTest + 'a> {
    match kind {
        Kind::Sequential => Box::new(TerIdsEngine::new(ctx, params, PruningMode::Full)),
        Kind::Sharded => Box::new(ShardedTerIdsEngine::new(
            ctx,
            params,
            PruningMode::Full,
            ExecConfig::new(3, 2),
        )),
    }
}

/// The engine surface a recovery scenario needs: processing plus the
/// state hooks (which live on the `LiveState` both engines dereference
/// to, not on `ErProcessor`).
trait EngineUnderTest {
    fn step(&mut self, batch: &[Arrival]) -> Vec<Vec<(u64, u64)>>;
    fn export(&self) -> EngineState;
    fn import(&mut self, state: &EngineState) -> Result<(), String>;
}

impl<E: ErProcessor + DerefMut<Target = LiveState>> EngineUnderTest for E {
    fn step(&mut self, batch: &[Arrival]) -> Vec<Vec<(u64, u64)>> {
        self.step_batch(batch)
            .into_iter()
            .map(|o| o.new_matches)
            .collect()
    }
    fn export(&self) -> EngineState {
        self.export_state()
    }
    fn import(&mut self, state: &EngineState) -> Result<(), String> {
        self.import_state(state)
    }
}

/// Runs one kill-and-recover scenario and asserts bit-identity against
/// the oracle's per-step matches and final state.
#[allow(clippy::too_many_arguments)]
fn run_scenario(
    name: &str,
    kind: Kind,
    ctx: &TerContext,
    arrivals: &[Arrival],
    params: Params,
    oracle_steps: &[Vec<(u64, u64)>],
    oracle_final: &EngineState,
    ckpt_batch: u64,
    crash_batch: u64,
) {
    let dir = TempDir::new(&format!(
        "{name}_{}_{ckpt_batch}_{crash_batch}",
        match kind {
            Kind::Sequential => "seq",
            Kind::Sharded => "shard",
        }
    ));
    let fp = context_fingerprint(ctx, &params);
    let crash_at = (crash_batch as usize * BATCH).min(arrivals.len());

    // Phase 1: normal operation until the crash. WAL first, then step.
    {
        let mut store = TerStore::open(dir.path(), fp).expect("open store");
        let mut engine = make_engine(kind, ctx, params);
        for (i, batch) in arrivals[..crash_at].chunks(BATCH).enumerate() {
            store.log_batch(batch).expect("log batch");
            engine.step(batch);
            if i as u64 + 1 == ckpt_batch {
                store.checkpoint(&engine.export()).expect("checkpoint");
            }
        }
        // Crash: engine and store dropped, nothing flushed beyond fsyncs.
    }

    // Phase 2: recover.
    let store = TerStore::open(dir.path(), fp).expect("reopen store");
    let rec = store.recover().expect("recover");
    assert_eq!(rec.checkpoint_seq, ckpt_batch, "{name}: checkpoint seq");
    let mut engine = make_engine(kind, ctx, params);
    let state = rec.state.as_ref().expect("checkpoint state");
    engine.import(state).expect("import checkpoint");

    // The replayed WAL suffix must re-emit the oracle's matches for
    // exactly the arrivals between checkpoint and crash.
    let replay_from = rec.checkpoint_seq as usize * BATCH;
    let mut replay_steps = Vec::new();
    for batch in &rec.suffix {
        replay_steps.extend(engine.step(batch));
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
        post_steps.extend(engine.step(batch));
    }
    assert_eq!(
        post_steps,
        &oracle_steps[crash_at..],
        "{name}: post-recovery steps diverged"
    );

    // Final state: window, metas (imputed tuples, bit-exact), results,
    // reported history and prune stats all identical.
    assert_eq!(
        &engine.export(),
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

    // Uninterrupted oracle (sequential; the sharded engine is bit-identical
    // to it by the PR 2 parity suite).
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
        for kind in [Kind::Sequential, Kind::Sharded] {
            run_scenario(
                p.name(),
                kind,
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

/// A checkpoint written by the sequential engine must restore into the
/// sharded engine (and vice versa) and continue bit-identically — the
/// snapshot representation is engine-agnostic, so operators can change
/// the execution configuration across a restart.
#[test]
fn cross_engine_recovery() {
    let (ctx, arrivals, params) = build_ctx(Preset::Citations, 0.14);
    let dir = TempDir::new("cross");
    let fp = context_fingerprint(&ctx, &params);
    let crash_at = 5 * BATCH;

    let mut oracle = TerIdsEngine::new(&ctx, params, PruningMode::Full);
    let oracle_steps: Vec<Vec<(u64, u64)>> = arrivals
        .iter()
        .map(|a| oracle.process(a).new_matches)
        .collect();

    {
        let mut store = TerStore::open(dir.path(), fp).unwrap();
        let mut seq = TerIdsEngine::new(&ctx, params, PruningMode::Full);
        for (i, batch) in arrivals[..crash_at].chunks(BATCH).enumerate() {
            store.log_batch(batch).unwrap();
            seq.step_batch(batch);
            if i == 3 {
                store.checkpoint(&seq.export_state()).unwrap();
            }
        }
    }

    let store = TerStore::open(dir.path(), fp).unwrap();
    let rec = store.recover().unwrap();
    let mut sharded =
        ShardedTerIdsEngine::new(&ctx, params, PruningMode::Full, ExecConfig::new(4, 2));
    sharded
        .import_state(rec.state.as_ref().unwrap())
        .expect("sequential checkpoint into sharded engine");
    rec.replay_into(&mut sharded);

    let mut steps = Vec::new();
    for batch in arrivals[crash_at..].chunks(BATCH) {
        steps.extend(sharded.step_batch(batch).into_iter().map(|o| o.new_matches));
    }
    assert_eq!(steps, &oracle_steps[crash_at..]);
    assert_eq!(sharded.export_state(), oracle.export_state());
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
    for batch in arrivals[..(batches - 1) * BATCH].chunks(BATCH) {
        oracle.step_batch(batch);
    }
    let mut recovered = TerIdsEngine::new(&ctx, params, PruningMode::Full);
    rec.replay_into(&mut recovered);
    assert_eq!(recovered.export_state(), oracle.export_state());
}
