//! Delta-chain recovery parity: an engine restored from (full base +
//! delta-chain replay + WAL suffix) at **any** cut point must be
//! bit-identical to one that never crashed — with the chain cut at every
//! position, with any single delta link damaged (degrading recovery to
//! the older consistent prefix, never failing), and across engine kinds
//! (a chain written against the sequential engine restores into the
//! sharded engine).
//!
//! This mirrors `tests/recovery_parity.rs` for the incremental-checkpoint
//! ladder introduced with `TerStore::checkpoint_delta_at`: phase 1 runs a
//! daemon-style loop (WAL-log, step, stamp — one full base then a delta
//! per batch), phase 2 "crashes" (drops everything unsynced), optionally
//! corrupts one delta frame on disk, then recovers and finishes the
//! stream, comparing every observable against an uninterrupted oracle.
//!
//! The ladder exists because a delta stamp costs bytes in proportion to
//! the churn since its base, not to the window; the last test pins that
//! on every preset.

mod restore;

use std::fs;
use std::sync::OnceLock;

use proptest::prelude::*;
use ter_datasets::{preset, GenOptions, Preset};
use ter_exec::{ExecConfig, ShardedTerIdsEngine};
use ter_ids::{
    delta_between, EngineState, ErProcessor, Params, PruningMode, TerContext, TerIdsEngine,
};
use ter_repo::PivotConfig;
use ter_rules::DiscoveryConfig;
use ter_store::{context_fingerprint, TerStore};
use ter_stream::Arrival;

use restore::{live_metas, Restorable, TempDir};

/// Arrivals per batch and batches per case: enough to fill and slide the
/// 16-tuple window several times, so deltas carry evictions as well as
/// admissions.
const BATCH: usize = 6;
const TOTAL: usize = 10;

/// One built fixture per preset, shared across every case — the context
/// build dominates a case's cost.
fn fixtures() -> &'static Vec<(TerContext, Vec<Arrival>, Params)> {
    static FIXTURES: OnceLock<Vec<(TerContext, Vec<Arrival>, Params)>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        Preset::all()
            .iter()
            .map(|&p| {
                let ds = preset(
                    p,
                    &GenOptions {
                        scale: 0.08,
                        ..GenOptions::default()
                    },
                );
                let params = Params {
                    window: 16,
                    ..Params::default()
                };
                let ctx = TerContext::build(
                    ds.repo.clone(),
                    ds.keywords(),
                    &PivotConfig::default(),
                    &DiscoveryConfig::default(),
                    params.fanout,
                );
                let arrivals = ds.streams.arrivals();
                assert!(
                    arrivals.len() >= BATCH * TOTAL,
                    "{}: stream too small",
                    p.name()
                );
                (ctx, arrivals, params)
            })
            .collect()
    })
}

/// One crash-and-recover scenario against the delta-checkpoint ladder.
///
/// * `cut`: crash after this many batches (1 ≤ cut ≤ TOTAL). Phase 1
///   stamps a full base at batch 1 and one chained delta per batch after
///   it, so the cut lands at every possible chain position as `cut`
///   sweeps.
/// * `damage`: corrupt the delta file at this index (ascending order) —
///   recovery must degrade to the stamp *before* the damaged link and
///   re-derive the rest from the WAL, never erroring.
/// * `shard_restore`: restore into the sharded engine (the chain was
///   written from sequential exports — the cross-engine contract).
fn run_case(fix: usize, cut: usize, damage: Option<usize>, shard_restore: bool) {
    let (ctx, arrivals, params) = &fixtures()[fix];
    let params = *params;
    let fp = context_fingerprint(ctx, &params);
    let dir = TempDir::new("delta");
    let cut_at = cut * BATCH;

    // Uninterrupted oracle, with its metadata after every batch.
    let mut oracle = TerIdsEngine::new(ctx, params, PruningMode::Full);
    let mut oracle_steps: Vec<Vec<(u64, u64)>> = Vec::new();
    let mut oracle_metas = Vec::new();
    for batch in arrivals[..TOTAL * BATCH].chunks(BATCH) {
        oracle_steps.extend(oracle.step(batch));
        oracle_metas.push(live_metas(&oracle));
    }
    let oracle_final = oracle.export_state();

    // Phase 1: WAL-log + step + stamp until the crash. Batch 1 writes the
    // full base; every later batch chains a delta onto the previous stamp
    // (cadence 1 — the densest chain, maximizing cut positions).
    {
        let mut store = TerStore::open(dir.path(), fp).expect("open store");
        let mut engine = TerIdsEngine::new(ctx, params, PruningMode::Full);
        let mut prev: Option<(u64, EngineState)> = None;
        for batch in arrivals[..cut_at].chunks(BATCH) {
            store.log_batch(batch).expect("log batch");
            let seq = store.wal_seq();
            engine.step_batch(batch);
            let state = engine.export_state();
            match &prev {
                None => {
                    store.checkpoint_at(seq, &state).expect("base checkpoint");
                }
                Some((base_seq, base_state)) => {
                    let d = delta_between(base_state, &state).expect("delta");
                    store
                        .checkpoint_delta_at(*base_seq, seq, &d)
                        .expect("delta checkpoint");
                }
            }
            prev = Some((seq, state));
        }
        // Crash: everything unsynced is gone.
    }

    // Optional damage: flip a byte in the middle of the chosen delta
    // frame — its CRC check must fail on load, ending the chain there.
    let mut deltas: Vec<String> = fs::read_dir(dir.path())
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.starts_with("delt-"))
        .collect();
    deltas.sort();
    assert_eq!(
        deltas.len(),
        cut.saturating_sub(1),
        "one delta per batch after the base"
    );
    if let Some(d) = damage {
        let path = dir.path().join(&deltas[d]);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x5a;
        fs::write(&path, bytes).unwrap();
    }

    // Phase 2: recover. An intact chain restores the tip stamp (`cut`);
    // a damaged link `d` (linking stamp d+1 → d+2) degrades to stamp
    // d+1, and the WAL suffix re-derives the rest.
    let store = TerStore::open(dir.path(), fp).expect("reopen store");
    let rec = store
        .recover()
        .expect("recovery must never fail on a damaged delta");
    let expected_stamp = damage.map(|d| d as u64 + 1).unwrap_or(cut as u64);
    assert_eq!(rec.checkpoint_seq, expected_stamp, "recovered stamp");
    assert_eq!(
        rec.chain_applied,
        (expected_stamp - 1) as usize,
        "deltas applied on the walk"
    );
    assert_eq!(
        rec.resume_seq(),
        cut as u64,
        "suffix reaches the crash point"
    );

    let mut engine: Box<dyn Restorable> = if shard_restore {
        Box::new(ShardedTerIdsEngine::new(
            ctx,
            params,
            PruningMode::Full,
            ExecConfig,
        ))
    } else {
        Box::new(TerIdsEngine::new(ctx, params, PruningMode::Full))
    };
    engine
        .import(rec.state.as_ref().expect("a base always survives"))
        .expect("import recovered state");
    assert!(
        live_metas(&engine) == oracle_metas[expected_stamp as usize - 1],
        "rebuilt metadata differs from the metadata arrival derived"
    );

    // WAL-suffix replay re-emits the oracle's matches for exactly the
    // batches between the recovered stamp and the crash.
    let mut replay_steps = Vec::new();
    for batch in &rec.suffix {
        replay_steps.extend(engine.step(batch));
    }
    assert_eq!(
        replay_steps,
        &oracle_steps[expected_stamp as usize * BATCH..cut_at],
        "replayed steps diverged"
    );

    // Phase 3: finish the stream live; then the full-state bit-identity.
    let mut post_steps = Vec::new();
    for batch in arrivals[cut_at..TOTAL * BATCH].chunks(BATCH) {
        post_steps.extend(engine.step(batch));
    }
    assert_eq!(
        post_steps,
        &oracle_steps[cut_at..],
        "post-recovery steps diverged"
    );
    assert_eq!(engine.export_state(), oracle_final, "final state diverged");
}

/// Deterministic sweep: the chain cut at every position (1..=TOTAL
/// batches), alternating restore engine kinds — no cut point may lose or
/// duplicate a single match.
#[test]
fn every_chain_cut_recovers_bit_identical() {
    for cut in 1..=TOTAL {
        run_case(0, cut, None, cut % 2 == 0);
    }
}

/// Deterministic sweep: every link of a full-length chain damaged in
/// turn — recovery degrades to the stamp before the damaged link and the
/// WAL suffix re-derives the rest, bit-identical throughout.
#[test]
fn every_damaged_link_degrades_to_consistent_prefix() {
    for d in 0..TOTAL - 1 {
        run_case(0, TOTAL, Some(d), d % 2 == 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// Randomized cross product: any preset × any cut × intact-or-damaged
    /// chain × either restore engine.
    #[test]
    fn delta_chain_recovery_parity(
        fix in 0usize..5,
        cut in 1usize..=TOTAL,
        damage_raw in 0usize..64,
        shard_restore in any::<bool>(),
    ) {
        // Half the cases damage a uniformly chosen link (only possible
        // once the chain has at least one delta).
        let damage = if cut >= 2 && damage_raw % 2 == 1 {
            Some((damage_raw / 2) % (cut - 1))
        } else {
            None
        };
        run_case(fix, cut, damage, shard_restore);
    }
}

/// Churn at or below this share of the live window must buy a delta
/// stamp of at most `DELTA_RATIO_CEILING` × the full snapshot.
const CHURN_GATE: f64 = 0.2;
const DELTA_RATIO_CEILING: f64 = 0.5;

/// A delta stamp pays for churn, not for the window: on every preset and
/// at windows of 64, 200 and 400 tuples, a delta taken after a tenth of
/// the window has arrived again (churn ≈ 0.2: as many evictions as
/// arrivals) encodes to at most half the full snapshot of the same
/// state. The byte counts are what the store's `checkpoint_delta_at` and
/// `checkpoint_at` return for that state.
#[test]
fn low_churn_delta_stamp_is_at_most_half_a_full_snapshot() {
    for p in Preset::all() {
        let ds = preset(
            p,
            &GenOptions {
                scale: 0.5,
                ..GenOptions::default()
            },
        );
        let ctx = TerContext::build(
            ds.repo.clone(),
            ds.keywords(),
            &PivotConfig::default(),
            &DiscoveryConfig::default(),
            Params::default().fanout,
        );
        let arrivals = ds.streams.arrivals();
        for window in [64, 200, 400] {
            let params = Params {
                window,
                ..Params::default()
            };
            let (fill, more) = (&arrivals[..window], &arrivals[window..window + window / 10]);
            let dir = TempDir::new("delta_size");
            let mut store =
                TerStore::open(dir.path(), context_fingerprint(&ctx, &params)).expect("open");
            let mut engine = TerIdsEngine::new(&ctx, params, PruningMode::Full);

            // The base: a full window.
            store.log_batch(fill).expect("log fill");
            engine.step_batch(fill);
            let base = engine.export_state();
            store.checkpoint_at(1, &base).expect("base stamp");

            // A tenth of the window arrives again and evicts as many.
            store.log_batch(more).expect("log churn");
            engine.step_batch(more);
            let next = engine.export_state();
            // Churn from the window itself, not from the delta under test.
            let evicted = base.live_count() + more.len() - next.live_count();
            let churn = (more.len() + evicted) as f64 / next.live_count() as f64;
            assert!(
                churn <= CHURN_GATE,
                "{} w={window}: churn {churn:.3} above the gate",
                p.name()
            );
            let d = delta_between(&base, &next).expect("delta");
            let delta_bytes = store.checkpoint_delta_at(1, 2, &d).expect("delta stamp");
            let full_bytes = store.checkpoint_at(2, &next).expect("full stamp");
            assert!(
                delta_bytes as f64 <= DELTA_RATIO_CEILING * full_bytes as f64,
                "{} w={window}: delta stamp {delta_bytes} B vs full {full_bytes} B \
                 at churn {churn:.3}",
                p.name()
            );
        }
    }
}
