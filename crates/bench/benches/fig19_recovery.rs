//! Figure 19 (beyond the paper): persistence-layer throughput — what
//! durability costs on the write path and how fast a crashed service is
//! back at its stream position.
//!
//! Two parts, written to `BENCH_recovery.json`:
//!
//! **Part 1 — baseline window (Table-4 EBooks):**
//!
//! * **checkpoint write MB/s** — encode + atomic write + fsync of the
//!   full `EngineState` at a steady-state window;
//! * **WAL append tuples/s** — arrival batches appended with
//!   fsync-on-commit (the per-batch durability tax on ingest);
//! * **recovery replay tuples/s** — checkpoint load + import + WAL-suffix
//!   replay at suffix lengths {0, 100, 1000} arrivals, timed end to end
//!   from `TerStore::open` to a caught-up engine.
//!
//! **Part 2 — full-vs-delta checkpoint sweep at production scale:**
//! every [`ScaleProfile`] (10⁴–10⁵-tuple windows, uniform / hot-key /
//! bursty shapes) runs a daemon-shaped loop — WAL-log, step, stamp —
//! writing a full snapshot *and* an incremental delta at every cadence
//! point, so the two costs are measured on the same states. Churn is
//! measured per stamp (delta-touched entries over live tuples), and
//! whenever it is ≤ 20% the delta stamp is **asserted** to cost ≤ 0.5×
//! the full snapshot. Both stores then recover through their respective
//! ladders (full: flat checkpoint + suffix; delta: base + chain replay +
//! suffix), timed and parity-gated against the live engine.
//!
//! Every recovered engine is parity-gated against the uninterrupted
//! oracle (`export_state` bit-equality) before its numbers are accepted.
//!
//! Part 1 defaults to the EBooks preset at generator scale 1.2 (enough
//! stream for a full window *and* a 1000-arrival suffix);
//! `TER_FIG19_SCALE` overrides for quick local runs (suffixes clamp to
//! the stream). The sweep's per-profile arrival budget defaults to
//! 12 000 (`TER_FIG19_SWEEP_ARRIVALS` overrides; 0 skips the sweep —
//! the engine's per-arrival cost grows with the live window, so filling
//! a 10⁵ window end to end is a soak run, not a bench).

use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use ter_bench::{header, prepare, RunStamp};
use ter_datasets::{GenOptions, Preset, ScaleProfile, ScaleShape};
use ter_ids::{delta_between, ErProcessor, Params, PruningMode, TerIdsEngine};
use ter_store::{context_fingerprint, TerStore};

const BATCH: usize = 100;

/// Cadence intervals per sweep run: stamps at the first 7 boundaries
/// (one full base + six chained deltas), the 8th interval left as the
/// WAL suffix so recovery walks the complete ladder.
const SWEEP_INTERVALS: usize = 8;
const SWEEP_STAMPS: usize = SWEEP_INTERVALS - 1;

/// Churn bound under which the delta-vs-full byte guarantee is asserted.
const CHURN_GATE: f64 = 0.20;
/// Asserted ceiling on `delta_bytes / full_bytes` at gated stamps.
const DELTA_RATIO_CEILING: f64 = 0.5;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!("ter_fig19_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        Self(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// One stamp of the sweep: the same engine state checkpointed both ways.
struct StampRow {
    live: usize,
    churn: f64,
    full_bytes: u64,
    delta_bytes: u64,
}

/// One profile's sweep result.
struct SweepRow {
    profile: ScaleProfile,
    arrivals: usize,
    live: usize,
    chain_len: usize,
    wal_suffix: usize,
    full_ckpt_secs: f64,
    delta_ckpt_secs: f64,
    recover_full_secs: f64,
    recover_delta_secs: f64,
    stamps: Vec<StampRow>,
}

impl SweepRow {
    /// The steady-state (final-stamp) figures the headline fields quote.
    fn last(&self) -> &StampRow {
        self.stamps.last().expect("sweep stamps")
    }
}

/// Runs one scale profile through the daemon-shaped loop: WAL-log each
/// batch into two stores, step the engine, and at each cadence boundary
/// stamp the same exported state as a full snapshot (store A) and a
/// chained delta (store B). Then crash-recover both stores and
/// parity-gate against the live engine.
fn sweep_profile(profile: ScaleProfile, budget: usize) -> SweepRow {
    let params = Params {
        window: profile.window,
        ..Params::default()
    };
    let prepared = prepare(
        profile.preset,
        profile.gen_options(GenOptions::default()),
        params,
    );
    let budget = budget.min(prepared.arrivals.len());
    let cadence = (budget / SWEEP_INTERVALS).max(1);
    let sizes = profile.batch_sizes(budget, BATCH);
    let fp = context_fingerprint(&prepared.ctx, &prepared.params);

    let full_dir = TempDir::new(&format!("{}_full", profile.name));
    let delta_dir = TempDir::new(&format!("{}_delta", profile.name));
    let mut engine = TerIdsEngine::new(&prepared.ctx, prepared.params, PruningMode::Full);
    let mut stamps: Vec<StampRow> = Vec::new();
    let mut prev: Option<ter_ids::EngineState> = None;
    let mut base_seq = 0u64;
    let (mut full_ckpt_secs, mut delta_ckpt_secs) = (0.0f64, 0.0f64);
    let mut consumed = 0usize;
    let mut suffix = 0usize;

    {
        let mut full_store = TerStore::open(&full_dir.0, fp).expect("open full store");
        let mut delta_store = TerStore::open(&delta_dir.0, fp).expect("open delta store");
        let mut offset = 0usize;
        for size in &sizes {
            let batch = &prepared.arrivals[offset..offset + size];
            offset += size;
            full_store.log_batch(batch).expect("full WAL append");
            delta_store.log_batch(batch).expect("delta WAL append");
            engine.step_batch(batch);
            consumed += size;
            if stamps.len() < SWEEP_STAMPS && consumed >= (stamps.len() + 1) * cadence {
                let seq = delta_store.wal_seq();
                let state = engine.export_state();
                let live = state.live_count();

                let t = Instant::now();
                let full_bytes = full_store.checkpoint_at(seq, &state).expect("full stamp");
                full_ckpt_secs += t.elapsed().as_secs_f64();

                let (churn, delta_bytes) = match &prev {
                    // The chain's base is itself a full snapshot; its
                    // "churn" is the whole window by definition.
                    None => {
                        let t = Instant::now();
                        let bytes = delta_store.checkpoint_at(seq, &state).expect("base stamp");
                        delta_ckpt_secs += t.elapsed().as_secs_f64();
                        (1.0, bytes)
                    }
                    Some(prev_state) => {
                        let d = delta_between(prev_state, &state).expect("delta");
                        let churn = (d.arrivals.len() + d.evicted.len()) as f64 / live as f64;
                        let t = Instant::now();
                        let bytes = delta_store
                            .checkpoint_delta_at(base_seq, seq, &d)
                            .expect("delta stamp");
                        delta_ckpt_secs += t.elapsed().as_secs_f64();
                        // The tentpole guarantee, enforced (not plotted):
                        // low churn must buy a proportionally small stamp.
                        if churn <= CHURN_GATE {
                            assert!(
                                (delta_bytes_ratio(bytes, full_bytes)) <= DELTA_RATIO_CEILING,
                                "{}: delta stamp {} B vs full {} B at churn {:.3}",
                                profile.name,
                                bytes,
                                full_bytes,
                                churn
                            );
                        }
                        (churn, bytes)
                    }
                };
                base_seq = seq;
                prev = Some(state);
                stamps.push(StampRow {
                    live,
                    churn,
                    full_bytes,
                    delta_bytes,
                });
                suffix = 0;
            } else {
                suffix += size;
            }
        }
        // Crash: both stores drop their unsynced tails here.
    }
    assert_eq!(
        stamps.len(),
        SWEEP_STAMPS,
        "{}: cadence starved",
        profile.name
    );
    assert!(
        stamps.iter().any(|s| s.churn <= CHURN_GATE),
        "{}: no stamp exercised the ≤{CHURN_GATE} churn gate",
        profile.name
    );
    let live_final = engine.export_state();

    // Recover both ways, parity-gated against the live engine.
    let recover = |dir: &TempDir, chain_expected: usize| -> f64 {
        let start = Instant::now();
        let store = TerStore::open(&dir.0, fp).expect("reopen");
        let rec = store.recover().expect("recover");
        assert_eq!(rec.chain_applied, chain_expected, "chain links applied");
        let mut recovered = TerIdsEngine::new(&prepared.ctx, prepared.params, PruningMode::Full);
        recovered
            .import_state(rec.state.as_ref().expect("state"))
            .expect("import");
        let replayed = rec.replay_into(&mut recovered);
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(replayed, suffix, "suffix length mismatch");
        assert_eq!(
            recovered.export_state(),
            live_final,
            "recovered engine diverged ({})",
            profile.name
        );
        secs
    };
    let recover_full_secs = recover(&full_dir, 0);
    let recover_delta_secs = recover(&delta_dir, SWEEP_STAMPS - 1);

    SweepRow {
        profile,
        arrivals: consumed,
        live: live_final.live_count(),
        chain_len: SWEEP_STAMPS - 1,
        wal_suffix: suffix,
        full_ckpt_secs,
        delta_ckpt_secs,
        recover_full_secs,
        recover_delta_secs,
        stamps,
    }
}

fn delta_bytes_ratio(delta: u64, full: u64) -> f64 {
    delta as f64 / (full as f64).max(1.0)
}

fn shape_name(shape: ScaleShape) -> &'static str {
    match shape {
        ScaleShape::Uniform => "uniform",
        ScaleShape::HotKey { .. } => "hotkey",
        ScaleShape::Bursty { .. } => "bursty",
    }
}

fn main() {
    let scale: f64 = std::env::var("TER_FIG19_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.2);
    let preset = Preset::EBooks;
    let params = Params::default();

    header(
        "Figure 19",
        "WAL/checkpoint write cost and recovery replay throughput",
    );
    println!(
        "preset={} scale={scale} window={} batch={BATCH}",
        preset.name(),
        params.window
    );

    let prepared = prepare(
        preset,
        GenOptions {
            scale,
            ..GenOptions::default()
        },
        params,
    );
    let arrivals = &prepared.arrivals;
    let fp = context_fingerprint(&prepared.ctx, &prepared.params);
    // Base position: window full (400) plus churn, so the checkpoint is a
    // steady-state snapshot; the largest suffix takes whatever remains.
    let min_base = (params.window + 200).min(arrivals.len() / 2);
    let max_suffix = 1000usize.min(arrivals.len().saturating_sub(min_base));
    let base = (arrivals.len() - max_suffix) / BATCH * BATCH;

    // ---- WAL append throughput (fsync per batch) ----
    let wal_dir = TempDir::new("wal");
    let mut store = TerStore::open(&wal_dir.0, fp).expect("open store");
    let start = Instant::now();
    for batch in arrivals.chunks(BATCH) {
        store.log_batch(batch).expect("append");
    }
    let wal_secs = start.elapsed().as_secs_f64();
    let wal_tps = arrivals.len() as f64 / wal_secs;
    let wal_mb = store.wal_len_bytes() as f64 / (1024.0 * 1024.0);
    println!(
        "WAL append      {:>9.2}s {:>12.1} tuples/s ({:.1} MiB, fsync/batch)",
        wal_secs, wal_tps, wal_mb
    );

    // ---- engine warm-up to the base position ----
    let mut engine = TerIdsEngine::new(&prepared.ctx, prepared.params, PruningMode::Full);
    for batch in arrivals[..base].chunks(BATCH) {
        engine.step_batch(batch);
    }

    // ---- checkpoint write throughput ----
    let ck_dir = TempDir::new("ckpt");
    let mut ck_store = TerStore::open(&ck_dir.0, fp).expect("open store");
    let state = engine.export_state();
    let reps = 5;
    let mut ck_bytes = 0u64;
    let start = Instant::now();
    for _ in 0..reps {
        ck_bytes = ck_store.checkpoint(&state).expect("checkpoint");
    }
    let ck_secs = start.elapsed().as_secs_f64() / reps as f64;
    let ck_mb = ck_bytes as f64 / (1024.0 * 1024.0);
    let ck_mbps = ck_mb / ck_secs;
    println!(
        "checkpoint      {:>9.4}s {:>12.1} MB/s ({:.2} MiB state, {} live tuples)",
        ck_secs,
        ck_mbps,
        ck_mb,
        state.live_count()
    );

    // ---- recovery replay throughput at suffix lengths {0, 100, 1000} ----
    let mut series = Vec::new();
    for suffix_len in [0usize, 100, 1000] {
        let suffix_len = suffix_len.min(max_suffix);
        let dir = TempDir::new(&format!("rec{suffix_len}"));
        {
            let mut store = TerStore::open(&dir.0, fp).expect("open store");
            // WAL carries the suffix only; the checkpoint owns the prefix.
            let mut crashed = TerIdsEngine::new(&prepared.ctx, prepared.params, PruningMode::Full);
            for batch in arrivals[..base].chunks(BATCH) {
                crashed.step_batch(batch);
            }
            store
                .checkpoint(&crashed.export_state())
                .expect("checkpoint");
            for batch in arrivals[base..base + suffix_len].chunks(BATCH) {
                store.log_batch(batch).expect("append");
                crashed.step_batch(batch);
            }
        }
        // Oracle at the crash position, for the parity gate.
        let mut oracle = TerIdsEngine::new(&prepared.ctx, prepared.params, PruningMode::Full);
        for batch in arrivals[..base + suffix_len].chunks(BATCH) {
            oracle.step_batch(batch);
        }

        let start = Instant::now();
        let store = TerStore::open(&dir.0, fp).expect("reopen");
        let rec = store.recover().expect("recover");
        let mut recovered = TerIdsEngine::new(&prepared.ctx, prepared.params, PruningMode::Full);
        recovered
            .import_state(rec.state.as_ref().expect("state"))
            .expect("import");
        let replayed = rec.replay_into(&mut recovered);
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(replayed, suffix_len, "suffix length mismatch");
        // Parity gate: recovery throughput of a wrong state is meaningless.
        assert_eq!(
            recovered.export_state(),
            oracle.export_state(),
            "recovered engine diverged at suffix {suffix_len}"
        );
        let replay_tps = if secs > 0.0 {
            suffix_len as f64 / secs
        } else {
            0.0
        };
        println!(
            "recover+{suffix_len:<6} {:>9.4}s {:>12.1} replay tuples/s",
            secs, replay_tps
        );
        series.push((suffix_len, secs, replay_tps));
    }

    // ---- part 2: full-vs-delta checkpoint sweep at production scale ----
    let sweep_budget: usize = std::env::var("TER_FIG19_SWEEP_ARRIVALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12_000);
    let mut sweep_rows: Vec<SweepRow> = Vec::new();
    if sweep_budget > 0 {
        for profile in ScaleProfile::all() {
            let row = sweep_profile(profile, sweep_budget);
            let last = row.last();
            println!(
                "{:<9} window={:>6} live={:>6} churn={:.3}  full {:>9} B  delta {:>8} B  \
                 ({:.3}x)  recover full {:.3}s / delta {:.3}s (chain {}, suffix {})",
                row.profile.name,
                row.profile.window,
                row.live,
                last.churn,
                last.full_bytes,
                last.delta_bytes,
                delta_bytes_ratio(last.delta_bytes, last.full_bytes),
                row.recover_full_secs,
                row.recover_delta_secs,
                row.chain_len,
                row.wal_suffix
            );
            sweep_rows.push(row);
        }
    } else {
        println!("sweep skipped (TER_FIG19_SWEEP_ARRIVALS=0)");
    }

    let rows: Vec<String> = series
        .iter()
        .map(|(suffix, secs, tps)| {
            format!(
                "    {{\"wal_suffix\": {suffix}, \"recover_secs\": {secs:.5}, \"replay_tuples_per_sec\": {tps:.1}}}"
            )
        })
        .collect();
    let sweep_json: Vec<String> = sweep_rows
        .iter()
        .map(|row| {
            let last = row.last();
            let stamp_rows: Vec<String> = row
                .stamps
                .iter()
                .map(|s| {
                    format!(
                        "        {{\"live\": {}, \"churn\": {:.4}, \"full_bytes\": {}, \
                         \"delta_bytes\": {}}}",
                        s.live, s.churn, s.full_bytes, s.delta_bytes
                    )
                })
                .collect();
            format!(
                "    {{\n      \"profile\": \"{}\",\n      \"preset\": \"{}\",\n      \
                 \"shape\": \"{}\",\n      \"window\": {},\n      \"arrivals\": {},\n      \
                 \"live_tuples\": {},\n      \"chain_len\": {},\n      \"wal_suffix\": {},\n      \
                 \"churn_ratio\": {:.4},\n      \"full_bytes\": {},\n      \
                 \"delta_bytes\": {},\n      \"delta_over_full\": {:.4},\n      \
                 \"full_ckpt_secs_total\": {:.4},\n      \"delta_ckpt_secs_total\": {:.4},\n      \
                 \"recover_full_secs\": {:.4},\n      \"recover_delta_secs\": {:.4},\n      \
                 \"stamps\": [\n{}\n      ]\n    }}",
                row.profile.name,
                row.profile.preset.name(),
                shape_name(row.profile.shape),
                row.profile.window,
                row.arrivals,
                row.live,
                row.chain_len,
                row.wal_suffix,
                last.churn,
                last.full_bytes,
                last.delta_bytes,
                delta_bytes_ratio(last.delta_bytes, last.full_bytes),
                row.full_ckpt_secs,
                row.delta_ckpt_secs,
                row.recover_full_secs,
                row.recover_delta_secs,
                stamp_rows.join(",\n")
            )
        })
        .collect();
    // Replay runs on one thread, so the run is undersubscribed only when
    // the host does not show even one CPU (an unknown count reads as 0).
    const REPLAY_THREADS: usize = 1;
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let undersubscribed = REPLAY_THREADS > host_cpus;
    let json = format!(
        "{{\n  \"bench\": \"fig19_recovery\",\n{}\n  \"preset\": \"{}\",\n  \"scale\": {},\n  \"window\": {},\n  \"batch\": {},\n  \"host_cpus\": {},\n  \"undersubscribed\": {},\n  \"arrivals\": {},\n  \"live_tuples\": {},\n  \"checkpoint_bytes\": {},\n  \"checkpoint_write_mb_per_sec\": {:.1},\n  \"wal_append_tuples_per_sec\": {:.1},\n  \"churn_gate\": {CHURN_GATE},\n  \"delta_ratio_ceiling\": {DELTA_RATIO_CEILING},\n  \"recovery\": [\n{}\n  ],\n  \"sweep\": [\n{}\n  ]\n}}\n",
        RunStamp::capture().json_fields(),
        preset.name(),
        scale,
        params.window,
        BATCH,
        host_cpus,
        undersubscribed,
        arrivals.len(),
        state.live_count(),
        ck_bytes,
        ck_mbps,
        wal_tps,
        rows.join(",\n"),
        sweep_json.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_recovery.json");
    fs::write(out, &json).expect("write BENCH_recovery.json");
    println!("wrote {out}");
}
