//! Figure 18 (beyond the paper): sharded-engine throughput vs worker
//! threads on the scale-1 preset, seeding the repo's perf trajectory.
//!
//! Sweeps threads ∈ {1, 2, 4, 8} over the batch-parallel engine
//! (`ter_exec`), with the sequential `TerIdsEngine` as the reference, and
//! writes the measured curve to `BENCH_throughput.json` at the repo root.
//! Every parallel run is parity-checked against the sequential reported
//! set before its numbers are accepted — a throughput figure from a
//! diverging engine would be meaningless.
//!
//! Defaults match the acceptance setup (EBooks — the heaviest preset per
//! Figures 5(b)/6 — at generator scale 1.0); `TER_FIG18_SCALE` and
//! `TER_FIG18_BATCH` override for quick local runs.

use std::time::Instant;

use ter_bench::{critical_path_json, header, prepare, Prepared, RunStamp};
use ter_datasets::{GenOptions, Preset};
use ter_exec::{ExecConfig, ShardedTerIdsEngine};
use ter_ids::{ErProcessor, Params, PruningMode, TerIdsEngine};

struct Measured {
    threads: usize,
    secs: f64,
    tuples_per_sec: f64,
    /// Merge-thread barrier rounds per arrival (~1 — the pooled drive's
    /// claim, measured).
    barriers_per_arrival: f64,
    /// The timed run's reported pairs, sorted — parity-checked against the
    /// sequential oracle (timing only the list-mutation side of the engine
    /// would be pointless if its answers drifted).
    reported: Vec<(u64, u64)>,
    /// Summed per-batch wall time, measured at the call site — the
    /// external truth the trace attribution must account for.
    stepped_us: u64,
    /// This run's critical-path attribution (trace-table delta across
    /// the run): in library mode each batch self-roots its trace, so
    /// the table partitions `stepped_us` into compute/barrier/other.
    critical_path: ter_obs::trace::CriticalPath,
}

fn run_sharded(prepared: &Prepared, threads: usize, shards: usize, batch: usize) -> Measured {
    let mut engine = ShardedTerIdsEngine::new(
        &prepared.ctx,
        prepared.params,
        PruningMode::Full,
        ExecConfig::new(shards, threads),
    );
    let (cp0, _) = ter_obs::trace::snapshot();
    // One persistent worker-pool session for the whole stream — the
    // production execution shape (no per-batch thread spawn).
    let start = Instant::now();
    let mut stepped_us = 0u64;
    engine.with_pool(|pe| {
        for chunk in prepared.arrivals.chunks(batch) {
            let t0 = Instant::now();
            pe.step_batch(chunk);
            stepped_us += t0.elapsed().as_micros() as u64;
        }
    });
    let secs = start.elapsed().as_secs_f64();
    let (cp1, _) = ter_obs::trace::snapshot();
    let mut reported: Vec<(u64, u64)> = engine.reported().iter().copied().collect();
    reported.sort_unstable();
    Measured {
        threads,
        secs,
        tuples_per_sec: prepared.arrivals.len() as f64 / secs,
        barriers_per_arrival: engine
            .stage_metrics()
            .barriers_per_arrival(prepared.arrivals.len() as u64),
        reported,
        stepped_us,
        critical_path: cp1.delta(&cp0),
    }
}

fn main() {
    let scale: f64 = std::env::var("TER_FIG18_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);
    let batch: usize = std::env::var("TER_FIG18_BATCH")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
        .max(1); // chunks(0) panics
    let shards = 8;
    let preset = Preset::EBooks;
    let params = Params::default();
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    header(
        "Figure 18",
        "sharded-engine throughput (tuples/s) vs worker threads",
    );
    println!(
        "preset={} scale={scale} window={} shards={shards} batch={batch} host_cpus={host_cpus}",
        preset.name(),
        params.window
    );
    if host_cpus < 4 {
        println!(
            "NOTE: only {host_cpus} CPU(s) visible — thread counts beyond that \
             time-slice one core and cannot speed up; interpret the curve accordingly"
        );
    }

    let prepared = prepare(
        preset,
        GenOptions {
            scale,
            ..GenOptions::default()
        },
        params,
    );

    // Sequential reference (and the parity oracle for every parallel run).
    let mut seq = TerIdsEngine::new(&prepared.ctx, prepared.params, PruningMode::Full);
    let start = Instant::now();
    for a in &prepared.arrivals {
        seq.process(a);
    }
    let seq_secs = start.elapsed().as_secs_f64();
    let seq_tps = prepared.arrivals.len() as f64 / seq_secs;
    println!(
        "{:<16} {:>9.2}s {:>12.1} tuples/s",
        "sequential", seq_secs, seq_tps
    );
    let mut seq_reported: Vec<(u64, u64)> = seq.reported().iter().copied().collect();
    seq_reported.sort_unstable();

    let swept = [1usize, 2, 4, 8];
    // Bench honesty: thread counts beyond the visible CPUs time-slice one
    // core — a "scaling curve" measured that way is noise, so the curve is
    // flagged and the speedup-claim assertions are skipped.
    let undersubscribed = swept.iter().copied().max().unwrap_or(1) > host_cpus;
    // The sweep's stage histograms (impute/traverse/refine/merge/barrier
    // per batch) come from the global telemetry registry; reset it so the
    // recorded summaries describe exactly this sweep.
    ter_obs::reset();
    let mut series = Vec::new();
    for threads in swept {
        let m = run_sharded(&prepared, threads, shards, batch);
        // Parity gate: throughput of a wrong answer is not throughput.
        assert_eq!(
            m.reported, seq_reported,
            "sharded engine (T={threads}) diverged from sequential"
        );
        // The pooled drive's structural claim, asserted where it is
        // measured: one combined barrier round per arrival (waiting for a
        // fanned refine before queuing the next traverse would need two).
        // Independent of CPU count — barriers are counted, not timed — so
        // this gates even undersubscribed runs.
        if threads > 1 {
            assert!(
                m.barriers_per_arrival <= 1.01,
                "pooled drive at T={threads} spent {:.3} barriers/arrival \
                 (claim: ≤ 1 + rounding)",
                m.barriers_per_arrival
            );
        }
        // Causal-trace honesty gate: the critical-path analyzer's
        // segments must account for the latency the bench measured from
        // the outside — within 5% plus per-batch rounding (each span
        // truncates to whole microseconds).
        let attributed = m.critical_path.total_micros;
        assert_eq!(
            m.critical_path.segment_sum(),
            attributed,
            "attribution table does not partition its own total"
        );
        let tol = m.stepped_us / 20 + 2 * m.critical_path.traces + 100;
        assert!(
            m.stepped_us.abs_diff(attributed) <= tol,
            "trace attribution at T={threads} accounts for {attributed}us \
             of {}us measured (tolerance {tol}us)",
            m.stepped_us
        );
        println!(
            "{:<16} {:>9.2}s {:>12.1} tuples/s  ({:.2} barriers/arrival, \
             {attributed}us attributed / {}us measured)",
            format!("threads={}", m.threads),
            m.secs,
            m.tuples_per_sec,
            m.barriers_per_arrival,
            m.stepped_us
        );
        series.push(m);
    }

    let t1 = series[0].tuples_per_sec;
    let speedup_at_4 = series
        .iter()
        .find(|m| m.threads == 4)
        .map(|m| m.tuples_per_sec / t1)
        .unwrap_or(0.0);
    println!("\nspeedup at 4 threads vs 1 thread: {speedup_at_4:.2}x");

    // JSON trajectory record (repo root, next to the sources). Written
    // *before* the speedup gate below: if the claim fails, the measured
    // evidence of the failure must survive, not the stale previous run.
    let rows: Vec<String> = series
        .iter()
        .map(|m| {
            format!(
                "    {{\"threads\": {}, \"secs\": {:.4}, \"tuples_per_sec\": {:.1}, \"speedup_vs_1t\": {:.3}, \"barriers_per_arrival\": {:.3}}}",
                m.threads,
                m.secs,
                m.tuples_per_sec,
                m.tuples_per_sec / t1,
                m.barriers_per_arrival
            )
        })
        .collect();
    // Per-stage wall-time histograms over the whole sweep, from the
    // telemetry registry — the observability layer answering the bench's
    // own question: where does a batch's time actually go?
    let obs = ter_obs::snapshot();
    let stage_rows: Vec<String> = [
        ("impute", "ter_engine_impute_micros"),
        ("traverse", "ter_engine_traverse_micros"),
        ("refine", "ter_engine_refine_micros"),
        ("merge", "ter_engine_merge_micros"),
        ("barrier_wait", "ter_engine_barrier_wait_micros"),
    ]
    .iter()
    .map(|(stage, metric)| {
        let row = obs
            .iter()
            .find(|r| r.name == *metric)
            .expect("stage metric registered");
        format!(
            "    \"{stage}\": {{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
            row.value,
            row.sum,
            row.quantile(0.50),
            row.quantile(0.95),
            row.quantile(0.99)
        )
    })
    .collect();
    // The whole sweep's attribution table (the registry was reset just
    // before the sweep, so the cumulative table covers exactly it).
    let (sweep_cp, _) = ter_obs::trace::snapshot();
    let json = format!(
        "{{\n  \"bench\": \"fig18_throughput\",\n{}\n  \"preset\": \"{}\",\n  \"scale\": {},\n  \"window\": {},\n  \"shards\": {},\n  \"batch\": {},\n  \"arrivals\": {},\n  \"host_cpus\": {},\n  \"undersubscribed\": {},\n  \"sequential_tuples_per_sec\": {:.1},\n  \"stage_micros\": {{\n{}\n  }},\n  \"critical_path\": {},\n  \"series\": [\n{}\n  ]\n}}\n",
        RunStamp::capture().json_fields(),
        preset.name(),
        scale,
        params.window,
        shards,
        batch,
        prepared.arrivals.len(),
        host_cpus,
        undersubscribed,
        seq_tps,
        stage_rows.join(",\n"),
        critical_path_json(&sweep_cp),
        rows.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
    std::fs::write(out, &json).expect("write BENCH_throughput.json");
    println!("wrote {out}");

    if undersubscribed {
        println!(
            "undersubscribed: sweep max {} threads > {host_cpus} visible CPU(s) — \
             recording the curve, skipping the speedup-claim assertion",
            swept.iter().max().unwrap()
        );
    } else {
        // The design target is ≥1.8× at 4 threads; gate conservatively so
        // shared-runner noise does not flake the bench.
        assert!(
            speedup_at_4 >= 1.2,
            "4-thread speedup {speedup_at_4:.2}x below the 1.2x floor on a \
             {host_cpus}-CPU host (design target 1.8x)"
        );
    }
}
