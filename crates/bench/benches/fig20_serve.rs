//! Figure 20 (beyond the paper): service-layer ingest throughput — what
//! the daemon costs on top of the durable library loop, and what
//! pipelined ingest buys back.
//!
//! Three measured configurations over the same EBooks stream:
//!
//! * **library+wal** — the in-process durable loop (`log_batch` with
//!   fsync-per-batch, then `step_batch`),
//!   the fastest any durable consumer can go;
//! * **daemon (request/reply)** — the same batches through `ter_serve`
//!   over localhost TCP with one batch in flight (`Client::ingest_wait`,
//!   the sequenced ingest verb at window 1): framing + CRC, the bounded
//!   ordered queue, WAL-before-ack, and the checkpoint cadence all
//!   included;
//! * **daemon (pipelined, W unacked batches)** — the same verb with a
//!   window of `W`: the round-trip hides behind the window and the daemon
//!   overlaps batch `n+1`'s WAL fsync with batch `n`'s compute.
//!
//! plus two sweeps over the event-driven front end:
//!
//! * **group-commit sweep** — the same arrivals in eight times as many
//!   batches, pipelined 8 deep, at `flush_window ∈ {1, 8}` with the
//!   checkpoint cadence off, counting WAL fsyncs via
//!   [`ServeReport::fsyncs`]. `W=1` must fsync once per batch (the
//!   pre-group-commit contract, bit-identical output); `W=8` must cover
//!   the same batches with at least 4× fewer fsyncs, and with one fsync
//!   per filled window — the cross-connection group-commit claim,
//!   asserted, not just recorded.
//!   Each arm runs five times, alternating, and the per-batch
//!   fsync-exposed time is compared between the arms' median runs;
//! * **connection herd** — the headline pipelined run repeated with
//!   `TER_FIG20_HERD` idle standing connections (default 256) parked on
//!   the poll loop, recording what a loaded front end costs the feed.
//!
//! Every daemon run is parity-gated: its per-arrival match lists must be
//! bit-identical to the library run's before its throughput is accepted.
//! Results land in `BENCH_serve.json` with a `RunStamp`. When the host
//! has too few CPUs for client + daemon stages to actually run
//! concurrently the JSON is flagged `"undersubscribed": true`. The
//! pipelined speedup over request/reply is recorded, not asserted: runs
//! of a tenth of a second on a 2-CPU host put it anywhere in 0.6–1.1×.
//! What is asserted is the mechanism, which the host cannot perturb: the
//! pipelined client kept `W` batches unacked at once, and every ack came
//! back in sequence order. (The fsync-ratio assertion is not CPU-gated
//! either: group commit batches fsyncs even time-sliced.)
//!
//! `TER_FIG20_SCALE` scales the stream for quick local runs.

use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ter_bench::{critical_path_json, header, prepare, RunStamp};
use ter_datasets::{GenOptions, Preset};
use ter_exec::{ExecConfig, ShardedTerIdsEngine};
use ter_ids::{ErProcessor, Params, PruningMode};
use ter_obs::trace::{seg, CriticalPath};
use ter_serve::{Client, ServeOptions, ServeReport, Server};
use ter_store::{context_fingerprint, TerStore};
use ter_stream::Arrival;

const BATCH: usize = 256;
const CHECKPOINT_EVERY: u64 = 16;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!("ter_fig20_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        Self(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let scale: f64 = std::env::var("TER_FIG20_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);
    let preset = Preset::EBooks;
    let params = Params::default();

    header(
        "Figure 20",
        "service-layer ingest throughput (daemon vs durable library loop)",
    );
    println!(
        "preset={} scale={scale} window={} batch={BATCH} checkpoint_every={CHECKPOINT_EVERY} \
",
        preset.name(),
        params.window,
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
    let batches: Vec<Vec<Arrival>> = arrivals.chunks(BATCH).map(<[_]>::to_vec).collect();

    // ---- library+wal: the in-process durable loop ----
    let lib_dir = TempDir::new("lib");
    let fp = context_fingerprint(&prepared.ctx, &prepared.params);
    let mut store = TerStore::open(&lib_dir.0, fp).expect("open store");
    let mut engine = ShardedTerIdsEngine::new(
        &prepared.ctx,
        prepared.params,
        PruningMode::Full,
        ExecConfig,
    );
    let mut lib_matches: Vec<Vec<(u64, u64)>> = Vec::new();
    let start = Instant::now();
    for batch in &batches {
        let seq = store.log_batch(batch).expect("wal append");
        lib_matches.extend(engine.step_batch(batch).into_iter().map(|o| o.new_matches));
        if (seq + 1) % CHECKPOINT_EVERY == 0 {
            store
                .checkpoint(&engine.export_state())
                .expect("checkpoint");
        }
    }
    let lib_secs = start.elapsed().as_secs_f64();
    let lib_tps = arrivals.len() as f64 / lib_secs;
    println!("library+wal         {lib_secs:>9.2}s {lib_tps:>12.1} tuples/s");

    // One daemon run of `feed` over a fresh directory; `window == 1`
    // feeds one batch at a time through `ingest_wait`, `window > 1` runs
    // the windowed `ingest_pipelined` driver. `idle_conns` standing
    // connections are parked on the poll loop for the duration. The
    // daemon runs in-process (a scoped thread), so the returned
    // critical-path table is the trace registry's delta across the run:
    // the attribution of exactly this feed's acked batches.
    // (wall secs, per-batch served matches, report, trace-table delta,
    // most batches the client had unacked at once)
    type DaemonRun = (f64, Vec<Vec<(u64, u64)>>, ServeReport, CriticalPath, usize);
    let daemon_run = |tag: &str,
                      feed: &[Vec<Arrival>],
                      window: usize,
                      opts: ServeOptions,
                      idle_conns: usize|
     -> DaemonRun {
        let serve_dir = TempDir::new(tag);
        let server = Server::bind("127.0.0.1:0").expect("bind");
        let addr = server.addr().expect("addr");
        let (cp0, _) = ter_obs::trace::snapshot();
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                server
                    .run(&prepared.ctx, prepared.params, &serve_dir.0, &opts)
                    .expect("serve")
            });
            let herd: Vec<std::net::TcpStream> = (0..idle_conns)
                .map(|_| std::net::TcpStream::connect(addr).expect("herd connect"))
                .collect();
            let mut client = Client::connect_retry(addr, Duration::from_secs(30)).expect("connect");
            let mut served: Vec<Vec<(u64, u64)>> = Vec::new();
            let start = Instant::now();
            let max_in_flight = if window <= 1 {
                for batch in feed {
                    served.extend(client.ingest_wait(batch).expect("ingest"));
                }
                1
            } else {
                // `ingest_pipelined` fails the run on an ack whose sequence
                // number is not the next one expected, so a run that
                // completes got every ack back in sequence order.
                let run = client
                    .ingest_pipelined(feed, window)
                    .expect("pipelined ingest: acks out of sequence order?");
                served.extend(run.per_batch.into_iter().flatten());
                run.max_in_flight
            };
            let secs = start.elapsed().as_secs_f64();
            drop(herd);
            client.shutdown().expect("shutdown");
            let report = handle.join().expect("daemon thread");
            assert_eq!(report.batches, feed.len() as u64);
            let (cp1, _) = ter_obs::trace::snapshot();
            (secs, served, report, cp1.delta(&cp0), max_in_flight)
        })
    };
    let base_opts = || ServeOptions {
        checkpoint_every: CHECKPOINT_EVERY,
        ..ServeOptions::default()
    };

    // ---- daemon, strict request/reply (one batch in flight) ----
    let (reqrep_secs, reqrep_matches, _, _, _) = daemon_run("reqrep", &batches, 1, base_opts(), 0);
    // Parity gate: throughput of a wrong answer is meaningless.
    assert_eq!(
        reqrep_matches, lib_matches,
        "request/reply daemon results diverged from the library engine"
    );
    let reqrep_tps = arrivals.len() as f64 / reqrep_secs;
    let overhead = lib_tps / reqrep_tps;
    println!(
        "daemon req/reply    {reqrep_secs:>9.2}s {reqrep_tps:>12.1} tuples/s \
         ({overhead:.2}x library+wal time)"
    );

    // ---- daemon, pipelined ingest (W unacked batches) ----
    const PIPELINE_WINDOW: usize = 4;
    let (piped_secs, piped_matches, _, piped_cp, piped_in_flight) =
        daemon_run("pipelined", &batches, PIPELINE_WINDOW, base_opts(), 0);
    assert_eq!(
        piped_matches, lib_matches,
        "pipelined daemon results diverged from the library engine"
    );
    let piped_tps = arrivals.len() as f64 / piped_secs;
    let pipe_speedup = piped_tps / reqrep_tps;
    println!(
        "daemon pipelined W{PIPELINE_WINDOW} {piped_secs:>9.2}s {piped_tps:>12.1} tuples/s \
         ({pipe_speedup:.2}x request/reply)"
    );

    // ---- group-commit sweep: fsyncs vs flush window ----
    // Checkpoint cadence off so every fsync on the counter is a WAL
    // commit; a generous flush interval so the pipelined feed (the step
    // stage is the bottleneck) can actually fill an 8-deep window before
    // the time bound fires. Both arms feed the arrivals split evenly into
    // `GC_WINDOW` times as many batches as the headline feed (an eighth
    // of `BATCH` arrivals each, on average), so the batch count is a
    // multiple of the window and every W=8 window closes on its count
    // bound instead of idling out the interval.
    const GC_WINDOW: usize = 8;
    let gc_count = GC_WINDOW * batches.len();
    let gc_batches: Vec<Vec<Arrival>> = (0..gc_count)
        .map(|i| {
            arrivals[i * arrivals.len() / gc_count..(i + 1) * arrivals.len() / gc_count].to_vec()
        })
        .collect();
    // One run's per-batch fsync exposure rests on a few fsyncs, so it is
    // a coin flip on a busy host. The arms run `GC_REPS` times,
    // alternating so host drift hits both alike, and the exposure claim
    // compares their medians.
    const GC_REPS: usize = 5;
    let gc_opts = |flush_window: usize| ServeOptions {
        checkpoint_every: 0,
        flush_window,
        flush_interval: Duration::from_secs(2),
        ..base_opts()
    };
    let mut gc1_runs = Vec::with_capacity(GC_REPS);
    let mut gc8_runs = Vec::with_capacity(GC_REPS);
    for _ in 0..GC_REPS {
        let (secs, matches, report, cp, _) =
            daemon_run("gc_w1", &gc_batches, GC_WINDOW, gc_opts(1), 0);
        assert_eq!(
            matches, lib_matches,
            "flush_window=1 daemon results diverged from the library engine"
        );
        assert_eq!(
            report.fsyncs, report.batches,
            "flush_window=1 must degenerate to fsync-per-batch"
        );
        gc1_runs.push((secs, report, cp));
        let (secs, matches, report, cp, _) =
            daemon_run("gc_w8", &gc_batches, GC_WINDOW, gc_opts(GC_WINDOW), 0);
        assert_eq!(
            matches, lib_matches,
            "flush_window=8 daemon results diverged from the library engine"
        );
        // At least 4x fewer fsyncs than batches; a run of fewer than 8
        // batches may still need its one fsync.
        assert!(
            report.fsyncs <= (report.batches / 4).max(1),
            "group commit at flush_window=8 must cover {} batches with at \
             least 4x fewer fsyncs (got {})",
            report.batches,
            report.fsyncs
        );
        // Windows close on their count: one fsync per 8 batches, plus at
        // most one for a window the interval closes early.
        assert!(
            report.fsyncs <= report.batches.div_ceil(GC_WINDOW as u64) + 1,
            "group commit at flush_window=8 used {} fsyncs for {} batches: \
             windows are not closing on their count bound",
            report.fsyncs,
            report.batches
        );
        gc8_runs.push((secs, report, cp));
    }
    let (gc1_secs, gc1_report, _) = &gc1_runs[0];
    let (gc8_secs, gc8_report, _) = &gc8_runs[0];
    println!(
        "group commit W=1    {gc1_secs:>9.2}s  {} fsyncs / {} batches",
        gc1_report.fsyncs, gc1_report.batches
    );
    println!(
        "group commit W=8    {gc8_secs:>9.2}s  {} fsyncs / {} batches \
         ({:.1}x fewer)",
        gc8_report.fsyncs,
        gc8_report.batches,
        gc1_report.fsyncs as f64 / gc8_report.fsyncs as f64
    );
    // The causal traces answer the open perf question behind the sweep:
    // how much fsync time an acked batch actually *waits for* (a shared
    // fsync's duration is charged to each covered batch at 1/covered).
    // At W=1 every batch eats a whole fsync; at W=8 the covering fsync
    // amortizes 8 ways, so the per-batch exposure must drop. Each run
    // gives its mean over its traced batches; the claim uses the median
    // run of each arm.
    let exposure = |runs: &[(f64, ServeReport, CriticalPath)]| {
        let mut per_run: Vec<u64> = runs
            .iter()
            .map(|(_, _, cp)| cp.segments[seg::FSYNC_EXPOSED] / cp.traces.max(1))
            .collect();
        per_run.sort_unstable();
        let traces: u64 = runs.iter().map(|(_, _, cp)| cp.traces).sum();
        (per_run[per_run.len() / 2], traces)
    };
    let (w1_exposed, gc1_traces) = exposure(&gc1_runs);
    let (w8_exposed, gc8_traces) = exposure(&gc8_runs);
    println!(
        "fsync exposed/batch W=1 {w1_exposed}us  W=8 {w8_exposed}us  \
         (median of {GC_REPS} runs; {gc1_traces} traces / {gc8_traces} traces)"
    );

    // ---- connection herd: the headline feed under standing load ----
    let herd_conns: usize = std::env::var("TER_FIG20_HERD")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256);
    let (herd_secs, herd_matches, _, _, _) =
        daemon_run("herd", &batches, PIPELINE_WINDOW, base_opts(), herd_conns);
    assert_eq!(
        herd_matches, lib_matches,
        "daemon results under the connection herd diverged from the library engine"
    );
    let herd_tps = arrivals.len() as f64 / herd_secs;
    let herd_cost = piped_tps / herd_tps;
    println!(
        "daemon {herd_conns} idle conns {herd_secs:>9.2}s {herd_tps:>12.1} tuples/s \
         ({herd_cost:.2}x pipelined time)"
    );

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    // Bench honesty: with fewer than 2 CPUs the client, the WAL stage,
    // and the step stage time-slice one core — overlap cannot show, and
    // the JSON says so.
    let undersubscribed = host_cpus < 2;
    // The per-batch fsync-exposure claim needs real concurrency too: on
    // one time-sliced CPU the W=1 run's fsyncs can look artificially
    // cheap (nothing else contends for the disk's dispatch window), so
    // the ratio is recorded but only asserted with ≥2 CPUs visible.
    if !undersubscribed {
        assert!(
            gc1_runs
                .iter()
                .chain(&gc8_runs)
                .all(|(_, _, cp)| cp.traces > 0),
            "a group-commit run completed no traces — tracing disabled?"
        );
        assert!(
            (w8_exposed as f64) < (w1_exposed as f64) * 0.6,
            "group commit at flush_window=8 must measurably shrink the \
             per-batch fsync-exposed time: W=1 {w1_exposed}us vs W=8 \
             {w8_exposed}us (claim: < 0.6x)"
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"fig20_serve\",\n{}\n  \"preset\": \"{}\",\n  \"scale\": {},\n  \
         \"window\": {},\n  \"batch\": {},\n  \"checkpoint_every\": {},\n  \
         \"host_cpus\": {},\n  \"undersubscribed\": {},\n  \
         \"arrivals\": {},\n  \
         \"library_wal_tuples_per_sec\": {:.1},\n  \"daemon_tuples_per_sec\": {:.1},\n  \
         \"daemon_overhead_factor\": {:.3},\n  \"pipeline_window\": {},\n  \
         \"pipelined_tuples_per_sec\": {:.1},\n  \"pipelined_speedup_vs_request_reply\": {:.3},\n  \
         \"group_commit_batches\": {},\n  \"group_commit_fsyncs_w1\": {},\n  \
         \"group_commit_fsyncs_w8\": {},\n  \"group_commit_fsync_reduction\": {:.3},\n  \
         \"fsync_exposed_per_batch_w1_micros\": {},\n  \
         \"fsync_exposed_per_batch_w8_micros\": {},\n  \
         \"idle_conn_herd\": {},\n  \"herd_tuples_per_sec\": {:.1},\n  \
         \"herd_cost_factor\": {:.3},\n  \"critical_path\": {}\n}}\n",
        RunStamp::capture().json_fields(),
        preset.name(),
        scale,
        params.window,
        BATCH,
        CHECKPOINT_EVERY,
        host_cpus,
        undersubscribed,
        arrivals.len(),
        lib_tps,
        reqrep_tps,
        overhead,
        PIPELINE_WINDOW,
        piped_tps,
        pipe_speedup,
        gc8_report.batches,
        gc1_report.fsyncs,
        gc8_report.fsyncs,
        gc1_report.fsyncs as f64 / gc8_report.fsyncs as f64,
        w1_exposed,
        w8_exposed,
        herd_conns,
        herd_tps,
        herd_cost,
        critical_path_json(&piped_cp)
    );
    // Written before the pipelining gate below, so a failed claim leaves
    // its measured evidence behind instead of the stale previous run.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    fs::write(out, &json).expect("write BENCH_serve.json");
    println!("wrote {out}");

    // The pipelining claim in a form the host cannot perturb: the client
    // really kept W batches unacked at once (the acks' sequence order is
    // checked by `ingest_pipelined` inside `daemon_run`). The wall-clock speedup
    // above is evidence in the JSON, not a gate.
    assert_eq!(
        piped_in_flight,
        PIPELINE_WINDOW.min(batches.len()),
        "pipelined ingest (W={PIPELINE_WINDOW}) never had W batches in flight"
    );
}
