//! Figure 21 (beyond the paper): the declarative query layer — what a
//! one-shot pattern query costs against live engine state, and what the
//! differential standing-query path saves over re-running the query
//! from scratch at every window slide.
//!
//! Three representative patterns run the whole EBooks stream as
//! standing queries over the batched engine, all attached to the same
//! feed:
//!
//! * **pairs** — `match(a, b)`: the raw live result set;
//! * **join** — `match(a, b), live(c) where topical(a)`: a cross join
//!   against the live window behind a selective predicate;
//! * **chain** — `match(a, b), match(b, c) -> a`: a self-join through a
//!   shared variable with projection (support-counted rows).
//!
//! For every pattern and every batch the bench times BOTH paths — the
//! incremental `StandingQuery::apply_batch` delta and a from-scratch
//! `evaluate` — and **parity-gates each batch**: the accumulated
//! notification fold must be bit-identical to the from-scratch rows
//! before any number is accepted. The recorded figures are the
//! incremental-vs-reeval speedup, the notify row throughput, and the
//! steady-state one-shot latency on the final window. Results land in
//! `BENCH_query.json` with a `RunStamp`.
//!
//! A second section drives a **standing herd** against the real daemon:
//! `TER_FIG21_HERD` subscribers (default 24) all standing on the
//! row-heaviest pattern (`join`) while a feeder pushes the stream over
//! TCP. Two runs bracket the `--notify-buffer` sizing question:
//!
//! * **draining** — every subscriber drains concurrently; records the
//!   `ter_query_notify_*` fan-out totals and the peak un-drained
//!   backlog (`ter_query_backlog_high_water`) a healthy herd produces;
//! * **stalled** — nobody reads until the feed ends, under a tiny
//!   buffer; records how high the backlog climbs and how many
//!   subscribers shed to `Lagged`.
//!
//! Sizing rule the two runs document: `--notify-buffer` (un-drained
//! outbound **bytes** per subscriber connection) must sit above the
//! draining high-water mark — the stalled run shows what happens below
//! it (bounded memory, shed-and-resync, ingest never stalls).
//!
//! `TER_FIG21_SCALE` scales the stream for quick local runs.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ter_bench::{header, prepare, RunStamp};
use ter_datasets::{GenOptions, Preset};
use ter_exec::{ExecConfig, ShardedTerIdsEngine};
use ter_ids::{ErProcessor, Params, PruningMode};
use ter_query::{evaluate, fold_notification, BatchDelta, Pattern, StandingQuery};
use ter_serve::{Client, ServeOptions, Server, SubEvent};

const BATCH: usize = 64;
const ONESHOT_REPS: usize = 50;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!("ter_fig21_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        Self(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// One herd run's scraped counters.
struct HerdRun {
    label: &'static str,
    notify_buffer: usize,
    feed_secs: f64,
    notify_events: u64,
    notify_rows: u64,
    notify_bytes: u64,
    backlog_high_water: u64,
    sheds: u64,
    lagged_subs: usize,
    rows_received: u64,
}

/// Drains one subscriber connection (all its standing queries) to EOF
/// (or idle timeout), counting received notify rows and whether a
/// `Lagged` shed arrived.
fn drain_subscriber(client: &mut Client) -> (u64, bool) {
    let _ = client.set_io_timeout(Some(Duration::from_secs(10)));
    let (mut rows, mut lagged) = (0u64, false);
    loop {
        match client.next_event() {
            Ok(SubEvent::Notify {
                added, retracted, ..
            }) => rows += (added.len() + retracted.len()) as u64,
            Ok(SubEvent::Lagged { .. }) => lagged = true,
            Err(_) => break,
        }
    }
    (rows, lagged)
}

/// Runs a standing herd against a fresh in-process daemon: `herd`
/// subscriber connections each carrying `subs_per_conn` standing
/// queries on `pattern`, a feeder pushing `batches` over TCP, the
/// global metrics registry scraped once everything is flushed.
#[allow(clippy::too_many_arguments)]
fn herd_run(
    label: &'static str,
    prepared: &ter_bench::Prepared,
    batches: &[&[ter_stream::Arrival]],
    herd: usize,
    subs_per_conn: usize,
    pattern: &str,
    notify_buffer: usize,
    drain_live: bool,
) -> HerdRun {
    ter_obs::reset();
    let dir = TempDir::new(label);
    let opts = ServeOptions {
        notify_buffer,
        ..ServeOptions::default()
    };
    let server = Server::bind("127.0.0.1:0").expect("bind");
    let addr = server.addr().expect("addr");
    let (feed_secs, rows_received, lagged_subs) = std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            server
                .run(&prepared.ctx, prepared.params, &dir.0, &opts)
                .expect("daemon run")
        });
        let connect = Duration::from_secs(10);
        let mut subs: Vec<Client> = (0..herd)
            .map(|_| {
                let mut c = Client::connect_retry(addr, connect).expect("subscriber connect");
                for s in 0..subs_per_conn {
                    c.subscribe(s as u64 + 1, 0, pattern).expect("subscribe");
                }
                c
            })
            .collect();
        // A draining herd reads as the feed runs; a stalled herd leaves
        // everything queued until the feed is over.
        let drains: Vec<_> = if drain_live {
            subs.drain(..)
                .map(|mut c| scope.spawn(move || drain_subscriber(&mut c)))
                .collect()
        } else {
            Vec::new()
        };
        let mut feeder = Client::connect_retry(addr, connect).expect("feeder connect");
        let t = Instant::now();
        for batch in batches {
            feeder.ingest_wait(batch).expect("ingest");
        }
        // Shutdown serializes behind every ingest's notify fan-out, so
        // the counters are complete once it acks; it also closes the
        // subscriber connections, ending the drains.
        feeder.shutdown().expect("shutdown");
        let feed_secs = t.elapsed().as_secs_f64();
        let results: Vec<(u64, bool)> = if drain_live {
            drains.into_iter().map(|h| h.join().unwrap()).collect()
        } else {
            subs.iter_mut().map(drain_subscriber).collect()
        };
        handle.join().unwrap();
        let rows_received: u64 = results.iter().map(|(r, _)| r).sum();
        let lagged_subs = results.iter().filter(|(_, l)| *l).count();
        (feed_secs, rows_received, lagged_subs)
    });
    HerdRun {
        label,
        notify_buffer,
        feed_secs,
        notify_events: ter_obs::OBS.notify_events.get(),
        notify_rows: ter_obs::OBS.notify_rows.get(),
        notify_bytes: ter_obs::OBS.notify_bytes.get(),
        backlog_high_water: ter_obs::OBS.backlog_high_water.get(),
        sheds: ter_obs::OBS.shed.get(),
        lagged_subs,
        rows_received,
    }
}

const PATTERNS: [(&str, &str); 3] = [
    ("pairs", "match(a, b)"),
    ("join", "match(a, b), live(c) where topical(a)"),
    ("chain", "match(a, b), match(b, c) -> a"),
];

struct PatternRun {
    tag: &'static str,
    src: &'static str,
    standing: StandingQuery,
    fold: BTreeSet<Vec<u64>>,
    incr_secs: f64,
    reeval_secs: f64,
    notify_rows: u64,
}

fn main() {
    let scale: f64 = std::env::var("TER_FIG21_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);
    let preset = Preset::EBooks;
    let params = Params::default();

    header(
        "Figure 21",
        "declarative query layer: one-shot latency + differential standing-query throughput",
    );
    println!(
        "preset={} scale={scale} window={} batch={BATCH}",
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
    let batches: Vec<&[ter_stream::Arrival]> = prepared.arrivals.chunks(BATCH).collect();

    let mut engine = ShardedTerIdsEngine::new(
        &prepared.ctx,
        prepared.params,
        PruningMode::Full,
        ExecConfig,
    );
    let mut runs: Vec<PatternRun> = PATTERNS
        .iter()
        .map(|&(tag, src)| {
            let pattern = Pattern::parse(src).expect("bench pattern parses");
            let mut standing = StandingQuery::new(pattern);
            let fold: BTreeSet<Vec<u64>> = standing.seed(&engine).into_iter().collect();
            PatternRun {
                tag,
                src,
                standing,
                fold,
                incr_secs: 0.0,
                reeval_secs: 0.0,
                notify_rows: 0,
            }
        })
        .collect();

    // ---- one feed, every pattern standing, both paths timed ----
    for (bi, batch) in batches.iter().enumerate() {
        let outputs = engine.step_batch(batch);
        let delta = BatchDelta::from_steps(batch, &outputs);
        for run in &mut runs {
            let t = Instant::now();
            let (added, retracted) = run.standing.apply_batch(&engine, &delta);
            run.incr_secs += t.elapsed().as_secs_f64();
            run.notify_rows += (added.len() + retracted.len()) as u64;
            fold_notification(&mut run.fold, &added, &retracted);

            let t = Instant::now();
            let fresh = evaluate(run.standing.pattern(), &engine);
            run.reeval_secs += t.elapsed().as_secs_f64();

            // Parity gate: a fast wrong delta stream is worthless.
            assert!(
                run.fold.iter().cloned().eq(fresh.into_iter()),
                "fold diverged from from-scratch evaluation \
                 (pattern `{}`, batch {bi})",
                run.src
            );
        }
    }

    // ---- steady-state one-shot latency on the final window ----
    let mut pattern_json = Vec::new();
    for run in &runs {
        let pattern = Pattern::parse(run.src).expect("bench pattern parses");
        let mut rows = 0usize;
        let t = Instant::now();
        for _ in 0..ONESHOT_REPS {
            rows = evaluate(&pattern, &engine).len();
        }
        let oneshot_us = t.elapsed().as_secs_f64() / ONESHOT_REPS as f64 * 1e6;

        let speedup = run.reeval_secs / run.incr_secs.max(1e-12);
        let notify_rows_per_sec = run.notify_rows as f64 / run.incr_secs.max(1e-12);
        println!(
            "{:<6} one-shot {oneshot_us:>9.1}us  incremental {:>8.3}s  \
             reeval {:>8.3}s  ({speedup:>6.2}x)  {:>10} notify rows  {rows} final rows",
            run.tag, run.incr_secs, run.reeval_secs, run.notify_rows
        );
        pattern_json.push(format!(
            "    {{\n      \"tag\": \"{}\",\n      \"pattern\": \"{}\",\n      \
             \"oneshot_latency_us\": {oneshot_us:.2},\n      \
             \"incremental_secs\": {:.4},\n      \"reeval_secs\": {:.4},\n      \
             \"incremental_speedup\": {speedup:.3},\n      \
             \"notify_rows\": {},\n      \
             \"notify_rows_per_sec\": {notify_rows_per_sec:.1},\n      \
             \"final_rows\": {rows}\n    }}",
            run.tag, run.src, run.incr_secs, run.reeval_secs, run.notify_rows
        ));
    }

    // ---- standing herd vs --notify-buffer against the real daemon ----
    let herd: usize = std::env::var("TER_FIG21_HERD")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24);
    // Each connection carries several standing queries (the dashboard
    // shape) so its notify volume overflows the kernel's socket
    // buffering (autotuned to a few MiB on loopback) — below that a
    // stalled subscriber is absorbed invisibly and the backlog gauge
    // measures nothing.
    let subs_per_conn: usize = std::env::var("TER_FIG21_SUBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12);
    let join_pattern = PATTERNS[1].1;
    let mut herd_runs: Vec<HerdRun> = Vec::new();
    if herd > 0 {
        println!("herd: {herd} connections x {subs_per_conn} standing queries on `{join_pattern}`");
        let default_buffer = ServeOptions::default().notify_buffer;
        for (label, buffer, drain_live) in [
            ("draining", default_buffer, true),
            ("stalled", 4096usize, false),
        ] {
            let run = herd_run(
                label,
                &prepared,
                &batches,
                herd,
                subs_per_conn,
                join_pattern,
                buffer,
                drain_live,
            );
            println!(
                "herd/{:<8} {herd} subs  feed {:>6.2}s  {:>8} events  {:>10} rows  \
                 {:>10} B  backlog hw {:>8} B (buffer {} B)  sheds {}  lagged {}",
                run.label,
                run.feed_secs,
                run.notify_events,
                run.notify_rows,
                run.notify_bytes,
                run.backlog_high_water,
                run.notify_buffer,
                run.sheds,
                run.lagged_subs
            );
            herd_runs.push(run);
        }
        // The draining herd must never shed; the sizing observation is
        // meaningless if a healthy consumer lags the default buffer.
        assert_eq!(
            herd_runs[0].sheds, 0,
            "draining herd shed under default buffer"
        );
        assert_eq!(herd_runs[0].lagged_subs, 0, "draining herd saw Lagged");
        // Fan-out symmetry: every draining subscriber got the full row
        // stream the daemon counted.
        assert_eq!(
            herd_runs[0].rows_received, herd_runs[0].notify_rows,
            "draining herd dropped rows"
        );
    } else {
        println!("herd skipped (TER_FIG21_HERD=0)");
    }
    let herd_json: Vec<String> = herd_runs
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"run\": \"{}\",\n      \"subscribers\": {herd},\n      \
                 \"notify_buffer_bytes\": {},\n      \"feed_secs\": {:.3},\n      \
                 \"notify_events\": {},\n      \"notify_rows\": {},\n      \
                 \"notify_bytes\": {},\n      \"backlog_high_water\": {},\n      \
                 \"sheds\": {},\n      \"lagged_subscribers\": {},\n      \
                 \"rows_received\": {}\n    }}",
                r.label,
                r.notify_buffer,
                r.feed_secs,
                r.notify_events,
                r.notify_rows,
                r.notify_bytes,
                r.backlog_high_water,
                r.sheds,
                r.lagged_subs,
                r.rows_received
            )
        })
        .collect();

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    // The delta/reeval comparison is algorithmic, not a concurrency
    // claim, but the honesty flag rides along for the schema gate: a
    // 1-CPU host time-slices the engine and the daemon's other stages.
    let undersubscribed = host_cpus < 2;

    let json = format!(
        "{{\n  \"bench\": \"fig21_query\",\n{}\n  \"preset\": \"{}\",\n  \"scale\": {},\n  \
         \"window\": {},\n  \"batch\": {},\n  \
         \"host_cpus\": {},\n  \"undersubscribed\": {},\n  \
         \"arrivals\": {},\n  \"batches\": {},\n  \"oneshot_reps\": {},\n  \
         \"parity\": \"fold == from-scratch after every batch\",\n  \
         \"notify_buffer_sizing\": \"set --notify-buffer (un-drained outbound bytes per \
         subscriber) above the draining herd's backlog_high_water; below it the daemon \
         sheds the subscriber with one Lagged instead of buffering unboundedly\",\n  \
         \"herd_connections\": {herd},\n  \"herd_subs_per_conn\": {subs_per_conn},\n  \
         \"patterns\": [\n{}\n  ],\n  \"herd\": [\n{}\n  ]\n}}\n",
        RunStamp::capture().json_fields(),
        preset.name(),
        scale,
        params.window,
        BATCH,
        host_cpus,
        undersubscribed,
        prepared.arrivals.len(),
        batches.len(),
        ONESHOT_REPS,
        pattern_json.join(",\n"),
        herd_json.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_query.json");
    fs::write(out, &json).expect("write BENCH_query.json");
    println!("wrote {out}");
}
