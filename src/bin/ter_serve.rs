//! The `ter_serve` command-line front end: run the daemon, feed it a
//! preset stream, or query it.
//!
//! ```text
//! ter_serve serve --dir DIR [--addr 127.0.0.1:7341] [--preset ebooks]
//!                 [--scale 1.0] [--window 400] [--checkpoint-every 8]
//!                 [--queue-depth 16] [--io-threads 2] [--flush-window 1]
//!                 [--flush-interval-ms 5] [--fsync-delay-ms 0]
//! ter_serve feed  --addr ADDR [--preset ebooks] [--scale 1.0]
//!                 [--window 400] [--batch 64] [--from auto|N]
//!                 [--pipeline W] [--resilient] [--batches N]
//!                 [--oracle-check] [--quiet]
//! ter_serve query --addr ADDR [--id ID] [--pattern 'match(a, b)']
//! ter_serve subscribe --addr ADDR --pattern 'match(a, b)'
//!                 [--sub-id 1] [--resync-seq 0] [--events N]
//! ter_serve metrics --addr ADDR [--watch N]
//! ter_serve trace --addr ADDR [--slowest N] [--follow]
//! ter_serve shutdown --addr ADDR
//! ```
//!
//! The daemon prints `LISTENING <addr>` once the socket is bound (`:0`
//! resolves to a real port), so harnesses can scrape the address. Both
//! `serve` and `feed` build the *same* deterministic generated dataset
//! from `(--preset, --scale, --window)`; the context fingerprint
//! guarantees a store directory is never mixed across datasets. A flag
//! the subcommand does not take is an error, not silently ignored.
//! `serve` stamps its checkpoints on one delta ladder: the first stamp
//! of a run is a full snapshot, later ones are deltas chained to it, and
//! a full rebase follows once the chain outgrows `--max-chain-len` or
//! `--max-chain-bytes`.
//!
//! `feed --from auto` (the default) asks the daemon where its WAL ends
//! and resumes the stream cursor there — after a `kill -9`, rerunning the
//! same `feed` command completes the stream without double-feeding.
//! `--pipeline W` keeps up to `W` unacked batches on the wire (the daemon
//! overlaps each batch's fsync with the previous batch's compute; the
//! default `W = 1` is request/reply); `--resilient` additionally
//! survives daemon restarts mid-feed by re-dialing and resuming from the
//! daemon's own committed position. `--oracle-check` replays the whole
//! stream through an in-process engine and insists the daemon's final
//! statistics are bit-identical.
//!
//! `query --pattern` runs a one-shot declarative pattern query;
//! `subscribe` registers the pattern as a *standing* query and
//! streams the daemon's incremental match/retraction notifications to
//! stdout as the window slides — one line per event, `LAGGED` when the
//! daemon shed the subscription under backpressure (rerun `subscribe`
//! quoting the printed resync position).
//!
//! `metrics` scrapes the daemon's telemetry registry over the wire
//! (the `MetricsDump` verb) and prints it in the `ter_obs` text
//! exposition format; `--watch N` re-scrapes every N seconds and renders
//! counter/histogram *deltas* instead — a poor-man's `top` for the
//! daemon. `serve --metrics-text <path|->` additionally makes the daemon
//! itself write the same exposition to a file (atomically, on every
//! cadence checkpoint, at shutdown, and on a step-stage panic) — the
//! flight-recorder dump a post-mortem reads after a `kill -9`.
//!
//! `trace` scrapes the daemon's causal per-batch traces (the `TraceDump`
//! verb): first the cumulative critical-path attribution table —
//! where each acked batch's end-to-end latency went, segment by segment
//! — then the slowest retained traces rendered as span trees.
//! `--slowest N` bounds the tree count; `--follow` keeps re-scraping and
//! prints traces it has not shown before.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use ter_datasets::{preset, GenOptions, Preset};
use ter_ids::{ErProcessor, Params, PruningMode, TerContext, TerIdsEngine};
use ter_repo::PivotConfig;
use ter_rules::DiscoveryConfig;
use ter_serve::{Client, ResilientClient, ServeOptions, Server};
use ter_store::CompactionPolicy;
use ter_stream::StreamSet;

fn usage() -> ! {
    eprintln!(
        "usage: ter_serve <serve|feed|query|subscribe|metrics|trace|shutdown> [flags]\n\
         \n\
         serve    --dir DIR [--addr 127.0.0.1:7341] [--preset ebooks] [--scale 1.0]\n\
         \x20        [--window 400] [--checkpoint-every 8] [--queue-depth 16]\n\
         \x20        [--checkpoint-bytes N] [--max-chain-len 16] [--max-chain-bytes 0]\n\
         \x20        [--io-threads 2] [--flush-window 1] [--flush-interval-ms 5]\n\
         \x20        [--notify-buffer 262144] [--metrics-text PATH|-]\n\
         feed     --addr ADDR [--preset ebooks] [--scale 1.0] [--window 400]\n\
         \x20        [--batch 64] [--from auto|N] [--batches N]\n\
         \x20        [--pipeline W (unacked batches in flight; 1 = request/reply)]\n\
         \x20        [--resilient] [--oracle-check] [--quiet]\n\
         query    --addr ADDR [--id ID] [--pattern 'match(a, b)']\n\
         subscribe --addr ADDR --pattern 'match(a, b)' [--sub-id 1]\n\
         \x20        [--resync-seq 0] [--events N]\n\
         metrics  --addr ADDR [--watch N]\n\
         trace    --addr ADDR [--slowest N] [--follow]\n\
         shutdown --addr ADDR"
    );
    std::process::exit(2);
}

/// Flag parser: `--key value` pairs after the subcommand, each key one
/// the subcommand takes.
struct Flags {
    pairs: Vec<(String, String)>,
    known: &'static [&'static str],
}

impl Flags {
    /// Parses `args`, exiting through [`usage`] on a key outside `known`.
    fn parse(args: &[String], known: &'static [&'static str]) -> Self {
        let mut out = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let Some(key) = args[i].strip_prefix("--") else {
                eprintln!("unexpected argument: {}", args[i]);
                usage();
            };
            if !known.contains(&key) {
                eprintln!("unknown flag --{key}");
                usage();
            }
            // Boolean flags take no value.
            if matches!(key, "oracle-check" | "quiet" | "resilient" | "follow") {
                out.push((key.to_string(), "true".to_string()));
                i += 1;
                continue;
            }
            let Some(value) = args.get(i + 1) else {
                eprintln!("flag --{key} needs a value");
                usage();
            };
            out.push((key.to_string(), value.clone()));
            i += 2;
        }
        Self { pairs: out, known }
    }

    fn get(&self, key: &str) -> Option<&str> {
        debug_assert!(self.known.contains(&key), "--{key} is not declared");
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.get(key) {
            None => default,
            Some(raw) => raw.parse().unwrap_or_else(|_| {
                eprintln!("invalid value for --{key}: {raw}");
                usage();
            }),
        }
    }

    fn required(&self, key: &str) -> &str {
        self.get(key).unwrap_or_else(|| {
            eprintln!("missing required flag --{key}");
            usage();
        })
    }

    fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }
}

fn parse_preset(name: &str) -> Preset {
    match name.to_ascii_lowercase().as_str() {
        "citations" => Preset::Citations,
        "anime" => Preset::Anime,
        "bikes" => Preset::Bikes,
        "ebooks" => Preset::EBooks,
        "songs" => Preset::Songs,
        _ => {
            eprintln!("unknown preset {name} (citations|anime|bikes|ebooks|songs)");
            usage();
        }
    }
}

/// Builds the deterministic dataset + offline context shared by `serve`,
/// `feed --from auto`, and the oracle check.
fn build(flags: &Flags) -> (TerContext, StreamSet, Params) {
    let p = parse_preset(flags.get("preset").unwrap_or("ebooks"));
    let scale: f64 = flags.parsed("scale", 1.0);
    let params = Params {
        window: flags.parsed("window", Params::default().window),
        ..Params::default()
    };
    let ds = preset(
        p,
        &GenOptions {
            scale,
            ..GenOptions::default()
        },
    );
    let keywords = ds.keywords();
    let ctx = TerContext::build(
        ds.repo.clone(),
        keywords,
        &PivotConfig::default(),
        &DiscoveryConfig::default(),
        params.fanout,
    );
    (ctx, ds.streams, params)
}

fn cmd_serve(flags: &Flags) -> ExitCode {
    let dir = flags.required("dir").to_string();
    let addr = flags.get("addr").unwrap_or("127.0.0.1:7341").to_string();
    let opts = ServeOptions {
        queue_depth: flags.parsed("queue-depth", 16),
        checkpoint_every: flags.parsed("checkpoint-every", 8),
        // Byte-based cadence on top of the count cadence (0 = off):
        // bounds replay work directly when batch sizes vary.
        checkpoint_bytes: flags.parsed("checkpoint-bytes", 0),
        compaction: CompactionPolicy {
            max_chain_len: flags.parsed(
                "max-chain-len",
                CompactionPolicy::two_generation().max_chain_len,
            ),
            max_chain_bytes: flags.parsed(
                "max-chain-bytes",
                CompactionPolicy::two_generation().max_chain_bytes,
            ),
            ..CompactionPolicy::two_generation()
        },
        // Test-harness knob: slows the step stage so crash tests can pin
        // the daemon mid-stream deterministically. Zero in production.
        ingest_hold: Duration::from_millis(flags.parsed("ingest-hold-ms", 0)),
        io_threads: flags.parsed("io-threads", ServeOptions::default().io_threads),
        flush_window: flags.parsed("flush-window", ServeOptions::default().flush_window),
        flush_interval: Duration::from_millis(flags.parsed(
            "flush-interval-ms",
            ServeOptions::default().flush_interval.as_millis() as u64,
        )),
        // Fault-injection knob: slows every WAL commit fsync so crash
        // harnesses can reliably land a SIGKILL inside an open flush
        // window. Zero in production.
        fsync_delay: Duration::from_millis(flags.parsed("fsync-delay-ms", 0)),
        notify_buffer: flags.parsed("notify-buffer", ServeOptions::default().notify_buffer),
        // Fault-injection knob: panic the step stage right before this
        // batch sequence — crash harnesses assert the panic-path flight
        // dump. Absent in production.
        panic_on_batch: flags.get("panic-on-batch").map(|raw| {
            raw.parse().unwrap_or_else(|_| {
                eprintln!("invalid --panic-on-batch");
                usage();
            })
        }),
        ..ServeOptions::default()
    };
    if let Some(target) = flags.get("metrics-text") {
        ter_obs::set_dump_path(Some(std::path::PathBuf::from(target)));
    }
    eprintln!(
        "building context ({})...",
        flags.get("preset").unwrap_or("ebooks")
    );
    let (ctx, _streams, params) = build(flags);
    let server = match Server::bind(&addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind {addr}: {e}");
            return ExitCode::from(2);
        }
    };
    let bound = server.addr().expect("bound address");
    // The line harnesses scrape; keep the format stable.
    println!("LISTENING {bound}");
    use std::io::Write;
    std::io::stdout().flush().ok();
    match server.run(&ctx, params, std::path::Path::new(&dir), &opts) {
        Ok(report) => {
            println!(
                "shutdown: resumed_at={} replayed={} batches={} arrivals={} checkpoints={} delta_checkpoints={} fsyncs={}",
                report.resumed_at,
                report.replayed,
                report.batches,
                report.arrivals,
                report.checkpoints,
                report.delta_checkpoints,
                report.fsyncs
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve failed: {e}");
            ExitCode::from(1)
        }
    }
}

fn parse_addr(flags: &Flags) -> std::net::SocketAddr {
    flags.required("addr").parse().unwrap_or_else(|_| {
        eprintln!("invalid --addr");
        usage();
    })
}

fn connect(flags: &Flags) -> Client {
    let addr = parse_addr(flags);
    match Client::connect_retry(addr, Duration::from_secs(30)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("connect {addr}: {e}");
            std::process::exit(1);
        }
    }
}

/// Replays the whole stream through an in-process engine and compares the
/// daemon's final statistics bit-for-bit.
fn oracle_check(
    ctx: &TerContext,
    params: Params,
    streams: &StreamSet,
    batch: usize,
    stats: &ter_serve::StatsInfo,
) -> bool {
    let mut oracle = TerIdsEngine::new(ctx, params, PruningMode::Full);
    for b in streams.cursor_at(0, batch) {
        oracle.step_batch(&b);
    }
    if stats.stats == oracle.prune_stats() && stats.window_len == oracle.window_len() {
        println!("PARITY OK: daemon statistics bit-identical to the library engine");
        true
    } else {
        eprintln!(
            "PARITY FAILED:\n  daemon: {:?} (window {})\n  oracle: {:?} (window {})",
            stats.stats,
            stats.window_len,
            oracle.prune_stats(),
            oracle.window_len()
        );
        false
    }
}

fn cmd_feed(flags: &Flags) -> ExitCode {
    let batch: usize = flags.parsed("batch", 64);
    let quiet = flags.has("quiet");
    let pipeline: usize = flags.parsed("pipeline", 1).max(1);
    // `--batches N` stops after N batches — harnesses use it to leave a
    // stream half-fed before a kill.
    let limit: usize = flags.parsed("batches", usize::MAX);
    let (ctx, streams, params) = build(flags);

    // ---- resilient mode: the wrapper owns resume + reconnect ----
    if flags.has("resilient") {
        let addr = parse_addr(flags);
        let mut rc = ResilientClient::new(addr, Duration::from_secs(30));
        let all: Vec<Vec<ter_stream::Arrival>> = streams.cursor_at(0, batch).collect();
        let already = match rc.stats() {
            Ok(s) => s.next_batch_seq as usize,
            Err(e) => {
                eprintln!("stats: {e}");
                return ExitCode::from(1);
            }
        };
        let end = all.len().min(already.saturating_add(limit));
        if !quiet {
            println!(
                "feeding resiliently: {} of {} batches committed, window {}",
                already, end, pipeline
            );
        }
        let start = Instant::now();
        let report = match rc.feed(&all[..end], pipeline) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("resilient feed failed: {e}");
                return ExitCode::from(1);
            }
        };
        let secs = start.elapsed().as_secs_f64();
        println!(
            "fed {} arrivals in {secs:.2}s ({:.0} tuples/s), {} busy retries, {} reconnects",
            report.arrivals,
            report.arrivals as f64 / secs.max(1e-9),
            report.busy_retries,
            report.reconnects
        );
        if flags.has("oracle-check") {
            let stats = match rc.stats() {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("stats: {e}");
                    return ExitCode::from(1);
                }
            };
            if !oracle_check(&ctx, params, &streams, batch, &stats) {
                return ExitCode::from(1);
            }
        }
        return ExitCode::SUCCESS;
    }

    let mut client = connect(flags);
    let from = match flags.get("from").unwrap_or("auto") {
        "auto" => {
            let stats = client.stats().expect("stats");
            // The feeder always sends full `batch`-sized batches (only the
            // final one may be short), so the committed batch count maps
            // directly to an arrival offset.
            (stats.next_batch_seq as usize) * batch
        }
        raw => raw.parse().unwrap_or_else(|_| {
            eprintln!("invalid --from (auto or an arrival index)");
            usage();
        }),
    };
    let cursor = streams.cursor_at(from, batch);
    let total = cursor.remaining();
    if !quiet {
        println!(
            "feeding {} arrivals (from arrival {}, batch {}, pipeline {})",
            total, from, batch, pipeline
        );
    }
    let start = Instant::now();
    // ---- one go-back-N run over the tail, `pipeline` batches in flight ----
    let batches: Vec<Vec<ter_stream::Arrival>> = cursor.take(limit).collect();
    let fed: usize = batches.iter().map(Vec::len).sum();
    let matches = match client.ingest_pipelined(&batches, pipeline) {
        Ok(run) => {
            if !quiet && run.busy_retries > 0 {
                println!("absorbed {} busy retries", run.busy_retries);
            }
            run.per_batch.iter().flatten().map(Vec::len).sum::<usize>()
        }
        Err(e) => {
            eprintln!("ingest failed: {e}");
            return ExitCode::from(1);
        }
    };
    let secs = start.elapsed().as_secs_f64();
    println!(
        "fed {fed} arrivals in {secs:.2}s ({:.0} tuples/s), {matches} matches reported",
        fed as f64 / secs.max(1e-9)
    );
    if flags.has("oracle-check") {
        let stats = client.stats().expect("stats");
        if !oracle_check(&ctx, params, &streams, batch, &stats) {
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}

fn cmd_query(flags: &Flags) -> ExitCode {
    let mut client = connect(flags);
    if let Some(pattern) = flags.get("pattern") {
        match client.pattern_query(pattern) {
            Ok((seq, rows)) => {
                println!("position: batch {seq}, {} rows", rows.len());
                for row in rows {
                    println!("{row:?}");
                }
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("pattern query failed: {e}");
                return ExitCode::from(1);
            }
        }
    }
    if let Some(raw) = flags.get("id") {
        let id: u64 = raw.parse().unwrap_or_else(|_| {
            eprintln!("invalid --id");
            usage();
        });
        let info = client.entity(id).expect("entity query");
        if info.found {
            println!(
                "entity {id}: stream={} timestamp={} topical={} partners={:?}",
                info.stream_id, info.timestamp, info.possibly_topical, info.partners
            );
        } else {
            println!("entity {id}: not live");
        }
        return ExitCode::SUCCESS;
    }
    let stats = client.stats().expect("stats");
    let window = client.window().expect("window");
    let results = client.results().expect("results");
    println!(
        "position: batch {} ({} arrivals this session), WAL {} bytes",
        stats.next_batch_seq, stats.session_arrivals, stats.wal_bytes
    );
    println!("window: {}/{} live tuples", window.len, window.capacity);
    println!(
        "pruning: {} pairs → topic {} / sim {} / prob {} / instance {} / matches {}",
        stats.stats.total_pairs,
        stats.stats.topic,
        stats.stats.sim,
        stats.stats.prob,
        stats.stats.instance,
        stats.stats.matches
    );
    println!("live matches: {results:?}");
    ExitCode::SUCCESS
}

/// Registers a standing query and streams its notifications to stdout:
/// first the snapshot (`SNAPSHOT <seq> <rows>` then one `ROW` line per
/// row), then one `NOTIFY` line per pushed batch delta. Exits after
/// `--events N` events, on `LAGGED` (the daemon shed us — rerun with the
/// printed resync position), or when the daemon goes away.
fn cmd_subscribe(flags: &Flags) -> ExitCode {
    let pattern = flags.required("pattern").to_string();
    let sub_id: u64 = flags.parsed("sub-id", 1);
    let resync_seq: u64 = flags.parsed("resync-seq", 0);
    let limit: u64 = flags.parsed("events", u64::MAX);
    let mut client = connect(flags);
    let ack = match client.subscribe(sub_id, resync_seq, &pattern) {
        Ok(ack) => ack,
        Err(e) => {
            eprintln!("subscribe failed: {e}");
            return ExitCode::from(1);
        }
    };
    println!("SNAPSHOT seq={} rows={}", ack.seq, ack.rows.len());
    for row in &ack.rows {
        println!("ROW {row:?}");
    }
    use std::io::Write;
    std::io::stdout().flush().ok();
    let mut seen = 0u64;
    while seen < limit {
        match client.next_event() {
            Ok(ter_serve::SubEvent::Notify {
                seq,
                added,
                retracted,
                ..
            }) => {
                println!("NOTIFY seq={seq} added={added:?} retracted={retracted:?}");
                std::io::stdout().flush().ok();
                seen += 1;
            }
            Ok(ter_serve::SubEvent::Lagged { resync_seq, .. }) => {
                println!("LAGGED resync_seq={resync_seq}");
                eprintln!(
                    "subscription shed under backpressure; resubscribe with --resync-seq {resync_seq}"
                );
                return ExitCode::from(3);
            }
            Err(e) => {
                eprintln!("subscription ended: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let _ = client.unsubscribe(sub_id);
    ExitCode::SUCCESS
}

/// Scrapes the daemon's metric registry + flight ring over the wire.
/// One-shot: prints the full `ter_obs` text exposition. `--watch N`:
/// re-scrapes every N seconds and prints only what moved — counter and
/// histogram deltas per interval, gauge current values, histogram
/// quantiles over the interval's own samples.
fn cmd_metrics(flags: &Flags) -> ExitCode {
    let watch: u64 = flags.parsed("watch", 0);
    let mut client = connect(flags);
    let (rows, flight) = match client.metrics_dump() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("metrics dump failed: {e}");
            return ExitCode::from(1);
        }
    };
    if watch == 0 {
        let mut text = ter_obs::render_parts("scrape", &rows, &flight);
        // The daemon's retained traces + attribution table ride along
        // (same lines a local `--metrics-text` dump carries), so piping
        // the scrape into trace2folded.sh works on a remote daemon too.
        match client.trace_dump() {
            Ok((cp, traces)) => ter_obs::render_traces_into(&mut text, &cp, &traces),
            Err(e) => eprintln!("trace dump failed (metrics rendered without traces): {e}"),
        }
        print!("{text}");
        return ExitCode::SUCCESS;
    }
    use std::io::Write;
    let mut prev = rows;
    loop {
        std::thread::sleep(Duration::from_secs(watch.max(1)));
        let (rows, _) = match client.metrics_dump() {
            Ok(x) => x,
            Err(e) => {
                eprintln!("metrics watch ended: {e}");
                return ExitCode::from(1);
            }
        };
        println!("--- delta over {}s ---", watch.max(1));
        for (p, n) in prev.iter().zip(rows.iter()) {
            match n.kind {
                ter_obs::KIND_COUNTER => {
                    let d = n.value.saturating_sub(p.value);
                    if d > 0 {
                        println!("{} +{d}", n.name);
                    }
                }
                ter_obs::KIND_GAUGE => {
                    if n.value != 0 || p.value != 0 {
                        println!("{} {}", n.name, n.value);
                    }
                }
                _ => {
                    // Per-interval quantiles: the delta of the two
                    // cumulative bucket vectors is the interval's own
                    // distribution — quantiles of the *recent* samples,
                    // not of everything since daemon start.
                    let d = n.delta(p);
                    if d.value > 0 {
                        println!(
                            "{} +{} p50<={} p95<={} p99<={}",
                            n.name,
                            d.value,
                            d.quantile(0.50),
                            d.quantile(0.95),
                            d.quantile(0.99)
                        );
                    }
                }
            }
        }
        std::io::stdout().flush().ok();
        prev = rows;
    }
}

/// Renders the cumulative critical-path attribution table: where the
/// mean acked batch's end-to-end latency went, segment by segment.
fn print_attribution(cp: &ter_obs::trace::CriticalPath) {
    if cp.traces == 0 {
        println!("no completed traces yet (tracing disabled, or no ingest acked)");
        return;
    }
    println!(
        "critical path over {} traces, mean end-to-end {}us:",
        cp.traces,
        cp.total_micros / cp.traces
    );
    for (name, &us) in ter_obs::trace::SEGMENTS.iter().zip(&cp.segments) {
        let pct = 100.0 * us as f64 / cp.total_micros.max(1) as f64;
        println!("  {name:<14} {us:>12}us  {pct:>5.1}%");
    }
}

/// Renders one retained trace as an indented span tree. Spans arrive in
/// kind order with explicit parents: engine stages nest under the step
/// span, everything else under the batch root (the header line).
fn print_trace(t: &ter_obs::trace::Trace) {
    let anomaly = if t.anomaly { "  [anomaly]" } else { "" };
    println!(
        "batch seq={} dur={}us covered={}{anomaly}",
        t.batch_seq, t.dur, t.covered
    );
    for s in &t.spans {
        if s.kind == ter_obs::kind::ROOT {
            continue; // the header line above is the root span
        }
        let depth = if s.parent == ter_obs::kind::ROOT {
            1
        } else {
            2
        };
        println!(
            "{:indent$}{} +{}us dur={}us",
            "",
            ter_obs::kind::name(s.kind),
            s.start.saturating_sub(t.start),
            s.dur,
            indent = depth * 2
        );
    }
}

/// Scrapes the daemon's causal trace surface (the `TraceDump` verb):
/// attribution table first, then the `--slowest N` retained traces as
/// span trees. `--follow` re-scrapes every 2 seconds and prints traces
/// not shown before.
fn cmd_trace(flags: &Flags) -> ExitCode {
    use std::io::Write;
    let slowest: usize = flags.parsed("slowest", 5);
    let follow = flags.get("follow").is_some();
    let mut client = connect(flags);
    let mut seen = std::collections::HashSet::new();
    loop {
        let (cp, traces) = match client.trace_dump() {
            Ok(x) => x,
            Err(e) => {
                eprintln!("trace dump failed: {e}");
                return ExitCode::from(1);
            }
        };
        print_attribution(&cp);
        let mut fresh: Vec<&ter_obs::trace::Trace> = traces
            .iter()
            .filter(|t| !seen.contains(&t.batch_seq))
            .collect();
        fresh.sort_by_key(|t| std::cmp::Reverse(t.dur));
        fresh.truncate(slowest);
        for t in &fresh {
            print_trace(t);
        }
        for t in &traces {
            seen.insert(t.batch_seq);
        }
        if !follow {
            return ExitCode::SUCCESS;
        }
        std::io::stdout().flush().ok();
        std::thread::sleep(Duration::from_secs(2));
    }
}

fn cmd_shutdown(flags: &Flags) -> ExitCode {
    let mut client = connect(flags);
    match client.shutdown() {
        Ok(batches) => {
            println!("daemon stopped after {batches} batches this run");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("shutdown failed: {e}");
            ExitCode::from(1)
        }
    }
}

/// Each subcommand with the flags it takes.
type Command = (fn(&Flags) -> ExitCode, &'static [&'static str]);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let (run, known): Command = match cmd.as_str() {
        "serve" => (
            cmd_serve,
            &[
                "dir",
                "addr",
                "preset",
                "scale",
                "window",
                "queue-depth",
                "checkpoint-every",
                "checkpoint-bytes",
                "max-chain-len",
                "max-chain-bytes",
                "ingest-hold-ms",
                "io-threads",
                "flush-window",
                "flush-interval-ms",
                "fsync-delay-ms",
                "notify-buffer",
                "panic-on-batch",
                "metrics-text",
            ],
        ),
        "feed" => (
            cmd_feed,
            &[
                "addr",
                "preset",
                "scale",
                "window",
                "batch",
                "from",
                "batches",
                "pipeline",
                "resilient",
                "oracle-check",
                "quiet",
            ],
        ),
        "query" => (cmd_query, &["addr", "id", "pattern"]),
        "subscribe" => (
            cmd_subscribe,
            &["addr", "pattern", "sub-id", "resync-seq", "events"],
        ),
        "metrics" => (cmd_metrics, &["addr", "watch"]),
        "trace" => (cmd_trace, &["addr", "slowest", "follow"]),
        "shutdown" => (cmd_shutdown, &["addr"]),
        _ => usage(),
    };
    run(&Flags::parse(&args[1..], known))
}
