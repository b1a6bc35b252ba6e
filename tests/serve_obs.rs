//! Observability integration suite: the telemetry a *live* daemon
//! exposes must be scrapeable three ways (the `MetricsDump` wire verb,
//! the `--metrics-text` exposition file, the `ter_serve metrics` CLI)
//! and must survive the deaths the flight recorder exists for — an
//! injected step-stage panic and a bare SIGKILL. The causal-trace
//! layer rides along: the `TraceDump` verb and the `ter_serve trace`
//! CLI must expose one completed end-to-end trace per acked batch,
//! and the trace table must survive in post-mortem dumps.

mod harness;

use std::process::Command;

use ter_ids::ErProcessor;

use harness::{Daemon, TempDir, BATCH};

/// Metric-row lookup by exact registry name.
fn value_of(rows: &[ter_obs::MetricRow], name: &str) -> u64 {
    rows.iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing from dump"))
        .value
}

/// A live daemon's registry, scraped over the wire mid-run, must show
/// every layer moving: engine stage histograms, store WAL/fsync
/// counters, serve connection/read/write counters, query notify
/// counters — and the numbers must be consistent with what `Stats`
/// and the final `ServeReport` say about the same run.
#[test]
fn metrics_dump_reports_every_layer_of_a_live_daemon() {
    let (ctx, streams, params) = harness::build_oracle_inputs();
    let batches: Vec<_> = streams
        .arrival_batches(BATCH)
        .into_iter()
        .take(12)
        .collect();
    let (_, oracle) = harness::oracle_run(&ctx, params, &batches);

    let dir = TempDir::new("obs_live");
    let daemon = Daemon::spawn(dir.path(), &[]);
    let mut feeder = daemon.client();
    let mut subscriber = daemon.client();

    // A standing query so the notify counters move.
    let ack = subscriber.subscribe(1, 0, "match(a, b)").unwrap();
    assert_eq!(ack.seq, 0);
    for b in &batches {
        feeder.ingest_wait(b).unwrap();
    }
    // One-shot pattern query so the oneshot/eval metrics move.
    let (seq, rows) = feeder.pattern_query("match(a, b)").unwrap();
    assert_eq!(seq, batches.len() as u64);
    let mut want: Vec<Vec<u64>> = oracle
        .results()
        .iter()
        .flat_map(|(a, b)| [vec![a, b], vec![b, a]])
        .collect();
    want.sort_unstable();
    assert_eq!(rows, want, "pattern query parity while instrumented");

    let (metric_rows, flight) = feeder.metrics_dump().unwrap();
    let stats = feeder.stats().unwrap();

    // ---- engine: every stage histogram saw every batch ----
    let n = batches.len() as u64;
    assert_eq!(value_of(&metric_rows, "ter_engine_batches_total"), n);
    for stage in [
        "ter_engine_impute_micros",
        "ter_engine_traverse_micros",
        "ter_engine_refine_micros",
        "ter_engine_merge_micros",
        "ter_serve_step_micros",
    ] {
        assert_eq!(value_of(&metric_rows, stage), n, "{stage} count");
    }
    // ---- store: appends, fsyncs, cadence checkpoints ----
    assert_eq!(value_of(&metric_rows, "ter_store_wal_append_micros"), n);
    assert!(value_of(&metric_rows, "ter_store_wal_append_bytes_total") > 0);
    let fsyncs = value_of(&metric_rows, "ter_store_fsyncs_total");
    assert!(fsyncs >= 1, "at least one group-commit fsync");
    assert_eq!(value_of(&metric_rows, "ter_store_fsync_micros"), fsyncs);
    // checkpoint-every 4 (harness base flags), 12 batches in: the full
    // base at 4, then deltas at 8 and 12.
    assert_eq!(
        value_of(&metric_rows, "ter_store_full_checkpoints_total"),
        1
    );
    assert_eq!(
        value_of(&metric_rows, "ter_store_delta_checkpoints_total"),
        2
    );
    assert_eq!(value_of(&metric_rows, "ter_store_last_checkpoint_seq"), 12);
    // ---- serve front end ----
    assert!(value_of(&metric_rows, "ter_serve_accepts_total") >= 2);
    assert!(value_of(&metric_rows, "ter_serve_connections") >= 2);
    assert!(value_of(&metric_rows, "ter_serve_read_parse_micros") > 0);
    assert!(value_of(&metric_rows, "ter_serve_write_micros") > 0);
    // ---- query layer ----
    assert_eq!(value_of(&metric_rows, "ter_query_subscribers"), 1);
    assert_eq!(value_of(&metric_rows, "ter_query_oneshot_total"), 1);
    assert_eq!(
        value_of(&metric_rows, "ter_query_oneshot_rows_total"),
        rows.len() as u64
    );
    assert_eq!(value_of(&metric_rows, "ter_query_eval_micros"), 1);
    assert!(
        value_of(&metric_rows, "ter_query_notify_events_total") > 0,
        "the sliding window must have pushed at least one notification"
    );
    assert!(value_of(&metric_rows, "ter_query_notify_bytes_total") > 0);

    // ---- Stats consistency with the registry ----
    assert_eq!(stats.next_batch_seq, n);
    assert!(stats.uptime_micros > 0);
    assert_eq!(stats.subscribers, 1);
    assert!(stats.connections >= 2);
    assert!(
        stats.fsyncs >= fsyncs,
        "stats fsyncs ({}) behind an earlier scrape ({fsyncs})",
        stats.fsyncs
    );

    // ---- flight recorder: batches, fsyncs, checkpoints, query trace ----
    for k in [
        ter_obs::kind::STEP,
        ter_obs::kind::IMPUTE,
        ter_obs::kind::WAL,
        ter_obs::kind::FSYNC,
        ter_obs::kind::CHECKPOINT,
        ter_obs::kind::CONN_OPEN,
        ter_obs::kind::QUERY,
        ter_obs::kind::QUERY_ATOM,
        ter_obs::kind::NOTIFY,
    ] {
        assert!(
            flight.iter().any(|e| e.kind == k),
            "no {} event in the flight ring",
            ter_obs::kind::name(k)
        );
    }
    // Flight timestamps arrive oldest→newest.
    assert!(flight.windows(2).all(|w| w[0].ts_micros <= w[1].ts_micros));

    // ---- causal traces: one end-to-end trace per acked batch ----
    // Every ingest above was acked before this scrape, and a trace ends
    // strictly before its ack is buffered, so the table must account for
    // all n batches — and must partition its own total exactly.
    let (cp, traces) = feeder.trace_dump().unwrap();
    assert_eq!(cp.traces, n, "one completed trace per acked batch");
    assert!(cp.total_micros > 0, "end-to-end latency accumulated");
    assert_eq!(
        cp.segment_sum(),
        cp.total_micros,
        "attribution segments must partition the measured total"
    );
    assert!(!traces.is_empty(), "tail sampler retained traces");
    for t in &traces {
        assert!(t.covered >= 1, "every fsync covers at least its own batch");
        assert!(t.dur > 0, "retained trace has a measured duration");
    }
    // The full daemon path shows up as spans somewhere in the retained
    // set: frontend read → gate → queue wait → step (+ its stages) →
    // WAL append → covering fsync → notify fan-out → ack write-back.
    {
        use ter_obs::kind;
        for k in [
            kind::FRONTEND,
            kind::GATE,
            kind::QUEUE_WAIT,
            kind::STEP,
            kind::IMPUTE,
            kind::TRAVERSE,
            kind::REFINE,
            kind::MERGE,
            kind::WAL,
            kind::FSYNC,
            kind::NOTIFY,
            kind::WRITE_BACK,
        ] {
            assert!(
                traces.iter().any(|t| t.spans.iter().any(|s| s.kind == k)),
                "no {} span in any retained trace",
                kind::name(k)
            );
        }
    }

    // ---- the CLI scrape renders the same registry as parseable text ----
    let out = Command::new(env!("CARGO_BIN_EXE_ter_serve"))
        .args(["metrics", "--addr", &daemon.addr.to_string()])
        .output()
        .expect("run ter_serve metrics");
    assert!(out.status.success(), "metrics CLI failed: {out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    let parsed = ter_obs::parse_dump(&text).expect("CLI exposition parses");
    assert_eq!(parsed.reason, "scrape");
    assert_eq!(parsed.values["ter_engine_batches_total"], n);
    assert!(parsed.values["ter_engine_traverse_micros_count"] >= n);
    assert!(parsed.values["ter_store_fsync_micros_count"] >= 1);
    assert!(parsed.values["ter_query_notify_events_total"] >= 1);
    assert!(!parsed.flight.is_empty());
    // The scrape carries the trace lines too (the flamegraph-recipe
    // contract: `ter_serve metrics | trace2folded.sh` works remotely).
    assert_eq!(parsed.critical_path.expect("scrape has table").traces, n);
    assert!(!parsed.traces.is_empty(), "scrape carries retained traces");

    // ---- and the trace CLI renders the same trace table ----
    let out = Command::new(env!("CARGO_BIN_EXE_ter_serve"))
        .args(["trace", "--addr", &daemon.addr.to_string()])
        .output()
        .expect("run ter_serve trace");
    assert!(out.status.success(), "trace CLI failed: {out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("critical path over"),
        "trace CLI prints the attribution table:\n{text}"
    );
    assert!(
        text.contains("batch seq="),
        "trace CLI prints retained slow traces:\n{text}"
    );

    let mut control = daemon.client();
    control.shutdown().unwrap();
    daemon.wait_graceful();
}

/// An injected step-stage panic must not lose the flight recorder: the
/// daemon's last act before re-raising is an atomic dump with
/// `reason=panic`, and the ring must still hold the batches leading up
/// to the death.
#[test]
fn panic_path_dump_survives_and_parses() {
    let (_, streams, _) = harness::build_oracle_inputs();
    let batches: Vec<_> = streams.arrival_batches(BATCH).into_iter().take(8).collect();

    let dir = TempDir::new("obs_panic");
    let dump = dir.path().join("metrics.txt");
    let daemon = Daemon::spawn(
        dir.path(),
        &[
            "--metrics-text",
            dump.to_str().unwrap(),
            "--panic-on-batch",
            "5",
        ],
    );
    let mut feeder = daemon.client();
    for (i, b) in batches.iter().enumerate() {
        if feeder.ingest_wait(b).is_err() {
            assert!(i >= 5, "connection died before the injected batch");
            break;
        }
    }
    let status = daemon.wait_exit();
    assert!(!status.success(), "an injected panic must not exit 0");

    let text = std::fs::read_to_string(&dump).expect("panic dump written");
    let parsed = ter_obs::parse_dump(&text).expect("panic dump parses");
    assert_eq!(parsed.reason, "panic");
    assert_eq!(
        parsed.values["ter_engine_batches_total"], 5,
        "batches 0..=4 stepped before the injected panic at 5"
    );
    assert!(
        parsed.flight.iter().any(|e| e.kind == ter_obs::kind::PANIC),
        "the post-mortem must record the panic event itself"
    );
    assert!(
        parsed.flight.iter().any(|e| e.kind == ter_obs::kind::STEP),
        "the ring must still hold the batches leading up to the death"
    );
}

/// SIGKILL mid-stream: the exposition file rewritten on every cadence
/// checkpoint must survive as a consistent pre-kill snapshot whose
/// `ter_store_last_checkpoint_seq` the restarted daemon actually covers.
#[test]
fn sigkill_leaves_a_parseable_dump_covering_the_last_checkpoint() {
    let (_, streams, _) = harness::build_oracle_inputs();
    let batches: Vec<_> = streams
        .arrival_batches(BATCH)
        .into_iter()
        .take(16)
        .collect();

    let dir = TempDir::new("obs_kill");
    let dump = dir.path().join("metrics.txt");
    let daemon = Daemon::spawn(dir.path(), &["--metrics-text", dump.to_str().unwrap()]);
    let mut feeder = daemon.client();
    for b in &batches {
        feeder.ingest_wait(b).unwrap();
    }
    daemon.kill9();

    let text = std::fs::read_to_string(&dump).expect("cadence dump written before the kill");
    let parsed = ter_obs::parse_dump(&text).expect("pre-kill dump parses");
    assert_eq!(parsed.reason, "checkpoint");
    let ckpt_seq = parsed.values["ter_store_last_checkpoint_seq"];
    assert!(ckpt_seq > 0, "at least one cadence checkpoint dumped");
    assert_eq!(ckpt_seq % 4, 0, "checkpoints land on the cadence");
    // The post-mortem carries the causal-trace table too: the pre-kill
    // snapshot must show completed traces, and the sampler's retained
    // traces must round-trip through the text exposition.
    let cp = parsed
        .critical_path
        .expect("cadence dump carries the critical-path table");
    assert!(cp.traces > 0, "traces completed before the kill");
    assert_eq!(cp.segment_sum(), cp.total_micros);
    assert!(
        !parsed.traces.is_empty(),
        "retained traces survive in the pre-kill dump"
    );

    // The restarted daemon must resume at (at least) the position the
    // dump claims is checkpointed — the dump never overstates dura-
    // bility, because it is written after the checkpoint lands.
    let daemon = Daemon::spawn(dir.path(), &[]);
    let mut client = daemon.client();
    let stats = client.stats().unwrap();
    assert!(
        stats.next_batch_seq >= ckpt_seq,
        "recovery resumed at {} but the pre-kill dump promised {ckpt_seq}",
        stats.next_batch_seq
    );
    client.shutdown().unwrap();
    daemon.wait_graceful();
}
