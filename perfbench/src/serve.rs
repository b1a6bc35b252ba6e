//! The daemon part of `durable_feed`'s traced run: an in-process
//! `Server` on loopback with a feeder connection (closed loop, one batch
//! in flight, a one-shot query every 4th batch) and a subscriber
//! connection (four standing queries), then restarts over a crash image.
//! It gives the `ter_serve` numbers and checks every answer the daemon
//! gives; it is not timed end to end (see `perfbench/README.md`).
//!
//! Its latencies leave out the daemon's durable writes (WAL fsync and
//! checkpoint stamps), read from the daemon's own `ter_obs` counters:
//! how long the disk takes to sync is the host's.

use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use ter_ids::{Params, TerContext};
use ter_serve::{
    CkptMode, Client, Reply, Request, ServeOptions, ServeReport, Server, SubEvent, SubscriptionFold,
};

use crate::layers::{ImputeProbe, Layers};
use crate::library::check_same;
use crate::measure::{copy_dir, median, ms, ratio, us, Report, Tracer};
use crate::workload::{
    drive, exec_config, recover, scratch_dir, spans_path, sub_seed, DrivePlan, Inputs, Oracle,
    Workload, CKPT_EVERY, QUERY_EVERY, QUERY_PHASE, STANDING,
};

/// Restarts over the crash image per dataset at the least; one follows
/// every feed. `recovery_s` is their median.
const RECOVERY_REPS: usize = 4;
/// Bounds every client read so a stuck daemon fails the run instead of
/// hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

fn serve_options() -> ServeOptions {
    ServeOptions {
        checkpoint_every: CKPT_EVERY,
        ckpt_mode: CkptMode::Delta,
        exec: exec_config(),
        io_threads: 1,
        ..ServeOptions::default()
    }
}

/// Microseconds the daemon has spent in durable writes so far: WAL
/// commit fsyncs and checkpoint stamps. The daemon runs in this process,
/// so its `ter_obs` registry is this process's.
fn durable_us() -> (u64, u64) {
    (
        ter_obs::OBS.fsync_micros.sum(),
        ter_obs::OBS.checkpoint_micros.sum(),
    )
}

fn micros(v: u64) -> Duration {
    Duration::from_micros(v)
}

fn connect(addr: std::net::SocketAddr) -> Result<Client, String> {
    let mut c = Client::connect_retry(addr, Duration::from_secs(30)).map_err(|e| e.to_string())?;
    c.set_io_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    Ok(c)
}

/// Best-effort shutdown on a fresh connection, so a failed feed never
/// leaves the daemon thread running.
fn stop_daemon(addr: std::net::SocketAddr) {
    if let Ok(mut c) = connect(addr) {
        let _ = c.shutdown();
    }
}

/// Boots a daemon over `dir`, times boot → first answered request, runs
/// `then` against it, and shuts it down.
fn with_daemon<R>(
    ctx: &TerContext,
    params: Params,
    dir: &Path,
    then: impl FnOnce(&mut Client) -> Result<R, String>,
) -> Result<(Duration, R), String> {
    let server = Server::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = server.addr().map_err(|e| e.to_string())?;
    let opts = serve_options();
    std::thread::scope(|scope| {
        let t = Instant::now();
        let daemon = scope.spawn(move || server.run(ctx, params, dir, &opts));
        let result = (|| {
            let mut client = connect(addr)?;
            client.stats().map_err(|e| e.to_string())?;
            let booted = t.elapsed();
            let r = then(&mut client)?;
            client.shutdown().map_err(|e| e.to_string())?;
            Ok((booted, r))
        })();
        if result.is_err() {
            stop_daemon(addr);
        }
        let joined = daemon
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?;
        joined.map_err(|e| e.to_string())?;
        result
    })
}

/// One set-up: context build plus daemon boot over an empty directory to
/// its first answered request. Returns the context and the seconds taken.
fn set_up(inputs: &Inputs, rep: &mut Report) -> (TerContext, f64) {
    let dir = scratch_dir("boot");
    let (ctx, built) = inputs.build_context();
    let took = match with_daemon(&ctx, inputs.params, &dir, |_| Ok(())) {
        Ok((booted, ())) => (built + booted).as_secs_f64(),
        Err(e) => {
            rep.check(false, || format!("daemon boot failed: {e}"));
            f64::INFINITY
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    (ctx, took)
}

/// What one daemon feed measured.
#[derive(Default)]
struct DaemonPass {
    /// Arrivals after the window filled ÷ their wall time, less the
    /// one-shot queries and the durable writes.
    tuples_per_s: f64,
    /// Send → durable ack less the durable writes inside it, every batch.
    ack_ms: Vec<f64>,
    ingests: u64,
    busy: u64,
    lagged: u64,
    report: Option<ServeReport>,
}

/// Subscriber side: its folds and the `Lagged` count.
type SubscriberOut = (Vec<SubscriptionFold>, u64);

fn subscriber(
    addr: std::net::SocketAddr,
    ready: mpsc::Sender<()>,
) -> Result<SubscriberOut, String> {
    let mut c = connect(addr)?;
    let mut folds = Vec::new();
    for (i, p) in STANDING.iter().enumerate() {
        let ack = c.subscribe(i as u64 + 1, 0, p).map_err(|e| e.to_string())?;
        folds.push(SubscriptionFold::start(&ack));
    }
    let _ = ready.send(());
    let mut lagged = 0;
    // The daemon closes the connection on shutdown, ending the loop.
    while let Ok(ev) = c.next_event() {
        match &ev {
            SubEvent::Notify { sub_id, .. } => folds[*sub_id as usize - 1].apply(&ev),
            SubEvent::Lagged { .. } => lagged += 1,
        }
    }
    Ok((folds, lagged))
}

/// One daemon run over a fresh directory: subscribe, feed, check, shut
/// down.
fn daemon_pass(
    ctx: &TerContext,
    inputs: &Inputs,
    w: &Workload,
    oracle: &Oracle,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<DaemonPass, String> {
    let dir = scratch_dir("serve");
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = server.addr().map_err(|e| e.to_string())?;
    let opts = serve_options();
    let params = inputs.params;
    let batches = inputs.batches(w);
    let fill = w.window.div_ceil(w.batch);
    let mut pass = DaemonPass::default();

    let sub_out = std::thread::scope(|scope| -> Result<SubscriberOut, String> {
        let daemon = scope.spawn(|| server.run(ctx, params, &dir, &opts));
        let (ready_tx, ready_rx) = mpsc::channel();
        let subs = scope.spawn(move || subscriber(addr, ready_tx));
        let fed = (|| -> Result<(), String> {
            let mut client = connect(addr)?;
            ready_rx
                .recv_timeout(IO_TIMEOUT)
                .map_err(|_| "subscriber never became ready".to_string())?;
            let (mut t0, mut dur0) = (Instant::now(), (0, 0));
            let mut query_wall = Duration::ZERO;
            for (i, batch) in batches.iter().enumerate() {
                if i == fill {
                    (t0, dur0) = (Instant::now(), durable_us());
                }
                let req = Request::IngestSeq {
                    seq: i as u64,
                    batch: batch.to_vec(),
                };
                let span = tr.begin("bench.request", i as u32);
                let s = tr.begin("ter_serve.ingest", i as u32);
                let d0 = durable_us();
                let t = Instant::now();
                let acked = loop {
                    pass.ingests += 1;
                    match client.call(&req) {
                        Ok(Reply::IngestAck { seq, per_arrival }) if seq == i as u64 => {
                            break per_arrival
                        }
                        Ok(Reply::IngestBusy { .. }) => {
                            pass.busy += 1;
                            rep.refuse();
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Ok(other) => return Err(format!("batch {i}: unexpected reply {other:?}")),
                        Err(e) => return Err(format!("batch {i}: {e}")),
                    }
                };
                let took = t.elapsed();
                tr.end(s);
                let d1 = durable_us();
                let durable = micros((d1.0 - d0.0) + (d1.1 - d0.1));
                pass.ack_ms.push(ms(took.saturating_sub(durable)));
                let want = &oracle.per_arrival[i * w.batch..i * w.batch + batch.len()];
                rep.check(acked == want, || {
                    format!("ack of batch {i} differs from the library")
                });
                if i % QUERY_EVERY == QUERY_PHASE {
                    let s = tr.begin("ter_serve.pattern_query", i as u32);
                    let t = Instant::now();
                    let answer = client.pattern_query(w.oneshot);
                    if i >= fill {
                        query_wall += t.elapsed();
                    }
                    tr.end(s);
                    rep.check(answer.is_ok(), || {
                        format!("one-shot query after batch {i} failed")
                    });
                }
                tr.end(span);
            }
            let d1 = durable_us();
            let durable = micros((d1.0 - dur0.0) + (d1.1 - dur0.1));
            let wall = t0.elapsed().saturating_sub(durable + query_wall);
            let timed = inputs.arrivals.len().saturating_sub(fill * w.batch);
            pass.tuples_per_s = ratio(timed as f64, wall.as_secs_f64());

            let mut served = client.results().map_err(|e| e.to_string())?;
            served.sort_unstable();
            rep.check(served == oracle.results, || {
                "served result set differs from the library".to_string()
            });
            let (_, rows) = client.pattern_query(w.oneshot).map_err(|e| e.to_string())?;
            rep.check(rows == oracle.rows[0], || {
                "one-shot answer differs from evaluate on the library".to_string()
            });
            client.shutdown().map_err(|e| e.to_string())?;
            Ok(())
        })();
        if fed.is_err() {
            stop_daemon(addr);
        }
        let daemon = daemon
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?;
        let subs = subs
            .join()
            .map_err(|_| "subscriber thread panicked".to_string())?;
        fed?;
        pass.report = Some(daemon.map_err(|e| e.to_string())?);
        subs
    })?;

    let (folds, lagged) = sub_out;
    pass.lagged = lagged;
    for _ in 0..lagged {
        rep.refuse();
    }
    // A shed subscription was counted as refused above; its fold is stale
    // by design, so only the others are checked.
    for (i, (fold, want)) in folds.iter().zip(&oracle.rows[1..]).enumerate() {
        if fold.lagged.is_some() {
            continue;
        }
        rep.check(fold.rows() == *want, || {
            format!("subscription {} fold differs from evaluate", i + 1)
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(pass)
}

/// One daemon restart over a copy of the crash image; its first answer
/// must be the library's result set.
fn restart(
    ctx: &TerContext,
    params: Params,
    image: &Path,
    i: usize,
    oracle: &Oracle,
    rep: &mut Report,
) {
    let dir = scratch_dir(&format!("restart{i}"));
    let restarted = copy_dir(image, &dir)
        .map_err(|e| e.to_string())
        .and_then(|()| {
            with_daemon(ctx, params, &dir, |c| {
                c.results().map_err(|e| e.to_string())
            })
        });
    match restarted {
        Ok((_, mut served)) => {
            served.sort_unstable();
            rep.check(served == oracle.results, || {
                "restarted daemon serves a different result set".to_string()
            });
        }
        Err(e) => rep.check(false, || format!("restart failed: {e}")),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn pass_or_fail(r: Result<DaemonPass, String>, rep: &mut Report) -> DaemonPass {
    r.unwrap_or_else(|e| {
        rep.check(false, || format!("daemon feed failed: {e}"));
        DaemonPass::default()
    })
}

/// The traced run of the durable feed: the library replica of one
/// dataset's feed, traced, then an untraced and a traced daemon feed,
/// and restarts over the replica's crash image.
pub fn traced(w: &Workload, seed: u64) -> Report {
    let mut rep = Report::new();
    let inputs = Inputs::generate(w, sub_seed(seed, 0));
    match run_dataset(w, &inputs, &mut rep) {
        Some(layers) => layers.emit(&mut rep),
        None => rep.check(false, || "the traced run measured no layers".to_string()),
    }
    rep
}

fn run_dataset(w: &Workload, inputs: &Inputs, rep: &mut Report) -> Option<Layers> {
    let params = inputs.params;
    let (ctx, _) = set_up(inputs, rep);
    let queries: Vec<&str> = std::iter::once(w.oneshot).chain(STANDING).collect();
    let oracle = match Oracle::run(&ctx, inputs, &queries, None) {
        Ok(o) => o,
        Err(e) => {
            rep.check(false, || format!("oracle failed: {e}"));
            return None;
        }
    };
    // ---- the library replica of the feed: writes the crash image ----
    let mut tr = Tracer::new(true);
    let mut layers = Layers::default();
    let replica_ctx = inputs.build_context_traced(&mut tr);
    layers.set_context(&tr, &replica_ctx);
    let image = scratch_dir("image");
    let plan = DrivePlan {
        reeval: true,
        recover_image: None,
    };
    let replica = drive(
        &replica_ctx,
        inputs,
        w,
        &plan,
        &image,
        &mut tr,
        |engine, tr| layers.set_engine(engine, tr),
    );
    let mut replica = match replica {
        Ok(r) => r,
        Err(e) => {
            rep.check(false, || format!("library replica failed: {e}"));
            return None;
        }
    };
    check_same(
        rep,
        &replica.per_arrival,
        &oracle.per_arrival,
        w.batch,
        "library replica",
    );
    // Library recovery from the crash image, checked against the state
    // the replica reached; that state is freed before the daemon runs.
    match recover(&ctx, params, &image) {
        Ok((state, open, replay, n)) => {
            rep.check(state == replica.final_state, || {
                "recovered state differs from the pre-crash state".to_string()
            });
            layers.recover_ms = ms(open);
            layers.replay_us_per_tuple = ratio(us(replay), n as f64);
        }
        Err(e) => rep.check(false, || format!("recovery failed: {e}")),
    }
    drop(std::mem::take(&mut replica.final_state));

    // ---- daemon feeds, untraced and traced, then restarts ----
    let base = pass_or_fail(
        daemon_pass(&ctx, inputs, w, &oracle, &mut Tracer::new(false), rep),
        rep,
    );
    let traced = pass_or_fail(daemon_pass(&ctx, inputs, w, &oracle, &mut tr, rep), rep);
    for i in 0..RECOVERY_REPS {
        restart(&ctx, params, &image, i, &oracle, rep);
    }

    let fill = w.window.div_ceil(w.batch);
    let timed_from = replica.timed.start * w.batch;
    let timed = &inputs.arrivals[timed_from..timed_from + replica.timed_arrivals];
    let imp = ImputeProbe::run(&replica_ctx, params, w.batch, timed, &mut tr);
    layers.set_drive(&replica, &imp);
    let batches = inputs.batches(w);
    let acks: Vec<Vec<Vec<(u64, u64)>>> = replica
        .per_arrival
        .chunks(w.batch)
        .map(<[_]>::to_vec)
        .collect();
    layers.set_codec(&batches, &acks, &mut tr);
    let overhead: Vec<f64> = traced.ack_ms[fill..]
        .iter()
        .zip(&replica.step[fill..])
        .map(|(ack, step)| ack - ms(*step))
        .collect();
    layers.overhead_ms_p50 = median(&overhead);
    layers.busy_share = ratio(traced.busy as f64, traced.ingests as f64);
    layers.lagged = traced.lagged as f64;
    if let Some(r) = traced.report {
        layers.fsyncs_per_batch = ratio(r.fsyncs as f64, r.batches as f64);
    }
    layers.untraced_tuples_per_s = base.tuples_per_s;
    layers.traced_tuples_per_s = traced.tuples_per_s;
    layers.set_self_times(&tr, &replica, &imp);
    if let Err(e) = tr.write_tsv(&spans_path(w.name)) {
        eprintln!("perfbench: writing spans: {e}");
    }
    Some(layers)
}
