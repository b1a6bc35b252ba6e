//! End-to-end crash-kill harness for the `ter_serve` daemon — the
//! acceptance test of the service layer's durability contract, across a
//! *real* process boundary:
//!
//! 1. spawn the release/debug `ter_serve` binary as a child process and
//!    ingest through its TCP protocol;
//! 2. `SIGKILL` it mid-stream (`Child::kill` — no destructors, no flush,
//!    no goodbye: exactly `kill -9`);
//! 3. restart it on the same directory, verify it resumes at
//!    `Recovery::resume_seq`, and feed the rest of the stream;
//! 4. require the **concatenated** per-arrival match lists, final pruning
//!    statistics, window contents, and live result set to be
//!    bit-identical to a never-crashed in-process
//!    `ShardedTerIdsEngine` run over the same preset.
//!
//! Further scenarios kill the daemon *while requests are in flight* —
//! including with group commit holding a multi-batch flush window open —
//! and check the WAL-before-ack guarantee: every batch a client saw
//! acked survives the kill, and the final state still converges to the
//! oracle.

mod harness;

use std::collections::BTreeSet;
use std::net::TcpStream;
use std::time::Duration;

use harness::{build_oracle_inputs, oracle_run, Daemon, TempDir, BATCH};
use ter_exec::{ExecConfig, ShardedTerIdsEngine};
use ter_ids::{ErProcessor, PruningMode};
use ter_query::{fold_notification, BatchDelta, Pattern, StandingQuery};
use ter_serve::wire::{encode_ingest_seq, read_message, write_message};
use ter_serve::{Client, ClientError, Reply, ResilientClient, SubscriptionFold};
use ter_stream::Arrival;

/// Feeds a batch slice either strictly request/reply (`window == 1`) or
/// through the pipelined driver, returning the concatenated
/// per-arrival match lists in batch order.
fn feed_batches(
    client: &mut Client,
    batches: &[Vec<Arrival>],
    window: usize,
) -> Vec<Vec<(u64, u64)>> {
    if window <= 1 {
        let mut out = Vec::new();
        for batch in batches {
            out.extend(client.ingest_wait(batch).expect("ingest"));
        }
        out
    } else {
        let run = client
            .ingest_pipelined(batches, window)
            .expect("pipelined ingest");
        assert_eq!(run.per_batch.len(), batches.len(), "every batch acked once");
        run.per_batch.into_iter().flatten().collect()
    }
}

/// Controlled kill between acks: every pre-kill batch was acked, so the
/// concatenation of (pre-kill acks, post-restart acks) must reproduce the
/// oracle's per-arrival output stream exactly — with the feed strictly
/// request/reply (`window == 1`) or pipelined (`window > 1`, with the
/// WAL/step stages overlapped in the daemon).
fn sigkill_between_batches(window: usize, tag: &str) {
    let (ctx, streams, params) = build_oracle_inputs();
    let batches = streams.arrival_batches(BATCH);
    assert!(batches.len() >= 10, "stream too short for the scenario");
    let cut = batches.len() / 2;
    let (oracle_matches, oracle) = oracle_run(&ctx, params, &batches);

    let dir = TempDir::new(tag);
    let mut served: Vec<Vec<(u64, u64)>> = Vec::new();

    // ---- phase 1: ingest half the stream, then SIGKILL ----
    let daemon = Daemon::spawn(dir.path(), &[]);
    let mut client = daemon.client();
    served.extend(feed_batches(&mut client, &batches[..cut], window));
    daemon.kill9();

    // ---- phase 2: restart, resume at resume_seq, finish the stream ----
    let daemon = Daemon::spawn(dir.path(), &[]);
    let mut client = daemon.client();
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.next_batch_seq, cut as u64,
        "daemon must resume exactly after the last acked batch"
    );
    // The stream cursor hand-off the CLI uses: committed batches → arrival
    // offset (all committed batches are full-size by construction).
    let mut cursor = streams.cursor_at(stats.next_batch_seq as usize * BATCH, BATCH);
    let resumed: Vec<Vec<Arrival>> = cursor.by_ref().collect();
    assert_eq!(resumed, batches[cut..].to_vec(), "cursor hand-off");
    served.extend(feed_batches(&mut client, &resumed, window));

    // ---- the acceptance gate ----
    assert_eq!(
        served, oracle_matches,
        "concatenated per-arrival results diverged from the uninterrupted run"
    );
    let stats = client.stats().expect("final stats");
    assert_eq!(stats.stats, oracle.prune_stats(), "pruning statistics");
    assert_eq!(stats.next_batch_seq, batches.len() as u64);
    let window = client.window().expect("window");
    assert_eq!(window.len, oracle.window_len());
    assert_eq!(window.live_ids, oracle.live_ids());
    let mut oracle_pairs: Vec<(u64, u64)> = oracle.results().iter().collect();
    oracle_pairs.sort_unstable();
    assert_eq!(client.results().expect("results"), oracle_pairs);

    client.shutdown().expect("graceful shutdown");
    daemon.wait_graceful();

    // A graceful restart afterwards resumes instantly from the shutdown
    // checkpoint with nothing to replay.
    let daemon = Daemon::spawn(dir.path(), &[]);
    let mut client = daemon.client();
    assert_eq!(
        client.stats().expect("stats").next_batch_seq,
        batches.len() as u64
    );
    client.shutdown().expect("shutdown");
    daemon.wait_graceful();
}

#[test]
fn sigkill_between_batches_is_bit_identical_to_oracle() {
    sigkill_between_batches(1, "between_w1");
}

#[test]
fn sigkill_between_batches_pipelined_w4_is_bit_identical_to_oracle() {
    sigkill_between_batches(4, "between_w4");
}

/// The reconnect-and-resume wrapper: a `ResilientClient::feed` is started
/// against the daemon, the daemon is SIGKILLed mid-feed and restarted on
/// the same directory, and the feeder — without any help — re-dials, asks
/// the daemon where its committed stream ends, and finishes the feed.
/// Final state must be bit-identical to the never-crashed oracle.
#[test]
fn resilient_feed_survives_sigkill_and_restart() {
    let (ctx, streams, params) = build_oracle_inputs();
    let batches = streams.arrival_batches(BATCH);
    let (_, oracle) = oracle_run(&ctx, params, &batches);

    let dir = TempDir::new("resilient");
    // Reconnect needs a stable address across the restart, so reserve a
    // concrete free port instead of letting each daemon pick its own
    // ephemeral one (the feeder re-dials the address it already has).
    let port = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
        probe.local_addr().unwrap().port()
    };
    let fixed_addr = format!("127.0.0.1:{port}");
    // A per-batch hold in the step stage pins the first daemon mid-feed
    // so the SIGKILL below deterministically interrupts the stream.
    let daemon = Daemon::spawn(
        dir.path(),
        &["--addr", &fixed_addr, "--ingest-hold-ms", "15"],
    );
    let addr = daemon.addr;

    let feeder_batches = batches.clone();
    let feeder = std::thread::spawn(move || {
        let mut rc = ResilientClient::new(addr, Duration::from_secs(60));
        rc.feed(&feeder_batches, 4).expect("resilient feed")
    });
    // Let some batches through, then SIGKILL with the feeder mid-stream.
    std::thread::sleep(Duration::from_millis(40));
    daemon.kill9();
    // Leave the daemon dead long enough that the feeder observes the
    // outage (its re-dial backs off until the restart below).
    std::thread::sleep(Duration::from_millis(200));
    let daemon = Daemon::spawn(dir.path(), &["--addr", &fixed_addr]);
    let report = feeder.join().expect("feeder thread");
    assert!(
        report.reconnects >= 1,
        "the kill must have forced at least one reconnect"
    );
    assert_eq!(
        report.final_seq,
        batches.len() as u64,
        "feed must complete the whole stream"
    );

    // Final-state parity with the never-crashed oracle.
    let mut client = daemon.client();
    let stats = client.stats().expect("stats");
    assert_eq!(stats.next_batch_seq, batches.len() as u64);
    assert_eq!(stats.stats, oracle.prune_stats(), "pruning statistics");
    let window = client.window().expect("window");
    assert_eq!(window.len, oracle.window_len());
    assert_eq!(window.live_ids, oracle.live_ids());
    client.shutdown().expect("shutdown");
    daemon.wait_graceful();
}

/// Uncontrolled kill with requests in flight: whatever the daemon acked
/// must survive (WAL-before-ack), the restart position is a batch
/// boundary at or past the acks, and finishing the stream converges to
/// the oracle's final state.
#[test]
fn sigkill_mid_flight_loses_no_acked_batch() {
    let (ctx, streams, params) = build_oracle_inputs();
    let batches = streams.arrival_batches(BATCH);
    let (_, oracle) = oracle_run(&ctx, params, &batches);

    let dir = TempDir::new("midflight");
    let daemon = Daemon::spawn(dir.path(), &[]);

    // Feeder thread: ingest until the connection dies under the kill.
    let addr = daemon.addr;
    let feeder_batches = batches.clone();
    let feeder = std::thread::spawn(move || {
        let mut client =
            Client::connect_retry(addr, Duration::from_secs(30)).expect("feeder connect");
        let mut acked = 0u64;
        for batch in &feeder_batches {
            match client.ingest_wait(batch) {
                Ok(_) => acked += 1,
                Err(_) => break, // the kill severed the connection
            }
        }
        acked
    });
    // Let some batches through, then SIGKILL with the feeder mid-stream.
    std::thread::sleep(Duration::from_millis(30));
    daemon.kill9();
    let acked = feeder.join().expect("feeder");

    let daemon = Daemon::spawn(dir.path(), &[]);
    let mut client = daemon.client();
    let committed = client.stats().expect("stats").next_batch_seq;
    assert!(
        committed >= acked,
        "daemon acked batch {acked} but only {committed} survived the kill \
         — the WAL-before-ack contract is broken"
    );
    assert!(
        committed <= batches.len() as u64,
        "more batches committed than were ever sent"
    );
    // Finish the stream from the committed position and require full
    // final-state convergence with the never-crashed oracle.
    for batch in &batches[committed as usize..] {
        client.ingest_wait(batch).expect("ingest after restart");
    }
    let stats = client.stats().expect("final stats");
    assert_eq!(stats.stats, oracle.prune_stats(), "pruning statistics");
    let window = client.window().expect("window");
    assert_eq!(window.live_ids, oracle.live_ids());
    client.shutdown().expect("shutdown");
    daemon.wait_graceful();
}

/// Drains pushed subscription events into the fold until the socket
/// stays quiet for half a second — long past any in-flight notification
/// once the feeder's acks are all in.
fn drain_events(sub: &mut Client, fold: &mut SubscriptionFold) {
    sub.set_io_timeout(Some(Duration::from_millis(500)))
        .expect("set timeout");
    loop {
        match sub.next_event() {
            Ok(ev) => fold.apply(&ev),
            Err(ClientError::Wire(_)) => break, // quiet (or the kill) — done
            Err(e) => panic!("subscription failed: {e}"),
        }
    }
}

/// The standing-query half of the crash contract: subscribe, SIGKILL the
/// daemon mid-stream, restart, resubscribe quoting the fold's position —
/// and the reconciled match set (resync snapshot + post-restart
/// notifications) must be bit-identical to a subscriber that never saw a
/// crash, after every phase:
///
/// * the resync snapshot equals the never-crashed subscriber's rows at
///   the cut (WAL replay rebuilt the exact engine state);
/// * the final fold equals both the never-crashed in-process standing
///   fold over the whole stream and a one-shot pattern query against the
///   restarted daemon.
#[test]
fn subscriber_survives_sigkill_via_resubscribe_resync() {
    let (ctx, streams, params) = build_oracle_inputs();
    let batches = streams.arrival_batches(BATCH);
    let cut = batches.len() / 2;
    let pattern_src = "match(a, b)";
    let pattern = Pattern::parse(pattern_src).expect("pattern");

    // ---- the never-crashed subscriber: in-process standing fold ----
    let mut oracle_eng = ShardedTerIdsEngine::new(&ctx, params, PruningMode::Full, ExecConfig);
    let mut oracle_sq = StandingQuery::new(pattern.clone());
    let mut oracle_fold: BTreeSet<Vec<u64>> = oracle_sq.seed(&oracle_eng).into_iter().collect();
    let mut oracle_rows_at_cut: Vec<Vec<u64>> = Vec::new();
    for (i, b) in batches.iter().enumerate() {
        let outs = oracle_eng.step_batch(b);
        let delta = BatchDelta::from_steps(b, &outs);
        let (added, retracted) = oracle_sq.apply_batch(&oracle_eng, &delta);
        fold_notification(&mut oracle_fold, &added, &retracted);
        if i + 1 == cut {
            oracle_rows_at_cut = oracle_sq.rows();
        }
    }
    let oracle_final: Vec<Vec<u64>> = oracle_fold.iter().cloned().collect();

    // ---- phase 1: subscribe from empty, feed half, SIGKILL ----
    let dir = TempDir::new("subcrash");
    let daemon = Daemon::spawn(dir.path(), &[]);
    let mut sub = daemon.client();
    let ack = sub.subscribe(1, 0, pattern_src).expect("subscribe");
    assert_eq!(ack.seq, 0);
    assert!(ack.rows.is_empty(), "fresh daemon, empty result");
    let mut fold = SubscriptionFold::start(&ack);
    let mut feeder = daemon.client();
    for b in &batches[..cut] {
        feeder.ingest_wait(b).expect("ingest");
    }
    drain_events(&mut sub, &mut fold);
    assert_eq!(
        fold.rows(),
        oracle_rows_at_cut,
        "pre-crash fold ≡ never-crashed subscriber at the cut"
    );
    assert!(fold.lagged.is_none());
    let resync_from = fold.seq;
    daemon.kill9();

    // ---- phase 2: restart, resubscribe with the fold's position ----
    let daemon = Daemon::spawn(dir.path(), &[]);
    let mut sub = daemon.client();
    let ack = sub
        .subscribe(1, resync_from, pattern_src)
        .expect("resubscribe");
    assert_eq!(
        ack.seq, cut as u64,
        "resync snapshot sits at the resumed batch position"
    );
    assert_eq!(
        ack.rows, oracle_rows_at_cut,
        "resync snapshot ≡ never-crashed subscriber at the cut"
    );
    let mut fold = SubscriptionFold::start(&ack);
    let mut feeder = daemon.client();
    for b in &batches[cut..] {
        feeder.ingest_wait(b).expect("ingest after restart");
    }
    drain_events(&mut sub, &mut fold);

    // ---- the acceptance gate ----
    assert_eq!(
        fold.rows(),
        oracle_final,
        "reconciled fold diverged from the never-crashed subscriber"
    );
    let (seq, rows) = feeder.pattern_query(pattern_src).expect("one-shot");
    assert_eq!(seq, batches.len() as u64);
    assert_eq!(fold.rows(), rows, "fold ≡ one-shot against the daemon");
    assert!(sub.unsubscribe(1).expect("unsubscribe"));

    feeder.shutdown().expect("graceful shutdown");
    daemon.wait_graceful();
}

/// A hand-rolled go-back-N pipelined feeder that counts *individual*
/// acks, so a kill can be checked against exactly what the client saw.
/// Returns the number of in-order `IngestAck`s received before the
/// connection died (or the full count on success).
fn counting_pipelined_feed(
    addr: std::net::SocketAddr,
    batches: &[Vec<Arrival>],
    window: usize,
) -> u64 {
    let stream = TcpStream::connect(addr).expect("feeder connect");
    let mut reader = stream.try_clone().expect("clone stream");
    let mut writer = stream;
    let mut acked = 0usize;
    let mut next_send = 0usize;
    while acked < batches.len() {
        while next_send < batches.len() && next_send - acked < window {
            let frame = encode_ingest_seq(next_send as u64, &batches[next_send]);
            if write_message(&mut writer, &frame).is_err() {
                return acked as u64;
            }
            next_send += 1;
        }
        let Ok(payload) = read_message(&mut reader) else {
            return acked as u64;
        };
        match ter_serve::wire::decode_reply(&payload) {
            Ok(Reply::IngestAck { seq, .. }) if seq == acked as u64 => acked += 1,
            // Go-back-N: the daemon rejected `seq` (and will reject the
            // tail behind it); rewind and resend from there.
            Ok(Reply::IngestBusy { seq }) if seq >= acked as u64 => {
                next_send = seq as usize;
            }
            Ok(Reply::IngestBusy { .. }) => {} // stale rejection of an acked seq
            _ => return acked as u64,
        }
    }
    acked as u64
}

/// Uncontrolled kill in the middle of an *open flush window*: group
/// commit (`--flush-window 8`) holds several appended-but-unsynced
/// batches while a pipelined feeder keeps the window full, and the
/// artificial fsync latency widens the vulnerable interval. Whatever the
/// client saw acked must still be on disk after the kill — group commit
/// may delay acks, but it must never release one before the covering
/// fsync. The refeed then converges to the oracle bit-identically.
#[test]
fn sigkill_mid_flush_window_never_loses_acked_batch() {
    let (ctx, streams, params) = build_oracle_inputs();
    let batches = streams.arrival_batches(BATCH);
    let (_, oracle) = oracle_run(&ctx, params, &batches);

    let dir = TempDir::new("midwindow");
    // No cadence checkpoints: each would force a flush and shrink the
    // open window the kill is aimed at. Recovery replays the WAL alone.
    let daemon = Daemon::spawn(
        dir.path(),
        &[
            "--checkpoint-every",
            "0",
            "--flush-window",
            "8",
            "--flush-interval-ms",
            "50",
            "--fsync-delay-ms",
            "10",
            "--queue-depth",
            "32",
        ],
    );

    let addr = daemon.addr;
    let feeder_batches = batches.clone();
    let feeder = std::thread::spawn(move || counting_pipelined_feed(addr, &feeder_batches, 8));
    // Strike while flush windows are filling and fsyncs are slow.
    std::thread::sleep(Duration::from_millis(60));
    daemon.kill9();
    let acked = feeder.join().expect("feeder");

    let daemon = Daemon::spawn(dir.path(), &[]);
    let mut client = daemon.client();
    let committed = client.stats().expect("stats").next_batch_seq;
    assert!(
        committed >= acked,
        "client saw {acked} acks but only {committed} batches survived the kill \
         — group commit released an ack before its covering fsync"
    );
    assert!(
        committed <= batches.len() as u64,
        "more batches committed than were ever sent"
    );
    // Finish the stream from the committed position; full final-state
    // convergence with the never-crashed oracle.
    for batch in &batches[committed as usize..] {
        client.ingest_wait(batch).expect("ingest after restart");
    }
    let stats = client.stats().expect("final stats");
    assert_eq!(stats.stats, oracle.prune_stats(), "pruning statistics");
    assert_eq!(stats.next_batch_seq, batches.len() as u64);
    let window = client.window().expect("window");
    assert_eq!(window.live_ids, oracle.live_ids());
    client.shutdown().expect("shutdown");
    daemon.wait_graceful();
}

/// SIGKILL under bursty arrivals with incremental delta checkpoints: the
/// daemon runs with both checkpoint cadences armed (every 2
/// batches *and* every 64 KiB of WAL — the byte cadence exists exactly
/// because batch counts are a poor replay bound when an 8× burst lands),
/// is killed right after a burst batch, and must restart through the
/// (base + delta chain + WAL suffix) ladder with the concatenated
/// per-arrival results bit-identical to a never-crashed oracle.
#[test]
fn sigkill_under_burst_with_delta_checkpoints_is_bit_identical() {
    let (ctx, streams, params) = build_oracle_inputs();
    let arrivals = streams.arrivals();
    // Bursty schedule: an 8× burst every 4th batch, a trickle between.
    let sizes = [24usize, 2, 2, 2];
    let mut batches: Vec<Vec<Arrival>> = Vec::new();
    let mut off = 0;
    while off < arrivals.len() {
        let n = sizes[batches.len() % sizes.len()].min(arrivals.len() - off);
        batches.push(arrivals[off..off + n].to_vec());
        off += n;
    }
    assert!(batches.len() >= 12, "stream too short for the scenario");
    let cut = 9; // lands right after the third burst batch (index 8)
    let (oracle_matches, oracle) = oracle_run(&ctx, params, &batches);

    let dir = TempDir::new("burst_delta");
    let flags = ["--checkpoint-every", "2", "--checkpoint-bytes", "65536"];
    let mut served: Vec<Vec<(u64, u64)>> = Vec::new();

    let daemon = Daemon::spawn(dir.path(), &flags);
    let mut client = daemon.client();
    served.extend(feed_batches(&mut client, &batches[..cut], 1));
    daemon.kill9();

    // The cadence must have left a real chain behind for the restart to
    // walk (base at seq 2, deltas at 4, 6, 8 — plus any byte-cadence
    // stamps the bursts forced).
    let deltas = std::fs::read_dir(dir.path())
        .expect("read store dir")
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .starts_with("delt-")
        })
        .count();
    assert!(deltas >= 1, "no delta frames on disk after {cut} batches");

    let daemon = Daemon::spawn(dir.path(), &flags);
    let mut client = daemon.client();
    let committed = client.stats().expect("stats").next_batch_seq;
    assert_eq!(
        committed, cut as u64,
        "daemon must resume exactly after the last acked batch"
    );
    served.extend(feed_batches(&mut client, &batches[cut..], 1));

    assert_eq!(
        served, oracle_matches,
        "concatenated per-arrival results diverged from the uninterrupted run"
    );
    let stats = client.stats().expect("final stats");
    assert_eq!(stats.stats, oracle.prune_stats(), "pruning statistics");
    assert_eq!(stats.next_batch_seq, batches.len() as u64);
    let window = client.window().expect("window");
    assert_eq!(window.len, oracle.window_len());
    assert_eq!(window.live_ids, oracle.live_ids());
    client.shutdown().expect("graceful shutdown");
    daemon.wait_graceful();
}

/// A flag the subcommand does not take — the removed `--threads` and
/// `--ckpt-mode`, or a typo like `--flush-windw` — exits through the
/// usage text instead of being ignored. A daemon that started anyway is
/// killed after a deadline and fails the test rather than hanging it.
#[test]
fn unknown_serve_flag_is_refused() {
    let dir = TempDir::new("unknown_flag");
    for flag in ["--threads", "--flush-windw", "--ckpt-mode"] {
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_ter_serve"))
            .args(["serve", "--dir", dir.path().to_str().unwrap()])
            .args(["--addr", "127.0.0.1:0", flag, "2"])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn ter_serve");
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let status = loop {
            if let Some(status) = child.try_wait().expect("wait on ter_serve") {
                break status;
            }
            if std::time::Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("ter_serve accepted {flag} and kept running");
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let mut err = String::new();
        std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut err).unwrap();
        assert_eq!(status.code(), Some(2), "{flag}: {err}");
        assert!(err.contains(&format!("unknown flag {flag}")), "{err}");
        assert!(err.contains("usage: ter_serve"), "{err}");
    }
}
