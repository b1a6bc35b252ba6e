//! Connection-scalability soak for the event-driven front end: a herd of
//! standing connections plus connect/query/disconnect churn, all while a
//! single ordered feeder drives the full preset stream.
//!
//! The gates:
//!
//! 1. **Bounded threads** — the daemon serves `TER_SOAK_CONNS`
//!    connections (default 64; CI's soak leg sets 256) on a fixed I/O
//!    pool, so its OS thread count (scraped from `/proc/<pid>/status`)
//!    must stay far below the connection count and never scale with it.
//! 2. **Stats parity** — after the soak, final pruning statistics and
//!    window contents are bit-identical to a never-crashed in-process
//!    oracle run: thousands of interleaved queries and connection churn
//!    perturbed nothing.
//!
//! Ingest stays on ONE ordered connection — the engine's contract is a
//! single total order of arrivals — while the churn herd exercises the
//! front end with read-only verbs, exactly the deployment shape the
//! README documents.
//!
//! Linux-only: the thread gate reads `/proc`.
#![cfg(target_os = "linux")]

mod harness;

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use harness::{build_oracle_inputs, oracle_run, Daemon, TempDir, BATCH};
use ter_ids::ErProcessor;
use ter_serve::{ClientError, SubEvent, SubscriptionFold};

/// Reads `Threads:` from `/proc/<pid>/status`.
fn thread_count(pid: u32) -> usize {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("read proc status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line")
        .trim()
        .parse()
        .expect("parse thread count")
}

fn soak_conns() -> usize {
    std::env::var("TER_SOAK_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// The front end must serve `TER_SOAK_CONNS` concurrent connections on a
/// bounded thread pool with zero effect on engine output.
#[test]
fn soak_connections_bounded_threads_and_oracle_parity() {
    let conns = soak_conns();
    let (ctx, streams, params) = build_oracle_inputs();
    let batches = streams.arrival_batches(BATCH);
    let (_, oracle) = oracle_run(&ctx, params, &batches);

    let dir = TempDir::new("soak");
    let daemon = Daemon::spawn(
        dir.path(),
        &[
            "--io-threads",
            "2",
            "--flush-window",
            "4",
            "--flush-interval-ms",
            "5",
        ],
    );
    let addr = daemon.addr;
    let baseline = thread_count(daemon.pid());

    // ---- the standing herd: idle connections that just sit there ----
    let idle: Vec<TcpStream> = (0..conns)
        .map(|_| TcpStream::connect(addr).expect("idle connect"))
        .collect();

    // ---- churn + queries while the feeder drives the stream ----
    let stop = AtomicBool::new(false);
    let (served_stats, peak_threads) = std::thread::scope(|scope| {
        // Churners: connect, issue read-only verbs, disconnect, repeat —
        // admission and teardown under load, interleaved with the feed.
        for _ in 0..4 {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    let mut c = daemon.client();
                    let _ = c.window().expect("window query");
                    let _ = c.stats().expect("stats query");
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
        }
        // The single ordered feeder — the engine's ingest contract.
        let feeder = scope.spawn(|| {
            let mut c = daemon.client();
            for batch in &batches {
                c.ingest_wait(batch).expect("soak ingest");
            }
            c.stats().expect("final stats")
        });
        // Thread gate while the herd stands and the feed runs.
        let mut peak = 0usize;
        while !feeder.is_finished() {
            peak = peak.max(thread_count(daemon.pid()));
            std::thread::sleep(Duration::from_millis(10));
        }
        peak = peak.max(thread_count(daemon.pid()));
        let served_stats = feeder.join().expect("feeder");
        stop.store(true, Ordering::Relaxed);
        (served_stats, peak)
    });

    // The thread set is fixed: engine + commit + acceptor + 2 I/O
    // threads. 16 is generous headroom for all of those and still orders
    // of magnitude below a thread-per-connection front end at 256 conns.
    assert!(
        peak_threads <= 16,
        "daemon used {peak_threads} threads under {conns} connections \
         (baseline {baseline}) — the front end is scaling threads with connections"
    );
    assert!(
        conns > 16,
        "soak misconfigured: TER_SOAK_CONNS={conns} cannot distinguish \
         a bounded pool from thread-per-connection"
    );

    // ---- oracle parity: the churn perturbed nothing ----
    assert_eq!(served_stats.next_batch_seq, batches.len() as u64);
    assert_eq!(
        served_stats.stats,
        oracle.prune_stats(),
        "pruning statistics"
    );
    let mut client = daemon.client();
    let window = client.window().expect("window");
    assert_eq!(window.len, oracle.window_len());
    assert_eq!(window.live_ids, oracle.live_ids());

    // ---- the connection gauge deflates with the herd ----
    // While the herd stood, the gauge counted it; once the idle
    // connections drop, the daemon must notice every EOF and walk the
    // gauge back to (about) this one surviving control connection — a
    // leak here means dead Conn entries pinned in the poll loop.
    let inflated = client.stats().expect("stats").connections;
    assert!(
        inflated as usize > conns,
        "gauge {inflated} never counted the {conns}-connection herd"
    );
    drop(idle);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let settled = loop {
        let now = client.stats().expect("stats").connections;
        if now <= 2 {
            break now;
        }
        if std::time::Instant::now() >= deadline {
            panic!("connection gauge stuck at {now} 10s after the herd disconnected");
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(settled >= 1, "the control connection itself still counts");

    client.shutdown().expect("graceful shutdown");
    daemon.wait_graceful();
}

/// One slow subscriber must not be allowed to stall ingest: with a tiny
/// `--notify-buffer`, a subscriber on a firehose pattern that never
/// reads its socket is shed to `Lagged{resync_seq}` once its outbound
/// backlog crosses the bound, while
///
/// * the single ordered feeder completes the full stream with exact
///   pruning-stats and window parity against the in-process oracle,
/// * a healthy subscriber on the same daemon folds its notification
///   stream to the one-shot query bit-identically with no `Lagged`, and
/// * the daemon's thread count stays inside the fixed-pool gate.
///
/// Afterwards the shed subscriber resubscribes quoting the advertised
/// `resync_seq` and is made whole by the snapshot — the documented
/// recovery contract.
#[test]
fn slow_subscriber_sheds_to_lagged_without_stalling_ingest() {
    let (ctx, streams, params) = build_oracle_inputs();
    let batches = streams.arrival_batches(BATCH);
    let (_, oracle) = oracle_run(&ctx, params, &batches);

    let dir = TempDir::new("lag");
    let daemon = Daemon::spawn(
        dir.path(),
        &["--io-threads", "2", "--notify-buffer", "4096"],
    );

    // A small standing herd so shedding runs under concurrent load.
    let idle: Vec<TcpStream> = (0..16)
        .map(|_| TcpStream::connect(daemon.addr).expect("idle connect"))
        .collect();

    // The slow subscriber: an unselective three-way cross product —
    // every window slide churns thousands of rows — and then it never
    // touches its socket again until the feed is over.
    let mut slow = daemon.client();
    let slow_pattern = "live(a), live(b), live(c)";
    let ack = slow.subscribe(1, 0, slow_pattern).expect("subscribe slow");
    assert!(ack.rows.is_empty(), "fresh daemon, empty snapshot");

    // The healthy subscriber: selective pattern, drained continuously.
    let mut healthy = daemon.client();
    let healthy_pattern = "match(a, b) where topical(a)";
    let ack = healthy
        .subscribe(1, 0, healthy_pattern)
        .expect("subscribe healthy");
    let mut healthy_fold = SubscriptionFold::start(&ack);

    let stop = AtomicBool::new(false);
    let (served_stats, healthy_fold, peak_threads) = std::thread::scope(|scope| {
        let feeder = scope.spawn(|| {
            let mut c = daemon.client();
            for batch in &batches {
                c.ingest_wait(batch).expect("soak ingest");
            }
            c.stats().expect("final stats")
        });
        let drainer = scope.spawn(|| {
            healthy
                .set_io_timeout(Some(Duration::from_millis(300)))
                .expect("set timeout");
            loop {
                match healthy.next_event() {
                    Ok(ev) => healthy_fold.apply(&ev),
                    // Quiet socket: keep listening until the feed ends.
                    Err(ClientError::Wire(_)) => {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    Err(e) => panic!("healthy subscriber: {e}"),
                }
            }
            healthy_fold
        });
        let mut peak = 0usize;
        while !feeder.is_finished() {
            peak = peak.max(thread_count(daemon.pid()));
            std::thread::sleep(Duration::from_millis(10));
        }
        let served_stats = feeder.join().expect("feeder");
        stop.store(true, Ordering::Relaxed);
        let healthy_fold = drainer.join().expect("drainer");
        (served_stats, healthy_fold, peak)
    });

    assert!(
        peak_threads <= 16,
        "daemon used {peak_threads} threads — a lagging subscriber must \
         not grow the pool"
    );

    // ---- ingest was never degraded: exact oracle parity ----
    assert_eq!(served_stats.next_batch_seq, batches.len() as u64);
    assert_eq!(
        served_stats.stats,
        oracle.prune_stats(),
        "pruning statistics perturbed by a lagging subscriber"
    );
    let mut client = daemon.client();
    let window = client.window().expect("window");
    assert_eq!(window.len, oracle.window_len());
    assert_eq!(window.live_ids, oracle.live_ids());

    // ---- the healthy subscriber never lagged and folds exactly ----
    assert!(
        healthy_fold.lagged.is_none(),
        "healthy subscriber was shed alongside the slow one"
    );
    let (_, rows) = client.pattern_query(healthy_pattern).expect("one-shot");
    assert_eq!(
        healthy_fold.rows(),
        rows,
        "healthy fold ≡ one-shot despite a lagging peer"
    );

    // ---- the slow subscriber was shed, not stalled over ----
    slow.set_io_timeout(Some(Duration::from_millis(500)))
        .expect("set timeout");
    let mut lagged_at = None;
    let mut notifies = 0usize;
    loop {
        match slow.next_event() {
            Ok(SubEvent::Notify { .. }) => notifies += 1,
            Ok(SubEvent::Lagged { sub_id, resync_seq }) => {
                assert_eq!(sub_id, 1);
                lagged_at = Some(resync_seq);
                break;
            }
            Err(ClientError::Wire(_)) => break,
            Err(e) => panic!("slow subscriber: {e}"),
        }
    }
    let resync_seq = lagged_at.unwrap_or_else(|| {
        panic!("slow subscriber never saw Lagged (drained {notifies} notifies)")
    });
    assert!(resync_seq <= batches.len() as u64);

    // ---- and the advertised resync makes it whole ----
    slow.set_io_timeout(None).expect("clear timeout");
    let ack = slow.subscribe(2, resync_seq, slow_pattern).expect("resync");
    assert_eq!(ack.seq, batches.len() as u64);
    let (_, rows) = client.pattern_query(slow_pattern).expect("one-shot");
    assert_eq!(ack.rows, rows, "resync snapshot ≡ one-shot after the feed");

    drop(idle);
    client.shutdown().expect("graceful shutdown");
    daemon.wait_graceful();
}
