//! Fault injection against the serve store stage, in-process so the
//! fault shims ([`ServeOptions::fsync_delay`], a poisoned checkpoint
//! path) can be aimed precisely:
//!
//! 1. **Slow fsync** — with artificial latency injected into the WAL
//!    sync path, an ingest ack must not return before the covering
//!    fsync's latency has elapsed: group commit never acks an unsynced
//!    batch, even when syncing is arbitrarily slow.
//! 2. **Checkpoint write failure** — a directory squatting on the
//!    temp path of the run's first stamp (always a full snapshot) makes
//!    the atomic write fail like a full or broken disk. The verb must fail loudly, the daemon must keep
//!    serving, and a restart must recover every acked batch from the
//!    WAL.
//! 3. **Delta-stamp write failure** — the same full-disk shim aimed at
//!    an incremental delta frame: the failed stamp
//!    errors loudly, the chain tip and in-memory base stay untouched,
//!    and the *next* stamp chains past the gap.
//! 4. **Rebase write failure** — the full snapshot a chain-bound rebase
//!    demands fails: loud error, nothing poisoned, nothing lost.
//! 5. **Slow fsync at a production window** — delta cadence under a
//!    100 000-tuple window with fsync latency injected: acks still wait
//!    out durability and the delta chain stays recoverable.

mod harness;

use std::time::{Duration, Instant};

use harness::{build_oracle_inputs, oracle_run, TempDir, BATCH};
use ter_ids::ErProcessor;
use ter_serve::{Client, ClientError, ServeOptions, Server};
use ter_store::checkpoint::checkpoint_file_name;
use ter_store::delta::delta_file_name;
use ter_store::CompactionPolicy;

fn opts() -> ServeOptions {
    ServeOptions {
        queue_depth: 8,
        checkpoint_every: 0, // checkpoints only where the scenario says
        ..ServeOptions::default()
    }
}

/// Acks must wait out the fsync, however slow the disk: with a 150 ms
/// sync shim and `flush_window = 1`, every ingest round trip is bounded
/// below by the shim. A same-session control run without the shim
/// confirms the gap is the fsync, not the engine.
#[test]
fn slow_fsync_shim_delays_acks_until_durable() {
    const SHIM: Duration = Duration::from_millis(150);
    let (ctx, streams, params) = build_oracle_inputs();
    let batches = streams.arrival_batches(BATCH);
    let probe = &batches[..3];

    // ---- control: no shim ----
    let dir = TempDir::new("fault_fsync_ctl");
    let server = Server::bind("127.0.0.1:0").unwrap();
    let addr = server.addr().unwrap();
    let control_opts = opts();
    let control = std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run(&ctx, params, dir.path(), &control_opts).unwrap());
        let mut client = Client::connect_retry(addr, Duration::from_secs(5)).unwrap();
        let started = Instant::now();
        for batch in probe {
            client.ingest_wait(batch).unwrap();
        }
        let elapsed = started.elapsed();
        client.shutdown().unwrap();
        handle.join().unwrap();
        elapsed
    });

    // ---- shimmed: every commit fsync takes ≥ SHIM ----
    let dir = TempDir::new("fault_fsync_shim");
    let server = Server::bind("127.0.0.1:0").unwrap();
    let addr = server.addr().unwrap();
    let shim_opts = ServeOptions {
        fsync_delay: SHIM,
        ..opts()
    };
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run(&ctx, params, dir.path(), &shim_opts).unwrap());
        let mut client = Client::connect_retry(addr, Duration::from_secs(5)).unwrap();
        for (i, batch) in probe.iter().enumerate() {
            let started = Instant::now();
            client.ingest_wait(batch).unwrap();
            let elapsed = started.elapsed();
            assert!(
                elapsed >= SHIM,
                "batch {i} acked after {elapsed:?} — before its {SHIM:?} fsync \
                 finished: the ack outran durability"
            );
        }
        client.shutdown().unwrap();
        let report = handle.join().unwrap();
        assert_eq!(report.batches, probe.len() as u64);
        assert!(
            report.fsyncs >= probe.len() as u64,
            "flush_window=1 must fsync per batch"
        );
    });
    assert!(
        control < SHIM,
        "control round trips took {control:?} — too slow to attribute the \
         shimmed latency to the fsync path"
    );
}

/// A checkpoint that cannot be written (its temp path is occupied by a
/// directory — the same `File::create` failure a full disk produces)
/// must fail the verb, poison nothing else, and lose no acked batch
/// across a restart.
#[test]
fn checkpoint_write_failure_keeps_serving_and_loses_nothing() {
    let (ctx, streams, params) = build_oracle_inputs();
    let batches = streams.arrival_batches(BATCH);
    assert!(batches.len() >= 6, "stream too short for the scenario");
    let (_, oracle) = oracle_run(&ctx, params, &batches[..6]);
    let dir = TempDir::new("fault_ckpt");

    // The explicit checkpoint below is the run's first stamp, so it is a
    // full snapshot at wal_seq = 4 and its atomic write lands on
    // `<name>.tmp` first — squat on that path.
    let tmp_path = dir
        .path()
        .join(checkpoint_file_name(4))
        .with_extension("tmp");
    std::fs::create_dir_all(&tmp_path).unwrap();

    let server = Server::bind("127.0.0.1:0").unwrap();
    let addr = server.addr().unwrap();
    let run_opts = ServeOptions {
        flush_window: 2,
        flush_interval: Duration::from_millis(5),
        ..opts()
    };
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run(&ctx, params, dir.path(), &run_opts).unwrap());
        let mut client = Client::connect_retry(addr, Duration::from_secs(5)).unwrap();
        for batch in &batches[..4] {
            client.ingest_wait(batch).unwrap();
        }
        // The poisoned checkpoint: the verb fails, loudly.
        match client.checkpoint() {
            Err(ClientError::Server(msg)) => {
                assert!(
                    msg.contains("checkpoint failed"),
                    "unexpected error shape: {msg}"
                );
            }
            other => panic!("checkpoint over a poisoned path returned {other:?}"),
        }
        // The daemon is not poisoned: ingest and queries keep working…
        for batch in &batches[4..6] {
            client.ingest_wait(batch).unwrap();
        }
        let stats = client.stats().unwrap();
        assert_eq!(stats.next_batch_seq, 6);
        // …and the WAL still covers every acked batch. Kill the daemon
        // the hard way (drop the listener via shutdown with the squatter
        // still in place — the shutdown checkpoint lands at seq 6 and
        // must succeed).
        client.shutdown().unwrap();
        let report = handle.join().unwrap();
        assert_eq!(report.batches, 6);
        assert_eq!(report.checkpoints, 1, "only the shutdown checkpoint");
        assert_eq!(
            report.delta_checkpoints, 0,
            "with no base yet, both stamps are full snapshots"
        );
    });

    // Restart on the same directory: every acked batch is there.
    let server = Server::bind("127.0.0.1:0").unwrap();
    let addr = server.addr().unwrap();
    let reopen_opts = opts();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run(&ctx, params, dir.path(), &reopen_opts).unwrap());
        let mut client = Client::connect_retry(addr, Duration::from_secs(5)).unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.next_batch_seq, 6, "acked batches lost across restart");
        assert_eq!(stats.stats, oracle.prune_stats(), "pruning statistics");
        let window = client.window().unwrap();
        assert_eq!(window.live_ids, oracle.live_ids());
        client.shutdown().unwrap();
        handle.join().unwrap();
    });
}

/// A delta stamp that cannot be written (its temp path squatted, the
/// `File::create` failure a full disk produces) must fail the verb
/// loudly, leave the chain tip and in-memory base untouched, and let the
/// *next* stamp chain past the gap — nothing poisoned, nothing lost.
#[test]
fn delta_stamp_write_failure_keeps_chain_and_loses_nothing() {
    let (ctx, streams, params) = build_oracle_inputs();
    let batches = streams.arrival_batches(BATCH);
    assert!(batches.len() >= 6, "stream too short for the scenario");
    let (_, oracle) = oracle_run(&ctx, params, &batches[..6]);
    let dir = TempDir::new("fault_delta");

    // The failed stamp: base at seq 2, so the seq-4 checkpoint writes
    // `delt-2-4` — squat on its temp path.
    let tmp_path = dir.path().join(delta_file_name(2, 4)).with_extension("tmp");
    std::fs::create_dir_all(&tmp_path).unwrap();

    let server = Server::bind("127.0.0.1:0").unwrap();
    let addr = server.addr().unwrap();
    let run_opts = opts();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run(&ctx, params, dir.path(), &run_opts).unwrap());
        let mut client = Client::connect_retry(addr, Duration::from_secs(5)).unwrap();
        for batch in &batches[..2] {
            client.ingest_wait(batch).unwrap();
        }
        // First checkpoint of the run: the full base, stamped at seq 2.
        assert!(client.checkpoint().unwrap() > 0);
        for batch in &batches[2..4] {
            client.ingest_wait(batch).unwrap();
        }
        // The poisoned delta stamp: loud error, nothing else.
        match client.checkpoint() {
            Err(ClientError::Server(msg)) => {
                assert!(
                    msg.contains("checkpoint failed"),
                    "unexpected error shape: {msg}"
                );
            }
            other => panic!("delta stamp over a poisoned path returned {other:?}"),
        }
        // Serving continues; the next stamp chains base 2 → seq 6,
        // skipping the squatted 2 → 4 name entirely.
        for batch in &batches[4..6] {
            client.ingest_wait(batch).unwrap();
        }
        assert!(client.checkpoint().unwrap() > 0);
        assert!(
            dir.path().join(delta_file_name(2, 6)).exists(),
            "the recovered cadence must have chained past the failed stamp"
        );
        client.shutdown().unwrap();
        let report = handle.join().unwrap();
        assert_eq!(report.batches, 6);
        assert_eq!(report.delta_checkpoints, 1, "exactly the 2→6 stamp");
    });

    // Restart: base + delta chain + WAL suffix recover every acked batch.
    let server = Server::bind("127.0.0.1:0").unwrap();
    let addr = server.addr().unwrap();
    let reopen_opts = opts();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run(&ctx, params, dir.path(), &reopen_opts).unwrap());
        let mut client = Client::connect_retry(addr, Duration::from_secs(5)).unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.next_batch_seq, 6, "acked batches lost across restart");
        assert_eq!(stats.stats, oracle.prune_stats(), "pruning statistics");
        let window = client.window().unwrap();
        assert_eq!(window.live_ids, oracle.live_ids());
        client.shutdown().unwrap();
        handle.join().unwrap();
    });
}

/// A chain-bound rebase whose full snapshot cannot be written: the verb
/// fails loudly, the daemon keeps serving on the intact (bounded) chain,
/// and a later rebase at a clean path succeeds — nothing lost.
#[test]
fn rebase_write_failure_keeps_serving_and_loses_nothing() {
    let (ctx, streams, params) = build_oracle_inputs();
    let batches = streams.arrival_batches(BATCH);
    assert!(batches.len() >= 8, "stream too short for the scenario");
    let (_, oracle) = oracle_run(&ctx, params, &batches[..8]);
    let dir = TempDir::new("fault_rebase");

    // Chain bound 1: base at 2, delta at 4, then the seq-6 stamp demands
    // a rebase (full snapshot `ckpt-6`) — squat on its temp path.
    let tmp_path = dir
        .path()
        .join(checkpoint_file_name(6))
        .with_extension("tmp");
    std::fs::create_dir_all(&tmp_path).unwrap();

    let server = Server::bind("127.0.0.1:0").unwrap();
    let addr = server.addr().unwrap();
    let run_opts = ServeOptions {
        compaction: CompactionPolicy {
            max_chain_len: 1,
            ..CompactionPolicy::two_generation()
        },
        ..opts()
    };
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run(&ctx, params, dir.path(), &run_opts).unwrap());
        let mut client = Client::connect_retry(addr, Duration::from_secs(5)).unwrap();
        for batch in &batches[..2] {
            client.ingest_wait(batch).unwrap();
        }
        assert!(client.checkpoint().unwrap() > 0, "full base at seq 2");
        for batch in &batches[2..4] {
            client.ingest_wait(batch).unwrap();
        }
        assert!(
            client.checkpoint().unwrap() > 0,
            "delta 2→4 fills the bound"
        );
        for batch in &batches[4..6] {
            client.ingest_wait(batch).unwrap();
        }
        // The poisoned rebase: loud error, chain and WAL untouched.
        match client.checkpoint() {
            Err(ClientError::Server(msg)) => {
                assert!(
                    msg.contains("checkpoint failed"),
                    "unexpected error shape: {msg}"
                );
            }
            other => panic!("rebase over a poisoned path returned {other:?}"),
        }
        // Serving continues; the rebase retries at the next stamp's clean
        // path and succeeds.
        for batch in &batches[6..8] {
            client.ingest_wait(batch).unwrap();
        }
        assert!(client.checkpoint().unwrap() > 0, "rebase at seq 8");
        assert!(
            dir.path().join(checkpoint_file_name(8)).exists(),
            "the retried rebase must be a full snapshot"
        );
        client.shutdown().unwrap();
        let report = handle.join().unwrap();
        assert_eq!(report.batches, 8);
        assert_eq!(report.delta_checkpoints, 1, "only the 2→4 stamp chained");
    });

    // Restart: every acked batch survives the failed rebase.
    let server = Server::bind("127.0.0.1:0").unwrap();
    let addr = server.addr().unwrap();
    let reopen_opts = opts();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run(&ctx, params, dir.path(), &reopen_opts).unwrap());
        let mut client = Client::connect_retry(addr, Duration::from_secs(5)).unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.next_batch_seq, 8, "acked batches lost across restart");
        assert_eq!(stats.stats, oracle.prune_stats(), "pruning statistics");
        let window = client.window().unwrap();
        assert_eq!(window.live_ids, oracle.live_ids());
        client.shutdown().unwrap();
        handle.join().unwrap();
    });
}

/// Delta cadence under a production-scale window (10⁵ capacity) with
/// fsync latency injected: every ack still waits out its covering fsync,
/// the cadence emits real delta stamps, and a restart recovers the chain
/// — the large-window configuration changes costs, never contracts.
#[test]
fn slow_fsync_at_production_window_keeps_delta_cadence_durable() {
    const SHIM: Duration = Duration::from_millis(50);
    let (ctx, streams, base_params) = build_oracle_inputs();
    let params = ter_ids::Params {
        window: 100_000,
        ..base_params
    };
    let batches = streams.arrival_batches(BATCH);
    let probe = &batches[..6];
    let (_, oracle) = oracle_run(&ctx, params, probe);

    let dir = TempDir::new("fault_big_window");
    let server = Server::bind("127.0.0.1:0").unwrap();
    let addr = server.addr().unwrap();
    let run_opts = ServeOptions {
        checkpoint_every: 2,
        fsync_delay: SHIM,
        ..opts()
    };
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run(&ctx, params, dir.path(), &run_opts).unwrap());
        let mut client = Client::connect_retry(addr, Duration::from_secs(5)).unwrap();
        for (i, batch) in probe.iter().enumerate() {
            let started = Instant::now();
            client.ingest_wait(batch).unwrap();
            let elapsed = started.elapsed();
            assert!(
                elapsed >= SHIM,
                "batch {i} acked after {elapsed:?} — before its {SHIM:?} fsync"
            );
        }
        client.shutdown().unwrap();
        let report = handle.join().unwrap();
        assert_eq!(report.batches, probe.len() as u64);
        assert!(
            report.delta_checkpoints >= 1,
            "the cadence must have chained at least one delta: {report:?}"
        );
    });

    // Restart recovers through the chain at the big window.
    let server = Server::bind("127.0.0.1:0").unwrap();
    let addr = server.addr().unwrap();
    let reopen_opts = opts();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run(&ctx, params, dir.path(), &reopen_opts).unwrap());
        let mut client = Client::connect_retry(addr, Duration::from_secs(5)).unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.next_batch_seq, probe.len() as u64);
        assert_eq!(stats.stats, oracle.prune_stats(), "pruning statistics");
        let window = client.window().unwrap();
        assert_eq!(window.live_ids, oracle.live_ids());
        client.shutdown().unwrap();
        handle.join().unwrap();
    });
}
