//! The daemon: an event-driven connection front end (a bounded pool of
//! I/O threads driving a `poll(2)` readiness loop) feeding a two-stage
//! engine pipeline — a step stage and a group-commit WAL/checkpoint
//! stage — through one bounded ordered queue.
//!
//! ```text
//!            ┌────────── I/O thread pool (opts.io_threads) ─────────┐
//!  conn 1 ──▶│ poll(2) loop: owns every conn's read+write buffer,   │
//!  conn 2 ──▶│ frames requests, runs the go-back-N gate, writes     │
//!   ...      │ replies; conns per thread: many, threads: bounded    │
//!  conn N ──▶│        │ try_send            ▲ replies (chan + waker)│
//!            └────────┼─────────────────────┼──────────────────────-┘
//!                     ▼                     │
//!            bounded ordered queue          │
//!                     │                     │
//!            ┌────────▼──────────┐  ┌───────┴───────────────────────┐
//!            │ engine thread     │  │ group-commit stage            │
//!            │ step_batch(n)     │─▶│ append(n) [no fsync]          │
//!            │ (single total     │  │ … window fills or interval    │
//!            │  order of ops)    │  │ elapses … one fsync covers    │
//!            │ checkpoint cadence│  │ the window → release its acks │
//!            └───────────────────┘  └───────────────────────────────┘
//! ```
//!
//! Every verb — ingest and introspection alike — goes through the one
//! queue, so the engine observes a single total order of operations no
//! matter how many connections interleave: results are **bit-identical**
//! to a library run feeding the same batches in the same commit order.
//! The queue is bounded; when it is full the I/O thread replies
//! [`Reply::Busy`] (the sequence-tagged [`Reply::IngestBusy`] for ingest)
//! immediately instead of buffering unboundedly (explicit backpressure).
//!
//! # The front end
//!
//! Connections do not get threads. The acceptor hands each socket to one
//! of `opts.io_threads` I/O threads round-robin; each thread multiplexes
//! its share of connections with a vendored readiness poller
//! ([`minipoll`]) over non-blocking sockets. The I/O thread owns the
//! connection's read buffer (frame reassembly, CRC check, request
//! decode, the ingest go-back-N gate) and write buffer
//! (encoded replies, flushed as the socket accepts them) — so 256 or
//! 10 000 connections cost file descriptors and buffer bytes, not
//! threads. Replies travel from the engine back to the owning I/O thread
//! over a channel paired with a [`minipoll::Waker`]. A connection that
//! stops draining replies is dropped after `WRITE_TIMEOUT` without
//! progress, and its buffered outbound bytes never exceed `WBUF_CAP`.
//!
//! All I/O threads are scoped: [`Server::run`] joins them, and on
//! shutdown each thread first drains every reply still in flight (the
//! graceful-shutdown Ack included) and flushes its write buffers before
//! exiting — a reply a client was promised is written out or provably
//! undeliverable, never raced against teardown.
//!
//! # Group commit
//!
//! The engine thread steps each batch immediately and hands the batch
//! *plus its ready-to-send ack* to the group-commit stage. The stage
//! appends to the WAL without syncing and releases acks only when a
//! **flush** makes the window durable: one `fsync` covers every append
//! since the last flush. A flush fires when `opts.flush_window` appends
//! have accumulated, when the oldest unsynced append turns
//! `opts.flush_interval` old, or when a verb that must reflect durable
//! state (stats/checkpoint/shutdown) reaches the stage.
//! `flush_window = 1` degenerates to fsync-per-batch — bit-identical to
//! the pre-group-commit daemon, acks and all.
//!
//! The WAL-before-ack invariant is unchanged per batch: an acked batch
//! is always fsynced. A kill -9 mid-window may lose
//! appended-but-unacked batches — the client re-feeds them from
//! `Stats.next_batch_seq`, which only ever reports the durable prefix —
//! but never an acked one. Checkpoints are stamped with an explicit WAL
//! position ([`TerStore::checkpoint_at`]) and force a flush first, so a
//! manifest never names state the log could lose.
//!
//! Durability: `IngestSeq` acks only after the batch is stepped,
//! WAL-appended, and covered by a group fsync. Every `checkpoint_every`
//! batches (and on `Checkpoint` and `Shutdown`) the engine state is
//! stamped on one delta ladder: the first stamp of the run is a full
//! snapshot, later stamps are deltas chained to it, and a full rebase is
//! written once the chain outgrows its [`CompactionPolicy`] bounds. The
//! store's retention policy (two checkpoint generations, WAL compacted
//! beneath the older one) bounds disk. On startup the daemon recovers
//! via the `ter_store` ladder and resumes at
//! [`Recovery::resume_seq`](ter_store::Recovery::resume_seq). The engine
//! steps each batch on the step stage's own thread, recovery replay
//! included.

use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use minipoll::{Event, Interest, Poller, WakeReceiver, Waker};
use ter_exec::ExecConfig;
use ter_ids::{EngineState, ErProcessor, Params, PruningMode, TerContext, TerIdsEngine};
use ter_query::{BatchDelta, Pattern, StandingQuery};
use ter_store::{context_fingerprint, CompactionPolicy, StoreError, TerStore};
use ter_stream::Arrival;

use crate::wire::{
    decode_request, encode_reply, write_message, EntityInfo, Query, Reply, Request, StatsInfo,
    WindowInfo, MAX_WIRE_LEN,
};

/// What the checkpoint cadence writes. The daemon has one cadence, the
/// delta ladder of the [module docs](self); this type and
/// [`ServeOptions::ckpt_mode`] remain only because callers name
/// `CkptMode::Delta`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CkptMode {
    /// Full snapshots and the incremental deltas
    /// ([`TerStore::checkpoint_delta_at`]) chained to them. A delta costs
    /// bytes proportional to the *churn* since the last stamp, not to
    /// the window.
    #[default]
    Delta,
}

/// How the daemon runs. The defaults suit tests and small deployments;
/// the CLI exposes every knob.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Bounded depth of the ordered ingest queue; a full queue answers
    /// [`Reply::Busy`] / [`Reply::IngestBusy`].
    pub queue_depth: usize,
    /// Checkpoint every N ingested batches (0 = only on graceful
    /// shutdown / explicit `Checkpoint` verbs).
    pub checkpoint_every: u64,
    /// Nothing reads this field: [`CkptMode`] has one variant.
    pub ckpt_mode: CkptMode,
    /// Byte-based cadence: additionally checkpoint once this many WAL
    /// bytes have been appended since the last checkpoint (0 = count
    /// cadence only). Bounds replay *work* directly — batch counts are a
    /// poor proxy when batch sizes vary, e.g. under bursty arrivals.
    pub checkpoint_bytes: u64,
    /// Nothing reads this field: [`ExecConfig`] carries no setting. It
    /// stays only because the benchmark sets it.
    pub exec: ExecConfig,
    /// Store retention. Defaults to the bounded-disk two-generation
    /// policy — the daemon is a long-lived process.
    pub compaction: CompactionPolicy,
    /// Test/bench instrumentation: an artificial hold applied before each
    /// batch's step stage. Lets backpressure tests fill the bounded queue
    /// deterministically. Zero (the default) for real deployments.
    pub ingest_hold: Duration,
    /// Size of the I/O thread pool serving every connection (≥ 1). The
    /// thread count never scales with the connection count.
    pub io_threads: usize,
    /// Group-commit count bound: a flush (one fsync covering the whole
    /// window) fires once this many appends are pending. `1` (the
    /// default) is fsync-per-batch — bit-identical to the
    /// pre-group-commit daemon.
    pub flush_window: usize,
    /// Group-commit time bound: a flush fires once the oldest unsynced
    /// append is this old, capping ack latency when the window is slow
    /// to fill.
    pub flush_interval: Duration,
    /// Fault-injection shim: artificial latency added to every WAL
    /// commit fsync (see [`TerStore::set_fsync_delay`]). Zero outside
    /// fault-injection tests and benches.
    pub fsync_delay: Duration,
    /// Standing-query backpressure bound: when a subscriber connection's
    /// un-drained outbound bytes exceed this, the daemon sheds the
    /// subscription with one final [`Reply::Lagged`] (carrying the
    /// resync position) instead of buffering notifications without
    /// bound or stalling ingest. The client resubscribes to resync.
    pub notify_buffer: usize,
    /// Fault-injection shim: panic on the step stage right before this
    /// batch sequence is stepped, exercising the panic-path flight dump.
    /// `None` (the default) outside crash tests.
    pub panic_on_batch: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            queue_depth: 16,
            checkpoint_every: 8,
            ckpt_mode: CkptMode::Delta,
            checkpoint_bytes: 0,
            exec: ExecConfig,
            compaction: CompactionPolicy::two_generation(),
            ingest_hold: Duration::ZERO,
            io_threads: 2,
            flush_window: 1,
            flush_interval: Duration::from_millis(5),
            fsync_delay: Duration::ZERO,
            notify_buffer: 256 * 1024,
            panic_on_batch: None,
        }
    }
}

/// What a completed (gracefully shut down) serve run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeReport {
    /// Batch sequence the daemon resumed at (0 for a fresh directory).
    pub resumed_at: u64,
    /// WAL-suffix arrivals replayed during recovery.
    pub replayed: usize,
    /// Batches ingested during this run.
    pub batches: u64,
    /// Arrivals ingested during this run.
    pub arrivals: u64,
    /// Checkpoints written (cadence + explicit + shutdown).
    pub checkpoints: u64,
    /// Of those, how many were incremental delta stamps (the rest were
    /// full snapshots).
    pub delta_checkpoints: u64,
    /// WAL commit fsyncs this run — group commit's instrumented counter.
    /// Equals `batches` at `flush_window = 1`; a filled window of W
    /// batches shares one.
    pub fsyncs: u64,
}

/// Everything that can stop the daemon from serving.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure of the listener itself.
    Io(std::io::Error),
    /// The persistence layer refused (fingerprint mismatch, unbridgeable
    /// recovery gap, disk failure).
    Store(StoreError),
    /// The recovered state could not be imported into the engine.
    Recovery(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::Store(e) => write!(f, "store error: {e}"),
            ServeError::Recovery(e) => write!(f, "recovery error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        ServeError::Store(e)
    }
}

/// Messages into an I/O thread: new connections from the acceptor,
/// replies from the engine / group-commit stage. Each send is paired
/// with a waker kick so a poll-blocked loop picks it up immediately.
enum IoMsg {
    /// A freshly accepted connection to adopt.
    Conn(TcpStream),
    /// A reply for connection `token` (silently dropped if it is gone).
    /// `trace_seq` is the owning batch's trace sequence plus one (zero:
    /// untraced); the I/O thread closes that trace once the reply is in
    /// the connection's write buffer — the write-back instant.
    Reply {
        token: u64,
        reply: Reply,
        trace_seq: u64,
    },
}

/// The engine's route back to a connection: which I/O thread (the
/// channel), which connection (the token), and how to interrupt its
/// poll (the waker). Cloned into every queued job; standing
/// subscriptions retain one for the connection's lifetime.
///
/// `gauge` mirrors the connection's un-drained outbound bytes
/// (maintained by the owning I/O thread; [`CONN_GONE`] once the
/// connection is dropped) so the engine thread can shed a lagging
/// subscriber without a round trip.
#[derive(Clone)]
struct ReplyHandle {
    token: u64,
    tx: mpsc::Sender<IoMsg>,
    waker: Arc<Waker>,
    gauge: Arc<AtomicUsize>,
}

impl ReplyHandle {
    fn send(&self, reply: Reply) {
        self.send_with_trace(reply, 0);
    }

    /// Like [`send`], but tags the reply with its batch's causal trace
    /// so the I/O thread can close the trace (and its open write-back
    /// span) when the reply reaches the connection's write buffer.
    ///
    /// [`send`]: ReplyHandle::send
    fn send_traced(&self, reply: Reply, seq: u64) {
        self.send_with_trace(reply, seq + 1);
    }

    fn send_with_trace(&self, reply: Reply, trace_seq: u64) {
        if self
            .tx
            .send(IoMsg::Reply {
                token: self.token,
                reply,
                trace_seq,
            })
            .is_ok()
        {
            let _ = self.waker.wake();
        } else if trace_seq > 0 {
            // The I/O thread is gone; nobody is left to close the trace.
            ter_obs::trace::abandon(trace_seq - 1);
        }
    }
}

/// One queued operation: the decoded request and the route back to the
/// connection.
struct Job {
    request: Request,
    reply: ReplyHandle,
    /// Trace stamps, zero when tracing is off: when the I/O thread
    /// entered the read/parse pass that surfaced this request, and when
    /// the job cleared the gate into the engine queue. The engine thread
    /// turns them into the frontend and queue-wait spans of an ingest
    /// batch's causal trace; other verbs ignore them.
    t_recv: u64,
    t_enqueue: u64,
}

/// A request to the group-commit WAL/checkpoint stage, issued only by
/// the engine thread. `Commit` is fire-and-forget (its ack is released
/// by the stage after the covering fsync); the rest get exactly one
/// response each, in order.
enum StoreReq {
    /// Append one stepped batch (no fsync yet) and release `reply` to
    /// the connection once a flush covers it. `seq` is the batch's log
    /// sequence — the key of its causal trace.
    Commit {
        seq: u64,
        batch: Arc<Vec<Arrival>>,
        reply: Reply,
        handle: ReplyHandle,
    },
    /// Flush, then write a checkpoint; `wal_seq: None` stamps the log's
    /// current end, `Some(seq)` the explicit position of a cadence
    /// checkpoint.
    Checkpoint {
        wal_seq: Option<u64>,
        state: Box<EngineState>,
    },
    /// Flush, then report the store-side counters for a `Stats` reply.
    Stats,
}

enum StoreResp {
    Checkpointed {
        result: Result<u64, String>,
        /// Whether the stamp was an incremental delta (vs a full
        /// snapshot / rebase) — folded into the run report.
        delta: bool,
    },
    Stats {
        next_seq: u64,
        wal_bytes: u64,
        fsyncs: u64,
    },
}

/// An appended-but-unsynced batch's ack, owed to its connection once the
/// covering group fsync lands.
struct PendingAck {
    seq: u64,
    reply: Reply,
    handle: ReplyHandle,
}

/// The group-commit WAL/checkpoint stage: owns the [`TerStore`], batches
/// appends into flush windows, and exits when the request sender drops
/// (flushing any open window first so no owed ack is lost).
///
/// One append (or sync) failure disables every *later* append — and
/// every later checkpoint — until the daemon restarts: a failed write
/// may have torn the file tail, and a batch appended (or a manifest
/// written) after it could disagree with what recovery finds. Refusing
/// keeps the durable log a strict prefix of what clients saw acked —
/// the resume contract survives the fault.
struct CommitStage {
    store: TerStore,
    window: usize,
    interval: Duration,
    pending: Vec<PendingAck>,
    window_opened: Instant,
    append_failed: bool,
    /// The in-memory base: the state and stamp of the last successful
    /// checkpoint, the `prev` side of the next `delta_between`. `None`
    /// until the first full snapshot of the run (so the first stamp is
    /// always a full base).
    last_state: Option<(u64, EngineState)>,
    /// Byte-based cadence threshold (0 = disabled) and the WAL bytes
    /// appended since the last successful checkpoint.
    ckpt_bytes: u64,
    appended_since_ckpt: u64,
    /// Raised towards the step stage when `appended_since_ckpt` crosses
    /// the threshold; the step stage consumes it after the next ingest
    /// and requests a checkpoint at that position.
    ckpt_due: Arc<AtomicBool>,
}

impl CommitStage {
    /// Closes the open flush window: one fsync covers every pending
    /// append, then every owed ack is released in append order. On a
    /// sync failure the owed acks become errors — no client is ever
    /// acked for a batch the disk did not confirm.
    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        match self.store.sync_wal() {
            Ok(()) => {
                for ack in self.pending.drain(..) {
                    // Open the write-back span here (zero duration so
                    // far); the I/O thread closes it — and the trace —
                    // when the ack reaches the connection's write
                    // buffer.
                    ter_obs::record(ter_obs::kind::WRITE_BACK, ack.seq, 0, 0, 0);
                    ack.handle.send_traced(ack.reply, ack.seq);
                }
            }
            Err(e) => {
                self.append_failed = true;
                let msg = format!("wal sync failed: {e}");
                for ack in self.pending.drain(..) {
                    ter_obs::trace::abandon(ack.seq);
                    ack.handle.send(Reply::Error(msg.clone()));
                }
            }
        }
        ter_obs::OBS.unacked_ingests.set(0);
    }

    fn handle_commit(&mut self, batch: &[Arrival], ack: PendingAck) {
        if self.append_failed {
            ter_obs::trace::abandon(ack.seq);
            ack.handle.send(Reply::Error(
                "wal disabled after an earlier append failure (restart the daemon)".into(),
            ));
            return;
        }
        let len_before = self.store.wal_len_bytes();
        match self.store.log_batch_nosync(batch) {
            Ok(wal_seq) => {
                debug_assert_eq!(wal_seq, ack.seq, "engine and WAL sequences in lockstep");
                if self.ckpt_bytes > 0 {
                    self.appended_since_ckpt +=
                        self.store.wal_len_bytes().saturating_sub(len_before);
                    if self.appended_since_ckpt >= self.ckpt_bytes {
                        self.ckpt_due.store(true, Ordering::Release);
                    }
                }
                if self.pending.is_empty() {
                    self.window_opened = Instant::now();
                }
                self.pending.push(ack);
                ter_obs::OBS.unacked_ingests.set(self.pending.len() as u64);
                if self.pending.len() >= self.window {
                    self.flush();
                }
            }
            Err(e) => {
                // The failed write may sit mid-file: flush (and ack) the
                // intact appends before it, then report the failure. A
                // failed append is not a Busy (the client must not
                // silently retry into a diverged log) — it is an error.
                self.flush();
                self.append_failed = true;
                ter_obs::trace::abandon(ack.seq);
                ack.handle
                    .send(Reply::Error(format!("wal append failed: {e}")));
            }
        }
    }

    /// Writes the checkpoint for `state` at WAL position `seq`. When a
    /// base exists at the store's chain tip, the stamp advances past it,
    /// and the chain is within its bounds, the stamp is an incremental
    /// delta (`delta_between(base, state)`); otherwise — first checkpoint
    /// of the run, chain bound exceeded (rebase), a non-advancing stamp,
    /// or a pair `delta_between` refuses — it is a full snapshot. A
    /// failed delta write errors loudly and leaves the base and chain tip
    /// untouched: the durable ladder still recovers to the old tip, and
    /// the next cadence retries. Returns `(result, was_delta)`.
    fn write_checkpoint(&mut self, seq: u64, state: &EngineState) -> (Result<u64, String>, bool) {
        if !self.store.needs_rebase() {
            if let Some((base_seq, base_state)) = &self.last_state {
                if self.store.tip_seq() == Some(*base_seq) && seq > *base_seq {
                    if let Ok(d) = ter_ids::delta_between(base_state, state) {
                        let r = self.store.checkpoint_delta_at(*base_seq, seq, &d);
                        if r.is_ok() {
                            self.last_state = Some((seq, state.clone()));
                        }
                        return (r.map_err(|e| e.to_string()), true);
                    }
                }
            }
        }
        let r = self.store.checkpoint_at(seq, state);
        if r.is_ok() {
            self.last_state = Some((seq, state.clone()));
        }
        (r.map_err(|e| e.to_string()), false)
    }

    fn run(mut self, rx: mpsc::Receiver<StoreReq>, tx: mpsc::Sender<StoreResp>) {
        loop {
            let req = if self.pending.is_empty() {
                match rx.recv() {
                    Ok(req) => req,
                    Err(_) => break,
                }
            } else {
                // An open window: wait at most until its time bound.
                let deadline = self.window_opened + self.interval;
                let budget = deadline.saturating_duration_since(Instant::now());
                match rx.recv_timeout(budget) {
                    Ok(req) => req,
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        self.flush();
                        continue;
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            };
            match req {
                StoreReq::Commit {
                    seq,
                    batch,
                    reply,
                    handle,
                } => self.handle_commit(&batch, PendingAck { seq, reply, handle }),
                StoreReq::Checkpoint { wal_seq, state } => {
                    self.flush();
                    let (result, delta) = if self.append_failed {
                        (
                            Err("wal disabled after an earlier append failure".to_string()),
                            false,
                        )
                    } else {
                        let seq = wal_seq.unwrap_or_else(|| self.store.wal_seq());
                        self.write_checkpoint(seq, &state)
                    };
                    if result.is_ok() {
                        self.appended_since_ckpt = 0;
                        self.ckpt_due.store(false, Ordering::Release);
                    }
                    if tx.send(StoreResp::Checkpointed { result, delta }).is_err() {
                        break;
                    }
                }
                StoreReq::Stats => {
                    self.flush();
                    let resp = StoreResp::Stats {
                        next_seq: self.store.wal_seq(),
                        wal_bytes: self.store.wal_len_bytes(),
                        fsyncs: self.store.wal_fsyncs(),
                    };
                    if tx.send(resp).is_err() {
                        break;
                    }
                }
            }
        }
        // Teardown: an owed ack must still be released (or errored) —
        // the I/O threads drain their inboxes before closing sockets.
        self.flush();
    }
}

/// How often a blocked poll loop (or the acceptor) re-checks the
/// shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// How long a connection's pending reply bytes may sit without a single
/// successful write before the connection is dropped. A client that
/// stops draining replies must not pin buffer memory forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Hard cap on a connection's buffered outbound bytes: one maximal reply
/// plus headroom for a pipeline of small acks. Exceeding it means the
/// client is not draining — the connection is dropped.
const WBUF_CAP: usize = MAX_WIRE_LEN + (MAX_WIRE_LEN >> 1);

/// Per-event read budget: how many inbound bytes one connection may
/// buffer before yielding back to the poll loop (level-triggered, so the
/// remainder is re-reported). Keeps one firehose connection from
/// starving its siblings on the same I/O thread.
const RBUF_SOFT_CAP: usize = 2 * MAX_WIRE_LEN;

/// How long the drain phase of shutdown may spend flushing write
/// buffers to slow-but-alive peers before giving up.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// The poller token reserved for the I/O thread's waker pipe.
const WAKER_TOKEN: u64 = u64::MAX;

/// Gauge sentinel: the connection behind this handle is gone. A standing
/// subscription seeing it is pruned silently (there is no peer left to
/// tell).
const CONN_GONE: usize = usize::MAX;

#[cfg(unix)]
fn stream_fd(s: &TcpStream) -> minipoll::RawFd {
    use std::os::unix::io::AsRawFd;
    s.as_raw_fd()
}

#[cfg(not(unix))]
fn stream_fd(_s: &TcpStream) -> minipoll::RawFd {
    -1
}

/// A bound TER-iDS service. Binding is split from running so callers can
/// learn the ephemeral port (`addr()`) before the blocking serve loop
/// starts — tests and benches bind to `127.0.0.1:0`.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
}

impl Server {
    /// Binds the service listener.
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(Self { listener })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Recovers from `dir`, then serves until a `Shutdown` verb arrives.
    /// Blocking; run it on a dedicated (scoped) thread when the caller
    /// needs to keep working. Returns the run's counters after a graceful
    /// shutdown (a kill -9 by definition returns nothing — that is what
    /// the WAL is for).
    pub fn run(
        self,
        ctx: &TerContext,
        params: Params,
        dir: &Path,
        opts: &ServeOptions,
    ) -> Result<ServeReport, ServeError> {
        let fingerprint = context_fingerprint(ctx, &params);
        let mut store = TerStore::open(dir, fingerprint)?;
        store.set_compaction(opts.compaction);
        store.set_fsync_delay(opts.fsync_delay);
        let recovery = store.recover()?;
        let mut engine = TerIdsEngine::new(ctx, params, PruningMode::Full);
        if let Some(state) = &recovery.state {
            engine.import_state(state).map_err(ServeError::Recovery)?;
        }
        let resumed_at = recovery.resume_seq();

        let shutdown = AtomicBool::new(false);
        let (job_tx, job_rx) = mpsc::sync_channel::<Job>(opts.queue_depth.max(1));
        // Bounded: the engine may run at most a queue's worth of commits
        // ahead of the group-commit stage before blocking, instead of
        // growing an unbounded ack backlog.
        let (store_tx, store_req_rx) = mpsc::sync_channel::<StoreReq>(opts.queue_depth.max(1));
        let (store_resp_tx, store_rx) = mpsc::channel::<StoreResp>();
        self.listener.set_nonblocking(true)?;

        // One inbox + waker pair per I/O thread; the acceptor deals
        // connections round-robin.
        let io_threads = opts.io_threads.max(1);
        let mut io_txs: Vec<mpsc::Sender<IoMsg>> = Vec::with_capacity(io_threads);
        let mut io_wakers: Vec<Arc<Waker>> = Vec::with_capacity(io_threads);
        let mut io_inboxes: Vec<(mpsc::Receiver<IoMsg>, WakeReceiver)> =
            Vec::with_capacity(io_threads);
        for _ in 0..io_threads {
            let (waker, wake_rx) = WakeReceiver::pair()?;
            let (tx, rx) = mpsc::channel::<IoMsg>();
            io_txs.push(tx);
            io_wakers.push(Arc::new(waker));
            io_inboxes.push((rx, wake_rx));
        }

        let ckpt_due = Arc::new(AtomicBool::new(false));
        let commit = CommitStage {
            store,
            window: opts.flush_window.max(1),
            interval: opts.flush_interval,
            pending: Vec::new(),
            window_opened: Instant::now(),
            append_failed: false,
            last_state: None,
            ckpt_bytes: opts.checkpoint_bytes,
            appended_since_ckpt: 0,
            ckpt_due: Arc::clone(&ckpt_due),
        };

        let mut report = ServeReport {
            resumed_at,
            replayed: 0,
            batches: 0,
            arrivals: 0,
            checkpoints: 0,
            delta_checkpoints: 0,
            fsyncs: 0,
        };

        std::thread::scope(|scope| -> Result<(), ServeError> {
            // ---- group-commit stage ----
            scope.spawn(move || commit.run(store_req_rx, store_resp_tx));

            // ---- I/O thread pool ----
            let shutdown_ref = &shutdown;
            for (idx, (rx, wake_rx)) in io_inboxes.into_iter().enumerate() {
                let thread = IoThread {
                    poller: Poller::new(),
                    wake_rx,
                    rx,
                    self_tx: Some(io_txs[idx].clone()),
                    waker: Arc::clone(&io_wakers[idx]),
                    job_tx: job_tx.clone(),
                    conns: HashMap::new(),
                    next_token: idx as u64,
                    token_stride: io_threads as u64,
                };
                scope.spawn(move || thread.run(shutdown_ref));
            }
            // The I/O threads hold their own cloned job senders; drop ours
            // so the engine loop's exit conditions are exactly "Shutdown
            // verb" or "every I/O thread gone".
            drop(job_tx);

            // ---- accept loop ----
            let listener = &self.listener;
            let acceptor_wakers: Vec<Arc<Waker>> = io_wakers.iter().map(Arc::clone).collect();
            scope.spawn(move || {
                // `io_txs` moves in here: when the acceptor exits, the
                // only remaining inbox senders are the reply handles —
                // all dropped by teardown — so draining I/O threads see
                // their inboxes disconnect once every owed reply is out.
                let io_txs = io_txs;
                let mut next = 0usize;
                while !shutdown_ref.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            let t = next % io_txs.len();
                            next = next.wrapping_add(1);
                            if io_txs[t].send(IoMsg::Conn(stream)).is_ok() {
                                let _ = acceptor_wakers[t].wake();
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(POLL_INTERVAL);
                        }
                        Err(_) => break,
                    }
                }
            });

            // ---- step stage (single total order of operations) ----
            // A panicking step must still run the teardown below: the
            // commit stage, acceptor, and I/O threads only exit once the
            // store sender drops and the shutdown flag rises, and the
            // scope joins them before this panic can propagate.
            let stepped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                report.replayed = recovery.replay_into(&mut engine);
                let mut stage = StepStage {
                    engine: &mut engine,
                    store_tx: &store_tx,
                    store_rx: &store_rx,
                    opts,
                    report: &mut report,
                    ckpt_due: &ckpt_due,
                    subs: BTreeMap::new(),
                };
                let mut graceful = false;
                loop {
                    let job = match job_rx.recv() {
                        Ok(job) => job,
                        Err(_) => break,
                    };
                    let is_shutdown = matches!(job.request, Request::Shutdown);
                    stage.handle(job);
                    if is_shutdown {
                        graceful = true;
                        break;
                    }
                }
                if !graceful {
                    // The listener died under us — still leave a fresh
                    // checkpoint (graceful shutdown already wrote one).
                    let _ = stage.request_checkpoint(None);
                }
                // Final store round-trip: flushes any open window (so
                // every owed ack is en route before teardown) and folds
                // the fsync counter into the report.
                let (_, _, fsyncs) = stage.store_stats();
                stage.report.fsyncs = fsyncs;
                ter_obs::dump_now("shutdown");
            }));
            drop(store_tx);
            // Release the acceptor and I/O threads. Each I/O thread
            // drains its inbox (delivering every reply already released,
            // the graceful-shutdown Ack included), flushes its write
            // buffers, and exits; dropping the job queue drops any
            // still-queued reply handles so the drain can terminate.
            shutdown.store(true, Ordering::Release);
            for w in &io_wakers {
                let _ = w.wake();
            }
            drop(job_rx);
            if let Err(panic) = stepped {
                // Every helper thread is released above; re-raise once the
                // scope has joined them. The flight recorder's last act is
                // the post-mortem dump — the in-memory ring would die with
                // the process otherwise.
                ter_obs::record(ter_obs::kind::PANIC, 0, 0, 0, 0);
                ter_obs::dump_now("panic");
                std::panic::resume_unwind(panic);
            }
            Ok(())
        })?;
        Ok(report)
    }
}

/// One registered standing query: the incrementally-maintained state and
/// the route back to its connection.
struct Subscription {
    standing: StandingQuery,
    handle: ReplyHandle,
}

/// The engine thread's state: the engine, the channel pair to the
/// group-commit stage, the standing-query registry, and the run
/// counters.
struct StepStage<'x, 'a> {
    engine: &'x mut TerIdsEngine<'a>,
    store_tx: &'x mpsc::SyncSender<StoreReq>,
    store_rx: &'x mpsc::Receiver<StoreResp>,
    opts: &'x ServeOptions,
    report: &'x mut ServeReport,
    /// Byte-cadence trigger, raised by the commit stage once
    /// `opts.checkpoint_bytes` of WAL have accumulated; consumed here
    /// after the next ingest.
    ckpt_due: &'x AtomicBool,
    /// Standing queries keyed `(connection token, client-chosen sub_id)`
    /// — tokens are pool-unique, so two connections never alias. BTreeMap
    /// for a deterministic notification order per batch.
    subs: BTreeMap<(u64, u64), Subscription>,
}

impl StepStage<'_, '_> {
    fn send_store(&self, req: StoreReq) {
        self.store_tx.send(req).expect("store stage hung up");
    }

    /// Requests a checkpoint of the *current* engine state (flushing the
    /// open flush window first) and waits for it. Returns the stamp's
    /// byte size and whether it was an incremental delta.
    fn request_checkpoint(&mut self, wal_seq: Option<u64>) -> Result<(u64, bool), String> {
        let state = Box::new(self.engine.export_state());
        self.send_store(StoreReq::Checkpoint { wal_seq, state });
        match self.store_rx.recv().expect("store stage hung up") {
            StoreResp::Checkpointed { result, delta } => result.map(|bytes| (bytes, delta)),
            StoreResp::Stats { .. } => {
                unreachable!("store protocol violation: unsolicited Stats")
            }
        }
    }

    /// Store-side counters. Forces a flush, so the returned log end — and
    /// therefore `Stats.next_batch_seq`, the position resuming feeders
    /// trust — covers only durable batches.
    fn store_stats(&mut self) -> (u64, u64, u64) {
        self.send_store(StoreReq::Stats);
        match self.store_rx.recv().expect("store stage hung up") {
            StoreResp::Stats {
                next_seq,
                wal_bytes,
                fsyncs,
            } => (next_seq, wal_bytes, fsyncs),
            StoreResp::Checkpointed { .. } => {
                unreachable!("store protocol violation: unsolicited Checkpointed")
            }
        }
    }

    /// One ingest: step the engine, build the ack, and hand batch + ack
    /// to the group-commit stage, which releases the ack only after the
    /// covering fsync. The WAL-before-ack invariant lives there; the
    /// engine never blocks on the disk for an ingest.
    fn handle_ingest(
        &mut self,
        batch: Vec<Arrival>,
        client_seq: u64,
        handle: ReplyHandle,
        t_recv: u64,
        t_enqueue: u64,
    ) {
        if !self.opts.ingest_hold.is_zero() {
            std::thread::sleep(self.opts.ingest_hold);
        }
        // Commits reach the WAL strictly in step order, so this batch's
        // log sequence is the resume point plus every batch stepped
        // before it.
        let seq = self.report.resumed_at + self.report.batches;
        if self.opts.panic_on_batch == Some(seq) {
            panic!("injected panic before stepping batch {seq}");
        }
        // ---- causal trace: root this batch at its frontend receipt ----
        let t_now = ter_obs::trace::now();
        if t_now > 0 {
            use ter_obs::{kind, record_at};
            // Stamps may be zero if tracing was off when the I/O thread
            // parsed the frame; fall back to "now" so the trace is still
            // well-formed (with empty frontend/queue-wait spans).
            let t_recv = if t_recv > 0 { t_recv } else { t_now };
            let t_enq = t_enqueue.clamp(t_recv, t_now);
            ter_obs::trace::begin(seq, t_recv);
            // Frontend: socket read + frame decode, up to the gate.
            record_at(kind::FRONTEND, seq, 0, 0, t_recv, t_enq - t_recv);
            // The go-back-N gate admitted the batch at enqueue time; a
            // zero-duration marker keeps the admission visible.
            record_at(kind::GATE, seq, 0, 0, t_enq, 0);
            // Queue wait: gate admission to engine pickup.
            record_at(kind::QUEUE_WAIT, seq, 0, 0, t_enq, t_now - t_enq);
            // The engine records its step and stage spans under the
            // current register's sequence.
            ter_obs::trace::set_current(seq);
        }
        let outputs = self.engine.step_batch(&batch);
        ter_obs::trace::clear_current();
        self.report.batches += 1;
        self.report.arrivals += batch.len() as u64;
        let delta = if self.subs.is_empty() {
            None
        } else {
            Some(BatchDelta::from_steps(&batch, &outputs))
        };
        let reply = Reply::IngestAck {
            seq: client_seq,
            per_arrival: outputs.into_iter().map(|o| o.new_matches).collect(),
        };
        self.send_store(StoreReq::Commit {
            seq,
            batch: Arc::new(batch),
            reply,
            handle,
        });
        // Push standing-query notifications for this batch. They
        // describe stepped (engine) state, not durable state — exactly
        // like the query verbs — and ride the same per-connection
        // minipoll writer path as every other reply.
        if let Some(delta) = delta {
            self.notify_subs(&delta, seq);
        }
        let count_due =
            self.opts.checkpoint_every > 0 && (seq + 1) % self.opts.checkpoint_every == 0;
        // The byte cadence fires on the first ingest after the commit
        // stage reports `checkpoint_bytes` of WAL growth. Consumed with a
        // swap so one crossing yields one checkpoint.
        let bytes_due =
            self.opts.checkpoint_bytes > 0 && self.ckpt_due.swap(false, Ordering::AcqRel);
        if count_due || bytes_due {
            // The engine state covers batches 0..=seq, so the checkpoint
            // is stamped seq+1. A failed cadence checkpoint is not an
            // ingest failure — the WAL already covers the batch; just
            // log it.
            match self.request_checkpoint(Some(seq + 1)) {
                Ok((_, was_delta)) => {
                    self.report.checkpoints += 1;
                    if was_delta {
                        self.report.delta_checkpoints += 1;
                    }
                    // Text exposition rides the checkpoint cadence: one
                    // atomic rewrite of the --metrics-text target per
                    // checkpoint, so a scraper (or a post-SIGKILL
                    // autopsy) always finds a consistent dump.
                    ter_obs::dump_now("checkpoint");
                }
                Err(e) => eprintln!("ter_serve: checkpoint at batch {seq} failed: {e}"),
            }
        }
    }

    /// Advances every standing query past ingested batch `seq` and pushes
    /// the net notifications, stamped with the engine position *after*
    /// the batch — the position a resubscribing client resyncs at. Each
    /// evaluation is one `NOTIFY` event, charged to the batch's trace.
    ///
    /// Backpressure: a subscriber whose connection gauge exceeds
    /// `opts.notify_buffer` is shed with one final [`Reply::Lagged`]
    /// (tiny and gauge-exempt) instead of stalling ingest or buffering
    /// without bound; a gauge reading [`CONN_GONE`] means the connection
    /// itself died, so the subscription is pruned silently.
    fn notify_subs(&mut self, delta: &BatchDelta, seq: u64) {
        let eng = &*self.engine;
        let resync_seq = seq + 1;
        let mut shed: Vec<(u64, u64)> = Vec::new();
        for (&key, sub) in self.subs.iter_mut() {
            let backlog = sub.handle.gauge.load(Ordering::Acquire);
            if backlog == CONN_GONE {
                ter_obs::OBS.shed.inc();
                ter_obs::record(ter_obs::kind::SHED, resync_seq, key.1, 0, 0);
                shed.push(key);
                continue;
            }
            ter_obs::OBS.backlog_high_water.max(backlog as u64);
            if backlog > self.opts.notify_buffer {
                sub.handle.send(Reply::Lagged {
                    sub_id: key.1,
                    resync_seq,
                });
                ter_obs::OBS.shed.inc();
                ter_obs::record(ter_obs::kind::SHED, resync_seq, key.1, backlog as u64, 0);
                shed.push(key);
                continue;
            }
            let t0 = ter_obs::timer();
            let (added, retracted) = sub.standing.apply_batch(eng, delta);
            let rows = (added.len() + retracted.len()) as u64;
            ter_obs::record(ter_obs::kind::NOTIFY, seq, key.1, rows, ter_obs::since(t0));
            if rows > 0 {
                ter_obs::OBS.notify_events.inc();
                ter_obs::OBS.notify_rows.add(rows);
                sub.handle.send(Reply::Notify {
                    sub_id: key.1,
                    seq: resync_seq,
                    added,
                    retracted,
                });
            }
        }
        for key in shed {
            self.subs.remove(&key);
        }
        ter_obs::OBS.subscribers.set(self.subs.len() as u64);
    }

    /// Applies one request. The engine state is always fully stepped
    /// (steps are synchronous), so queries answer directly; verbs whose
    /// replies describe durable positions (stats/checkpoint/shutdown) go
    /// through the group-commit stage, which flushes first.
    fn handle(&mut self, job: Job) {
        let Job {
            request,
            reply,
            t_recv,
            t_enqueue,
        } = job;
        // Mirrors the `add(1)` at the I/O threads' successful try_send.
        ter_obs::OBS.engine_queue_depth.sub(1);
        let out = match request {
            Request::IngestSeq { seq, batch } => {
                self.handle_ingest(batch, seq, reply, t_recv, t_enqueue);
                return; // acked by the group-commit stage after the fsync
            }
            Request::Query(Query::Window) => {
                let eng = &*self.engine;
                Reply::Window(WindowInfo {
                    len: eng.window_len(),
                    capacity: eng.window_capacity(),
                    live_ids: eng.live_ids(),
                })
            }
            Request::Query(Query::Entity(id)) => {
                let eng = &*self.engine;
                match eng.meta(id) {
                    Some(meta) => {
                        let mut partners: Vec<u64> = eng
                            .results()
                            .iter()
                            .filter_map(|(a, b)| match (a == id, b == id) {
                                (true, _) => Some(b),
                                (_, true) => Some(a),
                                _ => None,
                            })
                            .collect();
                        partners.sort_unstable();
                        Reply::Entity(EntityInfo {
                            found: true,
                            stream_id: meta.stream_id,
                            timestamp: meta.timestamp,
                            possibly_topical: meta.possibly_topical,
                            partners,
                        })
                    }
                    None => Reply::Entity(EntityInfo::default()),
                }
            }
            Request::Query(Query::Results) => {
                let mut pairs: Vec<(u64, u64)> = self.engine.results().iter().collect();
                pairs.sort_unstable();
                Reply::Matches(pairs)
            }
            Request::PatternQuery(src) => match Pattern::parse(&src) {
                Ok(pattern) => {
                    let seq = self.report.resumed_at + self.report.batches;
                    let t0 = ter_obs::timer();
                    let (rows, trace) = ter_query::evaluate_traced(&pattern, self.engine);
                    let us = ter_obs::since(t0);
                    ter_obs::OBS.oneshot_queries.inc();
                    ter_obs::OBS.oneshot_rows.add(trace.rows);
                    let atoms = trace.order.len() as u64;
                    ter_obs::record(ter_obs::kind::QUERY, seq, atoms, trace.rows, us);
                    // Poor-man's EXPLAIN: one event per planned atom,
                    // carrying the intermediate cardinality.
                    for (&ai, &alive) in trace.order.iter().zip(&trace.atom_rows) {
                        ter_obs::record(ter_obs::kind::QUERY_ATOM, seq, ai as u64, alive, 0);
                    }
                    Reply::Rows { seq, rows }
                }
                Err(e) => Reply::Error(format!("bad pattern: {e}")),
            },
            Request::Subscribe {
                sub_id,
                resync_seq: _,
                pattern: src,
            } => match Pattern::parse(&src) {
                // Always-snapshot semantics: the ack carries the full
                // current result regardless of `resync_seq` — folding
                // Notifies on top of it is correct from any position, so
                // a resync after `Lagged` (or a daemon restart) needs no
                // server-side replay state.
                Ok(pattern) => {
                    let mut standing = StandingQuery::new(pattern);
                    let rows = standing.seed(self.engine);
                    let seq = self.report.resumed_at + self.report.batches;
                    self.subs.insert(
                        (reply.token, sub_id),
                        Subscription {
                            standing,
                            handle: reply.clone(),
                        },
                    );
                    ter_obs::OBS.subscribers.set(self.subs.len() as u64);
                    Reply::SubAck { sub_id, seq, rows }
                }
                Err(e) => Reply::Error(format!("bad pattern: {e}")),
            },
            Request::Unsubscribe { sub_id } => {
                let removed = self.subs.remove(&(reply.token, sub_id)).is_some();
                ter_obs::OBS.subscribers.set(self.subs.len() as u64);
                Reply::Ack(removed as u64)
            }
            Request::Stats => {
                let (next_seq, wal_bytes, fsyncs) = self.store_stats();
                let eng = &*self.engine;
                Reply::Stats(StatsInfo {
                    next_batch_seq: next_seq,
                    session_arrivals: self.report.arrivals + self.report.replayed as u64,
                    wal_bytes,
                    window_len: eng.window_len(),
                    stats: eng.prune_stats(),
                    uptime_micros: ter_obs::epoch_micros(),
                    connections: ter_obs::OBS.connections.get(),
                    subscribers: self.subs.len() as u64,
                    fsyncs,
                })
            }
            Request::MetricsDump => Reply::Metrics {
                rows: ter_obs::snapshot(),
                flight: ter_obs::flight_snapshot(),
            },
            Request::TraceDump => {
                let (critical_path, traces) = ter_obs::trace::snapshot();
                Reply::Traces {
                    critical_path,
                    traces,
                }
            }
            Request::Checkpoint => match self.request_checkpoint(None) {
                Ok((bytes, was_delta)) => {
                    self.report.checkpoints += 1;
                    if was_delta {
                        self.report.delta_checkpoints += 1;
                    }
                    Reply::Ack(bytes)
                }
                Err(e) => Reply::Error(format!("checkpoint failed: {e}")),
            },
            Request::Shutdown => {
                // The final checkpoint happens *before* the shutdown ack
                // leaves — and its flush releases every pending ingest
                // ack first — so a client that saw the ack can rely on a
                // checkpoint-only (zero-replay) restart.
                match self.request_checkpoint(None) {
                    Ok((_, was_delta)) => {
                        self.report.checkpoints += 1;
                        if was_delta {
                            self.report.delta_checkpoints += 1;
                        }
                        Reply::Ack(self.report.batches)
                    }
                    Err(e) => Reply::Error(format!("shutdown checkpoint failed: {e}")),
                }
            }
        };
        reply.send(out);
    }
}

/// What an I/O helper decided about a connection.
enum Action {
    Keep,
    Drop,
}

/// One connection's state, owned entirely by its I/O thread: the
/// non-blocking socket, the inbound reassembly buffer, the outbound
/// reply buffer, and the go-back-N gate cursor.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// How much of `wbuf` has reached the kernel.
    wpos: usize,
    /// The ingest gate (`None` until the first `IngestSeq`).
    expected_seq: Option<u64>,
    /// Flush remaining replies, then close (set on EOF, frame-level
    /// garbage, or engine disconnect).
    closing: bool,
    /// The interest currently registered in the poller.
    interest: Interest,
    last_write_progress: Instant,
    /// Un-drained outbound bytes (`wbuf.len() - wpos`), mirrored for the
    /// engine thread's lag detector; [`CONN_GONE`] after the drop.
    gauge: Arc<AtomicUsize>,
}

impl Conn {
    /// Reconciles the shared gauge after any write-buffer mutation.
    fn sync_gauge(&self) {
        self.gauge
            .store(self.wbuf.len() - self.wpos, Ordering::Release);
    }
}

/// One event-loop thread of the front end: multiplexes its share of
/// connections over a [`Poller`], parses frames into engine jobs, and
/// writes replies delivered to its inbox.
struct IoThread {
    poller: Poller,
    wake_rx: WakeReceiver,
    rx: mpsc::Receiver<IoMsg>,
    /// Our own inbox sender, cloned into every [`ReplyHandle`] this
    /// thread mints. Dropped when the drain phase starts so the inbox
    /// can disconnect once every outstanding handle is gone.
    self_tx: Option<mpsc::Sender<IoMsg>>,
    waker: Arc<Waker>,
    job_tx: mpsc::SyncSender<Job>,
    conns: HashMap<u64, Conn>,
    /// Next connection token. Seeded with the thread's pool index and
    /// advanced by the pool size, so tokens are unique across the whole
    /// pool — standing subscriptions key on `(token, sub_id)` and must
    /// never alias two connections.
    next_token: u64,
    token_stride: u64,
}

impl IoThread {
    fn run(mut self, shutdown: &AtomicBool) {
        self.poller
            .register(self.wake_rx.as_raw_fd(), WAKER_TOKEN, Interest::READABLE);
        let mut events: Vec<Event> = Vec::new();
        let mut draining = false;
        let mut drain_deadline = Instant::now();
        loop {
            if !draining && shutdown.load(Ordering::Acquire) {
                // Drain phase: stop reading requests (the engine is
                // gone), deliver every reply still in the inbox, flush
                // write buffers, then exit.
                draining = true;
                drain_deadline = Instant::now() + DRAIN_GRACE;
                self.self_tx = None;
            }
            let _ = self.poller.wait(&mut events, Some(POLL_INTERVAL));
            for ev in std::mem::take(&mut events) {
                self.handle_event(&ev, draining);
            }
            let inbox_open = self.drain_inbox(draining);
            self.sweep(draining);
            if draining {
                let flushed = self.conns.values().all(|c| c.wpos == c.wbuf.len());
                if (!inbox_open && flushed) || Instant::now() >= drain_deadline {
                    break;
                }
            }
        }
        for (_, conn) in self.conns.drain() {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Consumes every queued inbox message. Returns whether the inbox
    /// can still produce messages (senders remain).
    fn drain_inbox(&mut self, draining: bool) -> bool {
        loop {
            match self.rx.try_recv() {
                Ok(IoMsg::Conn(stream)) => {
                    if draining {
                        drop(stream); // refused: the engine is gone
                    } else {
                        self.admit(stream);
                    }
                }
                Ok(IoMsg::Reply {
                    token,
                    reply,
                    trace_seq,
                }) => self.queue_reply(token, &reply, trace_seq),
                Err(mpsc::TryRecvError::Empty) => return true,
                Err(mpsc::TryRecvError::Disconnected) => return false,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let token = self.next_token;
        self.next_token += self.token_stride;
        self.poller
            .register(stream_fd(&stream), token, Interest::READABLE);
        self.conns.insert(
            token,
            Conn {
                stream,
                rbuf: Vec::new(),
                wbuf: Vec::new(),
                wpos: 0,
                expected_seq: None,
                closing: false,
                interest: Interest::READABLE,
                last_write_progress: Instant::now(),
                gauge: Arc::new(AtomicUsize::new(0)),
            },
        );
        ter_obs::OBS.accepts.inc();
        ter_obs::OBS.connections.add(1);
        ter_obs::record(ter_obs::kind::CONN_OPEN, 0, token, 0, 0);
    }

    /// Buffers one reply from the engine side and pushes it toward the
    /// socket immediately (the common case: an idle, writable peer).
    fn queue_reply(&mut self, token: u64, reply: &Reply, trace_seq: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            if trace_seq > 0 {
                // The connection died before its ack could be written
                // back — the trace never completes.
                ter_obs::trace::abandon(trace_seq - 1);
            }
            return; // connection died while its job was in flight
        };
        append_reply(conn, reply);
        if trace_seq > 0 {
            // The ack is in the connection's write buffer: the batch's
            // causal chain ends here, closing the open write-back span.
            ter_obs::trace::end(trace_seq - 1, ter_obs::trace::now());
        }
        let act = flush_writes(conn);
        if matches!(act, Action::Drop) || conn.wbuf.len() - conn.wpos > WBUF_CAP {
            self.drop_conn(token);
        }
    }

    fn handle_event(&mut self, ev: &Event, draining: bool) {
        if ev.token == WAKER_TOKEN {
            self.wake_rx.drain();
            return;
        }
        let Some(conn) = self.conns.get_mut(&ev.token) else {
            return; // stale event for a dropped connection
        };
        let mut act = Action::Keep;
        if ev.writable && conn.wpos < conn.wbuf.len() {
            act = flush_writes(conn);
        }
        if matches!(act, Action::Keep) && ev.readable && !draining && !conn.closing {
            if let Some(tx) = self.self_tx.as_ref() {
                act = read_and_parse(conn, ev.token, &self.job_tx, tx, &self.waker);
            }
        }
        if matches!(act, Action::Keep) && ev.closed {
            // Peer hangup/error: whatever is still buffered either
            // flushes right now or never will.
            conn.closing = true;
            if conn.wpos == conn.wbuf.len() {
                act = Action::Drop;
            }
        }
        if matches!(act, Action::Drop) {
            self.drop_conn(ev.token);
        }
    }

    /// Post-event pass over every connection: enforce the write-stall
    /// timeout, retire drained closing connections, and reconcile each
    /// connection's poller interest with what it actually needs next.
    fn sweep(&mut self, draining: bool) {
        let now = Instant::now();
        let mut dead: Vec<u64> = Vec::new();
        for (&token, conn) in self.conns.iter_mut() {
            let write_pending = conn.wpos < conn.wbuf.len();
            if write_pending && now.duration_since(conn.last_write_progress) > WRITE_TIMEOUT {
                dead.push(token);
                continue;
            }
            if conn.closing && !write_pending {
                dead.push(token);
                continue;
            }
            let want = Interest {
                readable: !conn.closing && !draining,
                writable: write_pending,
            };
            if want != conn.interest {
                self.poller.modify(token, want);
                conn.interest = want;
            }
        }
        for token in dead {
            self.drop_conn(token);
        }
    }

    fn drop_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.poller.deregister(token);
            // Tell the engine thread's subscription registry the peer is
            // gone — its standing queries are pruned silently.
            conn.gauge.store(CONN_GONE, Ordering::Release);
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            ter_obs::OBS.connections.sub(1);
            ter_obs::record(ter_obs::kind::CONN_CLOSE, 0, token, 0, 0);
        }
    }
}

/// Encodes one reply into the connection's write buffer. A reply too
/// large for the wire cap degrades to an in-protocol error.
fn append_reply(conn: &mut Conn, reply: &Reply) {
    let mut encoded = encode_reply(reply);
    if encoded.len() > MAX_WIRE_LEN {
        encoded = encode_reply(&Reply::Error(format!(
            "reply of {} bytes exceeds the wire cap",
            encoded.len()
        )));
    }
    if matches!(reply, Reply::Notify { .. }) {
        ter_obs::OBS.notify_bytes.add(encoded.len() as u64);
    }
    // Framing into a Vec cannot fail.
    let _ = write_message(&mut conn.wbuf, &encoded);
    conn.sync_gauge();
}

/// Pushes buffered reply bytes at the socket until it would block.
fn flush_writes(conn: &mut Conn) -> Action {
    let t0 = if conn.wpos < conn.wbuf.len() {
        ter_obs::timer()
    } else {
        None
    };
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return Action::Drop,
            Ok(n) => {
                conn.wpos += n;
                conn.last_write_progress = Instant::now();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Action::Drop,
        }
    }
    if conn.wpos == conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
    }
    conn.sync_gauge();
    if t0.is_some() {
        ter_obs::record(ter_obs::kind::WRITE, 0, 0, 0, ter_obs::since(t0));
    }
    Action::Keep
}

/// The readable half of a connection: pull bytes until the socket is
/// dry, then parse complete frames into engine jobs.
///
/// Frame-level garbage (bad CRC, oversized length) gets an error reply
/// and closes the connection — a byte stream cannot resynchronize after
/// a corrupt frame. Payload-level garbage (intact frame, invalid
/// request) gets an error reply and the connection continues. A full
/// queue gets [`Reply::Busy`], or the sequence-tagged
/// [`Reply::IngestBusy`] for ingest; a stopped engine gets a final error
/// reply.
///
/// The go-back-N gate: the first [`Request::IngestSeq`] fixes the
/// connection's expected sequence; afterwards only `expected` enters the
/// queue (advancing it), everything else — the tail behind a rejection,
/// or a stale retransmit — answers `IngestBusy` without touching the
/// engine. Batches therefore commit in exactly the client's order or not
/// at all.
fn read_and_parse(
    conn: &mut Conn,
    token: u64,
    job_tx: &mpsc::SyncSender<Job>,
    io_tx: &mpsc::Sender<IoMsg>,
    waker: &Arc<Waker>,
) -> Action {
    let t0 = ter_obs::timer();
    // Frontend trace stamp: every batch parsed in this pass roots its
    // causal trace at the instant the socket read began.
    let t_recv = ter_obs::trace::now();
    // ---- read until dry (or over budget; level-triggered re-drive) ----
    let mut saw_eof = false;
    let mut chunk = [0u8; 64 * 1024];
    while conn.rbuf.len() < RBUF_SOFT_CAP {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                saw_eof = true;
                break;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&chunk[..n]);
                if n < chunk.len() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Action::Drop,
        }
    }
    // ---- parse complete frames ----
    let mut pos = 0usize;
    while !conn.closing {
        let avail = conn.rbuf.len() - pos;
        if avail < 8 {
            break;
        }
        let len = u32::from_le_bytes(conn.rbuf[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(conn.rbuf[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_WIRE_LEN {
            append_reply(
                conn,
                &Reply::Error(format!("bad frame: length {len} exceeds the wire cap")),
            );
            conn.closing = true;
            break;
        }
        if avail < 8 + len {
            break;
        }
        let crc_ok = ter_store::crc32(&conn.rbuf[pos + 8..pos + 8 + len]) == crc;
        if !crc_ok {
            append_reply(conn, &Reply::Error("bad frame: CRC mismatch".into()));
            conn.closing = true;
            break;
        }
        let decoded = decode_request(&conn.rbuf[pos + 8..pos + 8 + len]);
        pos += 8 + len;
        let request = match decoded {
            Ok(r) => r,
            Err(e) => {
                append_reply(conn, &Reply::Error(format!("bad request: {e}")));
                continue;
            }
        };
        let handle = ReplyHandle {
            token,
            tx: io_tx.clone(),
            waker: Arc::clone(waker),
            gauge: Arc::clone(&conn.gauge),
        };
        // ---- the ingest gate: out-of-sequence batches never queue ----
        let ingest_seq = match &request {
            Request::IngestSeq { seq, .. } => Some(*seq),
            _ => None,
        };
        let busy = match ingest_seq {
            Some(seq) => Reply::IngestBusy { seq },
            None => Reply::Busy,
        };
        if matches!((ingest_seq, conn.expected_seq), (Some(seq), Some(e)) if seq != e) {
            ter_obs::OBS.busy.inc();
            ter_obs::record(ter_obs::kind::BUSY, ingest_seq.unwrap_or(0), token, 0, 0);
            append_reply(conn, &busy);
            continue;
        }
        match job_tx.try_send(Job {
            request,
            reply: handle,
            t_recv,
            t_enqueue: ter_obs::trace::now(),
        }) {
            Ok(()) => {
                if let Some(seq) = ingest_seq {
                    conn.expected_seq = Some(seq + 1);
                }
                ter_obs::OBS.engine_queue_depth.add(1);
            }
            Err(mpsc::TrySendError::Full(_)) => {
                ter_obs::OBS.busy.inc();
                ter_obs::record(ter_obs::kind::BUSY, ingest_seq.unwrap_or(0), token, 0, 0);
                append_reply(conn, &busy);
            }
            Err(mpsc::TrySendError::Disconnected(_)) => {
                append_reply(conn, &Reply::Error("service shutting down".into()));
                conn.closing = true;
            }
        }
    }
    if pos > 0 {
        conn.rbuf.drain(..pos);
    }
    ter_obs::record(ter_obs::kind::READ_PARSE, 0, 0, 0, ter_obs::since(t0));
    if saw_eof {
        // Frames already received were processed above (they were on the
        // wire before the close); anything partial is abandoned.
        conn.closing = true;
    }
    // Push any locally generated replies (Busy, gate rejections, errors)
    // at the socket right away.
    let act = flush_writes(conn);
    if conn.wbuf.len() - conn.wpos > WBUF_CAP {
        return Action::Drop;
    }
    act
}
