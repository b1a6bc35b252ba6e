//! The client side of the wire protocol.
//!
//! [`Client`] is the synchronous core over one TCP connection: each
//! call writes one framed request and blocks for its framed reply.
//!
//! Ingest is one driver, [`Client::ingest_pipelined`]: it keeps up to
//! `W` sequence-tagged batches unacked on the wire, hiding the round
//! trip and letting the daemon overlap WAL fsync with engine compute.
//! [`Client::ingest_wait`] is the same driver at `W = 1` — plain
//! request/reply — and both draw their sequence tags from one
//! per-connection counter, so the two mix freely on a connection.
//! Backpressure is go-back-N: on any [`Reply::IngestBusy`] the client
//! drains every outstanding reply, rewinds to its lowest unacked batch,
//! and resends after a small backoff — the daemon's in-sequence gate
//! guarantees batches commit in client order or not at all, so the
//! result stream is bit-identical at every window.
//!
//! [`ResilientClient`] wraps all of that with transparent
//! re-dial-and-resume: on a connection loss it reconnects with backoff,
//! asks the daemon's `Stats` where the committed stream ends, and
//! continues the feed from exactly there — the client-side half of the
//! crash-recovery story.

use std::collections::{BTreeSet, VecDeque};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use ter_stream::Arrival;

use ter_obs::{MetricRow, TraceEvent};

use crate::wire::{
    decode_reply, encode_ingest_seq, encode_request, read_message, write_message, EntityInfo,
    Query, Reply, Request, StatsInfo, WindowInfo, WireError,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Wire(WireError),
    /// The server answered [`Reply::Error`].
    Server(String),
    /// The server answered with a reply kind the verb does not produce —
    /// a protocol bug, not an operational condition.
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Unexpected(kind) => write!(f, "unexpected {kind} reply"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// Per-arrival match lists for one ingested batch, in arrival order.
pub type BatchMatches = Vec<Vec<(u64, u64)>>;

/// What the daemon acknowledged a subscription with: the engine position
/// of the snapshot and the full current result rows at that position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubAckInfo {
    /// The subscriber-chosen subscription id, echoed back.
    pub sub_id: u64,
    /// Engine batch position of the snapshot; the first `Notify` carries
    /// a strictly later position.
    pub seq: u64,
    /// The standing query's complete result at `seq` (sorted rows).
    pub rows: Vec<Vec<u64>>,
}

/// One pushed event on a subscriber connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubEvent {
    /// Net result change of one ingested batch.
    Notify {
        sub_id: u64,
        /// Engine position after the batch.
        seq: u64,
        added: Vec<Vec<u64>>,
        retracted: Vec<Vec<u64>>,
    },
    /// The daemon shed this subscription under backpressure; the
    /// notification stream has a gap. Resubscribe (quoting `resync_seq`)
    /// for a fresh snapshot.
    Lagged { sub_id: u64, resync_seq: u64 },
}

/// Client-side fold of a standing query: snapshot plus every `Notify`
/// applied in order. The differential-oracle contract makes
/// [`SubscriptionFold::rows`] bit-identical to a one-shot
/// [`Client::pattern_query`] at the same engine position.
#[derive(Debug, Clone, Default)]
pub struct SubscriptionFold {
    /// Engine position the fold has caught up to.
    pub seq: u64,
    /// `Some(resync_seq)` once a [`SubEvent::Lagged`] arrived — the fold
    /// is stale from that point and needs a resubscribe.
    pub lagged: Option<u64>,
    rows: BTreeSet<Vec<u64>>,
}

impl SubscriptionFold {
    /// Starts the fold from a subscription snapshot.
    pub fn start(ack: &SubAckInfo) -> Self {
        Self {
            seq: ack.seq,
            lagged: None,
            rows: ack.rows.iter().cloned().collect(),
        }
    }

    /// Applies one pushed event. Panics if a notification retracts a row
    /// the fold never had (or re-adds one it has) — that is a protocol
    /// contract violation the oracle suites must surface, not mask.
    pub fn apply(&mut self, ev: &SubEvent) {
        match ev {
            SubEvent::Notify {
                seq,
                added,
                retracted,
                ..
            } => {
                ter_query::fold_notification(&mut self.rows, added, retracted);
                self.seq = *seq;
            }
            SubEvent::Lagged { resync_seq, .. } => self.lagged = Some(*resync_seq),
        }
    }

    /// The folded result rows, sorted.
    pub fn rows(&self) -> Vec<Vec<u64>> {
        self.rows.iter().cloned().collect()
    }
}

/// What one [`Client::ingest_pipelined`] run committed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelinedIngest {
    /// Per-batch match lists, in batch order (each entry is that batch's
    /// per-arrival lists) — concatenated, bit-identical to a strict
    /// request/reply feed of the same batches.
    pub per_batch: Vec<BatchMatches>,
    /// `IngestBusy` rejections absorbed (backpressure events the go-back-N
    /// loop retried).
    pub busy_retries: u64,
}

/// One connection to a `ter_serve` daemon.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    /// Next ingest sequence tag, shared by every ingest call.
    /// Per-connection monotonic — the daemon's in-sequence gate pins the
    /// connection to this counter, so it never resets while the
    /// connection lives.
    pipeline_seq: u64,
    /// Pushed subscription events that arrived interleaved with a
    /// request/reply exchange; [`Client::next_event`] drains these before
    /// touching the socket.
    pending: VecDeque<SubEvent>,
}

impl Client {
    /// Connects to a running daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Self {
            stream,
            pipeline_seq: 0,
            pending: VecDeque::new(),
        })
    }

    /// Bounds every socket read and write (`None` restores blocking
    /// forever, the default). Opt-in: a client talking to a daemon that
    /// group-commits with a long flush interval, or one that must detect
    /// a hung daemon, sets this so no call can stall it indefinitely. A
    /// timeout surfaces as a [`WireError`] on the call; set it well above
    /// the daemon's `flush_interval` or healthy acks will be cut off
    /// mid-read.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)
    }

    /// Connects, retrying until `deadline_in` elapses — for harnesses and
    /// CLIs that race daemon startup (context building takes a moment).
    pub fn connect_retry(
        addr: impl ToSocketAddrs + Copy,
        deadline_in: Duration,
    ) -> std::io::Result<Self> {
        let deadline = Instant::now() + deadline_in;
        loop {
            match Self::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }

    /// One request/reply round trip. [`Reply::Busy`] is surfaced as-is —
    /// the daemon answers it for *any* verb when its bounded queue is
    /// full. Pushed subscription events that land between the request
    /// and its reply are diverted to the [`Client::next_event`] queue,
    /// so control verbs stay usable on a subscriber connection.
    pub fn call(&mut self, req: &Request) -> Result<Reply, ClientError> {
        write_message(&mut self.stream, &encode_request(req))?;
        match self.read_reply()? {
            Reply::Error(msg) => Err(ClientError::Server(msg)),
            reply => Ok(reply),
        }
    }

    /// The next reply off the wire, diverting pushed subscription events
    /// to the [`Client::next_event`] queue. `Error` is returned as-is.
    fn read_reply(&mut self) -> Result<Reply, ClientError> {
        loop {
            let payload = read_message(&mut self.stream)?;
            match decode_reply(&payload)? {
                Reply::Notify {
                    sub_id,
                    seq,
                    added,
                    retracted,
                } => self.pending.push_back(SubEvent::Notify {
                    sub_id,
                    seq,
                    added,
                    retracted,
                }),
                Reply::Lagged { sub_id, resync_seq } => self
                    .pending
                    .push_back(SubEvent::Lagged { sub_id, resync_seq }),
                reply => return Ok(reply),
            }
        }
    }

    /// [`Client::call`], retrying `Busy` with a small backoff — the right
    /// default for introspection and control verbs, which are idempotent
    /// and cheap for the engine.
    fn call_wait(&mut self, req: &Request) -> Result<Reply, ClientError> {
        loop {
            match self.call(req)? {
                Reply::Busy => std::thread::sleep(Duration::from_millis(2)),
                reply => return Ok(reply),
            }
        }
    }

    /// Ingests one batch and returns its per-arrival match lists once the
    /// daemon commits it: [`Client::ingest_pipelined`] at window 1, so
    /// `IngestBusy` is retried with a small backoff and an error poisons
    /// the connection the same way.
    pub fn ingest_wait(&mut self, batch: &[Arrival]) -> Result<BatchMatches, ClientError> {
        let mut acked = self.ingest_pipelined(&[batch], 1)?.per_batch;
        Ok(acked.pop().expect("a completed run acks every batch"))
    }

    /// Window occupancy and live ids.
    pub fn window(&mut self) -> Result<WindowInfo, ClientError> {
        match self.call_wait(&Request::Query(Query::Window))? {
            Reply::Window(info) => Ok(info),
            _ => Err(ClientError::Unexpected("window")),
        }
    }

    /// One live tuple's coordinates and match partners.
    pub fn entity(&mut self, id: u64) -> Result<EntityInfo, ClientError> {
        match self.call_wait(&Request::Query(Query::Entity(id)))? {
            Reply::Entity(info) => Ok(info),
            _ => Err(ClientError::Unexpected("entity")),
        }
    }

    /// The live result set, `(min, max)`-normalized and sorted.
    pub fn results(&mut self) -> Result<Vec<(u64, u64)>, ClientError> {
        match self.call_wait(&Request::Query(Query::Results))? {
            Reply::Matches(pairs) => Ok(pairs),
            _ => Err(ClientError::Unexpected("results")),
        }
    }

    /// One-shot pattern query: parses and evaluates `pattern` against
    /// the daemon's live state. Returns the engine batch position the
    /// result describes plus the rows (sorted, deduped).
    pub fn pattern_query(&mut self, pattern: &str) -> Result<(u64, Vec<Vec<u64>>), ClientError> {
        match self.call_wait(&Request::PatternQuery(pattern.to_string()))? {
            Reply::Rows { seq, rows } => Ok((seq, rows)),
            _ => Err(ClientError::Unexpected("pattern query")),
        }
    }

    /// Registers a standing query under the caller-chosen `sub_id`
    /// (unique per connection). The ack carries a full snapshot of the
    /// result at subscription time — pass `resync_seq` from a prior
    /// [`SubEvent::Lagged`] when resyncing (the daemon treats every
    /// subscribe as snapshot-plus-stream, so any value is safe; 0 for a
    /// fresh subscription). Notifications then arrive via
    /// [`Client::next_event`].
    pub fn subscribe(
        &mut self,
        sub_id: u64,
        resync_seq: u64,
        pattern: &str,
    ) -> Result<SubAckInfo, ClientError> {
        let req = Request::Subscribe {
            sub_id,
            resync_seq,
            pattern: pattern.to_string(),
        };
        match self.call_wait(&req)? {
            Reply::SubAck { sub_id, seq, rows } => Ok(SubAckInfo { sub_id, seq, rows }),
            _ => Err(ClientError::Unexpected("subscribe")),
        }
    }

    /// Deregisters a standing query; returns whether it existed. Events
    /// already pushed before the daemon processed the unsubscribe are
    /// delivered through [`Client::next_event`] as usual.
    pub fn unsubscribe(&mut self, sub_id: u64) -> Result<bool, ClientError> {
        match self.call_wait(&Request::Unsubscribe { sub_id })? {
            Reply::Ack(n) => Ok(n == 1),
            _ => Err(ClientError::Unexpected("unsubscribe")),
        }
    }

    /// Blocks for the next pushed subscription event (any queued-up
    /// event first). Respect [`Client::set_io_timeout`] to bound the
    /// wait.
    pub fn next_event(&mut self) -> Result<SubEvent, ClientError> {
        if let Some(ev) = self.pending.pop_front() {
            return Ok(ev);
        }
        let payload = read_message(&mut self.stream)?;
        match decode_reply(&payload)? {
            Reply::Notify {
                sub_id,
                seq,
                added,
                retracted,
            } => Ok(SubEvent::Notify {
                sub_id,
                seq,
                added,
                retracted,
            }),
            Reply::Lagged { sub_id, resync_seq } => Ok(SubEvent::Lagged { sub_id, resync_seq }),
            Reply::Error(msg) => Err(ClientError::Server(msg)),
            _ => Err(ClientError::Unexpected("subscription event")),
        }
    }

    /// Service counters: stream position, WAL size, pruning statistics,
    /// and daemon uptime, live connections, subscribers, and fsyncs.
    pub fn stats(&mut self) -> Result<StatsInfo, ClientError> {
        match self.call_wait(&Request::Stats)? {
            Reply::Stats(info) => Ok(info),
            _ => Err(ClientError::Unexpected("stats")),
        }
    }

    /// Scrapes the daemon's metric registry and flight-recorder ring:
    /// every counter/gauge/histogram as wire rows, plus the most recent
    /// trace events, oldest first.
    pub fn metrics_dump(&mut self) -> Result<(Vec<MetricRow>, Vec<TraceEvent>), ClientError> {
        match self.call_wait(&Request::MetricsDump)? {
            Reply::Metrics { rows, flight } => Ok((rows, flight)),
            _ => Err(ClientError::Unexpected("metrics dump")),
        }
    }

    /// Scrapes the daemon's causal trace surface: the cumulative
    /// critical-path attribution table plus the tail sampler's retained
    /// traces, oldest first.
    pub fn trace_dump(
        &mut self,
    ) -> Result<(ter_obs::trace::CriticalPath, Vec<ter_obs::trace::Trace>), ClientError> {
        match self.call_wait(&Request::TraceDump)? {
            Reply::Traces {
                critical_path,
                traces,
            } => Ok((critical_path, traces)),
            _ => Err(ClientError::Unexpected("trace dump")),
        }
    }

    /// Forces a checkpoint; returns its byte size.
    pub fn checkpoint(&mut self) -> Result<u64, ClientError> {
        match self.call_wait(&Request::Checkpoint)? {
            Reply::Ack(bytes) => Ok(bytes),
            _ => Err(ClientError::Unexpected("checkpoint")),
        }
    }

    /// Gracefully stops the daemon (checkpoint, then ack); returns the
    /// batches the daemon served this run.
    pub fn shutdown(&mut self) -> Result<u64, ClientError> {
        match self.call_wait(&Request::Shutdown)? {
            Reply::Ack(batches) => Ok(batches),
            _ => Err(ClientError::Unexpected("shutdown")),
        }
    }

    /// Ingests `batches` with up to `window` unacked batches in flight.
    /// Every batch is committed exactly once, in order: the daemon's
    /// per-connection gate admits only the in-sequence prefix, and on any
    /// [`Reply::IngestBusy`] this driver drains all outstanding replies,
    /// rewinds to its lowest unacked batch, and resends (go-back-N) after
    /// a small backoff. Blocks until every batch is acked; the returned
    /// per-batch match lists are the same at every window.
    ///
    /// On *any* error the connection is poisoned (shut down): replies
    /// for in-flight frames may still be on the wire and the daemon's
    /// per-connection expected sequence no longer matches this client's,
    /// so no later call could trust what it reads. Every subsequent
    /// operation fails fast with a transport error — reconnect (or use
    /// [`ResilientClient`], which does) instead of retrying on the dead
    /// connection.
    pub fn ingest_pipelined<B: AsRef<[Arrival]>>(
        &mut self,
        batches: &[B],
        window: usize,
    ) -> Result<PipelinedIngest, ClientError> {
        match self.go_back_n(batches, window.max(1)) {
            Ok(out) => Ok(out),
            Err(e) => {
                // Undrained tagged replies + a diverged server-side
                // sequence gate = an unresynchronizable connection. A
                // shutdown on an already-broken stream is harmless.
                let _ = self.stream.shutdown(std::net::Shutdown::Both);
                Err(e)
            }
        }
    }

    fn go_back_n<B: AsRef<[Arrival]>>(
        &mut self,
        batches: &[B],
        w: usize,
    ) -> Result<PipelinedIngest, ClientError> {
        let n = batches.len();
        let base = self.pipeline_seq;
        let mut out = PipelinedIngest {
            per_batch: Vec::with_capacity(n),
            busy_retries: 0,
        };
        let mut next_send = 0usize; // next batch index to (re)send
        let mut in_flight = 0usize; // frames whose reply is still owed
        while out.per_batch.len() < n {
            while next_send < n && in_flight < w {
                // Borrow-encoding: no per-frame batch clone, even on
                // go-back-N retransmits.
                let payload =
                    encode_ingest_seq(base + next_send as u64, batches[next_send].as_ref());
                write_message(&mut self.stream, &payload)?;
                next_send += 1;
                in_flight += 1;
            }
            // One reply — or, after a rejection, every reply still owed
            // (acks may interleave with the rejected tail).
            let mut rejected = false;
            while in_flight > 0 {
                in_flight -= 1;
                match self.read_reply()? {
                    Reply::IngestAck { seq, per_arrival } => {
                        // The daemon enqueues only the in-sequence prefix
                        // and acks in commit order, so acks arrive densely.
                        if seq != base + out.per_batch.len() as u64 {
                            return Err(ClientError::Unexpected("pipelined ack order"));
                        }
                        out.per_batch.push(per_arrival);
                    }
                    Reply::IngestBusy { .. } => {
                        out.busy_retries += 1;
                        rejected = true;
                    }
                    Reply::Error(msg) => return Err(ClientError::Server(msg)),
                    _ => return Err(ClientError::Unexpected("pipelined ingest")),
                }
                if !rejected {
                    break;
                }
            }
            if rejected {
                next_send = out.per_batch.len();
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        self.pipeline_seq = base + n as u64;
        Ok(out)
    }
}

/// What one [`ResilientClient::feed`] run did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeedReport {
    /// Batches the daemon committed over the course of this feed,
    /// measured as the advance of its committed sequence — so batches
    /// committed just before a crash (acked or not) are counted, while
    /// batches committed by a previous incarnation are resumed past, not
    /// recounted. Assumes this feed is the only ingester.
    pub batches: u64,
    /// Arrivals inside those batches.
    pub arrivals: u64,
    /// `IngestBusy` backpressure events absorbed (best-effort: events of
    /// a run cut short by a connection loss are not recovered).
    pub busy_retries: u64,
    /// Connections (re-)established after the first.
    pub reconnects: u64,
    /// The daemon's committed batch sequence when the feed completed.
    pub final_seq: u64,
}

/// A self-healing client: re-dials with backoff on connection loss and
/// resumes ingest from the daemon's own committed position (`Stats`),
/// so a feed survives daemon restarts — including `kill -9` — without
/// double-feeding or skipping a batch.
#[derive(Debug)]
pub struct ResilientClient {
    addr: SocketAddr,
    /// How long each re-dial keeps retrying before giving up (passed to
    /// [`Client::connect_retry`] — it backs off internally).
    redial: Duration,
    conn: Option<Client>,
    reconnects: u64,
}

impl ResilientClient {
    /// Creates the wrapper; no connection is made until first use.
    pub fn new(addr: SocketAddr, redial: Duration) -> Self {
        Self {
            addr,
            redial,
            conn: None,
            reconnects: 0,
        }
    }

    /// Connections (re-)established after the first.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    fn conn(&mut self) -> Result<&mut Client, ClientError> {
        if self.conn.is_none() {
            let fresh = Client::connect_retry(self.addr, self.redial)
                .map_err(|e| ClientError::Wire(WireError::Io(e)))?;
            self.conn = Some(fresh);
        }
        Ok(self.conn.as_mut().expect("connection just established"))
    }

    fn drop_conn(&mut self) {
        self.conn = None;
        self.reconnects += 1;
    }

    /// `Stats`, reconnecting on transport failure until the re-dial
    /// deadline gives up.
    pub fn stats(&mut self) -> Result<StatsInfo, ClientError> {
        loop {
            match self.conn()?.stats() {
                Ok(s) => return Ok(s),
                Err(ClientError::Wire(_)) => self.drop_conn(),
                Err(e) => return Err(e),
            }
        }
    }

    /// Feeds `batches` — the *whole* stream, batched exactly as every
    /// previous feed of this store directory — with pipelined ingest at
    /// `window` batches in flight, transparently surviving connection
    /// loss: each (re)connection first asks the daemon where its
    /// committed stream ends and resumes from that batch. Returns once
    /// the daemon has committed every batch.
    pub fn feed(
        &mut self,
        batches: &[Vec<Arrival>],
        window: usize,
    ) -> Result<FeedReport, ClientError> {
        let mut report = FeedReport::default();
        let mut initial_seq: Option<usize> = None;
        loop {
            let start = self.stats()?.next_batch_seq as usize;
            // Progress is accounted by the *daemon's* committed-sequence
            // advance, not by acks seen: a run cut short by a crash may
            // have committed batches whose acks never arrived, and those
            // must still count as fed.
            let initial = *initial_seq.get_or_insert(start.min(batches.len()));
            if start >= batches.len() {
                let end = start.min(batches.len()).max(initial);
                report.batches = (end - initial) as u64;
                report.arrivals = batches[initial..end]
                    .iter()
                    .map(|b| b.len() as u64)
                    .sum::<u64>();
                report.reconnects = self.reconnects;
                report.final_seq = start as u64;
                return Ok(report);
            }
            match self.conn()?.ingest_pipelined(&batches[start..], window) {
                Ok(r) => {
                    report.busy_retries += r.busy_retries;
                    // Loop once more: the next stats call confirms the
                    // committed position reached the end.
                }
                Err(ClientError::Wire(_)) => self.drop_conn(),
                Err(e) => return Err(e),
            }
        }
    }
}
