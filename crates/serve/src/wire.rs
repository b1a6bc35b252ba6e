//! The wire protocol: every message travelling either direction is one
//! `ter_store` frame (`[len: u32 LE][crc: u32 LE][payload]`,
//! `crc = CRC-32/IEEE(payload)`) whose payload is
//!
//! ```text
//! payload := [proto: u8 = PROTO_VERSION][tag: u8][body]
//! ```
//!
//! with the body encoded by the same hand-rolled codec the persistence
//! layer uses, so an `Arrival` travels over the wire bit-identically to
//! how it lands in the WAL. Decoding is strict: any protocol byte other
//! than [`PROTO_VERSION`], unknown tags, truncated bodies, and trailing
//! bytes are all rejected with a clean [`WireError`] — never a panic
//! (property-tested, mirroring the `ter_store` codec proptests) — and the
//! frame CRC rejects any bit flip in transit before the decoder even
//! runs.
//!
//! Ingest has one verb, [`Request::IngestSeq`]: each batch carries a
//! client-chosen, per-connection-monotonic sequence number, and the
//! daemon answers each frame with exactly one sequence-tagged
//! [`Reply::IngestAck`] (committed + stepped) or [`Reply::IngestBusy`]
//! (queue full *or* out of sequence — the go-back-N signal). A window of
//! up to `W` unacked batches rides one connection; request/reply is
//! `W = 1`. Every other verb is strict request/reply and answers
//! [`Reply::Busy`] when the queue is full.
//!
//! [`Request::PatternQuery`] evaluates a `ter_query` pattern one-shot
//! against the live engine ([`Reply::Rows`], stamped with the batch
//! position it saw); [`Request::Subscribe`] registers the pattern as a
//! *standing* query (the [`Reply::SubAck`] snapshot is the fold's
//! starting point) after which the daemon pushes one unsolicited
//! [`Reply::Notify`] per arrival batch that net-changed the result. A
//! subscriber that cannot drain fast enough is dropped with
//! [`Reply::Lagged`] carrying the `resync_seq` to resubscribe from —
//! shedding, never stalling ingest. [`Request::MetricsDump`] and
//! [`Request::TraceDump`] carry the observability surface.

use std::io::{Read, Write};

use ter_ids::PruneStats;
use ter_obs::trace::{CriticalPath, Span, Trace};
use ter_obs::{MetricRow, TraceEvent};
use ter_store::{crc32, Codec, CodecError, Decoder, Encoder};
use ter_stream::Arrival;

/// The protocol version byte every payload carries. A peer speaking any
/// other value is refused with [`WireError::Version`]: bytes 1–4 named
/// earlier body layouts that no longer decode.
pub const PROTO_VERSION: u8 = 5;

/// Hard cap on a wire frame's payload (16 MiB) — a corrupt or hostile
/// length field must not drive a pathological allocation.
pub const MAX_WIRE_LEN: usize = 16 << 20;

/// Why a wire message could not be read or decoded.
#[derive(Debug)]
pub enum WireError {
    /// Socket-level failure (includes EOF mid-frame).
    Io(std::io::Error),
    /// The frame length field (or a payload to be sent) exceeds
    /// [`MAX_WIRE_LEN`].
    Oversized(u64),
    /// The frame CRC does not match its payload.
    BadCrc,
    /// The payload's protocol byte is not [`PROTO_VERSION`].
    Version(u8),
    /// The payload's verb/reply tag is unknown.
    UnknownTag(u8),
    /// The body failed to decode.
    Codec(CodecError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io error: {e}"),
            WireError::Oversized(n) => write!(f, "frame length {n} exceeds the wire cap"),
            WireError::BadCrc => write!(f, "frame CRC mismatch"),
            WireError::Version(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownTag(t) => write!(f, "unknown message tag {t:#04x}"),
            WireError::Codec(e) => write!(f, "codec error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Codec(e)
    }
}

/// Reads one framed payload off a *blocking* byte stream. Fails cleanly
/// on EOF, truncation, oversized lengths, and CRC mismatches. (The
/// daemon's I/O threads cannot use this — they reassemble frames across
/// non-blocking partial reads — so the server carries its own parser of
/// the same frame grammar.)
pub fn read_message(r: &mut impl Read) -> Result<Vec<u8>, WireError> {
    let mut header = [0u8; 8];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if len as usize > MAX_WIRE_LEN {
        return Err(WireError::Oversized(len as u64));
    }
    let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    if crc32(&payload) != crc {
        return Err(WireError::BadCrc);
    }
    Ok(payload)
}

/// Writes one framed payload to a byte stream. A payload above
/// [`MAX_WIRE_LEN`] is refused *before* anything is written (the peer
/// would reject the frame anyway, and a length above `u32::MAX` would
/// silently wrap and desynchronize the stream).
pub fn write_message(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_WIRE_LEN {
        return Err(WireError::Oversized(payload.len() as u64));
    }
    let mut framed = Vec::with_capacity(8 + payload.len());
    framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    framed.extend_from_slice(&crc32(payload).to_le_bytes());
    framed.extend_from_slice(payload);
    w.write_all(&framed)?;
    w.flush()?;
    Ok(())
}

/// What a [`Request::Query`] asks about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// The sliding window: occupancy and live tuple ids.
    Window,
    /// One live tuple: arrival coordinates, topicality, match partners.
    Entity(u64),
    /// The live result set `ES` (all currently-matched pairs).
    Results,
}

/// A client verb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Append one arrival batch: WAL-commit, step the engine, and return
    /// the per-arrival match lists. Tagged with a client-chosen sequence
    /// number so up to `W` batches ride the connection unacked. The
    /// daemon enqueues only the in-sequence prefix (per connection) and
    /// answers each frame with exactly one [`Reply::IngestAck`] or
    /// [`Reply::IngestBusy`].
    IngestSeq { seq: u64, batch: Vec<Arrival> },
    /// Introspect the engine without mutating it.
    Query(Query),
    /// Evaluate a `ter_query` pattern one-shot against the live engine.
    /// The pattern travels as source text and is parsed (and rejected
    /// with [`Reply::Error`] on a syntax error) server-side.
    PatternQuery(String),
    /// Register the pattern as a standing query under the client-chosen
    /// `sub_id`. `resync_seq` is 0 on a fresh subscription, or the
    /// batch position from a [`Reply::Lagged`] / the last folded
    /// [`Reply::Notify`] when reconciling after a lag or a reconnect —
    /// the daemon always answers with a full [`Reply::SubAck`] snapshot,
    /// which restarts the fold from its `seq`.
    Subscribe {
        sub_id: u64,
        resync_seq: u64,
        pattern: String,
    },
    /// Deregister a standing query. Acknowledged with [`Reply::Ack`]`(1)`
    /// if the subscription existed, `(0)` otherwise.
    Unsubscribe { sub_id: u64 },
    /// Service counters: stream position, WAL size, pruning statistics,
    /// and daemon liveness, answered with [`Reply::Stats`].
    Stats,
    /// The full observability registry + flight-recorder snapshot,
    /// answered with [`Reply::Metrics`]. Read-only and engine-thread
    /// serialized like every introspection verb, so the snapshot is
    /// consistent with a batch boundary.
    MetricsDump,
    /// The causal per-batch trace surface: the cumulative
    /// critical-path attribution table plus the tail sampler's retained
    /// traces, answered with [`Reply::Traces`]. Read-only and
    /// engine-thread serialized like [`Request::MetricsDump`].
    TraceDump,
    /// Force a checkpoint now (cadence-independent). Like a cadence
    /// stamp it lands on the delta ladder: a delta chained to the tip, or
    /// a full snapshot when it is the run's first stamp, a rebase, or
    /// does not advance past the tip.
    Checkpoint,
    /// Checkpoint and stop the daemon gracefully.
    Shutdown,
}

const TAG_QUERY: u8 = 0x02;
const TAG_STATS: u8 = 0x03;
const TAG_CHECKPOINT: u8 = 0x04;
const TAG_SHUTDOWN: u8 = 0x05;
const TAG_INGEST_SEQ: u8 = 0x06;
const TAG_PATTERN_QUERY: u8 = 0x07;
const TAG_SUBSCRIBE: u8 = 0x08;
const TAG_UNSUBSCRIBE: u8 = 0x09;
const TAG_METRICS_DUMP: u8 = 0x0A;
const TAG_TRACE_DUMP: u8 = 0x0B;

const TAG_ERROR: u8 = 0x80;
const TAG_BUSY: u8 = 0x81;
const TAG_MATCHES: u8 = 0x82;
const TAG_WINDOW: u8 = 0x83;
const TAG_ENTITY: u8 = 0x84;
const TAG_STATS_REPLY: u8 = 0x85;
const TAG_ACK: u8 = 0x86;
const TAG_INGEST_ACK: u8 = 0x87;
const TAG_INGEST_BUSY: u8 = 0x88;
const TAG_ROWS: u8 = 0x89;
const TAG_SUB_ACK: u8 = 0x8A;
const TAG_NOTIFY: u8 = 0x8B;
const TAG_LAGGED: u8 = 0x8C;
const TAG_METRICS: u8 = 0x8D;
const TAG_TRACES: u8 = 0x8F;

/// Window introspection reply body.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WindowInfo {
    /// Unexpired tuples.
    pub len: usize,
    /// Window capacity `w`.
    pub capacity: usize,
    /// Ids of the unexpired tuples, ascending.
    pub live_ids: Vec<u64>,
}

/// Entity introspection reply body.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EntityInfo {
    /// Whether the tuple is live in the window.
    pub found: bool,
    /// Source stream.
    pub stream_id: usize,
    /// Arrival timestamp.
    pub timestamp: u64,
    /// Whether topic-keyword pruning considers it possibly topical.
    pub possibly_topical: bool,
    /// Ids currently matched with it (the live result set restricted to
    /// this tuple), ascending.
    pub partners: Vec<u64>,
}

/// Service counters reply body.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsInfo {
    /// Sequence number the next ingested batch will get — a feeder that
    /// always sends full fixed-size batches resumes its stream cursor at
    /// `next_batch_seq * batch_size`.
    pub next_batch_seq: u64,
    /// Arrivals folded into the engine since this daemon process started
    /// (replayed WAL suffix included; checkpointed history is not).
    pub session_arrivals: u64,
    /// Committed WAL bytes on disk.
    pub wal_bytes: u64,
    /// Window occupancy.
    pub window_len: usize,
    /// Cumulative pruning counters (bit-identical to the library engine's).
    pub stats: PruneStats,
    /// Microseconds since the daemon process started observing.
    pub uptime_micros: u64,
    /// Connections currently admitted to the I/O pool.
    pub connections: u64,
    /// Live standing-query subscriptions.
    pub subscribers: u64,
    /// Commit-path fsyncs issued since start (replay included).
    pub fsyncs: u64,
}

/// A server reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The request failed; the service state is unchanged.
    Error(String),
    /// The bounded engine queue is full — retry after a backoff. Ingest
    /// answers the sequence-tagged [`Reply::IngestBusy`] instead.
    Busy,
    /// The live result set `ES` (answer to [`Query::Results`]): every
    /// currently-matched pair, `(min, max)`-normalized and sorted.
    Matches(Vec<(u64, u64)>),
    /// Window introspection.
    Window(WindowInfo),
    /// Entity introspection.
    Entity(EntityInfo),
    /// Service counters.
    Stats(StatsInfo),
    /// Verb acknowledged; the payload is verb-specific (checkpoint bytes
    /// for `Checkpoint`, total batches served for `Shutdown`).
    Ack(u64),
    /// Ingest commit: batch `seq` is WAL-durable and stepped;
    /// `per_arrival` carries its match lists in arrival order, each
    /// `(min, max)`-normalized and sorted.
    IngestAck {
        seq: u64,
        per_arrival: Vec<Vec<(u64, u64)>>,
    },
    /// Ingest rejection: batch `seq` was *not* committed — the queue was
    /// full or the frame arrived out of sequence behind an earlier
    /// rejection. The client rewinds to its lowest unacked batch
    /// and resends (go-back-N).
    IngestBusy { seq: u64 },
    /// One-shot pattern result: the projected rows, sorted and
    /// deduped, plus the batch position of the engine state they were
    /// evaluated against.
    Rows { seq: u64, rows: Vec<Vec<u64>> },
    /// Subscription accepted: the full snapshot of the pattern's
    /// rows at batch position `seq`. Every later [`Reply::Notify`] for
    /// this `sub_id` folds on top of it.
    SubAck {
        sub_id: u64,
        seq: u64,
        rows: Vec<Vec<u64>>,
    },
    /// Standing-query push: after the arrival batch ending at
    /// position `seq`, `added` rows entered the result and `retracted`
    /// rows left it (both sorted, disjoint). Batches that net-change
    /// nothing send nothing.
    Notify {
        sub_id: u64,
        seq: u64,
        added: Vec<Vec<u64>>,
        retracted: Vec<Vec<u64>>,
    },
    /// Subscriber shed: its notification backlog exceeded the
    /// daemon's buffer bound, so the subscription was dropped rather
    /// than stalling ingest. Notifications after `resync_seq` were lost;
    /// resubscribe (with `resync_seq`) for a fresh snapshot.
    Lagged { sub_id: u64, resync_seq: u64 },
    /// The observability registry + flight recorder — the answer to
    /// [`Request::MetricsDump`].
    Metrics {
        /// Every registry metric, in declaration order.
        rows: Vec<MetricRow>,
        /// The flight ring's retained events, oldest → newest.
        flight: Vec<TraceEvent>,
    },
    /// The causal per-batch trace surface — the answer to
    /// [`Request::TraceDump`].
    Traces {
        /// Cumulative critical-path attribution over every completed
        /// trace since startup (not just the retained ones).
        critical_path: CriticalPath,
        /// The tail sampler's retained traces, oldest → newest: the K
        /// slowest per window plus every anomaly-overlapping trace.
        traces: Vec<Trace>,
    },
}

// `MetricRow`/`TraceEvent` live in the dependency-free `ter_obs` leaf
// crate and `Codec` in `ter_store`, so the orphan rule forbids a `Codec`
// impl here; standalone helpers carry them over the wire instead.

fn encode_metric_row(row: &MetricRow, enc: &mut Encoder) {
    enc.str(&row.name);
    enc.u8(row.kind);
    enc.u64(row.value);
    enc.u64(row.sum);
    row.buckets.encode(enc);
}

fn decode_metric_row(dec: &mut Decoder<'_>) -> Result<MetricRow, CodecError> {
    Ok(MetricRow {
        name: dec.str()?,
        kind: dec.u8()?,
        value: dec.u64()?,
        sum: dec.u64()?,
        buckets: Vec::decode(dec)?,
    })
}

fn encode_trace_event(ev: &TraceEvent, enc: &mut Encoder) {
    enc.u64(ev.ts_micros);
    enc.u8(ev.kind);
    enc.u64(ev.seq);
    enc.u64(ev.a);
    enc.u64(ev.b);
    enc.u64(ev.dur_micros);
}

fn decode_trace_event(dec: &mut Decoder<'_>) -> Result<TraceEvent, CodecError> {
    Ok(TraceEvent {
        ts_micros: dec.u64()?,
        kind: dec.u8()?,
        seq: dec.u64()?,
        a: dec.u64()?,
        b: dec.u64()?,
        dur_micros: dec.u64()?,
    })
}

fn encode_critical_path(cp: &CriticalPath, enc: &mut Encoder) {
    enc.u64(cp.traces);
    enc.u64(cp.total_micros);
    for &micros in &cp.segments {
        enc.u64(micros);
    }
}

fn decode_critical_path(dec: &mut Decoder<'_>) -> Result<CriticalPath, CodecError> {
    let mut cp = CriticalPath {
        traces: dec.u64()?,
        total_micros: dec.u64()?,
        ..CriticalPath::default()
    };
    for micros in &mut cp.segments {
        *micros = dec.u64()?;
    }
    Ok(cp)
}

fn encode_trace(t: &Trace, enc: &mut Encoder) {
    enc.u64(t.batch_seq);
    enc.u64(t.start);
    enc.u64(t.dur);
    enc.u64(t.covered);
    enc.bool(t.anomaly);
    enc.usize(t.spans.len());
    for s in &t.spans {
        // `batch_seq` is the trace's — not re-encoded per span.
        enc.u8(s.kind);
        enc.u8(s.parent);
        enc.u64(s.start);
        enc.u64(s.dur);
    }
}

fn decode_trace(dec: &mut Decoder<'_>) -> Result<Trace, CodecError> {
    let batch_seq = dec.u64()?;
    let start = dec.u64()?;
    let dur = dec.u64()?;
    let covered = dec.u64()?;
    let anomaly = dec.bool()?;
    let n = dec.usize()?;
    let mut spans = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        spans.push(Span {
            batch_seq,
            kind: dec.u8()?,
            parent: dec.u8()?,
            start: dec.u64()?,
            dur: dec.u64()?,
        });
    }
    Ok(Trace {
        batch_seq,
        start,
        dur,
        covered,
        anomaly,
        spans,
    })
}

fn payload_with(tag: u8) -> Encoder {
    let mut enc = Encoder::new();
    enc.u8(PROTO_VERSION);
    enc.u8(tag);
    enc
}

/// Splits a received payload into its verb/reply tag and body decoder,
/// refusing any protocol byte but [`PROTO_VERSION`].
fn open_payload(payload: &[u8]) -> Result<(u8, Decoder<'_>), WireError> {
    let mut dec = Decoder::new(payload);
    let proto = dec.u8()?;
    if proto != PROTO_VERSION {
        return Err(WireError::Version(proto));
    }
    let tag = dec.u8()?;
    Ok((tag, dec))
}

fn finish<T>(dec: &Decoder<'_>, v: T) -> Result<T, WireError> {
    if !dec.is_exhausted() {
        return Err(WireError::Codec(CodecError::TrailingBytes));
    }
    Ok(v)
}

/// Encodes a request into a wire payload (version + tag + body).
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::IngestSeq { seq, batch } => encode_ingest_seq(*seq, batch),
        Request::Query(q) => {
            let mut enc = payload_with(TAG_QUERY);
            match q {
                Query::Window => enc.u8(0),
                Query::Entity(id) => {
                    enc.u8(1);
                    enc.u64(*id);
                }
                Query::Results => enc.u8(2),
            }
            enc.into_bytes()
        }
        Request::PatternQuery(pattern) => {
            let mut enc = payload_with(TAG_PATTERN_QUERY);
            enc.str(pattern);
            enc.into_bytes()
        }
        Request::Subscribe {
            sub_id,
            resync_seq,
            pattern,
        } => {
            let mut enc = payload_with(TAG_SUBSCRIBE);
            enc.u64(*sub_id);
            enc.u64(*resync_seq);
            enc.str(pattern);
            enc.into_bytes()
        }
        Request::Unsubscribe { sub_id } => {
            let mut enc = payload_with(TAG_UNSUBSCRIBE);
            enc.u64(*sub_id);
            enc.into_bytes()
        }
        Request::Stats => payload_with(TAG_STATS).into_bytes(),
        Request::MetricsDump => payload_with(TAG_METRICS_DUMP).into_bytes(),
        Request::TraceDump => payload_with(TAG_TRACE_DUMP).into_bytes(),
        Request::Checkpoint => payload_with(TAG_CHECKPOINT).into_bytes(),
        Request::Shutdown => payload_with(TAG_SHUTDOWN).into_bytes(),
    }
}

/// Encodes a [`Request::IngestSeq`] payload from a *borrowed* batch —
/// byte-identical to `encode_request` on the owned variant, without
/// cloning the batch into a `Request` first. The pipelined client sends
/// (and under go-back-N resends) batches it does not own, so this is its
/// hot path.
pub fn encode_ingest_seq(seq: u64, batch: &[Arrival]) -> Vec<u8> {
    let mut enc = payload_with(TAG_INGEST_SEQ);
    enc.u64(seq);
    // Same wire shape as `Vec<Arrival>::encode`: length, then elements.
    enc.usize(batch.len());
    for arrival in batch {
        arrival.encode(&mut enc);
    }
    enc.into_bytes()
}

/// Decodes a request payload. Any malformed input yields `Err`, never a
/// panic; the body must consume the payload exactly.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let (tag, mut dec) = open_payload(payload)?;
    match tag {
        TAG_INGEST_SEQ => {
            let seq = dec.u64()?;
            let batch = Vec::<Arrival>::decode(&mut dec)?;
            finish(&dec, Request::IngestSeq { seq, batch })
        }
        TAG_QUERY => {
            let q = match dec.u8()? {
                0 => Query::Window,
                1 => Query::Entity(dec.u64()?),
                2 => Query::Results,
                t => return Err(WireError::UnknownTag(t)),
            };
            finish(&dec, Request::Query(q))
        }
        TAG_PATTERN_QUERY => {
            let pattern = dec.str()?;
            finish(&dec, Request::PatternQuery(pattern))
        }
        TAG_SUBSCRIBE => {
            let sub_id = dec.u64()?;
            let resync_seq = dec.u64()?;
            let pattern = dec.str()?;
            finish(
                &dec,
                Request::Subscribe {
                    sub_id,
                    resync_seq,
                    pattern,
                },
            )
        }
        TAG_UNSUBSCRIBE => {
            let sub_id = dec.u64()?;
            finish(&dec, Request::Unsubscribe { sub_id })
        }
        TAG_STATS => finish(&dec, Request::Stats),
        TAG_METRICS_DUMP => finish(&dec, Request::MetricsDump),
        TAG_TRACE_DUMP => finish(&dec, Request::TraceDump),
        TAG_CHECKPOINT => finish(&dec, Request::Checkpoint),
        TAG_SHUTDOWN => finish(&dec, Request::Shutdown),
        t => Err(WireError::UnknownTag(t)),
    }
}

impl Codec for WindowInfo {
    fn encode(&self, enc: &mut Encoder) {
        enc.usize(self.len);
        enc.usize(self.capacity);
        self.live_ids.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(WindowInfo {
            len: dec.usize()?,
            capacity: dec.usize()?,
            live_ids: Vec::decode(dec)?,
        })
    }
}

impl Codec for EntityInfo {
    fn encode(&self, enc: &mut Encoder) {
        enc.bool(self.found);
        enc.usize(self.stream_id);
        enc.u64(self.timestamp);
        enc.bool(self.possibly_topical);
        self.partners.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(EntityInfo {
            found: dec.bool()?,
            stream_id: dec.usize()?,
            timestamp: dec.u64()?,
            possibly_topical: dec.bool()?,
            partners: Vec::decode(dec)?,
        })
    }
}

impl Codec for StatsInfo {
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(self.next_batch_seq);
        enc.u64(self.session_arrivals);
        enc.u64(self.wal_bytes);
        enc.usize(self.window_len);
        self.stats.encode(enc);
        enc.u64(self.uptime_micros);
        enc.u64(self.connections);
        enc.u64(self.subscribers);
        enc.u64(self.fsyncs);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(StatsInfo {
            next_batch_seq: dec.u64()?,
            session_arrivals: dec.u64()?,
            wal_bytes: dec.u64()?,
            window_len: dec.usize()?,
            stats: PruneStats::decode(dec)?,
            uptime_micros: dec.u64()?,
            connections: dec.u64()?,
            subscribers: dec.u64()?,
            fsyncs: dec.u64()?,
        })
    }
}

/// Encodes a reply into a wire payload.
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    match reply {
        Reply::Error(msg) => {
            let mut enc = payload_with(TAG_ERROR);
            enc.str(msg);
            enc.into_bytes()
        }
        Reply::Busy => payload_with(TAG_BUSY).into_bytes(),
        Reply::Matches(pairs) => {
            let mut enc = payload_with(TAG_MATCHES);
            pairs.encode(&mut enc);
            enc.into_bytes()
        }
        Reply::Window(info) => {
            let mut enc = payload_with(TAG_WINDOW);
            info.encode(&mut enc);
            enc.into_bytes()
        }
        Reply::Entity(info) => {
            let mut enc = payload_with(TAG_ENTITY);
            info.encode(&mut enc);
            enc.into_bytes()
        }
        Reply::Stats(info) => {
            let mut enc = payload_with(TAG_STATS_REPLY);
            info.encode(&mut enc);
            enc.into_bytes()
        }
        Reply::Ack(v) => {
            let mut enc = payload_with(TAG_ACK);
            enc.u64(*v);
            enc.into_bytes()
        }
        Reply::IngestAck { seq, per_arrival } => {
            let mut enc = payload_with(TAG_INGEST_ACK);
            enc.u64(*seq);
            per_arrival.encode(&mut enc);
            enc.into_bytes()
        }
        Reply::IngestBusy { seq } => {
            let mut enc = payload_with(TAG_INGEST_BUSY);
            enc.u64(*seq);
            enc.into_bytes()
        }
        Reply::Rows { seq, rows } => {
            let mut enc = payload_with(TAG_ROWS);
            enc.u64(*seq);
            rows.encode(&mut enc);
            enc.into_bytes()
        }
        Reply::SubAck { sub_id, seq, rows } => {
            let mut enc = payload_with(TAG_SUB_ACK);
            enc.u64(*sub_id);
            enc.u64(*seq);
            rows.encode(&mut enc);
            enc.into_bytes()
        }
        Reply::Notify {
            sub_id,
            seq,
            added,
            retracted,
        } => {
            let mut enc = payload_with(TAG_NOTIFY);
            enc.u64(*sub_id);
            enc.u64(*seq);
            added.encode(&mut enc);
            retracted.encode(&mut enc);
            enc.into_bytes()
        }
        Reply::Lagged { sub_id, resync_seq } => {
            let mut enc = payload_with(TAG_LAGGED);
            enc.u64(*sub_id);
            enc.u64(*resync_seq);
            enc.into_bytes()
        }
        Reply::Metrics { rows, flight } => {
            let mut enc = payload_with(TAG_METRICS);
            enc.usize(rows.len());
            for row in rows {
                encode_metric_row(row, &mut enc);
            }
            enc.usize(flight.len());
            for ev in flight {
                encode_trace_event(ev, &mut enc);
            }
            enc.into_bytes()
        }
        Reply::Traces {
            critical_path,
            traces,
        } => {
            let mut enc = payload_with(TAG_TRACES);
            encode_critical_path(critical_path, &mut enc);
            enc.usize(traces.len());
            for t in traces {
                encode_trace(t, &mut enc);
            }
            enc.into_bytes()
        }
    }
}

/// Decodes a reply payload (strict, panic-free — see [`decode_request`]).
pub fn decode_reply(payload: &[u8]) -> Result<Reply, WireError> {
    let (tag, mut dec) = open_payload(payload)?;
    match tag {
        TAG_ERROR => {
            let msg = dec.str()?;
            finish(&dec, Reply::Error(msg))
        }
        TAG_BUSY => finish(&dec, Reply::Busy),
        TAG_MATCHES => {
            let pairs = Vec::<(u64, u64)>::decode(&mut dec)?;
            finish(&dec, Reply::Matches(pairs))
        }
        TAG_WINDOW => {
            let info = WindowInfo::decode(&mut dec)?;
            finish(&dec, Reply::Window(info))
        }
        TAG_ENTITY => {
            let info = EntityInfo::decode(&mut dec)?;
            finish(&dec, Reply::Entity(info))
        }
        TAG_STATS_REPLY => {
            let info = StatsInfo::decode(&mut dec)?;
            finish(&dec, Reply::Stats(info))
        }
        TAG_ACK => {
            let v = dec.u64()?;
            finish(&dec, Reply::Ack(v))
        }
        TAG_INGEST_ACK => {
            let seq = dec.u64()?;
            let per_arrival = Vec::<Vec<(u64, u64)>>::decode(&mut dec)?;
            finish(&dec, Reply::IngestAck { seq, per_arrival })
        }
        TAG_INGEST_BUSY => {
            let seq = dec.u64()?;
            finish(&dec, Reply::IngestBusy { seq })
        }
        TAG_ROWS => {
            let seq = dec.u64()?;
            let rows = Vec::<Vec<u64>>::decode(&mut dec)?;
            finish(&dec, Reply::Rows { seq, rows })
        }
        TAG_SUB_ACK => {
            let sub_id = dec.u64()?;
            let seq = dec.u64()?;
            let rows = Vec::<Vec<u64>>::decode(&mut dec)?;
            finish(&dec, Reply::SubAck { sub_id, seq, rows })
        }
        TAG_NOTIFY => {
            let sub_id = dec.u64()?;
            let seq = dec.u64()?;
            let added = Vec::<Vec<u64>>::decode(&mut dec)?;
            let retracted = Vec::<Vec<u64>>::decode(&mut dec)?;
            finish(
                &dec,
                Reply::Notify {
                    sub_id,
                    seq,
                    added,
                    retracted,
                },
            )
        }
        TAG_LAGGED => {
            let sub_id = dec.u64()?;
            let resync_seq = dec.u64()?;
            finish(&dec, Reply::Lagged { sub_id, resync_seq })
        }
        TAG_METRICS => {
            let n = dec.usize()?;
            let mut rows = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                rows.push(decode_metric_row(&mut dec)?);
            }
            let n = dec.usize()?;
            let mut flight = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                flight.push(decode_trace_event(&mut dec)?);
            }
            finish(&dec, Reply::Metrics { rows, flight })
        }
        TAG_TRACES => {
            let critical_path = decode_critical_path(&mut dec)?;
            let n = dec.usize()?;
            let mut traces = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                traces.push(decode_trace(&mut dec)?);
            }
            finish(
                &dec,
                Reply::Traces {
                    critical_path,
                    traces,
                },
            )
        }
        t => Err(WireError::UnknownTag(t)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use ter_repo::{Record, Schema};
    use ter_text::Dictionary;

    fn sample_batch() -> Vec<Arrival> {
        let schema = Schema::new(vec!["a", "b"]);
        let mut dict = Dictionary::new();
        (0..3)
            .map(|i| Arrival {
                stream_id: i % 2,
                timestamp: i as u64,
                record: Record::from_texts(
                    &schema,
                    i as u64,
                    &[Some("hello world"), if i == 1 { None } else { Some("x") }],
                    &mut dict,
                ),
            })
            .collect()
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::IngestSeq {
                seq: 7,
                batch: sample_batch(),
            },
            Request::IngestSeq {
                seq: 0,
                batch: Vec::new(),
            },
            Request::Query(Query::Window),
            Request::Query(Query::Entity(42)),
            Request::Query(Query::Results),
            Request::PatternQuery("match(a, b) -> a".into()),
            Request::Subscribe {
                sub_id: 3,
                resync_seq: 17,
                pattern: "match(a, b), live(c)".into(),
            },
            Request::Unsubscribe { sub_id: 3 },
            Request::Stats,
            Request::MetricsDump,
            Request::TraceDump,
            Request::Checkpoint,
            Request::Shutdown,
        ];
        for req in &reqs {
            let payload = encode_request(req);
            assert_eq!(&decode_request(&payload).unwrap(), req, "{req:?}");
        }
    }

    /// The borrow-based pipelined encoder must be byte-identical to
    /// encoding the owned request — same frames on the wire, no clone.
    #[test]
    fn borrowed_ingest_seq_encoding_is_byte_identical() {
        let batch = sample_batch();
        let owned = encode_request(&Request::IngestSeq {
            seq: 42,
            batch: batch.clone(),
        });
        assert_eq!(encode_ingest_seq(42, &batch), owned);
        assert_eq!(
            encode_ingest_seq(7, &[]),
            encode_request(&Request::IngestSeq {
                seq: 7,
                batch: Vec::new()
            })
        );
    }

    #[test]
    fn replies_round_trip() {
        let replies = [
            Reply::Error("boom".into()),
            Reply::Busy,
            Reply::Matches(vec![(1, 2), (3, 4), (5, 9)]),
            Reply::Matches(Vec::new()),
            Reply::Window(WindowInfo {
                len: 2,
                capacity: 400,
                live_ids: vec![3, 7],
            }),
            Reply::Entity(EntityInfo {
                found: true,
                stream_id: 1,
                timestamp: 99,
                possibly_topical: true,
                partners: vec![4],
            }),
            Reply::Stats(StatsInfo {
                next_batch_seq: 12,
                session_arrivals: 1200,
                wal_bytes: 4096,
                window_len: 400,
                stats: PruneStats {
                    total_pairs: 10,
                    matches: 2,
                    ..Default::default()
                },
                uptime_micros: 55_000,
                connections: 3,
                subscribers: 2,
                fsyncs: 40,
            }),
            Reply::Ack(77),
            Reply::IngestAck {
                seq: 9,
                per_arrival: vec![vec![(1, 2)], vec![]],
            },
            Reply::IngestBusy { seq: 10 },
            Reply::Rows {
                seq: 4,
                rows: vec![vec![1, 2], vec![9]],
            },
            Reply::SubAck {
                sub_id: 8,
                seq: 12,
                rows: vec![vec![3, 4]],
            },
            Reply::Notify {
                sub_id: 8,
                seq: 13,
                added: vec![vec![5, 6]],
                retracted: vec![vec![3, 4], vec![7, 7]],
            },
            Reply::Lagged {
                sub_id: 8,
                resync_seq: 13,
            },
            Reply::Metrics {
                rows: vec![
                    MetricRow {
                        name: "ter_store_fsyncs_total".into(),
                        kind: ter_obs::KIND_COUNTER,
                        value: 9,
                        sum: 0,
                        buckets: vec![],
                    },
                    MetricRow {
                        name: "ter_store_fsync_micros".into(),
                        kind: ter_obs::KIND_HISTOGRAM,
                        value: 9,
                        sum: 1200,
                        buckets: vec![0, 3, 6],
                    },
                ],
                flight: vec![TraceEvent {
                    ts_micros: 17,
                    kind: ter_obs::kind::FSYNC,
                    seq: 4,
                    a: 2,
                    b: 0,
                    dur_micros: 130,
                }],
            },
            Reply::Traces {
                critical_path: CriticalPath {
                    traces: 3,
                    total_micros: 9000,
                    segments: [100, 0, 700, 5000, 400, 1500, 200, 500, 600],
                },
                traces: vec![Trace {
                    batch_seq: 42,
                    start: 1_000_000,
                    dur: 3_000,
                    covered: 4,
                    anomaly: true,
                    spans: vec![
                        Span {
                            batch_seq: 42,
                            kind: ter_obs::kind::ROOT,
                            parent: ter_obs::kind::ROOT,
                            start: 1_000_000,
                            dur: 3_000,
                        },
                        Span {
                            batch_seq: 42,
                            kind: ter_obs::kind::FSYNC,
                            parent: ter_obs::kind::ROOT,
                            start: 1_002_000,
                            dur: 600,
                        },
                    ],
                }],
            },
        ];
        for reply in &replies {
            let payload = encode_reply(reply);
            assert_eq!(&decode_reply(&payload).unwrap(), reply, "{reply:?}");
        }
    }

    #[test]
    fn stream_round_trip_and_eof() {
        let payload = encode_request(&Request::Stats);
        let mut buf = Vec::new();
        write_message(&mut buf, &payload).unwrap();
        write_message(&mut buf, &payload).unwrap();
        let mut cursor = Cursor::new(&buf);
        assert_eq!(read_message(&mut cursor).unwrap(), payload);
        assert_eq!(read_message(&mut cursor).unwrap(), payload);
        // Clean EOF between frames surfaces as an io error, not a hang.
        assert!(matches!(read_message(&mut cursor), Err(WireError::Io(_))));
    }

    /// Every protocol byte but [`PROTO_VERSION`] is refused — the
    /// retired bytes 1–4 included — on requests and replies alike.
    #[test]
    fn wrong_version_and_unknown_tags_rejected() {
        let request = encode_request(&Request::Stats);
        let reply = encode_reply(&Reply::Busy);
        for version in [0, 1, 2, 3, 4, 9] {
            let mut payload = request.clone();
            payload[0] = version;
            assert!(
                matches!(decode_request(&payload), Err(WireError::Version(v)) if v == version),
                "request version {version} accepted"
            );
            let mut payload = reply.clone();
            payload[0] = version;
            assert!(
                matches!(decode_reply(&payload), Err(WireError::Version(v)) if v == version),
                "reply version {version} accepted"
            );
        }
        // 0x01 was the unsequenced ingest verb and 0x8E the extended
        // stats reply; neither decodes any more.
        for (tag, is_request) in [(0x7F, true), (0x01, true), (0x8E, false)] {
            let payload = [PROTO_VERSION, tag];
            let outcome = if is_request {
                decode_request(&payload).map(|_| ())
            } else {
                decode_reply(&payload).map(|_| ())
            };
            assert!(
                matches!(outcome, Err(WireError::UnknownTag(t)) if t == tag),
                "tag {tag:#04x} accepted"
            );
        }
    }

    #[test]
    fn oversized_frame_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&[0u8; 4]);
        let mut cursor = Cursor::new(&buf);
        assert!(matches!(
            read_message(&mut cursor),
            Err(WireError::Oversized(_))
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = encode_request(&Request::Shutdown);
        payload.push(0);
        assert!(decode_request(&payload).is_err());
        let mut payload = encode_reply(&Reply::Busy);
        payload.push(0);
        assert!(decode_reply(&payload).is_err());
    }
}
