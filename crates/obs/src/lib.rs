//! `ter_obs`: unified observability for every TER-iDS layer — a
//! lock-light metric registry, a bounded flight recorder of structured
//! events and per-batch causal traces ([`trace`]), fed through one event
//! model.
//!
//! # One event model
//!
//! Every timed or notable thing the layers do is an event of one
//! [`kind`]. The [kind table](kind::TABLE) declares, once per kind, its
//! stable name and the sinks it feeds: a registry histogram, the flight
//! ring, the batch's trace slot (with the span's parent and
//! critical-path segment), and whether it marks an anomaly for the tail
//! sampler. A site makes one call, [`record`] (or [`record_at`] for a
//! span with a known start), and the table decides the rest. Counters
//! and gauges that are not durations are updated directly.
//!
//! # Design constraints
//!
//! The engine's parity guarantee (batched ≡ sequential, bit-for-bit)
//! means instrumentation must never feed back into computation: every
//! metric here is write-only from the hot path's point of view.
//! Counters and gauges are single `AtomicU64`s updated with relaxed
//! ordering; histograms are 64 fixed log₂ buckets of `AtomicU64` (one
//! relaxed add per observation, p50/p95/p99 derivable from the buckets
//! at read time). Nothing on the hot path allocates, locks, or branches
//! on metric *values*. The only mutexes in the crate guard the flight
//! recorder's ring buffer and the trace sampler, and both timing capture
//! ([`timer`]) and event recording ([`record`]) collapse to a single
//! relaxed load when the global enable flag is off — which is how the
//! overhead-guard bench measures the metrics-off baseline.
//!
//! # Surfaces
//!
//! * [`snapshot`] — the full registry as owned [`MetricRow`]s (the
//!   `MetricsDump` wire verb's body);
//! * [`flight_snapshot`] — the ring's events, oldest → newest;
//! * [`render`] / [`parse_dump`] — a Prometheus-style text exposition
//!   (metric lines, histogram `_count`/`_sum`/`_p*`/`_bucket{le=..}`
//!   lines, flight events as `# flight` comment lines) and its strict
//!   parser, used by the CLI, the dump files, and the crash tests;
//! * [`set_dump_path`] + [`dump_now`] — the `--metrics-text` hook: the
//!   daemon dumps at checkpoint cadence, on shutdown, and on a step
//!   panic, so a SIGKILL post-mortem always has a recent exposition
//!   written atomically (tmp + rename — a kill mid-dump leaves the
//!   previous complete file, never a torn one).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

pub mod trace;

/// Flight-recorder ring capacity (events). Old events are overwritten;
/// the snapshot always holds the newest `FLIGHT_CAPACITY`.
pub const FLIGHT_CAPACITY: usize = 4096;

/// Histogram bucket count: bucket `i` holds observations whose value has
/// bit-width `i` (`v = 0` → bucket 0, `v ∈ [2^(i-1), 2^i)` → bucket `i`,
/// everything at or above `2^62` → bucket 63).
pub const HIST_BUCKETS: usize = 64;

// ---------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------

/// Metric kind discriminant carried in [`MetricRow::kind`].
pub const KIND_COUNTER: u8 = 0;
/// See [`KIND_COUNTER`].
pub const KIND_GAUGE: u8 = 1;
/// See [`KIND_COUNTER`].
pub const KIND_HISTOGRAM: u8 = 2;

/// A monotonic counter: one relaxed add per event.
#[derive(Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter (const — registries are `static`).
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }

    fn row(&self, name: &'static str) -> MetricRow {
        MetricRow {
            name: name.to_string(),
            kind: KIND_COUNTER,
            value: self.get(),
            sum: 0,
            buckets: Vec::new(),
        }
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

/// A last-value gauge (plus saturating dec and high-water max).
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge (const — registries are `static`).
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`, saturating at zero (concurrent inc/dec pairs may
    /// transiently interleave; a gauge must never wrap to 2^64).
    pub fn sub(&self, n: u64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Raises the gauge to `v` if `v` is larger — high-water marks.
    pub fn max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }

    fn row(&self, name: &'static str) -> MetricRow {
        MetricRow {
            name: name.to_string(),
            kind: KIND_GAUGE,
            value: self.get(),
            sum: 0,
            buckets: Vec::new(),
        }
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

/// A fixed-bucket log₂ latency histogram: 64 buckets by bit-width, plus
/// a running sum and count. One relaxed add (plus two for sum/count) per
/// observation; quantiles are derived from the buckets at read time.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

/// Bucket index of a value: its bit width, clamped to the last bucket.
fn bucket_of(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
pub fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// A zeroed histogram (const — registries are `static`).
    pub const fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
    }

    fn row(&self, name: &'static str) -> MetricRow {
        MetricRow {
            name: name.to_string(),
            kind: KIND_HISTOGRAM,
            value: self.count(),
            sum: self.sum(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// One registry entry in owned, wire-friendly form. For counters and
/// gauges `value` is the reading; for histograms `value` is the count,
/// `sum` the value sum, and `buckets` the per-bucket counts (log₂
/// buckets, [`bucket_bound`] gives each inclusive upper bound).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricRow {
    /// Registry name (e.g. `ter_store_fsync_micros`).
    pub name: String,
    /// [`KIND_COUNTER`] | [`KIND_GAUGE`] | [`KIND_HISTOGRAM`].
    pub kind: u8,
    /// Counter/gauge reading, or histogram observation count.
    pub value: u64,
    /// Histogram value sum (0 for counters/gauges).
    pub sum: u64,
    /// Histogram bucket counts (empty for counters/gauges).
    pub buckets: Vec<u64>,
}

impl MetricRow {
    /// Upper-bound estimate of the `q`-quantile (`0 < q <= 1`) from the
    /// log₂ buckets: the bound of the first bucket whose cumulative
    /// count reaches `ceil(q·count)`. Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.kind != KIND_HISTOGRAM || self.value == 0 {
            return 0;
        }
        let target = ((q * self.value as f64).ceil() as u64).clamp(1, self.value);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_bound(i);
            }
        }
        bucket_bound(HIST_BUCKETS - 1)
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.value == 0 {
            0.0
        } else {
            self.sum as f64 / self.value as f64
        }
    }

    /// The per-interval row between two snapshots of the same cumulative
    /// metric: counter values, histogram counts/sums, and every bucket
    /// are subtracted element-wise (saturating, so a registry reset
    /// between snapshots yields zeros, not wraparound); gauges keep the
    /// newer reading — a gauge *is* an instantaneous value. Quantiles of
    /// the returned row describe only the interval, which is what a
    /// `--watch` display must show.
    pub fn delta(&self, prev: &MetricRow) -> MetricRow {
        let value = if self.kind == KIND_GAUGE {
            self.value
        } else {
            self.value.saturating_sub(prev.value)
        };
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .map(|(i, &b)| b.saturating_sub(prev.buckets.get(i).copied().unwrap_or(0)))
            .collect();
        MetricRow {
            name: self.name.clone(),
            kind: self.kind,
            value,
            sum: self.sum.saturating_sub(prev.sum),
            buckets,
        }
    }
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

/// The one event vocabulary. Every kind is declared once, in [`TABLE`](kind::TABLE)
/// order, with its stable name and the sinks a [`record`] of it feeds: a
/// registry histogram, the flight ring, and — for span kinds — the
/// batch's trace slot under a fixed parent. `seq`/`a`/`b` are
/// kind-specific coordinates (see each constant). Span kinds come first,
/// because their numbers index the trace slots.
pub mod kind {
    use crate::trace::seg;
    use crate::{Histogram, OBS};

    /// Where one kind's events go.
    #[derive(Debug)]
    pub struct Info {
        /// Stable text name (dump format + CLI).
        pub name: &'static str,
        /// The registry histogram the duration feeds.
        pub hist: Option<&'static Histogram>,
        /// Whether the event enters the flight ring.
        pub flight: bool,
        /// Whether the event marks an anomaly for the tail sampler.
        pub anomaly: bool,
        /// For span kinds, the parent span: the duration accumulates into
        /// the batch's trace slot.
        pub parent: Option<u8>,
        /// The span is shared by the `a` batches below `seq` and charged
        /// to each at `1/a` (a covering fsync).
        pub shared: bool,
        /// The critical-path segment ([`crate::trace::SEGMENTS`]) the
        /// span's time is attributed to.
        pub segment: Option<usize>,
    }

    const NONE: Info = Info {
        name: "",
        hist: None,
        flight: false,
        anomaly: false,
        parent: None,
        shared: false,
        segment: None,
    };

    /// Declares the kind constants, numbered in declaration order, and
    /// [`TABLE`] from one list.
    macro_rules! kinds {
        ($($(#[$m:meta])* $k:ident = $name:literal { $($f:ident: $v:expr),* },)*) => {
            #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
            #[repr(u8)]
            enum Number { $($k,)* End }
            $($(#[$m])* pub const $k: u8 = Number::$k as u8;)*
            /// Number of kinds.
            pub const NKINDS: usize = Number::End as usize;
            /// The kind table, indexed by kind number.
            pub static TABLE: [Info; NKINDS] = [$(Info { name: $name, $($f: $v,)* ..NONE },)*];
        };
    }

    kinds! {
        /// The whole batch, socket read to ack write-back (the span-tree
        /// root, its own parent).
        ROOT = "batch" { parent: Some(ROOT) },
        /// Frontend read + parse, up to the go-back-N gate.
        FRONTEND = "frontend" { parent: Some(ROOT), segment: Some(seg::FRONTEND) },
        /// Go-back-N gate admission (zero-duration marker; rejected
        /// frames never start a trace).
        GATE = "gate" { parent: Some(ROOT), segment: Some(seg::GATE) },
        /// Wait in the bounded ordered queue before the engine picks the
        /// batch up.
        QUEUE_WAIT = "queue_wait" { parent: Some(ROOT), segment: Some(seg::QUEUE_WAIT) },
        /// WAL append without fsync; `seq` = batch seq, `a` = frame bytes.
        WAL = "wal" {
            hist: Some(&OBS.wal_append_micros), flight: true, parent: Some(ROOT),
            segment: Some(seg::WAL)
        },
        /// WAL group-commit fsync; `seq` = durable seq after, `a` =
        /// batches the sync covered, each of which shares its span.
        FSYNC = "fsync" {
            hist: Some(&OBS.fsync_micros), flight: true, parent: Some(ROOT), shared: true,
            segment: Some(seg::FSYNC_EXPOSED)
        },
        /// One engine batch step; `seq` = the batch's trace seq, `a` =
        /// arrivals. Parent of the four stage spans.
        STEP = "step" { hist: Some(&OBS.step_micros), flight: true, parent: Some(ROOT) },
        /// Engine impute stage; `seq` = trace seq, `a` = arrivals.
        IMPUTE = "impute" {
            hist: Some(&OBS.engine_impute_micros), flight: true, parent: Some(STEP),
            segment: Some(seg::COMPUTE)
        },
        /// Engine traverse stage (list upkeep + candidate scan).
        TRAVERSE = "traverse" {
            hist: Some(&OBS.engine_traverse_micros), flight: true, parent: Some(STEP),
            segment: Some(seg::COMPUTE)
        },
        /// Engine refine stage (cascade over examined candidates).
        REFINE = "refine" {
            hist: Some(&OBS.engine_refine_micros), flight: true, parent: Some(STEP),
            segment: Some(seg::COMPUTE)
        },
        /// Engine merge stage (expiry, insert and bookkeeping).
        MERGE = "merge" {
            hist: Some(&OBS.engine_merge_micros), flight: true, parent: Some(STEP),
            segment: Some(seg::COMPUTE)
        },
        /// One standing query advanced past a batch; `seq` = batch seq,
        /// `a` = sub id, `b` = rows pushed (0: nothing pushed).
        NOTIFY = "notify" { flight: true, parent: Some(ROOT), segment: Some(seg::NOTIFY) },
        /// Ack release → reply buffered (recorded open with zero
        /// duration; the trace's end closes it).
        WRITE_BACK = "write_back" { parent: Some(ROOT), segment: Some(seg::WRITE_BACK) },
        /// Full checkpoint write; `seq` = stamped WAL position, `a` = bytes.
        CHECKPOINT = "checkpoint" { hist: Some(&OBS.checkpoint_micros), flight: true },
        /// Delta-checkpoint write; `seq` = stamped WAL position, `a` =
        /// file bytes, `b` = chain length after the write.
        DELTA = "delta" { hist: Some(&OBS.checkpoint_micros), flight: true },
        /// Connection admitted; `a` = connection token.
        CONN_OPEN = "conn_open" { flight: true },
        /// Connection dropped; `a` = connection token.
        CONN_CLOSE = "conn_close" { flight: true },
        /// Subscriber shed (lag or dead peer); `seq` = resync position,
        /// `a` = sub id.
        SHED = "shed" { flight: true, anomaly: true },
        /// Backpressure rejection (Busy/IngestBusy); `a` = connection token.
        BUSY = "busy" { flight: true, anomaly: true },
        /// One-shot pattern query; `seq` = engine position, `a` = planned
        /// atoms, `b` = result rows.
        QUERY = "query" { hist: Some(&OBS.eval_micros), flight: true },
        /// One planned atom of a one-shot query; `seq` = engine position,
        /// `a` = atom index in plan order, `b` = bindings alive after it.
        QUERY_ATOM = "query_atom" { flight: true },
        /// Step-stage panic (the dump that follows is the post-mortem).
        PANIC = "panic" { flight: true, anomaly: true },
        /// One I/O-thread read + frame + parse pass.
        READ_PARSE = "read_parse" { hist: Some(&OBS.read_parse_micros) },
        /// One socket write-flush call.
        WRITE = "write" { hist: Some(&OBS.write_micros) },
    }

    /// Number of span kinds (the trace-slot width).
    pub const NSPANS: usize = WRITE_BACK as usize + 1;

    /// Stable text name of a kind (`"unknown"` outside the table).
    pub fn name(k: u8) -> &'static str {
        TABLE.get(k as usize).map_or("unknown", |i| i.name)
    }

    /// Inverse of [`name`] (`None` for unknown text).
    pub fn from_name(s: &str) -> Option<u8> {
        (0..NKINDS as u8).find(|&k| name(k) == s)
    }

    /// The parent span of a span kind (`None` for other kinds).
    pub fn parent(k: u8) -> Option<u8> {
        TABLE.get(k as usize).and_then(|i| i.parent)
    }
}

/// One structured trace event in the flight ring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceEvent {
    /// Microseconds since the process's observability epoch.
    pub ts_micros: u64,
    /// A [`kind`] constant.
    pub kind: u8,
    /// Kind-specific primary coordinate (usually a batch sequence).
    pub seq: u64,
    /// Kind-specific (connection token, sub id, byte count, …).
    pub a: u64,
    /// Kind-specific secondary payload.
    pub b: u64,
    /// Duration of the traced operation, microseconds (0 for point
    /// events).
    pub dur_micros: u64,
}

/// The bounded ring behind the global flight recorder. Public so tests
/// (and embedders) can exercise wrap-around on a private instance.
#[derive(Debug)]
pub struct FlightRing {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Slot the next event lands in once the ring is full.
    next: usize,
    /// Events ever recorded (so a snapshot can say how many were lost).
    total: u64,
}

impl FlightRing {
    /// An empty ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Self {
            buf: Vec::new(),
            capacity: capacity.max(1),
            next: 0,
            total: 0,
        }
    }

    /// Records one event, overwriting the oldest once full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
            self.next = (self.next + 1) % self.capacity;
        }
        self.total += 1;
    }

    /// The retained events, oldest → newest.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.next..]);
        out.extend_from_slice(&self.buf[..self.next]);
        out
    }

    /// Events ever recorded (≥ retained).
    pub fn total(&self) -> u64 {
        self.total
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.next = 0;
        self.total = 0;
    }
}

// ---------------------------------------------------------------------
// The global registry
// ---------------------------------------------------------------------

macro_rules! registry {
    ($($(#[$m:meta])* $field:ident : $ty:ident = $name:literal,)*) => {
        /// Every named metric in the process, one struct field each. All
        /// fields are const-initialized atomics, so the registry is a
        /// plain `static` — no lazy init on the hot path.
        #[derive(Debug, Default)]
        pub struct Registry {
            $($(#[$m])* pub $field: $ty,)*
        }

        impl Registry {
            /// A zeroed registry (const).
            pub const fn new() -> Self {
                Self { $($field: $ty::new(),)* }
            }

            /// Owned rows for every metric, in declaration order.
            pub fn snapshot(&self) -> Vec<MetricRow> {
                vec![ $( self.$field.row($name), )* ]
            }

            /// Zeroes every metric (tests and `metrics --watch` deltas
            /// are computed client-side; the daemon never resets).
            pub fn reset(&self) {
                $( self.$field.reset(); )*
            }

            /// Every metric's name and address, in declaration order.
            #[cfg(test)]
            fn addresses(&self) -> Vec<(&'static str, *const ())> {
                vec![ $( ($name, &self.$field as *const $ty as *const ()), )* ]
            }
        }
    };
}

registry! {
    /// Batches stepped by the batched engine.
    engine_batches: Counter = "ter_engine_batches_total",
    /// Impute-stage wall time per batch.
    engine_impute_micros: Histogram = "ter_engine_impute_micros",
    /// Traverse-stage wall time per batch (candidate-list scans).
    engine_traverse_micros: Histogram = "ter_engine_traverse_micros",
    /// Refine-stage wall time per batch (pair cascade).
    engine_refine_micros: Histogram = "ter_engine_refine_micros",
    /// Merge-stage wall time per batch (expiry, insert, bookkeeping).
    engine_merge_micros: Histogram = "ter_engine_merge_micros",
    /// Jobs sitting in the daemon's bounded ordered queue.
    engine_queue_depth: Gauge = "ter_engine_queue_depth",
    /// Bytes appended to the WAL (framed size).
    wal_append_bytes: Counter = "ter_store_wal_append_bytes_total",
    /// WAL append (no fsync) latency.
    wal_append_micros: Histogram = "ter_store_wal_append_micros",
    /// Commit-path fsyncs issued.
    fsyncs: Counter = "ter_store_fsyncs_total",
    /// Commit-path fsync latency.
    fsync_micros: Histogram = "ter_store_fsync_micros",
    /// Flush-window occupancy (pending appends) at each group commit.
    flush_window_batches: Histogram = "ter_store_flush_window_batches",
    /// Checkpoints written.
    checkpoints: Counter = "ter_store_checkpoints_total",
    /// Checkpoint write duration.
    checkpoint_micros: Histogram = "ter_store_checkpoint_micros",
    /// WAL position stamped by the most recent checkpoint.
    last_checkpoint_seq: Gauge = "ter_store_last_checkpoint_seq",
    /// Incremental delta checkpoints written.
    delta_checkpoints: Counter = "ter_store_delta_checkpoints_total",
    /// Bytes written as delta-checkpoint files.
    delta_bytes: Counter = "ter_store_delta_bytes_total",
    /// Links on the current delta chain (0 right after a full
    /// checkpoint — recovery replays the whole chain, so this gauge is
    /// the recovery-time exposure).
    delta_chain_length: Gauge = "ter_store_delta_chain_length",
    /// Connections accepted since start.
    accepts: Counter = "ter_serve_accepts_total",
    /// Live connections (admit/drop balanced — the soak leak detector).
    connections: Gauge = "ter_serve_connections",
    /// Per-poll-event read+frame+parse time on the I/O threads.
    read_parse_micros: Histogram = "ter_serve_read_parse_micros",
    /// Per-call socket write-flush time on the I/O threads.
    write_micros: Histogram = "ter_serve_write_micros",
    /// Backpressure rejections (Busy + IngestBusy + go-back-N gate).
    busy: Counter = "ter_serve_busy_total",
    /// Engine step wall time per batch (impute through merge).
    step_micros: Histogram = "ter_serve_step_micros",
    /// Appended-but-unfsynced ingest acks (the open flush window).
    unacked_ingests: Gauge = "ter_serve_unacked_ingests",
    /// Standing-query pushes sent.
    notify_events: Counter = "ter_query_notify_events_total",
    /// Rows carried by those pushes (added + retracted).
    notify_rows: Counter = "ter_query_notify_rows_total",
    /// Encoded bytes of Notify frames buffered toward subscribers.
    notify_bytes: Counter = "ter_query_notify_bytes_total",
    /// Subscribers shed for lagging (dead peers pruned silently count
    /// too — both leave the registry).
    shed: Counter = "ter_query_shed_total",
    /// Largest un-drained outbound backlog seen on any notify path.
    backlog_high_water: Gauge = "ter_query_backlog_high_water",
    /// Live standing-query subscriptions.
    subscribers: Gauge = "ter_query_subscribers",
    /// One-shot pattern queries served.
    oneshot_queries: Counter = "ter_query_oneshot_total",
    /// Result rows returned by one-shot queries.
    oneshot_rows: Counter = "ter_query_oneshot_rows_total",
    /// One-shot plan+eval duration.
    eval_micros: Histogram = "ter_query_eval_micros",
}

/// The process-global registry.
pub static OBS: Registry = Registry::new();

static ENABLED: AtomicBool = AtomicBool::new(true);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static FLIGHT: Mutex<Option<FlightRing>> = Mutex::new(None);
static DUMP_PATH: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Whether timing capture and flight recording are on (default: on).
/// Plain counter/gauge/histogram adds are so cheap they are *not* gated;
/// the flag removes the `Instant::now` calls and the ring lock, which is
/// what the metrics-off side of the overhead guard measures.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns timing capture and flight recording on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process's observability epoch (first use).
pub fn epoch_micros() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Starts a stage timer: `Some(now)` when enabled, `None` (free) when
/// not. Pair with [`since`] and [`record`].
pub fn timer() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Microseconds elapsed since a [`timer`] (0 for a disabled timer).
pub fn since(t0: Option<Instant>) -> u64 {
    t0.map_or(0, |t0| t0.elapsed().as_micros() as u64)
}

fn flight_ring() -> MutexGuard<'static, Option<FlightRing>> {
    // A panicking holder cannot corrupt a ring of plain integers: take
    // the poisoned guard and keep recording (the panic dump needs it).
    FLIGHT
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Records one event of kind `k` that took `dur_us` and ends now: feeds
/// every sink the [kind table](kind::TABLE) names for `k`. A span kind's
/// span starts at `now - dur_us`. No-op when disabled.
pub fn record(k: u8, seq: u64, a: u64, b: u64, dur_us: u64) {
    if !enabled() {
        return;
    }
    let now = epoch_micros();
    emit(k, seq, a, b, now, now.saturating_sub(dur_us), dur_us);
}

/// [`record`] for a span that started at `start_us` (a [`trace::now`]
/// stamp) rather than `dur_us` ago.
pub fn record_at(k: u8, seq: u64, a: u64, b: u64, start_us: u64, dur_us: u64) {
    if !enabled() {
        return;
    }
    emit(k, seq, a, b, epoch_micros(), start_us, dur_us);
}

fn emit(k: u8, seq: u64, a: u64, b: u64, now: u64, start: u64, dur_micros: u64) {
    let info = &kind::TABLE[k as usize];
    if let Some(h) = info.hist {
        h.record(dur_micros);
    }
    // Anomalous events mark the moment for the tail sampler: any trace
    // whose lifetime overlaps it is retained unconditionally.
    if info.anomaly {
        trace::note_anomaly(now);
    }
    if info.parent.is_some() {
        let start = start.max(1);
        if info.shared {
            trace::add_shared(seq.saturating_sub(a), a, k, start, dur_micros);
        } else {
            trace::add(seq, k, start, dur_micros);
        }
    }
    if info.flight {
        let ev = TraceEvent {
            ts_micros: now,
            kind: k,
            seq,
            a,
            b,
            dur_micros,
        };
        flight_ring()
            .get_or_insert_with(|| FlightRing::new(FLIGHT_CAPACITY))
            .push(ev);
    }
}

/// The registry as owned rows.
pub fn snapshot() -> Vec<MetricRow> {
    OBS.snapshot()
}

/// The flight ring's retained events, oldest → newest.
pub fn flight_snapshot() -> Vec<TraceEvent> {
    flight_ring().as_ref().map_or(Vec::new(), |r| r.snapshot())
}

/// Zeroes the registry and empties the flight ring (tests only — a live
/// daemon's counters are cumulative by design).
pub fn reset() {
    OBS.reset();
    if let Some(ring) = flight_ring().as_mut() {
        ring.clear();
    }
    trace::reset();
}

// ---------------------------------------------------------------------
// Text exposition
// ---------------------------------------------------------------------

/// Renders the registry + flight ring as the text exposition format:
///
/// ```text
/// # ter_obs dump v1 reason=<reason> uptime_micros=<n>
/// <counter_or_gauge_name> <value>
/// <hist>_count <n>
/// <hist>_sum <n>
/// <hist>_p50 <n>          (p95/p99 likewise; bucket upper bounds)
/// <hist>_bucket{le="<bound>"} <cumulative>   (nonzero buckets + +Inf)
/// # flight ts=<us> kind=<name> seq=<n> a=<n> b=<n> dur=<us>
/// # critical_path traces=<n> total=<us> frontend=<us> … other=<us>
/// # trace seq=<n> start=<us> dur=<us> covered=<n> anomaly=<0|1>
/// # span seq=<n> kind=<name> parent=<name> start=<us> dur=<us>
/// ```
///
/// The trace lines cover the process's own retained traces and
/// cumulative attribution table; [`render_parts`] (remote rows) omits
/// them.
pub fn render(reason: &str) -> String {
    let mut out = render_parts(reason, &snapshot(), &flight_snapshot());
    let (cp, traces) = trace::snapshot();
    render_traces_into(&mut out, &cp, &traces);
    out
}

/// Appends the `# critical_path` / `# trace` / `# span` lines of a
/// trace snapshot to a text exposition (no-op when there is nothing to
/// report).
pub fn render_traces_into(out: &mut String, cp: &trace::CriticalPath, traces: &[trace::Trace]) {
    if cp.traces == 0 && traces.is_empty() {
        return;
    }
    out.push_str(&format!(
        "# critical_path traces={} total={}",
        cp.traces, cp.total_micros
    ));
    for (label, micros) in trace::SEGMENTS.iter().zip(cp.segments) {
        out.push_str(&format!(" {label}={micros}"));
    }
    out.push('\n');
    for t in traces {
        out.push_str(&format!(
            "# trace seq={} start={} dur={} covered={} anomaly={}\n",
            t.batch_seq, t.start, t.dur, t.covered, t.anomaly as u8
        ));
        for s in &t.spans {
            out.push_str(&format!(
                "# span seq={} kind={} parent={} start={} dur={}\n",
                s.batch_seq,
                kind::name(s.kind),
                kind::name(s.parent),
                s.start,
                s.dur
            ));
        }
    }
}

/// [`render`] over an explicit snapshot (the CLI renders rows it pulled
/// over the wire rather than its own process's registry).
pub fn render_parts(reason: &str, rows: &[MetricRow], flight: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str(&format!(
        "# ter_obs dump v1 reason={} uptime_micros={}\n",
        reason.split_whitespace().next().unwrap_or("none"),
        epoch_micros()
    ));
    for row in rows {
        match row.kind {
            KIND_HISTOGRAM => {
                out.push_str(&format!("{}_count {}\n", row.name, row.value));
                out.push_str(&format!("{}_sum {}\n", row.name, row.sum));
                for (p, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
                    out.push_str(&format!("{}_{} {}\n", row.name, p, row.quantile(q)));
                }
                let mut cum = 0u64;
                for (i, &c) in row.buckets.iter().enumerate() {
                    cum += c;
                    if c == 0 {
                        continue;
                    }
                    let le = if i >= HIST_BUCKETS - 1 {
                        "+Inf".to_string()
                    } else {
                        bucket_bound(i).to_string()
                    };
                    out.push_str(&format!("{}_bucket{{le=\"{le}\"}} {cum}\n", row.name));
                }
            }
            _ => out.push_str(&format!("{} {}\n", row.name, row.value)),
        }
    }
    for ev in flight {
        out.push_str(&format!(
            "# flight ts={} kind={} seq={} a={} b={} dur={}\n",
            ev.ts_micros,
            kind::name(ev.kind),
            ev.seq,
            ev.a,
            ev.b,
            ev.dur_micros
        ));
    }
    out
}

/// A parsed text exposition (see [`parse_dump`]).
#[derive(Debug, Clone, Default)]
pub struct ParsedDump {
    /// The `reason=` field of the header.
    pub reason: String,
    /// The `uptime_micros=` field of the header.
    pub uptime_micros: u64,
    /// Every `name value` sample line, bucket lines included (keyed by
    /// the full `name_bucket{le="…"}` text).
    pub values: BTreeMap<String, u64>,
    /// The `# flight` comment lines, in file order.
    pub flight: Vec<TraceEvent>,
    /// The `# critical_path` attribution table, when the dump had one.
    pub critical_path: Option<trace::CriticalPath>,
    /// The `# trace` lines with their `# span` children, in file order.
    pub traces: Vec<trace::Trace>,
}

impl ParsedDump {
    /// A sample by exact name.
    pub fn value(&self, name: &str) -> Option<u64> {
        self.values.get(name).copied()
    }
}

fn parse_kv(tok: &str, key: &str) -> Option<String> {
    tok.strip_prefix(key)
        .and_then(|r| r.strip_prefix('='))
        .map(str::to_string)
}

/// Applies every `key=value` field of a `# <what>` line through `set`,
/// which answers `Ok(false)` for a key the line does not have and `Err`
/// for a value it cannot take.
fn fields(
    rest: &str,
    what: &str,
    ln: usize,
    mut set: impl FnMut(&str, &str) -> Result<bool, ()>,
) -> Result<(), String> {
    for tok in rest.split_whitespace() {
        let (key, val) = tok
            .split_once('=')
            .ok_or_else(|| format!("line {ln}: bad {what} field {tok:?}"))?;
        match set(key, val) {
            Ok(true) => {}
            Ok(false) => return Err(format!("line {ln}: unknown {what} field {key:?}")),
            Err(()) => return Err(format!("line {ln}: bad {what} {key} {val:?}")),
        }
    }
    Ok(())
}

fn num(val: &str) -> Result<u64, ()> {
    val.parse().map_err(drop)
}

/// The span kind named `s` (an error for unknown text or a kind that is
/// not a span).
fn span_kind(s: &str) -> Result<u8, ()> {
    kind::from_name(s)
        .filter(|&k| kind::parent(k).is_some())
        .ok_or(())
}

/// Parses a text exposition produced by [`render`]. Strict: a malformed
/// sample, flight, critical-path, trace or span line — an unknown kind
/// or field included — is an error (the crash tests use this to prove a
/// pre-kill dump is complete), but unknown comment lines are skipped.
pub fn parse_dump(text: &str) -> Result<ParsedDump, String> {
    let mut dump = ParsedDump::default();
    let mut saw_header = false;
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ter_obs dump v1 ") {
            saw_header = true;
            for tok in rest.split_whitespace() {
                if let Some(v) = parse_kv(tok, "reason") {
                    dump.reason = v;
                } else if let Some(v) = parse_kv(tok, "uptime_micros") {
                    dump.uptime_micros = v.parse().map_err(|_| format!("line {ln}: bad uptime"))?;
                }
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# flight ") {
            let mut ev = TraceEvent::default();
            fields(rest, "flight", ln, |key, val| {
                match key {
                    "ts" => ev.ts_micros = num(val)?,
                    "kind" => ev.kind = kind::from_name(val).ok_or(())?,
                    "seq" => ev.seq = num(val)?,
                    "a" => ev.a = num(val)?,
                    "b" => ev.b = num(val)?,
                    "dur" => ev.dur_micros = num(val)?,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            dump.flight.push(ev);
            continue;
        }
        if let Some(rest) = line.strip_prefix("# critical_path ") {
            let mut cp = trace::CriticalPath::default();
            fields(rest, "critical_path", ln, |key, val| {
                let slot = match key {
                    "traces" => &mut cp.traces,
                    "total" => &mut cp.total_micros,
                    _ => match trace::SEGMENTS.iter().position(|s| *s == key) {
                        Some(i) => &mut cp.segments[i],
                        None => return Ok(false),
                    },
                };
                *slot = num(val)?;
                Ok(true)
            })?;
            dump.critical_path = Some(cp);
            continue;
        }
        if let Some(rest) = line.strip_prefix("# trace ") {
            let mut t = trace::Trace::default();
            fields(rest, "trace", ln, |key, val| {
                match key {
                    "seq" => t.batch_seq = num(val)?,
                    "start" => t.start = num(val)?,
                    "dur" => t.dur = num(val)?,
                    "covered" => t.covered = num(val)?,
                    "anomaly" => t.anomaly = num(val)? != 0,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            dump.traces.push(t);
            continue;
        }
        if let Some(rest) = line.strip_prefix("# span ") {
            let mut s = trace::Span::default();
            fields(rest, "span", ln, |key, val| {
                match key {
                    "seq" => s.batch_seq = num(val)?,
                    "kind" => s.kind = span_kind(val)?,
                    "parent" => s.parent = span_kind(val)?,
                    "start" => s.start = num(val)?,
                    "dur" => s.dur = num(val)?,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            let owner = dump
                .traces
                .iter_mut()
                .rev()
                .find(|t| t.batch_seq == s.batch_seq)
                .ok_or_else(|| {
                    format!("line {ln}: span for seq {} without its trace", s.batch_seq)
                })?;
            owner.spans.push(s);
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {ln}: not a sample: {line:?}"))?;
        let value: u64 = value
            .trim()
            .parse()
            .map_err(|_| format!("line {ln}: bad sample value: {line:?}"))?;
        dump.values.insert(name.trim().to_string(), value);
    }
    if !saw_header {
        return Err("missing '# ter_obs dump v1' header".into());
    }
    Ok(dump)
}

// ---------------------------------------------------------------------
// Dump-to-file hook
// ---------------------------------------------------------------------

/// Configures where [`dump_now`] writes: a file path, `-` for stdout, or
/// `None` to disable. Set once by the CLI from `--metrics-text`.
pub fn set_dump_path(path: Option<PathBuf>) {
    *DUMP_PATH
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner()) = path;
}

/// Writes the current exposition to the configured dump path (no-op
/// without one). File writes are atomic — tmp then rename — so a
/// SIGKILL mid-dump leaves the previous complete dump, never a torn
/// file. Returns whether a dump was written.
pub fn dump_now(reason: &str) -> bool {
    let path = DUMP_PATH
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .clone();
    let Some(path) = path else {
        return false;
    };
    let text = render(reason);
    if path.as_os_str() == "-" {
        let mut stdout = std::io::stdout().lock();
        let _ = stdout.write_all(text.as_bytes());
        let _ = stdout.flush();
        return true;
    }
    let tmp = path.with_extension("obs_tmp");
    let write = || -> std::io::Result<()> {
        std::fs::write(&tmp, text.as_bytes())?;
        std::fs::rename(&tmp, &path)
    };
    match write() {
        Ok(()) => true,
        Err(e) => {
            eprintln!("ter_obs: metrics dump to {} failed: {e}", path.display());
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.add(3);
        g.sub(4);
        assert_eq!(g.get(), 6);
        g.sub(100);
        assert_eq!(g.get(), 0, "gauge dec saturates, never wraps");
        g.max(9);
        g.max(2);
        assert_eq!(g.get(), 9, "high-water keeps the max");
    }

    #[test]
    fn histogram_buckets_are_log2_by_bit_width() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(10), 1023);
        assert_eq!(bucket_bound(HIST_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_from_buckets() {
        let h = Histogram::new();
        // 90 fast observations, 10 slow: p50 in the fast bucket, p99 in
        // the slow one.
        for _ in 0..90 {
            h.record(100); // bucket 7, bound 127
        }
        for _ in 0..10 {
            h.record(5000); // bucket 13, bound 8191
        }
        let row = h.row("t");
        assert_eq!(row.value, 100);
        assert_eq!(row.sum, 90 * 100 + 10 * 5000);
        assert_eq!(row.quantile(0.50), 127);
        assert_eq!(row.quantile(0.90), 127);
        assert_eq!(row.quantile(0.95), 8191);
        assert_eq!(row.quantile(0.99), 8191);
        assert!((row.mean() - 590.0).abs() < 1e-9);
        let empty = Histogram::new().row("e");
        assert_eq!(empty.quantile(0.99), 0);
    }

    /// Satellite: ring wrap-around keeps the newest events.
    #[test]
    fn flight_ring_wraparound_keeps_newest() {
        let mut ring = FlightRing::new(4);
        for i in 0..10u64 {
            ring.push(TraceEvent {
                ts_micros: i,
                kind: kind::STEP,
                seq: i,
                a: 0,
                b: 0,
                dur_micros: 0,
            });
        }
        assert_eq!(ring.total(), 10);
        let seqs: Vec<u64> = ring.snapshot().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest→newest, newest retained");
        // Under capacity: insertion order, nothing lost.
        let mut small = FlightRing::new(8);
        for i in 0..3u64 {
            small.push(TraceEvent {
                ts_micros: i,
                kind: kind::FSYNC,
                seq: i,
                a: 0,
                b: 0,
                dur_micros: 0,
            });
        }
        assert_eq!(small.snapshot().len(), 3);
        assert_eq!(small.total(), 3);
    }

    #[test]
    fn render_parse_round_trip() {
        let rows = vec![
            MetricRow {
                name: "ter_x_total".into(),
                kind: KIND_COUNTER,
                value: 12,
                sum: 0,
                buckets: Vec::new(),
            },
            MetricRow {
                name: "ter_y".into(),
                kind: KIND_GAUGE,
                value: 3,
                sum: 0,
                buckets: Vec::new(),
            },
            {
                let h = Histogram::new();
                h.record(100);
                h.record(100);
                h.record(9000);
                h.row("ter_z_micros")
            },
        ];
        let flight = vec![TraceEvent {
            ts_micros: 55,
            kind: kind::FSYNC,
            seq: 8,
            a: 4,
            b: 0,
            dur_micros: 130,
        }];
        let text = render_parts("checkpoint", &rows, &flight);
        let dump = parse_dump(&text).unwrap();
        assert_eq!(dump.reason, "checkpoint");
        assert_eq!(dump.value("ter_x_total"), Some(12));
        assert_eq!(dump.value("ter_y"), Some(3));
        assert_eq!(dump.value("ter_z_micros_count"), Some(3));
        assert_eq!(dump.value("ter_z_micros_sum"), Some(9200));
        assert_eq!(dump.value("ter_z_micros_p50"), Some(127));
        assert_eq!(dump.value("ter_z_micros_p99"), Some(16383));
        assert_eq!(dump.value("ter_z_micros_bucket{le=\"127\"}"), Some(2));
        assert_eq!(dump.flight, flight);

        assert!(parse_dump("no header here\n").is_err());
        let mut bad = text.clone();
        bad.push_str("torn line without value_\n");
        assert!(parse_dump(&bad).is_err(), "malformed samples are rejected");
        for line in [
            "# flight ts=1 kind=bogus seq=0 a=0 b=0 dur=0",
            "# critical_path traces=1 total=5 barrier=0",
            "# trace seq=3 start=1 dur=5 covered=0 anomaly=0\n# span seq=3 kind=checkpoint parent=batch start=1 dur=1",
        ] {
            let bad = format!("{text}{line}\n");
            assert!(parse_dump(&bad).is_err(), "unknown kind or field accepted: {line}");
        }
    }

    /// The dump `scripts/trace2folded.sh` is checked against is one this
    /// parser accepts, so the converter is tested on a dump the daemon can
    /// produce.
    #[test]
    fn trace2folded_fixture_parses() {
        let fixture = include_str!("../../../scripts/fixtures/trace_dump.txt");
        let dump = parse_dump(fixture).unwrap();
        let cp = dump.critical_path.unwrap();
        assert_eq!(cp.segments.iter().sum::<u64>(), cp.total_micros);
        assert_eq!(dump.traces.len(), 2);
    }

    /// The kind table is one consistent vocabulary: unique names that
    /// round-trip, span parents that are span kinds, span kinds numbered
    /// below the slot width, and histograms that are registry metrics.
    #[test]
    fn kind_table_is_consistent() {
        let histograms: Vec<*const ()> = OBS
            .addresses()
            .into_iter()
            .filter(|(name, _)| {
                snapshot()
                    .iter()
                    .any(|r| r.name == *name && r.kind == KIND_HISTOGRAM)
            })
            .map(|(_, addr)| addr)
            .collect();
        for (k, info) in kind::TABLE.iter().enumerate() {
            let k = k as u8;
            assert_eq!(
                kind::from_name(info.name),
                Some(k),
                "{} round-trips",
                info.name
            );
            if let Some(parent) = info.parent {
                assert!(
                    (k as usize) < kind::NSPANS,
                    "{} has a trace slot",
                    info.name
                );
                assert!(
                    kind::parent(parent).is_some(),
                    "{}'s parent is a span",
                    info.name
                );
            } else {
                assert!(
                    (k as usize) >= kind::NSPANS,
                    "{} is numbered as a span",
                    info.name
                );
                assert!(
                    !info.shared && info.segment.is_none(),
                    "{} is no span",
                    info.name
                );
            }
            if let Some(h) = info.hist {
                let addr = h as *const Histogram as *const ();
                assert!(
                    histograms.contains(&addr),
                    "{}'s histogram is registered",
                    info.name
                );
            }
        }
        assert_eq!(kind::from_name("bogus"), None);
        assert_eq!(kind::name(kind::NKINDS as u8), "unknown");
    }

    #[test]
    fn global_registry_snapshot_and_flight() {
        // The global registry is shared across in-process tests; assert
        // on deltas and structure, not absolutes.
        let before = OBS.fsyncs.get();
        let hist_before = OBS.fsync_micros.count();
        OBS.fsyncs.inc();
        record(kind::FSYNC, 1, 1, 0, 250);
        assert_eq!(OBS.fsyncs.get(), before + 1);
        assert!(
            OBS.fsync_micros.count() > hist_before,
            "the table's histogram fed"
        );
        let rows = snapshot();
        let fsync_row = rows.iter().find(|r| r.name == "ter_store_fsyncs_total");
        assert!(fsync_row.is_some_and(|r| r.kind == KIND_COUNTER && r.value >= 1));
        let hist_row = rows.iter().find(|r| r.name == "ter_store_fsync_micros");
        assert!(hist_row.is_some_and(|r| r.kind == KIND_HISTOGRAM && r.value >= 1));
        assert!(flight_snapshot()
            .iter()
            .any(|e| e.kind == kind::FSYNC && e.dur_micros == 250));
        // Render of the live registry parses.
        let dump = parse_dump(&render("test")).unwrap();
        assert!(dump.value("ter_store_fsyncs_total").unwrap() >= 1);
    }

    #[test]
    fn disabled_mode_skips_timers_and_flight() {
        set_enabled(false);
        assert!(timer().is_none());
        let before = flight_snapshot().len();
        record(kind::STEP, 99, 0, 0, 0);
        assert_eq!(flight_snapshot().len(), before, "flight gated off");
        assert_eq!(since(timer()), 0);
        set_enabled(true);
        assert!(timer().is_some());
    }

    #[test]
    fn dump_now_writes_atomically() {
        let dir = std::env::temp_dir().join(format!("ter_obs_dump_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.txt");
        assert!(!dump_now("none"), "no-op without a configured path");
        set_dump_path(Some(path.clone()));
        OBS.checkpoints.inc();
        assert!(dump_now("checkpoint"));
        let dump = parse_dump(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(dump.reason, "checkpoint");
        assert!(dump.value("ter_store_checkpoints_total").unwrap() >= 1);
        assert!(
            !path.with_extension("obs_tmp").exists(),
            "tmp file renamed away"
        );
        set_dump_path(None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The `--watch` delta math: quantiles of a delta row must describe
    /// the interval alone, not the cumulative history.
    #[test]
    fn metric_row_delta_gives_interval_quantiles() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(100);
        }
        let first = h.row("x_micros");
        for _ in 0..10 {
            h.record(5000);
        }
        let second = h.row("x_micros");
        // Cumulative quantiles are dominated by the 90 old fast samples…
        assert_eq!(second.quantile(0.50), bucket_bound(bucket_of(100)));
        // …but the interval's delta row sees only the 10 slow ones.
        let d = second.delta(&first);
        assert_eq!(d.value, 10);
        assert_eq!(d.sum, 10 * 5000);
        assert_eq!(d.quantile(0.50), bucket_bound(bucket_of(5000)));
        assert_eq!(d.quantile(0.99), bucket_bound(bucket_of(5000)));
        // Sanity on the counter/gauge arms.
        let c0 = MetricRow {
            name: "c".into(),
            kind: KIND_COUNTER,
            value: 7,
            sum: 0,
            buckets: vec![],
        };
        let c1 = MetricRow {
            value: 12,
            ..c0.clone()
        };
        assert_eq!(c1.delta(&c0).value, 5);
        let g = MetricRow {
            name: "g".into(),
            kind: KIND_GAUGE,
            value: 3,
            sum: 0,
            buckets: vec![],
        };
        assert_eq!(
            g.delta(&g).value,
            3,
            "gauges keep the instantaneous reading"
        );
    }

    /// The span layer end to end: begin/record/shared fsync/end, the
    /// critical-path partition property, tail retention, and the text
    /// round trip. One test (not several) because the pending table and
    /// sampler are process-global.
    #[test]
    fn trace_lifecycle_sampler_and_attribution() {
        set_enabled(true);
        trace::reset();
        use kind as k;
        use trace::seg;

        // --- one fully-populated trace, exact math ---
        let base = 1_000;
        trace::begin(5_000, base);
        record_at(k::FRONTEND, 5_000, 0, 0, base, 10);
        record_at(k::GATE, 5_000, 0, 0, base + 10, 0);
        record_at(k::QUEUE_WAIT, 5_000, 0, 0, base + 10, 40);
        trace::set_current(5_000);
        assert_eq!(trace::attach(77), (5_000, false), "the driver's trace");
        record_at(k::IMPUTE, 5_000, 0, 0, base + 50, 100);
        // Two traverse laps accumulate.
        record_at(k::TRAVERSE, 5_000, 0, 0, base + 150, 250);
        record_at(k::TRAVERSE, 5_000, 0, 0, base + 400, 50);
        record_at(k::REFINE, 5_000, 0, 0, base + 450, 200);
        record_at(k::MERGE, 5_000, 0, 0, base + 650, 100);
        record_at(k::STEP, 5_000, 0, 0, base + 50, 700);
        trace::clear_current();
        record_at(k::WAL, 5_000, 0, 0, base + 750, 50);
        // One fsync making 4_997..5_001 durable: shared by 4 batches.
        record_at(k::FSYNC, 5_001, 4, 0, base + 800, 400);
        record_at(k::NOTIFY, 5_000, 0, 0, base + 800, 25);
        record_at(k::WRITE_BACK, 5_000, 0, 0, base + 1_000, 0); // open marker
        trace::end(5_000, base + 1_100);

        let (cp, traces) = trace::snapshot();
        let t = traces
            .iter()
            .find(|t| t.batch_seq == 5_000)
            .expect("completed trace retained");
        assert_eq!(t.dur, 1_100);
        assert_eq!(t.covered, 4);
        assert_eq!(t.span_dur(k::TRAVERSE), 300, "traverse laps accumulate");
        assert_eq!(
            t.span_dur(k::WRITE_BACK),
            100,
            "open write-back closed at end"
        );
        assert_eq!(t.span_dur(k::FSYNC), 400);
        assert_eq!(t.spans[0].kind, k::ROOT);
        assert!(t.spans.iter().all(|s| s.batch_seq == 5_000));
        assert!(
            t.spans.iter().all(|s| Some(s.parent) == k::parent(s.kind)),
            "span tree parents follow the kind table"
        );

        let one = trace::CriticalPath::of(t);
        assert_eq!(one.segments[seg::FRONTEND], 10);
        assert_eq!(one.segments[seg::QUEUE_WAIT], 40);
        assert_eq!(one.segments[seg::COMPUTE], 100 + 300 + 200 + 100);
        assert_eq!(one.segments[seg::WAL], 50);
        assert_eq!(
            one.segments[seg::FSYNC_EXPOSED],
            400 / 4,
            "fsync amortized over cover"
        );
        assert_eq!(one.segments[seg::NOTIFY], 25);
        assert_eq!(one.segments[seg::WRITE_BACK], 100);
        assert_eq!(
            one.segment_sum(),
            one.total_micros,
            "attribution is a partition of the end-to-end time"
        );
        assert_eq!(cp.delta(&trace::CriticalPath::default()).traces, cp.traces);

        // --- uncovered batches no-op cleanly ---
        record(k::WAL, 9_999, 0, 0, 5); // no begin: ignored
        trace::abandon(5_000); // already ended: ignored

        // --- tail sampling: a full window keeps the K slowest ---
        trace::reset();
        for i in 0..64u64 {
            let start = 10_000 + i * 100;
            trace::begin(i, start);
            // Batches 10 and 42 are the slow tail.
            let dur = if i == 10 || i == 42 { 90 } else { 5 };
            record_at(k::STEP, i, 0, 0, start, dur);
            trace::end(i, start + dur);
        }
        let (cp, traces) = trace::snapshot();
        assert_eq!(cp.traces, 64, "every completion folds into the table");
        assert!(traces.len() < 64, "steady-state traffic is sampled out");
        for slow in [10, 42] {
            assert!(
                traces.iter().any(|t| t.batch_seq == slow),
                "slowest traces survive the window"
            );
        }
        assert_eq!(cp.segment_sum(), cp.total_micros);

        // --- anomaly overlap forces retention even for a fast trace ---
        trace::begin(70, trace::now());
        record(k::BUSY, 0, 1, 0, 0);
        trace::end(70, trace::now());
        let (_, traces) = trace::snapshot();
        assert!(
            traces.iter().any(|t| t.batch_seq == 70 && t.anomaly),
            "anomaly-overlapping trace retained from the partial window"
        );

        // --- text exposition round trip ---
        let text = render("trace_test");
        let parsed = parse_dump(&text).expect("trace dump parses");
        let cp_parsed = parsed.critical_path.expect("critical_path line present");
        let (cp_now, traces_now) = trace::snapshot();
        assert_eq!(cp_parsed, cp_now);
        assert_eq!(parsed.traces.len(), traces_now.len());
        let t70 = parsed
            .traces
            .iter()
            .find(|t| t.batch_seq == 70)
            .expect("trace 70 in dump");
        assert!(t70.anomaly);
        assert!(!t70.spans.is_empty());

        // --- kill switch: everything no-ops, bit-parity preserved ---
        set_enabled(false);
        assert_eq!(trace::now(), 0);
        trace::begin(500, 123);
        assert_eq!(trace::attach(500), (500, false), "nothing rooted");
        record_at(k::STEP, 500, 0, 0, 123, 10);
        trace::end(500, 223);
        set_enabled(true);
        let (_, traces) = trace::snapshot();
        assert!(
            traces.iter().all(|t| t.batch_seq != 500),
            "disabled-mode spans must not record"
        );
        trace::reset();
    }
}
