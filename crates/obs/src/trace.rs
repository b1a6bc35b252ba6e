//! Causal per-batch tracing: one span tree per ingest batch, threaded
//! from socket read to ack write-back, with tail-based sampling and a
//! critical-path analyzer on top.
//!
//! # Design
//!
//! The hot path never allocates. Spans for in-flight batches live in a
//! fixed table of `SLOTS` slots of plain `AtomicU64` words (relaxed
//! orderings, like the registry): slot `seq % SLOTS` holds, per span
//! kind (the [kind table](crate::kind::TABLE)'s kinds with a parent), a
//! start timestamp and an accumulated duration. Spans reach the slot
//! through [`crate::record`] with the batch's sequence; the engine, which
//! does not carry it, finds it in a "current batch" register set by the
//! step driver ([`attach`]). A stage that runs several laps per batch
//! (multi-subscriber notify fan-out) accumulates — `dur` is a
//! `fetch_add`.
//!
//! Shared spans: one group-commit fsync covers many batches, so its
//! kind is marked `shared` and the *same* span is written into every
//! covered batch's slot, stamped with how many batches shared it — the
//! analyzer amortizes the exposed time by that count.
//!
//! A batch's trace closes on [`end`] (ack written back, or the step
//! returning in library mode): the slot is materialized into an owned
//! [`Trace`], the slot freed, and the trace offered to the **tail-based
//! sampler** — every completion folds into the cumulative
//! [`CriticalPath`] attribution table, but only the `K` slowest traces
//! per window (plus every trace that overlapped a PANIC/Busy/Lagged
//! anomaly) are retained in a bounded buffer for inspection.
//!
//! Everything is gated on the same [`crate::set_enabled`] kill switch as
//! the metrics layer, and carries the same bit-parity obligation: spans
//! are write-only from the compute path and never feed back into a
//! decision.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

use crate::kind::{self, NSPANS};

/// One completed span, owned form.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// The batch this span belongs to.
    pub batch_seq: u64,
    /// A span [`kind`] constant.
    pub kind: u8,
    /// The parent span's kind ([`kind::parent`]).
    pub parent: u8,
    /// Start, microseconds since the observability epoch.
    pub start: u64,
    /// Accumulated duration, microseconds.
    pub dur: u64,
}

/// One completed per-batch trace, owned form.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// The batch sequence this trace followed.
    pub batch_seq: u64,
    /// Root start, microseconds since the observability epoch.
    pub start: u64,
    /// End-to-end duration, microseconds.
    pub dur: u64,
    /// How many batches shared this batch's covering fsync (0 when the
    /// batch never saw an fsync span).
    pub covered: u64,
    /// Whether a PANIC/Busy/Lagged flight event landed inside this
    /// trace's lifetime — anomalous traces are always retained.
    pub anomaly: bool,
    /// The spans, root first, then kind order.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Duration of this trace's `k`-kind span (0 when absent).
    pub fn span_dur(&self, k: u8) -> u64 {
        self.spans.iter().find(|s| s.kind == k).map_or(0, |s| s.dur)
    }
}

// ---------------------------------------------------------------------
// Critical-path attribution
// ---------------------------------------------------------------------

/// Critical-path segment labels, in fold order.
pub const SEGMENTS: [&str; NSEGMENTS] = [
    "frontend",
    "gate",
    "queue_wait",
    "compute",
    "wal",
    "fsync_exposed",
    "notify",
    "write_back",
    "other",
];

/// Number of critical-path segments.
pub const NSEGMENTS: usize = 9;

/// Index of each segment in [`SEGMENTS`] and [`CriticalPath::segments`].
pub mod seg {
    /// Frontend read + parse.
    pub const FRONTEND: usize = 0;
    /// Gate admission (zero-duration marker today).
    pub const GATE: usize = 1;
    /// Bounded ordered-queue wait.
    pub const QUEUE_WAIT: usize = 2;
    /// Engine stage compute (impute + traverse + refine + merge).
    pub const COMPUTE: usize = 3;
    /// WAL append (unsynced).
    pub const WAL: usize = 4;
    /// Covering-fsync time amortized per covered batch.
    pub const FSYNC_EXPOSED: usize = 5;
    /// Standing-query notify fan-out.
    pub const NOTIFY: usize = 6;
    /// Ack release → reply buffered.
    pub const WRITE_BACK: usize = 7;
    /// End-to-end time the spans did not explain (scheduling, channel
    /// hops).
    pub const OTHER: usize = 8;
}

/// The per-segment attribution table: end-to-end latency of one trace
/// (or the fold over many) split into *exclusive* segments that sum to
/// exactly `total_micros`.
///
/// Segment math per trace: each span's time goes to the segment the
/// [kind table](crate::kind::TABLE) names for its kind (stage compute is
/// the sum of the stage laps); a shared span — the covering fsync — is
/// amortized over the batches it covered (group commit's whole point is
/// that the other `covered - 1` batches don't pay it); each segment is
/// then clamped so the running sum never exceeds the measured end-to-end
/// duration, and whatever the spans did not explain lands in
/// [`seg::OTHER`]. The table is therefore a true partition:
/// `segment_sum() == total_micros` by construction, and honesty is
/// checked by comparing `total_micros` against independently measured
/// wall time (`tests/obs_guard.rs` asserts agreement within 5%).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// Traces folded into this table.
    pub traces: u64,
    /// Summed end-to-end trace duration, microseconds.
    pub total_micros: u64,
    /// Microseconds per segment, indexed like [`SEGMENTS`].
    pub segments: [u64; NSEGMENTS],
}

impl CriticalPath {
    /// The attribution of a single trace.
    pub fn of(trace: &Trace) -> Self {
        let mut cp = Self::default();
        cp.fold(trace);
        cp
    }

    /// Folds one trace into the table (see the type docs for the
    /// segment math).
    pub fn fold(&mut self, t: &Trace) {
        let mut want = [0u64; NSEGMENTS];
        for s in &t.spans {
            let Some(info) = kind::TABLE.get(s.kind as usize) else {
                continue;
            };
            if let Some(i) = info.segment {
                want[i] += if info.shared && t.covered > 1 {
                    s.dur / t.covered
                } else {
                    s.dur
                };
            }
        }
        let mut left = t.dur;
        for (i, want) in want.into_iter().enumerate().take(seg::OTHER) {
            let got = want.min(left);
            left -= got;
            self.segments[i] += got;
        }
        self.segments[seg::OTHER] += left;
        self.traces += 1;
        self.total_micros += t.dur;
    }

    /// Sum of every segment — equals `total_micros` for any table built
    /// by [`CriticalPath::fold`].
    pub fn segment_sum(&self) -> u64 {
        self.segments.iter().sum()
    }

    /// Field-wise difference against an earlier snapshot of the same
    /// cumulative table (saturating — safe across a [`reset`]).
    pub fn delta(&self, prev: &CriticalPath) -> CriticalPath {
        CriticalPath {
            traces: self.traces.saturating_sub(prev.traces),
            total_micros: self.total_micros.saturating_sub(prev.total_micros),
            segments: std::array::from_fn(|i| self.segments[i].saturating_sub(prev.segments[i])),
        }
    }
}

// ---------------------------------------------------------------------
// The pending-span table (the allocation-free hot path)
// ---------------------------------------------------------------------

/// In-flight slot count. Far above any real in-flight batch count (the
/// daemon's queue bound and pipeline windows are single digits); a
/// sequence wrapping onto a stale abandoned slot simply overwrites it.
const SLOTS: usize = 64;

struct Slot {
    /// `batch_seq + 1`; 0 = free.
    seq: AtomicU64,
    /// Batches sharing this batch's covering fsync.
    covered: AtomicU64,
    start: [AtomicU64; NSPANS],
    dur: [AtomicU64; NSPANS],
}

impl Slot {
    const fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            covered: AtomicU64::new(0),
            start: [const { AtomicU64::new(0) }; NSPANS],
            dur: [const { AtomicU64::new(0) }; NSPANS],
        }
    }
}

static PENDING: [Slot; SLOTS] = [const { Slot::new() }; SLOTS];

/// The step driver's current batch (`seq + 1`; 0 = none) — the route by
/// which the engine, which doesn't carry the batch sequence, finds the
/// trace its stages record into.
static CURRENT: AtomicU64 = AtomicU64::new(0);

/// Epoch-micros stamp of the last anomalous event (PANIC, Busy
/// backpressure, subscriber shed); 0 = none yet. Written by
/// [`crate::record`].
static ANOMALY: AtomicU64 = AtomicU64::new(0);

fn slot_for(seq: u64) -> &'static Slot {
    &PENDING[(seq % SLOTS as u64) as usize]
}

fn enabled() -> bool {
    crate::enabled()
}

/// Microseconds since the observability epoch when tracing is enabled,
/// 0 (free — no clock read) when not. The layers stamp timestamps with
/// this so a disabled run never touches the clock.
pub fn now() -> u64 {
    if enabled() {
        // The epoch itself is instant 0; never confuse "at the epoch"
        // with "tracing off".
        crate::epoch_micros().max(1)
    } else {
        0
    }
}

/// Called by [`crate::record`] when an anomalous event (panic,
/// backpressure rejection, subscriber shed) is recorded at `now`.
pub(crate) fn note_anomaly(now: u64) {
    ANOMALY.store(now.max(1), Relaxed);
}

/// Opens the trace for batch `seq`, rooted at `start_us` (a [`now`]
/// stamp — pass the frontend receive time to charge queueing
/// upstream). Overwrites whatever stale abandoned trace occupied the
/// slot.
pub fn begin(seq: u64, start_us: u64) {
    if !enabled() || start_us == 0 {
        return;
    }
    let slot = slot_for(seq);
    slot.seq.store(seq + 1, Relaxed);
    slot.covered.store(0, Relaxed);
    for k in 0..NSPANS {
        slot.start[k].store(0, Relaxed);
        slot.dur[k].store(0, Relaxed);
    }
    slot.start[kind::ROOT as usize].store(start_us, Relaxed);
}

/// Records (or accumulates into) batch `seq`'s span of `k`: the start
/// sticks on first write, the duration accumulates. No-op when the slot
/// is not tracing `seq` — a layer fed outside a traced batch (library
/// WAL use, recovery replay) costs one relaxed load.
pub(crate) fn add(seq: u64, k: u8, start_us: u64, dur_us: u64) {
    let slot = slot_for(seq);
    if slot.seq.load(Relaxed) != seq + 1 {
        return;
    }
    let ki = k as usize;
    if slot.start[ki].load(Relaxed) == 0 {
        slot.start[ki].store(start_us, Relaxed);
    }
    slot.dur[ki].fetch_add(dur_us, Relaxed);
}

/// Writes one shared span into every batch in
/// `[first_seq, first_seq + covered)` and stamps how many shared it —
/// one covering fsync, linked from every batch it made durable.
pub(crate) fn add_shared(first_seq: u64, covered: u64, k: u8, start_us: u64, dur_us: u64) {
    for seq in first_seq..first_seq.saturating_add(covered) {
        add(seq, k, start_us, dur_us);
        let slot = slot_for(seq);
        if slot.seq.load(Relaxed) == seq + 1 {
            slot.covered.store(covered, Relaxed);
        }
    }
}

/// Marks batch `seq` as the step driver's current batch.
pub fn set_current(seq: u64) {
    if enabled() {
        CURRENT.store(seq + 1, Relaxed);
    }
}

/// Clears the current-batch register.
pub fn clear_current() {
    CURRENT.store(0, Relaxed);
}

/// The trace a batch step records into: the current batch when a driver
/// set one (the daemon's step stage), else a trace rooted here for
/// `seq` (library mode). Returns the trace's sequence and whether this
/// call rooted it — the caller that rooted must also [`end`] it.
pub fn attach(seq: u64) -> (u64, bool) {
    if let Some(current) = CURRENT.load(Relaxed).checked_sub(1) {
        return (current, false);
    }
    let start = now();
    begin(seq, start);
    (seq, start != 0)
}

/// Abandons batch `seq`'s trace without retaining it (connection died
/// before the ack, commit error).
pub fn abandon(seq: u64) {
    let slot = slot_for(seq);
    let _ = slot.seq.compare_exchange(seq + 1, 0, Relaxed, Relaxed);
}

/// Closes batch `seq`'s trace at `end_us`: materializes the slot into
/// an owned [`Trace`], frees the slot, folds the trace into the
/// cumulative attribution table, and offers it to the tail sampler. An
/// open write-back span is closed at `end_us` (write-back *is* the last
/// segment — its end is the trace's end).
pub fn end(seq: u64, end_us: u64) {
    if !enabled() || end_us == 0 {
        return;
    }
    let slot = slot_for(seq);
    if slot.seq.load(Relaxed) != seq + 1 {
        return;
    }
    let wb = kind::WRITE_BACK as usize;
    let wb_start = slot.start[wb].load(Relaxed);
    if wb_start != 0 && slot.dur[wb].load(Relaxed) == 0 {
        slot.dur[wb].store(end_us.saturating_sub(wb_start), Relaxed);
    }
    let root_start = slot.start[kind::ROOT as usize].load(Relaxed);
    let mut spans = Vec::with_capacity(NSPANS);
    spans.push(Span {
        batch_seq: seq,
        kind: kind::ROOT,
        parent: kind::ROOT,
        start: root_start,
        dur: end_us.saturating_sub(root_start),
    });
    for k in 1..NSPANS {
        let start = slot.start[k].load(Relaxed);
        let dur = slot.dur[k].load(Relaxed);
        if start == 0 && dur == 0 {
            continue;
        }
        spans.push(Span {
            batch_seq: seq,
            kind: k as u8,
            parent: kind::TABLE[k].parent.unwrap_or(kind::ROOT),
            start,
            dur,
        });
    }
    let covered = slot.covered.load(Relaxed);
    slot.seq.store(0, Relaxed);
    let anomaly_ts = ANOMALY.load(Relaxed);
    let trace = Trace {
        batch_seq: seq,
        start: root_start,
        dur: end_us.saturating_sub(root_start),
        covered,
        anomaly: anomaly_ts != 0 && anomaly_ts >= root_start && anomaly_ts <= end_us,
        spans,
    };
    sampler()
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .complete(trace);
}

// ---------------------------------------------------------------------
// Tail-based sampler
// ---------------------------------------------------------------------

/// Completions per sampling window.
const WINDOW: usize = 64;
/// Slowest traces retained per window (anomalous traces ride along on
/// top of this).
const KEEP_PER_WINDOW: usize = 8;
/// Bound on the retained buffer; oldest retained traces fall off.
const RETAINED_CAP: usize = 256;

struct Sampler {
    /// The current (possibly partial) window of completions.
    window: Vec<Trace>,
    /// Survivors of closed windows, oldest first.
    retained: VecDeque<Trace>,
    /// Cumulative attribution over *every* completion (not just the
    /// retained tail).
    attr: CriticalPath,
}

impl Sampler {
    const fn new() -> Self {
        Sampler {
            window: Vec::new(),
            retained: VecDeque::new(),
            attr: CriticalPath {
                traces: 0,
                total_micros: 0,
                segments: [0; NSEGMENTS],
            },
        }
    }

    fn complete(&mut self, trace: Trace) {
        self.attr.fold(&trace);
        self.window.push(trace);
        if self.window.len() >= WINDOW {
            let keep = select(&self.window);
            for (i, trace) in self.window.drain(..).enumerate() {
                if keep[i] {
                    if self.retained.len() >= RETAINED_CAP {
                        self.retained.pop_front();
                    }
                    self.retained.push_back(trace);
                }
            }
        }
    }
}

/// The tail-sampling policy over one window: the `K` slowest plus every
/// anomalous trace.
fn select(window: &[Trace]) -> Vec<bool> {
    let mut order: Vec<usize> = (0..window.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(window[i].dur));
    let mut keep = vec![false; window.len()];
    for &i in order.iter().take(KEEP_PER_WINDOW) {
        keep[i] = true;
    }
    for (i, t) in window.iter().enumerate() {
        if t.anomaly {
            keep[i] = true;
        }
    }
    keep
}

static SAMPLER: Mutex<Sampler> = Mutex::new(Sampler::new());

fn sampler() -> &'static Mutex<Sampler> {
    &SAMPLER
}

/// The cumulative attribution table plus the retained traces (closed
/// windows' survivors, then the current partial window filtered by the
/// same policy), oldest first. Short runs that never fill a window
/// still surface their tail.
pub fn snapshot() -> (CriticalPath, Vec<Trace>) {
    let s = sampler()
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut traces: Vec<Trace> = s.retained.iter().cloned().collect();
    let keep = select(&s.window);
    traces.extend(
        s.window
            .iter()
            .enumerate()
            .filter(|(i, _)| keep[*i])
            .map(|(_, t)| t.clone()),
    );
    (s.attr.clone(), traces)
}

/// Clears every pending slot, the sampler, and the anomaly stamp
/// (tests/benches only — wired into [`crate::reset`]).
pub fn reset() {
    for slot in &PENDING {
        slot.seq.store(0, Relaxed);
    }
    CURRENT.store(0, Relaxed);
    ANOMALY.store(0, Relaxed);
    *sampler()
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner()) = Sampler::new();
}
