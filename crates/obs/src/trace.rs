//! Causal per-batch tracing: one span tree per ingest batch, threaded
//! from socket read to ack write-back, with tail-based sampling and a
//! critical-path analyzer on top.
//!
//! # Design
//!
//! The hot path never allocates. Spans for in-flight batches live in a
//! fixed table of `SLOTS` slots of plain `AtomicU64` words (relaxed
//! orderings, like the registry): slot `seq % SLOTS` holds, per span
//! [`kind`], a start timestamp and an accumulated duration. Layers that
//! know their batch sequence ([`add`]) write straight into the slot;
//! layers that run *inside* the engine step and don't carry the
//! sequence ([`add_current`]) route through a thread-agnostic
//! "current batch" register set by the step driver. A stage that runs
//! several laps per batch (barrier waits, multi-subscriber notify
//! fan-out) accumulates — `dur` is a `fetch_add`.
//!
//! Shared spans: one group-commit fsync covers many batches, so
//! [`fsync_covering`] writes the *same* fsync span into every covered
//! batch's slot and stamps how many batches shared it — the analyzer
//! amortizes the exposed time by that count.
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

/// Span kinds: the fixed vocabulary of the per-batch span tree. The
/// numeric values index the slot arrays, so they are dense from 0.
pub mod kind {
    /// The whole batch, socket read to ack write-back (the tree root).
    pub const ROOT: u8 = 0;
    /// Frontend read + parse (+ the go-back-N sequence gate).
    pub const FRONTEND: u8 = 1;
    /// Go-back-N gate admission marker (zero-duration; rejected frames
    /// never start a trace).
    pub const GATE: u8 = 2;
    /// Wait in the bounded ordered queue before the step stage picks
    /// the batch up.
    pub const QUEUE_WAIT: u8 = 3;
    /// WAL `append_nosync` (the unsynced half of group commit).
    pub const WAL: u8 = 4;
    /// The covering group-commit fsync — shared: the same span is
    /// written into every batch the fsync covered.
    pub const FSYNC: u8 = 5;
    /// The engine step (parent of the stage spans).
    pub const STEP: u8 = 6;
    /// Impute stage (child of [`STEP`]).
    pub const IMPUTE: u8 = 7;
    /// Traverse stage (child of [`STEP`]).
    pub const TRAVERSE: u8 = 8;
    /// Refine stage (child of [`STEP`]).
    pub const REFINE: u8 = 9;
    /// Merge stage (child of [`STEP`]).
    pub const MERGE: u8 = 10;
    /// Shard-barrier waits inside traverse/refine (child of [`STEP`];
    /// the stage laps already contain this time — the analyzer
    /// subtracts it back out of compute).
    pub const BARRIER: u8 = 11;
    /// Standing-query notify fan-out (accumulated over subscribers).
    pub const NOTIFY: u8 = 12;
    /// Ack release → reply buffered on the session writer.
    pub const WRITE_BACK: u8 = 13;
    /// Number of span kinds (slot array width).
    pub const NKINDS: usize = 14;

    /// Parent kind of each span kind ([`ROOT`] is its own parent).
    pub const PARENT: [u8; NKINDS] = [
        ROOT, ROOT, ROOT, ROOT, ROOT, ROOT, ROOT, STEP, STEP, STEP, STEP, STEP, ROOT, ROOT,
    ];

    /// Stable text name (dump format + CLI).
    pub fn name(k: u8) -> &'static str {
        match k {
            ROOT => "batch",
            FRONTEND => "frontend",
            GATE => "gate",
            QUEUE_WAIT => "queue_wait",
            WAL => "wal",
            FSYNC => "fsync",
            STEP => "step",
            IMPUTE => "impute",
            TRAVERSE => "traverse",
            REFINE => "refine",
            MERGE => "merge",
            BARRIER => "barrier",
            NOTIFY => "notify",
            WRITE_BACK => "write_back",
            _ => "unknown",
        }
    }

    /// Inverse of [`name`] (`None` for unknown text).
    pub fn from_name(s: &str) -> Option<u8> {
        (0..NKINDS as u8).find(|&k| name(k) == s)
    }
}

/// One completed span, owned form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The batch this span belongs to.
    pub batch_seq: u64,
    /// A [`kind`] constant.
    pub kind: u8,
    /// The parent span's kind ([`kind::PARENT`]).
    pub parent: u8,
    /// Start, microseconds since the observability epoch.
    pub start: u64,
    /// Accumulated duration, microseconds.
    pub dur: u64,
}

/// One completed per-batch trace, owned form.
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// The per-segment attribution table: end-to-end latency of one trace
/// (or the fold over many) split into *exclusive* segments that sum to
/// exactly `total_micros`.
///
/// Segment math per trace: stage compute is the stage laps minus the
/// barrier waits they contain; fsync-exposed is the covering fsync's
/// duration amortized over the batches it covered (group commit's whole
/// point is that the other `covered - 1` batches don't pay it); each
/// segment is then clamped so the running sum never exceeds the
/// measured end-to-end duration, and whatever the spans did not explain
/// lands in `other_micros`. The table is therefore a true partition:
/// `segment_sum() == total_micros` by construction, and honesty is
/// checked by comparing `total_micros` against independently measured
/// wall time (fig18 asserts agreement within 5%).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// Traces folded into this table.
    pub traces: u64,
    /// Summed end-to-end trace duration, microseconds.
    pub total_micros: u64,
    /// Frontend read + parse + gate.
    pub frontend_micros: u64,
    /// Gate admission (zero-duration marker today).
    pub gate_micros: u64,
    /// Bounded ordered-queue wait.
    pub queue_wait_micros: u64,
    /// Engine stage compute (impute + traverse + refine + merge, barrier
    /// waits excluded).
    pub compute_micros: u64,
    /// Shard-barrier waits.
    pub barrier_micros: u64,
    /// WAL append (unsynced).
    pub wal_micros: u64,
    /// Covering-fsync time amortized per covered batch.
    pub fsync_exposed_micros: u64,
    /// Standing-query notify fan-out.
    pub notify_micros: u64,
    /// Ack release → reply buffered.
    pub write_back_micros: u64,
    /// End-to-end time the spans did not explain (scheduling, channel
    /// hops, pool overhead).
    pub other_micros: u64,
}

/// Segment labels, in fold order (everything except `traces` and
/// `total_micros`).
pub const SEGMENTS: [&str; 10] = [
    "frontend",
    "gate",
    "queue_wait",
    "compute",
    "barrier",
    "wal",
    "fsync_exposed",
    "notify",
    "write_back",
    "other",
];

impl CriticalPath {
    pub const ZERO: CriticalPath = CriticalPath {
        traces: 0,
        total_micros: 0,
        frontend_micros: 0,
        gate_micros: 0,
        queue_wait_micros: 0,
        compute_micros: 0,
        barrier_micros: 0,
        wal_micros: 0,
        fsync_exposed_micros: 0,
        notify_micros: 0,
        write_back_micros: 0,
        other_micros: 0,
    };

    /// The attribution of a single trace.
    pub fn of(trace: &Trace) -> Self {
        let mut cp = Self::ZERO;
        cp.fold(trace);
        cp
    }

    /// Folds one trace into the table (see the type docs for the
    /// segment math).
    pub fn fold(&mut self, t: &Trace) {
        let fsync = t.span_dur(kind::FSYNC);
        let fsync_exposed = if t.covered > 1 {
            fsync / t.covered
        } else {
            fsync
        };
        let stages = t.span_dur(kind::IMPUTE)
            + t.span_dur(kind::TRAVERSE)
            + t.span_dur(kind::REFINE)
            + t.span_dur(kind::MERGE);
        // The traverse/refine laps include the barrier waits; count the
        // wait once, under its own segment.
        let barrier = t.span_dur(kind::BARRIER).min(stages);
        let compute = stages - barrier;
        let mut left = t.dur;
        let mut take = |want: u64| {
            let got = want.min(left);
            left -= got;
            got
        };
        self.frontend_micros += take(t.span_dur(kind::FRONTEND));
        self.gate_micros += take(t.span_dur(kind::GATE));
        self.queue_wait_micros += take(t.span_dur(kind::QUEUE_WAIT));
        self.compute_micros += take(compute);
        self.barrier_micros += take(barrier);
        self.wal_micros += take(t.span_dur(kind::WAL));
        self.fsync_exposed_micros += take(fsync_exposed);
        self.notify_micros += take(t.span_dur(kind::NOTIFY));
        self.write_back_micros += take(t.span_dur(kind::WRITE_BACK));
        self.other_micros += left;
        self.traces += 1;
        self.total_micros += t.dur;
    }

    /// `(label, micros)` for every segment, in [`SEGMENTS`] order.
    pub fn segments(&self) -> [(&'static str, u64); 10] {
        [
            ("frontend", self.frontend_micros),
            ("gate", self.gate_micros),
            ("queue_wait", self.queue_wait_micros),
            ("compute", self.compute_micros),
            ("barrier", self.barrier_micros),
            ("wal", self.wal_micros),
            ("fsync_exposed", self.fsync_exposed_micros),
            ("notify", self.notify_micros),
            ("write_back", self.write_back_micros),
            ("other", self.other_micros),
        ]
    }

    /// Sum of every segment — equals `total_micros` for any table built
    /// by [`CriticalPath::fold`].
    pub fn segment_sum(&self) -> u64 {
        self.segments().iter().map(|(_, v)| v).sum()
    }

    /// Field-wise difference against an earlier snapshot of the same
    /// cumulative table (saturating — safe across a [`reset`]).
    pub fn delta(&self, prev: &CriticalPath) -> CriticalPath {
        CriticalPath {
            traces: self.traces.saturating_sub(prev.traces),
            total_micros: self.total_micros.saturating_sub(prev.total_micros),
            frontend_micros: self.frontend_micros.saturating_sub(prev.frontend_micros),
            gate_micros: self.gate_micros.saturating_sub(prev.gate_micros),
            queue_wait_micros: self
                .queue_wait_micros
                .saturating_sub(prev.queue_wait_micros),
            compute_micros: self.compute_micros.saturating_sub(prev.compute_micros),
            barrier_micros: self.barrier_micros.saturating_sub(prev.barrier_micros),
            wal_micros: self.wal_micros.saturating_sub(prev.wal_micros),
            fsync_exposed_micros: self
                .fsync_exposed_micros
                .saturating_sub(prev.fsync_exposed_micros),
            notify_micros: self.notify_micros.saturating_sub(prev.notify_micros),
            write_back_micros: self
                .write_back_micros
                .saturating_sub(prev.write_back_micros),
            other_micros: self.other_micros.saturating_sub(prev.other_micros),
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
    start: [AtomicU64; kind::NKINDS],
    dur: [AtomicU64; kind::NKINDS],
}

impl Slot {
    const fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            covered: AtomicU64::new(0),
            start: [const { AtomicU64::new(0) }; kind::NKINDS],
            dur: [const { AtomicU64::new(0) }; kind::NKINDS],
        }
    }
}

static PENDING: [Slot; SLOTS] = [const { Slot::new() }; SLOTS];

/// The step driver's current batch (`seq + 1`; 0 = none) — the route by
/// which code that doesn't carry a batch sequence (stage kernels,
/// notify fan-out) reaches the right slot.
static CURRENT: AtomicU64 = AtomicU64::new(0);

/// Epoch-micros stamp of the last anomalous flight event (PANIC, Busy
/// backpressure, subscriber shed); 0 = none yet. Written by
/// [`crate::flight`].
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

/// Called by [`crate::flight`] when an anomalous event (panic,
/// backpressure rejection, subscriber shed) is recorded.
pub(crate) fn note_anomaly() {
    ANOMALY.store(crate::epoch_micros().max(1), Relaxed);
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
    for k in 0..kind::NKINDS {
        slot.start[k].store(0, Relaxed);
        slot.dur[k].store(0, Relaxed);
    }
    slot.start[kind::ROOT as usize].store(start_us, Relaxed);
}

/// Records (or accumulates into) batch `seq`'s span of `k`: the start
/// sticks on first write, the duration accumulates. No-op when the slot
/// is not tracing `seq` — a layer fed outside a traced batch (library
/// WAL use, recovery replay) costs one relaxed load.
pub fn add(seq: u64, k: u8, start_us: u64, dur_us: u64) {
    if !enabled() {
        return;
    }
    let slot = slot_for(seq);
    if slot.seq.load(Relaxed) != seq + 1 {
        return;
    }
    let ki = k as usize;
    if slot.start[ki].load(Relaxed) == 0 {
        slot.start[ki].store(start_us.max(1), Relaxed);
    }
    slot.dur[ki].fetch_add(dur_us, Relaxed);
}

/// [`add`] with the start back-computed as `now - dur_us` — for layers
/// that timed themselves with [`crate::timer`].
pub fn add_elapsed(seq: u64, k: u8, dur_us: u64) {
    if !enabled() {
        return;
    }
    add(
        seq,
        k,
        crate::epoch_micros().saturating_sub(dur_us).max(1),
        dur_us,
    );
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

/// The current batch sequence, if a step is driving one.
pub fn current() -> Option<u64> {
    CURRENT.load(Relaxed).checked_sub(1)
}

/// [`add`] against the current batch (no-op without one).
pub fn add_current(k: u8, start_us: u64, dur_us: u64) {
    if let Some(seq) = current() {
        add(seq, k, start_us, dur_us);
    }
}

/// [`add_elapsed`] against the current batch (no-op without one).
pub fn add_current_elapsed(k: u8, dur_us: u64) {
    if let Some(seq) = current() {
        add_elapsed(seq, k, dur_us);
    }
}

/// Library-mode self-rooting: when no outer driver owns a trace (no
/// current batch), open one for `seq` and claim the register. Returns
/// whether this call rooted — the caller that rooted must also
/// [`end_current`]. In daemon mode the serve step stage owns the trace
/// and this is a no-op.
pub fn root_if_unattached(seq: u64) -> bool {
    if !enabled() || current().is_some() {
        return false;
    }
    begin(seq, now());
    set_current(seq);
    true
}

/// Ends the current batch's trace (the self-rooted library path).
pub fn end_current() {
    if let Some(seq) = current() {
        clear_current();
        end(seq, now());
    }
}

/// Writes the shared covering-fsync span into every batch in
/// `[first_seq, first_seq + covered)` — one fsync, linked from every
/// batch it made durable.
pub fn fsync_covering(first_seq: u64, covered: u64, dur_us: u64) {
    if !enabled() || covered == 0 {
        return;
    }
    let start = crate::epoch_micros().saturating_sub(dur_us).max(1);
    for seq in first_seq..first_seq.saturating_add(covered) {
        add(seq, kind::FSYNC, start, dur_us);
        let slot = slot_for(seq);
        if slot.seq.load(Relaxed) == seq + 1 {
            slot.covered.store(covered, Relaxed);
        }
    }
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
    let mut spans = Vec::with_capacity(kind::NKINDS);
    spans.push(Span {
        batch_seq: seq,
        kind: kind::ROOT,
        parent: kind::ROOT,
        start: root_start,
        dur: end_us.saturating_sub(root_start),
    });
    for k in 1..kind::NKINDS {
        let start = slot.start[k].load(Relaxed);
        let dur = slot.dur[k].load(Relaxed);
        if start == 0 && dur == 0 {
            continue;
        }
        spans.push(Span {
            batch_seq: seq,
            kind: k as u8,
            parent: kind::PARENT[k],
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
            attr: CriticalPath::ZERO,
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
