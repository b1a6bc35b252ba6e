//! Measurement plumbing: sample statistics, process CPU and peak memory,
//! directory sizes, the span recorder behind the traced run, and the
//! one-line JSON report.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Nearest-rank percentile (`q` in `[0, 1]`) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Median of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn rusage_self() -> Rusage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit
    // Linux layout, and RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    ru
}

/// User + system CPU time of the whole process, all threads.
pub fn process_cpu() -> Duration {
    let ru = rusage_self();
    let micros = (ru.utime.sec + ru.stime.sec) * 1_000_000 + ru.utime.usec + ru.stime.usec;
    Duration::from_micros(micros.max(0) as u64)
}

/// Peak resident set of the process in MiB (`ru_maxrss`, the kernel's
/// `VmHWM`).
pub fn peak_rss_mib() -> f64 {
    rusage_self().maxrss_kib as f64 / 1024.0
}

/// Total bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Copies the regular files of `from` into a fresh directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.metadata()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// One recorded span: a call from the benchmark into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Batch the call served (`u32::MAX` for calls outside any batch).
    pub batch: u32,
}

/// In-memory span recorder. Disabled, every call is a no-op, so the
/// untraced run drives the same code.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle of an open span; `u32::MAX` when tracing is off.
#[derive(Clone, Copy)]
pub struct SpanId(u32);

pub const NO_BATCH: u32 = u32::MAX;

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `layer.call`, nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, batch: u32) -> SpanId {
        if !self.enabled {
            return SpanId(u32::MAX);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            batch,
        });
        self.open.push(idx);
        SpanId(idx)
    }

    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        self.spans[id.0 as usize].end_ns = now;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id.0), "spans must close innermost first");
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, batch: u32, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, batch);
        let r = f();
        self.end(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer (the span name up to its first `.`): each
    /// span's duration minus the part its direct children cover. Spans
    /// named in `skip` are left out.
    pub fn self_time_by_layer(&self, skip: &[&str]) -> Vec<(String, Duration)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_layer: Vec<(String, Duration)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if skip.contains(&s.name) {
                continue;
            }
            let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
            let own = Duration::from_nanos((s.end_ns - s.start_ns).saturating_sub(child_ns[i]));
            match by_layer.iter_mut().find(|(l, _)| *l == layer) {
                Some((_, d)) => *d += own,
                None => by_layer.push((layer, own)),
            }
        }
        by_layer
    }

    /// Writes every span as one tab-separated line.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("name\tstart_ns\tend_ns\tparent\tbatch\n");
        for s in &self.spans {
            let parent = s.parent.map_or(-1, i64::from);
            let batch = if s.batch == NO_BATCH {
                -1
            } else {
                i64::from(s.batch)
            };
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{parent}\t{batch}",
                s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// The result line: correctness, operation counts and named metrics.
pub struct Report {
    pub attempted: u64,
    /// Refused operations plus wrong or failed ones.
    pub failed: u64,
    /// Checks whose output was wrong or that failed outright.
    wrong: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn new() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            wrong: 0,
            errors: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Counts one operation; a failed one records `what` went wrong.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.wrong += 1;
            if self.errors.len() < 8 {
                self.errors.push(what());
            }
        }
    }

    /// Counts one operation the system refused (busy, shed): it failed,
    /// but nothing it answered was wrong.
    pub fn refuse(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        debug_assert!(
            self.metrics.iter().all(|(n, _, _)| *n != name),
            "metric {name} reported twice"
        );
        self.metrics.push((name, value, unit));
    }

    pub fn correct(&self) -> bool {
        self.wrong == 0
    }

    pub fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}
