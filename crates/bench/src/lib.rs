//! Shared harness for regenerating every table and figure of the paper's
//! evaluation (§6 and Appendix C). Each `benches/figNN_*.rs` target is a
//! `harness = false` binary that prints the same rows/series the paper
//! plots; `benches/micro.rs` holds criterion micro-benchmarks.
//!
//! Scaling: the paper's testbed ran minutes-long streams over real data;
//! this harness runs generated analogs scaled via [`BenchScale`] so a full
//! `cargo bench` finishes in minutes while preserving the comparisons'
//! *shape* (who wins, how curves move with each parameter). Set
//! `TER_BENCH_SCALE=1.0` for a slower, larger run.

use std::time::Instant;

use ter_datasets::{co_window_pairs, preset, Dataset, GenOptions, Preset};
use ter_ids::{
    evaluate, ErProcessor, NaiveEngine, Params, PhaseTiming, PruneStats, PruningMode, TerContext,
    TerIdsEngine,
};
use ter_repo::PivotConfig;
use ter_rules::DiscoveryConfig;
use ter_stream::Arrival;

/// The six compared methods, in the paper's legend order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// The full approach (all indexes + all pruning).
    TerIds,
    /// Indexes without the join-time pair pruning.
    IjGer,
    /// CDD imputation without indexes.
    CddEr,
    /// DD-rule imputation.
    DdEr,
    /// Editing-rule imputation.
    ErEr,
    /// Constraint-based (window) imputation.
    ConEr,
}

impl Method {
    /// All methods, paper order.
    pub fn all() -> [Method; 6] {
        [
            Method::TerIds,
            Method::IjGer,
            Method::CddEr,
            Method::DdEr,
            Method::ErEr,
            Method::ConEr,
        ]
    }

    /// The methods whose F-score the paper reports in Figure 5(a)
    /// (the CDD-based ones share TER-iDS's score and are omitted there).
    pub fn accuracy_set() -> [Method; 4] {
        [Method::TerIds, Method::DdEr, Method::ErEr, Method::ConEr]
    }

    /// Paper label.
    pub fn name(&self) -> &'static str {
        match self {
            Method::TerIds => "TER-iDS",
            Method::IjGer => "Ij+GER",
            Method::CddEr => "CDD+ER",
            Method::DdEr => "DD+ER",
            Method::ErEr => "er+ER",
            Method::ConEr => "con+ER",
        }
    }
}

/// Result of one (dataset, method, parameters) run.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Method label.
    pub name: &'static str,
    /// Average wall-clock seconds per arriving tuple (the paper's
    /// per-timestamp metric).
    pub avg_secs: f64,
    /// F-score against the dataset's paper-convention ground truth.
    pub f_score: f64,
    /// Pruning counters (zero for baselines).
    pub stats: PruneStats,
    /// Per-phase breakdown.
    pub timing: PhaseTiming,
}

/// Global scale knobs (overridable via `TER_BENCH_SCALE`).
#[derive(Debug, Clone, Copy)]
pub struct BenchScale {
    /// Stream-size multiplier for the four smaller presets.
    pub scale: f64,
    /// Stream-size multiplier for Songs (largest preset).
    pub songs_scale: f64,
    /// Default window size.
    pub window: usize,
}

impl Default for BenchScale {
    fn default() -> Self {
        let factor: f64 = std::env::var("TER_BENCH_SCALE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.5);
        Self {
            scale: factor,
            songs_scale: factor * 0.5,
            window: ((400.0 * factor).round() as usize).max(40),
        }
    }
}

impl BenchScale {
    /// The generator scale for `p`.
    pub fn for_preset(&self, p: Preset) -> f64 {
        if p == Preset::Songs {
            self.songs_scale
        } else {
            self.scale
        }
    }
}

/// One prepared experiment: dataset + offline pre-computation + arrivals.
pub struct Prepared {
    /// The generated dataset.
    pub dataset: Dataset,
    /// Offline pre-computation output.
    pub ctx: TerContext,
    /// Merged arrival order.
    pub arrivals: Vec<Arrival>,
    /// Paper-convention ground truth restricted to co-window pairs.
    pub groundtruth: ter_text::fxhash::FxHashSet<(u64, u64)>,
    /// Engine parameters.
    pub params: Params,
}

/// Generates a dataset and runs the offline phase.
///
/// The harness raises the imputation candidate cap from the library
/// default (8) to 24: the paper enumerates all suggested candidates, and
/// the resulting instance products are exactly what separates the pruned
/// engine from the nested-loop baselines in Figures 5(b) and 7–10.
pub fn prepare(p: Preset, opts: GenOptions, mut params: Params) -> Prepared {
    params.impute.max_candidates_per_attr = 24;
    let dataset = preset(p, &opts);
    let keywords = dataset.keywords();
    let ctx = TerContext::build(
        dataset.repo.clone(),
        keywords.clone(),
        &PivotConfig::default(),
        &DiscoveryConfig::default(),
        params.fanout,
    );
    let arrivals = dataset.streams.arrivals();
    let groundtruth = co_window_pairs(
        &dataset.paper_groundtruth(params.rho, &keywords),
        &arrivals,
        params.window,
    );
    Prepared {
        dataset,
        ctx,
        arrivals,
        groundtruth,
        params,
    }
}

/// Runs one method over a prepared experiment.
pub fn run_method(prepared: &Prepared, method: Method) -> MethodResult {
    let params = prepared.params;
    let mut processor: Box<dyn ErProcessor + '_> = match method {
        Method::TerIds => Box::new(TerIdsEngine::new(&prepared.ctx, params, PruningMode::Full)),
        Method::IjGer => Box::new(TerIdsEngine::new(
            &prepared.ctx,
            params,
            PruningMode::GridOnly,
        )),
        Method::CddEr => Box::new(NaiveEngine::cdd_er(&prepared.ctx, params)),
        Method::DdEr => Box::new(NaiveEngine::dd_er(&prepared.ctx, params)),
        Method::ErEr => Box::new(NaiveEngine::er_er(&prepared.ctx, params)),
        Method::ConEr => Box::new(NaiveEngine::con_er(&prepared.ctx, params)),
    };
    let start = Instant::now();
    for a in &prepared.arrivals {
        processor.process(a);
    }
    let elapsed = start.elapsed();
    let f_score = evaluate(processor.reported(), &prepared.groundtruth).f_score;
    MethodResult {
        name: method.name(),
        avg_secs: elapsed.as_secs_f64() / prepared.arrivals.len().max(1) as f64,
        f_score,
        stats: processor.prune_stats(),
        timing: processor.timing(),
    }
}

/// Runs several methods over one prepared experiment.
pub fn run_methods(prepared: &Prepared, methods: &[Method]) -> Vec<MethodResult> {
    methods.iter().map(|&m| run_method(prepared, m)).collect()
}

/// Provenance stamp for `BENCH_*.json` trajectory records: the git commit
/// the numbers were measured at and an ISO-8601 UTC timestamp, so the
/// perf trajectory in ROADMAP stays traceable to exact code states.
#[derive(Debug, Clone)]
pub struct RunStamp {
    /// `git rev-parse HEAD` of the working tree, or `"unknown"` outside a
    /// repository.
    pub git_commit: String,
    /// `YYYY-MM-DDTHH:MM:SSZ` at measurement time.
    pub generated_at: String,
}

impl RunStamp {
    /// Captures the current commit and time. A working tree with
    /// uncommitted changes gets a `-dirty` suffix — numbers measured
    /// mid-change must not masquerade as the parent commit's.
    pub fn capture() -> Self {
        let git = |args: &[&str]| {
            std::process::Command::new("git")
                .args(args)
                .current_dir(env!("CARGO_MANIFEST_DIR"))
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
        };
        let mut git_commit = git(&["rev-parse", "HEAD"])
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        if git_commit != "unknown"
            && git(&["status", "--porcelain"]).is_some_and(|s| !s.trim().is_empty())
        {
            git_commit.push_str("-dirty");
        }
        Self {
            git_commit,
            generated_at: iso8601_utc_now(),
        }
    }

    /// The stamp as JSON object fields (no surrounding braces), indented
    /// two spaces to slot into the `BENCH_*.json` layout.
    pub fn json_fields(&self) -> String {
        format!(
            "  \"git_commit\": \"{}\",\n  \"generated_at\": \"{}\",",
            self.git_commit, self.generated_at
        )
    }
}

/// Current UTC time as `YYYY-MM-DDTHH:MM:SSZ` (no chrono in this offline
/// workspace; civil-date conversion per Howard Hinnant's algorithm).
pub fn iso8601_utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (days, rem) = (secs / 86_400, secs % 86_400);
    let (y, m, d) = civil_from_days(days as i64);
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        (rem % 3600) / 60,
        rem % 60
    )
}

/// Days-since-epoch → (year, month, day) in the proleptic Gregorian
/// calendar.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Prints a figure header (and flushes).
pub fn header(figure: &str, description: &str) {
    println!("\n=== {figure}: {description} ===");
}

/// Prints one wall-clock row: dataset/param label + per-method seconds.
pub fn print_time_row(label: &str, results: &[MethodResult]) {
    print!("{label:<12}");
    for r in results {
        print!(" {:>10}", format!("{:.5}s", r.avg_secs));
    }
    println!();
}

/// Prints one F-score row.
pub fn print_fscore_row(label: &str, results: &[MethodResult]) {
    print!("{label:<12}");
    for r in results {
        print!(" {:>9.2}%", 100.0 * r.f_score);
    }
    println!();
}

/// Prints the method-name column header.
pub fn print_method_header(first_col: &str, methods: &[Method]) {
    print!("{first_col:<12}");
    for m in methods {
        print!(" {:>10}", m.name());
    }
    println!();
}

/// Which measurement a sweep reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Average wall-clock seconds per arrival (Figures 7–10, 16–17).
    Time,
    /// F-score (Figures 13–15).
    FScore,
}

/// Runs a one-parameter sweep over every preset and prints one sub-table
/// per dataset (matching the paper's five sub-figures per figure).
///
/// `configure` maps `(preset, value)` to the generator options and engine
/// parameters for that run.
pub fn sweep<V: Copy + std::fmt::Display>(
    figure: &str,
    desc: &str,
    values: &[V],
    methods: &[Method],
    metric: Metric,
    configure: impl Fn(Preset, V) -> (GenOptions, Params),
) {
    header(figure, desc);
    for p in Preset::all() {
        println!("\n--- {} ---", p.name());
        print_method_header("value", methods);
        for &v in values {
            let (opts, params) = configure(p, v);
            let prepared = prepare(p, opts, params);
            let results = run_methods(&prepared, methods);
            let label = format!("{v}");
            match metric {
                Metric::Time => print_time_row(&label, &results),
                Metric::FScore => print_fscore_row(&label, &results),
            }
        }
    }
}

/// Renders a critical-path attribution table as one JSON object — the
/// `critical_path` field `BENCH_serve.json` records, keyed exactly like
/// [`ter_obs::trace::SEGMENTS`] with a `_micros` suffix.
pub fn critical_path_json(cp: &ter_obs::trace::CriticalPath) -> String {
    let segs: Vec<String> = ter_obs::trace::SEGMENTS
        .iter()
        .zip(&cp.segments)
        .map(|(name, us)| format!("\"{name}_micros\": {us}"))
        .collect();
    format!(
        "{{\"traces\": {}, \"total_micros\": {}, {}}}",
        cp.traces,
        cp.total_micros,
        segs.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_and_run_smallest() {
        let scale = BenchScale {
            scale: 0.08,
            songs_scale: 0.05,
            window: 40,
        };
        let prepared = prepare(
            Preset::Citations,
            GenOptions {
                scale: scale.for_preset(Preset::Citations),
                ..GenOptions::default()
            },
            Params {
                window: scale.window,
                ..Params::default()
            },
        );
        let results = run_methods(&prepared, &[Method::TerIds, Method::ConEr]);
        assert_eq!(results.len(), 2);
        assert!(results[0].avg_secs > 0.0);
        assert!(results[0].f_score >= 0.0);
    }

    #[test]
    fn civil_date_conversion() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // leap year start
        assert_eq!(civil_from_days(19_782), (2024, 2, 29)); // leap day
        assert_eq!(civil_from_days(20_662), (2026, 7, 28));
    }

    #[test]
    fn stamp_shape() {
        let s = RunStamp::capture();
        assert!(!s.git_commit.is_empty());
        // ISO-8601: 2026-07-28T12:34:56Z
        assert_eq!(s.generated_at.len(), 20);
        assert!(s.generated_at.ends_with('Z'));
        assert_eq!(&s.generated_at[4..5], "-");
        assert_eq!(&s.generated_at[10..11], "T");
        assert!(s.json_fields().contains("\"git_commit\""));
        assert!(s.json_fields().contains("\"generated_at\""));
    }

    #[test]
    fn critical_path_json_shape() {
        let mut cp = ter_obs::trace::CriticalPath {
            traces: 2,
            total_micros: 100,
            ..Default::default()
        };
        cp.segments[ter_obs::trace::seg::COMPUTE] = 60;
        cp.segments[ter_obs::trace::seg::OTHER] = 40;
        let j = critical_path_json(&cp);
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"traces\": 2"));
        assert!(j.contains("\"total_micros\": 100"));
        assert!(j.contains("\"compute_micros\": 60"));
        // Every segment appears, zero or not — schema checkers rely on it.
        for name in ter_obs::trace::SEGMENTS {
            assert!(j.contains(&format!("\"{name}_micros\"")), "{name}");
        }
    }

    #[test]
    fn method_labels_match_paper() {
        let names: Vec<&str> = Method::all().iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            vec!["TER-iDS", "Ij+GER", "CDD+ER", "DD+ER", "er+ER", "con+ER"]
        );
    }
}
