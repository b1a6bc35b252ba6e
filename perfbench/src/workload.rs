//! Workload inputs and the in-process drive shared by every workload:
//! dataset generation, the offline context, the sequential oracle, and
//! one feed of the stream through `ShardedTerIdsEngine` with the store and
//! the standing queries attached where the plan says.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ter_datasets::{co_window_pairs, preset, Dataset, GenOptions, Preset};
use ter_exec::{ExecConfig, ShardedTerIdsEngine};
use ter_ids::meta::AuxLayout;
use ter_ids::{delta_between, EngineState, ErProcessor, Params, PruneStats, PruningMode};
use ter_ids::{TerContext, TerIdsEngine};
use ter_query::{evaluate, fold_notification, BatchDelta, Pattern, StandingQuery};
use ter_repo::{DrIndex, PivotConfig, PivotTable};
use ter_rules::{detect_cdds, detect_dds, detect_editing_rules, CddIndex, DiscoveryConfig};
use ter_store::{context_fingerprint, CompactionPolicy, TerStore};
use ter_stream::Arrival;
use ter_text::fxhash::FxHashSet;
use ter_text::KeywordSet;

use crate::layers::STEP_SPAN;
use crate::measure::{process_cpu, Tracer, NO_BATCH};

/// One benchmark workload: a generated stream and how it is fed.
pub struct Workload {
    pub name: &'static str,
    pub preset: Preset,
    /// Generator stream-size multiplier.
    pub scale: f64,
    /// Window size `w`.
    pub window: usize,
    /// Missing rate `ξ`.
    pub missing_rate: f64,
    /// Repository size ratio `η`.
    pub repo_ratio: f64,
    /// Arrivals per `step_batch` call / ingest request.
    pub batch: usize,
    /// Datasets generated per run, each from its own seed derived from
    /// the run's seed; the run's time is split evenly between them, so a
    /// run's figures average over several streams instead of one.
    pub datasets: usize,
    /// The one-shot query: milliseconds of work, not transport.
    pub oneshot: &'static str,
    /// Whether the feed logs every batch to a store (WAL with an fsync
    /// per batch, delta checkpoints every [`CKPT_EVERY`] batches).
    pub durable: bool,
}

/// Checkpoint cadence of a durable feed, the daemon and the crash image,
/// in batches.
pub const CKPT_EVERY: u64 = 8;

/// A durable feed's crash image keeps at least this many batches of WAL
/// past its last checkpoint.
pub const CRASH_SUFFIX: usize = 12;

/// Generator seed of a run's `k`-th dataset.
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(16).wrapping_add(k as u64)
}

pub const IMPUTE_HEAVY: Workload = Workload {
    name: "impute_heavy",
    preset: Preset::Songs,
    scale: 2.0,
    window: 400,
    missing_rate: 0.6,
    repo_ratio: 1.2,
    batch: 64,
    datasets: 4,
    oneshot: CROSS_PAIRS,
    durable: false,
};

pub const DURABLE_FEED: Workload = Workload {
    name: "durable_feed",
    preset: Preset::Anime,
    scale: 8.0,
    window: 1000,
    missing_rate: 0.3,
    repo_ratio: 0.03,
    batch: 64,
    datasets: 4,
    oneshot: RESULT_JOIN,
    durable: true,
};

/// Inline, single-threaded sharded engine (8 shards, 1 thread).
pub fn exec_config() -> ExecConfig {
    ExecConfig::new(8, 1)
}

/// The standing queries: two patterns, each subscribed twice.
pub const STANDING: [&str; 4] = [
    "match(a, b) where topical(a)",
    "match(a, b) where topical(a)",
    "match(a, b), match(b, c) -> a",
    "match(a, b), match(b, c) -> a",
];

/// The one-shot query where the live result set is large: the live
/// results joined with the topical part of the window.
const RESULT_JOIN: &str = "match(a, b), live(c) where topical(c)";

/// The one-shot query where the live result set holds a handful of pairs
/// (`w` = 400), so a join on it would measure how many happen to be live:
/// every cross-stream pair of live tuples, `(w/2)²` rows.
const CROSS_PAIRS: &str = "live(a), live(b) where stream(a) = 0, stream(b) = 1";

/// One one-shot query every this many batches of the timed phase.
pub const QUERY_EVERY: usize = 4;

/// Batch phase of the one-shot queries within [`QUERY_EVERY`]. On the
/// daemon, a query right after a checkpoint-due batch (batch index 7
/// mod 8) waits behind the checkpoint; phase 1 never lands there.
pub const QUERY_PHASE: usize = 1;

/// One library recovery from the crash image every this many batches of
/// the timed phase, at a phase the one-shot queries never take, so the
/// recoveries spread over the whole run like every other sample.
pub const RECOVER_EVERY: usize = 24;
pub const RECOVER_PHASE: usize = 3;

/// Timed feeds per dataset at the least, however short its share of
/// the run, so a dataset's figures never come from one stretch of it.
pub const MIN_FEEDS: usize = 2;

/// Batches of WAL the library crash image keeps past its checkpoint.
pub const IMAGE_SUFFIX: usize = 8;

/// Everything generated from the seed. Nothing here is timed.
pub struct Inputs {
    pub dataset: Dataset,
    pub keywords: KeywordSet,
    pub arrivals: Vec<Arrival>,
    pub groundtruth: FxHashSet<(u64, u64)>,
    pub params: Params,
}

impl Inputs {
    pub fn generate(w: &Workload, seed: u64) -> Self {
        let mut params = Params {
            window: w.window,
            ..Params::default()
        };
        params.impute.max_candidates_per_attr = 24;
        let opts = GenOptions {
            missing_rate: w.missing_rate,
            repo_ratio: w.repo_ratio,
            scale: w.scale,
            seed,
            ..GenOptions::default()
        };
        let dataset = preset(w.preset, &opts);
        let keywords = dataset.keywords();
        let arrivals = dataset.streams.arrivals();
        let groundtruth = match w.preset {
            Preset::Citations | Preset::Songs => co_window_pairs(
                &dataset.paper_groundtruth(params.rho, &keywords),
                &arrivals,
                params.window,
            ),
            _ => threshold_pairs_in_window(&dataset, &keywords, params.rho, params.window),
        };
        Self {
            dataset,
            keywords,
            arrivals,
            groundtruth,
            params,
        }
    }

    pub fn batches(&self, w: &Workload) -> Vec<&[Arrival]> {
        self.arrivals.chunks(w.batch).collect()
    }

    /// `TerContext::build` plus engine construction, timed; the input
    /// clones happen before the clock starts.
    pub fn build_context(&self) -> (TerContext, Duration) {
        let (repo, keywords) = (self.dataset.repo.clone(), self.keywords.clone());
        let t = Instant::now();
        let ctx = TerContext::build(
            repo,
            keywords,
            &PivotConfig::default(),
            &DiscoveryConfig::default(),
            self.params.fanout,
        );
        let engine = ShardedTerIdsEngine::new(&ctx, self.params, PruningMode::Full, exec_config());
        std::hint::black_box(&engine);
        drop(engine);
        (ctx, t.elapsed())
    }

    /// The same build as `TerContext::build`, one span per step.
    pub fn build_context_traced(&self, tr: &mut Tracer) -> TerContext {
        let (repo, keywords) = (self.dataset.repo.clone(), self.keywords.clone());
        let root = tr.begin("bench.context", NO_BATCH);
        let pivots = tr.span("ter_repo.pivots", NO_BATCH, || {
            PivotTable::select(&repo, &PivotConfig::default())
        });
        let layout = AuxLayout::new(&pivots);
        let aux_counts = (0..pivots.arity()).map(|j| pivots.aux_count(j)).collect();
        let cfg = DiscoveryConfig::default();
        let cdds = tr.span("ter_rules.discover_cdd", NO_BATCH, || {
            detect_cdds(&repo, &cfg)
        });
        let (dds, editing_rules) = tr.span("ter_rules.discover_baseline", NO_BATCH, || {
            (detect_dds(&repo, &cfg), detect_editing_rules(&repo, &cfg))
        });
        let (cdd_indexes, dr_index) = tr.span("ter_repo.index_build", NO_BATCH, || {
            let d = repo.schema().arity();
            let cdd_indexes: Vec<CddIndex> =
                (0..d).map(|j| CddIndex::build(j, &cdds, &pivots)).collect();
            let dr_index = DrIndex::build(&repo, &pivots, &keywords, self.params.fanout);
            (cdd_indexes, dr_index)
        });
        tr.end(root);
        TerContext {
            repo,
            pivots,
            layout,
            aux_counts,
            cdds,
            dds,
            editing_rules,
            cdd_indexes,
            dr_index,
            keywords,
        }
    }
}

/// `co_window_pairs(groundtruth_by_threshold(..))` without the all-pairs
/// pass: the Equation-2 pairs of the clean streams, compared only within
/// one window of each other.
fn threshold_pairs_in_window(
    dataset: &Dataset,
    keywords: &KeywordSet,
    rho: f64,
    window: usize,
) -> FxHashSet<(u64, u64)> {
    let gamma = rho * dataset.schema.arity() as f64;
    let clean = dataset.clean_streams.arrivals();
    let topical: Vec<bool> = clean
        .iter()
        .map(|a| keywords.matches(&a.record.all_tokens()))
        .collect();
    let mut out = FxHashSet::default();
    for (i, a) in clean.iter().enumerate() {
        for (j, b) in clean.iter().enumerate().take(i + window).skip(i + 1) {
            if a.stream_id != b.stream_id
                && (topical[i] || topical[j])
                && a.record.similarity(&b.record) > gamma
            {
                let (x, y) = (a.record.id, b.record.id);
                out.insert((x.min(y), x.max(y)));
            }
        }
    }
    out
}

/// What the checks need from the sequential reference engine, run over
/// the whole stream outside any timed phase. The engine itself is dropped
/// before any feed, so it is never live beside the engine under test.
/// Given an image directory, the same pass also writes a crash image
/// there: a full checkpoint [`IMAGE_SUFFIX`] batches before the end, the
/// WAL of the batches after it, and no final checkpoint.
pub struct Oracle {
    pub per_arrival: Vec<Vec<(u64, u64)>>,
    /// The final live result set, sorted.
    pub results: Vec<(u64, u64)>,
    /// `evaluate` of each of the `queries` given to [`Oracle::run`] on
    /// the final state.
    pub rows: Vec<Vec<Vec<u64>>>,
}

impl Oracle {
    pub fn run(
        ctx: &TerContext,
        inputs: &Inputs,
        queries: &[&str],
        image: Option<(&Path, usize)>,
    ) -> Result<Self, String> {
        let mut engine = TerIdsEngine::new(ctx, inputs.params, PruningMode::Full);
        let batch = image.map_or(inputs.arrivals.len().max(1), |(_, b)| b);
        let cut = inputs
            .arrivals
            .len()
            .div_ceil(batch)
            .saturating_sub(IMAGE_SUFFIX);
        let mut store: Option<TerStore> = None;
        let mut per_arrival = Vec::with_capacity(inputs.arrivals.len());
        for (b, chunk) in inputs.arrivals.chunks(batch).enumerate() {
            if let Some((dir, _)) = image.filter(|_| b == cut) {
                let _ = std::fs::remove_dir_all(dir);
                let fingerprint = context_fingerprint(ctx, &inputs.params);
                let mut s = TerStore::open(dir, fingerprint).map_err(|e| e.to_string())?;
                s.checkpoint(&engine.export_state())
                    .map_err(|e| e.to_string())?;
                store = Some(s);
            }
            if let Some(s) = store.as_mut() {
                s.log_batch(chunk).map_err(|e| e.to_string())?;
            }
            per_arrival.extend(chunk.iter().map(|a| engine.process(a).new_matches));
        }
        // Dropped without a final checkpoint: the on-disk state a SIGKILL
        // after the last ack leaves.
        drop(store);
        let mut results: Vec<(u64, u64)> = engine.results().iter().collect();
        results.sort_unstable();
        let rows = queries
            .iter()
            .map(|q| evaluate(&Pattern::parse(q).expect("query parses"), &engine))
            .collect();
        Ok(Self {
            per_arrival,
            results,
            rows,
        })
    }
}

/// How a feed runs. A durable workload's feed logs every batch to a
/// store from the first one, with cadence checkpoints every
/// [`CKPT_EVERY`] batches delta-chained onto a full base, none within
/// [`CRASH_SUFFIX`] batches of the end. The standing queries are
/// maintained over the whole feed, the one-shot query runs every
/// [`QUERY_EVERY`] batches of its timed phase, and a recovery from the
/// crash image, if there is one, every [`RECOVER_EVERY`].
pub struct DrivePlan {
    /// Re-evaluate each standing pattern from scratch after every batch
    /// (traced runs: the maintain-vs-reeval ratio).
    pub reeval: bool,
    /// Crash image to recover from during the timed phase.
    pub recover_image: Option<PathBuf>,
}

/// One checkpoint write: time, bytes, and live tuples (full) or churn
/// (delta) it covered.
pub struct CkptWrite {
    pub took: Duration,
    pub bytes: u64,
    pub covers: usize,
}

/// What one feed did and measured.
#[derive(Default)]
pub struct DriveOut {
    /// Match list per arrival, whole stream.
    pub per_arrival: Vec<Vec<(u64, u64)>>,
    /// `step_batch` wall time per batch.
    pub step: Vec<Duration>,
    /// The batch's own cost: WAL append, step, and the export and diff
    /// of a due checkpoint (no fsync, no checkpoint write).
    pub batch: Vec<Duration>,
    /// Batches after the window first filled, to the end of the feed.
    pub timed: Range<usize>,
    /// Arrivals in the timed batches.
    pub timed_arrivals: usize,
    /// Wall and process CPU time of the timed batches, less the time
    /// spent in the standing and one-shot queries and the recoveries (and
    /// the wall time of the WAL fsyncs and checkpoint writes).
    pub timed_wall: Duration,
    pub timed_cpu: Duration,
    pub timed_stats: PruneStats,
    /// Batch start → every standing query's delta computed, for timed
    /// batches whose delta is non-empty.
    pub notify: Vec<Duration>,
    pub notify_events: u64,
    pub notify_rows: u64,
    /// `apply_batch` time summed over the standing queries, per batch.
    pub maintain: Vec<Duration>,
    /// From-scratch evaluation of one standing pattern (traced runs).
    pub reeval: Vec<Duration>,
    /// One-shot queries within the timed batches.
    pub query: Vec<Duration>,
    /// Recoveries from the crash image within the timed batches: whole
    /// time, and the open + recover + import and replay parts summed,
    /// with the arrivals replayed.
    pub recovery: Vec<Duration>,
    pub recover_open: Duration,
    pub recover_replay: Duration,
    pub replayed: usize,
    /// The first recovered state; every later one must equal it.
    pub recovered: Option<EngineState>,
    pub recovery_mismatches: usize,
    /// Standing folds that differed from a from-scratch evaluation at
    /// the end.
    pub fold_mismatches: usize,
    pub wal_append: Vec<Duration>,
    pub wal_sync: Vec<Duration>,
    pub wal_fsyncs: u64,
    pub wal_batches: u64,
    pub ckpt_full: Vec<CkptWrite>,
    pub ckpt_delta: Vec<CkptWrite>,
    pub f_score: f64,
    pub reported_len: usize,
    pub final_state: EngineState,
}

/// The stretch of a feed from the window first filling to its end, with
/// the query, recovery and disk time inside it that is not the feed's.
#[derive(Default)]
struct TimedPhase {
    start: Option<(usize, Instant, Duration, PruneStats)>,
    side_wall: Duration,
    side_cpu: Duration,
}

impl TimedPhase {
    fn open_if_full(&mut self, b: usize, engine: &ShardedTerIdsEngine<'_>) {
        if self.start.is_none() && engine.window_len() == engine.window_capacity() {
            self.start = Some((b, Instant::now(), process_cpu(), engine.prune_stats()));
        }
    }

    fn contains(&self, b: usize) -> bool {
        self.start.is_some_and(|(s, ..)| b >= s)
    }

    fn close(
        &self,
        b: usize,
        batches: &[&[Arrival]],
        engine: &ShardedTerIdsEngine<'_>,
        out: &mut DriveOut,
    ) {
        let Some((start, t0, cpu0, s0)) = self.start else {
            out.timed = b..b;
            return;
        };
        out.timed = start..b;
        out.timed_arrivals = batches[start..b].iter().map(|b| b.len()).sum();
        out.timed_wall = t0.elapsed().saturating_sub(self.side_wall);
        out.timed_cpu = process_cpu()
            .saturating_sub(cpu0)
            .saturating_sub(self.side_cpu);
        let s1 = engine.prune_stats();
        out.timed_stats = PruneStats {
            total_pairs: s1.total_pairs - s0.total_pairs,
            topic: s1.topic - s0.topic,
            sim: s1.sim - s0.sim,
            prob: s1.prob - s0.prob,
            instance: s1.instance - s0.instance,
            matches: s1.matches - s0.matches,
        };
    }
}

/// Feeds the whole stream through a fresh sharded engine. Store files go
/// to `store_dir`, which is left holding the crash image (WAL past the
/// last checkpoint, no shutdown checkpoint).
#[allow(clippy::too_many_arguments)]
pub fn drive(
    ctx: &TerContext,
    inputs: &Inputs,
    w: &Workload,
    plan: &DrivePlan,
    store_dir: &Path,
    tr: &mut Tracer,
    mut probe: impl FnMut(&ShardedTerIdsEngine<'_>, &mut Tracer),
) -> Result<DriveOut, String> {
    let params = inputs.params;
    let batches = inputs.batches(w);
    let n = batches.len();
    let mut engine = ShardedTerIdsEngine::new(ctx, params, PruningMode::Full, exec_config());
    let mut out = DriveOut::default();
    let mut timed = TimedPhase::default();

    let patterns: Vec<Pattern> = STANDING
        .iter()
        .map(|p| Pattern::parse(p).expect("standing pattern parses"))
        .collect();
    let oneshot = Pattern::parse(w.oneshot).expect("one-shot pattern parses");
    let mut standing: Vec<StandingQuery> =
        patterns.iter().cloned().map(StandingQuery::new).collect();
    let mut folds: Vec<std::collections::BTreeSet<Vec<u64>>> = standing
        .iter_mut()
        .map(|q| q.seed(&engine).into_iter().collect())
        .collect();

    let mut store: Option<TerStore> = None;
    if w.durable {
        let _ = std::fs::remove_dir_all(store_dir);
        let fingerprint = context_fingerprint(ctx, &params);
        let mut s = TerStore::open(store_dir, fingerprint).map_err(|e| e.to_string())?;
        s.set_compaction(CompactionPolicy::two_generation());
        store = Some(s);
    }
    let mut last_state = EngineState::default();
    let ckpt_upto = n.saturating_sub(CRASH_SUFFIX);
    for (b, &batch) in batches.iter().enumerate() {
        timed.open_if_full(b, &engine);
        let in_timed = timed.contains(b);
        let span = tr.begin("bench.batch", b as u32);
        let mut seq = b as u64;
        // The batch's own cost: WAL append, step, and the export and diff
        // of a due checkpoint. The fsync and the checkpoint write are the
        // disk's; they are timed on their own and, like the queries, taken
        // out of the timed phase's wall time.
        let mut cost = Duration::ZERO;
        let mut disk = Duration::ZERO;
        if let Some(store) = store.as_mut() {
            let s = tr.begin("ter_store.wal_append", b as u32);
            let t = Instant::now();
            seq = store.log_batch_nosync(batch).map_err(|e| e.to_string())?;
            out.wal_append.push(t.elapsed());
            cost += t.elapsed();
            tr.end(s);
            let s = tr.begin("ter_store.wal_sync", b as u32);
            let t = Instant::now();
            store.sync_wal().map_err(|e| e.to_string())?;
            out.wal_sync.push(t.elapsed());
            disk += t.elapsed();
            tr.end(s);
            out.wal_batches += 1;
        }

        let s = tr.begin(STEP_SPAN, b as u32);
        let tb = Instant::now();
        let outputs = engine.step_batch(batch);
        out.step.push(tb.elapsed());
        cost += tb.elapsed();
        tr.end(s);

        // The queries and recoveries: timed on their own and taken out
        // of the timed phase's wall and CPU time.
        let (q_wall, q_cpu) = (Instant::now(), process_cpu());
        let s = tr.begin("ter_query.apply_batch", b as u32);
        let delta = BatchDelta::from_steps(batch, &outputs);
        let mut rows = 0u64;
        let mut spent = Duration::ZERO;
        for (q, fold) in standing.iter_mut().zip(&mut folds) {
            let t = Instant::now();
            let (added, retracted) = q.apply_batch(&engine, &delta);
            spent += t.elapsed();
            if !added.is_empty() || !retracted.is_empty() {
                out.notify_events += 1;
                rows += (added.len() + retracted.len()) as u64;
            }
            fold_notification(fold, &added, &retracted);
        }
        let notified = tb.elapsed();
        tr.end(s);
        out.maintain.push(spent);
        if rows > 0 && in_timed {
            out.notify.push(notified);
        }
        out.notify_rows += rows;
        if plan.reeval {
            let t = tr.begin("ter_query.reeval", b as u32);
            let t0 = Instant::now();
            std::hint::black_box(evaluate(&patterns[0], &engine));
            out.reeval.push(t0.elapsed());
            tr.end(t);
        }
        if in_timed && b % QUERY_EVERY == QUERY_PHASE {
            let s = tr.begin("ter_query.oneshot", b as u32);
            let t = Instant::now();
            std::hint::black_box(evaluate(&oneshot, &engine));
            out.query.push(t.elapsed());
            tr.end(s);
        }
        if let Some(image) = plan.recover_image.as_deref() {
            if in_timed && b % RECOVER_EVERY == RECOVER_PHASE {
                let s = tr.begin("ter_store.recover", b as u32);
                let t = Instant::now();
                let (state, open, replay, n) = recover(ctx, params, image)?;
                out.recovery.push(t.elapsed());
                tr.end(s);
                out.recover_open += open;
                out.recover_replay += replay;
                out.replayed += n;
                match &out.recovered {
                    Some(first) if *first != state => out.recovery_mismatches += 1,
                    Some(_) => {}
                    None => out.recovered = Some(state),
                }
            }
        }
        if in_timed {
            timed.side_wall += q_wall.elapsed();
            timed.side_cpu += process_cpu().saturating_sub(q_cpu);
        }
        out.per_arrival
            .extend(outputs.into_iter().map(|o| o.new_matches));

        let next_seq = seq + 1;
        if let Some(store) = store.as_mut() {
            if next_seq % CKPT_EVERY == 0 && b < ckpt_upto {
                let te = Instant::now();
                let state = engine.export_state();
                cost += te.elapsed();
                let t = Instant::now();
                if store.tip_seq().is_none() || store.needs_rebase() {
                    let s = tr.begin("ter_store.ckpt_full", b as u32);
                    let bytes = store
                        .checkpoint_at(next_seq, &state)
                        .map_err(|e| e.to_string())?;
                    disk += t.elapsed();
                    tr.end(s);
                    out.ckpt_full.push(CkptWrite {
                        took: t.elapsed(),
                        bytes,
                        covers: state.live_count(),
                    });
                } else {
                    let s = tr.begin("ter_store.ckpt_delta", b as u32);
                    let delta = delta_between(&last_state, &state)?;
                    cost += t.elapsed();
                    let tip = store.tip_seq().expect("a base exists");
                    let tw = Instant::now();
                    let bytes = store
                        .checkpoint_delta_at(tip, next_seq, &delta)
                        .map_err(|e| e.to_string())?;
                    disk += tw.elapsed();
                    tr.end(s);
                    out.ckpt_delta.push(CkptWrite {
                        took: t.elapsed(),
                        bytes,
                        covers: delta.churn(),
                    });
                }
                last_state = state;
            }
        }
        out.batch.push(cost);
        if in_timed {
            timed.side_wall += disk;
        }
        tr.end(span);
    }
    timed.close(n, &batches, &engine, &mut out);
    if let Some(store) = store {
        out.wal_fsyncs = store.wal_fsyncs();
        // Dropped without a final checkpoint: the on-disk state a SIGKILL
        // after the last ack leaves.
        drop(store);
    }
    drop(last_state);

    for (p, fold) in patterns.iter().zip(&folds) {
        if !fold.iter().eq(evaluate(p, &engine).iter()) {
            out.fold_mismatches += 1;
        }
    }
    probe(&engine, tr);
    out.f_score = ter_ids::evaluate(engine.reported(), &inputs.groundtruth).f_score;
    out.reported_len = engine.reported().len();
    out.final_state = engine.export_state();
    Ok(out)
}

/// Library-level recovery from a crash image: open, recover, import,
/// replay the WAL suffix, answer one read. Returns the recovered state,
/// the open+recover time, the replay time and the arrivals replayed.
pub fn recover(
    ctx: &TerContext,
    params: Params,
    dir: &Path,
) -> Result<(EngineState, Duration, Duration, usize), String> {
    let t = Instant::now();
    let store =
        TerStore::open(dir, context_fingerprint(ctx, &params)).map_err(|e| e.to_string())?;
    let rec = store.recover().map_err(|e| e.to_string())?;
    let mut engine = ShardedTerIdsEngine::new(ctx, params, PruningMode::Full, exec_config());
    if let Some(state) = &rec.state {
        engine.import_state(state)?;
    }
    let opened = t.elapsed();
    let t = Instant::now();
    let replayed = rec.replay_into(&mut engine);
    let replay = t.elapsed();
    Ok((engine.export_state(), opened, replay, replayed))
}

/// Where a run keeps its files, inside the working directory.
pub const OUT_DIR: &str = ".perfbench_tmp";

/// This process's scratch directory; removed when the run ends.
pub fn scratch_root() -> PathBuf {
    PathBuf::from(OUT_DIR).join(std::process::id().to_string())
}

/// A store directory under [`scratch_root`].
pub fn scratch_dir(tag: &str) -> PathBuf {
    scratch_root().join(tag)
}

/// Where a traced run writes its spans (kept after the run).
pub fn spans_path(workload: &str) -> PathBuf {
    PathBuf::from(OUT_DIR).join(format!("spans-{workload}.tsv"))
}
