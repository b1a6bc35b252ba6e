//! Metric sets: the end-to-end metrics every untraced run prints, the
//! per-layer metrics every traced run prints, and the probes that time
//! single layers from outside.

use std::time::{Duration, Instant};

use ter_exec::ShardedTerIdsEngine;
use ter_ids::{TerContext, TupleMeta};
use ter_serve::wire::{decode_reply, encode_ingest_seq, encode_reply};
use ter_serve::Reply;
use ter_stream::Arrival;
use ter_text::fxhash::FxHashSet;
use ter_text::TokenSet;

use crate::measure::{mean, median, ms, ratio, us, Report, Tracer};
use crate::workload::{CkptWrite, DriveOut, STANDING};

/// The end-to-end metrics, measured with tracing off. The sample vectors
/// hold the current dataset's samples.
#[derive(Default)]
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    pub timed_arrivals: u64,
    pub timed_wall: Duration,
    pub timed_cpu: Duration,
    pub batch_ms: Vec<f64>,
    pub notify_ms: Vec<f64>,
    pub query_ms: Vec<f64>,
    pub recovery_s: Vec<f64>,
    /// One value per feed (per dataset for `f_score`).
    pub disk_bytes_per_tuple: Vec<f64>,
    pub f_score: Vec<f64>,
    /// Per closed dataset, in [`SAMPLED`] order: the medians of
    /// `setup_s`, `batch_ms`, `notify_ms`,
    /// `query_ms` and `recovery_s`, and the means of
    /// `disk_bytes_per_tuple` and `f_score`.
    figures: Vec<[f64; SAMPLED.len()]>,
    /// Samples behind `figures`, in the same order.
    counts: [usize; SAMPLED.len()],
}

/// The end-to-end metrics taken from samples, each reported as the mean
/// over the run's datasets of that dataset's figure, so every dataset
/// weighs the same however many feeds fit in its share of the run.
const SAMPLED: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("batch_ms_p50", "ms"),
    ("notify_ms_p50", "ms"),
    ("query_ms_p50", "ms"),
    ("recovery_s", "s"),
    ("disk_bytes_per_tuple", "bytes"),
    ("f_score", "ratio"),
];

impl EndToEnd {
    /// Pools another feed's samples into these.
    pub fn absorb(&mut self, other: EndToEnd) {
        self.setup_s.extend(other.setup_s);
        self.timed_arrivals += other.timed_arrivals;
        self.timed_wall += other.timed_wall;
        self.timed_cpu += other.timed_cpu;
        self.batch_ms.extend(other.batch_ms);
        self.notify_ms.extend(other.notify_ms);
        self.query_ms.extend(other.query_ms);
        self.recovery_s.extend(other.recovery_s);
        self.disk_bytes_per_tuple.extend(other.disk_bytes_per_tuple);
        self.f_score.extend(other.f_score);
    }

    pub fn tuples_per_s(&self) -> f64 {
        ratio(self.timed_arrivals as f64, self.timed_wall.as_secs_f64())
    }

    /// Closes the current dataset: its sample figures are kept and its
    /// samples dropped. Streams of one workload differ in cost by up to
    /// 1.5× (the one-shot query on `impute_heavy` sits near 6.5 ms on some
    /// and 8.5 ms on others), so a percentile of the pooled samples jumps
    /// whenever a run's mix of streams tips one way; the mean over the
    /// datasets moves with the mix smoothly.
    pub fn end_dataset(&mut self) {
        use crate::measure::percentile;
        let samples = [
            std::mem::take(&mut self.setup_s),
            std::mem::take(&mut self.batch_ms),
            std::mem::take(&mut self.notify_ms),
            std::mem::take(&mut self.query_ms),
            std::mem::take(&mut self.recovery_s),
            std::mem::take(&mut self.disk_bytes_per_tuple),
            std::mem::take(&mut self.f_score),
        ];
        let mut figure = [0.0; SAMPLED.len()];
        for (i, ((name, _), s)) in SAMPLED.iter().zip(&samples).enumerate() {
            figure[i] = match *name {
                "disk_bytes_per_tuple" | "f_score" => mean(s),
                _ => percentile(s, 0.5),
            };
            self.counts[i] += s.len();
        }
        self.figures.push(figure);
    }

    pub fn emit(&self, rep: &mut Report) {
        let ok_share = 1.0 - ratio(rep.failed as f64, rep.attempted as f64);
        for (i, (name, unit)) in SAMPLED.iter().enumerate() {
            let per_dataset: Vec<f64> = self.figures.iter().map(|f| f[i]).collect();
            rep.put(name, mean(&per_dataset), unit);
        }
        rep.put("tuples_per_s", self.tuples_per_s(), "tuples/s");
        rep.put(
            "cpu_us_per_tuple",
            ratio(us(self.timed_cpu), self.timed_arrivals as f64),
            "us",
        );
        rep.put("peak_rss_mb", crate::measure::peak_rss_mib(), "MiB");
        rep.put("ok_share", ok_share, "ratio");
        let [setup, batch, notify, query, recovery, ..] = self.counts;
        eprintln!(
            "perfbench: {} datasets; samples: setup {setup}, batch {batch}, notify {notify}, \
             query {query}, recovery {recovery}",
            self.figures.len()
        );
    }
}

/// Every per-layer metric. A layer a workload does not exercise reads 0.
#[derive(Default)]
pub struct Layers {
    pub discover_cdd_s: f64,
    pub discover_baseline_s: f64,
    pub pivots_s: f64,
    pub index_build_s: f64,
    pub cdd_count: f64,
    pub select_us_per_tuple: f64,
    pub impute_us_per_tuple: f64,
    pub rules_per_incomplete: f64,
    pub instances_per_tuple: f64,
    pub repeat_key_share: f64,
    pub meta_us_per_tuple: f64,
    pub pairs_per_arrival: f64,
    pub pruned_topic_share: f64,
    pub pruned_sim_share: f64,
    pub pruned_prob_share: f64,
    pub rejected_instance_share: f64,
    pub match_yield: f64,
    pub live_ids_us: f64,
    pub reported_len: f64,
    pub export_state_ms: f64,
    pub state_bytes_per_live_tuple: f64,
    pub max_cell_share: f64,
    pub occupied_cells: f64,
    pub step_us_per_tuple: f64,
    pub er_us_per_tuple: f64,
    pub wal_append_us_per_batch: f64,
    pub wal_sync_us: f64,
    pub fsyncs_per_batch: f64,
    pub ckpt_full_ms: f64,
    pub ckpt_delta_ms: f64,
    pub full_bytes_per_live_tuple: f64,
    pub delta_bytes_per_churn: f64,
    pub recover_ms: f64,
    pub replay_us_per_tuple: f64,
    pub encode_us_per_batch: f64,
    pub decode_us_per_ack: f64,
    pub overhead_ms_p50: f64,
    pub busy_share: f64,
    pub maintain_us_per_batch: f64,
    pub reeval_ms: f64,
    pub maintain_over_reeval: f64,
    pub rows_per_notify: f64,
    pub shared_pattern_share: f64,
    pub oneshot_ms: f64,
    pub lagged: f64,
    pub traced_tuples_per_s: f64,
    pub untraced_tuples_per_s: f64,
    pub self_coverage: f64,
    /// Self time per layer over the traced feed, in [`SELF_LAYERS`] order.
    pub self_s: [f64; SELF_LAYERS.len()],
}

/// Layers whose self time the traced run reports, with the metric name.
const SELF_LAYERS: [(&str, &str); 8] = [
    ("ter_repo", "ter_repo.self_s"),
    ("ter_rules", "ter_rules.self_s"),
    ("ter_impute", "ter_impute.self_s"),
    ("ter_ids", "ter_ids.self_s"),
    ("ter_exec", "ter_exec.self_s"),
    ("ter_store", "ter_store.self_s"),
    ("ter_serve", "ter_serve.self_s"),
    ("ter_query", "ter_query.self_s"),
];

impl Layers {
    pub fn emit(&self, rep: &mut Report) {
        let l = self;
        rep.put("ter_rules.discover_cdd_s", l.discover_cdd_s, "s");
        rep.put("ter_rules.discover_baseline_s", l.discover_baseline_s, "s");
        rep.put("ter_repo.pivots_s", l.pivots_s, "s");
        rep.put("ter_repo.index_build_s", l.index_build_s, "s");
        rep.put("ter_rules.cdd_count", l.cdd_count, "count");
        rep.put(
            "ter_impute.select_us_per_tuple",
            l.select_us_per_tuple,
            "us",
        );
        rep.put(
            "ter_impute.impute_us_per_tuple",
            l.impute_us_per_tuple,
            "us",
        );
        rep.put(
            "ter_impute.rules_per_incomplete",
            l.rules_per_incomplete,
            "count",
        );
        rep.put(
            "ter_impute.instances_per_tuple",
            l.instances_per_tuple,
            "count",
        );
        rep.put("ter_impute.repeat_key_share", l.repeat_key_share, "ratio");
        rep.put("ter_ids.meta_us_per_tuple", l.meta_us_per_tuple, "us");
        rep.put("ter_ids.pairs_per_arrival", l.pairs_per_arrival, "count");
        rep.put("ter_ids.pruned_topic_share", l.pruned_topic_share, "ratio");
        rep.put("ter_ids.pruned_sim_share", l.pruned_sim_share, "ratio");
        rep.put("ter_ids.pruned_prob_share", l.pruned_prob_share, "ratio");
        rep.put(
            "ter_ids.rejected_instance_share",
            l.rejected_instance_share,
            "ratio",
        );
        rep.put("ter_ids.match_yield", l.match_yield, "ratio");
        rep.put("ter_ids.live_ids_us", l.live_ids_us, "us");
        rep.put("ter_ids.reported_len", l.reported_len, "count");
        rep.put("ter_ids.export_state_ms", l.export_state_ms, "ms");
        rep.put(
            "ter_ids.state_bytes_per_live_tuple",
            l.state_bytes_per_live_tuple,
            "bytes",
        );
        rep.put("ter_index.max_cell_share", l.max_cell_share, "ratio");
        rep.put("ter_index.occupied_cells", l.occupied_cells, "count");
        rep.put("ter_exec.step_us_per_tuple", l.step_us_per_tuple, "us");
        rep.put("ter_exec.er_us_per_tuple", l.er_us_per_tuple, "us");
        rep.put(
            "ter_store.wal_append_us_per_batch",
            l.wal_append_us_per_batch,
            "us",
        );
        rep.put("ter_store.wal_sync_us", l.wal_sync_us, "us");
        rep.put("ter_store.fsyncs_per_batch", l.fsyncs_per_batch, "ratio");
        rep.put("ter_store.ckpt_full_ms", l.ckpt_full_ms, "ms");
        rep.put("ter_store.ckpt_delta_ms", l.ckpt_delta_ms, "ms");
        rep.put(
            "ter_store.full_bytes_per_live_tuple",
            l.full_bytes_per_live_tuple,
            "bytes",
        );
        rep.put(
            "ter_store.delta_bytes_per_churn",
            l.delta_bytes_per_churn,
            "bytes",
        );
        rep.put("ter_store.recover_ms", l.recover_ms, "ms");
        rep.put("ter_store.replay_us_per_tuple", l.replay_us_per_tuple, "us");
        rep.put("ter_serve.encode_us_per_batch", l.encode_us_per_batch, "us");
        rep.put("ter_serve.decode_us_per_ack", l.decode_us_per_ack, "us");
        rep.put("ter_serve.overhead_ms_p50", l.overhead_ms_p50, "ms");
        rep.put("ter_serve.busy_share", l.busy_share, "ratio");
        rep.put(
            "ter_query.maintain_us_per_batch",
            l.maintain_us_per_batch,
            "us",
        );
        rep.put("ter_query.reeval_ms", l.reeval_ms, "ms");
        rep.put(
            "ter_query.maintain_over_reeval",
            l.maintain_over_reeval,
            "ratio",
        );
        rep.put("ter_query.rows_per_notify", l.rows_per_notify, "count");
        rep.put(
            "ter_query.shared_pattern_share",
            l.shared_pattern_share,
            "ratio",
        );
        rep.put("ter_query.oneshot_ms", l.oneshot_ms, "ms");
        rep.put("ter_query.lagged", l.lagged, "count");
        rep.put("trace.tuples_per_s", l.traced_tuples_per_s, "tuples/s");
        rep.put(
            "trace.overhead_tuples_per_s",
            l.untraced_tuples_per_s - l.traced_tuples_per_s,
            "tuples/s",
        );
        rep.put("trace.self_coverage", l.self_coverage, "ratio");
        for ((_, name), v) in SELF_LAYERS.iter().zip(l.self_s) {
            rep.put(name, v, "s");
        }
    }

    /// Offline-context numbers from the traced build's spans.
    pub fn set_context(&mut self, tr: &Tracer, ctx: &TerContext) {
        let total = |name: &str| -> f64 {
            tr.spans()
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
                .sum()
        };
        self.discover_cdd_s = total("ter_rules.discover_cdd");
        self.discover_baseline_s = total("ter_rules.discover_baseline");
        self.pivots_s = total("ter_repo.pivots");
        self.index_build_s = total("ter_repo.index_build");
        self.cdd_count = ctx.cdds.len() as f64;
    }

    /// Engine-side numbers of one traced feed, from its timed batches and
    /// its service part.
    pub fn set_drive(&mut self, out: &DriveOut, imp: &ImputeProbe) {
        let timed_arrivals = out.timed_arrivals as f64;
        let s = out.timed_stats;
        let pairs = s.total_pairs as f64;
        self.pairs_per_arrival = ratio(pairs, timed_arrivals);
        self.pruned_topic_share = ratio(s.topic as f64, pairs);
        self.pruned_sim_share = ratio(s.sim as f64, pairs);
        self.pruned_prob_share = ratio(s.prob as f64, pairs);
        self.rejected_instance_share = ratio(s.instance as f64, pairs);
        self.match_yield = ratio(s.matches as f64, pairs - (s.topic + s.sim + s.prob) as f64);
        self.reported_len = out.reported_len as f64;
        let step: Duration = out.step[out.timed.clone()].iter().sum();
        self.step_us_per_tuple = ratio(us(step), timed_arrivals);
        self.select_us_per_tuple = imp.per_tuple(imp.select);
        self.impute_us_per_tuple = imp.per_tuple(imp.impute);
        self.meta_us_per_tuple = imp.per_tuple(imp.meta);
        self.rules_per_incomplete = ratio(imp.rules as f64, imp.incomplete as f64);
        self.instances_per_tuple = ratio(imp.instances as f64, imp.arrivals as f64);
        self.repeat_key_share = ratio(imp.repeats as f64, imp.incomplete as f64);
        self.er_us_per_tuple = self.step_us_per_tuple
            - self.select_us_per_tuple
            - self.impute_us_per_tuple
            - self.meta_us_per_tuple;
        let per = |v: &[Duration]| mean(&v.iter().map(|d| us(*d)).collect::<Vec<_>>());
        self.wal_append_us_per_batch = per(&out.wal_append);
        self.wal_sync_us = per(&out.wal_sync);
        self.fsyncs_per_batch = ratio(out.wal_fsyncs as f64, out.wal_batches as f64);
        let ckpt = |v: &[CkptWrite]| {
            (
                mean(&v.iter().map(|c| ms(c.took)).collect::<Vec<_>>()),
                ratio(
                    v.iter().map(|c| c.bytes as f64).sum(),
                    v.iter().map(|c| c.covers as f64).sum(),
                ),
            )
        };
        (self.ckpt_full_ms, self.full_bytes_per_live_tuple) = ckpt(&out.ckpt_full);
        (self.ckpt_delta_ms, self.delta_bytes_per_churn) = ckpt(&out.ckpt_delta);

        self.maintain_us_per_batch = per(&out.maintain);
        self.reeval_ms = mean(&out.reeval.iter().map(|d| ms(*d)).collect::<Vec<_>>());
        // Per standing query: one maintain step against one re-evaluation.
        self.maintain_over_reeval = ratio(
            self.maintain_us_per_batch / STANDING.len() as f64,
            self.reeval_ms * 1e3,
        );
        self.rows_per_notify = ratio(out.notify_rows as f64, out.notify_events as f64);
        let distinct: FxHashSet<&str> = STANDING.iter().copied().collect();
        self.shared_pattern_share = 1.0 - distinct.len() as f64 / STANDING.len() as f64;
        self.oneshot_ms = median(&out.query.iter().map(|d| ms(*d)).collect::<Vec<_>>());
    }

    /// Probes of the final engine state: id listing, export, encoded size,
    /// grid cell skew.
    pub fn set_engine(&mut self, engine: &ShardedTerIdsEngine<'_>, tr: &mut Tracer) {
        let mut live_ids = Vec::new();
        let mut exports = Vec::new();
        let mut state = None;
        for _ in 0..5 {
            let t = Instant::now();
            std::hint::black_box(tr.span("ter_ids.live_ids", u32::MAX, || engine.live_ids()));
            live_ids.push(us(t.elapsed()));
            let t = Instant::now();
            state = Some(tr.span("ter_ids.export_state", u32::MAX, || engine.export_state()));
            exports.push(ms(t.elapsed()));
        }
        self.live_ids_us = median(&live_ids);
        self.export_state_ms = median(&exports);
        let state = state.expect("five exports ran");
        self.state_bytes_per_live_tuple = ratio(
            ter_store::encode_to_vec(&state).len() as f64,
            state.live_count() as f64,
        );
        let cells = engine.cell_entry_counts();
        let entries: usize = cells.iter().sum();
        self.occupied_cells = cells.len() as f64;
        self.max_cell_share = ratio(
            cells.iter().copied().max().unwrap_or(0) as f64,
            entries as f64,
        );
    }

    /// Wire codec cost of the batches and their acks.
    pub fn set_codec(
        &mut self,
        batches: &[&[Arrival]],
        acks: &[Vec<Vec<(u64, u64)>>],
        tr: &mut Tracer,
    ) {
        let (mut enc, mut dec) = (Duration::ZERO, Duration::ZERO);
        for (i, (batch, ack)) in batches.iter().zip(acks).enumerate() {
            let t = Instant::now();
            std::hint::black_box(tr.span("ter_serve.encode", i as u32, || {
                encode_ingest_seq(i as u64, batch)
            }));
            enc += t.elapsed();
            let payload = encode_reply(&Reply::IngestAck {
                seq: i as u64,
                per_arrival: ack.clone(),
            });
            let t = Instant::now();
            std::hint::black_box(
                tr.span("ter_serve.decode", i as u32, || decode_reply(&payload))
                    .expect("ack decodes"),
            );
            dec += t.elapsed();
        }
        self.encode_us_per_batch = ratio(us(enc), batches.len() as f64);
        self.decode_us_per_ack = ratio(us(dec), acks.len() as f64);
    }

    /// Per-layer self time of the traced run. The timed batches' step
    /// time is split between the layers inside it: `ter_impute` and
    /// `ter_ids` get the replayed select + impute and meta time on the
    /// same arrivals, `ter_exec` the rest. Every other layer gets the
    /// self time of its own spans. `self_coverage` is the step split's
    /// sum over the traced step time: above 1 when the replays claim more
    /// than the step took.
    pub fn set_self_times(&mut self, tr: &Tracer, out: &DriveOut, imp: &ImputeProbe) {
        let mut skip = REPLAY_SPANS.to_vec();
        skip.push(STEP_SPAN);
        let by_layer = tr.self_time_by_layer(&skip);
        let own = |layer: &str| {
            by_layer
                .iter()
                .find(|(l, _)| l == layer)
                .map_or(0.0, |(_, d)| d.as_secs_f64())
        };
        let step: f64 = out.step[out.timed.clone()]
            .iter()
            .map(Duration::as_secs_f64)
            .sum();
        let impute = (imp.select + imp.impute).as_secs_f64();
        let meta = imp.meta.as_secs_f64();
        let exec = (step - impute - meta).max(0.0);
        for (slot, (layer, _)) in self.self_s.iter_mut().zip(SELF_LAYERS) {
            *slot = own(layer)
                + match layer {
                    "ter_impute" => impute,
                    "ter_ids" => meta,
                    "ter_exec" => exec,
                    _ => 0.0,
                };
        }
        self.self_coverage = ratio(impute + meta + exec, step);
    }
}

/// The `step_batch` span; its time is split by [`Layers::set_self_times`].
pub const STEP_SPAN: &str = "ter_exec.step_batch";

/// Spans of the [`ImputeProbe`] replay: outside the feed, so they count
/// only through the step split.
const REPLAY_SPANS: [&str; 3] = [
    "ter_impute.select_rules",
    "ter_impute.impute",
    "ter_ids.meta_build",
];

/// Per-arrival imputation replay: the engine's impute stage, call by
/// call, with its counts.
#[derive(Default)]
pub struct ImputeProbe {
    pub arrivals: usize,
    pub incomplete: usize,
    pub select: Duration,
    pub impute: Duration,
    pub meta: Duration,
    pub rules: usize,
    pub instances: usize,
    pub repeats: usize,
}

impl ImputeProbe {
    fn per_tuple(&self, d: Duration) -> f64 {
        ratio(us(d), self.arrivals as f64)
    }

    /// Replays `arrivals` through the context's CDD-indexed imputer and
    /// `TupleMeta::build`, exactly as the engine's impute stage does.
    pub fn run(
        ctx: &TerContext,
        params: ter_ids::Params,
        batch: usize,
        arrivals: &[Arrival],
        tr: &mut Tracer,
    ) -> Self {
        let imputer = ctx.indexed_imputer(params.impute);
        let mut seen: FxHashSet<Vec<Option<TokenSet>>> = FxHashSet::default();
        let mut p = ImputeProbe {
            arrivals: arrivals.len(),
            ..Self::default()
        };
        for a in arrivals {
            let batch = (a.timestamp as usize / batch) as u32;
            let tuple = if a.record.is_complete() {
                ter_stream::ProbTuple::certain(a.record.clone())
            } else {
                p.incomplete += 1;
                let t = Instant::now();
                let sel = tr.span(REPLAY_SPANS[0], batch, || imputer.select_rules(&a.record));
                p.select += t.elapsed();
                p.rules += sel.iter().map(|(_, r)| r.len()).sum::<usize>();
                let t = Instant::now();
                let tuple = tr.span(REPLAY_SPANS[1], batch, || {
                    imputer.impute_with_rules(&a.record, &sel)
                });
                p.impute += t.elapsed();
                let key: Vec<Option<TokenSet>> = (0..ctx.arity())
                    .map(|j| a.record.attr(j).cloned())
                    .collect();
                if !seen.insert(key) {
                    p.repeats += 1;
                }
                tuple
            };
            p.instances += tuple.instance_count();
            let t = Instant::now();
            std::hint::black_box(tr.span(REPLAY_SPANS[2], batch, || {
                TupleMeta::build(
                    a.record.id,
                    a.stream_id,
                    a.timestamp,
                    tuple,
                    &ctx.pivots,
                    &ctx.layout,
                    &ctx.keywords,
                )
            }));
            p.meta += t.elapsed();
        }
        p
    }
}
