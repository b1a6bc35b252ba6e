//! The library workloads (`impute_heavy`, `durable_feed`): the stream
//! fed in-process through `ShardedTerIdsEngine::step_batch` with the
//! standing and one-shot queries alongside, and recoveries from a crash
//! image (full checkpoint plus WAL suffix) spread over the feed. A
//! durable feed also logs every batch to a store of its own (WAL with an
//! fsync per batch, delta checkpoints) and leaves a crash image there,
//! which is recovered once after the feed.

use std::time::{Duration, Instant};

use crate::layers::{EndToEnd, ImputeProbe, Layers};
use crate::measure::{dir_bytes, ms, ratio, us, Report, Tracer};
use crate::workload::{
    drive, recover, scratch_dir, spans_path, sub_seed, DriveOut, DrivePlan, Inputs, Oracle,
    Workload, MIN_FEEDS,
};

/// Set-up repetitions come in two bursts per dataset, one on each side
/// of the oracle run, so they fall in different stretches of the host's
/// speed drift. A burst has at least [`SETUP_REPS`] repetitions, and more
/// until it adds up to [`SETUP_BURST`] split over the run's datasets. One
/// more follows every feed; `setup_s` is the median of all of a run's
/// repetitions.
const SETUP_REPS: usize = 2;
const SETUP_BURST: Duration = Duration::from_millis(500);
const SETUP_MAX_REPS: usize = 40;

/// One burst of set-up repetitions. `build` sets up once and returns what
/// it built and the seconds it took; each result replaces the one in
/// `slot`, which is freed first, so only one is ever held.
pub fn setup_burst<C>(
    w: &Workload,
    slot: &mut Option<C>,
    samples: &mut Vec<f64>,
    mut build: impl FnMut() -> (C, f64),
) {
    let want = SETUP_BURST.as_secs_f64() / w.datasets as f64;
    let (mut reps, mut total) = (0, 0.0);
    while reps < SETUP_REPS || (total < want && reps < SETUP_MAX_REPS) {
        drop(slot.take());
        let (c, took) = build();
        *slot = Some(c);
        samples.push(took);
        (reps, total) = (reps + 1, total + took);
    }
}

pub fn run(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut rep = Report::new();
    let mut e2e = EndToEnd::default();
    let share = Duration::from_secs_f64(seconds / w.datasets as f64);
    for k in 0..w.datasets {
        let inputs = Inputs::generate(w, sub_seed(seed, k));
        let build = || {
            let (c, took) = inputs.build_context();
            (c, took.as_secs_f64())
        };
        let mut ctx = None;
        setup_burst(w, &mut ctx, &mut e2e.setup_s, build);
        let image = scratch_dir("image");
        let oracle = Oracle::run(
            ctx.as_ref().expect("at least one build"),
            &inputs,
            &[],
            Some((&image, w.batch)),
        );
        let oracle = match oracle {
            Ok(o) => o,
            Err(e) => {
                rep.check(false, || format!("oracle or crash image failed: {e}"));
                return rep;
            }
        };
        if !w.durable {
            e2e.disk_bytes_per_tuple
                .push(dir_bytes(&image) as f64 / inputs.arrivals.len() as f64);
        }
        setup_burst(w, &mut ctx, &mut e2e.setup_s, build);
        let plan = DrivePlan {
            reeval: trace,
            recover_image: Some(image.clone()),
        };
        if trace {
            let ctx = ctx.expect("at least one build");
            traced(w, &inputs, &ctx, &plan, &oracle, &mut rep);
            return rep;
        }
        let started = Instant::now();
        let mut passes = 0u32;
        loop {
            feed(
                ctx.as_ref().expect("a context is built"),
                &inputs,
                w,
                &plan,
                &oracle,
                &mut Tracer::new(false),
                &mut rep,
                &mut e2e,
            );
            // One more set-up between feeds spreads the samples over the
            // run, across the host's speed drift.
            drop(ctx.take());
            let (c, took) = inputs.build_context();
            e2e.setup_s.push(took.as_secs_f64());
            ctx = Some(c);
            passes += 1;
            if passes as usize >= MIN_FEEDS
                && started.elapsed() + started.elapsed() / passes > share
            {
                break;
            }
        }
        let _ = std::fs::remove_dir_all(&image);
        e2e.end_dataset();
    }
    e2e.emit(&mut rep);
    rep
}

/// The traced run over one dataset: an untraced feed for the overhead
/// baseline, then a traced context build, feed and layer probes.
fn traced(
    w: &Workload,
    inputs: &Inputs,
    ctx: &ter_ids::TerContext,
    plan: &DrivePlan,
    oracle: &Oracle,
    rep: &mut Report,
) {
    let mut base = EndToEnd::default();
    feed(
        ctx,
        inputs,
        w,
        plan,
        oracle,
        &mut Tracer::new(false),
        rep,
        &mut base,
    );
    let mut tr = Tracer::new(true);
    let traced_ctx = inputs.build_context_traced(&mut tr);
    let mut layers = Layers::default();
    layers.set_context(&tr, &traced_ctx);
    let mut probe = EndToEnd::default();
    let out = feed_with(
        &traced_ctx,
        inputs,
        w,
        plan,
        oracle,
        &mut tr,
        rep,
        &mut probe,
        &mut layers,
    );
    let timed_from = out.timed.start * w.batch;
    let timed = &inputs.arrivals[timed_from..timed_from + out.timed_arrivals];
    let imp = ImputeProbe::run(&traced_ctx, inputs.params, w.batch, timed, &mut tr);
    layers.set_drive(&out, &imp);
    let acks: Vec<Vec<Vec<(u64, u64)>>> =
        out.per_arrival.chunks(w.batch).map(<[_]>::to_vec).collect();
    layers.set_codec(&inputs.batches(w), &acks, &mut tr);
    layers.untraced_tuples_per_s = base.tuples_per_s();
    layers.traced_tuples_per_s = probe.tuples_per_s();
    layers.set_self_times(&tr, &out, &imp);
    if let Err(e) = tr.write_tsv(&spans_path(w.name)) {
        eprintln!("perfbench: writing spans: {e}");
    }
    layers.emit(rep);
}

/// One feed; its samples are pooled into `e2e`.
#[allow(clippy::too_many_arguments)]
fn feed(
    ctx: &ter_ids::TerContext,
    inputs: &Inputs,
    w: &Workload,
    plan: &DrivePlan,
    oracle: &Oracle,
    tr: &mut Tracer,
    rep: &mut Report,
    e2e: &mut EndToEnd,
) {
    let mut pass = EndToEnd::default();
    feed_with(
        ctx,
        inputs,
        w,
        plan,
        oracle,
        tr,
        rep,
        &mut pass,
        &mut Layers::default(),
    );
    e2e.absorb(pass);
}

/// One feed plus its checks; fills `e2e` (and, traced, the engine and
/// store probes of `layers`).
#[allow(clippy::too_many_arguments)]
fn feed_with(
    ctx: &ter_ids::TerContext,
    inputs: &Inputs,
    w: &Workload,
    plan: &DrivePlan,
    oracle: &Oracle,
    tr: &mut Tracer,
    rep: &mut Report,
    e2e: &mut EndToEnd,
    layers: &mut Layers,
) -> DriveOut {
    let dir = scratch_dir(w.name);
    let traced = tr.enabled();
    let out = match drive(ctx, inputs, w, plan, &dir, tr, |engine, tr| {
        if traced {
            layers.set_engine(engine, tr);
        }
    }) {
        Ok(out) => out,
        Err(e) => {
            rep.check(false, || format!("feed failed: {e}"));
            let _ = std::fs::remove_dir_all(&dir);
            return DriveOut::default();
        }
    };
    check_same(
        rep,
        &out.per_arrival,
        &oracle.per_arrival,
        w.batch,
        "sharded engine",
    );
    let mismatches = out.fold_mismatches;
    rep.check(mismatches == 0, || {
        format!("{mismatches} standing folds differ from evaluate")
    });

    e2e.timed_arrivals = out.timed_arrivals as u64;
    e2e.timed_wall = out.timed_wall;
    e2e.timed_cpu = out.timed_cpu;
    e2e.batch_ms = out.batch[out.timed.clone()]
        .iter()
        .map(|d| ms(*d))
        .collect();
    e2e.notify_ms = out.notify.iter().map(|d| ms(*d)).collect();
    e2e.query_ms = out.query.iter().map(|d| ms(*d)).collect();
    e2e.recovery_s = out.recovery.iter().map(Duration::as_secs_f64).collect();
    e2e.f_score.push(out.f_score);

    // Every recovery must reach the state the feed ended in.
    let first_ok = out.recovered.as_ref().is_none_or(|s| *s == out.final_state);
    let wrong = if first_ok {
        out.recovery_mismatches
    } else {
        out.recovery.len()
    };
    for i in 0..out.recovery.len() {
        rep.check(i >= wrong, || {
            "recovered state differs from the pre-crash state".to_string()
        });
    }
    layers.recover_ms = ratio(ms(out.recover_open), out.recovery.len() as f64);
    layers.replay_us_per_tuple = ratio(us(out.recover_replay), out.replayed as f64);
    if w.durable {
        // The feed's own crash image: checkpoint, delta chain, WAL suffix.
        e2e.disk_bytes_per_tuple
            .push(dir_bytes(&dir) as f64 / inputs.arrivals.len() as f64);
        match recover(ctx, inputs.params, &dir) {
            Ok((state, ..)) => rep.check(state == out.final_state, || {
                "state recovered from the feed's store differs from its final state".to_string()
            }),
            Err(e) => rep.check(false, || {
                format!("recovery of the feed's store failed: {e}")
            }),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Counts each batch whose per-arrival match lists differ from the
/// reference as one failed operation.
pub fn check_same(
    rep: &mut Report,
    got: &[Vec<(u64, u64)>],
    want: &[Vec<(u64, u64)>],
    batch: usize,
    what: &str,
) {
    if got.len() != want.len() {
        rep.check(false, || {
            format!(
                "{what}: {} arrivals answered, {} expected",
                got.len(),
                want.len()
            )
        });
        return;
    }
    for (i, (g, w)) in got.chunks(batch).zip(want.chunks(batch)).enumerate() {
        rep.check(g == w, || {
            format!("{what}: batch {i} differs from the oracle")
        });
    }
}
