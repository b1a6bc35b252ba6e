//! Benchmark of the TER-iDS workspace: end-to-end metrics (tracing off)
//! or per-layer metrics (tracing on) for one workload, as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload impute_heavy --seed 7 --seconds 20 --trace 0
//! ```
//!
//! See `perfbench/README.md` for the workloads, the metrics and how to
//! read them.

mod layers;
mod library;
mod measure;
mod serve;
mod workload;

use std::process::ExitCode;

use workload::{DURABLE_FEED, IMPUTE_HEAVY};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 7,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <impute_heavy|durable_feed> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "impute_heavy" => library::run(&IMPUTE_HEAVY, args.seed, args.seconds, args.trace),
        // The traced run of the durable feed also drives the daemon, for
        // the `ter_serve` layer.
        "durable_feed" if args.trace => serve::traced(&DURABLE_FEED, args.seed),
        "durable_feed" => library::run(&DURABLE_FEED, args.seed, args.seconds, false),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(workload::scratch_root());
    for e in &report.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
