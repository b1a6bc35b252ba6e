//! Shared child-process harness for the `ter_serve` integration suites
//! (`serve_crash`, `serve_soak`, `serve_faults`): temp store directories,
//! spawning/killing the real daemon binary, and the never-crashed
//! in-process oracle the suites compare against.
//!
//! Every suite is its own test crate, so this module is included by
//! `mod harness;` from each — keep it free of suite-specific logic.
#![allow(dead_code)] // each suite uses its own subset

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use ter_datasets::{preset, GenOptions, Preset};
use ter_ids::{ErProcessor, Params, PruningMode, TerContext, TerIdsEngine};
use ter_repo::PivotConfig;
use ter_rules::DiscoveryConfig;
use ter_serve::Client;
use ter_stream::{Arrival, StreamSet};

/// Must match the CLI flags [`Daemon::spawn`] passes — both processes
/// must derive the same dataset and engine identity or the store
/// fingerprint refuses.
pub const PRESET: &str = "citations";
pub const SCALE: f64 = 0.2;
pub const WINDOW: usize = 60;
pub const BATCH: usize = 8;

pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!("ter_serve_it_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        Self(p)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running daemon child whose kill/wait is cleaned up even on panic.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawns the actual `ter_serve` binary on an ephemeral port and
    /// scrapes `LISTENING <addr>` from its stdout. `extra` appends
    /// scenario-specific flags; the flag parser takes the last
    /// occurrence, so `extra` can also override any base flag below.
    pub fn spawn(dir: &Path, extra: &[&str]) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_ter_serve"))
            .args([
                "serve",
                "--dir",
                dir.to_str().unwrap(),
                "--addr",
                "127.0.0.1:0",
                "--preset",
                PRESET,
                "--scale",
                &SCALE.to_string(),
                "--window",
                &WINDOW.to_string(),
                "--checkpoint-every",
                "4",
            ])
            .args(extra)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn ter_serve");
        let stdout = child.stdout.take().expect("piped stdout");
        // Scrape the address on a thread so a wedged daemon fails the test
        // with a timeout instead of hanging it.
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut reader = BufReader::new(stdout);
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap_or(0) > 0 {
                if let Some(addr) = line.trim().strip_prefix("LISTENING ") {
                    let _ = tx.send(addr.to_string());
                    break;
                }
                line.clear();
            }
            // Keep draining so the daemon never blocks on a full pipe.
            let mut sink = String::new();
            while reader.read_line(&mut sink).unwrap_or(0) > 0 {
                sink.clear();
            }
        });
        let addr: SocketAddr = rx
            .recv_timeout(Duration::from_secs(120))
            .expect("daemon did not print LISTENING in time")
            .parse()
            .expect("parse LISTENING address");
        Self { child, addr }
    }

    pub fn client(&self) -> Client {
        Client::connect_retry(self.addr, Duration::from_secs(30)).expect("connect to daemon")
    }

    /// The daemon's OS process id (for `/proc` scrapes).
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL — the point of the exercise.
    pub fn kill9(mut self) {
        self.child.kill().expect("SIGKILL daemon");
        self.child.wait().expect("reap daemon");
    }

    /// Waits for a clean exit after a graceful client shutdown.
    pub fn wait_graceful(mut self) {
        let status = self.child.wait().expect("wait daemon");
        assert!(status.success(), "daemon exited with {status}");
    }

    /// Waits for the child to exit on its own — fault-injection scenarios
    /// (an injected step-stage panic) assert on the returned status.
    pub fn wait_exit(mut self) -> std::process::ExitStatus {
        self.child.wait().expect("wait daemon")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The same deterministic dataset + context the CLI builds from the same
/// flags.
pub fn build_oracle_inputs() -> (TerContext, StreamSet, Params) {
    let ds = preset(
        Preset::Citations,
        &GenOptions {
            scale: SCALE,
            ..GenOptions::default()
        },
    );
    let params = Params {
        window: WINDOW,
        ..Params::default()
    };
    let keywords = ds.keywords();
    let ctx = TerContext::build(
        ds.repo.clone(),
        keywords,
        &PivotConfig::default(),
        &DiscoveryConfig::default(),
        params.fanout,
    );
    (ctx, ds.streams, params)
}

/// A never-crashed in-process run, one arrival at a time (the daemon
/// steps whole batches): per-arrival match lists plus the final engine.
pub fn oracle_run<'a>(
    ctx: &'a TerContext,
    params: Params,
    batches: &[Vec<Arrival>],
) -> (Vec<Vec<(u64, u64)>>, TerIdsEngine<'a>) {
    let mut engine = TerIdsEngine::new(ctx, params, PruningMode::Full);
    let per_arrival = batches
        .iter()
        .flatten()
        .map(|a| engine.process(a).new_matches)
        .collect();
    (per_arrival, engine)
}
