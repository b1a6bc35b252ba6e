//! Shared by the recovery suites (`recovery_parity`, `delta_parity`):
//! the engine surface a restore needs, the metadata a restore must
//! rebuild, and temporary store directories.

use std::fs;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use ter_exec::ShardedTerIdsEngine;
use ter_ids::{EngineState, ErProcessor, LiveState, TerIdsEngine, TupleMeta};
use ter_stream::Arrival;

/// Processing, the `LiveState` both engines dereference to, and the
/// import each engine implements itself.
pub trait Restorable: ErProcessor + Deref<Target = LiveState> {
    fn import(&mut self, state: &EngineState) -> Result<(), String>;

    /// Steps a batch and returns each arrival's new matches.
    fn step(&mut self, batch: &[Arrival]) -> Vec<Vec<(u64, u64)>> {
        self.step_batch(batch)
            .into_iter()
            .map(|o| o.new_matches)
            .collect()
    }
}

impl Restorable for TerIdsEngine<'_> {
    fn import(&mut self, state: &EngineState) -> Result<(), String> {
        self.import_state(state)
    }
}

impl Restorable for ShardedTerIdsEngine<'_> {
    fn import(&mut self, state: &EngineState) -> Result<(), String> {
        self.import_state(state)
    }
}

/// Every live tuple's metadata, ascending by id. The exported state
/// does not carry it, so the suites compare it after each import with
/// what the never-crashed engine derived at arrival.
pub fn live_metas(live: &LiveState) -> Vec<TupleMeta> {
    live.live_ids()
        .into_iter()
        .map(|id| live.meta(id).expect("live id has metadata").clone())
        .collect()
}

/// A store directory removed on drop, unique per process and call.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Self {
        static N: AtomicUsize = AtomicUsize::new(0);
        let p = std::env::temp_dir().join(format!(
            "ter_restore_{}_{tag}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&p);
        Self(p)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}
