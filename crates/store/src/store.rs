//! The durable store: one directory tying WAL, checkpoints, and manifest
//! together, plus the recovery path.
//!
//! ```text
//! <dir>/
//!   wal.log                  append-only arrival batches (crate::wal)
//!   ckpt-<seq>.bin           EngineState snapshots (crate::checkpoint)
//!   MANIFEST                 newest durable (checkpoint, WAL seq) pair
//! ```
//!
//! Write protocol per arrival batch: `log_batch` (append + fsync) →
//! `step_batch` on the engine. Periodically: `checkpoint(engine state)`,
//! which writes `ckpt-<seq>.bin` atomically, flips the manifest to it,
//! and then deletes older checkpoints (in that order — the old pair
//! stays recoverable until the new one is durable).
//!
//! Recovery ([`TerStore::recover`]) never panics and degrades gracefully:
//!
//! 1. manifest valid + named checkpoint valid → restore its state, replay
//!    the WAL suffix `wal_seq..`;
//! 2. checkpoint newer than the (truncated) WAL → the checkpoint alone is
//!    the newest consistent state, empty suffix;
//! 3. manifest missing/corrupt or checkpoint damaged → fall back to any
//!    other on-disk checkpoint (newest first), else the empty state plus
//!    a full WAL replay.

use std::fs;
use std::hash::Hasher;
use std::path::{Path, PathBuf};

use ter_ids::{EngineState, ErProcessor, Params, StateDelta, TerContext};
use ter_stream::Arrival;
use ter_text::fxhash::FxHasher;
use ter_text::Token;

use crate::checkpoint::{checkpoint_file_name, checkpoint_seq_of, Checkpoint, Manifest};
use crate::delta::{delta_file_name, delta_seqs_of, DeltaFile};
use crate::wal::Wal;
use crate::StoreError;

/// File name of the WAL inside a store directory.
pub const WAL_FILE: &str = "wal.log";
/// File name of the manifest inside a store directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Identity of the (context, params) a store's bytes belong to. Token ids
/// are dictionary-relative, so state is only meaningful against the same
/// deterministic offline pre-computation; and WAL replay is only
/// bit-identical under the same engine parameters (a changed imputation
/// cap, say, would impute the replayed suffix differently than the
/// checkpointed prefix). The fingerprint covers *every* [`Params`] field
/// plus the context identity, turning a silent mix-up into a refused
/// open / ignored checkpoint.
pub fn context_fingerprint(ctx: &TerContext, params: &Params) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(ctx.arity() as u64);
    h.write_u64(params.window as u64);
    h.write_u64(params.alpha.to_bits());
    h.write_u64(params.rho.to_bits());
    h.write_u64(params.fanout as u64);
    h.write_u64(params.impute.max_candidates_per_attr as u64);
    h.write_u64(params.donors as u64);
    h.write_u64(ctx.repo.len() as u64);
    for &Token(t) in ctx.keywords.tokens().tokens() {
        h.write_u32(t);
    }
    h.finish()
}

/// `delt-*.bin` files present in `dir` as `(base_seq, wal_seq, name)`,
/// sorted ascending. Errors (unreadable directory) degrade to "no
/// deltas" — the ladder below never needs them to exist.
fn delta_files_in(dir: &Path) -> Vec<(u64, u64, String)> {
    let mut files: Vec<(u64, u64, String)> = match fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter_map(|n| delta_seqs_of(&n).map(|(b, t)| (b, t, n)))
            .collect(),
        Err(_) => Vec::new(),
    };
    files.sort();
    files
}

/// Walks the longest valid delta chain rooted at stamp `base` and
/// returns `(tip stamp, links, cumulative file bytes)`. Only files that
/// load and validate count; the first damaged link ends the chain.
fn scan_chain(dir: &Path, fingerprint: u64, base: u64) -> (u64, usize, u64) {
    let files = delta_files_in(dir);
    let mut tip = base;
    let mut len = 0usize;
    let mut bytes = 0u64;
    loop {
        // Furthest-reaching valid link from the current tip wins.
        let next = files.iter().rev().find_map(|(b, t, name)| {
            (*b == tip && *t > tip && DeltaFile::load(&dir.join(name), fingerprint).is_ok())
                .then_some((*t, name))
        });
        match next {
            Some((t, name)) => {
                bytes += fs::metadata(dir.join(name)).map(|m| m.len()).unwrap_or(0);
                tip = t;
                len += 1;
            }
            None => return (tip, len, bytes),
        }
    }
}

/// What [`TerStore::recover`] reconstructed.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovery {
    /// The newest consistent state — a full checkpoint plus however much
    /// of its delta chain was valid — if any survived.
    pub state: Option<EngineState>,
    /// WAL batches already folded into `state` (0 without a checkpoint):
    /// the stamp of the base checkpoint plus every applied delta.
    pub checkpoint_seq: u64,
    /// Deltas applied on top of the base checkpoint to reach `state` (0
    /// for a plain full-checkpoint recovery).
    pub chain_applied: usize,
    /// WAL batches after the checkpoint, in sequence order — replay these
    /// through `step_batch` to reach the newest consistent stream position.
    pub suffix: Vec<Vec<Arrival>>,
}

impl Recovery {
    /// The stream position (in committed batches) recovery reaches once
    /// the suffix is replayed.
    pub fn resume_seq(&self) -> u64 {
        self.checkpoint_seq + self.suffix.len() as u64
    }

    /// Replays the WAL suffix through an engine that already imported the
    /// checkpoint state (or started fresh when there was none). Returns
    /// the number of replayed arrivals.
    pub fn replay_into(&self, engine: &mut impl ErProcessor) -> usize {
        let mut replayed = 0;
        for batch in &self.suffix {
            engine.step_batch(batch);
            replayed += batch.len();
        }
        replayed
    }
}

/// How aggressively [`TerStore::checkpoint`] reclaims disk.
///
/// The default (`keep_checkpoints: 1`, `truncate_wal: false`) preserves
/// the original behavior: one checkpoint on disk, the WAL kept whole so a
/// lost checkpoint can always fall back to a from-zero replay. The
/// daemon's policy (`two_generation()`) keeps the two newest checkpoint
/// generations and drops WAL frames *only once two generations have
/// passed* — i.e. everything below the older surviving checkpoint — so
/// recovery still succeeds from either generation while the log stops
/// growing without bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Newest checkpoint files retained after a successful checkpoint
    /// (at least 1 — the one the manifest names).
    pub keep_checkpoints: usize,
    /// Whether to drop WAL frames already covered by the *oldest
    /// retained* checkpoint generation.
    pub truncate_wal: bool,
    /// Deltas allowed on one chain before [`TerStore::needs_rebase`]
    /// demands a fresh full checkpoint (0 = unbounded). Recovery replays
    /// the whole chain, so this bounds recovery time.
    pub max_chain_len: usize,
    /// Cumulative delta bytes allowed on one chain before a rebase is
    /// demanded (0 = unbounded). Once the chain has cost as much disk and
    /// recovery I/O as a full snapshot, incrementality has paid out.
    pub max_chain_bytes: u64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        Self {
            keep_checkpoints: 1,
            truncate_wal: false,
            max_chain_len: 16,
            max_chain_bytes: 0,
        }
    }
}

impl CompactionPolicy {
    /// The bounded-disk policy: two checkpoint generations, WAL truncated
    /// beneath the older one, delta chains rebased after 16 links.
    pub fn two_generation() -> Self {
        Self {
            keep_checkpoints: 2,
            truncate_wal: true,
            ..Self::default()
        }
    }

    /// Whether a chain of `len` deltas totalling `bytes` has exceeded
    /// either bound and must be closed by a full checkpoint.
    pub fn chain_exceeded(&self, len: usize, bytes: u64) -> bool {
        (self.max_chain_len > 0 && len >= self.max_chain_len)
            || (self.max_chain_bytes > 0 && bytes >= self.max_chain_bytes)
    }
}

/// The open store. See the [module docs](self).
#[derive(Debug)]
pub struct TerStore {
    dir: PathBuf,
    wal: Wal,
    fingerprint: u64,
    compaction: CompactionPolicy,
    /// Stamp of the newest durable state on disk — the last full
    /// checkpoint or the tip of its valid delta chain. `None` before the
    /// first checkpoint. Delta stamps must chain onto exactly this.
    tip_seq: Option<u64>,
    /// Deltas on the current chain (0 right after a full checkpoint).
    chain_len: usize,
    /// Cumulative bytes of the current chain's delta files.
    chain_bytes: u64,
}

impl TerStore {
    /// Opens (creating if needed) the store in `dir` for the engine
    /// identity `fingerprint` (see [`context_fingerprint`]). Scans and
    /// truncates the WAL's torn tail; if the (possibly reset) log ends
    /// before a valid durable checkpoint, the log's stale frames are
    /// dropped and its sequence base moved to the checkpoint, so batch
    /// numbering — and with it every later checkpoint and resume
    /// position — keeps counting the logical stream instead of restarting
    /// at 0.
    pub fn open(dir: impl Into<PathBuf>, fingerprint: u64) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut wal = Wal::open(dir.join(WAL_FILE), fingerprint)?;
        let mut tip_seq = None;
        let mut chain_len = 0;
        let mut chain_bytes = 0;
        if let Ok(m) = Manifest::load(&dir.join(MANIFEST_FILE), fingerprint) {
            if Checkpoint::load(&dir.join(&m.checkpoint), fingerprint).is_ok() {
                // Walk the durable delta chain off the manifest's
                // checkpoint so new deltas keep chaining where the last
                // run stopped, and so a lost WAL re-bases at the *chain
                // tip*, not just the full checkpoint beneath it.
                let (tip, len, bytes) = scan_chain(&dir, fingerprint, m.wal_seq);
                tip_seq = Some(tip);
                chain_len = len;
                chain_bytes = bytes;
                if tip > wal.next_seq() {
                    wal.reset_to(tip)?;
                }
            }
        }
        Ok(Self {
            dir,
            wal,
            fingerprint,
            compaction: CompactionPolicy::default(),
            tip_seq,
            chain_len,
            chain_bytes,
        })
    }

    /// Sets the checkpoint/WAL retention policy (see [`CompactionPolicy`]).
    pub fn set_compaction(&mut self, policy: CompactionPolicy) {
        self.compaction = CompactionPolicy {
            keep_checkpoints: policy.keep_checkpoints.max(1),
            ..policy
        };
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Committed WAL batches so far.
    pub fn wal_seq(&self) -> u64 {
        self.wal.next_seq()
    }

    /// Committed WAL size in bytes.
    pub fn wal_len_bytes(&self) -> u64 {
        self.wal.len_bytes()
    }

    /// Durably appends one arrival batch (fsync-on-commit) and returns
    /// its sequence number. Call *before* feeding the batch to the engine
    /// — write-ahead means the log is never behind the state.
    pub fn log_batch(&mut self, batch: &[Arrival]) -> Result<u64, StoreError> {
        self.wal.append(batch)
    }

    /// The group-commit half-step: appends one batch **without** fsync.
    /// Several appends can then share one [`TerStore::sync_wal`] — the
    /// flush window — but none of them may be acknowledged before that
    /// sync returns (acked ⇒ fsynced is the service's durability
    /// contract).
    pub fn log_batch_nosync(&mut self, batch: &[Arrival]) -> Result<u64, StoreError> {
        self.wal.append_nosync(batch)
    }

    /// One fsync covering every [`TerStore::log_batch_nosync`] since the
    /// last sync. No-op when nothing is pending.
    pub fn sync_wal(&mut self) -> Result<(), StoreError> {
        self.wal.sync()
    }

    /// Commit-path fsyncs issued so far (see [`Wal::fsyncs`]).
    pub fn wal_fsyncs(&self) -> u64 {
        self.wal.fsyncs()
    }

    /// Sequence the WAL's power-loss-durable prefix reaches (see
    /// [`Wal::synced_seq`]).
    pub fn wal_synced_seq(&self) -> u64 {
        self.wal.synced_seq()
    }

    /// Fault-injection shim: artificial latency added to every commit
    /// fsync (see [`Wal::set_sync_delay`]).
    pub fn set_fsync_delay(&mut self, delay: std::time::Duration) {
        self.wal.set_sync_delay(delay);
    }

    /// Atomically installs `state` as the checkpoint at the current WAL
    /// position, flips the manifest, and applies the retention policy:
    /// checkpoints beyond `keep_checkpoints` generations are deleted, and
    /// (if `truncate_wal`) WAL frames beneath the oldest *retained*
    /// generation are compacted away — never before a full complement of
    /// generations exists, so recovery always has a fallback checkpoint
    /// with its complete replay suffix. Returns the checkpoint's byte
    /// size.
    pub fn checkpoint(&mut self, state: &EngineState) -> Result<u64, StoreError> {
        self.checkpoint_at(self.wal.next_seq(), state)
    }

    /// [`TerStore::checkpoint`] at an *explicit* WAL position — the
    /// append/ack-decoupled form. A pipelined service appends batch `n+1`
    /// while the engine still steps batch `n`; when the cadence fires
    /// after step `n`, the exported state covers exactly batches
    /// `0..=n`, so the checkpoint must be stamped `wal_seq = n+1` even
    /// though the log has already grown past it. Recovery then replays
    /// the WAL suffix `wal_seq..` as usual. `wal_seq` must lie within
    /// the log's committed range `[base_seq, next_seq]` — a stamp the
    /// log cannot replay from would create an unbridgeable gap.
    pub fn checkpoint_at(&mut self, wal_seq: u64, state: &EngineState) -> Result<u64, StoreError> {
        let t0 = ter_obs::timer();
        if wal_seq < self.wal.base_seq() || wal_seq > self.wal.next_seq() {
            return Err(StoreError::Mismatch(format!(
                "checkpoint stamp {wal_seq} outside the committed WAL range [{}, {}]",
                self.wal.base_seq(),
                self.wal.next_seq()
            )));
        }
        // A manifest must never name a position the log could lose: close
        // any open flush window before the checkpoint becomes visible.
        self.wal.sync()?;
        let name = checkpoint_file_name(wal_seq);
        let bytes = Checkpoint::write(&self.dir.join(&name), self.fingerprint, wal_seq, state)?;
        Manifest {
            fingerprint: self.fingerprint,
            wal_seq,
            checkpoint: name.clone(),
        }
        .write(&self.dir.join(MANIFEST_FILE))?;
        // Only after the manifest durably points at the new checkpoint is
        // it safe to drop older ones.
        let keep = self.compaction.keep_checkpoints;
        let retained: Vec<String> = {
            let files = self.checkpoint_files()?;
            for old in files.iter().skip(keep) {
                let _ = fs::remove_file(self.dir.join(old));
            }
            files.into_iter().take(keep).collect()
        };
        // Compact the WAL only once `keep` generations have passed: the
        // oldest retained checkpoint still owns every frame at or above
        // its seq, so either generation can drive a full recovery.
        if self.compaction.truncate_wal && retained.len() >= keep {
            if let Some(oldest_seq) = retained.last().and_then(|n| checkpoint_seq_of(n)) {
                self.wal.truncate_before(oldest_seq)?;
            }
        }
        // A full checkpoint closes the delta chain. Deltas reaching at
        // most the *oldest retained* generation's stamp are useless now —
        // every surviving recovery base is a full checkpoint at or past
        // them — while newer ones may still extend a retained fallback
        // generation, so they stay.
        let oldest_retained = retained
            .last()
            .and_then(|n| checkpoint_seq_of(n))
            .unwrap_or(wal_seq);
        for (_, to, name) in delta_files_in(&self.dir) {
            if to <= oldest_retained {
                let _ = fs::remove_file(self.dir.join(&name));
            }
        }
        self.tip_seq = Some(wal_seq);
        self.chain_len = 0;
        self.chain_bytes = 0;
        ter_obs::OBS.full_checkpoints.inc();
        ter_obs::OBS.last_checkpoint_seq.set(wal_seq);
        ter_obs::OBS.delta_chain_length.set(0);
        let us = ter_obs::since(t0);
        ter_obs::record(ter_obs::kind::CHECKPOINT, wal_seq, bytes, 0, us);
        Ok(bytes)
    }

    /// Writes an incremental **delta checkpoint**: `delta` carries the
    /// state change from the durable chain tip `base_seq` to `wal_seq`
    /// (see [`crate::delta`]). The manifest is *not* flipped — recovery
    /// discovers deltas by directory scan and chains them off the
    /// manifest's full checkpoint — so a damaged delta costs only the
    /// chain suffix above it, never the base. Stamps must chain exactly
    /// onto the current tip and lie in the committed WAL range. Returns
    /// the delta file's byte size.
    pub fn checkpoint_delta_at(
        &mut self,
        base_seq: u64,
        wal_seq: u64,
        delta: &StateDelta,
    ) -> Result<u64, StoreError> {
        let t0 = ter_obs::timer();
        if self.tip_seq != Some(base_seq) {
            return Err(StoreError::Mismatch(format!(
                "delta base {base_seq} does not chain onto the durable tip {:?}",
                self.tip_seq
            )));
        }
        if wal_seq <= base_seq {
            return Err(StoreError::Mismatch(format!(
                "delta stamps do not advance ({base_seq} -> {wal_seq})"
            )));
        }
        if wal_seq < self.wal.base_seq() || wal_seq > self.wal.next_seq() {
            return Err(StoreError::Mismatch(format!(
                "delta stamp {wal_seq} outside the committed WAL range [{}, {}]",
                self.wal.base_seq(),
                self.wal.next_seq()
            )));
        }
        // Same rule as full checkpoints: a durable stamp must never name
        // a position the log could lose.
        self.wal.sync()?;
        let name = delta_file_name(base_seq, wal_seq);
        let path = self.dir.join(&name);
        let bytes = DeltaFile::write(&path, self.fingerprint, base_seq, wal_seq, delta)?;
        self.tip_seq = Some(wal_seq);
        self.chain_len += 1;
        self.chain_bytes += bytes;
        ter_obs::OBS.delta_checkpoints.inc();
        ter_obs::OBS.delta_bytes.add(bytes);
        ter_obs::OBS.delta_chain_length.set(self.chain_len as u64);
        ter_obs::OBS.last_checkpoint_seq.set(wal_seq);
        let (chain, us) = (self.chain_len as u64, ter_obs::since(t0));
        ter_obs::record(ter_obs::kind::DELTA, wal_seq, bytes, chain, us);
        Ok(bytes)
    }

    /// Stamp of the newest durable state on disk (`None` before the
    /// first full checkpoint) — what the next delta must chain onto.
    pub fn tip_seq(&self) -> Option<u64> {
        self.tip_seq
    }

    /// Deltas on the current chain (0 right after a full checkpoint).
    pub fn chain_len(&self) -> usize {
        self.chain_len
    }

    /// Cumulative bytes of the current chain's delta files.
    pub fn chain_bytes(&self) -> u64 {
        self.chain_bytes
    }

    /// Whether the chain has outgrown the [`CompactionPolicy`] bounds and
    /// the next checkpoint must be a full rebase.
    pub fn needs_rebase(&self) -> bool {
        self.compaction
            .chain_exceeded(self.chain_len, self.chain_bytes)
    }

    /// `ckpt-*.bin` files present in the directory, newest (highest seq)
    /// first.
    fn checkpoint_files(&self) -> Result<Vec<String>, StoreError> {
        let mut names: Vec<String> = fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with("ckpt-") && n.ends_with(".bin"))
            .collect();
        names.sort();
        names.reverse();
        Ok(names)
    }

    /// Reconstructs the newest consistent (state, WAL suffix) pair. Never
    /// panics: damaged manifests or checkpoints degrade to older
    /// checkpoints and ultimately to a full WAL replay from the empty
    /// state (see the [module docs](self) for the ladder).
    pub fn recover(&self) -> Result<Recovery, StoreError> {
        // Candidate checkpoints: the manifest's first, then any others on
        // disk, newest first.
        let mut candidates: Vec<String> = Vec::new();
        if let Ok(m) = Manifest::load(&self.dir.join(MANIFEST_FILE), self.fingerprint) {
            candidates.push(m.checkpoint);
        }
        for name in self.checkpoint_files()? {
            if !candidates.contains(&name) {
                candidates.push(name);
            }
        }
        let mut state = None;
        let mut checkpoint_seq = 0;
        for name in candidates {
            if let Ok(ck) = Checkpoint::load(&self.dir.join(&name), self.fingerprint) {
                state = Some(ck.state);
                checkpoint_seq = ck.wal_seq;
                break;
            }
        }
        // Extend the base along its delta chain: each link must load,
        // validate, and apply cleanly onto the state reached so far. The
        // first damaged link ends the chain — recovery degrades to the
        // older consistent prefix (base + surviving links) and lets the
        // WAL suffix bridge the rest. Never a panic, never a skip.
        let mut chain_applied = 0;
        if let Some(base_state) = state.take() {
            let files = delta_files_in(&self.dir);
            let mut cur = base_state;
            loop {
                let applied = files.iter().rev().find_map(|(b, t, name)| {
                    if *b != checkpoint_seq || *t <= checkpoint_seq {
                        return None;
                    }
                    let df = DeltaFile::load(&self.dir.join(name), self.fingerprint).ok()?;
                    df.delta.apply(&cur).ok().map(|next| (*t, next))
                });
                match applied {
                    Some((t, next)) => {
                        cur = next;
                        checkpoint_seq = t;
                        chain_applied += 1;
                    }
                    None => break,
                }
            }
            state = Some(cur);
        }
        // The log covers `[base_seq, next_seq)`. A newest-consistent
        // state (checkpoint + chain) older than the base means the store
        // lost both the state the base was advanced for *and* the frames
        // that led up to it — there is no consistent way to bridge the
        // gap, and pretending otherwise would silently skip batches.
        // Refuse. (WAL truncation only ever drops frames beneath the
        // oldest retained *full* checkpoint, so a chain degrading to its
        // base still lands at or above the log base.)
        if checkpoint_seq < self.wal.base_seq() {
            return Err(StoreError::Mismatch(format!(
                "newest consistent checkpoint is at batch {checkpoint_seq} but the WAL \
                 starts at {} — state beneath the log base was lost",
                self.wal.base_seq()
            )));
        }
        // A checkpoint "newer than the WAL" (the log was truncated by tail
        // corruption) simply has nothing to replay — the checkpoint alone
        // is the newest consistent state.
        let suffix = if checkpoint_seq >= self.wal.next_seq() {
            Vec::new()
        } else {
            self.wal
                .read_batches(checkpoint_seq)?
                .into_iter()
                .map(|(_, b)| b)
                .collect()
        };
        Ok(Recovery {
            state,
            checkpoint_seq,
            chain_applied,
            suffix,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ter_repo::{Record, Schema};
    use ter_text::Dictionary;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let p =
                std::env::temp_dir().join(format!("ter_store_dir_{}_{tag}", std::process::id()));
            let _ = fs::remove_dir_all(&p);
            fs::create_dir_all(&p).unwrap();
            Self(p)
        }
        fn path(&self) -> &Path {
            &self.0
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn batch(n: usize, start: u64) -> Vec<Arrival> {
        let schema = Schema::new(vec!["a"]);
        let mut dict = Dictionary::new();
        (0..n)
            .map(|i| {
                let id = start + i as u64;
                Arrival {
                    stream_id: 0,
                    timestamp: id,
                    record: Record::from_texts(&schema, id, &[Some("w")], &mut dict),
                }
            })
            .collect()
    }

    fn state_at(seq: u64) -> EngineState {
        EngineState {
            window_capacity: 8,
            stats: ter_ids::PruneStats {
                total_pairs: seq,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn full_cycle_checkpoint_plus_suffix() {
        let dir = TempDir::new("cycle");
        let (b0, b1, b2) = (batch(2, 0), batch(2, 10), batch(2, 20));
        {
            let mut store = TerStore::open(dir.path(), 1).unwrap();
            store.log_batch(&b0).unwrap();
            store.log_batch(&b1).unwrap();
            store.checkpoint(&state_at(2)).unwrap();
            store.log_batch(&b2).unwrap();
        }
        let store = TerStore::open(dir.path(), 1).unwrap();
        let rec = store.recover().unwrap();
        assert_eq!(rec.state, Some(state_at(2)));
        assert_eq!(rec.checkpoint_seq, 2);
        assert_eq!(rec.suffix, vec![b2]);
        assert_eq!(rec.resume_seq(), 3);
    }

    /// Pipelined serving appends ahead of the engine: the WAL already
    /// holds batch 2 when the state covering batches 0–1 is
    /// checkpointed. The explicit stamp makes recovery replay exactly
    /// the un-stepped suffix; stamps outside the committed range are
    /// refused.
    #[test]
    fn checkpoint_at_explicit_seq_replays_the_pipelined_suffix() {
        let dir = TempDir::new("pipelined_ckpt");
        let (b0, b1, b2) = (batch(2, 0), batch(2, 10), batch(2, 20));
        {
            let mut store = TerStore::open(dir.path(), 1).unwrap();
            store.log_batch(&b0).unwrap();
            store.log_batch(&b1).unwrap();
            // Batch 2 is already appended (WAL runs ahead)...
            store.log_batch(&b2).unwrap();
            // ...but the engine has only stepped batches 0–1.
            store.checkpoint_at(2, &state_at(2)).unwrap();
            assert!(matches!(
                store.checkpoint_at(4, &state_at(4)),
                Err(StoreError::Mismatch(_))
            ));
        }
        let store = TerStore::open(dir.path(), 1).unwrap();
        let rec = store.recover().unwrap();
        assert_eq!(rec.state, Some(state_at(2)));
        assert_eq!(rec.checkpoint_seq, 2);
        assert_eq!(rec.suffix, vec![b2]);
        assert_eq!(rec.resume_seq(), 3);
    }

    #[test]
    fn no_manifest_replays_everything() {
        let dir = TempDir::new("nomani");
        let (b0, b1) = (batch(1, 0), batch(1, 10));
        {
            let mut store = TerStore::open(dir.path(), 1).unwrap();
            store.log_batch(&b0).unwrap();
            store.log_batch(&b1).unwrap();
        }
        let store = TerStore::open(dir.path(), 1).unwrap();
        let rec = store.recover().unwrap();
        assert_eq!(rec.state, None);
        assert_eq!(rec.checkpoint_seq, 0);
        assert_eq!(rec.suffix, vec![b0, b1]);
    }

    #[test]
    fn empty_manifest_falls_back_to_on_disk_checkpoint() {
        let dir = TempDir::new("emptymani");
        let b0 = batch(1, 0);
        {
            let mut store = TerStore::open(dir.path(), 1).unwrap();
            store.log_batch(&b0).unwrap();
            store.checkpoint(&state_at(1)).unwrap();
        }
        fs::write(dir.path().join(MANIFEST_FILE), b"").unwrap();
        let store = TerStore::open(dir.path(), 1).unwrap();
        let rec = store.recover().unwrap();
        // The checkpoint file itself is still discovered and used.
        assert_eq!(rec.state, Some(state_at(1)));
        assert_eq!(rec.checkpoint_seq, 1);
        assert!(rec.suffix.is_empty());
    }

    #[test]
    fn corrupt_checkpoint_degrades_to_full_replay() {
        let dir = TempDir::new("badckpt");
        let b0 = batch(1, 0);
        {
            let mut store = TerStore::open(dir.path(), 1).unwrap();
            store.log_batch(&b0).unwrap();
            store.checkpoint(&state_at(1)).unwrap();
        }
        let name = checkpoint_file_name(1);
        let mut bytes = fs::read(dir.path().join(&name)).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(dir.path().join(&name), &bytes).unwrap();
        let store = TerStore::open(dir.path(), 1).unwrap();
        let rec = store.recover().unwrap();
        assert_eq!(rec.state, None);
        assert_eq!(rec.checkpoint_seq, 0);
        assert_eq!(rec.suffix, vec![b0]);
    }

    #[test]
    fn checkpoint_newer_than_wal_stands_alone() {
        let dir = TempDir::new("newer");
        {
            let mut store = TerStore::open(dir.path(), 1).unwrap();
            store.log_batch(&batch(1, 0)).unwrap();
            store.log_batch(&batch(1, 10)).unwrap();
            store.checkpoint(&state_at(2)).unwrap();
        }
        // Lose the whole WAL (e.g. tail corruption truncated it to zero).
        fs::remove_file(dir.path().join(WAL_FILE)).unwrap();
        let store = TerStore::open(dir.path(), 1).unwrap();
        // The fresh log is re-based at the durable checkpoint, so the
        // logical stream position survives the loss.
        assert_eq!(store.wal_seq(), 2);
        let rec = store.recover().unwrap();
        assert_eq!(rec.state, Some(state_at(2)));
        assert_eq!(rec.checkpoint_seq, 2);
        assert!(rec.suffix.is_empty(), "no suffix can exist past the WAL");
        assert_eq!(rec.resume_seq(), 2);
    }

    /// Sequence numbering must keep counting the logical stream across a
    /// WAL loss: post-recovery appends and checkpoints continue at the
    /// checkpoint's offset instead of restarting at 0 (which would make
    /// `resume_seq` under-count and double-feed the stream).
    #[test]
    fn seq_numbering_survives_wal_reset() {
        let dir = TempDir::new("rebase");
        {
            let mut store = TerStore::open(dir.path(), 1).unwrap();
            store.log_batch(&batch(1, 0)).unwrap();
            store.log_batch(&batch(1, 10)).unwrap();
            store.checkpoint(&state_at(2)).unwrap();
        }
        // Garbage-corrupt the WAL header: open resets it, then re-bases.
        fs::write(dir.path().join(WAL_FILE), b"garbage").unwrap();
        let mut store = TerStore::open(dir.path(), 1).unwrap();
        assert_eq!(store.wal_seq(), 2);
        let (b2, b3) = (batch(1, 20), batch(1, 30));
        assert_eq!(store.log_batch(&b2).unwrap(), 2);
        store.checkpoint(&state_at(3)).unwrap();
        assert_eq!(store.log_batch(&b3).unwrap(), 3);
        drop(store);

        let store = TerStore::open(dir.path(), 1).unwrap();
        let rec = store.recover().unwrap();
        assert_eq!(rec.state, Some(state_at(3)));
        assert_eq!(rec.checkpoint_seq, 3);
        assert_eq!(rec.suffix, vec![b3]);
        assert_eq!(rec.resume_seq(), 4);
    }

    /// If the checkpoint the WAL was re-based on is later destroyed, no
    /// consistent state covers the gap below the log base — recovery must
    /// refuse (an error, never a panic, and never a silent skip).
    #[test]
    fn unbridgeable_gap_is_refused() {
        let dir = TempDir::new("gap");
        {
            let mut store = TerStore::open(dir.path(), 1).unwrap();
            store.log_batch(&batch(1, 0)).unwrap();
            store.log_batch(&batch(1, 10)).unwrap();
            store.checkpoint(&state_at(2)).unwrap();
        }
        fs::remove_file(dir.path().join(WAL_FILE)).unwrap();
        // Re-bases the WAL at 2 (checkpoint still valid at this point).
        drop(TerStore::open(dir.path(), 1).unwrap());
        // Now the checkpoint is destroyed too.
        fs::remove_file(dir.path().join(checkpoint_file_name(2))).unwrap();
        let store = TerStore::open(dir.path(), 1).unwrap();
        assert!(matches!(store.recover(), Err(StoreError::Mismatch(_))));
    }

    #[test]
    fn older_checkpoints_are_pruned_only_after_manifest_flip() {
        let dir = TempDir::new("prune");
        let mut store = TerStore::open(dir.path(), 1).unwrap();
        store.log_batch(&batch(1, 0)).unwrap();
        store.checkpoint(&state_at(1)).unwrap();
        store.log_batch(&batch(1, 10)).unwrap();
        store.checkpoint(&state_at(2)).unwrap();
        let files = store.checkpoint_files().unwrap();
        assert_eq!(files, vec![checkpoint_file_name(2)]);
        let rec = store.recover().unwrap();
        assert_eq!(rec.state, Some(state_at(2)));
    }

    /// Two-generation compaction bounds the WAL while keeping *both*
    /// surviving checkpoint generations recoverable: with either one
    /// destroyed, recovery reconstructs the exact same stream position
    /// from the other plus the retained WAL frames.
    #[test]
    fn compaction_recovers_from_either_surviving_generation() {
        let batches: Vec<Vec<Arrival>> = (0..8).map(|i| batch(1, i * 10)).collect();
        // Build: 3 batches, ckpt A (seq 3), 2 batches, ckpt B (seq 5),
        // 2 more batches logged after B.
        let build = |dir: &Path| {
            let mut store = TerStore::open(dir, 1).unwrap();
            store.set_compaction(CompactionPolicy::two_generation());
            for b in &batches[..3] {
                store.log_batch(b).unwrap();
            }
            store.checkpoint(&state_at(3)).unwrap();
            // One generation so far: the WAL must NOT have been compacted
            // (a damaged ckpt A could still need the full replay).
            assert_eq!(store.wal.base_seq(), 0);
            for b in &batches[3..5] {
                store.log_batch(b).unwrap();
            }
            store.checkpoint(&state_at(5)).unwrap();
            // Two generations passed: frames below A (seq 3) are gone.
            assert_eq!(store.wal.base_seq(), 3);
            for b in &batches[5..7] {
                store.log_batch(b).unwrap();
            }
            let mut names = store.checkpoint_files().unwrap();
            names.sort();
            assert_eq!(
                names,
                vec![checkpoint_file_name(3), checkpoint_file_name(5)],
                "exactly the two newest generations are retained"
            );
        };

        // Newest generation (B) destroyed → recover from A, replaying the
        // retained frames 3.. (the compacted WAL still covers them).
        let dir = TempDir::new("gen_b_lost");
        build(dir.path());
        fs::remove_file(dir.path().join(checkpoint_file_name(5))).unwrap();
        let store = TerStore::open(dir.path(), 1).unwrap();
        let rec = store.recover().unwrap();
        assert_eq!(rec.state, Some(state_at(3)));
        assert_eq!(rec.checkpoint_seq, 3);
        assert_eq!(rec.suffix, batches[3..7].to_vec());
        assert_eq!(rec.resume_seq(), 7);

        // Older generation (A) corrupted → recover from B.
        let dir = TempDir::new("gen_a_lost");
        build(dir.path());
        let a = dir.path().join(checkpoint_file_name(3));
        let mut bytes = fs::read(&a).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&a, &bytes).unwrap();
        let store = TerStore::open(dir.path(), 1).unwrap();
        let rec = store.recover().unwrap();
        assert_eq!(rec.state, Some(state_at(5)));
        assert_eq!(rec.checkpoint_seq, 5);
        assert_eq!(rec.suffix, batches[5..7].to_vec());
        assert_eq!(rec.resume_seq(), 7);

        // Both intact → the manifest's generation wins, same position.
        let dir = TempDir::new("gen_both");
        build(dir.path());
        let store = TerStore::open(dir.path(), 1).unwrap();
        let rec = store.recover().unwrap();
        assert_eq!(rec.checkpoint_seq, 5);
        assert_eq!(rec.resume_seq(), 7);
    }

    /// A third checkpoint under the two-generation policy rolls the
    /// retention window forward: generation 1 disappears, the WAL base
    /// advances to generation 2.
    #[test]
    fn compaction_rolls_generations_forward() {
        let dir = TempDir::new("genroll");
        let mut store = TerStore::open(dir.path(), 1).unwrap();
        store.set_compaction(CompactionPolicy::two_generation());
        for i in 0..3 {
            store.log_batch(&batch(1, i * 10)).unwrap();
            store.checkpoint(&state_at(i + 1)).unwrap();
        }
        let mut names = store.checkpoint_files().unwrap();
        names.sort();
        assert_eq!(
            names,
            vec![checkpoint_file_name(2), checkpoint_file_name(3)]
        );
        assert_eq!(store.wal.base_seq(), 2);
        assert_eq!(store.wal_seq(), 3);
        let rec = store.recover().unwrap();
        assert_eq!(rec.state, Some(state_at(3)));
        assert!(rec.suffix.is_empty());
    }

    fn delta(from: u64, to: u64) -> StateDelta {
        ter_ids::delta_between(&state_at(from), &state_at(to)).unwrap()
    }

    #[test]
    fn delta_chain_recovers_to_tip() {
        let dir = TempDir::new("chain");
        let (b0, b1, b2, b3) = (batch(1, 0), batch(1, 10), batch(1, 20), batch(1, 30));
        {
            let mut store = TerStore::open(dir.path(), 1).unwrap();
            store.log_batch(&b0).unwrap();
            store.checkpoint(&state_at(1)).unwrap();
            assert_eq!(store.tip_seq(), Some(1));
            store.log_batch(&b1).unwrap();
            store.checkpoint_delta_at(1, 2, &delta(1, 2)).unwrap();
            store.log_batch(&b2).unwrap();
            store.checkpoint_delta_at(2, 3, &delta(2, 3)).unwrap();
            assert_eq!((store.chain_len(), store.tip_seq()), (2, Some(3)));
            assert!(store.chain_bytes() > 0);
            store.log_batch(&b3).unwrap();
        }
        let store = TerStore::open(dir.path(), 1).unwrap();
        assert_eq!((store.chain_len(), store.tip_seq()), (2, Some(3)));
        let rec = store.recover().unwrap();
        assert_eq!(rec.state, Some(state_at(3)));
        assert_eq!(rec.checkpoint_seq, 3);
        assert_eq!(rec.chain_applied, 2);
        assert_eq!(rec.suffix, vec![b3]);
        assert_eq!(rec.resume_seq(), 4);
    }

    /// A damaged mid-chain delta ends the chain there: recovery restores
    /// the base plus the surviving prefix and replays the rest from the
    /// WAL — the same stream position, reached the slower way.
    #[test]
    fn damaged_delta_degrades_to_older_prefix() {
        let dir = TempDir::new("chainbad");
        let (b0, b1, b2) = (batch(1, 0), batch(1, 10), batch(1, 20));
        {
            let mut store = TerStore::open(dir.path(), 1).unwrap();
            store.log_batch(&b0).unwrap();
            store.checkpoint(&state_at(1)).unwrap();
            store.log_batch(&b1).unwrap();
            store.checkpoint_delta_at(1, 2, &delta(1, 2)).unwrap();
            store.log_batch(&b2).unwrap();
            store.checkpoint_delta_at(2, 3, &delta(2, 3)).unwrap();
        }
        let second = dir.path().join(delta_file_name(2, 3));
        let mut bytes = fs::read(&second).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&second, &bytes).unwrap();
        let store = TerStore::open(dir.path(), 1).unwrap();
        let rec = store.recover().unwrap();
        assert_eq!(rec.state, Some(state_at(2)));
        assert_eq!(rec.checkpoint_seq, 2);
        assert_eq!(rec.chain_applied, 1);
        assert_eq!(rec.suffix, vec![b2]);
        assert_eq!(rec.resume_seq(), 3, "same position, reached via WAL");
    }

    #[test]
    fn delta_stamps_must_chain_onto_the_tip() {
        let dir = TempDir::new("chaintip");
        let mut store = TerStore::open(dir.path(), 1).unwrap();
        store.log_batch(&batch(1, 0)).unwrap();
        // No full checkpoint yet: nothing to chain onto.
        assert!(store.checkpoint_delta_at(0, 1, &delta(0, 1)).is_err());
        store.checkpoint(&state_at(1)).unwrap();
        store.log_batch(&batch(1, 10)).unwrap();
        // Wrong base, non-advancing stamp, stamp past the log: refused.
        assert!(store.checkpoint_delta_at(0, 2, &delta(0, 2)).is_err());
        assert!(store.checkpoint_delta_at(1, 1, &delta(1, 1)).is_err());
        assert!(store.checkpoint_delta_at(1, 9, &delta(1, 9)).is_err());
        store.checkpoint_delta_at(1, 2, &delta(1, 2)).unwrap();
        // The old tip is spent — the next delta chains onto 2, not 1.
        store.log_batch(&batch(1, 20)).unwrap();
        assert!(store.checkpoint_delta_at(1, 3, &delta(1, 3)).is_err());
        store.checkpoint_delta_at(2, 3, &delta(2, 3)).unwrap();
    }

    /// A full checkpoint closes the chain and (under the default policy,
    /// `keep_checkpoints: 1`) prunes every delta the retained generation
    /// covers; the chain counters restart at zero.
    #[test]
    fn full_checkpoint_resets_chain_and_prunes_spent_deltas() {
        let dir = TempDir::new("chainreset");
        let mut store = TerStore::open(dir.path(), 1).unwrap();
        store.set_compaction(CompactionPolicy {
            max_chain_len: 2,
            ..CompactionPolicy::default()
        });
        store.log_batch(&batch(1, 0)).unwrap();
        store.checkpoint(&state_at(1)).unwrap();
        store.log_batch(&batch(1, 10)).unwrap();
        store.checkpoint_delta_at(1, 2, &delta(1, 2)).unwrap();
        assert!(!store.needs_rebase());
        store.log_batch(&batch(1, 20)).unwrap();
        store.checkpoint_delta_at(2, 3, &delta(2, 3)).unwrap();
        assert!(store.needs_rebase(), "chain bound reached");
        store.checkpoint(&state_at(3)).unwrap();
        assert_eq!((store.chain_len(), store.chain_bytes()), (0, 0));
        assert_eq!(store.tip_seq(), Some(3));
        assert!(!store.needs_rebase());
        assert_eq!(delta_files_in(dir.path()), vec![], "spent deltas pruned");
        let rec = store.recover().unwrap();
        assert_eq!(rec.state, Some(state_at(3)));
        assert_eq!(rec.chain_applied, 0);
    }

    /// Losing the WAL must re-base the fresh log at the *chain tip*, not
    /// merely the full checkpoint beneath it — otherwise post-recovery
    /// sequence numbers would collide with the surviving deltas.
    #[test]
    fn wal_reset_rebases_at_the_chain_tip() {
        let dir = TempDir::new("chainrebase");
        {
            let mut store = TerStore::open(dir.path(), 1).unwrap();
            store.log_batch(&batch(1, 0)).unwrap();
            store.checkpoint(&state_at(1)).unwrap();
            store.log_batch(&batch(1, 10)).unwrap();
            store.checkpoint_delta_at(1, 2, &delta(1, 2)).unwrap();
        }
        fs::remove_file(dir.path().join(WAL_FILE)).unwrap();
        let store = TerStore::open(dir.path(), 1).unwrap();
        assert_eq!(store.wal_seq(), 2, "log re-based at the chain tip");
        let rec = store.recover().unwrap();
        assert_eq!(rec.state, Some(state_at(2)));
        assert_eq!(rec.checkpoint_seq, 2);
        assert_eq!(rec.chain_applied, 1);
        assert!(rec.suffix.is_empty());
    }

    #[test]
    fn fingerprint_mismatch_refused_at_open() {
        let dir = TempDir::new("fpmis");
        {
            let mut store = TerStore::open(dir.path(), 1).unwrap();
            store.log_batch(&batch(1, 0)).unwrap();
        }
        assert!(matches!(
            TerStore::open(dir.path(), 2),
            Err(StoreError::Mismatch(_))
        ));
    }

    #[test]
    fn foreign_fingerprint_checkpoint_is_ignored() {
        let dir = TempDir::new("fpckpt");
        let b0 = batch(1, 0);
        {
            let mut store = TerStore::open(dir.path(), 1).unwrap();
            store.log_batch(&b0).unwrap();
            store.checkpoint(&state_at(1)).unwrap();
        }
        // Same directory opened under another identity: WAL refuses.
        assert!(TerStore::open(dir.path(), 9).is_err());
        // Fabricate a store whose WAL matches but whose checkpoint does
        // not (as if the manifest survived a context change).
        fs::remove_file(dir.path().join(WAL_FILE)).unwrap();
        let store = TerStore::open(dir.path(), 9).unwrap();
        let rec = store.recover().unwrap();
        assert_eq!(rec.state, None, "foreign checkpoint must not load");
    }
}
