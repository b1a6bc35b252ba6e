//! `ter_store`: write-ahead log + checkpoint persistence with
//! bit-identical crash recovery.
//!
//! A TER-iDS service must not lose its sliding-window state and result
//! set on restart — without persistence a crash means replaying
//! the whole stream from tuple 0. This crate makes the engine durable:
//!
//! * [`codec`] — a hand-rolled, versioned binary codec (the workspace is
//!   offline; no serde) with bit-exact `f64` transport;
//! * [`frame`] — the length-prefixed CRC-32 frame grammar shared by every
//!   file, with torn-tail vs corruption discrimination;
//! * [`wal`] — the append-only write-ahead log of arrival batches with
//!   fsync-on-commit and truncation to the newest consistent prefix;
//! * [`checkpoint`] — atomic [`EngineState`](ter_ids::EngineState)
//!   snapshots plus the manifest naming the latest durable
//!   (checkpoint, WAL offset) pair;
//! * [`store`] — [`TerStore`], the per-directory orchestration, and
//!   [`Recovery`], the never-panicking recovery ladder.
//!
//! The recovery contract is the repo's gold standard: an engine restored
//! from (checkpoint + WAL-suffix replay) at *any* cut point emits
//! **bit-identical** results, statistics, and per-step match lists to a
//! never-crashed run (`tests/recovery_parity.rs` enforces this across all
//! five dataset presets).

pub mod checkpoint;
pub mod codec;
pub mod delta;
pub mod frame;
pub mod store;
pub mod wal;

#[cfg(test)]
mod proptests;

pub use checkpoint::{Checkpoint, Manifest};
pub use codec::{decode_exact, encode_to_vec, Codec, CodecError, Decoder, Encoder};
pub use delta::DeltaFile;
pub use frame::{crc32, FrameError};
pub use store::{context_fingerprint, CompactionPolicy, Recovery, TerStore};
pub use wal::Wal;

/// Everything that can go wrong in the persistence layer. Recovery
/// callers see `Err`, never a panic.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem-level failure.
    Io(std::io::Error),
    /// A frame failed its integrity checks.
    Frame(FrameError),
    /// A payload failed to decode.
    Codec(CodecError),
    /// The bytes are consistent but belong to something else (wrong
    /// fingerprint, wrong version, foreign file).
    Mismatch(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::Frame(e) => write!(f, "frame error: {e}"),
            StoreError::Codec(e) => write!(f, "codec error: {e}"),
            StoreError::Mismatch(what) => write!(f, "mismatch: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<FrameError> for StoreError {
    fn from(e: FrameError) -> Self {
        StoreError::Frame(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}
