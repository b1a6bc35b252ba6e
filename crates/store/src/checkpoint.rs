//! Checkpoint and manifest files.
//!
//! A **checkpoint** (`ckpt-<seq>.bin`) snapshots the full
//! [`EngineState`] after `seq` WAL batches:
//!
//! ```text
//! [magic "TERCKPT1"; 8 bytes][frame: [version: u32][fingerprint: u64]
//!                                    [wal_seq: u64][EngineState]]
//! ```
//!
//! The **manifest** (`MANIFEST`) names the latest durable (checkpoint,
//! WAL offset) pair:
//!
//! ```text
//! [magic "TERMANI1"; 8 bytes][frame: [version: u32][fingerprint: u64]
//!                                    [wal_seq: u64][checkpoint file name]]
//! ```
//!
//! Both are single-frame files read with the exact-consume rule, so any
//! single-byte corruption is rejected (see [`crate::frame`]), and both
//! are replaced atomically: write `<name>.tmp`, `fsync`, `rename`,
//! `fsync` the directory. A reader therefore sees either the old or the
//! new file, never a half-written one. Loaders return `Err` on any
//! inconsistency — recovery treats that as "this checkpoint does not
//! exist" and falls back to an older consistent pair, ultimately the
//! empty state plus a full WAL replay.

use std::fs::{self, File};
use std::io::Write;
use std::path::Path;

use ter_ids::EngineState;

use crate::codec::{encode_to_vec, Codec, Decoder, Encoder};
use crate::frame::{decode_single_frame, write_frame};
use crate::StoreError;

/// Magic prefix of a checkpoint file.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"TERCKPT1";
/// Magic prefix of the manifest file.
pub const MANIFEST_MAGIC: &[u8; 8] = b"TERMANI1";
/// Current payload version of the checkpoint, delta and manifest files.
/// Version 5 stores each live tuple as its inputs only (timestamp,
/// stream, imputed tuple) and drops the derived pivot-distance bounds,
/// expectations, token-size bounds and topical flag, which import
/// rebuilds; version 4 dropped each tuple's keyword bit vector, version 3
/// the ER-grid's cells from the engine state (importers rebuild the
/// candidate lists from the window), version 2 each tuple's
/// possible-token set.
pub const FORMAT_VERSION: u32 = 5;

/// A decoded checkpoint: the engine state after `wal_seq` WAL batches.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// (context, params) identity the snapshot belongs to.
    pub fingerprint: u64,
    /// Number of WAL batches folded into `state`.
    pub wal_seq: u64,
    /// The snapshot itself.
    pub state: EngineState,
}

/// The manifest: which checkpoint is current.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// (context, params) identity.
    pub fingerprint: u64,
    /// WAL batches folded into the named checkpoint.
    pub wal_seq: u64,
    /// Checkpoint file name (relative to the store directory).
    pub checkpoint: String,
}

/// The canonical checkpoint file name for a WAL offset.
pub fn checkpoint_file_name(wal_seq: u64) -> String {
    format!("ckpt-{wal_seq:020}.bin")
}

/// Parses the WAL offset back out of a [`checkpoint_file_name`]-shaped
/// file name (`None` for foreign files).
pub fn checkpoint_seq_of(name: &str) -> Option<u64> {
    name.strip_prefix("ckpt-")?
        .strip_suffix(".bin")?
        .parse()
        .ok()
}

/// Writes `bytes` to `path` atomically (tmp + fsync + rename + dir sync).
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        // Make the rename itself durable. Directories cannot be fsynced on
        // every platform; failing to do so weakens durability, not
        // consistency, so this is best-effort.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Reads a single-frame file with `magic`, returning the frame payload.
fn read_single_frame_file(path: &Path, magic: &[u8; 8]) -> Result<Vec<u8>, StoreError> {
    let bytes = fs::read(path)?;
    if bytes.len() < 8 || &bytes[..8] != magic {
        return Err(StoreError::Mismatch("bad file magic".into()));
    }
    Ok(decode_single_frame(&bytes[8..])
        .map_err(StoreError::Frame)?
        .to_vec())
}

impl Checkpoint {
    /// Serializes the checkpoint of `state` after `wal_seq` WAL batches
    /// and atomically writes it to `path`, returning its byte size. The
    /// state is encoded where it lies, never copied.
    pub fn write(
        path: &Path,
        fingerprint: u64,
        wal_seq: u64,
        state: &EngineState,
    ) -> Result<u64, StoreError> {
        let mut payload = Encoder::new();
        payload.u32(FORMAT_VERSION);
        payload.u64(fingerprint);
        payload.u64(wal_seq);
        state.encode(&mut payload);
        let mut bytes = CHECKPOINT_MAGIC.to_vec();
        write_frame(&mut bytes, &payload.into_bytes());
        let total = bytes.len() as u64;
        write_atomic(path, &bytes)?;
        Ok(total)
    }

    /// Loads and validates a checkpoint file.
    pub fn load(path: &Path, fingerprint: u64) -> Result<Self, StoreError> {
        let payload = read_single_frame_file(path, CHECKPOINT_MAGIC)?;
        let mut dec = Decoder::new(&payload);
        let version = dec.u32().map_err(StoreError::Codec)?;
        if version != FORMAT_VERSION {
            return Err(StoreError::Mismatch(format!(
                "checkpoint version {version} (expected {FORMAT_VERSION})"
            )));
        }
        let found = dec.u64().map_err(StoreError::Codec)?;
        if found != fingerprint {
            return Err(StoreError::Mismatch(format!(
                "checkpoint fingerprint {found:#x} != expected {fingerprint:#x}"
            )));
        }
        let wal_seq = dec.u64().map_err(StoreError::Codec)?;
        let state = EngineState::decode(&mut dec).map_err(StoreError::Codec)?;
        if !dec.is_exhausted() {
            return Err(StoreError::Codec(crate::codec::CodecError::TrailingBytes));
        }
        Ok(Self {
            fingerprint,
            wal_seq,
            state,
        })
    }
}

impl Manifest {
    /// Serializes and atomically writes the manifest to `path`.
    pub fn write(&self, path: &Path) -> Result<(), StoreError> {
        let mut payload = Encoder::new();
        payload.u32(FORMAT_VERSION);
        payload.u64(self.fingerprint);
        payload.u64(self.wal_seq);
        payload.str(&self.checkpoint);
        let mut bytes = MANIFEST_MAGIC.to_vec();
        write_frame(&mut bytes, &payload.into_bytes());
        write_atomic(path, &bytes)
    }

    /// Loads and validates the manifest.
    pub fn load(path: &Path, fingerprint: u64) -> Result<Self, StoreError> {
        let payload = read_single_frame_file(path, MANIFEST_MAGIC)?;
        let mut dec = Decoder::new(&payload);
        let version = dec.u32().map_err(StoreError::Codec)?;
        if version != FORMAT_VERSION {
            return Err(StoreError::Mismatch(format!(
                "manifest version {version} (expected {FORMAT_VERSION})"
            )));
        }
        let found = dec.u64().map_err(StoreError::Codec)?;
        if found != fingerprint {
            return Err(StoreError::Mismatch(format!(
                "manifest fingerprint {found:#x} != expected {fingerprint:#x}"
            )));
        }
        let wal_seq = dec.u64().map_err(StoreError::Codec)?;
        let checkpoint = dec.str().map_err(StoreError::Codec)?;
        if !dec.is_exhausted() {
            return Err(StoreError::Codec(crate::codec::CodecError::TrailingBytes));
        }
        if checkpoint.contains(['/', '\\']) || checkpoint.contains("..") {
            return Err(StoreError::Mismatch(
                "manifest checkpoint name escapes the store directory".into(),
            ));
        }
        Ok(Self {
            fingerprint,
            wal_seq,
            checkpoint,
        })
    }
}

/// Round-trips `state` through the checkpoint encoding without touching
/// disk (sizing helper for benches).
pub fn encoded_state_len(state: &EngineState) -> usize {
    encode_to_vec(state).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp(tag: &str) -> PathBuf {
        let p =
            std::env::temp_dir().join(format!("ter_store_ckpt_{}_{tag}.bin", std::process::id()));
        let _ = fs::remove_file(&p);
        p
    }

    fn sample() -> Checkpoint {
        Checkpoint {
            fingerprint: 0xABCD,
            wal_seq: 17,
            state: EngineState {
                window_capacity: 4,
                stats: ter_ids::PruneStats {
                    total_pairs: 9,
                    ..Default::default()
                },
                ..Default::default()
            },
        }
    }

    #[test]
    fn checkpoint_round_trip() {
        let path = temp("rt");
        let ck = sample();
        Checkpoint::write(&path, ck.fingerprint, ck.wal_seq, &ck.state).unwrap();
        assert_eq!(Checkpoint::load(&path, 0xABCD).unwrap(), ck);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_rejects_wrong_fingerprint_and_any_corruption() {
        let path = temp("fp");
        let ck = sample();
        Checkpoint::write(&path, ck.fingerprint, ck.wal_seq, &ck.state).unwrap();
        assert!(Checkpoint::load(&path, 0x1234).is_err());
        let bytes = fs::read(&path).unwrap();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            fs::write(&path, &bad).unwrap();
            assert!(
                Checkpoint::load(&path, 0xABCD).is_err(),
                "corruption at byte {i} accepted"
            );
        }
        let _ = fs::remove_file(&path);
    }

    /// A checkpoint written by an older format (versions 1–4 stored
    /// derived per-tuple fields, see [`FORMAT_VERSION`]) is refused with
    /// the version error rather than misdecoded; recovery then falls back
    /// to an older consistent pair or a full WAL replay.
    #[test]
    fn checkpoint_rejects_older_format_version() {
        for version in [1, 2, 3, 4] {
            let path = temp(&format!("v{version}"));
            let ck = sample();
            let mut payload = Encoder::new();
            payload.u32(version);
            payload.u64(ck.fingerprint);
            payload.u64(ck.wal_seq);
            ck.state.encode(&mut payload);
            let mut bytes = CHECKPOINT_MAGIC.to_vec();
            write_frame(&mut bytes, &payload.into_bytes());
            fs::write(&path, &bytes).unwrap();
            match Checkpoint::load(&path, ck.fingerprint) {
                Err(StoreError::Mismatch(msg)) => {
                    assert_eq!(
                        msg,
                        format!("checkpoint version {version} (expected {FORMAT_VERSION})")
                    )
                }
                other => panic!("version-{version} checkpoint not refused: {other:?}"),
            }
            let _ = fs::remove_file(&path);
        }
    }

    #[test]
    fn manifest_round_trip_and_empty_file() {
        let path = temp("mani");
        let m = Manifest {
            fingerprint: 7,
            wal_seq: 3,
            checkpoint: checkpoint_file_name(3),
        };
        m.write(&path).unwrap();
        assert_eq!(Manifest::load(&path, 7).unwrap(), m);
        // An empty manifest (0-byte file) is invalid, not a panic.
        fs::write(&path, b"").unwrap();
        assert!(Manifest::load(&path, 7).is_err());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn manifest_rejects_path_escapes() {
        let path = temp("escape");
        Manifest {
            fingerprint: 7,
            wal_seq: 0,
            checkpoint: "../../etc/passwd".into(),
        }
        .write(&path)
        .unwrap();
        assert!(Manifest::load(&path, 7).is_err());
        let _ = fs::remove_file(&path);
    }
}
