//! Delta-checkpoint files: incremental frames chained to a base
//! checkpoint.
//!
//! A **delta** (`delt-<base>-<to>.bin`) carries the [`StateDelta`]
//! between two WAL stamps — the state at stamp `to` equals the state at
//! stamp `base` with the delta applied:
//!
//! ```text
//! [magic "TERDELT1"; 8 bytes][frame: [version: u32][fingerprint: u64]
//!                                    [base_seq: u64][wal_seq: u64]
//!                                    [StateDelta]]
//! ```
//!
//! `base_seq` names the predecessor stamp — a full `ckpt-<base>.bin` or
//! another delta whose `wal_seq` equals it — so the files on disk form
//! chains rooted at full checkpoints. Like checkpoints, deltas are
//! single-frame files written atomically and read with the exact-consume
//! rule: any single-byte corruption is rejected, and the recovery ladder
//! treats a rejected delta as "the chain ends here", degrading to the
//! older consistent prefix instead of panicking or skipping.
//!
//! Deltas are legal because window entries are append/evict-only (see
//! [`ter_ids::state`]): a delta between two exported snapshots is exactly
//! the arrivals/evictions, result-set adds/removes and reported
//! additions — size proportional to the churn between the stamps, not to
//! the window.

use std::path::Path;

use ter_ids::StateDelta;

use crate::checkpoint::{write_atomic, FORMAT_VERSION};
use crate::codec::{Codec, Decoder};
use crate::frame::{decode_single_frame, encode_frame};
use crate::StoreError;

/// Magic prefix of a delta-checkpoint file (embeds the format version).
pub const DELTA_MAGIC: &[u8; 8] = b"TERDELT1";

/// A decoded delta file: applying `delta` to the state at `base_seq`
/// yields the state at `wal_seq`.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaFile {
    /// (context, params) identity the delta belongs to.
    pub fingerprint: u64,
    /// Stamp of the predecessor (full checkpoint or earlier delta).
    pub base_seq: u64,
    /// Stamp this delta reaches.
    pub wal_seq: u64,
    /// The incremental payload.
    pub delta: StateDelta,
}

/// The canonical delta file name for a (predecessor, reached) stamp
/// pair. Both stamps are in the name so retention can reason about
/// chains without decoding payloads.
pub fn delta_file_name(base_seq: u64, wal_seq: u64) -> String {
    format!("delt-{base_seq:020}-{wal_seq:020}.bin")
}

/// Parses `(base_seq, wal_seq)` back out of a [`delta_file_name`]-shaped
/// name (`None` for foreign files).
pub fn delta_seqs_of(name: &str) -> Option<(u64, u64)> {
    let core = name.strip_prefix("delt-")?.strip_suffix(".bin")?;
    let (base, to) = core.split_once('-')?;
    // Exactly the zero-padded fixed-width form the writer produces; a
    // hand-renamed file with stray separators must not parse.
    if base.len() != 20 || to.len() != 20 {
        return None;
    }
    Some((base.parse().ok()?, to.parse().ok()?))
}

impl DeltaFile {
    /// Serializes the delta taking the state at `base_seq` to the one at
    /// `wal_seq` and atomically writes it to `path`, returning its total
    /// byte size. The delta is encoded where it lies, never copied.
    pub fn write(
        path: &Path,
        fingerprint: u64,
        base_seq: u64,
        wal_seq: u64,
        delta: &StateDelta,
    ) -> Result<u64, StoreError> {
        let bytes = encode_frame(DELTA_MAGIC.to_vec(), |payload| {
            payload.u32(FORMAT_VERSION);
            payload.u64(fingerprint);
            payload.u64(base_seq);
            payload.u64(wal_seq);
            delta.encode(payload);
        });
        write_atomic(path, &bytes)?;
        Ok(bytes.len() as u64)
    }

    /// Loads and validates a delta file.
    pub fn load(path: &Path, fingerprint: u64) -> Result<Self, StoreError> {
        Self::from_bytes(&std::fs::read(path)?, fingerprint)
    }

    /// Validates and decodes a delta file's bytes.
    pub fn from_bytes(bytes: &[u8], fingerprint: u64) -> Result<Self, StoreError> {
        if bytes.len() < 8 || &bytes[..8] != DELTA_MAGIC {
            return Err(StoreError::Mismatch("bad delta file magic".into()));
        }
        let payload = decode_single_frame(&bytes[8..]).map_err(StoreError::Frame)?;
        let mut dec = Decoder::new(payload);
        let version = dec.u32().map_err(StoreError::Codec)?;
        if version != FORMAT_VERSION {
            return Err(StoreError::Mismatch(format!(
                "delta version {version} (expected {FORMAT_VERSION})"
            )));
        }
        let found = dec.u64().map_err(StoreError::Codec)?;
        if found != fingerprint {
            return Err(StoreError::Mismatch(format!(
                "delta fingerprint {found:#x} != expected {fingerprint:#x}"
            )));
        }
        let base_seq = dec.u64().map_err(StoreError::Codec)?;
        let wal_seq = dec.u64().map_err(StoreError::Codec)?;
        if wal_seq <= base_seq {
            return Err(StoreError::Mismatch(format!(
                "delta stamps do not advance ({base_seq} -> {wal_seq})"
            )));
        }
        let delta = StateDelta::decode(&mut dec).map_err(StoreError::Codec)?;
        if !dec.is_exhausted() {
            return Err(StoreError::Codec(crate::codec::CodecError::TrailingBytes));
        }
        Ok(Self {
            fingerprint,
            base_seq,
            wal_seq,
            delta,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;
    use ter_ids::{LiveEntry, PruneStats};
    use ter_repo::Record;
    use ter_stream::ProbTuple;
    use ter_text::TokenSet;

    fn temp(tag: &str) -> PathBuf {
        let p =
            std::env::temp_dir().join(format!("ter_store_delt_{}_{tag}.bin", std::process::id()));
        let _ = fs::remove_file(&p);
        p
    }

    fn entry(timestamp: u64, id: u64) -> LiveEntry {
        LiveEntry {
            timestamp,
            stream_id: 0,
            tuple: ProbTuple::certain(Record {
                id,
                attrs: vec![Some(TokenSet::empty())],
            })
            .into(),
        }
    }

    fn sample() -> DeltaFile {
        DeltaFile {
            fingerprint: 0xFEED,
            base_seq: 4,
            wal_seq: 9,
            delta: StateDelta {
                window_capacity: 8,
                evicted: vec![3, 4],
                arrivals: vec![entry(7, 21), entry(8, 22)],
                results_added: vec![(21, 22)],
                stats: PruneStats {
                    total_pairs: 5,
                    ..Default::default()
                },
                ..Default::default()
            },
        }
    }

    #[test]
    fn file_name_round_trip() {
        let name = delta_file_name(4, 9);
        assert_eq!(name, format!("delt-{:020}-{:020}.bin", 4, 9));
        assert_eq!(delta_seqs_of(&name), Some((4, 9)));
        assert_eq!(delta_seqs_of("ckpt-00000000000000000004.bin"), None);
        assert_eq!(delta_seqs_of("delt-4-9.bin"), None, "non-canonical widths");
        assert_eq!(delta_seqs_of("delt-junk.bin"), None);
    }

    fn write(path: &Path, d: &DeltaFile) {
        DeltaFile::write(path, d.fingerprint, d.base_seq, d.wal_seq, &d.delta).unwrap();
    }

    #[test]
    fn delta_file_round_trip() {
        let path = temp("rt");
        let d = sample();
        write(&path, &d);
        assert_eq!(DeltaFile::load(&path, 0xFEED).unwrap(), d);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn rejects_wrong_fingerprint_stale_stamps_and_any_corruption() {
        let path = temp("bad");
        write(&path, &sample());
        assert!(DeltaFile::load(&path, 0x1234).is_err());
        let mut regress = sample();
        regress.wal_seq = regress.base_seq;
        write(&path, &regress);
        assert!(
            DeltaFile::load(&path, 0xFEED).is_err(),
            "stamp must advance"
        );
        write(&path, &sample());
        let bytes = fs::read(&path).unwrap();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            fs::write(&path, &bad).unwrap();
            assert!(
                DeltaFile::load(&path, 0xFEED).is_err(),
                "corruption at byte {i} accepted"
            );
        }
        let _ = fs::remove_file(&path);
    }
}
