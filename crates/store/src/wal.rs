//! The append-only write-ahead log of arrival batches.
//!
//! File layout (`wal.log`):
//!
//! ```text
//! [magic "TERWAL01"; 8 bytes][fingerprint: u64 LE][base_seq: u64 LE][frame]*
//! ```
//!
//! Each frame's payload is `[seq: u64][Vec<Arrival>]` where `seq` starts
//! at the header's `base_seq` and must increase by exactly 1 per frame —
//! the WAL is a dense run `[base_seq, next_seq)` of the arrival-batch
//! sequence. `base_seq` is 0 for a fresh log; it moves forward only when
//! the store resets a lost/stale log underneath a newer durable
//! checkpoint ([`Wal::reset_to`]), so sequence numbers — and with them
//! checkpoint offsets and the resume position — stay monotonic across
//! resets instead of silently restarting at 0. Appends are buffered
//! nowhere: [`Wal::append`] writes the frame and `fsync`s before
//! returning (fsync-on-commit), so a batch handed to the engine is
//! already durable.
//!
//! [`Wal::open`] scans the existing file and **truncates to the newest
//! consistent prefix**: a torn tail (crash mid-append), a CRC-corrupt
//! frame, an undecodable payload, or a sequence gap each cut the file at
//! the last frame that was fully valid. A file with a damaged header is
//! reset to empty. None of these paths panic — corruption degrades to
//! replaying less, never to refusing service.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

use ter_stream::Arrival;

use crate::codec::{decode_exact, Codec, Encoder};
use crate::frame::{read_frame, write_frame};
use crate::StoreError;

/// Magic prefix of a WAL file (embeds the format version).
pub const WAL_MAGIC: &[u8; 8] = b"TERWAL01";

const HEADER_LEN: u64 = 24;

/// One recovered WAL record.
#[derive(Debug, Clone, PartialEq)]
struct BatchRecord {
    seq: u64,
    arrivals: Vec<Arrival>,
}

impl Codec for BatchRecord {
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(self.seq);
        self.arrivals.encode(enc);
    }
    fn decode(dec: &mut crate::codec::Decoder<'_>) -> Result<Self, crate::codec::CodecError> {
        Ok(BatchRecord {
            seq: dec.u64()?,
            arrivals: Vec::decode(dec)?,
        })
    }
}

/// The open write-ahead log. See the [module docs](self).
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    fingerprint: u64,
    /// First sequence number the log covers (0 unless reset forward).
    base_seq: u64,
    /// Sequence number the next appended batch will get.
    next_seq: u64,
    /// Committed byte length of the file.
    tail: u64,
    /// Byte length covered by the last fsync — the power-loss-durable
    /// prefix. Equals `tail` except between [`Wal::append_nosync`] and
    /// [`Wal::sync`].
    synced_tail: u64,
    /// Sequence the durable prefix reaches (`next_seq` of the last sync).
    synced_seq: u64,
    /// Commit-path fsyncs issued so far (group-commit instrumentation).
    fsyncs: u64,
    /// Fault-injection shim: artificial latency added to every commit
    /// fsync. Zero outside fault-injection tests.
    sync_delay: std::time::Duration,
}

impl Wal {
    /// Opens (creating if absent) the WAL at `path`, validating the
    /// existing content and truncating any inconsistent tail.
    ///
    /// `fingerprint` identifies the (context, params) the log belongs to;
    /// an existing WAL with a *valid* header but a different fingerprint
    /// is refused (feeding another context's token ids into an engine
    /// would silently corrupt results — that is an operator error, not
    /// recoverable corruption).
    pub fn open(path: impl Into<PathBuf>, fingerprint: u64) -> Result<Self, StoreError> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let header_ok = bytes.len() >= HEADER_LEN as usize && &bytes[..8] == WAL_MAGIC;
        if !header_ok {
            // Unrecognizable header: the newest consistent prefix is
            // empty. Reset rather than refuse. (The store layer moves the
            // base forward afterwards if a newer checkpoint exists, so
            // sequence numbers never run backwards.)
            let mut wal = Self {
                file,
                path,
                fingerprint,
                base_seq: 0,
                next_seq: 0,
                tail: HEADER_LEN,
                synced_tail: HEADER_LEN,
                synced_seq: 0,
                fsyncs: 0,
                sync_delay: std::time::Duration::ZERO,
            };
            wal.write_header(0)?;
            return Ok(wal);
        }
        let found = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        if found != fingerprint {
            return Err(StoreError::Mismatch(format!(
                "WAL fingerprint {found:#x} != expected {fingerprint:#x}"
            )));
        }
        let base_seq = u64::from_le_bytes(bytes[16..24].try_into().unwrap());

        // Scan frames; stop at the first inconsistency.
        let mut pos = HEADER_LEN as usize;
        let mut next_seq = base_seq;
        loop {
            let mut probe = pos;
            match read_frame(&bytes, &mut probe) {
                Ok(payload) => match decode_exact::<BatchRecord>(payload) {
                    Ok(rec) if rec.seq == next_seq => {
                        next_seq += 1;
                        pos = probe;
                    }
                    _ => break, // wrong seq or undecodable — cut here
                },
                // Clean EOF is indistinguishable from a torn tail here and
                // needs no distinction: both cut at the last valid frame
                // (for a clean EOF that is already the end of the file).
                Err(_) => break,
            }
        }
        if pos as u64 != bytes.len() as u64 {
            file.set_len(pos as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(pos as u64))?;
        Ok(Self {
            file,
            path,
            fingerprint,
            base_seq,
            next_seq,
            // The scanned prefix was validated on disk, so it is as
            // durable as the file itself: start with nothing pending.
            tail: pos as u64,
            synced_tail: pos as u64,
            synced_seq: next_seq,
            fsyncs: 0,
            sync_delay: std::time::Duration::ZERO,
        })
    }

    /// Rewrites the 24-byte header (truncating the file) so the empty log
    /// covers `[base, base)`.
    fn write_header(&mut self, base: u64) -> Result<(), StoreError> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(WAL_MAGIC)?;
        self.file.write_all(&self.fingerprint.to_le_bytes())?;
        self.file.write_all(&base.to_le_bytes())?;
        self.file.sync_data()?;
        self.base_seq = base;
        self.next_seq = base;
        self.tail = HEADER_LEN;
        self.synced_tail = HEADER_LEN;
        self.synced_seq = base;
        Ok(())
    }

    /// Empties the log and moves its sequence base to `base` — used by the
    /// store when the log fell behind a newer durable checkpoint (lost
    /// file, corrupt header, truncated tail): the stale frames are covered
    /// by the checkpoint, and keeping the sequence monotonic means later
    /// checkpoints and `resume_seq` keep counting the logical stream
    /// position instead of restarting at 0.
    pub fn reset_to(&mut self, base: u64) -> Result<(), StoreError> {
        self.write_header(base)
    }

    /// First sequence number the log covers.
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// The next appended batch's sequence number (== the logical stream
    /// position in committed batches).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Committed size in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.tail
    }

    /// Byte length of the power-loss-durable prefix: everything at or
    /// below this offset survived the last [`Wal::sync`] (appends since
    /// then sit only in the page cache).
    pub fn synced_len_bytes(&self) -> u64 {
        self.synced_tail
    }

    /// Sequence the durable prefix reaches: batches `< synced_seq` are
    /// fsynced, batches in `[synced_seq, next_seq)` are appended but not
    /// yet covered by a sync.
    pub fn synced_seq(&self) -> u64 {
        self.synced_seq
    }

    /// Commit-path fsyncs issued so far ([`Wal::sync`] calls that reached
    /// the disk, including the one inside [`Wal::append`]). Group commit's
    /// whole point is to make this grow slower than `next_seq`.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Fault-injection shim: sleep this long inside every [`Wal::sync`]
    /// before the real fsync, simulating a slow device. Zero disables.
    pub fn set_sync_delay(&mut self, delay: std::time::Duration) {
        self.sync_delay = delay;
    }

    /// Appends one arrival batch and `fsync`s (fsync-on-commit). Returns
    /// the batch's sequence number. The one-batch flush window:
    /// equivalent to [`Wal::append_nosync`] + [`Wal::sync`].
    pub fn append(&mut self, arrivals: &[Arrival]) -> Result<u64, StoreError> {
        let seq = self.append_nosync(arrivals)?;
        self.sync()?;
        Ok(seq)
    }

    /// Appends one arrival batch **without** fsync — the group-commit
    /// half-step. The frame is written to the file (visible to readers
    /// and to a process that dies, since the page cache survives a
    /// kill -9) but not durable against power loss until the next
    /// [`Wal::sync`] covers it. A caller must therefore not acknowledge
    /// the batch to anyone before that sync returns.
    pub fn append_nosync(&mut self, arrivals: &[Arrival]) -> Result<u64, StoreError> {
        let t0 = ter_obs::timer();
        let seq = self.next_seq;
        // Mirrors `BatchRecord::encode` without cloning the batch into a
        // throwaway record — this is the per-commit ingest path.
        let mut enc = Encoder::new();
        enc.u64(seq);
        enc.usize(arrivals.len());
        for a in arrivals {
            a.encode(&mut enc);
        }
        let mut framed = Vec::new();
        write_frame(&mut framed, &enc.into_bytes());
        self.file.seek(SeekFrom::Start(self.tail))?;
        self.file.write_all(&framed)?;
        self.tail += framed.len() as u64;
        self.next_seq += 1;
        ter_obs::OBS.wal_append_bytes.add(framed.len() as u64);
        // Its span lands only if a causal trace is open for this batch
        // sequence (the daemon's commit stage; library callers with a
        // different sequence base cost one relaxed load).
        let bytes = framed.len() as u64;
        ter_obs::record(ter_obs::kind::WAL, seq, bytes, 0, ter_obs::since(t0));
        Ok(seq)
    }

    /// Makes every append so far durable with one fsync (the group
    /// commit). A no-op when nothing is pending — callers can flush
    /// defensively without paying for an empty fsync.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if self.synced_tail == self.tail {
            return Ok(());
        }
        let t0 = ter_obs::timer();
        let covered = self.next_seq - self.synced_seq;
        if !self.sync_delay.is_zero() {
            std::thread::sleep(self.sync_delay);
        }
        self.file.sync_data()?;
        self.fsyncs += 1;
        self.synced_tail = self.tail;
        self.synced_seq = self.next_seq;
        ter_obs::OBS.fsyncs.inc();
        ter_obs::OBS.flush_window_batches.record(covered);
        // The group commit's shared span: the same fsync is linked from
        // every batch it just made durable.
        let us = ter_obs::since(t0);
        ter_obs::record(ter_obs::kind::FSYNC, self.synced_seq, covered, 0, us);
        Ok(())
    }

    /// Drops every frame with sequence `< before_seq`, moving the log's
    /// base forward — WAL compaction. The surviving suffix is rewritten
    /// atomically (tmp file + fsync + rename + dir sync), so a crash at
    /// any point leaves either the old log or the compacted one, never a
    /// torn hybrid. `before_seq` is clamped to `[base_seq, next_seq]`;
    /// compacting the whole log leaves a valid empty log based at
    /// `next_seq`. Returns the number of bytes reclaimed.
    ///
    /// Callers must only drop frames that a *durable* checkpoint already
    /// covers — the store layer enforces its two-generation policy before
    /// calling this.
    pub fn truncate_before(&mut self, before_seq: u64) -> Result<u64, StoreError> {
        let before_seq = before_seq.clamp(self.base_seq, self.next_seq);
        if before_seq == self.base_seq {
            return Ok(0);
        }
        let survivors = self.read_batches(before_seq)?;
        let mut bytes = Vec::with_capacity(HEADER_LEN as usize);
        bytes.extend_from_slice(WAL_MAGIC);
        bytes.extend_from_slice(&self.fingerprint.to_le_bytes());
        bytes.extend_from_slice(&before_seq.to_le_bytes());
        for (seq, arrivals) in &survivors {
            let mut enc = Encoder::new();
            enc.u64(*seq);
            arrivals.encode(&mut enc);
            write_frame(&mut bytes, &enc.into_bytes());
        }
        let tmp = self.path.with_extension("compact");
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_data()?;
        // Keep the handle across the rename: the fd follows the inode, so
        // once `tmp` becomes the WAL there is no reopen step that could
        // fail and silently leave appends going to an unlinked file. If
        // the rename itself fails, `self` is untouched and still owns the
        // original log.
        std::fs::rename(&tmp, &self.path)?;
        if let Some(dir) = self.path.parent() {
            // Best-effort dir sync (matches the checkpoint writer): losing
            // it weakens durability of the rename, not consistency.
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        let reclaimed = self.tail - bytes.len() as u64;
        file.seek(SeekFrom::End(0))?;
        self.file = file;
        self.base_seq = before_seq;
        self.tail = bytes.len() as u64;
        // The rewritten file was fully fsynced before the rename: the
        // durable prefix is the whole log again.
        self.synced_tail = self.tail;
        self.synced_seq = self.next_seq;
        Ok(reclaimed)
    }

    /// Re-reads the committed batches with sequence `>= from_seq`, in
    /// order. The committed region was validated at open and every append
    /// since went through the encoder, so errors here indicate the file
    /// changed underneath us — reported, never panicked.
    pub fn read_batches(&self, from_seq: u64) -> Result<Vec<(u64, Vec<Arrival>)>, StoreError> {
        let mut file = File::open(&self.path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        bytes.truncate(self.tail as usize);
        if bytes.len() < HEADER_LEN as usize || &bytes[..8] != WAL_MAGIC {
            return Err(StoreError::Mismatch("WAL header vanished".into()));
        }
        let mut pos = HEADER_LEN as usize;
        let mut out = Vec::new();
        let mut expect = self.base_seq;
        while pos < bytes.len() {
            let payload = read_frame(&bytes, &mut pos).map_err(StoreError::Frame)?;
            let rec: BatchRecord = decode_exact(payload)?;
            if rec.seq != expect {
                return Err(StoreError::Mismatch(format!(
                    "WAL sequence jumped to {} (expected {expect})",
                    rec.seq
                )));
            }
            expect += 1;
            if rec.seq >= from_seq {
                out.push((rec.seq, rec.arrivals));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use ter_repo::{Record, Schema};
    use ter_text::Dictionary;

    fn temp_path(tag: &str) -> PathBuf {
        let p =
            std::env::temp_dir().join(format!("ter_store_wal_{}_{tag}.log", std::process::id()));
        let _ = fs::remove_file(&p);
        p
    }

    fn arrivals(n: usize, start: u64) -> Vec<Arrival> {
        let schema = Schema::new(vec!["a", "b"]);
        let mut dict = Dictionary::new();
        (0..n)
            .map(|i| {
                let id = start + i as u64;
                let text = format!("tok{id} common");
                Arrival {
                    stream_id: i % 2,
                    timestamp: id,
                    record: Record::from_texts(
                        &schema,
                        id,
                        &[
                            Some(text.as_str()),
                            if i % 3 == 0 { None } else { Some("x") },
                        ],
                        &mut dict,
                    ),
                }
            })
            .collect()
    }

    #[test]
    fn append_reopen_replay() {
        let path = temp_path("replay");
        let b0 = arrivals(3, 0);
        let b1 = arrivals(2, 10);
        {
            let mut wal = Wal::open(&path, 42).unwrap();
            assert_eq!(wal.append(&b0).unwrap(), 0);
            assert_eq!(wal.append(&b1).unwrap(), 1);
        }
        let wal = Wal::open(&path, 42).unwrap();
        assert_eq!(wal.next_seq(), 2);
        let all = wal.read_batches(0).unwrap();
        assert_eq!(all, vec![(0, b0), (1, b1.clone())]);
        let suffix = wal.read_batches(1).unwrap();
        assert_eq!(suffix, vec![(1, b1)]);
        assert!(wal.read_batches(2).unwrap().is_empty());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_truncated_at_every_cut() {
        let path = temp_path("torn");
        let b0 = arrivals(2, 0);
        let b1 = arrivals(2, 10);
        let (full, after_first): (Vec<u8>, u64) = {
            let mut wal = Wal::open(&path, 7).unwrap();
            wal.append(&b0).unwrap();
            let after_first = wal.len_bytes();
            wal.append(&b1).unwrap();
            (fs::read(&path).unwrap(), after_first)
        };
        // Cut the file at every byte boundary inside the second frame: the
        // reopened WAL must come back with exactly the first batch.
        for cut in after_first..full.len() as u64 {
            fs::write(&path, &full[..cut as usize]).unwrap();
            let wal = Wal::open(&path, 7).unwrap();
            assert_eq!(wal.next_seq(), 1, "cut at {cut}");
            assert_eq!(wal.len_bytes(), after_first, "cut at {cut}");
            assert_eq!(wal.read_batches(0).unwrap(), vec![(0, b0.clone())]);
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn corrupt_frame_truncates_to_prefix() {
        let path = temp_path("crc");
        let b0 = arrivals(2, 0);
        let b1 = arrivals(2, 10);
        let after_first = {
            let mut wal = Wal::open(&path, 7).unwrap();
            wal.append(&b0).unwrap();
            let a = wal.len_bytes();
            wal.append(&b1).unwrap();
            a
        };
        let mut bytes = fs::read(&path).unwrap();
        // Flip one payload byte inside the second frame.
        let idx = after_first as usize + 12;
        bytes[idx] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let wal = Wal::open(&path, 7).unwrap();
        assert_eq!(wal.next_seq(), 1);
        assert_eq!(wal.read_batches(0).unwrap(), vec![(0, b0)]);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn garbage_header_resets_to_empty() {
        let path = temp_path("garbage");
        fs::write(&path, b"not a wal at all").unwrap();
        let wal = Wal::open(&path, 7).unwrap();
        assert_eq!(wal.next_seq(), 0);
        assert!(wal.read_batches(0).unwrap().is_empty());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_mismatch_is_refused() {
        let path = temp_path("fp");
        {
            let mut wal = Wal::open(&path, 1).unwrap();
            wal.append(&arrivals(1, 0)).unwrap();
        }
        assert!(matches!(Wal::open(&path, 2), Err(StoreError::Mismatch(_))));
        // The refused open must not have damaged the file.
        let wal = Wal::open(&path, 1).unwrap();
        assert_eq!(wal.next_seq(), 1);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn truncate_before_drops_prefix_and_keeps_appending() {
        let path = temp_path("compact");
        let batches: Vec<Vec<Arrival>> = (0..5).map(|i| arrivals(2, i * 10)).collect();
        let mut wal = Wal::open(&path, 3).unwrap();
        for b in &batches {
            wal.append(b).unwrap();
        }
        let before = wal.len_bytes();
        let reclaimed = wal.truncate_before(3).unwrap();
        assert!(reclaimed > 0 && wal.len_bytes() == before - reclaimed);
        assert_eq!(wal.base_seq(), 3);
        assert_eq!(wal.next_seq(), 5);
        assert_eq!(
            wal.read_batches(0).unwrap(),
            vec![(3, batches[3].clone()), (4, batches[4].clone())]
        );
        // Appends continue at the same logical sequence.
        let b5 = arrivals(1, 90);
        assert_eq!(wal.append(&b5).unwrap(), 5);
        drop(wal);
        // Survives reopen: base comes from the rewritten header.
        let wal = Wal::open(&path, 3).unwrap();
        assert_eq!(wal.base_seq(), 3);
        assert_eq!(wal.next_seq(), 6);
        assert_eq!(wal.read_batches(5).unwrap(), vec![(5, b5)]);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn truncate_before_clamps_and_noops() {
        let path = temp_path("compactclamp");
        let mut wal = Wal::open(&path, 3).unwrap();
        wal.append(&arrivals(1, 0)).unwrap();
        wal.append(&arrivals(1, 10)).unwrap();
        // Below the base: nothing to do.
        assert_eq!(wal.truncate_before(0).unwrap(), 0);
        assert_eq!(wal.base_seq(), 0);
        // Past the tip: clamped to an empty log based at next_seq.
        wal.truncate_before(99).unwrap();
        assert_eq!(wal.base_seq(), 2);
        assert_eq!(wal.next_seq(), 2);
        assert!(wal.read_batches(0).unwrap().is_empty());
        let b = arrivals(1, 20);
        assert_eq!(wal.append(&b).unwrap(), 2);
        assert_eq!(wal.read_batches(0).unwrap(), vec![(2, b)]);
        let _ = fs::remove_file(&path);
    }

    /// One fsync covers a whole flush window, and the counter proves it:
    /// W unsynced appends + one sync = 1 commit fsync, vs W via the
    /// legacy fsync-per-batch `append`.
    #[test]
    fn group_commit_amortizes_fsyncs() {
        let path = temp_path("group");
        let mut wal = Wal::open(&path, 5).unwrap();
        assert_eq!(wal.fsyncs(), 0);
        for i in 0..8u64 {
            assert_eq!(wal.append_nosync(&arrivals(1, i * 10)).unwrap(), i);
        }
        assert_eq!(wal.next_seq(), 8);
        assert_eq!(wal.synced_seq(), 0, "nothing durable before the sync");
        wal.sync().unwrap();
        assert_eq!(wal.fsyncs(), 1, "the window shares one fsync");
        assert_eq!(wal.synced_seq(), 8);
        assert_eq!(wal.synced_len_bytes(), wal.len_bytes());
        // An empty sync is free.
        wal.sync().unwrap();
        assert_eq!(wal.fsyncs(), 1);
        // W=1 degenerates to fsync-per-batch.
        for i in 8..12u64 {
            wal.append(&arrivals(1, i * 10)).unwrap();
        }
        assert_eq!(wal.fsyncs(), 5);
        assert_eq!(wal.synced_seq(), 12);
        let _ = fs::remove_file(&path);
    }

    /// The power-loss model: a crash can keep everything fsynced and any
    /// prefix of the unsynced tail (modulo torn bytes). Cutting the file
    /// at *every* byte between the synced boundary and the true tail must
    /// recover at least the synced prefix — acked-under-group-commit
    /// batches survive every flush-window cut — and never a torn batch.
    #[test]
    fn flush_window_cut_at_every_byte_keeps_the_synced_prefix() {
        let path = temp_path("windowcut");
        let (full, synced_len, synced_seq) = {
            let mut wal = Wal::open(&path, 9).unwrap();
            wal.append_nosync(&arrivals(2, 0)).unwrap();
            wal.append_nosync(&arrivals(1, 10)).unwrap();
            wal.sync().unwrap();
            let (len, seq) = (wal.synced_len_bytes(), wal.synced_seq());
            // An open flush window: two more appends, no covering sync.
            wal.append_nosync(&arrivals(2, 20)).unwrap();
            wal.append_nosync(&arrivals(1, 30)).unwrap();
            assert_eq!(wal.next_seq(), 4);
            (fs::read(&path).unwrap(), len, seq)
        };
        assert!(synced_len < full.len() as u64);
        assert_eq!(synced_seq, 2);
        for cut in synced_len..=full.len() as u64 {
            fs::write(&path, &full[..cut as usize]).unwrap();
            let wal = Wal::open(&path, 9).unwrap();
            assert!(
                wal.next_seq() >= synced_seq,
                "cut at {cut} lost a synced batch ({} < {synced_seq})",
                wal.next_seq()
            );
            // Whatever survived is a dense, fully-valid prefix.
            let batches = wal.read_batches(0).unwrap();
            assert_eq!(batches.len() as u64, wal.next_seq());
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn sync_delay_shim_slows_commits() {
        let path = temp_path("slowsync");
        let mut wal = Wal::open(&path, 2).unwrap();
        wal.set_sync_delay(std::time::Duration::from_millis(30));
        wal.append_nosync(&arrivals(1, 0)).unwrap();
        let t0 = std::time::Instant::now();
        wal.sync().unwrap();
        assert!(
            t0.elapsed() >= std::time::Duration::from_millis(30),
            "injected fsync latency was not applied"
        );
        // The no-op path must stay fast: nothing pending, no delay.
        let t1 = std::time::Instant::now();
        wal.sync().unwrap();
        assert!(t1.elapsed() < std::time::Duration::from_millis(30));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn empty_batch_is_legal() {
        let path = temp_path("empty");
        {
            let mut wal = Wal::open(&path, 1).unwrap();
            wal.append(&[]).unwrap();
            wal.append(&arrivals(1, 0)).unwrap();
        }
        let wal = Wal::open(&path, 1).unwrap();
        assert_eq!(wal.next_seq(), 2);
        assert_eq!(wal.read_batches(0).unwrap()[0].1, vec![]);
        let _ = fs::remove_file(&path);
    }
}
