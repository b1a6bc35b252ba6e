//! A golden store image pins the on-disk format byte for byte.
//!
//! `tests/golden/` holds a store directory written by the format-5 writer:
//! one full checkpoint at stamp 1, one delta taking it to stamp 2, and a
//! three-batch WAL. The same writes, replayed here by the current code,
//! must produce exactly those files, and the current reader must recover
//! the committed files to exactly the state, stamp, chain and WAL suffix
//! the writes describe. A change to the codec, the frame grammar or the
//! CRC then fails here even when it round-trips with itself.

use std::fs;
use std::path::{Path, PathBuf};

use ter_ids::{delta_between, EngineState, LiveEntry, PruneStats};
use ter_repo::{Record, Schema};
use ter_store::TerStore;
use ter_stream::{Arrival, AttrCandidates, ProbTuple};
use ter_text::{tokenize, Dictionary};

/// The identity the image's files are stamped with.
const FINGERPRINT: u64 = 0x5EED_0005_601D_0001;

/// The committed image.
fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// A scratch directory removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!("ter_store_golden_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        fs::create_dir_all(&p).unwrap();
        Self(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// The image's inputs: three arrival batches (ids 0–2, 3–4, 5–7; stream
/// `id % 2`; every third tuple's tags missing) and the states after the
/// first and second batch under a window of 4 (tuple 0 evicted by the
/// second).
struct Fixture {
    batches: Vec<Vec<Arrival>>,
    s1: EngineState,
    s2: EngineState,
}

fn fixture() -> Fixture {
    let schema = Schema::new(vec!["title", "tags"]);
    let mut dict = Dictionary::new();
    let arrivals: Vec<Arrival> = (0..8u64)
        .map(|id| {
            let title = format!("item{id} common");
            let tags = format!("x{} shared", id % 2);
            let tags = (id % 3 != 0).then_some(tags.as_str());
            Arrival {
                stream_id: (id % 2) as usize,
                timestamp: 100 + id,
                record: Record::from_texts(&schema, id, &[Some(&title), tags], &mut dict),
            }
        })
        .collect();
    let scifi = tokenize("scifi shared", &mut dict);
    let drama = tokenize("drama", &mut dict);
    let entry = |a: &Arrival| {
        let tuple = if a.record.is_complete() {
            ProbTuple::certain(a.record.clone())
        } else {
            let cand =
                AttrCandidates::normalized(1, vec![(scifi.clone(), 3.0), (drama.clone(), 1.0)]);
            ProbTuple::new(a.record.clone(), vec![cand])
        };
        LiveEntry {
            timestamp: a.timestamp,
            stream_id: a.stream_id,
            tuple: tuple.into(),
        }
    };
    let s1 = EngineState {
        window_capacity: 4,
        live: arrivals[..3].iter().map(entry).collect(),
        stream_counts: vec![2, 1],
        results: vec![(0, 1)],
        reported: vec![(0, 1)],
        stats: PruneStats {
            total_pairs: 2,
            sim: 1,
            matches: 1,
            ..PruneStats::default()
        },
    };
    let s2 = EngineState {
        window_capacity: 4,
        live: arrivals[1..5].iter().map(entry).collect(),
        stream_counts: vec![2, 2],
        results: vec![(1, 4), (2, 3)],
        reported: vec![(0, 1), (1, 4), (2, 3)],
        stats: PruneStats {
            total_pairs: 6,
            topic: 1,
            sim: 2,
            matches: 3,
            ..PruneStats::default()
        },
    };
    let batches = vec![
        arrivals[..3].to_vec(),
        arrivals[3..5].to_vec(),
        arrivals[5..].to_vec(),
    ];
    Fixture { batches, s1, s2 }
}

/// Writes the image into `dir`: batch 0, the full checkpoint at stamp 1,
/// batch 1, the delta 1 → 2, batch 2.
fn write_image(dir: &Path, fx: &Fixture) {
    let mut store = TerStore::open(dir, FINGERPRINT).unwrap();
    store.log_batch(&fx.batches[0]).unwrap();
    store.checkpoint(&fx.s1).unwrap();
    store.log_batch(&fx.batches[1]).unwrap();
    let delta = delta_between(&fx.s1, &fx.s2).unwrap();
    store.checkpoint_delta_at(1, 2, &delta).unwrap();
    store.log_batch(&fx.batches[2]).unwrap();
}

/// Every file of `dir`, by name, with its bytes.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().into_string().unwrap(),
                fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    out.sort();
    out
}

#[test]
fn golden_image_recovers_to_its_writes() {
    let fx = fixture();
    let dir = TempDir::new("recover");
    for (name, bytes) in files(&golden_dir()) {
        fs::write(dir.0.join(name), bytes).unwrap();
    }
    let store = TerStore::open(&dir.0, FINGERPRINT).unwrap();
    let rec = store.recover().unwrap();
    assert_eq!(rec.state.as_ref(), Some(&fx.s2));
    assert_eq!(rec.checkpoint_seq, 2);
    assert_eq!(rec.chain_applied, 1);
    assert_eq!(rec.suffix, vec![fx.batches[2].clone()]);
    assert_eq!(rec.resume_seq(), 3);
    drop(store);
    assert_eq!(
        files(&dir.0),
        files(&golden_dir()),
        "open or recover rewrote the image"
    );
}

#[test]
fn golden_image_is_rewritten_byte_for_byte() {
    let dir = TempDir::new("rewrite");
    write_image(&dir.0, &fixture());
    let (got, want) = (files(&dir.0), files(&golden_dir()));
    let names = |f: &[(String, Vec<u8>)]| f.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&got), names(&want));
    for ((name, got), (_, want)) in got.iter().zip(&want) {
        assert!(got == want, "{name} differs from the golden image");
    }
}
