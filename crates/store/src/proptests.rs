//! Property tests for the persistence layer.
//!
//! Two contracts, per the recovery spec:
//!
//! 1. **Round-trip identity** — `decode(encode(v)) == v` (exact, `f64`s
//!    compared bitwise) for every persisted type.
//! 2. **Rejection, not panic** — arbitrary single-byte mutations of a
//!    framed file are rejected (`Err`), and arbitrary byte soup fed to
//!    any decoder returns without panicking.

use proptest::prelude::*;
use ter_ids::{EngineState, LiveEntry, PruneStats, StateDelta};
use ter_repo::Record;
use ter_stream::{Arrival, AttrCandidates, ProbTuple};
use ter_text::{Token, TokenSet};

use crate::codec::{decode_exact, encode_to_vec, Codec};
use crate::frame::{decode_single_frame, read_frame, write_frame};

fn arb_tokenset() -> impl Strategy<Value = TokenSet> {
    proptest::collection::vec(0u32..400, 0..6)
        .prop_map(|v| TokenSet::new(v.into_iter().map(Token).collect()))
}

/// Per-attribute spec: present value, or a (non-empty) candidate
/// distribution for a missing attribute.
type AttrSpec = (bool, TokenSet, Vec<(TokenSet, u32)>);

fn arb_attr_spec() -> impl Strategy<Value = AttrSpec> {
    (
        any::<bool>(),
        arb_tokenset(),
        proptest::collection::vec((arb_tokenset(), 1u32..50), 1..4),
    )
}

fn assemble_prob_tuple(id: u64, specs: &[AttrSpec]) -> ProbTuple {
    let attrs: Vec<Option<TokenSet>> = specs
        .iter()
        .map(|(present, value, _)| present.then(|| value.clone()))
        .collect();
    let base = Record { id, attrs };
    let imputed: Vec<AttrCandidates> = specs
        .iter()
        .enumerate()
        .filter(|(_, (present, _, _))| !present)
        .map(|(attr, (_, _, cands))| {
            AttrCandidates::normalized(
                attr,
                cands.iter().map(|(v, w)| (v.clone(), *w as f64)).collect(),
            )
        })
        .collect();
    ProbTuple { base, imputed }
}

fn arb_prob_tuple() -> impl Strategy<Value = ProbTuple> {
    (
        any::<u64>(),
        proptest::collection::vec(arb_attr_spec(), 1..4),
    )
        .prop_map(|(id, specs)| assemble_prob_tuple(id, &specs))
}

fn arb_live_entry() -> impl Strategy<Value = LiveEntry> {
    (arb_prob_tuple(), 0usize..4, any::<u64>()).prop_map(|(tuple, stream_id, timestamp)| {
        LiveEntry {
            timestamp,
            stream_id,
            tuple,
        }
    })
}

fn arb_prune_stats() -> impl Strategy<Value = PruneStats> {
    proptest::collection::vec(any::<u64>(), 6usize).prop_map(|v| PruneStats {
        total_pairs: v[0],
        topic: v[1],
        sim: v[2],
        prob: v[3],
        instance: v[4],
        matches: v[5],
    })
}

fn arb_pairs() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((any::<u64>(), any::<u64>()), 0..8)
}

fn arb_engine_state() -> impl Strategy<Value = EngineState> {
    // Structurally arbitrary (round-trip does not require the cross-field
    // invariants `EngineState::validate` enforces at import).
    (
        (0usize..500, proptest::collection::vec(any::<u64>(), 0..6)),
        proptest::collection::vec(arb_live_entry(), 0..4),
        (arb_pairs(), arb_pairs(), arb_prune_stats()),
    )
        .prop_map(
            |((cap, counts), live, (results, reported, stats))| EngineState {
                window_capacity: cap,
                live,
                stream_counts: counts.into_iter().map(|c| c as usize).collect(),
                results,
                reported,
                stats,
            },
        )
}

fn arb_state_delta() -> impl Strategy<Value = StateDelta> {
    // The whole-state fields stand in for the delta's lists of the same
    // types.
    (
        arb_engine_state(),
        proptest::collection::vec(any::<u64>(), 0..6),
        arb_pairs(),
    )
        .prop_map(|(s, evicted, results_removed)| StateDelta {
            window_capacity: s.window_capacity,
            evicted,
            arrivals: s.live,
            stream_counts: s.stream_counts,
            results_added: s.results,
            results_removed,
            reported_added: s.reported,
            stats: s.stats,
        })
}

fn round_trip<T: Codec + PartialEq + std::fmt::Debug>(v: &T) {
    let bytes = encode_to_vec(v);
    let back: T = decode_exact(&bytes).expect("round-trip decode failed");
    assert_eq!(&back, v);
    // Canonical: re-encoding reproduces the same bytes.
    assert_eq!(encode_to_vec(&back), bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn token_sets_round_trip(ts in arb_tokenset()) {
        round_trip(&ts);
    }

    #[test]
    fn prob_tuples_round_trip(pt in arb_prob_tuple()) {
        round_trip(&pt.base);
        round_trip(&pt);
    }

    #[test]
    fn arrivals_round_trip(
        pt in arb_prob_tuple(),
        stream_id in 0usize..8,
        timestamp in any::<u64>(),
    ) {
        round_trip(&Arrival { stream_id, timestamp, record: pt.base });
    }

    #[test]
    fn live_entries_round_trip(entry in arb_live_entry()) {
        round_trip(&entry);
    }

    #[test]
    fn engine_states_round_trip(state in arb_engine_state()) {
        round_trip(&state);
    }

    #[test]
    fn state_deltas_round_trip(delta in arb_state_delta()) {
        round_trip(&delta);
    }

    /// Any single-byte change to a single-frame file is rejected: a CRC or
    /// payload byte is a ≤8-bit burst error CRC-32 always detects, a
    /// shrunken length leaves trailing bytes, a grown one tears the frame.
    #[test]
    fn framed_mutations_are_rejected(
        state in arb_engine_state(),
        idx_raw in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let mut framed = Vec::new();
        write_frame(&mut framed, &encode_to_vec(&state));
        let idx = idx_raw % framed.len();
        framed[idx] ^= flip;
        assert!(
            decode_single_frame(&framed).is_err(),
            "mutation {flip:#x} at byte {idx} accepted"
        );
    }

    /// Arbitrary byte soup never panics any decoder — it returns `Ok` of
    /// something or a `CodecError`, both acceptable below the CRC layer.
    #[test]
    fn byte_soup_never_panics(soup in proptest::collection::vec(any::<u8>(), 0..300)) {
        let mut pos = 0;
        let _ = read_frame(&soup, &mut pos);
        let _ = decode_single_frame(&soup);
        let _ = decode_exact::<TokenSet>(&soup);
        let _ = decode_exact::<Record>(&soup);
        let _ = decode_exact::<Arrival>(&soup);
        let _ = decode_exact::<ProbTuple>(&soup);
        let _ = decode_exact::<LiveEntry>(&soup);
        let _ = decode_exact::<PruneStats>(&soup);
        let _ = decode_exact::<EngineState>(&soup);
        let _ = decode_exact::<StateDelta>(&soup);
    }

    /// Truncating an encoded value at any point yields `Err`, not a panic
    /// (torn checkpoint payloads must be survivable).
    #[test]
    fn truncated_states_are_rejected(state in arb_engine_state(), cut_raw in any::<usize>()) {
        let bytes = encode_to_vec(&state);
        if !bytes.is_empty() {
            let cut = cut_raw % bytes.len();
            assert!(decode_exact::<EngineState>(&bytes[..cut]).is_err());
        }
    }

    /// Group-commit crash contract, schedule-randomized: under any
    /// interleaving of `append_nosync` and `sync` (the flush windows), a
    /// power-loss cut anywhere at or past the synced boundary recovers a
    /// dense valid prefix containing every synced — hence every ackable —
    /// batch. The byte-exhaustive single-schedule variant lives in the
    /// wal unit tests; this one varies the schedule itself.
    #[test]
    fn group_commit_schedules_survive_any_cut(
        ops in proptest::collection::vec(any::<bool>(), 1..24),
        cut_frac in 0u32..=1000,
        pt in arb_prob_tuple(),
        seed in any::<u64>(),
    ) {
        let path = std::env::temp_dir().join(format!(
            "ter_store_prop_gc_{}_{seed:016x}.log",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut wal = crate::wal::Wal::open(&path, 11).expect("open");
        let mut appended = 0u64;
        for &do_sync in &ops {
            if do_sync {
                wal.sync().expect("sync");
            } else {
                let arrival = Arrival {
                    stream_id: (appended % 3) as usize,
                    timestamp: appended,
                    record: Record { id: appended, ..pt.base.clone() },
                };
                wal.append_nosync(&[arrival]).expect("append");
                appended += 1;
            }
        }
        let synced_seq = wal.synced_seq();
        let synced_len = wal.synced_len_bytes();
        drop(wal);
        let full = std::fs::read(&path).expect("read wal");
        // A crash keeps the synced prefix and an arbitrary amount of the
        // unsynced tail.
        let span = full.len() as u64 - synced_len;
        let cut = synced_len + span * u64::from(cut_frac) / 1000;
        std::fs::write(&path, &full[..cut as usize]).expect("cut");
        let wal = crate::wal::Wal::open(&path, 11).expect("reopen");
        prop_assert!(
            wal.next_seq() >= synced_seq,
            "cut at {cut} lost a synced batch ({} < {synced_seq})",
            wal.next_seq()
        );
        let batches = wal.read_batches(0).expect("replay");
        prop_assert_eq!(batches.len() as u64, wal.next_seq());
        let _ = std::fs::remove_file(&path);
    }
}
