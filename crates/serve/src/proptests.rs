//! Property tests for the wire protocol, mirroring the `ter_store` codec
//! proptests: any byte-soup, truncated, or bit-flipped request frame gets
//! a clean error — never a panic and never a hang (the reader consumes a
//! bounded buffer and returns).

use std::io::Cursor;

use proptest::prelude::*;
use ter_repo::{Record, Schema};
use ter_stream::Arrival;
use ter_text::Dictionary;

use crate::wire::{
    decode_reply, decode_request, encode_reply, encode_request, read_message, write_message, Query,
    Reply, Request, StatsInfo, WindowInfo,
};

fn arb_arrivals() -> impl Strategy<Value = Vec<Arrival>> {
    proptest::collection::vec((0usize..4, any::<u64>(), 0u8..4, any::<bool>()), 0..5).prop_map(
        |specs| {
            let schema = Schema::new(vec!["a", "b"]);
            let mut dict = Dictionary::new();
            specs
                .into_iter()
                .enumerate()
                .map(|(i, (stream_id, timestamp, words, missing))| Arrival {
                    stream_id,
                    timestamp,
                    record: Record::from_texts(
                        &schema,
                        i as u64,
                        &[
                            Some(
                                (0..words)
                                    .map(|w| format!("w{w}"))
                                    .collect::<Vec<_>>()
                                    .join(" ")
                                    .as_str(),
                            ),
                            if missing { None } else { Some("x y") },
                        ],
                        &mut dict,
                    ),
                })
                .collect()
        },
    )
}

fn arb_request() -> impl Strategy<Value = Request> {
    (0u8..9, arb_arrivals(), any::<u64>()).prop_map(|(kind, batch, id)| match kind {
        0 => Request::IngestSeq { seq: id, batch },
        1 => Request::Query(Query::Window),
        2 => Request::Query(Query::Entity(id)),
        3 => Request::Query(Query::Results),
        4 => Request::Stats,
        5 => Request::Checkpoint,
        6 => Request::MetricsDump,
        7 => Request::TraceDump,
        _ => Request::Shutdown,
    })
}

fn arb_pairs() -> impl Strategy<Value = Vec<Vec<(u64, u64)>>> {
    proptest::collection::vec(
        proptest::collection::vec((any::<u64>(), any::<u64>()), 0..4),
        0..4,
    )
}

/// Retained traces as the daemon would ship them: every span's
/// `batch_seq` equals its trace's (the wire carries it once, on the
/// trace — the decoder stamps the spans from it).
fn arb_traces() -> impl Strategy<Value = Vec<ter_obs::trace::Trace>> {
    proptest::collection::vec(
        (
            (any::<u64>(), any::<u64>(), any::<u64>()),
            0u64..10,
            any::<bool>(),
            proptest::collection::vec(
                (0u8..ter_obs::kind::NSPANS as u8, any::<u64>(), any::<u64>()),
                0..6,
            ),
        ),
        0..3,
    )
    .prop_map(|ts| {
        ts.into_iter()
            .map(
                |((seq, start, dur), covered, anomaly, spans)| ter_obs::trace::Trace {
                    batch_seq: seq,
                    start,
                    dur,
                    covered,
                    anomaly,
                    spans: spans
                        .into_iter()
                        .map(|(kind, s, d)| ter_obs::trace::Span {
                            batch_seq: seq,
                            kind,
                            parent: ter_obs::kind::parent(kind).unwrap(),
                            start: s,
                            dur: d,
                        })
                        .collect(),
                },
            )
            .collect()
    })
}

fn arb_reply() -> impl Strategy<Value = Reply> {
    (
        0u8..9,
        arb_pairs(),
        proptest::collection::vec(any::<u64>(), 0..4),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u16>()),
        arb_traces(),
    )
        .prop_map(|(kind, pairs, ids, (a, b, c, d), traces)| match kind {
            0 => Reply::Error(format!("error {a}")),
            1 => Reply::Busy,
            2 => Reply::Matches(pairs.concat()),
            3 => Reply::Window(WindowInfo {
                len: d as usize,
                capacity: ids.len() * 2,
                live_ids: ids,
            }),
            4 => Reply::Stats(StatsInfo {
                next_batch_seq: a,
                session_arrivals: b,
                wal_bytes: c,
                window_len: d as usize,
                stats: Default::default(),
                uptime_micros: a ^ c,
                connections: d as u64,
                subscribers: ids.len() as u64,
                fsyncs: b ^ c,
            }),
            5 => Reply::IngestAck {
                seq: a,
                per_arrival: pairs,
            },
            6 => Reply::IngestBusy { seq: c },
            7 => Reply::Traces {
                critical_path: ter_obs::trace::CriticalPath {
                    traces: a,
                    total_micros: b,
                    segments: [0, 0, c, d as u64, a ^ b, 0, 0, 0, c ^ a],
                },
                traces,
            },
            _ => Reply::Ack(b),
        })
}

/// Frames a payload the way `write_message` does.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_message(&mut buf, payload).unwrap();
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Requests survive the full encode → frame → unframe → decode path.
    #[test]
    fn requests_round_trip(req in arb_request()) {
        let payload = encode_request(&req);
        let wire = framed(&payload);
        let mut cursor = Cursor::new(&wire);
        let received = read_message(&mut cursor).unwrap();
        prop_assert_eq!(decode_request(&received).unwrap(), req);
    }

    /// Replies survive the same path.
    #[test]
    fn replies_round_trip(reply in arb_reply()) {
        let payload = encode_reply(&reply);
        let wire = framed(&payload);
        let mut cursor = Cursor::new(&wire);
        let received = read_message(&mut cursor).unwrap();
        prop_assert_eq!(decode_reply(&received).unwrap(), reply);
    }

    /// A truncated request frame — any cut point — yields a clean error,
    /// not a panic or a hang.
    #[test]
    fn truncated_frames_error_cleanly(req in arb_request(), cut_raw in any::<usize>()) {
        let wire = framed(&encode_request(&req));
        let cut = cut_raw % wire.len();
        let mut cursor = Cursor::new(&wire[..cut]);
        prop_assert!(read_message(&mut cursor).is_err());
    }

    /// Any single-byte bit flip anywhere in a request frame is rejected:
    /// header flips tear or oversize the frame or break the CRC; payload
    /// flips break the CRC; and even a CRC-colliding payload (impossible
    /// for 1-byte flips) would still have to decode.
    #[test]
    fn bit_flipped_frames_rejected(
        req in arb_request(),
        idx_raw in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let wire = framed(&encode_request(&req));
        let mut bad = wire.clone();
        let idx = idx_raw % bad.len();
        bad[idx] ^= flip;
        let mut cursor = Cursor::new(&bad);
        let outcome = read_message(&mut cursor).and_then(|p| decode_request(&p));
        prop_assert!(outcome.is_err(), "flip {flip:#x} at byte {idx} accepted");
    }

    /// Arbitrary byte soup fed to the frame reader and both payload
    /// decoders returns (any result) without panicking.
    #[test]
    fn byte_soup_never_panics(soup in proptest::collection::vec(any::<u8>(), 0..300)) {
        let mut cursor = Cursor::new(&soup);
        let _ = read_message(&mut cursor);
        let _ = decode_request(&soup);
        let _ = decode_reply(&soup);
    }

    /// Byte soup *inside a valid frame* (the CRC is made to match, as a
    /// hostile client could) still decodes to a clean error or a valid
    /// request — never a panic. This is the payload decoder's own line of
    /// defense, below the CRC.
    #[test]
    fn framed_byte_soup_never_panics(soup in proptest::collection::vec(any::<u8>(), 0..200)) {
        let wire = framed(&soup);
        let mut cursor = Cursor::new(&wire);
        let payload = read_message(&mut cursor).unwrap();
        let _ = decode_request(&payload);
        let _ = decode_reply(&payload);
    }
}
