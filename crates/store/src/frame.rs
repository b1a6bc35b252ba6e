//! The frame grammar shared by every `ter_store` file.
//!
//! A frame is `[len: u32 LE][crc: u32 LE][payload; len bytes]` with
//! `crc = CRC-32/IEEE(payload)`. The two readers differ in what they
//! guarantee:
//!
//! * [`read_frame`] — sequential reader for multi-frame files (the WAL).
//!   Distinguishes a *torn* tail (fewer bytes than the header promises —
//!   the crash interrupted an append; truncate and continue) from a
//!   *corrupt* frame (CRC mismatch — truncate to the preceding frame).
//! * [`decode_single_frame`] — exact-consume reader for one-frame files
//!   (manifest, checkpoint). Requiring the frame to consume the entire
//!   buffer closes the length-field loophole: *any* single-byte change to
//!   such a file is guaranteed to be rejected, because a shrunken length
//!   leaves trailing bytes, a grown length runs past the buffer, and a
//!   payload/CRC change is a ≤8-bit burst error that CRC-32 always
//!   detects.
//!
//! Each byte is touched once per direction. [`encode_frame`] reserves
//! the header, has the payload encoded behind it and then fills in
//! length and CRC, so no payload is copied into its frame; readers
//! return the payload as a slice of the buffer they were given.
//! [`crc32`] folds sixteen bytes per step through sixteen lookup tables
//! (slicing-by-16, Kounavis & Berry, ISCC 2005). It computes the same
//! CRC-32/IEEE as the bytewise table loop, so every file keeps its bytes
//! and the format version does not change.

use crate::codec::Encoder;

/// Byte cost of a frame header (`len` + `crc`).
pub const FRAME_HEADER_LEN: usize = 8;

/// Largest payload a frame may carry (1 GiB) — a sanity bound so corrupt
/// length fields cannot drive pathological allocations.
pub const MAX_FRAME_LEN: usize = 1 << 30;

/// Why a frame could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes remain than a complete frame needs — a torn append.
    Torn,
    /// The stored CRC does not match the payload.
    BadCrc,
    /// The length field exceeds [`MAX_FRAME_LEN`].
    Oversized,
    /// A single-frame file had bytes after its frame.
    TrailingBytes,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Torn => write!(f, "torn frame (truncated tail)"),
            FrameError::BadCrc => write!(f, "frame CRC mismatch"),
            FrameError::Oversized => write!(f, "frame length exceeds the sanity bound"),
            FrameError::TrailingBytes => write!(f, "trailing bytes after a single-frame file"),
        }
    }
}

impl std::error::Error for FrameError {}

/// The slicing-by-16 tables of the reflected CRC-32/IEEE polynomial
/// `0xEDB88320`: `CRC_TABLES[0]` is the classic bytewise table, and
/// `CRC_TABLES[k][b]` is the CRC register after byte `b` followed by `k`
/// zero bytes, so sixteen lookups advance the register over sixteen
/// input bytes at once (Kounavis & Berry, ISCC 2005).
const fn crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

/// CRC-32/IEEE (the zlib/PNG polynomial) of `data`, sixteen bytes per
/// step (see `crc_tables`); the same value as the bytewise loop the
/// tail runs, so stored CRCs do not depend on how they were computed.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        let x = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Appends one frame wrapping `payload` to `out`.
///
/// # Panics
/// Panics if `payload` exceeds [`MAX_FRAME_LEN`] (a writer bug, not an
/// input condition).
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    let start = begin_frame(out);
    out.extend_from_slice(payload);
    seal_frame(out, start);
}

/// Appends one frame to `out` whose payload `encode` writes straight
/// into `out` behind the reserved header, so the payload is never copied
/// into its frame. Returns `out`.
///
/// # Panics
/// Panics if the payload exceeds [`MAX_FRAME_LEN`] (a writer bug, not an
/// input condition).
pub fn encode_frame(mut out: Vec<u8>, encode: impl FnOnce(&mut Encoder)) -> Vec<u8> {
    let start = begin_frame(&mut out);
    let mut enc = Encoder::from_vec(out);
    encode(&mut enc);
    let mut out = enc.into_bytes();
    seal_frame(&mut out, start);
    out
}

/// Reserves a frame header at the end of `out` and returns the frame's
/// offset for [`seal_frame`].
fn begin_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    start
}

/// Closes the frame [`begin_frame`] opened at `start`: everything after
/// its header is the payload, whose length and CRC fill the header.
fn seal_frame(out: &mut [u8], start: usize) {
    let (header, payload) = out[start..].split_at_mut(FRAME_HEADER_LEN);
    assert!(payload.len() <= MAX_FRAME_LEN, "frame payload too large");
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// Reads the frame starting at `*pos`, advancing `*pos` past it on
/// success. Never panics on malformed input.
pub fn read_frame<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a [u8], FrameError> {
    let rest = &buf[(*pos).min(buf.len())..];
    if rest.len() < FRAME_HEADER_LEN {
        return Err(FrameError::Torn);
    }
    let len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized);
    }
    let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
    if rest.len() - FRAME_HEADER_LEN < len {
        return Err(FrameError::Torn);
    }
    let payload = &rest[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len];
    if crc32(payload) != crc {
        return Err(FrameError::BadCrc);
    }
    *pos += FRAME_HEADER_LEN + len;
    Ok(payload)
}

/// Reads a buffer that must contain exactly one frame (see module docs
/// for the rejection guarantee this buys).
pub fn decode_single_frame(buf: &[u8]) -> Result<&[u8], FrameError> {
    let mut pos = 0;
    let payload = read_frame(buf, &mut pos)?;
    if pos != buf.len() {
        return Err(FrameError::TrailingBytes);
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CRC-32/IEEE one byte at a time, shifted bit by bit from the reflected
    /// polynomial: the reference the table-driven [`crc32`] must equal.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    /// Deterministic filler bytes.
    fn noise(n: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9u32;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect()
    }

    #[test]
    fn crc32_check_value() {
        // The CRC-32/IEEE reference check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Every length from 0 to 64 at every start offset 0–7 (so blocks
    /// begin misaligned and the bytewise tail takes every length), and
    /// one 200 KB buffer, against the bytewise reference.
    #[test]
    fn crc32_equals_the_bytewise_reference() {
        let buf = noise(200 * 1024);
        for start in 0..8 {
            for len in 0..=64 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
            }
        }
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
    }

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello");
        write_frame(&mut buf, b"");
        write_frame(&mut buf, b"world!");
        let mut pos = 0;
        assert_eq!(read_frame(&buf, &mut pos).unwrap(), b"hello");
        assert_eq!(read_frame(&buf, &mut pos).unwrap(), b"");
        assert_eq!(read_frame(&buf, &mut pos).unwrap(), b"world!");
        assert_eq!(pos, buf.len());
        assert_eq!(read_frame(&buf, &mut pos), Err(FrameError::Torn));
    }

    #[test]
    fn torn_tail_detected_at_every_cut() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload bytes");
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert_eq!(
                read_frame(&buf[..cut], &mut pos),
                Err(FrameError::Torn),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn every_single_byte_mutation_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"some payload worth protecting");
        for i in 0..buf.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut bad = buf.clone();
                bad[i] ^= flip;
                assert!(
                    decode_single_frame(&bad).is_err(),
                    "mutation {flip:#x} at byte {i} accepted"
                );
            }
        }
    }

    #[test]
    fn oversized_length_rejected_without_allocation() {
        let mut buf = vec![0xFF, 0xFF, 0xFF, 0xFF]; // len = u32::MAX
        buf.extend_from_slice(&[0; 12]);
        let mut pos = 0;
        assert_eq!(read_frame(&buf, &mut pos), Err(FrameError::Oversized));
    }
}
