//! Hand-rolled binary codec for every persisted type.
//!
//! The workspace is offline (no serde), so persistence is a small
//! explicit framework: [`Encoder`] appends little-endian primitives to a
//! byte vector, [`Decoder`] reads them back fallibly, and [`Codec`] ties
//! the two together per type. Design rules:
//!
//! * **Bit-exact floats** — `f64` travels as `to_bits`/`from_bits`, so a
//!   decoded checkpoint is bitwise the state that was exported (the
//!   recovery parity contract is exact equality, not approximation).
//! * **No panics on malformed input** — every read is bounds-checked,
//!   collection lengths are validated against the remaining byte budget
//!   before allocation, and semantic invariants (sorted token sets,
//!   imputation covering exactly the missing attributes, …) are checked
//!   and reported as [`CodecError`] instead of tripping the constructors'
//!   asserts. Frame CRCs catch corruption first; the decoder is the
//!   second line of defense.
//! * **Canonical encodings** — one byte sequence per value, so
//!   encode∘decode is the identity and decode∘encode reproduces the
//!   input bytes (property-tested in `proptests.rs`).

use ter_ids::meta::TupleMeta;
use ter_ids::{EngineState, PruneStats, StateDelta};
use ter_repo::Record;
use ter_stream::{Arrival, AttrCandidates, ProbTuple};
use ter_text::{Interval, Token, TokenSet, TopicVector};

/// Why decoding failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value did.
    UnexpectedEof,
    /// A declared collection length exceeds the remaining bytes.
    LengthOverrun,
    /// A value violates a semantic invariant of its type.
    Invalid(&'static str),
    /// Bytes were left over where a value had to consume its whole input.
    TrailingBytes,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::LengthOverrun => write!(f, "declared length exceeds input"),
            CodecError::Invalid(what) => write!(f, "invalid value: {what}"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after value"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only byte sink.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.raw(&[v]);
    }

    /// Writes a `u16` (LE).
    pub fn u16(&mut self, v: u16) {
        self.raw(&v.to_le_bytes());
    }

    /// Writes a `u32` (LE).
    pub fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    /// Writes a `u64` (LE).
    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    /// Writes a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` bit pattern (exact, including `-0.0`, infinities,
    /// and the empty-interval sentinels).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a bool as one strict `0`/`1` byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.usize(v.len());
        self.raw(v.as_bytes());
    }
}

/// Bounds-checked reader over encoded bytes.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte was consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16` (LE).
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a `u32` (LE).
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64` (LE).
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `usize` encoded as `u64`.
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.u64()?).map_err(|_| CodecError::Invalid("usize overflow"))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a strict `0`/`1` bool byte.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool byte")),
        }
    }

    /// Reads a collection length and checks it against the remaining byte
    /// budget assuming at least `min_elem_bytes` per element, so corrupt
    /// lengths cannot drive pathological allocations.
    pub fn len_capped(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.usize()?;
        if n.checked_mul(min_elem_bytes.max(1))
            .is_none_or(|need| need > self.remaining())
        {
            return Err(CodecError::LengthOverrun);
        }
        Ok(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let n = self.len_capped(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Invalid("utf-8 string"))
    }
}

/// A type that round-trips through the binary codec.
pub trait Codec: Sized {
    /// Appends the canonical encoding of `self`.
    fn encode(&self, enc: &mut Encoder);
    /// Reads one value, validating every invariant the type's constructors
    /// would otherwise assert.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError>;
}

/// Encodes a value into a fresh byte vector.
pub fn encode_to_vec<T: Codec>(v: &T) -> Vec<u8> {
    let mut enc = Encoder::new();
    v.encode(&mut enc);
    enc.into_bytes()
}

/// Decodes a value that must consume the whole buffer.
pub fn decode_exact<T: Codec>(buf: &[u8]) -> Result<T, CodecError> {
    let mut dec = Decoder::new(buf);
    let v = T::decode(&mut dec)?;
    if !dec.is_exhausted() {
        return Err(CodecError::TrailingBytes);
    }
    Ok(v)
}

impl Codec for u64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.u64()
    }
}

impl Codec for usize {
    fn encode(&self, enc: &mut Encoder) {
        enc.usize(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.usize()
    }
}

impl Codec for f64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.f64(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.f64()
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
        self.1.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(dec)?, B::decode(dec)?))
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.usize(self.len());
        for v in self {
            v.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let n = dec.len_capped(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            None => enc.u8(0),
            Some(v) => {
                enc.u8(1);
                v.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match dec.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(dec)?)),
            _ => Err(CodecError::Invalid("option tag")),
        }
    }
}

impl Codec for TokenSet {
    fn encode(&self, enc: &mut Encoder) {
        enc.usize(self.len());
        for &Token(t) in self.tokens() {
            enc.u32(t);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let n = dec.len_capped(4)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(Token(dec.u32()?));
        }
        if !out.windows(2).all(|w| w[0] < w[1]) {
            return Err(CodecError::Invalid("token set not strictly sorted"));
        }
        Ok(TokenSet::from_sorted(out))
    }
}

impl Codec for Interval {
    fn encode(&self, enc: &mut Encoder) {
        enc.f64(self.lo);
        enc.f64(self.hi);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        // Constructed as a literal: `Interval::new` debug-asserts
        // `lo <= hi`, but the empty accumulator `[+∞, −∞]` is a legal
        // persisted value (and CRCs already vouch for the bytes).
        let lo = dec.f64()?;
        let hi = dec.f64()?;
        if lo.is_nan() || hi.is_nan() {
            return Err(CodecError::Invalid("NaN interval endpoint"));
        }
        Ok(Interval { lo, hi })
    }
}

impl Codec for TopicVector {
    fn encode(&self, enc: &mut Encoder) {
        enc.usize(self.len());
        for &w in self.words() {
            enc.u64(w);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let len = dec.usize()?;
        let want_words = len.div_ceil(64);
        if want_words
            .checked_mul(8)
            .is_none_or(|b| b > dec.remaining())
        {
            return Err(CodecError::LengthOverrun);
        }
        let mut words = Vec::with_capacity(want_words);
        for _ in 0..want_words {
            words.push(dec.u64()?);
        }
        if len % 64 != 0 && words.last().is_some_and(|w| w >> (len % 64) != 0) {
            return Err(CodecError::Invalid("topic vector stray bits"));
        }
        Ok(TopicVector::from_words(len, words))
    }
}

impl Codec for Record {
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(self.id);
        self.attrs.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let id = dec.u64()?;
        let attrs: Vec<Option<TokenSet>> = Vec::decode(dec)?;
        if attrs.is_empty() {
            return Err(CodecError::Invalid("record with no attributes"));
        }
        Ok(Record { id, attrs })
    }
}

impl Codec for Arrival {
    fn encode(&self, enc: &mut Encoder) {
        enc.usize(self.stream_id);
        enc.u64(self.timestamp);
        self.record.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Arrival {
            stream_id: dec.usize()?,
            timestamp: dec.u64()?,
            record: Record::decode(dec)?,
        })
    }
}

impl Codec for AttrCandidates {
    fn encode(&self, enc: &mut Encoder) {
        enc.usize(self.attr);
        self.candidates.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let attr = dec.usize()?;
        let candidates: Vec<(TokenSet, f64)> = Vec::decode(dec)?;
        if candidates.is_empty() {
            return Err(CodecError::Invalid("empty candidate distribution"));
        }
        Ok(AttrCandidates { attr, candidates })
    }
}

impl Codec for ProbTuple {
    fn encode(&self, enc: &mut Encoder) {
        self.base.encode(enc);
        self.imputed.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let base = Record::decode(dec)?;
        let imputed: Vec<AttrCandidates> = Vec::decode(dec)?;
        // `ProbTuple::new` asserts this invariant; report it instead.
        let covered: Vec<usize> = imputed.iter().map(|c| c.attr).collect();
        if covered != base.missing_attrs() {
            return Err(CodecError::Invalid(
                "imputation does not cover exactly the missing attributes",
            ));
        }
        Ok(ProbTuple { base, imputed })
    }
}

impl Codec for TupleMeta {
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(self.id);
        enc.usize(self.stream_id);
        enc.u64(self.timestamp);
        self.tuple.encode(enc);
        self.main_bounds.encode(enc);
        self.main_expect.encode(enc);
        self.aux_bounds.encode(enc);
        self.size_bounds.encode(enc);
        self.topics.encode(enc);
        enc.bool(self.possibly_topical);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let (id, stream_id, timestamp) = (dec.u64()?, dec.usize()?, dec.u64()?);
        let tuple = ProbTuple::decode(dec)?;
        // Signatures are derived from the tuple, never stored.
        let signatures = TupleMeta::signatures_of(&tuple);
        Ok(TupleMeta {
            id,
            stream_id,
            timestamp,
            tuple,
            main_bounds: Vec::decode(dec)?,
            main_expect: Vec::decode(dec)?,
            aux_bounds: Vec::decode(dec)?,
            size_bounds: Vec::decode(dec)?,
            topics: TopicVector::decode(dec)?,
            possibly_topical: dec.bool()?,
            signatures,
        })
    }
}

impl Codec for PruneStats {
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(self.total_pairs);
        enc.u64(self.topic);
        enc.u64(self.sim);
        enc.u64(self.prob);
        enc.u64(self.instance);
        enc.u64(self.matches);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(PruneStats {
            total_pairs: dec.u64()?,
            topic: dec.u64()?,
            sim: dec.u64()?,
            prob: dec.u64()?,
            instance: dec.u64()?,
            matches: dec.u64()?,
        })
    }
}

impl Codec for EngineState {
    fn encode(&self, enc: &mut Encoder) {
        enc.usize(self.window_capacity);
        self.window.encode(enc);
        self.metas.encode(enc);
        self.stream_counts.encode(enc);
        self.results.encode(enc);
        self.reported.encode(enc);
        self.stats.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(EngineState {
            window_capacity: dec.usize()?,
            window: Vec::decode(dec)?,
            metas: Vec::decode(dec)?,
            stream_counts: Vec::decode(dec)?,
            results: Vec::decode(dec)?,
            reported: Vec::decode(dec)?,
            stats: PruneStats::decode(dec)?,
        })
    }
}

impl Codec for StateDelta {
    fn encode(&self, enc: &mut Encoder) {
        enc.usize(self.window_capacity);
        self.evicted.encode(enc);
        self.arrivals.encode(enc);
        self.arrival_metas.encode(enc);
        self.stream_counts.encode(enc);
        self.results_added.encode(enc);
        self.results_removed.encode(enc);
        self.reported_added.encode(enc);
        self.stats.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(StateDelta {
            window_capacity: dec.usize()?,
            evicted: Vec::decode(dec)?,
            arrivals: Vec::decode(dec)?,
            arrival_metas: Vec::decode(dec)?,
            stream_counts: Vec::decode(dec)?,
            results_added: Vec::decode(dec)?,
            results_removed: Vec::decode(dec)?,
            reported_added: Vec::decode(dec)?,
            stats: PruneStats::decode(dec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trips() {
        let mut enc = Encoder::new();
        enc.u8(7);
        enc.u16(65535);
        enc.u32(0xDEAD_BEEF);
        enc.u64(u64::MAX);
        enc.f64(-0.0);
        enc.f64(f64::INFINITY);
        enc.bool(true);
        enc.str("héllo");
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.u8().unwrap(), 7);
        assert_eq!(dec.u16().unwrap(), 65535);
        assert_eq!(dec.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.u64().unwrap(), u64::MAX);
        assert_eq!(dec.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(dec.f64().unwrap(), f64::INFINITY);
        assert!(dec.bool().unwrap());
        assert_eq!(dec.str().unwrap(), "héllo");
        assert!(dec.is_exhausted());
    }

    #[test]
    fn eof_and_bad_tags() {
        let mut dec = Decoder::new(&[]);
        assert_eq!(dec.u64(), Err(CodecError::UnexpectedEof));
        let mut dec = Decoder::new(&[2]);
        assert_eq!(dec.bool(), Err(CodecError::Invalid("bool byte")));
        let mut dec = Decoder::new(&[9, 0]);
        assert_eq!(
            Option::<u64>::decode(&mut dec),
            Err(CodecError::Invalid("option tag"))
        );
    }

    #[test]
    fn length_overrun_rejected_before_allocation() {
        // Declares 2^60 u64s in a 16-byte buffer.
        let mut enc = Encoder::new();
        enc.u64(1 << 60);
        enc.u64(0);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(Vec::<u64>::decode(&mut dec), Err(CodecError::LengthOverrun));
    }

    #[test]
    fn unsorted_token_set_rejected() {
        let mut enc = Encoder::new();
        enc.usize(2);
        enc.u32(5);
        enc.u32(5); // duplicate — not strictly sorted
        let bytes = enc.into_bytes();
        assert_eq!(
            decode_exact::<TokenSet>(&bytes),
            Err(CodecError::Invalid("token set not strictly sorted"))
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_to_vec(&42u64);
        bytes.push(0);
        assert_eq!(decode_exact::<u64>(&bytes), Err(CodecError::TrailingBytes));
    }
}
