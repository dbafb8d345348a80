//! The versioned binary codec: little-endian primitives, options and
//! length-prefixed sequences, with error-returning decodes.
//!
//! Floats travel as raw IEEE-754 bits (`f64::to_bits`), so a round trip is
//! **bit-identical** — including negative zero and NaN payloads — which is
//! exactly what the fleet's deterministic-resume contract requires.

use std::fmt;

/// Why a decode failed. Every variant is a recoverable condition: the caller
/// falls back down its recovery ladder instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before the requested bytes.
    UnexpectedEof {
        /// Bytes requested past the end.
        wanted: usize,
        /// Bytes remaining.
        remaining: usize,
    },
    /// An `Option` tag byte was neither 0 nor 1.
    BadTag(u8),
    /// A declared sequence/string length exceeds the remaining payload — a
    /// corrupted length prefix caught before any allocation.
    BadLength(u64),
    /// The payload's magic number does not match the expected format.
    BadMagic {
        /// The magic read from the payload.
        got: u32,
        /// The magic the caller expected.
        expected: u32,
    },
    /// The payload's format version is not one the reader understands.
    BadVersion(u32),
    /// A string was not valid UTF-8.
    BadUtf8,
    /// Decoded fine but left unconsumed bytes (a framing bug upstream).
    TrailingBytes(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof { wanted, remaining } => {
                write!(
                    f,
                    "unexpected end of payload: wanted {wanted} bytes, {remaining} left"
                )
            }
            DecodeError::BadTag(tag) => write!(f, "invalid option tag {tag}"),
            DecodeError::BadLength(len) => write!(f, "declared length {len} exceeds payload"),
            DecodeError::BadMagic { got, expected } => {
                write!(f, "bad magic {got:#010x} (expected {expected:#010x})")
            }
            DecodeError::BadVersion(version) => write!(f, "unsupported format version {version}"),
            DecodeError::BadUtf8 => write!(f, "string is not valid UTF-8"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} unconsumed trailing bytes"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Writes primitives into a growable byte buffer (always little-endian).
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    fn new() -> Self {
        Encoder::default()
    }

    /// An encoder that starts with a magic number and format version — the
    /// header every persisted payload of a versioned format carries.
    pub fn versioned(magic: u32, version: u32) -> Self {
        let mut enc = Encoder::new();
        enc.put_u32(magic);
        enc.put_u32(version);
        enc
    }

    /// Consumes the encoder, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Writes a `u32` little-endian.
    fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (the on-disk format is
    /// pointer-width-independent).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes an `f64` as its raw IEEE-754 bits — bit-identical round trip.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes an `Option` as a tag byte followed by the value.
    pub fn put_opt<T>(&mut self, v: Option<T>, mut put: impl FnMut(&mut Self, T)) {
        match v {
            None => self.put_u8(0),
            Some(value) => {
                self.put_u8(1);
                put(self, value);
            }
        }
    }

    /// Writes `Option<f64>` (tag + bits).
    pub fn put_opt_f64(&mut self, v: Option<f64>) {
        self.put_opt(v, Encoder::put_f64);
    }

    /// Writes `Option<u64>` (tag + value).
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        self.put_opt(v, Encoder::put_u64);
    }

    /// Writes a length-prefixed sequence through a per-item closure.
    pub fn put_seq<T>(&mut self, items: &[T], mut put: impl FnMut(&mut Self, &T)) {
        self.put_usize(items.len());
        for item in items {
            put(self, item);
        }
    }

    /// Writes a length-prefixed `&[u64]`.
    pub fn put_u64s(&mut self, items: &[u64]) {
        self.put_seq(items, |enc, &v| enc.put_u64(v));
    }

    /// Writes a length-prefixed `&[f64]` (raw bits per entry).
    pub fn put_f64s(&mut self, items: &[f64]) {
        self.put_seq(items, |enc, &v| enc.put_f64(v));
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Reads primitives back out of a byte slice, in write order.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over `buf`, positioned at the start.
    fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// A decoder that first checks the magic/version header written by
    /// [`Encoder::versioned`]; `accept` decides which versions the caller
    /// can read. Returns the version on success.
    pub fn versioned(
        buf: &'a [u8],
        magic: u32,
        accept: impl Fn(u32) -> bool,
    ) -> Result<(Self, u32), DecodeError> {
        let mut dec = Decoder::new(buf);
        let got = dec.get_u32()?;
        if got != magic {
            return Err(DecodeError::BadMagic {
                got,
                expected: magic,
            });
        }
        let version = dec.get_u32()?;
        if !accept(version) {
            return Err(DecodeError::BadVersion(version));
        }
        Ok((dec, version))
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless every byte has been consumed — catches frames whose
    /// payload is longer than the format says it should be.
    pub fn expect_end(&self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes(self.remaining()))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof {
                wanted: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool (tag byte 0 or 1).
    pub fn get_bool(&mut self) -> Result<bool, DecodeError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::BadTag(tag)),
        }
    }

    /// Reads a little-endian `u32`.
    fn get_u32(&mut self) -> Result<u32, DecodeError> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Reads a `usize` (stored as u64); errors when the value does not fit
    /// the host's pointer width or is an implausible sequence length.
    pub fn get_usize(&mut self) -> Result<usize, DecodeError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| DecodeError::BadLength(v))
    }

    /// Reads an `f64` from its raw bits.
    pub fn get_f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads an `Option` written by [`Encoder::put_opt`].
    pub fn get_opt<T>(
        &mut self,
        mut get: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Option<T>, DecodeError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(get(self)?)),
            tag => Err(DecodeError::BadTag(tag)),
        }
    }

    /// Reads `Option<f64>`.
    pub fn get_opt_f64(&mut self) -> Result<Option<f64>, DecodeError> {
        self.get_opt(Decoder::get_f64)
    }

    /// Reads `Option<u64>`.
    pub fn get_opt_u64(&mut self) -> Result<Option<u64>, DecodeError> {
        self.get_opt(Decoder::get_u64)
    }

    /// The length prefix of a sequence, sanity-checked against the remaining
    /// payload (`bytes_each` is a lower bound on one item's encoding) so a
    /// corrupted length cannot trigger a huge allocation.
    fn get_len(&mut self, bytes_each: usize) -> Result<usize, DecodeError> {
        let len = self.get_u64()?;
        let lower_bound = len.saturating_mul(bytes_each.max(1) as u64);
        if lower_bound > self.remaining() as u64 {
            return Err(DecodeError::BadLength(len));
        }
        usize::try_from(len).map_err(|_| DecodeError::BadLength(len))
    }

    /// Reads a length-prefixed sequence through a per-item closure.
    pub fn get_seq<T>(
        &mut self,
        bytes_each: usize,
        mut get: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let len = self.get_len(bytes_each)?;
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(get(self)?);
        }
        Ok(items)
    }

    /// Reads a length-prefixed `Vec<u64>`.
    pub fn get_u64s(&mut self) -> Result<Vec<u64>, DecodeError> {
        self.get_seq(8, Decoder::get_u64)
    }

    /// Reads a length-prefixed `Vec<f64>`.
    pub fn get_f64s(&mut self) -> Result<Vec<f64>, DecodeError> {
        self.get_seq(8, Decoder::get_f64)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, DecodeError> {
        let len = self.get_len(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_bit_identically() {
        let mut enc = Encoder::new();
        enc.put_u8(7);
        enc.put_bool(true);
        enc.put_u32(0xDEAD_BEEF);
        enc.put_u64(u64::MAX);
        enc.put_usize(42);
        enc.put_f64(-0.0);
        enc.put_f64(f64::NAN);
        enc.put_opt_f64(None);
        enc.put_opt_f64(Some(1.5));
        enc.put_opt_u64(Some(9));
        enc.put_u64s(&[1, 2, 3]);
        enc.put_f64s(&[0.1, 0.2]);
        enc.put_str("tenant-α");
        let bytes = enc.finish();

        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_u8().unwrap(), 7);
        assert!(dec.get_bool().unwrap());
        assert_eq!(dec.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.get_u64().unwrap(), u64::MAX);
        assert_eq!(dec.get_usize().unwrap(), 42);
        let neg_zero = dec.get_f64().unwrap();
        assert_eq!(neg_zero.to_bits(), (-0.0f64).to_bits());
        assert!(dec.get_f64().unwrap().is_nan());
        assert_eq!(dec.get_opt_f64().unwrap(), None);
        assert_eq!(dec.get_opt_f64().unwrap(), Some(1.5));
        assert_eq!(dec.get_opt_u64().unwrap(), Some(9));
        assert_eq!(dec.get_u64s().unwrap(), vec![1, 2, 3]);
        assert_eq!(dec.get_f64s().unwrap(), vec![0.1, 0.2]);
        assert_eq!(dec.get_str().unwrap(), "tenant-α");
        dec.expect_end().unwrap();
    }

    #[test]
    fn versioned_header_rejects_wrong_magic_and_version() {
        let bytes = Encoder::versioned(0xF1EE_7001, 3).finish();
        assert!(Decoder::versioned(&bytes, 0xF1EE_7001, |v| v == 3).is_ok());
        assert!(matches!(
            Decoder::versioned(&bytes, 0xBAD0_0000, |_| true),
            Err(DecodeError::BadMagic { .. })
        ));
        assert!(matches!(
            Decoder::versioned(&bytes, 0xF1EE_7001, |v| v == 2),
            Err(DecodeError::BadVersion(3))
        ));
    }

    #[test]
    fn truncated_payloads_error_instead_of_panicking() {
        let mut enc = Encoder::new();
        enc.put_u64s(&[1, 2, 3, 4]);
        let bytes = enc.finish();
        for cut in 0..bytes.len() {
            let mut dec = Decoder::new(&bytes[..cut]);
            assert!(dec.get_u64s().is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn corrupt_length_prefixes_are_caught_before_allocating() {
        let mut enc = Encoder::new();
        enc.put_u64(u64::MAX); // an absurd sequence length
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(dec.get_u64s(), Err(DecodeError::BadLength(_))));
    }
}
