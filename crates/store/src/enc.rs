//! Minimal hand-rolled binary codec for persisting histories as database
//! values. Length-prefixed, little-endian; no external serialization crates
//! so the wire format stays explicit and auditable.

use std::fmt;

/// Errors from decoding a malformed byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the announced length. `offset` is the byte
    /// position the failed read started at and `needed` how many bytes it
    /// required; recovery code uses the pair to tell a torn tail (the
    /// stream simply stops) apart from interior corruption.
    Truncated {
        /// Byte position where the failed read began.
        offset: usize,
        /// Bytes the read required (more than remained).
        needed: usize,
    },
    /// A string field was not valid UTF-8.
    InvalidUtf8,
    /// An enum tag byte was unknown.
    BadTag(u8),
    /// A field's content was structurally invalid.
    Invalid(&'static str),
    /// Trailing bytes after the final field.
    TrailingBytes,
}

impl DecodeError {
    /// True for the short-input error: the stream ended before a field
    /// completed. The log-recovery path treats this as a torn tail (crash
    /// mid-append) rather than corruption.
    pub fn is_truncated(&self) -> bool {
        matches!(self, DecodeError::Truncated { .. })
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { offset, needed } => {
                write!(f, "input truncated at byte {offset} (needed {needed} more)")
            }
            DecodeError::InvalidUtf8 => write!(f, "invalid utf-8 in string field"),
            DecodeError::BadTag(t) => write!(f, "unknown tag byte {t}"),
            DecodeError::Invalid(what) => write!(f, "invalid field: {what}"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after value"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Where an encoder writes: a [`Writer`] keeps the bytes, a [`ByteCount`]
/// only counts them. An encoder written once against `Sink` therefore
/// yields both a message and its exact size, and the two cannot drift.
pub trait Sink {
    /// Writes raw bytes with no length prefix. The reader must know the
    /// exact width (fixed-size fields like digests).
    fn raw(&mut self, v: &[u8]);

    /// Writes a length-prefixed value of `len` bytes that `write` appends
    /// to a buffer in place, so an enclosing encoding embeds it without an
    /// intermediate copy. A [`ByteCount`] never calls `write`.
    fn framed(&mut self, len: usize, write: impl FnOnce(&mut Vec<u8>));

    /// Writes one byte.
    fn u8(&mut self, v: u8) {
        self.raw(&[v]);
    }

    /// Writes a little-endian u32.
    fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    /// Writes a little-endian u64.
    fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    /// Writes a length-prefixed byte string.
    fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.raw(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    fn string(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Writes an optional value: tag 0 for `None`, or tag 1 followed by
    /// what `put` writes. [`Reader::opt`] reads it back.
    fn opt<T>(&mut self, v: Option<T>, put: impl FnOnce(&mut Self, T)) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                put(self, v);
            }
        }
    }
}

/// Append-only byte writer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// New empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Finishes and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl Sink for Writer {
    fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    fn framed(&mut self, len: usize, write: impl FnOnce(&mut Vec<u8>)) {
        self.u64(len as u64);
        let start = self.buf.len();
        write(&mut self.buf);
        assert_eq!(self.buf.len() - start, len, "framed length");
    }
}

/// A writer that appends to `buf`: a buffer kept across encodings keeps
/// its capacity.
impl From<Vec<u8>> for Writer {
    fn from(buf: Vec<u8>) -> Writer {
        Writer { buf }
    }
}

/// The counting writer: the number of bytes an encoding takes, found by
/// running the encoder without storing anything (and without allocating).
#[derive(Default)]
pub struct ByteCount {
    len: usize,
}

impl ByteCount {
    /// Bytes counted so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing has been counted yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Sink for ByteCount {
    fn raw(&mut self, v: &[u8]) {
        self.len += v.len();
    }

    fn framed(&mut self, len: usize, _write: impl FnOnce(&mut Vec<u8>)) {
        self.len += 8 + len;
    }
}

/// Cursor-based byte reader.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        // `n` may come from input: compare against what is left, so no
        // sum can overflow.
        if n > self.remaining() {
            return Err(DecodeError::Truncated {
                offset: self.pos,
                needed: n,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Current cursor position in bytes.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads exactly `n` raw bytes (no length prefix).
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.take(n)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u64()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, DecodeError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| DecodeError::InvalidUtf8)
    }

    /// Reads an optional value written by [`Sink::opt`]: tag 0 is `None`,
    /// tag 1 is followed by what `get` reads, any other tag is
    /// [`DecodeError::BadTag`].
    pub fn opt<T>(
        &mut self,
        get: impl FnOnce(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Option<T>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => get(self).map(Some),
            t => Err(DecodeError::BadTag(t)),
        }
    }

    /// Asserts that the whole input has been consumed.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_types() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEADBEEF);
        w.u64(u64::MAX - 1);
        w.bytes(b"raw");
        w.string("héllo");
        let buf = w.into_bytes();

        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.bytes().unwrap(), b"raw");
        assert_eq!(r.string().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn byte_count_matches_the_bytes_written() {
        fn put(w: &mut impl Sink) {
            w.u8(1);
            w.u32(2);
            w.u64(3);
            w.bytes(b"four");
            w.string("five");
            w.opt(Some(6u32), Sink::u32);
            w.opt(None::<u32>, Sink::u32);
            w.framed(3, |buf| buf.extend_from_slice(b"abc"));
        }
        let mut w = Writer::new();
        put(&mut w);
        let mut count = ByteCount::default();
        put(&mut count);
        assert_eq!(count.len(), w.len());
        assert_eq!(
            &w.into_bytes()[count.len() - 11..],
            b"\x03\0\0\0\0\0\0\0abc"
        );
    }

    #[test]
    fn option_round_trips_and_rejects_unknown_tags() {
        let mut w = Writer::new();
        w.opt(Some(7u64), Sink::u64);
        w.opt(None::<u64>, Sink::u64);
        let mut buf = w.into_bytes();
        assert_eq!(buf.len(), 1 + 8 + 1);
        let mut r = Reader::new(&buf);
        assert_eq!(r.opt(Reader::u64), Ok(Some(7)));
        assert_eq!(r.opt(Reader::u64), Ok(None));
        r.finish().unwrap();
        buf[0] = 2;
        assert_eq!(
            Reader::new(&buf).opt(Reader::u64),
            Err(DecodeError::BadTag(2))
        );
    }

    #[test]
    fn truncation_detected_with_offset() {
        let mut w = Writer::new();
        w.string("long enough");
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf[..buf.len() - 2]);
        // The length prefix (8 bytes) parses; the payload read starting at
        // byte 8 needs 11 bytes but only 9 remain.
        assert_eq!(
            r.string(),
            Err(DecodeError::Truncated {
                offset: 8,
                needed: 11
            })
        );
        assert!(r.string().unwrap_err().is_truncated());
    }

    #[test]
    fn huge_length_prefix_is_truncation_not_overflow() {
        let mut w = Writer::new();
        w.u64(u64::MAX);
        let buf = w.into_bytes();
        assert!(Reader::new(&buf).bytes().unwrap_err().is_truncated());
    }

    #[test]
    fn raw_round_trip_and_position() {
        let mut w = Writer::new();
        w.raw(&[1, 2, 3, 4]);
        w.u8(9);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert_eq!(r.position(), 0);
        assert_eq!(r.raw(4).unwrap(), &[1, 2, 3, 4]);
        assert_eq!(r.position(), 4);
        assert_eq!(r.remaining(), 1);
        assert_eq!(r.u8().unwrap(), 9);
        r.finish().unwrap();
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = Writer::new();
        w.u8(1);
        let mut buf = w.into_bytes();
        buf.push(0xFF);
        let mut r = Reader::new(&buf);
        r.u8().unwrap();
        assert_eq!(r.finish(), Err(DecodeError::TrailingBytes));
    }

    #[test]
    fn invalid_utf8_detected() {
        let mut w = Writer::new();
        w.bytes(&[0xFF, 0xFE]);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert_eq!(r.string(), Err(DecodeError::InvalidUtf8));
    }

    #[test]
    fn empty_fields() {
        let mut w = Writer::new();
        w.bytes(b"");
        w.string("");
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert_eq!(r.bytes().unwrap(), b"");
        assert_eq!(r.string().unwrap(), "");
        r.finish().unwrap();
    }
}
