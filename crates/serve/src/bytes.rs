//! The one byte codec under every binary format in the workspace.
//!
//! The snapshot codec, the wire frames and payloads, the store's record log,
//! WAL records and checkpoints, the obs spill and the router's placement log
//! all write through [`ByteWriter`] and read through [`ByteReader`], so these
//! conventions hold everywhere:
//!
//! | item             | encoding                                                    |
//! |------------------|-------------------------------------------------------------|
//! | integers         | little-endian `u8`/`u16`/`u32`/`u64`                        |
//! | `f32` / `f64`    | exact IEEE-754 bit pattern, little-endian (NaN kept)        |
//! | `usize` values   | widened to `u64`; decoding checks they fit the platform     |
//! | `Option<f64>`    | tag byte `0` (none) or `1` followed by the `f64`            |
//! | strings, blobs   | `u32` length prefix; obs spill names use a `u16` prefix     |
//! | element counts   | `u32`, checked against the remaining bytes before allocating |
//! | checksum trailer | FNV-1a-32 of the covered bytes, `u32`                       |
//! | stable hashing   | FNV-1a-64 (ring placement, registry shards, scenario seeds) |
//!
//! Every [`ByteReader`] read returns a typed [`DecodeError`] — a read past
//! the end is [`DecodeError::Truncated`] — and never panics. FNV-1a detects
//! corruption and is stable across processes and releases (unlike `std`'s
//! `DefaultHasher`); it is not a cryptographic integrity check.

use std::error::Error;
use std::fmt;

/// Length of the FNV-1a-32 checksum trailer in bytes.
pub const CHECKSUM_LEN: usize = 4;

/// FNV-1a 32-bit hash: the checksum of every checksummed format.
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0x811c_9dc5, |h, &b| (h ^ u32::from(b)).wrapping_mul(0x0100_0193))
}

/// FNV-1a 64-bit hash: the stable name hash for placement and seeding.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// A checksum trailer that does not match the bytes it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChecksumMismatch {
    /// Checksum stored in the trailer.
    pub stored: u32,
    /// Checksum recomputed over the covered bytes.
    pub computed: u32,
}

/// Verifies the trailer [`ByteWriter::checksum_since`] appended to `bytes`
/// and returns the bytes it covers. Input shorter than the trailer never
/// verifies (reported as a stored checksum of zero); decoders check their
/// minimum length first.
pub fn verify_checksum(bytes: &[u8]) -> Result<&[u8], ChecksumMismatch> {
    let (covered, trailer) = bytes.split_at(bytes.len().saturating_sub(CHECKSUM_LEN));
    let computed = fnv1a32(covered);
    let stored = <[u8; CHECKSUM_LEN]>::try_from(trailer).map_or(0, u32::from_le_bytes);
    if trailer.len() < CHECKSUM_LEN || stored != computed {
        return Err(ChecksumMismatch { stored, computed });
    }
    Ok(covered)
}

/// Why a [`ByteReader`] refused its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before a field was complete.
    Truncated {
        /// Byte offset the read started at.
        offset: usize,
        /// Bytes the field needs.
        needed: usize,
        /// Bytes remaining in the input.
        remaining: usize,
    },
    /// A declared element count cannot fit in the remaining input.
    LengthOverflow {
        /// Which field declared the count.
        field: &'static str,
        /// The declared element count.
        declared: u64,
    },
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// A numeric value does not fit the platform's `usize`.
    ValueOverflow {
        /// Which field overflowed.
        field: &'static str,
        /// The offending value.
        value: u64,
    },
    /// An enum discriminant or flag byte is out of range.
    BadTag {
        /// Which field carried the tag.
        field: &'static str,
        /// The offending value.
        tag: u8,
    },
    /// Bytes remain after the last field.
    TrailingBytes {
        /// Unconsumed byte count.
        remaining: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { offset, needed, remaining } => {
                write!(f, "truncated at offset {offset}: need {needed} bytes, {remaining} remain")
            }
            DecodeError::LengthOverflow { field, declared } => {
                write!(f, "field {field:?} declares {declared} elements, more than fit")
            }
            DecodeError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            DecodeError::ValueOverflow { field, value } => {
                write!(f, "field {field:?} value {value} overflows usize")
            }
            DecodeError::BadTag { field, tag } => {
                write!(f, "field {field:?} carries invalid tag {tag:#04x}")
            }
            DecodeError::TrailingBytes { remaining } => {
                write!(f, "{remaining} unconsumed bytes after the last field")
            }
        }
    }
}

impl Error for DecodeError {}

/// An append-only encoder following the module's conventions.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        ByteWriter { buf: Vec::with_capacity(capacity) }
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends bytes with no length prefix (magic numbers).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.raw(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    /// Appends an `f32` as its exact bit pattern.
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// Appends an `f64` as its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends an optional `f64`: tag `0`, or tag `1` and the value.
    pub fn opt_f64(&mut self, v: Option<f64>) {
        self.u8(u8::from(v.is_some()));
        if let Some(v) = v {
            self.f64(v);
        }
    }

    /// Appends a byte blob behind a `u32` length prefix.
    pub fn bytes_u32(&mut self, bytes: &[u8]) {
        self.u32(bytes.len() as u32);
        self.raw(bytes);
    }

    /// Appends a string behind a `u32` length prefix.
    pub fn string_u32(&mut self, s: &str) {
        self.bytes_u32(s.as_bytes());
    }

    /// Appends a string behind a `u16` length prefix. A string longer than
    /// `u16::MAX` bytes is cut at the last character boundary that fits, so
    /// the stored prefix always decodes as UTF-8.
    pub fn string_u16(&mut self, s: &str) {
        let mut len = s.len().min(usize::from(u16::MAX));
        while !s.is_char_boundary(len) {
            len -= 1;
        }
        self.u16(len as u16);
        self.raw(&s.as_bytes()[..len]);
    }

    /// Appends the FNV-1a-32 checksum of every byte written since `start`.
    pub fn checksum_since(&mut self, start: usize) {
        self.u32(fnv1a32(&self.buf[start..]));
    }
}

/// A bounds-checked decoder over one byte slice; see the module docs for the
/// errors its reads return.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, offset: 0 }
    }

    /// Bytes consumed so far.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.offset
    }

    /// Consumes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let Some(slice) = self.bytes[self.offset..].get(..n) else {
            let (offset, remaining) = (self.offset, self.remaining());
            return Err(DecodeError::Truncated { offset, needed: n, remaining });
        };
        self.offset += n;
        Ok(slice)
    }

    /// Consumes the next `N` bytes as an array (magic numbers).
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        self.array().map(u8::from_le_bytes)
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads an `f32` from its bit pattern.
    pub fn f32(&mut self) -> Result<f32, DecodeError> {
        self.u32().map(f32::from_bits)
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        self.u64().map(f64::from_bits)
    }

    /// Reads a `u64` that must fit `usize` ([`DecodeError::ValueOverflow`]).
    pub fn usize(&mut self, field: &'static str) -> Result<usize, DecodeError> {
        let value = self.u64()?;
        usize::try_from(value).map_err(|_| DecodeError::ValueOverflow { field, value })
    }

    /// Reads an optional `f64`; a tag other than `0`/`1` is
    /// [`DecodeError::BadTag`].
    pub fn opt_f64(&mut self) -> Result<Option<f64>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            tag => Err(DecodeError::BadTag { field: "option<f64>", tag }),
        }
    }

    /// Reads a `u32` element count and proves `count * element_size` bytes
    /// remain before the caller allocates ([`DecodeError::LengthOverflow`]).
    pub fn count(
        &mut self,
        field: &'static str,
        element_size: usize,
    ) -> Result<usize, DecodeError> {
        let declared = u64::from(self.u32()?);
        if declared.saturating_mul(element_size as u64) > self.remaining() as u64 {
            return Err(DecodeError::LengthOverflow { field, declared });
        }
        Ok(declared as usize)
    }

    /// Reads a blob written by [`ByteWriter::bytes_u32`].
    pub fn bytes_u32(&mut self, field: &'static str) -> Result<&'a [u8], DecodeError> {
        let len = self.count(field, 1)?;
        self.take(len)
    }

    /// Reads a string written by [`ByteWriter::string_u32`].
    pub fn string_u32(&mut self) -> Result<String, DecodeError> {
        utf8(self.bytes_u32("string")?)
    }

    /// Reads a string written by [`ByteWriter::string_u16`].
    pub fn string_u16(&mut self) -> Result<String, DecodeError> {
        let len = self.u16()?;
        utf8(self.take(usize::from(len))?)
    }

    /// Asserts the input is fully consumed ([`DecodeError::TrailingBytes`]).
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            remaining => Err(DecodeError::TrailingBytes { remaining }),
        }
    }
}

fn utf8(bytes: &[u8]) -> Result<String, DecodeError> {
    String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_published_test_vectors() {
        assert_eq!(fnv1a32(b""), 0x811c_9dc5);
        assert_eq!(fnv1a32(b"a"), 0xe40c_292c);
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn writer_and_reader_roundtrip_every_convention() {
        let mut w = ByteWriter::default();
        w.raw(b"MAGC");
        w.u8(7);
        w.u16(0xbeef);
        w.u32(u32::MAX);
        w.u64(u64::MAX - 1);
        w.f32(f32::NAN);
        w.f64(-0.0);
        w.opt_f64(None);
        w.opt_f64(Some(2.5));
        w.bytes_u32(&[1, 2, 3]);
        w.string_u32("tenant-λ");
        w.string_u16("é");
        w.u64(42);
        w.checksum_since(0);
        let bytes = w.into_bytes();

        let covered = verify_checksum(&bytes).unwrap();
        let mut r = ByteReader::new(covered);
        assert_eq!(&r.array::<4>().unwrap(), b"MAGC");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xbeef);
        assert_eq!(r.u32().unwrap(), u32::MAX);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f32().unwrap().to_bits(), f32::NAN.to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.opt_f64().unwrap(), None);
        assert_eq!(r.opt_f64().unwrap(), Some(2.5));
        assert_eq!(r.bytes_u32("blob").unwrap(), &[1, 2, 3]);
        assert_eq!(r.string_u32().unwrap(), "tenant-λ");
        assert_eq!(r.string_u16().unwrap(), "é");
        assert_eq!(r.usize("value").unwrap(), 42);
        r.finish().unwrap();
    }

    #[test]
    fn reads_fail_typed_never_panic() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), Err(DecodeError::Truncated { offset: 0, needed: 4, remaining: 3 }));
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.opt_f64(), Err(DecodeError::BadTag { field: "option<f64>", tag: 2 }));
        assert_eq!(r.finish(), Err(DecodeError::TrailingBytes { remaining: 1 }));

        // A count beyond the remaining bytes is refused before allocation.
        let mut w = ByteWriter::default();
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        assert_eq!(
            ByteReader::new(&bytes).count("items", 8),
            Err(DecodeError::LengthOverflow { field: "items", declared: u64::from(u32::MAX) })
        );
        assert!(matches!(
            ByteReader::new(&[1, 0, 0, 0, 0xff]).string_u32(),
            Err(DecodeError::BadUtf8)
        ));

        let mut bytes = b"covered".to_vec();
        bytes.extend_from_slice(&fnv1a32(b"covered").to_le_bytes());
        assert_eq!(verify_checksum(&bytes), Ok(&b"covered"[..]));
        bytes[0] ^= 1;
        assert!(verify_checksum(&bytes).is_err());
        assert_eq!(
            verify_checksum(&[1, 2]),
            Err(ChecksumMismatch { stored: 0, computed: fnv1a32(&[]) })
        );
    }

    #[test]
    fn u16_strings_are_cut_on_a_char_boundary() {
        // 32767 two-byte characters plus one: byte 65535 falls inside the
        // last character, which must be dropped whole.
        let long = "é".repeat(32_768);
        let mut w = ByteWriter::default();
        w.string_u16(&long);
        let bytes = w.into_bytes();
        let back = ByteReader::new(&bytes).string_u16().unwrap();
        assert_eq!(back.len(), 65_534);
        assert!(long.starts_with(&back));
    }
}
