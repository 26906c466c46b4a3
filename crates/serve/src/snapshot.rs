//! Binary snapshot codec for the explicit memory.
//!
//! The workspace's `serde` stand-in is marker-only (see
//! `third_party/README.md`), so warm restart and replication need an in-tree
//! wire format. The codec is deliberately tiny and fully self-describing,
//! written with the crate's [`bytes`](crate::bytes) codec:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"OFEM"
//! 4       2     format version, little-endian u16 (currently 1)
//! 6       1     prototype storage precision in bits
//! 7       1     reserved (zero)
//! 8       4     prototype dimensionality d_p, little-endian u32
//! 12      4     prototype count, little-endian u32
//! 16      …     count × entry:  class id (u64 LE) + d_p × f32 (LE bits)
//! end-4   4     FNV-1a checksum of every preceding byte, little-endian u32
//! ```
//!
//! Floats are stored as their exact IEEE-754 bit patterns, so a decode
//! followed by [`ExplicitMemory::restore_prototype`] (which bypasses the
//! storage quantizer) round-trips **bit-exactly** — the property the
//! `snapshot_roundtrip` integration test asserts across dimensions, class
//! counts and every [`PrototypePrecision`] variant.

use crate::bytes::{
    verify_checksum, ByteReader, ByteWriter, ChecksumMismatch, DecodeError, CHECKSUM_LEN,
};
use crate::{Result, ServeError};
use ofscil_core::ExplicitMemory;
use ofscil_quant::PrototypePrecision;
use std::error::Error;
use std::fmt;

/// Magic bytes identifying an explicit-memory snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"OFEM";

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u16 = 1;

const HEADER_LEN: usize = 16;

/// Decode-time failure of the snapshot codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream is shorter than the fixed header + checksum.
    Truncated {
        /// Minimum number of bytes a snapshot can have.
        needed: usize,
        /// Number of bytes actually provided.
        actual: usize,
    },
    /// The magic bytes do not identify an explicit-memory snapshot.
    BadMagic([u8; 4]),
    /// The format version is not understood by this decoder.
    UnsupportedVersion(u16),
    /// The byte length does not match the header's dimension and count.
    LengthMismatch {
        /// Length implied by the header.
        expected: usize,
        /// Length actually provided.
        actual: usize,
    },
    /// The checksum over the payload does not match the stored one.
    ChecksumMismatch {
        /// Checksum stored in the snapshot.
        stored: u32,
        /// Checksum recomputed over the payload.
        computed: u32,
    },
    /// The stored precision is not a valid [`PrototypePrecision`].
    BadPrecision(u8),
    /// A stored class id does not fit in `usize` on this platform.
    ClassOverflow(u64),
    /// Any other field the shared byte reader refused.
    Decode(DecodeError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { needed, actual } => {
                write!(f, "snapshot truncated: {actual} bytes, need at least {needed}")
            }
            SnapshotError::BadMagic(magic) => {
                write!(f, "bad snapshot magic {magic:?} (expected {SNAPSHOT_MAGIC:?})")
            }
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (decoder speaks {SNAPSHOT_VERSION})")
            }
            SnapshotError::LengthMismatch { expected, actual } => {
                write!(f, "snapshot length {actual} does not match header-implied {expected}")
            }
            SnapshotError::ChecksumMismatch { stored, computed } => {
                write!(f, "snapshot checksum {stored:#010x} does not match computed {computed:#010x}")
            }
            SnapshotError::BadPrecision(bits) => {
                write!(f, "snapshot stores an unsupported precision of {bits} bits")
            }
            SnapshotError::ClassOverflow(class) => {
                write!(f, "snapshot class id {class} overflows usize on this platform")
            }
            SnapshotError::Decode(e) => write!(f, "snapshot field malformed: {e}"),
        }
    }
}

impl Error for SnapshotError {}

// The snapshot is the only format this crate decodes, so a reader failure
// here is always a snapshot error.
impl From<DecodeError> for ServeError {
    fn from(e: DecodeError) -> Self {
        ServeError::Snapshot(match e {
            DecodeError::ValueOverflow { value, .. } => SnapshotError::ClassOverflow(value),
            other => SnapshotError::Decode(other),
        })
    }
}

/// Serializes an explicit memory to the snapshot wire format.
///
/// The encoding is deterministic: prototypes are written in ascending class
/// order, so two memories with identical contents produce identical bytes
/// (replicas can be compared by hash).
pub fn encode_explicit_memory(em: &ExplicitMemory) -> Vec<u8> {
    let dim = em.dim();
    let count = em.num_classes();
    let mut w = ByteWriter::with_capacity(HEADER_LEN + count * (8 + dim * 4) + CHECKSUM_LEN);
    w.raw(&SNAPSHOT_MAGIC);
    w.u16(SNAPSHOT_VERSION);
    w.u8(em.precision().bits());
    w.u8(0);
    w.u32(dim as u32);
    w.u32(count as u32);
    for (class, prototype) in em.iter() {
        w.u64(class as u64);
        for &v in prototype {
            w.f32(v);
        }
    }
    w.checksum_since(0);
    w.into_bytes()
}

/// Deserializes an explicit memory from the snapshot wire format.
///
/// # Errors
///
/// Returns a [`SnapshotError`] (wrapped in [`ServeError::Snapshot`]) when the
/// bytes are truncated, carry a bad magic or version, fail the checksum, or
/// declare an unsupported precision.
pub fn decode_explicit_memory(bytes: &[u8]) -> Result<ExplicitMemory> {
    let min = HEADER_LEN + CHECKSUM_LEN;
    if bytes.len() < min {
        return Err(SnapshotError::Truncated { needed: min, actual: bytes.len() }.into());
    }
    let mut r = ByteReader::new(bytes);
    let magic = r.array()?;
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic(magic).into());
    }
    let version = r.u16()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version).into());
    }
    let bits = r.u8()?;
    r.u8()?; // reserved
    let dim = r.u32()? as usize;
    let count = r.u32()? as usize;
    // Header fields are corruption-controlled: compute the implied length in
    // u128 so absurd dim/count values fail the comparison instead of
    // overflowing usize (a wrapped value could pass the guard and panic in
    // the decode loop).
    let expected =
        (HEADER_LEN + CHECKSUM_LEN) as u128 + count as u128 * (8 + dim as u128 * 4);
    if bytes.len() as u128 != expected {
        return Err(SnapshotError::LengthMismatch {
            expected: usize::try_from(expected).unwrap_or(usize::MAX),
            actual: bytes.len(),
        }
        .into());
    }
    verify_checksum(bytes).map_err(|ChecksumMismatch { stored, computed }| {
        ServeError::Snapshot(SnapshotError::ChecksumMismatch { stored, computed })
    })?;
    let precision = PrototypePrecision::new(bits)
        .map_err(|_| ServeError::Snapshot(SnapshotError::BadPrecision(bits)))?;

    let mut em = ExplicitMemory::with_precision(dim, precision);
    let mut prototype = vec![0.0f32; dim];
    for _ in 0..count {
        let class = r.usize("class")?;
        for slot in prototype.iter_mut() {
            *slot = r.f32()?;
        }
        em.restore_prototype(class, &prototype)?;
    }
    Ok(em)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_memory() -> ExplicitMemory {
        let mut em =
            ExplicitMemory::with_precision(4, PrototypePrecision::new(8).unwrap());
        em.set_prototype(0, &[0.5, -0.25, 0.75, -1.0]).unwrap();
        em.set_prototype(9, &[-0.1, 0.2, -0.3, 0.4]).unwrap();
        em
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let em = sample_memory();
        let bytes = encode_explicit_memory(&em);
        let back = decode_explicit_memory(&bytes).unwrap();
        assert_eq!(back.dim(), em.dim());
        assert_eq!(back.precision(), em.precision());
        assert_eq!(back.classes(), em.classes());
        for (class, proto) in em.iter() {
            let restored = back.prototype(class).unwrap();
            let exact = proto
                .iter()
                .zip(restored)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(exact, "class {class} round trip differs");
        }
    }

    #[test]
    fn empty_memory_roundtrips() {
        let em = ExplicitMemory::new(16);
        let back = decode_explicit_memory(&encode_explicit_memory(&em)).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.dim(), 16);
        assert_eq!(back.precision().bits(), 32);
    }

    #[test]
    fn encoding_is_deterministic() {
        let em = sample_memory();
        assert_eq!(encode_explicit_memory(&em), encode_explicit_memory(&em));
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = encode_explicit_memory(&sample_memory());

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert!(matches!(
            decode_explicit_memory(&bad_magic),
            Err(ServeError::Snapshot(SnapshotError::BadMagic(_)))
        ));

        let mut bad_version = bytes.clone();
        bad_version[4] = 0xee;
        assert!(matches!(
            decode_explicit_memory(&bad_version),
            Err(ServeError::Snapshot(SnapshotError::UnsupportedVersion(_)))
        ));

        let mut flipped_payload = bytes.clone();
        flipped_payload[HEADER_LEN + 10] ^= 0x01;
        assert!(matches!(
            decode_explicit_memory(&flipped_payload),
            Err(ServeError::Snapshot(SnapshotError::ChecksumMismatch { .. }))
        ));

        assert!(matches!(
            decode_explicit_memory(&bytes[..bytes.len() - 3]),
            Err(ServeError::Snapshot(SnapshotError::LengthMismatch { .. }))
        ));
        assert!(matches!(
            decode_explicit_memory(&bytes[..7]),
            Err(ServeError::Snapshot(SnapshotError::Truncated { .. }))
        ));
    }

    #[test]
    fn absurd_header_dimensions_fail_cleanly() {
        // dim and count near u32::MAX would overflow a naive
        // `count * (8 + dim * 4)` length computation; the decoder must
        // report a mismatch, not wrap, pass the guard and index out of
        // bounds.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SNAPSHOT_MAGIC);
        bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        bytes.push(32u8);
        bytes.push(0u8);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        assert!(matches!(
            decode_explicit_memory(&bytes),
            Err(ServeError::Snapshot(SnapshotError::LengthMismatch { .. }))
        ));
    }
}
