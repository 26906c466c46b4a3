//! Property coverage for the explicit-memory snapshot codec: encode →
//! decode must be **bit-exact** across prototype dimensionalities, class
//! counts and every [`PrototypePrecision`] variant, and corrupted inputs
//! must be rejected rather than silently misread.

use ofscil_core::ExplicitMemory;
use ofscil_quant::PrototypePrecision;
use ofscil_serve::snapshot::SnapshotError;
use ofscil_serve::{decode_explicit_memory, encode_explicit_memory, ServeError};
use ofscil_tensor::SeedRng;

/// Builds a memory through the normal write path (`set_prototype`, which
/// quantizes to the storage precision) so the stored values are exactly what
/// a deployed learner would hold.
fn random_memory(
    dim: usize,
    classes: usize,
    precision: PrototypePrecision,
    rng: &mut SeedRng,
) -> ExplicitMemory {
    let mut em = ExplicitMemory::with_precision(dim, precision);
    for class in 0..classes {
        // Sparse class ids exercise the id encoding, not just 0..n.
        let id = class * 7 + (class % 3);
        let proto: Vec<f32> = (0..dim).map(|_| rng.normal()).collect();
        em.set_prototype(id, &proto).unwrap();
    }
    em
}

fn assert_bit_exact(original: &ExplicitMemory, restored: &ExplicitMemory) {
    assert_eq!(restored.dim(), original.dim());
    assert_eq!(restored.precision(), original.precision());
    assert_eq!(restored.classes(), original.classes());
    for (class, proto) in original.iter() {
        let back = restored.prototype(class).unwrap();
        assert_eq!(proto.len(), back.len());
        for (i, (a, b)) in proto.iter().zip(back).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "class {class} element {i}: {a} != {b} after round trip \
                 (dim {}, {} bits)",
                original.dim(),
                original.precision().bits()
            );
        }
    }
}

#[test]
fn roundtrip_is_bit_exact_across_the_parameter_grid() {
    let mut rng = SeedRng::new(0xC0DE);
    // Every storage precision of the paper's Fig. 3 sweep (32, 8..=1 bits).
    for precision in PrototypePrecision::figure3_sweep() {
        for &dim in &[1usize, 3, 16, 64] {
            for &classes in &[0usize, 1, 5, 40] {
                let em = random_memory(dim, classes, precision, &mut rng);
                let bytes = encode_explicit_memory(&em);
                let restored = decode_explicit_memory(&bytes).unwrap();
                assert_bit_exact(&em, &restored);
                // A second hop must be byte-identical (replication by hash).
                assert_eq!(encode_explicit_memory(&restored), bytes);
            }
        }
    }
}

#[test]
fn non_finite_and_denormal_values_survive() {
    // The codec stores raw IEEE-754 bits, so values the quantizer would
    // never produce still round-trip (a replica must not reinterpret them).
    let mut em = ExplicitMemory::new(4);
    em.restore_prototype(0, &[f32::INFINITY, f32::NEG_INFINITY, 1e-42, -0.0])
        .unwrap();
    let restored = decode_explicit_memory(&encode_explicit_memory(&em)).unwrap();
    let back = restored.prototype(0).unwrap();
    assert_eq!(back[0], f32::INFINITY);
    assert_eq!(back[1], f32::NEG_INFINITY);
    assert_eq!(back[2].to_bits(), 1e-42f32.to_bits());
    assert_eq!(back[3].to_bits(), (-0.0f32).to_bits());
}

#[test]
fn corrupted_headers_are_rejected() {
    let mut rng = SeedRng::new(7);
    let em = random_memory(8, 3, PrototypePrecision::new(8).unwrap(), &mut rng);
    let bytes = encode_explicit_memory(&em);

    // Magic.
    let mut bad = bytes.clone();
    bad[1] = b'X';
    assert!(matches!(
        decode_explicit_memory(&bad),
        Err(ServeError::Snapshot(SnapshotError::BadMagic(_)))
    ));

    // Version.
    let mut bad = bytes.clone();
    bad[4] = 99;
    assert!(matches!(
        decode_explicit_memory(&bad),
        Err(ServeError::Snapshot(SnapshotError::UnsupportedVersion(99)))
    ));

    // Precision byte: 13 bits is not a valid PrototypePrecision. The
    // checksum is recomputed so the decoder reaches the precision check.
    let mut bad = bytes.clone();
    bad[6] = 13;
    patch_checksum(&mut bad);
    assert!(matches!(
        decode_explicit_memory(&bad),
        Err(ServeError::Snapshot(SnapshotError::BadPrecision(13)))
    ));

    // Declared count no longer matches the byte length.
    let mut bad = bytes.clone();
    bad[12] = bad[12].wrapping_add(1);
    assert!(matches!(
        decode_explicit_memory(&bad),
        Err(ServeError::Snapshot(SnapshotError::LengthMismatch { .. }))
    ));

    // Too short to even hold a header.
    assert!(matches!(
        decode_explicit_memory(&bytes[..10]),
        Err(ServeError::Snapshot(SnapshotError::Truncated { .. }))
    ));

    // Every single-bit payload flip is caught by the checksum.
    for byte in [16usize, 24, 40] {
        let mut bad = bytes.clone();
        bad[byte] ^= 0x80;
        assert!(matches!(
            decode_explicit_memory(&bad),
            Err(ServeError::Snapshot(SnapshotError::ChecksumMismatch { .. }))
        ));
    }

    // The pristine bytes still decode (the corruption harness itself is not
    // what broke them).
    decode_explicit_memory(&bytes).unwrap();
}

/// Seeded hostile inputs for a decoder: every truncation of `valid`, every
/// single-bit flip of it, and 256 random bodies up to twice its length.
fn hostile_variants(valid: &[u8], seed: u64) -> Vec<Vec<u8>> {
    let flips = (0..valid.len() * 8).map(|bit| {
        let mut flipped = valid.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        flipped
    });
    let mut rng = SeedRng::new(seed);
    let random: Vec<Vec<u8>> = (0..256)
        .map(|_| {
            let mut body = vec![0u8; rng.below(2 * valid.len() + 1)];
            rng.fill_bytes(&mut body);
            body
        })
        .collect();
    (0..valid.len()).map(|cut| valid[..cut].to_vec()).chain(flips).chain(random).collect()
}

/// Seeded hostile snapshots — every truncation, every single-bit flip and
/// random bodies, each also with its checksum re-sealed so the damage reaches
/// the field decoders behind the trailer — must decode to a typed error or a
/// memory, never panic.
#[test]
fn hostile_bytes_never_panic_the_snapshot_decoder() {
    let mut rng = SeedRng::new(0x5a9);
    let bytes = encode_explicit_memory(&random_memory(4, 3, PrototypePrecision::new(32).unwrap(), &mut rng));
    for hostile in hostile_variants(&bytes, 0x5a9) {
        let _ = decode_explicit_memory(&hostile);
        if hostile.len() >= 4 {
            let mut resealed = hostile;
            patch_checksum(&mut resealed);
            let _ = decode_explicit_memory(&resealed);
        }
    }
}

/// Recomputes the trailing FNV-1a checksum after an intentional header edit,
/// mirroring the encoder.
fn patch_checksum(bytes: &mut [u8]) {
    let payload_end = bytes.len() - 4;
    let mut hash: u32 = 0x811c_9dc5;
    for &b in &bytes[..payload_end] {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    bytes[payload_end..].copy_from_slice(&hash.to_le_bytes());
}

/// The snapshot v1 bytes of a fixed two-class memory, recorded before the
/// codec moved onto `ofscil_serve::bytes`: the format must not drift.
#[test]
fn snapshot_bytes_match_the_golden_encoding() {
    let mut em = ExplicitMemory::with_precision(3, PrototypePrecision::new(8).unwrap());
    em.restore_prototype(0, &[0.5, -0.25, 1.0]).unwrap();
    em.restore_prototype(5, &[-1.5, 0.0, f32::MIN_POSITIVE]).unwrap();
    let hex: String =
        encode_explicit_memory(&em).iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(
        hex,
        "4f46454d01000800030000000200000000000000000000000000003f000080be0000803f05000000000000\
         000000c0bf0000000000008000aca8ffbb"
    );
}
