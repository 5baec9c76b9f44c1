//! CRC-32 (IEEE 802.3) over byte slices.
//!
//! The checkpoint codec and any future length-framed on-disk format need
//! a corruption check that is cheap, dependency-free, and stable across
//! platforms. This is the standard reflected CRC-32 (polynomial
//! 0xEDB88320, init and final XOR 0xFFFFFFFF) — the same function as
//! zlib/`cksum -o 3`, so externally written files can be cross-checked.
//!
//! The implementation is slicing-by-16: sixteen bytes are folded per
//! step through sixteen 256-entry tables (16 KiB, built at compile
//! time), so the serial dependency on the running CRC is one XOR chain
//! per sixteen bytes instead of one table walk per byte. The *function*
//! is unchanged — every frame, checkpoint, ring window and incident
//! file written by the byte-wise version verifies under this one and
//! vice versa.

/// `TABLES[0]` is the classic byte-wise table for the reflected
/// polynomial; `TABLES[k][i]` is the CRC of byte `i` followed by `k`
/// zero bytes.
const TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32/IEEE of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        // The running CRC folds into the first four bytes; byte `i` of
        // the block then has `15 - i` bytes after it.
        let w = [
            crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
            u32::from_le_bytes([b[4], b[5], b[6], b[7]]),
            u32::from_le_bytes([b[8], b[9], b[10], b[11]]),
            u32::from_le_bytes([b[12], b[13], b[14], b[15]]),
        ];
        crc = 0;
        let mut i = 0;
        while i < 4 {
            let t = 12 - 4 * i;
            crc ^= TABLES[t + 3][(w[i] & 0xFF) as usize]
                ^ TABLES[t + 2][((w[i] >> 8) & 0xFF) as usize]
                ^ TABLES[t + 1][((w[i] >> 16) & 0xFF) as usize]
                ^ TABLES[t][(w[i] >> 24) as usize];
            i += 1;
        }
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

/// The byte-at-a-time table walk slicing replaced: one lookup per byte,
/// each waiting on the previous one. The reference side of the
/// link-layer timing floors here and in `wire`.
#[cfg(test)]
pub(crate) fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Bit-at-a-time reference: the definition, with no table at all.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789" (CRC-32/ISO-HDLC).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// Every length 0..=64 at every offset 0..8 into the backing buffer,
    /// so the 16-byte blocks and the byte-wise tail meet at every
    /// alignment and every split.
    #[test]
    fn sliced_equals_bitwise_at_every_length_and_alignment() {
        let mut rng = StdRng::seed_from_u64(0xC4C3);
        let backing: Vec<u8> = (0..64 + 8).map(|_| rng.random()).collect();
        for align in 0..8 {
            for len in 0..=64 {
                let data = &backing[align..align + len];
                assert_eq!(crc32(data), crc32_bitwise(data), "align {align} len {len}");
            }
        }
    }

    #[test]
    fn sliced_equals_bitwise_on_a_seeded_mebibyte() {
        let mut rng = StdRng::seed_from_u64(12);
        let data: Vec<u8> = (0..1 << 20).map(|_| rng.random()).collect();
        assert_eq!(crc32(&data), crc32_bitwise(&data));
        assert_eq!(crc32(&data[3..]), crc32_bitwise(&data[3..]));
    }

    #[test]
    fn sensitive_to_single_bit() {
        let clean = b"checkpoint payload".to_vec();
        let base = crc32(&clean);
        for i in 0..clean.len() {
            for bit in 0..8 {
                let mut flipped = clean.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "byte {i} bit {bit}");
            }
        }
    }

    /// Release-mode floor, which `ci.sh` runs with `--ignored`: over a
    /// 72 KiB payload (one 2 000-record chunk message) the sliced CRC is
    /// at least 4× the byte-wise table walk, best of 5 batches of 64
    /// calls, the two timed alternately. Slicing-by-16 reads ≈5.3×
    /// (slicing-by-8 read 3.8×); a table walk that crept back reads 1×.
    #[test]
    #[ignore = "release-mode timing floor; ci.sh runs it with --ignored"]
    fn sliced_floor_4x_bytewise() {
        use std::hint::black_box;
        use std::time::{Duration, Instant};
        fn time_64(f: impl Fn(&[u8]) -> u32, data: &[u8]) -> Duration {
            let t0 = Instant::now();
            for _ in 0..64 {
                black_box(f(black_box(data)));
            }
            t0.elapsed()
        }
        let mut rng = StdRng::seed_from_u64(13);
        let payload: Vec<u8> = (0..72 * 1024).map(|_| rng.random()).collect();
        assert_eq!(crc32(&payload), crc32_bytewise(&payload));
        let (mut sliced, mut byte) = (Duration::MAX, Duration::MAX);
        for _ in 0..5 {
            sliced = sliced.min(time_64(crc32, &payload));
            byte = byte.min(time_64(crc32_bytewise, &payload));
        }
        let ratio = byte.as_secs_f64() / sliced.as_secs_f64();
        assert!(
            ratio >= 4.0,
            "crc32 {sliced:?} vs byte-wise {byte:?} per 64 calls: {ratio:.1}x < 4x"
        );
    }
}
