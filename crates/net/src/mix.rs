//! The word-wide mixer behind the trace fingerprint and the shard
//! partition key.
//!
//! [`fold`] is a folded multiply: the full 128-bit product of two words
//! with its high half xored onto its low half. A plain 64-bit multiply
//! only carries upward, so a difference in a word's top bit stays in the
//! top bit, and a second such difference cancels it. Folding the high
//! half back down spreads every input bit over the whole result, at the
//! cost of one multiply per word instead of one per byte.

/// Odd, bit-balanced multipliers (the wyhash constants) for callers
/// that run several independent streams or folds.
pub const K: [u64; 5] = [
    0xa076_1d64_78bd_642f,
    0xe703_7ed1_a0b4_28db,
    0x8ebc_6af0_9c88_c6e3,
    0x5899_65cc_7537_4cc3,
    0x1d8e_4e27_c47d_124f,
];

/// `lo64(a·b) ^ hi64(a·b)` over the 128-bit product.
#[inline]
pub fn fold(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_bit_differences_reach_the_low_half() {
        let x = 0x0123_4567_89ab_cdefu64;
        let top = 1u64 << 63;
        // A plain multiply keeps the difference in bit 63 alone.
        assert_eq!(x.wrapping_mul(K[0]) ^ (x ^ top).wrapping_mul(K[0]), top);
        let diff = fold(x, K[0]) ^ fold(x ^ top, K[0]);
        assert_ne!(diff & !top, 0, "the fold carried nothing below bit 63");
    }

    #[test]
    fn fold_is_the_folded_128_bit_product() {
        assert_eq!(fold(0, K[0]), 0);
        assert_eq!(fold(1, K[0]), K[0]);
        assert_eq!(fold(1 << 32, 1 << 32), 1); // 2^64: low half 0, high half 1
        assert_eq!(fold(u64::MAX, u64::MAX), 0xffff_ffff_ffff_fffe ^ 1);
        assert_eq!(fold(K[1], K[2]), fold(K[2], K[1]));
    }
}
