//! SplitMix64: the one integer mixer behind every derived seed in the
//! workspace — `BatchRunner` job streams and failpoint probability
//! streams.

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)` from a 64-bit word (top 53 bits).
#[inline]
pub fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}
