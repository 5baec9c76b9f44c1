//! Shared bounded-exponential backoff with optional deterministic
//! seeded jitter.
//!
//! Three retry loops grew the same ladder independently — RIB
//! collector gap retries ([`crate::RibFreshness`]), runner worker
//! restarts, and shard reconnects — each as a hand-rolled
//! `base * 2^(attempt-1)` capped formula. This module is the single
//! shared implementation; each site configures the exact variant it
//! had (exponent clamp, jitter stream) so the existing boundary tests
//! stay green bit-for-bit against the shared type.

/// FNV-1a over a sequence of words. Shared by backoff jitter, config
/// hashing, shard-plan binding, the detector's /24 sketch, and
/// deterministic shedding.
pub(crate) fn fnv(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_be_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Bounded exponential backoff: `base * 2^(attempt-1)` capped at `cap`,
/// with an optional deterministic seeded jitter that pulls each delay
/// down by up to half. Units are whatever the caller uses (seconds for
/// RIB freshness, milliseconds for worker restarts and reconnects).
#[derive(Debug, Clone, Copy)]
pub struct Backoff {
    base: u64,
    cap: u64,
    exp_clamp: u32,
    jitter: Option<(u64, u64)>,
}

impl Backoff {
    /// A ladder starting at `base`, doubling per attempt, capped at
    /// `cap`, with the exponent clamped at 32 and no jitter.
    pub fn new(base: u64, cap: u64) -> Self {
        Backoff {
            base,
            cap,
            exp_clamp: 32,
            jitter: None,
        }
    }

    /// Clamp the exponent at `clamp` doublings instead of 32.
    pub fn with_exp_clamp(mut self, clamp: u32) -> Self {
        self.exp_clamp = clamp;
        self
    }

    /// Subtract a deterministic jitter of up to half the raw delay,
    /// derived from `(seed, stream, attempt)` so distinct streams
    /// (e.g. shard ids) desynchronize their retries while each stays
    /// reproducible.
    pub fn with_jitter(mut self, seed: u64, stream: u64) -> Self {
        self.jitter = Some((seed, stream));
        self
    }

    /// Delay for 1-based `attempt` (attempt 0 behaves like attempt 1).
    pub fn delay(&self, attempt: u64) -> u64 {
        let exp = attempt
            .saturating_sub(1)
            .min(self.exp_clamp as u64)
            .min(63);
        let raw = self.base.saturating_mul(1u64 << exp).min(self.cap);
        match self.jitter {
            None => raw,
            Some((seed, stream)) => raw - fnv(&[seed, stream, attempt]) % (raw / 2 + 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_doubles_and_caps() {
        let b = Backoff::new(10, 80);
        assert_eq!(b.delay(1), 10);
        assert_eq!(b.delay(2), 20);
        assert_eq!(b.delay(3), 40);
        assert_eq!(b.delay(4), 80);
        assert_eq!(b.delay(5), 80); // capped
        assert_eq!(b.delay(0), 10); // degenerate attempt
    }

    #[test]
    fn exponent_clamp_prevents_overflow() {
        let b = Backoff::new(u64::MAX / 2, u64::MAX);
        assert_eq!(b.delay(200), u64::MAX); // saturates, no panic
        let clamped = Backoff::new(1, u64::MAX).with_exp_clamp(3);
        assert_eq!(clamped.delay(100), 8);
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_stream_diverse() {
        let mk = |stream| Backoff::new(50, 1_000).with_jitter(7, stream);
        for attempt in 1..=10u64 {
            let raw = (50u64 << (attempt - 1).min(32)).min(1_000);
            let d1 = mk(0).delay(attempt);
            let d2 = mk(0).delay(attempt);
            assert_eq!(d1, d2, "jitter must be deterministic");
            assert!(d1 >= raw / 2 && d1 <= raw, "jitter out of bounds: {d1} vs raw {raw}");
        }
        let delays: std::collections::HashSet<u64> =
            (0..8).map(|s| mk(s).delay(5)).collect();
        assert!(delays.len() > 1, "streams should desynchronize");
    }

    #[test]
    fn zero_base_stays_zero() {
        assert_eq!(Backoff::new(0, 100).delay(4), 0);
        assert_eq!(Backoff::new(0, 100).with_jitter(1, 1).delay(4), 0);
    }
}
