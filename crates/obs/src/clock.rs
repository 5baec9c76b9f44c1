//! A pluggable time source.
//!
//! The streaming runner's watchdog and restart backoff are
//! timing-sensitive: tested against the real clock they either sleep
//! for real (slow tests) or flake under load (a 10 ms sleep can take
//! 200 ms on a busy CI box). Every timing decision therefore goes
//! through the [`Clock`] trait: production uses [`RealClock`], tests
//! use [`ManualClock`] whose time advances only when the code under
//! test sleeps — making stall detection and backoff schedules exactly
//! reproducible.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonic time source plus the ability to wait on it.
///
/// `now_ns` must be monotonic non-decreasing within one clock instance;
/// the absolute epoch is unspecified (only differences are meaningful).
pub trait Clock: Send + Sync {
    /// Nanoseconds since this clock's (arbitrary) epoch.
    fn now_ns(&self) -> u64;

    /// Wait for `d` of this clock's time.
    fn sleep(&self, d: Duration);

    /// Wait for `d` like [`Clock::sleep`], but return early if the
    /// calling thread is unparked ([`std::thread::Thread::unpark`]) —
    /// for a background loop its owner wants to stop without waiting
    /// out the sleep. May also return early spuriously: callers
    /// re-check their condition. Clocks that never block (the manual
    /// clock) have nothing to cut short and just sleep.
    fn park_for(&self, d: Duration) {
        self.sleep(d);
    }

    /// Convenience: the elapsed time since an earlier `now_ns` reading.
    fn since_ns(&self, earlier_ns: u64) -> u64 {
        self.now_ns().saturating_sub(earlier_ns)
    }
}

/// The production clock: monotonic [`Instant`] time and real
/// [`std::thread::sleep`].
#[derive(Debug)]
pub struct RealClock {
    epoch: Instant,
}

impl RealClock {
    /// A clock whose epoch is its moment of construction.
    pub fn new() -> RealClock {
        RealClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for RealClock {
    fn default() -> Self {
        RealClock::new()
    }
}

impl Clock for RealClock {
    fn now_ns(&self) -> u64 {
        // ~584 years of range; saturate rather than wrap on the absurd.
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }

    fn park_for(&self, d: Duration) {
        std::thread::park_timeout(d);
    }
}

/// A deterministic test clock.
///
/// Time stands still except when explicitly advanced — either by the
/// test ([`ManualClock::advance`]) or by the code under test calling
/// [`Clock::sleep`], which advances time instantly instead of blocking.
/// A watchdog loop that `sleep`s its tick therefore runs its timeout
/// schedule at full speed with no wall-clock dependence at all.
#[derive(Debug, Default)]
pub struct ManualClock {
    ns: AtomicU64,
    /// Nanoseconds each `now_ns` read advances time by (0 = reads are
    /// pure observations, the default).
    tick_ns: u64,
}

impl ManualClock {
    /// A manual clock starting at time zero.
    pub fn new() -> ManualClock {
        ManualClock::default()
    }

    /// A manual clock where every `now_ns` *read* advances time by
    /// `step` before reporting it. Code that measures a duration with
    /// two reads (`t1 - t0`) therefore observes exactly `step`
    /// regardless of real elapsed time — which makes latency
    /// instrumentation assertable to the nanosecond in tests.
    pub fn with_autotick(step: Duration) -> ManualClock {
        ManualClock {
            ns: AtomicU64::new(0),
            tick_ns: u64::try_from(step.as_nanos()).unwrap_or(u64::MAX),
        }
    }

    /// Move time forward by `d`.
    pub fn advance(&self, d: Duration) {
        let add = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.ns.fetch_add(add, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        // With autotick off (tick_ns == 0) this is a plain load.
        self.ns
            .fetch_add(self.tick_ns, Ordering::SeqCst)
            .saturating_add(self.tick_ns)
    }

    fn sleep(&self, d: Duration) {
        // Sleeping *is* advancing: the sleeper wakes exactly when its
        // deadline arrives, and nothing else moves the clock meanwhile.
        self.advance(d);
        // Yield so other real threads (e.g. a worker the watchdog is
        // monitoring) get scheduled between manual-clock ticks.
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_is_monotonic() {
        let c = RealClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
        c.sleep(Duration::from_millis(1));
        assert!(c.now_ns() > a);
        assert!(c.since_ns(a) >= 1_000_000);
    }

    #[test]
    fn real_clock_park_returns_on_unpark() {
        let c = RealClock::new();
        // A token left before parking makes the park return at once.
        std::thread::current().unpark();
        let t0 = c.now_ns();
        c.park_for(Duration::from_secs(30));
        assert!(c.since_ns(t0) < 5_000_000_000);
    }

    #[test]
    fn manual_clock_advances_only_on_demand() {
        let c = ManualClock::new();
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now_ns(), 0, "time stands still");
        c.advance(Duration::from_secs(1));
        assert_eq!(c.now_ns(), 1_000_000_000);
        c.sleep(Duration::from_millis(250));
        assert_eq!(c.now_ns(), 1_250_000_000, "sleep advances instantly");
        assert_eq!(c.since_ns(1_000_000_000), 250_000_000);
        c.park_for(Duration::from_millis(250));
        assert_eq!(c.now_ns(), 1_500_000_000, "parking is sleeping");
    }

    #[test]
    fn manual_clock_autotick_makes_durations_exact() {
        let c = ManualClock::with_autotick(Duration::from_micros(5));
        let t0 = c.now_ns();
        assert_eq!(t0, 5_000);
        assert_eq!(c.since_ns(t0), 5_000, "each read steps exactly once");
        // Explicit advances compose with the per-read tick.
        c.advance(Duration::from_millis(1));
        assert_eq!(c.now_ns(), 1_015_000);
    }

    #[test]
    fn manual_clock_is_shareable() {
        use std::sync::Arc;
        let c = Arc::new(ManualClock::new());
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || c2.sleep(Duration::from_secs(2)));
        h.join().expect("join");
        assert_eq!(c.now_ns(), 2_000_000_000);
    }
}
