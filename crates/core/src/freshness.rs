//! RIB freshness and degraded-mode classification.
//!
//! The classifier's routed table is only as good as the collector feeds
//! behind it. When a collector drops out, routed space slowly drifts:
//! prefixes withdrawn or newly announced after the last good snapshot
//! are misjudged, and the **Unrouted** class — the paper's cleanest
//! spoofing signal — silently absorbs the error. This module models
//! that failure mode instead of ignoring it:
//!
//! * [`RibFreshness`] tracks per-collector snapshot times and gaps, with
//!   bounded-exponential-backoff retry bookkeeping for gap recovery;
//! * [`Confidence`] grades the feed (`Fresh` / `Degraded` / `Stale`)
//!   from the staleness of the worst still-working collectors;
//! * [`DegradedStats::of`] grades every verdict of a classified batch
//!   with that confidence, so downstream consumers can tell "Unrouted,
//!   trust it" from "Unrouted, but the table is cold".
//!
//! Only the routing-derived classes (Unrouted, Invalid, and cone-based
//! Valid) degrade with the table; Bogon verdicts come from a static list
//! and keep full confidence regardless of feed health.

use serde::Serialize;
use spoofwatch_net::TrafficClass;
use std::collections::HashMap;
use std::fmt;

// RIB snapshots land every 8 h (RIPE RIS); two missed cycles is
// degraded, a missed day is stale.

/// Feed age (seconds) up to which the table counts as fresh.
const FRESH_SECS: u64 = 16 * 3600;
/// Feed age past which the table counts as stale (between the two
/// bounds it is degraded).
const STALE_SECS: u64 = 24 * 3600;
/// First retry delay after a collector gap, seconds.
const RETRY_BASE_SECS: u64 = 60;
/// Retry delays double per attempt but never exceed this bound.
const RETRY_MAX_SECS: u64 = 3600;
/// Attempts after which a collector is declared dropped out (no
/// further retries are scheduled).
const MAX_RETRIES: u32 = 8;

/// Feed-health grade attached to degraded-mode classifications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum Confidence {
    /// The routed table is current; verdicts carry full weight.
    Fresh,
    /// The table is aging (some collectors gapped); routing-derived
    /// verdicts should be treated as tentative.
    Degraded,
    /// The table is past the staleness threshold; routing-derived
    /// verdicts are annotations, not evidence.
    Stale,
}

impl fmt::Display for Confidence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Confidence::Fresh => f.write_str("fresh"),
            Confidence::Degraded => f.write_str("degraded"),
            Confidence::Stale => f.write_str("stale"),
        }
    }
}

/// Per-collector feed state.
#[derive(Debug, Clone)]
struct CollectorState {
    /// Time of the last successful snapshot, if any.
    last_snapshot: Option<u64>,
    /// Consecutive failed fetches since the last success.
    failures: u32,
    /// When the next retry is due (`None` when healthy or dropped out).
    next_retry_at: Option<u64>,
}

/// Tracks how current the routed table's inputs are, per collector.
#[derive(Debug, Clone, Default)]
pub struct RibFreshness {
    collectors: HashMap<String, CollectorState>,
}

impl RibFreshness {
    /// Fresh tracker with no collector known yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a collector (idempotent). Unregistered collectors are
    /// created on first event.
    pub fn register(&mut self, collector: &str) {
        self.collectors
            .entry(collector.to_string())
            .or_insert(CollectorState {
                last_snapshot: None,
                failures: 0,
                next_retry_at: None,
            });
    }

    /// Record a successful snapshot from `collector` at time `ts`:
    /// clears any gap and resets the backoff.
    pub fn record_snapshot(&mut self, collector: &str, ts: u64) {
        self.register(collector);
        if let Some(c) = self.collectors.get_mut(collector) {
            c.last_snapshot = Some(c.last_snapshot.map_or(ts, |t| t.max(ts)));
            c.failures = 0;
            c.next_retry_at = None;
        }
    }

    /// Record a failed fetch from `collector` at time `ts` and schedule
    /// the next retry with bounded exponential backoff
    /// (`60 s * 2^(failures-1)`, capped at one hour). After 8
    /// consecutive failures the collector is declared dropped out and no
    /// further retry is scheduled.
    pub fn record_gap(&mut self, collector: &str, ts: u64) {
        self.register(collector);
        if let Some(c) = self.collectors.get_mut(collector) {
            c.failures = c.failures.saturating_add(1);
            c.next_retry_at = if c.failures >= MAX_RETRIES {
                None // dropped out
            } else {
                let delay = crate::backoff::Backoff::new(RETRY_BASE_SECS, RETRY_MAX_SECS)
                    .delay(c.failures as u64);
                Some(ts + delay)
            };
        }
    }

    /// Whether a retry of `collector` is due at time `now`.
    pub fn retry_due(&self, collector: &str, now: u64) -> bool {
        self.collectors
            .get(collector)
            .and_then(|c| c.next_retry_at)
            .is_some_and(|t| now >= t)
    }

    /// Collectors with 8 consecutive failures and no retry
    /// pending: they no longer contribute to freshness at all.
    pub fn dropped_out(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self
            .collectors
            .iter()
            .filter(|(_, c)| c.failures >= MAX_RETRIES)
            .map(|(name, _)| name.as_str())
            .collect();
        out.sort_unstable();
        out
    }

    /// Age in seconds of the *freshest* collector snapshot at `now`
    /// (the table is as current as its best input, since every
    /// collector feeds the same merged table). `None` when no collector
    /// ever delivered.
    pub fn best_age(&self, now: u64) -> Option<u64> {
        self.collectors
            .values()
            .filter_map(|c| c.last_snapshot)
            .map(|t| now.saturating_sub(t))
            .min()
    }

    /// Grade the routed table's trustworthiness at time `now`: fresh up
    /// to 16 h, stale past 24 h, degraded between.
    /// No snapshot at all is `Stale`.
    pub fn confidence(&self, now: u64) -> Confidence {
        match self.best_age(now) {
            Some(age) if age <= FRESH_SECS => Confidence::Fresh,
            Some(age) if age <= STALE_SECS => Confidence::Degraded,
            _ => Confidence::Stale,
        }
    }

    /// Export the tracker's state as gauges on `reg`. `now` is study
    /// time (the same clock `record_snapshot`/`record_gap` run on).
    /// Call after each feed event or on a scrape cadence; gauges carry
    /// the latest value only.
    pub fn export_metrics(&self, reg: &spoofwatch_obs::MetricsRegistry, now: u64) {
        if !reg.is_enabled() {
            return;
        }
        reg.gauge(
            "spoofwatch_rib_collectors",
            "Collectors known to the freshness tracker",
            &[],
        )
        .set(self.collectors.len() as i64);
        reg.gauge(
            "spoofwatch_rib_collectors_dropped_out",
            "Collectors past max_retries with no retry pending (no longer feeding the table)",
            &[],
        )
        .set(self.dropped_out().len() as i64);
        reg.gauge(
            "spoofwatch_rib_best_age_seconds",
            "Age of the freshest collector snapshot (-1 when no collector ever delivered)",
            &[],
        )
        .set(
            self.best_age(now)
                .and_then(|a| i64::try_from(a).ok())
                .unwrap_or(-1),
        );
        reg.gauge(
            "spoofwatch_rib_confidence",
            "Feed-health grade of the routed table: 0 fresh, 1 degraded, 2 stale",
            &[],
        )
        .set(match self.confidence(now) {
            Confidence::Fresh => 0,
            Confidence::Degraded => 1,
            Confidence::Stale => 2,
        });
    }
}

/// Aggregate health of one degraded-mode classification run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct DegradedStats {
    /// Flows classified in total.
    pub flows: u64,
    /// Flows whose verdict carries full confidence.
    pub fresh: u64,
    /// Flows classified against a degraded table.
    pub degraded: u64,
    /// Flows classified against a stale table.
    pub stale: u64,
    /// Routing-derived Unrouted verdicts made at less than full
    /// confidence — the paper's headline class, flagged because table
    /// drift inflates exactly this bucket.
    pub unrouted_tentative: u64,
}

impl DegradedStats {
    /// Grade a batch classified while the routed table may be out of
    /// date, so degraded operation is visible instead of silent.
    ///
    /// A verdict's confidence is a function of its class alone: Bogon
    /// verdicts keep `Fresh` confidence — the bogon list is static —
    /// and every routing-derived verdict (Unrouted / Invalid / Valid)
    /// inherits `table_confidence`. An `Unrouted` verdict under
    /// degraded or stale feeds is counted in
    /// [`DegradedStats::unrouted_tentative`]: it may merely be a
    /// prefix announced after the table went cold.
    pub fn of(classes: &[TrafficClass], table_confidence: Confidence) -> DegradedStats {
        let mut stats = DegradedStats {
            flows: classes.len() as u64,
            ..Default::default()
        };
        for &class in classes {
            let confidence = if class == TrafficClass::Bogon {
                Confidence::Fresh
            } else {
                table_confidence
            };
            match confidence {
                Confidence::Fresh => stats.fresh += 1,
                Confidence::Degraded => stats.degraded += 1,
                Confidence::Stale => stats.stale += 1,
            }
            if class == TrafficClass::Unrouted && confidence != Confidence::Fresh {
                stats.unrouted_tentative += 1;
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confidence_tracks_best_collector() {
        let mut f = RibFreshness::new();
        assert_eq!(f.confidence(0), Confidence::Stale, "no snapshot yet");
        f.record_snapshot("rrc00", 100_000);
        f.record_snapshot("rrc01", 50_000); // older, must not drag us down
        assert_eq!(f.best_age(105_000), Some(5_000));
        assert_eq!(f.confidence(105_000), Confidence::Fresh);
        assert_eq!(f.confidence(100_000 + 57_600), Confidence::Fresh, "16 h");
        assert_eq!(f.confidence(100_000 + 57_601), Confidence::Degraded);
        assert_eq!(f.confidence(100_000 + 86_400), Confidence::Degraded, "24 h");
        assert_eq!(f.confidence(100_000 + 86_401), Confidence::Stale);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut f = RibFreshness::new();
        f.record_snapshot("rrc00", 0);
        // Failure 1: retry after base (60 s).
        f.record_gap("rrc00", 1_000);
        assert!(!f.retry_due("rrc00", 1_059));
        assert!(f.retry_due("rrc00", 1_060));
        // Failure 2: 120 s. Failure 3: 240 s. Failure 4: 480 s.
        f.record_gap("rrc00", 1_060);
        assert!(f.retry_due("rrc00", 1_180));
        f.record_gap("rrc00", 1_180);
        assert!(!f.retry_due("rrc00", 1_419));
        assert!(f.retry_due("rrc00", 1_420));
        f.record_gap("rrc00", 1_420);
        assert!(!f.retry_due("rrc00", 1_899));
        assert!(f.retry_due("rrc00", 1_900));
        // Failure 5: 960 s. Failure 6: 1 920 s. Failure 7: 3 600 s (cap).
        f.record_gap("rrc00", 1_900);
        assert!(f.retry_due("rrc00", 2_860));
        f.record_gap("rrc00", 2_860);
        assert!(f.retry_due("rrc00", 4_780));
        f.record_gap("rrc00", 4_780);
        assert!(!f.retry_due("rrc00", 8_379));
        assert!(f.retry_due("rrc00", 8_380), "delay capped at retry_max");
    }

    #[test]
    fn dropout_after_max_retries() {
        let mut f = RibFreshness::new();
        f.record_snapshot("rrc00", 0);
        f.record_snapshot("rrc01", 0);
        let mut t = 10;
        for _ in 0..8 {
            f.record_gap("rrc01", t);
            t += 10_000;
        }
        assert_eq!(f.dropped_out(), vec!["rrc01"]);
        assert!(!f.retry_due("rrc01", u64::MAX), "no retry after dropout");
        // A late success resurrects the collector.
        f.record_snapshot("rrc01", t);
        assert!(f.dropped_out().is_empty());
    }

    #[test]
    fn snapshot_resets_backoff() {
        let mut f = RibFreshness::new();
        f.record_gap("rrc00", 0);
        f.record_gap("rrc00", 60);
        f.record_snapshot("rrc00", 200);
        assert!(!f.retry_due("rrc00", u64::MAX));
        // The next gap starts the ladder over at the base delay.
        f.record_gap("rrc00", 1_000);
        assert!(f.retry_due("rrc00", 1_060));
        assert!(!f.retry_due("rrc00", 1_059));
    }

    #[test]
    fn default_config_caps_delay_at_one_hour() {
        // Default ladder: 60, 120, 240, 480, 960, 1920 — the 7th failure
        // would schedule 3840 s but must clamp to retry_max (3600 s).
        let mut f = RibFreshness::new();
        f.record_snapshot("rrc00", 0);
        let mut t = 0u64;
        for i in 0..6 {
            f.record_gap("rrc00", t);
            let delay = (60u64 << i).min(3600);
            assert!(!f.retry_due("rrc00", t + delay - 1), "failure {}", i + 1);
            assert!(f.retry_due("rrc00", t + delay), "failure {}", i + 1);
            t += 10_000; // well past every retry
        }
        f.record_gap("rrc00", t);
        assert!(!f.retry_due("rrc00", t + 3599), "7th delay exceeds the cap?");
        assert!(f.retry_due("rrc00", t + 3600), "7th delay is exactly the cap");
    }

    #[test]
    fn default_config_drops_out_exactly_on_eighth_gap() {
        let mut f = RibFreshness::new();
        f.record_snapshot("rrc00", 0);
        let mut t = 0u64;
        for _ in 0..7 {
            f.record_gap("rrc00", t);
            t += 10_000;
        }
        // Seven failures: still retrying, not dropped out.
        assert!(f.dropped_out().is_empty());
        assert!(f.retry_due("rrc00", u64::MAX));
        // The eighth is terminal.
        f.record_gap("rrc00", t);
        assert_eq!(f.dropped_out(), vec!["rrc00"]);
        assert!(!f.retry_due("rrc00", u64::MAX));
    }

    #[test]
    fn default_config_recovery_restarts_ladder_at_base() {
        let mut f = RibFreshness::new();
        // A long gap streak, one short of dropout...
        let mut t = 0u64;
        for _ in 0..7 {
            f.record_gap("rrc00", t);
            t += 10_000;
        }
        // ...then a snapshot lands: the failure counter resets, so the
        // next gap schedules the base delay (60 s), not the 8th rung or
        // a dropout.
        f.record_snapshot("rrc00", t);
        assert!(!f.retry_due("rrc00", u64::MAX), "healthy: no retry pending");
        f.record_gap("rrc00", t + 100);
        assert!(f.dropped_out().is_empty(), "counter was reset by success");
        assert!(!f.retry_due("rrc00", t + 159));
        assert!(f.retry_due("rrc00", t + 160), "ladder restarted at base 60 s");
    }

    #[test]
    fn snapshot_time_never_regresses() {
        let mut f = RibFreshness::new();
        f.record_snapshot("rrc00", 1000);
        f.record_snapshot("rrc00", 400); // out-of-order delivery
        assert_eq!(f.best_age(1000), Some(0));
    }
}
