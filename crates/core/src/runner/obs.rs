//! Observability wiring for the streaming runner.
//!
//! [`RunnerObs`] bundles the three observability concerns a run carries:
//! a metrics registry (counters/gauges/histograms exported in Prometheus
//! format), a tracer whose bounded ring doubles as a flight recorder,
//! and the [`Clock`] every timing decision goes through. The default
//! bundle is fully disabled — every handle is inert, timing uses the
//! real clock — so an uninstrumented `StudyRunner` pays one branch per
//! metric touch and nothing else.
//!
//! [`RunMetrics`] pre-registers every runner metric family once per run
//! so the hot paths (worker loop, commit loop) touch only atomic
//! handles, never the registry lock.

use spoofwatch_net::{Asn, TrafficClass};
use spoofwatch_obs::{Clock, Counter, Gauge, Histogram, MetricsRegistry, RealClock, Tracer};
use std::collections::HashSet;
use std::sync::Arc;

/// Cardinality budget for the per-member flow counter: at most this many
/// distinct `member="…"` label values are exported; members beyond the
/// budget aggregate into `member="other"`. Keeps a ~727-member IXP from
/// minting ~727 series per class on the exporter.
pub const MEMBER_LABEL_BUDGET: usize = 64;

/// The observability bundle a [`super::StudyRunner`] runs with.
#[derive(Clone)]
pub struct RunnerObs {
    /// Metrics sink for this run's counters, gauges, and histograms.
    pub metrics: Arc<MetricsRegistry>,
    /// Span/event recorder; dumps the flight ring on panic or stall.
    pub tracer: Arc<Tracer>,
    /// Time source for the watchdog, the stage latencies and the shard
    /// coordinator's respawn backoff.
    pub clock: Arc<dyn Clock>,
}

impl std::fmt::Debug for RunnerObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunnerObs")
            .field("metrics_enabled", &self.metrics.is_enabled())
            .field("tracer_enabled", &self.tracer.is_enabled())
            .finish_non_exhaustive()
    }
}

impl RunnerObs {
    /// Fully inert observability: no-op metrics, no-op tracing, real
    /// clock. This is what `StudyRunner::new` starts with.
    pub fn disabled() -> RunnerObs {
        RunnerObs {
            metrics: MetricsRegistry::disabled(),
            tracer: Tracer::disabled(),
            clock: Arc::new(RealClock::new()),
        }
    }

    /// Live metrics and tracing on the real clock.
    pub fn new(metrics: Arc<MetricsRegistry>, tracer: Arc<Tracer>) -> RunnerObs {
        RunnerObs {
            metrics,
            tracer,
            clock: Arc::new(RealClock::new()),
        }
    }

    /// Replace the clock (tests pass a `ManualClock` here to make the
    /// watchdog and backoff schedules deterministic).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> RunnerObs {
        self.clock = clock;
        self
    }
}

impl Default for RunnerObs {
    fn default() -> Self {
        RunnerObs::disabled()
    }
}

/// Pre-registered handles for every runner metric family. Cloned into
/// worker threads; all handles are atomics (or no-ops), so cloning and
/// touching them is lock-free.
#[derive(Clone)]
pub(super) struct RunMetrics {
    pub chunks: OutcomeCounters,
    pub records: OutcomeCounters,
    pub queue_depth: Gauge,
    pub committed_chunks: Gauge,
    pub worker_restarts: Counter,
    pub watchdog_stalls: Counter,
    pub checkpoints_written: Counter,
    pub checkpoints_rejected: Counter,
    pub checkpoint_write_ns: Histogram,
    pub window_write_ns: Histogram,
    pub incident_write_ns: Histogram,
    pub commit_blocked_ns: Counter,
    pub chunk_classify_ns: Histogram,
    pub classified_flows: [Counter; 4],
}

/// offered/processed/quarantined counters for one unit (chunks or
/// records), mirroring [`super::FlowAccounting`].
#[derive(Clone)]
pub(super) struct OutcomeCounters {
    pub offered: Counter,
    pub processed: Counter,
    pub quarantined: Counter,
}

fn outcome_counters(reg: &MetricsRegistry, name: &str, help: &str) -> OutcomeCounters {
    let c = |outcome: &str| reg.counter(name, help, &[("outcome", outcome)]);
    // Registered but never incremented: the runner's queue blocks, so
    // `shed` reads 0 and the family keeps all four outcomes.
    c("shed");
    OutcomeCounters {
        offered: c("offered"),
        processed: c("processed"),
        quarantined: c("quarantined"),
    }
}

/// Stable snake_case label value for a traffic class.
pub(crate) fn class_label(c: TrafficClass) -> &'static str {
    match c {
        TrafficClass::Bogon => "bogon",
        TrafficClass::Unrouted => "unrouted",
        TrafficClass::Invalid => "invalid",
        TrafficClass::Valid => "valid",
    }
}

impl RunMetrics {
    pub fn new(reg: &MetricsRegistry) -> RunMetrics {
        RunMetrics {
            chunks: outcome_counters(
                reg,
                "spoofwatch_runner_chunks_total",
                "Committed chunks by outcome; processed + shed + quarantined == offered",
            ),
            records: outcome_counters(
                reg,
                "spoofwatch_runner_records_total",
                "Committed flow records by outcome; processed + shed + quarantined == offered",
            ),
            queue_depth: reg.gauge(
                "spoofwatch_runner_queue_depth",
                "Chunks currently sitting in the bounded worker queue",
                &[],
            ),
            committed_chunks: reg.gauge(
                "spoofwatch_runner_committed_chunks",
                "Chunk sequence the run has committed up to (resume cursor)",
                &[],
            ),
            worker_restarts: reg.counter(
                "spoofwatch_runner_worker_restarts_total",
                "Caught classification panics, each quarantining its chunk",
                &[],
            ),
            watchdog_stalls: reg.counter(
                "spoofwatch_runner_watchdog_stalls_total",
                "Times the watchdog flagged frozen commit progress",
                &[],
            ),
            checkpoints_written: reg.counter(
                "spoofwatch_runner_checkpoints_total",
                "Checkpoints by disposition: written by this process, or found torn and rejected at startup",
                &[("disposition", "written")],
            ),
            checkpoints_rejected: reg.counter(
                "spoofwatch_runner_checkpoints_total",
                "Checkpoints by disposition: written by this process, or found torn and rejected at startup",
                &[("disposition", "rejected")],
            ),
            checkpoint_write_ns: reg.histogram(
                "spoofwatch_runner_checkpoint_write_duration_ns",
                "Writer-thread latency of one checkpoint save (tmp write + fsync + rotate + rename)",
                &[],
            ),
            window_write_ns: reg.histogram(
                "spoofwatch_runner_window_write_duration_ns",
                "Writer-thread latency of one rollup window write (tmp write + fsync + rename)",
                &[],
            ),
            incident_write_ns: reg.histogram(
                "spoofwatch_runner_incident_write_duration_ns",
                "Writer-thread latency of one incident file write (tmp write + fsync + rename)",
                &[],
            ),
            commit_blocked_ns: reg.counter(
                "spoofwatch_runner_commit_blocked_on_writer_ns_total",
                "Nanoseconds the commit thread waited on the durable writer: \
                 hand-offs into a full queue plus the final drain",
                &[],
            ),
            chunk_classify_ns: reg.histogram(
                "spoofwatch_runner_chunk_classify_duration_ns",
                "Worker-side latency of classifying one chunk",
                &[],
            ),
            classified_flows: TrafficClass::ALL.map(|c| {
                reg.counter(
                    "spoofwatch_runner_classified_flows_total",
                    "Flows in processed chunks by traffic class",
                    &[("class", class_label(c))],
                )
            }),
        }
    }
}

/// Commit-side tracker for the per-member counter's cardinality budget:
/// the first [`MEMBER_LABEL_BUDGET`] distinct members get their own
/// `member="<asn>"` series, the rest share `member="other"`. Lives in
/// the single-threaded feeder, so a plain `HashSet` suffices.
pub(super) struct MemberLabels {
    seen: HashSet<Asn>,
    dropped: HashSet<Asn>,
}

impl MemberLabels {
    pub fn new() -> MemberLabels {
        MemberLabels {
            seen: HashSet::new(),
            dropped: HashSet::new(),
        }
    }

    /// Whether any member has been folded into `member="other"`.
    #[cfg(test)]
    pub fn overflowed(&self) -> bool {
        !self.dropped.is_empty()
    }

    /// Count `flows` classified flows for `member` against the
    /// registry, minting a new label series only while under budget.
    /// Because the commit loop feeds chunks in sequence order, which
    /// members land in `member="other"` is deterministic for a given
    /// trace, and `sum(per-member series) + other` always equals the
    /// per-class totals.
    pub fn record(&mut self, reg: &MetricsRegistry, member: Asn, flows: u64) {
        if !reg.is_enabled() || flows == 0 {
            return;
        }
        let label = if self.seen.contains(&member) {
            member.0.to_string()
        } else if self.seen.len() < MEMBER_LABEL_BUDGET {
            self.seen.insert(member);
            member.0.to_string()
        } else {
            if self.dropped.insert(member) {
                reg.counter(
                    "spoofwatch_member_labels_dropped_total",
                    "Distinct IXP members folded into member=\"other\" after \
                     the per-member label budget filled",
                    &[],
                )
                .inc();
            }
            "other".to_string()
        };
        reg.counter(
            "spoofwatch_runner_member_flows_total",
            "Flows in processed chunks by emitting IXP member \
             (capped at 64 distinct members; the rest aggregate as member=\"other\")",
            &[("member", label.as_str())],
        )
        .add(flows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_labels_respect_budget() {
        let reg = MetricsRegistry::new();
        let mut labels = MemberLabels::new();
        for i in 0..(MEMBER_LABEL_BUDGET as u32 + 10) {
            labels.record(&reg, Asn(64_000 + i), 5);
        }
        // A repeat of an in-budget member still lands on its own series.
        labels.record(&reg, Asn(64_000), 5);
        assert!(labels.overflowed());
        let snap = reg.snapshot();
        let family = snap
            .families
            .iter()
            .find(|f| f.name == "spoofwatch_runner_member_flows_total")
            .expect("family registered");
        assert_eq!(family.series.len(), MEMBER_LABEL_BUDGET + 1);
        assert_eq!(
            snap.counter(
                "spoofwatch_runner_member_flows_total",
                &[("member", "other")]
            ),
            Some(50)
        );
        assert_eq!(
            snap.counter(
                "spoofwatch_runner_member_flows_total",
                &[("member", "64000")]
            ),
            Some(10)
        );
        // One dropped-label tick per distinct folded member.
        assert_eq!(
            snap.counter("spoofwatch_member_labels_dropped_total", &[]),
            Some(10)
        );
    }

    #[test]
    fn member_series_reconcile_with_total_after_overflow() {
        let reg = MetricsRegistry::new();
        let mut labels = MemberLabels::new();
        let mut expected_total = 0u64;
        // Deterministic mix: members both under and past the budget,
        // with repeats of dropped members (which must not re-tick the
        // dropped counter).
        for round in 0..3u64 {
            for i in 0..(MEMBER_LABEL_BUDGET as u32 + 20) {
                let flows = u64::from(i % 7) + round;
                labels.record(&reg, Asn(65_000 + i), flows);
                expected_total += flows;
            }
        }
        let snap = reg.snapshot();
        let family = snap
            .families
            .iter()
            .find(|f| f.name == "spoofwatch_runner_member_flows_total")
            .expect("family registered");
        let series_sum: u64 = family
            .series
            .iter()
            .map(|s| match s.value {
                spoofwatch_obs::SeriesValue::Counter(v) => v,
                _ => panic!("member flows must be counters"),
            })
            .sum();
        assert_eq!(series_sum, expected_total, "per-member + other == total");
        assert_eq!(
            snap.counter("spoofwatch_member_labels_dropped_total", &[]),
            Some(20),
            "each distinct folded member ticks the dropped counter once"
        );
    }

    #[test]
    fn disabled_bundle_hands_out_noops() {
        let obs = RunnerObs::disabled();
        let rm = RunMetrics::new(&obs.metrics);
        rm.chunks.offered.inc();
        rm.checkpoint_write_ns.record(123);
        assert!(obs.metrics.snapshot().families.is_empty());
    }
}
