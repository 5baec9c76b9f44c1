//! Observability properties of the streaming runner.
//!
//! Three guarantees ride on top of the crash-recovery ones:
//!
//! * the Prometheus snapshot's offered/processed/shed/quarantined
//!   counters reconcile **exactly** with the runner's own accounting —
//!   the exporter never drifts from the source of truth;
//! * a forced chunk panic emits a non-empty JSONL flight-recorder dump
//!   containing the span that was active at panic time;
//! * the watchdog's stall schedule is deterministic under a manual
//!   clock — no wall-clock sleeps, no flaky timing.

use spoofwatch_core::{Classifier, CheckpointStore, RunnerConfig, RunnerObs, StudyRunner};
use spoofwatch_internet::{Internet, InternetConfig};
use spoofwatch_ixp::chunked::ChunkedIpfixReader;
use spoofwatch_ixp::{ipfix, Trace, TrafficConfig};
use spoofwatch_net::{InferenceMethod, OrgMode, TrafficClass};
use spoofwatch_obs::{Clock, ManualClock, MetricsRegistry, Snapshot, Tracer};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "spoofwatch-telemetry-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct World {
    net: Internet,
    bytes: Vec<u8>,
}

fn world(seed: u64) -> World {
    let net = Internet::generate(InternetConfig::tiny(seed));
    let mut tc = TrafficConfig::tiny(seed + 1);
    tc.regular_flows = 1_200;
    tc.flood_max_packets = 100;
    tc.ntp_total_triggers = 100;
    let trace = Trace::generate(&net, &tc);
    let bytes = ipfix::encode(&trace.flows);
    World { net, bytes }
}

fn config() -> RunnerConfig {
    RunnerConfig {
        workers: 3,
        queue_depth: 4,
        checkpoint_every: 3,
        stall_timeout_ms: 0,
        ..RunnerConfig::default()
    }
}

const CHUNK: usize = 50;

/// Pull one outcome-labelled counter out of a snapshot, defaulting
/// missing series to 0 (a fresh registry has no series until touched).
fn outcome(snap: &Snapshot, name: &str, outcome: &str) -> u64 {
    snap.counter(name, &[("outcome", outcome)]).unwrap_or(0)
}

#[test]
fn snapshot_counters_reconcile_exactly_with_runner_accounting() {
    let w = world(31);
    let c = Classifier::build(&w.net.announcements, &w.net.orgs_dataset);
    let scratch = Scratch::new("reconcile");
    let store = CheckpointStore::open(&scratch.0).expect("open store");

    let metrics = MetricsRegistry::new();
    let tracer = Tracer::with_capacity(128);
    let runner = StudyRunner::new(&c, config())
        .with_obs(RunnerObs::new(Arc::clone(&metrics), tracer));

    // One worker call panics (exactly once), so the quarantined lane is
    // nonzero and the reconciliation is exercised across all outcomes.
    let panics = AtomicU64::new(0);
    let mut source = ChunkedIpfixReader::new(&w.bytes, CHUNK);
    let report = runner
        .run_with(&mut source, &store, |flows| {
            if panics
                .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                panic!("injected classification fault");
            }
            c.classify_records_batched(flows, InferenceMethod::FullCone, OrgMode::OrgAdjusted)
        })
        .expect("run completes despite the injected panic");

    assert!(report.health.reconciles());
    assert_eq!(report.health.chunks.quarantined, 1);
    assert_eq!(report.health.worker_restarts, 1);

    let snap = metrics.snapshot();
    for (name, acct) in [
        ("spoofwatch_runner_chunks_total", report.health.chunks),
        ("spoofwatch_runner_records_total", report.health.records),
    ] {
        let offered = outcome(&snap, name, "offered");
        let processed = outcome(&snap, name, "processed");
        let shed = outcome(&snap, name, "shed");
        let quarantined = outcome(&snap, name, "quarantined");
        assert_eq!(offered, acct.offered, "{name} offered");
        assert_eq!(processed, acct.processed, "{name} processed");
        assert_eq!(shed, acct.shed, "{name} shed");
        assert_eq!(quarantined, acct.quarantined, "{name} quarantined");
        assert_eq!(
            processed + shed + quarantined,
            offered,
            "{name} exported counters must reconcile on their own"
        );
    }
    assert_eq!(
        snap.counter("spoofwatch_runner_worker_restarts_total", &[]),
        Some(report.health.worker_restarts)
    );
    assert_eq!(
        snap.counter(
            "spoofwatch_runner_checkpoints_total",
            &[("disposition", "written")]
        ),
        Some(report.health.checkpoints_written)
    );
    // Every checkpoint write was timed.
    let hist = snap
        .histogram("spoofwatch_runner_checkpoint_write_duration_ns", &[])
        .expect("checkpoint histogram");
    assert_eq!(hist.count, report.health.checkpoints_written);
    // Per-chunk classify latency was recorded for every worker attempt
    // (processed + quarantined; shed chunks never reach a worker).
    let classify = snap
        .histogram("spoofwatch_runner_chunk_classify_duration_ns", &[])
        .expect("classify histogram");
    assert_eq!(
        classify.count,
        report.health.chunks.processed + report.health.chunks.quarantined
    );
    // Per-class flow counters cover exactly the processed records.
    let classified: u64 = ["bogon", "unrouted", "invalid", "valid"]
        .iter()
        .filter_map(|cl| {
            snap.counter("spoofwatch_runner_classified_flows_total", &[("class", cl)])
        })
        .sum();
    assert_eq!(classified, report.health.records.processed);
    // The queue drained: depth gauge back to zero.
    assert_eq!(snap.gauge("spoofwatch_runner_queue_depth", &[]), Some(0));
    // The exposition itself is well-formed.
    let text = snap.render_prometheus();
    let expo = spoofwatch_obs::parse_exposition(&text).expect("render parses");
    expo.validate().expect("render validates");
}

#[test]
fn forced_panic_dumps_flight_recorder_with_active_span() {
    let w = world(59);
    let c = Classifier::build(&w.net.announcements, &w.net.orgs_dataset);
    let scratch = Scratch::new("flight");
    let store = CheckpointStore::open(&scratch.0).expect("open store");

    let metrics = MetricsRegistry::new();
    let tracer = Tracer::with_capacity(64);
    let dump_path = scratch.0.join("flight.jsonl");
    tracer.arm(&dump_path);
    let runner = StudyRunner::new(&c, config())
        .with_obs(RunnerObs::new(metrics, Arc::clone(&tracer)));

    let panics = AtomicU64::new(0);
    let mut source = ChunkedIpfixReader::new(&w.bytes, CHUNK);
    let report = runner
        .run_with(&mut source, &store, |flows| {
            if panics
                .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                panic!("injected fault for the flight recorder");
            }
            c.classify_records_batched(flows, InferenceMethod::FullCone, OrgMode::OrgAdjusted)
        })
        .expect("run completes");
    assert_eq!(report.health.chunks.quarantined, 1);

    assert!(tracer.dump_count() >= 1, "panic must trigger a dump");
    let dump = tracer.last_dump().expect("dump captured");
    assert!(!dump.is_empty());
    assert!(
        dump.contains("\"name\":\"chunk_classify\""),
        "dump carries the span active at panic time:\n{dump}"
    );
    assert!(
        dump.contains("\"panicked\":true"),
        "the active span's end is marked panicked:\n{dump}"
    );
    assert!(dump.contains("\"worker_panic\""));
    assert!(dump.contains("flight_recorder_dump"));
    // The armed path got the same JSONL on disk.
    let on_disk = std::fs::read_to_string(&dump_path).expect("armed dump file");
    assert!(on_disk.contains("\"panicked\":true"));
}

#[test]
fn watchdog_stall_detection_is_deterministic_under_manual_clock() {
    let w = world(73);
    let c = Classifier::build(&w.net.announcements, &w.net.orgs_dataset);
    let scratch = Scratch::new("watchdog");
    let store = CheckpointStore::open(&scratch.0).expect("open store");

    let metrics = MetricsRegistry::new();
    let tracer = Tracer::with_capacity(64);
    let clock = Arc::new(ManualClock::new());
    let mut cfg = config();
    cfg.workers = 1;
    cfg.stall_timeout_ms = 50;
    let runner = StudyRunner::new(&c, cfg).with_obs(
        RunnerObs::new(Arc::clone(&metrics), Arc::clone(&tracer))
            .with_clock(Arc::clone(&clock) as Arc<dyn Clock>),
    );

    // The first chunk takes real wall time; the watchdog runs on the
    // manual clock, whose tick sleeps advance virtual time instantly —
    // it burns through its 50 ms budget in microseconds of real time
    // and flags the stall long before the worker finishes. No timing
    // race: virtual time only moves when the watchdog sleeps.
    let stalled_once = AtomicU64::new(0);
    let mut source = ChunkedIpfixReader::new(&w.bytes, CHUNK);
    let report = runner
        .run_with(&mut source, &store, |flows| {
            if stalled_once
                .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                std::thread::sleep(std::time::Duration::from_millis(300));
            }
            c.classify_records_batched(flows, InferenceMethod::FullCone, OrgMode::OrgAdjusted)
        })
        .expect("run completes");

    assert!(
        report.health.watchdog_stalls >= 1,
        "manual-clock watchdog must flag the stalled first chunk"
    );
    let snap = metrics.snapshot();
    assert_eq!(
        snap.counter("spoofwatch_runner_watchdog_stalls_total", &[]),
        Some(report.health.watchdog_stalls)
    );
    // The stall triggered a flight dump naming the stuck position.
    let dump = tracer.last_dump().expect("stall dump");
    assert!(dump.contains("watchdog stall"));
    // Virtual time moved only via sleeps on the manual clock.
    assert!(clock.now_ns() > 0);
}

#[test]
fn rib_freshness_exports_dropout_gauges() {
    use spoofwatch_core::{FreshnessConfig, RibFreshness};
    let reg = MetricsRegistry::new();
    let cfg = FreshnessConfig {
        fresh_secs: 100,
        stale_secs: 200,
        retry_base_secs: 10,
        retry_max_secs: 40,
        max_retries: 2,
    };
    let mut rib = RibFreshness::new(cfg);
    rib.record_snapshot("rrc00", 1_000);
    rib.record_gap("rrc01", 1_000);
    rib.record_gap("rrc01", 1_050);
    rib.export_metrics(&reg, 1_150);

    let snap = reg.snapshot();
    assert_eq!(snap.gauge("spoofwatch_rib_collectors", &[]), Some(2));
    assert_eq!(
        snap.gauge("spoofwatch_rib_collectors_dropped_out", &[]),
        Some(1),
        "rrc01 hit max_retries and dropped out"
    );
    assert_eq!(snap.gauge("spoofwatch_rib_best_age_seconds", &[]), Some(150));
    assert_eq!(
        snap.gauge("spoofwatch_rib_confidence", &[]),
        Some(1),
        "150 s old with fresh=100/stale=200 grades degraded"
    );

    // Degradation to stale moves the gauge on re-export.
    rib.export_metrics(&reg, 2_000);
    let snap = reg.snapshot();
    assert_eq!(snap.gauge("spoofwatch_rib_confidence", &[]), Some(2));
    assert_eq!(snap.gauge("spoofwatch_rib_best_age_seconds", &[]), Some(1_000));
}

#[test]
fn classify_trace_reports_to_global_registry_when_installed() {
    // Install a live global registry; this test binary is the only user.
    let reg = MetricsRegistry::new();
    spoofwatch_obs::install_global(Arc::clone(&reg));
    let reg = Arc::clone(spoofwatch_obs::global());
    if !reg.is_enabled() {
        // Another test in this binary won the install race with a
        // disabled registry — cannot happen today (this is the only
        // installer), but guard against future reordering.
        return;
    }

    let w = world(97);
    let c = Classifier::build(&w.net.announcements, &w.net.orgs_dataset);
    let trace = {
        let (flows, _health) = ipfix::decode_resilient(&w.bytes);
        flows
    };
    let classes = c.classify_trace(
        &trace,
        spoofwatch_net::InferenceMethod::FullCone,
        spoofwatch_net::OrgMode::OrgAdjusted,
    );

    let snap = reg.snapshot();
    let mut per_class = [0u64; 4];
    for cl in &classes {
        per_class[cl.index()] += 1;
    }
    for (class, label) in TrafficClass::ALL
        .iter()
        .zip(["bogon", "unrouted", "invalid", "valid"])
    {
        let counted = snap
            .counter(
                "spoofwatch_classified_flows_total",
                &[("class", label), ("method", "full_cone")],
            )
            .unwrap_or(0);
        assert_eq!(counted, per_class[class.index()], "class {label}");
    }
    let hist = snap
        .histogram(
            "spoofwatch_classify_batch_duration_ns",
            &[("method", "full_cone")],
        )
        .expect("batch histogram recorded");
    assert_eq!(hist.count, 1);
    // The decode path reported its taxonomy to the same global registry.
    assert_eq!(
        snap.counter(
            "spoofwatch_decode_records_total",
            &[("format", "ipfix")]
        ),
        Some(trace.len() as u64)
    );
}
