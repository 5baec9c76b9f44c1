//! Integration coverage for decision-provenance telemetry: method
//! disagreement tracked through the streaming runner, windowed rollup
//! rings, and their bit-exactness across interrupt-and-resume.

use spoofwatch_core::{
    read_ring, CheckpointStore, Classifier, RollupConfig, RunnerConfig, RunnerError, StudyRunner,
};
use spoofwatch_internet::{Internet, InternetConfig};
use spoofwatch_ixp::chunked::ChunkedIpfixReader;
use spoofwatch_ixp::{ipfix, Trace, TrafficConfig};
use spoofwatch_net::FaultInjector;
use spoofwatch_obs::{MetricsRegistry, Tracer};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch directory removed on drop so reruns start clean.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "spoofwatch-rollup-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    fn path(&self, sub: &str) -> PathBuf {
        self.0.join(sub)
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

fn world(seed: u64, corrupt: bool) -> World {
    let net = Internet::generate(InternetConfig::tiny(seed));
    let mut tc = TrafficConfig::tiny(seed + 1);
    tc.regular_flows = 1_500;
    tc.flood_max_packets = 150;
    tc.ntp_total_triggers = 150;
    let trace = Trace::generate(&net, &tc);
    let mut bytes = ipfix::encode(&trace.flows);
    if corrupt {
        FaultInjector::new(seed + 2)
            .protect_prefix(ipfix::HEADER_LEN)
            .corrupt_percent(&mut bytes, 0.2);
    }
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

/// Byte-for-byte content of every window file in a ring directory,
/// keyed by file name.
fn ring_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read ring dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".bin") {
            out.insert(name, std::fs::read(entry.path()).expect("read window"));
        }
    }
    out
}

#[test]
fn tracked_disagreement_matches_batch_matrix_and_exports() {
    let w = world(31, false);
    let c = Classifier::build(&w.net.announcements, &w.net.orgs_dataset);
    let scratch = Scratch::new("disagree");
    let store = CheckpointStore::open(scratch.path("ckpt")).expect("open store");

    let mut cfg = config();
    cfg.track_disagreement = true;
    let reg = MetricsRegistry::new();
    let obs = spoofwatch_core::RunnerObs::new(reg.clone(), Tracer::disabled());
    let mut source = ChunkedIpfixReader::new(&w.bytes, CHUNK);
    let report = StudyRunner::new(&c, cfg)
        .with_obs(obs)
        .run(&mut source, &store)
        .expect("tracked run");

    let (flows, _) = ipfix::decode_resilient(&w.bytes);
    let mut batch = spoofwatch_core::DisagreementMatrix::new();
    for variants in c.classify_variants_records_batched(&flows) {
        batch.record(&variants);
    }
    let tracked = report.disagreement.expect("matrix tracked");
    assert_eq!(tracked, batch, "streaming matrix must equal the batch one");
    assert!(tracked.reconciles());

    // The per-chunk exports must sum to the merged matrix: every cell
    // tiles the batch, so the family total is pairs × flows, and the
    // org-adjustment deltas match the matrix's.
    let snap = reg.snapshot();
    assert_eq!(
        snap.counter_sum("spoofwatch_method_disagreement_total"),
        spoofwatch_core::VARIANT_PAIRS as u64 * tracked.flows
    );
    let disagreements: u64 = tracked.pairs.iter().map(|p| p.disagreements()).sum();
    assert!(disagreements > 0, "world produced no method disagreements");
    assert_eq!(
        snap.counter_sum("spoofwatch_org_adjustment_delta_total"),
        tracked.org_delta(spoofwatch_net::InferenceMethod::CustomerCone)
            + tracked.org_delta(spoofwatch_net::InferenceMethod::FullCone)
    );

    // The primary-method classification must be unchanged by tracking.
    let classes = c.classify_trace(&flows, config().method, config().org);
    let plain = spoofwatch_core::MemberBreakdown::from_classes(&flows, &classes);
    assert_eq!(report.breakdown, plain);
}

#[test]
fn rollup_ring_reconciles_with_run_report() {
    let w = world(32, true);
    let c = Classifier::build(&w.net.announcements, &w.net.orgs_dataset);
    let scratch = Scratch::new("ring");
    let store = CheckpointStore::open(scratch.path("ckpt")).expect("open store");
    let ring = scratch.path("ring");

    let mut cfg = config();
    cfg.track_disagreement = true;
    let window_chunks = 4u64;
    let mut source = ChunkedIpfixReader::new(&w.bytes, CHUNK);
    let report = StudyRunner::new(&c, cfg)
        .with_rollups(RollupConfig::new(&ring, window_chunks))
        .run(&mut source, &store)
        .expect("rollup run");

    let (windows, faults) = read_ring(&ring).expect("read ring");
    assert!(faults.is_empty(), "no torn windows in a clean run");
    let offered = report.health.chunks.offered;
    assert_eq!(
        windows.len() as u64,
        offered.div_ceil(window_chunks),
        "every committed chunk lands in exactly one window"
    );
    for (i, win) in windows.iter().enumerate() {
        assert_eq!(win.window_index, i as u64);
        assert_eq!(win.start_chunk, i as u64 * window_chunks);
    }

    // Window sums reconcile exactly with the run report: chunks,
    // records, faults, and per-class flows.
    let chunk_sum: u64 = windows.iter().map(|w| w.chunks).sum();
    assert_eq!(chunk_sum, offered);
    let record_sum: u64 = windows.iter().map(|w| w.records.offered).sum();
    assert_eq!(record_sum, report.health.records.offered);
    let processed_sum: u64 = windows.iter().map(|w| w.records.processed).sum();
    assert_eq!(processed_sum, report.health.records.processed);
    let mut class_sum = [0u64; 4];
    for win in &windows {
        for (into, v) in class_sum.iter_mut().zip(win.class_flows) {
            *into += v;
        }
    }
    let mut report_classes = [0u64; 4];
    for rows in report.breakdown.per_member.values() {
        for (into, cc) in report_classes.iter_mut().zip(rows) {
            *into += cc.flows;
        }
    }
    assert_eq!(class_sum, report_classes);
    let ingest_bytes: u64 = windows.iter().map(|w| w.ingest.input_bytes).sum();
    assert_eq!(ingest_bytes, report.ingest.input_bytes);
    let quarantined: u64 = windows.iter().map(|w| w.ingest.quarantined_bytes).sum();
    assert_eq!(quarantined, report.ingest.quarantined_bytes);
    let fault_sum: u64 = windows.iter().map(|w| w.fault_counts.iter().sum::<u64>()).sum();
    assert!(fault_sum > 0, "corrupted trace must surface decoder faults");

    // The windows' matrices merge to the run's matrix.
    let mut merged = spoofwatch_core::DisagreementMatrix::new();
    for win in &windows {
        if let Some(m) = &win.disagreement {
            merged.merge(m);
        }
    }
    assert_eq!(Some(merged), report.disagreement);
}

#[test]
fn rollup_windows_are_bit_exact_across_interrupt_and_resume() {
    let w = world(33, true);
    let c = Classifier::build(&w.net.announcements, &w.net.orgs_dataset);
    let total_chunks = ChunkedIpfixReader::new(&w.bytes, CHUNK).collect_chunks().len() as u64;
    assert!(total_chunks >= 8, "world too small to exercise boundaries");
    let window_chunks = 3u64;

    // Reference: one uninterrupted run with rollups.
    let ref_scratch = Scratch::new("exact-ref");
    let ref_store = CheckpointStore::open(ref_scratch.path("ckpt")).expect("open store");
    let ref_ring = ref_scratch.path("ring");
    let mut cfg = config();
    cfg.track_disagreement = true;
    let mut source = ChunkedIpfixReader::new(&w.bytes, CHUNK);
    let reference = StudyRunner::new(&c, cfg.clone())
        .with_rollups(RollupConfig::new(&ref_ring, window_chunks))
        .run(&mut source, &ref_store)
        .expect("reference run");
    let reference_bytes = ring_bytes(&ref_ring);
    assert!(!reference_bytes.is_empty());

    for stop_after in 1..total_chunks {
        let scratch = Scratch::new("exact");
        let store = CheckpointStore::open(scratch.path("ckpt")).expect("open store");
        let ring = scratch.path("ring");
        let mut icfg = cfg.clone();
        icfg.interrupt_after_chunks = Some(stop_after);
        let mut source = ChunkedIpfixReader::new(&w.bytes, CHUNK);
        match StudyRunner::new(&c, icfg)
            .with_rollups(RollupConfig::new(&ring, window_chunks))
            .run(&mut source, &store)
        {
            Err(RunnerError::Interrupted { .. }) => {}
            other => panic!("expected interrupt at {stop_after}, got {other:?}"),
        }

        let mut source = ChunkedIpfixReader::new(&w.bytes, CHUNK);
        let resumed = StudyRunner::new(&c, cfg.clone())
            .with_rollups(RollupConfig::new(&ring, window_chunks))
            .run(&mut source, &store)
            .expect("resumed run");
        assert!(
            resumed.same_result(&reference),
            "resume after {stop_after} chunks diverged (including disagreement matrix)"
        );
        assert_eq!(
            ring_bytes(&ring),
            reference_bytes,
            "window files after interrupt at {stop_after} are not bit-identical"
        );
    }
}
