//! Differential proof for the batch-vectorized classify path.
//!
//! The batch kernel (columnar code probes + memoized cone verdicts),
//! the one production classify path, must be **byte-identical** to the
//! oracle: per flow against `classify_with_tries` under all five
//! method variants, one at a time and all at once, across epoch swaps
//! sharing one scratch, and end-to-end through the `StudyRunner` —
//! same run report, same rollup-ring bytes, same incident log — against
//! a per-flow oracle `run_with` closure.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spoofwatch_core::{
    read_incident_log, read_ring, BatchScratch, CheckpointStore, Classifier, DetectConfig,
    RollupConfig, RunnerConfig, StudyRunner, METHOD_VARIANTS,
};
use spoofwatch_internet::{Internet, InternetConfig};
use spoofwatch_ixp::chunked::ChunkedIpfixReader;
use spoofwatch_ixp::{ipfix, Trace, TrafficConfig};
use spoofwatch_net::{
    Asn, FaultInjector, FlowBatch, FlowRecord, Proto, TrafficClass,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn flow(src: u32, member: u32) -> FlowRecord {
    FlowRecord {
        ts: 0,
        src,
        dst: 1,
        proto: Proto::Udp,
        sport: 53,
        dport: 53,
        packets: 1,
        bytes: 64,
        pkt_size: 64,
        member: Asn(member),
        ttl: 0,
    }
}

/// A classifier over a generated Internet plus a probe mix that hits
/// every class: the synthetic trace and uniform-random sources.
fn world(seed: u64, random_probes: usize) -> (Classifier, Vec<FlowRecord>) {
    let net = Internet::generate(InternetConfig::tiny(seed));
    let mut tc = TrafficConfig::tiny(seed + 1);
    tc.regular_flows = 10_000;
    let trace = Trace::generate(&net, &tc);
    let classifier = Classifier::build(&net.announcements, &net.orgs_dataset);

    let mut members: Vec<u32> = trace.flows.iter().map(|f| f.member.0).collect();
    members.sort_unstable();
    members.dedup();
    members.push(999_999); // a member no announcement has ever seen

    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_BA7C);
    let mut flows = trace.flows;
    for _ in 0..random_probes {
        let src: u32 = rng.random();
        let member = members[rng.random_range(0..members.len())];
        flows.push(flow(src, member));
    }
    (classifier, flows)
}

/// One flow's class under each of the five variants, from the oracle.
fn oracle_variants(classifier: &Classifier, f: &FlowRecord) -> [TrafficClass; 5] {
    METHOD_VARIANTS.map(|v| classifier.classify_with_tries(f, v.method, v.org))
}

#[test]
fn batch_classify_is_byte_identical_across_all_variants() {
    let (classifier, flows) = world(11, 50_000);
    let batch = FlowBatch::from_records(&flows);
    let mut scratch = BatchScratch::new();
    let mut out = Vec::new();
    let mut per_class = [0u64; 4];
    for v in METHOD_VARIANTS {
        classifier.classify_batch_into(&batch, v.method, v.org, &mut scratch, &mut out);
        assert_eq!(out.len(), flows.len());
        for (f, &got) in flows.iter().zip(&out) {
            assert_eq!(
                got,
                classifier.classify_with_tries(f, v.method, v.org),
                "src {:#010x} member {} under {v}",
                f.src,
                f.member.0
            );
            per_class[got.index()] += 1;
        }
        // The record-slice entry point (thread-local scratch) agrees too.
        assert_eq!(classifier.classify_records_batched(&flows, v.method, v.org), out);
    }
    for (class, n) in TrafficClass::ALL.iter().zip(per_class) {
        assert!(n > 0, "probe set never produced a {class} flow");
    }
}

#[test]
fn batch_variants_match_scalar_variants_and_explain() {
    let (classifier, flows) = world(12, 20_000);
    let out = classifier.classify_variants_records_batched(&flows);
    assert_eq!(out.len(), flows.len());
    for (i, f) in flows.iter().enumerate() {
        assert_eq!(out[i], oracle_variants(&classifier, f), "row {i}");
    }
    // Spot-check the explain path agrees with the batched verdicts
    // (classify_explain routes through the same valid_under leaf).
    for (f, variants) in flows.iter().zip(&out).step_by(97) {
        for (j, v) in METHOD_VARIANTS.iter().enumerate() {
            let rec = classifier.classify_explain(f, v.method, v.org);
            assert_eq!(rec.class, variants[j], "explain vs batch slot {j}");
        }
    }
}

#[test]
fn shared_scratch_survives_epoch_swaps() {
    // Two classifier builds with *different* info arenas; one scratch
    // serving both alternately. The memo must self-invalidate on every
    // switch (keyed by build uid) instead of serving stale verdicts.
    let (a, flows_a) = world(13, 5_000);
    let (b, flows_b) = world(14, 5_000);
    let batch_a = FlowBatch::from_records(&flows_a);
    let batch_b = FlowBatch::from_records(&flows_b);
    let mut scratch = BatchScratch::new();
    let mut out = Vec::new();
    for round in 0..3 {
        for v in METHOD_VARIANTS {
            a.classify_batch_into(&batch_a, v.method, v.org, &mut scratch, &mut out);
            for (f, &got) in flows_a.iter().zip(&out) {
                assert_eq!(got, a.classify_with_tries(f, v.method, v.org), "round {round} on A");
            }
            b.classify_batch_into(&batch_b, v.method, v.org, &mut scratch, &mut out);
            for (f, &got) in flows_b.iter().zip(&out) {
                assert_eq!(got, b.classify_with_tries(f, v.method, v.org), "round {round} on B");
            }
        }
    }
}

proptest! {
    /// Arbitrary (src, member) probes — including degenerate members
    /// and bogon/unrouted boundary space the generated trace never
    /// emits — classify identically through the kernel and the oracle
    /// under every method variant.
    #[test]
    fn batch_equals_scalar_on_arbitrary_probes(
        probes in prop::collection::vec((any::<u32>(), 0u32..100_000), 1..500),
        seed in 0u64..4,
    ) {
        let net = Internet::generate(InternetConfig::tiny(40 + seed));
        let classifier = Classifier::build(&net.announcements, &net.orgs_dataset);
        let flows: Vec<FlowRecord> =
            probes.iter().map(|&(src, member)| flow(src, member)).collect();
        let batch = FlowBatch::from_records(&flows);
        let mut scratch = BatchScratch::new();
        let mut out = Vec::new();
        for v in METHOD_VARIANTS {
            classifier.classify_batch_into(&batch, v.method, v.org, &mut scratch, &mut out);
            for (f, &got) in flows.iter().zip(&out) {
                prop_assert_eq!(got, classifier.classify_with_tries(f, v.method, v.org));
            }
        }
        for (f, row) in flows.iter().zip(classifier.classify_variants_records_batched(&flows)) {
            prop_assert_eq!(row, oracle_variants(&classifier, f));
        }
    }
}

/// A unique scratch directory removed on drop so reruns start clean.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "spoofwatch-batchdiff-{}-{tag}-{n}",
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

/// Byte-for-byte content of every rollup window file, keyed by name.
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
fn batched_runner_is_byte_identical_to_scalar_run_with() {
    // The runner's `run()` classifies through the batch kernel; prove
    // the whole artifact chain — run report, rollup-ring bytes, and
    // incident log — equals a per-flow oracle `run_with` closure on the
    // same (corrupted) input.
    let net = Internet::generate(InternetConfig::tiny(21));
    let mut tc = TrafficConfig::tiny(22);
    tc.regular_flows = 1_500;
    tc.flood_max_packets = 150;
    tc.ntp_total_triggers = 150;
    let trace = Trace::generate(&net, &tc);
    let mut bytes = ipfix::encode(&trace.flows);
    FaultInjector::new(23)
        .protect_prefix(ipfix::HEADER_LEN)
        .corrupt_percent(&mut bytes, 0.2);
    let classifier = Classifier::build(&net.announcements, &net.orgs_dataset);

    let cfg = RunnerConfig {
        workers: 3,
        queue_depth: 4,
        checkpoint_every: 3,
        stall_timeout_ms: 0,
        ..RunnerConfig::default()
    };
    let (method, org) = (cfg.method, cfg.org);
    let window_chunks = 4u64;
    let rollup = |dir: PathBuf| {
        let mut r = RollupConfig::new(dir, window_chunks);
        r.detect = Some(DetectConfig::default());
        r
    };

    let scratch = Scratch::new("runner");
    let batched_ring = scratch.path("batched-ring");
    let store = CheckpointStore::open(scratch.path("batched-ckpt")).expect("open store");
    let mut source = ChunkedIpfixReader::new(&bytes, 50);
    let batched = StudyRunner::new(&classifier, cfg.clone())
        .with_rollups(rollup(batched_ring.clone()))
        .run(&mut source, &store)
        .expect("batched run");

    let scalar_ring = scratch.path("scalar-ring");
    let store = CheckpointStore::open(scratch.path("scalar-ckpt")).expect("open store");
    let mut source = ChunkedIpfixReader::new(&bytes, 50);
    let scalar = StudyRunner::new(&classifier, cfg)
        .with_rollups(rollup(scalar_ring.clone()))
        .run_with(&mut source, &store, |flows| {
            flows
                .iter()
                .map(|f| classifier.classify_with_tries(f, method, org))
                .collect()
        })
        .expect("scalar run");

    assert!(batched.same_result(&scalar), "run reports diverged");
    assert_eq!(
        ring_bytes(&batched_ring),
        ring_bytes(&scalar_ring),
        "rollup window files are not bit-identical"
    );
    let (batched_incidents, torn) = read_incident_log(&batched_ring).expect("batched incidents");
    assert!(torn.is_empty());
    let (scalar_incidents, torn) = read_incident_log(&scalar_ring).expect("scalar incidents");
    assert!(torn.is_empty());
    assert_eq!(batched_incidents, scalar_incidents, "incident logs diverged");

    // Sanity: the ring actually recorded windows (the comparison above
    // proves nothing on an empty directory).
    let (windows, faults) = read_ring(&batched_ring).expect("read ring");
    assert!(faults.is_empty());
    assert!(!windows.is_empty());
}

#[test]
fn batched_disagreement_matrix_matches_scalar() {
    let net = Internet::generate(InternetConfig::tiny(25));
    let mut tc = TrafficConfig::tiny(26);
    tc.regular_flows = 1_500;
    let trace = Trace::generate(&net, &tc);
    let bytes = ipfix::encode(&trace.flows);
    let classifier = Classifier::build(&net.announcements, &net.orgs_dataset);

    let cfg = RunnerConfig {
        workers: 2,
        queue_depth: 4,
        checkpoint_every: 3,
        stall_timeout_ms: 0,
        track_disagreement: true,
        ..RunnerConfig::default()
    };
    let scratch = Scratch::new("matrix");
    let store = CheckpointStore::open(scratch.path("ckpt")).expect("open store");
    let mut source = ChunkedIpfixReader::new(&bytes, 50);
    let report = StudyRunner::new(&classifier, cfg)
        .run(&mut source, &store)
        .expect("tracked run");

    // Reference matrix: per-flow oracle rows.
    let (flows, _) = ipfix::decode_resilient(&bytes);
    let mut want = spoofwatch_core::DisagreementMatrix::new();
    for f in &flows {
        want.record(&oracle_variants(&classifier, f));
    }
    assert_eq!(report.disagreement, Some(want));
}
