//! Epoch hot-swap under a streaming run.
//!
//! The load-bearing guarantees:
//!
//! * a classifier published into an [`EpochSwap`] mid-run takes effect
//!   at a **chunk boundary** — never mid-chunk — and the retiring epoch
//!   survives until its last in-flight chunk completes;
//! * the [`EpochClassifier`] refresh protocol rebuilds off-thread
//!   (readers never block on a build), coalesces concurrent triggers,
//!   and only fires when [`RibFreshness`] has actually seen newer data.
//!
//! The runner test is made deterministic by pipeline construction, not
//! sleeps: with `workers = 1` and `queue_depth = 1`, at the moment the
//! source publishes while fetching chunk `p`, every chunk up to `p-3`
//! has already been classified (the feeder could not have sent `p-1`
//! otherwise) and every chunk from `p` on is classified strictly after
//! the publication. Only the two chunks in flight may land either way.

use spoofwatch_bgp::{Announcement, AsPath};
use spoofwatch_core::{
    CheckpointStore, ChunkSource, Classifier, EpochClassifier, EpochSwap, RibFreshness,
    RunnerConfig, StudyRunner,
};
use spoofwatch_asgraph::As2Org;
use spoofwatch_ixp::chunked::FlowChunk;
use spoofwatch_net::{
    parse_addr, Asn, FlowRecord, InferenceMethod, IngestHealth, OrgMode, Proto, TrafficClass,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "spoofwatch-epoch-{}-{tag}-{n}",
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

fn ann(prefix: &str, path: &[u32]) -> Announcement {
    Announcement::new(prefix.parse().expect("prefix"), AsPath::from(path.to_vec()))
}

/// Epoch A: 20.0.0.0/8 is originated by the member, so the probe flow
/// classifies Valid.
fn classifier_a() -> Classifier {
    Classifier::build(&[ann("20.0.0.0/8", &[3])], &As2Org::new())
}

/// Epoch B: 20.0.0.0/8 is gone from the table, so the same probe flow
/// classifies Unrouted.
fn classifier_b() -> Classifier {
    Classifier::build(&[ann("40.0.0.0/8", &[3])], &As2Org::new())
}

/// A record slice through the production classify path (the batch
/// kernel), Full Cone org-adjusted.
fn classify(c: &Classifier, flows: &[FlowRecord]) -> Vec<TrafficClass> {
    c.classify_records_batched(flows, InferenceMethod::FullCone, OrgMode::OrgAdjusted)
}

fn probe_flow() -> FlowRecord {
    FlowRecord {
        ts: 0,
        src: parse_addr("20.0.0.1").expect("addr"),
        dst: 1,
        proto: Proto::Udp,
        sport: 53,
        dport: 53,
        packets: 1,
        bytes: 64,
        pkt_size: 64,
        member: Asn(3),
        ttl: 0,
    }
}

/// One probe flow per chunk; publishes `replacement` into the swap cell
/// while fetching chunk `publish_at`.
struct PublishingSource {
    chunks: u64,
    next: u64,
    publish_at: u64,
    swap: Arc<EpochSwap<Classifier>>,
    replacement: Mutex<Option<Classifier>>,
}

const CHUNK_BYTES: u64 = 64;

impl ChunkSource for PublishingSource {
    fn fingerprint(&self) -> u64 {
        0xE70C_5A4B
    }

    fn seek(&mut self, _byte_cursor: u64, seq: u64) {
        self.next = seq;
    }

    fn next_chunk(&mut self) -> Option<FlowChunk> {
        if self.next >= self.chunks {
            return None;
        }
        let seq = self.next;
        self.next += 1;
        if seq == self.publish_at {
            if let Some(b) = self
                .replacement
                .lock()
                .expect("replacement lock")
                .take()
            {
                self.swap.publish(b);
            }
        }
        let mut health = IngestHealth::new(CHUNK_BYTES);
        health.ok_records = 1;
        health.ok_bytes = CHUNK_BYTES;
        Some(FlowChunk {
            seq,
            byte_start: seq * CHUNK_BYTES,
            byte_end: (seq + 1) * CHUNK_BYTES,
            flows: vec![probe_flow()],
            health,
        })
    }
}

#[test]
fn publish_mid_run_switches_at_a_chunk_boundary() {
    const CHUNKS: u64 = 40;
    const PUBLISH_AT: u64 = 20;
    let swap = Arc::new(EpochSwap::new(classifier_a()));
    let mut source = PublishingSource {
        chunks: CHUNKS,
        next: 0,
        publish_at: PUBLISH_AT,
        swap: Arc::clone(&swap),
        replacement: Mutex::new(Some(classifier_b())),
    };
    let cfg = RunnerConfig {
        workers: 1,
        queue_depth: 1,
        checkpoint_every: u64::MAX, // irrelevant here; avoid store churn
        ..RunnerConfig::default()
    };
    let scratch = Scratch::new("midrun");
    let store = CheckpointStore::open(&scratch.0).expect("open store");
    let runner = StudyRunner::new_epoch(&swap, cfg);
    let report = runner.run(&mut source, &store).expect("run");

    assert_eq!(swap.epoch(), 1, "exactly one publication happened");
    let counters = &report.breakdown.per_member[&Asn(3)];
    let valid = counters[TrafficClass::Valid.index()].flows;
    let unrouted = counters[TrafficClass::Unrouted.index()].flows;
    assert_eq!(
        valid + unrouted,
        CHUNKS,
        "every chunk classified under exactly one epoch (no tearing)"
    );
    // Pipelining bound (workers=1, queue_depth=1): at publish time the
    // feeder is fetching chunk PUBLISH_AT, so chunks 0..=PUBLISH_AT-3
    // are already classified under epoch A, and chunks >= PUBLISH_AT
    // are classified under epoch B. The two in-flight chunks may fall
    // on either side.
    assert!(
        valid >= PUBLISH_AT - 2,
        "old epoch classified at least the completed prefix: {valid}"
    );
    assert!(
        unrouted >= CHUNKS - PUBLISH_AT,
        "new epoch classified everything fetched after the publish: {unrouted}"
    );
}

#[test]
fn fixed_runner_ignores_publications() {
    // Control: the same scenario with StudyRunner::new over epoch A
    // pinned by reference never sees epoch B.
    const CHUNKS: u64 = 10;
    let swap = Arc::new(EpochSwap::new(classifier_a()));
    let pinned = classifier_a();
    let mut source = PublishingSource {
        chunks: CHUNKS,
        next: 0,
        publish_at: 4,
        swap: Arc::clone(&swap),
        replacement: Mutex::new(Some(classifier_b())),
    };
    let cfg = RunnerConfig {
        workers: 1,
        queue_depth: 1,
        ..RunnerConfig::default()
    };
    let scratch = Scratch::new("fixed");
    let store = CheckpointStore::open(&scratch.0).expect("open store");
    let report = StudyRunner::new(&pinned, cfg)
        .run(&mut source, &store)
        .expect("run");
    let counters = &report.breakdown.per_member[&Asn(3)];
    assert_eq!(counters[TrafficClass::Valid.index()].flows, CHUNKS);
}

/// A reader classifying through the swap cell while another thread
/// publishes never sees a torn chunk: each chunk is classified under one
/// guard, so all its verdicts come from one epoch — Valid under A,
/// Unrouted under B. Bounded by a fixed number of chunks and
/// publications, not by a wall clock: publication `i` waits until the
/// reader has classified `25 i` chunks, so the publications spread over
/// the reader's run instead of all landing before its first chunk.
#[test]
fn swap_under_load_never_tears_a_chunk() {
    const CHUNKS: u64 = 200;
    const PUBLICATIONS: u64 = 8;
    let chunk = vec![probe_flow(); 512];
    let swap = Arc::new(EpochSwap::new(classifier_a()));
    let classified = Arc::new(AtomicU64::new(0));
    let publisher = {
        let swap = Arc::clone(&swap);
        let classified = Arc::clone(&classified);
        std::thread::spawn(move || {
            for i in 0..PUBLICATIONS {
                while classified.load(Ordering::Acquire) < i * CHUNKS / PUBLICATIONS {
                    std::thread::yield_now();
                }
                swap.publish(if i % 2 == 0 { classifier_b() } else { classifier_a() });
            }
        })
    };
    for _ in 0..CHUNKS {
        let guard = swap.load();
        let classes = classify(&guard, &chunk);
        let first = classes[0];
        assert!(
            first == TrafficClass::Valid || first == TrafficClass::Unrouted,
            "unexpected class {first} under swap"
        );
        assert!(
            classes.iter().all(|&c| c == first),
            "verdicts tore within a chunk despite the per-chunk guard"
        );
        classified.fetch_add(1, Ordering::Release);
    }
    publisher.join().expect("publisher");
    assert_eq!(swap.epoch(), PUBLICATIONS, "every publication landed");
    assert_eq!(classify(&swap.load(), &[probe_flow()])[0], TrafficClass::Valid);
}

#[test]
fn refresh_protocol_rebuilds_off_thread_and_coalesces() {
    let epoch = EpochClassifier::new(classifier_a(), 1_000);
    assert_eq!(epoch.epoch(), 0);
    assert_eq!(epoch.built_at(), 1_000);
    assert_eq!(
        classify(&epoch.current(), &[probe_flow()])[0],
        TrafficClass::Valid
    );

    // Freshness gating: no snapshot newer than built_at → not due.
    let mut freshness = RibFreshness::new();
    freshness.register("rrc00");
    freshness.record_snapshot("rrc00", 900);
    assert!(!epoch.refresh_due(&freshness, 5_000));
    // A newer snapshot arrives → due.
    freshness.record_snapshot("rrc00", 2_000);
    assert!(epoch.refresh_due(&freshness, 5_000));

    // Kick a slow rebuild; a second trigger while it runs coalesces.
    let gate = Arc::new(Mutex::new(()));
    let hold = gate.lock().expect("gate");
    let gate2 = Arc::clone(&gate);
    assert!(epoch.refresh(2_000, move || {
        let _open = gate2.lock().expect("gate");
        classifier_b()
    }));
    assert!(
        !epoch.refresh(2_000, classifier_b),
        "second trigger must coalesce into the in-flight rebuild"
    );
    // While the rebuild is blocked, readers still see epoch A.
    assert_eq!(
        classify(&epoch.current(), &[probe_flow()])[0],
        TrafficClass::Valid
    );
    // built_at moved forward immediately, so the same snapshot no
    // longer retriggers.
    assert!(!epoch.refresh_due(&freshness, 5_000));

    drop(hold);
    assert_eq!(epoch.wait_for_rebuild(), Some(1), "published as epoch 1");
    assert_eq!(epoch.epoch(), 1);
    assert_eq!(
        classify(&epoch.current(), &[probe_flow()])[0],
        TrafficClass::Unrouted,
        "readers now see epoch B"
    );
    // After completion a new refresh is accepted again.
    assert!(epoch.refresh(3_000, classifier_a));
    assert_eq!(epoch.wait_for_rebuild(), Some(2));
    assert_eq!(
        classify(&epoch.current(), &[probe_flow()])[0],
        TrafficClass::Valid
    );
}
