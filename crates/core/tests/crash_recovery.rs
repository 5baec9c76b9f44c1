//! Crash-recovery properties of the streaming study runner.
//!
//! The load-bearing guarantee: interrupting a run at *any* checkpoint
//! boundary and resuming yields a report identical to the uninterrupted
//! run, with all accounting reconciling exactly — even when the trace
//! itself is corrupted, when a checkpoint file is torn mid-write, when
//! workers panic, or when a slow classifier backs the queue up.

use spoofwatch_core::{Classifier, CheckpointStore, RunnerConfig, RunnerError, StudyRunner};
use spoofwatch_internet::{Internet, InternetConfig};
use spoofwatch_ixp::chunked::ChunkedIpfixReader;
use spoofwatch_ixp::{ipfix, Trace, TrafficConfig};
use spoofwatch_net::{FaultInjector, TrafficClass};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch directory for one test's checkpoint store, removed
/// on drop so reruns start clean.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "spoofwatch-crash-{}-{tag}-{n}",
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

fn world(seed: u64, corrupt: bool) -> World {
    let net = Internet::generate(InternetConfig::tiny(seed));
    // A deliberately small trace: several tests below rerun the full
    // study dozens of times (once per interrupt boundary / torn seed).
    let mut tc = TrafficConfig::tiny(seed + 1);
    tc.regular_flows = 1_500;
    tc.flood_max_packets = 150;
    tc.ntp_total_triggers = 150;
    let trace = Trace::generate(&net, &tc);
    let mut bytes = ipfix::encode(&trace.flows);
    if corrupt {
        // Light corruption so chunks carry nontrivial ingest health.
        FaultInjector::new(seed + 2)
            .protect_prefix(ipfix::HEADER_LEN)
            .corrupt_percent(&mut bytes, 0.2);
    }
    World { net, bytes }
}

fn classifier(net: &Internet) -> Classifier {
    Classifier::build(&net.announcements, &net.orgs_dataset)
}

fn config() -> RunnerConfig {
    RunnerConfig {
        workers: 3,
        queue_depth: 4,
        checkpoint_every: 3,
        stall_timeout_ms: 0, // no watchdog noise in tests
        ..RunnerConfig::default()
    }
}

const CHUNK: usize = 50;

#[test]
fn interrupt_and_resume_matches_uninterrupted_run_at_every_boundary() {
    let w = world(11, true);
    let c = classifier(&w.net);
    let total_chunks = ChunkedIpfixReader::new(&w.bytes, CHUNK).collect_chunks().len() as u64;
    assert!(total_chunks >= 8, "world too small to exercise boundaries");

    // The reference: one uninterrupted run.
    let scratch = Scratch::new("ref");
    let store = CheckpointStore::open(&scratch.0).expect("open store");
    let mut source = ChunkedIpfixReader::new(&w.bytes, CHUNK);
    let reference = StudyRunner::new(&c, config())
        .run(&mut source, &store)
        .expect("uninterrupted run");
    assert!(reference.health.reconciles());
    assert!(reference.ingest.reconciles());
    assert_eq!(reference.health.chunks.offered, total_chunks);

    // Interrupt after every possible committed-chunk count, resume, and
    // demand the identical result. (Interrupts not on a checkpoint
    // boundary lose the progress past the last checkpoint — the resume
    // recomputes it, which is exactly the crash semantics.)
    for stop_after in 1..total_chunks {
        let scratch = Scratch::new("resume");
        let store = CheckpointStore::open(&scratch.0).expect("open store");
        let mut cfg = config();
        cfg.interrupt_after_chunks = Some(stop_after);
        let mut source = ChunkedIpfixReader::new(&w.bytes, CHUNK);
        match StudyRunner::new(&c, cfg).run(&mut source, &store) {
            Err(RunnerError::Interrupted { committed_chunks }) => {
                assert!(committed_chunks >= stop_after)
            }
            other => panic!("expected interrupt at {stop_after}, got {other:?}"),
        }

        let mut source = ChunkedIpfixReader::new(&w.bytes, CHUNK);
        let resumed = StudyRunner::new(&c, config())
            .run(&mut source, &store)
            .expect("resumed run");
        assert!(
            resumed.same_result(&reference),
            "resume after {stop_after} chunks diverged from the reference"
        );
        assert!(resumed.health.reconciles());
        assert!(resumed.ingest.reconciles());
        if stop_after >= config().checkpoint_every {
            assert!(
                resumed.health.resumed_at_chunk.is_some(),
                "a checkpoint existed at stop_after={stop_after}, resume should use it"
            );
        }
    }
}

#[test]
fn resume_from_completed_run_is_a_noop_with_same_result() {
    let w = world(12, false);
    let c = classifier(&w.net);
    let scratch = Scratch::new("noop");
    let store = CheckpointStore::open(&scratch.0).expect("open store");

    let mut source = ChunkedIpfixReader::new(&w.bytes, CHUNK);
    let runner = StudyRunner::new(&c, config());
    let first = runner.run(&mut source, &store).expect("first run");

    // The terminal checkpoint makes a rerun resume at end-of-stream:
    // offered/processed must not double.
    let mut source = ChunkedIpfixReader::new(&w.bytes, CHUNK);
    let second = runner.run(&mut source, &store).expect("second run");
    assert!(second.same_result(&first));
    assert_eq!(second.health.resumed_at_chunk, Some(first.health.chunks.offered));
}

#[test]
fn torn_checkpoint_falls_back_to_previous_slot() {
    let w = world(13, true);
    let c = classifier(&w.net);
    let total_chunks = ChunkedIpfixReader::new(&w.bytes, CHUNK).collect_chunks().len() as u64;
    let checkpoint_every = config().checkpoint_every;
    assert!(
        total_chunks > 2 * checkpoint_every,
        "need at least two checkpoints"
    );

    let ref_scratch = Scratch::new("torn-ref");
    let ref_store = CheckpointStore::open(&ref_scratch.0).expect("open store");
    let mut source = ChunkedIpfixReader::new(&w.bytes, CHUNK);
    let reference = StudyRunner::new(&c, config())
        .run(&mut source, &ref_store)
        .expect("reference run");

    for seed in 0..20u64 {
        let scratch = Scratch::new("torn");
        let store = CheckpointStore::open(&scratch.0).expect("open store");
        let mut cfg = config();
        cfg.interrupt_after_chunks = Some(2 * checkpoint_every + 1);
        let mut source = ChunkedIpfixReader::new(&w.bytes, CHUNK);
        let err = StudyRunner::new(&c, cfg)
            .run(&mut source, &store)
            .expect_err("interrupt");
        assert!(matches!(err, RunnerError::Interrupted { .. }));

        // Tear the current checkpoint as a crash mid-write would.
        let cur = store.current_path();
        let mut bytes = std::fs::read(&cur).expect("read current checkpoint");
        let clean = bytes.clone();
        FaultInjector::new(seed).any_single(&mut bytes, 16);
        if bytes == clean {
            continue; // the injected fault was a no-op; nothing to detect
        }
        std::fs::write(&cur, &bytes).expect("write torn checkpoint");

        // Resume: the torn slot must be rejected, the previous one used,
        // and the result must still match the reference.
        let mut source = ChunkedIpfixReader::new(&w.bytes, CHUNK);
        let resumed = StudyRunner::new(&c, config())
            .run(&mut source, &store)
            .expect("resume past torn checkpoint");
        assert!(resumed.health.checkpoints_rejected >= 1, "seed {seed}");
        assert_eq!(resumed.health.resumed_at_chunk, Some(checkpoint_every));
        assert!(resumed.same_result(&reference), "seed {seed}");
    }
}

#[test]
fn torn_checkpoint_in_both_slots_restarts_from_scratch() {
    let w = world(14, false);
    let c = classifier(&w.net);
    let scratch = Scratch::new("both-torn");
    let store = CheckpointStore::open(&scratch.0).expect("open store");

    let mut cfg = config();
    cfg.interrupt_after_chunks = Some(2 * cfg.checkpoint_every + 1);
    let mut source = ChunkedIpfixReader::new(&w.bytes, CHUNK);
    let _ = StudyRunner::new(&c, cfg).run(&mut source, &store);

    for path in [store.current_path(), store.previous_path()] {
        let mut bytes = std::fs::read(&path).expect("read checkpoint");
        bytes.truncate(bytes.len() / 2);
        std::fs::write(&path, &bytes).expect("write torn checkpoint");
    }

    let mut source = ChunkedIpfixReader::new(&w.bytes, CHUNK);
    let report = StudyRunner::new(&c, config())
        .run(&mut source, &store)
        .expect("run restarts cleanly");
    assert_eq!(report.health.checkpoints_rejected, 2);
    assert_eq!(report.health.resumed_at_chunk, None, "nothing valid to resume");
    assert!(report.health.reconciles());
}

#[test]
fn checkpoint_from_different_config_is_refused() {
    let w = world(15, false);
    let c = classifier(&w.net);
    let scratch = Scratch::new("mismatch");
    let store = CheckpointStore::open(&scratch.0).expect("open store");

    let mut source = ChunkedIpfixReader::new(&w.bytes, CHUNK);
    StudyRunner::new(&c, config())
        .run(&mut source, &store)
        .expect("seed run");

    let mut other = config();
    other.seed = 999;
    let mut source = ChunkedIpfixReader::new(&w.bytes, CHUNK);
    match StudyRunner::new(&c, other).run(&mut source, &store) {
        Err(RunnerError::ConfigMismatch { expected, found }) => assert_ne!(expected, found),
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
}

#[test]
fn panicking_worker_quarantines_chunk_and_accounting_reconciles() {
    let w = world(16, false);
    let c = classifier(&w.net);
    let scratch = Scratch::new("panic");
    let store = CheckpointStore::open(&scratch.0).expect("open store");

    let runner = StudyRunner::new(&c, config());
    let method = runner.config().method;
    let org = runner.config().org;
    let mut source = ChunkedIpfixReader::new(&w.bytes, CHUNK);
    // Poison pill: any chunk containing a flow with an odd byte count
    // whose member ASN is divisible by 3 blows up mid-classification.
    let report = runner
        .run_with(&mut source, &store, |flows| {
            flows
                .iter()
                .map(|f| {
                    assert!(
                        !(f.bytes % 2 == 1 && f.member.0 % 3 == 0),
                        "poison pill"
                    );
                    c.classify_with_tries(f, method, org)
                })
                .collect::<Vec<TrafficClass>>()
        })
        .expect("run survives worker panics");

    assert!(report.health.chunks.quarantined > 0, "pill never fired");
    assert!(report.health.worker_restarts >= report.health.chunks.quarantined);
    assert!(report.health.reconciles());
    assert_eq!(
        report.health.records.processed + report.health.records.quarantined,
        report.health.records.offered
    );
}

#[test]
fn one_slot_queue_under_slow_classifier_loses_nothing() {
    let w = world(18, false);
    let c = classifier(&w.net);
    let scratch = Scratch::new("block");
    let store = CheckpointStore::open(&scratch.0).expect("open store");

    let mut cfg = config();
    cfg.workers = 1;
    cfg.queue_depth = 1;
    let runner = StudyRunner::new(&c, cfg);
    let method = runner.config().method;
    let org = runner.config().org;
    let mut source = ChunkedIpfixReader::new(&w.bytes, CHUNK);
    let report = runner
        .run_with(&mut source, &store, |flows| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            c.classify_records_batched(flows, method, org)
        })
        .expect("blocking run");

    assert_eq!(report.health.chunks.shed, 0);
    assert_eq!(report.health.chunks.processed, report.health.chunks.offered);
    assert!(report.health.reconciles());
}

#[test]
fn runner_matches_batch_classification() {
    // The streaming runner over a clean trace must agree exactly with
    // the batch pipeline it supervises.
    let w = world(19, false);
    let c = classifier(&w.net);
    let scratch = Scratch::new("batch");
    let store = CheckpointStore::open(&scratch.0).expect("open store");

    let (flows, health) = ipfix::decode_resilient(&w.bytes);
    assert_eq!(health.quarantined_bytes, 0, "clean trace");
    let cfg = config();
    let classes = c.classify_trace(&flows, cfg.method, cfg.org);
    let batch = spoofwatch_core::MemberBreakdown::from_classes(&flows, &classes);

    let mut source = ChunkedIpfixReader::new(&w.bytes, CHUNK);
    let report = StudyRunner::new(&c, cfg)
        .run(&mut source, &store)
        .expect("streaming run");
    assert_eq!(report.breakdown, batch);
    assert_eq!(report.health.records.processed, flows.len() as u64);
}
