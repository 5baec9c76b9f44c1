//! Integration coverage for the live streaming study: bit-identity of a
//! socket-fed session against file replay, the overload ladder shedding
//! under pressure and recovering with telemetry, graceful degradation
//! when the producer stalls out, kill+resume equality across sessions,
//! and a chaos soak combining wire corruption, rate spikes, producer
//! pauses, and a mid-stream kill.

use spoofwatch_core::{
    read_ring, serve_live, serve_live_with, CheckpointStore, Classifier, LiveError, LiveLadder,
    LiveServerConfig, RollupConfig, RunReport, RunnerConfig, RunnerError, RunnerObs, StudyRunner,
    WindowAccum, LIVE_WIRE_MAGIC,
};
use spoofwatch_internet::{Internet, InternetConfig};
use spoofwatch_ixp::chunked::ChunkedIpfixReader;
use spoofwatch_ixp::{ipfix, LiveProducerConfig, LiveProducerStats, LiveScenario, Trace, TrafficConfig};
use spoofwatch_net::wire::ShardTransport;
use spoofwatch_net::{InferenceMethod, OrgMode, WireFaultInjector};
use spoofwatch_obs::{MetricsRegistry, Tracer};
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// A unique scratch directory removed on drop so reruns start clean.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "spoofwatch-live-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch");
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

const CHUNK: usize = 50;
const WINDOW_CHUNKS: u64 = 4;

struct World {
    net: Internet,
    bytes: Arc<Vec<u8>>,
}

fn world(seed: u64) -> World {
    let net = Internet::generate(InternetConfig::tiny(seed));
    let mut tc = TrafficConfig::tiny(seed + 1);
    tc.regular_flows = 1_500;
    tc.flood_max_packets = 150;
    tc.ntp_total_triggers = 150;
    let trace = Trace::generate(&net, &tc);
    let bytes = Arc::new(ipfix::encode(&trace.flows));
    World { net, bytes }
}

fn runner_config() -> RunnerConfig {
    RunnerConfig {
        workers: 2,
        queue_depth: 4,
        checkpoint_every: 3,
        stall_timeout_ms: 0,
        track_disagreement: true,
        ..RunnerConfig::default()
    }
}

/// A ladder whose thresholds sit far above any real occupancy, so clean
/// equality tests never leave `Normal` (the credit window still bounds
/// the buffer; the ladder is policy on top).
fn calm_ladder() -> LiveLadder {
    LiveLadder::for_window(1 << 20)
}

/// The single-node file-replay reference: same runner config, same
/// chunking, same rollup geometry.
fn reference(w: &World, c: &Classifier, scratch: &Scratch) -> (RunReport, Vec<WindowAccum>) {
    let store = CheckpointStore::open(scratch.path("ref-ckpt")).expect("open store");
    let ring = scratch.path("ref-ring");
    let mut source = ChunkedIpfixReader::new(&w.bytes, CHUNK);
    let report = StudyRunner::new(c, runner_config())
        .with_rollups(RollupConfig::new(&ring, WINDOW_CHUNKS))
        .run(&mut source, &store)
        .expect("reference run");
    let (windows, faults) = read_ring(&ring).expect("read ring");
    assert!(faults.is_empty(), "clean reference ring");
    (report, windows)
}

/// Encode windows keyed by index for byte-level comparison.
fn window_bytes(windows: &[WindowAccum]) -> BTreeMap<u64, Vec<u8>> {
    windows
        .iter()
        .map(|w| {
            let mut buf = Vec::new();
            w.encode_into(&mut buf);
            (w.window_index, buf)
        })
        .collect()
}

/// Spawn a producer thread streaming `bytes` with the given pacing.
fn spawn_producer(
    mut transport: ShardTransport,
    bytes: &Arc<Vec<u8>>,
    cfg: LiveProducerConfig,
) -> JoinHandle<io::Result<LiveProducerStats>> {
    let scenario = LiveScenario::from_ipfix(bytes.to_vec(), CHUNK);
    thread::spawn(move || run_producer(&mut transport, &scenario, &cfg))
}

fn run_producer(
    transport: &mut ShardTransport,
    scenario: &LiveScenario,
    cfg: &LiveProducerConfig,
) -> io::Result<LiveProducerStats> {
    spoofwatch_ixp::run_live_producer(transport, scenario, cfg)
}

/// Build a producer↔consumer transport pair whose producer→consumer
/// byte stream passes through a deterministic mangler: frames are
/// re-segmented, periodically bit-flipped, and periodically dropped
/// outright. The consumer must recover every time via CRC resync plus
/// go-back-N resume requests. Returns `(consumer, producer)`.
fn mangled_pair(seed: u64) -> (ShardTransport, ShardTransport) {
    let (p2c_tx, p2c_rx) = mpsc::sync_channel::<Vec<u8>>(64);
    let (mangled_tx, mangled_rx) = mpsc::sync_channel::<Vec<u8>>(64);
    let (c2p_tx, c2p_rx) = mpsc::sync_channel::<Vec<u8>>(64);
    let consumer = ShardTransport::from_channel(LIVE_WIRE_MAGIC, c2p_tx, mangled_rx);
    let producer = ShardTransport::from_channel(LIVE_WIRE_MAGIC, p2c_tx, c2p_rx);
    thread::spawn(move || {
        let mut injector = WireFaultInjector::new(seed);
        let mut frame_idx: u64 = 0;
        while let Ok(mut frame) = p2c_rx.recv() {
            frame_idx += 1;
            // Leave the Hello alone so the handshake always lands;
            // after that, every 5th frame is corrupted and every 11th
            // vanishes entirely.
            if frame_idx > 1 {
                if frame_idx.is_multiple_of(11) {
                    continue;
                }
                if frame_idx.is_multiple_of(5) {
                    injector.flip_in_frame(std::slice::from_mut(&mut frame));
                }
            }
            // Re-segment to exercise reassembly across arbitrary cuts.
            for piece in injector.segment(&frame, 96) {
                if mangled_tx.send(piece).is_err() {
                    return;
                }
            }
        }
    });
    (consumer, producer)
}

#[test]
fn live_session_is_bit_identical_to_file_replay() {
    let w = world(71);
    let c = Classifier::build(&w.net.announcements, &w.net.orgs_dataset);
    let scratch = Scratch::new("clean");
    let (single, single_windows) = reference(&w, &c, &scratch);

    let (consumer, producer) = ShardTransport::channel_pair(LIVE_WIRE_MAGIC, 64);
    let producer_thread = spawn_producer(
        producer,
        &w.bytes,
        LiveProducerConfig {
            // Pace well above capacity: line rate. The credit window,
            // not the producer's restraint, bounds the buffer.
            target_records_per_sec: 0,
            ..LiveProducerConfig::default()
        },
    );

    let store = CheckpointStore::open(scratch.path("live-ckpt")).expect("open store");
    let mut cfg = LiveServerConfig::new(runner_config());
    cfg.rollup = Some(RollupConfig::new(scratch.path("live-ring"), WINDOW_CHUNKS));
    cfg.ladder = Some(calm_ladder());
    let study = serve_live(&c, &cfg, &store, consumer).expect("live session");
    let stats = producer_thread
        .join()
        .expect("producer thread")
        .expect("producer result");

    assert!(stats.finished, "producer reached end of stream");
    assert!(stats.acked, "producer saw Bye");
    assert!(study.report.same_result(&single), "live == file replay");
    assert_eq!(
        window_bytes(&study.windows),
        window_bytes(&single_windows),
        "rollup windows byte-identical"
    );
    assert!(study.session.reconciles(), "session accounting");
    assert_eq!(study.session.records, single.health.records);
    assert_eq!(study.session.chunks, single.health.chunks);
    assert_eq!(study.session.live_shed_records, 0, "no overload shedding");
    assert!(study.session.max_buffered_chunks <= cfg.window);
    assert!(study.session.credits_granted > 0, "credit protocol ran");
    assert!(!study.session.producer_lost);
    assert!(!study.session.stop_requested);
    assert!(study.session.achieved_records_per_sec > 0.0);
}

#[test]
fn overload_ladder_sheds_recovers_and_emits_telemetry() {
    let w = world(72);
    let c = Classifier::build(&w.net.announcements, &w.net.orgs_dataset);
    let scratch = Scratch::new("overload");

    let (consumer, producer) = ShardTransport::channel_pair(LIVE_WIRE_MAGIC, 256);
    let producer_thread = spawn_producer(
        producer,
        &w.bytes,
        LiveProducerConfig {
            target_records_per_sec: 0,
            // A mid-stream lull long enough for the buffer to drain and
            // the ladder to walk back down: the recovery under test.
            pauses: vec![(12, 400)],
            ..LiveProducerConfig::default()
        },
    );

    let store = CheckpointStore::open(scratch.path("ckpt")).expect("open store");
    let reg = MetricsRegistry::new();
    let tracer = Tracer::with_capacity(4_096);
    let mut cfg = LiveServerConfig::new(runner_config());
    cfg.obs = RunnerObs::new(reg.clone(), tracer.clone());
    cfg.window = 4;
    cfg.producer_stall_ms = 10_000;
    let study = serve_live_with(&c, &cfg, &store, consumer, |flows| {
        // A classifier slower than the offered rate: the buffer fills,
        // the ladder climbs, records shed at the buffer's mouth.
        thread::sleep(Duration::from_millis(3));
        c.classify_trace(flows, InferenceMethod::FullCone, OrgMode::OrgAdjusted)
    })
    .expect("overloaded session still completes");
    let stats = producer_thread
        .join()
        .expect("producer thread")
        .expect("producer result");

    assert!(stats.finished && stats.acked);
    assert_eq!(stats.pauses_taken, 1);
    assert!(study.session.live_shed_records > 0, "overload shed records");
    assert!(study.session.reconciles(), "shedding is booked exactly");
    assert!(study.report.health.records.reconciles());
    assert!(study.report.health.chunks.reconciles());
    assert!(
        study.session.records.processed < study.session.records.offered,
        "shedding visibly reduced the processed share"
    );
    assert!(study.session.transitions >= 2, "ladder moved");
    assert!(
        study.session.shed_recoveries >= 1,
        "recovered from Shed after the lull"
    );
    assert!(study.session.time_in_state_ns[2] > 0, "time spent in Shed");
    assert!(study.session.max_buffered_chunks <= 4, "buffer bound held");
    let trace_records: u64 = ChunkedIpfixReader::new(&w.bytes, CHUNK)
        .collect_chunks()
        .iter()
        .map(|chunk| chunk.flows.len() as u64)
        .sum();
    assert_eq!(
        study.session.records.offered, trace_records,
        "the session's books cover the whole trace"
    );

    // The required telemetry surface: the overload-state gauge exists
    // and every transition left a flight-recorder event.
    let snapshot = reg.snapshot();
    assert!(
        snapshot
            .families
            .iter()
            .any(|f| f.name == "spoofwatch_live_overload_state"),
        "overload-state gauge registered"
    );
    let (events, dropped) = tracer.events();
    assert_eq!(dropped, 0, "ring large enough for the session");
    let transitions = events
        .iter()
        .filter(|e| e.name == "live_overload_transition")
        .count() as u64;
    assert_eq!(
        transitions, study.session.transitions,
        "one event per ladder transition"
    );
}

#[test]
fn producer_stall_degrades_to_partial_session() {
    let w = world(73);
    let c = Classifier::build(&w.net.announcements, &w.net.orgs_dataset);
    let scratch = Scratch::new("stall");

    let (consumer, producer) = ShardTransport::channel_pair(LIVE_WIRE_MAGIC, 64);
    // The producer wedges for 30s before chunk 4 — far past the
    // consumer's stall budget. Its pause is a due time, not a sleep, so
    // it keeps reading the link and ends with the session.
    let producer_thread = spawn_producer(
        producer,
        &w.bytes,
        LiveProducerConfig {
            target_records_per_sec: 0,
            pauses: vec![(4, 30_000)],
            ..LiveProducerConfig::default()
        },
    );

    let store = CheckpointStore::open(scratch.path("ckpt")).expect("open store");
    let mut cfg = LiveServerConfig::new(runner_config());
    cfg.ladder = Some(calm_ladder());
    cfg.producer_stall_ms = 250;
    cfg.resume_throttle_ms = 50;
    let study = serve_live(&c, &cfg, &store, consumer).expect("degrades, not hangs");
    let ended = Instant::now();
    let _ = producer_thread.join().expect("producer thread");
    assert!(
        ended.elapsed() < Duration::from_secs(2),
        "the paused producer returned {:?} after the session ended",
        ended.elapsed()
    );

    assert!(study.session.producer_lost, "stall watchdog declared loss");
    assert!(study.session.producer_stalls >= 1);
    assert_eq!(
        study.session.chunks.offered, 4,
        "exactly the pre-stall chunks were admitted"
    );
    assert_eq!(study.session.records.offered, (CHUNK as u64) * 4);
    assert!(study.session.reconciles(), "partial session still reconciles");
    assert!(
        study
            .session
            .caveats()
            .iter()
            .any(|s| s.contains("lost")),
        "loss is surfaced as a caveat"
    );
}

#[test]
fn kill_and_resume_matches_uninterrupted_run() {
    let w = world(74);
    let c = Classifier::build(&w.net.announcements, &w.net.orgs_dataset);
    let scratch = Scratch::new("resume");
    let (single, single_windows) = reference(&w, &c, &scratch);

    let store = CheckpointStore::open(scratch.path("ckpt")).expect("open store");
    let ring = scratch.path("ring");

    // Session 1: killed after 7 committed chunks, mid-stream.
    let (consumer, producer) = ShardTransport::channel_pair(LIVE_WIRE_MAGIC, 64);
    let producer_thread = spawn_producer(producer, &w.bytes, LiveProducerConfig::default());
    let mut cfg = LiveServerConfig::new(RunnerConfig {
        interrupt_after_chunks: Some(7),
        ..runner_config()
    });
    cfg.rollup = Some(RollupConfig::new(&ring, WINDOW_CHUNKS));
    cfg.ladder = Some(calm_ladder());
    match serve_live(&c, &cfg, &store, consumer) {
        Err(LiveError::Runner(RunnerError::Interrupted { committed_chunks })) => {
            assert_eq!(committed_chunks, 7)
        }
        other => panic!("expected interrupt, got {other:?}"),
    }
    // The link died under the producer (kill semantics: no Bye).
    assert!(
        producer_thread.join().expect("producer thread").is_err(),
        "producer saw the link drop"
    );

    // Session 2: fresh transport, fresh producer replaying the same
    // scenario; the runner resumes from its checkpoint and asks the
    // producer to seek forward.
    let (consumer, producer) = ShardTransport::channel_pair(LIVE_WIRE_MAGIC, 64);
    let producer_thread = spawn_producer(producer, &w.bytes, LiveProducerConfig::default());
    let mut cfg = LiveServerConfig::new(runner_config());
    cfg.rollup = Some(RollupConfig::new(&ring, WINDOW_CHUNKS));
    cfg.ladder = Some(calm_ladder());
    let study = serve_live(&c, &cfg, &store, consumer).expect("resumed session");
    let stats = producer_thread
        .join()
        .expect("producer thread")
        .expect("producer result");

    assert!(stats.finished && stats.acked);
    assert_eq!(
        study.session.resumed_at_chunk,
        Some(6),
        "resumed from the last checkpoint boundary before the kill"
    );
    assert!(
        study.report.same_result(&single),
        "kill+resume == uninterrupted"
    );
    assert_eq!(
        window_bytes(&study.windows),
        window_bytes(&single_windows),
        "rollup ring byte-identical after resume"
    );
    assert!(study.session.reconciles());
    assert!(
        study.session.chunks.offered < single.health.chunks.offered,
        "session 2 only replayed from the checkpoint forward"
    );
}

/// The chaos soak: streaming corruption on the data leg, a line-rate
/// producer against a slow classifier, a mid-stream producer pause, a
/// mid-stream kill with resume, and a graceful stop-drain — asserting
/// no hang, the bounded buffer, the exact accounting invariant at both
/// levels, and at least one shed recovery.
#[test]
fn live_chaos_soak() {
    let w = world(75);
    let c = Classifier::build(&w.net.announcements, &w.net.orgs_dataset);
    let scratch = Scratch::new("chaos");

    let store = CheckpointStore::open(scratch.path("ckpt")).expect("open store");
    let ring = scratch.path("ring");
    let slow_classify = |flows: &[spoofwatch_net::FlowRecord]| {
        thread::sleep(Duration::from_millis(5));
        c.classify_trace(flows, InferenceMethod::FullCone, OrgMode::OrgAdjusted)
    };
    // Both sessions run with window 4 and the ladder it derives
    // (`ladder: None`): Pressure at 2 buffered chunks, Shed at 3,
    // Refuse at 4.

    // Session 1: corrupted link, overload, killed after 10 commits.
    let (consumer, producer) = mangled_pair(0xC0FFEE);
    let _detached = spawn_producer(
        producer,
        &w.bytes,
        LiveProducerConfig {
            target_records_per_sec: 0,
            credit_stall_ms: 20_000,
            ..LiveProducerConfig::default()
        },
    );
    let mut cfg = LiveServerConfig::new(RunnerConfig {
        interrupt_after_chunks: Some(10),
        ..runner_config()
    });
    cfg.rollup = Some(RollupConfig::new(&ring, WINDOW_CHUNKS));
    cfg.window = 4;
    cfg.producer_stall_ms = 5_000;
    cfg.resume_throttle_ms = 50;
    match serve_live_with(&c, &cfg, &store, consumer, slow_classify) {
        Err(LiveError::Runner(RunnerError::Interrupted { committed_chunks })) => {
            assert_eq!(committed_chunks, 10)
        }
        other => panic!("expected interrupt, got {other:?}"),
    }

    // Session 2: fresh corrupted link, resume from checkpoint, a lull
    // for the recovery under test, then a graceful stop-drain.
    let (consumer, producer) = mangled_pair(0xBADCAB);
    let _detached = spawn_producer(
        producer,
        &w.bytes,
        LiveProducerConfig {
            target_records_per_sec: 0,
            credit_stall_ms: 20_000,
            pauses: vec![(12, 350)],
        },
    );
    // A starved runner (one worker, no internal queue slack) so bursts
    // must pile up in the admission buffer: the overload under test is
    // live-side, not runner-side. The checkpoint binding (seed, method,
    // org, trace identity) is unchanged, so the resume still matches.
    let mut cfg = LiveServerConfig::new(RunnerConfig {
        workers: 1,
        queue_depth: 1,
        ..runner_config()
    });
    cfg.rollup = Some(RollupConfig::new(&ring, WINDOW_CHUNKS));
    cfg.window = 4;
    cfg.producer_stall_ms = 5_000;
    cfg.resume_throttle_ms = 20;
    cfg.stop_after_chunks = Some(16);
    // The first two chunks classify very slowly — a deterministic
    // processing spike that piles the paced-in chunks up in the
    // admission buffer no matter how the corrupted link times their
    // delivery, guaranteeing the ladder reaches Shed.
    let spikes = AtomicU64::new(0);
    let spiky_classify = |flows: &[spoofwatch_net::FlowRecord]| {
        let n = spikes.fetch_add(1, Ordering::Relaxed);
        thread::sleep(Duration::from_millis(if n < 2 { 500 } else { 5 }));
        c.classify_trace(flows, InferenceMethod::FullCone, OrgMode::OrgAdjusted)
    };
    let study =
        serve_live_with(&c, &cfg, &store, consumer, spiky_classify).expect("soak session");

    assert!(study.session.stop_requested, "drain was stop-triggered");
    assert!(!study.session.producer_lost, "drain completed cleanly");
    assert!(
        study.session.chunks.offered >= 16,
        "the drain admitted the whole chunk budget: {:?}",
        study.session.chunks
    );
    assert_eq!(
        study.session.resumed_at_chunk,
        Some(9),
        "resumed from the pre-kill checkpoint"
    );
    assert!(study.session.wire_faults > 0, "the chaos was real");
    assert!(study.session.resumes_sent > 1, "go-back-N recovered losses");
    assert!(study.session.reconciles(), "session delta reconciles exactly");
    assert!(study.report.health.records.reconciles());
    assert!(study.report.health.chunks.reconciles());
    assert!(
        study.session.max_buffered_chunks <= cfg.window,
        "buffer bound held under chaos"
    );
    assert!(
        study.session.live_shed_records > 0,
        "overload shedding engaged: {:?}",
        study.session
    );
    assert!(
        study.session.shed_recoveries >= 1,
        "recovered from Shed at least once"
    );
    // The session block is part of the serialized deliverable.
    let json = serde_json::to_string(&study.session).expect("session serializes");
    assert!(json.contains("\"live_shed_records\""));
    // The rollup ring survived kill, resume, corruption, and drain.
    let (_windows, faults) = read_ring(&ring).expect("ring readable");
    assert!(faults.is_empty(), "no torn rollup windows");
}
