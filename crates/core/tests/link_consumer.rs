//! The consuming end of the chunk link, seen from the two shells that run
//! it: a link severed under a shard worker, or a coordinator gone silent
//! on it, aborts the worker — no terminal checkpoint, no flushed partial
//! rollup window — and the respawned worker still merges bit-identically;
//! and each mode exports the metric families it owns and no others.

use spoofwatch_core::{
    read_ring, serve_live, CheckpointStore, Classifier, LiveLadder, LiveServerConfig, RollupConfig,
    RunReport, RunnerConfig, RunnerObs, ShardConfig, ShardCoordinator, ShardPlan, ShardStudyReport,
    ShardWorkerConfig, ShardWorkerError, StudyRunner, WindowAccum, LIVE_WIRE_MAGIC,
    SHARD_WIRE_MAGIC,
};
use spoofwatch_internet::{Internet, InternetConfig};
use spoofwatch_ixp::chunked::ChunkedIpfixReader;
use spoofwatch_ixp::{ipfix, LiveProducerConfig, LiveScenario, Trace, TrafficConfig};
use spoofwatch_net::wire::{ShardEndpoint, ShardTransport, ShardTx};
use spoofwatch_net::InProcHub;
use spoofwatch_obs::{MetricsRegistry, Tracer};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// A unique scratch directory removed on drop so reruns start clean.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("spoofwatch-link-{}-{tag}-{n}", std::process::id()));
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
const CHECKPOINT_EVERY: u64 = 3;
/// Chunks the severed link carries before it fails: a multiple of
/// neither `WINDOW_CHUNKS` nor `CHECKPOINT_EVERY`, so a worker that
/// drained what it admitted instead of aborting would flush a short
/// window or write a terminal checkpoint off the periodic grid.
const CUT_AFTER: u64 = 5;

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
        checkpoint_every: CHECKPOINT_EVERY,
        stall_timeout_ms: 0,
        track_disagreement: true,
        ..RunnerConfig::default()
    }
}

fn shard_config(shards: u32) -> ShardConfig {
    let mut cfg = ShardConfig::new(ShardPlan::new(shards, 0x5eed), CHUNK);
    cfg.backoff_base_ms = 5;
    cfg.backoff_max_ms = 40;
    cfg.retry_budget = 3;
    cfg
}

fn worker_config(shard_id: u32, ring: PathBuf) -> ShardWorkerConfig {
    let mut cfg = ShardWorkerConfig::new(shard_id, runner_config());
    cfg.rollup = Some(RollupConfig::new(ring, WINDOW_CHUNKS));
    cfg.heartbeat_ms = 20;
    cfg.chunk_timeout_ms = 100;
    cfg
}

fn single_node(w: &World, c: &Classifier, scratch: &Scratch) -> (RunReport, Vec<WindowAccum>) {
    let store = CheckpointStore::open(scratch.path("single-ckpt")).expect("open store");
    let ring = scratch.path("single-ring");
    let report = StudyRunner::new(c, runner_config())
        .with_rollups(RollupConfig::new(&ring, WINDOW_CHUNKS))
        .run(&mut ChunkedIpfixReader::new(&w.bytes, CHUNK), &store)
        .expect("single-node run");
    let (windows, faults) = read_ring(&ring).expect("read ring");
    assert!(faults.is_empty(), "clean single-node ring");
    (report, windows)
}

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

fn assert_merges_like_single_node(
    merged: &ShardStudyReport,
    single: &RunReport,
    single_windows: &[WindowAccum],
) {
    assert_eq!(merged.breakdown, single.breakdown, "per-member breakdown");
    assert_eq!(merged.ingest, single.ingest, "ingest totals");
    assert_eq!(merged.disagreement, single.disagreement, "disagreement");
    assert_eq!(merged.records.processed, single.health.records.processed);
    assert_eq!(merged.records.offered, single.health.records.offered);
    assert!(merged.reconciles() && !merged.degraded());
    assert_eq!(
        window_bytes(&merged.windows),
        window_bytes(single_windows),
        "rollup window bytes"
    );
}

/// An endpoint fed by a test-side queue of pre-built transports.
struct QueueEndpoint(Mutex<mpsc::Receiver<ShardTransport>>);

impl ShardEndpoint for QueueEndpoint {
    fn accept(&self, timeout: Duration) -> io::Result<Option<ShardTransport>> {
        let rx = self.0.lock().unwrap_or_else(|p| p.into_inner());
        match rx.recv_timeout(timeout) {
            Ok(t) => Ok(Some(t)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(io::Error::other("queue closed")),
        }
    }
}

/// The coordinator's sending half once it has carried `left` chunk
/// frames (message tag 4): it fails like a cut cable, or goes silent —
/// every later frame is dropped while the connection stays open.
struct FailAfterChunks {
    inner: Box<dyn ShardTx>,
    left: u64,
    silent: bool,
}

impl ShardTx for FailAfterChunks {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        if self.left == 0 {
            if self.silent {
                return Ok(());
            }
            if payload.first() == Some(&4) {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "link cut"));
            }
        } else if payload.first() == Some(&4) {
            self.left -= 1;
        }
        self.inner.send(payload)
    }
}

/// What the failed worker left behind, read as soon as it returned and
/// before its respawn could touch the same store.
struct Severed {
    result: Result<(), ShardWorkerError>,
    latest_checkpoint: Option<u64>,
    ring: Vec<WindowAccum>,
}

/// A clean 2-shard study whose first link to shard 0 fails after
/// `CUT_AFTER` chunks (cut, or `silent`); checks that the failed worker
/// aborted rather than drained and that the respawn merges
/// bit-identically with the single-node run.
fn fail_first_link_of_shard_0(seed: u64, silent: bool) -> ShardStudyReport {
    let w = world(seed);
    let c = Arc::new(Classifier::build(&w.net.announcements, &w.net.orgs_dataset));
    let scratch = Scratch::new(if silent { "silent" } else { "cut" });
    let (single, single_windows) = single_node(&w, &c, &scratch);

    let shards = 2u32;
    let ckpt: Vec<PathBuf> = (0..shards)
        .map(|k| scratch.path(&format!("s{k}-ckpt")))
        .collect();
    let ring: Vec<PathBuf> = (0..shards)
        .map(|k| scratch.path(&format!("s{k}-ring")))
        .collect();
    let (queue_tx, queue_rx) = mpsc::sync_channel::<ShardTransport>(8);
    let endpoint = QueueEndpoint(Mutex::new(queue_rx));
    let queue_tx = Mutex::new(queue_tx);
    let severed_worker: Mutex<Option<JoinHandle<Severed>>> = Mutex::new(None);
    let severed: Mutex<Option<Severed>> = Mutex::new(None);
    let attempts: Vec<AtomicU64> = (0..shards).map(|_| AtomicU64::new(0)).collect();

    let merged = ShardCoordinator::new(&w.bytes, shard_config(shards)).run(&endpoint, &|k| {
        let attempt = attempts[k as usize].fetch_add(1, Ordering::SeqCst);
        let (mut coordinator_side, worker_side) = ShardTransport::channel_pair(SHARD_WIRE_MAGIC, 8);
        let cut = k == 0 && attempt == 0;
        if cut {
            let (tx, rx) = coordinator_side.split();
            let tx = Box::new(FailAfterChunks {
                inner: tx,
                left: CUT_AFTER,
                silent,
            });
            coordinator_side = ShardTransport::from_halves(tx, rx);
        } else if k == 0 {
            // The respawn shares the failed worker's store: let the
            // failed worker finish and be inspected first.
            let handle = severed_worker
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .take();
            if let Some(handle) = handle {
                let seen = handle.join().expect("failed worker thread");
                *severed.lock().unwrap_or_else(|p| p.into_inner()) = Some(seen);
            }
        }
        queue_tx
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .send(coordinator_side)
            .expect("queue transport");
        let cfg = worker_config(k, ring[k as usize].clone());
        let (c, ckpt, ring) = (
            Arc::clone(&c),
            ckpt[k as usize].clone(),
            ring[k as usize].clone(),
        );
        let handle = thread::spawn(move || {
            let store = CheckpointStore::open(&ckpt).expect("open store");
            let result = spoofwatch_core::serve_shard(&c, &cfg, &store, worker_side);
            let latest_checkpoint = store.load_latest().0.map(|(cp, _)| cp.committed_chunks);
            let (ring, faults) = read_ring(&ring).expect("read ring");
            assert!(faults.is_empty(), "clean worker ring");
            Severed {
                result,
                latest_checkpoint,
                ring,
            }
        });
        if cut {
            *severed_worker.lock().unwrap_or_else(|p| p.into_inner()) = Some(handle);
        }
    });

    let seen = severed
        .into_inner()
        .unwrap_or_else(|p| p.into_inner())
        .expect("shard 0 was respawned after its link failed");
    assert!(
        matches!(seen.result, Err(ShardWorkerError::Disconnected)),
        "a failed link is a disconnect, got {:?}",
        seen.result
    );
    // How many of the carried chunks commit before the abort is a race,
    // so the checks are on what an abort never writes: a terminal
    // checkpoint and a flushed partial window.
    let latest = seen.latest_checkpoint.unwrap_or(0);
    assert!(
        latest <= CUT_AFTER,
        "checkpoint at {latest} is past the {CUT_AFTER} chunks the link carried"
    );
    assert!(
        latest.is_multiple_of(CHECKPOINT_EVERY),
        "checkpoint at {latest} is off the periodic grid: the worker finalized its run"
    );
    for window in &seen.ring {
        assert_eq!(
            window.chunks, WINDOW_CHUNKS,
            "window {} was flushed short: the worker drained instead of aborting",
            window.window_index
        );
    }

    let merged = merged.expect("sharded run completes");
    assert_eq!(merged.shards[0].deaths, 1, "the failure cost shard 0 one death");
    assert_eq!(merged.shards[1].deaths, 0);
    assert!(merged.shards.iter().all(|s| s.completed && !s.lost));
    assert_merges_like_single_node(&merged, &single, &single_windows);
    merged
}

#[test]
fn a_severed_link_aborts_the_shard_worker_and_never_drains_it() {
    fail_first_link_of_shard_0(81, false);
}

/// A coordinator that stops sending but keeps the connection open: the
/// worker's beacon keeps the coordinator's liveness check satisfied, so
/// only the worker's stall bound ends the link — as an abort.
#[test]
fn a_silent_coordinator_is_given_up_on_and_the_worker_aborts() {
    let merged = fail_first_link_of_shard_0(83, true);
    assert_eq!(
        merged.shards[0].heartbeat_misses, 0,
        "the worker, not the coordinator, gave the link up"
    );
}

fn families(reg: &MetricsRegistry) -> BTreeSet<String> {
    reg.snapshot()
        .families
        .into_iter()
        .map(|f| f.name)
        .collect()
}

/// Exactly what a clean live session registers: the runner's families,
/// the chunked decoder's and the live session's own.
const LIVE_FAMILIES: &[&str] = &[
    "spoofwatch_decode_bytes_total",
    "spoofwatch_decode_fault_events_dropped_total",
    "spoofwatch_decode_records_total",
    "spoofwatch_decode_resyncs_total",
    "spoofwatch_live_admitted_chunks_total",
    "spoofwatch_live_buffered_chunks",
    "spoofwatch_live_consumer_stalls_total",
    "spoofwatch_live_credits_granted_total",
    "spoofwatch_live_overload_state",
    "spoofwatch_live_overload_transitions_total",
    "spoofwatch_live_producer_stalls_total",
    "spoofwatch_live_protocol_faults_total",
    "spoofwatch_live_resumes_total",
    "spoofwatch_live_shed_records_total",
    "spoofwatch_member_labels_dropped_total",
    "spoofwatch_method_disagreement_total",
    "spoofwatch_org_adjustment_delta_total",
    "spoofwatch_runner_checkpoint_write_duration_ns",
    "spoofwatch_runner_checkpoints_total",
    "spoofwatch_runner_chunk_classify_duration_ns",
    "spoofwatch_runner_chunks_total",
    "spoofwatch_runner_classified_flows_total",
    "spoofwatch_runner_commit_blocked_on_writer_ns_total",
    "spoofwatch_runner_committed_chunks",
    "spoofwatch_runner_incident_write_duration_ns",
    "spoofwatch_runner_member_flows_total",
    "spoofwatch_runner_queue_depth",
    "spoofwatch_runner_records_total",
    "spoofwatch_runner_watchdog_stalls_total",
    "spoofwatch_runner_window_write_duration_ns",
    "spoofwatch_runner_worker_restarts_total",
];

#[test]
fn each_mode_exports_only_its_own_metric_families() {
    let w = world(82);
    let c = Arc::new(Classifier::build(&w.net.announcements, &w.net.orgs_dataset));
    let scratch = Scratch::new("families");

    // A clean 2-shard study whose workers share one registry.
    let worker_reg = MetricsRegistry::new();
    let hub = Arc::new(InProcHub::new(SHARD_WIRE_MAGIC, 8));
    let spawn_hub = Arc::clone(&hub);
    let spawn_c = Arc::clone(&c);
    let worker_obs = RunnerObs::new(Arc::clone(&worker_reg), Tracer::disabled());
    let ckpt: Vec<PathBuf> = (0..2)
        .map(|k| scratch.path(&format!("s{k}-ckpt")))
        .collect();
    let ring: Vec<PathBuf> = (0..2)
        .map(|k| scratch.path(&format!("s{k}-ring")))
        .collect();
    let merged = ShardCoordinator::new(&w.bytes, shard_config(2))
        .run(hub.as_ref(), &move |k| {
            let transport = spawn_hub.connect().expect("hub connect");
            let mut cfg = worker_config(k, ring[k as usize].clone());
            cfg.obs = worker_obs.clone();
            let store = CheckpointStore::open(&ckpt[k as usize]).expect("open store");
            let c = Arc::clone(&spawn_c);
            thread::spawn(move || {
                spoofwatch_core::serve_shard(&c, &cfg, &store, transport).expect("shard serves")
            });
        })
        .expect("sharded run");
    assert!(merged.shards.iter().all(|s| s.completed && s.deaths == 0));
    let worker_families = families(&worker_reg);
    assert!(
        worker_families
            .iter()
            .any(|f| f.starts_with("spoofwatch_runner_")),
        "the workers exported into the registry: {worker_families:?}"
    );
    let live_in_worker: Vec<&String> = worker_families
        .iter()
        .filter(|f| f.starts_with("spoofwatch_live_"))
        .collect();
    assert!(
        live_in_worker.is_empty(),
        "shard workers export {live_in_worker:?}"
    );

    // A clean live session at line rate.
    let live_reg = MetricsRegistry::new();
    let (consumer, mut producer) = ShardTransport::channel_pair(LIVE_WIRE_MAGIC, 64);
    let scenario = LiveScenario::from_ipfix(w.bytes.to_vec(), CHUNK);
    let producer_thread = thread::spawn(move || {
        spoofwatch_ixp::run_live_producer(&mut producer, &scenario, &LiveProducerConfig::default())
    });
    let store = CheckpointStore::open(scratch.path("live-ckpt")).expect("open store");
    let mut cfg = LiveServerConfig::new(runner_config());
    cfg.obs = RunnerObs::new(Arc::clone(&live_reg), Tracer::disabled());
    cfg.ladder = Some(LiveLadder::for_window(1 << 20));
    let study = serve_live(&c, &cfg, &store, consumer).expect("live session");
    let stats = producer_thread
        .join()
        .expect("producer thread")
        .expect("producer");
    assert!(stats.finished && stats.acked);
    assert!(study.session.reconciles() && !study.session.producer_lost);

    let live_families = families(&live_reg);
    let expected: BTreeSet<String> = LIVE_FAMILIES.iter().map(|s| s.to_string()).collect();
    assert_eq!(live_families, expected, "live session metric families");
}
