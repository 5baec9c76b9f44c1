//! Integration coverage for the sharded multi-node study: bit-identity
//! of the merged result against a single-node run (in-process and UDS
//! transports), loud rejection of re-sharded resumes, chaos recovery
//! from worker deaths at every protocol state and from wire-level
//! corruption, and graceful degradation when a shard is lost past its
//! retry budget.

use spoofwatch_core::{
    read_ring, CheckpointStore, Classifier, DeathPoint, LossAccounting, RollupConfig, RunReport,
    RunnerConfig, RunnerObs, ShardConfig, ShardCoordinator, ShardError, ShardPlan, ShardStudyReport,
    ShardWorkerConfig, StudyRunner, WindowAccum, SHARD_WIRE_MAGIC,
};
use spoofwatch_internet::{Internet, InternetConfig};
use spoofwatch_ixp::chunked::ChunkedIpfixReader;
use spoofwatch_ixp::{ipfix, Trace, TrafficConfig};
use spoofwatch_net::wire::{ShardEndpoint, ShardTransport};
use spoofwatch_net::{InProcHub, WireFaultInjector};
use spoofwatch_obs::{MetricsRegistry, Tracer};
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A unique scratch directory removed on drop so reruns start clean.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "spoofwatch-shard-{}-{tag}-{n}",
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

/// The single-node reference run: same runner config, same chunking,
/// same rollup geometry. Returns the report and the ring windows.
fn single_node(w: &World, c: &Classifier, scratch: &Scratch) -> (RunReport, Vec<WindowAccum>) {
    let store = CheckpointStore::open(scratch.path("single-ckpt")).expect("open store");
    let ring = scratch.path("single-ring");
    let mut source = ChunkedIpfixReader::new(&w.bytes, CHUNK);
    let report = StudyRunner::new(c, runner_config())
        .with_rollups(RollupConfig::new(&ring, WINDOW_CHUNKS))
        .run(&mut source, &store)
        .expect("single-node run");
    let (windows, faults) = read_ring(&ring).expect("read ring");
    assert!(faults.is_empty(), "clean single-node ring");
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

/// Assert the merged shard report equals the single-node reference
/// bit-for-bit: breakdown, ingest totals, disagreement matrix, record
/// accounting, and every rollup window's encoded bytes.
fn assert_bit_identical(merged: &ShardStudyReport, single: &RunReport, single_windows: &[WindowAccum]) {
    assert_eq!(merged.breakdown, single.breakdown, "per-member breakdown");
    assert_eq!(merged.ingest, single.ingest, "ingest totals");
    assert_eq!(
        merged.disagreement, single.disagreement,
        "disagreement matrix"
    );
    assert_eq!(
        merged.records,
        LossAccounting {
            offered: single.health.records.offered,
            processed: single.health.records.processed,
            shed: single.health.records.shed,
            quarantined: single.health.records.quarantined,
            lost: 0,
        },
        "record accounting"
    );
    assert!(merged.records.reconciles() && merged.chunks.reconciles());
    assert_eq!(
        window_bytes(&merged.windows),
        window_bytes(single_windows),
        "rollup window bytes"
    );
    assert!(!merged.degraded());
    assert!(merged.caveats().is_empty());
}

/// Per-shard worker state that survives respawns: checkpoint store
/// directory and rollup ring directory.
struct WorkerWorld {
    classifier: Arc<Classifier>,
    scratch_ckpt: Vec<PathBuf>,
    scratch_ring: Vec<PathBuf>,
}

impl WorkerWorld {
    fn new(classifier: Arc<Classifier>, scratch: &Scratch, shards: u32) -> Arc<WorkerWorld> {
        Arc::new(WorkerWorld {
            classifier,
            scratch_ckpt: (0..shards)
                .map(|k| scratch.path(&format!("shard{k}-ckpt")))
                .collect(),
            scratch_ring: (0..shards)
                .map(|k| scratch.path(&format!("shard{k}-ring")))
                .collect(),
        })
    }

    fn worker_config(&self, shard_id: u32, die_at: Option<DeathPoint>) -> ShardWorkerConfig {
        let mut cfg = ShardWorkerConfig::new(shard_id, runner_config());
        cfg.rollup = Some(RollupConfig::new(
            &self.scratch_ring[shard_id as usize],
            WINDOW_CHUNKS,
        ));
        cfg.heartbeat_ms = 20;
        cfg.chunk_timeout_ms = 100;
        cfg.die_at = die_at;
        cfg
    }

    /// Launch a detached worker thread serving `shard_id` over
    /// `transport`. Failures other than planned deaths and mid-run
    /// disconnects panic the worker thread, which surfaces as a shard
    /// death at the coordinator.
    fn launch(self: &Arc<Self>, shard_id: u32, transport: ShardTransport, die_at: Option<DeathPoint>) {
        let this = Arc::clone(self);
        std::thread::spawn(move || {
            let cfg = this.worker_config(shard_id, die_at);
            let store =
                CheckpointStore::open(&this.scratch_ckpt[shard_id as usize]).expect("open store");
            let _ = spoofwatch_core::serve_shard(&this.classifier, &cfg, &store, transport);
        });
    }
}

fn shard_config(shards: u32) -> ShardConfig {
    let mut cfg = ShardConfig::new(ShardPlan::new(shards, 0x5eed), CHUNK);
    cfg.liveness_timeout_ms = 2_000;
    cfg.handshake_timeout_ms = 1_000;
    cfg.backoff_base_ms = 5;
    cfg.backoff_max_ms = 40;
    cfg.retry_budget = 3;
    cfg
}

#[test]
fn in_proc_sharding_is_bit_identical_for_1_2_4_shards() {
    let w = world(61);
    let c = Arc::new(Classifier::build(&w.net.announcements, &w.net.orgs_dataset));
    let scratch = Scratch::new("inproc");
    let (single, single_windows) = single_node(&w, &c, &scratch);

    for shards in [1u32, 2, 4] {
        let sub = Scratch::new(&format!("inproc-{shards}"));
        let workers = WorkerWorld::new(Arc::clone(&c), &sub, shards);
        let hub = Arc::new(InProcHub::new(SHARD_WIRE_MAGIC, 8));
        let spawn_hub = Arc::clone(&hub);
        let spawn_workers = Arc::clone(&workers);
        let coordinator = ShardCoordinator::new(&w.bytes, shard_config(shards));
        let merged = coordinator
            .run(hub.as_ref(), &move |k| {
                let transport = spawn_hub.connect().expect("hub connect");
                spawn_workers.launch(k, transport, None);
            })
            .expect("sharded run");
        assert_eq!(merged.shards.len(), shards as usize);
        assert!(merged.shards.iter().all(|s| s.completed && s.deaths == 0));
        assert_bit_identical(&merged, &single, &single_windows);
    }
}

/// The connection router polls the endpoint in 25 ms slices and is
/// joined when the run ends; it used to sit in one of those polls with
/// every shard long connected, so every sharded run ended by waiting
/// one out (a 1-chunk study took 25.3 ms whatever the host). It now
/// polls only while a supervisor wants a connection: once the one
/// shard's connection is routed, the endpoint is never asked again.
#[test]
fn router_polls_only_while_a_supervisor_wants_a_connection() {
    struct CountingEndpoint {
        hub: InProcHub,
        accepted: AtomicU64,
        polls_after_accept: AtomicU64,
    }
    impl ShardEndpoint for CountingEndpoint {
        fn accept(&self, timeout: Duration) -> io::Result<Option<ShardTransport>> {
            if self.accepted.load(Ordering::SeqCst) > 0 {
                self.polls_after_accept.fetch_add(1, Ordering::SeqCst);
            }
            let conn = self.hub.accept(timeout)?;
            self.accepted.fetch_add(conn.is_some() as u64, Ordering::SeqCst);
            Ok(conn)
        }
    }

    let w = world(69);
    let c = Arc::new(Classifier::build(&w.net.announcements, &w.net.orgs_dataset));
    let scratch = Scratch::new("router-join");
    let workers = WorkerWorld::new(Arc::clone(&c), &scratch, 1);
    let endpoint = Arc::new(CountingEndpoint {
        hub: InProcHub::new(SHARD_WIRE_MAGIC, 8),
        accepted: AtomicU64::new(0),
        polls_after_accept: AtomicU64::new(0),
    });
    let spawn_endpoint = Arc::clone(&endpoint);
    let merged = ShardCoordinator::new(&w.bytes, shard_config(1))
        .run(endpoint.as_ref(), &move |k| {
            let transport = spawn_endpoint.hub.connect().expect("hub connect");
            workers.launch(k, transport, None);
        })
        .expect("sharded run");
    assert!(merged.shards[0].completed && merged.shards[0].deaths == 0);
    assert_eq!(endpoint.accepted.load(Ordering::SeqCst), 1);
    assert_eq!(endpoint.polls_after_accept.load(Ordering::SeqCst), 0);
}

#[cfg(unix)]
#[test]
fn uds_sharding_is_bit_identical() {
    use spoofwatch_net::UdsEndpoint;

    let w = world(62);
    let c = Arc::new(Classifier::build(&w.net.announcements, &w.net.orgs_dataset));
    let scratch = Scratch::new("uds");
    let (single, single_windows) = single_node(&w, &c, &scratch);

    let shards = 3u32;
    let workers = WorkerWorld::new(Arc::clone(&c), &scratch, shards);
    let sock = scratch.path("coordinator.sock");
    let endpoint = UdsEndpoint::bind(&sock, SHARD_WIRE_MAGIC).expect("bind uds");
    let coordinator = ShardCoordinator::new(&w.bytes, shard_config(shards));
    let spawn_workers = Arc::clone(&workers);
    let spawn_sock = sock.clone();
    let merged = coordinator
        .run(&endpoint, &move |k| {
            let transport =
                UdsEndpoint::connect(&spawn_sock, SHARD_WIRE_MAGIC).expect("uds connect");
            spawn_workers.launch(k, transport, None);
        })
        .expect("uds sharded run");
    assert!(merged.shards.iter().all(|s| s.completed));
    assert_bit_identical(&merged, &single, &single_windows);
}

#[test]
fn resharded_resume_is_rejected_loudly() {
    let w = world(63);
    let c = Arc::new(Classifier::build(&w.net.announcements, &w.net.orgs_dataset));
    let scratch = Scratch::new("reshard");

    // Complete a 2-shard study, leaving per-shard checkpoints behind.
    let workers = WorkerWorld::new(Arc::clone(&c), &scratch, 2);
    let hub = Arc::new(InProcHub::new(SHARD_WIRE_MAGIC, 8));
    let spawn_hub = Arc::clone(&hub);
    let spawn_workers = Arc::clone(&workers);
    ShardCoordinator::new(&w.bytes, shard_config(2))
        .run(hub.as_ref(), &move |k| {
            let transport = spawn_hub.connect().expect("hub connect");
            spawn_workers.launch(k, transport, None);
        })
        .expect("2-shard run");

    // Re-run as a 3-shard study reusing shard 0's and 1's stores: the
    // workers' checkpoints are bound to the 2-shard plan, so resuming
    // under the 3-shard plan must fail loudly, not merge mismatched
    // partitions.
    let hub = Arc::new(InProcHub::new(SHARD_WIRE_MAGIC, 8));
    let spawn_hub = Arc::clone(&hub);
    let spawn_workers = Arc::clone(&workers); // same store dirs, plan now differs
    let err = ShardCoordinator::new(&w.bytes, shard_config(3))
        .run(hub.as_ref(), &move |k| {
            let transport = spawn_hub.connect().expect("hub connect");
            // Shard 2 has a fresh store; 0 and 1 resume stale ones.
            spawn_workers.launch(k.min(1), transport, None);
        })
        .expect_err("re-sharded resume must be rejected");
    match err {
        ShardError::PlanRejected { detail, .. } => {
            assert!(
                detail.contains("config"),
                "diagnostic should name the config mismatch: {detail}"
            );
        }
        other => panic!("expected PlanRejected, got {other}"),
    }
}

#[test]
fn chaos_deaths_at_every_protocol_state_recover_bit_identically() {
    let w = world(64);
    let c = Arc::new(Classifier::build(&w.net.announcements, &w.net.orgs_dataset));
    let scratch = Scratch::new("chaos");
    let (single, single_windows) = single_node(&w, &c, &scratch);

    let shards = 2u32;
    let workers = WorkerWorld::new(Arc::clone(&c), &scratch, shards);
    let hub = Arc::new(InProcHub::new(SHARD_WIRE_MAGIC, 8));

    // Each shard dies once in every protocol state, in order, then
    // completes: before identifying, right after the handshake, twice
    // mid-stream, and after completing but before reporting.
    let deaths = || {
        vec![
            Some(DeathPoint::BeforeHello),
            Some(DeathPoint::AfterHello),
            Some(DeathPoint::AfterChunks(2)),
            Some(DeathPoint::AfterChunks(5)),
            Some(DeathPoint::BeforeReport),
            None,
        ]
    };
    let schedules: Vec<Mutex<Vec<Option<DeathPoint>>>> =
        (0..shards).map(|_| Mutex::new(deaths())).collect();
    let schedules = Arc::new(schedules);

    let mut cfg = shard_config(shards);
    cfg.retry_budget = 8;
    cfg.liveness_timeout_ms = 1_000;
    let reg = MetricsRegistry::new();
    let tracer = Tracer::with_capacity(4_096);
    let obs = RunnerObs::new(reg.clone(), tracer.clone());
    let spawn_hub = Arc::clone(&hub);
    let spawn_workers = Arc::clone(&workers);
    let spawn_schedules = Arc::clone(&schedules);
    let merged = ShardCoordinator::new(&w.bytes, cfg)
        .with_obs(obs)
        .run(hub.as_ref(), &move |k| {
            let die_at = {
                let mut sched = spawn_schedules[k as usize]
                    .lock()
                    .unwrap_or_else(|p| p.into_inner());
                if sched.is_empty() {
                    None
                } else {
                    sched.remove(0)
                }
            };
            let transport = spawn_hub.connect().expect("hub connect");
            spawn_workers.launch(k, transport, die_at);
        })
        .expect("chaos run completes");

    // Every shard survived its five deaths and completed.
    for s in &merged.shards {
        assert!(s.completed && !s.lost, "shard {} outcome: {s:?}", s.shard_id);
        assert_eq!(s.deaths, 5, "shard {} death count", s.shard_id);
    }
    assert_bit_identical(&merged, &single, &single_windows);

    // The control plane surfaced the deaths through telemetry.
    let snap = reg.snapshot();
    assert_eq!(
        snap.counter_sum("spoofwatch_shard_reconnects_total"),
        (merged.shards.len() as u64) * 5,
    );
    let (events, _) = tracer.events();
    assert!(events.iter().any(|e| e.name == "shard_dead"));
    assert!(events.iter().any(|e| e.name == "shard_resumed"));
}

/// An endpoint fed by a test-side queue of pre-built transports, so a
/// byte-mangling interposer can sit on the wire.
struct QueueEndpoint(Mutex<mpsc::Receiver<ShardTransport>>);

impl ShardEndpoint for QueueEndpoint {
    fn accept(&self, timeout: Duration) -> io::Result<Option<ShardTransport>> {
        let rx = self.0.lock().unwrap_or_else(|p| p.into_inner());
        match rx.recv_timeout(timeout) {
            Ok(t) => Ok(Some(t)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => {
                Err(io::Error::other("endpoint queue closed"))
            }
        }
    }
}

/// Build a coordinator↔worker transport pair whose coordinator→worker
/// byte stream passes through a deterministic mangler: frames are
/// re-segmented, and periodically bit-flipped or dropped outright. The
/// worker side must recover every time via CRC resync plus go-back-N.
fn mangled_pair(seed: u64) -> (ShardTransport, ShardTransport) {
    let (c2w_tx, c2w_rx) = mpsc::sync_channel::<Vec<u8>>(64);
    let (mangled_tx, mangled_rx) = mpsc::sync_channel::<Vec<u8>>(64);
    let (w2c_tx, w2c_rx) = mpsc::sync_channel::<Vec<u8>>(64);
    let coordinator = ShardTransport::from_channel(SHARD_WIRE_MAGIC, c2w_tx, w2c_rx);
    let worker = ShardTransport::from_channel(SHARD_WIRE_MAGIC, w2c_tx, mangled_rx);
    std::thread::spawn(move || {
        let mut injector = WireFaultInjector::new(seed);
        let mut frame_idx: u64 = 0;
        while let Ok(mut frame) = c2w_rx.recv() {
            frame_idx += 1;
            // Leave the Welcome alone so the handshake always lands;
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
    (coordinator, worker)
}

#[test]
fn wire_corruption_recovers_via_resync_and_retransmission() {
    let w = world(65);
    let c = Arc::new(Classifier::build(&w.net.announcements, &w.net.orgs_dataset));
    let scratch = Scratch::new("mangle");
    let (single, single_windows) = single_node(&w, &c, &scratch);

    let shards = 2u32;
    let workers = WorkerWorld::new(Arc::clone(&c), &scratch, shards);
    let (queue_tx, queue_rx) = mpsc::channel::<ShardTransport>();
    let endpoint = QueueEndpoint(Mutex::new(queue_rx));
    let queue_tx: SyncSender<ShardTransport> = {
        // Wrap the plain sender so the spawn closure can own a clone.
        let (wrap_tx, wrap_rx) = mpsc::sync_channel::<ShardTransport>(8);
        std::thread::spawn(move || {
            while let Ok(t) = wrap_rx.recv() {
                if queue_tx.send(t).is_err() {
                    return;
                }
            }
        });
        wrap_tx
    };

    let mut cfg = shard_config(shards);
    cfg.retry_budget = 10;
    let reg = MetricsRegistry::new();
    let obs = RunnerObs::new(reg.clone(), Tracer::disabled());
    let spawn_workers = Arc::clone(&workers);
    let attempt = AtomicU64::new(0);
    let merged = ShardCoordinator::new(&w.bytes, cfg)
        .with_obs(obs)
        .run(&endpoint, &move |k| {
            let n = attempt.fetch_add(1, Ordering::Relaxed);
            let (coordinator_side, worker_side) = mangled_pair(900 + n);
            queue_tx.send(coordinator_side).expect("queue transport");
            spawn_workers.launch(k, worker_side, None);
        })
        .expect("mangled run completes");
    assert!(merged.shards.iter().all(|s| s.completed && !s.lost));
    assert_bit_identical(&merged, &single, &single_windows);

    // The damage was real: the transports logged resync episodes and
    // the workers requested retransmission.
    let snap = reg.snapshot();
    assert!(
        snap.counter_sum("spoofwatch_shard_chunks_sent_total")
            > single.health.chunks.offered * shards as u64,
        "corruption must have forced retransmissions"
    );
}

/// A shard that closes a few hundred windows used to put its whole
/// ring into the one `Report` frame; past the link's 4 MiB frame cap
/// the coordinator could never receive it and the study lost every
/// record. The ring now travels in bounded `ReportWindows` batches.
#[test]
fn ring_larger_than_one_frame_reports_in_batches() {
    use spoofwatch_core::DetectConfig;
    use spoofwatch_net::wire::DEFAULT_MAX_FRAME;
    use spoofwatch_net::{Asn, FlowRecord, Proto};

    const WINDOWS: u32 = 310;
    // One chunk per window, every record from a different member: the
    // detection payload's per-member table makes each window ~15 KB on
    // a shard that owns half the flows.
    const MEMBERS: u32 = 720;
    let w = world(67);
    let c = Arc::new(Classifier::build(&w.net.announcements, &w.net.orgs_dataset));
    let flows: Vec<FlowRecord> = (0..WINDOWS * MEMBERS)
        .map(|i| FlowRecord {
            ts: i / MEMBERS,
            src: i.wrapping_mul(2_654_435_761),
            dst: 0xC0A8_0001,
            proto: Proto::Udp,
            sport: (i % 50_000) as u16,
            dport: 53,
            packets: 1,
            bytes: 60,
            pkt_size: 60,
            member: Asn(100_000 + i % MEMBERS),
            ttl: 57,
        })
        .collect();
    let bytes = ipfix::encode(&flows);
    let chunk_records = MEMBERS as usize;
    // Few checkpoints and one classify variant: the ring is the subject.
    let runner = || RunnerConfig {
        checkpoint_every: 64,
        track_disagreement: false,
        ..runner_config()
    };
    let rollup = |dir: PathBuf| {
        let mut r = RollupConfig::new(dir, 1);
        r.detect = Some(DetectConfig::default());
        r
    };

    let scratch = Scratch::new("big-ring");
    let store = CheckpointStore::open(scratch.path("single-ckpt")).expect("open store");
    let single = StudyRunner::new(&c, runner())
        .with_rollups(rollup(scratch.path("single-ring")))
        .run(&mut ChunkedIpfixReader::new(&bytes, chunk_records), &store)
        .expect("single-node run");
    let (single_windows, faults) = read_ring(&scratch.path("single-ring")).expect("read ring");
    assert!(faults.is_empty());
    assert_eq!(single_windows.len(), WINDOWS as usize);

    let shards = 2u32;
    let hub = Arc::new(InProcHub::new(SHARD_WIRE_MAGIC, 8));
    let spawn_hub = Arc::clone(&hub);
    let spawn_c = Arc::clone(&c);
    let ckpt_dirs: Vec<PathBuf> = (0..shards).map(|k| scratch.path(&format!("s{k}-ckpt"))).collect();
    let ring_dirs: Vec<PathBuf> = (0..shards).map(|k| scratch.path(&format!("s{k}-ring"))).collect();
    let spawn_rings = ring_dirs.clone();
    let mut cfg = ShardConfig::new(ShardPlan::new(shards, 0x5eed), chunk_records);
    cfg.retry_budget = 0;
    let merged = ShardCoordinator::new(&bytes, cfg)
        .run(hub.as_ref(), &move |k| {
            let transport = spawn_hub.connect().expect("hub connect");
            let mut worker = ShardWorkerConfig::new(k, runner());
            worker.rollup = Some(rollup(spawn_rings[k as usize].clone()));
            let store = CheckpointStore::open(&ckpt_dirs[k as usize]).expect("open store");
            let c = Arc::clone(&spawn_c);
            std::thread::spawn(move || {
                spoofwatch_core::serve_shard(&c, &worker, &store, transport).expect("shard serves")
            });
        })
        .expect("sharded run");

    // The premise: each shard's ring would not have fit one frame.
    for dir in &ring_dirs {
        let (ring, _) = read_ring(dir).expect("read shard ring");
        assert!(ring.len() >= 300, "{} windows", ring.len());
        let ring_bytes: usize = window_bytes(&ring).values().map(Vec::len).sum();
        assert!(ring_bytes > DEFAULT_MAX_FRAME, "shard ring is only {ring_bytes} bytes");
    }
    for s in &merged.shards {
        assert!(s.completed && !s.lost, "{s:?}");
        assert_eq!((s.deaths, s.wire_faults), (0, 0), "{s:?}");
    }
    assert_bit_identical(&merged, &single, &single_windows);
}

/// A `ReportWindows` batch lost on the way leaves the coordinator with
/// a partial ring. It must not merge it: the count in `Report` exposes
/// the gap, the connection is declared dead, and the respawned worker
/// re-sends the whole ring from its terminal checkpoint.
#[test]
fn partial_window_set_is_discarded_and_resent() {
    use spoofwatch_net::wire::ShardTx;

    /// Swallows the first `ReportWindows` payload (message tag 9).
    struct DropOneWindowBatch {
        inner: Box<dyn ShardTx>,
        dropped: Arc<AtomicU64>,
    }
    impl ShardTx for DropOneWindowBatch {
        fn send(&mut self, payload: &[u8]) -> io::Result<()> {
            if payload.first() == Some(&9) && self.dropped.fetch_add(1, Ordering::Relaxed) == 0 {
                return Ok(());
            }
            self.inner.send(payload)
        }
    }

    let w = world(68);
    let c = Arc::new(Classifier::build(&w.net.announcements, &w.net.orgs_dataset));
    let scratch = Scratch::new("partial-ring");
    let (single, single_windows) = single_node(&w, &c, &scratch);

    let shards = 2u32;
    let workers = WorkerWorld::new(Arc::clone(&c), &scratch, shards);
    let hub = Arc::new(InProcHub::new(SHARD_WIRE_MAGIC, 8));
    let spawn_hub = Arc::clone(&hub);
    let spawn_workers = Arc::clone(&workers);
    let dropped = Arc::new(AtomicU64::new(0));
    let spawn_dropped = Arc::clone(&dropped);
    let merged = ShardCoordinator::new(&w.bytes, shard_config(shards))
        .run(hub.as_ref(), &move |k| {
            let mut transport = spawn_hub.connect().expect("hub connect");
            if k == 0 {
                let (tx, rx) = transport.split();
                transport = ShardTransport::from_halves(
                    Box::new(DropOneWindowBatch {
                        inner: tx,
                        dropped: Arc::clone(&spawn_dropped),
                    }),
                    rx,
                );
            }
            spawn_workers.launch(k, transport, None);
        })
        .expect("sharded run");
    assert!(dropped.load(Ordering::Relaxed) >= 2, "a batch was dropped, then re-sent");
    assert_eq!(merged.shards[0].deaths, 1, "the partial set killed the connection");
    assert_eq!(merged.shards[1].deaths, 0);
    assert!(merged.shards.iter().all(|s| s.completed && s.wire_faults == 0));
    assert_bit_identical(&merged, &single, &single_windows);
}

#[test]
fn lost_shard_degrades_gracefully_with_exact_accounting() {
    let w = world(66);
    let c = Arc::new(Classifier::build(&w.net.announcements, &w.net.orgs_dataset));
    let scratch = Scratch::new("lost");
    let (single, _) = single_node(&w, &c, &scratch);

    let shards = 2u32;
    let workers = WorkerWorld::new(Arc::clone(&c), &scratch, shards);
    let hub = Arc::new(InProcHub::new(SHARD_WIRE_MAGIC, 8));
    let mut cfg = shard_config(shards);
    cfg.retry_budget = 1;
    let reg = MetricsRegistry::new();
    let tracer = Tracer::with_capacity(1_024);
    let obs = RunnerObs::new(reg.clone(), tracer.clone());
    let spawn_hub = Arc::clone(&hub);
    let spawn_workers = Arc::clone(&workers);
    let merged = ShardCoordinator::new(&w.bytes, cfg)
        .with_obs(obs)
        .run(hub.as_ref(), &move |k| {
            let transport = spawn_hub.connect().expect("hub connect");
            // Shard 1 dies mid-stream on every attempt and is lost.
            let die_at = (k == 1).then_some(DeathPoint::AfterChunks(2));
            spawn_workers.launch(k, transport, die_at);
        })
        .expect("degraded run still completes");

    assert!(merged.degraded());
    assert_eq!(merged.lost_shards(), 1);
    let lost = merged.shards.iter().find(|s| s.lost).expect("lost shard");
    assert_eq!(lost.shard_id, 1);

    // The extended invariant holds at record and sub-chunk level, and
    // the books cover the whole trace: survivors' processed plus the
    // lost partition equals the single-node offer.
    assert!(merged.records.reconciles(), "records: {:?}", merged.records);
    assert!(merged.chunks.reconciles(), "chunks: {:?}", merged.chunks);
    assert_eq!(merged.records.offered, single.health.records.offered);
    assert!(merged.records.lost > 0);
    assert_eq!(
        merged.records.processed + merged.records.shed + merged.records.quarantined,
        merged.records.offered - merged.records.lost,
    );
    assert_eq!(
        merged.chunks.offered,
        single.health.chunks.offered * shards as u64,
    );

    // The degradation is loud: caveats, a lost-shard counter, and a
    // flight-recorder dump.
    let caveats = merged.caveats();
    assert!(caveats.iter().any(|c| c.contains("shard 1/2 was lost")));
    assert!(caveats.iter().any(|c| c.contains("PARTIAL")));
    let snap = reg.snapshot();
    assert_eq!(
        snap.counter("spoofwatch_shard_lost_total", &[("shard", "1")]),
        Some(1),
    );
    assert_eq!(tracer.dump_count(), 1, "shard loss triggers a dump");
    let (events, _) = tracer.events();
    assert!(events.iter().any(|e| e.name == "shard_lost"));
}
