//! Integration coverage for online detection across execution modes:
//! a seeded random→selective spoofing flip mid-trace must yield the
//! same incident set (kind, window index, member attribution) under a
//! single-process file run, kill+resume at every window boundary, a
//! 3-shard run, and live streaming ingest — and rings or checkpoints
//! written before the detect flag-byte existed must load and resume
//! cleanly.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spoofwatch_core::{
    detect_over_windows, read_incident_log, read_ring, serve_live, CheckpointStore, Classifier,
    DetectConfig, IncidentKind, IncidentRecord, LiveLadder, LiveServerConfig, RollupConfig,
    RunnerConfig, RunnerError, ShardConfig, ShardCoordinator, ShardPlan, ShardWorkerConfig,
    SpoofMode, StudyRunner, LIVE_WIRE_MAGIC, SHARD_WIRE_MAGIC,
};
use spoofwatch_internet::{Internet, InternetConfig};
use spoofwatch_ixp::chunked::ChunkedIpfixReader;
use spoofwatch_ixp::{ipfix, LiveProducerConfig, LiveScenario};
use spoofwatch_net::wire::ShardTransport;
use spoofwatch_net::{Asn, FlowRecord, InProcHub, InferenceMethod, OrgMode, Proto};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

/// A unique scratch directory removed on drop so reruns start clean.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "spoofwatch-detect-{}-{tag}-{n}",
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

const CHUNK: usize = 100;
const WINDOW_CHUNKS: u64 = 2;

fn runner_config() -> RunnerConfig {
    RunnerConfig {
        workers: 2,
        queue_depth: 4,
        checkpoint_every: 2,
        stall_timeout_ms: 0,
        track_disagreement: true,
        ..RunnerConfig::default()
    }
}

fn rollup(dir: impl Into<PathBuf>) -> RollupConfig {
    let mut r = RollupConfig::new(dir, WINDOW_CHUNKS);
    r.detect = Some(DetectConfig::default());
    r
}

struct World {
    net: Internet,
    bytes: Arc<Vec<u8>>,
}

/// The scripted pulse-wave trace: 2 calm windows, a randomly spoofed
/// pulse window, a calm window, then a selectively spoofed pulse window
/// whose valid traffic also takes a TTL path change. 10 chunks of 100
/// records — 5 windows.
fn world(seed: u64) -> World {
    let net = Internet::generate(InternetConfig::tiny(seed));
    let classifier = Classifier::build(&net.announcements, &net.orgs_dataset);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31) + 7);
    let mut spaced = Vec::new();
    for &m in &net.ixp_members {
        if net.random_addr_of(&mut rng, m).is_some() {
            spaced.push(m);
            if spaced.len() == 2 {
                break;
            }
        }
    }
    let (member, leaky) = (spaced[0], spaced[1]);
    let victim = 0x0808_0808;

    let mut flows = Vec::new();
    // Windows 0–1: calm with a thin bogon trickle.
    calm_chunks(&mut flows, 4, &net, member, victim, &mut rng);
    // Window 2: the randomly spoofed pulse — uniform random sources,
    // rejection-sampled to ones the monitor can actually tell are
    // spoofed when emitted by `leaky` (addresses inside its customer
    // cone classify Valid and carry no signal).
    for _ in 0..2 * CHUNK {
        if rng.random_bool(0.6) {
            let src = loop {
                let candidate: u32 = rng.random();
                let probe = flow(candidate, victim, leaky, 80, 50, &mut rng);
                if classifier
                    .classify_with_tries(&probe, InferenceMethod::FullCone, OrgMode::OrgAdjusted)
                    .is_illegitimate()
                {
                    break candidate;
                }
            };
            let ttl = 64u8.saturating_sub(rng.random_range(8..24) as u8);
            flows.push(flow(src, victim, leaky, 80, ttl, &mut rng));
        } else {
            let src = net.random_addr_of(&mut rng, member).expect("member space");
            flows.push(flow(src, victim, member, 443, 52 + rng.random_range(0..8) as u8, &mut rng));
        }
    }
    // Window 3: calm again.
    calm_chunks(&mut flows, 2, &net, member, victim, &mut rng);
    // Window 4: the selective pulse — one spoofed /24 with the tool's
    // fixed initial TTL, while the valid path shifts ~34 hops.
    for _ in 0..2 * CHUNK {
        if rng.random_bool(0.6) {
            let src = 0x0A01_0300 + rng.random_range(0..8);
            flows.push(flow(src, victim, leaky, 123, 243, &mut rng));
        } else {
            let src = net.random_addr_of(&mut rng, member).expect("member space");
            flows.push(flow(src, victim, member, 443, 20 + rng.random_range(0..4) as u8, &mut rng));
        }
    }
    let bytes = Arc::new(ipfix::encode(&flows));
    World { net, bytes }
}

fn calm_chunks(
    flows: &mut Vec<FlowRecord>,
    chunks: usize,
    net: &Internet,
    member: Asn,
    victim: u32,
    rng: &mut StdRng,
) {
    for _ in 0..chunks * CHUNK {
        let (src, ttl) = if rng.random_bool(0.02) {
            (0x0A01_0200 + rng.random_range(0..256), 58 + rng.random_range(0..4) as u8)
        } else {
            let src = net.random_addr_of(rng, member).expect("member space");
            (src, 52 + rng.random_range(0..8) as u8)
        };
        flows.push(flow(src, victim, member, 443, ttl, rng));
    }
}

fn flow(src: u32, dst: u32, member: Asn, dport: u16, ttl: u8, rng: &mut StdRng) -> FlowRecord {
    FlowRecord {
        ts: rng.random_range(0..3600),
        src,
        dst,
        proto: Proto::Udp,
        sport: rng.random_range(1025..65000),
        dport,
        packets: 1,
        bytes: 40,
        pkt_size: 40,
        member,
        ttl,
    }
}

/// Byte content of every incident-log file in a ring dir, by name.
fn incident_bytes(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read ring dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("incidents-"))
        })
        .map(|p| {
            (
                p.file_name().expect("name").to_string_lossy().into_owned(),
                std::fs::read(&p).expect("read incident file"),
            )
        })
        .collect();
    out.sort();
    out
}

/// The identity the acceptance criterion names: kind tag, window index,
/// and member attribution (burst member / drift member).
fn triples(records: &[IncidentRecord]) -> Vec<(u64, &'static str, Option<Asn>)> {
    records
        .iter()
        .map(|r| {
            let member = match &r.incident.kind {
                IncidentKind::MemberDrift { member, .. } => Some(*member),
                IncidentKind::SpoofBurst { member, .. } => *member,
                _ => None,
            };
            (r.incident.window_index, r.incident.kind.label(), member)
        })
        .collect()
}

/// The single-process file-replay reference with online detection.
fn reference(w: &World, c: &Classifier, scratch: &Scratch) -> Vec<IncidentRecord> {
    let store = CheckpointStore::open(scratch.path("ref-ckpt")).expect("open store");
    let mut source = ChunkedIpfixReader::new(&w.bytes, CHUNK);
    StudyRunner::new(c, runner_config())
        .with_rollups(rollup(scratch.path("ref-ring")))
        .run(&mut source, &store)
        .expect("reference run");
    let (records, torn) = read_incident_log(&scratch.path("ref-ring")).expect("incident log");
    assert!(torn.is_empty(), "clean reference incident log");
    records
}

#[test]
fn incident_set_is_identical_across_file_resume_shard_and_live() {
    let w = world(81);
    let c = Arc::new(Classifier::build(&w.net.announcements, &w.net.orgs_dataset));
    let scratch = Scratch::new("modes");
    let reference = reference(&w, &c, &scratch);
    let ref_bytes = incident_bytes(&scratch.path("ref-ring"));

    // The flip itself was detected: a Random burst in the first pulse
    // window, a Selective burst in the second, both attributed.
    let ref_triples = triples(&reference);
    let bursts: Vec<_> = reference
        .iter()
        .filter_map(|r| match &r.incident.kind {
            IncidentKind::SpoofBurst { mode, member, .. } => {
                Some((r.incident.window_index, *mode, *member))
            }
            _ => None,
        })
        .collect();
    if bursts.len() != 2 {
        let (ws, _) = read_ring(&scratch.path("ref-ring")).expect("ring");
        for x in &ws {
            let d = x.detect.as_ref().expect("detect");
            eprintln!(
                "window {}: total {} suspect {} bit_e {:.3} classes {:?}",
                x.window_index,
                x.total_flows(),
                d.suspect_flows,
                d.bit_entropy(),
                x.class_flows
            );
        }
    }
    assert_eq!(bursts.len(), 2, "both pulses fired: {bursts:?}");
    assert_eq!((bursts[0].1, bursts[1].1), (SpoofMode::Random, SpoofMode::Selective));
    assert!(bursts[0].0 < bursts[1].0, "random pulse precedes selective");
    assert!(bursts.iter().all(|b| b.2.is_some()), "bursts are attributed");
    assert!(
        reference
            .iter()
            .any(|r| matches!(r.incident.kind, IncidentKind::TtlShift { .. })),
        "the TTL path change fired"
    );
    assert!(
        reference.iter().all(|r| !r.provenance.samples.is_empty()),
        "every incident carries a provenance sample bundle"
    );

    // Kill + resume at every window boundary (and once mid-window):
    // the resumed incident log is byte-identical to the reference's.
    for kill_after in [2u64, 4, 5, 6, 8] {
        let sub = Scratch::new(&format!("resume-{kill_after}"));
        let store = CheckpointStore::open(sub.path("ckpt")).expect("open store");
        let ring = sub.path("ring");
        let mut crash_cfg = runner_config();
        crash_cfg.interrupt_after_chunks = Some(kill_after);
        let mut source = ChunkedIpfixReader::new(&w.bytes, CHUNK);
        match StudyRunner::new(&c, crash_cfg)
            .with_rollups(rollup(&ring))
            .run(&mut source, &store)
        {
            Err(RunnerError::Interrupted { committed_chunks }) => {
                assert_eq!(committed_chunks, kill_after)
            }
            other => panic!("expected interrupt at {kill_after}, got {other:?}"),
        }
        let mut source = ChunkedIpfixReader::new(&w.bytes, CHUNK);
        StudyRunner::new(&c, runner_config())
            .with_rollups(rollup(&ring))
            .run(&mut source, &store)
            .expect("resumed run");
        let (records, torn) = read_incident_log(&ring).expect("incident log");
        assert!(torn.is_empty(), "kill at {kill_after}: clean log");
        assert_eq!(records, reference, "kill at {kill_after}: same incidents");
        assert_eq!(
            incident_bytes(&ring),
            ref_bytes,
            "kill at {kill_after}: byte-identical incident log"
        );
    }

    // 3-shard run: detection over the merged windows is the same pure
    // fold, so the incident set matches the single-process log exactly.
    {
        let sub = Scratch::new("shards");
        let shards = 3u32;
        let hub = Arc::new(InProcHub::new(SHARD_WIRE_MAGIC, 8));
        let spawn_hub = Arc::clone(&hub);
        let spawn_c = Arc::clone(&c);
        let ckpts: Vec<PathBuf> = (0..shards).map(|k| sub.path(&format!("s{k}-ckpt"))).collect();
        let rings: Vec<PathBuf> = (0..shards).map(|k| sub.path(&format!("s{k}-ring"))).collect();
        let cfg = ShardConfig::new(ShardPlan::new(shards, 0x5eed), CHUNK);
        let merged = ShardCoordinator::new(&w.bytes, cfg)
            .run(hub.as_ref(), &move |k| {
                let transport = spawn_hub.connect().expect("hub connect");
                let classifier = Arc::clone(&spawn_c);
                let store_dir = ckpts[k as usize].clone();
                let ring_dir = rings[k as usize].clone();
                thread::spawn(move || {
                    let mut wc = ShardWorkerConfig::new(k, runner_config());
                    wc.rollup = Some(rollup(&ring_dir));
                    let store = CheckpointStore::open(&store_dir).expect("open store");
                    let _ = spoofwatch_core::serve_shard(&classifier, &wc, &store, transport);
                });
            })
            .expect("3-shard run");
        assert!(merged.shards.iter().all(|s| s.completed));
        let mut windows = merged.windows.clone();
        windows.sort_by_key(|x| x.window_index);
        let shard_records = detect_over_windows(&windows, &DetectConfig::default());
        assert_eq!(shard_records, reference, "3-shard incidents match");
        assert_eq!(triples(&shard_records), ref_triples);
    }

    // Live streaming ingest: same chunking over a socket; the incident
    // log written by the live session is byte-identical too.
    {
        let sub = Scratch::new("live");
        let (consumer, producer) = ShardTransport::channel_pair(LIVE_WIRE_MAGIC, 64);
        let bytes = Arc::clone(&w.bytes);
        let producer_thread = thread::spawn(move || {
            let scenario = LiveScenario::from_ipfix(bytes.to_vec(), CHUNK);
            let mut transport = producer;
            spoofwatch_ixp::run_live_producer(
                &mut transport,
                &scenario,
                &LiveProducerConfig {
                    target_records_per_sec: 0,
                    ..LiveProducerConfig::default()
                },
            )
        });
        let store = CheckpointStore::open(sub.path("ckpt")).expect("open store");
        let ring = sub.path("ring");
        let mut cfg = LiveServerConfig::new(runner_config());
        cfg.rollup = Some(rollup(&ring));
        cfg.ladder = Some(LiveLadder::for_window(1 << 20));
        serve_live(&c, &cfg, &store, consumer).expect("live session");
        let stats = producer_thread
            .join()
            .expect("producer thread")
            .expect("producer result");
        assert!(stats.finished && stats.acked);
        let (records, torn) = read_incident_log(&ring).expect("incident log");
        assert!(torn.is_empty(), "clean live incident log");
        assert_eq!(records, reference, "live incidents match");
        assert_eq!(incident_bytes(&ring), ref_bytes, "byte-identical live log");
    }
}

/// Rings and checkpoints written before the detect flag-byte existed
/// (their on-disk encoding is exactly what today's writer emits with
/// detection off) must load and resume cleanly — including flipping
/// detection ON at resume time.
#[test]
fn pre_detect_rings_and_checkpoints_upgrade_cleanly() {
    let w = world(82);
    let c = Classifier::build(&w.net.announcements, &w.net.orgs_dataset);
    let scratch = Scratch::new("upgrade");
    let store = CheckpointStore::open(scratch.path("ckpt")).expect("open store");
    let ring = scratch.path("ring");

    // Session 1 writes the pre-detect format: no detect payloads, so
    // every window file and the checkpointed accumulator carry only the
    // disagreement bit — byte-for-byte the old layout. Killed
    // mid-window, leaving a partially accumulated window behind.
    let mut old_cfg = runner_config();
    old_cfg.interrupt_after_chunks = Some(2);
    let mut source = ChunkedIpfixReader::new(&w.bytes, CHUNK);
    match StudyRunner::new(&c, old_cfg)
        .with_rollups(RollupConfig::new(&ring, WINDOW_CHUNKS))
        .run(&mut source, &store)
    {
        Err(RunnerError::Interrupted { committed_chunks }) => assert_eq!(committed_chunks, 2),
        other => panic!("expected interrupt, got {other:?}"),
    }
    let (old_windows, torn) = read_ring(&ring).expect("old-format ring reads");
    assert!(torn.is_empty());
    assert!(!old_windows.is_empty());
    assert!(
        old_windows.iter().all(|x| x.detect.is_none() && x.disagreement.is_some()),
        "session 1 wrote the pre-detect layout"
    );

    // Session 2 resumes the same store and ring with detection enabled:
    // the old windows decode, the old checkpoint loads, and detection
    // picks up from the resume point — both pulses still land after the
    // upgrade, so the flip is still fully discriminated.
    let mut source = ChunkedIpfixReader::new(&w.bytes, CHUNK);
    StudyRunner::new(&c, runner_config())
        .with_rollups(rollup(&ring))
        .run(&mut source, &store)
        .expect("upgraded resume");
    let (windows, torn) = read_ring(&ring).expect("upgraded ring reads");
    assert!(torn.is_empty(), "no torn windows after the upgrade");
    assert_eq!(windows.len(), 5, "the run completed all windows");
    assert!(
        windows.iter().filter(|x| x.window_index >= 1).all(|x| x.detect.is_some()),
        "windows closed after the upgrade carry detect payloads"
    );
    assert!(
        windows.iter().filter(|x| x.window_index < 1).all(|x| x.detect.is_none()),
        "windows closed before the upgrade keep the old layout"
    );
    let (records, torn) = read_incident_log(&ring).expect("incident log reads");
    assert!(torn.is_empty());
    for want in [SpoofMode::Random, SpoofMode::Selective] {
        assert!(
            records.iter().any(|r| matches!(
                &r.incident.kind,
                IncidentKind::SpoofBurst { mode, .. } if *mode == want
            )),
            "post-upgrade windows discriminate {want:?}: {records:?}"
        );
    }

    // A mid-window upgrade: the killed session leaves a half-built
    // window in the checkpoint with no detect payload; the resumed
    // session accumulates detect for its remaining chunks. The window
    // closes as a partial payload — no crash, no torn files. Checkpoint
    // every chunk so the resume point really is inside window 2.
    let sub = Scratch::new("upgrade-midwindow");
    let store = CheckpointStore::open(sub.path("ckpt")).expect("open store");
    let ring = sub.path("ring");
    let mut old_cfg = runner_config();
    old_cfg.checkpoint_every = 1;
    old_cfg.interrupt_after_chunks = Some(5);
    let mut source = ChunkedIpfixReader::new(&w.bytes, CHUNK);
    match StudyRunner::new(&c, old_cfg)
        .with_rollups(RollupConfig::new(&ring, WINDOW_CHUNKS))
        .run(&mut source, &store)
    {
        Err(RunnerError::Interrupted { committed_chunks }) => assert_eq!(committed_chunks, 5),
        other => panic!("expected interrupt, got {other:?}"),
    }
    let mut upgraded_cfg = runner_config();
    upgraded_cfg.checkpoint_every = 1;
    let mut source = ChunkedIpfixReader::new(&w.bytes, CHUNK);
    StudyRunner::new(&c, upgraded_cfg)
        .with_rollups(rollup(&ring))
        .run(&mut source, &store)
        .expect("mid-window upgraded resume");
    let (windows, torn) = read_ring(&ring).expect("ring reads");
    assert!(torn.is_empty());
    assert_eq!(windows.len(), 5);
    let split = windows.iter().find(|x| x.window_index == 2).expect("window 2");
    let d = split.detect.as_ref().expect("the upgrade window has a partial payload");
    let detected: u64 = d.per_member.values().map(|r| r.iter().sum::<u64>()).sum();
    assert!(
        detected > 0 && detected < split.total_flows(),
        "only the post-upgrade chunks were detect-accumulated \
         ({detected} of {} flows)",
        split.total_flows()
    );
    let (_, torn) = read_incident_log(&ring).expect("incident log reads");
    assert!(torn.is_empty());
}
