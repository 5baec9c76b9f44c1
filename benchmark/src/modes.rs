//! One repetition of one workload: the mode's public entry point, timed
//! from call to return (fingerprint pass, final flush and terminal
//! checkpoint included), plus everything the output checks need.
//!
//! Links are in-process channels through the full frame codec; no
//! socket is involved in any mode.

use crate::inputs::Input;
use crate::spec::{Mode, WorkloadSpec};
use crate::stats::{sampled, Sample};
use crate::taps::{tap, BusyNs, LinkStats, TappedHub, TimedSource};
use spoofwatch_core::{
    detect_over_windows, read_incident_log, read_ring, serve_live, serve_live_with, serve_shard,
    CheckpointStore, Classifier, DetectConfig, IncidentRecord, IngestTotals, LiveLadder,
    LiveServerConfig, MemberBreakdown, RollupConfig, RunReport, RunnerConfig, ShardConfig,
    ShardCoordinator, ShardPlan, ShardWorkerConfig, StudyRunner, WindowAccum, LIVE_WIRE_MAGIC,
    SHARD_WIRE_MAGIC,
};
use spoofwatch_ixp::chunked::ChunkedIpfixReader;
use spoofwatch_ixp::{run_live_producer, LiveProducerConfig, LiveScenario};
use spoofwatch_net::wire::{ShardEndpoint, ShardTransport};
use spoofwatch_net::{FlowRecord, InProcHub, TrafficClass};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Depth of the in-process shard links, in frames per direction.
const SHARD_LINK_DEPTH: usize = 16;
/// Depth of the in-process live link, in frames per direction.
const LIVE_LINK_DEPTH: usize = 64;
/// Admission window of the live consumer, in chunks.
const LIVE_WINDOW: usize = 16;
/// Shards (and `serve_shard` threads) in the sharded mode.
pub const SHARDS: u32 = 2;

/// What stays fixed across the repetitions of one invocation.
pub struct Ctx<'a> {
    pub classifier: &'a Classifier,
    pub seed: u64,
    /// Classify workers of the file and live runners; each shard runs 1.
    pub workers: usize,
}

/// Sharded-mode control-plane facts.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardFacts {
    pub deaths: u64,
    pub heartbeat_misses: u64,
}

/// Live-mode session facts.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveFacts {
    pub chunks_sent: u64,
    pub credits_granted: u64,
    pub max_buffered_chunks: u64,
    pub shed_records: u64,
    pub normal_state_share: f64,
}

/// What the taps of a traced repetition saw. `None` where the mode has
/// no public seam to time from outside.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceFacts {
    pub fingerprint_ns: Option<u64>,
    pub source_busy_ns: Option<u64>,
    pub classify_busy_ns: Option<u64>,
    pub link_bytes: u64,
    pub link_frames: u64,
    pub data_send_ns: u64,
}

/// Everything one repetition produced.
pub struct RunOutput {
    pub sample: Sample,
    pub offered_records: u64,
    pub processed_records: u64,
    pub chunks: u64,
    /// `offered == processed + shed + quarantined (+ lost)` at record
    /// and chunk level, and `ok + quarantined == input` bytes.
    pub reconciles: bool,
    pub class_flows: [u64; 4],
    pub ingest: IngestTotals,
    /// FNV-1a over breakdown, ring windows and incident log.
    pub digest: u64,
    pub incidents: u64,
    pub windows: u64,
    pub checkpoints_written: u64,
    pub worker_restarts: u64,
    pub wire_faults: u64,
    pub shard: ShardFacts,
    pub live: LiveFacts,
    pub trace: TraceFacts,
}

fn runner_config(ctx: &Ctx<'_>, spec: &WorkloadSpec, workers: usize) -> RunnerConfig {
    RunnerConfig {
        seed: ctx.seed,
        workers,
        checkpoint_every: spec.checkpoint_every,
        track_disagreement: spec.track_disagreement,
        ..RunnerConfig::default()
    }
}

fn rollup_config(spec: &WorkloadSpec, ring: &Path) -> RollupConfig {
    let mut rollup = RollupConfig::new(ring, spec.window_chunks);
    rollup.detect = Some(DetectConfig::default());
    rollup
}

/// The classify call `StudyRunner::run` makes per chunk when no
/// disagreement matrix is tracked, with its time added to `busy`.
fn timed_classify<'c>(
    ctx: &'c Ctx<'_>,
    busy: &'c BusyNs,
) -> impl Fn(&[FlowRecord]) -> Vec<TrafficClass> + Sync + 'c {
    let cfg = RunnerConfig::default();
    move |flows| {
        let t0 = Instant::now();
        let classes = ctx
            .classifier
            .classify_records_batched(flows, cfg.method, cfg.org);
        busy.add_since(t0);
        classes
    }
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Digest of the deterministic outputs every mode must agree on.
fn digest(
    breakdown: &MemberBreakdown,
    windows: &[WindowAccum],
    incidents: &[IncidentRecord],
) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (asn, rows) in &breakdown.per_member {
        fnv1a(&mut h, &asn.0.to_be_bytes());
        for cc in rows {
            for v in [cc.flows, cc.packets, cc.bytes] {
                fnv1a(&mut h, &v.to_be_bytes());
            }
        }
    }
    let mut buf = Vec::new();
    for w in windows {
        buf.clear();
        w.encode_into(&mut buf);
        fnv1a(&mut h, &buf);
    }
    for r in incidents {
        fnv1a(&mut h, format!("{r:?}").as_bytes());
    }
    h
}

fn class_flows(breakdown: &MemberBreakdown) -> [u64; 4] {
    let mut out = [0u64; 4];
    for rows in breakdown.per_member.values() {
        for (into, cc) in out.iter_mut().zip(rows) {
            *into += cc.flows;
        }
    }
    out
}

/// Windows and incidents a file or live run left in its ring directory.
fn read_outputs(ring: &Path) -> Result<(Vec<WindowAccum>, Vec<IncidentRecord>), String> {
    let (windows, faults) = read_ring(ring).map_err(|e| format!("read ring: {e}"))?;
    if !faults.is_empty() {
        return Err(format!("{} corrupt ring windows", faults.len()));
    }
    let (incidents, torn) =
        read_incident_log(ring).map_err(|e| format!("read incident log: {e}"))?;
    if !torn.is_empty() {
        return Err(format!("{} torn incident files", torn.len()));
    }
    Ok((windows, incidents))
}

fn output_of_report(
    sample: Sample,
    report: &RunReport,
    ring: &Path,
    trace: TraceFacts,
) -> Result<RunOutput, String> {
    let (windows, incidents) = read_outputs(ring)?;
    Ok(RunOutput {
        sample,
        offered_records: report.health.records.offered,
        processed_records: report.health.records.processed,
        chunks: report.health.chunks.offered,
        reconciles: report.health.reconciles() && report.ingest.reconciles(),
        class_flows: class_flows(&report.breakdown),
        ingest: report.ingest,
        digest: digest(&report.breakdown, &windows, &incidents),
        incidents: incidents.len() as u64,
        windows: windows.len() as u64,
        checkpoints_written: report.health.checkpoints_written,
        worker_restarts: report.health.worker_restarts,
        wire_faults: 0,
        shard: ShardFacts::default(),
        live: LiveFacts::default(),
        trace,
    })
}

/// Run `spec` once over `input` with fresh checkpoint and ring
/// directories under `dir`. `scenario` is the live producer's copy of
/// the same bytes. A traced repetition routes through the taps.
pub fn run_once(
    ctx: &Ctx<'_>,
    spec: &WorkloadSpec,
    input: &Input,
    scenario: Option<&LiveScenario>,
    dir: &Path,
    traced: bool,
) -> Result<RunOutput, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    match spec.mode {
        Mode::File => run_file(ctx, spec, input, dir, traced),
        Mode::Shard2 => run_shard2(ctx, spec, input, dir, traced),
        Mode::Live => {
            let scenario = scenario.ok_or("live workload without a scenario")?;
            run_live(ctx, spec, scenario, dir, traced)
        }
    }
}

fn open_store(dir: &Path) -> Result<CheckpointStore, String> {
    CheckpointStore::open(dir).map_err(|e| format!("open checkpoint store: {e}"))
}

fn run_file(
    ctx: &Ctx<'_>,
    spec: &WorkloadSpec,
    input: &Input,
    dir: &Path,
    traced: bool,
) -> Result<RunOutput, String> {
    let store = open_store(&dir.join("ckpt"))?;
    let ring = dir.join("ring");
    let runner = StudyRunner::new(ctx.classifier, runner_config(ctx, spec, ctx.workers))
        .with_rollups(rollup_config(spec, &ring));
    let reader = ChunkedIpfixReader::new(&input.bytes, spec.chunk_records);

    let (report, sample, trace) = if traced {
        let mut source = TimedSource::new(reader);
        let busy = BusyNs::default();
        // `run_with` drops the disagreement matrix, so a workload that
        // tracks it keeps `run` and takes classify time from the kernel
        // pass instead.
        let (report, sample) = if spec.track_disagreement {
            sampled(|| runner.run(&mut source, &store))
        } else {
            sampled(|| runner.run_with(&mut source, &store, timed_classify(ctx, &busy)))
        };
        let trace = TraceFacts {
            fingerprint_ns: Some(source.fingerprint_ns()),
            source_busy_ns: Some(source.next_chunk_ns()),
            classify_busy_ns: (!spec.track_disagreement).then(|| busy.get()),
            ..TraceFacts::default()
        };
        (report, sample, trace)
    } else {
        let mut source = reader;
        let (report, sample) = sampled(|| runner.run(&mut source, &store));
        (report, sample, TraceFacts::default())
    };
    let report = report.map_err(|e| format!("file run: {e}"))?;
    output_of_report(sample, &report, &ring, trace)
}

fn run_shard2(
    ctx: &Ctx<'_>,
    spec: &WorkloadSpec,
    input: &Input,
    dir: &Path,
    traced: bool,
) -> Result<RunOutput, String> {
    let hub = InProcHub::new(SHARD_WIRE_MAGIC, SHARD_LINK_DEPTH);
    let stats = Arc::new(LinkStats::default());
    let tapped = TappedHub {
        hub: &hub,
        stats: Arc::clone(&stats),
    };
    let endpoint: &dyn ShardEndpoint = if traced { &tapped } else { &hub };
    let mut cfg = ShardConfig::new(ShardPlan::new(SHARDS, ctx.seed), spec.chunk_records);
    cfg.seed = ctx.seed;
    let coordinator = ShardCoordinator::new(&input.bytes, cfg);
    let worker_errors = Mutex::new(Vec::new());

    let (merged, sample) = std::thread::scope(|s| {
        let spawn = |shard_id: u32| {
            let transport = hub.connect().map(|t| match traced {
                true => tap(t, &stats, false),
                false => t,
            });
            let store = open_store(&dir.join(format!("shard{shard_id}-ckpt")));
            let mut worker = ShardWorkerConfig::new(shard_id, runner_config(ctx, spec, 1));
            worker.rollup = Some(rollup_config(
                spec,
                &dir.join(format!("shard{shard_id}-ring")),
            ));
            let errors = &worker_errors;
            s.spawn(move || {
                let served = match (transport, store) {
                    (Ok(transport), Ok(store)) => {
                        serve_shard(ctx.classifier, &worker, &store, transport)
                            .map_err(|e| e.to_string())
                    }
                    (Err(e), _) => Err(format!("hub connect: {e}")),
                    (_, Err(e)) => Err(e),
                };
                if let Err(e) = served {
                    errors
                        .lock()
                        .expect("no shard thread panics holding the lock")
                        .push(format!("shard {shard_id}: {e}"));
                }
            });
        };
        // The scope joins the shard threads after the timed call.
        sampled(|| coordinator.run(endpoint, &spawn))
    });
    let merged = merged.map_err(|e| format!("sharded run: {e}"))?;
    let worker_errors = worker_errors.into_inner().expect("shard threads joined");
    if !worker_errors.is_empty() {
        return Err(worker_errors.join("; "));
    }

    let incidents = detect_over_windows(&merged.windows, &DetectConfig::default());
    let shard = ShardFacts {
        deaths: merged.shards.iter().map(|s| u64::from(s.deaths)).sum(),
        heartbeat_misses: merged.shards.iter().map(|s| s.heartbeat_misses).sum(),
    };
    Ok(RunOutput {
        sample,
        offered_records: merged.records.offered,
        processed_records: merged.records.processed,
        chunks: merged.chunks.offered,
        reconciles: merged.reconciles()
            && merged.ingest.reconciles()
            && merged.shards.iter().all(|s| s.completed && !s.lost),
        class_flows: class_flows(&merged.breakdown),
        ingest: merged.ingest,
        digest: digest(&merged.breakdown, &merged.windows, &incidents),
        incidents: incidents.len() as u64,
        windows: merged.windows.len() as u64,
        checkpoints_written: 0,
        worker_restarts: 0,
        wire_faults: merged.shards.iter().map(|s| s.wire_faults).sum(),
        shard,
        live: LiveFacts::default(),
        trace: TraceFacts {
            link_bytes: stats.bytes.load(Ordering::Relaxed),
            link_frames: stats.frames.load(Ordering::Relaxed),
            data_send_ns: stats.data_send_ns.get(),
            ..TraceFacts::default()
        },
    })
}

fn run_live(
    ctx: &Ctx<'_>,
    spec: &WorkloadSpec,
    scenario: &LiveScenario,
    dir: &Path,
    traced: bool,
) -> Result<RunOutput, String> {
    let store = open_store(&dir.join("ckpt"))?;
    let ring = dir.join("ring");
    let mut cfg = LiveServerConfig::new(runner_config(ctx, spec, ctx.workers));
    cfg.rollup = Some(rollup_config(spec, &ring));
    cfg.window = LIVE_WINDOW;
    // Thresholds parked above any real occupancy: a clean line-rate
    // session must never shed on a scheduling hiccup.
    cfg.ladder = Some(LiveLadder::for_window(1 << 20));

    let stats = Arc::new(LinkStats::default());
    let busy = BusyNs::default();
    let (mut consumer, mut producer) =
        ShardTransport::channel_pair(LIVE_WIRE_MAGIC, LIVE_LINK_DEPTH);
    if traced {
        consumer = tap(consumer, &stats, false);
        producer = tap(producer, &stats, true);
    }

    let (study, sample, produced) = std::thread::scope(|s| {
        // The producer's fingerprint pass runs while the consumer waits
        // for its Hello, so it belongs inside the timed call.
        let ((study, producer_thread), sample) = sampled(|| {
            let producer_thread = s.spawn(move || {
                run_live_producer(&mut producer, scenario, &LiveProducerConfig::default())
            });
            let study = if traced {
                let classify = timed_classify(ctx, &busy);
                serve_live_with(ctx.classifier, &cfg, &store, consumer, classify)
            } else {
                serve_live(ctx.classifier, &cfg, &store, consumer)
            };
            (study, producer_thread)
        });
        (study, sample, producer_thread.join())
    });
    let study = study.map_err(|e| format!("live session: {e}"))?;
    let produced = produced
        .map_err(|_| "live producer panicked".to_string())?
        .map_err(|e| format!("live producer: {e}"))?;

    let session = &study.session;
    let in_states: u64 = session.time_in_state_ns.iter().sum();
    let live = LiveFacts {
        chunks_sent: produced.chunks_sent,
        credits_granted: session.credits_granted,
        max_buffered_chunks: session.max_buffered_chunks as u64,
        shed_records: session.live_shed_records,
        normal_state_share: session.time_in_state_ns[0] as f64 / in_states.max(1) as f64,
    };
    let trace = TraceFacts {
        classify_busy_ns: traced.then(|| busy.get()),
        link_bytes: stats.bytes.load(Ordering::Relaxed),
        link_frames: stats.frames.load(Ordering::Relaxed),
        data_send_ns: stats.data_send_ns.get(),
        ..TraceFacts::default()
    };
    let mut out = output_of_report(sample, &study.report, &ring, trace)?;
    out.reconciles &= session.reconciles() && produced.finished && produced.acked;
    out.wire_faults = session.wire_faults;
    out.live = live;
    Ok(out)
}
