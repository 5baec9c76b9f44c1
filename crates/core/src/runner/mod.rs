//! The supervised streaming study runner.
//!
//! [`Classifier::classify_trace`] is batch-only and fail-stop: the whole
//! trace must fit in memory, one panic aborts the run, and a crash loses
//! everything. At the paper's horizon — four weeks of IPFIX flows from a
//! ~727-member IXP — the pipeline itself has to survive crashes, stalls,
//! and overload. [`StudyRunner`] processes the trace as a stream of
//! [`FlowChunk`]s on a supervised worker pool — the one place in the
//! crate that fans classification out over threads — resting on three
//! pillars:
//!
//! * **Crash safety** — progress is periodically persisted as a
//!   [`Checkpoint`] (length-framed, CRC-protected, written atomically
//!   with two-slot rotation). An interrupted run resumes from the last
//!   valid checkpoint and produces a bit-identical [`RunReport`]; a torn
//!   checkpoint file is detected and skipped back to its predecessor.
//!   The feeder is a shell over the pure commit rules ([`commit`]), which
//!   only encode; one ordered writer thread per run does every fsync
//!   ([`durable`]) and is joined, all it was handed acknowledged.
//! * **Supervision** — each worker wraps chunk classification in
//!   `catch_unwind`: a poisoned chunk is quarantined into the
//!   [`RunnerHealth`] taxonomy and the same worker takes the next chunk
//!   at once (chunks are independent, so there is nothing to wait out).
//!   A watchdog thread flags stalled progress.
//! * **Backpressure** — bounded queue, lossless: when the source
//!   outruns the classifiers the feeder blocks on the full queue and
//!   throughput degrades to the classifiers' rate. A file or shard
//!   source can always wait; a live source that cannot sheds at its
//!   admission buffer, under the overload ladder of [`live`], and books
//!   what it dropped into the same `shed` column.
//!
//! The accounting invariant, chunk- and record-level, mirrors the ingest
//! layer's byte reconciliation:
//!
//! ```text
//! processed + shed + quarantined == offered
//! ```

mod checkpoint;
mod commit;
mod durable;
mod link;
pub mod live;
mod obs;
pub mod rollup;
pub mod shard;

pub use checkpoint::{Checkpoint, CheckpointError, CheckpointSlot, CheckpointStore};
pub(crate) use durable::{write_durable, DurableWrite, WriteKind};
pub use obs::{RunnerObs, MEMBER_LABEL_BUDGET};
pub(crate) use obs::class_label as obs_class_label;
pub use rollup::{read_ring, RollupConfig, WindowAccum};

use crate::compiled::EpochSwap;
use crate::detect::WindowDetect;
use crate::pipeline::Classifier;
use crate::provenance::{DisagreementMatrix, MethodVariant};
use crate::stats::MemberBreakdown;
use commit::{ChunkMeta, Committer, Outcome, OutcomeKind};
use durable::DurableQueue;
use obs::RunMetrics;
use serde::Serialize;
use spoofwatch_ixp::chunked::{ChunkedIpfixReader, FlowChunk};
use spoofwatch_net::{FlowRecord, InferenceMethod, IngestHealth, OrgMode, TrafficClass};
use spoofwatch_obs::{Clock, Tracer};
use std::fmt;
use std::io;
use std::ops::AddAssign;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// A resumable source of flow chunks.
///
/// Implementations must be deterministic: after `seek(cursor, seq)` to a
/// previously yielded chunk boundary, the remaining chunk sequence must
/// be byte-identical to the original one — that is what makes checkpoint
/// resume exact.
pub trait ChunkSource {
    /// Stable identity of the stream and its chunking, mixed into the
    /// checkpoint config hash.
    fn fingerprint(&self) -> u64;
    /// Position the source so the next chunk starts at `byte_cursor`
    /// with sequence number `seq`.
    fn seek(&mut self, byte_cursor: u64, seq: u64);
    /// The next chunk, or `None` at end of stream.
    fn next_chunk(&mut self) -> Option<FlowChunk>;
}

impl ChunkSource for ChunkedIpfixReader<'_> {
    fn fingerprint(&self) -> u64 {
        ChunkedIpfixReader::fingerprint(self)
    }

    fn seek(&mut self, byte_cursor: u64, seq: u64) {
        ChunkedIpfixReader::seek(self, byte_cursor, seq);
    }

    fn next_chunk(&mut self) -> Option<FlowChunk> {
        ChunkedIpfixReader::next_chunk(self)
    }
}

/// Tuning and policy for one streaming run.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Valid-space inference method.
    pub method: InferenceMethod,
    /// Org adjustment mode.
    pub org: OrgMode,
    /// Study seed; part of the checkpoint config hash and of the
    /// detection payload's sampling priorities.
    pub seed: u64,
    /// Worker threads (0 = available parallelism).
    pub workers: usize,
    /// Bounded chunk-queue depth (minimum 1).
    pub queue_depth: usize,
    /// Chunks between checkpoints (minimum 1).
    pub checkpoint_every: u64,
    /// Watchdog: flag a stall when no chunk commits for this long
    /// (0 disables the watchdog).
    pub stall_timeout_ms: u64,
    /// Crash-simulation knob for tests and the resume walkthrough: stop
    /// with [`RunnerError::Interrupted`] once this many chunks are
    /// committed, without writing a final checkpoint.
    pub interrupt_after_chunks: Option<u64>,
    /// Classify every flow under all five method variants and track the
    /// per-pair disagreement matrix (exported through the registry,
    /// folded into rollup windows, and returned in the report). Costs
    /// five validity checks per routed flow instead of one.
    pub track_disagreement: bool,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            method: InferenceMethod::FullCone,
            org: OrgMode::OrgAdjusted,
            seed: 0,
            workers: 0,
            queue_depth: 8,
            checkpoint_every: 16,
            stall_timeout_ms: 30_000,
            interrupt_after_chunks: None,
            track_disagreement: false,
        }
    }
}

/// Offered/processed/shed/quarantined accounting for one unit (records
/// or chunks), with the reconciliation invariant of the ingest layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct FlowAccounting {
    /// Units the source offered to the pipeline.
    pub offered: u64,
    /// Units classified successfully.
    pub processed: u64,
    /// Units dropped by load shedding. The runner's own queue blocks
    /// and never sheds; a live session books its admission-buffer drops
    /// here.
    pub shed: u64,
    /// Units quarantined after a worker panic.
    pub quarantined: u64,
}

impl FlowAccounting {
    /// `processed + shed + quarantined == offered`.
    pub fn reconciles(&self) -> bool {
        self.processed + self.shed + self.quarantined == self.offered
    }
}

impl AddAssign for FlowAccounting {
    fn add_assign(&mut self, other: FlowAccounting) {
        self.offered += other.offered;
        self.processed += other.processed;
        self.shed += other.shed;
        self.quarantined += other.quarantined;
    }
}

/// Scalar decode-health totals absorbed from the committed chunks
/// (the checkpointable subset of [`IngestHealth`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct IngestTotals {
    /// Input bytes covered by committed chunks.
    pub input_bytes: u64,
    /// Records decoded cleanly.
    pub ok_records: u64,
    /// Bytes decoded cleanly.
    pub ok_bytes: u64,
    /// Bytes quarantined by the decoder.
    pub quarantined_bytes: u64,
    /// Decoder resynchronization events.
    pub resyncs: u64,
}

impl IngestTotals {
    /// Fold one chunk's health into the totals.
    pub fn absorb(&mut self, h: &IngestHealth) {
        *self += IngestTotals {
            input_bytes: h.input_len,
            ok_records: h.ok_records,
            ok_bytes: h.ok_bytes,
            quarantined_bytes: h.quarantined_bytes,
            resyncs: h.resyncs,
        };
    }

    /// Byte-exact: `ok_bytes + quarantined_bytes == input_bytes`.
    pub fn reconciles(&self) -> bool {
        self.ok_bytes + self.quarantined_bytes == self.input_bytes
    }
}

impl AddAssign for IngestTotals {
    fn add_assign(&mut self, other: IngestTotals) {
        self.input_bytes += other.input_bytes;
        self.ok_records += other.ok_records;
        self.ok_bytes += other.ok_bytes;
        self.quarantined_bytes += other.quarantined_bytes;
        self.resyncs += other.resyncs;
    }
}

/// Supervision and backpressure health of one run: the streaming
/// counterpart of [`IngestHealth`].
#[derive(Debug, Clone, Default, Serialize)]
pub struct RunnerHealth {
    /// Record-level accounting.
    pub records: FlowAccounting,
    /// Chunk-level accounting.
    pub chunks: FlowAccounting,
    /// Caught worker panics, each of which quarantined its chunk
    /// (per-process; not carried across resumes). The worker thread
    /// itself carries on with the next chunk.
    pub worker_restarts: u64,
    /// Watchdog stall flags (per-process).
    pub watchdog_stalls: u64,
    /// Checkpoints written by this process.
    pub checkpoints_written: u64,
    /// Checkpoint slots found corrupt/torn at startup and skipped.
    pub checkpoints_rejected: u64,
    /// Chunk sequence this run resumed from, if it resumed.
    pub resumed_at_chunk: Option<u64>,
}

impl RunnerHealth {
    /// Whether both accounting levels reconcile exactly.
    pub fn reconciles(&self) -> bool {
        self.records.reconciles() && self.chunks.reconciles()
    }
}

impl fmt::Display for RunnerHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} of {} records processed ({} shed, {} quarantined) in {} chunks; \
             {} worker restarts, {} stalls",
            self.records.processed,
            self.records.offered,
            self.records.shed,
            self.records.quarantined,
            self.chunks.offered,
            self.worker_restarts,
            self.watchdog_stalls,
        )
    }
}

/// The streaming study's deliverable: deterministic accounting plus
/// supervision health.
#[derive(Debug, Clone, Serialize)]
pub struct RunReport {
    /// Per-member, per-class accounting over all processed chunks.
    pub breakdown: MemberBreakdown,
    /// Decode-health totals over all committed chunks.
    pub ingest: IngestTotals,
    /// Supervision and backpressure counters.
    pub health: RunnerHealth,
    /// Cumulative method-disagreement matrix over all processed chunks,
    /// when [`RunnerConfig::track_disagreement`] is on.
    pub disagreement: Option<DisagreementMatrix>,
}

impl RunReport {
    /// Whether the deterministic portion of two reports matches: the
    /// breakdown, ingest totals, and both accounting levels. Per-process
    /// counters (restarts, stalls, checkpoint writes, resume marker) are
    /// deliberately excluded — they describe *how* a run got here, not
    /// *what* it computed. This is the crash-recovery equality: an
    /// interrupted-and-resumed run must match the uninterrupted one.
    pub fn same_result(&self, other: &RunReport) -> bool {
        self.breakdown == other.breakdown
            && self.ingest == other.ingest
            && self.health.records == other.health.records
            && self.health.chunks == other.health.chunks
            && self.disagreement == other.disagreement
    }
}

/// Why a run stopped without a complete report.
#[derive(Debug)]
pub enum RunnerError {
    /// The crash-simulation knob fired after this many committed chunks.
    Interrupted {
        /// Chunks committed when the run stopped.
        committed_chunks: u64,
    },
    /// A valid checkpoint exists but was written under a different
    /// config, seed, or trace; refusing to mix them.
    ConfigMismatch {
        /// Hash the current run derives.
        expected: u64,
        /// Hash stored in the checkpoint.
        found: u64,
    },
    /// Persisting a checkpoint, a rollup window or an incident file
    /// failed; nothing the run produced after it was written.
    Io(std::io::Error),
}

impl fmt::Display for RunnerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunnerError::Interrupted { committed_chunks } => {
                write!(f, "runner interrupted after {committed_chunks} chunks")
            }
            RunnerError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint config hash {found:#x} does not match this run's {expected:#x}"
            ),
            RunnerError::Io(e) => write!(f, "runner I/O error: {e}"),
        }
    }
}

impl std::error::Error for RunnerError {}

impl From<std::io::Error> for RunnerError {
    fn from(e: std::io::Error) -> Self {
        RunnerError::Io(e)
    }
}

pub(crate) use crate::backoff::fnv;

fn method_tag(m: InferenceMethod) -> u64 {
    match m {
        InferenceMethod::Naive => 0,
        InferenceMethod::CustomerCone => 1,
        InferenceMethod::FullCone => 2,
    }
}

fn org_tag(o: OrgMode) -> u64 {
    match o {
        OrgMode::Plain => 0,
        OrgMode::OrgAdjusted => 1,
    }
}

/// The supervised streaming runner. Build once per study; `run` both
/// starts fresh studies and resumes interrupted ones — if the checkpoint
/// store holds a valid checkpoint for the same config and trace, the
/// run continues from it.
pub struct StudyRunner<'a> {
    classifier: ClassifierSource<'a>,
    cfg: RunnerConfig,
    obs: RunnerObs,
    rollup: Option<RollupConfig>,
    abort: Option<Arc<AtomicBool>>,
    /// Whether the rollup writer runs the detector bank when
    /// [`RollupConfig::detect`] is set (see [`Self::without_detector_bank`]).
    detector_bank: bool,
}

/// Where the runner's classify closures get their classifier from: a
/// fixed borrow for the common case, or an [`EpochSwap`] cell whose
/// guard is taken **once per chunk** — so a classifier published
/// mid-run takes effect at the next chunk boundary, and the retiring
/// epoch stays alive exactly until its last in-flight chunk completes.
#[derive(Clone, Copy)]
enum ClassifierSource<'a> {
    Fixed(&'a Classifier),
    Epoch(&'a EpochSwap<Classifier>),
}

impl ClassifierSource<'_> {
    /// Run `f` against the current classifier. For the epoch variant
    /// the guard (an `Arc` clone) lives for the duration of `f` — one
    /// chunk's worth of classification.
    fn with<R>(self, f: impl FnOnce(&Classifier) -> R) -> R {
        match self {
            ClassifierSource::Fixed(c) => f(c),
            ClassifierSource::Epoch(swap) => f(&swap.load()),
        }
    }
}

impl<'a> StudyRunner<'a> {
    /// A runner over `classifier` with the given policy and no
    /// observability (inert metrics/tracing handles, real clock).
    pub fn new(classifier: &'a Classifier, cfg: RunnerConfig) -> Self {
        StudyRunner {
            classifier: ClassifierSource::Fixed(classifier),
            cfg,
            obs: RunnerObs::disabled(),
            rollup: None,
            abort: None,
            detector_bank: true,
        }
    }

    /// A runner that resolves its classifier through an [`EpochSwap`]
    /// at every chunk, so RIB-refresh rebuilds published while the
    /// study streams take effect mid-run without stopping it.
    pub fn new_epoch(swap: &'a EpochSwap<Classifier>, cfg: RunnerConfig) -> Self {
        StudyRunner {
            classifier: ClassifierSource::Epoch(swap),
            cfg,
            obs: RunnerObs::disabled(),
            rollup: None,
            abort: None,
            detector_bank: true,
        }
    }

    /// Attach an observability bundle: metrics registry, tracer/flight
    /// recorder, and the clock the watchdog and stage timings run on.
    pub fn with_obs(mut self, obs: RunnerObs) -> Self {
        self.obs = obs;
        self
    }

    /// Write fixed-interval telemetry rollups into a window ring while
    /// the run progresses (see [`rollup`]).
    pub fn with_rollups(mut self, cfg: RollupConfig) -> Self {
        self.rollup = Some(cfg);
        self
    }

    /// Accumulate the detect payloads of [`RollupConfig::detect`] into
    /// the ring but run no detector bank over the closed windows. A shard
    /// worker's windows hold only its partition: the study's incidents
    /// are the fold of the merged ring ([`detect_over_windows`]), and a
    /// bank over a partition would log, count and trace incidents the
    /// study never had.
    ///
    /// [`detect_over_windows`]: crate::detect::detect_over_windows
    pub(crate) fn without_detector_bank(mut self) -> Self {
        self.detector_bank = false;
        self
    }

    /// A cooperative abort flag: when set mid-run, the runner stops at
    /// the next chunk boundary and returns [`RunnerError::Interrupted`]
    /// — committed state stays checkpointed and resumable, and no
    /// terminal checkpoint or final rollup flush is written. A shard
    /// worker's link consumer sets it when the link is lost, so a
    /// severed link is never mistaken for a clean end of stream.
    pub fn with_abort(mut self, flag: Arc<AtomicBool>) -> Self {
        self.abort = Some(flag);
        self
    }

    /// The active observability bundle.
    pub fn obs(&self) -> &RunnerObs {
        &self.obs
    }

    /// The active configuration.
    pub fn config(&self) -> &RunnerConfig {
        &self.cfg
    }

    /// Hash binding a checkpoint to (seed, method, org, trace identity).
    pub fn config_hash(&self, source_fingerprint: u64) -> u64 {
        fnv(&[
            self.cfg.seed,
            method_tag(self.cfg.method),
            org_tag(self.cfg.org),
            source_fingerprint,
        ])
    }

    /// Run (or resume) the study, classifying with the configured
    /// method/org pair. With [`RunnerConfig::track_disagreement`] set,
    /// every flow is classified under all five method variants in one
    /// pass (shared bogon check and table lookup) and the per-chunk
    /// disagreement matrices are exported and accumulated.
    pub fn run<S: ChunkSource>(
        &self,
        source: &mut S,
        store: &CheckpointStore,
    ) -> Result<RunReport, RunnerError> {
        self.run_applying(source, store, &write_durable)
    }

    /// [`Self::run`] with the durable writer's executor as a parameter:
    /// [`write_durable`], except where a test records the writer's
    /// write list through it.
    fn run_applying<S, A>(
        &self,
        source: &mut S,
        store: &CheckpointStore,
        apply: &A,
    ) -> Result<RunReport, RunnerError>
    where
        S: ChunkSource,
        A: Fn(&DurableWrite) -> io::Result<()> + Sync,
    {
        let source_of = self.classifier;
        let (method, org) = (self.cfg.method, self.cfg.org);
        if self.cfg.track_disagreement {
            let primary = MethodVariant::index_of(method, org);
            self.run_inner(source, store, apply, move |flows: &[FlowRecord]| {
                source_of.with(|classifier| {
                    // Batched: one code probe per flow serves
                    // all five variants (worker-side transpose into the
                    // thread-local scratch — see `crate::batch`).
                    let mut matrix = DisagreementMatrix::new();
                    let mut classes = Vec::with_capacity(flows.len());
                    for variants in classifier.classify_variants_records_batched(flows) {
                        matrix.record(&variants);
                        classes.push(variants[primary]);
                    }
                    (classes, Some(matrix))
                })
            })
        } else {
            self.run_inner(source, store, apply, move |flows: &[FlowRecord]| {
                source_of.with(|classifier| {
                    (classifier.classify_records_batched(flows, method, org), None)
                })
            })
        }
    }

    /// Run (or resume) the study with an explicit per-chunk classify
    /// function — the supervision seam: tests inject panicking or slow
    /// classifiers here.
    pub fn run_with<S, F>(
        &self,
        source: &mut S,
        store: &CheckpointStore,
        classify: F,
    ) -> Result<RunReport, RunnerError>
    where
        S: ChunkSource,
        F: Fn(&[FlowRecord]) -> Vec<TrafficClass> + Sync,
    {
        self.run_inner(source, store, &write_durable, move |flows| {
            (classify(flows), None)
        })
    }

    /// The full runner with its two internal seams: `apply` is how the
    /// durable writer makes one write, and classify returns the
    /// classes plus an optional per-chunk disagreement matrix.
    fn run_inner<S, A, F>(
        &self,
        source: &mut S,
        store: &CheckpointStore,
        apply: &A,
        classify: F,
    ) -> Result<RunReport, RunnerError>
    where
        S: ChunkSource,
        A: Fn(&DurableWrite) -> io::Result<()> + Sync,
        F: Fn(&[FlowRecord]) -> (Vec<TrafficClass>, Option<DisagreementMatrix>) + Sync,
    {
        let cfg = &self.cfg;
        let workers = if cfg.workers == 0 {
            thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
        } else {
            cfg.workers
        };
        let config_hash = self.config_hash(source.fingerprint());
        let rm = RunMetrics::new(&self.obs.metrics);
        let obs = &self.obs;

        let mut health = RunnerHealth::default();
        let (loaded, faults) = store.load_latest();
        health.checkpoints_rejected = faults.len() as u64;
        rm.checkpoints_rejected.add(health.checkpoints_rejected);
        let resume = loaded.map(|(cp, _slot)| cp);
        if let Some(cp) = resume.as_ref().filter(|cp| cp.config_hash != config_hash) {
            return Err(RunnerError::ConfigMismatch {
                expected: config_hash,
                found: cp.config_hash,
            });
        }
        health.resumed_at_chunk = resume.as_ref().map(|cp| cp.committed_chunks);
        let cursor = resume.as_ref().map_or(0, |cp| cp.byte_cursor);
        source.seek(cursor, health.resumed_at_chunk.unwrap_or(0));
        let ring;
        let rollup = match &self.rollup {
            Some(rcfg) => {
                std::fs::create_dir_all(&rcfg.dir)?;
                ring = read_ring(&rcfg.dir)?.0;
                // The writer's engine is the detector bank; payloads
                // accumulate whenever `self.rollup` asks for detection.
                let detect = rcfg.detect.clone().filter(|_| self.detector_bank);
                Some((RollupConfig { detect, ..rcfg.clone() }, ring.as_slice()))
            }
            None => None,
        };
        let mut committer = Committer::new(cfg, config_hash, resume, rollup, store, &rm, obs);
        obs.tracer.event(
            "run_start",
            &[
                ("workers", (workers as u64).into()),
                ("resumed_at_chunk", committer.state.committed_chunks.into()),
                ("resumed", health.resumed_at_chunk.is_some().into()),
            ],
        );

        let detect_enabled = self.rollup.as_ref().is_some_and(|r| r.detect.is_some());
        let (chunk_tx, chunk_rx) = mpsc::sync_channel::<FlowChunk>(cfg.queue_depth.max(1));
        let chunk_rx = Arc::new(Mutex::new(chunk_rx));
        let (out_tx, out_rx) = mpsc::channel::<Outcome>();
        let restarts = AtomicU64::new(0);
        let stalls = AtomicU64::new(0);
        let committed = AtomicU64::new(committer.state.committed_chunks);
        let done = AtomicBool::new(false);

        let run_result: Result<bool, RunnerError> = thread::scope(|s| {
            for _ in 0..workers {
                let rx = Arc::clone(&chunk_rx);
                let tx = out_tx.clone();
                let classify = &classify;
                let restarts = &restarts;
                let rm = &rm;
                s.spawn(move || {
                    worker_loop(rx, tx, classify, cfg, detect_enabled, restarts, rm, obs)
                });
            }
            let watchdog = (cfg.stall_timeout_ms > 0).then(|| {
                let (committed, done, stalls) = (&committed, &done, &stalls);
                let timeout = cfg.stall_timeout_ms;
                let rm = &rm;
                s.spawn(move || watchdog_loop(committed, done, stalls, timeout, rm, obs))
            });

            let queue = DurableQueue::spawn(s, apply, &rm, obs);
            let mut feed = || -> Result<bool, RunnerError> {
                let mut writes = Vec::new();
                let mut source_open = true;
                loop {
                    // The one stop check, which also runs between the
                    // source's end and finalizing: an abort racing end of
                    // stream must not finalize, since the severed source
                    // may have been cut short.
                    let aborted = self.abort.as_ref().is_some_and(|f| f.load(Ordering::Relaxed));
                    if aborted || committer.interrupted() {
                        return Ok(true);
                    }
                    if !source_open && committer.in_flight() == 0 {
                        break;
                    }
                    match source_open.then(|| source.next_chunk()) {
                        Some(Some(chunk)) => {
                            // A run dispatches each chunk once, however
                            // often a link walked or replayed its bytes.
                            chunk.health.record_metrics_to(&obs.metrics, "ipfix_chunked");
                            committer.dispatch(chunk.seq, ChunkMeta::of(&chunk));
                            // Counted before the send, which a worker can
                            // beat. The bounded blocking send is the
                            // backpressure; nothing is dropped here.
                            rm.queue_depth.add(1);
                            if chunk_tx.send(chunk).is_err() {
                                rm.queue_depth.sub(1);
                            }
                            while let Ok(o) = out_rx.try_recv() {
                                committer.arrive(o);
                            }
                        }
                        Some(None) => source_open = false,
                        // Source ended: wait out the in-flight chunks.
                        None => match out_rx.recv_timeout(Duration::from_millis(50)) {
                            Ok(o) => committer.arrive(o),
                            Err(_) => continue, // watchdog tracks real stalls
                        },
                    }
                    committer.commit_ready(&mut writes);
                    committed.store(committer.state.committed_chunks, Ordering::Relaxed);
                    writes.drain(..).try_for_each(|w| queue.submit(w))?;
                }
                committer.finish(&mut writes);
                writes.drain(..).try_for_each(|w| queue.submit(w))?;
                Ok(false)
            };
            let result = feed();
            done.store(true, Ordering::Relaxed);
            // Wake the watchdog out of its slice: the scope joins it, and
            // every run would otherwise end by waiting out a sleep.
            if let Some(watchdog) = &watchdog {
                watchdog.thread().unpark();
            }
            drop(chunk_tx); // close the queue so workers drain and exit
            // The commit point, on every way out of `feed`: what was
            // handed off counts only once the writer has acknowledged
            // it, and callers reopen the store as soon as `run` returns.
            let written = queue.finish();
            health.checkpoints_written = written.checkpoints_written;
            // The writer's own error, not the failed hand-off that
            // reported it.
            written.result.map_err(RunnerError::Io).and(result)
        });

        let state = committer.state;
        health.records = state.records;
        health.chunks = state.chunks;
        health.worker_restarts = restarts.load(Ordering::Relaxed);
        health.watchdog_stalls = stalls.load(Ordering::Relaxed);
        obs.tracer.event(
            "run_end",
            &[
                ("committed_chunks", state.committed_chunks.into()),
                ("worker_restarts", health.worker_restarts.into()),
                ("watchdog_stalls", health.watchdog_stalls.into()),
            ],
        );
        let interrupted = run_result?;
        if interrupted {
            return Err(RunnerError::Interrupted {
                committed_chunks: state.committed_chunks,
            });
        }
        Ok(RunReport {
            breakdown: state.breakdown,
            ingest: state.ingest,
            health,
            disagreement: state.disagreement,
        })
    }
}

/// One supervised worker: classify chunks, and quarantine a chunk whose
/// classification panics, then carry on with the next one.
#[allow(clippy::too_many_arguments)]
fn worker_loop<F>(
    rx: Arc<Mutex<Receiver<FlowChunk>>>,
    tx: mpsc::Sender<Outcome>,
    classify: &F,
    cfg: &RunnerConfig,
    detect_enabled: bool,
    restarts: &AtomicU64,
    rm: &RunMetrics,
    obs: &RunnerObs,
) where
    F: Fn(&[FlowRecord]) -> (Vec<TrafficClass>, Option<DisagreementMatrix>) + Sync,
{
    let tracer = obs.tracer.as_ref();
    loop {
        let chunk = {
            let guard = rx.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            match guard.recv() {
                Ok(c) => c,
                Err(_) => return, // queue closed: clean shutdown
            }
        };
        rm.queue_depth.sub(1);
        let seq = chunk.seq;
        let records = chunk.flows.len() as u64;
        let t0 = obs.clock.now_ns();
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            // The span guard lives inside the unwind boundary so a
            // panicking classify drops it mid-unwind and its span_end
            // carries `panicked=true` — the flight recorder's marker
            // for "this was active when it happened".
            let _span = tracer.span(
                "chunk_classify",
                &[("seq", seq.into()), ("records", records.into())],
            );
            let (classes, matrix) = classify(&chunk.flows);
            let detect = detect_enabled
                .then(|| Box::new(WindowDetect::from_chunk(&chunk.flows, &classes, cfg.seed, seq)));
            // Worker-side, so the tally parallelizes with classification.
            (MemberBreakdown::from_classes(&chunk.flows, &classes), matrix, detect)
        }));
        rm.chunk_classify_ns.record(obs.clock.since_ns(t0));
        let kind = match result {
            Ok((partial, matrix, detect)) => OutcomeKind::Processed(partial, matrix, detect),
            Err(_) => {
                // The chunk is poisoned: quarantine it and take the next
                // one, which does not depend on it.
                restarts.fetch_add(1, Ordering::Relaxed);
                rm.worker_restarts.inc();
                tracer.event("worker_panic", &[("seq", seq.into())]);
                tracer.trigger_dump(&format!(
                    "worker panic: chunk seq {seq} quarantined"
                ));
                OutcomeKind::Quarantined
            }
        };
        if tx.send(Outcome { seq, kind }).is_err() {
            return; // feeder gone (interrupt path): stop quietly
        }
    }
}

/// Flag when commit progress freezes for longer than the stall timeout.
///
/// All timing goes through the observability [`Clock`]: under the real
/// clock this behaves exactly as a `thread::sleep` loop; under a manual
/// test clock the tick sleeps advance virtual time instantly, so the
/// timeout schedule runs deterministically at full speed regardless of
/// scheduler load.
fn watchdog_loop(
    committed: &AtomicU64,
    done: &AtomicBool,
    stalls: &AtomicU64,
    timeout_ms: u64,
    rm: &RunMetrics,
    obs: &RunnerObs,
) {
    let clock: &dyn Clock = obs.clock.as_ref();
    let tracer: &Tracer = obs.tracer.as_ref();
    let tick = Duration::from_millis((timeout_ms / 4).max(1));
    // The tick governs the stall-check schedule, but the wait itself
    // happens in short slices polling `done`: `run()` joins this thread
    // via `thread::scope` and unparks it on completion, so under the
    // real clock a finished run does not wait out even one slice; the
    // slices keep the manual clock's schedule and bound the wait should
    // an unpark ever be consumed elsewhere.
    let slice = tick.min(Duration::from_millis(25));
    let timeout_ns = timeout_ms.saturating_mul(1_000_000);
    let mut last_seen = committed.load(Ordering::Relaxed);
    let mut last_change_ns = clock.now_ns();
    let mut flagged = false;
    while !done.load(Ordering::Relaxed) {
        let tick_start = clock.now_ns();
        while clock.since_ns(tick_start) < tick.as_nanos() as u64 {
            clock.park_for(slice);
            if done.load(Ordering::Relaxed) {
                return;
            }
        }
        let now = committed.load(Ordering::Relaxed);
        if now != last_seen {
            last_seen = now;
            last_change_ns = clock.now_ns();
            flagged = false;
        } else if !flagged && clock.since_ns(last_change_ns) >= timeout_ns {
            stalls.fetch_add(1, Ordering::Relaxed);
            rm.watchdog_stalls.inc();
            tracer.event(
                "watchdog_stall",
                &[
                    ("committed_chunks", last_seen.into()),
                    ("stalled_ms", (clock.since_ns(last_change_ns) / 1_000_000).into()),
                ],
            );
            tracer.trigger_dump(&format!(
                "watchdog stall: no commit past chunk {last_seen} for {timeout_ms} ms"
            ));
            flagged = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spoofwatch_net::Asn;
    use std::collections::BTreeMap;

    #[test]
    fn accounting_reconciles() {
        let a = FlowAccounting {
            offered: 10,
            processed: 7,
            shed: 2,
            quarantined: 1,
        };
        assert!(a.reconciles());
        let b = FlowAccounting {
            offered: 10,
            processed: 7,
            shed: 2,
            quarantined: 2,
        };
        assert!(!b.reconciles());
    }

    #[test]
    fn ingest_totals_absorb_and_reconcile() {
        let mut h = IngestHealth::new(100);
        h.credit_ok(6);
        h.credit_record(59);
        h.quarantine(65, 35, spoofwatch_net::FaultKind::Implausible);
        h.note_resync();
        let mut t = IngestTotals::default();
        t.absorb(&h);
        t.absorb(&h);
        assert_eq!(t.input_bytes, 200);
        assert_eq!(t.ok_records, 2);
        assert_eq!(t.resyncs, 2);
        assert!(t.reconciles());
    }

    /// `run` joins the watchdog; it must wake it instead of waiting out
    /// its 25 ms slice, or every run in every mode ends with a sleep.
    #[test]
    fn finished_run_does_not_wait_out_the_watchdog_slice() {
        use crate::pipeline::Classifier;
        use spoofwatch_asgraph::As2Org;
        use spoofwatch_bgp::{Announcement, AsPath};
        let ann = Announcement::new("20.0.0.0/8".parse().unwrap(), AsPath::from(vec![3]));
        let classifier = Classifier::build(&[ann], &As2Org::new());
        let flows: Vec<FlowRecord> = (0..10u32)
            .map(|i| FlowRecord {
                ts: i,
                src: 0x1400_0000 + i,
                dst: 0x0A00_0001,
                proto: spoofwatch_net::Proto::Udp,
                sport: 1000,
                dport: 53,
                packets: 1,
                bytes: 60,
                pkt_size: 60,
                member: Asn(3),
                ttl: 60,
            })
            .collect();
        let bytes = spoofwatch_ixp::ipfix::encode(&flows);
        let cfg = RunnerConfig::default();
        assert_eq!(cfg.stall_timeout_ms, 30_000, "the watchdog is on by default");
        let runner = StudyRunner::new(&classifier, cfg);
        // The best of a few runs: one slow fsync or a descheduled thread
        // is noise, a slept-out slice is at least 25 ms every time.
        let mut best = Duration::MAX;
        for attempt in 0..5 {
            let dir = std::env::temp_dir().join(format!(
                "spoofwatch-watchdog-join-{}-{attempt}",
                std::process::id()
            ));
            let store = CheckpointStore::open(&dir).expect("open store");
            let mut source = ChunkedIpfixReader::new(&bytes, 10);
            let t0 = std::time::Instant::now();
            let report = runner.run(&mut source, &store).expect("run completes");
            best = best.min(t0.elapsed());
            assert_eq!(report.health.chunks.processed, 1);
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert!(best < Duration::from_millis(10), "1-chunk run took {best:?}");
    }

    /// A worker can take a chunk before the feeder's `send` returns: the
    /// feeder counts the chunk into the queue gauge before sending it, so
    /// no worker ever reads the gauge below zero.
    #[test]
    fn queue_depth_gauge_never_reads_negative() {
        use crate::pipeline::Classifier;
        use spoofwatch_asgraph::As2Org;
        use spoofwatch_bgp::{Announcement, AsPath};
        use spoofwatch_obs::{MetricsRegistry, Tracer};
        use std::sync::atomic::AtomicI64;
        let ann = Announcement::new("20.0.0.0/8".parse().unwrap(), AsPath::from(vec![3]));
        let classifier = Classifier::build(&[ann], &As2Org::new());
        let flows: Vec<FlowRecord> = (0..4_000u32)
            .map(|i| FlowRecord {
                ts: i,
                src: 0x1400_0000 + i,
                dst: 0x0A00_0001,
                proto: spoofwatch_net::Proto::Udp,
                sport: 1000,
                dport: 53,
                packets: 1,
                bytes: 60,
                pkt_size: 60,
                member: Asn(3),
                ttl: 60,
            })
            .collect();
        let bytes = spoofwatch_ixp::ipfix::encode(&flows);
        let reg = MetricsRegistry::new();
        let depth = reg.gauge(
            "spoofwatch_runner_queue_depth",
            "Chunks currently sitting in the bounded worker queue",
            &[],
        );
        let cfg = RunnerConfig {
            workers: 2,
            queue_depth: 1,
            checkpoint_every: 1_000,
            stall_timeout_ms: 0,
            ..RunnerConfig::default()
        };
        let runner =
            StudyRunner::new(&classifier, cfg).with_obs(RunnerObs::new(reg, Tracer::disabled()));
        let dir =
            std::env::temp_dir().join(format!("spoofwatch-queue-depth-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("open store");
        let lowest = AtomicI64::new(0);
        let report = runner
            .run_with(&mut ChunkedIpfixReader::new(&bytes, 1), &store, |flows| {
                lowest.fetch_min(depth.get(), Ordering::Relaxed);
                vec![TrafficClass::Valid; flows.len()]
            })
            .expect("run completes");
        assert_eq!(report.health.chunks.processed, 4_000);
        assert!(lowest.into_inner() >= 0, "a worker read the queue gauge below zero");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Rerunning a finished study resumes at its terminal checkpoint and
    /// writes it again byte for byte, also when the last rollup window
    /// was partial: the terminal checkpoint carries the empty window after
    /// it, and the resumed writer must keep that window, not reset to the
    /// partial one.
    #[test]
    fn rerunning_a_finished_study_rewrites_its_terminal_checkpoint_unchanged() {
        use crate::pipeline::Classifier;
        use spoofwatch_asgraph::As2Org;
        use spoofwatch_bgp::{Announcement, AsPath};
        let ann = Announcement::new("20.0.0.0/8".parse().unwrap(), AsPath::from(vec![3]));
        let classifier = Classifier::build(&[ann], &As2Org::new());
        let flows: Vec<FlowRecord> = (0..10u32)
            .map(|i| FlowRecord {
                ts: i,
                src: 0x1400_0000 + i,
                dst: 0x0A00_0001,
                proto: spoofwatch_net::Proto::Udp,
                sport: 1000,
                dport: 53,
                packets: 1,
                bytes: 60,
                pkt_size: 60,
                member: Asn(3),
                ttl: 60,
            })
            .collect();
        let bytes = spoofwatch_ixp::ipfix::encode(&flows);
        let dir = std::env::temp_dir().join(format!("spoofwatch-rerun-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(dir.join("ckpt")).expect("open store");
        let cfg = RunnerConfig {
            stall_timeout_ms: 0,
            ..RunnerConfig::default()
        };
        // 10 one-record chunks in windows of 4: the last window holds 2.
        let runner = StudyRunner::new(&classifier, cfg)
            .with_rollups(RollupConfig::new(dir.join("ring"), 4));
        let first = runner
            .run(&mut ChunkedIpfixReader::new(&bytes, 1), &store)
            .expect("first run");
        let terminal = std::fs::read(store.current_path()).expect("terminal checkpoint");
        let again = runner
            .run(&mut ChunkedIpfixReader::new(&bytes, 1), &store)
            .expect("rerun");
        assert_eq!(again.health.resumed_at_chunk, Some(10));
        assert!(again.same_result(&first));
        assert!(
            std::fs::read(store.current_path()).expect("reread") == terminal,
            "the rerun rewrote the terminal checkpoint with other bytes"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_hash_separates_runs() {
        use crate::pipeline::Classifier;
        use spoofwatch_asgraph::As2Org;
        use spoofwatch_bgp::{Announcement, AsPath};
        let ann = Announcement::new("20.0.0.0/8".parse().unwrap(), AsPath::from(vec![3]));
        let classifier = Classifier::build(&[ann], &As2Org::new());
        let base = RunnerConfig::default();
        let r = StudyRunner::new(&classifier, base.clone());
        let h = r.config_hash(7);
        assert_eq!(h, StudyRunner::new(&classifier, base.clone()).config_hash(7));
        assert_ne!(h, r.config_hash(8), "trace identity");
        let mut seeded = base.clone();
        seeded.seed = 1;
        assert_ne!(h, StudyRunner::new(&classifier, seeded).config_hash(7));
        let mut plain = base;
        plain.org = OrgMode::Plain;
        assert_ne!(h, StudyRunner::new(&classifier, plain).config_hash(7));
    }

    /// A checkpoint written before the word-wide fingerprint binds its
    /// trace by the byte-wise FNV-1a value. It is a different study:
    /// refused with `ConfigMismatch`, never resumed, and not a torn slot.
    #[test]
    fn pre_upgrade_checkpoint_is_refused_not_resumed() {
        use crate::pipeline::Classifier;
        use spoofwatch_asgraph::As2Org;
        use spoofwatch_bgp::{Announcement, AsPath};
        // The byte-wise FNV-1a fingerprint the reader computed for this
        // trace at 4 records per chunk before the word-wide mixer.
        const PRE_UPGRADE_FINGERPRINT: u64 = 0x2c1d_564e_def4_d989;
        let ann = Announcement::new("20.0.0.0/8".parse().unwrap(), AsPath::from(vec![3]));
        let classifier = Classifier::build(&[ann], &As2Org::new());
        let flows: Vec<FlowRecord> = (0..10u32)
            .map(|i| FlowRecord {
                ts: i,
                src: 0x1400_0000 + i,
                dst: 0x0A00_0001,
                proto: spoofwatch_net::Proto::Udp,
                sport: 1000,
                dport: 53,
                packets: 1,
                bytes: 60,
                pkt_size: 60,
                member: Asn(3),
                ttl: 60,
            })
            .collect();
        let bytes = spoofwatch_ixp::ipfix::encode(&flows);
        let runner = StudyRunner::new(&classifier, RunnerConfig::default());

        let dir =
            std::env::temp_dir().join(format!("spoofwatch-pre-upgrade-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("open store");
        let first = ChunkedIpfixReader::new(&bytes, 4)
            .next_chunk()
            .expect("chunk 0");
        let committed = FlowAccounting {
            offered: 4,
            processed: 4,
            shed: 0,
            quarantined: 0,
        };
        let stale = Checkpoint {
            config_hash: runner.config_hash(PRE_UPGRADE_FINGERPRINT),
            committed_chunks: 1,
            byte_cursor: first.byte_end,
            records: committed,
            chunks: FlowAccounting {
                offered: 1,
                processed: 1,
                ..committed
            },
            ingest: IngestTotals::default(),
            per_member: BTreeMap::new(),
            disagreement: None,
            rollup_accum: None,
        };
        store.save(&stale).expect("save pre-upgrade checkpoint");
        let on_disk = std::fs::read(store.current_path()).expect("read slot");

        let mut source = ChunkedIpfixReader::new(&bytes, 4);
        let fingerprint = source.fingerprint();
        assert_ne!(fingerprint, PRE_UPGRADE_FINGERPRINT);
        match runner.run(&mut source, &store) {
            Err(RunnerError::ConfigMismatch { expected, found }) => {
                assert_eq!(found, stale.config_hash);
                assert_eq!(expected, runner.config_hash(fingerprint));
            }
            other => panic!("a pre-upgrade checkpoint must be refused, got {other:?}"),
        }
        // Not resumed: the slot is untouched. Not torn: it loads cleanly.
        assert_eq!(
            std::fs::read(store.current_path()).expect("reread"),
            on_disk
        );
        let (loaded, faults) = store.load_latest();
        assert!(faults.is_empty(), "counted as torn: {faults:?}");
        assert_eq!(loaded.map(|(cp, _)| cp), Some(stale));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
