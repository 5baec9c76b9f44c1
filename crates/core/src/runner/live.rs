//! Socket-fed live study mode with overload control and graceful drain.
//!
//! [`serve_live`] is the consuming shell of the chunk-link protocol
//! ([`spoofwatch_ixp::live`], [`spoofwatch_ixp::link`]): an `ixp`
//! producer streams paced IPFIX chunks over a [`ShardTransport`] frame
//! link, a [`ChunkReceiver`] admits them in order, and this side feeds
//! them through the supervised [`StudyRunner`] — checkpoints, rollups,
//! worker supervision, and the accounting invariant all unchanged from
//! file replay. Two mechanisms make live ingest survivable when offered
//! load exceeds capacity:
//!
//! * **Credit-based admission control.** The consumer grants absolute
//!   send-window credit (`Credit { up_to_seq }`) only as the runner
//!   drains the admission buffer, so at most `window` chunks are ever
//!   buffered: `admitted ≤ granted ≤ consumed + window`. A slow study
//!   pushes back at the wire instead of ballooning memory.
//! * **An explicit overload ladder** — Normal → Pressure → Shed →
//!   Refuse — driven by admission-buffer occupancy with hysteresis
//!   (each state's exit threshold sits below its entry threshold, and
//!   de-escalation steps down one rung per evaluation). `Shed` applies
//!   deterministic seeded *record* shedding at the buffer's mouth,
//!   booked exactly under `offered == processed + shed + quarantined`;
//!   `Refuse` freezes credit grants entirely, which is self-recovering:
//!   the buffer drains, occupancy falls, the ladder steps back down.
//!   Every transition emits a flight-recorder event and moves the
//!   `spoofwatch_live_overload_state` gauge.
//!
//! A stop request (flag or chunk budget) triggers **graceful drain**:
//! credit grants freeze, `Stop` goes to the producer, in-flight chunks
//! finish, the runner flushes its final rollup window and terminal
//! checkpoint, and the session returns a complete report plus a
//! [`LiveSession`] block (achieved rate, time-in-state, shed
//! accounting). Producer-stall and consumer-stall watchdogs bound every
//! wait: a producer that goes silent while holding credit is declared
//! lost and the study drains what it admitted instead of hanging.

use super::{
    fnv, read_ring, ChunkSource, CheckpointStore, FlowAccounting, RollupConfig, RunReport,
    RunnerConfig, RunnerError, RunnerObs, StudyRunner, WindowAccum,
};
use crate::pipeline::Classifier;
use serde::Serialize;
use spoofwatch_ixp::chunked::FlowChunk;
use spoofwatch_ixp::link::{ChunkReceiver, Received};
use spoofwatch_ixp::live::{self, Msg};
use spoofwatch_net::{FlowRecord, ShardTransport, TrafficClass};
use spoofwatch_obs::{Clock, Counter, Gauge, MetricsRegistry, Tracer};
use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

pub use spoofwatch_ixp::live::LIVE_WIRE_MAGIC;

/// The overload ladder's states, in escalation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum OverloadState {
    /// Occupancy comfortably below the window; credits flow freely.
    Normal,
    /// The buffer is filling: a warning rung — behavior is unchanged,
    /// but the transition is visible in events and the state gauge.
    Pressure,
    /// Offered load exceeds capacity: deterministic seeded record
    /// shedding at the admission buffer, booked as `shed`.
    Shed,
    /// The buffer is at (or near) its bound: credit grants freeze until
    /// the runner drains it back below the exit threshold.
    Refuse,
}

impl OverloadState {
    /// Index into per-state arrays (escalation order).
    pub fn idx(self) -> usize {
        match self {
            OverloadState::Normal => 0,
            OverloadState::Pressure => 1,
            OverloadState::Shed => 2,
            OverloadState::Refuse => 3,
        }
    }

    /// Stable snake_case name (metric label, event value).
    pub fn name(self) -> &'static str {
        match self {
            OverloadState::Normal => "normal",
            OverloadState::Pressure => "pressure",
            OverloadState::Shed => "shed",
            OverloadState::Refuse => "refuse",
        }
    }

    fn from_idx(i: u64) -> OverloadState {
        match i {
            1 => OverloadState::Pressure,
            2 => OverloadState::Shed,
            3 => OverloadState::Refuse,
            _ => OverloadState::Normal,
        }
    }
}

/// Occupancy thresholds for the overload ladder, with hysteresis: each
/// state's `*_exit` sits strictly below its `*_enter`, and
/// de-escalation steps down one rung per evaluation, so a buffer
/// oscillating around a boundary does not flap the state.
#[derive(Debug, Clone, Serialize)]
pub struct LiveLadder {
    /// Enter `Pressure` at this buffered-chunk occupancy.
    pub pressure_enter: usize,
    /// Leave `Pressure` (for `Normal`) at or below this occupancy.
    pub pressure_exit: usize,
    /// Enter `Shed` at this occupancy.
    pub shed_enter: usize,
    /// Leave `Shed` (for `Pressure`) at or below this occupancy.
    pub shed_exit: usize,
    /// Enter `Refuse` at this occupancy.
    pub refuse_enter: usize,
    /// Leave `Refuse` (for `Shed`) at or below this occupancy.
    pub refuse_exit: usize,
    /// While in `Shed`, keep 1 of every this many records (seeded,
    /// deterministic per `(seed, chunk seq, record index)`).
    pub shed_keep_one_in: u32,
}

impl LiveLadder {
    /// Thresholds derived from the admission window `w`: Pressure at
    /// half, Shed at three quarters, Refuse at the bound, exits at
    /// roughly half their entries.
    pub fn for_window(w: usize) -> LiveLadder {
        let w = w.max(1);
        let pressure_enter = (w / 2).max(1);
        let shed_enter = (w * 3 / 4).max(pressure_enter + 1).min(w);
        let refuse_enter = w;
        LiveLadder {
            pressure_enter,
            pressure_exit: pressure_enter / 2,
            shed_enter,
            shed_exit: shed_enter / 2,
            refuse_enter,
            refuse_exit: refuse_enter * 5 / 8,
            shed_keep_one_in: 4,
        }
    }

    /// Next state for the current occupancy: escalation jumps straight
    /// to the highest entered rung; de-escalation descends one rung per
    /// evaluation and only once occupancy clears the exit threshold.
    pub fn evaluate(&self, current: OverloadState, occupancy: usize) -> OverloadState {
        use OverloadState::*;
        let entered = if occupancy >= self.refuse_enter {
            Refuse
        } else if occupancy >= self.shed_enter {
            Shed
        } else if occupancy >= self.pressure_enter {
            Pressure
        } else {
            Normal
        };
        if entered > current {
            return entered;
        }
        let (exit, down) = match current {
            Refuse => (self.refuse_exit, Shed),
            Shed => (self.shed_exit, Pressure),
            Pressure => (self.pressure_exit, Normal),
            Normal => return Normal,
        };
        if occupancy <= exit {
            down
        } else {
            current
        }
    }
}

/// Consumer-side policy for one live session.
#[derive(Debug, Clone)]
pub struct LiveServerConfig {
    /// Runner policy for the wrapped study (same knobs as file replay;
    /// `interrupt_after_chunks` simulates a mid-session kill).
    pub runner: RunnerConfig,
    /// Rollup ring config, if the study writes windowed rollups.
    pub rollup: Option<RollupConfig>,
    /// Observability bundle (metrics, flight recorder, clock).
    pub obs: RunnerObs,
    /// Admission-buffer bound in chunks; also the credit window. The
    /// buffer provably never exceeds it.
    pub window: usize,
    /// Overload thresholds; `None` derives [`LiveLadder::for_window`].
    pub ladder: Option<LiveLadder>,
    /// How long to wait for the producer's `Welcome`.
    pub handshake_timeout_ms: u64,
    /// Producer-stall watchdog: a producer holding unspent credit (or
    /// owing a `Finish` during drain) that stays silent this long is
    /// declared lost; the study drains what was admitted and completes
    /// with a caveat instead of hanging.
    pub producer_stall_ms: u64,
    /// Minimum spacing between go-back-N `Resume` requests, and the
    /// silence threshold (×2) after which one is sent proactively.
    pub resume_throttle_ms: u64,
    /// Request graceful drain after admitting this many chunks this
    /// session (a time/volume-bounded soak).
    pub stop_after_chunks: Option<u64>,
    /// External graceful-stop request: set mid-session to trigger the
    /// drain sequence.
    pub stop: Option<Arc<AtomicBool>>,
}

impl LiveServerConfig {
    /// Defaults sized for same-host sessions: window 8, derived ladder.
    pub fn new(runner: RunnerConfig) -> LiveServerConfig {
        LiveServerConfig {
            runner,
            rollup: None,
            obs: RunnerObs::disabled(),
            window: 8,
            ladder: None,
            handshake_timeout_ms: 5_000,
            producer_stall_ms: 5_000,
            resume_throttle_ms: 200,
            stop_after_chunks: None,
            stop: None,
        }
    }
}

/// What one live session did, alongside the runner's own report. The
/// accounting here is the **session delta** (this session's records and
/// chunks, exclusive of whatever a resumed-from checkpoint already
/// held) with live shedding folded in, and it reconciles exactly:
/// `offered == processed + shed + quarantined` at both levels.
#[derive(Debug, Clone, Serialize)]
pub struct LiveSession {
    /// Admission window (chunks) the session ran with.
    pub window: usize,
    /// Producer's announced chunking.
    pub chunk_records: u32,
    /// Producer's announced target rate (records/sec; 0 = line rate).
    pub target_rps: u32,
    /// Wall-clock session duration (handshake to teardown).
    pub duration_ns: u64,
    /// Processed records per second over the session.
    pub achieved_records_per_sec: f64,
    /// Final overload state at teardown.
    pub final_state: OverloadState,
    /// Nanoseconds spent in each ladder state (escalation order).
    pub time_in_state_ns: [u64; 4],
    /// Ladder state transitions.
    pub transitions: u64,
    /// Recoveries: transitions from `Shed`-or-worse back below `Shed`.
    pub shed_recoveries: u64,
    /// Session-delta record accounting, live shedding included.
    pub records: FlowAccounting,
    /// Session-delta chunk accounting (live shedding drops records,
    /// never whole chunks, so this is the runner's chunk delta).
    pub chunks: FlowAccounting,
    /// Records shed at the admission buffer while in `Shed`.
    pub live_shed_records: u64,
    /// High-water mark of buffered chunks; provably ≤ `window`.
    pub max_buffered_chunks: usize,
    /// Credit grants sent.
    pub credits_granted: u64,
    /// Go-back-N `Resume` requests sent (including the initial one).
    pub resumes_sent: u64,
    /// Frame-layer faults absorbed by the transport's resynchronizer.
    pub wire_faults: u64,
    /// CRC-valid frames whose payload failed to decode.
    pub protocol_faults: u64,
    /// Producer-stall watchdog firings.
    pub producer_stalls: u64,
    /// Consumer-stall watchdog firings.
    pub consumer_stalls: u64,
    /// Chunk sequence the wrapped runner resumed from, if it resumed.
    pub resumed_at_chunk: Option<u64>,
    /// The producer was declared lost (link death or stall watchdog);
    /// the session drained what it had admitted.
    pub producer_lost: bool,
    /// A graceful stop was requested (flag or chunk budget).
    pub stop_requested: bool,
}

impl LiveSession {
    /// Whether both session-delta accounting levels reconcile exactly.
    pub fn reconciles(&self) -> bool {
        self.records.reconciles() && self.chunks.reconciles()
    }

    /// Human-readable caveats for the report.
    pub fn caveats(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.producer_lost {
            out.push(
                "the producer was declared lost mid-session; the study covers only \
                 what was admitted before the loss"
                    .to_string(),
            );
        }
        if self.live_shed_records > 0 {
            out.push(format!(
                "{} records were shed at the admission buffer under overload \
                 (deterministic seeded sampling; booked as shed)",
                self.live_shed_records
            ));
        }
        if self.producer_stalls > 0 || self.consumer_stalls > 0 {
            out.push(format!(
                "stall watchdogs fired ({} producer, {} consumer)",
                self.producer_stalls, self.consumer_stalls
            ));
        }
        if self.wire_faults > 0 || self.protocol_faults > 0 {
            out.push(format!(
                "the link absorbed {} wire faults and {} protocol faults \
                 (recovered via resynchronization and go-back-N resume)",
                self.wire_faults, self.protocol_faults
            ));
        }
        out
    }
}

/// A completed live study: the runner's report plus the session block.
#[derive(Debug, Clone, Serialize)]
pub struct LiveStudy {
    /// The wrapped runner's deliverable (cumulative, checkpoint-backed).
    pub report: RunReport,
    /// This session's live telemetry and delta accounting.
    pub session: LiveSession,
    /// Rollup windows on disk at teardown, when rollups were configured
    /// (includes windows from resumed-from sessions).
    #[serde(skip)]
    pub windows: Vec<WindowAccum>,
}

/// Why a live session failed.
#[derive(Debug)]
pub enum LiveError {
    /// No `Welcome` within the timeout, or the producer refused the
    /// session.
    Handshake(String),
    /// The wrapped runner failed; `Interrupted` here means the
    /// simulated-kill knob fired — checkpoints survive and a new
    /// session against the same store resumes exactly.
    Runner(RunnerError),
    /// Transport or checkpoint I/O failed.
    Io(io::Error),
}

impl fmt::Display for LiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiveError::Handshake(d) => write!(f, "live handshake failed: {d}"),
            LiveError::Runner(e) => write!(f, "live runner failed: {e}"),
            LiveError::Io(e) => write!(f, "live session I/O error: {e}"),
        }
    }
}

impl std::error::Error for LiveError {}

impl From<io::Error> for LiveError {
    fn from(e: io::Error) -> Self {
        LiveError::Io(e)
    }
}

impl From<RunnerError> for LiveError {
    fn from(e: RunnerError) -> Self {
        LiveError::Runner(e)
    }
}

/// Pre-registered live-session metric handles.
struct LiveMetrics {
    overload_state: Gauge,
    buffered: Gauge,
    transitions: [Counter; 4],
    shed_records: Counter,
    admitted: Counter,
    credits: Counter,
    resumes: Counter,
    producer_stalls: Counter,
    consumer_stalls: Counter,
    protocol_faults: Counter,
}

impl LiveMetrics {
    fn new(reg: &MetricsRegistry) -> LiveMetrics {
        let transition = |to: OverloadState| {
            reg.counter(
                "spoofwatch_live_overload_transitions_total",
                "Overload ladder transitions by destination state",
                &[("to", to.name())],
            )
        };
        LiveMetrics {
            overload_state: reg.gauge(
                "spoofwatch_live_overload_state",
                "Current overload ladder state (0 normal, 1 pressure, 2 shed, 3 refuse)",
                &[],
            ),
            buffered: reg.gauge(
                "spoofwatch_live_buffered_chunks",
                "Chunks in the live admission buffer",
                &[],
            ),
            transitions: [
                transition(OverloadState::Normal),
                transition(OverloadState::Pressure),
                transition(OverloadState::Shed),
                transition(OverloadState::Refuse),
            ],
            shed_records: reg.counter(
                "spoofwatch_live_shed_records_total",
                "Records shed at the live admission buffer under overload",
                &[],
            ),
            admitted: reg.counter(
                "spoofwatch_live_admitted_chunks_total",
                "Chunks admitted in order from the live link",
                &[],
            ),
            credits: reg.counter(
                "spoofwatch_live_credits_granted_total",
                "Credit grants sent to the producer",
                &[],
            ),
            resumes: reg.counter(
                "spoofwatch_live_resumes_total",
                "Go-back-N resume requests sent to the producer",
                &[],
            ),
            producer_stalls: reg.counter(
                "spoofwatch_live_producer_stalls_total",
                "Producer-stall watchdog firings",
                &[],
            ),
            consumer_stalls: reg.counter(
                "spoofwatch_live_consumer_stalls_total",
                "Consumer-stall watchdog firings",
                &[],
            ),
            protocol_faults: reg.counter(
                "spoofwatch_live_protocol_faults_total",
                "CRC-valid frames whose payload failed to decode",
                &[],
            ),
        }
    }
}

/// State shared between the control thread (owns the transport) and the
/// runner's chunk source.
struct LiveShared {
    /// In-order admission buffer; bounded by the credit protocol, not
    /// by this container.
    buffer: Mutex<VecDeque<FlowChunk>>,
    /// Signaled when chunks are admitted or a terminal flag flips.
    available: Condvar,
    /// Next chunk sequence the runner will consume (advanced at pop).
    consumed: AtomicU64,
    /// Records shed at the buffer mouth while in `Shed`.
    shed_records: AtomicU64,
    /// Current [`OverloadState`] as its index.
    overload: AtomicU64,
    /// `Finish` matched the expected sequence: clean end of stream.
    finished: AtomicBool,
    /// The producer is gone (link death or stall watchdog): drain what
    /// is buffered, then end the stream.
    producer_lost: AtomicBool,
    /// The runner returned; the control thread should tear down.
    done: AtomicBool,
    /// The runner finished cleanly (send `Bye`; otherwise the teardown
    /// is kill-like and the link just drops).
    clean: AtomicBool,
    /// Pending reposition from `ChunkSource::seek`: (byte_cursor, seq).
    seek_req: Mutex<Option<(u64, u64)>>,
}

impl LiveShared {
    fn new() -> LiveShared {
        LiveShared {
            buffer: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            consumed: AtomicU64::new(0),
            shed_records: AtomicU64::new(0),
            overload: AtomicU64::new(0),
            finished: AtomicBool::new(false),
            producer_lost: AtomicBool::new(false),
            done: AtomicBool::new(false),
            clean: AtomicBool::new(false),
            seek_req: Mutex::new(None),
        }
    }

    fn notify(&self) {
        let _guard = self
            .buffer
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        self.available.notify_all();
    }
}

/// The live [`ChunkSource`]: pops in-order admitted chunks, applying
/// deterministic seeded record shedding while the ladder is in `Shed`.
/// Chunks are always forwarded (possibly with fewer records) so the
/// sequence/cursor continuity the checkpoint depends on is preserved.
struct LiveChunkSource<'x> {
    shared: &'x LiveShared,
    fingerprint: u64,
    seed: u64,
    keep_one_in: u32,
    shed_metric: Counter,
}

impl ChunkSource for LiveChunkSource<'_> {
    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn seek(&mut self, byte_cursor: u64, seq: u64) {
        self.shared.consumed.store(seq, Ordering::Relaxed);
        let mut cell = self
            .shared
            .seek_req
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        *cell = Some((byte_cursor, seq));
    }

    fn next_chunk(&mut self) -> Option<FlowChunk> {
        loop {
            let mut buf = self
                .shared
                .buffer
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            if let Some(mut chunk) = buf.pop_front() {
                drop(buf);
                self.shared
                    .consumed
                    .store(chunk.seq + 1, Ordering::Relaxed);
                let state =
                    OverloadState::from_idx(self.shared.overload.load(Ordering::Relaxed));
                if state >= OverloadState::Shed && !chunk.flows.is_empty() {
                    let keep = self.keep_one_in.max(1) as u64;
                    let seq = chunk.seq;
                    let seed = self.seed;
                    let before = chunk.flows.len();
                    let mut idx = 0u64;
                    chunk.flows.retain(|_| {
                        let kept = fnv(&[seed, seq, idx]).is_multiple_of(keep);
                        idx += 1;
                        kept
                    });
                    let shed = (before - chunk.flows.len()) as u64;
                    if shed > 0 {
                        self.shared.shed_records.fetch_add(shed, Ordering::Relaxed);
                        self.shed_metric.add(shed);
                    }
                }
                return Some(chunk);
            }
            if self.shared.finished.load(Ordering::Relaxed)
                || self.shared.producer_lost.load(Ordering::Relaxed)
            {
                return None;
            }
            // Bounded slice: terminal flags are checked every pass, and
            // the control thread's watchdogs guarantee one eventually
            // flips — no wait here is unbounded.
            let (guard, _timeout) = self
                .shared
                .available
                .wait_timeout(buf, Duration::from_millis(20))
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            drop(guard);
        }
    }
}

/// Telemetry the control thread hands back at teardown.
#[derive(Default)]
struct ControlOutcome {
    transitions: u64,
    shed_recoveries: u64,
    time_in_state_ns: [u64; 4],
    final_state_idx: u64,
    credits_granted: u64,
    resumes_sent: u64,
    protocol_faults: u64,
    producer_stalls: u64,
    consumer_stalls: u64,
    max_buffered: usize,
    wire_faults: u64,
    stop_requested: bool,
    duration_ns: u64,
}

/// The control thread's ladder cursor: current state plus when it was
/// entered. Occupancy is observed both at admission time (holding the
/// buffer lock, so an escalation is visible to the runner before it can
/// pop the chunk that caused it) and once per poll iteration (so
/// de-escalation happens as the buffer drains, even with no traffic).
struct LadderCtl<'a> {
    ladder: &'a LiveLadder,
    state: OverloadState,
    state_since: u64,
}

impl LadderCtl<'_> {
    fn observe(
        &mut self,
        occ: usize,
        out: &mut ControlOutcome,
        lm: &LiveMetrics,
        tracer: &Tracer,
        clock: &dyn Clock,
        shared: &LiveShared,
    ) {
        out.max_buffered = out.max_buffered.max(occ);
        lm.buffered.set(occ as i64);
        let next = self.ladder.evaluate(self.state, occ);
        if next == self.state {
            return;
        }
        let now = clock.now_ns();
        out.time_in_state_ns[self.state.idx()] += now.saturating_sub(self.state_since);
        self.state_since = now;
        out.transitions += 1;
        lm.transitions[next.idx()].inc();
        lm.overload_state.set(next.idx() as i64);
        if self.state >= OverloadState::Shed && next < OverloadState::Shed {
            out.shed_recoveries += 1;
        }
        tracer.event(
            "live_overload_transition",
            &[
                ("from", (self.state.idx() as u64).into()),
                ("to", (next.idx() as u64).into()),
                ("buffered", (occ as u64).into()),
            ],
        );
        self.state = next;
        shared.overload.store(next.idx() as u64, Ordering::Relaxed);
    }
}

/// Poll slice for the control loop.
const POLL: Duration = Duration::from_millis(5);

/// Consumer-stall telemetry: flag (event + counter) when admitted
/// chunks sit unconsumed this long — the live-side mirror of the
/// runner's own watchdog, which supervises the actual stall.
const CONSUMER_STALL_NS: u64 = 5_000_000_000;

/// Serve one live session: handshake, admit paced chunks under credit
/// and the overload ladder, run the study to a graceful drain, and
/// return the report with its live-session block. Classification uses
/// the configured method/org pair (see [`RunnerConfig`]).
///
/// Call again with the same `store` (and rollup dir) after a kill or a
/// producer loss: the wrapped runner resumes from its checkpoint and
/// the new session asks the producer to replay from that position.
pub fn serve_live(
    classifier: &Classifier,
    cfg: &LiveServerConfig,
    store: &CheckpointStore,
    transport: ShardTransport,
) -> Result<LiveStudy, LiveError> {
    serve_live_inner(classifier, cfg, store, transport, None)
}

/// [`serve_live`] with an explicit per-chunk classify function — the
/// supervision seam: tests inject slow or panicking classifiers here to
/// force the overload ladder and quarantine paths.
pub fn serve_live_with<F>(
    classifier: &Classifier,
    cfg: &LiveServerConfig,
    store: &CheckpointStore,
    transport: ShardTransport,
    classify: F,
) -> Result<LiveStudy, LiveError>
where
    F: Fn(&[FlowRecord]) -> Vec<TrafficClass> + Sync,
{
    serve_live_inner(classifier, cfg, store, transport, Some(&classify))
}

type ClassifyFn<'f> = &'f (dyn Fn(&[FlowRecord]) -> Vec<TrafficClass> + Sync);

fn serve_live_inner(
    classifier: &Classifier,
    cfg: &LiveServerConfig,
    store: &CheckpointStore,
    mut transport: ShardTransport,
    classify: Option<ClassifyFn<'_>>,
) -> Result<LiveStudy, LiveError> {
    let window = cfg.window.max(1);
    let ladder = cfg
        .ladder
        .clone()
        .unwrap_or_else(|| LiveLadder::for_window(window));
    let lm = LiveMetrics::new(&cfg.obs.metrics);
    let clock = Arc::clone(&cfg.obs.clock);
    let tracer = Arc::clone(&cfg.obs.tracer);

    let handshake = Duration::from_millis(cfg.handshake_timeout_ms.max(1));
    let (fingerprint, chunk_records, target_rps) = live::open_stream(&mut transport, 0, handshake)
        .map_err(|e| LiveError::Handshake(e.to_string()))?;
    let (mut tx_half, mut rx_half) = transport.split();
    tracer.event(
        "live_session_start",
        &[
            ("fingerprint", fingerprint.into()),
            ("chunk_records", (chunk_records as u64).into()),
            ("target_rps", (target_rps as u64).into()),
            ("window", (window as u64).into()),
        ],
    );

    let mut runner = StudyRunner::new(classifier, cfg.runner.clone()).with_obs(cfg.obs.clone());
    if let Some(rollup) = &cfg.rollup {
        runner = runner.with_rollups(rollup.clone());
    }
    let config_hash = runner.config_hash(fingerprint);
    // Session-delta baseline: whatever a matching checkpoint already
    // accounted for happened in previous sessions, not this one.
    let baseline = store
        .load_latest()
        .0
        .and_then(|(cp, _slot)| {
            (cp.config_hash == config_hash).then_some((cp.records, cp.chunks))
        })
        .unwrap_or_default();

    let shared = LiveShared::new();
    let mut source = LiveChunkSource {
        shared: &shared,
        fingerprint,
        seed: cfg.runner.seed,
        keep_one_in: ladder.shed_keep_one_in,
        shed_metric: lm.shed_records.clone(),
    };

    let (run_result, control) = thread::scope(|s| {
        let shared_ref = &shared;
        let lm_ref = &lm;
        let ladder_ref = &ladder;
        let clock_ref = &clock;
        let tracer_ref = &tracer;
        let tx = &mut tx_half;
        let rx = &mut rx_half;
        let control = s.spawn(move || {
            let mut out = ControlOutcome::default();
            let start_ns = clock_ref.now_ns();
            let mut ladder_ctl = LadderCtl {
                ladder: ladder_ref,
                state: OverloadState::Normal,
                state_since: start_ns,
            };
            let throttle_ns = cfg.resume_throttle_ms.max(1).saturating_mul(1_000_000);
            let mut receiver = ChunkReceiver::new(window as u64, throttle_ns);
            let mut admitted = 0u64;
            let mut stop_sent = false;
            let mut last_frame_ns = start_ns;
            let producer_stall_ns = cfg.producer_stall_ms.max(1).saturating_mul(1_000_000);
            let mut last_consumed = shared_ref.consumed.load(Ordering::Relaxed);
            let mut consumed_since = start_ns;
            let mut consumer_stall_flagged = false;
            lm_ref.overload_state.set(0);
            // A failed send means the producer is gone.
            let mut send = |msg: Msg| {
                let sent = tx.send(&msg.encode()).is_ok();
                if !sent {
                    mark_lost(shared_ref, tracer_ref, "send failed");
                }
                sent
            };

            loop {
                // Reposition request from the runner (startup resume, or
                // a fresh session's seek).
                let seek = {
                    let mut cell = shared_ref
                        .seek_req
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    cell.take()
                };
                if let Some((byte_cursor, seq)) = seek {
                    receiver.seek(byte_cursor, seq, clock_ref.now_ns());
                }
                // Go-back-N requests the receiver queued: that seek, or
                // a gap, a damaged frame or the silence nudge last pass.
                if receiver.take_resume().is_some_and(&mut send) {
                    out.resumes_sent += 1;
                    lm_ref.resumes.inc();
                }

                if shared_ref.done.load(Ordering::Relaxed) {
                    break;
                }

                // Graceful-drain trigger: external flag or chunk budget.
                let stop_due = cfg
                    .stop
                    .as_ref()
                    .is_some_and(|f| f.load(Ordering::Relaxed))
                    || cfg.stop_after_chunks.is_some_and(|n| admitted >= n);
                if stop_due && !stop_sent && receiver.positioned() {
                    stop_sent = true;
                    out.stop_requested = true;
                    tracer_ref.event(
                        "live_stop_requested",
                        &[("admitted_chunks", admitted.into())],
                    );
                    send(Msg::Stop);
                }

                // Drain the link.
                if shared_ref.producer_lost.load(Ordering::Relaxed) {
                    // The link is gone; just wait for the runner.
                    thread::sleep(POLL);
                } else {
                    match rx.recv(POLL) {
                        Ok(Some(payload)) => {
                            last_frame_ns = clock_ref.now_ns();
                            match receiver.on_frame(&payload, last_frame_ns) {
                                Received::Chunk(chunk) => {
                                    admitted += 1;
                                    lm_ref.admitted.inc();
                                    let mut buf = shared_ref
                                        .buffer
                                        .lock()
                                        .unwrap_or_else(|p| p.into_inner());
                                    buf.push_back(chunk);
                                    // Escalate before the runner can
                                    // pop what was just admitted.
                                    ladder_ctl.observe(
                                        buf.len(),
                                        &mut out,
                                        lm_ref,
                                        tracer_ref,
                                        &**clock_ref,
                                        shared_ref,
                                    );
                                    shared_ref.available.notify_all();
                                }
                                Received::Finished => {
                                    shared_ref.finished.store(true, Ordering::Relaxed);
                                    shared_ref.notify();
                                }
                                Received::Other(Msg::Fatal { code, detail }) => {
                                    tracer_ref.event(
                                        "live_producer_fatal",
                                        &[("code", (code as u64).into())],
                                    );
                                    tracer_ref
                                        .trigger_dump(&format!("producer fatal {code}: {detail}"));
                                    mark_lost(shared_ref, tracer_ref, "producer fatal");
                                }
                                Received::Undecodable => {
                                    out.protocol_faults += 1;
                                    lm_ref.protocol_faults.inc();
                                }
                                Received::Other(_) | Received::Dropped => {}
                            }
                        }
                        Ok(None) => {}
                        Err(_) => mark_lost(shared_ref, tracer_ref, "link died"),
                    }
                }

                // Overload ladder evaluation on buffer occupancy (the
                // de-escalation path: admission already escalated).
                let occ = shared_ref
                    .buffer
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .len();
                ladder_ctl.observe(occ, &mut out, lm_ref, tracer_ref, &**clock_ref, shared_ref);

                let finished = shared_ref.finished.load(Ordering::Relaxed);
                let lost = shared_ref.producer_lost.load(Ordering::Relaxed);

                // Credit grants: only while the session is open and
                // below Refuse, and only when the runner's progress
                // moves the grant.
                if !stop_sent && !finished && !lost && ladder_ctl.state < OverloadState::Refuse {
                    let consumed = shared_ref.consumed.load(Ordering::Relaxed);
                    if receiver.credit(consumed, false).is_some_and(&mut send) {
                        out.credits_granted += 1;
                        lm_ref.credits.inc();
                    }
                }

                // Producer-stall watchdog: silence while chunks (or a
                // drain Finish) are owed.
                if receiver.positioned() && !finished && !lost {
                    let owed = receiver.owed() || stop_sent;
                    let silent_ns = clock_ref.now_ns().saturating_sub(last_frame_ns);
                    if owed && silent_ns > producer_stall_ns {
                        out.producer_stalls += 1;
                        lm_ref.producer_stalls.inc();
                        tracer_ref.event(
                            "live_producer_stall",
                            &[("silent_ms", (silent_ns / 1_000_000).into())],
                        );
                        tracer_ref.trigger_dump("live producer stall: declaring producer lost");
                        mark_lost(shared_ref, tracer_ref, "stall watchdog");
                    } else if owed && silent_ns > throttle_ns.saturating_mul(2) {
                        // Nudge before the watchdog: the producer may
                        // have missed our Resume or sent into a lossy
                        // link.
                        receiver.on_silence(clock_ref.now_ns());
                    }
                }

                // Consumer-stall watchdog (telemetry: the runner's own
                // watchdog supervises the actual stall).
                let consumed_now = shared_ref.consumed.load(Ordering::Relaxed);
                if consumed_now != last_consumed {
                    last_consumed = consumed_now;
                    consumed_since = clock_ref.now_ns();
                    consumer_stall_flagged = false;
                } else if occ > 0
                    && !consumer_stall_flagged
                    && clock_ref.now_ns().saturating_sub(consumed_since) > CONSUMER_STALL_NS
                {
                    consumer_stall_flagged = true;
                    out.consumer_stalls += 1;
                    lm_ref.consumer_stalls.inc();
                    tracer_ref.event(
                        "live_consumer_stall",
                        &[("buffered", (occ as u64).into())],
                    );
                }
            }

            if shared_ref.clean.load(Ordering::Relaxed) {
                let _ = tx.send(&Msg::Bye.encode());
            }
            let now = clock_ref.now_ns();
            out.time_in_state_ns[ladder_ctl.state.idx()] +=
                now.saturating_sub(ladder_ctl.state_since);
            out.final_state_idx = ladder_ctl.state.idx() as u64;
            out.duration_ns = now.saturating_sub(start_ns);
            out.wire_faults = rx.wire_faults();
            out
        });

        let result = match classify {
            None => runner.run(&mut source, store),
            Some(f) => runner.run_with(&mut source, store, |flows| f(flows)),
        };
        if result.is_ok() {
            shared.clean.store(true, Ordering::Relaxed);
        }
        shared.done.store(true, Ordering::Relaxed);
        let control = control.join().unwrap_or_default();
        (result, control)
    });

    let report = run_result?;
    let live_shed = shared.shed_records.load(Ordering::Relaxed);
    let d = |a: u64, b: u64| a.saturating_sub(b);
    let records = FlowAccounting {
        offered: d(report.health.records.offered, baseline.0.offered) + live_shed,
        processed: d(report.health.records.processed, baseline.0.processed),
        shed: d(report.health.records.shed, baseline.0.shed) + live_shed,
        quarantined: d(report.health.records.quarantined, baseline.0.quarantined),
    };
    let chunks = FlowAccounting {
        offered: d(report.health.chunks.offered, baseline.1.offered),
        processed: d(report.health.chunks.processed, baseline.1.processed),
        shed: d(report.health.chunks.shed, baseline.1.shed),
        quarantined: d(report.health.chunks.quarantined, baseline.1.quarantined),
    };
    let secs = control.duration_ns as f64 / 1e9;
    let session = LiveSession {
        window,
        chunk_records,
        target_rps,
        duration_ns: control.duration_ns,
        achieved_records_per_sec: if secs > 0.0 {
            records.processed as f64 / secs
        } else {
            0.0
        },
        final_state: OverloadState::from_idx(control.final_state_idx),
        time_in_state_ns: control.time_in_state_ns,
        transitions: control.transitions,
        shed_recoveries: control.shed_recoveries,
        records,
        chunks,
        live_shed_records: live_shed,
        max_buffered_chunks: control.max_buffered,
        credits_granted: control.credits_granted,
        resumes_sent: control.resumes_sent,
        wire_faults: control.wire_faults,
        protocol_faults: control.protocol_faults,
        producer_stalls: control.producer_stalls,
        consumer_stalls: control.consumer_stalls,
        resumed_at_chunk: report.health.resumed_at_chunk,
        producer_lost: shared.producer_lost.load(Ordering::Relaxed),
        stop_requested: control.stop_requested,
    };
    tracer.event(
        "live_session_end",
        &[
            ("admitted_records", session.records.offered.into()),
            ("shed_records", session.records.shed.into()),
            ("transitions", session.transitions.into()),
            ("producer_lost", session.producer_lost.into()),
        ],
    );
    let windows = match &cfg.rollup {
        Some(rollup) => read_ring(&rollup.dir)?.0,
        None => Vec::new(),
    };
    Ok(LiveStudy {
        report,
        session,
        windows,
    })
}

fn mark_lost(shared: &LiveShared, tracer: &spoofwatch_obs::Tracer, why: &str) {
    if !shared.producer_lost.swap(true, Ordering::Relaxed) {
        tracer.event("live_producer_lost", &[]);
        tracer.trigger_dump(&format!("live producer lost: {why}"));
    }
    shared.notify();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_defaults_have_hysteresis() {
        for w in [1usize, 2, 4, 8, 16, 64] {
            let l = LiveLadder::for_window(w);
            assert!(l.pressure_exit < l.pressure_enter, "w={w}");
            assert!(l.shed_exit < l.shed_enter, "w={w}");
            assert!(l.refuse_exit < l.refuse_enter, "w={w}");
            assert!(l.pressure_enter <= l.shed_enter, "w={w}");
            assert!(l.shed_enter <= l.refuse_enter, "w={w}");
            assert_eq!(l.refuse_enter, w.max(1), "refuse sits at the bound");
        }
    }

    #[test]
    fn ladder_escalates_directly_and_descends_one_rung() {
        use OverloadState::*;
        let l = LiveLadder::for_window(8); // enters 4/6/8, exits 2/3/5
        assert_eq!(l.evaluate(Normal, 0), Normal);
        assert_eq!(l.evaluate(Normal, 4), Pressure);
        assert_eq!(l.evaluate(Normal, 8), Refuse); // straight to the top
        assert_eq!(l.evaluate(Pressure, 6), Shed);
        // Hysteresis: occupancy between exit and enter holds the state.
        assert_eq!(l.evaluate(Pressure, 3), Pressure);
        assert_eq!(l.evaluate(Pressure, 2), Normal);
        assert_eq!(l.evaluate(Shed, 4), Shed);
        assert_eq!(l.evaluate(Shed, 3), Pressure);
        // One rung per evaluation even from empty.
        assert_eq!(l.evaluate(Refuse, 0), Shed);
        assert_eq!(l.evaluate(Shed, 0), Pressure);
        assert_eq!(l.evaluate(Pressure, 0), Normal);
    }

    #[test]
    fn overload_state_order_and_names() {
        use OverloadState::*;
        assert!(Normal < Pressure && Pressure < Shed && Shed < Refuse);
        for (i, s) in [Normal, Pressure, Shed, Refuse].into_iter().enumerate() {
            assert_eq!(s.idx(), i);
            assert_eq!(OverloadState::from_idx(i as u64), s);
            assert!(!s.name().is_empty());
        }
    }

    #[test]
    fn session_reconciliation_and_caveats() {
        let acc = FlowAccounting {
            offered: 100,
            processed: 80,
            shed: 15,
            quarantined: 5,
        };
        let session = LiveSession {
            window: 8,
            chunk_records: 50,
            target_rps: 10_000,
            duration_ns: 1_000_000_000,
            achieved_records_per_sec: 80.0,
            final_state: OverloadState::Normal,
            time_in_state_ns: [1_000_000_000, 0, 0, 0],
            transitions: 4,
            shed_recoveries: 1,
            records: acc,
            chunks: FlowAccounting {
                offered: 2,
                processed: 2,
                shed: 0,
                quarantined: 0,
            },
            live_shed_records: 15,
            max_buffered_chunks: 6,
            credits_granted: 9,
            resumes_sent: 1,
            wire_faults: 3,
            protocol_faults: 1,
            producer_stalls: 0,
            consumer_stalls: 0,
            resumed_at_chunk: None,
            producer_lost: false,
            stop_requested: true,
        };
        assert!(session.reconciles());
        let caveats = session.caveats();
        assert!(caveats.iter().any(|c| c.contains("shed")));
        assert!(caveats.iter().any(|c| c.contains("wire faults")));
        assert!(!caveats.iter().any(|c| c.contains("lost")));
    }
}
