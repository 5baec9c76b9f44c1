//! Socket-fed live study mode with overload control and graceful drain.
//!
//! [`serve_live`] is the live shell around the one link consumer
//! (`runner::link`): it does the handshake with an `ixp` producer that
//! streams paced IPFIX chunks over a [`ShardTransport`] frame link, hands
//! the link to the consumer loop with the live policy, and turns what
//! the loop and the supervised [`StudyRunner`] did into a [`LiveStudy`]
//! — checkpoints, rollups, worker supervision, and the accounting
//! invariant all unchanged from file replay. The live policy is what
//! makes live ingest survivable when offered load exceeds capacity:
//!
//! * **Credit-based admission control.** The consumer grants absolute
//!   send-window credit (`Credit { up_to_seq }`) only as the runner
//!   drains the admission buffer, so at most `window` chunks are ever
//!   buffered: `admitted ≤ granted ≤ consumed + window`. A slow study
//!   pushes back at the wire instead of ballooning memory.
//! * **An explicit overload ladder** ([`LiveLadder`]) — Normal →
//!   Pressure → Shed → Refuse — driven by admission-buffer occupancy
//!   with hysteresis (each state's exit threshold sits below its entry
//!   threshold, and de-escalation steps down one rung per evaluation).
//!   `Shed` keeps a deterministic seeded 1 in 4 *records* at the
//!   buffer's mouth and books the rest exactly under `offered ==
//!   processed + shed + quarantined`; `Refuse` freezes credit grants
//!   entirely, which is self-recovering: the buffer drains, occupancy
//!   falls, the ladder steps back down. Every transition emits a
//!   flight-recorder event and moves the `spoofwatch_live_overload_state`
//!   gauge.
//! * **A lost producer drains.** Link death, a `Fatal` or the stall
//!   watchdog ends the stream; the study completes over what was
//!   admitted, with a caveat, instead of hanging or aborting.
//!
//! A chunk budget (`stop_after_chunks`) triggers **graceful drain**:
//! credit grants freeze, `Stop` goes to the producer, in-flight chunks
//! finish, the runner flushes its final rollup window and terminal
//! checkpoint, and the session returns a complete report plus a
//! [`LiveSession`] block (achieved rate, time-in-state, shed
//! accounting, flow-control and fault counters); the session's delta
//! accounting and the `spoofwatch_live_*` series are this shell's alone.

use super::link::{self, LinkPolicy, OnLoss};
use super::{
    read_ring, CheckpointStore, FlowAccounting, RollupConfig, RunReport, RunnerConfig,
    RunnerError, RunnerObs, StudyRunner, WindowAccum,
};
use crate::pipeline::Classifier;
use serde::Serialize;
use spoofwatch_ixp::link::ReceiverRules;
use spoofwatch_ixp::live::{self, Msg};
use spoofwatch_net::{FlowRecord, ShardTransport, TrafficClass};
use std::fmt;
use std::io;
use std::sync::Arc;
use std::time::Duration;

pub use spoofwatch_ixp::live::LIVE_WIRE_MAGIC;

/// The overload ladder's states, in escalation order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum OverloadState {
    /// Occupancy comfortably below the window; credits flow freely.
    #[default]
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

    pub(super) fn from_idx(i: u64) -> OverloadState {
        match i {
            1 => OverloadState::Pressure,
            2 => OverloadState::Shed,
            3 => OverloadState::Refuse,
            _ => OverloadState::Normal,
        }
    }
}

/// Occupancy thresholds for the overload ladder, with hysteresis: each
/// state's exit sits strictly below its entry, and de-escalation steps
/// down one rung per evaluation, so a buffer oscillating around a
/// boundary does not flap the state. [`LiveLadder::for_window`] is the
/// one way to build it.
#[derive(Debug, Clone, Serialize)]
pub struct LiveLadder {
    /// Enter `Pressure` at this buffered-chunk occupancy.
    pressure_enter: usize,
    /// Leave `Pressure` (for `Normal`) at or below this occupancy.
    pressure_exit: usize,
    /// Enter `Shed` at this occupancy.
    shed_enter: usize,
    /// Leave `Shed` (for `Pressure`) at or below this occupancy.
    shed_exit: usize,
    /// Enter `Refuse` at this occupancy.
    refuse_enter: usize,
    /// Leave `Refuse` (for `Shed`) at or below this occupancy.
    refuse_exit: usize,
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
            producer_stall_ms: 5_000,
            resume_throttle_ms: 200,
            stop_after_chunks: None,
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
    /// A graceful stop was requested (the chunk budget ran out).
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

/// How long [`serve_live`] waits for the producer's `Welcome`. The
/// live producer fingerprints its whole trace before it answers, so
/// this is the longest of the link handshakes.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_millis(5_000);

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
    let tracer = Arc::clone(&cfg.obs.tracer);

    let (fingerprint, chunk_records, target_rps) =
        live::open_stream(&mut transport, 0, HANDSHAKE_TIMEOUT)
            .map_err(|e| LiveError::Handshake(e.to_string()))?;
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

    let rules = ReceiverRules {
        window: window as u64,
        resume_throttle_ms: cfg.resume_throttle_ms,
        stall_ms: cfg.producer_stall_ms,
        beacon_ms: None,
        stop_after_chunks: cfg.stop_after_chunks,
    };
    let policy = LinkPolicy {
        ladder: Some(&ladder),
        on_loss: OnLoss::Drain,
    };
    let (run_result, link) = link::consume(
        transport,
        fingerprint,
        rules,
        &policy,
        runner,
        &cfg.obs.metrics,
        |runner, source| {
            let result = match classify {
                None => runner.run(source, store),
                Some(f) => runner.run_with(source, store, f),
            };
            // A finished run says goodbye; a failed one just drops the
            // link, like a kill.
            let tail = match result {
                Ok(_) => vec![Msg::Bye.encode()],
                Err(_) => Vec::new(),
            };
            (result, tail)
        },
    );

    let report = run_result?;
    let live_shed = link.shed_records;
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
    let secs = link.duration_ns as f64 / 1e9;
    let session = LiveSession {
        window,
        chunk_records,
        target_rps,
        duration_ns: link.duration_ns,
        achieved_records_per_sec: if secs > 0.0 {
            records.processed as f64 / secs
        } else {
            0.0
        },
        final_state: link.final_state,
        time_in_state_ns: link.time_in_state_ns,
        transitions: link.transitions,
        shed_recoveries: link.shed_recoveries,
        records,
        chunks,
        live_shed_records: live_shed,
        max_buffered_chunks: link.max_buffered,
        credits_granted: link.credits_granted,
        resumes_sent: link.resumes_sent,
        wire_faults: link.wire_faults,
        protocol_faults: link.protocol_faults,
        producer_stalls: link.producer_stalls,
        consumer_stalls: link.consumer_stalls,
        resumed_at_chunk: report.health.resumed_at_chunk,
        producer_lost: link.lost,
        stop_requested: link.stop_requested,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_defaults_have_hysteresis() {
        for w in 1usize..=1024 {
            let l = LiveLadder::for_window(w);
            assert!(l.pressure_exit < l.pressure_enter, "w={w}");
            assert!(l.shed_exit < l.shed_enter, "w={w}");
            assert!(l.refuse_exit < l.refuse_enter, "w={w}");
            assert!(l.pressure_enter <= l.shed_enter, "w={w}");
            assert!(l.shed_enter <= l.refuse_enter, "w={w}");
            assert_eq!(l.refuse_enter, w, "refuse sits at the bound");
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
