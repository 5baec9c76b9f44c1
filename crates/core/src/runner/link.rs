//! The consuming end of the chunk link — one loop for both network modes.
//!
//! A shard worker ([`super::shard::serve_shard`]) and a live session
//! ([`super::live::serve_live`]) consume the same protocol
//! ([`spoofwatch_ixp::live`]) under the same rules ([`ChunkReceiver`]),
//! so they run the same thread layout: one control thread owns the
//! transport and the receiver, admits chunks in order into a bounded
//! admission buffer and sends whatever control message the receiver has
//! due as the runner pops it; the runner, on the caller's thread, reads
//! that buffer through [`LinkSource`]. Every clock rule — the credit
//! window and its 2 ms grant slice, the go-back-N nudge, the stall
//! bound, the beacon and the drain budget — is the receiver's, built
//! from the [`ReceiverRules`] the shell passes in; this loop keeps only
//! I/O, the admission buffer, the overload ladder and the telemetry.
//! What else differs between the modes is [`LinkPolicy`]: whether an
//! overload ladder may shed and withhold credit, and whether a lost link
//! aborts the run or lets it drain. Whatever the shell sends once the
//! run is over (`Bye`, or a shard's ring and report) is the loop's last
//! act, so the beacon keeps vouching for the consumer while that tail is
//! being prepared.
//!
//! A lost link — the receiver's silence rule, a failed send or receive,
//! or a `Fatal` from the sender — ends the stream once the buffer is
//! empty, and under [`OnLoss::Abort`] also interrupts the runner at its
//! next chunk boundary, so no terminal checkpoint or final partial
//! rollup window is written.

use super::live::{LiveLadder, OverloadState};
use super::obs::RunnerObs;
use super::{fnv, ChunkSource, StudyRunner};
use spoofwatch_ixp::chunked::FlowChunk;
use spoofwatch_ixp::link::{ChunkReceiver, Received, ReceiverRules, GRANT_SLICE_NS};
use spoofwatch_ixp::live::Msg;
use spoofwatch_net::ShardTransport;
use spoofwatch_obs::{Clock, Counter, Gauge, MetricsRegistry, Tracer};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

/// Poll slice for the control loop: the receiver's grant slice. A sender
/// that has used up its credit sends nothing, so this is how late a
/// grant can follow the runner's progress; short enough that a 16-chunk
/// window does not run dry before it reopens.
const POLL: Duration = Duration::from_nanos(GRANT_SLICE_NS);

/// Consumer-stall telemetry: flag (event + counter) when admitted
/// chunks sit unconsumed this long — the link-side mirror of the
/// runner's own watchdog, which supervises the actual stall.
const CONSUMER_STALL_NS: u64 = 5_000_000_000;

/// While the ladder is in `Shed`, keep 1 of every this many records
/// (seeded, deterministic per `(seed, chunk seq, record index)`).
const SHED_KEEP_ONE_IN: u64 = 4;

/// What a lost link means to the run.
pub(super) enum OnLoss {
    /// Interrupt the runner at its next chunk boundary: what it
    /// committed stays checkpointed for a respawn to resume.
    Abort,
    /// Let the runner finish what was admitted: a degraded but complete
    /// study.
    Drain,
}

/// What a shard worker and a live session do differently around the
/// receiver's rules.
pub(super) struct LinkPolicy<'a> {
    /// Overload ladder over buffer occupancy; `None` never sheds and
    /// never withholds credit.
    pub ladder: Option<&'a LiveLadder>,
    /// What a lost link means to the run.
    pub on_loss: OnLoss,
}

/// Pre-registered handles for the consumer's `spoofwatch_live_*`
/// families.
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

/// What the link did, handed back once the control thread is joined.
#[derive(Default)]
pub(super) struct LinkOutcome {
    pub transitions: u64,
    pub shed_recoveries: u64,
    pub time_in_state_ns: [u64; 4],
    pub final_state: OverloadState,
    pub credits_granted: u64,
    pub resumes_sent: u64,
    pub protocol_faults: u64,
    pub producer_stalls: u64,
    pub consumer_stalls: u64,
    pub max_buffered: usize,
    pub wire_faults: u64,
    pub stop_requested: bool,
    pub duration_ns: u64,
    /// Records the ladder shed at the buffer's mouth.
    pub shed_records: u64,
    /// The link was lost (failed I/O, a `Fatal`, or the stall bound).
    pub lost: bool,
    /// Every payload of the shell's tail went out.
    pub tail_sent: bool,
}

/// State shared between the control thread and the runner's source.
struct Admission {
    /// In-order admitted chunks; bounded by the credit window, not by
    /// this container.
    buffer: Mutex<VecDeque<FlowChunk>>,
    /// Signaled when a chunk is admitted or a terminal flag flips.
    available: Condvar,
    /// Next chunk sequence the runner will pop (advanced at pop).
    consumed: AtomicU64,
    shed_records: AtomicU64,
    /// Current [`OverloadState`] as its index.
    overload: AtomicU64,
    /// `Finish` matched the expected sequence: clean end of stream.
    finished: AtomicBool,
    /// The link is lost: end the stream once the buffer is empty. Under
    /// [`OnLoss::Abort`] this is also the runner's abort flag.
    lost: Arc<AtomicBool>,
    /// Pending reposition from `ChunkSource::seek`: (byte_cursor, seq).
    seek_req: Mutex<Option<(u64, u64)>>,
}

/// Every critical section here leaves its data consistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Admission {
    fn notify(&self) {
        let _guard = lock(&self.buffer);
        self.available.notify_all();
    }

    fn mark_lost(&self, tracer: &Tracer, why: &str) {
        if !self.lost.swap(true, Ordering::Relaxed) {
            tracer.event("link_lost", &[]);
            tracer.trigger_dump(&format!("link lost: {why}"));
        }
        self.notify();
    }
}

/// The one [`ChunkSource`] over a link: pops in-order admitted chunks,
/// applying deterministic seeded record shedding while the ladder is in
/// `Shed`. Chunks are always forwarded (possibly with fewer records) so
/// the sequence/cursor continuity the checkpoint depends on holds.
pub(super) struct LinkSource<'x> {
    shared: &'x Admission,
    fingerprint: u64,
    seed: u64,
    shed_metric: Counter,
}

impl LinkSource<'_> {
    /// Whether the link has been lost.
    pub(super) fn lost(&self) -> bool {
        self.shared.lost.load(Ordering::Relaxed)
    }
}

impl ChunkSource for LinkSource<'_> {
    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn seek(&mut self, byte_cursor: u64, seq: u64) {
        self.shared.consumed.store(seq, Ordering::Relaxed);
        *lock(&self.shared.seek_req) = Some((byte_cursor, seq));
    }

    fn next_chunk(&mut self) -> Option<FlowChunk> {
        let mut chunk = loop {
            let mut buf = lock(&self.shared.buffer);
            if let Some(chunk) = buf.pop_front() {
                break chunk;
            }
            if self.shared.finished.load(Ordering::Relaxed) || self.lost() {
                return None;
            }
            // Bounded slice: terminal flags are checked every pass, and
            // the control thread's watchdogs guarantee one eventually
            // flips — no wait here is unbounded.
            drop(
                self.shared
                    .available
                    .wait_timeout(buf, Duration::from_millis(20)),
            );
        };
        self.shared.consumed.store(chunk.seq + 1, Ordering::Relaxed);
        let state = OverloadState::from_idx(self.shared.overload.load(Ordering::Relaxed));
        if state >= OverloadState::Shed && !chunk.flows.is_empty() {
            let (seed, seq) = (self.seed, chunk.seq);
            let before = chunk.flows.len();
            let mut idx = 0u64;
            chunk.flows.retain(|_| {
                let kept = fnv(&[seed, seq, idx]).is_multiple_of(SHED_KEEP_ONE_IN);
                idx += 1;
                kept
            });
            let shed = (before - chunk.flows.len()) as u64;
            if shed > 0 {
                self.shared.shed_records.fetch_add(shed, Ordering::Relaxed);
                self.shed_metric.add(shed);
            }
        }
        Some(chunk)
    }
}

/// Run `body` against the chunks `transport` delivers, under a receiver
/// built from `rules` and the shell's `policy`. `body` gets the runner
/// (wired to the loss flag under [`OnLoss::Abort`]) and the link's
/// source, and returns its value plus the payloads to send once the run
/// is over; the control thread sends them, in order, as its last act.
/// The `spoofwatch_live_*` series go to `metrics` (a shell that exports
/// none passes [`MetricsRegistry::disabled`]). The transport's handshake
/// is the shell's, done before this is called.
pub(super) fn consume<R>(
    transport: ShardTransport,
    fingerprint: u64,
    rules: ReceiverRules,
    policy: &LinkPolicy<'_>,
    runner: StudyRunner<'_>,
    metrics: &MetricsRegistry,
    body: impl FnOnce(&StudyRunner<'_>, &mut LinkSource<'_>) -> (R, Vec<Vec<u8>>),
) -> (R, LinkOutcome) {
    let shared = Admission {
        buffer: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        consumed: AtomicU64::new(0),
        shed_records: AtomicU64::new(0),
        overload: AtomicU64::new(0),
        finished: AtomicBool::new(false),
        lost: Arc::new(AtomicBool::new(false)),
        seek_req: Mutex::new(None),
    };
    let runner = match policy.on_loss {
        OnLoss::Abort => runner.with_abort(Arc::clone(&shared.lost)),
        OnLoss::Drain => runner,
    };
    let obs = runner.obs().clone();
    let metrics = LiveMetrics::new(metrics);
    let mut source = LinkSource {
        shared: &shared,
        fingerprint,
        seed: runner.config().seed,
        shed_metric: metrics.shed_records.clone(),
    };
    let receiver = ChunkReceiver::new(rules);
    let (value, mut out) = thread::scope(|s| {
        let (shared, metrics, obs) = (&shared, &metrics, &obs);
        let (tail_tx, tail_rx) = mpsc::sync_channel(1);
        let control = s.spawn(move || {
            control_loop(
                transport,
                receiver,
                shared,
                tail_rx,
                policy.ladder,
                metrics,
                obs,
            )
        });
        // A panic in `body` drops `tail_tx` unsent, which hangs the
        // control thread up too, so the scope can join it and re-raise.
        let (value, tail) = body(&runner, &mut source);
        let _ = tail_tx.send(tail);
        (value, control.join().unwrap_or_default())
    });
    out.shed_records = shared.shed_records.load(Ordering::Relaxed);
    out.lost = shared.lost.load(Ordering::Relaxed);
    (value, out)
}

/// The ladder cursor: current state plus when it was entered. Occupancy
/// is observed both at admission (holding the buffer lock, so an
/// escalation is visible to the runner before it can pop the chunk that
/// caused it) and once per poll (so de-escalation happens as the buffer
/// drains, even with no traffic).
struct LadderCtl<'a> {
    ladder: Option<&'a LiveLadder>,
    state: OverloadState,
    state_since: u64,
}

impl LadderCtl<'_> {
    fn observe(
        &mut self,
        occ: usize,
        out: &mut LinkOutcome,
        lm: &LiveMetrics,
        tracer: &Tracer,
        clock: &dyn Clock,
        shared: &Admission,
    ) {
        out.max_buffered = out.max_buffered.max(occ);
        lm.buffered.set(occ as i64);
        let Some(next) = self.ladder.map(|l| l.evaluate(self.state, occ)) else {
            return;
        };
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

/// Send one control message; a failed send loses the link.
fn send(link: &mut ShardTransport, shared: &Admission, tracer: &Tracer, msg: &Msg) -> bool {
    let sent = link.send(&msg.encode()).is_ok();
    if !sent {
        shared.mark_lost(tracer, "send failed");
    }
    sent
}

/// The control thread: the only code that touches the transport after
/// the handshake. Each pass applies the runner's seek, asks the receiver
/// whether the sender is lost and otherwise sends what it has due, then
/// reads the link for one poll slice and admits what arrived.
fn control_loop(
    mut link: ShardTransport,
    mut receiver: ChunkReceiver,
    shared: &Admission,
    tail_rx: Receiver<Vec<Vec<u8>>>,
    ladder: Option<&LiveLadder>,
    lm: &LiveMetrics,
    obs: &RunnerObs,
) -> LinkOutcome {
    let (tracer, clock) = (&*obs.tracer, &*obs.clock);
    let mut out = LinkOutcome::default();
    let start_ns = clock.now_ns();
    let mut ladder = LadderCtl {
        ladder,
        state: OverloadState::Normal,
        state_since: start_ns,
    };
    let mut last_consumed = shared.consumed.load(Ordering::Relaxed);
    let mut consumed_since = start_ns;
    let mut consumer_stall_flagged = false;
    lm.overload_state.set(0);

    let tail = loop {
        // Reposition request from the runner (startup resume).
        if let Some((byte_cursor, seq)) = lock(&shared.seek_req).take() {
            receiver.seek(byte_cursor, seq, clock.now_ns());
        }
        let now = clock.now_ns();
        let consumed = shared.consumed.load(Ordering::Relaxed);
        let lost = shared.lost.load(Ordering::Relaxed);
        if !lost && receiver.gave_up(now) {
            out.producer_stalls += 1;
            lm.producer_stalls.inc();
            let silent_ms = receiver.silent_ns(now) / 1_000_000;
            tracer.event("link_stall", &[("silent_ms", silent_ms.into())]);
            shared.mark_lost(tracer, "stall watchdog");
        } else if !lost {
            let may_grant = ladder.state < OverloadState::Refuse;
            while let Some(msg) = receiver.poll(now, consumed, may_grant) {
                if matches!(msg, Msg::Stop) {
                    out.stop_requested = true;
                    let admitted = receiver.admitted();
                    tracer.event(
                        "live_stop_requested",
                        &[("admitted_chunks", admitted.into())],
                    );
                }
                if !send(&mut link, shared, tracer, &msg) {
                    break;
                }
                match msg {
                    Msg::Resume { .. } => {
                        out.resumes_sent += 1;
                        lm.resumes.inc();
                    }
                    Msg::Credit { .. } => {
                        out.credits_granted += 1;
                        lm.credits.inc();
                    }
                    _ => {}
                }
            }
        }

        match tail_rx.try_recv() {
            Ok(tail) => break tail,
            Err(TryRecvError::Disconnected) => break Vec::new(),
            Err(TryRecvError::Empty) => {}
        }

        // Drain the link.
        if shared.lost.load(Ordering::Relaxed) {
            // The link is gone; just wait for the runner.
            thread::sleep(POLL);
        } else {
            match link.recv(POLL) {
                Ok(Some(payload)) => match receiver.on_frame(&payload, clock.now_ns()) {
                    Received::Chunk(chunk) => {
                        lm.admitted.inc();
                        let mut buf = lock(&shared.buffer);
                        buf.push_back(chunk);
                        // Escalate before the runner can pop what was
                        // just admitted.
                        ladder.observe(buf.len(), &mut out, lm, tracer, clock, shared);
                        shared.available.notify_all();
                    }
                    Received::Finished => {
                        shared.finished.store(true, Ordering::Relaxed);
                        shared.notify();
                    }
                    Received::Other(Msg::Fatal { code, detail }) => {
                        tracer.event("link_fatal", &[("code", (code as u64).into())]);
                        shared.mark_lost(tracer, &format!("sender fatal {code}: {detail}"));
                    }
                    Received::Undecodable => {
                        out.protocol_faults += 1;
                        lm.protocol_faults.inc();
                    }
                    Received::Other(_) | Received::Dropped => {}
                },
                Ok(None) => {}
                Err(_) => shared.mark_lost(tracer, "link died"),
            }
        }

        // Ladder evaluation on occupancy (the de-escalation path:
        // admission already escalated).
        let occ = lock(&shared.buffer).len();
        ladder.observe(occ, &mut out, lm, tracer, clock, shared);

        // Consumer-stall watchdog (telemetry: the runner's own watchdog
        // supervises the actual stall).
        if consumed != last_consumed {
            last_consumed = consumed;
            consumed_since = now;
            consumer_stall_flagged = false;
        } else if occ > 0
            && !consumer_stall_flagged
            && now.saturating_sub(consumed_since) > CONSUMER_STALL_NS
        {
            consumer_stall_flagged = true;
            out.consumer_stalls += 1;
            lm.consumer_stalls.inc();
            tracer.event("link_consumer_stall", &[("buffered", (occ as u64).into())]);
        }
    };

    out.tail_sent = tail.iter().all(|payload| link.send(payload).is_ok());
    let now = clock.now_ns();
    out.time_in_state_ns[ladder.state.idx()] += now.saturating_sub(ladder.state_since);
    out.final_state = ladder.state;
    out.duration_ns = now.saturating_sub(start_ns);
    out.wire_faults = link.wire_faults();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Classifier;
    use crate::runner::RunnerConfig;
    use spoofwatch_asgraph::As2Org;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::mpsc;

    /// A panic in the run reaches the caller instead of leaving the
    /// control thread waiting for a tail that never comes.
    #[test]
    fn a_panicking_run_reaches_the_caller() {
        let (done_tx, done_rx) = mpsc::channel();
        thread::spawn(move || {
            let classifier = Classifier::build(&[], &As2Org::new());
            let (consumer, _sender) = ShardTransport::channel_pair(*b"LNKT", 4);
            let rules = ReceiverRules {
                window: 4,
                resume_throttle_ms: 100,
                stall_ms: 1_000,
                beacon_ms: Some(10),
                stop_after_chunks: None,
            };
            let policy = LinkPolicy {
                ladder: None,
                on_loss: OnLoss::Abort,
            };
            let runner = StudyRunner::new(&classifier, RunnerConfig::default());
            let metrics = MetricsRegistry::disabled();
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                consume(consumer, 0, rules, &policy, runner, &metrics, |_, _| {
                    if true {
                        panic!("the run failed");
                    }
                    ((), Vec::new())
                })
            }));
            let _ = done_tx.send(caught.is_err());
        });
        assert_eq!(
            done_rx.recv_timeout(Duration::from_secs(10)),
            Ok(true),
            "the panic reached the caller"
        );
    }
}
