//! Sharded multi-node study: splitter, shard workers, and fan-in
//! aggregation with exact accounting.
//!
//! A [`ShardCoordinator`] owns the trace bytes and hash-partitions every
//! decoded chunk's flows on the member/flow key across `N` shard
//! workers ([`ShardPlan`]). Each worker runs the existing supervised
//! [`StudyRunner`] over its partition — with its own checkpoint store
//! and rollup ring — and the coordinator merges the terminal
//! checkpoints, rollup windows, and ingest health into a
//! [`ShardStudyReport`] that is **bit-identical** to a single-node run
//! over the same trace.
//!
//! ## Why the merge is deterministic
//!
//! Every shard receives a sub-chunk for *every* trace chunk — same
//! sequence number and byte span, only the flows it owns (possibly
//! none). Chunk sequences therefore stay contiguous per shard, worker
//! checkpoint cursors are trace cursors, and rollup windows align
//! across shards chunk-for-chunk. Decode health is attributed to
//! exactly one owner shard per chunk (`seq % shards`), so summed ingest
//! totals equal the single-node totals. Merging is then pure integer
//! arithmetic: per-member counters, class flows, ingest scalars, and
//! disagreement matrices *sum* across shards; window geometry and
//! chunk-outcome accounting are *equal* across shards and asserted so.
//!
//! ## Failure model
//!
//! The control plane assumes a hostile link and mortal workers:
//!
//! * the link is the chunk-link protocol of [`spoofwatch_ixp::live`]:
//!   CRC-framed, go-back-N from the worker's cursor after any loss, the
//!   worker's credit grant re-sent every heartbeat period as its beacon.
//!   [`serve_shard`] is a thin shell over the one link consumer
//!   (`runner::link`, shared with the live session): it keeps the
//!   handshake with its shard id, the [`DeathPoint`] hooks and the
//!   report, and passes the shard policy — a fixed 16-chunk window,
//!   `chunk_timeout_ms` as the resume throttle, `heartbeat_ms` as the
//!   beacon, no overload ladder, and a lost link that *aborts* the run
//!   (no terminal checkpoint, no final partial window) instead of
//!   draining it;
//! * the coordinator streams to each shard through the one send loop
//!   ([`spoofwatch_ixp::live::send_loop`]), declares a silent shard dead
//!   after [`ShardConfig::liveness_timeout_ms`] and respawns it with
//!   seeded-jitter bounded exponential backoff (mirroring
//!   `RibFreshness`);
//! * a respawned worker resumes idempotently from its last checkpoint —
//!   re-dispatched work re-commits nothing it already committed;
//! * a shard that dies more than [`ShardConfig::retry_budget`] times is
//!   declared **lost**: the study still completes, the lost partition
//!   is counted under the extended invariant
//!   `offered == processed + shed + quarantined + lost`
//!   (record- and chunk-level, via one deterministic re-pass over the
//!   trace), and the loss is surfaced as report caveats plus a
//!   flight-recorder dump.
//!
//! A worker binds its checkpoint identity to the *shard plan* as well
//! as the config and trace ([`ShardPlan::bind`]): resuming a re-sharded
//! study is rejected loudly (`Fatal` on the wire, error at the
//! coordinator) instead of silently merging mismatched partitions.

mod proto;

use super::checkpoint::CheckpointStore;
use super::link::{self, LinkPolicy, OnLoss};
use super::rollup::{read_ring, RollupConfig, WindowAccum};
use super::{
    fnv, FlowAccounting, IngestTotals, RunReport, RunnerConfig, RunnerError, RunnerObs,
    StudyRunner,
};
use crate::pipeline::Classifier;
use crate::provenance::DisagreementMatrix;
use crate::stats::MemberBreakdown;
use proto::{encode_report, report_window_batches, ReportMsg, ShardReport};
use spoofwatch_ixp::chunked::{ChunkedIpfixReader, FlowChunk};
use spoofwatch_ixp::link::ChunkSender;
use spoofwatch_ixp::live::{self, Msg, SendEnd, SendPlan, FATAL_IDENTITY, FATAL_INTERNAL};
use spoofwatch_net::mix::{fold, K};
use spoofwatch_net::wire::{ShardEndpoint, ShardTransport};
use spoofwatch_net::{FlowRecord, IngestHealth};
use spoofwatch_obs::MetricsRegistry;
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::OnceLock;
use std::thread::{self, Thread};
use std::time::Duration;

/// Frame magic every shard-link transport must be built with.
pub const SHARD_WIRE_MAGIC: [u8; 4] = proto::SHARD_MAGIC;

/// Credit window a worker grants: how many chunks the coordinator may
/// run ahead of what the worker's runner has taken. Bounds how much a
/// torn frame costs in retransmission and what the worker buffers.
const SHARD_WINDOW: u64 = 16;

/// Silence from the coordinator, while chunks are owed, after which a
/// worker gives the link up (and aborts, to be respawned). A serving
/// coordinator resends within one beacon or `Resume` nudge (≤ 1 s by
/// default); at 2.5 × the default `liveness_timeout_ms` the coordinator
/// sees a link dead both ways first, so this only ends a coordinator
/// that stopped sending but still reads the beacon (DESIGN.md §15).
const SHARD_STALL_MS: u64 = 5_000;

/// How the trace is partitioned: `shards` workers, flows assigned by a
/// salted hash of the member/flow key. The plan is part of the study's
/// checkpoint identity — see [`ShardPlan::bind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// Number of shard workers (at least 1).
    pub shards: u32,
    /// Salt mixed into the partition hash, so re-running with a
    /// different salt re-partitions deterministically.
    pub salt: u64,
}

impl ShardPlan {
    /// A plan over `shards` workers (clamped to at least 1).
    pub fn new(shards: u32, salt: u64) -> ShardPlan {
        ShardPlan {
            shards: shards.max(1),
            salt,
        }
    }

    /// Which shard owns `flow`: the member and flow 5-tuple packed into
    /// three words (`member<<32 | src`, `dst<<32 | sport<<16 | dport`,
    /// `proto`), mixed with the salt in two folds
    /// ([`spoofwatch_net::mix::fold`]), modulo the shard count.
    /// Partitioning on the member/flow key keeps each member's traffic
    /// (the unit the paper classifies by) on one shard per flow key.
    ///
    /// [`ShardPlan::bind`] covers the plan (shard count, salt, shard
    /// id), not this function. Changing the function without changing
    /// the checkpoint identity (the trace fingerprint) in the same
    /// change would resume existing shard stores onto different
    /// partitions.
    pub fn shard_of(&self, flow: &FlowRecord) -> u32 {
        let member_src = (u64::from(flow.member.0) << 32) | u64::from(flow.src);
        let dst_ports =
            (u64::from(flow.dst) << 32) | (u64::from(flow.sport) << 16) | u64::from(flow.dport);
        let proto = u64::from(flow.proto.number());
        let key = fold(fold(member_src ^ self.salt, dst_ports ^ K[0]) ^ proto, K[1]);
        (key % u64::from(self.shards)) as u32
    }

    /// The fingerprint a shard worker binds its checkpoints to: the
    /// trace fingerprint mixed with the shard plan and the worker's own
    /// shard id. Because this feeds the runner's config hash, resuming
    /// a worker checkpoint under a different shard count, salt, or
    /// shard id fails the identity check — a re-sharded study is
    /// rejected loudly instead of merging mismatched partitions.
    pub fn bind(&self, source_fingerprint: u64, shard_id: u32) -> u64 {
        fnv(&[
            source_fingerprint,
            self.shards as u64,
            self.salt,
            shard_id as u64,
        ])
    }
}

/// Accounting with a loss lane: the shard-study extension of
/// [`FlowAccounting`]. Units owned by a shard that was lost past its
/// retry budget are counted `lost`, keeping the books balanced when the
/// study degrades.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct LossAccounting {
    /// Units the trace offered across all shards.
    pub offered: u64,
    /// Units classified successfully.
    pub processed: u64,
    /// Units dropped by load shedding.
    pub shed: u64,
    /// Units quarantined after worker panics.
    pub quarantined: u64,
    /// Units on shards lost past the retry budget.
    pub lost: u64,
}

impl LossAccounting {
    /// `processed + shed + quarantined + lost == offered`.
    pub fn reconciles(&self) -> bool {
        self.processed + self.shed + self.quarantined + self.lost == self.offered
    }

    /// Fold in one completed shard's loss-free accounting.
    pub fn absorb(&mut self, fa: &FlowAccounting) {
        self.offered += fa.offered;
        self.processed += fa.processed;
        self.shed += fa.shed;
        self.quarantined += fa.quarantined;
    }
}

/// Coordinator-side policy knobs.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// The partition plan.
    pub plan: ShardPlan,
    /// Records per trace chunk (must match the single-node run being
    /// reproduced for bit-identity).
    pub chunk_records: usize,
    /// Silence from a shard the coordinator waits on after which it is
    /// declared dead, in milliseconds (the send loop's silence bound).
    pub liveness_timeout_ms: u64,
    /// How long the connection router waits for a `Hello` frame.
    pub handshake_timeout_ms: u64,
    /// Base reconnect backoff, milliseconds (doubles per consecutive
    /// death, jittered, capped at `backoff_max_ms`).
    pub backoff_base_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub backoff_max_ms: u64,
    /// How many times a dead shard is respawned before it is declared
    /// lost. Zero means the first death is final.
    pub retry_budget: u32,
    /// Seed for backoff jitter (deterministic per shard and attempt).
    pub seed: u64,
}

impl ShardConfig {
    /// Defaults sized for same-host shards: 2 s liveness, 1 s
    /// handshake, 50 ms → 1 s backoff, 3 respawns.
    pub fn new(plan: ShardPlan, chunk_records: usize) -> ShardConfig {
        ShardConfig {
            plan,
            chunk_records,
            liveness_timeout_ms: 2_000,
            handshake_timeout_ms: 1_000,
            backoff_base_ms: 50,
            backoff_max_ms: 1_000,
            retry_budget: 3,
            seed: 0,
        }
    }
}

/// Per-shard control-plane outcome, kept in the study report.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize)]
pub struct ShardStatus {
    /// The shard's id in the plan.
    pub shard_id: u32,
    /// Whether the shard delivered its terminal report.
    pub completed: bool,
    /// Whether the shard was declared lost past the retry budget.
    pub lost: bool,
    /// Deaths observed (each one costs a respawn attempt).
    pub deaths: u32,
    /// Deaths by silence: times the send loop's silence rule gave the
    /// shard up after `liveness_timeout_ms`.
    pub heartbeat_misses: u64,
    /// Frame-level faults observed on the shard's links.
    pub wire_faults: u64,
    /// Chunks the shard had committed when it reported (0 if lost).
    pub committed_chunks: u64,
}

/// The merged result of a sharded study.
#[derive(Debug, Clone)]
pub struct ShardStudyReport {
    /// The plan the study ran under.
    pub plan: ShardPlan,
    /// Per-member, per-class accounting merged across completed shards.
    pub breakdown: MemberBreakdown,
    /// Decode-health totals merged across completed shards.
    pub ingest: IngestTotals,
    /// Merged method-disagreement matrix, when workers tracked it.
    pub disagreement: Option<DisagreementMatrix>,
    /// Merged rollup windows (geometry asserted equal across shards,
    /// contents summed).
    pub windows: Vec<WindowAccum>,
    /// Record-level accounting with the loss lane.
    pub records: LossAccounting,
    /// Sub-chunk-level accounting: one unit per (chunk, shard) pair.
    pub chunks: LossAccounting,
    /// Per-shard control-plane outcomes.
    pub shards: Vec<ShardStatus>,
}

impl ShardStudyReport {
    /// Shards lost past the retry budget.
    pub fn lost_shards(&self) -> u32 {
        self.shards.iter().filter(|s| s.lost).count() as u32
    }

    /// Whether the study completed degraded (at least one lost shard).
    pub fn degraded(&self) -> bool {
        self.lost_shards() > 0
    }

    /// Whether both accounting levels reconcile under the extended
    /// invariant.
    pub fn reconciles(&self) -> bool {
        self.records.reconciles() && self.chunks.reconciles()
    }

    /// Human-readable caveats for the study report (empty for a clean,
    /// loss-free run).
    pub fn caveats(&self) -> Vec<String> {
        let mut out = Vec::new();
        for s in self.shards.iter().filter(|s| s.lost) {
            out.push(format!(
                "shard {}/{} was lost after {} death(s); its partition is counted as lost, not processed",
                s.shard_id, self.plan.shards, s.deaths
            ));
        }
        if self.degraded() {
            out.push(format!(
                "results are PARTIAL: {} of {} records lost; merged breakdown, ingest totals, and rollup windows cover surviving shards only",
                self.records.lost, self.records.offered
            ));
        }
        out
    }
}

/// Why a sharded study failed outright (degradation is not an error —
/// a lost shard still yields a report).
#[derive(Debug)]
pub enum ShardError {
    /// Transport or filesystem failure at the coordinator.
    Io(io::Error),
    /// A worker refused the study identity — typically a checkpoint
    /// from a different shard plan (re-sharded resume).
    PlanRejected {
        /// The refusing shard.
        shard_id: u32,
        /// The worker's diagnostic.
        detail: String,
    },
    /// Completed shards disagree on window geometry or chunk outcomes —
    /// the merge cannot be trusted.
    MergeMismatch {
        /// The window where the disagreement surfaced.
        window_index: u64,
        /// What disagreed.
        detail: String,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Io(e) => write!(f, "shard study I/O error: {e}"),
            ShardError::PlanRejected { shard_id, detail } => {
                write!(f, "shard {shard_id} rejected the study identity: {detail}")
            }
            ShardError::MergeMismatch {
                window_index,
                detail,
            } => write!(f, "shard merge mismatch at window {window_index}: {detail}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<io::Error> for ShardError {
    fn from(e: io::Error) -> Self {
        ShardError::Io(e)
    }
}

/// Jittered bounded exponential backoff delay for respawn `attempt`
/// (1-based) of `shard_id`: `base * 2^(attempt-1)` capped at `max`,
/// with deterministic seeded jitter pulling it down by up to half.
fn backoff_delay_ms(seed: u64, shard_id: u32, attempt: u32, base_ms: u64, max_ms: u64) -> u64 {
    let base_ms = base_ms.max(1);
    crate::backoff::Backoff::new(base_ms, max_ms.max(base_ms))
        .with_exp_clamp(16)
        .with_jitter(seed, shard_id as u64)
        .delay(attempt as u64)
}

/// Cut `chunk` down to shard `shard_id`'s view: same sequence number
/// and byte span (so worker checkpoints stay in trace coordinates), only
/// the flows the plan assigns to it, and the chunk's decode health iff
/// this shard is the chunk's health owner (`seq % shards`) — so summed
/// ingest accounting across shards equals the single-node accounting
/// exactly.
fn sub_chunk(mut chunk: FlowChunk, plan: &ShardPlan, shard_id: u32) -> FlowChunk {
    chunk.flows.retain(|f| plan.shard_of(f) == shard_id);
    if chunk.seq % plan.shards as u64 != shard_id as u64 {
        chunk.health = IngestHealth::default();
    }
    chunk
}

/// Merge per-shard rollup rings: window geometry (`window_index`,
/// `start_chunk`, `chunks`) and chunk-outcome accounting must be equal
/// across shards — every shard commits every chunk sequence — and
/// everything else (class flows, record accounting, ingest, fault
/// taxonomy, disagreement) sums. Every shard must contribute every
/// window.
pub fn merge_windows(rings: &[Vec<WindowAccum>]) -> Result<Vec<WindowAccum>, ShardError> {
    if rings.is_empty() {
        return Ok(Vec::new());
    }
    let mut merged: BTreeMap<u64, (WindowAccum, usize)> = BTreeMap::new();
    for ring in rings {
        for w in ring {
            match merged.get_mut(&w.window_index) {
                None => {
                    merged.insert(w.window_index, (w.clone(), 1));
                }
                Some((m, n)) => {
                    if m.start_chunk != w.start_chunk || m.chunks != w.chunks {
                        return Err(ShardError::MergeMismatch {
                            window_index: w.window_index,
                            detail: format!(
                                "geometry: ({}, {}) vs ({}, {})",
                                m.start_chunk, m.chunks, w.start_chunk, w.chunks
                            ),
                        });
                    }
                    if m.chunk_outcomes != w.chunk_outcomes {
                        return Err(ShardError::MergeMismatch {
                            window_index: w.window_index,
                            detail: "chunk outcomes disagree across shards".into(),
                        });
                    }
                    for (into, v) in m.class_flows.iter_mut().zip(w.class_flows) {
                        *into += v;
                    }
                    m.records += w.records;
                    m.ingest += w.ingest;
                    for (into, v) in m.fault_counts.iter_mut().zip(w.fault_counts) {
                        *into += v;
                    }
                    match (&mut m.disagreement, &w.disagreement) {
                        (Some(a), Some(b)) => a.merge(b),
                        (None, None) => {}
                        _ => {
                            return Err(ShardError::MergeMismatch {
                                window_index: w.window_index,
                                detail: "disagreement tracking disagrees across shards".into(),
                            })
                        }
                    }
                    match (&mut m.detect, &w.detect) {
                        (Some(a), Some(b)) => a.merge(b),
                        (None, None) => {}
                        _ => {
                            return Err(ShardError::MergeMismatch {
                                window_index: w.window_index,
                                detail: "detect tracking disagrees across shards".into(),
                            })
                        }
                    }
                    *n += 1;
                }
            }
        }
    }
    let total = rings.len();
    for (idx, (_, n)) in &merged {
        if *n != total {
            return Err(ShardError::MergeMismatch {
                window_index: *idx,
                detail: format!("window present on {n} of {total} shards"),
            });
        }
    }
    Ok(merged.into_values().map(|(w, _)| w).collect())
}

/// Per-shard coordinator metric handles (labelled by shard id).
struct ShardGauges {
    lag: spoofwatch_obs::Gauge,
    chunks_sent: spoofwatch_obs::Counter,
    reconnects: spoofwatch_obs::Counter,
    heartbeat_misses: spoofwatch_obs::Counter,
    wire_faults: spoofwatch_obs::Counter,
    protocol_faults: spoofwatch_obs::Counter,
    lost: spoofwatch_obs::Counter,
}

impl ShardGauges {
    fn new(obs: &RunnerObs, shard_id: u32) -> ShardGauges {
        let reg = &obs.metrics;
        let id = shard_id.to_string();
        let l: &[(&str, &str)] = &[("shard", &id)];
        ShardGauges {
            lag: reg.gauge(
                "spoofwatch_shard_lag_chunks",
                "Chunks sent to the shard past the position its last credit grant acknowledged",
                l,
            ),
            chunks_sent: reg.counter(
                "spoofwatch_shard_chunks_sent_total",
                "Sub-chunks dispatched to the shard (including retransmissions)",
                l,
            ),
            reconnects: reg.counter(
                "spoofwatch_shard_reconnects_total",
                "Times the shard died and a respawn was attempted",
                l,
            ),
            heartbeat_misses: reg.counter(
                "spoofwatch_shard_heartbeat_misses_total",
                "Silence-rule firings that declared the shard dead",
                l,
            ),
            wire_faults: reg.counter(
                "spoofwatch_shard_wire_faults_total",
                "Frame-level faults (resync episodes) on the shard's links",
                l,
            ),
            protocol_faults: reg.counter(
                "spoofwatch_shard_protocol_faults_total",
                "CRC-valid frames whose message payload failed to decode",
                l,
            ),
            lost: reg.counter(
                "spoofwatch_shard_lost_total",
                "Shards declared lost past the retry budget",
                l,
            ),
        }
    }
}

enum ConnOutcome {
    Done(Box<ShardReport>),
    Dead,
    Fatal(ShardError),
}

enum ShardOutcome {
    Completed(Box<ShardReport>, ShardStatus),
    Lost(ShardStatus),
    Failed(ShardError),
}

/// The fan-out/fan-in coordinator: owns the trace, streams partitioned
/// chunks to shard workers over any [`ShardEndpoint`], supervises their
/// liveness, and merges their terminal reports.
pub struct ShardCoordinator<'a> {
    bytes: &'a [u8],
    cfg: ShardConfig,
    obs: RunnerObs,
}

impl<'a> ShardCoordinator<'a> {
    /// A coordinator over the encoded trace `bytes`.
    pub fn new(bytes: &'a [u8], cfg: ShardConfig) -> Self {
        ShardCoordinator {
            bytes,
            cfg,
            obs: RunnerObs::disabled(),
        }
    }

    /// Attach an observability bundle (per-shard gauges/counters and
    /// flight-recorder events are emitted through it).
    pub fn with_obs(mut self, obs: RunnerObs) -> Self {
        self.obs = obs;
        self
    }

    /// Run the sharded study. `spawn` is invoked (from supervisor
    /// threads) every time shard `k` should be (re)started — the
    /// embedder launches a worker however it likes (thread, process,
    /// remote host); the worker then connects to `endpoint` and drives
    /// [`serve_shard`]. Returns the merged report; a shard lost past
    /// the retry budget degrades the report instead of failing the
    /// study.
    pub fn run(
        &self,
        endpoint: &dyn ShardEndpoint,
        spawn: &(dyn Fn(u32) + Sync),
    ) -> Result<ShardStudyReport, ShardError> {
        let shards = self.cfg.plan.shards as usize;
        let source_fp = ChunkedIpfixReader::new(self.bytes, self.cfg.chunk_records).fingerprint();
        let mut conn_txs = Vec::with_capacity(shards);
        let mut conn_rxs = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = mpsc::channel::<ShardTransport>();
            conn_txs.push(tx);
            conn_rxs.push(rx);
        }
        let gate = RouterGate {
            wanted: (0..shards).map(|_| AtomicBool::new(false)).collect(),
            done: AtomicBool::new(false),
            router: OnceLock::new(),
        };
        self.obs.tracer.event(
            "shard_study_start",
            &[
                ("shards", (shards as u64).into()),
                ("salt", self.cfg.plan.salt.into()),
            ],
        );

        let outcomes: Vec<ShardOutcome> = thread::scope(|s| {
            let gate = &gate;
            let handshake = Duration::from_millis(self.cfg.handshake_timeout_ms.max(1));
            let router = s.spawn(move || route_connections(endpoint, conn_txs, gate, handshake));
            let _ = gate.router.set(router.thread().clone());
            let handles: Vec<_> = conn_rxs
                .into_iter()
                .enumerate()
                .map(|(k, rx)| {
                    s.spawn(move || self.supervise(k as u32, rx, spawn, source_fp, gate))
                })
                .collect();
            let outcomes = handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(o) => o,
                    Err(_) => ShardOutcome::Failed(ShardError::Io(io::Error::other(
                        "shard supervisor panicked",
                    ))),
                })
                .collect();
            gate.set(&gate.done, true);
            outcomes
        });

        self.aggregate(outcomes)
    }

    /// One shard's supervisor: spawn, wait for a connection, serve it,
    /// and on death back off and respawn until the retry budget runs
    /// out.
    fn supervise(
        &self,
        shard_id: u32,
        conn_rx: Receiver<ShardTransport>,
        spawn: &(dyn Fn(u32) + Sync),
        source_fp: u64,
        router: &RouterGate,
    ) -> ShardOutcome {
        let g = ShardGauges::new(&self.obs, shard_id);
        let mut status = ShardStatus {
            shard_id,
            ..ShardStatus::default()
        };
        let mut attempt: u32 = 0;
        loop {
            if attempt > 0 {
                let delay = backoff_delay_ms(
                    self.cfg.seed,
                    shard_id,
                    attempt,
                    self.cfg.backoff_base_ms,
                    self.cfg.backoff_max_ms,
                );
                self.obs.tracer.event(
                    "shard_reconnect_backoff",
                    &[
                        ("shard", (shard_id as u64).into()),
                        ("attempt", (attempt as u64).into()),
                        ("delay_ms", delay.into()),
                    ],
                );
                g.reconnects.inc();
                self.obs.clock.sleep(Duration::from_millis(delay));
            }
            router.set(&router.wanted[shard_id as usize], true);
            spawn(shard_id);
            let wait = Duration::from_millis(
                self.cfg.liveness_timeout_ms + self.cfg.handshake_timeout_ms,
            );
            let mut conn = match conn_rx.recv_timeout(wait) {
                Ok(c) => c,
                Err(_) => {
                    router.set(&router.wanted[shard_id as usize], false);
                    status.deaths += 1;
                    if attempt >= self.cfg.retry_budget {
                        return self.declare_lost(status, &g);
                    }
                    attempt += 1;
                    continue;
                }
            };
            self.obs.tracer.event(
                "shard_connected",
                &[
                    ("shard", (shard_id as u64).into()),
                    ("attempt", (attempt as u64).into()),
                ],
            );
            let outcome = self.serve_conn(shard_id, &mut conn, source_fp, &mut status, &g);
            let faults = conn.wire_faults();
            status.wire_faults += faults;
            g.wire_faults.add(faults);
            match outcome {
                ConnOutcome::Done(report) => {
                    status.completed = true;
                    status.committed_chunks = report.checkpoint.committed_chunks;
                    self.obs.tracer.event(
                        "shard_report",
                        &[
                            ("shard", (shard_id as u64).into()),
                            ("committed_chunks", status.committed_chunks.into()),
                        ],
                    );
                    return ShardOutcome::Completed(report, status);
                }
                ConnOutcome::Fatal(e) => return ShardOutcome::Failed(e),
                ConnOutcome::Dead => {
                    status.deaths += 1;
                    self.obs.tracer.event(
                        "shard_dead",
                        &[
                            ("shard", (shard_id as u64).into()),
                            ("deaths", (status.deaths as u64).into()),
                        ],
                    );
                    if attempt >= self.cfg.retry_budget {
                        return self.declare_lost(status, &g);
                    }
                    attempt += 1;
                }
            }
        }
    }

    fn declare_lost(&self, mut status: ShardStatus, g: &ShardGauges) -> ShardOutcome {
        status.lost = true;
        g.lost.inc();
        self.obs.tracer.event(
            "shard_lost",
            &[
                ("shard", (status.shard_id as u64).into()),
                ("deaths", (status.deaths as u64).into()),
            ],
        );
        self.obs
            .tracer
            .trigger_dump(&format!("shard {} lost past retry budget", status.shard_id));
        ShardOutcome::Lost(status)
    }

    /// Serve one live connection until it reports, dies, or proves
    /// fatally misconfigured: the bound `Welcome`, then the one send loop
    /// with `liveness_timeout_ms` as its silence bound, each chunk cut to
    /// the shard's partition, `Resume` traced, the lag gauge set, and the
    /// report read from the payloads that are no link message.
    fn serve_conn(
        &self,
        shard_id: u32,
        conn: &mut ShardTransport,
        source_fp: u64,
        status: &mut ShardStatus,
        g: &ShardGauges,
    ) -> ConnOutcome {
        let welcome = Msg::Welcome {
            fingerprint: self.cfg.plan.bind(source_fp, shard_id),
            chunk_records: self.cfg.chunk_records as u32,
            target_rps: 0,
        };
        if conn.send(&welcome.encode()).is_err() {
            return ConnOutcome::Dead;
        }
        let plan = SendPlan {
            data: self.bytes,
            chunk_records: self.cfg.chunk_records,
            silence_ms: self.cfg.liveness_timeout_ms,
            ..SendPlan::default()
        };
        let cut = |chunk| {
            g.chunks_sent.inc();
            sub_chunk(chunk, &self.cfg.plan, shard_id)
        };
        let seen = |msg: &Msg, sender: &ChunkSender<'_>| {
            if let Msg::Resume { byte_cursor, seq } = *msg {
                self.obs.tracer.event(
                    "shard_resumed",
                    &[
                        ("shard", (shard_id as u64).into()),
                        ("seq", seq.into()),
                        ("byte_cursor", byte_cursor.into()),
                    ],
                );
            }
            let acked = sender.credit().saturating_sub(SHARD_WINDOW);
            g.lag.set(sender.next_seq().saturating_sub(acked) as i64);
        };
        // Ring windows from `ReportWindows` batches, complete once the
        // `Report` confirms their count. They live and die with this
        // connection: a respawned worker re-sends the whole ring.
        let mut windows: Vec<WindowAccum> = Vec::new();
        let report = |payload: &[u8]| {
            Some(match ReportMsg::decode(payload)? {
                ReportMsg::Windows(batch) => {
                    windows.extend(batch);
                    ControlFlow::Continue(())
                }
                ReportMsg::Report {
                    shard_id: reported_id,
                    checkpoint,
                    window_count,
                } => ControlFlow::Break(
                    if windows.len() != window_count as usize || reported_id != shard_id {
                        // A batch was lost to a corrupt frame (or the
                        // report is another shard's); the worker is gone
                        // by now, so recover the way any dead link does.
                        g.protocol_faults.inc();
                        ConnOutcome::Dead
                    } else {
                        ConnOutcome::Done(Box::new(ShardReport {
                            checkpoint: *checkpoint,
                            windows: std::mem::take(&mut windows),
                        }))
                    },
                ),
            })
        };
        let clock = &self.obs.clock;
        let (end, sent) = live::send_loop(conn, plan, || clock.now_ns(), cut, seen, report);
        g.protocol_faults.add(sent.protocol_faults);
        match end {
            SendEnd::Shell(outcome) => outcome,
            SendEnd::Fatal(FATAL_IDENTITY, detail) => {
                ConnOutcome::Fatal(ShardError::PlanRejected { shard_id, detail })
            }
            SendEnd::Silent => {
                status.heartbeat_misses += 1;
                g.heartbeat_misses.inc();
                ConnOutcome::Dead
            }
            SendEnd::Bye | SendEnd::Fatal(..) | SendEnd::Link(_) => ConnOutcome::Dead,
        }
    }

    /// Merge shard outcomes into the study report, accounting lost
    /// partitions via one deterministic re-pass over the trace.
    fn aggregate(&self, outcomes: Vec<ShardOutcome>) -> Result<ShardStudyReport, ShardError> {
        let mut completed: Vec<ShardReport> = Vec::new();
        let mut shards: Vec<ShardStatus> = Vec::new();
        for outcome in outcomes {
            match outcome {
                ShardOutcome::Completed(report, status) => {
                    shards.push(status);
                    completed.push(*report);
                }
                ShardOutcome::Lost(status) => shards.push(status),
                ShardOutcome::Failed(e) => return Err(e),
            }
        }
        shards.sort_by_key(|s| s.shard_id);

        let mut breakdown = MemberBreakdown::default();
        let mut ingest = IngestTotals::default();
        let mut disagreement: Option<DisagreementMatrix> = None;
        let mut records = LossAccounting::default();
        let mut chunks = LossAccounting::default();
        for report in &completed {
            let cp = &report.checkpoint;
            breakdown.merge(&cp.per_member);
            ingest += cp.ingest;
            records.absorb(&cp.records);
            chunks.absorb(&cp.chunks);
            match (&mut disagreement, &cp.disagreement) {
                (Some(a), Some(b)) => a.merge(b),
                (None, Some(b)) => disagreement = Some(b.clone()),
                _ => {}
            }
        }

        // Lost partitions: one deterministic re-pass over the trace
        // counts exactly what each lost shard was offered, so the
        // extended invariant holds at record and sub-chunk level.
        let lost_ids: Vec<u32> = shards.iter().filter(|s| s.lost).map(|s| s.shard_id).collect();
        if !lost_ids.is_empty() {
            let mut reader = ChunkedIpfixReader::new(self.bytes, self.cfg.chunk_records);
            while let Some(chunk) = reader.next_chunk() {
                for f in &chunk.flows {
                    if lost_ids.contains(&self.cfg.plan.shard_of(f)) {
                        records.offered += 1;
                        records.lost += 1;
                    }
                }
                chunks.offered += lost_ids.len() as u64;
                chunks.lost += lost_ids.len() as u64;
            }
        }

        let windows = merge_windows(
            &completed
                .iter()
                .map(|r| r.windows.clone())
                .collect::<Vec<_>>(),
        )?;

        self.obs.tracer.event(
            "shard_study_end",
            &[
                ("completed", (completed.len() as u64).into()),
                ("lost", (lost_ids.len() as u64).into()),
                ("records_processed", records.processed.into()),
                ("records_lost", records.lost.into()),
            ],
        );
        Ok(ShardStudyReport {
            plan: self.cfg.plan,
            breakdown,
            ingest,
            disagreement,
            windows,
            records,
            chunks,
            shards,
        })
    }
}

/// What the connection router waits on. It polls the endpoint only
/// while some supervisor wants a connection and parks otherwise, so the
/// end of a run never waits out an accept poll.
struct RouterGate {
    /// `wanted[k]`: shard `k`'s supervisor has spawned a worker and is
    /// waiting for its connection.
    wanted: Vec<AtomicBool>,
    done: AtomicBool,
    /// The router's thread, set before any supervisor starts.
    router: OnceLock<Thread>,
}

impl RouterGate {
    /// Flip one of the gate's flags and wake the router to look at it.
    fn set(&self, flag: &AtomicBool, value: bool) {
        flag.store(value, Ordering::SeqCst);
        if let Some(router) = self.router.get() {
            router.unpark();
        }
    }
}

/// Accept inbound connections, read each one's `Hello`, and hand it to
/// the right shard supervisor. Connections with no valid `Hello`
/// within the handshake timeout are dropped.
fn route_connections(
    endpoint: &dyn ShardEndpoint,
    conn_txs: Vec<mpsc::Sender<ShardTransport>>,
    gate: &RouterGate,
    handshake: Duration,
) {
    while !gate.done.load(Ordering::SeqCst) {
        if !gate.wanted.iter().any(|w| w.load(Ordering::SeqCst)) {
            // `unpark` after a flag flips makes this return at once.
            thread::park();
            continue;
        }
        match endpoint.accept(Duration::from_millis(25)) {
            Ok(Some(mut conn)) => {
                let stream = live::accept_stream(&mut conn, handshake).map(|k| k as usize);
                if let Some(k) = stream.ok().filter(|&k| k < conn_txs.len()) {
                    gate.wanted[k].store(false, Ordering::SeqCst);
                    let _ = conn_txs[k].send(conn);
                }
            }
            Ok(None) => {}
            Err(_) => return, // endpoint closed
        }
    }
}

/// Where a chaos-test worker should die, exercising every protocol
/// state: before identifying, after the handshake, mid-stream after
/// `n` committed chunks, or after completing but before reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeathPoint {
    /// Drop the connection without sending `Hello`.
    BeforeHello,
    /// Complete the handshake, then drop.
    AfterHello,
    /// Process until `n` chunks are committed, then drop mid-stream.
    AfterChunks(u64),
    /// Complete the run (terminal checkpoint written) but die before
    /// sending the report.
    BeforeReport,
}

/// Worker-side policy knobs.
#[derive(Debug, Clone)]
pub struct ShardWorkerConfig {
    /// This worker's shard id in the plan.
    pub shard_id: u32,
    /// The runner policy for the worker's partition. For bit-identical
    /// merges every worker must use the same method/org/seed as the
    /// single-node reference run. Leave `interrupt_after_chunks` unset;
    /// the shard layer owns interruption.
    pub runner: RunnerConfig,
    /// Rollup ring config for this worker, if the study writes rollups.
    pub rollup: Option<RollupConfig>,
    /// Worker-side observability (also provides the link's clock).
    pub obs: RunnerObs,
    /// Heartbeat period, milliseconds: how often the standing credit
    /// grant is re-sent as a liveness beacon on an idle link.
    pub heartbeat_ms: u64,
    /// How long to wait for `Welcome` after sending `Hello`.
    pub handshake_timeout_ms: u64,
    /// Minimum spacing between go-back-N `Resume` requests,
    /// milliseconds; data-plane silence past twice this while chunks are
    /// owed re-requests the stream position (retransmission).
    pub chunk_timeout_ms: u64,
    /// Chaos-test hook: die at a given protocol state.
    pub die_at: Option<DeathPoint>,
}

impl ShardWorkerConfig {
    /// Defaults sized for same-host shards.
    pub fn new(shard_id: u32, runner: RunnerConfig) -> ShardWorkerConfig {
        ShardWorkerConfig {
            shard_id,
            runner,
            rollup: None,
            obs: RunnerObs::disabled(),
            heartbeat_ms: 100,
            handshake_timeout_ms: 2_000,
            chunk_timeout_ms: 500,
            die_at: None,
        }
    }
}

/// Why a shard worker stopped serving.
#[derive(Debug)]
pub enum ShardWorkerError {
    /// No `Welcome` within the handshake timeout, or the link died
    /// waiting for it.
    Handshake(String),
    /// The link to the coordinator died mid-run; progress up to the
    /// last checkpoint survives for the respawned worker.
    Disconnected,
    /// The configured [`DeathPoint`] fired (chaos testing).
    Died(&'static str),
    /// The runner failed (a `ConfigMismatch` here means the checkpoint
    /// was bound to a different study identity — e.g. a re-sharded
    /// plan — and has been reported to the coordinator as fatal).
    Runner(RunnerError),
    /// Local I/O failure (checkpoint store or rollup ring).
    Io(io::Error),
}

impl fmt::Display for ShardWorkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardWorkerError::Handshake(d) => write!(f, "shard handshake failed: {d}"),
            ShardWorkerError::Disconnected => f.write_str("coordinator link died"),
            ShardWorkerError::Died(at) => write!(f, "death point fired: {at}"),
            ShardWorkerError::Runner(e) => write!(f, "shard runner failed: {e}"),
            ShardWorkerError::Io(e) => write!(f, "shard worker I/O error: {e}"),
        }
    }
}

impl std::error::Error for ShardWorkerError {}

impl From<io::Error> for ShardWorkerError {
    fn from(e: io::Error) -> Self {
        ShardWorkerError::Io(e)
    }
}

/// Run one shard worker over an established transport: handshake,
/// stream the partition through a supervised [`StudyRunner`] resuming
/// from `store`, and deliver the terminal report. Returns `Ok(())`
/// exactly when the report was handed to the coordinator.
///
/// The embedder owns worker placement (thread, process, host) and is
/// expected to call this again — with the same `store` and rollup dir —
/// every time the coordinator respawns the shard; resumption is
/// idempotent from the last checkpoint.
pub fn serve_shard(
    classifier: &Classifier,
    cfg: &ShardWorkerConfig,
    store: &CheckpointStore,
    mut transport: ShardTransport,
) -> Result<(), ShardWorkerError> {
    if cfg.die_at == Some(DeathPoint::BeforeHello) {
        return Err(ShardWorkerError::Died("before_hello"));
    }
    let handshake = Duration::from_millis(cfg.handshake_timeout_ms.max(1));
    let (fingerprint, _, _) = live::open_stream(&mut transport, cfg.shard_id, handshake)
        .map_err(|e| ShardWorkerError::Handshake(e.to_string()))?;
    if cfg.die_at == Some(DeathPoint::AfterHello) {
        return Err(ShardWorkerError::Died("after_hello"));
    }

    let mut runner_cfg = cfg.runner.clone();
    if let Some(DeathPoint::AfterChunks(n)) = cfg.die_at {
        runner_cfg.interrupt_after_chunks = Some(n);
    }
    let mut runner = StudyRunner::new(classifier, runner_cfg).with_obs(cfg.obs.clone());
    if let Some(rollup) = &cfg.rollup {
        runner = runner.with_rollups(rollup.clone());
    }
    let policy = LinkPolicy {
        window: SHARD_WINDOW,
        resume_throttle_ms: cfg.chunk_timeout_ms,
        stall_ms: SHARD_STALL_MS,
        beacon_ms: Some(cfg.heartbeat_ms),
        ladder: None,
        stop_after_chunks: None,
        // A dead link must not finalize: a respawn would merge the
        // closed partial window.
        on_loss: OnLoss::Abort,
    };
    // A shard worker exports no `spoofwatch_live_*` series.
    let metrics = MetricsRegistry::disabled();
    let (delivered, link) =
        link::consume(transport, fingerprint, &policy, runner, &metrics, |runner, source| {
            let result = runner.run(source, store);
            deliver_outcome(result, source.lost(), cfg, store)
        });
    match delivered {
        Ok(()) if !link.tail_sent => Err(ShardWorkerError::Disconnected),
        delivered => delivered,
    }
}

/// Turn a finished run into what the worker returns and what the
/// coordinator hears: the ring and the terminal report, a `Fatal`, or
/// (on a planned or link death) nothing.
fn deliver_outcome(
    result: Result<RunReport, RunnerError>,
    link_lost: bool,
    cfg: &ShardWorkerConfig,
    store: &CheckpointStore,
) -> (Result<(), ShardWorkerError>, Vec<Vec<u8>>) {
    let died = |e| (Err(e), Vec::new());
    match result {
        Ok(_) if link_lost => died(ShardWorkerError::Disconnected),
        Ok(_) if cfg.die_at == Some(DeathPoint::BeforeReport) => {
            died(ShardWorkerError::Died("before_report"))
        }
        Ok(_) => match report_payloads(cfg, store) {
            Ok(payloads) => (Ok(()), payloads),
            Err(e) => died(e),
        },
        Err(RunnerError::Interrupted { .. }) if link_lost => died(ShardWorkerError::Disconnected),
        Err(RunnerError::Interrupted { .. }) => died(ShardWorkerError::Died("after_chunks")),
        Err(e) => {
            let code = if matches!(e, RunnerError::ConfigMismatch { .. }) {
                FATAL_IDENTITY
            } else {
                FATAL_INTERNAL
            };
            let fatal = Msg::Fatal {
                code,
                detail: e.to_string(),
            };
            (Err(ShardWorkerError::Runner(e)), vec![fatal.encode()])
        }
    }
}

/// The terminal report as link payloads: the ring in bounded
/// `ReportWindows` batches (one frame holding a few hundred windows
/// would pass the link's frame cap), then `Report`.
fn report_payloads(
    cfg: &ShardWorkerConfig,
    store: &CheckpointStore,
) -> Result<Vec<Vec<u8>>, ShardWorkerError> {
    let (loaded, _faults) = store.load_latest();
    let Some((checkpoint, _slot)) = loaded else {
        return Err(ShardWorkerError::Io(io::Error::other(
            "terminal checkpoint missing after completed run",
        )));
    };
    let windows = match &cfg.rollup {
        Some(rollup) => read_ring(&rollup.dir)?.0,
        None => Vec::new(),
    };
    let mut payloads = report_window_batches(&windows);
    payloads.push(encode_report(cfg.shard_id, &checkpoint, windows.len() as u32));
    Ok(payloads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spoofwatch_net::{Asn, Proto};

    fn flow(i: u32) -> FlowRecord {
        FlowRecord {
            ts: i,
            src: i.wrapping_mul(2654435761),
            dst: i.wrapping_mul(40503),
            proto: Proto::from_number((i % 5) as u8),
            sport: (i * 31) as u16,
            dport: (i * 17) as u16,
            packets: 1,
            bytes: 60,
            pkt_size: 60,
            member: Asn(64_500 + i % 7),
            ttl: 0,
        }
    }

    #[test]
    fn plan_partitions_every_flow_exactly_once() {
        let plan = ShardPlan::new(4, 7);
        let flows: Vec<FlowRecord> = (0..500).map(flow).collect();
        let mut counts = [0u64; 4];
        for f in &flows {
            let s = plan.shard_of(f);
            assert!(s < 4);
            counts[s as usize] += 1;
        }
        // Deterministic and reasonably balanced.
        assert_eq!(counts.iter().sum::<u64>(), 500);
        assert!(counts.iter().all(|&c| c > 50), "lopsided: {counts:?}");
        for f in &flows {
            assert_eq!(plan.shard_of(f), plan.shard_of(f));
        }
    }

    #[test]
    fn different_salt_repartitions() {
        let a = ShardPlan::new(4, 1);
        let b = ShardPlan::new(4, 2);
        let flows: Vec<FlowRecord> = (0..200).map(flow).collect();
        assert!(flows.iter().any(|f| a.shard_of(f) != b.shard_of(f)));
    }

    /// Every key field reaches the partition: flipping only the top bit
    /// of one field (or swapping the protocol, or the salt) moves some
    /// of 1 000 flows.
    #[test]
    fn every_key_field_moves_flows() {
        let plan = ShardPlan::new(4, 7);
        let flows: Vec<FlowRecord> = (0..1_000).map(flow).collect();
        type Edit = fn(&mut FlowRecord);
        let cases: [(&str, u64, Edit); 7] = [
            ("salt", 8, |_| {}),
            ("member", 7, |f| f.member.0 ^= 1 << 31),
            ("src", 7, |f| f.src ^= 1 << 31),
            ("dst", 7, |f| f.dst ^= 1 << 31),
            ("proto", 7, |f| {
                f.proto = if f.proto == Proto::Udp {
                    Proto::Tcp
                } else {
                    Proto::Udp
                }
            }),
            ("sport", 7, |f| f.sport ^= 1 << 15),
            ("dport", 7, |f| f.dport ^= 1 << 15),
        ];
        for (field, salt, edit) in cases {
            let edited_plan = ShardPlan::new(4, salt);
            let moved = flows
                .iter()
                .filter(|f| {
                    let mut g = **f;
                    edit(&mut g);
                    edited_plan.shard_of(&g) != plan.shard_of(f)
                })
                .count();
            assert!(moved > 0, "changing {field} moves no flow");
        }
    }

    /// A worker store is bound to the plan, not to `shard_of`, so the
    /// assignment itself is pinned: changing it must come with a new
    /// checkpoint identity (see `shard_of`).
    #[test]
    fn assignments_are_pinned() {
        let plan = ShardPlan::new(4, 7);
        let got: Vec<u32> = (0..16).map(|i| plan.shard_of(&flow(i))).collect();
        assert_eq!(got, [0, 1, 0, 0, 2, 3, 0, 1, 1, 1, 3, 0, 1, 2, 1, 3]);
    }

    /// Release-mode floor, which `ci.sh` runs with `--ignored`:
    /// `shard_of` is at least 2× faster than the byte-wise FNV-1a key it
    /// replaced, best of 5 over 1 M flows, the two timed alternately.
    /// Flows are built and hashed a chunk of 1 024 at a time, as a
    /// worker partitions a chunk it has just decoded, so memory
    /// bandwidth does not mask the hash.
    #[test]
    #[ignore = "release-mode timing floor; ci.sh runs it with --ignored"]
    fn partition_floor_2x_bytewise_fnv() {
        use std::hint::black_box;
        use std::time::Instant;
        fn time_1m(chunk: &mut Vec<FlowRecord>, part: &impl Fn(&FlowRecord) -> u32) -> Duration {
            let mut spent = Duration::ZERO;
            let mut per_shard = [0u64; 4];
            for start in (0..1_000_000u32).step_by(1_024) {
                chunk.clear();
                chunk.extend((start..(start + 1_024).min(1_000_000)).map(flow));
                let t0 = Instant::now();
                for f in black_box(&*chunk) {
                    per_shard[part(f) as usize % 4] += 1;
                }
                spent += t0.elapsed();
            }
            black_box(per_shard);
            spent
        }
        let plan = black_box(ShardPlan::new(4, 7));
        let word_key = |f: &FlowRecord| plan.shard_of(f);
        let byte_key = |f: &FlowRecord| {
            let key = fnv(&[
                plan.salt,
                f.member.0 as u64,
                f.src as u64,
                f.dst as u64,
                f.proto.number() as u64,
                ((f.sport as u64) << 16) | f.dport as u64,
            ]);
            (key % plan.shards as u64) as u32
        };
        let mut chunk = Vec::with_capacity(1_024);
        let (mut word, mut byte) = (Duration::MAX, Duration::MAX);
        for _ in 0..5 {
            word = word.min(time_1m(&mut chunk, &word_key));
            byte = byte.min(time_1m(&mut chunk, &byte_key));
        }
        let ratio = byte.as_secs_f64() / word.as_secs_f64();
        assert!(
            ratio >= 2.0,
            "shard_of {word:?} vs byte-wise {byte:?}: {ratio:.1}x < 2x"
        );
    }

    #[test]
    fn bind_separates_plan_and_shard_identity() {
        let fp = 0x1234_5678;
        let plan = ShardPlan::new(3, 9);
        assert_ne!(plan.bind(fp, 0), plan.bind(fp, 1));
        assert_ne!(plan.bind(fp, 0), ShardPlan::new(4, 9).bind(fp, 0));
        assert_ne!(plan.bind(fp, 0), ShardPlan::new(3, 10).bind(fp, 0));
        assert_eq!(plan.bind(fp, 2), ShardPlan::new(3, 9).bind(fp, 2));
    }

    #[test]
    fn loss_accounting_reconciles() {
        let mut acc = LossAccounting::default();
        acc.absorb(&FlowAccounting {
            offered: 10,
            processed: 8,
            shed: 1,
            quarantined: 1,
        });
        assert!(acc.reconciles());
        acc.offered += 5;
        assert!(!acc.reconciles());
        acc.lost += 5;
        assert!(acc.reconciles());
    }

    #[test]
    fn backoff_is_bounded_and_deterministic() {
        for attempt in 1..10u32 {
            let d1 = backoff_delay_ms(1, 2, attempt, 50, 1_000);
            let d2 = backoff_delay_ms(1, 2, attempt, 50, 1_000);
            assert_eq!(d1, d2);
            let raw = (50u64 << (attempt - 1).min(16)).min(1_000);
            assert!(d1 >= raw / 2 && d1 <= raw, "attempt {attempt}: {d1}");
        }
        // Jitter actually varies across shards.
        let delays: std::collections::HashSet<u64> =
            (0..8).map(|s| backoff_delay_ms(42, s, 5, 50, 10_000)).collect();
        assert!(delays.len() > 1);
    }

    #[test]
    fn sub_chunk_assigns_health_to_exactly_one_owner() {
        let plan = ShardPlan::new(3, 0);
        let mut health = IngestHealth::new(4096);
        health.ok_records = 50;
        health.ok_bytes = 4000;
        health.quarantined_bytes = 96;
        health.resyncs = 1;
        health.fault_counts = [0, 1, 0, 0, 0];
        let chunk = FlowChunk {
            seq: 7,
            byte_start: 0,
            byte_end: 4096,
            flows: (0..50).map(flow).collect(),
            health,
        };
        let subs: Vec<FlowChunk> = (0..3).map(|s| sub_chunk(chunk.clone(), &plan, s)).collect();
        // Flows partition exactly.
        assert_eq!(
            subs.iter().map(|s| s.flows.len()).sum::<usize>(),
            chunk.flows.len()
        );
        // Health lands on shard seq % shards == 1 only.
        assert_eq!(subs[1].health.input_len, 4096);
        assert_eq!(subs[0].health, IngestHealth::default());
        assert_eq!(subs[2].health, IngestHealth::default());
        // Geometry is preserved on every sub-chunk.
        for s in &subs {
            assert_eq!((s.seq, s.byte_start, s.byte_end), (7, 0, 4096));
        }
    }

    #[test]
    fn merge_windows_sums_content_and_asserts_geometry() {
        let mk = |records: u64, class0: u64| {
            let mut w = WindowAccum::start(0, 0);
            w.chunks = 4;
            w.chunk_outcomes = FlowAccounting {
                offered: 4,
                processed: 4,
                shed: 0,
                quarantined: 0,
            };
            w.records = FlowAccounting {
                offered: records,
                processed: records,
                shed: 0,
                quarantined: 0,
            };
            w.class_flows = [class0, 0, 0, 0];
            w
        };
        let merged = merge_windows(&[vec![mk(10, 3)], vec![mk(20, 5)]]).unwrap();
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].records.offered, 30);
        assert_eq!(merged[0].class_flows[0], 8);
        // Geometry asserted equal, not summed.
        assert_eq!(merged[0].chunks, 4);
        assert_eq!(merged[0].chunk_outcomes.offered, 4);

        let mut bad = mk(5, 1);
        bad.chunks = 3;
        assert!(matches!(
            merge_windows(&[vec![mk(10, 3)], vec![bad]]),
            Err(ShardError::MergeMismatch { .. })
        ));

        // A window missing on one shard is a mismatch.
        let mut w1 = mk(10, 3);
        w1.window_index = 1;
        assert!(matches!(
            merge_windows(&[vec![mk(10, 3), w1], vec![mk(20, 5)]]),
            Err(ShardError::MergeMismatch { .. })
        ));
    }
}
