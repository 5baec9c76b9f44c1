//! # spoofwatch-core
//!
//! The paper's contribution: passive detection and classification of
//! inter-domain traffic with spoofed source IP addresses (Lichtblau et
//! al., IMC 2017).
//!
//! The flow of the system mirrors the paper's §3–§4:
//!
//! 1. Ingest BGP announcements from route collectors and build the
//!    routed table ([`spoofwatch_bgp::RoutedTable`]).
//! 2. Infer per-AS **valid address space** three ways — Naive (on-path),
//!    Customer Cone (over relationships inferred from the same BGP data,
//!    [`relinfer`]), and Full Cone (transitive closure of the directed
//!    AS-path graph) — each optionally adjusted for multi-AS
//!    organizations ([`Classifier::build`]).
//! 3. Classify every flow sequentially: **Bogon → Unrouted → Invalid →
//!    Valid**, first match wins, a batch at a time through one kernel
//!    ([`batch`]; [`Classifier::classify_with_tries`] is its oracle).
//! 4. Account per member and per class ([`stats`]), tag stray traffic
//!    from router interfaces ([`stray`]), and hunt false positives with
//!    WHOIS/looking-glass evidence ([`fphunt`]).
//!
//! The [`acl`] module turns the inferred valid space into deployable
//! ingress filter lists — the operational application the paper's
//! conclusion points at.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod acl;
pub mod backoff;
pub mod batch;
pub mod compiled;
pub mod detect;
pub mod fphunt;
pub mod freshness;
mod pipeline;
pub mod provenance;
pub mod relinfer;
pub mod runner;
pub mod stats;
pub mod stray;

pub use backoff::Backoff;
pub use batch::BatchScratch;
pub use compiled::{CompiledClassifier, CompiledLookup, EpochClassifier, EpochSwap};
pub use detect::{
    detect_over_windows, read_incident_log, DetectConfig, DetectEngine, Incident, IncidentKind,
    IncidentRecord, Provenance, SampledFlow, SpoofMode, WindowDetect,
};
pub use freshness::{Confidence, DegradedStats, FreshnessConfig, RibFreshness};
pub use pipeline::Classifier;
pub use provenance::{
    DecisionRecord, DisagreementMatrix, MatchedRule, MethodVariant, PairMatrix, VerdictVector,
    METHOD_VARIANTS, VARIANT_PAIRS,
};
pub use runner::live::{
    serve_live, serve_live_with, LiveError, LiveLadder, LiveServerConfig, LiveSession, LiveStudy,
    OverloadState, LIVE_WIRE_MAGIC,
};
pub use runner::shard::{
    merge_windows, serve_shard, DeathPoint, LossAccounting, ShardConfig, ShardCoordinator,
    ShardError, ShardPlan, ShardStatus, ShardStudyReport, ShardWorkerConfig, ShardWorkerError,
    SHARD_WIRE_MAGIC,
};
pub use runner::{
    read_ring, Checkpoint, CheckpointError, CheckpointSlot, CheckpointStore, ChunkSource,
    FlowAccounting, IngestTotals, RollupConfig, RunReport, RunnerConfig, RunnerError, RunnerHealth,
    RunnerObs, StudyRunner, WindowAccum, MEMBER_LABEL_BUDGET,
};
pub use stats::{ClassCounters, MemberBreakdown, Table1, Table1Row};
