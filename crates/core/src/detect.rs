//! Online detection over the rollup window stream: change points,
//! spoof-mode discrimination, and TTL-profile anomalies (paper §5–§7,
//! turned into a streaming monitor).
//!
//! Every closed [`WindowAccum`] is one observation. Three detector
//! families consume them:
//!
//! * **Change points** — a Page–Hinkley test per traffic class (and per
//!   member, budget-capped) over the window's flow shares. Deterministic
//!   thresholds: an alarm fires when the cumulative deviation from the
//!   running mean exceeds a fixed threshold (`PH_LAMBDA`).
//! * **Random vs. selective spoofing** — the source-address structure of
//!   the window's illegitimate (Bogon/Unrouted/Invalid) flows, kept in
//!   two bounded-memory sketches: per-bit one-counts of the 32 source
//!   address bits (exact, mergeable) and a 64-bucket hashed /24 sketch.
//!   Randomly spoofed floods show near-uniform bits (normalized entropy
//!   → 1); selective spoofing concentrates on few sources (→ 0).
//! * **TTL profiles** — per-class TTL histograms and means against an
//!   EWMA baseline; a mean shift of `TTL_SHIFT_HOPS` or more is the
//!   signature of a path change or an attack tool's fixed initial TTL.
//!
//! Detection is a **pure fold** over the window sequence
//! ([`detect_over_windows`]): the same windows yield the same incidents
//! whether they come from a single-process file run, a kill+resume at
//! any boundary, merged shard rings, or live streaming ingest. The
//! streaming engine ([`DetectEngine`]) is the incremental form of the
//! same fold; on resume the runner rebuilds it by re-folding the on-disk
//! ring, which holds every closed window.
//!
//! Each alarm becomes a typed [`Incident`] carried in an
//! [`IncidentRecord`] with a forensic [`Provenance`] bundle — the
//! triggering window snapshot, per-class reservoir flow samples, sketch
//! entropies, and the window's disagreement-matrix delta — persisted in
//! a CRC-framed incident log alongside the rollup ring
//! ([`write_incident_file`] / [`read_incident_log`]).

use crate::provenance::DisagreementMatrix;
use crate::runner::rollup::scan_indexed;
use crate::runner::{write_durable, DurableWrite, WindowAccum, WriteKind};
use serde::Serialize;
use spoofwatch_net::codec::WireReader;
use spoofwatch_net::wire::{frame_decode, frame_encode, FrameError};
use spoofwatch_net::{Asn, FlowRecord, TrafficClass};
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Frame magic of one incident-log file.
const INCIDENT_MAGIC: &[u8; 4] = b"SWIC";

/// Reservoir capacity per traffic class per window.
pub const SAMPLE_CAP: usize = 16;

/// Hashed /24 sketch buckets.
pub const SLASH24_BUCKETS: usize = 64;

/// Budget of members tracked by the per-member change-point detector
/// (mirrors the metrics label budget).
pub const DETECT_MEMBER_BUDGET: usize = 64;

// Deterministic thresholds and horizons for the online detectors. The
// paper runs one detector configuration, and so does every run here.

/// Page–Hinkley drift magnitude tolerance (shares per window).
const PH_DELTA: f64 = 0.005;
/// Page–Hinkley alarm threshold on the cumulative deviation.
const PH_LAMBDA: f64 = 0.08;
/// Suspect-flow share must exceed this floor for a spoof burst ...
const BURST_SHARE_FLOOR: f64 = 0.05;
/// ... and exceed `BURST_FACTOR ×` the EWMA baseline share.
const BURST_FACTOR: f64 = 3.0;
/// Minimum suspect flows in the window for a spoof burst.
const BURST_MIN_FLOWS: u64 = 50;
/// Normalized bit-entropy split: `>=` is random spoofing, `<` is
/// selective.
const ENTROPY_SPLIT: f64 = 0.5;
/// TTL mean shift (hops) against the baseline that fires an alarm.
const TTL_SHIFT_HOPS: f64 = 8.0;
/// Minimum TTL-carrying flows of a class in the window to judge it.
const TTL_MIN_FLOWS: u64 = 30;
/// EWMA smoothing for the burst and TTL baselines.
const EWMA_ALPHA: f64 = 0.3;

/// The switch that turns online detection on
/// ([`crate::RollupConfig::detect`]). It carries no settings: the
/// detectors' thresholds are this module's constants.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DetectConfig {}

/// One reservoir-sampled flow in a window's provenance bundle. Ordered
/// by sampling priority (a seeded hash of the flow's content), so
/// merging reservoirs is deterministic, order-independent, and
/// partition-independent: shards sampling disjoint slices of a chunk
/// select the same survivors as a single node sampling the whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub struct SampledFlow {
    /// Sampling priority: a seeded multiply–xor mix of `(seed,
    /// chunk_seq, flow content)`. The `SAMPLE_CAP` smallest priorities
    /// per class survive a merge.
    pub priority: u64,
    /// [`TrafficClass::index`] of the flow's classification.
    pub class: u8,
    /// Source address.
    pub src: u32,
    /// Destination address.
    pub dst: u32,
    /// Emitting IXP member.
    pub member: Asn,
    /// Flow timestamp.
    pub ts: u32,
    /// IP protocol number.
    pub proto: u8,
    /// Source port.
    pub sport: u16,
    /// Destination port.
    pub dport: u16,
    /// IP TTL (0 = not captured).
    pub ttl: u8,
}

/// The per-window detection payload: everything the detectors need from
/// a window, accumulated chunk by chunk worker-side and merged
/// commit-side (and across shards). All fields are exact sums or
/// order-independent merges, so shard-merged windows equal single-run
/// windows.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct WindowDetect {
    /// Per-member flow counts by [`TrafficClass::index`].
    pub per_member: BTreeMap<Asn, [u64; 4]>,
    /// One-counts of each source-address bit over suspect
    /// (Bogon/Unrouted/Invalid) flows; `bit_ones[0]` is the MSB.
    pub bit_ones: [u64; 32],
    /// Suspect flows observed (the denominator of `bit_ones`).
    pub suspect_flows: u64,
    /// Hashed /24 source-prefix sketch over suspect flows
    /// (length [`SLASH24_BUCKETS`]).
    pub slash24: Vec<u64>,
    /// Per-class TTL histograms, 16 bins of 16 hops, over flows with a
    /// captured (nonzero) TTL.
    pub ttl_hist: [[u64; 16]; 4],
    /// Per-class TTL sums over flows with a captured TTL.
    pub ttl_sum: [u64; 4],
    /// Per-class count of flows with a captured TTL.
    pub ttl_count: [u64; 4],
    /// Bounded per-class reservoir samples, sorted by
    /// `(class, priority, …)`, at most [`SAMPLE_CAP`] per class.
    pub samples: Vec<SampledFlow>,
}

impl Default for WindowDetect {
    fn default() -> WindowDetect {
        WindowDetect::new()
    }
}

impl WindowDetect {
    /// An empty payload.
    pub fn new() -> WindowDetect {
        WindowDetect {
            per_member: BTreeMap::new(),
            bit_ones: [0; 32],
            suspect_flows: 0,
            slash24: vec![0; SLASH24_BUCKETS],
            ttl_hist: [[0; 16]; 4],
            ttl_sum: [0; 4],
            ttl_count: [0; 4],
            samples: Vec::new(),
        }
    }

    /// The payload of one classified chunk, computed worker-side.
    /// `seed` and `seq` key the reservoir priorities, so resuming a run
    /// replays identical samples.
    pub fn from_chunk(
        flows: &[FlowRecord],
        classes: &[TrafficClass],
        seed: u64,
        seq: u64,
    ) -> WindowDetect {
        assert_eq!(flows.len(), classes.len(), "classify returned wrong arity");
        let mut d = WindowDetect::new();
        // Bounded per-class reservoirs: this runs worker-side on every
        // record, so keep the `SAMPLE_CAP` best candidates incrementally
        // instead of materializing and sorting the whole chunk. Most
        // records cost one priority mix plus a compare against the
        // current per-class worst.
        let mut kept: [Vec<SampledFlow>; 4] = Default::default();
        let mut worst: [usize; 4] = [0; 4];
        for (f, c) in flows.iter().zip(classes) {
            d.per_member.entry(f.member).or_default()[c.index()] += 1;
            if c.is_illegitimate() {
                d.suspect_flows += 1;
                for (bit, ones) in d.bit_ones.iter_mut().enumerate() {
                    *ones += u64::from(f.src >> (31 - bit)) & 1;
                }
                let bucket =
                    crate::backoff::fnv(&[u64::from(f.src >> 8)]) % SLASH24_BUCKETS as u64;
                d.slash24[bucket as usize] += 1;
            }
            if f.ttl > 0 {
                let idx = c.index();
                d.ttl_hist[idx][(f.ttl >> 4) as usize] += 1;
                d.ttl_sum[idx] += u64::from(f.ttl);
                d.ttl_count[idx] += 1;
            }
            let priority = sample_priority(seed, seq, f);
            let ci = c.index();
            let pool = &mut kept[ci];
            let full = pool.len() == SAMPLE_CAP;
            if full
                && (priority, f.src, f.dst, f.ts, f.sport, f.dport)
                    >= sample_rank(&pool[worst[ci]])
            {
                continue;
            }
            let s = SampledFlow {
                priority,
                class: ci as u8,
                src: f.src,
                dst: f.dst,
                member: f.member,
                ts: f.ts,
                proto: f.proto.number(),
                sport: f.sport,
                dport: f.dport,
                ttl: f.ttl,
            };
            if full {
                pool[worst[ci]] = s;
            } else {
                pool.push(s);
            }
            if pool.len() == SAMPLE_CAP {
                worst[ci] = worst_of(pool);
            }
        }
        for pool in kept {
            d.samples.extend(pool);
        }
        d.truncate_samples();
        d
    }

    /// Fold another payload in. Merging is commutative and associative:
    /// counts sum and reservoirs keep the per-class priority minima, so
    /// any grouping of chunks (or shards) yields the same window
    /// payload wherever priorities agree, and the same detector inputs
    /// regardless.
    pub fn merge(&mut self, other: &WindowDetect) {
        for (asn, rows) in &other.per_member {
            let into = self.per_member.entry(*asn).or_default();
            for (dst, src) in into.iter_mut().zip(rows) {
                *dst += src;
            }
        }
        for (dst, src) in self.bit_ones.iter_mut().zip(&other.bit_ones) {
            *dst += src;
        }
        self.suspect_flows += other.suspect_flows;
        for (dst, src) in self.slash24.iter_mut().zip(&other.slash24) {
            *dst += src;
        }
        for (dsth, srch) in self.ttl_hist.iter_mut().zip(&other.ttl_hist) {
            for (dst, src) in dsth.iter_mut().zip(srch) {
                *dst += src;
            }
        }
        for (dst, src) in self.ttl_sum.iter_mut().zip(&other.ttl_sum) {
            *dst += src;
        }
        for (dst, src) in self.ttl_count.iter_mut().zip(&other.ttl_count) {
            *dst += src;
        }
        self.samples.extend_from_slice(&other.samples);
        self.truncate_samples();
    }

    /// Sort samples canonically and keep the [`SAMPLE_CAP`] smallest
    /// priorities per class.
    fn truncate_samples(&mut self) {
        self.samples
            .sort_by_key(|s| (s.class, s.priority, s.src, s.dst, s.ts, s.sport, s.dport));
        let mut kept_per_class = [0usize; 4];
        self.samples.retain(|s| {
            let k = &mut kept_per_class[(s.class as usize).min(3)];
            *k += 1;
            *k <= SAMPLE_CAP
        });
    }

    /// Normalized mean per-bit entropy of suspect source addresses,
    /// 0.0 (all identical bits) to 1.0 (every bit uniform). Random
    /// spoofing sits near 1; selective spoofing near 0.
    pub fn bit_entropy(&self) -> f64 {
        if self.suspect_flows == 0 {
            return 0.0;
        }
        let n = self.suspect_flows as f64;
        let mut sum = 0.0;
        for &ones in &self.bit_ones {
            let p = ones as f64 / n;
            sum += binary_entropy(p);
        }
        sum / 32.0
    }

    /// Normalized Shannon entropy of the hashed /24 sketch, 0.0–1.0
    /// (normalized by `log2(SLASH24_BUCKETS)`). A coarsened lower bound
    /// on the true /24 source entropy: `H_sketch <= H_exact <=
    /// H_sketch + log2(max distinct /24s in one bucket)`.
    pub fn slash24_entropy(&self) -> f64 {
        let total: u64 = self.slash24.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let n = total as f64;
        let mut h = 0.0;
        for &c in &self.slash24 {
            if c > 0 {
                let p = c as f64 / n;
                h -= p * p.log2();
            }
        }
        h / (SLASH24_BUCKETS as f64).log2()
    }

    /// Mean TTL of a class's TTL-carrying flows, if any.
    pub fn ttl_mean(&self, class_index: usize) -> Option<f64> {
        let n = self.ttl_count[class_index];
        (n > 0).then(|| self.ttl_sum[class_index] as f64 / n as f64)
    }

    /// The member emitting the most suspect flows in this window, for
    /// incident attribution. Ties break to the lowest ASN.
    pub fn top_suspect_member(&self) -> Option<Asn> {
        let mut best: Option<(Asn, u64)> = None;
        for (asn, rows) in &self.per_member {
            let suspect: u64 = TrafficClass::ALL
                .iter()
                .filter(|c| c.is_illegitimate())
                .map(|c| rows[c.index()])
                .sum();
            if suspect > 0 && best.is_none_or(|(_, b)| suspect > b) {
                best = Some((*asn, suspect));
            }
        }
        best.map(|(asn, _)| asn)
    }

    /// Serialize into `out` (big-endian integers throughout).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.per_member.len() as u32).to_be_bytes());
        for (asn, rows) in &self.per_member {
            out.extend_from_slice(&asn.0.to_be_bytes());
            for v in rows {
                out.extend_from_slice(&v.to_be_bytes());
            }
        }
        for v in self.bit_ones {
            out.extend_from_slice(&v.to_be_bytes());
        }
        out.extend_from_slice(&self.suspect_flows.to_be_bytes());
        for v in &self.slash24 {
            out.extend_from_slice(&v.to_be_bytes());
        }
        for hist in &self.ttl_hist {
            for v in hist {
                out.extend_from_slice(&v.to_be_bytes());
            }
        }
        for v in self.ttl_sum {
            out.extend_from_slice(&v.to_be_bytes());
        }
        for v in self.ttl_count {
            out.extend_from_slice(&v.to_be_bytes());
        }
        put_samples(out, &self.samples);
    }

    /// Decode at the cursor, advancing it. `None` on truncated or
    /// structurally invalid input.
    pub fn decode_from(r: &mut WireReader<'_>) -> Option<WindowDetect> {
        let mut d = WindowDetect::new();
        let members = r.u32()? as usize;
        for _ in 0..members {
            let asn = Asn(r.u32()?);
            let mut rows = [0u64; 4];
            for v in &mut rows {
                *v = r.u64()?;
            }
            // Duplicate keys would silently collapse counts.
            if d.per_member.insert(asn, rows).is_some() {
                return None;
            }
        }
        for v in &mut d.bit_ones {
            *v = r.u64()?;
        }
        d.suspect_flows = r.u64()?;
        for v in &mut d.slash24 {
            *v = r.u64()?;
        }
        for hist in &mut d.ttl_hist {
            for v in hist {
                *v = r.u64()?;
            }
        }
        for v in &mut d.ttl_sum {
            *v = r.u64()?;
        }
        for v in &mut d.ttl_count {
            *v = r.u64()?;
        }
        d.samples = get_samples(r)?;
        Some(d)
    }
}

/// Sampling priority of a flow: a seeded mix of `(seed, chunk_seq,
/// flow content)`. Position-free by design: a shard that owns only a
/// slice of a chunk computes the same priority for a flow as a single
/// node seeing the whole chunk, so reservoir merges agree across any
/// partition. Uses a multiply–xor finalizer chain rather than the
/// byte-wise FNV shared hash — this runs on every record worker-side
/// and only needs uniformity plus determinism, not FNV compatibility.
fn sample_priority(seed: u64, seq: u64, f: &FlowRecord) -> u64 {
    let w1 = (u64::from(f.src) << 32) | u64::from(f.dst);
    let w2 = (u64::from(f.ts) << 32) | (u64::from(f.sport) << 16) | u64::from(f.dport);
    let w3 = (u64::from(f.member.0) << 32)
        | (u64::from(f.proto.number()) << 24)
        | (u64::from(f.pkt_size) << 8)
        | u64::from(f.ttl);
    let w4 = (u64::from(f.packets) << 32) | (f.bytes & 0xFFFF_FFFF);
    let mut h = mix64(seed ^ w1);
    h = mix64(h ^ seq ^ w2);
    h = mix64(h ^ w3);
    mix64(h ^ w4)
}

/// splitmix64 finalizer: full-avalanche multiply–xor mixing of one word.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Reservoir eviction rank: sampling priority first, ties broken by the
/// same fields [`WindowDetect::truncate_samples`] sorts by, so bounded
/// insertion keeps exactly the flows a batch sort-and-truncate would.
fn sample_rank(s: &SampledFlow) -> (u64, u32, u32, u32, u16, u16) {
    (s.priority, s.src, s.dst, s.ts, s.sport, s.dport)
}

/// Index of the weakest kept sample — the one a better candidate
/// evicts. `>=` prefers the latest-scanned among rank ties, matching
/// the stable sort's keep-earliest behavior under truncation.
fn worst_of(pool: &[SampledFlow]) -> usize {
    let mut w = 0;
    for i in 1..pool.len() {
        if sample_rank(&pool[i]) >= sample_rank(&pool[w]) {
            w = i;
        }
    }
    w
}

/// `-p log2(p) - (1-p) log2(1-p)`, 0 at the endpoints.
fn binary_entropy(p: f64) -> f64 {
    if p <= 0.0 || p >= 1.0 {
        return 0.0;
    }
    -p * p.log2() - (1.0 - p) * (1.0 - p).log2()
}

/// Append `n u32 | n × sample` — the sample block shared by the window
/// payload and the incident provenance bundle.
fn put_samples(out: &mut Vec<u8>, samples: &[SampledFlow]) {
    out.extend_from_slice(&(samples.len() as u32).to_be_bytes());
    for s in samples {
        out.extend_from_slice(&s.priority.to_be_bytes());
        out.push(s.class);
        out.extend_from_slice(&s.src.to_be_bytes());
        out.extend_from_slice(&s.dst.to_be_bytes());
        out.extend_from_slice(&s.member.0.to_be_bytes());
        out.extend_from_slice(&s.ts.to_be_bytes());
        out.push(s.proto);
        out.extend_from_slice(&s.sport.to_be_bytes());
        out.extend_from_slice(&s.dport.to_be_bytes());
        out.push(s.ttl);
    }
}

/// Read a sample block; `None` on a count past the merge bound or a
/// class index past the four classes.
fn get_samples(r: &mut WireReader<'_>) -> Option<Vec<SampledFlow>> {
    let n = r.u32()? as usize;
    if n > SAMPLE_CAP * 4 {
        return None;
    }
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let s = SampledFlow {
            priority: r.u64()?,
            class: r.u8()?,
            src: r.u32()?,
            dst: r.u32()?,
            member: Asn(r.u32()?),
            ts: r.u32()?,
            proto: r.u8()?,
            sport: r.u16()?,
            dport: r.u16()?,
            ttl: r.u8()?,
        };
        if s.class > 3 {
            return None;
        }
        samples.push(s);
    }
    Some(samples)
}

/// The next big-endian two's-complement `i64` (the milli-unit fields).
fn get_i64(r: &mut WireReader<'_>) -> Option<i64> {
    r.u64().map(|v| v as i64)
}

/// Thousandths, the canonical integer encoding of detector floats —
/// keeps incident bytes platform-identical.
fn milli(x: f64) -> i64 {
    (x * 1000.0).round() as i64
}

/// Random vs. selective spoofing, discriminated by source-address
/// structure entropy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SpoofMode {
    /// Near-uniform source bits: randomly spoofed flood.
    Random,
    /// Concentrated sources: selective spoofing (reflection triggers,
    /// fixed-source tools).
    Selective,
}

impl fmt::Display for SpoofMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SpoofMode::Random => "random",
            SpoofMode::Selective => "selective",
        })
    }
}

/// What a detector saw, in fixed-point thousandths where fractional.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum IncidentKind {
    /// A Page–Hinkley alarm on one class's flow share.
    ClassDrift {
        /// The drifting class.
        class: TrafficClass,
        /// The window's share, thousandths.
        share_milli: i64,
        /// The detector's running mean at alarm time, thousandths.
        baseline_milli: i64,
    },
    /// A Page–Hinkley alarm on one member's flow share.
    MemberDrift {
        /// The drifting member.
        member: Asn,
        /// The window's member share, thousandths.
        share_milli: i64,
        /// The detector's running mean at alarm time, thousandths.
        baseline_milli: i64,
    },
    /// A burst of illegitimate flows over the EWMA baseline, with the
    /// spoof-mode verdict from the entropy sketches.
    SpoofBurst {
        /// Random or selective, per the bit-entropy split.
        mode: SpoofMode,
        /// Member emitting the most suspect flows, when any member did.
        member: Option<Asn>,
        /// Normalized bit entropy of suspect sources, thousandths.
        entropy_milli: i64,
        /// Suspect flows in the window.
        suspect_flows: u64,
        /// Suspect share of the window's flows, thousandths.
        share_milli: i64,
    },
    /// A class's mean TTL moved beyond the threshold against its
    /// EWMA baseline.
    TtlShift {
        /// The affected class.
        class: TrafficClass,
        /// Mean minus baseline, thousandths of a hop (signed).
        shift_milli: i64,
        /// The window's mean TTL, thousandths of a hop.
        mean_milli: i64,
        /// The EWMA baseline, thousandths of a hop.
        baseline_milli: i64,
    },
}

impl IncidentKind {
    /// Stable label for metrics and rendering.
    pub fn label(&self) -> &'static str {
        match self {
            IncidentKind::ClassDrift { .. } => "class_drift",
            IncidentKind::MemberDrift { .. } => "member_drift",
            IncidentKind::SpoofBurst { .. } => "spoof_burst",
            IncidentKind::TtlShift { .. } => "ttl_shift",
        }
    }

    /// Index into the per-kind metric handle arrays.
    pub(crate) fn index(&self) -> usize {
        match self {
            IncidentKind::ClassDrift { .. } => 0,
            IncidentKind::MemberDrift { .. } => 1,
            IncidentKind::SpoofBurst { .. } => 2,
            IncidentKind::TtlShift { .. } => 3,
        }
    }

    /// All metric label values, by [`IncidentKind::index`].
    pub const LABELS: [&'static str; 4] =
        ["class_drift", "member_drift", "spoof_burst", "ttl_shift"];
}

/// One detection: the window it fired in plus the typed verdict.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Incident {
    /// Window ordinal the detection fired in.
    pub window_index: u64,
    /// The typed verdict.
    pub kind: IncidentKind,
}

impl Incident {
    /// One-line human summary ("selective-spoofing burst at member 17,
    /// entropy 0.310, 40 suspect flows").
    pub fn summary(&self) -> String {
        let f = |m: i64| m as f64 / 1000.0;
        match &self.kind {
            IncidentKind::ClassDrift {
                class,
                share_milli,
                baseline_milli,
            } => format!(
                "{class} share drift: {:.3} vs baseline {:.3}",
                f(*share_milli),
                f(*baseline_milli)
            ),
            IncidentKind::MemberDrift {
                member,
                share_milli,
                baseline_milli,
            } => format!(
                "member {member} share drift: {:.3} vs baseline {:.3}",
                f(*share_milli),
                f(*baseline_milli)
            ),
            IncidentKind::SpoofBurst {
                mode,
                member,
                entropy_milli,
                suspect_flows,
                share_milli,
            } => {
                let at = member
                    .map(|m| format!(" at member {m}"))
                    .unwrap_or_default();
                format!(
                    "{mode}-spoofing burst{at}: entropy {:.3}, {suspect_flows} suspect flows \
                     ({:.1}% of window)",
                    f(*entropy_milli),
                    100.0 * f(*share_milli),
                )
            }
            IncidentKind::TtlShift {
                class,
                shift_milli,
                mean_milli,
                baseline_milli,
            } => format!(
                "{class} TTL profile shifted {:+.1} hops (mean {:.1} vs baseline {:.1})",
                f(*shift_milli),
                f(*mean_milli),
                f(*baseline_milli)
            ),
        }
    }
}

/// The forensic bundle persisted with each incident: the triggering
/// window's snapshot, sketch entropies, reservoir samples, and the
/// window's disagreement-matrix delta.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Provenance {
    /// First chunk sequence of the triggering window.
    pub start_chunk: u64,
    /// Chunks in the triggering window.
    pub chunks: u64,
    /// The window's per-class flow counts.
    pub class_flows: [u64; 4],
    /// Normalized bit entropy of suspect sources, thousandths.
    pub bit_entropy_milli: i64,
    /// Normalized /24-sketch entropy, thousandths.
    pub slash24_entropy_milli: i64,
    /// Per-class mean TTL, thousandths of a hop (0 where uncaptured).
    pub ttl_mean_milli: [i64; 4],
    /// Per-class count of TTL-carrying flows.
    pub ttl_count: [u64; 4],
    /// Per-class reservoir samples of the window.
    pub samples: Vec<SampledFlow>,
    /// The window's disagreement matrix — the delta this window added
    /// to the cumulative matrix — when the run tracked it.
    pub matrix: Option<DisagreementMatrix>,
}

/// An incident plus its provenance bundle: one record of the incident
/// log.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct IncidentRecord {
    /// The detection.
    pub incident: Incident,
    /// The forensic bundle.
    pub provenance: Provenance,
}

impl IncidentRecord {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.incident.window_index.to_be_bytes());
        match &self.incident.kind {
            IncidentKind::ClassDrift {
                class,
                share_milli,
                baseline_milli,
            } => {
                out.push(0);
                out.push(class.index() as u8);
                out.extend_from_slice(&share_milli.to_be_bytes());
                out.extend_from_slice(&baseline_milli.to_be_bytes());
            }
            IncidentKind::MemberDrift {
                member,
                share_milli,
                baseline_milli,
            } => {
                out.push(1);
                out.extend_from_slice(&member.0.to_be_bytes());
                out.extend_from_slice(&share_milli.to_be_bytes());
                out.extend_from_slice(&baseline_milli.to_be_bytes());
            }
            IncidentKind::SpoofBurst {
                mode,
                member,
                entropy_milli,
                suspect_flows,
                share_milli,
            } => {
                out.push(2);
                out.push(matches!(mode, SpoofMode::Selective) as u8);
                match member {
                    None => out.push(0),
                    Some(m) => {
                        out.push(1);
                        out.extend_from_slice(&m.0.to_be_bytes());
                    }
                }
                out.extend_from_slice(&entropy_milli.to_be_bytes());
                out.extend_from_slice(&suspect_flows.to_be_bytes());
                out.extend_from_slice(&share_milli.to_be_bytes());
            }
            IncidentKind::TtlShift {
                class,
                shift_milli,
                mean_milli,
                baseline_milli,
            } => {
                out.push(3);
                out.push(class.index() as u8);
                out.extend_from_slice(&shift_milli.to_be_bytes());
                out.extend_from_slice(&mean_milli.to_be_bytes());
                out.extend_from_slice(&baseline_milli.to_be_bytes());
            }
        }
        let p = &self.provenance;
        out.extend_from_slice(&p.start_chunk.to_be_bytes());
        out.extend_from_slice(&p.chunks.to_be_bytes());
        for v in p.class_flows {
            out.extend_from_slice(&v.to_be_bytes());
        }
        out.extend_from_slice(&p.bit_entropy_milli.to_be_bytes());
        out.extend_from_slice(&p.slash24_entropy_milli.to_be_bytes());
        for v in p.ttl_mean_milli {
            out.extend_from_slice(&v.to_be_bytes());
        }
        for v in p.ttl_count {
            out.extend_from_slice(&v.to_be_bytes());
        }
        put_samples(out, &p.samples);
        match &p.matrix {
            None => out.push(0),
            Some(m) => {
                out.push(1);
                m.encode_into(out);
            }
        }
    }

    fn decode_from(r: &mut WireReader<'_>) -> Option<IncidentRecord> {
        let window_index = r.u64()?;
        let tag = r.u8()?;
        let class_at = |i: u8| -> Option<TrafficClass> {
            TrafficClass::ALL.get(i as usize).copied()
        };
        let kind = match tag {
            0 => IncidentKind::ClassDrift {
                class: class_at(r.u8()?)?,
                share_milli: get_i64(r)?,
                baseline_milli: get_i64(r)?,
            },
            1 => IncidentKind::MemberDrift {
                member: Asn(r.u32()?),
                share_milli: get_i64(r)?,
                baseline_milli: get_i64(r)?,
            },
            2 => {
                let mode = match r.u8()? {
                    0 => SpoofMode::Random,
                    1 => SpoofMode::Selective,
                    _ => return None,
                };
                let member = match r.u8()? {
                    0 => None,
                    1 => Some(Asn(r.u32()?)),
                    _ => return None,
                };
                IncidentKind::SpoofBurst {
                    mode,
                    member,
                    entropy_milli: get_i64(r)?,
                    suspect_flows: r.u64()?,
                    share_milli: get_i64(r)?,
                }
            }
            3 => IncidentKind::TtlShift {
                class: class_at(r.u8()?)?,
                shift_milli: get_i64(r)?,
                mean_milli: get_i64(r)?,
                baseline_milli: get_i64(r)?,
            },
            _ => return None,
        };
        let start_chunk = r.u64()?;
        let chunks = r.u64()?;
        let mut class_flows = [0u64; 4];
        for v in &mut class_flows {
            *v = r.u64()?;
        }
        let bit_entropy_milli = get_i64(r)?;
        let slash24_entropy_milli = get_i64(r)?;
        let mut ttl_mean_milli = [0i64; 4];
        for v in &mut ttl_mean_milli {
            *v = get_i64(r)?;
        }
        let mut ttl_count = [0u64; 4];
        for v in &mut ttl_count {
            *v = r.u64()?;
        }
        let samples = get_samples(r)?;
        let matrix = match r.u8()? {
            0 => None,
            1 => Some(DisagreementMatrix::decode_from(r)?),
            _ => return None,
        };
        Some(IncidentRecord {
            incident: Incident { window_index, kind },
            provenance: Provenance {
                start_chunk,
                chunks,
                class_flows,
                bit_entropy_milli,
                slash24_entropy_milli,
                ttl_mean_milli,
                ttl_count,
                samples,
                matrix,
            },
        })
    }
}

/// Page–Hinkley change-point test over a share series: tracks the
/// cumulative deviation of observations from their running mean and
/// alarms when it strays more than `lambda` from its extremum (both
/// directions). Resets after an alarm so sustained shifts fire once at
/// onset, not every window.
#[derive(Debug, Clone, Default)]
struct PageHinkley {
    n: u64,
    mean: f64,
    mh: f64,
    min_mh: f64,
    max_mh: f64,
}

impl PageHinkley {
    /// Feed one observation. On alarm, returns the running mean at
    /// alarm time (the "baseline" the observation broke from) and
    /// resets the test.
    fn update(&mut self, x: f64, delta: f64, lambda: f64) -> Option<f64> {
        self.n += 1;
        self.mean += (x - self.mean) / self.n as f64;
        self.mh += x - self.mean - delta;
        self.min_mh = self.min_mh.min(self.mh);
        self.max_mh = self.max_mh.max(self.mh);
        let alarm = self.mh - self.min_mh > lambda || self.max_mh - self.mh > lambda;
        if alarm {
            let baseline = self.mean;
            *self = PageHinkley::default();
            return Some(baseline);
        }
        None
    }
}

/// EWMA baseline that needs `warm_after` observations before it judges.
#[derive(Debug, Clone, Default)]
struct Baseline {
    value: Option<f64>,
    seen: u32,
}

impl Baseline {
    fn warm(&self, warm_after: u32) -> Option<f64> {
        (self.seen >= warm_after).then_some(self.value).flatten()
    }

    fn update(&mut self, x: f64, alpha: f64) {
        self.value = Some(match self.value {
            None => x,
            Some(b) => alpha * x + (1.0 - alpha) * b,
        });
        self.seen = self.seen.saturating_add(1);
    }
}

/// The streaming detector bank: one observation per closed window.
/// State is deterministic in the window sequence; the runner rebuilds
/// it on resume by re-folding the on-disk ring.
#[derive(Debug, Clone)]
pub struct DetectEngine {
    class_ph: [PageHinkley; 4],
    member_ph: BTreeMap<Asn, PageHinkley>,
    burst: Baseline,
    ttl: [Baseline; 4],
}

impl DetectEngine {
    /// A fresh engine. [`DetectConfig`] carries no settings.
    pub fn new(_: DetectConfig) -> DetectEngine {
        DetectEngine {
            class_ph: Default::default(),
            member_ph: BTreeMap::new(),
            burst: Baseline::default(),
            ttl: Default::default(),
        }
    }

    /// Observe one closed window, in window order, returning the
    /// incidents it fired. Empty windows (no processed flows) neither
    /// fire nor advance any detector — a share of nothing is undefined,
    /// not zero.
    pub fn observe(&mut self, w: &WindowAccum) -> Vec<IncidentRecord> {
        let total = w.total_flows();
        if total == 0 {
            return Vec::new();
        }
        let mut kinds: Vec<IncidentKind> = Vec::new();
        let shares = w.class_shares();
        for (i, class) in TrafficClass::ALL.iter().enumerate() {
            if let Some(baseline) = self.class_ph[i].update(shares[i], PH_DELTA, PH_LAMBDA) {
                kinds.push(IncidentKind::ClassDrift {
                    class: *class,
                    share_milli: milli(shares[i]),
                    baseline_milli: milli(baseline),
                });
            }
        }
        if let Some(d) = &w.detect {
            // Per-member drift: admit new members up to the budget
            // (deterministically, in ASN order), then feed every
            // tracked member its share — zero when absent, so a member
            // going quiet is a change too.
            for asn in d.per_member.keys() {
                if self.member_ph.len() >= DETECT_MEMBER_BUDGET {
                    break;
                }
                self.member_ph.entry(*asn).or_default();
            }
            for (asn, ph) in &mut self.member_ph {
                let flows: u64 = d.per_member.get(asn).map(|r| r.iter().sum()).unwrap_or(0);
                let share = flows as f64 / total as f64;
                if let Some(baseline) = ph.update(share, PH_DELTA, PH_LAMBDA) {
                    kinds.push(IncidentKind::MemberDrift {
                        member: *asn,
                        share_milli: milli(share),
                        baseline_milli: milli(baseline),
                    });
                }
            }
            // Spoof burst + mode discrimination.
            let suspect_share = d.suspect_flows as f64 / total as f64;
            if let Some(baseline) = self.burst.warm(1) {
                if d.suspect_flows >= BURST_MIN_FLOWS
                    && suspect_share >= BURST_SHARE_FLOOR
                    && suspect_share > BURST_FACTOR * baseline
                {
                    let entropy = d.bit_entropy();
                    let mode = if entropy >= ENTROPY_SPLIT {
                        SpoofMode::Random
                    } else {
                        SpoofMode::Selective
                    };
                    kinds.push(IncidentKind::SpoofBurst {
                        mode,
                        member: d.top_suspect_member(),
                        entropy_milli: milli(entropy),
                        suspect_flows: d.suspect_flows,
                        share_milli: milli(suspect_share),
                    });
                }
            }
            self.burst.update(suspect_share, EWMA_ALPHA);
            // TTL profile anomalies, per class.
            for (i, class) in TrafficClass::ALL.iter().enumerate() {
                if d.ttl_count[i] < TTL_MIN_FLOWS {
                    continue;
                }
                let mean = d.ttl_sum[i] as f64 / d.ttl_count[i] as f64;
                if let Some(baseline) = self.ttl[i].warm(2) {
                    let shift = mean - baseline;
                    if shift.abs() >= TTL_SHIFT_HOPS {
                        kinds.push(IncidentKind::TtlShift {
                            class: *class,
                            shift_milli: milli(shift),
                            mean_milli: milli(mean),
                            baseline_milli: milli(baseline),
                        });
                    }
                }
                self.ttl[i].update(mean, EWMA_ALPHA);
            }
        }
        let provenance = provenance_of(w);
        kinds
            .into_iter()
            .map(|kind| IncidentRecord {
                incident: Incident {
                    window_index: w.window_index,
                    kind,
                },
                provenance: provenance.clone(),
            })
            .collect()
    }
}

/// Build the forensic bundle for incidents fired in `w`.
fn provenance_of(w: &WindowAccum) -> Provenance {
    let (bit_e, s24_e, ttl_mean_milli, ttl_count, samples) = match &w.detect {
        Some(d) => (
            d.bit_entropy(),
            d.slash24_entropy(),
            [0, 1, 2, 3].map(|i| d.ttl_mean(i).map(milli).unwrap_or(0)),
            d.ttl_count,
            d.samples.clone(),
        ),
        None => (0.0, 0.0, [0i64; 4], [0u64; 4], Vec::new()),
    };
    Provenance {
        start_chunk: w.start_chunk,
        chunks: w.chunks,
        class_flows: w.class_flows,
        bit_entropy_milli: milli(bit_e),
        slash24_entropy_milli: milli(s24_e),
        ttl_mean_milli,
        ttl_count,
        samples,
        matrix: w.disagreement.clone(),
    }
}

/// Detection as a pure fold: the incidents of a window sequence. The
/// streaming [`DetectEngine`] computes exactly this incrementally —
/// which is why single-process, kill+resume, shard-merged, and live
/// runs agree on the incident set.
pub fn detect_over_windows(windows: &[WindowAccum], _: &DetectConfig) -> Vec<IncidentRecord> {
    let mut engine = DetectEngine::new(DetectConfig::default());
    windows.iter().flat_map(|w| engine.observe(w)).collect()
}

/// Why an incident-log file failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IncidentLogError {
    /// The CRC frame was torn or corrupt.
    Frame(FrameError),
    /// The frame verified but the payload didn't parse.
    Malformed,
}

impl fmt::Display for IncidentLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IncidentLogError::Frame(e) => write!(f, "incident log: {e}"),
            IncidentLogError::Malformed => f.write_str("incident log: malformed payload"),
        }
    }
}

impl std::error::Error for IncidentLogError {}

/// File name of window `index`'s incident log inside a rollup
/// directory.
pub fn incident_file_name(index: u64) -> String {
    format!("incidents-{index:010}.bin")
}

/// Atomically write one window's incidents (tmp + fsync + rename),
/// CRC-framed like the ring windows. A resumed run re-closing the same
/// window rewrites byte-identical content.
pub fn write_incident_file(
    dir: &Path,
    window_index: u64,
    records: &[IncidentRecord],
) -> io::Result<PathBuf> {
    let write = incident_write(dir, window_index, records);
    write_durable(&write)?;
    Ok(write.dest)
}

/// The durable write that puts one window's incidents into the log at
/// `dir`.
pub(crate) fn incident_write(
    dir: &Path,
    window_index: u64,
    records: &[IncidentRecord],
) -> DurableWrite {
    let mut payload = Vec::with_capacity(256);
    payload.extend_from_slice(&(records.len() as u32).to_be_bytes());
    for r in records {
        r.encode_into(&mut payload);
    }
    DurableWrite {
        kind: WriteKind::Incidents,
        tmp: dir.join("incidents.tmp"),
        dest: dir.join(incident_file_name(window_index)),
        keep_old: None,
        bytes: frame_encode(INCIDENT_MAGIC, &payload),
    }
}

/// Parse and verify one incident file's bytes.
pub fn decode_incident_file(data: &[u8]) -> Result<Vec<IncidentRecord>, IncidentLogError> {
    let payload = frame_decode(INCIDENT_MAGIC, data).map_err(IncidentLogError::Frame)?;
    let mut r = WireReader::new(payload);
    let count = r.u32().ok_or(IncidentLogError::Malformed)? as usize;
    let mut out = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        out.push(IncidentRecord::decode_from(&mut r).ok_or(IncidentLogError::Malformed)?);
    }
    if !r.done() {
        return Err(IncidentLogError::Malformed);
    }
    Ok(out)
}

/// Read every incident file in a rollup directory, sorted by window
/// index (then detector order within a window). Torn or corrupt files
/// are reported as faults, never trusted; a missing directory reads as
/// an empty log.
#[allow(clippy::type_complexity)]
pub fn read_incident_log(
    dir: &Path,
) -> io::Result<(Vec<IncidentRecord>, Vec<(PathBuf, IncidentLogError)>)> {
    let (per_file, faults) = scan_indexed(dir, "incidents-", decode_incident_file)?;
    Ok((per_file.into_iter().flatten().collect(), faults))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use spoofwatch_net::Proto;

    /// splitmix64 finalizer — bit-uniform pseudo-random sources for the
    /// tests (fnv's avalanche over sequential inputs is too weak to
    /// pass for random spoofing).
    fn mix(i: u64) -> u32 {
        let mut x = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (x ^ (x >> 31)) as u32
    }

    fn flow(src: u32, member: u32, ttl: u8) -> FlowRecord {
        FlowRecord {
            ts: 100,
            src,
            dst: 0x0808_0808,
            proto: Proto::Udp,
            sport: 53,
            dport: 443,
            packets: 1,
            bytes: 40,
            pkt_size: 40,
            member: Asn(member),
            ttl,
        }
    }

    fn window(index: u64, class_flows: [u64; 4], detect: Option<WindowDetect>) -> WindowAccum {
        let mut w = WindowAccum::start(index, index * 4);
        w.chunks = 4;
        w.class_flows = class_flows;
        w.detect = detect;
        w
    }

    /// A detect payload with `suspect` invalid flows from the sources
    /// produced by `src_of`, plus `valid` valid flows, all with the
    /// given TTL.
    fn payload(suspect: u64, valid: u64, ttl: u8, src_of: impl Fn(u64) -> u32) -> WindowDetect {
        let mut flows = Vec::new();
        let mut classes = Vec::new();
        for i in 0..suspect {
            flows.push(flow(src_of(i), 17, ttl));
            classes.push(TrafficClass::Invalid);
        }
        for i in 0..valid {
            flows.push(flow(0xC0A8_0000 + i as u32, 9, ttl));
            classes.push(TrafficClass::Valid);
        }
        WindowDetect::from_chunk(&flows, &classes, 7, 0)
    }

    #[test]
    fn bit_entropy_separates_random_from_selective() {
        // Random spoofing: a seeded hash spreads sources uniformly.
        let random = payload(400, 0, 60, mix);
        // Selective: all flows from one /24.
        let selective = payload(400, 0, 60, |i| 0x0B16_2100 + (i % 4) as u32);
        assert!(
            random.bit_entropy() > 0.8,
            "random entropy {}",
            random.bit_entropy()
        );
        assert!(
            selective.bit_entropy() < 0.2,
            "selective entropy {}",
            selective.bit_entropy()
        );
        assert!(random.slash24_entropy() > selective.slash24_entropy());
    }

    #[test]
    fn chunk_merge_is_order_independent_and_matches_whole() {
        let flows: Vec<FlowRecord> = (0..60)
            .map(|i| flow(mix(i), i as u32 % 5, 64))
            .collect();
        let classes: Vec<TrafficClass> = (0..60)
            .map(|i| TrafficClass::ALL[i % 4])
            .collect();
        // Whole chunk vs. split-and-merged halves (same seed/seq per
        // half as the runner would assign).
        let whole = WindowDetect::from_chunk(&flows, &classes, 7, 0);
        let a = WindowDetect::from_chunk(&flows[..30], &classes[..30], 7, 0);
        let b = WindowDetect::from_chunk(&flows[30..], &classes[30..], 7, 1);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");
        // Counts (everything detectors read) agree with the whole chunk.
        assert_eq!(ab.per_member, whole.per_member);
        assert_eq!(ab.bit_ones, whole.bit_ones);
        assert_eq!(ab.suspect_flows, whole.suspect_flows);
        assert_eq!(ab.slash24, whole.slash24);
        assert_eq!(ab.ttl_hist, whole.ttl_hist);
        assert!(ab.samples.len() <= SAMPLE_CAP * 4);
    }

    #[test]
    fn window_detect_codec_roundtrip_and_truncation() {
        let d = payload(50, 30, 57, |i| 0x1234_0000 + i as u32 * 7919);
        let mut buf = Vec::new();
        d.encode_into(&mut buf);
        let mut r = WireReader::new(&buf);
        assert_eq!(WindowDetect::decode_from(&mut r), Some(d));
        assert!(r.done());
        for cut in 0..buf.len() {
            assert!(
                WindowDetect::decode_from(&mut WireReader::new(&buf[..cut])).is_none(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn engine_fires_spoof_burst_with_mode_and_member() {
        let cfg = DetectConfig::default();
        let mut engine = DetectEngine::new(cfg);
        // Two calm windows, then a selective burst.
        let calm = || window(0, [0, 0, 5, 995], Some(payload(5, 995, 60, |i| i as u32)));
        let mut w0 = calm();
        let mut w1 = calm();
        w1.window_index = 1;
        w1.start_chunk = 4;
        assert!(engine.observe(&w0).is_empty());
        assert!(engine.observe(&w1).is_empty());
        let burst = window(
            2,
            [0, 0, 400, 600],
            Some(payload(400, 600, 44, |i| 0x0B16_2100 + (i % 8) as u32)),
        );
        let recs = engine.observe(&burst);
        let spoof: Vec<_> = recs
            .iter()
            .filter_map(|r| match &r.incident.kind {
                IncidentKind::SpoofBurst { mode, member, .. } => Some((mode, member)),
                _ => None,
            })
            .collect();
        assert_eq!(spoof.len(), 1);
        assert_eq!(*spoof[0].0, SpoofMode::Selective);
        assert_eq!(*spoof[0].1, Some(Asn(17)));
        assert!(!recs[0].provenance.samples.is_empty());
        // The same stream with random sources flips the verdict.
        let mut engine = DetectEngine::new(DetectConfig::default());
        engine.observe(&w0);
        engine.observe(&w1);
        w0 = window(2, [0, 0, 400, 600], Some(payload(400, 600, 44, mix)));
        let recs = engine.observe(&w0);
        assert!(recs.iter().any(|r| matches!(
            r.incident.kind,
            IncidentKind::SpoofBurst {
                mode: SpoofMode::Random,
                ..
            }
        )));
    }

    #[test]
    fn engine_fires_class_drift_and_ttl_shift_once_at_onset() {
        let mut engine = DetectEngine::new(DetectConfig::default());
        let mut fired = Vec::new();
        for i in 0..10u64 {
            // Steady 1% invalid for 5 windows, then a sustained 40%.
            let (inv, val) = if i < 5 { (10, 990) } else { (400, 600) };
            let ttl = if i < 5 { 60 } else { 44 };
            let w = window(
                i,
                [0, 0, inv, val],
                Some(payload(inv, val, ttl, |j| 0x0A00_0000 + j as u32)),
            );
            for r in engine.observe(&w) {
                fired.push((i, r.incident.kind.label()));
            }
        }
        let class_drifts = fired.iter().filter(|(_, k)| *k == "class_drift").count();
        let ttl_shifts = fired.iter().filter(|(_, k)| *k == "ttl_shift").count();
        assert!(class_drifts >= 1, "fired: {fired:?}");
        assert!(
            fired.iter().any(|(w, k)| *k == "class_drift" && *w == 5),
            "drift should fire at onset: {fired:?}"
        );
        assert!(ttl_shifts >= 1, "fired: {fired:?}");
        // Page–Hinkley resets after alarm: the sustained shift does not
        // fire on every subsequent window.
        assert!(class_drifts <= 4, "repeated firing: {fired:?}");
    }

    #[test]
    fn empty_windows_neither_fire_nor_advance() {
        let cfg = DetectConfig::default();
        let mk_stream = |with_gaps: bool| {
            let mut ws = Vec::new();
            let mut idx = 0;
            for i in 0..8u64 {
                let (inv, val) = if i < 4 { (10, 990) } else { (400, 600) };
                ws.push(window(
                    idx,
                    [0, 0, inv, val],
                    Some(payload(inv, val, 60, |j| j as u32)),
                ));
                idx += 1;
                if with_gaps {
                    ws.push(window(idx, [0, 0, 0, 0], None));
                    idx += 1;
                }
            }
            ws
        };
        let plain = detect_over_windows(&mk_stream(false), &cfg);
        let gapped = detect_over_windows(&mk_stream(true), &cfg);
        // Same incident kinds in the same relative order; only the
        // window indices differ (gaps renumber them).
        let kinds = |v: &[IncidentRecord]| {
            v.iter().map(|r| r.incident.kind.clone()).collect::<Vec<_>>()
        };
        assert_eq!(kinds(&plain), kinds(&gapped));
        assert!(!plain.is_empty());
    }

    #[test]
    fn fold_equals_streaming_engine_across_any_split() {
        let cfg = DetectConfig::default();
        let windows: Vec<WindowAccum> = (0..12u64)
            .map(|i| {
                let (inv, val) = if i % 5 == 4 { (300, 700) } else { (10, 990) };
                window(i, [0, 0, inv, val], Some(payload(inv, val, 60, |j| j as u32)))
            })
            .collect();
        let whole = detect_over_windows(&windows, &cfg);
        for split in 0..windows.len() {
            let mut engine = DetectEngine::new(cfg.clone());
            let mut out = Vec::new();
            for w in &windows[..split] {
                out.extend(engine.observe(w));
            }
            for w in &windows[split..] {
                out.extend(engine.observe(w));
            }
            assert_eq!(out, whole, "split at {split}");
        }
    }

    #[test]
    fn member_budget_caps_tracking() {
        let mut engine = DetectEngine::new(DetectConfig::default());
        let mut d = WindowDetect::new();
        for m in 0..(DETECT_MEMBER_BUDGET as u32 + 40) {
            d.per_member.insert(Asn(m), [0, 0, 0, 10]);
        }
        let w = window(0, [0, 0, 0, 10 * (DETECT_MEMBER_BUDGET as u64 + 40)], Some(d));
        engine.observe(&w);
        assert_eq!(engine.member_ph.len(), DETECT_MEMBER_BUDGET);
    }

    #[test]
    fn incident_log_roundtrip_torn_detection_and_missing_dir() {
        let dir = std::env::temp_dir().join(format!(
            "swic-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();

        let d = payload(60, 40, 50, |i| 0x0B00_0000 + i as u32);
        let mut m = DisagreementMatrix::new();
        m.record(&[TrafficClass::Valid; 5]);
        let mut w = window(3, [0, 0, 60, 40], Some(d));
        w.disagreement = Some(m);
        let rec = IncidentRecord {
            incident: Incident {
                window_index: 3,
                kind: IncidentKind::SpoofBurst {
                    mode: SpoofMode::Selective,
                    member: Some(Asn(17)),
                    entropy_milli: 310,
                    suspect_flows: 60,
                    share_milli: 600,
                },
            },
            provenance: provenance_of(&w),
        };
        let rec2 = IncidentRecord {
            incident: Incident {
                window_index: 3,
                kind: IncidentKind::TtlShift {
                    class: TrafficClass::Invalid,
                    shift_milli: -12_000,
                    mean_milli: 44_000,
                    baseline_milli: 56_000,
                },
            },
            provenance: provenance_of(&w),
        };
        let path = write_incident_file(&dir, 3, &[rec.clone(), rec2.clone()]).unwrap();
        assert_eq!(path.file_name().unwrap(), "incidents-0000000003.bin");
        let bytes = fs::read(&path).unwrap();
        assert_eq!(decode_incident_file(&bytes).unwrap(), vec![rec.clone(), rec2.clone()]);
        // Byte-identical rewrite (resume idempotence).
        write_incident_file(&dir, 3, &[rec.clone(), rec2.clone()]).unwrap();
        assert_eq!(fs::read(&path).unwrap(), bytes);
        // Torn and corrupt files fail clean.
        for cut in 0..bytes.len() {
            assert!(decode_incident_file(&bytes[..cut]).is_err(), "cut {cut}");
        }
        for i in 0..bytes.len() {
            let mut torn = bytes.clone();
            torn[i] ^= 0x20;
            assert!(decode_incident_file(&torn).is_err(), "flip at {i}");
        }
        // Directory read: sorted, faults reported, missing dir empty.
        write_incident_file(&dir, 1, std::slice::from_ref(&rec2)).unwrap();
        fs::write(dir.join(incident_file_name(9)), b"torn").unwrap();
        let (records, faults) = read_incident_log(&dir).unwrap();
        assert_eq!(records, vec![rec2.clone(), rec, rec2]);
        assert_eq!(faults.len(), 1);
        let (r, f) = read_incident_log(&dir.join("missing")).unwrap();
        assert!(r.is_empty() && f.is_empty());
        assert!(records[1]
            .incident
            .summary()
            .contains("selective-spoofing burst at member AS17"));
        assert!(records[0].incident.summary().contains("-12.0 hops"));
        let _ = fs::remove_dir_all(dir);
    }

    /// Records per chunk and chunks per window of the calm study.
    const CALM_CHUNK: usize = 500;
    const CALM_WINDOW_CHUNKS: u64 = 4;

    /// Calm steady-state traffic over the tiny synthetic Internet: 48
    /// chunks from four addressable members with stable shares and TTL
    /// profiles, plus a 2 % bogon trickle — enough to keep every
    /// detector baseline warm without tripping an alarm.
    fn calm() -> (spoofwatch_internet::Internet, Vec<FlowRecord>) {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        use spoofwatch_internet::{Internet, InternetConfig};
        let net = Internet::generate(InternetConfig::tiny(91));
        let mut rng = StdRng::seed_from_u64(93);
        let members: Vec<Asn> = net
            .ixp_members
            .iter()
            .copied()
            .filter(|m| net.random_addr_of(&mut rng, *m).is_some())
            .take(4)
            .collect();
        assert_eq!(members.len(), 4, "the tiny Internet has 4 addressable members");
        let flows = (0..48 * CALM_CHUNK)
            .map(|i| {
                let member = members[i % members.len()];
                let (src, ttl) = if rng.random_bool(0.02) {
                    (0x0A01_0200 + rng.random_range(0..256), 58 + rng.random_range(0..4) as u8)
                } else {
                    let src = net
                        .random_addr_of(&mut rng, member)
                        .expect("member has address space");
                    (src, 50 + rng.random_range(0..12) as u8)
                };
                FlowRecord {
                    ts: rng.random_range(0..3600),
                    src,
                    dst: 0x0808_0808,
                    proto: Proto::Udp,
                    sport: rng.random_range(1025..65000),
                    dport: 443,
                    packets: 1,
                    bytes: 40,
                    pkt_size: 40,
                    member,
                    ttl,
                }
            })
            .collect();
        (net, flows)
    }

    fn calm_classifier(net: &spoofwatch_internet::Internet) -> crate::Classifier {
        crate::Classifier::build(&net.announcements, &net.orgs_dataset)
    }

    /// One rollup study over the encoded calm trace in `dir`, detection
    /// armed or not; returns the ring directory.
    fn calm_study(classifier: &crate::Classifier, bytes: &[u8], dir: &Path, detect: bool) -> PathBuf {
        use crate::{CheckpointStore, RollupConfig, RunnerConfig, StudyRunner};
        let (ring, ckpt) = (dir.join("ring"), dir.join("ckpt"));
        let _ = fs::remove_dir_all(&ring);
        let _ = fs::remove_dir_all(&ckpt);
        let store = CheckpointStore::open(&ckpt).expect("open store");
        let mut rollup = RollupConfig::new(&ring, CALM_WINDOW_CHUNKS);
        rollup.detect = detect.then(DetectConfig::default);
        let cfg = RunnerConfig {
            workers: 2,
            queue_depth: 4,
            checkpoint_every: 8,
            stall_timeout_ms: 0,
            ..RunnerConfig::default()
        };
        let mut source = spoofwatch_ixp::chunked::ChunkedIpfixReader::new(bytes, CALM_CHUNK);
        StudyRunner::new(classifier, cfg)
            .with_rollups(rollup)
            .run(&mut source, &store)
            .expect("rollup run");
        ring
    }

    fn calm_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("swcalm-{tag}-{}", std::process::id()))
    }

    /// The study the detect floors time is steady state: armed with
    /// `DetectConfig::default()`, calm traffic closes every window with
    /// a payload and fires no incident.
    #[test]
    fn calm_traffic_fires_no_incident() {
        let (net, flows) = calm();
        let dir = calm_dir("incidents");
        let bytes = spoofwatch_ixp::ipfix::encode(&flows);
        let ring = calm_study(&calm_classifier(&net), &bytes, &dir, true);
        let (windows, faults) = crate::read_ring(&ring).expect("ring");
        let (records, torn) = read_incident_log(&ring).expect("incident log");
        let _ = fs::remove_dir_all(&dir);
        assert!(faults.is_empty() && torn.is_empty(), "clean ring and incident log");
        assert_eq!(windows.len(), 12);
        assert!(windows.iter().all(|w| w.detect.is_some()), "detection armed");
        assert!(
            records.is_empty(),
            "calm traffic fired {} incidents — steady state is not steady",
            records.len()
        );
    }

    /// Release-mode floor, which `ci.sh` runs with `--ignored`: payload
    /// accumulation over an all-suspect chunk — every record feeds the
    /// per-bit and /24 entropy sketches — costs under 250 ns/record,
    /// best of 3 passes of 50 chunks. It runs worker-side, in parallel
    /// with classification, so it is priced per record rather than as a
    /// share of the serial path; the ceiling keeps an unbounded
    /// reservoir or a re-sorted chunk from creeping back.
    #[test]
    #[ignore = "release-mode timing floor; ci.sh runs it with --ignored"]
    fn from_chunk_floor_under_250ns_per_record() {
        use std::hint::black_box;
        use std::time::Instant;
        let (_, flows) = calm();
        let chunk = &flows[..CALM_CHUNK];
        let suspect = vec![TrafficClass::Bogon; CALM_CHUNK];
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t0 = Instant::now();
            for seq in 0..50 {
                black_box(WindowDetect::from_chunk(black_box(chunk), &suspect, 7, seq));
            }
            best = best.min(t0.elapsed().as_nanos() as f64 / (50 * CALM_CHUNK) as f64);
        }
        assert!(
            best < 250.0,
            "all-suspect payload accumulation costs {best:.0} ns/record (ceiling 250)"
        );
    }

    /// Release-mode floor, which `ci.sh` runs with `--ignored`:
    /// detection's additions to the serial commit path — merging each
    /// chunk's payload into its window, the detector bank at close, and
    /// the payload's ring encoding — cost under 5 % of the calm study's
    /// wall. That path cannot scale out, so a regression that moves
    /// per-record work onto it (or unbounds a payload) blows the ratio
    /// up. The additions are timed as single-threaded loops over
    /// precomputed payloads, with and without detection alternately
    /// (best of 5); the wall is the best of 5 studies without
    /// detection. Incident emission is outside the contract: it costs
    /// one fsynced file per fired window, not per record.
    #[test]
    #[ignore = "release-mode timing floor; ci.sh runs it with --ignored"]
    fn serial_commit_floor_under_5pct_tax() {
        use spoofwatch_net::{InferenceMethod, OrgMode};
        use std::hint::black_box;
        use std::time::{Duration, Instant};
        let (net, flows) = calm();
        let classifier = calm_classifier(&net);
        let dir = calm_dir("tax");
        let bytes = spoofwatch_ixp::ipfix::encode(&flows);
        let mut wall = Duration::MAX;
        for _ in 0..5 {
            let t0 = Instant::now();
            calm_study(&classifier, &bytes, &dir, false);
            wall = wall.min(t0.elapsed());
        }
        let _ = fs::remove_dir_all(&dir);

        // Per window: its accumulator without detection, and the
        // payloads its chunks hand the commit path.
        let classes =
            classifier.classify_trace(&flows, InferenceMethod::FullCone, OrgMode::OrgAdjusted);
        let window_records = CALM_CHUNK * CALM_WINDOW_CHUNKS as usize;
        let windows: Vec<(WindowAccum, Vec<WindowDetect>)> = flows
            .chunks(window_records)
            .zip(classes.chunks(window_records))
            .enumerate()
            .map(|(w, (fs, cs))| {
                let first_seq = w as u64 * CALM_WINDOW_CHUNKS;
                let mut base = WindowAccum::start(w as u64, first_seq);
                base.chunks = CALM_WINDOW_CHUNKS;
                for c in cs {
                    base.class_flows[c.index()] += 1;
                }
                let payloads = fs
                    .chunks(CALM_CHUNK)
                    .zip(cs.chunks(CALM_CHUNK))
                    .zip(first_seq..)
                    .map(|((f, c), seq)| WindowDetect::from_chunk(f, c, 7, seq))
                    .collect();
                (base, payloads)
            })
            .collect();
        let commit_pass = |detect: bool| {
            let mut engine = DetectEngine::new(DetectConfig::default());
            let mut buf = Vec::new();
            for (base, payloads) in &windows {
                let mut accum = base.clone();
                if detect {
                    let mut d = WindowDetect::new();
                    for p in payloads {
                        d.merge(p);
                    }
                    accum.detect = Some(d);
                    black_box(engine.observe(&accum).len());
                }
                buf.clear();
                accum.encode_into(&mut buf);
                black_box(buf.len());
            }
        };
        let (with, without) = crate::pipeline::floors::best_alternating(
            5,
            || commit_pass(true),
            || commit_pass(false),
        );
        let tax = with.saturating_sub(without).as_secs_f64() / wall.as_secs_f64();
        assert!(
            tax < 0.05,
            "detection adds {:?} to the serial commit path of a {wall:?} study: \
             {:.2}% (ceiling 5%)",
            with.saturating_sub(without),
            100.0 * tax
        );
    }
}
