//! Decision provenance and method-disagreement telemetry.
//!
//! The paper's pipeline (Figure 3) is strictly sequential — Bogon, then
//! Unrouted, then the member-specific validity check — so every verdict
//! has exactly one *matched rule*. [`DecisionRecord`] captures that rule
//! compactly: the reserved range a Bogon hit, the /8 bucket a routing
//! miss fell in, or the per-variant verdict vector behind an
//! Invalid/Valid call. Records are built on request
//! ([`crate::Classifier::classify_explain`]), never for every flow, so
//! the explain path runs only for the handful of flows a caller picks.
//!
//! [`DisagreementMatrix`] is the telemetry face of the paper's method
//! sensitivity analysis (§4.3, Table 1): for every unordered pair of
//! the five method variants it counts class transitions over a batch,
//! which is exactly what a reproduction needs to see *where* Naive,
//! Customer Cone, and Full Cone (± org adjustment) part ways.

use serde::Serialize;
use spoofwatch_net::codec::WireReader;
use spoofwatch_net::{fmt_addr, Asn, InferenceMethod, Ipv4Prefix, OrgMode, TrafficClass};
use spoofwatch_obs::MetricsRegistry;
use std::fmt;

/// One of the five valid-space inference variants the classifier
/// precomputes: Naive (org-insensitive) plus Customer Cone and Full
/// Cone, each plain and org-adjusted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MethodVariant {
    /// The inference method.
    pub method: InferenceMethod,
    /// The org-adjustment mode (ignored by Naive).
    pub org: OrgMode,
}

/// The five method variants, in the canonical order every verdict
/// vector, disagreement pair, and label uses.
pub const METHOD_VARIANTS: [MethodVariant; 5] = [
    MethodVariant { method: InferenceMethod::Naive, org: OrgMode::Plain },
    MethodVariant { method: InferenceMethod::CustomerCone, org: OrgMode::Plain },
    MethodVariant { method: InferenceMethod::CustomerCone, org: OrgMode::OrgAdjusted },
    MethodVariant { method: InferenceMethod::FullCone, org: OrgMode::Plain },
    MethodVariant { method: InferenceMethod::FullCone, org: OrgMode::OrgAdjusted },
];

impl MethodVariant {
    /// Stable snake_case label value for metrics and rollups.
    pub fn label(&self) -> &'static str {
        match (self.method, self.org) {
            (InferenceMethod::Naive, _) => "naive",
            (InferenceMethod::CustomerCone, OrgMode::Plain) => "customer_cone",
            (InferenceMethod::CustomerCone, OrgMode::OrgAdjusted) => "customer_cone_org",
            (InferenceMethod::FullCone, OrgMode::Plain) => "full_cone",
            (InferenceMethod::FullCone, OrgMode::OrgAdjusted) => "full_cone_org",
        }
    }

    /// Index into [`METHOD_VARIANTS`] for a method/org pair. Naive maps
    /// to its single slot regardless of `org` (the adjustment applies
    /// to the cone methods only).
    pub fn index_of(method: InferenceMethod, org: OrgMode) -> usize {
        match (method, org) {
            (InferenceMethod::Naive, _) => 0,
            (InferenceMethod::CustomerCone, OrgMode::Plain) => 1,
            (InferenceMethod::CustomerCone, OrgMode::OrgAdjusted) => 2,
            (InferenceMethod::FullCone, OrgMode::Plain) => 3,
            (InferenceMethod::FullCone, OrgMode::OrgAdjusted) => 4,
        }
    }
}

impl fmt::Display for MethodVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-variant validity verdicts for one flow, one bit per
/// [`METHOD_VARIANTS`] slot: bit set ⇔ that variant calls the source
/// valid for the emitting member.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VerdictVector(u8);

impl VerdictVector {
    /// Build from a per-variant boolean array in canonical order.
    pub fn from_verdicts(valid: [bool; 5]) -> VerdictVector {
        let mut bits = 0u8;
        for (i, v) in valid.iter().enumerate() {
            if *v {
                bits |= 1 << i;
            }
        }
        VerdictVector(bits)
    }

    /// Whether variant `i` (index into [`METHOD_VARIANTS`]) says valid.
    pub fn is_valid_under(&self, i: usize) -> bool {
        i < 5 && self.0 & (1 << i) != 0
    }

    /// How many of the five variants say valid.
    pub fn valid_count(&self) -> u32 {
        (self.0 & 0x1f).count_ones()
    }

    /// Whether all five variants agree (all valid or all invalid).
    pub fn unanimous(&self) -> bool {
        let v = self.0 & 0x1f;
        v == 0 || v == 0x1f
    }

    /// The raw bitmask (low five bits), for compact serialization.
    pub fn bits(&self) -> u8 {
        self.0 & 0x1f
    }

    /// Rebuild from a serialized bitmask.
    pub fn from_bits(bits: u8) -> VerdictVector {
        VerdictVector(bits & 0x1f)
    }
}

impl fmt::Display for VerdictVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, v) in METHOD_VARIANTS.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(
                f,
                "{}={}",
                v.label(),
                if self.is_valid_under(i) { "valid" } else { "invalid" }
            )?;
        }
        Ok(())
    }
}

/// Which sequential rule of the paper's Figure 3 pipeline matched, with
/// the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchedRule {
    /// The source fell in a reserved range; `range` is the most
    /// specific bogon prefix that matched (the attribution bucket
    /// "Martians"-style analyses need).
    Bogon {
        /// The matched reserved prefix.
        range: Ipv4Prefix,
    },
    /// The longest-prefix match over the routed table missed entirely;
    /// `bucket` is the /8 the unrouted source falls in.
    Unrouted {
        /// The /8 aggregate containing the missed address.
        bucket: Ipv4Prefix,
    },
    /// Routed but outside the member's valid space under the variant
    /// that produced this record.
    Invalid {
        /// The longest routed prefix covering the source.
        prefix: Ipv4Prefix,
        /// Validity under every variant — the method-sensitivity
        /// evidence for this flow.
        verdicts: VerdictVector,
    },
    /// Routed and inside the member's valid space.
    Valid {
        /// The longest routed prefix covering the source.
        prefix: Ipv4Prefix,
        /// Validity under every variant.
        verdicts: VerdictVector,
    },
}

/// Compact provenance for one classification decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionRecord {
    /// The flow's source address.
    pub src: u32,
    /// The emitting IXP member.
    pub member: Asn,
    /// The variant the decision was made under.
    pub variant: MethodVariant,
    /// The resulting class.
    pub class: TrafficClass,
    /// The rule that fired, with its evidence.
    pub rule: MatchedRule,
}

impl fmt::Display for DecisionRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} via AS{} [{}] -> {}: ",
            fmt_addr(self.src),
            self.member.0,
            self.variant.label(),
            self.class
        )?;
        match &self.rule {
            MatchedRule::Bogon { range } => write!(f, "matched reserved range {range}"),
            MatchedRule::Unrouted { bucket } => {
                write!(f, "no covering route (bucket {bucket})")
            }
            MatchedRule::Invalid { prefix, verdicts } => {
                write!(f, "routed under {prefix}, outside valid space ({verdicts})")
            }
            MatchedRule::Valid { prefix, verdicts } => {
                write!(f, "routed under {prefix}, inside valid space ({verdicts})")
            }
        }
    }
}

/// Number of unordered variant pairs: C(5, 2).
pub const VARIANT_PAIRS: usize = 10;

/// Class-transition counts between one pair of method variants.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PairMatrix {
    /// Index of the first variant (into [`METHOD_VARIANTS`]), `a < b`.
    pub a: usize,
    /// Index of the second variant.
    pub b: usize,
    /// `transitions[ca.index()][cb.index()]` = flows classed `ca` under
    /// variant `a` and `cb` under variant `b`.
    pub transitions: [[u64; 4]; 4],
}

impl PairMatrix {
    /// Flows where the two variants disagree (off-diagonal sum).
    pub fn disagreements(&self) -> u64 {
        let mut n = 0;
        for (i, row) in self.transitions.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                if i != j {
                    n += v;
                }
            }
        }
        n
    }

    /// Flows counted in this pair (every cell).
    pub fn total(&self) -> u64 {
        self.transitions.iter().flatten().sum()
    }
}

/// Per-batch method-disagreement matrix: one [`PairMatrix`] for every
/// unordered pair of the five variants. Mergeable across batches and
/// windows; serializable into rollups and checkpoints.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct DisagreementMatrix {
    /// Flows recorded into the matrix.
    pub flows: u64,
    /// The ten pairs, in lexicographic `(a, b)` order with `a < b`.
    pub pairs: Vec<PairMatrix>,
}

impl Default for DisagreementMatrix {
    fn default() -> Self {
        DisagreementMatrix::new()
    }
}

impl DisagreementMatrix {
    /// An empty matrix with all ten pairs zeroed.
    pub fn new() -> DisagreementMatrix {
        let mut pairs = Vec::with_capacity(VARIANT_PAIRS);
        for a in 0..METHOD_VARIANTS.len() {
            for b in (a + 1)..METHOD_VARIANTS.len() {
                pairs.push(PairMatrix {
                    a,
                    b,
                    transitions: [[0; 4]; 4],
                });
            }
        }
        DisagreementMatrix { flows: 0, pairs }
    }

    /// Record one flow's class under every variant (canonical order).
    pub fn record(&mut self, classes: &[TrafficClass; 5]) {
        self.flows += 1;
        for p in &mut self.pairs {
            p.transitions[classes[p.a].index()][classes[p.b].index()] += 1;
        }
    }

    /// Fold another matrix (e.g. one chunk's) into this one.
    pub fn merge(&mut self, other: &DisagreementMatrix) {
        self.flows += other.flows;
        for (into, from) in self.pairs.iter_mut().zip(&other.pairs) {
            debug_assert_eq!((into.a, into.b), (from.a, from.b));
            for (ri, rf) in into.transitions.iter_mut().zip(&from.transitions) {
                for (vi, vf) in ri.iter_mut().zip(rf) {
                    *vi += vf;
                }
            }
        }
    }

    /// The pair matrix for two variant indices, order-insensitive.
    pub fn pair(&self, a: usize, b: usize) -> Option<&PairMatrix> {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.pairs.iter().find(|p| p.a == a && p.b == b)
    }

    /// Disagreements between the plain and org-adjusted forms of a cone
    /// method — the paper's org-adjustment delta. Zero for Naive, which
    /// has no org-adjusted form.
    pub fn org_delta(&self, method: InferenceMethod) -> u64 {
        let (a, b) = match method {
            InferenceMethod::Naive => return 0,
            InferenceMethod::CustomerCone => (1, 2),
            InferenceMethod::FullCone => (3, 4),
        };
        self.pair(a, b).map(PairMatrix::disagreements).unwrap_or(0)
    }

    /// Every pair sums to exactly `flows` — the cells tile the batch.
    pub fn reconciles(&self) -> bool {
        self.pairs.iter().all(|p| p.total() == self.flows)
    }

    /// Export every nonzero cell as
    /// `spoofwatch_method_disagreement_total{a,b,from,to}` counters,
    /// plus the org-adjustment deltas as
    /// `spoofwatch_org_adjustment_delta_total{method}`. No-op on a
    /// disabled registry.
    pub fn export(&self, reg: &MetricsRegistry) {
        if !reg.is_enabled() {
            return;
        }
        for p in &self.pairs {
            let (la, lb) = (METHOD_VARIANTS[p.a].label(), METHOD_VARIANTS[p.b].label());
            for (i, row) in p.transitions.iter().enumerate() {
                for (j, &n) in row.iter().enumerate() {
                    if n == 0 {
                        continue;
                    }
                    reg.counter(
                        "spoofwatch_method_disagreement_total",
                        "Class transitions between pairs of valid-space method variants; \
                         each (a, b) pair's cells sum to the flows compared",
                        &[
                            ("a", la),
                            ("b", lb),
                            ("from", crate::runner::obs_class_label(TrafficClass::ALL[i])),
                            ("to", crate::runner::obs_class_label(TrafficClass::ALL[j])),
                        ],
                    )
                    .add(n);
                }
            }
        }
        for method in [InferenceMethod::CustomerCone, InferenceMethod::FullCone] {
            let delta = self.org_delta(method);
            if delta > 0 {
                let label = match method {
                    InferenceMethod::CustomerCone => "customer_cone",
                    _ => "full_cone",
                };
                reg.counter(
                    "spoofwatch_org_adjustment_delta_total",
                    "Flows whose class changes when the org adjustment is applied, per cone method",
                    &[("method", label)],
                )
                .add(delta);
            }
        }
    }

    /// Serialize into `out` (flows, pair count, then each pair's
    /// indices and 16 cells, all big-endian).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.flows.to_be_bytes());
        out.push(self.pairs.len() as u8);
        for p in &self.pairs {
            out.push(p.a as u8);
            out.push(p.b as u8);
            for row in &p.transitions {
                for v in row {
                    out.extend_from_slice(&v.to_be_bytes());
                }
            }
        }
    }

    /// Decode at the cursor, advancing it. `None` on truncated or
    /// structurally invalid input.
    pub fn decode_from(r: &mut WireReader<'_>) -> Option<DisagreementMatrix> {
        let flows = r.u64()?;
        let n = r.u8()? as usize;
        if n != VARIANT_PAIRS {
            return None;
        }
        let mut pairs = Vec::with_capacity(n);
        for _ in 0..n {
            let a = r.u8()? as usize;
            let b = r.u8()? as usize;
            if a >= METHOD_VARIANTS.len() || b >= METHOD_VARIANTS.len() || a >= b {
                return None;
            }
            let mut transitions = [[0u64; 4]; 4];
            for row in &mut transitions {
                for v in row.iter_mut() {
                    *v = r.u64()?;
                }
            }
            pairs.push(PairMatrix { a, b, transitions });
        }
        Some(DisagreementMatrix { flows, pairs })
    }

    /// Render as a per-pair summary table (one line per pair).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for p in &self.pairs {
            let d = p.disagreements();
            let pct = if self.flows > 0 {
                100.0 * d as f64 / self.flows as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "- {} vs {}: {d} of {} flows disagree ({pct:.2}%)\n",
                METHOD_VARIANTS[p.a].label(),
                METHOD_VARIANTS[p.b].label(),
                self.flows,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_indexing_is_canonical() {
        for (i, v) in METHOD_VARIANTS.iter().enumerate() {
            assert_eq!(MethodVariant::index_of(v.method, v.org), i);
        }
        // Naive collapses both org modes onto its single slot.
        assert_eq!(
            MethodVariant::index_of(InferenceMethod::Naive, OrgMode::OrgAdjusted),
            0
        );
        let labels: Vec<_> = METHOD_VARIANTS.iter().map(|v| v.label()).collect();
        let mut dedup = labels.clone();
        dedup.dedup();
        assert_eq!(labels, dedup, "labels are distinct");
    }

    #[test]
    fn verdict_vector_roundtrips() {
        let v = VerdictVector::from_verdicts([true, false, true, false, true]);
        assert!(v.is_valid_under(0));
        assert!(!v.is_valid_under(1));
        assert_eq!(v.valid_count(), 3);
        assert!(!v.unanimous());
        assert_eq!(VerdictVector::from_bits(v.bits()), v);
        assert!(VerdictVector::from_verdicts([true; 5]).unanimous());
        assert!(VerdictVector::from_verdicts([false; 5]).unanimous());
        assert!(!v.is_valid_under(9), "out-of-range index is invalid");
    }

    #[test]
    fn matrix_records_and_reconciles() {
        let mut m = DisagreementMatrix::new();
        assert_eq!(m.pairs.len(), VARIANT_PAIRS);
        // Variant 0 says Valid, everything else Invalid.
        m.record(&[
            TrafficClass::Valid,
            TrafficClass::Invalid,
            TrafficClass::Invalid,
            TrafficClass::Invalid,
            TrafficClass::Invalid,
        ]);
        // All agree.
        m.record(&[TrafficClass::Valid; 5]);
        assert_eq!(m.flows, 2);
        assert!(m.reconciles());
        let p = m.pair(0, 1).unwrap();
        assert_eq!(p.disagreements(), 1);
        assert_eq!(p.total(), 2);
        // Pair lookup is order-insensitive.
        assert_eq!(m.pair(1, 0).unwrap().a, 0);
        // Pairs not involving variant 0 fully agree.
        assert_eq!(m.pair(1, 2).unwrap().disagreements(), 0);
    }

    #[test]
    fn org_delta_reads_the_right_pairs() {
        let mut m = DisagreementMatrix::new();
        // CC plain valid, CC org invalid; Full agrees with itself.
        m.record(&[
            TrafficClass::Valid,
            TrafficClass::Valid,
            TrafficClass::Invalid,
            TrafficClass::Valid,
            TrafficClass::Valid,
        ]);
        assert_eq!(m.org_delta(InferenceMethod::CustomerCone), 1);
        assert_eq!(m.org_delta(InferenceMethod::FullCone), 0);
        assert_eq!(m.org_delta(InferenceMethod::Naive), 0);
    }

    #[test]
    fn matrix_merge_and_codec_roundtrip() {
        let mut a = DisagreementMatrix::new();
        a.record(&[TrafficClass::Bogon; 5]);
        let mut b = DisagreementMatrix::new();
        b.record(&[
            TrafficClass::Valid,
            TrafficClass::Invalid,
            TrafficClass::Valid,
            TrafficClass::Invalid,
            TrafficClass::Valid,
        ]);
        a.merge(&b);
        assert_eq!(a.flows, 2);
        assert!(a.reconciles());
        let mut buf = Vec::new();
        a.encode_into(&mut buf);
        let mut r = WireReader::new(&buf);
        let back = DisagreementMatrix::decode_from(&mut r).expect("decode");
        assert!(r.done());
        assert_eq!(back, a);
        // Truncations never panic and never decode.
        for cut in 0..buf.len() {
            assert!(DisagreementMatrix::decode_from(&mut WireReader::new(&buf[..cut])).is_none());
        }
    }

    #[test]
    fn matrix_exports_nonzero_cells_and_deltas() {
        let reg = MetricsRegistry::new();
        let mut m = DisagreementMatrix::new();
        m.record(&[
            TrafficClass::Valid,
            TrafficClass::Valid,
            TrafficClass::Valid,
            TrafficClass::Valid,
            TrafficClass::Invalid, // full_cone_org flips this flow
        ]);
        m.export(&reg);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter(
                "spoofwatch_method_disagreement_total",
                &[("a", "naive"), ("b", "full_cone_org"), ("from", "valid"), ("to", "invalid")],
            ),
            Some(1)
        );
        assert_eq!(
            snap.counter("spoofwatch_org_adjustment_delta_total", &[("method", "full_cone")]),
            Some(1)
        );
        assert_eq!(
            snap.counter("spoofwatch_org_adjustment_delta_total", &[("method", "customer_cone")]),
            None,
            "zero deltas are not exported"
        );
        // The per-pair cell sum equals the recorded flow count.
        let total: u64 = snap.counter_sum("spoofwatch_method_disagreement_total");
        assert_eq!(total, VARIANT_PAIRS as u64 * m.flows);
    }

    #[test]
    fn decision_record_renders_every_rule() {
        let base = DecisionRecord {
            src: 0x0a01_0203,
            member: Asn(7),
            variant: METHOD_VARIANTS[4],
            class: TrafficClass::Bogon,
            rule: MatchedRule::Bogon {
                range: Ipv4Prefix::new_truncating(0x0a00_0000, 8),
            },
        };
        let s = base.to_string();
        assert!(s.contains("10.1.2.3"), "{s}");
        assert!(s.contains("AS7"), "{s}");
        assert!(s.contains("10.0.0.0/8"), "{s}");
        let unrouted = DecisionRecord {
            class: TrafficClass::Unrouted,
            rule: MatchedRule::Unrouted {
                bucket: Ipv4Prefix::new_truncating(0x0a00_0000, 8),
            },
            ..base
        };
        assert!(unrouted.to_string().contains("no covering route"));
        let invalid = DecisionRecord {
            class: TrafficClass::Invalid,
            rule: MatchedRule::Invalid {
                prefix: Ipv4Prefix::new_truncating(0x0a00_0000, 8),
                verdicts: VerdictVector::from_verdicts([false, false, false, true, true]),
            },
            ..base
        };
        let s = invalid.to_string();
        assert!(s.contains("outside valid space"), "{s}");
        assert!(s.contains("full_cone=valid"), "{s}");
    }
}
