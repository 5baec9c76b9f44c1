//! Per-class and per-member accounting of classified traffic.

use crate::provenance::MethodVariant;
use crate::Classifier;
use serde::Serialize;
use spoofwatch_net::{Asn, FlowRecord, InferenceMethod, OrgMode, TrafficClass};
use std::collections::{BTreeMap, HashSet};
use std::ops::AddAssign;

/// Counters for one traffic class.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct ClassCounters {
    /// Flow records.
    pub flows: u64,
    /// Sampled packets.
    pub packets: u64,
    /// Sampled bytes.
    pub bytes: u64,
    /// Distinct contributing members.
    pub members: u64,
}

/// Sums the additive counters. `members` is a distinct count, which
/// does not add, and is left as it is.
impl AddAssign<&ClassCounters> for ClassCounters {
    fn add_assign(&mut self, other: &ClassCounters) {
        self.flows += other.flows;
        self.packets += other.packets;
        self.bytes += other.bytes;
    }
}

/// One row of the paper's Table 1.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// Column label ("Bogon", "Unrouted", "Invalid FULL", …).
    pub label: String,
    /// Contributing members and their share of all members.
    pub members: u64,
    /// Member share (of all members seen in the trace).
    pub members_pct: f64,
    /// Sampled bytes and share of total traffic.
    pub bytes: u64,
    /// Byte share of total traffic.
    pub bytes_pct: f64,
    /// Sampled packets and share of total traffic.
    pub packets: u64,
    /// Packet share of total traffic.
    pub packets_pct: f64,
}

/// The paper's Table 1: contributions to each class, with Invalid under
/// all three inference methods.
#[derive(Debug, Clone, Serialize)]
pub struct Table1 {
    /// Rows in the paper's column order: Bogon, Unrouted, Invalid FULL,
    /// Invalid NAIVE, Invalid CC.
    pub rows: Vec<Table1Row>,
    /// Total members observed sending any traffic.
    pub total_members: u64,
    /// Total sampled bytes in the trace.
    pub total_bytes: u64,
    /// Total sampled packets in the trace.
    pub total_packets: u64,
}

impl Table1 {
    /// Classify the trace under every method (org-adjusted, as the
    /// paper's Table 1 is) and accumulate the five columns.
    pub fn compute(classifier: &Classifier, flows: &[FlowRecord]) -> Table1 {
        Self::compute_with_org(classifier, flows, OrgMode::OrgAdjusted)
    }

    /// Same, with an explicit org mode (for the §4.3 org-impact
    /// comparison).
    pub fn compute_with_org(
        classifier: &Classifier,
        flows: &[FlowRecord],
        org: OrgMode,
    ) -> Table1 {
        let mut total_bytes = 0u64;
        let mut total_packets = 0u64;
        let mut all_members: HashSet<Asn> = HashSet::new();

        #[derive(Default)]
        struct Acc {
            bytes: u64,
            packets: u64,
            members: HashSet<Asn>,
        }
        impl Acc {
            fn add(&mut self, f: &FlowRecord) {
                self.bytes += f.bytes;
                self.packets += f.packets as u64;
                self.members.insert(f.member);
            }
        }
        let mut bogon = Acc::default();
        let mut unrouted = Acc::default();
        let mut invalid: BTreeMap<&'static str, Acc> = BTreeMap::new();
        // Each column's slot in a row of the all-variants kernel pass.
        let methods: [(&'static str, usize); 3] = [
            ("Invalid FULL", MethodVariant::index_of(InferenceMethod::FullCone, org)),
            ("Invalid NAIVE", MethodVariant::index_of(InferenceMethod::Naive, org)),
            ("Invalid CC", MethodVariant::index_of(InferenceMethod::CustomerCone, org)),
        ];

        for (f, classes) in flows.iter().zip(classifier.classify_variants_records_batched(flows)) {
            total_bytes += f.bytes;
            total_packets += f.packets as u64;
            all_members.insert(f.member);
            // Bogon/unrouted are method-independent: every slot agrees.
            match classes[0] {
                TrafficClass::Bogon => bogon.add(f),
                TrafficClass::Unrouted => unrouted.add(f),
                _ => {
                    for (label, slot) in methods {
                        if classes[slot] == TrafficClass::Invalid {
                            invalid.entry(label).or_default().add(f);
                        }
                    }
                }
            }
        }

        let total_members = all_members.len() as u64;
        let row = |label: &str, acc: &Acc| Table1Row {
            label: label.to_owned(),
            members: acc.members.len() as u64,
            members_pct: pct(acc.members.len() as u64, total_members),
            bytes: acc.bytes,
            bytes_pct: pct(acc.bytes, total_bytes),
            packets: acc.packets,
            packets_pct: pct(acc.packets, total_packets),
        };
        let mut rows = vec![row("Bogon", &bogon), row("Unrouted", &unrouted)];
        for (label, _) in methods {
            rows.push(row(label, invalid.get(label).unwrap_or(&Acc::default())));
        }
        Table1 {
            rows,
            total_members,
            total_bytes,
            total_packets,
        }
    }

    /// Fetch a row by label.
    pub fn row(&self, label: &str) -> Option<&Table1Row> {
        self.rows.iter().find(|r| r.label == label)
    }
}

fn pct(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * part as f64 / total as f64
    }
}

/// Per-member, per-class counters under one method — the raw material of
/// Figures 4, 5, 6.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct MemberBreakdown {
    /// Per member: counters indexed by [`TrafficClass::index`].
    pub per_member: BTreeMap<Asn, [ClassCounters; 4]>,
}

impl MemberBreakdown {
    /// Accumulate from precomputed classes (parallel arrays) — the one
    /// loop that tallies records into per-member rows, for a whole
    /// trace or for one chunk on a runner worker. Panics on a
    /// classes/flows length mismatch — intentionally, so a buggy
    /// classify hook gets its chunk quarantined rather than silently
    /// miscounted.
    pub fn from_classes(flows: &[FlowRecord], classes: &[TrafficClass]) -> MemberBreakdown {
        assert_eq!(flows.len(), classes.len(), "classify returned wrong arity");
        let mut per_member: BTreeMap<Asn, [ClassCounters; 4]> = BTreeMap::new();
        for (f, c) in flows.iter().zip(classes) {
            let cc = &mut per_member.entry(f.member).or_default()[c.index()];
            cc.flows += 1;
            cc.packets += f.packets as u64;
            cc.bytes += f.bytes;
        }
        MemberBreakdown { per_member }
    }

    /// Add another tally's rows to this one. Tallies of disjoint
    /// record sets merge to the tally of their union, in any order.
    pub fn merge(&mut self, rows: &BTreeMap<Asn, [ClassCounters; 4]>) {
        for (asn, from) in rows {
            let into = self.per_member.entry(*asn).or_default();
            for (dst, src) in into.iter_mut().zip(from) {
                *dst += src;
            }
        }
    }

    /// Members that contributed at least one packet of the class.
    pub fn members_with(&self, class: TrafficClass) -> HashSet<Asn> {
        self.per_member
            .iter()
            .filter(|(_, rows)| rows[class.index()].packets > 0)
            .map(|(m, _)| *m)
            .collect()
    }

    /// A member's total packets across classes.
    pub fn total_packets(&self, member: Asn) -> u64 {
        self.per_member
            .get(&member)
            .map_or(0, |rows| rows.iter().map(|c| c.packets).sum())
    }

    /// A member's share of `class` packets in its own traffic.
    pub fn class_fraction(&self, member: Asn, class: TrafficClass) -> f64 {
        let total = self.total_packets(member);
        if total == 0 {
            return 0.0;
        }
        let part = self.per_member[&member][class.index()].packets;
        part as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spoofwatch_asgraph::As2Org;
    use spoofwatch_bgp::{Announcement, AsPath};
    use spoofwatch_net::{parse_addr, Proto};

    fn classifier() -> Classifier {
        let anns = vec![
            Announcement::new("20.0.0.0/8".parse().unwrap(), AsPath::from(vec![1])),
            Announcement::new("30.0.0.0/8".parse().unwrap(), AsPath::from(vec![2])),
            Announcement::new("30.0.0.0/8".parse().unwrap(), AsPath::from(vec![1, 2])),
        ];
        Classifier::build(&anns, &As2Org::new())
    }

    fn flow(src: &str, member: u32, packets: u32, pkt_size: u16) -> FlowRecord {
        FlowRecord {
            ts: 0,
            src: parse_addr(src).unwrap(),
            dst: 1,
            proto: Proto::Tcp,
            sport: 1,
            dport: 80,
            packets,
            bytes: packets as u64 * pkt_size as u64,
            pkt_size,
            member: Asn(member),
            ttl: 0,
        }
    }

    #[test]
    fn table1_accounts_everything() {
        let c = classifier();
        let flows = vec![
            flow("10.0.0.1", 1, 2, 40),  // bogon
            flow("99.0.0.1", 1, 3, 40),  // unrouted
            flow("30.0.0.1", 3, 5, 40),  // invalid everywhere (member 3 unknown)
            flow("20.0.0.1", 1, 10, 100), // valid
        ];
        let t = Table1::compute(&c, &flows);
        assert_eq!(t.total_members, 2);
        assert_eq!(t.total_packets, 20);
        assert_eq!(t.row("Bogon").unwrap().packets, 2);
        assert_eq!(t.row("Bogon").unwrap().members, 1);
        assert_eq!(t.row("Unrouted").unwrap().packets, 3);
        assert_eq!(t.row("Invalid FULL").unwrap().packets, 5);
        assert_eq!(t.row("Invalid NAIVE").unwrap().packets, 5);
        assert_eq!(t.row("Invalid CC").unwrap().packets, 5);
        assert!((t.row("Bogon").unwrap().packets_pct - 10.0).abs() < 1e-9);
        assert!((t.row("Bogon").unwrap().members_pct - 50.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_differs_across_methods() {
        let c = classifier();
        // Member 1 is on the path of 30/8 ("1 2"), so Naive accepts;
        // FULL accepts (edge 1→2); CC accepts only if 1 was inferred as
        // 2's provider — with this tiny corpus it is.
        let flows = vec![flow("30.0.0.1", 1, 1, 40)];
        let t = Table1::compute(&c, &flows);
        assert_eq!(t.row("Invalid NAIVE").unwrap().packets, 0);
        assert_eq!(t.row("Invalid FULL").unwrap().packets, 0);
    }

    /// Table 1 over a generated world equals a per-flow tally of the
    /// oracle (`classify_with_tries`), column by column, under both org
    /// modes. The columns differ from each other on this trace, so a
    /// column that reads another variant's slot fails here.
    #[test]
    fn table1_equals_a_per_flow_tally_of_the_oracle() {
        use spoofwatch_internet::{Internet, InternetConfig};
        use spoofwatch_ixp::{Trace, TrafficConfig};
        let net = Internet::generate(InternetConfig::tiny(21));
        let flows = Trace::generate(&net, &TrafficConfig::tiny(22)).flows;
        let c = Classifier::build(&net.announcements, &net.orgs_dataset);
        let columns = [
            ("Bogon", TrafficClass::Bogon, InferenceMethod::FullCone),
            ("Unrouted", TrafficClass::Unrouted, InferenceMethod::FullCone),
            ("Invalid FULL", TrafficClass::Invalid, InferenceMethod::FullCone),
            ("Invalid NAIVE", TrafficClass::Invalid, InferenceMethod::Naive),
            ("Invalid CC", TrafficClass::Invalid, InferenceMethod::CustomerCone),
        ];
        let mut seen = HashSet::new();
        for org in [OrgMode::Plain, OrgMode::OrgAdjusted] {
            let t = Table1::compute_with_org(&c, &flows, org);
            for (label, class, method) in columns {
                let hits: Vec<&FlowRecord> = flows
                    .iter()
                    .filter(|f| c.classify_with_tries(f, method, org) == class)
                    .collect();
                let members: HashSet<Asn> = hits.iter().map(|f| f.member).collect();
                let row = t.row(label).unwrap();
                let want = (
                    members.len() as u64,
                    hits.iter().map(|f| f.bytes).sum::<u64>(),
                    hits.iter().map(|f| f.packets as u64).sum::<u64>(),
                );
                assert_eq!((row.members, row.bytes, row.packets), want, "{label} under {org:?}");
                assert!(row.packets > 0, "{label} under {org:?} is empty");
                seen.insert(row.packets);
            }
        }
        // Bogon, Unrouted and Invalid NAIVE repeat across org modes (the
        // adjustment applies to the cone methods only); the other ten
        // cells are seven distinct tallies.
        assert_eq!(seen.len(), 3 + 4, "columns must differ to pin the slots");
    }

    #[test]
    fn member_breakdown_fractions() {
        let c = classifier();
        let flows = vec![
            flow("10.0.0.1", 7, 1, 40),
            flow("20.0.0.1", 7, 3, 40),
        ];
        let classes = c.classify_trace(&flows, InferenceMethod::FullCone, OrgMode::OrgAdjusted);
        let b = MemberBreakdown::from_classes(&flows, &classes);
        assert_eq!(b.total_packets(Asn(7)), 4);
        assert!((b.class_fraction(Asn(7), TrafficClass::Bogon) - 0.25).abs() < 1e-9);
        assert_eq!(b.members_with(TrafficClass::Bogon).len(), 1);
        assert!(b.members_with(TrafficClass::Unrouted).is_empty());
        assert_eq!(b.class_fraction(Asn(99), TrafficClass::Bogon), 0.0);
    }

    #[test]
    fn merged_chunk_tallies_equal_the_tally_of_the_concatenation() {
        let flows: Vec<FlowRecord> = (0..97u32)
            .map(|i| flow("20.0.0.1", 64496 + i % 5, 1 + i % 9, 40 + (i % 7) as u16))
            .collect();
        let classes: Vec<TrafficClass> = (0..flows.len())
            .map(|i| TrafficClass::ALL[(i * 7 + i / 3) % 4])
            .collect();
        let whole = MemberBreakdown::from_classes(&flows, &classes);
        for chunk in [1, 10, 33, 200] {
            let mut merged = MemberBreakdown::default();
            // Back to front: the merge does not depend on chunk order.
            for (f, c) in flows.chunks(chunk).zip(classes.chunks(chunk)).rev() {
                merged.merge(&MemberBreakdown::from_classes(f, c).per_member);
            }
            assert_eq!(merged, whole, "chunks of {chunk}");
        }
    }

    #[test]
    fn empty_trace_is_zeroes() {
        let c = classifier();
        let t = Table1::compute(&c, &[]);
        assert_eq!(t.total_members, 0);
        for r in &t.rows {
            assert_eq!(r.packets, 0);
            assert_eq!(r.packets_pct, 0.0);
        }
    }
}
