//! The §4.4 false-positive hunt.
//!
//! Even the most conservative method (Full Cone, org-adjusted) tags some
//! legitimate traffic Invalid, because the AS graph visible in BGP is
//! incomplete. The paper investigates the members with the highest
//! Invalid *shares* and mines out-of-band sources — WHOIS organization
//! records, import/export policies, looking glasses, and route objects —
//! for the missing relationships, then accepts the matched traffic as
//! valid. Doing so removed 59.9% of Invalid bytes (40% of packets) at
//! their vantage point.

use crate::Classifier;
use serde::Serialize;
use spoofwatch_internet::whois::WhoisRegistry;
use spoofwatch_net::{Asn, FlowRecord, Ipv4Prefix, TrafficClass};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Hunt parameters.
#[derive(Debug, Clone)]
pub struct HuntConfig {
    /// How many top members (by Invalid share of their traffic) to
    /// investigate — the paper examines the top 40.
    pub top_n: usize,
    /// A single foreign origin must account for at least this share of
    /// a member's Invalid packets to be flagged as a tunnel/uncommon
    /// setup when no registry evidence exists.
    pub tunnel_dominance: f64,
}

impl Default for HuntConfig {
    fn default() -> Self {
        HuntConfig {
            top_n: 40,
            tunnel_dominance: 0.8,
        }
    }
}

/// What the hunt found and what accepting it does to Invalid.
#[derive(Debug, Clone, Default, Serialize)]
pub struct HuntFindings {
    /// Missing org links found via WHOIS name/contact matching.
    pub whois_org_links: Vec<(Asn, Asn)>,
    /// Direct relationships revealed by published import/export ACLs.
    pub acl_links: Vec<(Asn, Asn)>,
    /// Relationships confirmed via looking-glass data.
    pub looking_glass_links: Vec<(Asn, Asn)>,
    /// Provider-assigned space: route objects naming a holder the
    /// member legitimately carries — `(member, registered prefix)`.
    pub route_object_exceptions: Vec<(Asn, Ipv4Prefix)>,
    /// Uncommon setups accepted without registry evidence (tunnels):
    /// `(member, dominant foreign origin)`.
    pub tunnel_suspects: Vec<(Asn, Asn)>,
    /// Invalid (bytes, packets) before accepting the findings.
    pub before: (u64, u64),
    /// Invalid (bytes, packets) after accepting the findings.
    pub after: (u64, u64),
}

impl HuntFindings {
    /// Fraction of Invalid bytes removed by the hunt.
    pub fn bytes_reduction(&self) -> f64 {
        reduction(self.before.0, self.after.0)
    }

    /// Fraction of Invalid packets removed by the hunt.
    pub fn packets_reduction(&self) -> f64 {
        reduction(self.before.1, self.after.1)
    }

    /// Total number of missing AS links identified (paper: 15 via WHOIS
    /// + 1 via looking glass).
    pub fn num_links(&self) -> usize {
        self.whois_org_links.len() + self.acl_links.len() + self.looking_glass_links.len()
    }
}

fn reduction(before: u64, after: u64) -> f64 {
    if before == 0 {
        0.0
    } else {
        1.0 - after as f64 / before as f64
    }
}

/// Run the hunt over a classified trace and compute the corrected
/// classification.
///
/// Returns the findings and the corrected class array (matched Invalid
/// flows become Valid, everything else is untouched).
pub fn hunt(
    classifier: &Classifier,
    flows: &[FlowRecord],
    classes: &[TrafficClass],
    whois: &WhoisRegistry,
    looking_glass: &[(Asn, Asn)],
    cfg: &HuntConfig,
) -> (HuntFindings, Vec<TrafficClass>) {
    assert_eq!(flows.len(), classes.len());
    let mut findings = HuntFindings::default();

    // ---- Rank members by Invalid share of their own traffic. -----------
    let mut member_pkts: BTreeMap<Asn, (u64, u64)> = BTreeMap::new(); // (invalid, total)
    for (f, c) in flows.iter().zip(classes) {
        let e = member_pkts.entry(f.member).or_default();
        e.1 += f.packets as u64;
        if *c == TrafficClass::Invalid {
            e.0 += f.packets as u64;
            findings.before.0 += f.bytes;
            findings.before.1 += f.packets as u64;
        }
    }
    let mut ranked: Vec<(Asn, f64)> = member_pkts
        .iter()
        .filter(|(_, (inv, _))| *inv > 0)
        .map(|(m, (inv, tot))| (*m, *inv as f64 / (*tot).max(1) as f64))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let suspects: Vec<Asn> = ranked.iter().take(cfg.top_n).map(|(m, _)| *m).collect();
    let suspect_set: HashSet<Asn> = suspects.iter().copied().collect();

    // ---- Per-suspect origin statistics of Invalid traffic. -------------
    let mut origin_pkts: HashMap<Asn, BTreeMap<Asn, u64>> = HashMap::new();
    let mut origin_bytes: HashMap<(Asn, Asn), u64> = HashMap::new();
    let mut route_obj_hits: HashMap<Asn, HashSet<Ipv4Prefix>> = HashMap::new();
    for (f, c) in flows.iter().zip(classes) {
        if *c != TrafficClass::Invalid || !suspect_set.contains(&f.member) {
            continue;
        }
        if let Some((_, info)) = classifier.table().lookup(f.src) {
            if let Some(o) = info.origins.first() {
                *origin_pkts
                    .entry(f.member)
                    .or_default()
                    .entry(*o)
                    .or_default() += f.packets as u64;
                *origin_bytes.entry((f.member, *o)).or_default() += f.bytes;
            }
        }
        // Route objects are indexed by the concrete source address.
        if let Some(obj) = whois.route_object_for(f.src) {
            let carried = obj.holder == f.member
                || classifier
                    .cones(
                        spoofwatch_net::InferenceMethod::FullCone,
                        spoofwatch_net::OrgMode::OrgAdjusted,
                    )
                    .is_some_and(|c| c.is_valid_source(f.member, obj.holder));
            if carried {
                route_obj_hits.entry(f.member).or_default().insert(obj.prefix);
            }
        }
    }

    // ---- Evidence per (member, origin). ---------------------------------
    let lg: HashSet<(Asn, Asn)> = looking_glass
        .iter()
        .flat_map(|&(a, b)| [(a, b), (b, a)])
        .collect();
    let mut accepted: HashSet<(Asn, Asn)> = HashSet::new();
    for &member in &suspects {
        let Some(origins) = origin_pkts.get(&member) else { continue };
        let member_invalid: u64 = origins.values().sum();
        for (&origin, &pkts) in origins {
            if accepted.contains(&(member, origin)) {
                continue;
            }
            if whois.reveals_same_org(member, origin) {
                findings.whois_org_links.push((member, origin));
                accepted.insert((member, origin));
            } else if whois.reveals_relationship(member, origin) {
                findings.acl_links.push((member, origin));
                accepted.insert((member, origin));
            } else if lg.contains(&(member, origin)) {
                findings.looking_glass_links.push((member, origin));
                accepted.insert((member, origin));
            } else if member_invalid > 0
                && pkts as f64 / member_invalid as f64 >= cfg.tunnel_dominance
                && origin_bytes
                    .get(&(member, origin))
                    .is_some_and(|b| *b >= pkts * 150)
            {
                // No registry evidence, but one foreign origin dominates
                // *and* the traffic is data-carrying (≥150 B/pkt mean) —
                // the paper's tunnel / uncommon-traffic-engineering
                // case. The size floor keeps attack traffic (tiny
                // trigger/SYN packets) from being excused as a tunnel.
                findings.tunnel_suspects.push((member, origin));
                accepted.insert((member, origin));
            }
        }
    }
    for (member, prefixes) in route_obj_hits {
        for p in prefixes {
            findings.route_object_exceptions.push((member, p));
        }
    }
    findings.route_object_exceptions.sort_unstable();

    // ---- Apply: matched Invalid becomes Valid. --------------------------
    let route_ok: HashSet<(Asn, Ipv4Prefix)> =
        findings.route_object_exceptions.iter().copied().collect();
    let mut corrected = classes.to_vec();
    for ((f, c), out) in flows.iter().zip(classes).zip(corrected.iter_mut()) {
        if *c != TrafficClass::Invalid {
            continue;
        }
        let mut ok = false;
        if let Some((_, info)) = classifier.table().lookup(f.src) {
            ok = info
                .origins
                .iter()
                .any(|o| accepted.contains(&(f.member, *o)));
        }
        if !ok {
            if let Some(obj) = whois.route_object_for(f.src) {
                ok = route_ok.contains(&(f.member, obj.prefix));
            }
        }
        if ok {
            *out = TrafficClass::Valid;
        } else {
            findings.after.0 += f.bytes;
            findings.after.1 += f.packets as u64;
        }
    }
    (findings, corrected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spoofwatch_asgraph::As2Org;
    use spoofwatch_bgp::{Announcement, AsPath};
    use spoofwatch_internet::whois::{OrgRecord, PolicyEntry, RouteObject};
    use spoofwatch_net::{parse_addr, Proto};

    fn ann(prefix: &str, path: &[u32]) -> Announcement {
        Announcement::new(prefix.parse().unwrap(), AsPath::from(path.to_vec()))
    }

    fn flow(src: &str, member: u32, packets: u32) -> FlowRecord {
        FlowRecord {
            ts: 0,
            src: parse_addr(src).unwrap(),
            dst: 1,
            proto: Proto::Tcp,
            sport: 1,
            dport: 443,
            packets,
            bytes: packets as u64 * 1000,
            pkt_size: 1000,
            member: Asn(member),
            ttl: 0,
        }
    }

    fn org(id: u32, name: &str) -> OrgRecord {
        OrgRecord {
            org: id,
            name: name.into(),
            contact: format!("noc@{id}.example"),
        }
    }

    /// Origins 2 and 3 announce space; members 5, 6, 7 source it
    /// illegitimately for different reasons.
    fn setup() -> (Classifier, WhoisRegistry, Vec<FlowRecord>) {
        let anns = vec![
            ann("20.0.0.0/8", &[2]),
            ann("30.0.0.0/8", &[3]),
            ann("40.0.0.0/8", &[5]),
            ann("41.0.0.0/8", &[6]),
            ann("42.0.0.0/8", &[7]),
        ];
        let classifier = Classifier::build(&anns, &As2Org::new());
        let mut whois = WhoisRegistry::new();
        // Member 5 and origin 2 are secretly the same organization.
        whois.add_org(Asn(5), org(100, "Hidden Twins"));
        whois.add_org(Asn(2), org(101, "Hidden Twins"));
        whois.add_org(Asn(6), org(102, "Member Six"));
        whois.add_org(Asn(3), org(103, "Origin Three"));
        whois.add_org(Asn(7), org(104, "Member Seven"));
        // Member 6 and origin 3 publish matching policies.
        whois.add_policy(
            Asn(6),
            PolicyEntry {
                imports_from: vec![Asn(3)],
                exports_to: vec![Asn(3)],
            },
        );
        whois.add_policy(
            Asn(3),
            PolicyEntry {
                imports_from: vec![Asn(6)],
                exports_to: vec![Asn(6)],
            },
        );
        let flows = vec![
            flow("20.0.0.1", 5, 10), // hidden org
            flow("30.0.0.1", 6, 10), // ACL-revealed
            flow("30.0.0.1", 7, 10), // tunnel (no evidence, dominant)
            flow("40.0.0.1", 5, 30), // member 5's own valid traffic
        ];
        (classifier, whois, flows)
    }

    #[test]
    fn finds_links_and_reduces_invalid() {
        let (classifier, whois, flows) = setup();
        let classes = classifier.classify_trace(
            &flows,
            spoofwatch_net::InferenceMethod::FullCone,
            spoofwatch_net::OrgMode::OrgAdjusted,
        );
        assert_eq!(
            classes
                .iter()
                .filter(|c| **c == TrafficClass::Invalid)
                .count(),
            3
        );
        let (findings, corrected) = hunt(
            &classifier,
            &flows,
            &classes,
            &whois,
            &[],
            &HuntConfig::default(),
        );
        assert_eq!(findings.whois_org_links, vec![(Asn(5), Asn(2))]);
        assert_eq!(findings.acl_links, vec![(Asn(6), Asn(3))]);
        assert_eq!(findings.tunnel_suspects, vec![(Asn(7), Asn(3))]);
        assert_eq!(findings.num_links(), 2);
        // All three Invalid flows were explained.
        assert!(corrected.iter().all(|c| *c != TrafficClass::Invalid));
        assert_eq!(findings.before.1, 30);
        assert_eq!(findings.after.1, 0);
        assert!((findings.packets_reduction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn route_objects_explain_provider_assigned_space() {
        let anns = vec![
            ann("20.0.0.0/8", &[2]),    // provider's covering prefix
            ann("50.0.0.0/8", &[9]),    // member 9's own space
        ];
        let classifier = Classifier::build(&anns, &As2Org::new());
        let mut whois = WhoisRegistry::new();
        // 20.5.5.0/24 is registered to AS 9 (provider-assigned).
        whois.add_route_object(RouteObject {
            prefix: "20.5.5.0/24".parse().unwrap(),
            holder: Asn(9),
        });
        let flows = vec![flow("20.5.5.1", 9, 10)];
        let classes = classifier.classify_trace(
            &flows,
            spoofwatch_net::InferenceMethod::FullCone,
            spoofwatch_net::OrgMode::OrgAdjusted,
        );
        assert_eq!(classes[0], TrafficClass::Invalid);
        let (findings, corrected) = hunt(
            &classifier,
            &flows,
            &classes,
            &whois,
            &[],
            &HuntConfig {
                tunnel_dominance: 2.0, // disable the tunnel heuristic
                ..HuntConfig::default()
            },
        );
        assert_eq!(
            findings.route_object_exceptions,
            vec![(Asn(9), "20.5.5.0/24".parse().unwrap())]
        );
        assert_eq!(corrected[0], TrafficClass::Valid);
    }

    #[test]
    fn looking_glass_links_accepted() {
        let (classifier, _, flows) = setup();
        let whois = WhoisRegistry::new(); // no registry evidence at all
        let classes = classifier.classify_trace(
            &flows,
            spoofwatch_net::InferenceMethod::FullCone,
            spoofwatch_net::OrgMode::OrgAdjusted,
        );
        let (findings, corrected) = hunt(
            &classifier,
            &flows,
            &classes,
            &whois,
            &[(Asn(2), Asn(5))], // either orientation must match
            &HuntConfig {
                tunnel_dominance: 2.0,
                ..HuntConfig::default()
            },
        );
        assert_eq!(findings.looking_glass_links, vec![(Asn(5), Asn(2))]);
        // Only the looking-glass pair got corrected.
        assert_eq!(
            corrected
                .iter()
                .filter(|c| **c == TrafficClass::Invalid)
                .count(),
            2
        );
        assert!(findings.packets_reduction() > 0.0);
        assert!(findings.bytes_reduction() > 0.0);
    }
}
