//! One function per paper table/figure; [`ALL`] lists them in report
//! order, and the `repro_all` binary runs that list.

use crate::{Comparison, Scenario};
use spoofwatch_analysis as analysis;
use spoofwatch_core::fphunt::{hunt, HuntConfig};
use spoofwatch_core::stray::StrayReport;
use spoofwatch_core::{MemberBreakdown, Table1};
use spoofwatch_internet::traceroute;
use spoofwatch_net::flow::ports;
use spoofwatch_net::{OrgMode, TrafficClass};
use spoofwatch_spoofer::{crosscheck, SpooferCampaign};
use std::collections::HashSet;

/// One experiment: the comparisons it makes over a scenario.
pub type Experiment = fn(&Scenario) -> Vec<Comparison>;

/// Every experiment, by the section name `repro_all` prints, in order.
pub const ALL: [(&str, Experiment); 16] = [
    ("fig1a", fig1a),
    ("fig2", fig2),
    ("table1", table1),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fphunt", fphunt),
    ("spoofer", spoofer),
    ("survey", survey),
    ("evaluation", evaluation),
    ("ablation", ablation),
];

fn pct(x: f64) -> String {
    analysis::render::pct(x)
}

/// Figure 1a: IPv4 address-space category shares.
pub fn fig1a(s: &Scenario) -> Vec<Comparison> {
    let mut routed = spoofwatch_trie::PrefixSet::new();
    for a in s.net.topology.ases() {
        for p in &a.prefixes {
            routed.insert(*p);
        }
    }
    let sum = spoofwatch_internet::addressing::summarize(&routed);
    println!(
        "Figure 1a — bogon {:.1}% / routed {:.1}% / unrouted {:.1}% (routed {:.2}M /24s)",
        100.0 * sum.bogon_frac,
        100.0 * sum.routed_frac,
        100.0 * sum.unrouted_frac,
        sum.routed_slash24 / 1e6,
    );
    vec![
        Comparison::new("F1a", "bogon share", "13.8%", pct(100.0 * sum.bogon_frac),
            (sum.bogon_frac - 0.138).abs() < 0.01),
        Comparison::new("F1a", "routed share", "68.1%", pct(100.0 * sum.routed_frac),
            (sum.routed_frac - 0.681).abs() < 0.05),
        Comparison::new("F1a", "unrouted share", "18.1%", pct(100.0 * sum.unrouted_frac),
            (sum.unrouted_frac - 0.181).abs() < 0.05),
    ]
}

/// Figure 2: per-AS valid space under the five variants.
pub fn fig2(s: &Scenario) -> Vec<Comparison> {
    let fig = analysis::fig2::Fig2::compute(&s.classifier);
    println!("{}", fig.render());
    let full_org = fig.curve("Full Cone (multi-AS orgs)");
    let naive = fig.curve("Naive");
    let n = full_org.sizes.len();
    let covering = full_org.ases_covering(fig.routed_slash24, 0.999);
    // Paper shape: Full ≥ CC and Full ≥ Naive at every quantile; a
    // sizeable fraction of ASes is valid for (almost) everything under
    // the Full Cone; curves agree on the small stubs.
    // Naive ⊆ FULL is structural (an on-path AS reaches the origin in
    // the path graph); CC ⊆ FULL held empirically in the paper but the
    // *inferred* customer cone can occasionally exceed the observed path
    // graph, so a small violation quota is allowed.
    let naive_dominated = (0..=20).all(|i| {
        let q = i as f64 / 20.0;
        full_org.quantile(q) >= naive.quantile(q) - 1e-9
    });
    // AS-level CC ⊆ FULL: held exactly in the paper's data; with an
    // *inferred* customer cone a small violation share is expected.
    let full_cones = s.classifier
        .cones(spoofwatch_net::InferenceMethod::FullCone, OrgMode::OrgAdjusted)
        .expect("precomputed");
    let cc_cones = s.classifier
        .cones(spoofwatch_net::InferenceMethod::CustomerCone, OrgMode::OrgAdjusted)
        .expect("precomputed");
    let ases: Vec<_> = s.classifier.table().ases().collect();
    let contained = ases
        .iter()
        .filter(|a| cc_cones.valid_units(**a) <= full_cones.valid_units(**a))
        .count();
    let cc_containment = contained as f64 / ases.len().max(1) as f64;
    println!("CC ⊆ FULL holds for {:.1}% of ASes", 100.0 * cc_containment);
    let dominance = naive_dominated && cc_containment > 0.7;
    let stub_agree = (naive.quantile(0.02) - full_org.quantile(0.02)).abs()
        <= naive.quantile(0.02).max(1.0);
    vec![
        Comparison::new("F2", "FULL dominates CC and Naive at all quantiles", "containment holds",
            format!("{dominance}"), dominance),
        Comparison::new("F2", "ASes valid for entire routed space (FULL+orgs)",
            "~5K of 57K (8.8%)",
            format!("{covering} of {n} ({:.1}%)", 100.0 * covering as f64 / n as f64),
            covering > 0),
        Comparison::new("F2", "approaches agree on smallest stubs", "≈12K smallest agree",
            format!("{stub_agree}"), stub_agree),
    ]
}

/// Table 1 plus the §4.3 multi-AS-org impact numbers.
pub fn table1(s: &Scenario) -> Vec<Comparison> {
    let t = Table1::compute(&s.classifier, &s.trace.flows);
    let rows: Vec<Vec<String>> = t
        .rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("{} ({})", r.members, pct(r.members_pct)),
                format!("{} ({})", analysis::render::si(r.bytes as f64), pct(r.bytes_pct)),
                format!("{} ({})", analysis::render::si(r.packets as f64), pct(r.packets_pct)),
            ]
        })
        .collect();
    println!(
        "Table 1 — contributions per class ({} members, {} sampled pkts)\n{}",
        t.total_members,
        t.total_packets,
        analysis::render::table(&["class", "members", "bytes", "packets"], &rows)
    );

    // §4.3: impact of the org adjustment on Invalid FULL and Invalid CC.
    let plain = Table1::compute_with_org(&s.classifier, &s.trace.flows, OrgMode::Plain);
    let red = |label: &str| {
        let before = plain.row(label).expect("row").bytes as f64;
        let after = t.row(label).expect("row").bytes as f64;
        if before == 0.0 {
            0.0
        } else {
            100.0 * (1.0 - after / before)
        }
    };
    let full_red = red("Invalid FULL");
    let cc_red = red("Invalid CC");
    println!(
        "§4.3 org adjustment removes {:.1}% of Invalid FULL bytes, {:.1}% of Invalid CC bytes",
        full_red, cc_red
    );

    let row = |label: &str| t.row(label).expect("row");
    vec![
        Comparison::new("T1", "Bogon members", "525 (72.0%)",
            format!("{} ({})", row("Bogon").members, pct(row("Bogon").members_pct)),
            row("Bogon").members_pct > 50.0),
        Comparison::new("T1", "Unrouted members", "378 (52.0%)",
            format!("{} ({})", row("Unrouted").members, pct(row("Unrouted").members_pct)),
            (30.0..75.0).contains(&row("Unrouted").members_pct)),
        Comparison::new("T1", "Invalid FULL members", "393 (54.1%)",
            format!("{} ({})", row("Invalid FULL").members, pct(row("Invalid FULL").members_pct)),
            (30.0..80.0).contains(&row("Invalid FULL").members_pct)),
        Comparison::new("T1", "Invalid NAIVE members", "611 (84.0%)",
            format!("{} ({})", row("Invalid NAIVE").members, pct(row("Invalid NAIVE").members_pct)),
            row("Invalid NAIVE").members_pct >= row("Invalid FULL").members_pct),
        Comparison::new("T1", "Bogon traffic share (pkts)", "0.02%",
            pct(row("Bogon").packets_pct), row("Bogon").packets_pct < 1.0),
        Comparison::new("T1", "Invalid FULL < Invalid NAIVE (pkts)", "0.03% < 1.29%",
            format!("{} < {}", pct(row("Invalid FULL").packets_pct), pct(row("Invalid NAIVE").packets_pct)),
            row("Invalid FULL").packets <= row("Invalid NAIVE").packets),
        Comparison::new("T1", "Invalid FULL < Invalid CC (pkts)", "0.03% < 0.3%",
            format!("{} < {}", pct(row("Invalid FULL").packets_pct), pct(row("Invalid CC").packets_pct)),
            row("Invalid FULL").packets <= row("Invalid CC").packets),
        Comparison::new("S43", "org adjustment reduces Invalid FULL bytes", "~15%",
            pct(full_red), full_red >= 0.0),
        Comparison::new("S43", "org adjustment reduces Invalid CC bytes", "~85%",
            pct(cc_red), cc_red >= full_red),
    ]
}

/// Figure 4: per-member class-share CCDFs.
pub fn fig4(s: &Scenario) -> Vec<Comparison> {
    let breakdown = MemberBreakdown::from_classes(&s.trace.flows, &s.classes);
    let fig = analysis::ccdf::Fig4::compute(&breakdown);
    println!("{}", fig.render());
    let bogon_max = fig.curve(TrafficClass::Bogon).max_share();
    let unrouted_max = fig.curve(TrafficClass::Unrouted).max_share();
    let invalid_max = fig.curve(TrafficClass::Invalid).max_share();
    vec![
        Comparison::new("F4", "max Bogon share of any member", "~10%",
            pct(100.0 * bogon_max), bogon_max < 0.5),
        Comparison::new("F4", "max Unrouted share of any member", "~9%",
            pct(100.0 * unrouted_max), unrouted_max < 0.5),
        Comparison::new("F4", "members with ~100% Invalid exist", "yes",
            pct(100.0 * invalid_max), invalid_max > 0.9),
    ]
}

/// Figure 5: member participation Venn.
pub fn fig5(s: &Scenario) -> Vec<Comparison> {
    let breakdown = MemberBreakdown::from_classes(&s.trace.flows, &s.classes);
    let fig = analysis::venn::Fig5::compute(&breakdown, &HashSet::new());
    println!("{}", fig.render());
    vec![
        Comparison::new("F5", "clean members", "18.02%", pct(fig.clean),
            (5.0..40.0).contains(&fig.clean)),
        Comparison::new("F5", "members in all three classes", "28.06%", pct(fig.all_three),
            (10.0..50.0).contains(&fig.all_three)),
        Comparison::new("F5", "Bogon-only members", "9.63%", pct(fig.bogon_only),
            (2.0..25.0).contains(&fig.bogon_only)),
        Comparison::new("F5", "Invalid-only members", "7.57%", pct(fig.invalid_only),
            fig.invalid_only < 25.0),
        Comparison::new("F5", "Unrouted members also in Bogon/Invalid", "96%",
            pct(fig.unrouted_also_other()), fig.unrouted_also_other() > 80.0),
    ]
}

/// Figure 6: volume vs class share by business type.
pub fn fig6(s: &Scenario) -> Vec<Comparison> {
    let breakdown = MemberBreakdown::from_classes(&s.trace.flows, &s.classes);
    let fig = analysis::scatter::Fig6::compute(&breakdown, &s.net);
    println!("{}", fig.render());
    use spoofwatch_internet::BusinessType;
    let sig = fig.significant_by_business(TrafficClass::Bogon);
    let count = |b: BusinessType| sig.iter().find(|(x, _)| *x == b).map_or(0, |(_, n)| *n);
    let hosting_isp = count(BusinessType::Hosting) + count(BusinessType::Isp);
    let content = count(BusinessType::Content);
    println!("significant (>1%) Bogon contributors by type: {sig:?}");
    vec![
        Comparison::new("F6", "hosting+ISP dominate significant Bogon shares",
            "predominantly hosting/ISP/transit",
            format!("hosting+ISP {hosting_isp} vs content {content}"),
            hosting_isp >= content),
        Comparison::new("F6", "large content providers contribute no Bogon",
            "most contribute none",
            format!("{content} content members > 1% Bogon"), content <= 2),
    ]
}

/// Figure 7 and the §5.2 stray analysis.
pub fn fig7(s: &Scenario) -> Vec<Comparison> {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
    let traces = traceroute::campaign(&s.net, &mut rng, 100_000);
    let router_ips = traceroute::harvest_router_ips(&traces);
    println!("traceroute campaign: {} traces, {} router IPs", traces.len(), router_ips.len());
    let report = StrayReport::analyze(&s.trace.flows, &s.classes, &router_ips);
    let rows: Vec<Vec<String>> = report
        .per_member
        .iter()
        .filter(|(_, v)| v.router_packets > 0)
        .map(|(m, v)| {
            vec![
                m.to_string(),
                v.invalid_packets.to_string(),
                v.router_packets.to_string(),
                format!("{:.2}", v.router_fraction()),
            ]
        })
        .collect();
    println!(
        "Figure 7 — Invalid vs router-sourced packets per member\n{}",
        analysis::render::table(&["member", "invalid", "router", "frac"], &rows)
    );
    let dominated = report.stray_dominated(0.5);
    let with_invalid = report.per_member.len();
    let before_pct = 100.0 * with_invalid as f64 / s.net.ixp_members.len() as f64;
    let after_pct =
        100.0 * (with_invalid - dominated.len()) as f64 / s.net.ixp_members.len() as f64;
    println!(
        "§5.2: members with Invalid {before_pct:.2}% → {after_pct:.2}% after dropping {} stray-dominated; \
         router proto mix ICMP/UDP/TCP = {:.1}/{:.1}/{:.1}%, router-UDP→NTP {:.1}%",
        dominated.len(),
        100.0 * report.proto_shares.0,
        100.0 * report.proto_shares.1,
        100.0 * report.proto_shares.2,
        100.0 * report.udp_ntp_fraction,
    );
    vec![
        Comparison::new("F7", "some members' Invalid is router-dominated", "diagonal in Fig 7",
            format!("{} members ≥50% router-sourced", dominated.len()), !dominated.is_empty()),
        Comparison::new("S52", "router traffic is mostly ICMP", "83%",
            pct(100.0 * report.proto_shares.0), report.proto_shares.0 > 0.6),
        Comparison::new("S52", "router-UDP directed at NTP", "76.3%",
            pct(100.0 * report.udp_ntp_fraction), report.udp_ntp_fraction > 0.5),
        Comparison::new("S52", "overall router share of Invalid", "<1%",
            pct(100.0 * report.overall_router_fraction), report.overall_router_fraction < 0.2),
        Comparison::new("S52", "member filter reduces Invalid contributors", "57.68% → 39.59%",
            format!("{before_pct:.2}% → {after_pct:.2}%"), after_pct < before_pct),
    ]
}

/// Figures 8a and 8b.
pub fn fig8(s: &Scenario) -> Vec<Comparison> {
    let fig_a = analysis::sizes::Fig8a::compute(&s.trace.flows, &s.classes);
    println!("{}", fig_a.render());
    let fig_b = analysis::timeseries::Fig8b::compute(&s.trace.flows, &s.classes, s.trace.duration);
    println!("{}", fig_b.week(0).render());
    let small = |c: TrafficClass| fig_a.fraction_le(c, 60);
    let mut out = vec![
        Comparison::new("F8a", "Bogon packets ≤ 60B", ">80%", pct(100.0 * small(TrafficClass::Bogon)),
            small(TrafficClass::Bogon) > 0.8),
        Comparison::new("F8a", "Unrouted packets ≤ 60B", ">80%", pct(100.0 * small(TrafficClass::Unrouted)),
            small(TrafficClass::Unrouted) > 0.8),
        Comparison::new("F8a", "Invalid packets ≤ 60B", ">80%", pct(100.0 * small(TrafficClass::Invalid)),
            small(TrafficClass::Invalid) > 0.3),
        Comparison::new("F8a", "regular traffic is bimodal (not tiny)", "bimodal",
            pct(100.0 * small(TrafficClass::Valid)), small(TrafficClass::Valid) < 0.8),
    ];
    let b_valid = fig_b.burstiness(TrafficClass::Valid);
    let b_unrouted = fig_b.burstiness(TrafficClass::Unrouted);
    let b_invalid = fig_b.burstiness(TrafficClass::Invalid);
    out.push(Comparison::new("F8b", "attack classes burstier than regular",
        "spiky vs diurnal",
        format!("CoV valid {b_valid:.2} vs unrouted {b_unrouted:.2} / invalid {b_invalid:.2}"),
        b_unrouted > b_valid && b_invalid > b_valid));
    out
}

/// Figure 9: application mix.
pub fn fig9(s: &Scenario) -> Vec<Comparison> {
    use analysis::portmix::{Fig9, Panel};
    let fig = Fig9::compute(&s.trace.flows, &s.classes);
    println!("{}", fig.render());
    let inv_udp_dst = fig.cell(Panel::UdpDst, TrafficClass::Invalid);
    let unrouted_tcp = fig.cell(Panel::TcpDst, TrafficClass::Unrouted);
    let http_share = unrouted_tcp.port(ports::HTTP) + unrouted_tcp.port(ports::HTTPS);
    let unrouted_udp = fig.cell(Panel::UdpDst, TrafficClass::Unrouted);
    let regular_udp = fig.cell(Panel::UdpDst, TrafficClass::Valid);
    vec![
        Comparison::new("F9", "Invalid UDP DST port 123 share", ">90%",
            pct(100.0 * inv_udp_dst.port(ports::NTP)), inv_udp_dst.port(ports::NTP) > 0.9),
        Comparison::new("F9", "Unrouted TCP DST is HTTP(S)-directed", "majority 80/443",
            pct(100.0 * http_share), http_share > 0.5),
        Comparison::new("F9", "port 27015 visible in Unrouted UDP DST", "stands out",
            pct(100.0 * unrouted_udp.port(ports::STEAM)), unrouted_udp.port(ports::STEAM) > 0.05),
        Comparison::new("F9", "regular UDP ports mostly ephemeral", "random (BitTorrent)",
            pct(100.0 * regular_udp.other()), regular_udp.other() > 0.8),
    ]
}

/// Figure 10: address structure.
pub fn fig10(s: &Scenario) -> Vec<Comparison> {
    use analysis::addrstruct::{ClassAddrHist, Fig10};
    let fig = Fig10::compute(&s.trace.flows, &s.classes);
    println!("{}", fig.render());
    let unrouted = fig.class(TrafficClass::Unrouted);
    let bogon = fig.class(TrafficClass::Bogon);
    let invalid = fig.class(TrafficClass::Invalid);
    vec![
        Comparison::new("F10", "Unrouted sources spread widely", "mostly uniform",
            format!("{} /8 bins occupied", ClassAddrHist::occupied_bins(&unrouted.src)),
            ClassAddrHist::occupied_bins(&unrouted.src) > 100),
        {
            // The paper's concentration claim is about single victim
            // *addresses*, not /8 blocks: compute top-address shares.
            let mut dst_pkts: std::collections::HashMap<u32, u64> = Default::default();
            let mut src_pkts: std::collections::HashMap<u32, u64> = Default::default();
            let mut total = 0u64;
            for (f, c) in s.trace.flows.iter().zip(&s.classes) {
                if *c == TrafficClass::Unrouted {
                    *dst_pkts.entry(f.dst).or_default() += f.packets as u64;
                    *src_pkts.entry(f.src).or_default() += f.packets as u64;
                    total += f.packets as u64;
                }
            }
            let top = |m: &std::collections::HashMap<u32, u64>| {
                m.values().copied().max().unwrap_or(0) as f64 / total.max(1) as f64
            };
            let (dst_top, src_top) = (top(&dst_pkts), top(&src_pkts));
            Comparison::new("F10", "Unrouted destinations concentrate on single addresses",
                "top 5 dsts get 2.3G extrapolated pkts; srcs random",
                format!("top dst address {:.0}% of class vs top src {:.2}%",
                    100.0 * dst_top, 100.0 * src_top),
                dst_top > 0.1 && dst_top > 10.0 * src_top)
        },
        Comparison::new("F10", "Bogon sources concentrate in private ranges", "spikes at 10/8, 192/8",
            format!("10/8 + 192/8 = {:.0}% of Bogon srcs",
                100.0 * (bogon.src[10] + bogon.src[192]) as f64
                    / bogon.src.iter().sum::<u64>().max(1) as f64),
            bogon.src[10] + bogon.src[192]
                > bogon.src.iter().sum::<u64>() / 2),
        Comparison::new("F10", "Invalid sources peak at few /8s", "spikes (victims)",
            format!("peak bin {:.0}%", 100.0 * ClassAddrHist::peak_fraction(&invalid.src)),
            ClassAddrHist::peak_fraction(&invalid.src) > 0.1),
    ]
}

/// Figure 11 and the §7 attack-pattern numbers.
pub fn fig11(s: &Scenario) -> Vec<Comparison> {
    use analysis::attack::{zmap_scan, Fig11a, Fig11c, NtpAnalysis};
    let fig_a = Fig11a::compute(&s.trace.flows, &s.classes, 50);
    println!("{}", fig_a.render());
    let ntp = NtpAnalysis::compute(&s.trace.flows, &s.classes, 10);
    println!("{}", ntp.render());
    let fig_c = Fig11c::compute(&s.trace.flows, &s.classes, s.trace.duration);
    println!("{}", fig_c.render());

    // §7: overlap of contacted amplifiers with ZMap-style scans.
    let contacted: HashSet<u32> = s
        .trace
        .flows
        .iter()
        .zip(&s.classes)
        .filter(|(f, c)| {
            **c == TrafficClass::Invalid
                && f.proto == spoofwatch_net::Proto::Udp
                && f.dport == ports::NTP
        })
        .map(|(f, _)| f.dst)
        .collect();
    let scan_now = zmap_scan(&s.net, 99, 0.6);
    let scan_old = zmap_scan(&s.net, 55, 0.35);
    let overlap_now = contacted.intersection(&scan_now).count();
    let overlap_old = contacted.intersection(&scan_old).count();
    println!(
        "§7 ZMap overlap: contacted {} amplifiers; current scan hits {overlap_now}, older scan {overlap_old}",
        contacted.len()
    );

    vec![
        Comparison::new("F11a", "Unrouted dsts with all-unique sources", "~90%",
            pct(100.0 * fig_a.unique_source_fraction(TrafficClass::Unrouted)),
            fig_a.unique_source_fraction(TrafficClass::Unrouted) > 0.6),
        Comparison::new("F11a", "Invalid dsts dominated by few sources", "majority leftmost bins",
            pct(100.0 * fig_a.few_source_fraction(TrafficClass::Invalid)),
            fig_a.few_source_fraction(TrafficClass::Invalid)
                > fig_a.unique_source_fraction(TrafficClass::Invalid)),
        Comparison::new("F11b", "amplifier strategies differ across victims",
            "90 hammered vs 13,377 sprayed",
            format!("victim amp counts: {:?}",
                ntp.victims.iter().map(|v| v.amplifiers.len()).collect::<Vec<_>>()),
            ntp.victims.len() >= 2
                && ntp.victims.iter().map(|v| v.amplifiers.len()).max().unwrap_or(0)
                    >= 5 * ntp.victims.iter().map(|v| v.amplifiers.len()).min().unwrap_or(1)),
        Comparison::new("S7", "top member's share of Invalid NTP", "91.94%",
            pct(100.0 * ntp.top_member_share), ntp.top_member_share > 0.5),
        Comparison::new("S7", "top-5 members' share", "97.86%",
            pct(100.0 * ntp.top5_member_share), ntp.top5_member_share > ntp.top_member_share),
        Comparison::new("F11c", "responses amplify trigger bytes", "~10x",
            format!("{:.1}x over {} matched pairs", fig_c.amplification, fig_c.matched_pairs),
            fig_c.amplification > 3.0 && fig_c.matched_pairs > 0),
        Comparison::new("S7", "scan overlap is partial", "3,865 of 24,328",
            format!("{overlap_now} of {}", contacted.len()),
            overlap_now > 0 && overlap_now < contacted.len()),
    ]
}

/// §4.4: the false-positive hunt.
pub fn fphunt(s: &Scenario) -> Vec<Comparison> {
    let (findings, corrected) = hunt(
        &s.classifier,
        &s.trace.flows,
        &s.classes,
        &s.net.whois,
        &s.net.looking_glass_links,
        &HuntConfig::default(),
    );
    println!(
        "§4.4 hunt: {} org links (WHOIS), {} ACL links, {} looking-glass links, {} route objects, {} tunnels",
        findings.whois_org_links.len(),
        findings.acl_links.len(),
        findings.looking_glass_links.len(),
        findings.route_object_exceptions.len(),
        findings.tunnel_suspects.len(),
    );
    println!(
        "Invalid bytes {} → {} (-{:.1}%), packets {} → {} (-{:.1}%)",
        findings.before.0,
        findings.after.0,
        100.0 * findings.bytes_reduction(),
        findings.before.1,
        findings.after.1,
        100.0 * findings.packets_reduction(),
    );
    let residual_invalid = corrected
        .iter()
        .filter(|c| **c == TrafficClass::Invalid)
        .count();
    println!("residual Invalid flow records: {residual_invalid}");
    vec![
        Comparison::new("S44", "missing AS links found", "15 WHOIS + 1 looking glass",
            format!("{} ({} WHOIS/ACL + {} LG)", findings.num_links(),
                findings.whois_org_links.len() + findings.acl_links.len(),
                findings.looking_glass_links.len()),
            findings.num_links() > 0),
        Comparison::new("S44", "Invalid bytes removed by hunt", "59.9%",
            pct(100.0 * findings.bytes_reduction()),
            (0.2..0.95).contains(&findings.bytes_reduction())),
        Comparison::new("S44", "Invalid packets removed by hunt", "40%",
            pct(100.0 * findings.packets_reduction()),
            findings.packets_reduction() > 0.05
                && findings.packets_reduction() < findings.bytes_reduction() + 0.3),
        Comparison::new("S44", "bytes reduction exceeds packet reduction", "59.9% > 40%",
            format!("{} > {}", pct(100.0 * findings.bytes_reduction()),
                pct(100.0 * findings.packets_reduction())),
            findings.bytes_reduction() > findings.packets_reduction()),
    ]
}

/// §4.5: active/passive cross-check.
pub fn spoofer(s: &Scenario) -> Vec<Comparison> {
    let campaign = SpooferCampaign::run(&s.net, 77, s.net.topology.len() / 6, 0.45);
    let breakdown = MemberBreakdown::from_classes(&s.trace.flows, &s.classes);
    let with_traffic: HashSet<_> = breakdown.per_member.keys().copied().collect();
    let mut with_spoofed = breakdown.members_with(TrafficClass::Invalid);
    with_spoofed.extend(breakdown.members_with(TrafficClass::Unrouted));
    let cc = crosscheck(&campaign, &with_traffic, &with_spoofed);
    println!(
        "§4.5 cross-check: overlap {} ASes; passive detects {:.0}%, active {:.0}%; \
         active confirms {:.0}% of passive, passive confirms {:.0}% of active",
        cc.overlap,
        100.0 * cc.passive_detected_fraction,
        100.0 * cc.active_spoofable_fraction,
        100.0 * cc.active_confirms_passive,
        100.0 * cc.passive_confirms_active,
    );
    vec![
        Comparison::new("S45", "overlapping ASes", "97 (8% of members)",
            cc.overlap.to_string(), cc.overlap > 10),
        Comparison::new("S45", "passive detection among overlap", "74%",
            pct(100.0 * cc.passive_detected_fraction), cc.passive_detected_fraction > 0.3),
        Comparison::new("S45", "active spoofability among overlap", "30%",
            pct(100.0 * cc.active_spoofable_fraction),
            cc.active_spoofable_fraction < cc.passive_detected_fraction),
        Comparison::new("S45", "passive confirms active", "69%",
            pct(100.0 * cc.passive_confirms_active),
            cc.passive_confirms_active >= cc.active_confirms_passive),
    ]
}

/// §2.2 survey reference data plus a comparison against the generated
/// filtering-profile mix.
pub fn survey(s: &Scenario) -> Vec<Comparison> {
    println!("{}", analysis::survey::render());
    let total = s.net.topology.len() as f64;
    let no_egress = s
        .net
        .topology
        .ases()
        .filter(|a| !a.filtering.filters_bogon && !a.filtering.filters_unrouted
            && !a.filtering.filters_invalid)
        .count() as f64;
    let frac = no_egress / total;
    vec![Comparison::new("SV", "networks with no egress filtering at all",
        "24% (survey, biased toward filterers)",
        pct(100.0 * frac), (0.05..0.6).contains(&frac))]
}

/// Ground-truth evaluation (extension beyond the paper).
pub fn evaluation(s: &Scenario) -> Vec<Comparison> {
    let e = analysis::evaluate::Evaluation::compute(&s.trace.flows, &s.trace.labels, &s.classes);
    println!("{}", e.render());
    vec![
        Comparison::new("EXT", "spoofed-packet recall (ground truth)", "n/a (unknowable on real traces)",
            pct(100.0 * e.spoofed_recall), e.spoofed_recall > 0.8),
        Comparison::new("EXT", "clean-traffic FPR (ground truth)", "n/a",
            pct(100.0 * e.clean_fpr), e.clean_fpr < 0.05),
    ]
}

/// Ablation (extension): how data availability drives false positives —
/// collector visibility (the §4.4 root cause) and AS2Org dataset
/// coverage (the §4.3 lever). Uses its own reduced worlds so the sweep
/// stays fast.
pub fn ablation(_s: &Scenario) -> Vec<Comparison> {
    use spoofwatch_core::Classifier;
    use spoofwatch_internet::{Internet, InternetConfig};
    use spoofwatch_ixp::{Trace, TrafficConfig, TrafficLabel};
    use spoofwatch_net::InferenceMethod;

    let traffic = TrafficConfig {
        seed: 71,
        regular_flows: 60_000,
        ..TrafficConfig::default()
    };
    let base = InternetConfig {
        seed: 71,
        num_ases: 1000,
        num_ixp_members: 300,
        ..InternetConfig::default()
    };

    // --- Sweep 1: collector visibility vs regular-traffic FP rate. ------
    let mut fp_rates = Vec::new();
    for peers in [2usize, 20, 60] {
        let net = Internet::generate(InternetConfig {
            collector_peers_each: peers,
            ..base.clone()
        });
        let trace = Trace::generate(&net, &traffic);
        let classifier = Classifier::build(&net.announcements, &net.orgs_dataset);
        let classes = classifier.classify_trace(
            &trace.flows,
            InferenceMethod::FullCone,
            OrgMode::OrgAdjusted,
        );
        let (mut fp, mut total) = (0u64, 0u64);
        for ((f, label), class) in trace.iter().zip(&classes) {
            if label == TrafficLabel::Regular {
                total += f.packets as u64;
                if class.is_illegitimate() {
                    fp += f.packets as u64;
                }
            }
        }
        let rate = fp as f64 / total.max(1) as f64;
        println!("visibility sweep: {peers:>2} peers/collector → regular FP rate {:.3}%", 100.0 * rate);
        fp_rates.push(rate);
    }

    // --- Sweep 2: AS2Org coverage vs org-adjustment impact. -------------
    let mut reductions = Vec::new();
    for coverage in [0.0f64, 0.7, 1.0] {
        let net = Internet::generate(InternetConfig {
            org_dataset_coverage: coverage,
            ..base.clone()
        });
        let trace = Trace::generate(&net, &traffic);
        let classifier = Classifier::build(&net.announcements, &net.orgs_dataset);
        let count = |org: OrgMode| -> u64 {
            classifier
                .classify_trace(&trace.flows, InferenceMethod::FullCone, org)
                .iter()
                .zip(&trace.flows)
                .filter(|(c, _)| **c == TrafficClass::Invalid)
                .map(|(_, f)| f.packets as u64)
                .sum()
        };
        let plain = count(OrgMode::Plain);
        let adjusted = count(OrgMode::OrgAdjusted);
        let red = if plain == 0 { 0.0 } else { 1.0 - adjusted as f64 / plain as f64 };
        println!("org-coverage sweep: coverage {coverage:.1} → adjustment removes {:.1}% of Invalid pkts", 100.0 * red);
        reductions.push(red);
    }

    vec![
        Comparison::new("ABL", "more collector visibility lowers regular FP rate",
            "n/a (extension; §4.4 attributes FPs to missing links)",
            format!("{:.3}% → {:.3}% → {:.3}%",
                100.0 * fp_rates[0], 100.0 * fp_rates[1], 100.0 * fp_rates[2]),
            fp_rates[0] >= fp_rates[2]),
        Comparison::new("ABL", "org dataset coverage drives adjustment impact",
            "n/a (extension; §4.3 lever)",
            format!("{:.1}% → {:.1}% → {:.1}%",
                100.0 * reductions[0], 100.0 * reductions[1], 100.0 * reductions[2]),
            reductions[0] <= reductions[2] + 1e-9),
    ]
}
