//! A network operator's filtering audit: who sends what kind of
//! illegitimate traffic, how it relates to business types, and which
//! "suspects" turn out to be stray routers or mislabelled setups — the
//! operational workflow §5 and §4.4 enable.
//!
//! ```sh
//! cargo run --release --example filter_audit
//! ```

mod common;

use common::World;
use rand::SeedableRng;
use spoofwatch::analysis;
use spoofwatch::core::fphunt::hunt;
use spoofwatch::core::stray::StrayReport;
use spoofwatch::core::MemberBreakdown;
use spoofwatch::internet::traceroute;
use spoofwatch::net::{InferenceMethod, OrgMode, TrafficClass};
use std::collections::HashSet;

fn main() {
    let World {
        net,
        trace,
        classifier,
        ..
    } = World::mid(37, 120_000);
    let classes = classifier.classify_trace(
        &trace.flows,
        InferenceMethod::FullCone,
        OrgMode::OrgAdjusted,
    );
    let breakdown = MemberBreakdown::from_classes(&trace.flows, &classes);

    // 1. Filtering consistency across the membership.
    let venn = analysis::venn::Fig5::compute(&breakdown, &HashSet::new());
    println!("{}", venn.render());

    // 2. Business types of the worst offenders.
    let fig6 = analysis::scatter::Fig6::compute(&breakdown, &net);
    println!("members with >1% Bogon share, by business type:");
    for (business, n) in fig6.significant_by_business(TrafficClass::Bogon) {
        println!("  {business:>8}: {n}");
    }
    println!("members with >1% Invalid share, by business type:");
    for (business, n) in fig6.significant_by_business(TrafficClass::Invalid) {
        println!("  {business:>8}: {n}");
    }

    // 3. Stray-router screening: suspects whose Invalid traffic is just
    //    their own gear answering probes.
    let mut rng = rand::rngs::StdRng::seed_from_u64(37);
    let traces = traceroute::campaign(&net, &mut rng, 40_000);
    let router_ips = traceroute::harvest_router_ips(&traces);
    let stray = StrayReport::analyze(&trace.flows, &classes, &router_ips);
    let dominated = stray.stray_dominated(0.5);
    println!(
        "\nstray screening: {} router IPs harvested; {} members are ≥50% router-sourced \
         in Invalid and get excluded from spoofing blame",
        router_ips.len(),
        dominated.len()
    );

    // 4. The false-positive hunt: registry evidence for the rest.
    let (findings, corrected) = hunt(
        &classifier,
        &trace.flows,
        &classes,
        &net.whois,
        &net.looking_glass_links,
    );
    println!(
        "\nfalse-positive hunt: {} missing links ({} WHOIS-org, {} ACL, {} looking glass), \
         {} route objects, {} tunnel-style setups",
        findings.num_links(),
        findings.whois_org_links.len(),
        findings.acl_links.len(),
        findings.looking_glass_links.len(),
        findings.route_object_exceptions.len(),
        findings.tunnel_suspects.len(),
    );
    println!(
        "accepting the evidence removes {:.1}% of Invalid bytes ({:.1}% of packets)",
        100.0 * findings.bytes_reduction(),
        100.0 * findings.packets_reduction()
    );
    let before = classes.iter().filter(|c| **c == TrafficClass::Invalid).count();
    let after = corrected.iter().filter(|c| **c == TrafficClass::Invalid).count();
    println!("Invalid flow records: {before} → {after}");
}
