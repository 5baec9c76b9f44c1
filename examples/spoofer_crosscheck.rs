//! Passive vs. active (§4.5): run a CAIDA-Spoofer-style probe campaign
//! over the same synthetic Internet the passive classifier watches, and
//! cross-check the two detection methods.
//!
//! ```sh
//! cargo run --release --example spoofer_crosscheck
//! ```

mod common;

use common::World;
use spoofwatch::core::MemberBreakdown;
use spoofwatch::net::{InferenceMethod, OrgMode, TrafficClass};
use spoofwatch::spoofer::{crosscheck, SpoofKind, SpooferCampaign};
use std::collections::HashSet;

fn main() {
    let World {
        net,
        trace,
        classifier,
        ..
    } = World::mid(29, 100_000);

    // Passive side: classify a trace, note members with spoofed traffic.
    let classes = classifier.classify_trace(
        &trace.flows,
        InferenceMethod::FullCone,
        OrgMode::OrgAdjusted,
    );
    let breakdown = MemberBreakdown::from_classes(&trace.flows, &classes);
    let with_traffic: HashSet<_> = breakdown.per_member.keys().copied().collect();
    let mut with_spoofed = breakdown.members_with(TrafficClass::Invalid);
    with_spoofed.extend(breakdown.members_with(TrafficClass::Unrouted));
    println!(
        "passive: {} members seen, {} with spoofed (Invalid/Unrouted) traffic",
        with_traffic.len(),
        with_spoofed.len()
    );

    // Active side: crowd-sourced probes crafting spoofed packets.
    let campaign = SpooferCampaign::run(&net, 29, 150, 0.45);
    println!(
        "active: probed {} ASes, {} spoofable ({:.0}%)",
        campaign.results.len(),
        campaign.spoofable_ases().len(),
        100.0 * campaign.spoofable_fraction()
    );
    let mut by_kind = [0usize; 3];
    for r in &campaign.results {
        for (i, kind) in SpoofKind::ALL.iter().enumerate() {
            if r.received.get(kind).copied().unwrap_or(false) {
                by_kind[i] += 1;
            }
        }
    }
    println!(
        "  per kind: private {}, unrouted {}, routed-foreign {}",
        by_kind[0], by_kind[1], by_kind[2]
    );

    // The cross-check.
    let cc = crosscheck(&campaign, &with_traffic, &with_spoofed);
    println!(
        "\ncross-check over {} overlapping member ASes:\n\
         \u{2022} passive finds spoofed traffic in {:.0}%\n\
         \u{2022} active finds spoofability in   {:.0}%\n\
         \u{2022} active confirms {:.0}% of passive detections\n\
         \u{2022} passive confirms {:.0}% of active detections",
        cc.overlap,
        100.0 * cc.passive_detected_fraction,
        100.0 * cc.active_spoofable_fraction,
        100.0 * cc.active_confirms_passive,
        100.0 * cc.passive_confirms_active,
    );
    println!(
        "\n(as in the paper, active probing is a lower bound: a probe must\n\
         cross every on-path filter, while passive observation only needs\n\
         one spoofed packet to reach the vantage point)"
    );
}
