//! Cross-crate integration: the complete study pipeline on a small
//! world, with quality gates on every stage.

use spoofwatch::analysis;
use spoofwatch::core::fphunt::hunt;
use spoofwatch::core::{Classifier, MemberBreakdown, Table1};
use spoofwatch::internet::{Internet, InternetConfig};
use spoofwatch::ixp::{Trace, TrafficConfig};
use spoofwatch::net::{InferenceMethod, OrgMode, TrafficClass};
use std::collections::HashSet;

fn world() -> (Internet, Trace, Classifier, Vec<TrafficClass>) {
    let net = Internet::generate(InternetConfig::tiny(99));
    let trace = Trace::generate(&net, &TrafficConfig::tiny(7));
    let classifier = Classifier::build(&net.announcements, &net.orgs_dataset);
    let classes = classifier.classify_trace(
        &trace.flows,
        InferenceMethod::FullCone,
        OrgMode::OrgAdjusted,
    );
    (net, trace, classifier, classes)
}

#[test]
fn table1_is_consistent_with_classes() {
    let (_, trace, classifier, classes) = world();
    let table = Table1::compute(&classifier, &trace.flows);
    // The Invalid FULL row must match a direct count.
    let direct: u64 = trace
        .flows
        .iter()
        .zip(&classes)
        .filter(|(_, c)| **c == TrafficClass::Invalid)
        .map(|(f, _)| f.packets as u64)
        .sum();
    assert_eq!(table.row("Invalid FULL").unwrap().packets, direct);
    // Percentages are internally consistent.
    let total: u64 = trace.flows.iter().map(|f| f.packets as u64).sum();
    assert_eq!(table.total_packets, total);
    for row in &table.rows {
        let expect = 100.0 * row.packets as f64 / total as f64;
        assert!((row.packets_pct - expect).abs() < 1e-9, "{}", row.label);
    }
}

#[test]
fn venn_members_match_breakdown() {
    let (_, trace, _, classes) = world();
    let breakdown = MemberBreakdown::from_classes(&trace.flows, &classes);
    let venn = analysis::venn::Fig5::compute(&breakdown, &HashSet::new());
    let sum = venn.clean
        + venn.bogon_only
        + venn.unrouted_only
        + venn.invalid_only
        + venn.bogon_unrouted
        + venn.bogon_invalid
        + venn.unrouted_invalid
        + venn.all_three;
    assert!((sum - 100.0).abs() < 1e-6, "regions must partition: {sum}");
    assert_eq!(venn.total_members, breakdown.per_member.len());
}

#[test]
fn hunt_never_increases_invalid_and_never_touches_other_classes() {
    let (net, trace, classifier, classes) = world();
    let (findings, corrected) = hunt(
        &classifier,
        &trace.flows,
        &classes,
        &net.whois,
        &net.looking_glass_links,
    );
    assert_eq!(corrected.len(), classes.len());
    for (before, after) in classes.iter().zip(&corrected) {
        if before == after {
            continue;
        }
        assert_eq!(*before, TrafficClass::Invalid, "only Invalid may change");
        assert_eq!(*after, TrafficClass::Valid, "and only to Valid");
    }
    assert!(findings.after.1 <= findings.before.1);
    assert!(findings.after.0 <= findings.before.0);
}

#[test]
fn hunt_finds_planted_evidence() {
    let (net, trace, classifier, classes) = world();
    let (findings, _) = hunt(
        &classifier,
        &trace.flows,
        &classes,
        &net.whois,
        &net.looking_glass_links,
    );
    // The generator plants hidden org groups whose traffic the WHOIS
    // registry can reveal; the hunt must find at least one of something.
    assert!(
        findings.num_links() + findings.tunnel_suspects.len()
            + findings.route_object_exceptions.len()
            > 0,
        "hunt found nothing despite planted blind spots"
    );
    // Packet reduction is bounded to what was Invalid.
    assert!(findings.packets_reduction() <= 1.0);
}

#[test]
fn figure_pipeline_runs_on_quick_world() {
    let (net, trace, classifier, classes) = world();
    // Every analysis renders without panicking and with plausible shape.
    let breakdown = MemberBreakdown::from_classes(&trace.flows, &classes);
    let fig4 = analysis::ccdf::Fig4::compute(&breakdown);
    assert_eq!(fig4.curves.len(), 3);
    let fig6 = analysis::scatter::Fig6::compute(&breakdown, &net);
    assert!(!fig6.points.is_empty());
    let fig8a = analysis::sizes::Fig8a::compute(&trace.flows, &classes);
    assert!(fig8a.fraction_le(TrafficClass::Valid, 1600) > 0.99);
    let fig8b = analysis::timeseries::Fig8b::compute(&trace.flows, &classes, trace.duration);
    assert_eq!(fig8b.hours, (trace.duration as usize).div_ceil(3600));
    let fig9 = analysis::portmix::Fig9::compute(&trace.flows, &classes);
    assert!(!fig9.cells.is_empty());
    let fig10 = analysis::addrstruct::Fig10::compute(&trace.flows, &classes);
    assert_eq!(fig10.hists.len(), 4);
    let fig2 = analysis::fig2::Fig2::compute(&classifier);
    assert_eq!(fig2.curves.len(), 5);
    let eval =
        analysis::evaluate::Evaluation::compute(&trace.flows, &trace.labels, &classes);
    assert!(eval.spoofed_recall > 0.5, "recall {}", eval.spoofed_recall);
}

#[test]
fn method_monotonicity_on_quick_world() {
    let (_, trace, classifier, _) = world();
    // FULL is the most conservative method on the same inputs.
    let count = |m: InferenceMethod, o: OrgMode| {
        classifier
            .classify_trace(&trace.flows, m, o)
            .iter()
            .filter(|c| **c == TrafficClass::Invalid)
            .count()
    };
    let full_org = count(InferenceMethod::FullCone, OrgMode::OrgAdjusted);
    let full_plain = count(InferenceMethod::FullCone, OrgMode::Plain);
    let naive = count(InferenceMethod::Naive, OrgMode::Plain);
    assert!(full_org <= full_plain, "org adjustment only removes");
    assert!(full_plain <= naive, "FULL ⊆ NAIVE violated");
}
