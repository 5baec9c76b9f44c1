//! Fault-tolerant ingest, end to end: corrupt every input feed, decode
//! resiliently, classify against a stale routing table, and read the
//! data-quality caveats off the study report.
//!
//! ```sh
//! cargo run --example dirty_ingest
//! ```

mod common;

use common::{section, World};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spoofwatch_analysis::report::{IngestSummary, StudyReport};
use spoofwatch_bgp::mrt;
use spoofwatch_core::{DegradedStats, RibFreshness};
use spoofwatch_ixp::ipfix;
use spoofwatch_net::{FaultInjector, InferenceMethod, OrgMode};
use spoofwatch_packet::{pcap, PcapPacket, PcapWriter};

fn main() {
    // A synthetic world: topology, announcements, a labelled trace, its
    // IPFIX export, and the classifier built from the announcements.
    let World {
        net,
        trace,
        bytes,
        classifier,
    } = World::tiny(5, 6);
    println!(
        "generated {} flows across {} IXP members\n",
        trace.flows.len(),
        net.ixp_members.len()
    );

    // ---- 1. Three feeds, each corrupted in transit --------------------

    // IPFIX flow export with 0.5% of bytes hit by bit flips.
    let mut flow_bytes = bytes.to_vec();
    let hits = FaultInjector::new(1)
        .protect_prefix(ipfix::HEADER_LEN)
        .corrupt_percent(&mut flow_bytes, 0.5);
    let (flows, flow_health) = ipfix::decode_resilient(&flow_bytes);
    println!(
        "ipfix feed: {hits} corrupted bytes -> {} of {} records recovered",
        flows.len(),
        trace.flows.len()
    );
    println!("  {flow_health}");

    // An MRT dump that lost its tail mid-write.
    let dump: Vec<_> = net
        .announcements
        .iter()
        .map(|a| spoofwatch_bgp::Update::Announce {
            ts: 0,
            peer: a.path.head().unwrap_or(spoofwatch_net::Asn(1)),
            announcement: a.clone(),
        })
        .collect();
    let mut rib_bytes = mrt::encode(&dump);
    rib_bytes.truncate(rib_bytes.len() - rib_bytes.len() / 10 + 7); // cut mid-record
    let (rib_updates, rib_health) = mrt::decode_resilient(&rib_bytes);
    println!(
        "mrt dump: torn tail -> {} of {} announcements recovered",
        rib_updates.len(),
        net.announcements.len()
    );
    println!("  {rib_health}");

    // A pcap capture with garbage spliced in by a flaky relay.
    let mut w = PcapWriter::new(Vec::new()).expect("vec write");
    let mut rng = StdRng::seed_from_u64(2);
    for i in 0..200u32 {
        let body: Vec<u8> = (0..60).map(|_| rng.random_range(0x20u8..0x7f)).collect();
        w.write_packet(&PcapPacket::full(i, 0, body)).expect("vec write");
    }
    let mut capture = w.finish().expect("vec write");
    let mut inj = FaultInjector::new(3).protect_prefix(24);
    for _ in 0..5 {
        inj.insert_garbage(&mut capture, 40);
    }
    let (packets, cap_health) = pcap::decode_resilient(&capture);
    println!("pcap capture: 5 garbage splices -> {} of 200 packets recovered", packets.len());
    println!("  {cap_health}\n");

    // ---- 2. Collector freshness under dropout -------------------------

    let mut fresh = RibFreshness::new();
    let hour = 3600u64;
    for c in ["rrc01", "rrc03", "route-views2"] {
        fresh.register(c);
        fresh.record_snapshot(c, 0);
    }
    // rrc03 starts failing; retries back off until it drops out.
    let mut now = 8 * hour;
    fresh.record_snapshot("rrc01", now);
    fresh.record_snapshot("route-views2", now);
    fresh.record_gap("rrc03", now); // first missed fetch opens the ladder
    for _ in 0..24 {
        now += hour;
        if fresh.retry_due("rrc03", now) {
            fresh.record_gap("rrc03", now);
        }
    }
    println!(
        "collector dropout after bounded retries: {:?}",
        fresh.dropped_out()
    );
    // Much later, the surviving collectors are stale too.
    let at_classify = now + 30 * hour;
    let confidence = fresh.confidence(at_classify);
    println!(
        "table age {}h -> classifying at confidence {confidence}\n",
        fresh.best_age(at_classify).unwrap_or(0) / hour
    );

    // ---- 3. Degraded classification + the report caveat ---------------

    // The study runs over the full trace; the recovered flow subset and
    // the feed health ride along in the report's ingest section.
    let classes =
        classifier.classify_trace(&trace.flows, InferenceMethod::FullCone, OrgMode::OrgAdjusted);
    let stats = DegradedStats::of(&classes, confidence);
    println!(
        "degraded classification: {} flows, {} tentative Unrouted verdicts\n",
        stats.flows, stats.unrouted_tentative
    );

    let report = StudyReport::compute(&net, &trace, &classifier, &classes, None)
        .with_ingest(IngestSummary {
            sources: vec![
                ("flows.ipfix".into(), flow_health),
                ("rib.mrt".into(), rib_health),
                ("mirror.pcap".into(), cap_health),
            ],
            table_confidence: confidence,
            degraded: Some(stats),
        });
    println!("{}\n", section(&report.render(), "Ingest health"));
}
