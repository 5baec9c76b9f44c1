//! Quickstart: build a classifier from BGP data and classify flows.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the whole pipeline on a small synthetic world: generate an
//! Internet, collect its BGP announcements, build the classifier, and
//! classify a handful of hand-crafted flows plus a generated trace.

use spoofwatch::core::Classifier;
use spoofwatch::internet::{Internet, InternetConfig};
use spoofwatch::ixp::{Trace, TrafficConfig};
use spoofwatch::net::{parse_addr, FlowRecord, InferenceMethod, OrgMode, Proto};

fn main() {
    // 1. A synthetic Internet: topology, address plan, BGP observations.
    let net = Internet::generate(InternetConfig::tiny(42));
    println!(
        "internet: {} ASes, {} IXP members, {} BGP announcements",
        net.topology.len(),
        net.ixp_members.len(),
        net.announcements.len()
    );

    // 2. The classifier — built purely from routing data, exactly like
    //    the paper's pipeline (bogon list + routed table + cones).
    let classifier = Classifier::build(&net.announcements, &net.orgs_dataset);
    println!(
        "classifier: {} routed prefixes covering {:.0} /24s, {} ASes\n",
        classifier.table().num_prefixes(),
        classifier.table().routed_slash24(),
        classifier.table().num_ases()
    );

    // 3. Classify a few flows by hand.
    let member = net.ixp_members[0];
    let mk = |src: &str| FlowRecord {
        ts: 0,
        src: parse_addr(src).unwrap(),
        dst: parse_addr("198.51.100.1").unwrap(),
        proto: Proto::Tcp,
        sport: 44123,
        dport: 80,
        packets: 1,
        bytes: 40,
        pkt_size: 40,
        member,
        ttl: 0,
    };
    // A source the member legitimately carries (its own space) last.
    let own = net
        .topology
        .info(member)
        .and_then(|info| info.prefixes.first())
        .map(|p| spoofwatch::net::fmt_addr(p.first() + 1));
    let srcs: Vec<&str> = ["192.168.1.1", "10.9.9.9", "224.0.0.5", "203.0.113.7"]
        .into_iter()
        .chain(own.as_deref())
        .collect();
    let flows: Vec<FlowRecord> = srcs.iter().map(|src| mk(src)).collect();
    let classes = classifier.classify_trace(&flows, InferenceMethod::FullCone, OrgMode::OrgAdjusted);
    for (src, class) in srcs.iter().zip(classes) {
        println!("src {src:>15} via {member} → {class}");
    }

    // 4. Classify a whole generated trace and compare the three methods.
    let trace = Trace::generate(&net, &TrafficConfig::tiny(1));
    println!("\ntrace: {} flow records", trace.len());
    for method in InferenceMethod::ALL {
        let classes =
            classifier.classify_trace(&trace.flows, method, OrgMode::OrgAdjusted);
        let invalid = classes
            .iter()
            .filter(|c| c.is_illegitimate())
            .count();
        println!(
            "  {method:>5}: {invalid} illegitimate flow records ({:.2}%)",
            100.0 * invalid as f64 / trace.len() as f64
        );
    }

    // 5. Generate the deployable artefact: the peer's ingress ACL.
    let acl = spoofwatch::core::acl::peer_whitelist(
        &classifier,
        member,
        InferenceMethod::FullCone,
        OrgMode::OrgAdjusted,
    );
    println!(
        "\ningress ACL for {member}: {} entries covering {:.0} /24s",
        acl.allow.len(),
        acl.slash24
    );
}
