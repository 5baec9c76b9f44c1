//! Failure injection: route leaks.
//!
//! A route leak (a customer re-exporting one provider's routes to
//! another provider, violating valley-freedom) is a fact of life in
//! public BGP data. The classifier must ingest leaked paths without
//! error; under the Full Cone a leak *widens* the leaker's apparent
//! cone — which is precisely why the paper calls the method a
//! "conservative overestimation" of valid space.

use spoofwatch_asgraph::As2Org;
use spoofwatch_bgp::{Announcement, AsPath};
use spoofwatch_core::Classifier;
use spoofwatch_net::{parse_addr, Asn, FlowRecord, InferenceMethod, OrgMode, Proto, TrafficClass};

fn ann(prefix: &str, path: &[u32]) -> Announcement {
    Announcement::new(prefix.parse().unwrap(), AsPath::from(path.to_vec()))
}

fn flow(src: &str, member: u32) -> FlowRecord {
    FlowRecord {
        ts: 0,
        src: parse_addr(src).unwrap(),
        dst: 1,
        proto: Proto::Tcp,
        sport: 1,
        dport: 80,
        packets: 1,
        bytes: 40,
        pkt_size: 40,
        member: Asn(member),
        ttl: 0,
    }
}

/// One flow through the production classify path (the batch kernel).
fn classify(c: &Classifier, f: &FlowRecord, method: InferenceMethod, org: OrgMode) -> TrafficClass {
    c.classify_records_batched(std::slice::from_ref(f), method, org)[0]
}

#[test]
fn leaked_paths_widen_the_leakers_cone() {
    // Clean world: provider 1 with customer 2; provider 3 with customer
    // 2 as well (2 is multihomed). Origin 9 is a customer of 1 only.
    let clean = vec![
        ann("20.0.0.0/8", &[1, 9]),
        ann("20.0.0.0/8", &[9]),
        ann("30.0.0.0/8", &[2]),
        ann("30.0.0.0/8", &[1, 2]),
        ann("30.0.0.0/8", &[3, 2]),
    ];
    let before = Classifier::build(&clean, &As2Org::new());
    // Without a leak, AS 2 cannot source 20/8 (9's space).
    assert_eq!(
        classify(&before, &flow("20.0.0.1", 2), InferenceMethod::FullCone, OrgMode::Plain),
        TrafficClass::Invalid
    );
    // Provider 3 cannot source it either.
    assert_eq!(
        classify(&before, &flow("20.0.0.1", 3), InferenceMethod::FullCone, OrgMode::Plain),
        TrafficClass::Invalid
    );

    // Now AS 2 leaks: it re-exports the route it learned from provider 1
    // to provider 3, which propagates it — the classic leak path
    // "3 2 1 9" appears at collectors.
    let mut leaked = clean.clone();
    leaked.push(ann("20.0.0.0/8", &[3, 2, 1, 9]));
    let after = Classifier::build(&leaked, &As2Org::new());

    // The build must succeed (no panic, no rejection: the path is
    // syntactically fine) and the leak widens cones along it.
    for member in [2u32, 3] {
        assert_eq!(
            classify(&after, &flow("20.0.0.1", member), InferenceMethod::FullCone, OrgMode::Plain),
            TrafficClass::Valid,
            "leak path legitimizes member {member}"
        );
    }
    // Unrelated members stay invalid.
    assert_eq!(
        classify(&after, &flow("20.0.0.1", 42), InferenceMethod::FullCone, OrgMode::Plain),
        TrafficClass::Invalid
    );
    // The Naive method also absorbs the leak (2 and 3 are now on-path).
    assert_eq!(
        classify(&after, &flow("20.0.0.1", 3), InferenceMethod::Naive, OrgMode::Plain),
        TrafficClass::Valid
    );
}

#[test]
fn poisoned_paths_are_filtered_not_fatal() {
    // Loops and reserved ASNs in the corpus are dropped by the sanity
    // filter; the classifier builds from what survives.
    let corpus = vec![
        ann("20.0.0.0/8", &[1, 9]),
        ann("30.0.0.0/8", &[1, 2, 1, 2]),   // loop: dropped
        ann("40.0.0.0/8", &[1, 64512, 5]),  // private ASN: dropped
        ann("0.0.0.0/0", &[1]),             // too coarse: dropped
        ann("50.0.0.1/32", &[1]),           // too specific: dropped
    ];
    let c = Classifier::build(&corpus, &As2Org::new());
    assert_eq!(c.table().num_prefixes(), 1);
    assert_eq!(c.table().filter_stats.path_loop, 1);
    assert_eq!(c.table().filter_stats.reserved_asn, 1);
    assert_eq!(c.table().filter_stats.too_coarse, 1);
    assert_eq!(c.table().filter_stats.too_specific, 1);
    // Dropped prefixes are unrouted as far as the pipeline cares.
    assert_eq!(
        classify(&c, &flow("30.0.0.1", 1), InferenceMethod::FullCone, OrgMode::OrgAdjusted),
        TrafficClass::Unrouted
    );
}
