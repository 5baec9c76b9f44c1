//! Persistence round-trips across crates: BGP data through MRT-lite and
//! traces through IPFIX-lite must reproduce identical classifications.

use spoofwatch::bgp::{mrt, Update};
use spoofwatch::core::Classifier;
use spoofwatch::internet::{Internet, InternetConfig};
use spoofwatch::ixp::{ipfix, Trace, TrafficConfig};
use spoofwatch::net::{Asn, InferenceMethod, IngestStatus, OrgMode};

#[test]
fn classifier_survives_mrt_roundtrip() {
    let net = Internet::generate(InternetConfig::tiny(55));
    let trace = Trace::generate(&net, &TrafficConfig::tiny(3));

    // Persist announcements as an MRT-lite update stream, re-read, and
    // rebuild the classifier from the decoded copy.
    let updates: Vec<Update> = net
        .announcements
        .iter()
        .map(|a| Update::Announce {
            ts: 0,
            peer: a.path.head().unwrap_or(Asn(0)),
            announcement: a.clone(),
        })
        .collect();
    let bytes = mrt::encode(&updates);
    let (decoded, health) = mrt::decode_resilient(&bytes);
    assert_eq!(health.status(), IngestStatus::Ok);
    assert!(health.reconciles());
    let decoded_announcements: Vec<_> = decoded
        .into_iter()
        .map(|u| match u {
            Update::Announce { announcement, .. } => announcement,
            Update::Withdraw { .. } => unreachable!("only announces written"),
        })
        .collect();
    assert_eq!(decoded_announcements, net.announcements);

    let original = Classifier::build(&net.announcements, &net.orgs_dataset);
    let rebuilt = Classifier::build(&decoded_announcements, &net.orgs_dataset);
    let flows = &trace.flows[..5_000.min(trace.flows.len())];
    assert_eq!(
        original.classify_records_batched(flows, InferenceMethod::FullCone, OrgMode::OrgAdjusted),
        rebuilt.classify_records_batched(flows, InferenceMethod::FullCone, OrgMode::OrgAdjusted),
    );
}

#[test]
fn trace_survives_ipfix_roundtrip() {
    let net = Internet::generate(InternetConfig::tiny(55));
    let trace = Trace::generate(&net, &TrafficConfig::tiny(3));
    let bytes = ipfix::encode(&trace.flows);
    let (decoded, health) = ipfix::decode_resilient(&bytes);
    assert_eq!(health.status(), IngestStatus::Ok);
    assert!(health.reconciles());
    assert_eq!(decoded, trace.flows);
    // 36 bytes per record plus the 8-byte header.
    assert_eq!(bytes.len(), ipfix::HEADER_LEN + trace.flows.len() * ipfix::RECORD_LEN);
}

#[test]
fn same_seed_reproduces_everything() {
    let run = || {
        let net = Internet::generate(InternetConfig::tiny(123));
        let trace = Trace::generate(&net, &TrafficConfig::tiny(9));
        let classifier = Classifier::build(&net.announcements, &net.orgs_dataset);
        classifier.classify_trace(
            &trace.flows,
            InferenceMethod::FullCone,
            OrgMode::OrgAdjusted,
        )
    };
    assert_eq!(run(), run());
}
