//! Differential proof for the compiled classify fast path.
//!
//! The compiled single-walk lookup ([`spoofwatch_core::CompiledClassifier`]
//! fused from bogon set + routed table), as read by the batch kernel
//! and by `classify_explain`, must be **byte-identical** to the oracle
//! `classify_with_tries` (the two-trie-walk pipeline) on every flow,
//! for every method variant. This harness pins them against each other
//! on well over 10⁵ flows: a synthetic-Internet trace (realistic prefix
//! locality and ground-truth spoofing mixes) plus uniform-random source
//! addresses (which hammer bogon boundaries, unrouted gaps, and spill
//! chunks the trace never touches).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spoofwatch_core::{Classifier, MatchedRule, MethodVariant, METHOD_VARIANTS};
use spoofwatch_internet::{bogon, Internet, InternetConfig};
use spoofwatch_ixp::{Trace, TrafficConfig};
use spoofwatch_net::{parse_addr, Asn, FlowRecord, Proto, TrafficClass};

fn flow(src: u32, member: u32) -> FlowRecord {
    FlowRecord {
        ts: 0,
        src,
        dst: 1,
        proto: Proto::Udp,
        sport: 53,
        dport: 53,
        packets: 1,
        bytes: 64,
        pkt_size: 64,
        member: Asn(member),
        ttl: 0,
    }
}

/// A classifier over a generated Internet, plus >10⁵ probe flows:
/// the full synthetic trace and 100k uniform-random sources spread
/// over members that do and do not exist in the topology.
fn world() -> (Classifier, Vec<FlowRecord>) {
    let net = Internet::generate(InternetConfig::tiny(11));
    let mut tc = TrafficConfig::tiny(12);
    tc.regular_flows = 20_000;
    let trace = Trace::generate(&net, &tc);
    let classifier = Classifier::build(&net.announcements, &net.orgs_dataset);

    let mut members: Vec<u32> = trace.flows.iter().map(|f| f.member.0).collect();
    members.sort_unstable();
    members.dedup();
    members.push(999_999); // a member no announcement has ever seen

    let mut rng = StdRng::seed_from_u64(0x5EED_D1FF);
    let mut flows = trace.flows;
    for _ in 0..100_000 {
        let src: u32 = rng.random();
        let member = members[rng.random_range(0..members.len())];
        flows.push(flow(src, member));
    }
    (classifier, flows)
}

#[test]
fn compiled_classes_are_byte_identical_across_all_variants() {
    let (classifier, flows) = world();
    assert!(flows.len() > 100_000, "need >10^5 probe flows");
    let mut per_class = [0u64; 4];
    // The production kernel probes the compiled table once per record
    // for all five variants.
    let rows = classifier.classify_variants_records_batched(&flows);
    for (f, fast) in flows.iter().zip(&rows) {
        for (v, &fast) in METHOD_VARIANTS.iter().zip(fast) {
            let reference = classifier.classify_with_tries(f, v.method, v.org);
            assert_eq!(
                fast, reference,
                "src {:#010x} member {} under {v}",
                f.src, f.member.0
            );
        }
        per_class[fast[4].index()] += 1;
    }
    // The probe set must actually exercise every class, or the
    // equivalence above proves less than it claims.
    for (class, n) in TrafficClass::ALL.iter().zip(per_class) {
        assert!(n > 0, "probe set never produced a {class} flow");
    }
}

#[test]
fn compiled_variants_and_explain_agree_with_reference() {
    let (classifier, flows) = world();
    let bogons = bogon::bogon_set();
    // classify_explain runs its own compiled lookup and all five cone
    // checks, and adds evidence. Sample every 7th flow (the full set
    // goes through the kernel in the test above).
    for f in flows.iter().step_by(7) {
        for v in METHOD_VARIANTS {
            let rec = classifier.classify_explain(f, v.method, v.org);
            assert_eq!(
                rec.class,
                classifier.classify_with_tries(f, v.method, v.org),
                "explain under {v} for src {:#010x}",
                f.src
            );
            if let MatchedRule::Bogon { range } = rec.rule {
                assert_eq!(
                    Some(range),
                    bogons.lookup(f.src),
                    "compiled bogon evidence must be the most specific covering range"
                );
            }
        }
    }
}

/// One flow through the production kernel under one variant.
fn kernel_class(classifier: &Classifier, f: &FlowRecord, v: MethodVariant) -> TrafficClass {
    classifier.classify_records_batched(std::slice::from_ref(f), v.method, v.org)[0]
}

#[test]
fn compiled_pins_the_paper_boundary_addresses() {
    let (classifier, _) = world();
    // Every Team Cymru bogon range: first and last address inside, and
    // the addresses just outside both ends.
    for range in bogon::bogon_set().iter() {
        let size = 1u64 << (32 - range.len());
        let first = range.bits();
        let last = first + (size - 1) as u32;
        for addr in [first, last] {
            for v in METHOD_VARIANTS {
                assert_eq!(
                    kernel_class(&classifier, &flow(addr, 1), v),
                    TrafficClass::Bogon,
                    "{addr:#010x} inside {range}"
                );
            }
        }
        for addr in [first.checked_sub(1), last.checked_add(1)] {
            let Some(addr) = addr else { continue };
            let f = flow(addr, 1);
            for v in METHOD_VARIANTS {
                assert_eq!(
                    kernel_class(&classifier, &f, v),
                    classifier.classify_with_tries(&f, v.method, v.org),
                    "one-off boundary {addr:#010x} outside {range} under {v}"
                );
            }
        }
    }
    // Loopback, broadcast, and the classic documentation prefix.
    for src in ["127.0.0.1", "255.255.255.255", "192.0.2.1"] {
        let f = flow(parse_addr(src).expect("literal"), 1);
        assert_eq!(f.src, parse_addr(src).expect("literal"));
        assert_eq!(kernel_class(&classifier, &f, METHOD_VARIANTS[4]), TrafficClass::Bogon, "{src}");
    }
}
