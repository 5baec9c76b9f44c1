//! Packet-level integration: crafted packets → pcap → header parsing →
//! flow records → classification must agree with the flow-level path.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spoofwatch::core::Classifier;
use spoofwatch::internet::{bogon, Internet, InternetConfig};
use spoofwatch::ixp::PacketSampler;
use spoofwatch::net::{FlowRecord, InferenceMethod, IngestStatus, OrgMode, TrafficClass};
use spoofwatch::packet::flow::extract_flow;
use spoofwatch::packet::{craft, pcap, PcapPacket, PcapWriter};

/// One flow through the production classify path (the batch kernel),
/// Full Cone org-adjusted.
fn classify(c: &Classifier, f: &FlowRecord) -> TrafficClass {
    let (method, org) = (InferenceMethod::FullCone, OrgMode::OrgAdjusted);
    c.classify_records_batched(std::slice::from_ref(f), method, org)[0]
}

#[test]
fn crafted_packets_classify_like_flows() {
    let net = Internet::generate(InternetConfig::tiny(77));
    let classifier = Classifier::build(&net.announcements, &net.orgs_dataset);
    let member = net.ixp_members[0];
    let mut rng = StdRng::seed_from_u64(4);

    // One packet per expected class.
    let own = net.random_addr_of(&mut rng, member).expect("member space");
    let bogon_src = 0x0A01_0203; // 10.1.2.3
    let unrouted_src = loop {
        let a: u32 = rng.random();
        if !bogon::bogon_set().contains_addr(a) && classifier.table().lookup(a).is_none() {
            break a;
        }
    };
    let dst = 0x0808_0808;
    let cases: Vec<(Vec<u8>, Option<TrafficClass>)> = vec![
        (craft::tcp_syn(bogon_src, dst, 1, 80, 1), Some(TrafficClass::Bogon)),
        (craft::tcp_syn(unrouted_src, dst, 1, 80, 1), Some(TrafficClass::Unrouted)),
        (craft::udp(own, dst, 1, 53, b"q"), Some(TrafficClass::Valid)),
        (craft::icmp_echo(own, dst, 1, 1, b"ping"), Some(TrafficClass::Valid)),
    ];

    // Through the capture file.
    let mut w = PcapWriter::new(Vec::new()).unwrap();
    for (i, (pkt, _)) in cases.iter().enumerate() {
        w.write_packet(&PcapPacket::full(i as u32, 0, pkt.clone())).unwrap();
    }
    let (readback, health) = pcap::decode_resilient(&w.finish().unwrap());
    assert_eq!(health.status(), IngestStatus::Ok);
    assert!(health.reconciles());
    assert_eq!(readback.len(), cases.len());

    for (pkt, (_, want)) in readback.iter().zip(&cases) {
        let f = extract_flow(&pkt.data).expect("crafted packets parse");
        let flow = FlowRecord {
            ts: pkt.ts_sec,
            src: f.src,
            dst: f.dst,
            proto: f.proto,
            sport: f.sport,
            dport: f.dport,
            packets: 1,
            bytes: f.size as u64,
            pkt_size: f.size,
            member,
            ttl: f.ttl,
        };
        assert_eq!(classify(&classifier, &flow), want.unwrap());
    }
}

#[test]
fn sampling_preserves_class_but_scales_counts() {
    let net = Internet::generate(InternetConfig::tiny(77));
    let classifier = Classifier::build(&net.announcements, &net.orgs_dataset);
    let member = net.ixp_members[1];
    let mut rng = StdRng::seed_from_u64(5);
    let flow = FlowRecord {
        ts: 0,
        src: 0x0A00_0001,
        dst: 1,
        proto: spoofwatch::net::Proto::Tcp,
        sport: 1,
        dport: 80,
        packets: 0,
        bytes: 0,
        pkt_size: 40,
        member,
        ttl: 0,
    };
    let sampler = PacketSampler::new(100);
    let sampled = sampler
        .sample_flow(&mut rng, flow, 1_000_000)
        .expect("a million packets always sample");
    // Classification depends only on (src, member): identical pre/post.
    assert_eq!(classify(&classifier, &flow), classify(&classifier, &sampled));
    assert_eq!(classify(&classifier, &sampled), TrafficClass::Bogon);
    // Counts scale to ~1/100 with binomial noise.
    assert!((8_000..12_000).contains(&sampled.packets), "{}", sampled.packets);
    assert_eq!(sampled.bytes, sampled.packets as u64 * 40);
}
