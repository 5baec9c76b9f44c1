//! The packet-level path: craft real IPv4 packets, write them to a pcap
//! file, read them back, run 1/10K-style sampling, and classify the
//! resulting flow records — the whole stack below the flow level.
//!
//! ```sh
//! cargo run --release --example pcap_pipeline
//! ```

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spoofwatch::core::Classifier;
use spoofwatch::internet::{Internet, InternetConfig};
use spoofwatch::ixp::sampler::PacketSampler;
use spoofwatch::net::{fmt_addr, FlowRecord, InferenceMethod, OrgMode, Proto};
use spoofwatch::packet::flow::extract_flow;
use spoofwatch::packet::{craft, pcap, PcapPacket, PcapWriter};

fn main() {
    let net = Internet::generate(InternetConfig::tiny(31));
    let classifier = Classifier::build(&net.announcements, &net.orgs_dataset);
    let member = net.ixp_members[3];
    let mut rng = StdRng::seed_from_u64(2);

    // 1. Craft a capture: legitimate UDP, a spoofed SYN flood burst, an
    //    NTP trigger, and a stray router ICMP reply.
    let own = net.random_addr_of(&mut rng, member).expect("member has space");
    let victim = net
        .random_addr_of(&mut rng, net.ixp_members[9])
        .expect("victim space");
    let amplifier = net.ntp_amplifiers.first().map(|&(_, a)| a).unwrap_or(victim);
    let mut packets: Vec<Vec<u8>> = vec![
        craft::udp(own, victim, 40_000, 443, &[0u8; 400]),
        craft::ntp_trigger(victim, amplifier, 55_123),
        craft::icmp_time_exceeded(0x0A00_0001, victim, &craft::udp(own, victim, 1, 2, &[])),
    ];
    for i in 0..50u32 {
        // Randomly spoofed SYNs.
        packets.push(craft::tcp_syn(rng.random(), victim, 1024 + i as u16, 80, i));
    }

    // 2. Write a pcap, read it back (bit-exact).
    let mut w = PcapWriter::new(Vec::new()).expect("header");
    for (i, p) in packets.iter().enumerate() {
        w.write_packet(&PcapPacket::full(i as u32, 0, p.clone())).expect("write");
    }
    let bytes = w.finish().expect("finish");
    println!("pcap: {} packets, {} bytes on disk", packets.len(), bytes.len());
    let (readback, _) = pcap::decode_resilient(&bytes);

    // 3. Parse headers (checksums validated), sample, and classify each
    //    kept packet's flow as if it entered the IXP via `member`.
    let sampler = PacketSampler::new(3); // aggressive sampling for a demo
    let mut flows = Vec::new();
    for pkt in &readback {
        let f = extract_flow(&pkt.data).expect("crafted packets are valid");
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
        // Emulate per-packet sampling: most packets vanish.
        if sampler.sample_flow(&mut rng, flow, 1).is_some() {
            flows.push(flow);
        }
    }
    let kept = flows.len();
    let classes = classifier.classify_trace(&flows, InferenceMethod::FullCone, OrgMode::OrgAdjusted);
    for (flow, class) in flows.iter().zip(classes) {
        let proto = match flow.proto {
            Proto::Tcp => "TCP",
            Proto::Udp => "UDP",
            Proto::Icmp => "ICMP",
            Proto::Other(_) => "?",
        };
        println!(
            "{:>15} -> {:>15} {:>4} dport {:>5} {:>4}B  => {class}",
            fmt_addr(flow.src),
            fmt_addr(flow.dst),
            proto,
            flow.dport,
            flow.pkt_size,
        );
    }
    println!(
        "\nsampled {kept}/{} packets at 1/{} (extrapolate x{})",
        readback.len(),
        sampler.rate(),
        sampler.rate()
    );
}
