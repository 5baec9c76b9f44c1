//! Attack-pattern forensics (paper §7): isolate the selectively spoofed
//! NTP amplification campaigns and the randomly spoofed floods from a
//! classified trace, profile the amplifier strategies, and measure the
//! reflection loop — then replay a scripted pulse-wave attack through
//! the streaming runner's online detectors and read the incident log
//! back as a forensic timeline.
//!
//! `crates/core/tests/detect_study.rs` proves that the detectors tell
//! the two spoof modes apart and that every incident carries its
//! provenance bundle, in every run mode.
//!
//! ```sh
//! cargo run --release --example attack_forensics
//! ```

mod common;

use common::{Scratch, World};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spoofwatch::analysis::attack::{Fig11a, Fig11c, NtpAnalysis};
use spoofwatch::analysis::incidents::IncidentTimeline;
use spoofwatch::core::detect::{DetectConfig, IncidentKind};
use spoofwatch::core::{
    read_incident_log, CheckpointStore, Classifier, RollupConfig, RunnerConfig, StudyRunner,
};
use spoofwatch::internet::Internet;
use spoofwatch::ixp::chunked::ChunkedIpfixReader;
use spoofwatch::ixp::ipfix;
use spoofwatch::net::{Asn, FlowRecord, InferenceMethod, OrgMode, Proto, TrafficClass};

fn main() {
    let w = World::mid(23, 120_000);
    let (net, trace) = (&w.net, &w.trace);
    let classes = w.classifier.classify_trace(
        &trace.flows,
        InferenceMethod::FullCone,
        OrgMode::OrgAdjusted,
    );

    // Selective vs random spoofing: the source-uniformity signature.
    let fig11a = Fig11a::compute(&trace.flows, &classes, 50);
    println!("{}", fig11a.render());
    println!(
        "random-spoofing signature (all-unique sources): Unrouted {:.0}% of dsts",
        100.0 * fig11a.unique_source_fraction(TrafficClass::Unrouted)
    );
    println!(
        "amplification signature (few sources): Invalid {:.0}% of dsts\n",
        100.0 * fig11a.few_source_fraction(TrafficClass::Invalid)
    );

    // NTP amplification campaigns.
    let ntp = NtpAnalysis::compute(&trace.flows, &classes, 10);
    println!("{}", ntp.render());
    for (i, v) in ntp.victims.iter().take(3).enumerate() {
        let hammered = v.amplifiers.iter().take(3).collect::<Vec<_>>();
        println!(
            "victim #{}: {} trigger pkts via {} amplifiers; hottest: {:?}",
            i + 1,
            v.trigger_packets,
            v.amplifiers.len(),
            hammered
        );
    }

    // The reflection loop: triggers out, amplified responses back.
    let fig11c = Fig11c::compute(&trace.flows, &classes, trace.duration);
    println!("\n{}", fig11c.render());
    println!(
        "=> {} (victim, amplifier) pairs observed in both directions; \
         responses carry {:.1}x the trigger bytes",
        fig11c.matched_pairs, fig11c.amplification
    );

    pulse_wave_detection(net, &w.classifier);
}

/// The scripted pulse-wave scenario: calm traffic, a randomly spoofed
/// pulse, calm again, then a selectively spoofed pulse from one /24 with
/// the attack tool's fixed initial TTL — a seeded random→selective flip
/// mid-trace. Streams it through the runner with online detection and
/// reads the incident log back.
fn pulse_wave_detection(net: &Internet, classifier: &Classifier) {
    println!("\n# Pulse-wave detection (streaming, online detectors)\n");
    let flows = pulse_wave_flows(net);
    let bytes = ipfix::encode(&flows);

    let scratch = Scratch::new("attack-forensics");
    let ring = scratch.join("ring");
    let mut rollup = RollupConfig::new(&ring, 2);
    rollup.detect = Some(DetectConfig::default());
    let store = CheckpointStore::open(scratch.join("ckpt")).expect("open store");
    let mut source = ChunkedIpfixReader::new(&bytes, CHUNK_RECORDS);
    let report = StudyRunner::new(classifier, RunnerConfig::default())
        .with_rollups(rollup)
        .run(&mut source, &store)
        .expect("pulse-wave run");
    println!("streamed {} flows through the runner", report.health.records.processed);

    let (records, _) = read_incident_log(&ring).expect("read incident log");
    let timeline = IncidentTimeline::new(records);
    print!("{}", timeline.render_table());

    // The first burst's drill-down: mode, attribution, and the sampled
    // flows that back it.
    let first_burst = timeline
        .records
        .iter()
        .position(|r| matches!(r.incident.kind, IncidentKind::SpoofBurst { .. }));
    if let Some(detail) = first_burst.and_then(|i| timeline.render_detail(i)) {
        println!("\n{detail}");
    }
}

const CHUNK_RECORDS: usize = 400;

/// Build the scripted flow stream, chunk-aligned so windows land on
/// fixed scenario phases: 4 calm windows, a random pulse window, 2 calm
/// windows, a selective pulse window.
fn pulse_wave_flows(net: &Internet) -> Vec<FlowRecord> {
    let mut rng = StdRng::seed_from_u64(97);
    let member = net.ixp_members[0];
    let leaky = net.ixp_members[1];
    let victim = 0x0808_0808;
    let mut flows = Vec::new();
    // Phase 1: 8 calm chunks (windows 0–3).
    calm_chunks(&mut flows, 8, net, member, victim, &mut rng);
    // Phase 2: the randomly spoofed pulse (window 4) — uniform random
    // sources, jittered hop counts.
    for _ in 0..2 * CHUNK_RECORDS {
        if rng.random_bool(0.5) {
            let src: u32 = rng.random();
            let ttl = 64u8.saturating_sub(rng.random_range(8..24) as u8);
            flows.push(flow(src, victim, leaky, 80, ttl, &mut rng));
        } else {
            let src = net.random_addr_of(&mut rng, member).expect("member space");
            flows.push(flow(src, victim, member, 443, 50 + rng.random_range(0..12) as u8, &mut rng));
        }
    }
    // Phase 3: 4 calm chunks (windows 5–6).
    calm_chunks(&mut flows, 4, net, member, victim, &mut rng);
    // Phase 4: the selective pulse (window 7) — one spoofed /24, the
    // tool's fixed initial TTL of 255 minus a stable path.
    for _ in 0..2 * CHUNK_RECORDS {
        if rng.random_bool(0.5) {
            let src = 0x0A01_0300 + rng.random_range(0..8);
            flows.push(flow(src, victim, leaky, 123, 243, &mut rng));
        } else {
            let src = net.random_addr_of(&mut rng, member).expect("member space");
            flows.push(flow(src, victim, member, 443, 50 + rng.random_range(0..12) as u8, &mut rng));
        }
    }
    flows
}

/// Calm-phase traffic: member-owned sources plus a thin bogon trickle so
/// the suspect-class TTL baseline warms before the pulses hit.
fn calm_chunks(
    flows: &mut Vec<FlowRecord>,
    chunks: usize,
    net: &Internet,
    member: Asn,
    victim: u32,
    rng: &mut StdRng,
) {
    for _ in 0..chunks * CHUNK_RECORDS {
        let (src, ttl) = if rng.random_bool(0.02) {
            (0x0A01_0200 + rng.random_range(0..256), 58 + rng.random_range(0..4) as u8)
        } else {
            let src = net
                .random_addr_of(rng, member)
                .expect("member has address space");
            (src, 50 + rng.random_range(0..12) as u8)
        };
        flows.push(flow(src, victim, member, 443, ttl, rng));
    }
}

fn flow(src: u32, dst: u32, member: Asn, dport: u16, ttl: u8, rng: &mut StdRng) -> FlowRecord {
    FlowRecord {
        ts: rng.random_range(0..3600),
        src,
        dst,
        proto: Proto::Udp,
        sport: rng.random_range(1025..65000),
        dport,
        packets: 1,
        bytes: 40,
        pkt_size: 40,
        member,
        ttl,
    }
}
