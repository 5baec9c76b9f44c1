//! Property tests: codec round-trips, total robustness to garbage, and
//! fault-injection recovery for the resilient pcap decoder.

use proptest::prelude::*;
use spoofwatch_net::{AppliedFault, FaultInjector, IngestStatus};
use spoofwatch_packet::flow::extract_flow;
use spoofwatch_packet::{craft, pcap, PcapPacket, PcapWriter};

/// Byte span of every record in a clean classic-pcap stream
/// (24-byte global header, then 16-byte record headers + bodies).
fn pcap_record_spans(clean: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut pos = 24;
    while pos + 16 <= clean.len() {
        let incl = u32::from_le_bytes([
            clean[pos + 8],
            clean[pos + 9],
            clean[pos + 10],
            clean[pos + 11],
        ]) as usize;
        spans.push((pos, pos + 16 + incl));
        pos += 16 + incl;
    }
    spans
}

/// Clean-stream byte ranges a fault can have damaged.
fn damaged_ranges(fault: &AppliedFault, clean_len: usize) -> Vec<(usize, usize)> {
    match *fault {
        AppliedFault::BitFlip { offset, .. } => vec![(offset, offset + 1)],
        AppliedFault::Truncate { new_len } => vec![(new_len, clean_len)],
        AppliedFault::TornTail { torn } => vec![(clean_len - torn, clean_len)],
        AppliedFault::Duplicate { start, .. } => vec![(start.saturating_sub(1), start + 1)],
        AppliedFault::Garbage { offset, .. } => vec![(offset.saturating_sub(1), offset + 1)],
        AppliedFault::Reorder { a, b, len } => vec![(a, a + len), (b, b + len)],
    }
}

fn count_undamaged(spans: &[(usize, usize)], damaged: &[(usize, usize)]) -> usize {
    spans
        .iter()
        .filter(|&&(s, e)| damaged.iter().all(|&(ds, de)| e <= ds || de <= s))
        .count()
}

fn write_capture(pkts: &[PcapPacket]) -> Vec<u8> {
    let mut w = PcapWriter::new(Vec::new()).expect("vec write");
    for p in pkts {
        w.write_packet(p).expect("vec write");
    }
    w.finish().expect("vec write")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Crafted packets always parse back to their own flow fields.
    #[test]
    fn craft_extract_roundtrip(
        src in any::<u32>(), dst in any::<u32>(),
        sport in any::<u16>(), dport in any::<u16>(),
        payload in prop::collection::vec(any::<u8>(), 0..600),
        kind in 0usize..4,
    ) {
        let pkt = match kind {
            0 => craft::tcp_syn(src, dst, sport, dport, 7),
            1 => craft::udp(src, dst, sport, dport, &payload),
            2 => craft::tcp_data(src, dst, sport, dport, 9, &payload),
            _ => craft::icmp_echo(src, dst, sport, 1, &payload),
        };
        let f = extract_flow(&pkt).unwrap();
        prop_assert_eq!(f.src, src);
        prop_assert_eq!(f.dst, dst);
        prop_assert_eq!(f.size as usize, pkt.len());
        if kind < 3 {
            prop_assert_eq!((f.sport, f.dport), (sport, dport));
        }
    }

    /// Arbitrary byte soup must never panic the parser — only return
    /// errors or, rarely, a structurally valid packet.
    #[test]
    fn extract_flow_never_panics(data in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = extract_flow(&data);
    }

    /// Arbitrary bytes behind a valid global header never panic the
    /// walk, and every packet it accepts re-encodes to exactly the bytes
    /// it credited.
    #[test]
    fn pcap_reader_never_panics(data in prop::collection::vec(any::<u8>(), 0..400)) {
        let mut bytes = write_capture(&[]);
        bytes.extend_from_slice(&data);
        let (pkts, health) = pcap::decode_resilient(&bytes);
        prop_assert!(health.reconciles(), "{health}");
        let credited = pkts.iter().map(|p| 16 + p.data.len() as u64).sum::<u64>();
        prop_assert_eq!(24 + credited, health.ok_bytes);
    }

    /// Pcap write→read round-trips arbitrary packet sets byte-exactly,
    /// with clean health.
    #[test]
    fn pcap_roundtrip(
        pkts in prop::collection::vec(
            (any::<u32>(), 0u32..1_000_000, prop::collection::vec(any::<u8>(), 0..100)),
            0..20,
        )
    ) {
        let pkts: Vec<PcapPacket> = pkts
            .into_iter()
            .map(|(s, us, d)| PcapPacket::full(s, us, d))
            .collect();
        let (got, health) = pcap::decode_resilient(&write_capture(&pkts));
        prop_assert_eq!(health.status(), IngestStatus::Ok);
        prop_assert!(health.reconciles());
        prop_assert_eq!(got, pkts);
    }

    /// A cut anywhere yields a prefix of the capture's packets plus a
    /// quarantined torn tail — never a phantom packet.
    #[test]
    fn pcap_truncation_safe(cut_frac in 0.0f64..1.0) {
        let pkts = vec![
            PcapPacket::full(1, 2, vec![1; 30]),
            PcapPacket::full(3, 4, vec![2; 50]),
        ];
        let bytes = write_capture(&pkts);
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        let (got, health) = pcap::decode_resilient(&bytes[..cut]);
        prop_assert!(health.reconciles());
        let whole = [24 + 16 + 30, bytes.len()].iter().filter(|&&end| end <= cut).count();
        prop_assert_eq!(&got[..], &pkts[..whole]);
    }

    /// One injected fault of any kind loses at most the records in the
    /// faulted byte neighborhood; the byte accounting reconciles exactly.
    /// Bodies are printable bytes so a body window cannot masquerade as a
    /// record header during resync.
    #[test]
    fn pcap_single_fault_loses_only_neighborhood(
        pkts in prop::collection::vec(
            (any::<u32>(), 0u32..1_000_000, prop::collection::vec(0x20u8..0x7f, 8..120)),
            3..25,
        ),
        seed in any::<u64>(),
    ) {
        let pkts: Vec<PcapPacket> = pkts
            .into_iter()
            .map(|(s, us, d)| PcapPacket::full(s, us, d))
            .collect();
        let clean = write_capture(&pkts);
        let mut dirty = clean.clone();
        let mut inj = FaultInjector::new(seed).protect_prefix(24);
        let fault = match inj.any_single(&mut dirty, 60) {
            Some(f) => f,
            None => return Ok(()),
        };
        let (recovered, health) = pcap::decode_resilient(&dirty);
        prop_assert!(
            health.reconciles(),
            "accounting broken under {fault:?}: {health}"
        );
        let spans = pcap_record_spans(&clean);
        let undamaged = count_undamaged(&spans, &damaged_ranges(&fault, clean.len()));
        prop_assert!(
            recovered.len() >= undamaged,
            "fault {:?}: recovered {} of {} undamaged records ({} total)",
            fault, recovered.len(), undamaged, pkts.len()
        );
    }

    /// The resilient decoder never panics and always reconciles,
    /// whatever the input.
    #[test]
    fn pcap_resilient_reconciles_on_arbitrary_bytes(
        data in prop::collection::vec(any::<u8>(), 0..400),
    ) {
        let (_, health) = pcap::decode_resilient(&data);
        prop_assert!(health.reconciles(), "{health}");
    }
}

/// Acceptance: with 1% of bytes corrupted, the decoder recovers at least
/// 99% of the unaffected records (`n - hits` floors the unaffected
/// count) with exact byte accounting.
#[test]
fn pcap_one_percent_corruption_recovers_unaffected_records() {
    let n = 5_000usize;
    let pkts: Vec<PcapPacket> = (0..n)
        .map(|i| {
            let i = i as u32;
            let body: Vec<u8> = (0..20 + (i as usize * 13) % 60)
                .map(|j| (0x20 + ((i as usize + j) % 90)) as u8)
                .collect();
            PcapPacket::full(i, i % 1_000_000, body)
        })
        .collect();
    let mut dirty = write_capture(&pkts);
    let hits = FaultInjector::new(81)
        .protect_prefix(24)
        .corrupt_percent(&mut dirty, 1.0);
    assert!(hits > 0, "corruption must actually land");
    let (recovered, health) = pcap::decode_resilient(&dirty);
    assert!(health.reconciles(), "{health}");
    let unaffected = n - hits.min(n);
    assert!(
        recovered.len() as f64 >= 0.99 * unaffected as f64,
        "recovered {} of >= {} unaffected records ({hits} corrupted bytes): {health}",
        recovered.len(),
        unaffected,
    );
}
