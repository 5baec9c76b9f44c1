//! Property tests: IPFIX-lite codec round-trips, sampler statistics, and
//! fault-injection recovery for the resilient decoder.

use proptest::prelude::*;
use spoofwatch_ixp::ipfix;
use spoofwatch_ixp::PacketSampler;
use spoofwatch_net::{AppliedFault, Asn, FaultInjector, FlowRecord, IngestStatus, Proto};

/// Any record the decoder accepts: plausibility (`packets >= 1`,
/// `20 <= pkt_size <= 9216`, `bytes == packets * pkt_size`) is the
/// format's only corruption signal, so these are exactly the records
/// that round-trip, and every exporter in the tree writes them.
fn arb_flow() -> impl Strategy<Value = FlowRecord> {
    (
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<u8>()),
        (any::<u16>(), any::<u16>(), 1u32..=u32::MAX, 20u16..=9216),
        (any::<u32>(), any::<u8>()),
    )
        .prop_map(
            |((ts, src, dst, proto), (sport, dport, packets, pkt_size), (member, ttl))| {
                FlowRecord {
                    ts,
                    src,
                    dst,
                    proto: Proto::from_number(proto),
                    sport,
                    dport,
                    packets,
                    bytes: packets as u64 * pkt_size as u64,
                    pkt_size,
                    member: Asn(member),
                    ttl,
                }
            },
        )
}

/// Flows that satisfy the traffic generator's invariant
/// (`bytes == packets * pkt_size`), which is what the resilient decoder
/// keys its record-plausibility check on.
fn arb_plausible_flow() -> impl Strategy<Value = FlowRecord> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u8>(),
        any::<u16>(),
        any::<u16>(),
        1u32..10_000,
        40u16..1500,
        any::<u32>(),
    )
        .prop_map(
            |(ts, src, dst, proto, sport, dport, packets, pkt_size, member)| FlowRecord {
                ts,
                src,
                dst,
                proto: Proto::from_number(proto),
                sport,
                dport,
                packets,
                bytes: packets as u64 * pkt_size as u64,
                pkt_size,
                member: Asn(member),
                ttl: 0,
            },
        )
}

/// Clean-stream byte ranges a fault can have damaged. Insertions shift
/// everything after the insertion point, but only the record straddling
/// that point can actually be lost.
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

/// How many of `spans` intersect none of `damaged`.
fn count_undamaged(spans: &[(usize, usize)], damaged: &[(usize, usize)]) -> usize {
    spans
        .iter()
        .filter(|&&(s, e)| damaged.iter().all(|&(ds, de)| e <= ds || de <= s))
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One injected fault of any kind loses at most the records in the
    /// faulted byte neighborhood, and the health accounting reconciles
    /// exactly.
    #[test]
    fn ipfix_single_fault_loses_only_neighborhood(
        flows in prop::collection::vec(arb_plausible_flow(), 3..40),
        seed in any::<u64>(),
    ) {
        let clean = ipfix::encode(&flows);
        let mut dirty = clean.clone();
        let mut inj = FaultInjector::new(seed).protect_prefix(ipfix::HEADER_LEN);
        let fault = match inj.any_single(&mut dirty, ipfix::RECORD_LEN) {
            Some(f) => f,
            None => return Ok(()),
        };
        let (recovered, health) = ipfix::decode_resilient(&dirty);
        prop_assert!(
            health.reconciles(),
            "accounting broken under {fault:?}: {health}"
        );
        let spans: Vec<(usize, usize)> =
            (0..flows.len())
                .map(|i| {
                    (
                        ipfix::HEADER_LEN + ipfix::RECORD_LEN * i,
                        ipfix::HEADER_LEN + ipfix::RECORD_LEN * (i + 1),
                    )
                })
                .collect();
        let undamaged = count_undamaged(&spans, &damaged_ranges(&fault, clean.len()));
        prop_assert!(
            recovered.len() >= undamaged,
            "fault {:?}: recovered {} of {} undamaged records ({} total)",
            fault, recovered.len(), undamaged, flows.len()
        );
    }

    /// The resilient decoder never panics and always reconciles its byte
    /// accounting, whatever the input.
    #[test]
    fn ipfix_resilient_reconciles_on_arbitrary_bytes(
        data in prop::collection::vec(any::<u8>(), 0..400),
    ) {
        let (_, health) = ipfix::decode_resilient(&data);
        prop_assert!(health.reconciles(), "{health}");
    }

    /// IPFIX-lite encode→decode is the identity for every plausible
    /// record, with clean health.
    #[test]
    fn ipfix_roundtrip(flows in prop::collection::vec(arb_flow(), 0..50)) {
        let bytes = ipfix::encode(&flows);
        let (decoded, health) = ipfix::decode_resilient(&bytes);
        prop_assert_eq!(health.status(), IngestStatus::Ok);
        prop_assert!(health.reconciles());
        prop_assert_eq!(decoded, flows);
    }

    /// Arbitrary bytes behind a valid v1 or v2 header never panic the
    /// walk, and whatever it accepts is a plausible record on the stride.
    #[test]
    fn ipfix_decode_never_panics(
        data in prop::collection::vec(any::<u8>(), 0..300),
        v1 in any::<bool>(),
    ) {
        let (mut bytes, record_len) = if v1 {
            (ipfix::encode_v1(&[]), ipfix::V1_RECORD_LEN)
        } else {
            (ipfix::encode(&[]), ipfix::RECORD_LEN)
        };
        let header_len = bytes.len() as u64;
        bytes.extend_from_slice(&data);
        let (decoded, health) = ipfix::decode_resilient(&bytes);
        prop_assert!(health.reconciles(), "{health}");
        prop_assert!(decoded.iter().all(ipfix::plausible_record));
        prop_assert_eq!(health.ok_bytes, header_len + decoded.len() as u64 * record_len as u64);
    }

    /// A cut anywhere yields a prefix of the input's records plus a
    /// quarantined torn tail — never a phantom record.
    #[test]
    fn ipfix_truncation_yields_prefix(
        flows in prop::collection::vec(arb_flow(), 1..20),
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = ipfix::encode(&flows);
        let body = ((bytes.len() - ipfix::HEADER_LEN) as f64 * cut_frac) as usize;
        let (decoded, health) = ipfix::decode_resilient(&bytes[..ipfix::HEADER_LEN + body]);
        prop_assert!(health.reconciles());
        prop_assert_eq!(&decoded[..], &flows[..body / ipfix::RECORD_LEN]);
        prop_assert_eq!(health.quarantined_bytes, (body % ipfix::RECORD_LEN) as u64);
    }

    /// The sampler never produces more sampled than true packets, and
    /// rate 1 is the identity.
    #[test]
    fn sampler_bounds(true_packets in 0u64..100_000, rate in 1u32..10_000, seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let s = PacketSampler::new(rate);
        let k = s.sample_count(&mut rng, true_packets);
        if rate == 1 {
            prop_assert_eq!(k as u64, true_packets);
        }
        // Allow generous slack for the normal approximation's tail.
        let p = 1.0 / rate as f64;
        let mean = true_packets as f64 * p;
        let sd = (true_packets as f64 * p * (1.0 - p)).sqrt();
        prop_assert!((k as f64) <= mean + 8.0 * sd + 1.0, "k={k} mean={mean} sd={sd}");
    }
}

/// Acceptance: with 1% of bytes corrupted, the decoder recovers at least
/// 99% of the unaffected records (each flipped byte can affect at most
/// one record, so `n - hits` is a floor on the unaffected count) and the
/// byte accounting stays exact.
#[test]
fn ipfix_one_percent_corruption_recovers_unaffected_records() {
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(77);
    let n = 2_000usize;
    let flows: Vec<FlowRecord> = (0..n)
        .map(|_| {
            let packets: u32 = rng.random_range(1..500);
            let pkt_size: u16 = rng.random_range(40..1500);
            FlowRecord {
                ts: rng.random(),
                src: rng.random(),
                dst: rng.random(),
                proto: Proto::from_number(rng.random_range(0..20)),
                sport: rng.random(),
                dport: rng.random(),
                packets,
                bytes: packets as u64 * pkt_size as u64,
                pkt_size,
                member: Asn(rng.random_range(1..60_000)),
                ttl: 0,
            }
        })
        .collect();
    let mut dirty = ipfix::encode(&flows);
    let hits = FaultInjector::new(78)
        .protect_prefix(ipfix::HEADER_LEN)
        .corrupt_percent(&mut dirty, 1.0);
    assert!(hits > 0, "corruption must actually land");
    let (recovered, health) = ipfix::decode_resilient(&dirty);
    assert!(health.reconciles(), "{health}");
    let unaffected = n - hits.min(n);
    assert!(
        recovered.len() as f64 >= 0.99 * unaffected as f64,
        "recovered {} of >= {} unaffected records ({hits} corrupted bytes): {health}",
        recovered.len(),
        unaffected,
    );
}
