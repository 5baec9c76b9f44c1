//! Property tests for the BGP substrate: codec round-trips, robustness to
//! garbage, and RIB semantics against a model.

use proptest::prelude::*;
use spoofwatch_bgp::{mrt, Announcement, AsPath, Rib, Update};
use spoofwatch_net::{AppliedFault, Asn, FaultInjector, IngestStatus, Ipv4Prefix};
use std::collections::HashMap;

/// Byte span of every record in a clean MRT-lite stream (walked via the
/// length framing: 4-byte body length + body).
fn mrt_record_spans(clean: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut pos = 6;
    while pos + 4 <= clean.len() {
        let blen = u32::from_be_bytes([
            clean[pos],
            clean[pos + 1],
            clean[pos + 2],
            clean[pos + 3],
        ]) as usize;
        spans.push((pos, pos + 4 + blen));
        pos += 4 + blen;
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

fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(bits, len)| Ipv4Prefix::new_truncating(bits, len))
}

fn arb_path() -> impl Strategy<Value = AsPath> {
    prop::collection::vec(1u32..100_000, 0..12).prop_map(AsPath::from)
}

fn arb_update() -> impl Strategy<Value = Update> {
    prop_oneof![
        (any::<u64>(), 1u32..1000, arb_prefix(), arb_path()).prop_map(|(ts, peer, prefix, path)| {
            Update::Announce {
                ts,
                peer: Asn(peer),
                announcement: Announcement::new(prefix, path),
            }
        }),
        (any::<u64>(), 1u32..1000, arb_prefix()).prop_map(|(ts, peer, prefix)| Update::Withdraw {
            ts,
            peer: Asn(peer),
            prefix,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// MRT-lite encode→decode is the identity, with clean health.
    #[test]
    fn mrt_roundtrip(updates in prop::collection::vec(arb_update(), 0..40)) {
        let bytes = mrt::encode(&updates);
        let (decoded, health) = mrt::decode_resilient(&bytes);
        prop_assert_eq!(health.status(), IngestStatus::Ok);
        prop_assert!(health.reconciles());
        prop_assert_eq!(decoded, updates);
    }

    /// Arbitrary bytes behind a valid header never panic the walk, and
    /// every record it accepts re-encodes to exactly the bytes it
    /// credited — no phantom, no non-canonical record.
    #[test]
    fn mrt_decode_never_panics(data in prop::collection::vec(any::<u8>(), 0..300)) {
        let mut bytes = mrt::encode(&[]);
        bytes.extend_from_slice(&data);
        let (decoded, health) = mrt::decode_resilient(&bytes);
        prop_assert!(health.reconciles(), "{health}");
        prop_assert_eq!(mrt::encode(&decoded).len() as u64, health.ok_bytes);
    }

    /// Corrupting one byte of a valid stream never panics: a damaged
    /// header abandons the input, a damaged record costs at most that
    /// record, and the accounting reconciles either way.
    #[test]
    fn mrt_corruption_never_panics(
        updates in prop::collection::vec(arb_update(), 1..10),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut bytes = mrt::encode(&updates);
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip;
        let (decoded, health) = mrt::decode_resilient(&bytes);
        prop_assert!(health.reconciles(), "{health}");
        if pos < 6 {
            prop_assert_eq!(health.status(), IngestStatus::Unrecoverable);
        } else {
            prop_assert!(decoded.len() + 1 >= updates.len(), "{health}");
        }
    }

    /// RIB state after an update sequence equals a HashMap model keyed by
    /// (prefix, peer).
    #[test]
    fn rib_matches_model(updates in prop::collection::vec(arb_update(), 0..60)) {
        let mut rib = Rib::new();
        let mut model: HashMap<(Ipv4Prefix, Asn), AsPath> = HashMap::new();
        for u in &updates {
            rib.apply(u);
            match u {
                Update::Announce { peer, announcement, .. } => {
                    model.insert((announcement.prefix, *peer), announcement.path.clone());
                }
                Update::Withdraw { peer, prefix, .. } => {
                    model.remove(&(*prefix, *peer));
                }
            }
        }
        prop_assert_eq!(rib.num_routes(), model.len());
        for ((prefix, peer), path) in &model {
            let routes = rib.routes_for(prefix).expect("prefix present");
            prop_assert_eq!(routes.get(peer), Some(path));
        }
    }

    /// Path algebra: prepending never changes the origin, never creates
    /// loops on a loop-free path, and adjacency endpoints are consistent.
    #[test]
    fn path_prepend_laws(
        base in prop::collection::vec(1u32..1000, 1..8),
        asn in 2000u32..3000,
        count in 1usize..4,
    ) {
        let p = AsPath::from(base);
        let q = p.prepend(Asn(asn), count);
        prop_assert_eq!(q.origin(), p.origin());
        prop_assert_eq!(q.head(), Some(Asn(asn)));
        if !p.has_loop() && !p.contains(Asn(asn)) {
            prop_assert!(!q.has_loop());
        }
        for (l, r) in q.adjacencies() {
            prop_assert_ne!(l, r, "prepending must not create self-edges");
        }
    }

    /// One injected fault of any kind loses at most the records in the
    /// faulted byte neighborhood; the byte accounting reconciles exactly.
    #[test]
    fn mrt_single_fault_loses_only_neighborhood(
        updates in prop::collection::vec(arb_update(), 3..40),
        seed in any::<u64>(),
    ) {
        let clean = mrt::encode(&updates);
        let mut dirty = clean.clone();
        let mut inj = FaultInjector::new(seed).protect_prefix(6);
        let fault = match inj.any_single(&mut dirty, 30) {
            Some(f) => f,
            None => return Ok(()),
        };
        let (recovered, health) = mrt::decode_resilient(&dirty);
        prop_assert!(
            health.reconciles(),
            "accounting broken under {fault:?}: {health}"
        );
        let spans = mrt_record_spans(&clean);
        let undamaged = count_undamaged(&spans, &damaged_ranges(&fault, clean.len()));
        prop_assert!(
            recovered.len() >= undamaged,
            "fault {:?}: recovered {} of {} undamaged records ({} total)",
            fault, recovered.len(), undamaged, updates.len()
        );
    }

    /// The resilient decoder never panics and always reconciles,
    /// whatever the input.
    #[test]
    fn mrt_resilient_reconciles_on_arbitrary_bytes(
        data in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let (_, health) = mrt::decode_resilient(&data);
        prop_assert!(health.reconciles(), "{health}");
    }
}

/// Acceptance: with 1% of bytes corrupted, the decoder recovers at least
/// 99% of the unaffected records (`n - hits` floors the unaffected
/// count) with exact byte accounting.
#[test]
fn mrt_one_percent_corruption_recovers_unaffected_records() {
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(79);
    let n = 1_500usize;
    let updates: Vec<Update> = (0..n)
        .map(|_| {
            let prefix =
                Ipv4Prefix::new_truncating(rng.random(), rng.random_range(8..=24));
            if rng.random_bool(0.8) {
                let hops: Vec<u32> = (0..rng.random_range(1..6))
                    .map(|_| rng.random_range(1..60_000))
                    .collect();
                Update::Announce {
                    ts: rng.random(),
                    peer: Asn(rng.random_range(1..1000)),
                    announcement: Announcement::new(prefix, AsPath::from(hops)),
                }
            } else {
                Update::Withdraw {
                    ts: rng.random(),
                    peer: Asn(rng.random_range(1..1000)),
                    prefix,
                }
            }
        })
        .collect();
    let mut dirty = mrt::encode(&updates);
    let hits = FaultInjector::new(80)
        .protect_prefix(6)
        .corrupt_percent(&mut dirty, 1.0);
    assert!(hits > 0, "corruption must actually land");
    let (recovered, health) = mrt::decode_resilient(&dirty);
    assert!(health.reconciles(), "{health}");
    let unaffected = n - hits.min(n);
    assert!(
        recovered.len() as f64 >= 0.99 * unaffected as f64,
        "recovered {} of >= {} unaffected records ({hits} corrupted bytes): {health}",
        recovered.len(),
        unaffected,
    );
}
