//! Property tests: the classification pipeline against its components.

use proptest::prelude::*;
use spoofwatch_asgraph::As2Org;
use spoofwatch_bgp::{Announcement, AsPath};
use spoofwatch_core::detect::SLASH24_BUCKETS;
use spoofwatch_core::{detect_over_windows, Classifier, DetectConfig, WindowAccum, WindowDetect};
use spoofwatch_internet::bogon;
use spoofwatch_net::{Asn, FlowRecord, InferenceMethod, Ipv4Prefix, OrgMode, Proto, TrafficClass};
use std::collections::BTreeMap;

fn arb_corpus() -> impl Strategy<Value = Vec<Announcement>> {
    // Prefixes in a handful of /8s, short paths over a small AS pool.
    prop::collection::vec(
        (
            20u32..60,
            8u8..=24,
            any::<u32>(),
            prop::collection::vec(1u32..40, 1..5),
        ),
        1..40,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(octet, len, low, path)| {
                let bits = (octet << 24) | (low & 0x00FF_FFFF);
                Announcement::new(
                    Ipv4Prefix::new_truncating(bits, len),
                    AsPath::from(path),
                )
            })
            .collect()
    })
}

/// A flow with detector-relevant fields drawn from the proptest input:
/// `(src, member, ttl, class index)`.
fn detect_flow(src: u32, member: u32, ttl: u8, sport: u16) -> FlowRecord {
    FlowRecord {
        ts: src.rotate_left(7),
        src,
        dst: 0x0808_0808,
        proto: Proto::Udp,
        sport,
        dport: 80,
        packets: 1,
        bytes: 40,
        pkt_size: 40,
        member: Asn(member),
        ttl,
    }
}

/// Unpack the raw proptest tuples into parallel flow/class vectors.
fn detect_corpus(raw: &[(u32, u32, u8, usize)]) -> (Vec<FlowRecord>, Vec<TrafficClass>) {
    let flows = raw
        .iter()
        .map(|&(src, member, ttl, _)| detect_flow(src, member, ttl, (src % 60_000) as u16))
        .collect();
    let classes = raw.iter().map(|&(.., class)| TrafficClass::ALL[class % 4]).collect();
    (flows, classes)
}

/// Exact binary entropy, 0 at the endpoints.
fn h2(p: f64) -> f64 {
    if p <= 0.0 || p >= 1.0 {
        0.0
    } else {
        -p * p.log2() - (1.0 - p) * (1.0 - p).log2()
    }
}

/// A detect payload stripped of its reservoir samples, for comparing
/// the count fields alone.
fn counts_only(d: &WindowDetect) -> WindowDetect {
    let mut c = d.clone();
    c.samples.clear();
    c
}

/// Build one window accum holding `detect` over the given classes.
fn window_of(index: u64, classes: &[TrafficClass], detect: WindowDetect) -> WindowAccum {
    let mut w = WindowAccum::start(index, index * 2);
    w.chunks = 2;
    for c in classes {
        w.class_flows[c.index()] += 1;
    }
    w.detect = Some(detect);
    w
}

fn flow(src: u32, member: u32) -> FlowRecord {
    FlowRecord {
        ts: 0,
        src,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The pipeline's first two stages are exactly the component checks:
    /// Bogon ⇔ bogon-list LPM hit; Unrouted ⇔ miss in the routed table
    /// (given not bogon). And the invalid stage never fires for a
    /// member's own origins.
    #[test]
    fn pipeline_stages_match_components(
        corpus in arb_corpus(),
        probes in prop::collection::vec(any::<u32>(), 1..60),
        member in 1u32..40,
    ) {
        let classifier = Classifier::build(&corpus, &As2Org::new());
        let bogons = bogon::bogon_set();
        for src in probes {
            let class = classify(
                &classifier,
                &flow(src, member),
                InferenceMethod::FullCone,
                OrgMode::OrgAdjusted,
            );
            let is_bogon = bogons.contains_addr(src);
            let routed = classifier.table().lookup(src);
            match class {
                TrafficClass::Bogon => prop_assert!(is_bogon),
                TrafficClass::Unrouted => {
                    prop_assert!(!is_bogon);
                    prop_assert!(routed.is_none());
                }
                TrafficClass::Invalid | TrafficClass::Valid => {
                    prop_assert!(!is_bogon);
                    prop_assert!(routed.is_some());
                }
            }
            // Own origins are always valid.
            if let Some((_, info)) = routed {
                if !is_bogon && info.has_origin(Asn(member)) {
                    prop_assert_eq!(class, TrafficClass::Valid);
                }
            }
        }
    }

    /// Method monotonicity on arbitrary corpora: Naive never tags less
    /// Invalid than FULL (per flow: FULL=Invalid ⇒ NAIVE=Invalid), and
    /// org adjustment never creates Invalid.
    #[test]
    fn method_monotonicity(
        corpus in arb_corpus(),
        probes in prop::collection::vec((any::<u32>(), 1u32..40), 1..60),
    ) {
        let classifier = Classifier::build(&corpus, &As2Org::new());
        for (src, member) in probes {
            let f = flow(src, member);
            let full = classify(&classifier, &f, InferenceMethod::FullCone, OrgMode::Plain);
            let naive = classify(&classifier, &f, InferenceMethod::Naive, OrgMode::Plain);
            // Naive valid ⇒ member on some path of the prefix ⇒ member
            // reaches the origin in the path graph ⇒ FULL valid.
            if naive == TrafficClass::Valid {
                prop_assert_eq!(full, TrafficClass::Valid, "src {:#x} member {}", src, member);
            }
            let full_org =
                classify(&classifier, &f, InferenceMethod::FullCone, OrgMode::OrgAdjusted);
            if full == TrafficClass::Valid {
                prop_assert_eq!(full_org, TrafficClass::Valid);
            }
        }
    }

    /// Org adjustment with sibling groups validates exactly the sibling
    /// origins (and never invalidates anything).
    #[test]
    fn org_adjustment_is_additive(
        corpus in arb_corpus(),
        group in prop::collection::hash_set(1u32..40, 2..5),
        probes in prop::collection::vec((any::<u32>(), 1u32..40), 1..40),
    ) {
        let orgs = As2Org::from_pairs(group.iter().map(|&a| (Asn(a), 1u32)));
        let classifier = Classifier::build(&corpus, &orgs);
        for (src, member) in probes {
            let f = flow(src, member);
            let plain = classify(&classifier, &f, InferenceMethod::FullCone, OrgMode::Plain);
            let adjusted =
                classify(&classifier, &f, InferenceMethod::FullCone, OrgMode::OrgAdjusted);
            if plain == TrafficClass::Valid {
                prop_assert_eq!(adjusted, TrafficClass::Valid);
            }
            // A flip Invalid→Valid is possible only through the added
            // org mesh; verify the sound direction constructively: with
            // an empty org dataset the adjusted classification must be
            // identical to plain.
            let no_orgs = Classifier::build(&corpus, &As2Org::new());
            prop_assert_eq!(
                classify(&no_orgs, &f, InferenceMethod::FullCone, OrgMode::OrgAdjusted),
                classify(&no_orgs, &f, InferenceMethod::FullCone, OrgMode::Plain),
            );
        }
    }

    /// The streaming entropy estimators against exact batch
    /// computation: the per-bit sketch is exact (its one-counts are
    /// lossless), and the hashed /24 sketch brackets the true /24
    /// source entropy within the documented bounds —
    /// `H_sketch <= H_exact <= H_sketch + log2(max /24s per bucket)`.
    #[test]
    fn entropy_sketches_match_exact_batch_entropy(
        srcs in prop::collection::vec(any::<u32>(), 1..250),
    ) {
        let flows: Vec<FlowRecord> =
            srcs.iter().map(|&s| detect_flow(s, 1, 0, 80)).collect();
        let classes = vec![TrafficClass::Bogon; flows.len()];
        let d = WindowDetect::from_chunk(&flows, &classes, 7, 0);

        // Per-bit: exact by construction.
        let n = srcs.len() as f64;
        let exact_bits: f64 = (0..32)
            .map(|bit| {
                let ones = srcs.iter().filter(|&&s| (s >> (31 - bit)) & 1 == 1).count();
                h2(ones as f64 / n)
            })
            .sum();
        prop_assert!((d.bit_entropy() - exact_bits / 32.0).abs() < 1e-9);

        // /24 sketch: a coarsening of the true /24 distribution.
        let mut per24: BTreeMap<u32, u64> = BTreeMap::new();
        for &s in &srcs {
            *per24.entry(s >> 8).or_default() += 1;
        }
        let h_exact: f64 = per24
            .values()
            .map(|&c| {
                let p = c as f64 / n;
                -p * p.log2()
            })
            .sum();
        let h_sketch = d.slash24_entropy() * (SLASH24_BUCKETS as f64).log2();
        prop_assert!(h_sketch <= h_exact + 1e-9, "{h_sketch} > {h_exact}");

        // Recover each /24's bucket through a singleton payload, count
        // distinct /24s per bucket, and check the coarsening bound.
        let mut per_bucket = vec![0u64; SLASH24_BUCKETS];
        for &p24 in per24.keys() {
            let probe = detect_flow(p24 << 8, 1, 0, 80);
            let single =
                WindowDetect::from_chunk(&[probe], &[TrafficClass::Bogon], 7, 0);
            let bucket = single
                .slash24
                .iter()
                .position(|&c| c > 0)
                .expect("a suspect flow lands in a bucket");
            per_bucket[bucket] += 1;
        }
        let worst = per_bucket.iter().copied().max().unwrap_or(1).max(1);
        prop_assert!(
            h_exact <= h_sketch + (worst as f64).log2() + 1e-9,
            "{h_exact} > {h_sketch} + log2({worst})"
        );
    }

    /// Partition invariance of the window payload: splitting one
    /// chunk's flows into two arbitrary interleaved subsets (the shard
    /// plan's view) and merging yields exactly the whole-chunk payload,
    /// reservoir samples included.
    #[test]
    fn window_payload_is_partition_invariant(
        raw in prop::collection::vec(
            ((any::<u32>(), 1u32..6, any::<u8>(), 0usize..4), any::<bool>()),
            2..120,
        ),
        seed in any::<u64>(),
        seq in 0u64..1_000,
    ) {
        let tuples: Vec<(u32, u32, u8, usize)> = raw.iter().map(|&(t, _)| t).collect();
        let (flows, classes) = detect_corpus(&tuples);
        let whole = WindowDetect::from_chunk(&flows, &classes, seed, seq);

        let mut left = (Vec::new(), Vec::new());
        let mut right = (Vec::new(), Vec::new());
        for (i, &(_, side)) in raw.iter().enumerate() {
            let into = if side { &mut left } else { &mut right };
            into.0.push(flows[i]);
            into.1.push(classes[i]);
        }
        let mut merged = WindowDetect::from_chunk(&left.0, &left.1, seed, seq);
        merged.merge(&WindowDetect::from_chunk(&right.0, &right.1, seed, seq));
        prop_assert_eq!(merged, whole);
    }

    /// Page–Hinkley / detector determinism across chunk-boundary
    /// splits: re-chunking each window's flows (different chunk
    /// sequence numbers, different cut points) never changes the count
    /// fields or the incident set — only the reservoir draw.
    #[test]
    fn incidents_depend_on_windows_not_chunk_boundaries(
        windows_raw in prop::collection::vec(
            (
                prop::collection::vec((any::<u32>(), 1u32..6, any::<u8>(), 0usize..4), 1..60),
                any::<usize>(),
            ),
            1..8,
        ),
        seed in any::<u64>(),
    ) {
        let mut single_chunk = Vec::new();
        let mut split_chunks = Vec::new();
        for (i, (raw, cut)) in windows_raw.iter().enumerate() {
            let (flows, classes) = detect_corpus(raw);
            let base_seq = (i as u64) * 2;
            // Chunking A: the whole window in one chunk.
            let a = WindowDetect::from_chunk(&flows, &classes, seed, base_seq);
            // Chunking B: cut at an arbitrary point, two sequences.
            let k = cut % (flows.len() + 1);
            let mut b = WindowDetect::from_chunk(&flows[..k], &classes[..k], seed, base_seq);
            b.merge(&WindowDetect::from_chunk(&flows[k..], &classes[k..], seed, base_seq + 1));
            prop_assert_eq!(counts_only(&a), counts_only(&b));
            single_chunk.push(window_of(i as u64, &classes, a));
            split_chunks.push(window_of(i as u64, &classes, b));
        }
        let cfg = DetectConfig::default();
        let from_single = detect_over_windows(&single_chunk, &cfg);
        let from_split = detect_over_windows(&split_chunks, &cfg);
        let kinds = |records: &[spoofwatch_core::IncidentRecord]| -> Vec<(u64, spoofwatch_core::IncidentKind)> {
            records
                .iter()
                .map(|r| (r.incident.window_index, r.incident.kind.clone()))
                .collect()
        };
        prop_assert_eq!(kinds(&from_single), kinds(&from_split));
    }
}
