//! Property tests checking the Patricia trie against a brute-force model.

use proptest::prelude::*;
use spoofwatch_net::Ipv4Prefix;
use spoofwatch_trie::{FrozenLpm, PrefixSet, PrefixTrie};
use std::collections::{BTreeMap, HashMap};

/// Arbitrary canonical prefix, biased toward a small universe so nesting
/// and sibling collisions actually happen.
fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (0u32..=0xFFFF_FFFF, 0u8..=32).prop_map(|(bits, len)| Ipv4Prefix::new_truncating(bits, len))
}

/// Prefixes confined to 10.0.0.0/8 with lengths 8..=28 — a dense universe.
fn arb_dense_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (0u32..=0x00FF_FFFF, 8u8..=28).prop_map(|(low, len)| {
        Ipv4Prefix::new_truncating(0x0A00_0000 | low, len)
    })
}

/// Brute-force longest-prefix match over a model map.
fn model_lpm(model: &HashMap<Ipv4Prefix, u32>, addr: u32) -> Option<(Ipv4Prefix, u32)> {
    model
        .iter()
        .filter(|(p, _)| p.contains(addr))
        .max_by_key(|(p, _)| p.len())
        .map(|(p, v)| (*p, *v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// LPM over the trie must agree with a linear scan, for arbitrary
    /// insert sequences.
    #[test]
    fn lpm_matches_linear_scan(
        prefixes in prop::collection::vec((arb_dense_prefix(), 0u32..1000), 1..60),
        probes in prop::collection::vec(0x0A00_0000u32..=0x0AFF_FFFF, 1..40),
    ) {
        let mut trie = PrefixTrie::new();
        let mut model = HashMap::new();
        for (p, v) in &prefixes {
            trie.insert(*p, *v);
            model.insert(*p, *v);
        }
        trie.check_invariants().unwrap();
        prop_assert_eq!(trie.len(), model.len());
        for addr in probes {
            let got = trie.lookup(addr).map(|(p, v)| (p, *v));
            let want = model_lpm(&model, addr);
            prop_assert_eq!(got, want, "addr {:#x}", addr);
        }
    }

    /// Interleaved inserts and removes must track the model exactly and
    /// never violate structural invariants.
    #[test]
    fn insert_remove_tracks_model(
        ops in prop::collection::vec((arb_dense_prefix(), 0u32..100, prop::bool::ANY), 1..120),
        probes in prop::collection::vec(0x0A00_0000u32..=0x0AFF_FFFF, 1..20),
    ) {
        let mut trie = PrefixTrie::new();
        let mut model = HashMap::new();
        for (p, v, is_insert) in &ops {
            if *is_insert {
                prop_assert_eq!(trie.insert(*p, *v), model.insert(*p, *v));
            } else {
                prop_assert_eq!(trie.remove(p), model.remove(p));
            }
        }
        trie.check_invariants().unwrap();
        prop_assert_eq!(trie.len(), model.len());
        for (p, v) in &model {
            prop_assert_eq!(trie.get(p), Some(v));
        }
        for addr in probes {
            prop_assert_eq!(trie.lookup(addr).map(|(p, v)| (p, *v)), model_lpm(&model, addr));
        }
    }

    /// `matches` must return exactly the covering chain, least specific
    /// first.
    #[test]
    fn matches_is_the_covering_chain(
        prefixes in prop::collection::vec(arb_dense_prefix(), 1..40),
        addr in 0x0A00_0000u32..=0x0AFF_FFFF,
    ) {
        let trie: PrefixTrie<u32> = prefixes.iter().map(|p| (*p, 0u32)).collect();
        let got: Vec<_> = trie.matches(addr).into_iter().map(|(p, _)| p).collect();
        let mut want: Vec<_> = prefixes
            .iter()
            .copied()
            .filter(|p| p.contains(addr))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        want.sort_by_key(|p| p.len());
        prop_assert_eq!(got, want);
    }

    /// The union size must equal the count of distinct /28 blocks covered
    /// (lengths are capped at /28, so /28 granularity is exact).
    #[test]
    fn covered_units_counts_distinct_space(
        prefixes in prop::collection::vec(
            // Lengths ≥16 keep the /28-block model small enough to be fast.
            (0u32..=0x00FF_FFFF, 16u8..=28).prop_map(|(low, len)| {
                Ipv4Prefix::new_truncating(0x0A00_0000 | low, len)
            }),
            1..30,
        ),
    ) {
        let set: PrefixSet = prefixes.iter().collect();
        let mut blocks = std::collections::HashSet::new();
        for p in &prefixes {
            let start = p.first() >> 4; // /28 blocks
            let end = p.last() >> 4;
            for b in start..=end {
                blocks.insert(b);
            }
        }
        prop_assert_eq!(set.covered_units(), blocks.len() as u64 * 16);
    }

    /// Aggregation must preserve covered space exactly while never growing
    /// the prefix count, and must be idempotent.
    #[test]
    fn aggregate_preserves_space_and_shrinks(
        prefixes in prop::collection::vec(arb_dense_prefix(), 1..40),
    ) {
        let set: PrefixSet = prefixes.iter().collect();
        let agg = set.aggregate();
        prop_assert_eq!(agg.covered_units(), set.covered_units());
        prop_assert!(agg.len() <= set.len());
        let again = agg.aggregate();
        prop_assert_eq!(again.len(), agg.len());
        prop_assert_eq!(again.covered_units(), agg.covered_units());
        // Every original address is still covered: probe boundaries.
        for p in &prefixes {
            prop_assert!(agg.contains_addr(p.first()));
            prop_assert!(agg.contains_addr(p.last()));
        }
    }

    /// Set algebra must match per-address semantics: probe membership of
    /// difference and intersection against the two inputs.
    #[test]
    fn difference_intersection_match_membership(
        a in prop::collection::vec(arb_dense_prefix(), 1..25),
        b in prop::collection::vec(arb_dense_prefix(), 1..25),
        probes in prop::collection::vec(0x0A00_0000u32..=0x0AFF_FFFF, 1..60),
    ) {
        let sa: PrefixSet = a.iter().collect();
        let sb: PrefixSet = b.iter().collect();
        let diff = sa.difference(&sb);
        let inter = sa.intersection(&sb);
        for addr in probes {
            let ina = sa.contains_addr(addr);
            let inb = sb.contains_addr(addr);
            prop_assert_eq!(diff.contains_addr(addr), ina && !inb, "diff at {:#x}", addr);
            prop_assert_eq!(inter.contains_addr(addr), ina && inb, "inter at {:#x}", addr);
        }
        // Sizes partition: |A| = |A∖B| + |A∩B|.
        prop_assert_eq!(
            sa.covered_units(),
            diff.covered_units() + inter.covered_units()
        );
    }

    /// Intervals are sorted, disjoint, non-adjacent, and sum to the
    /// covered units.
    #[test]
    fn intervals_are_canonical(
        prefixes in prop::collection::vec(arb_prefix(), 1..40),
    ) {
        let set: PrefixSet = prefixes.iter().collect();
        let iv = set.intervals();
        let mut sum = 0u64;
        for w in iv.windows(2) {
            prop_assert!(w[0].1 < w[1].0, "sorted, disjoint, merged: {:?}", iv);
        }
        for (s, e) in &iv {
            prop_assert!(s < e);
            sum += e - s;
        }
        prop_assert_eq!(sum, set.covered_units());
    }

    /// Iteration yields prefixes in strictly ascending (bits, len) order
    /// with no duplicates.
    #[test]
    fn iteration_sorted_unique(
        prefixes in prop::collection::vec(arb_prefix(), 1..60),
    ) {
        let trie: PrefixTrie<()> = prefixes.iter().map(|p| (*p, ())).collect();
        let got: Vec<_> = trie.iter().map(|(p, _)| p).collect();
        for w in got.windows(2) {
            prop_assert!(w[0] < w[1], "not strictly ascending: {} vs {}", w[0], w[1]);
        }
        prop_assert_eq!(got.len(), trie.len());
    }

    /// Free-list reuse under interleaved insert/remove: structural
    /// invariants (including the arena-leak check, which counts free
    /// slots) must hold after *every* operation, not just at the end,
    /// and the final map must match a BTreeMap oracle — including LPM.
    #[test]
    fn op_sequence_holds_invariants_throughout(
        ops in prop::collection::vec(
            (arb_tight_prefix(), 0u32..100, prop::bool::ANY),
            1..150,
        ),
        probes in prop::collection::vec(0x0A00_0000u32..=0x0AFF_FFFF, 1..20),
    ) {
        let mut trie = PrefixTrie::new();
        let mut oracle: BTreeMap<Ipv4Prefix, u32> = BTreeMap::new();
        for (step, (p, v, is_insert)) in ops.iter().enumerate() {
            if *is_insert {
                prop_assert_eq!(trie.insert(*p, *v), oracle.insert(*p, *v), "step {}", step);
            } else {
                prop_assert_eq!(trie.remove(p), oracle.remove(p), "step {}", step);
            }
            if let Err(e) = trie.check_invariants() {
                prop_assert!(false, "invariants broken at step {step} ({p}): {e}");
            }
        }
        prop_assert_eq!(trie.len(), oracle.len());
        for (p, v) in &oracle {
            prop_assert_eq!(trie.get(p), Some(v));
        }
        for addr in probes {
            let want = oracle
                .iter()
                .filter(|(p, _)| p.contains(addr))
                .max_by_key(|(p, _)| p.len())
                .map(|(p, v)| (*p, *v));
            prop_assert_eq!(trie.lookup(addr).map(|(p, v)| (p, *v)), want);
        }
    }

    /// Differential: `FrozenLpm` compiled from a trie built by an
    /// arbitrary insert/remove sequence must return the exact same
    /// `(prefix, value)` as `PrefixTrie::lookup` for every probe —
    /// random addresses plus the boundary addresses of every prefix
    /// that ever appeared in the sequence.
    #[test]
    fn frozen_matches_trie_after_ops(
        ops in prop::collection::vec(
            (arb_deep_prefix(), 0u32..1000, prop::bool::ANY),
            1..80,
        ),
        probes in prop::collection::vec(any::<u32>(), 1..40),
    ) {
        let mut trie = PrefixTrie::new();
        for (p, v, is_insert) in &ops {
            if *is_insert {
                trie.insert(*p, *v);
            } else {
                trie.remove(p);
            }
        }
        let frozen = trie.freeze();
        prop_assert_eq!(frozen.len(), trie.len());
        let mut addrs: Vec<u32> = probes;
        for (p, _, _) in &ops {
            addrs.extend([
                p.first(),
                p.last(),
                p.first().wrapping_sub(1),
                p.last().wrapping_add(1),
            ]);
        }
        for addr in addrs {
            prop_assert_eq!(
                frozen.lookup(addr).map(|(p, v)| (p, *v)),
                trie.lookup(addr).map(|(p, v)| (p, *v)),
                "addr {:#010x}",
                addr
            );
        }
    }

    /// Membership answers of a frozen `PrefixSet` match the live set.
    #[test]
    fn frozen_set_matches_membership(
        prefixes in prop::collection::vec(arb_deep_prefix(), 1..40),
        probes in prop::collection::vec(any::<u32>(), 1..40),
    ) {
        let set: PrefixSet = prefixes.iter().collect();
        let frozen = set.freeze();
        for addr in probes {
            prop_assert_eq!(
                frozen.contains_addr(addr),
                set.contains_addr(addr),
                "addr {:#010x}",
                addr
            );
            prop_assert_eq!(
                frozen.lookup(addr).map(|(p, _)| p),
                set.lookup(addr),
                "addr {:#010x}",
                addr
            );
        }
    }
}

/// A very small universe (64 aligned blocks × lengths 8..=14) so that
/// removes collide with earlier inserts often enough to exercise node
/// splicing and free-list reuse, with occasional deep prefixes mixed in.
fn arb_tight_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (0u32..64, 8u8..=14, 0u8..=4).prop_map(|(block, len, deep)| {
        if deep == 0 {
            // A sprinkle of /24–/32 under one block to stress splits.
            Ipv4Prefix::new_truncating(0x0A00_0000 | (block << 8) | (block & 0xFF), 24 + (len % 9))
        } else {
            Ipv4Prefix::new_truncating(0x0A00_0000 | (block << 18), len)
        }
    })
}

/// Full-range prefixes of every length /0–/32: exercises shared and
/// private level-2 chunks, level-3 chunks and leaf-pushing in the frozen
/// table. A /0 paints the 65 536 per-/16 codes, so short lengths cost
/// little per case.
fn arb_deep_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(bits, len)| Ipv4Prefix::new_truncating(bits, len))
}

/// Prefixes confined to 10.0.0.0/12 with lengths 12..=32: sixteen /16s,
/// so prefixes nest inside one /16 at every stride edge — which the
/// full-range `arb_deep_prefix` rarely produces.
fn arb_slash12_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (0u32..=0x000F_FFFF, 12u8..=32)
        .prop_map(|(low, len)| Ipv4Prefix::new_truncating(0x0A00_0000 | low, len))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential over one /12: the frozen table must return the
    /// trie's `(prefix, value)` at random addresses of the /12 and at
    /// the edges of every prefix.
    #[test]
    fn frozen_matches_trie_within_one_slash12(
        prefixes in prop::collection::vec((arb_slash12_prefix(), 0u32..1000), 1..60),
        probes in prop::collection::vec(0x0A00_0000u32..=0x0A0F_FFFF, 1..40),
    ) {
        let trie: PrefixTrie<u32> = prefixes.iter().copied().collect();
        let frozen = trie.freeze();
        prop_assert_eq!(frozen.len(), trie.len());
        let mut addrs = probes;
        for (p, _) in &prefixes {
            addrs.extend([
                p.first(),
                p.last(),
                p.first().wrapping_sub(1),
                p.last().wrapping_add(1),
            ]);
        }
        for addr in addrs {
            prop_assert_eq!(
                frozen.lookup(addr).map(|(p, v)| (p, *v)),
                trie.lookup(addr).map(|(p, v)| (p, *v)),
                "addr {:#010x}",
                addr
            );
        }
    }
}

/// Deterministic boundary sweep: a nested ladder of all 33 prefix
/// lengths /0–/32 (default route through host route) down one path,
/// plus sibling host routes at bucket edges. The frozen table must
/// agree with the trie at every prefix's first/last address and the
/// addresses just outside them.
#[test]
fn frozen_boundary_ladder() {
    let base = 0xC0A8_01FFu32; // 192.168.1.255: all-ones tail flips bits at every len
    let mut trie = PrefixTrie::new();
    for len in 0..=32u8 {
        trie.insert(Ipv4Prefix::new_truncating(base, len), len as u32);
    }
    // Edge companions: host routes at the ends of the address space.
    trie.insert(Ipv4Prefix::host(0x0000_0000), 100);
    trie.insert(Ipv4Prefix::host(0xFFFF_FFFF), 101);
    trie.check_invariants().unwrap();
    let frozen = trie.freeze();
    assert_eq!(frozen.len(), trie.len());

    let mut addrs = vec![0u32, 1, u32::MAX, u32::MAX - 1, base];
    for (p, _) in trie.iter() {
        addrs.extend([
            p.first(),
            p.last(),
            p.first().wrapping_sub(1),
            p.last().wrapping_add(1),
        ]);
    }
    for addr in addrs {
        assert_eq!(
            frozen.lookup(addr).map(|(p, v)| (p, *v)),
            trie.lookup(addr).map(|(p, v)| (p, *v)),
            "addr {addr:#010x}"
        );
    }
}

/// The default route alone must answer every address, and removing it
/// (rebuild) must miss every address — the /0 paint covers every /16,
/// which then all share one chunk.
#[test]
fn frozen_default_route_only() {
    let mut trie = PrefixTrie::new();
    trie.insert(Ipv4Prefix::DEFAULT, 7u32);
    let frozen = trie.freeze();
    for addr in [0u32, 1, 0x0A00_0001, 0x7FFF_FFFF, 0x8000_0000, u32::MAX] {
        assert_eq!(frozen.lookup(addr).unwrap(), (Ipv4Prefix::DEFAULT, &7));
    }
    trie.remove(&Ipv4Prefix::DEFAULT);
    let empty: FrozenLpm<u32> = trie.freeze();
    assert!(empty.is_empty());
    for addr in [0u32, 0x0A00_0001, u32::MAX] {
        assert!(empty.lookup(addr).is_none());
    }
}
