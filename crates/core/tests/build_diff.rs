//! Differential proof for the interned classifier build.
//!
//! `Classifier::build` interns the corpus's AS paths and runs the routed
//! table and relationship inference over distinct paths, on two
//! threads. Its outputs must equal the one-announcement-at-a-time
//! references (`RoutedTable::build_reference`,
//! `Relationships::infer_reference`) exactly: every prefix's origins
//! and on-path set, the edge and AS sets, the filter statistics, and the
//! p2c and p2p sets. Both builds hold each distinct row once in the
//! table's arena, in the same order, and the compiled lookup hands out
//! that same entry.
//! Generated worlds cover the realistic mix; the hand-built corpora
//! cover what interning could get wrong.

use spoofwatch_bgp::{Announcement, AsPath, RouteInfo, RoutedTable};
use spoofwatch_core::relinfer::Relationships;
use spoofwatch_core::{Classifier, CompiledLookup};
use spoofwatch_internet::{bogon, Internet, InternetConfig};
use spoofwatch_net::{Asn, Ipv4Prefix};
use std::collections::HashSet;

fn ann(prefix: &str, path: &[u32]) -> Announcement {
    Announcement::new(prefix.parse().expect("prefix"), AsPath::from(path.to_vec()))
}

fn rows(table: &RoutedTable) -> Vec<(Ipv4Prefix, RouteInfo)> {
    table.iter().map(|(p, info)| (p, info.clone())).collect()
}

/// The arena holds every distinct row once, and nothing else.
fn assert_one_entry_per_distinct_info(table: &RoutedTable) {
    let arena: HashSet<&RouteInfo> = table.arena().iter().collect();
    assert_eq!(
        arena.len(),
        table.arena().len(),
        "an info twice in the arena"
    );
    let distinct: HashSet<&RouteInfo> = table.iter().map(|(_, info)| info).collect();
    assert_eq!(arena, distinct, "arena entries against distinct rows");
}

fn assert_same_table(built: &RoutedTable, reference: &RoutedTable) {
    assert_one_entry_per_distinct_info(built);
    assert_one_entry_per_distinct_info(reference);
    assert_eq!(built.arena()[..], reference.arena()[..], "arena order");
    assert_eq!(rows(built), rows(reference), "per-prefix rows");
    assert_eq!(built.edges(), reference.edges(), "edges");
    assert!(built.ases().eq(reference.ases()), "ases");
    assert_eq!(built.filter_stats, reference.filter_stats, "filter stats");
}

/// The interned table and inference of `anns` against both references;
/// returns them for case-specific checks.
fn assert_matches_reference(anns: &[Announcement]) -> (RoutedTable, Relationships) {
    let table = RoutedTable::build(anns);
    assert_same_table(&table, &RoutedTable::build_reference(anns));
    let rel = Relationships::infer(anns.iter().map(|a| &a.path));
    assert_eq!(
        rel,
        Relationships::infer_reference(anns.iter().map(|a| &a.path)),
        "relationships"
    );
    (table, rel)
}

#[test]
fn classifier_build_matches_the_references_on_generated_worlds() {
    for seed in 1..=6 {
        let net = Internet::generate(InternetConfig::tiny(seed));
        let anns = &net.announcements;
        let c = Classifier::build(anns, &net.orgs_dataset);
        assert_same_table(c.table(), &RoutedTable::build_reference(anns));
        assert_eq!(
            c.relationships(),
            &Relationships::infer_reference(anns.iter().map(|a| &a.path)),
            "seed {seed}"
        );
        assert!(c.table().num_prefixes() > 0, "seed {seed}");
    }
}

/// An address of `rows[i]`'s prefix that no more specific routed
/// prefix covers, if one is left: the rows are in ascending prefix
/// order, so its more specifics follow it, in address order.
fn own_address(rows: &[(Ipv4Prefix, &RouteInfo)], i: usize) -> Option<u32> {
    let prefix = rows[i].0;
    let mut next = u64::from(prefix.first());
    for (inner, _) in rows[i + 1..].iter().take_while(|(q, _)| prefix.covers(q)) {
        if u64::from(inner.first()) > next {
            break;
        }
        next = next.max(u64::from(inner.last()) + 1);
    }
    u32::try_from(next)
        .ok()
        .filter(|&addr| prefix.contains(addr))
}

/// Every routed prefix outside bogon space that some address resolves
/// to reaches one `RouteInfo` through the table and through the
/// compiled lookup: the same entry, not an equal copy.
#[test]
fn the_compiled_lookup_hands_out_the_tables_arena_entries() {
    let bogons = bogon::bogon_set();
    for seed in 1..=6 {
        let net = Internet::generate(InternetConfig::tiny(seed));
        let c = Classifier::build(&net.announcements, &net.orgs_dataset);
        let table = c.table();
        let rows: Vec<(Ipv4Prefix, &RouteInfo)> = table.iter().collect();
        let mut shared = 0;
        for (i, &(prefix, _)) in rows.iter().enumerate() {
            let Some(addr) = own_address(&rows, i) else {
                continue;
            };
            assert_eq!(table.lookup(addr).map(|(p, _)| p), Some(prefix));
            match c.compiled().lookup(addr) {
                CompiledLookup::Routed {
                    prefix: matched,
                    info: compiled,
                } => {
                    assert_eq!(matched, prefix, "seed {seed}");
                    assert!(bogons.covering(&prefix).is_none(), "seed {seed}: {prefix}");
                    let by_info = table.info(&prefix).expect("routed");
                    assert!(
                        std::ptr::eq(compiled, by_info),
                        "seed {seed}: {prefix} copied"
                    );
                    shared += 1;
                }
                CompiledLookup::Bogon { .. } => {
                    assert!(bogons.contains_addr(addr), "seed {seed}: {prefix}");
                }
                CompiledLookup::Unrouted => panic!("seed {seed}: {prefix} unrouted"),
            }
        }
        assert!(shared > 0, "seed {seed}");
    }
}

#[test]
fn a_path_first_seen_under_a_rejected_prefix_still_adds_its_edges() {
    let anns = [
        ann("20.0.0.0/25", &[1, 2, 3]), // too specific: dropped
        ann("8.0.0.0/7", &[1, 2, 3]),   // too coarse: dropped
        ann("20.0.0.0/8", &[1, 2, 3]),  // the same path, accepted
    ];
    let (table, _) = assert_matches_reference(&anns);
    assert!(table.edges().contains(&(Asn(1), Asn(2))));
    assert!(table.edges().contains(&(Asn(2), Asn(3))));
    assert_eq!(table.num_ases(), 3);
    assert_eq!(table.filter_stats.accepted, 1);
}

#[test]
fn rejected_paths_are_counted_per_announcement() {
    let anns = [
        ann("20.0.0.0/8", &[1, 2, 1]),     // loop
        ann("21.0.0.0/8", &[1, 2, 1]),     // the same loop again
        ann("22.0.0.0/8", &[1, 1, 2, 1]),  // a prepended variant of it
        ann("20.0.0.0/25", &[1, 2, 1]),    // length checks come first
        ann("23.0.0.0/8", &[1, 64512, 3]), // reserved ASN
        ann("24.0.0.0/8", &[1, 64512, 3]), // again
        ann("25.0.0.0/8", &[]),            // empty
        ann("26.0.0.0/8", &[]),            // empty again
        ann("4.0.0.0/6", &[]),             // too coarse before empty
        ann("27.0.0.0/8", &[4, 5]),        // fine
    ];
    let (table, _) = assert_matches_reference(&anns);
    let stats = table.filter_stats;
    assert_eq!(stats.path_loop, 3);
    assert_eq!(stats.reserved_asn, 2);
    assert_eq!(stats.empty_path, 2);
    assert_eq!(stats.too_specific, 1);
    assert_eq!(stats.too_coarse, 1);
    assert_eq!(stats.accepted, 1);
    assert_eq!(table.num_prefixes(), 1);
    assert_eq!(table.edges().len(), 1);
}

#[test]
fn prepending_variants_share_one_path() {
    let anns = [
        ann("20.0.0.0/8", &[1, 2, 3]),
        ann("20.0.0.0/8", &[1, 1, 2, 3]),
        ann("21.0.0.0/16", &[1, 2, 2, 2, 3, 3]),
        ann("22.0.0.0/8", &[4, 2, 3]),
        ann("22.0.0.0/8", &[4, 4, 2, 3]),
    ];
    let (table, _) = assert_matches_reference(&anns);
    let info = table
        .info(&"21.0.0.0/16".parse().expect("prefix"))
        .expect("row");
    assert_eq!(info.on_path, vec![Asn(1), Asn(2), Asn(3)]);
    assert_eq!(table.edges().len(), 3, "1→2, 2→3, 4→2; no self-edges");
}

#[test]
fn moas_prefixes_keep_every_origin_and_hop() {
    let anns = [
        ann("20.0.0.0/8", &[1, 3]),
        ann("20.0.0.0/8", &[1, 7]),
        ann("20.0.0.0/8", &[2, 7]),
        ann("20.1.0.0/16", &[2, 7]),
        ann("20.0.0.0/8", &[1, 3]),
    ];
    let (table, _) = assert_matches_reference(&anns);
    let info = table
        .info(&"20.0.0.0/8".parse().expect("prefix"))
        .expect("row");
    assert_eq!(info.origins, vec![Asn(3), Asn(7)]);
    assert_eq!(info.on_path, vec![Asn(1), Asn(2), Asn(3), Asn(7)]);
    assert_eq!(table.num_prefixes(), 2);
}

/// Edge 1–2 gets two peering votes (it touches the peak of `3 1 2` and
/// `1 2 4`, whose ends have similar transit degrees) and one downhill
/// provider→customer vote from every copy of `5 1 2`, whose peak is 5.
/// With three copies the p2c votes win; counted once per distinct path
/// they would lose to the peering votes.
#[test]
fn votes_count_every_carrier_of_a_path() {
    let corpus = |copies: &[&[u32]]| {
        let mut anns: Vec<Announcement> =
            copies.iter().map(|path| ann("20.0.0.0/8", path)).collect();
        for path in [&[3, 1, 2][..], &[1, 2, 4], &[6, 5, 7], &[8, 5, 9]] {
            anns.push(ann("30.0.0.0/8", path));
        }
        anns
    };
    let (_, rel) =
        assert_matches_reference(&corpus(&[&[5, 1, 2], &[5, 5, 1, 2], &[5, 1, 1, 2, 2]]));
    assert!(
        rel.is_provider_of(Asn(1), Asn(2)),
        "three p2c votes beat two peering votes"
    );
    assert!(!rel.is_peer(Asn(1), Asn(2)));

    let (_, rel) = assert_matches_reference(&corpus(&[&[5, 1, 2]]));
    assert!(
        rel.is_peer(Asn(1), Asn(2)),
        "one p2c vote loses to two peering votes"
    );
}
