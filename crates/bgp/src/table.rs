//! The merged multi-collector view of the routed Internet.

use crate::{Announcement, InternedPaths, PathCheck, SanityFilter};
use spoofwatch_net::{Asn, Ipv4Prefix};
use spoofwatch_trie::PrefixTrie;
use std::collections::{BTreeSet, HashMap, HashSet};

/// Per-prefix routing knowledge accumulated across all collectors and all
/// snapshots/updates of the measurement window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteInfo {
    /// Origin ASes observed for this prefix (usually one; more indicates
    /// MOAS — multiple-origin AS — announcements).
    pub origins: Vec<Asn>,
    /// Every AS observed on any AS path of any announcement of this
    /// prefix — the Naive method's valid-source set (§3.2).
    pub on_path: Vec<Asn>,
}

impl RouteInfo {
    fn add_origin(&mut self, asn: Asn) {
        if let Err(pos) = self.origins.binary_search(&asn) {
            self.origins.insert(pos, asn);
        }
    }

    fn add_on_path(&mut self, asn: Asn) {
        if let Err(pos) = self.on_path.binary_search(&asn) {
            self.on_path.insert(pos, asn);
        }
    }

    /// Whether `asn` originated this prefix in some announcement.
    pub fn has_origin(&self, asn: Asn) -> bool {
        self.origins.binary_search(&asn).is_ok()
    }

    /// Whether `asn` appeared on any path of this prefix.
    pub fn has_on_path(&self, asn: Asn) -> bool {
        self.on_path.binary_search(&asn).is_ok()
    }
}

/// The global routed table: the union of everything every collector saw
/// during the window, after sanity filtering. "Routed" in the paper's
/// sense — an address not covered here is *unrouted*.
#[derive(Debug, Clone)]
pub struct RoutedTable {
    trie: PrefixTrie<RouteInfo>,
    edges: HashSet<(Asn, Asn)>,
    ases: BTreeSet<Asn>,
    /// Filter statistics from ingestion.
    pub filter_stats: crate::FilterStats,
}

impl RoutedTable {
    /// Build from an announcement stream (table dumps and updates from
    /// all collectors; withdrawals are irrelevant because the paper
    /// accumulates every announcement seen in the window to get an
    /// as-complete-as-possible picture).
    pub fn build<'a, I: IntoIterator<Item = &'a Announcement>>(announcements: I) -> Self {
        let announcements: Vec<&Announcement> = announcements.into_iter().collect();
        let paths = InternedPaths::new(announcements.iter().map(|a| &a.path));
        Self::from_interned(announcements, &paths)
    }

    /// [`build`](Self::build) over announcements whose paths `paths`
    /// interned, in the same order. The path checks, `ases` and `edges`
    /// cost once per distinct path; the filter's statistics and each
    /// prefix's row still reflect every announcement. The result equals
    /// [`build_reference`](Self::build_reference)'s, trie insertion
    /// order included.
    pub fn from_interned<'a, I: IntoIterator<Item = &'a Announcement>>(
        announcements: I,
        paths: &InternedPaths,
    ) -> Self {
        let checks: Vec<PathCheck> = paths
            .iter()
            .map(|(hops, _)| PathCheck::of_collapsed(hops))
            .collect();
        let mut filter = SanityFilter::new();
        let mut edges = HashSet::new();
        // Whether an accepted announcement has carried the path yet.
        let mut carried = vec![false; paths.len()];
        // Prefixes in order of their first accepted announcement, and
        // `row << 32 | path id` for every accepted announcement.
        let mut rows: HashMap<Ipv4Prefix, u32> = HashMap::new();
        let mut prefixes: Vec<Ipv4Prefix> = Vec::new();
        let mut pairs: Vec<u64> = Vec::new();
        let mut announcements = announcements.into_iter();
        for &id in paths.ids() {
            let a = announcements
                .next()
                .expect("one announcement per interned path");
            if !filter.accept_checked(a.prefix, checks[id as usize]) {
                continue;
            }
            let hops = paths.hops(id);
            if !std::mem::replace(&mut carried[id as usize], true) {
                edges.extend(hops.windows(2).map(|w| (w[0], w[1])));
            }
            let row = *rows.entry(a.prefix).or_insert_with(|| {
                prefixes.push(a.prefix);
                u32::try_from(prefixes.len() - 1).expect("< 2^32 prefixes")
            });
            pairs.push(u64::from(row) << 32 | u64::from(id));
        }
        assert!(
            announcements.next().is_none(),
            "one interned path per announcement"
        );

        // Fold each prefix's distinct paths into its row, inserting rows
        // in first-accepted order as the reference does.
        pairs.sort_unstable();
        pairs.dedup();
        let mut trie: PrefixTrie<RouteInfo> = PrefixTrie::new();
        let mut ases = Vec::new();
        let (mut origins, mut on_path) = (Vec::new(), Vec::new());
        for group in pairs.chunk_by(|a, b| a >> 32 == b >> 32) {
            origins.clear();
            on_path.clear();
            for &pair in group {
                let hops = paths.hops(pair as u32);
                origins.extend(hops.last());
                on_path.extend_from_slice(hops);
            }
            for set in [&mut origins, &mut on_path] {
                set.sort_unstable();
                set.dedup();
            }
            // Every hop of an accepted path is on its prefix's row.
            ases.extend_from_slice(&on_path);
            // `to_vec` allocates exactly: the rows outlive the build.
            let info = RouteInfo {
                origins: origins.to_vec(),
                on_path: on_path.to_vec(),
            };
            trie.insert(prefixes[(group[0] >> 32) as usize], info);
        }
        ases.sort_unstable();
        ases.dedup();
        RoutedTable {
            trie,
            edges,
            ases: ases.into_iter().collect(),
            filter_stats: filter.stats,
        }
    }

    /// The reference build, one announcement at a time: every path
    /// check, hop and adjacency is redone for every announcement. Kept
    /// as the oracle that [`from_interned`](Self::from_interned) is
    /// tested and timed against.
    pub fn build_reference<'a, I: IntoIterator<Item = &'a Announcement>>(announcements: I) -> Self {
        let mut filter = SanityFilter::new();
        let mut trie: PrefixTrie<RouteInfo> = PrefixTrie::new();
        let mut edges = HashSet::new();
        let mut ases = BTreeSet::new();
        for a in announcements {
            if !filter.accept(a) {
                continue;
            }
            let origin = a.path.origin().expect("filter rejects empty paths");
            if trie.get(&a.prefix).is_none() {
                trie.insert(a.prefix, RouteInfo::default());
            }
            let info = trie.get_mut(&a.prefix).expect("just inserted");
            info.add_origin(origin);
            for hop in a.path.dedup_hops() {
                info.add_on_path(hop);
                ases.insert(hop);
            }
            for edge in a.path.adjacencies() {
                edges.insert(edge);
            }
        }
        RoutedTable {
            trie,
            edges,
            ases,
            filter_stats: filter.stats,
        }
    }

    /// Longest-prefix match against the routed table.
    pub fn lookup(&self, addr: u32) -> Option<(Ipv4Prefix, &RouteInfo)> {
        self.trie.lookup(addr)
    }

    /// Whether any routed prefix covers the address.
    pub fn is_routed(&self, addr: u32) -> bool {
        self.trie.lookup(addr).is_some()
    }

    /// Routing info for an exact prefix.
    pub fn info(&self, prefix: &Ipv4Prefix) -> Option<&RouteInfo> {
        self.trie.get(prefix)
    }

    /// Number of routed prefixes.
    pub fn num_prefixes(&self) -> usize {
        self.trie.len()
    }

    /// Routed address space in /24 equivalents (union, no double count).
    pub fn routed_slash24(&self) -> f64 {
        self.trie.covered_units() as f64 / spoofwatch_net::UNITS_PER_SLASH24 as f64
    }

    /// Iterate `(prefix, info)` in ascending prefix order.
    pub fn iter(&self) -> impl Iterator<Item = (Ipv4Prefix, &RouteInfo)> {
        self.trie.iter()
    }

    /// The directed AS adjacency set: `(left, right)` for every adjacent
    /// pair on every observed path, left upstream of right. Input to the
    /// Full Cone computation.
    pub fn edges(&self) -> &HashSet<(Asn, Asn)> {
        &self.edges
    }

    /// Every AS observed on any path.
    pub fn ases(&self) -> impl Iterator<Item = Asn> + '_ {
        self.ases.iter().copied()
    }

    /// Number of distinct ASes observed.
    pub fn num_ases(&self) -> usize {
        self.ases.len()
    }

    /// The origin ASes of all routed prefixes, with the /24-equivalent
    /// units each originates (used to size per-AS valid space).
    pub fn origin_units(&self) -> std::collections::HashMap<Asn, u64> {
        let mut map = std::collections::HashMap::new();
        // Nested prefixes with different origins both count toward their
        // origins — the paper's valid-space unions behave the same way
        // because a covering prefix legitimizes the space either way.
        for (prefix, info) in self.iter() {
            for o in &info.origins {
                *map.entry(*o).or_insert(0) += prefix.slash24_units();
            }
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AsPath;

    fn ann(prefix: &str, path: &[u32]) -> Announcement {
        Announcement::new(prefix.parse().unwrap(), AsPath::from(path.to_vec()))
    }

    fn table(anns: &[Announcement]) -> RoutedTable {
        RoutedTable::build(anns.iter())
    }

    #[test]
    fn accumulates_origins_and_paths() {
        let t = table(&[
            ann("10.0.0.0/8", &[1, 2, 3]),
            ann("10.0.0.0/8", &[4, 5, 3]),
            ann("192.0.2.0/24", &[1, 9]),
        ]);
        assert_eq!(t.num_prefixes(), 2);
        let info = t.info(&"10.0.0.0/8".parse().unwrap()).unwrap();
        assert_eq!(info.origins, vec![Asn(3)]);
        assert_eq!(info.on_path, vec![Asn(1), Asn(2), Asn(3), Asn(4), Asn(5)]);
        assert!(info.has_on_path(Asn(4)));
        assert!(!info.has_on_path(Asn(9)));
    }

    #[test]
    fn moas_keeps_all_origins() {
        let t = table(&[
            ann("10.0.0.0/8", &[1, 3]),
            ann("10.0.0.0/8", &[1, 7]),
        ]);
        let info = t.info(&"10.0.0.0/8".parse().unwrap()).unwrap();
        assert_eq!(info.origins, vec![Asn(3), Asn(7)]);
        assert!(info.has_origin(Asn(3)));
        assert!(info.has_origin(Asn(7)));
    }

    #[test]
    fn lpm_and_routedness() {
        let t = table(&[ann("10.0.0.0/8", &[1, 3]), ann("10.1.0.0/16", &[1, 4])]);
        let (p, info) = t.lookup(0x0A01_0001).unwrap();
        assert_eq!(p, "10.1.0.0/16".parse().unwrap());
        assert_eq!(info.origins, vec![Asn(4)]);
        assert!(t.is_routed(0x0A02_0001));
        assert!(!t.is_routed(0x0B00_0001));
    }

    #[test]
    fn edges_are_directed_and_deduped() {
        let t = table(&[
            ann("10.0.0.0/8", &[1, 2, 3]),
            ann("11.0.0.0/8", &[1, 2, 4]),
        ]);
        assert!(t.edges().contains(&(Asn(1), Asn(2))));
        assert!(t.edges().contains(&(Asn(2), Asn(3))));
        assert!(!t.edges().contains(&(Asn(2), Asn(1))), "directed");
        assert_eq!(t.edges().len(), 3);
        assert_eq!(t.num_ases(), 4);
    }

    #[test]
    fn sanity_filter_applies() {
        let t = table(&[
            ann("10.0.0.0/8", &[1, 3]),
            ann("192.0.2.0/25", &[1, 3]), // too specific
            ann("11.0.0.0/8", &[1, 2, 1]), // loop
        ]);
        assert_eq!(t.num_prefixes(), 1);
        assert_eq!(t.filter_stats.accepted, 1);
        assert_eq!(t.filter_stats.too_specific, 1);
        assert_eq!(t.filter_stats.path_loop, 1);
    }

    #[test]
    fn routed_space_accounting() {
        let t = table(&[
            ann("10.0.0.0/8", &[1, 3]),
            ann("10.1.0.0/16", &[1, 4]), // nested, no extra space
            ann("192.0.2.0/24", &[1, 9]),
        ]);
        assert_eq!(t.routed_slash24(), 65536.0 + 1.0);
        let units = t.origin_units();
        assert_eq!(units[&Asn(3)], 1u64 << 24);
        assert_eq!(units[&Asn(4)], 1u64 << 16);
        assert_eq!(units[&Asn(9)], 256);
    }
}
