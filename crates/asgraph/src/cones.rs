//! The cone/reachability engine shared by Full Cone and Customer Cone.

use crate::{scc, As2Org, AsIndexer, BitSet};
use spoofwatch_net::Asn;
use std::collections::HashMap;

/// Per-AS reachable-origin sets: for every AS `A`, the set of origin ASes
/// whose prefixes `A` may legitimately source.
///
/// Feed it different edge sets to get the paper's two cone methods:
///
/// * **Full Cone** (§3.2): one directed edge `left → right` for every
///   adjacent pair on every observed AS path ("the left AS is considered
///   upstream of the right AS"); the reachable set is the transitive
///   closure *including the AS itself*.
/// * **Customer Cone**: one edge `provider → customer` per inferred
///   transit relationship; reachability then yields the CAIDA-style
///   customer cone.
///
/// The graph may contain cycles (mutual transit, sibling meshes); SCCs
/// are condensed first, then reachable sets are computed bottom-up over
/// the condensation DAG with bitsets over *origin indices* (only ASes
/// that originate prefixes occupy bits, which keeps memory proportional
/// to `#ASes × #origin-ASes / 8` bytes).
#[derive(Debug, Clone)]
pub struct ReachCones {
    indexer: AsIndexer,
    comp: Vec<u32>,
    reach: Vec<BitSet>,
    origin_index: HashMap<Asn, u32>,
    origin_units: Vec<u64>,
    origin_asns: Vec<Asn>,
}

impl ReachCones {
    /// Compute cones.
    ///
    /// * `edges` — directed `(upstream, downstream)` pairs in ASN space;
    /// * `origin_units` — for every origin AS, the /24-equivalent units
    ///   (in address counts, see [`spoofwatch_net::UNITS_PER_SLASH24`])
    ///   of address space it originates. ASes appearing only here (stub
    ///   origins never seen on an edge) are still indexed, and every AS
    ///   always reaches its own origins.
    pub fn compute(edges: &[(Asn, Asn)], origin_units: &HashMap<Asn, u64>) -> Self {
        let mut indexer = AsIndexer::new();
        for (a, b) in edges {
            indexer.insert(*a);
            indexer.insert(*b);
        }
        let mut origins: Vec<Asn> = origin_units.keys().copied().collect();
        origins.sort_unstable();
        for o in &origins {
            indexer.insert(*o);
        }
        let n = indexer.len();

        // Dense edge list and condensation.
        let dense: Vec<(u32, u32)> = edges
            .iter()
            .map(|(a, b)| {
                (
                    indexer.index(*a).expect("edge endpoint indexed"),
                    indexer.index(*b).expect("edge endpoint indexed"),
                )
            })
            .collect();
        let adj = scc::adjacency(n, dense.iter().copied());
        let cond = scc::tarjan(&adj);

        // Origin indexing.
        let mut origin_index = HashMap::with_capacity(origins.len());
        let mut units = Vec::with_capacity(origins.len());
        for (i, o) in origins.iter().enumerate() {
            origin_index.insert(*o, i as u32);
            units.push(origin_units[o]);
        }
        let k = origins.len();

        // Own origins per component.
        let mut reach: Vec<BitSet> = (0..cond.num_comps).map(|_| BitSet::new(k)).collect();
        for (asn, &oi) in &origin_index {
            let node = indexer.index(*asn).expect("origins indexed");
            reach[cond.comp[node as usize] as usize].set(oi as usize);
        }

        // Condensation DAG, children lists.
        let mut dag_children: Vec<Vec<u32>> = vec![Vec::new(); cond.num_comps];
        for (from, to) in cond.dag_edges(dense.iter().copied()) {
            dag_children[from as usize].push(to);
        }

        // Component ids are in completion order: every component a
        // component can reach has a smaller id, so a single ascending
        // pass closes the reachability sets.
        #[allow(clippy::needless_range_loop)] // index drives split_at_mut
        for c in 0..cond.num_comps {
            // Split-borrow: children always have smaller ids than c.
            let (done, rest) = reach.split_at_mut(c);
            let me = &mut rest[0];
            for &child in &dag_children[c] {
                debug_assert!((child as usize) < c);
                me.union_with(&done[child as usize]);
            }
        }

        ReachCones {
            indexer,
            comp: cond.comp,
            reach,
            origin_index,
            origin_units: units,
            origin_asns: origins,
        }
    }

    fn reach_of(&self, member: Asn) -> Option<&BitSet> {
        let node = self.indexer.index(member)?;
        Some(&self.reach[self.comp[node as usize] as usize])
    }

    /// Whether `member` is a legitimate source for prefixes originated by
    /// `origin`. An AS is always a valid source for itself, even if it
    /// never appeared in the graph.
    pub fn is_valid_source(&self, member: Asn, origin: Asn) -> bool {
        if member == origin {
            return true;
        }
        let (Some(set), Some(&oi)) = (self.reach_of(member), self.origin_index.get(&origin))
        else {
            return false;
        };
        set.get(oi as usize)
    }

    /// Whether `member` may source a prefix with the given origin set
    /// (MOAS prefixes are valid if *any* origin is reachable).
    pub fn is_valid_source_any(&self, member: Asn, origins: &[Asn]) -> bool {
        origins.iter().any(|o| self.is_valid_source(member, *o))
    }

    /// Size of the member's valid address space in /24-equivalent units
    /// (sum of reachable origins' exclusively-attributed space).
    pub fn valid_units(&self, member: Asn) -> u64 {
        let Some(set) = self.reach_of(member) else {
            // Unknown AS: only its own space, which (being unknown) is
            // not in the table — zero.
            return 0;
        };
        set.iter_ones().map(|i| self.origin_units[i]).sum()
    }

    /// Number of distinct origin ASes in the member's cone.
    pub fn cone_origin_count(&self, member: Asn) -> usize {
        self.reach_of(member).map_or(0, BitSet::count_ones)
    }

    /// All ASes known to the cone structure.
    pub fn ases(&self) -> impl Iterator<Item = Asn> + '_ {
        self.indexer.iter().map(|(_, a)| a)
    }

    /// Number of indexed ASes.
    pub fn num_ases(&self) -> usize {
        self.indexer.len()
    }

    /// The origin ASes in `member`'s cone, ascending. The member itself
    /// is included when it originates space.
    pub fn cone_origins(&self, member: Asn) -> Vec<Asn> {
        match self.reach_of(member) {
            None => {
                // Unknown AS: only itself, if it is an origin.
                if self.origin_index.contains_key(&member) {
                    vec![member]
                } else {
                    Vec::new()
                }
            }
            Some(set) => set.iter_ones().map(|i| self.origin_asns[i]).collect(),
        }
    }
}

/// Add the multi-AS-organization full mesh to an edge list: for every
/// organization with ≥2 ASes, a bidirectional edge between every pair, so
/// "the joint cones and IP address space of each organization is … shared
/// with each constituent AS" (§3.2).
pub fn augment_with_orgs(edges: &mut Vec<(Asn, Asn)>, orgs: &As2Org) {
    for (_, members) in orgs.multi_as_orgs() {
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                edges.push((a, b));
                edges.push((b, a));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn units(list: &[(u32, u64)]) -> HashMap<Asn, u64> {
        list.iter().map(|(a, u)| (Asn(*a), *u)).collect()
    }

    fn edges(list: &[(u32, u32)]) -> Vec<(Asn, Asn)> {
        list.iter().map(|(a, b)| (Asn(*a), Asn(*b))).collect()
    }

    /// Paper Figure 1b: ASC (customer) under ASP (provider), ASP peering
    /// with ASX. On the directed path graph, routes from C are seen as
    /// "… P C", routes from P as "… P", so edges X→P (X hears P's
    /// announcements through peering: path at X is "P C"/"P").
    #[test]
    fn figure_1b_transit_and_peering() {
        // Directed AS-path graph edges extracted from observed paths:
        //   path "P C"  seen by X  → edges X→P→C when X prepends? No:
        // the *path* is what the announcement traversed. We model the
        // edge extraction directly: announcement of C's prefix reaches a
        // collector via X with path "X P C" → edges X→P, P→C.
        let e = edges(&[(3, 2), (2, 1)]); // X=3, P=2, C=1
        let u = units(&[(1, 10), (2, 20), (3, 30)]);
        let cones = ReachCones::compute(&e, &u);
        // P may source its own and C's space.
        assert!(cones.is_valid_source(Asn(2), Asn(2)));
        assert!(cones.is_valid_source(Asn(2), Asn(1)));
        assert!(!cones.is_valid_source(Asn(2), Asn(3)), "P must not source X");
        // C sources only itself.
        assert!(cones.is_valid_source(Asn(1), Asn(1)));
        assert!(!cones.is_valid_source(Asn(1), Asn(2)));
        // X reaches everyone.
        assert_eq!(cones.cone_origin_count(Asn(3)), 3);
        assert_eq!(cones.valid_units(Asn(3)), 60);
        assert_eq!(cones.valid_units(Asn(2)), 30);
        assert_eq!(cones.valid_units(Asn(1)), 10);
    }

    /// Paper Figure 1c: A and B peer; C is A's customer, D is B's
    /// customer and originates p2. The customer cone of A is {A, C} — it
    /// misses D. The full cone, built from observed paths like
    /// "C A B D", includes D.
    #[test]
    fn figure_1c_full_cone_covers_peering() {
        const A: u32 = 1;
        const B: u32 = 2;
        const C: u32 = 3;
        const D: u32 = 4;
        let u = units(&[(A, 1), (B, 1), (C, 1), (D, 5)]);

        // Customer cone: provider→customer edges only.
        let cc = ReachCones::compute(&edges(&[(A, C), (B, D)]), &u);
        assert!(!cc.is_valid_source(Asn(A), Asn(D)), "CC misses the peer's customer");
        assert!(cc.is_valid_source(Asn(A), Asn(C)));

        // Full cone: directed path-graph edges. Observed paths:
        //   at a collector behind C: "C A B D" → C→A, A→B, B→D
        //   at a collector behind D: "D B A C" → D→B, B→A, A→C
        let full = ReachCones::compute(
            &edges(&[(C, A), (A, B), (B, D), (D, B), (B, A), (A, C)]),
            &u,
        );
        assert!(full.is_valid_source(Asn(A), Asn(D)), "full cone covers it");
        assert!(full.is_valid_source(Asn(B), Asn(C)));
        // A and B are mutually reachable (an SCC): identical cones.
        assert_eq!(full.valid_units(Asn(A)), full.valid_units(Asn(B)));
        assert_eq!(full.valid_units(Asn(A)), 8);
    }

    #[test]
    fn self_is_always_valid() {
        let cones = ReachCones::compute(&[], &units(&[(7, 3)]));
        assert!(cones.is_valid_source(Asn(7), Asn(7)));
        assert!(cones.is_valid_source(Asn(99), Asn(99)), "even unknown ASes");
        assert!(!cones.is_valid_source(Asn(99), Asn(7)));
        assert_eq!(cones.valid_units(Asn(7)), 3);
        assert_eq!(cones.valid_units(Asn(99)), 0);
    }

    #[test]
    fn moas_any_origin_suffices() {
        let cones = ReachCones::compute(&edges(&[(1, 2)]), &units(&[(2, 1), (3, 1)]));
        assert!(cones.is_valid_source_any(Asn(1), &[Asn(3), Asn(2)]));
        assert!(!cones.is_valid_source_any(Asn(1), &[Asn(3)]));
        assert!(!cones.is_valid_source_any(Asn(1), &[]));
    }

    #[test]
    fn cycles_share_cones() {
        // 1 ⇄ 2 mutual transit, 2 → 3.
        let cones = ReachCones::compute(
            &edges(&[(1, 2), (2, 1), (2, 3)]),
            &units(&[(1, 1), (2, 2), (3, 4)]),
        );
        assert_eq!(cones.valid_units(Asn(1)), 7);
        assert_eq!(cones.valid_units(Asn(2)), 7);
        assert_eq!(cones.valid_units(Asn(3)), 4);
    }

    #[test]
    fn org_augmentation_adds_full_mesh() {
        let orgs = As2Org::from_pairs([(Asn(1), 5), (Asn(2), 5), (Asn(3), 5), (Asn(9), 6)]);
        let mut e: Vec<(Asn, Asn)> = Vec::new();
        augment_with_orgs(&mut e, &orgs);
        assert_eq!(e.len(), 6, "3 pairs × 2 directions");
        assert!(e.contains(&(Asn(1), Asn(3))));
        assert!(e.contains(&(Asn(3), Asn(1))));
    }

    /// §3.2 "Multi-AS Organizations": an org's ASes share address space
    /// even without BGP-visible links between them.
    #[test]
    fn org_adjustment_changes_validity() {
        let u = units(&[(1, 10), (2, 20)]);
        let plain = ReachCones::compute(&[], &u);
        assert!(!plain.is_valid_source(Asn(1), Asn(2)));

        let orgs = As2Org::from_pairs([(Asn(1), 5), (Asn(2), 5)]);
        let mut e: Vec<(Asn, Asn)> = Vec::new();
        augment_with_orgs(&mut e, &orgs);
        let adjusted = ReachCones::compute(&e, &u);
        assert!(adjusted.is_valid_source(Asn(1), Asn(2)));
        assert!(adjusted.is_valid_source(Asn(2), Asn(1)));
        assert_eq!(adjusted.valid_units(Asn(1)), 30);
    }

    /// The paper's §3.4 containment observation: the Full Cone always
    /// contains the Customer Cone when built from consistent data.
    #[test]
    fn customer_cone_contained_in_full_cone() {
        // Small hierarchy: 1 and 2 are tier-1 peers; 3,4 customers.
        let u = units(&[(1, 1), (2, 1), (3, 1), (4, 1)]);
        let cc = ReachCones::compute(&edges(&[(1, 3), (2, 4)]), &u);
        let full = ReachCones::compute(
            &edges(&[(1, 3), (2, 4), (1, 2), (2, 1), (3, 1), (4, 2)]),
            &u,
        );
        for m in [1u32, 2, 3, 4] {
            for o in [1u32, 2, 3, 4] {
                if cc.is_valid_source(Asn(m), Asn(o)) {
                    assert!(
                        full.is_valid_source(Asn(m), Asn(o)),
                        "CC ⊆ FULL violated at ({m},{o})"
                    );
                }
            }
        }
    }
}
