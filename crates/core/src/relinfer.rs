//! AS relationship inference from observed AS paths (Gao-style).
//!
//! The Customer Cone method needs business relationships, which the
//! paper takes from CAIDA's dataset — itself inferred from public BGP
//! data. We implement the classic Gao (2001) heuristic the CAIDA line of
//! work descends from: rank ASes by *transit degree*, locate the
//! top-ranked AS on each path as its peak, and orient every edge before
//! the peak as customer→provider and after it as provider→customer.
//! Adjacent near-equal-degree ASes at the peak are tagged peers.

use spoofwatch_bgp::{AsPath, InternedPaths};
use spoofwatch_net::Asn;
use std::collections::{HashMap, HashSet};

/// Inferred relationship for one AS pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InferredRel {
    /// First AS is the provider of the second.
    ProviderCustomer,
    /// Settlement-free peers.
    PeerPeer,
}

/// The inferred relationship set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Relationships {
    /// `(provider, customer)` pairs.
    p2c: HashSet<(Asn, Asn)>,
    /// Peer pairs, stored with the smaller ASN first.
    p2p: HashSet<(Asn, Asn)>,
}

impl Relationships {
    /// Infer from a set of observed, loop-free AS paths.
    pub fn infer<'a, I: IntoIterator<Item = &'a AsPath>>(paths: I) -> Self {
        Self::from_interned(&InternedPaths::new(paths))
    }

    /// [`infer`](Self::infer) over interned paths: transit degrees are
    /// sets, so each distinct path adds its neighbours once, and each
    /// distinct path's votes count as many times as paths carried it.
    /// The result equals [`infer_reference`](Self::infer_reference)'s
    /// over the paths that were interned.
    pub fn from_interned(paths: &InternedPaths) -> Self {
        let degree = transit_degrees(paths.iter().map(|(hops, _)| hops));
        let deg = |a: Asn| degree.get(&a).copied().unwrap_or(0);
        let mut votes = Votes::default();
        for (hops, carriers) in paths.iter() {
            let weight = usize::try_from(carriers).expect("count fits usize");
            votes.cast(hops, &deg, weight);
        }
        votes.resolve()
    }

    /// The reference inference, one path at a time in two passes:
    /// transit degrees, then peak votes. Kept as the oracle that
    /// [`from_interned`](Self::from_interned) is tested and timed
    /// against.
    pub fn infer_reference<'a, I: IntoIterator<Item = &'a AsPath> + Clone>(paths: I) -> Self {
        let collapsed = |path: &AsPath| path.dedup_hops().collect::<Vec<Asn>>();
        let degree = transit_degrees(paths.clone().into_iter().map(collapsed));
        let deg = |a: Asn| degree.get(&a).copied().unwrap_or(0);
        let mut votes = Votes::default();
        for path in paths {
            votes.cast(&collapsed(path), &deg, 1);
        }
        votes.resolve()
    }

    /// `(provider, customer)` edges — the Customer Cone's input.
    pub fn provider_customer_edges(&self) -> Vec<(Asn, Asn)> {
        let mut v: Vec<_> = self.p2c.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Whether `p` was inferred as a provider of `c`.
    pub fn is_provider_of(&self, p: Asn, c: Asn) -> bool {
        self.p2c.contains(&(p, c))
    }

    /// Whether the pair was inferred as peers.
    pub fn is_peer(&self, a: Asn, b: Asn) -> bool {
        self.p2p.contains(&ordered(a, b))
    }

    /// Number of inferred provider-customer edges.
    pub fn num_p2c(&self) -> usize {
        self.p2c.len()
    }

    /// Number of inferred peer edges.
    pub fn num_p2p(&self) -> usize {
        self.p2p.len()
    }
}

/// Transit degree: the number of distinct neighbours an AS is seen
/// forwarding between (ASes only at path ends have 0), over collapsed
/// paths. Each path adds a set, so repeating a path changes nothing.
fn transit_degrees<P: AsRef<[Asn]>>(paths: impl IntoIterator<Item = P>) -> HashMap<Asn, usize> {
    let mut transit_neighbors: HashMap<Asn, HashSet<Asn>> = HashMap::new();
    let mut degree: HashMap<Asn, usize> = HashMap::new();
    for hops in paths {
        let hops = hops.as_ref();
        for w in hops.windows(3) {
            let entry = transit_neighbors.entry(w[1]).or_default();
            entry.insert(w[0]);
            entry.insert(w[2]);
        }
        for h in hops {
            degree.entry(*h).or_insert(0);
        }
    }
    for (asn, neigh) in &transit_neighbors {
        degree.insert(*asn, neigh.len());
    }
    degree
}

/// Orientation votes per AS pair, from the paths' peaks.
#[derive(Default)]
struct Votes {
    /// `(provider, customer)` → votes.
    p2c: HashMap<(Asn, Asn), usize>,
    /// Ordered pair → peering votes.
    p2p: HashMap<(Asn, Asn), usize>,
}

impl Votes {
    /// Vote `weight` times on every edge of one collapsed path.
    fn cast(&mut self, hops: &[Asn], deg: &impl Fn(Asn) -> usize, weight: usize) {
        if hops.len() < 2 {
            return;
        }
        // Peak: the highest-transit-degree AS on the path.
        let peak = (0..hops.len())
            .max_by_key(|&i| (deg(hops[i]), std::cmp::Reverse(hops[i].0)))
            .expect("non-empty");
        // Edges left of the peak ascend (customer→provider): the
        // left AS is the customer. Right of the peak they descend.
        for i in 0..hops.len() - 1 {
            let (a, b) = (hops[i], hops[i + 1]);
            // The edge touching the peak on either side is a peering
            // candidate when both endpoints have similar transit
            // degree (the top-of-path lateral hop).
            let touches_peak = i + 1 == peak || i == peak;
            let key = if touches_peak && similar_degree(deg(a), deg(b)) {
                self.p2p.entry(ordered(a, b))
            } else if i < peak {
                // Uphill: a is the customer of b.
                self.p2c.entry((b, a))
            } else {
                // Downhill: a is the provider of b.
                self.p2c.entry((a, b))
            };
            *key.or_insert(0) += weight;
        }
    }

    /// Resolve conflicts: an edge voted both directions becomes a
    /// peer edge; otherwise keep the p2c orientation. Peer votes win
    /// over single-direction votes only if they are the majority.
    fn resolve(self) -> Relationships {
        let Votes {
            p2c,
            p2p: p2p_votes,
        } = self;
        let mut rel = Relationships::default();
        let mut handled: HashSet<(Asn, Asn)> = HashSet::new();
        for (&(p, c), &votes) in &p2c {
            let key = ordered(p, c);
            if !handled.insert(key) {
                continue;
            }
            let reverse = p2c.get(&(c, p)).copied().unwrap_or(0);
            let peer_votes = p2p_votes.get(&key).copied().unwrap_or(0);
            let forward = votes;
            if peer_votes >= forward.max(reverse) {
                rel.p2p.insert(key);
            } else if forward > 0 && reverse > 0 {
                // Both orientations seen: likely peering/sibling.
                rel.p2p.insert(key);
            } else if forward >= reverse {
                rel.p2c.insert((p, c));
            } else {
                rel.p2c.insert((c, p));
            }
        }
        for &key in p2p_votes.keys() {
            if handled.insert(key) {
                rel.p2p.insert(key);
            }
        }
        rel
    }
}

fn ordered(a: Asn, b: Asn) -> (Asn, Asn) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

fn similar_degree(a: usize, b: usize) -> bool {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    hi > 0 && lo * 5 >= hi
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paths(raw: &[&[u32]]) -> Vec<AsPath> {
        raw.iter().map(|p| AsPath::from(p.to_vec())).collect()
    }

    #[test]
    fn simple_hierarchy() {
        // 1 is the big transit AS: stub paths go up then down.
        let ps = paths(&[
            &[2, 1, 3],
            &[3, 1, 2],
            &[4, 1, 2],
            &[2, 1, 4],
            &[3, 1, 4],
        ]);
        let rel = Relationships::infer(ps.iter());
        assert!(rel.is_provider_of(Asn(1), Asn(2)));
        assert!(rel.is_provider_of(Asn(1), Asn(3)));
        assert!(rel.is_provider_of(Asn(1), Asn(4)));
        assert!(!rel.is_provider_of(Asn(2), Asn(1)));
    }

    #[test]
    fn top_peering_detected() {
        // Two big transits (1, 2) peer; each has customers.
        let ps = paths(&[
            &[3, 1, 2, 4],
            &[4, 2, 1, 3],
            &[5, 1, 2, 4],
            &[3, 1, 2, 6],
            &[6, 2, 1, 5],
        ]);
        let rel = Relationships::infer(ps.iter());
        assert!(rel.is_peer(Asn(1), Asn(2)), "top edge should be peering");
        assert!(rel.is_provider_of(Asn(1), Asn(3)));
        assert!(rel.is_provider_of(Asn(2), Asn(4)));
    }

    #[test]
    fn chains_orient_downhill() {
        // 1 (top) → 2 → 3 (stub): paths from 3 climb both hops.
        let ps = paths(&[&[3, 2, 1], &[1, 2, 3], &[4, 1, 2, 3]]);
        let rel = Relationships::infer(ps.iter());
        assert!(rel.is_provider_of(Asn(2), Asn(3)));
        assert!(rel.is_provider_of(Asn(1), Asn(2)) || rel.is_peer(Asn(1), Asn(2)));
    }

    #[test]
    fn empty_and_single_hop() {
        let rel = Relationships::infer(paths(&[&[7]]).iter());
        assert_eq!(rel.num_p2c(), 0);
        assert_eq!(rel.num_p2p(), 0);
    }

    #[test]
    fn conflicting_orientations_become_peers() {
        // The same edge seen in both orientations at equal strength.
        let ps = paths(&[&[1, 2], &[2, 1], &[3, 1, 2], &[3, 2, 1]]);
        let rel = Relationships::infer(ps.iter());
        assert!(rel.is_peer(Asn(1), Asn(2)));
    }
}
