//! AS paths.

use serde::{Deserialize, Serialize};
use spoofwatch_net::mix::{fold, K};
use spoofwatch_net::Asn;
use std::collections::HashMap;
use std::fmt;

/// An AS path as carried in a BGP announcement: the sequence of ASes the
/// announcement traversed, *nearest first* — `path[0]` is the neighbor
/// that sent us the route and the last element is the origin AS.
///
/// Prepending (an AS repeating itself consecutively for traffic
/// engineering) is legal and preserved; the adjacency and validity
/// helpers collapse it.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AsPath(Vec<Asn>);

impl AsPath {
    /// Build from a nearest-first sequence.
    pub fn new(hops: Vec<Asn>) -> Self {
        AsPath(hops)
    }

    /// The empty path (only valid transiently, e.g. while originating).
    pub fn empty() -> Self {
        AsPath(Vec::new())
    }

    /// The hops, nearest first.
    pub fn hops(&self) -> &[Asn] {
        &self.0
    }

    /// Number of hops including prepending.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the path has no hops.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The origin AS (rightmost), if any.
    pub fn origin(&self) -> Option<Asn> {
        self.0.last().copied()
    }

    /// The AS the route was learned from (leftmost), if any.
    pub fn head(&self) -> Option<Asn> {
        self.0.first().copied()
    }

    /// Whether `asn` appears anywhere on the path — the Naive method's
    /// membership test.
    pub fn contains(&self, asn: Asn) -> bool {
        self.0.contains(&asn)
    }

    /// Path length with consecutive prepending collapsed — the metric for
    /// best-path selection.
    pub fn effective_len(&self) -> usize {
        self.dedup_hops().count()
    }

    /// Prepend an AS `count` times (as done when an AS propagates the
    /// route onward).
    pub fn prepend(&self, asn: Asn, count: usize) -> AsPath {
        let mut hops = Vec::with_capacity(self.0.len() + count);
        hops.extend(std::iter::repeat_n(asn, count));
        hops.extend_from_slice(&self.0);
        AsPath(hops)
    }

    /// Iterate hops with consecutive duplicates (prepending) collapsed.
    pub fn dedup_hops(&self) -> impl Iterator<Item = Asn> + '_ {
        let mut prev: Option<Asn> = None;
        self.0.iter().copied().filter(move |a| {
            let fresh = prev != Some(*a);
            prev = Some(*a);
            fresh
        })
    }

    /// Directed adjacency pairs `(left, right)` where `left` is upstream
    /// of `right` — the edges of the Full Cone graph (§3.2). Prepending is
    /// collapsed so no self-edges are produced by it.
    pub fn adjacencies(&self) -> Vec<(Asn, Asn)> {
        let hops: Vec<Asn> = self.dedup_hops().collect();
        hops.windows(2).map(|w| (w[0], w[1])).collect()
    }

    /// A path is loop-free iff no AS appears in two non-adjacent
    /// positions (consecutive repeats are prepending, not loops).
    pub fn has_loop(&self) -> bool {
        let hops: Vec<Asn> = self.dedup_hops().collect();
        let mut seen = std::collections::HashSet::with_capacity(hops.len());
        hops.iter().any(|a| !seen.insert(*a))
    }

    /// Whether any hop is a reserved/private ASN, which should have been
    /// stripped before reaching the global table.
    pub fn has_reserved_asn(&self) -> bool {
        self.0.iter().any(|a| a.is_reserved())
    }
}

/// The distinct AS paths of an announcement corpus, each stored once
/// with prepending collapsed, and how many input paths carried each.
///
/// Collectors repeat a path for every prefix its origin announces and in
/// every snapshot they take, so a corpus holds far fewer distinct paths
/// than announcements (the default synthetic Internet at seed 7: 668 477
/// of 3 575 793). Everything the routed table and relationship inference
/// read from a path (hops, origin, adjacencies, loops, reserved ASNs) is
/// a function of its collapsed hops, so both can run once per distinct
/// path here. The hops of all distinct paths live back to back in one
/// arena rather than one allocation per path, which would leave the
/// heap fragmented once the build's temporaries are freed.
#[derive(Debug)]
pub struct InternedPaths {
    /// Every distinct path's collapsed hops, back to back.
    hops: Vec<Asn>,
    /// Path `i` is `hops[bounds[i]..bounds[i + 1]]`.
    bounds: Vec<u32>,
    /// How many input paths collapsed to path `i`.
    counts: Vec<u64>,
    /// The distinct path of every input path, in input order.
    ids: Vec<u32>,
}

impl InternedPaths {
    /// Intern `paths`. Ids are dense and assigned in order of first
    /// appearance.
    pub fn new<'a>(paths: impl IntoIterator<Item = &'a AsPath>) -> Self {
        const NONE: u32 = u32::MAX;
        let mut out = InternedPaths {
            hops: Vec::new(),
            bounds: vec![0],
            counts: Vec::new(),
            ids: Vec::new(),
        };
        // Hash of a collapsed path → the newest distinct path with that
        // hash; `older[id]` chains the others (a 64-bit collision).
        let mut newest: HashMap<u64, u32> = HashMap::new();
        let mut older: Vec<u32> = Vec::new();
        for path in paths {
            // Collapse onto the arena's tail; dropped again if known.
            let start = out.hops.len();
            let mut hash = K[0];
            for hop in path.dedup_hops() {
                out.hops.push(hop);
                hash = fold(hash ^ u64::from(hop.0), K[1]);
            }
            // Runs are common (an origin's prefixes in a row), so try
            // the previous path before the map.
            let mut known = match out.ids.last() {
                Some(&last) if out.hops(last) == &out.hops[start..] => last,
                _ => newest.get(&hash).copied().unwrap_or(NONE),
            };
            while known != NONE && out.hops(known) != &out.hops[start..] {
                known = older[known as usize];
            }
            let id = if known == NONE {
                let id = u32::try_from(out.counts.len()).expect("< 2^32 distinct paths");
                let end = u32::try_from(out.hops.len()).expect("< 2^32 interned hops");
                out.bounds.push(end);
                out.counts.push(0);
                older.push(newest.insert(hash, id).unwrap_or(NONE));
                id
            } else {
                out.hops.truncate(start);
                known
            };
            out.counts[id as usize] += 1;
            out.ids.push(id);
        }
        out
    }

    /// Number of distinct paths.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether no path was interned.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The collapsed hops of distinct path `id`, nearest first.
    pub fn hops(&self, id: u32) -> &[Asn] {
        let i = id as usize;
        &self.hops[self.bounds[i] as usize..self.bounds[i + 1] as usize]
    }

    /// The distinct path id of every input path, in input order.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Every distinct path's collapsed hops with its multiplicity, in id
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (&[Asn], u64)> + '_ {
        self.bounds
            .windows(2)
            .zip(&self.counts)
            .map(|(b, &n)| (&self.hops[b[0] as usize..b[1] as usize], n))
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for a in &self.0 {
            if !first {
                f.write_str(" ")?;
            }
            write!(f, "{}", a.0)?;
            first = false;
        }
        Ok(())
    }
}

impl From<Vec<u32>> for AsPath {
    fn from(v: Vec<u32>) -> Self {
        AsPath(v.into_iter().map(Asn).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(v: &[u32]) -> AsPath {
        AsPath::from(v.to_vec())
    }

    #[test]
    fn origin_and_head() {
        let p = path(&[100, 200, 300]);
        assert_eq!(p.head(), Some(Asn(100)));
        assert_eq!(p.origin(), Some(Asn(300)));
        assert!(AsPath::empty().origin().is_none());
    }

    #[test]
    fn prepending_is_not_a_loop() {
        let p = path(&[100, 200, 200, 200, 300]);
        assert!(!p.has_loop());
        assert_eq!(p.effective_len(), 3);
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn real_loops_detected() {
        assert!(path(&[100, 200, 100]).has_loop());
        assert!(path(&[100, 200, 300, 200]).has_loop());
        assert!(!path(&[100, 200, 300]).has_loop());
    }

    #[test]
    fn adjacencies_collapse_prepending() {
        let p = path(&[100, 200, 200, 300]);
        assert_eq!(
            p.adjacencies(),
            vec![(Asn(100), Asn(200)), (Asn(200), Asn(300))]
        );
        assert!(path(&[100]).adjacencies().is_empty());
    }

    #[test]
    fn prepend_builds_propagation() {
        let p = path(&[300]); // origin announces
        let q = p.prepend(Asn(200), 1).prepend(Asn(100), 2);
        assert_eq!(q.hops(), &[Asn(100), Asn(100), Asn(200), Asn(300)]);
        assert_eq!(q.origin(), Some(Asn(300)));
    }

    #[test]
    fn reserved_asn_detection() {
        assert!(path(&[100, 64512, 300]).has_reserved_asn());
        assert!(path(&[100, 23456]).has_reserved_asn());
        assert!(!path(&[100, 200]).has_reserved_asn());
    }

    #[test]
    fn interning_collapses_prepending_and_counts_carriers() {
        let ps = [
            path(&[1, 2, 3]),
            path(&[1, 1, 2, 3, 3]),
            path(&[4, 3]),
            path(&[]),
            path(&[1, 2, 2, 3]),
            path(&[]),
        ];
        let interned = InternedPaths::new(ps.iter());
        assert_eq!(interned.len(), 3);
        assert_eq!(interned.ids(), &[0, 0, 1, 2, 0, 2]);
        assert_eq!(interned.hops(0), &[Asn(1), Asn(2), Asn(3)]);
        assert_eq!(interned.hops(1), &[Asn(4), Asn(3)]);
        assert!(interned.hops(2).is_empty());
        let counts: Vec<u64> = interned.iter().map(|(_, n)| n).collect();
        assert_eq!(counts, vec![3, 1, 2]);
        for (p, &id) in ps.iter().zip(interned.ids()) {
            assert!(p.dedup_hops().eq(interned.hops(id).iter().copied()));
        }
    }

    #[test]
    fn display() {
        assert_eq!(path(&[1, 2, 3]).to_string(), "1 2 3");
    }
}
