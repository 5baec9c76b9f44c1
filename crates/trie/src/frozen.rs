//! A compiled, read-only longest-prefix-match table.
//!
//! [`FrozenLpm`] flattens a [`PrefixTrie`](crate::PrefixTrie) into a
//! DIR-24-8-style stride table: one 2^24-entry level-1 array indexed by
//! the top 24 address bits, plus 256-entry spill chunks for buckets that
//! contain prefixes longer than /24. Leaf-pushing during the build means
//! a lookup is **one** array load for the common case and **two**
//! dependent loads worst case — no pointer chasing, no per-bit walk —
//! while returning exactly the `(prefix, value)` the trie would.
//!
//! The table is immutable once built; updates go to the authoritative
//! `PrefixTrie` and a fresh table is compiled from it (the epoch-swap
//! machinery in `spoofwatch-core` publishes the result atomically).
//!
//! ## Layout
//!
//! ```text
//! l1: Vec<u32>, 2^24 slots            chunks: Vec<u32>, 256 per chunk
//! ┌──────────────┐                    ┌───────────────────────┐
//! │ addr >> 8    │──leaf code──────┐  │ chunk c, slot addr&255│──leaf code
//! │              │──SPILL | c ─────┼─▶└───────────────────────┘
//! └──────────────┘                 ▼
//!                        leaves: Vec<(Ipv4Prefix, T)>   (code - 1)
//! ```
//!
//! Slot encoding (32 bits): `0` = no match; high bit set = spill chunk
//! index in the low 31 bits; otherwise `leaf_index + 1`.
//!
//! The level-1 array is nominally 64 MiB, but it is allocated zeroed
//! (`alloc_zeroed`), so pages never written stay virtual — a table built
//! from a handful of prefixes costs only the pages its slot ranges touch.

use crate::{PrefixSet, PrefixTrie};
use spoofwatch_net::Ipv4Prefix;

/// High bit of a level-1 slot: the low 31 bits index a spill chunk.
const SPILL: u32 = 1 << 31;
/// Number of level-1 slots (one per /24 bucket).
const L1_SLOTS: usize = 1 << 24;
/// Slots per spill chunk (one per address in a /24 bucket).
const CHUNK_SLOTS: usize = 256;

/// An immutable longest-prefix-match table compiled from a set of
/// `(prefix, value)` entries, answering any lookup in at most two
/// dependent memory loads.
///
/// Build one with [`PrefixTrie::freeze`], [`PrefixSet::freeze`], or
/// [`FrozenLpm::from_entries`]. Lookups agree exactly with
/// [`PrefixTrie::lookup`] over the same entries (pinned by differential
/// property tests in `tests/proptests.rs`).
///
/// ```
/// use spoofwatch_trie::PrefixTrie;
/// use spoofwatch_net::parse_addr;
///
/// let mut t = PrefixTrie::new();
/// t.insert("10.0.0.0/8".parse().unwrap(), "big");
/// t.insert("10.1.0.0/16".parse().unwrap(), "small");
/// let frozen = t.freeze();
///
/// let (p, v) = frozen.lookup(parse_addr("10.1.2.3").unwrap()).unwrap();
/// assert_eq!((p.to_string().as_str(), *v), ("10.1.0.0/16", "small"));
/// assert!(frozen.lookup(parse_addr("11.0.0.1").unwrap()).is_none());
/// ```
#[derive(Clone)]
pub struct FrozenLpm<T> {
    /// One packed slot per /24 bucket; see module docs for the encoding.
    l1: Vec<u32>,
    /// Spill chunks, `CHUNK_SLOTS` consecutive slots each, for buckets
    /// holding /25–/32 entries.
    chunks: Vec<u32>,
    /// The stored entries, ordered by ascending `(len, bits)`.
    leaves: Vec<(Ipv4Prefix, T)>,
}

impl<T> FrozenLpm<T> {
    /// Compile a table from `(prefix, value)` entries. Prefixes must be
    /// unique; the entry set is exactly what lookups match against.
    ///
    /// The build sorts entries by ascending prefix length and paints
    /// each one over its slot range, so the most specific prefix
    /// covering a bucket is the one left in the slot — the invariant
    /// longest-prefix match reduces to a direct load.
    pub fn from_entries(entries: impl IntoIterator<Item = (Ipv4Prefix, T)>) -> Self {
        let mut leaves: Vec<(Ipv4Prefix, T)> = entries.into_iter().collect();
        // Ascending (len, bits): later (more specific) paints overwrite
        // earlier ones, and equal-length entries never overlap.
        leaves.sort_by_key(|(p, _)| (p.len(), p.bits()));
        assert!(
            (leaves.len() as u64) < SPILL as u64,
            "FrozenLpm supports at most 2^31 - 1 entries"
        );

        let mut l1 = vec![0u32; L1_SLOTS];
        let mut chunks: Vec<u32> = Vec::new();
        for (i, (prefix, _)) in leaves.iter().enumerate() {
            let code = i as u32 + 1;
            let len = prefix.len();
            if len <= 24 {
                // All ≤/24 entries are painted before any spill chunk
                // exists (sorted by length), so this is a plain fill.
                let start = (prefix.bits() >> 8) as usize;
                let count = 1usize << (24 - len);
                l1[start..start + count].fill(code);
            } else {
                let bucket = (prefix.bits() >> 8) as usize;
                let slot = l1[bucket];
                let chunk = if slot & SPILL != 0 {
                    (slot & !SPILL) as usize
                } else {
                    // Leaf-push: seed the new chunk with whatever ≤/24
                    // entry (or no-match) the bucket resolved to, so
                    // addresses outside the longer prefixes still match
                    // their covering entry.
                    let chunk = chunks.len() / CHUNK_SLOTS;
                    chunks.resize(chunks.len() + CHUNK_SLOTS, slot);
                    l1[bucket] = SPILL | chunk as u32;
                    chunk
                };
                let start = chunk * CHUNK_SLOTS + (prefix.bits() & 0xFF) as usize;
                let count = 1usize << (32 - len);
                chunks[start..start + count].fill(code);
            }
        }
        FrozenLpm { l1, chunks, leaves }
    }

    /// Longest-prefix match: the most specific stored prefix containing
    /// `addr`, with its value. One level-1 load, plus one chunk load iff
    /// the /24 bucket holds longer-than-/24 entries.
    #[inline]
    pub fn lookup(&self, addr: u32) -> Option<(Ipv4Prefix, &T)> {
        let code = self.lookup_code(addr);
        if code == 0 {
            None
        } else {
            Some(self.entry_of_code(code))
        }
    }

    /// The packed leaf code for `addr`: `0` for no match, otherwise
    /// `leaf_index + 1` — the raw slot answer behind [`FrozenLpm::lookup`],
    /// exposed so batch callers can map codes through their own
    /// side tables (`spoofwatch-core`'s compiled classifier keeps a
    /// `code → entry` map) without touching the leaf tuples per probe.
    #[inline]
    pub fn lookup_code(&self, addr: u32) -> u32 {
        let slot = self.l1[(addr >> 8) as usize];
        if slot & SPILL != 0 {
            self.chunks[((slot & !SPILL) as usize) * CHUNK_SLOTS + (addr & 0xFF) as usize]
        } else {
            slot
        }
    }

    /// The `(prefix, value)` entry a non-zero [`FrozenLpm::lookup_code`]
    /// denotes. Panics on code 0 (no match) or a code not minted by this
    /// table.
    #[inline]
    pub fn entry_of_code(&self, code: u32) -> (Ipv4Prefix, &T) {
        let (p, v) = &self.leaves[(code - 1) as usize];
        (*p, v)
    }

    /// Resolve a whole column of probes to leaf codes (see
    /// [`FrozenLpm::lookup_code`]), appending to `out`. The probes are
    /// independent, so the out-of-order core overlaps their level-1
    /// misses on the 64 MiB array by itself. The output is exactly what
    /// per-probe [`FrozenLpm::lookup_code`] calls would produce.
    pub fn lookup_codes_into(&self, addrs: &[u32], out: &mut Vec<u32>) {
        out.extend(addrs.iter().map(|&addr| self.lookup_code(addr)));
    }

    /// Whether some stored prefix contains `addr`.
    #[inline]
    pub fn contains_addr(&self, addr: u32) -> bool {
        self.lookup_code(addr) != 0
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// Whether the table stores no entries (every lookup misses).
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Iterate stored `(prefix, &value)` pairs in ascending
    /// `(len, bits)` order.
    pub fn iter(&self) -> impl Iterator<Item = (Ipv4Prefix, &T)> {
        self.leaves.iter().map(|(p, v)| (*p, v))
    }

    /// Number of spill chunks (buckets containing /25–/32 entries).
    pub fn spill_chunks(&self) -> usize {
        self.chunks.len() / CHUNK_SLOTS
    }

    /// Nominal heap footprint of the table arrays in bytes (the level-1
    /// array counts in full even though untouched pages stay virtual).
    pub fn memory_bytes(&self) -> usize {
        self.l1.len() * 4
            + self.chunks.len() * 4
            + self.leaves.len() * std::mem::size_of::<(Ipv4Prefix, T)>()
    }
}

impl<T> std::fmt::Debug for FrozenLpm<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Printing 2^24 slots would be useless; summarize instead.
        f.debug_struct("FrozenLpm")
            .field("entries", &self.leaves.len())
            .field("spill_chunks", &self.spill_chunks())
            .field("memory_bytes", &self.memory_bytes())
            .finish()
    }
}

impl<T> FromIterator<(Ipv4Prefix, T)> for FrozenLpm<T> {
    fn from_iter<I: IntoIterator<Item = (Ipv4Prefix, T)>>(iter: I) -> Self {
        FrozenLpm::from_entries(iter)
    }
}

impl<T: Clone> PrefixTrie<T> {
    /// Compile this trie into a read-only [`FrozenLpm`] answering the
    /// same lookups in at most two memory loads. The trie remains the
    /// authoritative, mutable structure; re-freeze after updates.
    pub fn freeze(&self) -> FrozenLpm<T> {
        FrozenLpm::from_entries(self.iter().map(|(p, v)| (p, v.clone())))
    }
}

impl PrefixSet {
    /// Compile this set into a read-only [`FrozenLpm`] with the same
    /// membership and longest-prefix-match answers.
    pub fn freeze(&self) -> FrozenLpm<()> {
        FrozenLpm::from_entries(self.iter().map(|p| (p, ())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn frozen(prefixes: &[&str]) -> FrozenLpm<usize> {
        FrozenLpm::from_entries(prefixes.iter().enumerate().map(|(i, s)| (p(s), i)))
    }

    #[test]
    fn empty_table_misses() {
        let f: FrozenLpm<u32> = FrozenLpm::from_entries([]);
        assert!(f.is_empty());
        assert!(f.lookup(0).is_none());
        assert!(f.lookup(u32::MAX).is_none());
        assert_eq!(f.spill_chunks(), 0);
    }

    #[test]
    fn nested_prefixes_prefer_most_specific() {
        let f = frozen(&["10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24"]);
        assert_eq!(f.lookup(0x0A01_0203).unwrap(), (p("10.1.2.0/24"), &2));
        assert_eq!(f.lookup(0x0A01_0503).unwrap(), (p("10.1.0.0/16"), &1));
        assert_eq!(f.lookup(0x0A05_0503).unwrap(), (p("10.0.0.0/8"), &0));
        assert!(f.lookup(0x0B00_0000).is_none());
        assert_eq!(f.spill_chunks(), 0, "all entries ≤ /24: no spill");
    }

    #[test]
    fn default_route_catches_everything() {
        let f = frozen(&["0.0.0.0/0", "10.0.0.0/8"]);
        assert_eq!(f.lookup(0x0A00_0001).unwrap(), (p("10.0.0.0/8"), &1));
        assert_eq!(f.lookup(0xFFFF_FFFF).unwrap(), (Ipv4Prefix::DEFAULT, &0));
        assert_eq!(f.lookup(0).unwrap(), (Ipv4Prefix::DEFAULT, &0));
    }

    #[test]
    fn long_prefixes_spill_with_leaf_pushing() {
        let f = frozen(&["10.0.0.0/24", "10.0.0.128/25", "10.0.0.1/32"]);
        // /32 wins inside its address…
        assert_eq!(f.lookup(0x0A00_0001).unwrap(), (p("10.0.0.1/32"), &2));
        // …the /25 wins in its half…
        assert_eq!(f.lookup(0x0A00_0080).unwrap(), (p("10.0.0.128/25"), &1));
        assert_eq!(f.lookup(0x0A00_00FF).unwrap(), (p("10.0.0.128/25"), &1));
        // …and the leaf-pushed /24 covers the rest of the bucket.
        assert_eq!(f.lookup(0x0A00_0002).unwrap(), (p("10.0.0.0/24"), &0));
        assert_eq!(f.lookup(0x0A00_007F).unwrap(), (p("10.0.0.0/24"), &0));
        // Outside the bucket: miss.
        assert!(f.lookup(0x0A00_0100).is_none());
        assert_eq!(f.spill_chunks(), 1, "one bucket spilled");
    }

    #[test]
    fn spill_without_covering_short_prefix() {
        let f = frozen(&["10.0.0.1/32"]);
        assert_eq!(f.lookup(0x0A00_0001).unwrap(), (p("10.0.0.1/32"), &0));
        assert!(f.lookup(0x0A00_0002).is_none(), "rest of bucket misses");
        assert!(f.lookup(0x0A00_0000).is_none());
    }

    #[test]
    fn host_routes_at_bucket_edges() {
        let f = frozen(&["10.0.0.0/32", "10.0.0.255/32", "10.0.1.0/32"]);
        assert_eq!(f.lookup(0x0A00_0000).unwrap().1, &0);
        assert_eq!(f.lookup(0x0A00_00FF).unwrap().1, &1);
        assert_eq!(f.lookup(0x0A00_0100).unwrap().1, &2);
        assert!(f.lookup(0x0A00_0001).is_none());
        assert!(f.lookup(0x0A00_00FE).is_none());
        assert!(f.lookup(0x0A00_0101).is_none());
        assert_eq!(f.spill_chunks(), 2);
    }

    #[test]
    fn wide_short_prefix_under_long_ones() {
        // A /7 spans many buckets; a /30 inside one of them must spill
        // only that bucket while the /7 still answers its own range.
        let f = frozen(&["10.0.0.0/7", "11.255.255.252/30"]);
        assert_eq!(f.lookup(0x0BFF_FFFD).unwrap(), (p("11.255.255.252/30"), &1));
        assert_eq!(f.lookup(0x0BFF_FFF0).unwrap(), (p("10.0.0.0/7"), &0));
        assert_eq!(f.lookup(0x0A00_0000).unwrap(), (p("10.0.0.0/7"), &0));
        assert!(f.lookup(0x0C00_0000).is_none());
        assert_eq!(f.spill_chunks(), 1);
    }

    #[test]
    fn freeze_matches_trie_on_fixture() {
        let mut t = PrefixTrie::new();
        for (i, s) in [
            "0.0.0.0/0",
            "10.0.0.0/8",
            "10.64.0.0/10",
            "10.64.3.0/24",
            "10.64.3.128/26",
            "10.64.3.129/32",
            "192.0.2.0/24",
        ]
        .iter()
        .enumerate()
        {
            t.insert(p(s), i);
        }
        let f = t.freeze();
        assert_eq!(f.len(), t.len());
        for addr in [
            0u32,
            0x0A00_0001,
            0x0A40_0000,
            0x0A40_0300,
            0x0A40_0381,
            0x0A40_03BF,
            0x0A40_03C0,
            0xC000_0200,
            0xFFFF_FFFF,
        ] {
            assert_eq!(
                f.lookup(addr).map(|(q, v)| (q, *v)),
                t.lookup(addr).map(|(q, v)| (q, *v)),
                "addr {addr:#010x}"
            );
        }
    }

    #[test]
    fn set_freeze_and_iter_order() {
        let mut s = PrefixSet::new();
        s.insert(p("192.0.2.0/24"));
        s.insert(p("10.0.0.0/8"));
        let f = s.freeze();
        assert!(f.contains_addr(0x0A01_0101));
        assert!(f.contains_addr(0xC000_0201));
        assert!(!f.contains_addr(0x0808_0808));
        let order: Vec<_> = f.iter().map(|(q, _)| q).collect();
        assert_eq!(order, vec![p("10.0.0.0/8"), p("192.0.2.0/24")]);
    }

    #[test]
    fn batch_codes_match_scalar_lookup() {
        // A table with spills plus a wide covering prefix, probed at
        // every interesting boundary: the code column must equal
        // per-probe lookup_code exactly, and entry_of_code must
        // reconstruct lookup's answer.
        let f = frozen(&[
            "0.0.0.0/2",
            "10.0.0.0/8",
            "10.0.0.0/24",
            "10.0.0.128/25",
            "10.0.0.1/32",
            "192.0.2.0/24",
        ]);
        let probes: Vec<u32> = (0..4096u32)
            .map(|i| i.wrapping_mul(0x9E37_79B9) ^ (i << 13))
            .chain([0, 0x0A00_0001, 0x0A00_0080, 0x0A00_0002, 0xC000_0200, u32::MAX])
            .collect();
        let mut codes = Vec::new();
        f.lookup_codes_into(&probes, &mut codes);
        assert_eq!(codes.len(), probes.len());
        for (&addr, &code) in probes.iter().zip(&codes) {
            assert_eq!(code, f.lookup_code(addr), "addr {addr:#010x}");
            let via_code = if code == 0 {
                None
            } else {
                let (p, v) = f.entry_of_code(code);
                Some((p, *v))
            };
            assert_eq!(via_code, f.lookup(addr).map(|(p, v)| (p, *v)));
        }
        // Appending: lookup_codes_into must not clear its output.
        let mut codes = vec![7u32];
        f.lookup_codes_into(&probes[..4], &mut codes);
        assert_eq!(codes.len(), 5);
        assert_eq!(codes[0], 7);
    }

    #[test]
    fn batch_codes_short_inputs() {
        let f = frozen(&["10.0.0.0/8"]);
        for n in [0usize, 1, 3, 8] {
            let probes: Vec<u32> = (0..n as u32).map(|i| 0x0A00_0000 + i).collect();
            let mut codes = Vec::new();
            f.lookup_codes_into(&probes, &mut codes);
            assert_eq!(codes, vec![1u32; n]);
        }
    }

    #[test]
    fn debug_is_a_summary() {
        let f = frozen(&["10.0.0.1/32"]);
        let dbg = format!("{f:?}");
        assert!(dbg.contains("entries: 1"), "{dbg}");
        assert!(dbg.len() < 200, "Debug must not dump the arrays: {dbg}");
    }
}
