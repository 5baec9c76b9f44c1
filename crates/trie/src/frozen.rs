//! A compiled, read-only longest-prefix-match table.
//!
//! [`FrozenLpm`] flattens a [`PrefixTrie`](crate::PrefixTrie) into a
//! 16-8-8 stride table: a 2^16-entry level-1 array indexed by the top 16
//! address bits, and 256-slot chunks for levels 2 (bits 15..8) and 3
//! (bits 7..0). Every /16 points at a level-2 chunk, so a lookup is
//! **two** dependent loads with no branch between them, plus **one**
//! more only where the /24 holds prefixes longer than /24 — no pointer
//! chasing, no per-bit walk — while returning exactly the
//! `(prefix, value)` the trie would.
//!
//! The table is sized to its contents. A /16 holding a /17–/32 entry
//! gets a private level-2 chunk, leaf-pushed with its covering ≤/16
//! code; every other /16 resolves to one code for all its addresses and
//! points at the one chunk **shared** by all /16s with that code. A
//! table of *n* ≤/16 entries and *m* private /16s thus holds at most
//! *n* + 1 + *m* level-2 chunks, one level-3 chunk per /24 with a
//! longer entry, and the fixed 256 KiB level 1.
//!
//! The table is immutable once built; updates go to the authoritative
//! `PrefixTrie` and a fresh table is compiled from it (the epoch-swap
//! machinery in `spoofwatch-core` publishes the result atomically).
//!
//! ## Layout
//!
//! ```text
//! l1: 2^16 × u32                  chunks: Vec<u32>, 256 slots per chunk
//! ┌────────────┐                  ┌────────────────────────────┐
//! │ addr >> 16 │──chunk index───▶ │ level 2, (addr >> 8) & 255 │──leaf code
//! └────────────┘                  │                            │──SPILL | c ─┐
//!                                 ├────────────────────────────┤             │
//!                                 │ level 3 c, addr & 255      │◀────────────┘
//!                                 └────────────────────────────┘──leaf code
//!                        leaves: Vec<(Ipv4Prefix, T)>   (code - 1)
//! ```
//!
//! Level-1 slots are plain chunk indices. Chunk slot encoding (32 bits):
//! `0` = no match; high bit set = level-3 chunk index in the low 31
//! bits (level-2 slots only); otherwise `leaf_index + 1`.
//!
//! Every array is written in full by the build, so the nominal size
//! [`FrozenLpm::memory_bytes`] reports is also what stays resident.

use crate::{PrefixSet, PrefixTrie};
use spoofwatch_net::Ipv4Prefix;

/// High bit of a level-2 slot: the low 31 bits index a level-3 chunk.
const SPILL: u32 = 1 << 31;
/// Number of level-1 slots (one per /16).
const L1_SLOTS: usize = 1 << 16;
/// Slots per chunk (one per /24 of a /16 at level 2, one per address of
/// a /24 at level 3).
const CHUNK_SLOTS: usize = 256;

/// An immutable longest-prefix-match table compiled from a set of
/// `(prefix, value)` entries, answering any lookup in at most three
/// dependent memory loads (two for every prefix up to /24).
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
    /// The level-2 chunk of each /16; a fixed-size array, so indexing
    /// it by `addr >> 16` needs no bounds check.
    l1: Box<[u32; L1_SLOTS]>,
    /// Level-2 and level-3 chunks, `CHUNK_SLOTS` consecutive slots each;
    /// see module docs for the encoding.
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
    /// covering a slot is the one left in it — the invariant
    /// longest-prefix match reduces to a direct load. ≤/16 entries are
    /// painted over a per-/16 code array first; each /16 then gets its
    /// level-2 chunk (private if a longer entry lies inside it, else the
    /// one shared by its code), and the longer entries are painted into
    /// the private chunks.
    pub fn from_entries(entries: impl IntoIterator<Item = (Ipv4Prefix, T)>) -> Self {
        let mut leaves: Vec<(Ipv4Prefix, T)> = entries.into_iter().collect();
        // Ascending (len, bits): later (more specific) paints overwrite
        // earlier ones, and equal-length entries never overlap.
        leaves.sort_by_key(|(p, _)| (p.len(), p.bits()));
        assert!(
            (leaves.len() as u64) < SPILL as u64,
            "FrozenLpm supports at most 2^31 - 1 entries"
        );
        let short = leaves.partition_point(|(p, _)| p.len() <= 16);

        // The code each /16 resolves to from its ≤/16 entries alone.
        let mut root = vec![0u32; L1_SLOTS];
        for (i, (prefix, _)) in leaves[..short].iter().enumerate() {
            let start = (prefix.bits() >> 16) as usize;
            root[start..start + (1usize << (16 - prefix.len()))].fill(i as u32 + 1);
        }
        let mut private = vec![false; L1_SLOTS];
        for (prefix, _) in &leaves[short..] {
            private[(prefix.bits() >> 16) as usize] = true;
        }

        let mut chunks: Vec<u32> = Vec::new();
        // The shared level-2 chunk of each ≤/16 code (index 0: no match).
        let mut shared: Vec<Option<u32>> = vec![None; short + 1];
        let l1: Vec<u32> = root
            .iter()
            .zip(&private)
            .map(|(&code, &private)| {
                if private {
                    // Leaf-push: seeded with the covering ≤/16 code (or
                    // no-match), so addresses outside the longer entries
                    // still match it.
                    new_chunk(&mut chunks, code)
                } else {
                    *shared[code as usize].get_or_insert_with(|| new_chunk(&mut chunks, code))
                }
            })
            .collect();

        for (i, (prefix, _)) in leaves.iter().enumerate().skip(short) {
            let code = i as u32 + 1;
            let len = prefix.len();
            let level2 = l1[(prefix.bits() >> 16) as usize] as usize * CHUNK_SLOTS
                + ((prefix.bits() >> 8) & 0xFF) as usize;
            if len <= 24 {
                // All /17–/24 entries are painted before any level-3
                // chunk exists (sorted by length), so this is a plain fill.
                chunks[level2..level2 + (1usize << (24 - len))].fill(code);
            } else {
                let slot = chunks[level2];
                let chunk = if slot & SPILL != 0 {
                    slot & !SPILL
                } else {
                    // Leaf-push the /24's code into its new level-3 chunk.
                    let chunk = new_chunk(&mut chunks, slot);
                    chunks[level2] = SPILL | chunk;
                    chunk
                };
                let start = chunk as usize * CHUNK_SLOTS + (prefix.bits() & 0xFF) as usize;
                chunks[start..start + (1usize << (32 - len))].fill(code);
            }
        }
        // Growth left spare capacity; drop it so `memory_bytes` is the
        // allocation.
        chunks.shrink_to_fit();
        let l1 = l1
            .into_boxed_slice()
            .try_into()
            .expect("one level-1 slot per /16");
        FrozenLpm { l1, chunks, leaves }
    }

    /// Longest-prefix match: the most specific stored prefix containing
    /// `addr`, with its value. A level-1 and a level-2 load, plus one
    /// level-3 load iff the /24 holds longer-than-/24 entries.
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
        let level2 = self.l1[(addr >> 16) as usize] as usize * CHUNK_SLOTS;
        let slot = self.chunks[level2 + ((addr >> 8) & 0xFF) as usize];
        if slot & SPILL != 0 {
            self.chunks[(slot & !SPILL) as usize * CHUNK_SLOTS + (addr & 0xFF) as usize]
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
    /// independent and their first two loads branch-free, so the
    /// out-of-order core overlaps their chunk misses by itself. The
    /// output is exactly what per-probe [`FrozenLpm::lookup_code`]
    /// calls would produce.
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

    /// Number of 256-slot chunks of levels 2 and 3: one per distinct
    /// ≤/16 code a /16 without longer entries resolves to, one per /16
    /// holding a /17–/32 entry, and one per /24 holding a /25–/32 entry.
    pub fn chunks(&self) -> usize {
        self.chunks.len() / CHUNK_SLOTS
    }

    /// Heap footprint of the table arrays in bytes. The build writes
    /// every slot, so this is resident, not merely reserved.
    pub fn memory_bytes(&self) -> usize {
        L1_SLOTS * 4
            + self.chunks.len() * 4
            + self.leaves.len() * std::mem::size_of::<(Ipv4Prefix, T)>()
    }
}

impl<T> std::fmt::Debug for FrozenLpm<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Printing the chunk slots would be useless; summarize instead.
        f.debug_struct("FrozenLpm")
            .field("entries", &self.leaves.len())
            .field("chunks", &self.chunks())
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
    /// same lookups in at most three memory loads. The trie remains the
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

/// Append one chunk with every slot set to `seed`; returns its index.
fn new_chunk(chunks: &mut Vec<u32>, seed: u32) -> u32 {
    let chunk = chunks.len() / CHUNK_SLOTS;
    assert!(
        chunk < SPILL as usize,
        "FrozenLpm supports at most 2^31 chunks"
    );
    chunks.resize(chunks.len() + CHUNK_SLOTS, seed);
    chunk as u32
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
        assert_eq!(f.chunks(), 1, "every /16 shares the no-match chunk");
    }

    #[test]
    fn nested_prefixes_prefer_most_specific() {
        let f = frozen(&["10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24"]);
        assert_eq!(f.lookup(0x0A01_0203).unwrap(), (p("10.1.2.0/24"), &2));
        assert_eq!(f.lookup(0x0A01_0503).unwrap(), (p("10.1.0.0/16"), &1));
        assert_eq!(f.lookup(0x0A05_0503).unwrap(), (p("10.0.0.0/8"), &0));
        assert!(f.lookup(0x0B00_0000).is_none());
        // Shared no-match and /8 chunks, and 10.1/16's private one; all
        // entries ≤ /24, so no level-3 chunk.
        assert_eq!(f.chunks(), 3);
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
        // Shared no-match chunk, 10.0/16's level 2, 10.0.0/24's level 3.
        assert_eq!(f.chunks(), 3);
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
        // Shared no-match chunk, 10.0/16's level 2, two level-3 chunks.
        assert_eq!(f.chunks(), 4);
    }

    #[test]
    fn wide_short_prefix_under_long_ones() {
        // A /7 spans many /16s; a /30 inside one of them must give only
        // that /16 a private chunk while the /7 still answers its range.
        let f = frozen(&["10.0.0.0/7", "11.255.255.252/30"]);
        assert_eq!(f.lookup(0x0BFF_FFFD).unwrap(), (p("11.255.255.252/30"), &1));
        assert_eq!(f.lookup(0x0BFF_FFF0).unwrap(), (p("10.0.0.0/7"), &0));
        assert_eq!(f.lookup(0x0A00_0000).unwrap(), (p("10.0.0.0/7"), &0));
        assert!(f.lookup(0x0C00_0000).is_none());
        // Shared no-match and /7 chunks, 11.255/16's level 2, one level 3.
        assert_eq!(f.chunks(), 4);
    }

    /// Builds the trie and the frozen table over `prefixes` and checks
    /// they agree at every prefix's edges and just outside them.
    fn assert_matches_trie(prefixes: &[&str]) -> FrozenLpm<usize> {
        let trie: PrefixTrie<usize> = prefixes
            .iter()
            .enumerate()
            .map(|(i, s)| (p(s), i))
            .collect();
        let f = trie.freeze();
        let mut addrs = vec![0u32, u32::MAX];
        for s in prefixes {
            let q = p(s);
            addrs.extend([
                q.first(),
                q.last(),
                q.first().wrapping_sub(1),
                q.last().wrapping_add(1),
            ]);
        }
        for addr in addrs {
            assert_eq!(
                f.lookup(addr).map(|(q, v)| (q, *v)),
                trie.lookup(addr).map(|(q, v)| (q, *v)),
                "addr {addr:#010x}"
            );
        }
        f
    }

    #[test]
    fn slash17_chunk_is_seeded_with_covering_slash15() {
        let f = assert_matches_trie(&["10.0.0.0/15", "10.1.128.0/17"]);
        assert_eq!(f.lookup(0x0A01_8001).unwrap(), (p("10.1.128.0/17"), &1));
        assert_eq!(f.lookup(0x0A01_7FFF).unwrap(), (p("10.0.0.0/15"), &0));
        assert_eq!(f.lookup(0x0A00_0001).unwrap(), (p("10.0.0.0/15"), &0));
        // Shared no-match and /15 chunks, 10.1/16's private one.
        assert_eq!(f.chunks(), 3);
    }

    #[test]
    fn slash25_alone_in_its_slash16_adds_level_2_and_3() {
        let f = assert_matches_trie(&["10.0.0.0/8", "10.1.2.128/25"]);
        assert_eq!(f.lookup(0x0A01_0280).unwrap(), (p("10.1.2.128/25"), &1));
        assert_eq!(f.lookup(0x0A01_027F).unwrap(), (p("10.0.0.0/8"), &0));
        assert_eq!(f.lookup(0x0A01_0300).unwrap(), (p("10.0.0.0/8"), &0));
        // Shared no-match and /8 chunks, 10.1/16's level 2, 10.1.2/24's
        // level 3.
        assert_eq!(f.chunks(), 4);
    }

    #[test]
    fn slash16s_with_one_code_share_one_chunk() {
        // 10.0/16 and 10.1/16 both resolve to the /15; 10.2/16 and
        // 10.3/16 to their own /16 entries.
        let f = assert_matches_trie(&["10.0.0.0/15", "10.2.0.0/16", "10.3.0.0/16"]);
        assert_eq!(f.chunks(), 4);
        let f = assert_matches_trie(&["10.0.0.0/8"]);
        assert_eq!(f.chunks(), 2, "256 /16s, one chunk");
    }

    #[test]
    fn empty_and_default_route_tables_hold_one_chunk() {
        let f = assert_matches_trie(&[]);
        assert_eq!(f.chunks(), 1);
        let f = assert_matches_trie(&["0.0.0.0/0"]);
        assert_eq!(f.chunks(), 1, "no /16 misses, so no no-match chunk");
        assert_eq!(
            f.memory_bytes(),
            (1 << 16) * 4 + 256 * 4 + std::mem::size_of::<(Ipv4Prefix, usize)>()
        );
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
