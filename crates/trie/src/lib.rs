//! # spoofwatch-trie
//!
//! A path-compressed binary (Patricia) trie over IPv4 prefixes, the lookup
//! structure behind every step of the paper's classification pipeline:
//!
//! * the **bogon** check is a longest-prefix match against the 14-prefix
//!   Team Cymru list;
//! * the **unrouted** check is a longest-prefix match against the routed
//!   table built from BGP data (~11M /24 equivalents in the paper);
//! * the **invalid** check maps the matched routed prefix to its origin
//!   AS(es), which are then tested against the member's cone.
//!
//! Two types are provided:
//!
//! * [`PrefixTrie<T>`] — a map from canonical [`spoofwatch_net::Ipv4Prefix`]
//!   to `T` with longest-prefix match, exact match, removal with node
//!   splicing, and in-order iteration;
//! * [`PrefixSet`] — a set of prefixes with union/containment algebra,
//!   minimal-cover aggregation, and exact `/24`-equivalent accounting of
//!   the *union* of covered space (no double counting of nested prefixes).
//!
//! The trie is an arena of nodes addressed by `u32` indices with an
//! explicit free list, so removal does not shift live nodes and the
//! structure is cheap to clone and send across threads.
//!
//! For the classification hot path there is a third, read-only type:
//!
//! * [`FrozenLpm<T>`] — a 16-8-8 stride table compiled from a trie or
//!   set ([`PrefixTrie::freeze`] / [`PrefixSet::freeze`]) that answers
//!   any longest-prefix match in two dependent memory loads, three
//!   inside a /24 holding a longer prefix, and is sized to its entries
//!   (/16s that resolve to one code share one chunk). The trie stays
//!   authoritative; the frozen table is rebuilt and swapped in whenever
//!   the source data changes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod frozen;
mod set;
mod trie;

pub use frozen::FrozenLpm;
pub use set::PrefixSet;
pub use trie::PrefixTrie;
