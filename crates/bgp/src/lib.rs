//! # spoofwatch-bgp
//!
//! The BGP substrate: everything the classifier needs to learn from
//! routing data, modelled after how the paper consumes RIPE RIS and
//! RouteViews feeds (§3.3):
//!
//! * [`AsPath`] — AS paths with prepending, loop detection, and adjacency
//!   extraction;
//! * [`Announcement`] / [`Update`] — route announcements and withdrawals;
//! * [`Rib`] — a per-peer routing information base with deterministic
//!   best-path selection;
//! * [`RouteCollector`] — a collector peering with a subset of ASes,
//!   producing table snapshots and update streams (the paper uses 34
//!   collectors plus an IXP route server; partial visibility is what
//!   creates the false-positive phenomenology of §4.4);
//! * [`SanityFilter`] — the paper's announcement hygiene: prefixes more
//!   specific than /24 or less specific than /8 are disregarded, as are
//!   paths with loops or reserved ASNs;
//! * [`RoutedTable`] — the merged multi-collector view: routed prefixes
//!   with their origin ASes (MOAS-aware) and on-path AS sets (the Naive
//!   method's raw material), plus the directed AS adjacency list (the
//!   Full Cone's raw material);
//! * [`mrt`] — a compact binary codec ("MRT-lite") for persisting and
//!   replaying collector data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Decode hot paths must surface faults through the ingest taxonomy, not
// panic; tests are exempt via cfg.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod announce;
mod collector;
mod filter;
pub mod mrt;
mod path;
mod rib;
mod table;

pub use announce::{Announcement, Update};
pub use collector::RouteCollector;
pub use filter::{FilterStats, PathCheck, SanityFilter};
pub use path::{AsPath, InternedPaths};
pub use rib::Rib;
pub use table::{RouteInfo, RoutedTable};
