//! Announcement hygiene, as applied by the paper before building tables.
//!
//! §3.3: "We disregard announcements for prefixes more specific than /24
//! and less specific than /8" — the latter usually indicates
//! misconfiguration (RFC 7454). We additionally drop paths with loops or
//! reserved ASNs, which real collectors see regularly and which would
//! poison the AS graph.

use crate::{Announcement, AsPath};
use serde::Serialize;
use spoofwatch_net::{Asn, Ipv4Prefix};

/// Why an announcement was dropped, with counters for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct FilterStats {
    /// Accepted announcements.
    pub accepted: u64,
    /// Prefix more specific than the maximum length (default /24).
    pub too_specific: u64,
    /// Prefix less specific than the minimum length (default /8).
    pub too_coarse: u64,
    /// AS path contained a loop.
    pub path_loop: u64,
    /// AS path contained a reserved/private ASN.
    pub reserved_asn: u64,
    /// Empty AS path.
    pub empty_path: u64,
}

impl FilterStats {
    /// Total number of announcements inspected.
    pub fn total(&self) -> u64 {
        self.accepted
            + self.too_specific
            + self.too_coarse
            + self.path_loop
            + self.reserved_asn
            + self.empty_path
    }

    /// Total dropped.
    pub fn dropped(&self) -> u64 {
        self.total() - self.accepted
    }
}

/// The verdict of the filter's path checks, which read the AS path
/// alone: the routed table runs them once per distinct path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathCheck {
    /// The path passes.
    Ok,
    /// Empty AS path.
    Empty,
    /// The path contains a loop.
    Loop,
    /// The path contains a reserved/private ASN.
    ReservedAsn,
}

impl PathCheck {
    /// Check an AS path as announced (prepending and all).
    pub fn of(path: &AsPath) -> PathCheck {
        if path.is_empty() {
            PathCheck::Empty
        } else if path.has_loop() {
            PathCheck::Loop
        } else if path.has_reserved_asn() {
            PathCheck::ReservedAsn
        } else {
            PathCheck::Ok
        }
    }

    /// Check a path given with prepending already collapsed, so any
    /// repeated hop is a loop. Same verdict as [`PathCheck::of`] on any
    /// path that collapses to `hops`.
    pub fn of_collapsed(hops: &[Asn]) -> PathCheck {
        if hops.is_empty() {
            PathCheck::Empty
        } else if (1..hops.len()).any(|i| hops[i..].contains(&hops[i - 1])) {
            PathCheck::Loop
        } else if hops.iter().any(|a| a.is_reserved()) {
            PathCheck::ReservedAsn
        } else {
            PathCheck::Ok
        }
    }
}

/// The configurable sanity filter.
#[derive(Debug, Clone)]
pub struct SanityFilter {
    /// Minimum acceptable prefix length (paper: 8).
    pub min_len: u8,
    /// Maximum acceptable prefix length (paper: 24).
    pub max_len: u8,
    /// Running statistics.
    pub stats: FilterStats,
}

impl Default for SanityFilter {
    fn default() -> Self {
        SanityFilter {
            min_len: 8,
            max_len: 24,
            stats: FilterStats::default(),
        }
    }
}

impl SanityFilter {
    /// A filter with the paper's /8../24 bounds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Check one announcement, updating counters. Returns `true` if it
    /// should be kept.
    pub fn accept(&mut self, a: &Announcement) -> bool {
        self.accept_checked(a.prefix, PathCheck::of(&a.path))
    }

    /// [`accept`](Self::accept) for an announcement of `prefix` whose
    /// path checks already ran. The prefix length checks come first, so
    /// every announcement is counted under exactly one reason.
    pub fn accept_checked(&mut self, prefix: Ipv4Prefix, path: PathCheck) -> bool {
        let stats = &mut self.stats;
        let (counter, keep) = if prefix.len() > self.max_len {
            (&mut stats.too_specific, false)
        } else if prefix.len() < self.min_len {
            (&mut stats.too_coarse, false)
        } else {
            match path {
                PathCheck::Ok => (&mut stats.accepted, true),
                PathCheck::Empty => (&mut stats.empty_path, false),
                PathCheck::Loop => (&mut stats.path_loop, false),
                PathCheck::ReservedAsn => (&mut stats.reserved_asn, false),
            }
        };
        *counter += 1;
        keep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ann(prefix: &str, path: &[u32]) -> Announcement {
        Announcement::new(prefix.parse().unwrap(), AsPath::from(path.to_vec()))
    }

    #[test]
    fn accepts_normal() {
        let mut f = SanityFilter::new();
        assert!(f.accept(&ann("10.0.0.0/8", &[1, 2])));
        assert!(f.accept(&ann("192.0.2.0/24", &[1, 2, 2, 3])));
        assert_eq!(f.stats.accepted, 2);
        assert_eq!(f.stats.dropped(), 0);
    }

    #[test]
    fn drops_length_violations() {
        let mut f = SanityFilter::new();
        assert!(!f.accept(&ann("192.0.2.0/25", &[1])));
        assert!(!f.accept(&ann("192.0.2.128/32", &[1])));
        assert!(!f.accept(&ann("0.0.0.0/0", &[1])));
        assert!(!f.accept(&ann("16.0.0.0/7", &[1])));
        assert_eq!(f.stats.too_specific, 2);
        assert_eq!(f.stats.too_coarse, 2);
    }

    #[test]
    fn drops_poisoned_paths() {
        let mut f = SanityFilter::new();
        assert!(!f.accept(&ann("10.0.0.0/8", &[1, 2, 1])));
        assert!(!f.accept(&ann("10.0.0.0/8", &[1, 64512])));
        assert!(!f.accept(&ann("10.0.0.0/8", &[])));
        assert_eq!(f.stats.path_loop, 1);
        assert_eq!(f.stats.reserved_asn, 1);
        assert_eq!(f.stats.empty_path, 1);
        assert_eq!(f.stats.total(), 3);
    }

    #[test]
    fn collapsed_checks_agree_with_raw_ones() {
        for raw in [
            &[][..],
            &[1, 2, 3],
            &[1, 1, 2, 2, 3],
            &[1, 2, 1],
            &[1, 2, 2, 1],
            &[3, 1, 2, 3],
            &[1, 64512, 3],
            &[1, 23456, 23456],
            &[1, 64512, 1],
            &[7],
        ] {
            let path = AsPath::from(raw.to_vec());
            let hops: Vec<_> = path.dedup_hops().collect();
            assert_eq!(
                PathCheck::of_collapsed(&hops),
                PathCheck::of(&path),
                "{raw:?}"
            );
        }
    }

    #[test]
    fn prepending_passes() {
        let mut f = SanityFilter::new();
        assert!(f.accept(&ann("10.0.0.0/8", &[1, 2, 2, 2, 3])));
    }
}
