//! BGP session dynamics: table dumps plus update churn.
//!
//! The paper ingests both periodic table snapshots and the update streams
//! between them, "consider\[ing\] all table dumps and update messages
//! within our time period" to get an as-complete-as-possible picture
//! (§3.3). This module turns the static announcement corpus into that
//! shape: a collector fleet receiving initial tables and a timestamped
//! stream of withdraw/re-announce flaps. Accumulating everything seen
//! over the window reproduces the static corpus exactly — which is the
//! invariant the integration tests pin down.

use crate::generate::Internet;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spoofwatch_bgp::{Announcement, RouteCollector, Update};
use spoofwatch_net::Asn;
use std::collections::HashMap;

/// Churn simulation knobs.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Stream seed.
    pub seed: u64,
    /// Window length in seconds (paper: 4 weeks).
    pub duration_secs: u64,
    /// Number of flap events (withdraw followed by re-announce).
    pub flap_events: usize,
    /// Maximum downtime of a flap in seconds.
    pub max_flap_secs: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            seed: 0,
            duration_secs: 4 * 7 * 86_400,
            flap_events: 2_000,
            max_flap_secs: 6 * 3600,
        }
    }
}

/// A simulated collector fleet with its full observation history.
#[derive(Debug)]
pub struct Fleet {
    /// The collectors, RIBs loaded with the end-of-window state.
    pub collectors: Vec<RouteCollector>,
    /// Every update message of the window, globally time-ordered.
    pub updates: Vec<Update>,
    /// The initial per-peer tables (as at the first table dump).
    pub initial_tables: Vec<(Asn, Vec<Announcement>)>,
}

impl Fleet {
    /// Everything the fleet observed during the window: initial tables
    /// plus every (re-)announcement — the accumulation rule of §3.3.
    pub fn observed_announcements(&self) -> Vec<Announcement> {
        let mut out: Vec<Announcement> = self
            .initial_tables
            .iter()
            .flat_map(|(_, table)| table.iter().cloned())
            .collect();
        for u in &self.updates {
            if let Update::Announce { announcement, .. } = u {
                out.push(announcement.clone());
            }
        }
        out.sort_by(|a, b| (a.prefix, a.path.hops()).cmp(&(b.prefix, b.path.hops())));
        out.dedup();
        out
    }
}

/// Simulate the fleet over the window.
///
/// Peers are taken from the announcement corpus itself: the head of a
/// path is the AS whose session the route was heard on. Flaps withdraw a
/// random route and re-announce it after a bounded downtime; flaps whose
/// re-announcement would land beyond the window stay withdrawn (a real
/// phenomenon: routes disappear near the end of a measurement window).
pub fn simulate(net: &Internet, cfg: &ChurnConfig) -> Fleet {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xb6b);

    // Group the corpus by observer (path head).
    let mut by_peer: HashMap<Asn, Vec<Announcement>> = HashMap::new();
    for a in &net.announcements {
        if let Some(head) = a.path.head() {
            by_peer.entry(head).or_default().push(a.clone());
        }
    }
    let mut initial_tables: Vec<(Asn, Vec<Announcement>)> = by_peer.into_iter().collect();
    initial_tables.sort_by_key(|(p, _)| *p);

    // Partition peers over collectors (round-robin, like the real fleet
    // where each peer talks to one or few collectors).
    let num_collectors = net.config.num_collectors.max(1);
    let mut collectors: Vec<RouteCollector> = (0..num_collectors)
        .map(|i| RouteCollector::new(format!("rrc{i:02}"), Vec::new()))
        .collect();
    for (i, (peer, _)) in initial_tables.iter().enumerate() {
        collectors[i % num_collectors].peers.push(*peer);
    }
    for (peer, table) in &initial_tables {
        for c in collectors.iter_mut() {
            c.receive_table(*peer, table);
        }
    }

    // Flap events.
    let mut updates: Vec<Update> = Vec::with_capacity(cfg.flap_events * 2);
    for _ in 0..cfg.flap_events {
        let (peer, table) = &initial_tables[rng.random_range(0..initial_tables.len())];
        if table.is_empty() {
            continue;
        }
        let ann = &table[rng.random_range(0..table.len())];
        let t0 = rng.random_range(0..cfg.duration_secs);
        updates.push(Update::Withdraw {
            ts: t0,
            peer: *peer,
            prefix: ann.prefix,
        });
        let downtime = 1 + rng.random_range(0..cfg.max_flap_secs);
        if t0 + downtime < cfg.duration_secs {
            updates.push(Update::Announce {
                ts: t0 + downtime,
                peer: *peer,
                announcement: ann.clone(),
            });
        }
    }
    updates.sort_by_key(|u| (u.ts(), u.peer(), u.prefix()));
    for u in &updates {
        for c in collectors.iter_mut() {
            c.receive(u.clone());
        }
    }

    Fleet {
        collectors,
        updates,
        initial_tables,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::InternetConfig;
    use spoofwatch_bgp::RoutedTable;

    fn fleet() -> (Internet, Fleet) {
        let net = Internet::generate(InternetConfig::tiny(61));
        let f = simulate(
            &net,
            &ChurnConfig {
                seed: 2,
                flap_events: 500,
                ..ChurnConfig::default()
            },
        );
        (net, f)
    }

    #[test]
    fn accumulated_observations_reproduce_static_corpus() {
        let (net, f) = fleet();
        // §3.3's accumulation rule: everything seen over the window is
        // exactly the static corpus (withdrawals do not unsee routes).
        let mut want = net.announcements.clone();
        want.sort_by(|a, b| (a.prefix, a.path.hops()).cmp(&(b.prefix, b.path.hops())));
        want.dedup();
        assert_eq!(f.observed_announcements(), want);
        // And hence the RoutedTable built either way is identical.
        let from_fleet = RoutedTable::build(f.observed_announcements().iter());
        let from_static = RoutedTable::build(net.announcements.iter());
        assert_eq!(from_fleet.num_prefixes(), from_static.num_prefixes());
        assert_eq!(from_fleet.num_ases(), from_static.num_ases());
        assert_eq!(from_fleet.edges(), from_static.edges());
    }

    #[test]
    fn updates_are_ordered_and_paired() {
        let (_, f) = fleet();
        assert!(!f.updates.is_empty());
        for w in f.updates.windows(2) {
            assert!(w[0].ts() <= w[1].ts());
        }
        // Every re-announce has a preceding withdraw for the same
        // (peer, prefix).
        use std::collections::HashSet;
        let mut withdrawn: HashSet<(Asn, spoofwatch_net::Ipv4Prefix)> = HashSet::new();
        for u in &f.updates {
            match u {
                Update::Withdraw { peer, prefix, .. } => {
                    withdrawn.insert((*peer, *prefix));
                }
                Update::Announce { peer, announcement, .. } => {
                    assert!(
                        withdrawn.contains(&(*peer, announcement.prefix)),
                        "announce without prior withdraw"
                    );
                }
            }
        }
    }

    #[test]
    fn collector_ribs_hold_end_state() {
        let (_, f) = fleet();
        // A route flapped and not re-announced must be absent from the
        // owning collector's RIB; everything else present.
        let mut last: HashMap<(Asn, spoofwatch_net::Ipv4Prefix), bool> = HashMap::new();
        for u in &f.updates {
            match u {
                Update::Withdraw { peer, prefix, .. } => {
                    last.insert((*peer, *prefix), false);
                }
                Update::Announce { peer, announcement, .. } => {
                    last.insert((*peer, announcement.prefix), true);
                }
            }
        }
        for ((peer, prefix), up) in last {
            let collector = f
                .collectors
                .iter()
                .find(|c| c.has_peer(peer))
                .expect("peer assigned to a collector");
            let present = collector
                .rib
                .routes_for(&prefix)
                .is_some_and(|m| m.contains_key(&peer));
            assert_eq!(present, up, "{peer} {prefix}");
        }
    }

    #[test]
    fn mrt_roundtrip_of_churn_stream() {
        let (_, f) = fleet();
        let bytes = spoofwatch_bgp::mrt::encode(&f.updates);
        let (decoded, health) = spoofwatch_bgp::mrt::decode_resilient(&bytes);
        assert_eq!(health.status(), spoofwatch_net::IngestStatus::Ok);
        assert!(health.reconciles());
        assert_eq!(decoded, f.updates);
    }
}
