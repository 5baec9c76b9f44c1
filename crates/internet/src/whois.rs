//! A WHOIS-like registry: the out-of-band truth the paper mines in its
//! §4.4 false-positive hunt.
//!
//! The AS2Org *dataset* handed to the classifier is incomplete by
//! construction (like CAIDA's, which is derived from heuristic WHOIS
//! parsing). The registry here models the underlying WHOIS database:
//! organization records whose names/contacts reveal sibling ASes the
//! dataset missed, route objects naming the true holders of
//! provider-assigned customer prefixes, and import/export policy entries
//! revealing unadvertised peerings.

use serde::{Deserialize, Serialize};
use spoofwatch_net::{Asn, Ipv4Prefix};
use spoofwatch_trie::PrefixTrie;
use std::collections::HashMap;

/// An organization record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrgRecord {
    /// Organization id (ground truth).
    pub org: u32,
    /// Registered company name.
    pub name: String,
    /// Abuse/admin contact (e-mail-ish string).
    pub contact: String,
}

/// A route object: "this prefix is held by this AS", as customers of
/// providers register for their assigned space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteObject {
    /// The registered prefix.
    pub prefix: Ipv4Prefix,
    /// The AS that holds (uses) the prefix — not necessarily the AS that
    /// announces the covering prefix in BGP.
    pub holder: Asn,
}

/// Import/export policy of an AS, aut-num style.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicyEntry {
    /// ASes this AS declares it imports routes from.
    pub imports_from: Vec<Asn>,
    /// ASes this AS declares it exports routes to.
    pub exports_to: Vec<Asn>,
}

/// The registry.
#[derive(Debug, Clone, Default)]
pub struct WhoisRegistry {
    org_records: HashMap<Asn, OrgRecord>,
    route_objects: PrefixTrie<Asn>,
    policies: HashMap<Asn, PolicyEntry>,
}

impl WhoisRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        WhoisRegistry::default()
    }

    /// Register an AS's organization record.
    pub fn add_org(&mut self, asn: Asn, record: OrgRecord) {
        self.org_records.insert(asn, record);
    }

    /// Register a route object.
    pub fn add_route_object(&mut self, obj: RouteObject) {
        self.route_objects.insert(obj.prefix, obj.holder);
    }

    /// Register an AS's routing policy.
    pub fn add_policy(&mut self, asn: Asn, policy: PolicyEntry) {
        self.policies.insert(asn, policy);
    }

    /// Whether the WHOIS data reveals two ASes as the same organization —
    /// "matching company names or contact points" (§4.4). Matches on
    /// exact name or contact equality.
    pub fn reveals_same_org(&self, a: Asn, b: Asn) -> bool {
        match (self.org_records.get(&a), self.org_records.get(&b)) {
            (Some(ra), Some(rb)) => ra.name == rb.name || ra.contact == rb.contact,
            _ => false,
        }
    }

    /// The most specific route object covering `addr`, if any.
    pub fn route_object_for(&self, addr: u32) -> Option<RouteObject> {
        self.route_objects
            .lookup(addr)
            .map(|(prefix, holder)| RouteObject {
                prefix,
                holder: *holder,
            })
    }

    /// Routing policy of an AS.
    pub fn policy(&self, asn: Asn) -> Option<&PolicyEntry> {
        self.policies.get(&asn)
    }

    /// Whether published policies reveal a direct relationship between
    /// two ASes ("matching import/export ACLs for direct peerings").
    pub fn reveals_relationship(&self, a: Asn, b: Asn) -> bool {
        let declares = |x: Asn, y: Asn| {
            self.policies
                .get(&x)
                .is_some_and(|p| p.imports_from.contains(&y) || p.exports_to.contains(&y))
        };
        declares(a, b) && declares(b, a)
    }

    /// Number of route objects.
    pub fn num_route_objects(&self) -> usize {
        self.route_objects.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn org(org: u32, name: &str, contact: &str) -> OrgRecord {
        OrgRecord {
            org,
            name: name.into(),
            contact: contact.into(),
        }
    }

    #[test]
    fn same_org_by_name_or_contact() {
        let mut w = WhoisRegistry::new();
        w.add_org(Asn(1), org(10, "Acme Networks", "noc@acme.example"));
        w.add_org(Asn(2), org(11, "Acme Networks", "peering@acme.example"));
        w.add_org(Asn(3), org(12, "Other Corp", "noc@acme.example"));
        w.add_org(Asn(4), org(13, "Unrelated", "x@y.example"));
        assert!(w.reveals_same_org(Asn(1), Asn(2)), "name match");
        assert!(w.reveals_same_org(Asn(1), Asn(3)), "contact match");
        assert!(!w.reveals_same_org(Asn(1), Asn(4)));
        assert!(!w.reveals_same_org(Asn(1), Asn(99)), "unknown AS");
    }

    #[test]
    fn route_objects_lpm() {
        let mut w = WhoisRegistry::new();
        w.add_route_object(RouteObject {
            prefix: "10.0.0.0/8".parse().unwrap(),
            holder: Asn(1),
        });
        w.add_route_object(RouteObject {
            prefix: "10.5.0.0/16".parse().unwrap(),
            holder: Asn(77),
        });
        assert_eq!(w.route_object_for(0x0A05_0001).unwrap().holder, Asn(77));
        assert_eq!(w.route_object_for(0x0A06_0001).unwrap().holder, Asn(1));
        assert!(w.route_object_for(0x0B00_0001).is_none());
        assert_eq!(w.num_route_objects(), 2);
    }

    #[test]
    fn policy_relationship_requires_both_sides() {
        let mut w = WhoisRegistry::new();
        w.add_policy(
            Asn(1),
            PolicyEntry {
                imports_from: vec![Asn(2)],
                exports_to: vec![Asn(2)],
            },
        );
        assert!(!w.reveals_relationship(Asn(1), Asn(2)), "one-sided");
        w.add_policy(
            Asn(2),
            PolicyEntry {
                imports_from: vec![],
                exports_to: vec![Asn(1)],
            },
        );
        assert!(w.reveals_relationship(Asn(1), Asn(2)));
        // Both sides must declare, so the answer is symmetric.
        assert!(w.reveals_relationship(Asn(2), Asn(1)));
    }
}
