//! Canonical IPv4 CIDR prefixes.

use crate::error::NetError;
use crate::parse_addr;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// A canonical IPv4 CIDR prefix.
///
/// Invariant: all host bits below `len` are zero (`10.1.2.3/8` is rejected
/// by [`Ipv4Prefix::new`]; use [`Ipv4Prefix::new_truncating`] to mask them).
/// The invariant means two prefixes are equal iff they denote the same
/// address block, so `Ipv4Prefix` is directly usable as a map key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Ipv4Prefix {
    bits: u32,
    len: u8,
}

impl Ipv4Prefix {
    /// `0.0.0.0/0`, the default route / whole address space.
    pub const DEFAULT: Ipv4Prefix = Ipv4Prefix { bits: 0, len: 0 };

    /// Build a prefix, rejecting non-canonical inputs.
    pub fn new(bits: u32, len: u8) -> Result<Self, NetError> {
        if len > 32 {
            return Err(NetError::BadPrefixLen(len as u32));
        }
        let p = Ipv4Prefix::new_truncating(bits, len);
        if p.bits != bits {
            return Err(NetError::BadPrefix(format!(
                "{}/{len} has host bits set",
                Ipv4Addr::from(bits)
            )));
        }
        Ok(p)
    }

    /// Build a prefix, masking any set host bits.
    ///
    /// # Panics
    /// Panics if `len > 32`; the length is almost always a literal or an
    /// already-validated value on this path.
    pub fn new_truncating(bits: u32, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} out of range");
        Ipv4Prefix {
            bits: bits & mask(len),
            len,
        }
    }

    /// The /32 host route for a single address.
    pub fn host(addr: u32) -> Self {
        Ipv4Prefix { bits: addr, len: 32 }
    }

    /// The network address (all host bits zero).
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The prefix length in `0..=32`.
    ///
    /// (Not a container length — `is_empty` would be meaningless, hence
    /// the lint allowance.)
    #[allow(clippy::len_without_is_empty)]
    #[inline]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// The netmask as a `u32` (e.g. `/24` → `0xFFFF_FF00`).
    #[inline]
    pub fn netmask(&self) -> u32 {
        mask(self.len)
    }

    /// First address covered (== network address).
    #[inline]
    pub fn first(&self) -> u32 {
        self.bits
    }

    /// Last address covered (broadcast address for subnets).
    #[inline]
    pub fn last(&self) -> u32 {
        self.bits | !mask(self.len)
    }

    /// Number of addresses covered, as `u64` so `/0` does not overflow.
    #[inline]
    pub fn num_addresses(&self) -> u64 {
        1u64 << (32 - self.len)
    }

    /// Whether `addr` falls inside this prefix.
    ///
    /// ```
    /// use spoofwatch_net::Ipv4Prefix;
    /// let p: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
    /// assert!(p.contains(spoofwatch_net::parse_addr("10.200.3.4").unwrap()));
    /// assert!(!p.contains(spoofwatch_net::parse_addr("11.0.0.0").unwrap()));
    /// ```
    #[inline]
    pub fn contains(&self, addr: u32) -> bool {
        addr & mask(self.len) == self.bits
    }

    /// Whether `other` is fully covered by (equal to or more specific than)
    /// `self`.
    #[inline]
    pub fn covers(&self, other: &Ipv4Prefix) -> bool {
        self.len <= other.len && other.bits & mask(self.len) == self.bits
    }

    /// Whether the two prefixes share any address (one covers the other).
    #[inline]
    pub fn overlaps(&self, other: &Ipv4Prefix) -> bool {
        self.covers(other) || other.covers(self)
    }

    /// The immediate parent (one bit shorter), or `None` for `/0`.
    pub fn supernet(&self) -> Option<Ipv4Prefix> {
        if self.len == 0 {
            None
        } else {
            Some(Ipv4Prefix::new_truncating(self.bits, self.len - 1))
        }
    }

    /// The two immediate children (one bit longer), or `None` for `/32`.
    pub fn children(&self) -> Option<(Ipv4Prefix, Ipv4Prefix)> {
        if self.len == 32 {
            None
        } else {
            let len = self.len + 1;
            let left = Ipv4Prefix { bits: self.bits, len };
            let right = Ipv4Prefix {
                bits: self.bits | (1u32 << (32 - len)),
                len,
            };
            Some((left, right))
        }
    }

    /// The value of bit `index` (0 = most significant) of the network
    /// address; used by the trie walk.
    #[inline]
    pub fn bit(&self, index: u8) -> bool {
        debug_assert!(index < 32);
        self.bits & (1u32 << (31 - index)) != 0
    }

    /// Size of this prefix in 1/256-of-a-/24 units, i.e. exactly
    /// `num_addresses()` since a /24 holds 256 addresses. Reported space is
    /// divided by [`crate::UNITS_PER_SLASH24`] to obtain "/24 equivalents",
    /// the unit of the paper's Figure 2 and §3.3.
    #[inline]
    pub fn slash24_units(&self) -> u64 {
        self.num_addresses()
    }

    /// Size in /24 equivalents as a float (`/24` → 1.0, `/8` → 65536.0,
    /// `/32` → 1/256).
    pub fn slash24_equivalents(&self) -> f64 {
        self.slash24_units() as f64 / crate::UNITS_PER_SLASH24 as f64
    }
}

/// Netmask for a prefix length (`mask(8)` → `0xFF00_0000`, `mask(0)` → 0).
#[inline]
fn mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len)
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", Ipv4Addr::from(self.bits), self.len)
    }
}

impl FromStr for Ipv4Prefix {
    type Err = NetError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| NetError::BadPrefix(s.to_owned()))?;
        let bits = parse_addr(addr).map_err(|_| NetError::BadPrefix(s.to_owned()))?;
        let len: u8 = len
            .parse()
            .map_err(|_| NetError::BadPrefix(s.to_owned()))?;
        if len > 32 {
            return Err(NetError::BadPrefixLen(len as u32));
        }
        Ipv4Prefix::new(bits, len).map_err(|_| NetError::BadPrefix(s.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn parse_display_roundtrip() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "192.0.2.0/24", "203.0.113.7/32"] {
            assert_eq!(p(s).to_string(), s);
        }
    }

    #[test]
    fn rejects_noncanonical_and_garbage() {
        assert!("10.0.0.1/8".parse::<Ipv4Prefix>().is_err(), "host bits set");
        assert!("10.0.0.0/33".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0/".parse::<Ipv4Prefix>().is_err());
        assert!("/8".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0/-1".parse::<Ipv4Prefix>().is_err());
    }

    #[test]
    fn truncating_masks_host_bits() {
        let q = Ipv4Prefix::new_truncating(0x0A01_0203, 8);
        assert_eq!(q, p("10.0.0.0/8"));
    }

    #[test]
    fn containment() {
        let eight = p("10.0.0.0/8");
        assert!(eight.contains(0x0A00_0000));
        assert!(eight.contains(0x0AFF_FFFF));
        assert!(!eight.contains(0x0B00_0000));
        assert!(Ipv4Prefix::DEFAULT.contains(0));
        assert!(Ipv4Prefix::DEFAULT.contains(u32::MAX));
    }

    #[test]
    fn covers_and_overlaps() {
        let eight = p("10.0.0.0/8");
        let sixteen = p("10.1.0.0/16");
        let other = p("11.0.0.0/8");
        assert!(eight.covers(&sixteen));
        assert!(!sixteen.covers(&eight));
        assert!(eight.covers(&eight));
        assert!(eight.overlaps(&sixteen));
        assert!(sixteen.overlaps(&eight));
        assert!(!eight.overlaps(&other));
    }

    #[test]
    fn family_navigation() {
        let sixteen = p("10.1.0.0/16");
        assert_eq!(sixteen.supernet().unwrap(), p("10.0.0.0/15"));
        let (l, r) = sixteen.children().unwrap();
        assert_eq!(l, p("10.1.0.0/17"));
        assert_eq!(r, p("10.1.128.0/17"));
        assert!(Ipv4Prefix::DEFAULT.supernet().is_none());
        assert!(p("1.2.3.4/32").children().is_none());
    }

    #[test]
    fn first_last_count() {
        let q = p("192.0.2.0/24");
        assert_eq!(q.first(), 0xC000_0200);
        assert_eq!(q.last(), 0xC000_02FF);
        assert_eq!(q.num_addresses(), 256);
        assert_eq!(Ipv4Prefix::DEFAULT.num_addresses(), 1u64 << 32);
    }

    #[test]
    fn slash24_equivalents() {
        assert_eq!(p("10.0.0.0/24").slash24_equivalents(), 1.0);
        assert_eq!(p("10.0.0.0/8").slash24_equivalents(), 65536.0);
        assert_eq!(p("10.0.0.0/16").slash24_equivalents(), 256.0);
        assert_eq!(Ipv4Prefix::host(1).slash24_equivalents(), 1.0 / 256.0);
    }

    #[test]
    fn bit_extraction() {
        let q = p("128.0.0.0/1");
        assert!(q.bit(0));
        let q = p("64.0.0.0/2");
        assert!(!q.bit(0));
        assert!(q.bit(1));
    }
}
