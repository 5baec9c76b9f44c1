//! IPv4 header encoding and validated parsing.

use crate::checksum;
use crate::PacketError;
use spoofwatch_net::codec::{put_u16, put_u32};

/// Minimum (and, in everything we emit, actual) IPv4 header length.
pub const HEADER_LEN: usize = 20;

/// A parsed or to-be-encoded IPv4 header (no options — options are
/// accepted on parse and skipped, never generated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Differentiated services byte.
    pub dscp_ecn: u8,
    /// Total packet length (header + payload), bytes.
    pub total_len: u16,
    /// Identification field.
    pub ident: u16,
    /// Flags (3 bits) and fragment offset (13 bits), as one field.
    pub flags_frag: u16,
    /// Time to live.
    pub ttl: u8,
    /// IP protocol number (1 = ICMP, 6 = TCP, 17 = UDP).
    pub proto: u8,
    /// Source address, host byte order.
    pub src: u32,
    /// Destination address, host byte order.
    pub dst: u32,
}

impl Ipv4Header {
    /// A conventional header for a locally crafted packet.
    pub fn simple(src: u32, dst: u32, proto: u8, payload_len: usize) -> Self {
        Ipv4Header {
            dscp_ecn: 0,
            total_len: (HEADER_LEN + payload_len) as u16,
            ident: 0,
            flags_frag: 0x4000, // don't fragment
            ttl: 64,
            proto,
            src,
            dst,
        }
    }

    /// Header length in bytes (always 20 for headers we build; parsed
    /// headers report their real IHL through [`Ipv4Header::parse`]'s
    /// returned payload slice instead).
    pub fn header_len(&self) -> usize {
        HEADER_LEN
    }

    /// Payload length implied by `total_len`.
    pub fn payload_len(&self) -> usize {
        self.total_len as usize - HEADER_LEN
    }

    /// Append the 20-byte header, with correct checksum, to `buf`.
    pub fn emit(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        buf.extend_from_slice(&[0x45, self.dscp_ecn]); // version 4, IHL 5
        put_u16(buf, self.total_len);
        put_u16(buf, self.ident);
        put_u16(buf, self.flags_frag);
        buf.extend_from_slice(&[self.ttl, self.proto]);
        put_u16(buf, 0); // checksum, zero for computation
        put_u32(buf, self.src);
        put_u32(buf, self.dst);
        let c = checksum::checksum(&buf[start..]);
        buf[start + 10..start + 12].copy_from_slice(&c.to_be_bytes());
    }

    /// Parse and validate an IPv4 packet, returning the header and the
    /// payload slice (options skipped).
    ///
    /// Validation: version, IHL, total length vs. buffer, and the header
    /// checksum.
    pub fn parse(data: &[u8]) -> Result<(Ipv4Header, &[u8]), PacketError> {
        if data.len() < HEADER_LEN {
            return Err(PacketError::Truncated);
        }
        let version = data[0] >> 4;
        if version != 4 {
            return Err(PacketError::BadVersion(version));
        }
        let ihl = (data[0] & 0x0F) as usize * 4;
        if !(HEADER_LEN..=60).contains(&ihl) || data.len() < ihl {
            return Err(PacketError::BadHeaderLen(data[0] & 0x0F));
        }
        let total_len = u16::from_be_bytes([data[2], data[3]]) as usize;
        if total_len < ihl || data.len() < total_len {
            return Err(PacketError::Truncated);
        }
        if !checksum::verify(&data[..ihl]) {
            return Err(PacketError::BadChecksum);
        }
        let hdr = Ipv4Header {
            dscp_ecn: data[1],
            total_len: total_len as u16,
            ident: u16::from_be_bytes([data[4], data[5]]),
            flags_frag: u16::from_be_bytes([data[6], data[7]]),
            ttl: data[8],
            proto: data[9],
            src: u32::from_be_bytes([data[12], data[13], data[14], data[15]]),
            dst: u32::from_be_bytes([data[16], data[17], data[18], data[19]]),
        };
        Ok((hdr, &data[ihl..total_len]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Header {
        Ipv4Header::simple(0x0A000001, 0xC0000201, 17, 8)
    }

    #[test]
    fn emit_parse_roundtrip() {
        let hdr = sample();
        let mut buf = Vec::new();
        hdr.emit(&mut buf);
        buf.extend_from_slice(&[0u8; 8]); // payload
        let (parsed, payload) = Ipv4Header::parse(&buf).unwrap();
        assert_eq!(parsed, hdr);
        assert_eq!(payload.len(), 8);
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let hdr = sample();
        let mut buf = Vec::new();
        hdr.emit(&mut buf);
        buf.extend_from_slice(&[0u8; 8]);
        for cut in 0..buf.len() {
            assert!(
                Ipv4Header::parse(&buf[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = Vec::new();
        sample().emit(&mut buf);
        buf.extend_from_slice(&[0u8; 8]);
        buf[0] = 0x65; // version 6
        assert_eq!(Ipv4Header::parse(&buf), Err(PacketError::BadVersion(6)));
    }

    #[test]
    fn rejects_bad_ihl() {
        let mut buf = Vec::new();
        sample().emit(&mut buf);
        buf.extend_from_slice(&[0u8; 8]);
        buf[0] = 0x44; // IHL 4 → 16 bytes, below minimum
        assert!(matches!(
            Ipv4Header::parse(&buf),
            Err(PacketError::BadHeaderLen(4))
        ));
    }

    #[test]
    fn detects_corruption_via_checksum() {
        let mut buf = Vec::new();
        sample().emit(&mut buf);
        buf.extend_from_slice(&[0u8; 8]);
        for byte in 0..HEADER_LEN {
            let mut bad = buf.clone();
            bad[byte] ^= 0x01;
            // Any single-bit header flip must be rejected (by checksum or
            // by a stricter structural check that fires first).
            assert!(Ipv4Header::parse(&bad).is_err(), "flip at {byte} accepted");
        }
    }

    #[test]
    fn options_are_skipped() {
        // Hand-build a 24-byte header (IHL 6) with one NOP option word.
        let mut hdr = [0u8; 24];
        hdr[0] = 0x46;
        hdr[2..4].copy_from_slice(&28u16.to_be_bytes()); // total 28 = 24 + 4
        hdr[8] = 64;
        hdr[9] = 17;
        hdr[12..16].copy_from_slice(&0x0A000001u32.to_be_bytes());
        hdr[16..20].copy_from_slice(&0x0A000002u32.to_be_bytes());
        hdr[20] = 0x01; // NOP
        let c = crate::checksum::checksum(&hdr);
        hdr[10..12].copy_from_slice(&c.to_be_bytes());
        let mut buf = hdr.to_vec();
        buf.extend_from_slice(&[0xAA; 4]);
        let (parsed, payload) = Ipv4Header::parse(&buf).unwrap();
        assert_eq!(parsed.src, 0x0A000001);
        assert_eq!(payload, &[0xAA; 4]);
    }

    #[test]
    fn trailing_bytes_beyond_total_len_ignored() {
        let hdr = sample();
        let mut buf = Vec::new();
        hdr.emit(&mut buf);
        buf.extend_from_slice(&[0u8; 8]);
        buf.extend_from_slice(&[0xFF; 10]); // e.g. Ethernet padding
        let (_, payload) = Ipv4Header::parse(&buf).unwrap();
        assert_eq!(payload.len(), 8);
    }
}
