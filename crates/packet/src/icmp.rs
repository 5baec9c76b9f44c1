//! ICMPv4 header encoding and validated parsing.

use crate::checksum;
use crate::PacketError;
use spoofwatch_net::codec::put_u16;

/// ICMP header length (type, code, checksum, rest-of-header).
pub const HEADER_LEN: usize = 8;

/// ICMP message types used by the generators and analyses.
pub mod types {
    /// Echo reply.
    pub const ECHO_REPLY: u8 = 0;
    /// Destination unreachable.
    pub const DEST_UNREACHABLE: u8 = 3;
    /// Echo request.
    pub const ECHO_REQUEST: u8 = 8;
    /// Time exceeded — the classic "stray traffic from router IPs" case
    /// (§5.2: routers answering traceroutes over their default route).
    pub const TIME_EXCEEDED: u8 = 11;
}

/// An ICMPv4 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcmpHeader {
    /// Message type.
    pub icmp_type: u8,
    /// Message code.
    pub code: u8,
    /// The 4 type-specific bytes after the checksum (identifier/sequence
    /// for echo, unused for time exceeded).
    pub rest: [u8; 4],
}

impl IcmpHeader {
    /// An echo request with identifier and sequence.
    pub fn echo_request(ident: u16, seq: u16) -> Self {
        let mut rest = [0u8; 4];
        rest[0..2].copy_from_slice(&ident.to_be_bytes());
        rest[2..4].copy_from_slice(&seq.to_be_bytes());
        IcmpHeader {
            icmp_type: types::ECHO_REQUEST,
            code: 0,
            rest,
        }
    }

    /// A TTL-exceeded-in-transit message, as emitted by routers.
    pub fn time_exceeded() -> Self {
        IcmpHeader {
            icmp_type: types::TIME_EXCEEDED,
            code: 0,
            rest: [0; 4],
        }
    }

    /// Append header + payload with a correct checksum (ICMP checksums
    /// cover the whole message, no pseudo-header).
    pub fn emit(&self, buf: &mut Vec<u8>, payload: &[u8]) {
        let start = buf.len();
        buf.extend_from_slice(&[self.icmp_type, self.code]);
        put_u16(buf, 0); // checksum, zero for computation
        buf.extend_from_slice(&self.rest);
        buf.extend_from_slice(payload);
        let c = checksum::checksum(&buf[start..]);
        buf[start + 2..start + 4].copy_from_slice(&c.to_be_bytes());
    }

    /// Parse and validate an ICMP message, returning header and payload.
    pub fn parse(data: &[u8]) -> Result<(IcmpHeader, &[u8]), PacketError> {
        if data.len() < HEADER_LEN {
            return Err(PacketError::Truncated);
        }
        if !checksum::verify(data) {
            return Err(PacketError::BadChecksum);
        }
        let hdr = IcmpHeader {
            icmp_type: data[0],
            code: data[1],
            rest: [data[4], data[5], data[6], data[7]],
        };
        Ok((hdr, &data[HEADER_LEN..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_roundtrip() {
        let hdr = IcmpHeader::echo_request(0x1234, 7);
        let mut buf = Vec::new();
        hdr.emit(&mut buf, b"abcdefgh");
        let (parsed, payload) = IcmpHeader::parse(&buf).unwrap();
        assert_eq!(parsed, hdr);
        assert_eq!(payload, b"abcdefgh");
        assert_eq!(parsed.icmp_type, types::ECHO_REQUEST);
    }

    #[test]
    fn time_exceeded_roundtrip() {
        let hdr = IcmpHeader::time_exceeded();
        let mut buf = Vec::new();
        // Time-exceeded carries the offending IP header + 8 bytes.
        hdr.emit(&mut buf, &[0u8; 28]);
        let (parsed, payload) = IcmpHeader::parse(&buf).unwrap();
        assert_eq!(parsed.icmp_type, types::TIME_EXCEEDED);
        assert_eq!(payload.len(), 28);
    }

    #[test]
    fn corruption_detected() {
        let hdr = IcmpHeader::echo_request(1, 1);
        let mut buf = Vec::new();
        hdr.emit(&mut buf, b"data");
        for byte in 0..buf.len() {
            let mut bad = buf.clone();
            bad[byte] ^= 0x20;
            assert!(IcmpHeader::parse(&bad).is_err(), "flip at {byte}");
        }
    }

    #[test]
    fn truncation() {
        let hdr = IcmpHeader::echo_request(1, 1);
        let mut buf = Vec::new();
        hdr.emit(&mut buf, &[]);
        for cut in 0..HEADER_LEN {
            assert!(IcmpHeader::parse(&buf[..cut]).is_err());
        }
    }
}
