//! TCP header encoding and validated parsing.

use crate::checksum;
use crate::PacketError;
use spoofwatch_net::codec::{put_u16, put_u32};

/// Minimum (and, in everything we emit, actual) TCP header length.
pub const HEADER_LEN: usize = 20;

/// TCP flag bits, as in the wire format's 13th byte (lower 6 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN flag.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN flag.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST flag.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH flag.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK flag.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// URG flag.
    pub const URG: TcpFlags = TcpFlags(0x20);

    /// Whether all flags in `other` are set in `self`.
    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }
}

impl std::ops::BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

/// A TCP header (no options — options are skipped on parse per the data
/// offset field, never generated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub sport: u16,
    /// Destination port.
    pub dport: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Flag bits.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
}

impl TcpHeader {
    /// A bare SYN, as emitted by flooding attack generators.
    pub fn syn(sport: u16, dport: u16, seq: u32) -> Self {
        TcpHeader {
            sport,
            dport,
            seq,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 65535,
        }
    }

    /// Append header + payload with a correct pseudo-header checksum.
    pub fn emit(&self, buf: &mut Vec<u8>, src: u32, dst: u32, payload: &[u8]) {
        let start = buf.len();
        put_u16(buf, self.sport);
        put_u16(buf, self.dport);
        put_u32(buf, self.seq);
        put_u32(buf, self.ack);
        buf.extend_from_slice(&[5 << 4, self.flags.0]); // data offset 5 words
        put_u16(buf, self.window);
        put_u32(buf, 0); // checksum (zero for computation), urgent pointer
        buf.extend_from_slice(payload);
        let segment = &buf[start..];
        let acc = checksum::pseudo_header(src, dst, 6, segment.len() as u16)
            + checksum::sum(segment);
        let c = checksum::finish(acc);
        buf[start + 16..start + 18].copy_from_slice(&c.to_be_bytes());
    }

    /// Parse and validate a TCP segment, returning the header and payload
    /// (options skipped).
    pub fn parse(
        data: &[u8],
        src: u32,
        dst: u32,
    ) -> Result<(TcpHeader, &[u8]), PacketError> {
        if data.len() < HEADER_LEN {
            return Err(PacketError::Truncated);
        }
        let offset = (data[12] >> 4) as usize * 4;
        if !(HEADER_LEN..=60).contains(&offset) {
            return Err(PacketError::BadHeaderLen(data[12] >> 4));
        }
        if data.len() < offset {
            return Err(PacketError::Truncated);
        }
        let acc = checksum::pseudo_header(src, dst, 6, data.len() as u16) + checksum::sum(data);
        if checksum::finish(acc) != 0 {
            return Err(PacketError::BadChecksum);
        }
        let hdr = TcpHeader {
            sport: u16::from_be_bytes([data[0], data[1]]),
            dport: u16::from_be_bytes([data[2], data[3]]),
            seq: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
            ack: u32::from_be_bytes([data[8], data[9], data[10], data[11]]),
            flags: TcpFlags(data[13] & 0x3F),
            window: u16::from_be_bytes([data[14], data[15]]),
        };
        Ok((hdr, &data[offset..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: u32 = 0xC6336401; // 198.51.100.1
    const DST: u32 = 0xCB007101; // 203.0.113.1

    #[test]
    fn syn_roundtrip() {
        let hdr = TcpHeader::syn(44123, 80, 0xDEADBEEF);
        let mut buf = Vec::new();
        hdr.emit(&mut buf, SRC, DST, &[]);
        assert_eq!(buf.len(), HEADER_LEN);
        let (parsed, payload) = TcpHeader::parse(&buf, SRC, DST).unwrap();
        assert_eq!(parsed, hdr);
        assert!(payload.is_empty());
        assert!(parsed.flags.contains(TcpFlags::SYN));
        assert!(!parsed.flags.contains(TcpFlags::ACK));
    }

    #[test]
    fn payload_roundtrip() {
        let hdr = TcpHeader {
            sport: 80,
            dport: 51000,
            seq: 1,
            ack: 2,
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window: 1024,
        };
        let mut buf = Vec::new();
        hdr.emit(&mut buf, SRC, DST, b"HTTP/1.1 200 OK\r\n");
        let (parsed, payload) = TcpHeader::parse(&buf, SRC, DST).unwrap();
        assert_eq!(parsed, hdr);
        assert_eq!(payload, b"HTTP/1.1 200 OK\r\n");
    }

    #[test]
    fn checksum_binds_addresses_and_content() {
        let hdr = TcpHeader::syn(1, 2, 3);
        let mut buf = Vec::new();
        hdr.emit(&mut buf, SRC, DST, b"x");
        assert_eq!(TcpHeader::parse(&buf, SRC, DST + 1), Err(PacketError::BadChecksum));
        for byte in 0..buf.len() {
            let mut bad = buf.clone();
            bad[byte] ^= 0x80;
            assert!(TcpHeader::parse(&bad, SRC, DST).is_err(), "flip at {byte}");
        }
    }

    #[test]
    fn truncation() {
        let hdr = TcpHeader::syn(1, 2, 3);
        let mut buf = Vec::new();
        hdr.emit(&mut buf, SRC, DST, &[]);
        for cut in 0..buf.len() {
            assert!(TcpHeader::parse(&buf[..cut], SRC, DST).is_err());
        }
    }

    #[test]
    fn bad_data_offset() {
        let hdr = TcpHeader::syn(1, 2, 3);
        let mut buf = Vec::new();
        hdr.emit(&mut buf, SRC, DST, &[]);
        buf[12] = 4 << 4; // below minimum
        assert!(matches!(
            TcpHeader::parse(&buf, SRC, DST),
            Err(PacketError::BadHeaderLen(4))
        ));
    }

    #[test]
    fn flags_algebra() {
        let f = TcpFlags::SYN | TcpFlags::ACK;
        assert!(f.contains(TcpFlags::SYN));
        assert!(f.contains(TcpFlags::ACK));
        assert!(f.contains(TcpFlags::SYN | TcpFlags::ACK));
        assert!(!f.contains(TcpFlags::RST));
    }
}
