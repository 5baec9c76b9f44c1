//! UDP header encoding and validated parsing.

use crate::checksum;
use crate::PacketError;
use spoofwatch_net::codec::put_u16;

/// UDP header length.
pub const HEADER_LEN: usize = 8;

/// A UDP header. The checksum covers the IPv4 pseudo-header, so source and
/// destination addresses must be supplied to [`UdpHeader::emit`] and
/// [`UdpHeader::parse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub sport: u16,
    /// Destination port.
    pub dport: u16,
}

impl UdpHeader {
    /// Append header + payload with a correct pseudo-header checksum.
    pub fn emit(&self, buf: &mut Vec<u8>, src: u32, dst: u32, payload: &[u8]) {
        let start = buf.len();
        let len = (HEADER_LEN + payload.len()) as u16;
        put_u16(buf, self.sport);
        put_u16(buf, self.dport);
        put_u16(buf, len);
        put_u16(buf, 0); // checksum, zero for computation
        buf.extend_from_slice(payload);
        let acc = checksum::pseudo_header(src, dst, 17, len) + checksum::sum(&buf[start..]);
        let mut c = checksum::finish(acc);
        if c == 0 {
            // RFC 768: transmitted zero means "no checksum"; an all-zero
            // result is sent as all ones.
            c = 0xFFFF;
        }
        buf[start + 6..start + 8].copy_from_slice(&c.to_be_bytes());
    }

    /// Parse and validate a UDP datagram, returning the header and
    /// payload. A zero checksum field (checksum disabled) is accepted, as
    /// the RFC requires.
    pub fn parse(
        data: &[u8],
        src: u32,
        dst: u32,
    ) -> Result<(UdpHeader, &[u8]), PacketError> {
        if data.len() < HEADER_LEN {
            return Err(PacketError::Truncated);
        }
        let len = u16::from_be_bytes([data[4], data[5]]) as usize;
        if len < HEADER_LEN {
            return Err(PacketError::BadLength);
        }
        if data.len() < len {
            return Err(PacketError::Truncated);
        }
        let cksum = u16::from_be_bytes([data[6], data[7]]);
        if cksum != 0 {
            let acc = checksum::pseudo_header(src, dst, 17, len as u16)
                + checksum::sum(&data[..len]);
            if checksum::finish(acc) != 0 {
                return Err(PacketError::BadChecksum);
            }
        }
        let hdr = UdpHeader {
            sport: u16::from_be_bytes([data[0], data[1]]),
            dport: u16::from_be_bytes([data[2], data[3]]),
        };
        Ok((hdr, &data[HEADER_LEN..len]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: u32 = 0x0A000001;
    const DST: u32 = 0x0A000002;

    #[test]
    fn roundtrip() {
        let hdr = UdpHeader { sport: 53124, dport: 123 };
        let mut buf = Vec::new();
        hdr.emit(&mut buf, SRC, DST, b"ntp mon");
        let (parsed, payload) = UdpHeader::parse(&buf, SRC, DST).unwrap();
        assert_eq!(parsed, hdr);
        assert_eq!(payload, b"ntp mon");
    }

    #[test]
    fn checksum_binds_addresses() {
        let hdr = UdpHeader { sport: 1, dport: 2 };
        let mut buf = Vec::new();
        hdr.emit(&mut buf, SRC, DST, b"x");
        // Same bytes, different claimed source: pseudo-header mismatch.
        assert_eq!(
            UdpHeader::parse(&buf, SRC + 1, DST),
            Err(PacketError::BadChecksum)
        );
    }

    #[test]
    fn zero_checksum_accepted() {
        let hdr = UdpHeader { sport: 7, dport: 9 };
        let mut buf = Vec::new();
        hdr.emit(&mut buf, SRC, DST, b"data");
        buf[6] = 0;
        buf[7] = 0;
        assert!(UdpHeader::parse(&buf, SRC, DST).is_ok());
    }

    #[test]
    fn truncation_and_bad_length() {
        let hdr = UdpHeader { sport: 7, dport: 9 };
        let mut buf = Vec::new();
        hdr.emit(&mut buf, SRC, DST, b"data");
        for cut in 0..buf.len() {
            assert!(UdpHeader::parse(&buf[..cut], SRC, DST).is_err());
        }
        let mut bad = buf.clone();
        bad[4] = 0;
        bad[5] = 4; // len 4 < 8
        assert_eq!(UdpHeader::parse(&bad, SRC, DST), Err(PacketError::BadLength));
    }

    #[test]
    fn corruption_detected() {
        let hdr = UdpHeader { sport: 7, dport: 9 };
        let mut buf = Vec::new();
        hdr.emit(&mut buf, SRC, DST, b"payload bytes");
        for byte in 0..buf.len() {
            let mut bad = buf.clone();
            bad[byte] ^= 0x04;
            // Either rejected, or the flip hit a field whose change keeps
            // the datagram self-consistent (impossible for a checksum-
            // covered flip — so everything must fail except flips that
            // produce checksum 0, which disables verification).
            let disabled = bad[6] == 0 && bad[7] == 0;
            if !disabled {
                assert!(
                    UdpHeader::parse(&bad, SRC, DST).is_err(),
                    "flip at {byte} accepted"
                );
            }
        }
    }

    #[test]
    fn empty_payload() {
        let hdr = UdpHeader { sport: 1, dport: 1 };
        let mut buf = Vec::new();
        hdr.emit(&mut buf, SRC, DST, &[]);
        let (_, payload) = UdpHeader::parse(&buf, SRC, DST).unwrap();
        assert!(payload.is_empty());
    }
}
