//! Packet parsing errors.

use std::fmt;

/// Why a buffer failed to parse as a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketError {
    /// Buffer shorter than the fixed header, or shorter than a length
    /// field claims.
    Truncated,
    /// IPv4 version nibble was not 4.
    BadVersion(u8),
    /// IPv4 IHL below 5 (20 bytes) or longer than the buffer.
    BadHeaderLen(u8),
    /// A length field is inconsistent (e.g. IPv4 total length < header
    /// length, UDP length < 8).
    BadLength,
    /// Checksum validation failed.
    BadChecksum,
}

impl fmt::Display for PacketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PacketError::Truncated => f.write_str("buffer truncated"),
            PacketError::BadVersion(v) => write!(f, "IP version {v}, expected 4"),
            PacketError::BadHeaderLen(l) => write!(f, "bad IPv4 header length {l}"),
            PacketError::BadLength => f.write_str("inconsistent length field"),
            PacketError::BadChecksum => f.write_str("checksum mismatch"),
        }
    }
}

impl std::error::Error for PacketError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(PacketError::Truncated.to_string(), "buffer truncated");
        assert_eq!(PacketError::BadVersion(6).to_string(), "IP version 6, expected 4");
    }
}
