//! # spoofwatch-packet
//!
//! Wire formats for the packet-level side of the system: IPv4, TCP, UDP,
//! and ICMPv4 headers with full checksum generation and validation, a
//! classic libpcap file writer and resilient decoder, packet crafting
//! helpers for the traffic generators and the active spoofing prober, and
//! flow extraction (packet bytes → [`spoofwatch_net::FlowRecord`] fields).
//!
//! The design follows smoltcp's philosophy: plain structs encoded to and
//! parsed from byte slices with explicit validation and no compile-time
//! tricks. Parsing never panics on malformed input — every header failure
//! mode is a [`PacketError`] variant, a damaged capture is quarantined
//! span by span (`spoofwatch_net::IngestHealth`), and the test suite
//! includes truncation and corruption injection for each format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Decode hot paths must surface faults through the ingest taxonomy, not
// panic; tests are exempt via cfg.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod checksum;
pub mod craft;
mod error;
pub mod flow;
pub mod icmp;
pub mod ipv4;
pub mod pcap;
pub mod tcp;
pub mod udp;

pub use error::PacketError;
pub use icmp::IcmpHeader;
pub use ipv4::Ipv4Header;
pub use pcap::{PcapPacket, PcapWriter};
pub use tcp::{TcpFlags, TcpHeader};
pub use udp::UdpHeader;
