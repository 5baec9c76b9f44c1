//! # spoofwatch-net
//!
//! Foundational network types shared by every other `spoofwatch` crate:
//!
//! * [`Asn`] — autonomous system numbers, including the reserved ranges
//!   relevant for inter-domain measurement work;
//! * [`Ipv4Prefix`] — canonical CIDR prefixes with containment tests and
//!   `/24`-equivalent arithmetic (the unit the paper reports address space
//!   in);
//! * [`FlowRecord`] — the IPFIX-style flow summary consumed by the passive
//!   spoofing classifier (source/destination addresses and ports, transport
//!   protocol, sampled packet and byte counts, capture timestamp, and the
//!   IXP member that emitted the flow);
//! * [`TrafficClass`] / [`InferenceMethod`] / [`OrgMode`] — the
//!   classification vocabulary of the paper (Bogon / Unrouted / Invalid /
//!   Valid, inferred via Naive / Customer Cone / Full Cone, with or without
//!   multi-AS-organization adjustment).
//!
//! The crate is deliberately free of I/O and of any policy: it only defines
//! the vocabulary in which the rest of the system speaks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Decode hot paths must surface faults through the ingest taxonomy, not
// panic; tests are exempt via cfg.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod addr;
pub mod asn;
pub mod batch;
pub mod class;
pub mod codec;
pub mod crc32;
pub mod error;
pub mod faults;
pub mod flow;
pub mod ingest;
pub mod mix;
pub mod prefix;
pub mod wire;

pub use addr::{fmt_addr, parse_addr};
pub use batch::FlowBatch;
pub use crc32::crc32;
pub use asn::Asn;
pub use class::{InferenceMethod, OrgMode, TrafficClass};
pub use error::NetError;
pub use faults::{AppliedFault, FaultInjector, WireFault, WireFaultInjector};
pub use flow::{FlowRecord, Proto};
pub use ingest::{FaultKind, IngestEvent, IngestHealth, IngestStatus};
pub use prefix::Ipv4Prefix;
pub use wire::{
    frame_decode, frame_encode, FrameError, FrameReader, InProcHub, ShardEndpoint, ShardRx,
    ShardTransport, ShardTx, TcpEndpoint,
};
#[cfg(unix)]
pub use wire::UdsEndpoint;

/// Number of 1/256-of-a-/24 units in one /24 (i.e. one unit per address
/// block of size 1). See [`prefix::Ipv4Prefix::slash24_units`].
pub const UNITS_PER_SLASH24: u64 = 256;
