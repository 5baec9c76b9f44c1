//! # spoofwatch-ixp
//!
//! The vantage point: a large IXP whose switching fabric carries the
//! inter-domain traffic of several hundred member ASes, observed as
//! packet-sampled IPFIX flow summaries (the paper samples 1 of every
//! 10 000 packets).
//!
//! * [`ipfix`] — a compact binary codec ("IPFIX-lite") for persisting and
//!   replaying flow records;
//! * [`sampler`] — random 1-out-of-N packet sampling, turning true
//!   traffic into what the collector actually records;
//! * [`traffic`] — the seeded traffic generator: regular diurnal member
//!   traffic plus every phenomenon the paper observes (NAT bogon leaks,
//!   randomly spoofed SYN floods, selectively spoofed NTP amplification
//!   with responses, Steam floods from unrouted space, stray router
//!   ICMP, provider-assigned space, hidden-org and tunnel traffic), each
//!   flow carrying a ground-truth label so detector output is scorable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Decode hot paths must surface faults through the ingest taxonomy, not
// panic; tests are exempt via cfg.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod chunked;
pub mod ipfix;
pub mod link;
pub mod live;
pub mod sampler;
pub mod traffic;

pub use chunked::{ChunkSpan, ChunkedIpfixReader, FlowChunk};
pub use live::{
    run_live_producer, LiveChunk, LiveProducerConfig, LiveProducerStats, LiveScenario,
    LINK_PROTO_VERSION, LIVE_WIRE_MAGIC,
};
pub use sampler::PacketSampler;
pub use traffic::{Trace, TrafficConfig, TrafficLabel};
