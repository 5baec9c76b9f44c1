//! spoofwatch-obs: the observability layer for the spoofed-traffic
//! study pipeline.
//!
//! Three pieces, all std-only so every other crate in the workspace can
//! depend on this one:
//!
//! - [`metrics`]: a lock-cheap metrics registry — counters, gauges, and
//!   log-linear histograms — rendered in Prometheus text exposition
//!   format, snapshotted to a file or served from a tiny blocking
//!   `/metrics` endpoint ([`expo::serve`]). Handles from a *disabled*
//!   registry are inert `Option::None` wrappers: one branch on the hot
//!   path, no allocation, no locking.
//! - [`trace`]: span/event tracing into a bounded ring buffer that
//!   doubles as a flight recorder — when a worker panics or the
//!   watchdog flags a stall, the last N events dump as JSONL.
//! - [`clock`]: the [`Clock`] abstraction (real + manual test clock)
//!   that makes the runner's watchdog and backoff deterministic under
//!   test.
//!
//! # Global registry
//!
//! Deep decode paths (IPFIX/MRT/pcap fault taxonomies) cannot thread a
//! registry handle through every call site, so they report to a
//! process-global registry. It starts **disabled** — every handle it
//! hands out is a no-op — unless the `SPOOFWATCH_METRICS` environment
//! variable is set (to anything but `0`/`off`/`false`) or the host
//! installs a live registry with [`install_global`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod clock;
pub mod expo;
pub mod metrics;
pub mod trace;

pub use clock::{Clock, ManualClock, RealClock};
pub use expo::{
    fetch_metrics, parse_exposition, serve, serve_with, Exposition, MetricsServer, ServeOptions,
};
pub use metrics::{
    Counter, FamilySnapshot, Gauge, Histogram, HistogramSnapshot, MetricKind, MetricsRegistry,
    SeriesSnapshot, SeriesValue, Snapshot,
};
pub use trace::{EventKind, FieldValue, Span, TraceEvent, Tracer};

use std::sync::{Arc, OnceLock};

static GLOBAL: OnceLock<Arc<MetricsRegistry>> = OnceLock::new();

fn env_enabled() -> bool {
    match std::env::var("SPOOFWATCH_METRICS") {
        Ok(v) => {
            let v = v.trim().to_ascii_lowercase();
            !(v.is_empty() || v == "0" || v == "off" || v == "false")
        }
        Err(_) => false,
    }
}

/// The process-global registry used by instrumentation that cannot be
/// handed a registry explicitly (decoder fault taxonomies, pipeline
/// counters). Disabled — all handles inert — unless `SPOOFWATCH_METRICS`
/// is set or [`install_global`] ran first.
pub fn global() -> &'static Arc<MetricsRegistry> {
    GLOBAL.get_or_init(|| {
        if env_enabled() {
            MetricsRegistry::new()
        } else {
            MetricsRegistry::disabled()
        }
    })
}

/// Install `registry` as the process-global registry. Returns `false`
/// if the global was already initialized (first install — or first
/// [`global`] call — wins; the registry cannot be swapped mid-flight
/// because live handles point into it).
pub fn install_global(registry: Arc<MetricsRegistry>) -> bool {
    GLOBAL.set(registry).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_is_stable_across_calls() {
        let a = Arc::clone(global());
        let b = Arc::clone(global());
        assert!(Arc::ptr_eq(&a, &b));
        // Whatever state the global is in, a second install must fail.
        assert!(!install_global(MetricsRegistry::new()));
    }
}
