//! A lock-cheap metrics registry with Prometheus text exposition.
//!
//! Design constraints, in order:
//!
//! 1. **The hot path must be safe by default.** Handles returned by a
//!    disabled registry are no-ops (one branch on a `None`); handles
//!    from an enabled registry are a single relaxed atomic RMW. The
//!    registry mutex is taken only at registration and render time —
//!    never on `inc`/`set`/`record`.
//! 2. **Histograms are log-linear.** Each power-of-two octave is split
//!    into four linear sub-buckets, so any recorded value lands in a
//!    bucket whose width is at most a quarter of its magnitude — good
//!    enough for p50/p90/p99 latency estimation with a fixed, small
//!    memory footprint and no per-record allocation.
//! 3. **Exposition is the contract.** [`MetricsRegistry::render_prometheus`]
//!    emits the Prometheus text format (v0.0.4): `# HELP`/`# TYPE`
//!    headers, escaped label values, cumulative `_bucket{le=...}`
//!    series ending in `+Inf`, `_sum` and `_count`. The same registry
//!    state is available programmatically via [`MetricsRegistry::snapshot`]
//!    so accounting invariants can be asserted against the *exported*
//!    numbers, not a parallel bookkeeping path.

use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Largest power-of-two octave a histogram resolves before overflowing
/// into the `+Inf` bucket: 2^47 ≈ 1.6 days in nanoseconds, 128 TiB in
/// bytes.
const MAX_MSB: u32 = 47;
/// Finite buckets: 4 unit buckets for values 0–3, then 4 sub-buckets
/// per octave for octaves 2..=[`MAX_MSB`].
const BUCKETS: usize = 4 * MAX_MSB as usize;
/// Index of the overflow (`+Inf`) bucket.
const OVERFLOW: usize = BUCKETS;

/// Log-linear bucket index for `v` (see module docs).
fn bucket_index(v: u64) -> usize {
    if v < 4 {
        return v as usize;
    }
    let m = 63 - v.leading_zeros();
    if m > MAX_MSB {
        return OVERFLOW;
    }
    let sub = ((v >> (m - 2)) & 3) as usize;
    4 * (m as usize - 1) + sub
}

/// Inclusive upper bound of finite bucket `i` (the Prometheus `le`).
fn bucket_upper(i: usize) -> u64 {
    if i < 4 {
        return i as u64;
    }
    let m = (i / 4 + 1) as u32;
    let sub = (i % 4) as u64;
    (1u64 << m) + (sub + 1) * (1u64 << (m - 2)) - 1
}

/// What a metric family measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// A value that can go up and down.
    Gauge,
    /// A log-linear distribution of recorded values.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Shared storage behind a histogram handle.
#[derive(Debug)]
pub struct HistogramCore {
    buckets: Vec<AtomicU64>, // BUCKETS + 1 slots; count derived from them
    sum: AtomicU64,
}

impl HistogramCore {
    fn new() -> HistogramCore {
        HistogramCore {
            buckets: (0..=BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut cumulative = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                cumulative += n;
                let le = if i == OVERFLOW {
                    f64::INFINITY
                } else {
                    bucket_upper(i) as f64
                };
                buckets.push((le, cumulative));
            }
        }
        HistogramSnapshot {
            count: cumulative,
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A monotonic counter handle. Cloning shares the underlying cell; a
/// handle from a disabled registry is a no-op.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A counter that ignores everything (what disabled registries
    /// hand out).
    pub const fn noop() -> Counter {
        Counter(None)
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A gauge handle (set/add/sub). No-op when detached.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// A gauge that ignores everything.
    pub const fn noop() -> Gauge {
        Gauge(None)
    }

    /// Set to an absolute value.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Add `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        if let Some(g) = &self.0 {
            g.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Subtract `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

/// A histogram handle. No-op when detached.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// A histogram that ignores everything.
    pub const fn noop() -> Histogram {
        Histogram(None)
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.record(v);
        }
    }

    /// Current distribution (empty for a no-op handle).
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0.as_ref().map_or_else(
            || HistogramSnapshot {
                count: 0,
                sum: 0,
                buckets: Vec::new(),
            },
            |h| h.snapshot(),
        )
    }
}

#[derive(Debug)]
enum SeriesStorage {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistogramCore>),
}

#[derive(Debug)]
struct Family {
    kind: MetricKind,
    help: String,
    series: BTreeMap<Vec<(String, String)>, SeriesStorage>,
}

/// The registry: a named collection of metric families.
///
/// Construct with [`MetricsRegistry::new`] (live) or
/// [`MetricsRegistry::disabled`] (every handle is a no-op — the default
/// for library code so uninstrumented users pay one branch per event).
#[derive(Debug)]
pub struct MetricsRegistry {
    enabled: bool,
    inner: Mutex<BTreeMap<String, Family>>,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .enumerate()
            .all(|(i, c)| c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit()))
}

fn label_key(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = labels
        .iter()
        .map(|(k, val)| (k.to_string(), val.to_string()))
        .collect();
    v.sort();
    v
}

impl MetricsRegistry {
    /// A live registry.
    pub fn new() -> Arc<MetricsRegistry> {
        Arc::new(MetricsRegistry {
            enabled: true,
            inner: Mutex::new(BTreeMap::new()),
        })
    }

    /// A registry whose handles are all no-ops and whose exposition is
    /// empty. This is the hot-path-safe default.
    pub fn disabled() -> Arc<MetricsRegistry> {
        Arc::new(MetricsRegistry {
            enabled: false,
            inner: Mutex::new(BTreeMap::new()),
        })
    }

    /// Whether handles from this registry record anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn family<'a>(
        guard: &'a mut BTreeMap<String, Family>,
        name: &str,
        help: &str,
        kind: MetricKind,
    ) -> Option<&'a mut Family> {
        debug_assert!(valid_name(name), "invalid metric name {name:?}");
        let fam = guard.entry(name.to_string()).or_insert_with(|| Family {
            kind,
            help: help.to_string(),
            series: BTreeMap::new(),
        });
        if fam.kind != kind {
            debug_assert!(false, "metric {name:?} re-registered as a different kind");
            return None;
        }
        Some(fam)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Family>> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The counter `name{labels}`, registering it on first use. `help`
    /// from the first registration wins.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        if !self.enabled {
            return Counter::noop();
        }
        let mut guard = self.lock();
        let Some(fam) = Self::family(&mut guard, name, help, MetricKind::Counter) else {
            return Counter::noop();
        };
        let cell = fam
            .series
            .entry(label_key(labels))
            .or_insert_with(|| SeriesStorage::Counter(Arc::new(AtomicU64::new(0))));
        match cell {
            SeriesStorage::Counter(c) => Counter(Some(Arc::clone(c))),
            _ => Counter::noop(),
        }
    }

    /// The gauge `name{labels}`, registering it on first use.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        if !self.enabled {
            return Gauge::noop();
        }
        let mut guard = self.lock();
        let Some(fam) = Self::family(&mut guard, name, help, MetricKind::Gauge) else {
            return Gauge::noop();
        };
        let cell = fam
            .series
            .entry(label_key(labels))
            .or_insert_with(|| SeriesStorage::Gauge(Arc::new(AtomicI64::new(0))));
        match cell {
            SeriesStorage::Gauge(g) => Gauge(Some(Arc::clone(g))),
            _ => Gauge::noop(),
        }
    }

    /// The histogram `name{labels}`, registering it on first use.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        if !self.enabled {
            return Histogram::noop();
        }
        let mut guard = self.lock();
        let Some(fam) = Self::family(&mut guard, name, help, MetricKind::Histogram) else {
            return Histogram::noop();
        };
        let cell = fam
            .series
            .entry(label_key(labels))
            .or_insert_with(|| SeriesStorage::Histogram(Arc::new(HistogramCore::new())));
        match cell {
            SeriesStorage::Histogram(h) => Histogram(Some(Arc::clone(h))),
            _ => Histogram::noop(),
        }
    }

    /// A point-in-time copy of every family for programmatic reads.
    pub fn snapshot(&self) -> Snapshot {
        let guard = self.lock();
        let families = guard
            .iter()
            .map(|(name, fam)| FamilySnapshot {
                name: name.clone(),
                kind: fam.kind,
                help: fam.help.clone(),
                series: fam
                    .series
                    .iter()
                    .map(|(labels, storage)| SeriesSnapshot {
                        labels: labels.clone(),
                        value: match storage {
                            SeriesStorage::Counter(c) => {
                                SeriesValue::Counter(c.load(Ordering::Relaxed))
                            }
                            SeriesStorage::Gauge(g) => {
                                SeriesValue::Gauge(g.load(Ordering::Relaxed))
                            }
                            SeriesStorage::Histogram(h) => {
                                SeriesValue::Histogram(h.snapshot())
                            }
                        },
                    })
                    .collect(),
            })
            .collect();
        Snapshot { families }
    }

    /// Render the registry in the Prometheus text exposition format
    /// (v0.0.4).
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }

    /// Write the current exposition atomically-ish (tmp + rename) to
    /// `path`, so scrapers of the file never see a torn snapshot.
    pub fn write_snapshot(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(self.render_prometheus().as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }
}

/// Escape a `# HELP` string: backslash and newline.
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escape a label value: backslash, double quote, newline.
fn escape_label_value(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn render_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label_value(v));
        out.push('"');
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label_value(v));
        out.push('"');
    }
    out.push('}');
}

fn fmt_le(le: f64) -> String {
    if le.is_infinite() {
        "+Inf".to_string()
    } else {
        // Bucket bounds are integral by construction.
        format!("{}", le as u64)
    }
}

/// A point-in-time copy of one registry, suitable both for rendering
/// and for asserting accounting invariants against the exported values.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Every family, sorted by name.
    pub families: Vec<FamilySnapshot>,
}

/// One metric family in a [`Snapshot`].
#[derive(Debug, Clone)]
pub struct FamilySnapshot {
    /// Family name (`spoofwatch_…`).
    pub name: String,
    /// Counter, gauge, or histogram.
    pub kind: MetricKind,
    /// The `# HELP` text.
    pub help: String,
    /// Every labelled series of the family, sorted by label set.
    pub series: Vec<SeriesSnapshot>,
}

/// One labelled series in a [`FamilySnapshot`].
#[derive(Debug, Clone)]
pub struct SeriesSnapshot {
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// The series' value at snapshot time.
    pub value: SeriesValue,
}

/// A snapshot value, by metric kind.
#[derive(Debug, Clone)]
pub enum SeriesValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram distribution.
    Histogram(HistogramSnapshot),
}

/// A histogram's state: non-empty buckets as `(le, cumulative_count)`,
/// plus total count and sum.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Non-empty buckets in ascending `le` order with cumulative
    /// counts; the last entry's cumulative count equals `count`.
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSnapshot {
    /// Estimated `q`-quantile (0 < q ≤ 1): the upper bound of the
    /// bucket containing the target rank. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        self.buckets
            .iter()
            .find(|(_, cum)| *cum >= rank)
            .map(|(le, _)| *le)
    }

    /// Mean of observed values. `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }
}

impl Snapshot {
    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SeriesValue> {
        let key = label_key(labels);
        self.families
            .iter()
            .find(|f| f.name == name)?
            .series
            .iter()
            .find(|s| s.labels == key)
            .map(|s| &s.value)
    }

    /// Value of the counter `name{labels}`, if present.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.find(name, labels)? {
            SeriesValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Sum of every series of the counter family `name`.
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.families
            .iter()
            .filter(|f| f.name == name)
            .flat_map(|f| &f.series)
            .map(|s| match &s.value {
                SeriesValue::Counter(v) => *v,
                _ => 0,
            })
            .sum()
    }

    /// Value of the gauge `name{labels}`, if present.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        match self.find(name, labels)? {
            SeriesValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Distribution of the histogram `name{labels}`, if present.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        match self.find(name, labels)? {
            SeriesValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Render as the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for fam in &self.families {
            out.push_str("# HELP ");
            out.push_str(&fam.name);
            out.push(' ');
            out.push_str(&escape_help(&fam.help));
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(&fam.name);
            out.push(' ');
            out.push_str(fam.kind.as_str());
            out.push('\n');
            for series in &fam.series {
                match &series.value {
                    SeriesValue::Counter(v) => {
                        out.push_str(&fam.name);
                        render_labels(&mut out, &series.labels, None);
                        out.push(' ');
                        out.push_str(&v.to_string());
                        out.push('\n');
                    }
                    SeriesValue::Gauge(v) => {
                        out.push_str(&fam.name);
                        render_labels(&mut out, &series.labels, None);
                        out.push(' ');
                        out.push_str(&v.to_string());
                        out.push('\n');
                    }
                    SeriesValue::Histogram(h) => {
                        for (le, cum) in &h.buckets {
                            out.push_str(&fam.name);
                            out.push_str("_bucket");
                            render_labels(
                                &mut out,
                                &series.labels,
                                Some(("le", &fmt_le(*le))),
                            );
                            out.push(' ');
                            out.push_str(&cum.to_string());
                            out.push('\n');
                        }
                        // The spec requires a +Inf bucket equal to count.
                        if h.buckets.last().is_none_or(|(le, _)| le.is_finite()) {
                            out.push_str(&fam.name);
                            out.push_str("_bucket");
                            render_labels(&mut out, &series.labels, Some(("le", "+Inf")));
                            out.push(' ');
                            out.push_str(&h.count.to_string());
                            out.push('\n');
                        }
                        out.push_str(&fam.name);
                        out.push_str("_sum");
                        render_labels(&mut out, &series.labels, None);
                        out.push(' ');
                        out.push_str(&h.sum.to_string());
                        out.push('\n');
                        out.push_str(&fam.name);
                        out.push_str("_count");
                        render_labels(&mut out, &series.labels, None);
                        out.push(' ');
                        out.push_str(&h.count.to_string());
                        out.push('\n');
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_bounds_tile_the_line() {
        // Every finite bucket's range is [prev_upper+1, upper], and the
        // index function maps both endpoints back to the bucket.
        let mut prev_upper: Option<u64> = None;
        for i in 0..BUCKETS {
            let upper = bucket_upper(i);
            let lower = prev_upper.map_or(0, |p| p + 1);
            assert!(lower <= upper, "bucket {i}: {lower} > {upper}");
            assert_eq!(bucket_index(lower), i, "lower endpoint of bucket {i}");
            assert_eq!(bucket_index(upper), i, "upper endpoint of bucket {i}");
            prev_upper = Some(upper);
        }
        // Past the last finite bucket lies overflow.
        let last = bucket_upper(BUCKETS - 1);
        assert_eq!(bucket_index(last + 1), OVERFLOW);
        assert_eq!(bucket_index(u64::MAX), OVERFLOW);
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        // Log-linear with 4 sub-buckets: bucket width ≤ value/4, so the
        // upper bound overestimates by at most ~25%.
        for v in [5u64, 100, 1_000, 123_456, 1 << 30, (1 << 40) + 12345] {
            let upper = bucket_upper(bucket_index(v));
            assert!(upper >= v);
            assert!(
                (upper - v) as f64 <= v as f64 * 0.25 + 1.0,
                "v={v} upper={upper}"
            );
        }
    }

    #[test]
    fn disabled_registry_is_inert() {
        let reg = MetricsRegistry::disabled();
        let c = reg.counter("x_total", "x", &[]);
        let g = reg.gauge("g", "g", &[]);
        let h = reg.histogram("h", "h", &[]);
        c.inc();
        c.add(10);
        g.set(5);
        h.record(123);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.snapshot().count, 0);
        assert!(reg.render_prometheus().is_empty());
        assert!(!reg.is_enabled());
    }

    #[test]
    fn counters_and_gauges_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("req_total", "requests", &[("code", "200")]);
        c.inc();
        c.add(4);
        // A second handle to the same series shares storage.
        reg.counter("req_total", "requests", &[("code", "200")]).inc();
        let other = reg.counter("req_total", "requests", &[("code", "500")]);
        other.inc();
        let g = reg.gauge("depth", "queue depth", &[]);
        g.set(3);
        g.add(2);
        g.sub(1);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("req_total", &[("code", "200")]), Some(6));
        assert_eq!(snap.counter("req_total", &[("code", "500")]), Some(1));
        assert_eq!(snap.counter_sum("req_total"), 7);
        assert_eq!(snap.gauge("depth", &[]), Some(4));
        assert_eq!(snap.counter("req_total", &[("code", "404")]), None);
    }

    #[test]
    fn label_order_does_not_matter() {
        let reg = MetricsRegistry::new();
        reg.counter("m_total", "m", &[("a", "1"), ("b", "2")]).inc();
        reg.counter("m_total", "m", &[("b", "2"), ("a", "1")]).inc();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("m_total", &[("b", "2"), ("a", "1")]), Some(2));
    }

    #[test]
    fn histogram_quantiles_estimate_within_bucket_error() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_ns", "latency", &[]);
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.sum, 500500);
        let p50 = snap.quantile(0.5).expect("non-empty");
        let p99 = snap.quantile(0.99).expect("non-empty");
        assert!((500.0..=640.0).contains(&p50), "p50={p50}");
        assert!((990.0..=1280.0).contains(&p99), "p99={p99}");
        assert!(snap.quantile(1.0).expect("max") >= 1000.0);
        assert!((snap.mean().expect("mean") - 500.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_exposition_is_cumulative_and_monotone() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_ns", "latency", &[("stage", "classify")]);
        for v in [0u64, 1, 3, 17, 17, 1000, u64::MAX] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 7);
        let mut prev_le = f64::NEG_INFINITY;
        let mut prev_cum = 0;
        for (le, cum) in &snap.buckets {
            assert!(*le > prev_le, "le not ascending");
            assert!(*cum >= prev_cum, "cumulative decreased");
            prev_le = *le;
            prev_cum = *cum;
        }
        assert_eq!(prev_cum, 7, "last bucket holds the total");
        assert!(prev_le.is_infinite(), "u64::MAX lands in +Inf");
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE lat_ns histogram"));
        assert!(text.contains("lat_ns_bucket{stage=\"classify\",le=\"+Inf\"} 7"));
        assert!(text.contains("lat_ns_count{stage=\"classify\"} 7"));
    }

    #[test]
    fn exposition_escapes_label_values_and_help() {
        let reg = MetricsRegistry::new();
        reg.counter(
            "weird_total",
            "line one\nwith \\backslash",
            &[("path", "a\"b\\c\nd")],
        )
        .inc();
        let text = reg.render_prometheus();
        assert!(text.contains("# HELP weird_total line one\\nwith \\\\backslash"));
        assert!(text.contains("weird_total{path=\"a\\\"b\\\\c\\nd\"} 1"));
        // No raw newline may survive inside a sample line.
        for line in text.lines() {
            assert!(!line.contains('\r'));
        }
    }

    #[test]
    fn kind_conflict_yields_noop_not_corruption() {
        let reg = MetricsRegistry::new();
        reg.counter("m", "m", &[]).inc();
        // Same name as a different kind: in release builds this hands
        // back a no-op rather than corrupting the family.
        #[cfg(not(debug_assertions))]
        {
            let g = reg.gauge("m", "m", &[]);
            g.set(9);
            assert_eq!(reg.snapshot().counter("m", &[]), Some(1));
        }
    }

    #[test]
    fn write_snapshot_creates_parseable_file() {
        let reg = MetricsRegistry::new();
        reg.counter("file_total", "f", &[]).add(5);
        let path = std::env::temp_dir().join(format!(
            "obs-snap-{}-{:?}.prom",
            std::process::id(),
            std::thread::current().id()
        ));
        reg.write_snapshot(&path).expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(text.contains("file_total 5"));
        let _ = std::fs::remove_file(&path);
    }

    /// Release-mode floor, which `ci.sh` runs with `--ignored`: a
    /// disabled `Counter::inc` and a disabled `Histogram::record` each
    /// cost under 20 ns, best of 3 runs of 5 M calls, so the hot paths
    /// can stay instrumented unconditionally. The handles go through
    /// `black_box`, so the compiler cannot drop the call.
    #[test]
    #[ignore = "release-mode timing floor; ci.sh runs it with --ignored"]
    fn disabled_update_floor_under_20ns() {
        use std::hint::black_box;
        use std::time::Instant;
        const CALLS: u64 = 5_000_000;
        fn best_ns_per_call(mut call: impl FnMut(u64)) -> f64 {
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let t0 = Instant::now();
                for i in 0..CALLS {
                    call(i);
                }
                best = best.min(t0.elapsed().as_nanos() as f64 / CALLS as f64);
            }
            best
        }
        let reg = MetricsRegistry::disabled();
        let ctr = reg.counter("floor_total", "floor", &[]);
        let hist = reg.histogram("floor_ns", "floor", &[]);
        let inc = best_ns_per_call(|_| black_box(&ctr).inc());
        let record =
            best_ns_per_call(|i| black_box(&hist).record(black_box(i.wrapping_mul(2_654_435_761))));
        assert!(inc < 20.0, "disabled Counter::inc costs {inc:.2} ns/call (ceiling 20 ns)");
        assert!(
            record < 20.0,
            "disabled Histogram::record costs {record:.2} ns/call (ceiling 20 ns)"
        );
    }
}
