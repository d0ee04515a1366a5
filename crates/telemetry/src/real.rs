//! The recorder and its process-global instance.
//!
//! Counters and histograms are plain atomics handed out as cheap
//! cloneable handles; the registry lock is taken only on first
//! resolution of a name, never on the record path. Spans keep a
//! thread-local depth and a process-wide small thread id, and push
//! events into the global recorder's buffer only while tracing is on.

use crate::export::{HistogramSnapshot, SpanEvent, TelemetrySnapshot};
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Number of power-of-two histogram buckets (bucket `i` covers
/// `[2^(i-1), 2^i)`; bucket 0 is exactly zero; the last bucket absorbs
/// everything above `2^62`).
const BUCKETS: usize = 64;

/// Hard cap on buffered span events so a forgotten tracing flag cannot
/// grow memory without bound; overflow is counted, not silently lost.
const MAX_TRACE_EVENTS: usize = 1 << 20;

/// A handle to one named counter: a clone-cheap reference to an atomic
/// cell plus the owning recorder's enable flag. Resolving the handle
/// takes the registry lock once; every [`Counter::add`] after that is
/// a flag load and a relaxed `fetch_add`.
#[derive(Clone, Debug)]
pub struct Counter {
    cell: Arc<AtomicU64>,
    enabled: Arc<AtomicBool>,
}

impl Counter {
    /// Adds `v` (no-op while the runtime flag is off).
    #[inline]
    pub fn add(&self, v: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Raises the counter to at least `v` (a high-water gauge).
    #[inline]
    pub fn max(&self, v: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value (reads even while recording is disabled).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct RawHist {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl RawHist {
    fn new() -> Self {
        RawHist {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    fn record(&self, v: u64) {
        let idx = bucket_index(v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        HistogramSnapshot {
            count: total,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            p50: quantile(&counts, total, 0.50),
            p95: quantile(&counts, total, 0.95),
            p99: quantile(&counts, total, 0.99),
        }
    }
}

#[inline]
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` — what quantile estimates
/// report.
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

#[allow(
    clippy::cast_sign_loss,
    clippy::cast_possible_truncation,
    clippy::cast_precision_loss
)]
fn quantile(counts: &[u64], total: u64, q: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bucket_upper(i);
        }
    }
    bucket_upper(BUCKETS - 1)
}

/// A handle to one named histogram; recording is allocation-free.
#[derive(Clone, Debug)]
pub struct Hist {
    raw: Arc<RawHist>,
    enabled: Arc<AtomicBool>,
}

impl Hist {
    /// Records one sample (no-op while the runtime flag is off).
    #[inline]
    pub fn record(&self, v: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.raw.record(v);
        }
    }

    /// Point-in-time totals and quantile estimates.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.raw.snapshot()
    }
}

/// A registry of named counters and histograms plus the span-event
/// buffer. Most code uses the process-global instance through the
/// module-level free functions; tests wanting isolation construct
/// their own.
#[derive(Debug)]
pub struct Recorder {
    enabled: Arc<AtomicBool>,
    tracing: Arc<AtomicBool>,
    epoch: Instant,
    counters: Mutex<HashMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<HashMap<String, Arc<RawHist>>>,
    events: Mutex<Vec<SpanEvent>>,
    dropped_events: AtomicU64,
    threads: Mutex<Vec<(u64, String)>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// Creates an empty recorder with recording and tracing **off**.
    #[must_use]
    pub fn new() -> Self {
        Recorder {
            enabled: Arc::new(AtomicBool::new(false)),
            tracing: Arc::new(AtomicBool::new(false)),
            epoch: Instant::now(),
            counters: Mutex::new(HashMap::new()),
            histograms: Mutex::new(HashMap::new()),
            events: Mutex::new(Vec::new()),
            dropped_events: AtomicU64::new(0),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// Turns counter/histogram/span recording on or off at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is on.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns span-event collection (Chrome trace export) on or off.
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::Relaxed);
    }

    /// Whether span events are being collected.
    #[must_use]
    pub fn tracing(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }

    /// Resolves (registering on first use) the named counter.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let cell = {
            let mut reg = self.counters.lock();
            match reg.get(name) {
                Some(c) => Arc::clone(c),
                None => {
                    let c = Arc::new(AtomicU64::new(0));
                    reg.insert(name.to_owned(), Arc::clone(&c));
                    c
                }
            }
        };
        Counter {
            cell,
            enabled: Arc::clone(&self.enabled),
        }
    }

    /// Resolves (registering on first use) the named histogram.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Hist {
        let raw = {
            let mut reg = self.histograms.lock();
            match reg.get(name) {
                Some(h) => Arc::clone(h),
                None => {
                    let h = Arc::new(RawHist::new());
                    reg.insert(name.to_owned(), Arc::clone(&h));
                    h
                }
            }
        };
        Hist {
            raw,
            enabled: Arc::clone(&self.enabled),
        }
    }

    /// Zeroes every counter and histogram and clears the span buffer.
    /// Registered names (and outstanding handles) stay valid.
    pub fn reset(&self) {
        for c in self.counters.lock().values() {
            c.store(0, Ordering::Relaxed);
        }
        for h in self.histograms.lock().values() {
            h.reset();
        }
        self.events.lock().clear();
        self.dropped_events.store(0, Ordering::Relaxed);
    }

    /// Copies every counter and histogram out as plain data.
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let counters: BTreeMap<String, u64> = self
            .counters
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms: BTreeMap<String, HistogramSnapshot> = self
            .histograms
            .lock()
            .iter()
            .filter(|(_, h)| h.count.load(Ordering::Relaxed) > 0)
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect();
        TelemetrySnapshot {
            counters,
            histograms,
        }
    }

    /// Collected span events (tracing must have been on).
    #[must_use]
    pub fn span_events(&self) -> Vec<SpanEvent> {
        self.events.lock().clone()
    }

    /// Renders the collected span events as Chrome trace-event JSON.
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        // the only place both buffers are held at once; acquisition
        // order (argument order) is events -> threads
        // analyze:acquire(telemetry.events)
        // analyze:acquire(telemetry.threads)
        crate::export::chrome_trace_json(&self.events.lock(), &self.threads.lock())
    }

    fn push_event(&self, e: SpanEvent) {
        // analyze:acquire(telemetry.events)
        let mut events = self.events.lock();
        if events.len() < MAX_TRACE_EVENTS {
            events.push(e);
        } else {
            self.dropped_events.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn register_thread(&self, tid: u64) {
        let name = std::thread::current().name().unwrap_or("?").to_owned();
        // analyze:acquire(telemetry.threads) analyze:release(telemetry.threads)
        self.threads.lock().push((tid, name));
    }
}

static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// The process-global recorder every free function below targets.
#[must_use]
pub fn global() -> &'static Recorder {
    GLOBAL.get_or_init(Recorder::new)
}

/// Turns recording on or off on the global recorder.
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

/// Whether global recording is on. Instrumentation sites use this to
/// skip clock reads entirely while disabled.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    GLOBAL.get().is_some_and(Recorder::enabled)
}

/// Turns span-event collection on or off on the global recorder.
pub fn set_tracing(on: bool) {
    global().set_tracing(on);
}

/// Whether global span-event collection is on.
#[inline]
#[must_use]
pub fn tracing() -> bool {
    GLOBAL.get().is_some_and(Recorder::tracing)
}

/// Resolves a named counter on the global recorder. Resolve once and
/// keep the handle in hot code; [`counter_add`] exists for cold sites.
#[must_use]
pub fn counter(name: &'static str) -> Counter {
    global().counter(name)
}

/// One-shot add on a named global counter (registry lookup per call —
/// fine off the hot path).
pub fn counter_add(name: &'static str, v: u64) {
    if enabled() {
        global().counter(name).add(v);
    }
}

/// Resolves a named histogram on the global recorder.
#[must_use]
pub fn histogram(name: &'static str) -> Hist {
    global().histogram(name)
}

/// One-shot sample into a named global histogram (registry lookup per
/// call — fine off the hot path).
pub fn record(name: &'static str, v: u64) {
    if enabled() {
        global().histogram(name).record(v);
    }
}

/// Zeroes the global recorder (counters, histograms, span buffer).
pub fn reset() {
    global().reset();
}

/// Snapshot of the global recorder's counters and histograms.
#[must_use]
pub fn snapshot() -> TelemetrySnapshot {
    global().snapshot()
}

/// Chrome trace-event JSON of the global recorder's span buffer.
#[must_use]
pub fn chrome_trace() -> String {
    global().chrome_trace()
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

fn current_tid() -> u64 {
    TID.with(|t| {
        let mut tid = t.get();
        if tid == 0 {
            tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(tid);
            global().register_thread(tid);
        }
        tid
    })
}

/// RAII guard for one span: created by [`span`], records duration into
/// the same-named global histogram on drop (and a trace event while
/// tracing is on). Nesting is tracked per thread.
#[derive(Debug)]
pub struct SpanGuard {
    active: Option<(&'static str, Instant, u32)>,
}

/// Opens a span on the global recorder. While both recording and
/// tracing are off this is two relaxed loads and no clock read.
#[must_use]
pub fn span(name: &'static str) -> SpanGuard {
    if enabled() || tracing() {
        let depth = DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth + 1);
            depth
        });
        SpanGuard {
            active: Some((name, Instant::now(), depth)),
        }
    } else {
        SpanGuard { active: None }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((name, start, depth)) = self.active.take() else {
            return;
        };
        let dur = start.elapsed();
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let g = global();
        #[allow(clippy::cast_possible_truncation)]
        let dur_ns = dur.as_nanos() as u64;
        if g.enabled() {
            g.histogram(name).record(dur_ns);
        }
        if g.tracing() {
            #[allow(clippy::cast_possible_truncation)]
            let ts_ns = start
                .checked_duration_since(g.epoch)
                .unwrap_or_default()
                .as_nanos() as u64;
            g.push_event(SpanEvent {
                name,
                tid: current_tid(),
                ts_ns,
                dur_ns,
                depth,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_max_only_while_enabled() {
        let r = Recorder::new();
        let c = r.counter("x");
        c.add(5);
        assert_eq!(c.get(), 0, "disabled recorder must not count");
        r.set_enabled(true);
        c.add(5);
        c.add(2);
        c.max(4);
        assert_eq!(c.get(), 7);
        c.max(100);
        assert_eq!(c.get(), 100);
        // same name resolves to the same cell
        assert_eq!(r.counter("x").get(), 100);
        r.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // bucket i covers [2^(i-1), 2^i); quantiles report the bucket's
        // inclusive upper bound 2^i - 1
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(10), 1023);
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_and_totals() {
        let r = Recorder::new();
        r.set_enabled(true);
        let h = r.histogram("lat");
        for v in [1u64, 2, 3, 4] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 10);
        assert_eq!(s.max, 4);
        // sorted samples [1,2,3,4]: rank(0.5)=2 → bucket of 2 → upper 3
        assert_eq!(s.p50, 3);
        // rank(0.95)=4 → bucket of 4 → upper 7
        assert_eq!(s.p95, 7);
        assert_eq!(s.p99, 7);
        assert!((s.mean() - 2.5).abs() < f64::EPSILON);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let r = Recorder::new();
        r.set_enabled(true);
        let h = r.histogram("empty");
        let s = h.snapshot();
        assert_eq!((s.count, s.p50, s.p99, s.max), (0, 0, 0, 0));
    }

    #[test]
    fn snapshot_prometheus_exposition_format() {
        let r = Recorder::new();
        r.set_enabled(true);
        r.counter("sim.sent").add(3);
        r.histogram("query.wait_ns").record(1);
        let text = r.snapshot().prometheus_text();
        let expected = "\
# TYPE hpl_sim_sent counter
hpl_sim_sent 3
# TYPE hpl_query_wait_ns summary
hpl_query_wait_ns{quantile=\"0.5\"} 1
hpl_query_wait_ns{quantile=\"0.95\"} 1
hpl_query_wait_ns{quantile=\"0.99\"} 1
hpl_query_wait_ns_sum 1
hpl_query_wait_ns_count 1
";
        assert_eq!(text, expected);
    }

    #[test]
    fn snapshot_reads_zero_for_untouched_names() {
        let r = Recorder::new();
        r.set_enabled(true);
        let _ = r.counter("registered");
        let s = r.snapshot();
        assert_eq!(s.counter("registered"), 0);
        assert_eq!(s.counter("never-registered"), 0);
        assert!(s.histogram("none").is_none());
    }
}
