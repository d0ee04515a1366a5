//! Exporter-facing data types: snapshots, span events, and the
//! Prometheus / Chrome-trace renderers.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A point-in-time, lock-free-read copy of one histogram: totals plus
/// log-bucket quantile estimates.
///
/// Quantiles are **upper bounds of the containing power-of-two
/// bucket**: a value `v > 0` lands in the bucket covering
/// `[2^(i-1), 2^i)`, and the reported quantile is that bucket's
/// inclusive upper bound `2^i - 1` (zero values report `0`). The
/// estimate therefore never under-reports by more than 2x, with no
/// allocation on the record path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all recorded samples (exact, not bucketed).
    pub sum: u64,
    /// Largest recorded sample (exact).
    pub max: u64,
    /// Estimated 50th percentile (bucket upper bound).
    pub p50: u64,
    /// Estimated 95th percentile (bucket upper bound).
    pub p95: u64,
    /// Estimated 99th percentile (bucket upper bound).
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean sample value, or `0.0` with no samples.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.sum as f64 / self.count as f64
            }
        }
    }
}

/// One finished span, as collected while tracing is on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (the instrumentation site's static label).
    pub name: &'static str,
    /// Small stable id of the recording thread (process-wide).
    pub tid: u64,
    /// Start offset from the recorder's epoch, in nanoseconds.
    pub ts_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth on the recording thread at entry (0 = outermost).
    pub depth: u32,
}

/// A point-in-time copy of every counter and histogram in a recorder.
/// Keys are the instrumentation names verbatim (e.g. `enum.explore`);
/// [`TelemetrySnapshot::prometheus_text`] sanitises them for
/// exposition.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Counter name → current value.
    pub counters: BTreeMap<String, u64>,
    /// Histogram name → totals and quantile estimates.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl TelemetrySnapshot {
    /// The named counter's value, `0` if it was never touched.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram's snapshot, if any sample was recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Renders the snapshot as Prometheus text exposition: counters as
    /// `counter` metrics, histograms as `summary` metrics with
    /// `quantile` labels plus `_sum` / `_count`. Metric names get an
    /// `hpl_` prefix and non-alphanumeric characters become `_`.
    #[must_use]
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let m = metric_name(name);
            let _ = writeln!(out, "# TYPE {m} counter");
            let _ = writeln!(out, "{m} {v}");
        }
        for (name, h) in &self.histograms {
            let m = metric_name(name);
            let _ = writeln!(out, "# TYPE {m} summary");
            let _ = writeln!(out, "{m}{{quantile=\"0.5\"}} {}", h.p50);
            let _ = writeln!(out, "{m}{{quantile=\"0.95\"}} {}", h.p95);
            let _ = writeln!(out, "{m}{{quantile=\"0.99\"}} {}", h.p99);
            let _ = writeln!(out, "{m}_sum {}", h.sum);
            let _ = writeln!(out, "{m}_count {}", h.count);
        }
        out
    }
}

/// `enum.explore` → `hpl_enum_explore` (Prometheus-safe metric name).
fn metric_name(name: &str) -> String {
    let mut m = String::with_capacity(name.len() + 4);
    m.push_str("hpl_");
    for c in name.chars() {
        m.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    m
}

/// Renders collected span events (plus thread names) as Chrome
/// trace-event JSON — the `{"traceEvents": [...]}` envelope Perfetto
/// and `chrome://tracing` load directly. Timestamps and durations are
/// microseconds; nesting is implied by containment on each thread
/// track.
#[must_use]
pub fn chrome_trace_json(events: &[SpanEvent], threads: &[(u64, String)]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (tid, name) in threads {
        sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        );
    }
    for e in events {
        sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"cat\":\"hpl\",\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"depth\":{}}}}}",
            e.tid,
            escape(e.name),
            us(e.ts_ns),
            us(e.dur_ns),
            e.depth
        );
    }
    out.push_str("]}");
    out
}

#[allow(clippy::cast_precision_loss)]
fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

fn sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_sanitised() {
        assert_eq!(metric_name("enum.explore"), "hpl_enum_explore");
        assert_eq!(metric_name("credit-stall_ns"), "hpl_credit_stall_ns");
    }

    #[test]
    fn chrome_trace_escapes_and_separates() {
        let events = vec![
            SpanEvent {
                name: "a",
                tid: 1,
                ts_ns: 1500,
                dur_ns: 2000,
                depth: 0,
            },
            SpanEvent {
                name: "b",
                tid: 2,
                ts_ns: 4000,
                dur_ns: 500,
                depth: 1,
            },
        ];
        let json = chrome_trace_json(&events, &[(1, "main".to_owned())]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":2.000"));
        assert!(json.contains("\"tid\":2"));
        // exactly two commas separate the three events
        assert_eq!(json.matches("},{").count(), 2);
    }
}
