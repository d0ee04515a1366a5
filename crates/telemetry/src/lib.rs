//! Unified observability for the How-Processes-Learn workspace.
//!
//! One [`Recorder`] holds every metric the engine emits — named atomic
//! **counters**, log-bucketed **histograms** (p50/p95/p99 with no
//! allocation on the record path), and nestable thread-aware **spans**
//! — behind a **runtime flag** ([`set_enabled`]): with the flag off,
//! each call site costs one relaxed atomic load — a few nanoseconds —
//! so instrumented code can stay on the hot path. A second flag
//! ([`set_tracing`]) also keeps every finished span as a [`SpanEvent`].
//!
//! Telemetry only *observes*: it reads clocks and bumps atomics, never
//! influences scheduling or iteration order, so enumeration output is
//! byte-identical with telemetry on or off (certified by the
//! `telemetry_determinism` suite).
//!
//! Most call sites use the process-global recorder through the free
//! functions ([`counter`], [`histogram`], [`span`], [`snapshot`]);
//! tests that want isolation construct their own [`Recorder`] and call
//! the same methods on it.
//!
//! Three export surfaces, shared by `repro`, the query service, and
//! CI:
//!
//! * [`chrome_trace`] — span events as Chrome trace-event JSON,
//!   loadable in Perfetto / `chrome://tracing`;
//! * [`TelemetrySnapshot::prometheus_text`] — Prometheus-style text
//!   exposition (used by `Session::metrics_snapshot` and the `stats`
//!   command of `repro serve`);
//! * [`snapshot`] — a plain data copy of every counter and histogram,
//!   which tests read by name.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod export;

pub use export::{chrome_trace_json, HistogramSnapshot, SpanEvent, TelemetrySnapshot};

mod real;

pub use real::{
    chrome_trace, counter, counter_add, enabled, global, histogram, record, reset, set_enabled,
    set_tracing, snapshot, span, tracing, Counter, Hist, Recorder, SpanGuard,
};
