//! The service's observability surface: the Prometheus-style metrics
//! snapshot a `Session` exposes (what `repro serve`'s `:stats` prints),
//! and the spans and latency a text query reports.

use hpl_core::{enumerate, EnumerationLimits, Interpretation, Universe};
use hpl_protocols::token_bus::{self, TokenBus};
use hpl_runtime::QueryService;
use std::sync::Arc;

fn snapshot_parts() -> (Arc<Universe>, Arc<Interpretation>) {
    let pu = enumerate(&TokenBus::new(3), EnumerationLimits::depth(8)).expect("within budget");
    let mut interp = Interpretation::new();
    token_bus::token_atoms(&mut interp, 3);
    (Arc::new(pu.into_universe()), Arc::new(interp))
}

/// Reads the value of `metric{scenario="..."} value` from the
/// exposition text.
fn gauge_value(text: &str, metric: &str) -> Option<u64> {
    text.lines()
        .find(|l| l.starts_with(&format!("{metric}{{")))?
        .rsplit(' ')
        .next()?
        .parse()
        .ok()
}

#[test]
fn metrics_snapshot_exposes_cache_and_admission_gauges() {
    let (universe, interp) = snapshot_parts();
    let universe_len = universe.len() as u64;
    let service = QueryService::start(1);
    service.register("bus", universe, interp);
    let session = service.session("bus").expect("registered");

    // same formula twice: the second answer must come from the cache
    session.query("token-at-p0").expect("evaluates");
    session.query("token-at-p0").expect("evaluates");

    let text = session.metrics_snapshot();
    for metric in [
        "hpl_sat_cache_hits",
        "hpl_sat_cache_misses",
        "hpl_sat_cache_entries",
        "hpl_sat_cache_resident_bytes",
        "hpl_admission_coalesced",
        "hpl_admission_led",
        "hpl_universe_len",
        "hpl_generation",
    ] {
        assert!(
            text.contains(&format!("# TYPE {metric} gauge")),
            "missing TYPE line for {metric} in:\n{text}"
        );
        assert!(
            text.contains(&format!("{metric}{{scenario=\"bus\"}}")),
            "missing sample for {metric} in:\n{text}"
        );
    }
    assert!(gauge_value(&text, "hpl_sat_cache_hits").expect("parses") >= 1);
    assert!(gauge_value(&text, "hpl_sat_cache_entries").expect("parses") >= 1);
    assert!(gauge_value(&text, "hpl_sat_cache_resident_bytes").expect("parses") > 0);
    assert_eq!(
        gauge_value(&text, "hpl_universe_len"),
        Some(universe_len),
        "universe gauge must report the snapshot's size"
    );
}

#[test]
fn a_text_query_parses_inside_its_query_span_and_clock() {
    let (universe, interp) = snapshot_parts();
    let service = QueryService::start(1);
    service.register("bus", universe, interp);
    let session = service.session("bus").expect("registered");

    hpl_telemetry::set_tracing(true);
    let resp = {
        let _client = hpl_telemetry::span("metrics-test.client");
        session.query("K{p0} token-at-p0").expect("evaluates")
    };
    hpl_telemetry::set_tracing(false);

    // other tests may trace concurrently: keep this thread's spans only
    let events = hpl_telemetry::global().span_events();
    let client = events
        .iter()
        .find(|e| e.name == "metrics-test.client")
        .expect("client span recorded");
    let mine = |name: &str| {
        events
            .iter()
            .find(|e| e.tid == client.tid && e.name == name)
            .unwrap_or_else(|| panic!("no `{name}` span on the asking thread"))
    };
    let (query, parse) = (mine("query"), mine("query.parse"));
    assert_eq!(
        parse.depth,
        query.depth + 1,
        "`query.parse` must sit one level inside `query`"
    );
    assert!(
        query.ts_ns <= parse.ts_ns && parse.ts_ns + parse.dur_ns <= query.ts_ns + query.dur_ns,
        "`query.parse` {parse:?} must lie within `query` {query:?}"
    );
    assert!(
        resp.elapsed.as_nanos() >= u128::from(parse.dur_ns),
        "elapsed {:?} must include parsing ({} ns)",
        resp.elapsed,
        parse.dur_ns
    );
}
