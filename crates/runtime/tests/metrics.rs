//! The service's observability surface: the Prometheus-style metrics
//! snapshot a `Session` exposes (what `repro serve`'s `:stats` prints).

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
