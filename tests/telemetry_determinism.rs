//! Telemetry must be observation-only: enumerating with the recorder
//! fully enabled (counters, histograms, span tracing) must produce a
//! universe byte-identical to enumeration with it disabled, at every
//! shard count. The recorder's only writes are atomics and an event
//! buffer — this test is the regression net proving no instrumentation
//! point ever leaks into merge ordering or id assignment.

use hpl_core::{enumerate_sharded, EnumerationLimits, ProtocolUniverse, ShardConfig};
use hpl_protocols::token_bus::TokenBus;

/// Byte-identity: sizes, per-id computations, event bindings, payloads
/// (the same checks as the sharded-vs-sequential determinism suite).
fn assert_identical(on: &ProtocolUniverse, off: &ProtocolUniverse, label: &str) {
    assert_eq!(
        on.universe().len(),
        off.universe().len(),
        "{label}: universe size"
    );
    for (id, c) in off.universe().iter() {
        assert_eq!(on.universe().get(id), c, "{label}: computation {id}");
        for e in c.iter() {
            assert_eq!(
                on.universe().event(e.id()),
                off.universe().event(e.id()),
                "{label}: binding of {:?}",
                e.id()
            );
        }
    }
    assert_eq!(
        on.payload_table(),
        off.payload_table(),
        "{label}: payload table"
    );
}

#[test]
fn universes_are_byte_identical_with_telemetry_on() {
    let protocol = TokenBus::with_chatter(3, 1);
    let limits = EnumerationLimits::depth(9);
    for shards in [1usize, 2, 8] {
        let cfg = ShardConfig::with_shards(shards).quotient();
        let label = format!("token_bus shards={shards}");

        hpl_telemetry::reset();
        hpl_telemetry::set_enabled(false);
        hpl_telemetry::set_tracing(false);
        let off = enumerate_sharded(&protocol, limits, &cfg).expect("within budget");

        hpl_telemetry::set_enabled(true);
        hpl_telemetry::set_tracing(true);
        let on = enumerate_sharded(&protocol, limits, &cfg).expect("within budget");
        hpl_telemetry::set_tracing(false);
        hpl_telemetry::set_enabled(false);

        assert_identical(&on.universe, &off.universe, &label);
        // the instrumented run must actually have observed something,
        // or this test proves nothing
        let snap = hpl_telemetry::snapshot();
        assert!(
            snap.counters.get("enum.batches").copied().unwrap_or(0) > 0
                || !snap.histograms.is_empty(),
            "{label}: recorder saw no activity while enabled"
        );
        hpl_telemetry::reset();
    }
}
