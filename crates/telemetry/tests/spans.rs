//! Span nesting / cross-thread correctness against the **global**
//! recorder. These live in an integration test (their own process) so
//! toggling the global enable/tracing flags cannot race with unit
//! tests; within the process they run under one `#[test]` to keep the
//! global span buffer deterministic.

use hpl_telemetry as tele;

#[test]
fn spans_nest_and_stay_thread_separated() {
    tele::reset();
    tele::set_enabled(true);
    tele::set_tracing(true);

    // nested spans on this thread
    {
        let _outer = tele::span("outer");
        std::thread::sleep(std::time::Duration::from_millis(2));
        {
            let _inner = tele::span("inner");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    // one span on each of two other threads
    let handles: Vec<_> = (0..2)
        .map(|i| {
            std::thread::Builder::new()
                .name(format!("span-test-{i}"))
                .spawn(|| {
                    let _s = tele::span("worker");
                    std::thread::sleep(std::time::Duration::from_millis(1));
                })
                .expect("spawn")
        })
        .collect();
    for h in handles {
        h.join().expect("join");
    }

    tele::set_tracing(false);
    tele::set_enabled(false);

    let events = tele::global().span_events();
    let outer = find(&events, "outer");
    let inner = find(&events, "inner");

    // inner is contained in outer, on the same thread, one level deeper
    assert_eq!(outer.tid, inner.tid);
    assert_eq!(outer.depth, 0);
    assert_eq!(inner.depth, 1);
    assert!(inner.ts_ns >= outer.ts_ns);
    assert!(inner.ts_ns + inner.dur_ns <= outer.ts_ns + outer.dur_ns);
    assert!(outer.dur_ns >= inner.dur_ns);

    // the two worker spans come from two distinct non-main threads,
    // both at depth 0 (nesting state is per-thread)
    let workers: Vec<_> = events.iter().filter(|e| e.name == "worker").collect();
    assert_eq!(workers.len(), 2);
    assert_ne!(workers[0].tid, workers[1].tid);
    assert!(workers.iter().all(|w| w.tid != outer.tid));
    assert!(workers.iter().all(|w| w.depth == 0));

    // durations were also recorded as histograms
    let snap = tele::snapshot();
    assert_eq!(snap.histogram("outer").map(|h| h.count), Some(1));
    assert_eq!(snap.histogram("worker").map(|h| h.count), Some(2));

    // the chrome export carries all four spans and the thread names
    let json = tele::chrome_trace();
    assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
    assert!(json.contains("span-test-0"));
    assert!(json.contains("span-test-1"));

    // disabled spans record nothing
    tele::reset();
    {
        let _s = tele::span("dark");
    }
    assert!(tele::snapshot().histogram("dark").is_none());
}

fn find<'a>(events: &'a [tele::SpanEvent], name: &str) -> &'a tele::SpanEvent {
    events
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("span {name} not recorded"))
}
