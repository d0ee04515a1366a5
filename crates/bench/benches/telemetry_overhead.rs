//! The telemetry overhead guard: the disabled-path cost of the
//! recorder's primitives (what every hot loop pays when telemetry is
//! off — must stay in the nanoseconds), the enabled-path cost (what an
//! instrumented pass pays), and the end-to-end delta on a sharded
//! enumeration. The repository benchmark (`perfbench`) never enables
//! the recorder, so its end-to-end metrics include what telemetry-off
//! costs; this bench is where that cost and the enabled overhead are
//! measured on their own.

use criterion::{criterion_group, criterion_main, Criterion};
use hpl_bench::InterleavingStress;
use hpl_core::{enumerate_sharded, EnumerationLimits, ShardConfig};
use std::hint::black_box;

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_primitives");

    hpl_telemetry::reset();
    hpl_telemetry::set_enabled(false);
    group.bench_function("disabled/counter_add", |b| {
        b.iter(|| hpl_telemetry::counter_add(black_box("bench.counter"), black_box(1)));
    });
    group.bench_function("disabled/record", |b| {
        b.iter(|| hpl_telemetry::record(black_box("bench.hist"), black_box(42)));
    });
    group.bench_function("disabled/span", |b| {
        b.iter(|| drop(hpl_telemetry::span(black_box("bench.span"))));
    });

    hpl_telemetry::set_enabled(true);
    group.bench_function("enabled/counter_add", |b| {
        b.iter(|| hpl_telemetry::counter_add(black_box("bench.counter"), black_box(1)));
    });
    // the cached-handle path hot loops actually use
    let handle = hpl_telemetry::counter("bench.handle");
    group.bench_function("enabled/counter_handle_add", |b| {
        b.iter(|| handle.add(black_box(1)));
    });
    group.bench_function("enabled/record", |b| {
        b.iter(|| hpl_telemetry::record(black_box("bench.hist"), black_box(42)));
    });
    group.bench_function("enabled/span", |b| {
        b.iter(|| drop(hpl_telemetry::span(black_box("bench.span"))));
    });
    hpl_telemetry::set_enabled(false);
    hpl_telemetry::reset();
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let stress = InterleavingStress { n: 3, k: 3 };
    let limits = EnumerationLimits {
        max_events: 10,
        max_computations: 2_000_000,
    };
    let cfg = ShardConfig::with_shards(8);

    let mut group = c.benchmark_group("telemetry_end_to_end");
    group.sample_size(10);
    hpl_telemetry::reset();
    hpl_telemetry::set_enabled(false);
    group.bench_function("sharded8_telemetry_off", |b| {
        b.iter(|| {
            black_box(
                enumerate_sharded(&stress, limits, &cfg)
                    .expect("within budget")
                    .stats
                    .unique,
            )
        });
    });
    hpl_telemetry::set_enabled(true);
    group.bench_function("sharded8_telemetry_on", |b| {
        b.iter(|| {
            black_box(
                enumerate_sharded(&stress, limits, &cfg)
                    .expect("within budget")
                    .stats
                    .unique,
            )
        });
    });
    hpl_telemetry::set_enabled(false);
    hpl_telemetry::reset();
    group.finish();
}

criterion_group!(benches, bench_primitives, bench_end_to_end);
criterion_main!(benches);
