//! Criterion benchmarks of the observability fast path.
//!
//! The contract instrumented hot paths rely on: an [`Obs`] wrapping the
//! `NullRecorder` must cost a branch — low single-digit nanoseconds — per
//! emit, with the event closure never running. The other benches bound
//! what turning tracing *on* costs.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use pm_obs::{Event, JsonlRecorder, MetricsRegistry, Obs, RingRecorder};

fn event(i: u16) -> Event {
    Event::DataSent {
        session: 7,
        group: 3,
        index: i,
    }
}

fn bench_null_recorder(c: &mut Criterion) {
    let obs = Obs::null();
    c.bench_function("null_recorder_emit", |b| {
        let mut i = 0u16;
        b.iter(|| {
            i = i.wrapping_add(1);
            obs.emit(std::hint::black_box(0.5), || event(i));
        });
    });
}

fn bench_ring_recorder(c: &mut Criterion) {
    let obs = Obs::new(Arc::new(RingRecorder::new(1024)));
    c.bench_function("ring_recorder_emit", |b| {
        let mut i = 0u16;
        b.iter(|| {
            i = i.wrapping_add(1);
            obs.emit(std::hint::black_box(0.5), || event(i));
        });
    });
}

fn bench_jsonl_recorder(c: &mut Criterion) {
    let obs = Obs::new(Arc::new(JsonlRecorder::new(std::io::sink())));
    c.bench_function("jsonl_recorder_emit", |b| {
        let mut i = 0u16;
        b.iter(|| {
            i = i.wrapping_add(1);
            obs.emit(std::hint::black_box(0.5), || event(i));
        });
    });
}

fn bench_histogram(c: &mut Criterion) {
    let reg = MetricsRegistry::new();
    let hist = reg.histogram("bench.ns");
    c.bench_function("histogram_record", |b| {
        let mut v = 1u64;
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            hist.record(std::hint::black_box(v >> 40));
        });
    });
}

criterion_group!(
    benches,
    bench_null_recorder,
    bench_ring_recorder,
    bench_jsonl_recorder,
    bench_histogram
);
criterion_main!(benches);
