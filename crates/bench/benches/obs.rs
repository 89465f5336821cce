//! Criterion benchmarks of the observability fast path.
//!
//! The contract instrumented hot paths rely on: an [`Obs`] wrapping the
//! `NullRecorder` must cost a branch — low single-digit nanoseconds — per
//! emit, with the event closure never running. The other benches bound
//! what turning tracing *on* costs.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use pm_obs::{
    Event, JsonlRecorder, MetricsRegistry, Obs, Recorder, RingRecorder, WindowConfig,
    WindowTelemetry,
};

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

fn bench_window_telemetry(c: &mut Criterion) {
    let obs = Obs::new(Arc::new(WindowTelemetry::new(WindowConfig::default())));
    c.bench_function("window_telemetry_emit", |b| {
        let mut i = 0u16;
        let mut t = 0.0f64;
        b.iter(|| {
            i = i.wrapping_add(1);
            t += 1e-4; // walk the session clock so buckets actually roll
            obs.emit(std::hint::black_box(t), || event(i));
        });
    });
}

fn bench_window_snapshot(c: &mut Criterion) {
    let tel = WindowTelemetry::new(WindowConfig::default());
    let mut t = 0.0f64;
    for i in 0..4096u16 {
        t += 1e-4;
        tel.record(t, &event(i));
    }
    c.bench_function("window_farm_snapshot", |b| {
        b.iter(|| std::hint::black_box(tel.farm_snapshot()));
    });
}

criterion_group!(
    benches,
    bench_null_recorder,
    bench_ring_recorder,
    bench_jsonl_recorder,
    bench_histogram,
    bench_window_telemetry,
    bench_window_snapshot
);
criterion_main!(benches);
