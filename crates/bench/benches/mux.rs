//! pm-mux scheduler throughput: whole NP session farms driven to
//! completion on one thread under a virtual clock. The clock jumps instead
//! of sleeping, so the measurement is pure runtime cost — socket sweeps,
//! timer-queue churn, machine steps — with zero waiting in it. The second
//! group times the raw timer queue (`TimerWheel`, a binary heap) on a
//! 64 Ki-timer insert/advance storm, the path every session wait goes
//! through, at a depth no mux reaches (one holds about three timers per
//! session). `BENCH_mux.json` at the repo root records the reference
//! numbers, taken on the hierarchical wheel the heap replaced.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use pm_core::config::{CompletionPolicy, NpConfig};
use pm_core::receiver::NpReceiver;
use pm_core::runtime::RuntimeConfig;
use pm_core::sender::NpSender;
use pm_mux::{Mux, MuxConfig, OverloadConfig, TimerWheel, VirtualClock};
use pm_net::MemHub;

fn np_cfg() -> NpConfig {
    let mut c = NpConfig::small(CompletionPolicy::KnownReceivers(1));
    c.k = 8;
    c.h = 40;
    c.payload_len = 128;
    c.nak_slot = 0.001;
    c
}

fn rt() -> RuntimeConfig {
    RuntimeConfig {
        packet_spacing: Duration::from_micros(50),
        stall_timeout: Duration::from_secs(5),
        complete_linger: Duration::from_millis(250),
        ..RuntimeConfig::default()
    }
}

fn payload(n: usize) -> Vec<u8> {
    (0..n)
        .map(|i| (i.wrapping_mul(2654435761) >> 11) as u8)
        .collect()
}

/// Drive `pairs` lossless NP sessions (2 × `pairs` endpoints) to
/// completion on the calling thread; returns the outcome count.
fn farm(pairs: u32) -> usize {
    let mut mux = Mux::new(MuxConfig::default(), VirtualClock::new());
    for i in 0..pairs {
        let hub = MemHub::new();
        let data = payload(1500);
        mux.add_sender(
            NpSender::new(i, &data, np_cfg()).expect("valid config"),
            hub.join(),
            rt(),
        );
        mux.add_receiver(
            NpReceiver::new(1000 + i, i, 0.001, i as u64),
            hub.join(),
            rt(),
        );
    }
    let outcomes = mux.run();
    assert!(outcomes.iter().all(|(_, o)| o.is_ok()));
    outcomes.len()
}

fn bench_mux_farm(c: &mut Criterion) {
    let mut g = c.benchmark_group("mux_farm_np_pairs");
    g.sample_size(10);
    for pairs in [8u32, 32, 128, 256, 512] {
        g.bench_with_input(BenchmarkId::from_parameter(pairs), &pairs, |b, &p| {
            b.iter(|| farm(p));
        });
    }
    g.finish();
}

/// A 64-pair farm against a drive budget sized for ~8 sessions: the
/// overload policy must declare the episode, shed down to a sustainable
/// population, and drive the survivors to completion. Measures the whole
/// degrade-and-recover arc, shed bookkeeping included.
fn overloaded_farm(pairs: u32) -> (usize, u64) {
    let overload = OverloadConfig {
        high_water: 0.5,
        drive_budget: 8,
        sustain_turns: 4,
        max_shed_per_turn: 2,
        alpha: 0.5,
        seed: 0xBE7C,
        ..OverloadConfig::default()
    };
    let cfg = MuxConfig {
        overload: Some(overload),
        ..MuxConfig::default()
    };
    let mut mux = Mux::new(cfg, VirtualClock::new());
    for i in 0..pairs {
        let hub = MemHub::new();
        let data = payload(1500);
        mux.add_sender(
            NpSender::new(i, &data, np_cfg()).expect("valid config"),
            hub.join(),
            rt(),
        );
        mux.add_receiver(
            NpReceiver::new(1000 + i, i, 0.001, i as u64),
            hub.join(),
            rt(),
        );
    }
    let outcomes = mux.run();
    let shed = mux.shed_count();
    assert!(shed > 0, "the overload bench must actually shed");
    (outcomes.len(), shed)
}

fn bench_mux_shed(c: &mut Criterion) {
    c.bench_function("mux_overload_shed_64_pairs", |b| {
        b.iter(|| overloaded_farm(64));
    });
}

fn bench_timer_wheel(c: &mut Criterion) {
    c.bench_function("timer_wheel_insert_advance_64k", |b| {
        b.iter(|| {
            let mut wheel: TimerWheel<u64> = TimerWheel::new();
            // Deadlines from 1 to ~28 Ki ticks, drained 64 ticks at a time.
            for i in 0..65_536u64 {
                wheel.insert((i % 4096) * (i % 7 + 1) + 1, i);
            }
            let mut fired = Vec::new();
            let mut total = 0usize;
            let mut now = 0u64;
            while !wheel.is_empty() {
                now += 64;
                fired.clear();
                wheel.advance(now, &mut fired);
                total += fired.len();
            }
            assert_eq!(total, 65_536);
            total
        });
    });
}

criterion_group!(benches, bench_mux_farm, bench_mux_shed, bench_timer_wheel);
criterion_main!(benches);
