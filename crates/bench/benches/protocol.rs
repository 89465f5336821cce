//! Criterion benchmarks of the full NP/N2 protocol over the in-memory
//! multicast hub: end-to-end transfer throughput with and without loss —
//! the measured counterpart to Fig. 18's modelled comparison. Each
//! transfer runs on one virtual-clock mux, so a sample is the CPU work of
//! the transfer and none of its pacing gaps.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use pm_core::runtime::RuntimeConfig;
use pm_core::{CompletionPolicy, NpConfig, NpReceiver, NpSender};
use pm_mux::{drive_session, Mux, MuxConfig, VirtualClock};
use pm_net::{FaultConfig, FaultyTransport, MemHub, PollTransport};

const TRANSFER: usize = 64 * 1024;

fn config() -> NpConfig {
    let mut c = NpConfig::small(CompletionPolicy::KnownReceivers(1));
    c.k = 20;
    c.h = 60;
    c.payload_len = 1024;
    c.nak_slot = 0.0005;
    c
}

fn rt() -> RuntimeConfig {
    RuntimeConfig {
        packet_spacing: Duration::from_micros(5),
        stall_timeout: Duration::from_secs(10),
        complete_linger: Duration::from_millis(300),
        ..RuntimeConfig::default()
    }
}

/// One full transfer: a sender and one receiver with `drop` loss.
fn transfer_np(drop: f64, preencode: bool, seed: u64) -> usize {
    let hub = MemHub::new();
    let data: Vec<u8> = (0..TRANSFER).map(|i| (i * 31 % 251) as u8).collect();
    let mut cfg = config();
    cfg.preencode = preencode;
    let mut sender_tp = hub.join();
    let mut tp = FaultyTransport::new(hub.join(), FaultConfig::drop_only(drop), seed);
    let s = NpSender::new(1, &data, cfg).unwrap();
    let r = NpReceiver::new(1, 1, 0.0005, seed);
    let mut mux = Mux::new(MuxConfig::default(), VirtualClock::new());
    let (sent, mut got) = drive_session(
        &mut mux,
        rt(),
        (s, &mut sender_tp),
        [(r, &mut tp as &mut dyn PollTransport)],
    );
    sent.unwrap();
    let report = got.pop().unwrap().unwrap();
    assert_eq!(report.data, data);
    report.data.len()
}

fn bench_np_transfer(c: &mut Criterion) {
    let mut g = c.benchmark_group("np_transfer_64k");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(TRANSFER as u64));
    for &(name, drop) in &[("lossless", 0.0f64), ("loss_5pct", 0.05)] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &drop, |b, &d| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                transfer_np(d, false, seed)
            });
        });
    }
    g.bench_function("loss_5pct_preencoded", |b| {
        let mut seed = 1000u64;
        b.iter(|| {
            seed += 1;
            transfer_np(0.05, true, seed)
        });
    });
    g.finish();
}

criterion_group!(benches, bench_np_transfer);
criterion_main!(benches);
