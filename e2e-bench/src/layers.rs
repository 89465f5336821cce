//! Standalone replays of single layers: the kernels and primitives a
//! traced repetition cannot time from outside (they sit below the trait
//! boundaries), each run on its own for a few tens of milliseconds.
//!
//! Every replay runs in three batches and reports the median batch, with
//! inputs and results passed through `black_box`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use pm_analysis::{integrated, Population};
use pm_core::config::{CompletionPolicy, NpConfig};
use pm_core::receiver::NpReceiver;
use pm_core::runtime::RuntimeConfig;
use pm_core::sender::NpSender;
use pm_gf::Gf256;
use pm_loss::{IndependentLoss, LossModel};
use pm_mux::{Mux, MuxConfig, TimerWheel, VirtualClock};
use pm_net::{MemHub, Message};
use pm_obs::{Event, Obs, RingRecorder};
use pm_par::Pool;
use pm_rse::{CodeSpec, RseDecoder, RseEncoder};
use pm_sim::runner::{run_env, run_env_par, LossEnv, Scheme};
use pm_sim::SimConfig;
use pm_simd::{kernels, kernels_for, Backend};

use crate::host;
use crate::protocol::payload;
use crate::stats::median;

const BATCHES: usize = 3;
const BATCH: Duration = Duration::from_millis(25);

/// Median seconds per call of `op` over [`BATCHES`] batches of at least
/// [`BATCH`] each. The clock is read once per inner loop, whose length is
/// first doubled until it lasts 50 us: a clock read every few calls would
/// cost more than a nanosecond-scale `op`.
fn secs_per_call(mut op: impl FnMut()) -> f64 {
    let mut inner = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..inner {
            op();
        }
        if t0.elapsed() >= Duration::from_micros(50) || inner >= 1 << 24 {
            break;
        }
        inner *= 2;
    }
    let mut per_call = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        let mut calls = 0u64;
        while t0.elapsed() < BATCH {
            for _ in 0..inner {
                op();
            }
            calls += inner;
        }
        per_call.push(t0.elapsed().as_secs_f64() / calls as f64);
    }
    median(&per_call)
}

const MIB: f64 = 1024.0 * 1024.0;

fn group(k: usize, len: usize) -> Vec<Vec<u8>> {
    (0..k).map(|i| payload(i as u64 + 1, len)).collect()
}

/// `Message::encode` / `Message::decode` of one data packet of
/// `payload_len` bytes, checksum included: (encode ns, decode ns).
pub fn wire_ns(payload_len: usize) -> (f64, f64) {
    let msg = Message::Packet {
        session: 7,
        group: 3,
        index: 2,
        k: 7,
        n: 255,
        payload: Bytes::from(payload(9, payload_len)),
    };
    let encode = secs_per_call(|| {
        black_box(black_box(&msg).encode());
    });
    let raw = msg.encode();
    let decode = secs_per_call(|| {
        black_box(Message::decode(black_box(raw.clone())).expect("own datagram decodes"));
    });
    (encode * 1e9, decode * 1e9)
}

/// Encode throughput in MiB of *data* per second: all `h` parities of a
/// `k`-packet group of 1 KiB packets.
pub fn rse_encode_mib_s(k: usize, h: usize) -> f64 {
    let enc = RseEncoder::new(CodeSpec::new(k, h).expect("valid geometry")).expect("encoder");
    let data = group(k, 1024);
    let secs = secs_per_call(|| {
        black_box(enc.encode_all(black_box(&data)).expect("encodes"));
    });
    (k * 1024) as f64 / MIB / secs
}

/// Decode throughput in MiB of *data* per second with `lost` data packets
/// of a `k`-packet group replaced by parities.
pub fn rse_decode_mib_s(k: usize, lost: usize) -> f64 {
    let enc = RseEncoder::new(CodeSpec::new(k, lost).expect("valid geometry")).expect("encoder");
    let dec = RseDecoder::from_encoder(&enc);
    let data = group(k, 1024);
    let parities = enc.encode_all(&data).expect("encodes");
    // Lose every (k/lost)-th data packet; substitute the parities.
    let stride = k / lost;
    let mut shares: Vec<(usize, &[u8])> = Vec::with_capacity(k);
    for (i, d) in data.iter().enumerate() {
        if i % stride != 0 || i / stride >= lost {
            shares.push((i, d));
        }
    }
    for (j, p) in parities.iter().enumerate() {
        shares.push((k + j, p));
    }
    let secs = secs_per_call(|| {
        black_box(dec.decode(black_box(&shares)).expect("decodes"));
    });
    (k * 1024) as f64 / MIB / secs
}

/// `dst ^= c * src` over 64 KiB on the dispatched backend and on the
/// scalar fallback: (active GiB/s, scalar GiB/s).
pub fn gf_mul_add_gib_s() -> (f64, f64) {
    let src = payload(3, 64 * 1024);
    let mut dst = payload(4, 64 * 1024);
    let c = Gf256(0x53);
    let mut run = |k: &'static pm_simd::Kernels| {
        let secs = secs_per_call(|| k.mul_add_slice(c, black_box(&src), black_box(&mut dst)));
        src.len() as f64 / (MIB * 1024.0) / secs
    };
    let active = run(kernels());
    let scalar = run(kernels_for(Backend::Scalar).expect("scalar is always available"));
    (active, scalar)
}

fn obs_event(i: u16) -> Event {
    Event::DataSent {
        session: 7,
        group: 3,
        index: i,
    }
}

/// Cost of one `Obs::emit`: (null recorder ns, ring recorder ns).
pub fn obs_emit_ns() -> (f64, f64) {
    let run = |obs: Obs| {
        let mut i = 0u16;
        secs_per_call(|| {
            i = i.wrapping_add(1);
            obs.emit(black_box(0.5), || obs_event(i));
        }) * 1e9
    };
    (
        run(Obs::null()),
        run(Obs::new(Arc::new(RingRecorder::new(1024)))),
    )
}

/// The `BENCH_mux.json` wheel storm: 64 Ki timers inserted over every
/// hierarchy level, then fired; ns per timer.
pub fn wheel_insert_fire_ns() -> f64 {
    const TIMERS: u64 = 65_536;
    let mut runs = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        for i in 0..TIMERS {
            wheel.insert((i % 4096) * (i % 7 + 1) + 1, i);
        }
        let mut fired = Vec::new();
        let mut total = 0u64;
        let mut now = 0u64;
        while !wheel.is_empty() {
            now += 64;
            fired.clear();
            wheel.advance(now, &mut fired);
            total += fired.len() as u64;
        }
        assert_eq!(black_box(total), TIMERS);
        runs.push(t0.elapsed().as_secs_f64() * 1e9 / TIMERS as f64);
    }
    median(&runs)
}

/// The `BENCH_mux.json` population sweep: `pairs` lossless 1500-byte NP
/// sessions on one virtual-clock mux; us per session.
pub fn farm_us_per_session(pairs: u32) -> f64 {
    let cfg = NpConfig {
        k: 8,
        h: 40,
        payload_len: 128,
        nak_slot: 0.001,
        ..NpConfig::small(CompletionPolicy::KnownReceivers(1))
    };
    let rt = RuntimeConfig {
        packet_spacing: Duration::from_micros(50),
        stall_timeout: Duration::from_secs(5),
        complete_linger: Duration::from_millis(250),
        ..RuntimeConfig::default()
    };
    let data = payload(5, 1500);
    let mut runs = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let mut mux = Mux::new(MuxConfig::default(), VirtualClock::new());
        for i in 0..pairs {
            let hub = MemHub::new();
            let sender = NpSender::new(i, &data, cfg.clone()).expect("valid config");
            mux.add_sender(sender, hub.join(), rt);
            mux.add_receiver(
                NpReceiver::new(1000 + i, i, 0.001, u64::from(i)),
                hub.join(),
                rt,
            );
        }
        let t0 = Instant::now();
        let outcomes = mux.run();
        runs.push(t0.elapsed().as_secs_f64() * 1e6 / f64::from(pairs));
        assert!(outcomes.iter().all(|(_, o)| o.is_ok()));
    }
    median(&runs)
}

/// Independent-loss sampling for 4096 receivers; ns per receiver.
pub fn loss_sample_ns_per_rcv() -> f64 {
    const R: usize = 4096;
    let mut model = IndependentLoss::new(R, 0.01, 17);
    let mut lost = vec![false; R];
    let mut t = 0.0;
    secs_per_call(|| {
        t += 0.04;
        model.sample(t, black_box(&mut lost));
    }) * 1e9
        / R as f64
}

/// One evaluation of the finite-parity E[M] at R = 4096; us.
pub fn analysis_em_eval_us() -> f64 {
    let pop = Population::homogeneous(0.01, 4096);
    secs_per_call(|| {
        black_box(integrated::finite(7, 248, 0, black_box(&pop)));
    }) * 1e6
}

/// The simulator at the sim workload's point, 256 trials, serial and on
/// `min(2, nproc)` workers: (us per serial trial, serial wall over
/// parallel wall). The two results must be bit-identical.
pub fn sim_trial_us_and_speedup(seed: u64) -> Result<(f64, f64), String> {
    const TRIALS: usize = 256;
    let cfg = SimConfig::paper_timing(TRIALS);
    let scheme = Scheme::Integrated2 { k: 7 };
    let env = LossEnv::Independent { p: 0.01 };
    let pool = Pool::new(host::nproc().min(2));
    let (mut serial, mut parallel) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        let a = run_env(&cfg, scheme, env, 4096, seed);
        serial.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let b = run_env_par(&cfg, scheme, env, 4096, seed, &pool);
        parallel.push(t0.elapsed().as_secs_f64());
        if a != b {
            return Err(format!(
                "serial and {}-worker simulator results differ: {a:?} vs {b:?}",
                pool.workers()
            ));
        }
    }
    let (s, p) = (median(&serial), median(&parallel));
    Ok((s * 1e6 / TRIALS as f64, s / p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_report_plausible_positive_numbers() {
        let (enc, dec) = wire_ns(256);
        assert!(enc > 0.0 && dec > 0.0);
        assert!(rse_encode_mib_s(7, 1) > 1.0);
        assert!(rse_decode_mib_s(100, 10) > 1.0);
        let (active, scalar) = gf_mul_add_gib_s();
        assert!(active > 0.0 && scalar > 0.0);
        assert!(wheel_insert_fire_ns() > 0.0);
        assert!(farm_us_per_session(8) > 0.0);
        let (trial_us, speedup) = sim_trial_us_and_speedup(3).expect("bit-identical");
        assert!(trial_us > 0.0 && speedup > 0.0);
    }
}
