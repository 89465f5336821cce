//! The implementation at Section 3 scale: real `NpSender`/`NpReceiver`
//! (and N2) machines, hundreds of receivers, one `Mux` on a virtual clock
//! over a `MemHub`, each receiver's downlink behind a seeded
//! `FaultyTransport::drop_only(p)` — independent loss, control traffic
//! included. `pm-sim` checks the paper's *idealised schemes* at this scale;
//! these check that the code itself — wire messages, slotting and damping,
//! round logic — keeps the same promises, and that a run is a pure function
//! of its seeds.

mod common;

use common::{feedback_in, run_fanout, transcript_digest};
use parity_multicast::analysis::{integrated, Population};
use parity_multicast::net::{FaultConfig, FaultyTransport, Transcript};
use parity_multicast::protocol::n2::{N2Receiver, N2Sender};
use parity_multicast::protocol::runtime::SessionReport;
use parity_multicast::protocol::{CompletionPolicy, NpConfig, NpReceiver, NpSender};

const SESSION: u32 = 0x5CA1E;

fn config(receivers: usize, k: usize) -> NpConfig {
    let mut c = NpConfig::small(CompletionPolicy::KnownReceivers(receivers as u32));
    c.k = k;
    c.h = 255 - k;
    c.payload_len = 8; // payload content is irrelevant to the dynamics
    c.nak_slot = 0.002;
    c.round_timeout = 0.05;
    c
}

fn data(bytes: usize) -> Vec<u8> {
    (0..bytes).map(|i| (i % 251) as u8).collect()
}

/// Transmissions per data packet the sender achieved, `E[M]`.
fn em(report: &SessionReport) -> f64 {
    let c = &report.counters;
    (c.data_sent + c.repairs_sent) as f64 / c.data_sent.max(1) as f64
}

/// One NP session of `bytes` to `r` receivers, each losing a datagram with
/// probability `p`; every receiver is checked byte-exact by `run_fanout`.
fn run_np(r: usize, k: usize, p: f64, bytes: usize, seed: u64) -> (SessionReport, Transcript) {
    let data = data(bytes);
    run_fanout(
        NpSender::new(SESSION, &data, config(r, k)).expect("valid config"),
        (0..r as u64)
            .map(|i| NpReceiver::new(i as u32, SESSION, 0.002, seed + i))
            .collect(),
        &data,
        |ep| ep,
        |ep, i| FaultyTransport::new(ep, FaultConfig::drop_only(p), seed ^ (i << 8)),
    )
}

/// The N2 baseline on the same medium.
fn run_n2(r: usize, k: usize, p: f64, bytes: usize, seed: u64) -> SessionReport {
    let data = data(bytes);
    let mut cfg = config(r, k);
    cfg.h = 0;
    run_fanout(
        N2Sender::new(SESSION, &data, cfg).expect("valid config"),
        (0..r as u64)
            .map(|i| N2Receiver::new(i as u32, SESSION, 0.002, i))
            .collect(),
        &data,
        |ep| ep,
        |ep, i| FaultyTransport::new(ep, FaultConfig::drop_only(p), seed ^ (i << 8)),
    )
    .0
}

#[test]
fn lossless_completes_in_one_round() {
    let (report, log) = run_np(16, 5, 0.0, 400, 1);
    assert_eq!(report.completed.len(), 16);
    assert_eq!(report.counters.repairs_sent, 0);
    assert_eq!(feedback_in(&log), (0, 16), "(NAKs, Dones) at the sender");
    assert_eq!(em(&report), 1.0);
}

#[test]
fn implementation_tracks_analytical_bound_at_scale() {
    // R = 200 real NpReceivers with 5% loss: the protocol's achieved E[M]
    // must land near Eq. (6).
    let (r, k, p) = (200usize, 20usize, 0.05);
    let (report, _) = run_np(r, k, p, 20 * 8 * 10, 7);
    assert_eq!(report.completed.len(), r);
    let bound = integrated::lower_bound(k, 0, &Population::homogeneous(p, r as u64));
    let em = em(&report);
    assert!(em < bound * 1.30, "E[M] {em} vs bound {bound}");
    assert!(em >= 1.0);
}

#[test]
fn suppression_keeps_feedback_sublinear() {
    // The paper's scalability claim for NP's feedback: the NAK count at
    // the sender grows far slower than R.
    let naks_per_r: Vec<(usize, usize)> = [10usize, 100, 400]
        .iter()
        .map(|&r| {
            let (report, log) = run_np(r, 10, 0.05, 10 * 8 * 6, 13);
            assert_eq!(report.completed.len(), r);
            (r, feedback_in(&log).0)
        })
        .collect();
    let (r_small, naks_small) = naks_per_r[0];
    let (r_big, naks_big) = naks_per_r[2];
    let growth = naks_big as f64 / naks_small.max(1) as f64;
    let population_growth = r_big as f64 / r_small as f64;
    assert!(
        growth < population_growth / 2.0,
        "NAK growth {growth:.1}x should stay far below population growth {population_growth:.0}x ({naks_per_r:?})"
    );
}

#[test]
fn n2_baseline_runs_at_scale_too() {
    let report = run_n2(50, 10, 0.05, 2000, 31);
    assert_eq!(report.completed.len(), 50);
    assert!(em(&report) > 1.0, "5% loss forces retransmissions");
}

#[test]
fn np_beats_n2_at_scale_in_the_real_implementation() {
    let (r, p, bytes) = (100usize, 0.05, 10 * 8 * 8);
    let np = em(&run_np(r, 10, p, bytes, 41).0);
    let n2 = em(&run_n2(r, 10, p, bytes, 41));
    assert!(np < n2, "NP E[M] {np} must beat N2 E[M] {n2}");
}

#[test]
fn a_run_is_a_pure_function_of_its_seeds() {
    // Seeded faults + a virtual clock: the sender's whole wire history at
    // R = 64 repeats byte for byte.
    let digest = || transcript_digest(&run_np(64, 7, 0.01, 7 * 8 * 32, 0x5EED).1);
    assert_eq!(digest(), digest());
}
