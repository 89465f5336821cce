//! End-to-end protocol tests: NP and N2 over the in-memory multicast hub
//! with receive-side fault injection — the full stack from application
//! bytes through wire format, suppression, parity repair and reassembly.
//! Sessions run on one mux under a virtual clock (deterministic, no
//! threads); the tests about wall-clock behaviour use the blocking
//! `drive_*` wrappers.

mod common;

use std::time::Duration;

use common::run_session;
use parity_multicast::mux::{drive_receiver, drive_sender, VirtualClock};
use parity_multicast::net::{FaultConfig, FaultyTransport, MemHub, PollTransport};
use parity_multicast::obs::Obs;
use parity_multicast::protocol::n2::{N2Receiver, N2Sender};
use parity_multicast::protocol::runtime::{
    ReceiverMachine, ReceiverReport, RuntimeConfig, SenderMachine, SessionReport,
};
use parity_multicast::protocol::{CompletionPolicy, NpConfig, NpReceiver, NpSender, ProtocolError};

fn rt() -> RuntimeConfig {
    RuntimeConfig {
        packet_spacing: Duration::from_micros(50),
        stall_timeout: Duration::from_secs(20),
        complete_linger: Duration::from_millis(250),
        ..RuntimeConfig::default()
    }
}

fn payload(n: usize) -> Vec<u8> {
    (0..n)
        .map(|i| (i.wrapping_mul(2654435761) >> 9) as u8)
        .collect()
}

fn np_config(receivers: u32, k: usize, h: usize) -> NpConfig {
    let mut c = NpConfig::small(CompletionPolicy::KnownReceivers(receivers));
    c.k = k;
    c.h = h;
    c.payload_len = 512;
    c.nak_slot = 0.001;
    c.round_timeout = 0.05;
    c
}

/// Run one session: `sender` plus `receivers` receivers, each behind its
/// own seeded `faults`, all on one virtual-clock mux.
fn run<S, R>(
    sender: S,
    receiver: impl Fn(u32) -> R,
    receivers: u32,
    faults: FaultConfig,
    seed: u64,
) -> (SessionReport, Vec<ReceiverReport>)
where
    S: SenderMachine + 'static,
    R: ReceiverMachine + 'static,
{
    let hub = MemHub::new();
    let mut tps: Vec<_> = (0..receivers)
        .map(|id| FaultyTransport::new(hub.join(), faults, seed + id as u64))
        .collect();
    let mut sender_tp = hub.join();
    let (sr, rrs) = run_session(
        VirtualClock::new(),
        rt(),
        &Obs::null(),
        (sender, &mut sender_tp),
        tps.iter_mut()
            .enumerate()
            .map(|(id, tp)| (receiver(id as u32), tp as &mut dyn PollTransport)),
    );
    let rrs = rrs.into_iter().map(|r| r.expect("receiver failed"));
    (sr.expect("sender failed"), rrs.collect())
}

/// Run one NP session with `receivers` lossy receivers.
fn run_np(
    data: &[u8],
    cfg: NpConfig,
    receivers: u32,
    drop: f64,
    seed: u64,
) -> (SessionReport, Vec<ReceiverReport>) {
    let session = 7000 + seed as u32;
    run(
        NpSender::new(session, data, cfg).expect("sender config"),
        |id| NpReceiver::new(id, session, 0.001, seed + id as u64),
        receivers,
        FaultConfig::drop_only(drop),
        seed,
    )
}

/// Run one N2 session with the same topology.
fn run_n2(
    data: &[u8],
    cfg: NpConfig,
    receivers: u32,
    drop: f64,
    seed: u64,
) -> (SessionReport, Vec<ReceiverReport>) {
    let session = 8000 + seed as u32;
    run(
        N2Sender::new(session, data, cfg).expect("sender config"),
        |id| N2Receiver::new(id, session, 0.001, seed + id as u64),
        receivers,
        FaultConfig::drop_only(drop),
        seed,
    )
}

#[test]
fn np_delivers_under_moderate_loss() {
    let data = payload(100_000);
    let (sr, rrs) = run_np(&data, np_config(3, 20, 100), 3, 0.10, 1);
    for r in &rrs {
        assert_eq!(r.data, data);
    }
    assert!(
        sr.counters.repairs_sent > 0,
        "10% loss must trigger parity repair"
    );
}

#[test]
fn np_delivers_under_heavy_loss() {
    let data = payload(40_000);
    let (_, rrs) = run_np(&data, np_config(4, 10, 200), 4, 0.30, 2);
    for r in &rrs {
        assert_eq!(r.data, data);
        assert!(
            r.counters.packets_decoded > 0,
            "30% loss must exercise decoding"
        );
    }
}

#[test]
fn np_efficiency_close_to_analytical_bound() {
    // The flagship check: the live protocol's E[M] should land near the
    // paper's Eq. (6) lower bound for the same (k, p, R).
    let data = payload(200_000);
    let (k, receivers, drop) = (20usize, 3u32, 0.10);
    let (sr, _) = run_np(&data, np_config(receivers, k, 120), receivers, drop, 3);
    let m =
        (sr.counters.data_sent + sr.counters.repairs_sent) as f64 / sr.counters.data_sent as f64;
    let bound = parity_multicast::analysis::integrated::lower_bound(
        k,
        0,
        &parity_multicast::analysis::Population::homogeneous(drop, receivers as u64),
    );
    assert!(
        m < bound * 1.35,
        "protocol E[M] = {m:.3} too far above the analytical bound {bound:.3}"
    );
    assert!(m >= 1.0);
}

#[test]
fn np_beats_n2_on_repair_traffic() {
    // The paper's core claim, live on the wire: with several receivers
    // losing independently, parity repair needs fewer retransmissions
    // than N2's per-packet originals.
    let data = payload(150_000);
    let (receivers, drop) = (4u32, 0.15);
    let (np, np_rrs) = run_np(&data, np_config(receivers, 20, 120), receivers, drop, 4);
    let (n2, _) = run_n2(&data, np_config(receivers, 20, 0), receivers, drop, 4);
    assert!(
        np.counters.repairs_sent < n2.counters.repairs_sent,
        "NP repairs {} must undercut N2 repairs {}",
        np.counters.repairs_sent,
        n2.counters.repairs_sent
    );
    // And NP's receivers see almost no unnecessary repairs compared to the
    // repair volume N2 multicasts past uninterested receivers.
    let np_unneeded: u64 = np_rrs.iter().map(|r| r.counters.unneeded_receptions).sum();
    assert!(
        np_unneeded <= np.counters.repairs_sent * receivers as u64,
        "sanity: unneeded {np_unneeded}"
    );
}

#[test]
fn n2_delivers_under_loss() {
    let data = payload(60_000);
    let (_, rrs) = run_n2(&data, np_config(2, 10, 0), 2, 0.15, 5);
    for r in &rrs {
        assert_eq!(r.data, data);
    }
}

#[test]
fn preencoded_np_transfers_identically() {
    let data = payload(50_000);
    let mut cfg = np_config(2, 10, 30);
    cfg.preencode = true;
    let (sr, rrs) = run_np(&data, cfg, 2, 0.15, 6);
    for r in &rrs {
        assert_eq!(r.data, data);
    }
    // All parities were encoded upfront.
    assert!(sr.counters.parities_encoded >= 30);
}

#[test]
fn proactive_parities_reduce_feedback() {
    let data = payload(80_000);
    let mut reactive = np_config(3, 10, 50);
    reactive.proactive_parity = 0;
    let mut proactive = np_config(3, 10, 50);
    proactive.proactive_parity = 3;
    let (r0, _) = run_np(&data, reactive, 3, 0.12, 7);
    let (r1, _) = run_np(&data, proactive, 3, 0.12, 7);
    assert!(
        r1.counters.feedback_received < r0.counters.feedback_received,
        "a = 3 proactive parities should absorb most round-1 losses: {} vs {}",
        r1.counters.feedback_received,
        r0.counters.feedback_received
    );
}

#[test]
fn quiescence_completion_without_done() {
    // Quiescence mode must finish even though nobody reports Done.
    let data = payload(10_000);
    let mut cfg = np_config(1, 7, 20);
    cfg.completion = CompletionPolicy::Quiescence(0.2);
    let hub = MemHub::new();
    let mut sender_tp = hub.join();
    let recv = {
        let mut tp = hub.join();
        std::thread::spawn(move || {
            let m = NpReceiver::new(0, 7008, 0.001, 8);
            drive_receiver(m, &mut tp, &rt(), &Obs::null()).expect("receiver failed")
        })
    };
    let sender = NpSender::new(7008, &data, cfg).expect("config");
    let sr = drive_sender(sender, &mut sender_tp, &rt(), &Obs::null()).expect("sender");
    let rr = recv.join().unwrap();
    assert_eq!(rr.data, data);
    assert!(
        sr.elapsed >= Duration::from_millis(180),
        "must wait out the quiet period"
    );
}

#[test]
fn tiny_transfers() {
    for len in [1usize, 10, 511, 512, 513] {
        let data = payload(len);
        let (_, rrs) = run_np(&data, np_config(1, 7, 20), 1, 0.05, 100 + len as u64);
        assert_eq!(rrs[0].data, data, "len={len}");
    }
}

#[test]
fn empty_transfer_completes() {
    let (_, rrs) = run_np(&[], np_config(1, 7, 20), 1, 0.0, 9);
    assert!(rrs[0].data.is_empty());
}

#[test]
fn duplicate_and_reordered_packets_tolerated() {
    let data = payload(30_000);
    let session = 7010;
    let faults = FaultConfig {
        drop: 0.10,
        duplicate: 0.10,
        reorder: 0.10,
        ..FaultConfig::none()
    };
    let (_, rrs) = run(
        NpSender::new(session, &data, np_config(1, 10, 40)).expect("config"),
        |id| NpReceiver::new(id, session, 0.001, 11),
        1,
        faults,
        11,
    );
    assert_eq!(rrs[0].data, data);
}

#[test]
fn receiver_without_sender_stalls_cleanly() {
    let hub = MemHub::new();
    let mut tp = hub.join();
    let m = NpReceiver::new(0, 1, 0.001, 1);
    let fast = RuntimeConfig {
        packet_spacing: Duration::from_micros(50),
        stall_timeout: Duration::from_millis(100),
        complete_linger: Duration::from_millis(50),
        ..RuntimeConfig::default()
    };
    match drive_receiver(m, &mut tp, &fast, &Obs::null()) {
        Err(ProtocolError::Stalled { .. }) => {}
        other => panic!("expected stall, got {other:?}"),
    }
}

#[test]
fn many_receivers_single_nak_suppression_works() {
    // With 8 receivers on a lossless hub plus one lossy receiver, polls
    // should mostly be answered by at most one NAK thanks to damping.
    let data = payload(50_000);
    let (sr, rrs) = run_np(&data, np_config(8, 20, 100), 8, 0.08, 12);
    for r in &rrs {
        assert_eq!(r.data, data);
    }
    let suppressed: u64 = rrs.iter().map(|r| r.counters.feedback_suppressed).sum();
    let sent: u64 = rrs.iter().map(|r| r.counters.feedback_sent).sum();
    assert!(
        suppressed > 0,
        "8 receivers at 8% loss must overhear and suppress some NAKs (sent {sent})"
    );
    assert!(
        sr.counters.feedback_received < sent + 50,
        "sender sees bounded feedback"
    );
}
