//! Failure-injection tests: the unhappy paths a production deployment
//! hits — hostile/corrupt traffic, session collisions, pathological
//! geometry, and resource bounds.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::run_session;
use parity_multicast::mux::{Mux, MuxClock, MuxConfig, SessionOutcome, VirtualClock, WallClock};
use parity_multicast::net::mem::MemEndpoint;
use parity_multicast::net::{
    FaultConfig, FaultStats, FaultyTransport, MemHub, Message, PollTransport, Transport,
};
use parity_multicast::obs::{validate_trace, JsonlRecorder, Obs};
use parity_multicast::protocol::runtime::{
    ReceiverMachine, ReceiverReport, RuntimeConfig, SenderMachine, SessionReport,
};
use parity_multicast::protocol::{CompletionPolicy, NpConfig, NpReceiver, NpSender, ProtocolError};

fn rt() -> RuntimeConfig {
    RuntimeConfig {
        packet_spacing: Duration::from_micros(50),
        stall_timeout: Duration::from_secs(15),
        complete_linger: Duration::from_millis(200),
        ..RuntimeConfig::default()
    }
}

fn config(receivers: u32) -> NpConfig {
    let mut c = NpConfig::small(CompletionPolicy::KnownReceivers(receivers));
    c.k = 8;
    c.h = 40;
    c.payload_len = 256;
    c.nak_slot = 0.001;
    c
}

fn payload(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i.wrapping_mul(69069) >> 5) as u8).collect()
}

/// One NP sender and one receiver behind `fault` (seeded) on `hub`, both
/// on one mux over `clock`. Returns both reports and what the fault
/// injector did.
fn run_pair(
    clock: impl MuxClock,
    (mut sender_tp, receiver_ep): (MemEndpoint, MemEndpoint),
    session: u32,
    data: &[u8],
    (fault, seed): (FaultConfig, u64),
    obs: &Obs,
) -> (SessionReport, ReceiverReport, FaultStats) {
    let mut receiver_tp = FaultyTransport::new(receiver_ep, fault, seed).with_obs(obs.clone());
    let sender = NpSender::new(session, data, config(1)).expect("config");
    let receiver = NpReceiver::new(0, session, 0.001, seed);
    let (sr, mut rrs) = run_session(
        clock,
        rt(),
        obs,
        (sender, &mut sender_tp),
        [(receiver, &mut receiver_tp as &mut dyn PollTransport)],
    );
    let rr = rrs.pop().expect("one receiver").expect("receiver failed");
    (sr.expect("sender failed"), rr, receiver_tp.stats())
}

#[test]
fn hostile_garbage_on_the_group_is_ignored() {
    // A third party blasts unrelated, malformed-adjacent traffic onto the
    // group while a transfer runs; the session must complete untouched.
    let hub = MemHub::new();
    let data = payload(30_000);
    let session = 0xFA11;

    // The saboteur: floods Done/Nak messages for ANOTHER session from its
    // own thread. It needs one: this test is about traffic the mux does
    // not schedule, so the flood must overlap the transfer in wall time
    // (on the mux it would be a session like any other, and under a
    // virtual clock a non-empty queue freezes time).
    let mut saboteur = hub.join();
    let endpoints = (hub.join(), hub.join());
    let sab = std::thread::spawn(move || {
        for i in 0..2000u32 {
            let _ = saboteur.send(&Message::Nak {
                session: session + 1,
                group: i % 7,
                needed: 9,
                round: 1,
            });
            let _ = saboteur.send(&Message::Done {
                session: session + 1,
                receiver: i,
            });
            if i % 50 == 0 {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "spreads the flood over the transfer's wall time on the shared MemHub"
                )]
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    });

    let (_, rr, _) = run_pair(
        WallClock::new(),
        endpoints,
        session,
        &data,
        (FaultConfig::drop_only(0.05), 3),
        &Obs::null(),
    );
    assert_eq!(rr.data, data);
    sab.join().unwrap();
}

#[test]
fn spoofed_done_messages_cannot_fake_completion_everywhere() {
    // A hostile Done for OUR session can trick KnownReceivers counting —
    // that is an accepted protocol limitation (no authentication in the
    // 1997 design) — but the *receiver* must never report completion
    // without the actual data. Pin the receiver-side guarantee.
    let session = 0x5EC;
    let mut rx = NpReceiver::new(0, session, 0.001, 1);
    for i in 0..50 {
        rx.handle(
            &Message::Done {
                session,
                receiver: i,
            },
            0.0,
        )
        .unwrap();
    }
    assert!(!rx.is_complete());
    assert!(matches!(rx.payload(), Err(ProtocolError::Inconsistent(_))));
}

#[test]
fn conflicting_announces_abort_cleanly() {
    let session = 0xBAD;
    let mut rx = NpReceiver::new(0, session, 0.001, 1);
    let a1 = Message::Announce {
        session,
        groups: 4,
        k: 8,
        n: 48,
        last_k: 8,
        payload_len: 256,
        total_bytes: 8192,
    };
    let a2 = Message::Announce {
        session,
        groups: 9,
        k: 8,
        n: 48,
        last_k: 8,
        payload_len: 256,
        total_bytes: 9999,
    };
    rx.handle(&a1, 0.0).unwrap();
    match rx.handle(&a2, 0.1) {
        Err(ProtocolError::Inconsistent(_)) => {}
        other => panic!("expected Inconsistent, got {other:?}"),
    }
}

#[test]
fn extreme_loss_eventually_succeeds() {
    // 50% loss: brutal but recoverable given the full parity budget and
    // announce-driven recovery. On the virtual clock, so the test is not
    // timing-sensitive; `run_fanout` checks every receiver's bytes.
    let data = payload(8 * 256 * 3);
    let (report, _) = common::run_fanout(
        NpSender::new(0xE0, &data, config(4)).expect("config"),
        (0..4)
            .map(|i| NpReceiver::new(i, 0xE0, 0.001, i as u64))
            .collect(),
        &data,
        |ep| ep,
        |ep, i| FaultyTransport::new(ep, FaultConfig::drop_only(0.5), 77 + i),
    );
    assert_eq!(report.completed.len(), 4);
}

#[test]
fn zero_receiver_population_rejected_by_config() {
    let c = NpConfig::small(CompletionPolicy::KnownReceivers(0));
    assert!(NpSender::new(1, &[1, 2, 3], c).is_err());
}

#[test]
fn oversized_payload_config_rejected() {
    let mut c = config(1);
    c.payload_len = 100_000; // above wire MAX_PAYLOAD
    assert!(NpSender::new(1, &[0u8; 10], c).is_err());
}

#[test]
fn max_geometry_session_works() {
    // k + h = 255 exactly, multi-group, odd tail.
    let mut c = NpConfig::small(CompletionPolicy::KnownReceivers(2));
    c.k = 200;
    c.h = 55;
    c.payload_len = 32;
    c.nak_slot = 0.001;
    let data = payload(200 * 32 + 777);
    let (report, _) = common::run_fanout(
        NpSender::new(0xED6E, &data, c).expect("config"),
        (0..2)
            .map(|i| NpReceiver::new(i, 0xED6E, 0.001, i as u64))
            .collect(),
        &data,
        |ep| ep,
        |ep, i| FaultyTransport::new(ep, FaultConfig::drop_only(0.1), 5 + i),
    );
    assert_eq!(report.completed.len(), 2);
}

#[test]
fn stalled_errors_carry_last_progress_context() {
    use parity_multicast::obs::{Event, MsgKind};

    let fast = RuntimeConfig {
        packet_spacing: Duration::from_micros(50),
        stall_timeout: Duration::from_millis(150),
        complete_linger: Duration::from_millis(300),
        ..RuntimeConfig::default()
    };

    // A sender with no receivers transmits its whole schedule, then stalls
    // waiting for feedback: the error must remember the last transmission.
    let hub = MemHub::new();
    let s = NpSender::new(3, &payload(500), config(1)).expect("config");
    let mut mux = Mux::new(MuxConfig::default(), VirtualClock::new());
    mux.add_sender(s, hub.join(), fast);
    match mux.run().pop() {
        Some((
            _,
            SessionOutcome::Sender(Err(ProtocolError::Stalled {
                last_progress: Some(ev),
                ..
            })),
        )) => {
            assert!(
                matches!(ev, Event::NetSent { .. }),
                "sender progress is its own transmissions, got {ev:?}"
            );
        }
        other => panic!("expected stall with context, got {other:?}"),
    }

    // A receiver that never hears anything has no progress to report.
    let hub = MemHub::new();
    let r = NpReceiver::new(1, 1, 0.001, 5);
    let mut mux = Mux::new(MuxConfig::default(), VirtualClock::new());
    mux.add_receiver(r, hub.join(), fast);
    match mux.run().pop() {
        Some((
            _,
            SessionOutcome::Receiver(Err(ProtocolError::Stalled {
                last_progress: None,
                waited_secs,
            })),
        )) => assert!(waited_secs >= 0.15),
        other => panic!("expected bare stall, got {other:?}"),
    }

    // The Display form surfaces the event name for post-mortems.
    let e = ProtocolError::Stalled {
        waited_secs: 1.5,
        last_progress: Some(Event::NetRecv { kind: MsgKind::Nak }),
    };
    assert!(e.to_string().contains("last progress: net_recv"));
}

#[test]
fn corrupt_datagrams_on_the_wire_are_dropped_not_fatal() {
    // Checksum-damaged frames queued at both drivers before the session
    // starts: the resilience layer must count-and-drop them (satellite
    // regression for the once-fatal decode path in recv_timeout) and the
    // transfer must complete byte-identically.
    let hub = MemHub::new();
    let data = payload(10_000);
    let session = 0xC0DE;

    let rx_ep = hub.join();
    let tx_ep = hub.join();
    let saboteur = hub.join();
    for i in 0..5u32 {
        // A structurally valid frame with one byte of bit damage — exactly
        // what a flaky NIC delivers. The v2 checksum must catch it.
        let mut raw = Message::Done {
            session,
            receiver: i,
        }
        .encode()
        .to_vec();
        let last = raw.len() - 1;
        raw[last] ^= 0x80;
        saboteur.send_raw(bytes::Bytes::from(raw));
    }

    let (report, rr, _) = run_pair(
        VirtualClock::new(),
        (tx_ep, rx_ep),
        session,
        &data,
        (FaultConfig::none(), 11),
        &Obs::null(),
    );
    assert_eq!(rr.data, data);
    assert!(
        rr.corrupt_dropped >= 1,
        "receiver must report the dropped frames, got {}",
        rr.corrupt_dropped
    );
    assert!(
        report.corrupt_dropped >= 1,
        "sender must report the dropped frames, got {}",
        report.corrupt_dropped
    );
    assert!(!report.is_degraded(), "drops alone are not degradation");
}

#[test]
fn sustained_corruption_reconciles_stats_trace_and_report() {
    // A receiver behind a byte-level hostile link (bit flips, truncation,
    // garbage injection): the session completes, and the three independent
    // ledgers — FaultStats at the transport, trace events in the JSONL
    // recorder, corrupt_dropped in the report — must tell the same story.
    let trace_path = std::env::temp_dir().join("pm_failure_injection_corruption.jsonl");
    let trace_path = trace_path.to_str().expect("utf8 temp path").to_string();
    let rec = Arc::new(JsonlRecorder::create(&trace_path).expect("trace file"));
    let obs = Obs::new(rec.clone());

    let hub = MemHub::new();
    let data = payload(20_000);
    let session = 0xB17;
    let fault = FaultConfig {
        corrupt: 0.04,
        truncate: 0.02,
        garbage: 0.02,
        ..FaultConfig::none()
    };

    let (_, report, stats) = run_pair(
        VirtualClock::new(),
        (hub.join(), hub.join()),
        session,
        &data,
        (fault, 0xC0FFEE),
        &obs,
    );
    assert_eq!(report.data, data, "corruption may delay, never damage");
    assert!(stats.corrupted > 0, "fault rates must have fired");

    // Every injected fault surfaces as a checksum/framing failure the
    // driver counted — nothing slips through, nothing is double-counted.
    assert_eq!(
        report.corrupt_dropped,
        stats.corrupted + stats.truncated + stats.garbage_injected,
        "report must account for exactly the injected damage: {stats:?}"
    );

    rec.flush();
    let text = std::fs::read_to_string(&trace_path).expect("trace readable");
    let census = validate_trace(&text).expect("trace must stay schema-clean under chaos");
    assert_eq!(census.get("net_corrupted").copied(), Some(stats.corrupted));
    assert_eq!(
        census.get("net_truncated").copied().unwrap_or(0),
        stats.truncated
    );
    assert_eq!(
        census.get("net_garbage").copied().unwrap_or(0),
        stats.garbage_injected
    );
    assert_eq!(
        census.get("corrupt_dropped").copied().unwrap_or(0),
        report.corrupt_dropped,
        "one trace event per dropped datagram"
    );
    let _ = std::fs::remove_file(&trace_path);
}

#[test]
fn blackout_window_stalls_then_recovers() {
    // The receiver is deaf for the first quarter second — the entire
    // initial schedule falls into the blackout — then the announce
    // heartbeat drives full recovery through NAK/repair rounds.
    let hub = MemHub::new();
    let data = payload(30_000);
    let session = 0xB1AC;
    let fault = FaultConfig {
        blackout: Some((0.0, 0.25)),
        ..FaultConfig::none()
    };

    // The blackout window is in the fault injector's own wall time, so the
    // session runs on the wall clock too.
    let (_, report, stats) = run_pair(
        WallClock::new(),
        (hub.join(), hub.join()),
        session,
        &data,
        (fault, 0xDA4C),
        &Obs::null(),
    );
    assert_eq!(report.data, data);
    assert!(
        stats.blackout_recv > 0,
        "the blackout window must have swallowed traffic: {stats:?}"
    );
}

#[test]
fn corruption_over_real_udp_completes() {
    // Same hostile-link story over kernel UDP multicast (skips with a note
    // on hosts without multicast support, like the other UDP tests).
    use parity_multicast::net::udp::UdpHub;
    use std::net::{Ipv4Addr, SocketAddrV4};

    let group = SocketAddrV4::new(Ipv4Addr::new(239, 255, 77, 9), 46017);
    let hub = match UdpHub::join(group) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("skipping UDP corruption test: {e}");
            return;
        }
    };
    let data = payload(40_000);
    let session = 0xD08;
    let fault = FaultConfig {
        corrupt: 0.05,
        drop: 0.05,
        ..FaultConfig::none()
    };

    let mut tp = FaultyTransport::new(hub.endpoint().expect("endpoint"), fault, 0x0DD);
    let mut sender_tp = hub.endpoint().expect("endpoint");
    let mut cfg = config(1);
    cfg.payload_len = 512;
    let sender = NpSender::new(session, &data, cfg).expect("config");
    let (sr, mut rrs) = run_session(
        WallClock::new(),
        rt(),
        &Obs::null(),
        (sender, &mut sender_tp),
        [(
            NpReceiver::new(0, session, 0.002, 21),
            &mut tp as &mut dyn PollTransport,
        )],
    );
    sr.expect("sender completes");
    let report = rrs
        .pop()
        .expect("one receiver")
        .expect("receiver completes");
    let stats = tp.stats();
    assert_eq!(report.data, data);
    assert!(stats.corrupted > 0, "corruption must have fired: {stats:?}");
    assert!(
        report.corrupt_dropped >= stats.corrupted,
        "every checksum-damaged UDP frame is counted ({} dropped, {} corrupted)",
        report.corrupt_dropped,
        stats.corrupted
    );
}

#[test]
fn sender_survives_nak_storm() {
    // Suppression failure worst case: every receiver NAKs every round.
    // Round gating + the service quarantine must keep repair traffic
    // bounded (no amplification beyond one service per storm burst).
    let data = payload(8 * 256);
    let mut sender = NpSender::new(0x570, &data, config(1)).expect("config");
    // Drain the initial schedule.
    let mut sent = 0u64;
    while let parity_multicast::protocol::SenderStep::Transmit(_) = sender.next_step(0.0) {
        sent += 1;
    }
    assert!(sent > 0);
    // 100 duplicate NAKs for the same round arrive within a millisecond.
    for i in 0..100 {
        sender
            .handle(
                &Message::Nak {
                    session: 0x570,
                    group: 0,
                    needed: 3,
                    round: 1,
                },
                0.001 + i as f64 * 1e-6,
            )
            .unwrap();
    }
    let mut repairs = 0u64;
    loop {
        match sender.next_step(0.002) {
            parity_multicast::protocol::SenderStep::Transmit(Message::Packet { .. }) => {
                repairs += 1
            }
            parity_multicast::protocol::SenderStep::Transmit(_) => {}
            _ => break,
        }
    }
    assert_eq!(
        repairs, 3,
        "exactly one service of 3 parities despite 100 NAKs"
    );
}
