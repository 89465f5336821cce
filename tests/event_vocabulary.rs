//! The JSONL vocabulary, pinned byte for byte.
//!
//! One constructed instance of every [`Event`] variant is rendered the way
//! `JsonlRecorder` renders it and compared with a committed trace. The
//! golden was written against the hand-kept `name()` / `session()` /
//! `to_json()` matches and passed there unchanged; it now pins what the one
//! `events!` declaration in `crates/obs/src/event.rs` generates — key
//! order, number formatting, wire names and session attribution.

use parity_multicast::obs::{validate_trace, Event, MsgKind, Outcome, Role, EVENT_NAMES};

/// One instance of each variant, in declaration order, with the session it
/// must attribute itself to.
fn samples() -> Vec<(Event, Option<u32>)> {
    let (r, o) = (Role::Receiver, Outcome::Degraded);
    vec![
        (
            Event::SessionStart {
                role: Role::Sender,
                session: 1,
                groups: 3,
                bytes: 4096,
            },
            Some(1),
        ),
        (
            Event::SessionEnd {
                role: r,
                outcome: o,
            },
            None,
        ),
        (
            Event::StallTimeout {
                role: r,
                waited_secs: 1.5,
            },
            None,
        ),
        (Event::LingerExpired { waited_secs: 0.3 }, None),
        (Event::AnnounceSent { session: 2 }, Some(2)),
        (
            Event::DataSent {
                session: 3,
                group: 70000,
                index: 6,
            },
            Some(3),
        ),
        (
            Event::ParitySent {
                session: 4,
                group: 1,
                index: 9,
            },
            Some(4),
        ),
        (
            Event::PollSent {
                session: 5,
                group: 1,
                sent: 8,
                round: 2,
            },
            Some(5),
        ),
        (Event::FinSent { session: 6 }, Some(6)),
        (
            Event::NakRecv {
                session: 7,
                group: 1,
                needed: 2,
                round: 1,
                stale: true,
            },
            Some(7),
        ),
        (
            Event::RepairRound {
                session: 8,
                group: 1,
                round: 2,
                parities: 2,
                originals: 1,
            },
            Some(8),
        ),
        (
            Event::DoneRecv {
                session: 9,
                receiver: 4,
            },
            Some(9),
        ),
        (
            Event::DataRecv {
                session: 10,
                group: 0,
                index: 0,
            },
            Some(10),
        ),
        (
            Event::ParityRecv {
                session: 11,
                group: 0,
                index: 254,
            },
            Some(11),
        ),
        (
            Event::PollRecv {
                session: 12,
                group: 0,
                sent: 8,
                round: 1,
            },
            Some(12),
        ),
        (
            Event::GroupDecoded {
                session: 13,
                group: 0,
                recovered: 2,
            },
            Some(13),
        ),
        (
            Event::NakSent {
                session: 14,
                group: 0,
                needed: 2,
                round: 1,
            },
            Some(14),
        ),
        (
            Event::DoneSent {
                session: 15,
                receiver: 4,
            },
            Some(15),
        ),
        (Event::FinRecv { session: 16 }, Some(16)),
        (
            Event::TransferComplete {
                session: 17,
                groups: 3,
            },
            Some(17),
        ),
        (
            Event::NakScheduled {
                group: 0,
                needed: 2,
                round: 1,
                deadline: 0.015,
            },
            None,
        ),
        (
            Event::NakSuppressed {
                group: 0,
                needed: 2,
                covered_by: 3,
            },
            None,
        ),
        (
            Event::NetSent {
                kind: MsgKind::Data,
            },
            None,
        ),
        (
            Event::NetRecv {
                kind: MsgKind::Poll,
            },
            None,
        ),
        (
            Event::NetDropped {
                kind: MsgKind::Parity,
            },
            None,
        ),
        (Event::NetDuplicated { kind: MsgKind::Nak }, None),
        (
            Event::NetReordered {
                kind: MsgKind::Announce,
            },
            None,
        ),
        (
            Event::NetCorrupted {
                kind: MsgKind::NakPacket,
            },
            None,
        ),
        (
            Event::NetTruncated {
                kind: MsgKind::Done,
            },
            None,
        ),
        (Event::NetGarbage { bytes: 48 }, None),
        (
            Event::NetBlackout {
                kind: MsgKind::Fin,
                tx: false,
            },
            None,
        ),
        (Event::CorruptDropped { total: 3 }, None),
        (Event::SendRetry { attempt: 2 }, None),
        (
            Event::ReceiverEvicted {
                evicted: 1,
                completed: 2,
            },
            None,
        ),
        (
            Event::SimRun {
                scheme: "integrated2(k=7)".into(),
                receivers: 1_000_000,
                trials: 100,
                mean_m: 1.25,
                ci95: 0.01,
                mean_rounds: 2.0,
            },
            None,
        ),
        (
            Event::SimTrial {
                scheme: "no-\"FEC\"".into(),
                trial: 3,
                m: 1.5,
                rounds: 2.0,
            },
            None,
        ),
        (
            Event::MuxSessionAdded {
                session: 18,
                role: Role::Sender,
                active: 12,
            },
            Some(18),
        ),
        (
            Event::MuxSessionEnded {
                session: 19,
                role: r,
                active: 11,
                drives: 4096,
            },
            Some(19),
        ),
        (
            Event::MuxAdmissionRejected {
                session: 20,
                role: Role::Sender,
                active: 12,
                utilization: 0.97,
            },
            Some(20),
        ),
        (
            Event::MuxOverload {
                active: 12,
                utilization: 0.99,
            },
            None,
        ),
        (
            Event::MuxOverloadCleared {
                active: 10,
                utilization: 0.4,
            },
            None,
        ),
        (
            Event::MuxSessionShed {
                session: 21,
                role: r,
                active: 11,
                drives: 512,
                utilization: 0.99,
            },
            Some(21),
        ),
        (Event::FarmUnknownDrop { session: 22 }, Some(22)),
        (
            Event::SessionConfig {
                session: 23,
                k: 8,
                h: 40,
                receivers: 16,
                loss: 0.05,
                backend: "scalar",
            },
            Some(23),
        ),
    ]
}

/// What `JsonlRecorder` writes for `samples()`, event `i` at `t = i / 8`.
const GOLDEN: &str = r#"{"t":0.0,"type":"session_start","role":"sender","session":1.0,"groups":3.0,"bytes":4096.0}
{"t":0.125,"type":"session_end","role":"receiver","outcome":"degraded"}
{"t":0.25,"type":"stall_timeout","role":"receiver","waited_secs":1.5}
{"t":0.375,"type":"linger_expired","waited_secs":0.3}
{"t":0.5,"type":"announce_sent","session":2.0}
{"t":0.625,"type":"data_sent","session":3.0,"group":70000.0,"index":6.0}
{"t":0.75,"type":"parity_sent","session":4.0,"group":1.0,"index":9.0}
{"t":0.875,"type":"poll_sent","session":5.0,"group":1.0,"sent":8.0,"round":2.0}
{"t":1.0,"type":"fin_sent","session":6.0}
{"t":1.125,"type":"nak_recv","session":7.0,"group":1.0,"needed":2.0,"round":1.0,"stale":true}
{"t":1.25,"type":"repair_round","session":8.0,"group":1.0,"round":2.0,"parities":2.0,"originals":1.0}
{"t":1.375,"type":"done_recv","session":9.0,"receiver":4.0}
{"t":1.5,"type":"data_recv","session":10.0,"group":0.0,"index":0.0}
{"t":1.625,"type":"parity_recv","session":11.0,"group":0.0,"index":254.0}
{"t":1.75,"type":"poll_recv","session":12.0,"group":0.0,"sent":8.0,"round":1.0}
{"t":1.875,"type":"group_decoded","session":13.0,"group":0.0,"recovered":2.0}
{"t":2.0,"type":"nak_sent","session":14.0,"group":0.0,"needed":2.0,"round":1.0}
{"t":2.125,"type":"done_sent","session":15.0,"receiver":4.0}
{"t":2.25,"type":"fin_recv","session":16.0}
{"t":2.375,"type":"transfer_complete","session":17.0,"groups":3.0}
{"t":2.5,"type":"nak_scheduled","group":0.0,"needed":2.0,"round":1.0,"deadline":0.015}
{"t":2.625,"type":"nak_suppressed","group":0.0,"needed":2.0,"covered_by":3.0}
{"t":2.75,"type":"net_sent","kind":"data"}
{"t":2.875,"type":"net_recv","kind":"poll"}
{"t":3.0,"type":"net_dropped","kind":"parity"}
{"t":3.125,"type":"net_duplicated","kind":"nak"}
{"t":3.25,"type":"net_reordered","kind":"announce"}
{"t":3.375,"type":"net_corrupted","kind":"nak_packet"}
{"t":3.5,"type":"net_truncated","kind":"done"}
{"t":3.625,"type":"net_garbage","bytes":48.0}
{"t":3.75,"type":"net_blackout","kind":"fin","tx":false}
{"t":3.875,"type":"corrupt_dropped","total":3.0}
{"t":4.0,"type":"send_retry","attempt":2.0}
{"t":4.125,"type":"receiver_evicted","evicted":1.0,"completed":2.0}
{"t":4.25,"type":"sim_run","scheme":"integrated2(k=7)","receivers":1000000.0,"trials":100.0,"mean_m":1.25,"ci95":0.01,"mean_rounds":2.0}
{"t":4.375,"type":"sim_trial","scheme":"no-\"FEC\"","trial":3.0,"m":1.5,"rounds":2.0}
{"t":4.5,"type":"mux_session_added","session":18.0,"role":"sender","active":12.0}
{"t":4.625,"type":"mux_session_ended","session":19.0,"role":"receiver","active":11.0,"drives":4096.0}
{"t":4.75,"type":"mux_admission_rejected","session":20.0,"role":"sender","active":12.0,"utilization":0.97}
{"t":4.875,"type":"mux_overload","active":12.0,"utilization":0.99}
{"t":5.0,"type":"mux_overload_cleared","active":10.0,"utilization":0.4}
{"t":5.125,"type":"mux_session_shed","session":21.0,"role":"receiver","active":11.0,"drives":512.0,"utilization":0.99}
{"t":5.25,"type":"farm_unknown_drop","session":22.0}
{"t":5.375,"type":"session_config","session":23.0,"k":8.0,"h":40.0,"receivers":16.0,"loss":0.05,"backend":"scalar"}
"#;

#[test]
fn jsonl_vocabulary_is_byte_identical_to_the_golden() {
    let samples = samples();
    let rendered: Vec<String> = samples
        .iter()
        .enumerate()
        .map(|(i, (ev, _))| serde_json::to_string(&ev.to_json(i as f64 / 8.0)).unwrap())
        .collect();
    let golden: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(golden.len(), 44);
    for (i, (got, want)) in rendered.iter().zip(&golden).enumerate() {
        assert_eq!(got, want, "line {} differs", i + 1);
    }
    assert_eq!(rendered.len(), golden.len());
}

#[test]
fn golden_validates_with_one_line_per_event_type() {
    let census = validate_trace(GOLDEN).unwrap();
    assert_eq!(census.len(), 44, "every variant appears once");
    assert!(census.values().all(|&n| n == 1));
    // The golden is in declaration order, so it spells EVENT_NAMES out.
    for (i, (line, (ev, session))) in GOLDEN.lines().zip(samples()).enumerate() {
        let v = serde_json::from_str(line).unwrap();
        assert_eq!(v["type"].as_str(), Some(ev.name()));
        assert_eq!(EVENT_NAMES[i], ev.name());
        assert_eq!(ev.session(), session, "{}", ev.name());
        assert_eq!(v.get("session").is_some(), session.is_some());
    }
}
