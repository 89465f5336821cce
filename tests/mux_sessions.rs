//! Integration tests for `pm-mux`, the event-driven session multiplexer:
//!
//! 1. **Determinism** — a 32-session mux run under the virtual clock is a
//!    pure function of the session set: two runs produce byte-identical
//!    wire transcripts, and both hash to the pinned digests. So do the
//!    lossy NP and N2 farms, whose transcripts cover the NAK, repair and
//!    heartbeat paths.
//! 2. **Scale** — a 256-session farm completes on one driver thread under
//!    the in-memory transport, every receiver holding its payload.
//! 3. **Isolation** — a Heavy-preset hostile session cannot delay a clean
//!    neighbor by more than one timer tick.
//! 4. **Chaos** — concurrent faulted sessions in one mux uphold the same
//!    degradation trichotomy the chaos grid pins.
//! 5. **Postmortems** — with `flight_capacity` set, every degraded or
//!    errored session yields exactly one schema-valid postmortem; clean
//!    sessions yield none.
//! 6. **Run determinism** — two identical chaos-farm runs under the
//!    virtual clock record the same full event trace, every f64 bit for
//!    bit, and end every session with the same outcome.
//! 7. **Feedback proportional to need** — a `Poll` solicits NAKs, never
//!    `Done`: exactly one `Done` per receiver on a lossless wire, a lost
//!    `Done` recovered by the keep-alive announce within one
//!    `announce_interval`, a lost repair round recovered at the first
//!    heartbeat, and a counted feedback gate at the paper's R = 64,
//!    k = 7, p = 0.01.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{feedback_in, np_cfg, payload, rt, run_fanout};
use parity_multicast::mux::{Mux, MuxConfig, SessionOutcome, VirtualClock, TICK};
use parity_multicast::net::{
    ChaosPreset, FaultConfig, FaultyTransport, MemHub, Message, NetError, PollTransport, Transport,
};
use parity_multicast::obs::{Obs, Postmortem, RingRecorder};
use parity_multicast::protocol::n2::{N2Receiver, N2Sender};
use parity_multicast::protocol::runtime::RuntimeConfig;
use parity_multicast::protocol::{
    CompletionPolicy, NpConfig, NpReceiver, NpSender, ResiliencePolicy,
};

#[test]
fn mux_transcripts_are_a_pinned_function_of_the_session_set() {
    let first = common::run_pinned_farm();
    let second = common::run_pinned_farm();
    for (i, (a, b)) in first.iter().zip(&second).enumerate() {
        assert_eq!(
            a.sent, b.sent,
            "pair {i}: sender transcript not reproducible"
        );
        assert_eq!(
            a.received, b.received,
            "pair {i}: receiver transcript not reproducible"
        );
    }
    common::assert_farm_is_pinned(&first, parity_multicast::simd::backend_name());
}

/// Whether any endpoint of `farm` sent a message `pred` accepts.
fn farm_sent(farm: &[common::LossyPair], pred: impl Fn(&Message) -> bool) -> bool {
    farm.iter()
        .flat_map(|pair| &pair.transcripts)
        .flat_map(|t| &t.sent)
        .filter_map(|raw| Message::decode(raw.clone()).ok())
        .any(|m| pred(&m))
}

#[test]
fn lossy_np_farm_is_pinned() {
    let farm = common::run_lossy_np_farm();
    let again = common::run_lossy_np_farm();
    for (i, (a, b)) in farm.iter().zip(&again).enumerate() {
        assert_eq!(a.digests(), b.digests(), "pair {i} not reproducible");
    }
    // Loss reached the NAK path: receivers NAKed and repair rounds went out.
    assert!(farm_sent(&farm, |m| matches!(m, Message::Nak { .. })));
    assert!(farm_sent(&farm, |m| matches!(
        m,
        Message::Poll { round: 2.., .. }
    )));
    common::assert_lossy_farm_is_pinned(&farm, &common::LOSSY_NP, "NP");
}

#[test]
fn lossy_n2_farm_is_pinned() {
    let (farm, lost_round) = common::run_lossy_n2_farm();
    assert!(
        lost_round,
        "pair 0's first receiver lost a whole repair round"
    );
    let (again, _) = common::run_lossy_n2_farm();
    for (i, (a, b)) in farm.iter().zip(&again).enumerate() {
        assert_eq!(a.digests(), b.digests(), "pair {i} not reproducible");
    }
    assert!(farm_sent(&farm, |m| matches!(m, Message::NakPacket { .. })));
    common::assert_lossy_farm_is_pinned(&farm, &common::LOSSY_N2, "N2");
}

#[test]
fn farm_of_256_sessions_completes_on_one_driver_thread() {
    const PAIRS: u32 = 128; // 256 sessions

    let mut mux = Mux::new(MuxConfig::default(), VirtualClock::new());
    let mut tokens = Vec::new();
    for i in 0..PAIRS {
        let hub = MemHub::new();
        let data = payload(400 + 13 * i as usize);
        let s_tok = mux.add_sender(
            NpSender::new(i, &data, np_cfg()).expect("valid config"),
            hub.join(),
            rt(),
        );
        let r_tok = mux.add_receiver(
            NpReceiver::new(1000 + i, i, 0.001, i as u64),
            hub.join(),
            rt(),
        );
        tokens.push((s_tok, r_tok, data));
    }
    let outcomes = mux.run();
    assert_eq!(outcomes.len(), 2 * PAIRS as usize);
    assert!(mux.is_empty());
    for (tok, out) in &outcomes {
        assert!(out.is_ok(), "session {tok:?} failed: {:?}", out.err());
    }
    for (_, r_tok, data) in &tokens {
        let rep = outcomes
            .iter()
            .find_map(|(t, o)| (t == r_tok).then(|| o.receiver_report().expect("receiver ok")))
            .expect("receiver outcome");
        assert_eq!(&rep.data, data, "farm receiver bytes");
    }
}

/// Drive one clean NP pair under a virtual-clock mux, optionally next to a
/// Heavy-preset hostile pair, and return the clean receiver's session
/// elapsed (pure virtual time).
fn clean_session_elapsed(with_hostile: bool) -> Duration {
    let mut mux: Mux<Box<dyn PollTransport>, VirtualClock> =
        Mux::new(MuxConfig::default(), VirtualClock::new());
    let hub = MemHub::new();
    let data = payload(2000);
    mux.add_sender(
        NpSender::new(7, &data, np_cfg()).expect("valid config"),
        Box::new(hub.join()),
        rt(),
    );
    let r_tok = mux.add_receiver(NpReceiver::new(70, 7, 0.001, 9), Box::new(hub.join()), rt());
    if with_hostile {
        // A separate session whose both endpoints sit behind Heavy fault
        // injection: sustained drops, duplicates, reordering, corruption,
        // truncation and garbage — the worst neighbor the chaos grid has.
        let hostile = MemHub::new();
        let cfg = ChaosPreset::Heavy.fault_config();
        let hostile_data = payload(2000);
        mux.add_sender(
            NpSender::new(8, &hostile_data, np_cfg()).expect("valid config"),
            Box::new(FaultyTransport::new(hostile.join(), cfg, 0xBAD_CAFE)),
            rt(),
        );
        mux.add_receiver(
            NpReceiver::new(80, 8, 0.001, 0xBAD_CAFE),
            Box::new(FaultyTransport::new(hostile.join(), cfg, 0xBAD_CAFE ^ 7)),
            rt(),
        );
    }
    let outcomes = mux.run();
    outcomes
        .iter()
        .find_map(|(t, o)| (*t == r_tok).then(|| o.receiver_report().expect("clean receiver ok")))
        .expect("clean receiver outcome")
        .elapsed
}

#[test]
fn heavy_hostile_neighbor_delays_clean_session_by_at_most_one_tick() {
    let solo = clean_session_elapsed(false);
    let contended = clean_session_elapsed(true);
    let tick = TICK;
    let diff = contended.abs_diff(solo);
    assert!(
        diff <= tick,
        "hostile neighbor moved the clean session by {diff:?} (solo {solo:?}, contended {contended:?}, tick {tick:?})"
    );
}

#[test]
fn concurrent_chaos_sessions_uphold_the_degradation_trichotomy() {
    // The chaos-grid posture, multiplexed: several faulted sessions share
    // one driver thread. Every session must end in clean completion with
    // byte-identical data, a typed degraded report, or a typed error —
    // never a panic, never a hang (the virtual clock jumps stalls away).
    let rt = RuntimeConfig {
        resilience: ResiliencePolicy {
            eviction_timeout: Some(Duration::from_millis(500)),
            ..ResiliencePolicy::default()
        },
        ..rt()
    };
    let mut mux: Mux<Box<dyn PollTransport>, VirtualClock> =
        Mux::new(MuxConfig::default(), VirtualClock::new());
    let presets = [
        ChaosPreset::Light,
        ChaosPreset::Heavy,
        ChaosPreset::Light,
        ChaosPreset::Heavy,
        ChaosPreset::Light,
        ChaosPreset::Heavy,
    ];
    let mut receivers = Vec::new();
    for (i, preset) in presets.iter().enumerate() {
        let i = i as u32;
        let hub = MemHub::new();
        let cfg = preset.fault_config();
        let seed = 0xC4A0_5000 + i as u64;
        let data = payload(1500 + 200 * i as usize);
        mux.add_sender(
            NpSender::new(i, &data, np_cfg()).expect("valid config"),
            Box::new(FaultyTransport::new(hub.join(), cfg, seed)),
            rt,
        );
        let r_tok = mux.add_receiver(
            NpReceiver::new(100 + i, i, 0.001, seed ^ 1),
            Box::new(FaultyTransport::new(hub.join(), cfg, seed ^ 2)),
            rt,
        );
        receivers.push((r_tok, data));
    }
    let outcomes = mux.run();
    assert_eq!(outcomes.len(), 2 * presets.len());
    for (tok, out) in &outcomes {
        match out {
            // Clean or degraded completion: a receiver that claims success
            // must hold byte-identical data.
            SessionOutcome::Receiver(Ok(rep)) => {
                let (_, data) = receivers
                    .iter()
                    .find(|(t, _)| t == tok)
                    .expect("known receiver");
                assert_eq!(&rep.data, data, "receiver {tok:?} returned damaged data");
            }
            SessionOutcome::Sender(Ok(rep)) => {
                assert!(
                    rep.evicted > 0 || !rep.completed.is_empty() || rep.counters.data_sent > 0,
                    "sender {tok:?} claims success without doing work"
                );
            }
            // Typed failure is an acceptable trichotomy outcome under
            // Heavy chaos; a panic or hang is not (reaching here at all
            // proves neither happened).
            SessionOutcome::Sender(Err(_)) | SessionOutcome::Receiver(Err(_)) => {}
            // Shedding requires an overload policy; none is configured.
            SessionOutcome::Shed(rep) => {
                panic!("no overload policy configured, yet {tok:?} was shed: {rep:?}")
            }
        }
    }
}

/// Build the chaos farm of `concurrent_chaos_sessions...` on `mux`, its
/// machines tracing to `obs`.
fn add_chaos_farm(mux: &mut Mux<Box<dyn PollTransport>, VirtualClock>, obs: &Obs) -> usize {
    let rt = RuntimeConfig {
        resilience: ResiliencePolicy {
            eviction_timeout: Some(Duration::from_millis(500)),
            ..ResiliencePolicy::default()
        },
        ..rt()
    };
    let presets = [
        ChaosPreset::Light,
        ChaosPreset::Heavy,
        ChaosPreset::Light,
        ChaosPreset::Heavy,
    ];
    for (i, preset) in presets.iter().enumerate() {
        let i = i as u32;
        let hub = MemHub::new();
        let cfg = preset.fault_config();
        let seed = 0xC4A0_6000 + i as u64;
        let data = payload(1500 + 200 * i as usize);
        mux.add_sender(
            NpSender::new(i, &data, np_cfg())
                .expect("valid config")
                .with_obs(obs.clone()),
            Box::new(FaultyTransport::new(hub.join(), cfg, seed)),
            rt,
        );
        mux.add_receiver(
            NpReceiver::new(100 + i, i, 0.001, seed ^ 1).with_obs(obs.clone()),
            Box::new(FaultyTransport::new(hub.join(), cfg, seed ^ 2)),
            rt,
        );
    }

    // A guaranteed-degraded session: two receivers announced, one joins —
    // the sender completes for the live one and evicts the ghost.
    let hub = MemHub::new();
    let mut cfg = np_cfg();
    cfg.completion = CompletionPolicy::KnownReceivers(2);
    mux.add_sender(
        NpSender::new(50, &payload(2000), cfg)
            .expect("valid config")
            .with_obs(obs.clone()),
        Box::new(hub.join()),
        rt,
    );
    mux.add_receiver(
        NpReceiver::new(150, 50, 0.001, 77).with_obs(obs.clone()),
        Box::new(hub.join()),
        rt,
    );

    // A guaranteed-errored session: a sender alone on its hub stalls out
    // (nobody ever joins, so it cannot even degrade).
    let hub = MemHub::new();
    mux.add_sender(
        NpSender::new(51, &payload(1000), np_cfg())
            .expect("valid config")
            .with_obs(obs.clone()),
        Box::new(hub.join()),
        rt,
    );

    2 * presets.len() + 3
}

#[test]
fn mux_postmortems_fire_exactly_once_per_degraded_session() {
    let cfg = MuxConfig {
        flight_capacity: Some(256),
        ..MuxConfig::default()
    };
    let mut mux: Mux<Box<dyn PollTransport>, VirtualClock> = Mux::new(cfg, VirtualClock::new());
    let sessions = add_chaos_farm(&mut mux, &Obs::null());
    let outcomes = mux.run();
    assert_eq!(outcomes.len(), sessions);
    let ledger = mux.take_postmortems();

    let mut expected_ledger = 0usize;
    let mut yielded = 0usize;
    for (tok, out) in &outcomes {
        match out {
            SessionOutcome::Sender(Ok(rep)) => {
                // Degraded rides the report; clean carries nothing.
                assert_eq!(
                    rep.postmortem.is_some(),
                    rep.is_degraded(),
                    "sender {tok:?}: postmortem iff degraded"
                );
                if let Some(pm) = &rep.postmortem {
                    assert_eq!(pm.outcome, "degraded");
                    yielded += 1;
                    Postmortem::validate(
                        &serde_json::from_str(&pm.to_string_json()).expect("parses"),
                    )
                    .expect("schema-valid sender postmortem");
                }
                assert!(
                    !ledger.iter().any(|(t, _)| t == tok),
                    "sender {tok:?}: a reported session must not also be ledgered"
                );
            }
            SessionOutcome::Receiver(Ok(_)) => {
                assert!(
                    !ledger.iter().any(|(t, _)| t == tok),
                    "receiver {tok:?}: clean sessions yield no postmortem"
                );
            }
            SessionOutcome::Sender(Err(_)) | SessionOutcome::Receiver(Err(_)) => {
                expected_ledger += 1;
                let entries: Vec<_> = ledger.iter().filter(|(t, _)| t == tok).collect();
                assert_eq!(
                    entries.len(),
                    1,
                    "{tok:?}: exactly one ledger postmortem per errored session"
                );
                let (_, pm) = entries[0];
                yielded += 1;
                Postmortem::validate(&serde_json::from_str(&pm.to_string_json()).expect("parses"))
                    .expect("schema-valid ledger postmortem");
            }
            SessionOutcome::Shed(rep) => {
                panic!("no overload policy configured, yet {tok:?} was shed: {rep:?}")
            }
        }
    }
    assert_eq!(ledger.len(), expected_ledger, "no orphan ledger entries");
    assert!(
        yielded > 0,
        "the chaos farm must produce at least one degraded or errored session"
    );
}

#[test]
fn chaos_farm_trace_and_outcomes_are_deterministic_across_runs() {
    let run = || {
        let cfg = MuxConfig {
            flight_capacity: Some(128),
            ..MuxConfig::default()
        };
        let ring = Arc::new(RingRecorder::new(1 << 20));
        let obs = Obs::new(ring.clone());
        let mut mux: Mux<Box<dyn PollTransport>, VirtualClock> =
            Mux::new(cfg, VirtualClock::new()).with_obs(obs.clone());
        let sessions = add_chaos_farm(&mut mux, &obs);
        let outcomes = mux.run();
        assert_eq!(outcomes.len(), sessions);
        let events = ring.events();
        assert_eq!(ring.evicted(), 0, "the ring must hold the whole trace");
        for name in ["data_sent", "nak_sent", "mux_session_added"] {
            assert!(
                events.iter().any(|(_, e)| e.name() == name),
                "the trace must cover machines and driver: no {name}"
            );
        }
        // One line per event: its JSON, then the bits of every number in
        // it, since the JSON text writes a non-finite f64 as `null`.
        let mut trace = String::new();
        for (t, event) in events {
            let json = event.to_json(t);
            trace.push_str(&serde_json::to_string(&json).expect("render event"));
            if let serde_json::Value::Object(fields) = &json {
                for (_, value) in fields {
                    if let serde_json::Value::Number(n) = value {
                        trace.push_str(&format!(" {:016x}", n.to_bits()));
                    }
                }
            }
            trace.push('\n');
        }
        (trace, format!("{outcomes:#?}"))
    };
    let (first_trace, first_outcomes) = run();
    let (second_trace, second_outcomes) = run();
    assert_eq!(
        first_trace, second_trace,
        "event trace must be run-deterministic"
    );
    assert_eq!(
        first_outcomes, second_outcomes,
        "session outcomes must be run-deterministic"
    );
}

// ------------------------------------------- feedback proportional to need

fn fanout_cfg(receivers: u32) -> NpConfig {
    NpConfig {
        completion: CompletionPolicy::KnownReceivers(receivers),
        ..np_cfg()
    }
}

#[test]
fn lossless_sessions_put_exactly_one_done_per_receiver_on_the_wire() {
    const R: u32 = 16;
    let data = payload(3 * 8 * 128 + 500); // three full groups and a short one
    let (np, np_log) = run_fanout(
        NpSender::new(1, &data, fanout_cfg(R)).expect("valid config"),
        (0..R)
            .map(|i| NpReceiver::new(i, 1, 0.001, i as u64))
            .collect(),
        &data,
        |ep| ep,
        |ep, _| ep,
    );
    let (n2, n2_log) = run_fanout(
        N2Sender::new(2, &data, fanout_cfg(R)).expect("valid config"),
        (0..R)
            .map(|i| N2Receiver::new(i, 2, 0.001, i as u64))
            .collect(),
        &data,
        |ep| ep,
        |ep, _| ep,
    );
    for (proto, report, log) in [("NP", &np, &np_log), ("N2", &n2, &n2_log)] {
        // Every later poll (one per group) used to draw a fresh Done from
        // every receiver already complete.
        assert_eq!(feedback_in(log), (0, R as usize), "{proto}: (NAKs, Dones)");
        assert_eq!(report.completed.len(), R as usize, "{proto}");
        assert!(!report.is_degraded(), "{proto}");
    }
}

/// Loses every datagram `lose` picks out of what reaches the endpoint, as
/// a lossy downlink might.
struct DropWhere<T, F> {
    inner: T,
    lose: F,
}

impl<T, F: FnMut(&Message) -> bool> DropWhere<T, F> {
    fn filter(
        &mut self,
        mut recv: impl FnMut(&mut T) -> Result<Option<Message>, NetError>,
    ) -> Result<Option<Message>, NetError> {
        loop {
            match recv(&mut self.inner)? {
                Some(msg) if (self.lose)(&msg) => continue,
                other => return Ok(other),
            }
        }
    }
}

impl<T: Transport, F: FnMut(&Message) -> bool + Send> Transport for DropWhere<T, F> {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        self.inner.send(msg)
    }
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, NetError> {
        self.filter(|t| t.recv_timeout(timeout))
    }
}

impl<T: PollTransport, F: FnMut(&Message) -> bool + Send> PollTransport for DropWhere<T, F> {
    fn poll_recv(&mut self) -> Result<Option<Message>, NetError> {
        self.filter(T::poll_recv)
    }
}

#[test]
fn a_lost_done_is_recovered_by_the_keepalive_announce_within_one_interval() {
    const R: u32 = 16;
    let data = payload(3 * 8 * 128); // three full groups

    // Loses the first `Done` of every receiver, as a sender's downlink
    // might.
    let lossy_downlink = |ep| {
        let mut dropped = std::collections::BTreeSet::new();
        DropWhere {
            inner: ep,
            lose: move |m: &Message| matches!(m, Message::Done { receiver, .. } if dropped.insert(*receiver)),
        }
    };
    let (np, np_log) = run_fanout(
        NpSender::new(1, &data, fanout_cfg(R)).expect("valid config"),
        (0..R)
            .map(|i| NpReceiver::new(i, 1, 0.001, i as u64))
            .collect(),
        &data,
        lossy_downlink,
        |ep, _| ep,
    );
    let (n2, n2_log) = run_fanout(
        N2Sender::new(2, &data, fanout_cfg(R)).expect("valid config"),
        (0..R)
            .map(|i| N2Receiver::new(i, 2, 0.001, i as u64))
            .collect(),
        &data,
        lossy_downlink,
        |ep, _| ep,
    );
    let cfg = fanout_cfg(R);
    let tick = TICK;
    for (proto, report, log) in [("NP", &np, &np_log), ("N2", &n2, &n2_log)] {
        assert_eq!(
            report.completed.len(),
            R as usize,
            "{proto}: everyone counted"
        );
        assert!(!report.is_degraded(), "{proto}: nobody evicted");
        // Only the second Done of each receiver got through the filter:
        // one keep-alive volley, not one per poll.
        assert_eq!(feedback_in(log), (0, R as usize), "{proto}: (NAKs, Dones)");
        // The wire is lossless and paced one datagram per `packet_spacing`
        // from t = 0, so every receiver completed when the last data
        // packet went out.
        let last_data = log
            .sent
            .iter()
            .rposition(|raw| matches!(Message::decode(raw.clone()), Ok(Message::Packet { .. })))
            .expect("data was sent");
        let last_completion = rt().packet_spacing * last_data as u32;
        let bound = last_completion + Duration::from_secs_f64(cfg.announce_interval) + tick;
        assert!(
            report.elapsed <= bound,
            "{proto}: ended at {:?}, bound {bound:?}",
            report.elapsed
        );
    }
}

#[test]
fn a_lost_repair_round_is_recovered_at_the_first_heartbeat() {
    // One receiver loses a data packet of the last group, then the whole
    // repair round that answers its NAK: the parity and the round-2 poll.
    // Only the keep-alive announce can make it ask again, with a NAK that
    // echoes round 1, and the sender serves that NAK once the group's NAK
    // slots are past instead of holding it off for `round_timeout`.
    const LAST: u32 = 2;
    let cfg = fanout_cfg(1);
    let data = payload(3 * cfg.k * cfg.payload_len); // three full groups
    let k = cfg.k as u16;
    let (report, log) = run_fanout(
        NpSender::new(1, &data, cfg.clone()).expect("valid config"),
        vec![NpReceiver::new(0, 1, cfg.nak_slot, 0)],
        &data,
        |ep| ep,
        |ep, _| DropWhere {
            inner: ep,
            lose: move |m: &Message| match *m {
                // Data packet 0, then round 2's one parity (fresh parities
                // are numbered from k).
                Message::Packet { group, index, .. } => group == LAST && (index == 0 || index == k),
                Message::Poll { group, round, .. } => group == LAST && round == 2,
                _ => false,
            },
        },
    );
    assert_eq!(report.completed, vec![0]);
    assert!(!report.is_degraded());
    let naks: Vec<u16> = log
        .received_messages()
        .filter_map(|m| match m {
            Message::Nak { group, round, .. } => {
                assert_eq!(group, LAST, "only the last group lost anything");
                Some(round)
            }
            _ => None,
        })
        .collect();
    assert_eq!(naks, [1, 1], "the round-1 NAK and one recovery NAK");
    // Sends go out one per `packet_spacing` from t = 0 until the last data
    // packet: without loss, the receiver completes there. The announce
    // before the last group restarts the keep-alive interval, so the
    // heartbeat comes within one interval of it, and the recovery NAK in
    // the first of its slots; the window covers that slot and the repair.
    let last_data = log
        .sent
        .iter()
        .rposition(|raw| {
            matches!(Message::decode(raw.clone()), Ok(Message::Packet { index, k, .. }) if index < k)
        })
        .expect("data was sent");
    let lossless = rt().packet_spacing * last_data as u32;
    let window = Duration::from_secs_f64((f64::from(k) + 1.0) * cfg.nak_slot);
    let interval = Duration::from_secs_f64(cfg.announce_interval);
    let bound = lossless + interval + window + TICK;
    assert!(
        report.elapsed <= bound,
        "ended at {:?}, bound {bound:?}",
        report.elapsed
    );
}

#[test]
fn receiver_feedback_at_the_papers_shape_is_a_pinned_count() {
    // The paper's many-receiver case: NP, k = 7, R = 64, p = 0.01 on every
    // receiver's downlink, 32 groups. Under the virtual clock the count is
    // a constant of the code and the seeds — pinned exactly, so one extra
    // feedback datagram per session is a test failure, not noise.
    const R: u32 = 64;
    const GROUPS: usize = 32;
    let mut cfg = NpConfig::small(CompletionPolicy::KnownReceivers(R));
    cfg.payload_len = 32;
    let data = payload(GROUPS * cfg.k * cfg.payload_len);
    let nak_slot = cfg.nak_slot;
    let (report, log) = run_fanout(
        NpSender::new(64, &data, cfg).expect("valid config"),
        (0..R)
            .map(|i| NpReceiver::new(i, 64, nak_slot, 0xF00D + i as u64))
            .collect(),
        &data,
        |ep| ep,
        |ep, i| FaultyTransport::new(ep, FaultConfig::drop_only(0.01), 0x5EED_0000 + i),
    );
    assert_eq!(report.completed.len(), R as usize);
    assert!(!report.is_degraded());
    let (naks, dones) = feedback_in(&log);
    assert_eq!(
        dones, R as usize,
        "one Done per receiver, no reminder volley"
    );
    assert!(
        naks + dones <= R as usize + 3 * GROUPS,
        "feedback must stay proportional to need: {naks} NAKs + {dones} Dones"
    );
    assert_eq!((naks, dones), (32, 64), "pinned for these seeds");
}
