//! Integration tests for the overload-robust session farm:
//!
//! 1. **Real-UDP farm** — 512 sessions (256 sender/receiver pairs) share
//!    ONE UDP socket on ONE driver thread, demultiplexed by the wire
//!    session id, and every transfer completes with byte-identical data.
//! 2. **Load shedding** — under a sustained 2×+ budget overload the mux
//!    sheds deterministically: typed [`SessionOutcome::Shed`] reports
//!    with postmortems, identical victim sets across identical runs, and
//!    exact reconciliation between the driver ledger, the metrics
//!    counter, and the trace census.
//! 3. **Survivor fidelity** — sessions that are NOT shed produce wire
//!    transcripts byte-identical to an unloaded run of the same machines.
//! 4. **Admission control** — typed refusals at the session cap and past
//!    the utilization high-water mark.
//! 5. **Stale farm traffic** — datagrams from finished (or shed)
//!    sessions are counted and dropped, never resurrect state.
//! 6. **Churn soak** — generations of sessions join, leave and rejoin
//!    under chaos for over a virtual hour; memory stays bounded, every
//!    outcome lands in the tetrachotomy (clean / degraded / shed / typed
//!    error), and the shed ledger reconciles exactly.

use std::sync::{Arc, Mutex as StdMutex};
use std::time::Duration;

use parity_multicast::mux::{
    AdmissionError, Mux, MuxClock, MuxConfig, OverloadConfig, SessionOutcome, VirtualClock,
    WallClock,
};
use parity_multicast::net::{
    ChaosPreset, FarmEndpoint, FarmHub, FarmRole, FaultyTransport, MemHub, Message, PollTransport,
    TranscriptTransport,
};
use parity_multicast::obs::{analyze_trace, JsonlRecorder, MetricsRegistry, Obs, Postmortem};
use parity_multicast::protocol::runtime::RuntimeConfig;
use parity_multicast::protocol::{
    CompletionPolicy, NpConfig, NpReceiver, NpSender, ResiliencePolicy,
};

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

/// A `Write` sink the test can read back after the mux consumed the
/// recorder — the in-memory stand-in for a `--trace` file.
#[derive(Clone, Default)]
struct SharedBuf(Arc<StdMutex<Vec<u8>>>);

impl SharedBuf {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().expect("buf lock").clone()).expect("utf8 trace")
    }
}

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("buf lock").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------- farm

#[test]
fn farm_of_512_sessions_completes_over_one_udp_socket() {
    const PAIRS: u32 = 256; // 512 sessions, one socket, one thread

    let hub = FarmHub::loopback().expect("loopback farm socket");
    let mut mux: Mux<FarmEndpoint, WallClock> = Mux::new(MuxConfig::default(), WallClock::new());
    let mut receivers = Vec::new();
    for i in 0..PAIRS {
        let data = payload(220 + 4 * i as usize);
        mux.add_sender(
            NpSender::new(i, &data, np_cfg()).expect("valid config"),
            hub.endpoint(i, FarmRole::Sender).expect("sender endpoint"),
            rt(),
        );
        let r_tok = mux.add_receiver(
            NpReceiver::new(1000 + i, i, 0.001, i as u64),
            hub.endpoint(i, FarmRole::Receiver)
                .expect("receiver endpoint"),
            rt(),
        );
        receivers.push((r_tok, data));
    }
    assert_eq!(hub.len(), 2 * PAIRS as usize);

    let outcomes = mux.run();
    assert_eq!(outcomes.len(), 2 * PAIRS as usize);
    assert!(mux.is_empty());
    for (tok, out) in &outcomes {
        assert!(out.is_ok(), "farm session {tok:?} failed: {:?}", out.err());
    }
    for (r_tok, data) in &receivers {
        let rep = outcomes
            .iter()
            .find_map(|(t, o)| (t == r_tok).then(|| o.receiver_report().expect("receiver ok")))
            .expect("receiver outcome");
        assert_eq!(&rep.data, data, "farm receiver bytes");
    }
    // Session endpoints dropped with their sessions; the hub is empty and
    // never hit a fatal socket error.
    assert!(hub.is_empty(), "all endpoints deregistered");
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "polls the farm's loopback UDP socket"
)]
fn late_farm_datagrams_for_ended_sessions_are_counted_not_resurrected() {
    let hub = FarmHub::loopback().expect("loopback farm socket");
    let mut mux: Mux<FarmEndpoint, WallClock> = Mux::new(MuxConfig::default(), WallClock::new());
    let data = payload(600);
    mux.add_sender(
        NpSender::new(3, &data, np_cfg()).expect("valid config"),
        hub.endpoint(3, FarmRole::Sender).expect("sender endpoint"),
        rt(),
    );
    let r_tok = mux.add_receiver(
        NpReceiver::new(30, 3, 0.001, 9),
        hub.endpoint(3, FarmRole::Receiver)
            .expect("receiver endpoint"),
        rt(),
    );
    let outcomes = mux.run();
    let rep = outcomes
        .iter()
        .find_map(|(t, o)| (*t == r_tok).then(|| o.receiver_report().expect("receiver ok")))
        .expect("receiver outcome");
    assert_eq!(rep.data, data);
    assert!(hub.is_empty(), "session endpoints retired with the session");

    // A straggler from the finished session arrives late. Keep one live
    // endpoint as the pump that drains the shared socket.
    let mut pump = hub
        .endpoint(999, FarmRole::Receiver)
        .expect("pump endpoint");
    let before = hub.stats().unknown_session;
    hub.inject_raw(&Message::Fin { session: 3 }.encode())
        .expect("inject stale datagram");
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while hub.stats().unknown_session == before {
        assert_eq!(pump.poll_recv().expect("pump poll"), None);
        assert!(
            std::time::Instant::now() < deadline,
            "stale datagram was never counted"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
    // The retired session did not resurrect: re-registering starts clean.
    let mut fresh = hub
        .endpoint(3, FarmRole::Receiver)
        .expect("clean re-register");
    assert_eq!(fresh.poll_recv().expect("fresh poll"), None, "no backlog");
}

// ------------------------------------------------------------ shedding

/// Run `pairs` clean MemHub pairs under `overload`, tracing and metering,
/// and return (outcomes, shed signature, trace text, metrics registry,
/// shed ledger count).
fn shed_run(
    pairs: u32,
    overload: OverloadConfig,
) -> (
    Vec<SessionOutcome>,
    Vec<(u32, String)>,
    String,
    MetricsRegistry,
    u64,
) {
    let buf = SharedBuf::default();
    let reg = MetricsRegistry::new();
    let cfg = MuxConfig {
        flight_capacity: Some(128),
        overload: Some(overload),
        ..MuxConfig::default()
    };
    let mut mux: Mux<Box<dyn PollTransport>, VirtualClock> = Mux::new(cfg, VirtualClock::new())
        .with_obs(Obs::new(Arc::new(JsonlRecorder::new(buf.clone()))));
    mux.bind_metrics(&reg);
    for i in 0..pairs {
        let hub = MemHub::new();
        let data = payload(900 + 37 * i as usize);
        mux.add_sender(
            NpSender::new(i, &data, np_cfg()).expect("valid config"),
            Box::new(hub.join()),
            rt(),
        );
        mux.add_receiver(
            NpReceiver::new(1000 + i, i, 0.001, i as u64),
            Box::new(hub.join()),
            rt(),
        );
    }
    let outcomes = mux.run();
    let mut signature: Vec<(u32, String)> = outcomes
        .iter()
        .filter_map(|(_, o)| o.shed_report())
        .map(|r| (r.session, format!("{:?}", r.role)))
        .collect();
    signature.sort();
    let shed_count = mux.shed_count();
    (
        outcomes.into_iter().map(|(_, o)| o).collect(),
        signature,
        buf.text(),
        reg,
        shed_count,
    )
}

fn overload_cfg() -> OverloadConfig {
    OverloadConfig {
        high_water: 0.5,
        drive_budget: 8,
        sustain_turns: 4,
        max_shed_per_turn: 2,
        alpha: 0.5,
        seed: 0xC4A0_7000,
        ..OverloadConfig::default()
    }
}

#[test]
fn sustained_overload_sheds_with_typed_reports_and_exact_reconciliation() {
    // 40 sessions against a drive budget of 8: a 5× overload.
    let (outcomes, signature, trace, reg, shed_count) = shed_run(20, overload_cfg());

    assert_eq!(
        outcomes.len(),
        40,
        "every session yields exactly one outcome"
    );
    let shed: Vec<_> = outcomes.iter().filter(|o| o.is_shed()).collect();
    assert!(!shed.is_empty(), "a 5× overload must shed");
    assert!(
        shed.len() < outcomes.len(),
        "shedding must stop once the load clears the high-water mark"
    );
    for o in &shed {
        let rep = o.shed_report().expect("shed report");
        assert!(rep.utilization > 0.5, "shed under saturation");
        let pm = rep.postmortem.as_ref().expect("shed postmortem");
        assert_eq!(pm.outcome, "shed");
        Postmortem::validate(&serde_json::from_str(&pm.to_string_json()).expect("parses"))
            .expect("schema-valid shed postmortem");
    }
    // Tetrachotomy: everything else ended in a typed report or error.
    for o in &outcomes {
        match o {
            SessionOutcome::Sender(_) | SessionOutcome::Receiver(_) | SessionOutcome::Shed(_) => {}
        }
    }

    // Exact reconciliation: outcome count == driver ledger == metrics
    // counter == trace census == analyzer shed-session ledger.
    assert_eq!(shed.len() as u64, shed_count, "ledger");
    assert_eq!(shed_count, reg.counter("mux.shed_sessions").get(), "metric");
    let ta = analyze_trace(&trace).expect("valid trace");
    assert_eq!(
        ta.census.get("mux_session_shed").copied().unwrap_or(0),
        shed_count,
        "census"
    );
    assert_eq!(ta.shed_sessions(), shed_count, "analyzer ledger");
    assert_eq!(
        ta.incidents
            .iter()
            .filter(|i| i.kind == "mux_session_shed")
            .count() as u64,
        shed_count,
        "incident timeline"
    );
    // The episode itself is on the timeline.
    assert!(ta.incidents.iter().any(|i| i.kind == "mux_overload"));
    assert!(!signature.is_empty());
}

#[test]
fn shedding_is_deterministic_across_identical_runs() {
    let (_, first, ..) = shed_run(20, overload_cfg());
    let (_, second, ..) = shed_run(20, overload_cfg());
    assert_eq!(first, second, "identical runs must shed identical victims");
}

#[test]
fn survivors_produce_transcripts_byte_identical_to_an_unloaded_run() {
    const PAIRS: u32 = 12;

    // Both runs share this farm builder; only the overload config differs.
    let run = |overload: Option<OverloadConfig>| {
        let cfg = MuxConfig {
            flight_capacity: Some(64),
            overload,
            ..MuxConfig::default()
        };
        let mut mux: Mux<Box<dyn PollTransport>, VirtualClock> = Mux::new(cfg, VirtualClock::new());
        let mut pairs = Vec::new();
        for i in 0..PAIRS {
            let hub = MemHub::new();
            let data = payload(1100 + 53 * i as usize);
            let sender_tp = TranscriptTransport::new(hub.join());
            let receiver_tp = TranscriptTransport::new(hub.join());
            let logs = (sender_tp.transcript(), receiver_tp.transcript());
            let s_tok = mux.add_sender(
                NpSender::new(i, &data, np_cfg()).expect("valid config"),
                Box::new(sender_tp),
                rt(),
            );
            let r_tok = mux.add_receiver(
                NpReceiver::new(1000 + i, i, 0.001, i as u64),
                Box::new(receiver_tp),
                rt(),
            );
            pairs.push((s_tok, r_tok, logs));
        }
        let outcomes = mux.run();
        (outcomes, pairs)
    };

    // `drive_budget` 8 -> 4 when the mux stopped driving a receiver after
    // every datagram: the 24 sessions take about half the drive passes
    // per turn they used to, so the old budget no longer saturates (a
    // skipped drive is not counted; the unit is still passes per turn).
    // 5 is the first value that sheds again; 4 and 5 shed the same 2 pairs.
    let overload = OverloadConfig {
        high_water: 0.6,
        drive_budget: 4,
        sustain_turns: 4,
        max_shed_per_turn: 2,
        alpha: 0.5,
        seed: 0xC4A0_8000,
        ..OverloadConfig::default()
    };
    let (loaded_outcomes, loaded_pairs) = run(Some(overload));
    let (unloaded_outcomes, unloaded_pairs) = run(None);
    assert!(
        unloaded_outcomes.iter().all(|(_, o)| o.is_ok()),
        "the unloaded run is the clean baseline"
    );

    let was_shed = |tok| {
        loaded_outcomes
            .iter()
            .any(|(t, o)| *t == tok && o.is_shed())
    };
    let mut survivors = 0;
    let mut shed_pairs = 0;
    for (i, ((s_tok, r_tok, loaded_logs), (_, _, unloaded_logs))) in
        loaded_pairs.iter().zip(&unloaded_pairs).enumerate()
    {
        if was_shed(*s_tok) || was_shed(*r_tok) {
            shed_pairs += 1;
            continue;
        }
        survivors += 1;
        assert_eq!(
            *loaded_logs.0.lock(),
            *unloaded_logs.0.lock(),
            "pair {i}: surviving sender transcript diverged under load"
        );
        assert_eq!(
            *loaded_logs.1.lock(),
            *unloaded_logs.1.lock(),
            "pair {i}: surviving receiver transcript diverged under load"
        );
    }
    assert!(shed_pairs > 0, "the overload run must actually shed");
    assert!(survivors > 0, "some pairs must survive intact");
}

// ----------------------------------------------------------- admission

#[test]
fn admission_is_refused_at_the_session_cap() {
    let overload = OverloadConfig {
        max_sessions: 4,
        ..OverloadConfig::default()
    };
    let cfg = MuxConfig {
        overload: Some(overload),
        ..MuxConfig::default()
    };
    let reg = MetricsRegistry::new();
    let mut mux: Mux<Box<dyn PollTransport>, VirtualClock> = Mux::new(cfg, VirtualClock::new());
    mux.bind_metrics(&reg);
    for i in 0..2u32 {
        let hub = MemHub::new();
        let data = payload(500);
        mux.try_add_sender(
            NpSender::new(i, &data, np_cfg()).expect("valid config"),
            Box::new(hub.join()),
            rt(),
        )
        .expect("under the cap");
        mux.try_add_receiver(
            NpReceiver::new(1000 + i, i, 0.001, i as u64),
            Box::new(hub.join()),
            rt(),
        )
        .expect("under the cap");
    }
    let hub = MemHub::new();
    match mux.try_add_sender(
        NpSender::new(9, &payload(100), np_cfg()).expect("valid config"),
        Box::new(hub.join()),
        rt(),
    ) {
        Err(AdmissionError::AtCapacity { limit }) => assert_eq!(limit, 4),
        other => panic!("expected AtCapacity, got {other:?}"),
    }
    assert_eq!(reg.counter("mux.admission_rejected").get(), 1);
    // The admitted population still completes.
    let outcomes = mux.run();
    assert_eq!(outcomes.len(), 4);
    assert!(outcomes.iter().all(|(_, o)| o.is_ok()));
}

#[test]
fn admission_is_refused_past_the_high_water_mark() {
    let overload = OverloadConfig {
        high_water: 0.4,
        drive_budget: 1,
        sustain_turns: u32::MAX, // admission control only — never shed
        alpha: 1.0,
        ..OverloadConfig::default()
    };
    let cfg = MuxConfig {
        overload: Some(overload),
        ..MuxConfig::default()
    };
    let mut mux: Mux<Box<dyn PollTransport>, VirtualClock> = Mux::new(cfg, VirtualClock::new());
    let hub = MemHub::new();
    let data = payload(1500);
    mux.try_add_sender(
        NpSender::new(1, &data, np_cfg()).expect("valid config"),
        Box::new(hub.join()),
        rt(),
    )
    .expect("fresh mux admits");
    mux.try_add_receiver(NpReceiver::new(10, 1, 0.001, 4), Box::new(hub.join()), rt())
        .expect("fresh mux admits");

    // Drive until a busy turn pushes the estimate past the mark.
    let mut saturated = false;
    for _ in 0..200 {
        mux.turn_once();
        if mux.utilization() > 0.4 {
            saturated = true;
            break;
        }
    }
    assert!(saturated, "a 1-drive budget must saturate within 200 turns");
    let late = MemHub::new();
    match mux.try_add_sender(
        NpSender::new(9, &payload(100), np_cfg()).expect("valid config"),
        Box::new(late.join()),
        rt(),
    ) {
        Err(AdmissionError::Saturated { utilization }) => assert!(utilization > 0.4),
        other => panic!("expected Saturated, got {other:?}"),
    }
}

// ---------------------------------------------------------- churn soak

#[test]
fn churn_soak_over_a_virtual_hour_stays_bounded_and_reconciles() {
    // `drive_budget` 6 -> 4 for the same reason as in `survivors_...`:
    // drive-on-change roughly halves the passes a burst generation takes
    // per turn, and at 5 the bursts no longer shed.
    let overload = OverloadConfig {
        high_water: 0.7,
        max_sessions: 64,
        drive_budget: 4,
        sustain_turns: 4,
        max_shed_per_turn: 2,
        alpha: 0.5,
        seed: 0xC4A0_9000,
    };
    let cfg = MuxConfig {
        flight_capacity: Some(64),
        overload: Some(overload),
        ..MuxConfig::default()
    };
    let buf = SharedBuf::default();
    let reg = MetricsRegistry::new();
    let mut mux: Mux<Box<dyn PollTransport>, VirtualClock> = Mux::new(cfg, VirtualClock::new())
        .with_obs(Obs::new(Arc::new(JsonlRecorder::new(buf.clone()))));
    mux.bind_metrics(&reg);

    // The time burner: a sender nobody joins, with a long stall timeout —
    // each generation fast-forwards the virtual clock by two minutes.
    let burner_rt = RuntimeConfig {
        stall_timeout: Duration::from_secs(120),
        ..rt()
    };
    let chaos_rt = RuntimeConfig {
        resilience: ResiliencePolicy {
            eviction_timeout: Some(Duration::from_millis(500)),
            ..ResiliencePolicy::default()
        },
        ..rt()
    };

    let mut gen = 0u32;
    let mut clean = 0u64;
    let mut degraded = 0u64;
    let mut shed = 0u64;
    let mut errored = 0u64;
    let mut rejected = 0u64;

    while mux.clock().now() < 3600.0 {
        gen += 1;
        // Join: a wave of chaos pairs. Session ids 0..wave repeat every
        // generation — leave-and-rejoin of the same protocol sessions.
        // Every fourth generation is a burst that overloads the budget.
        let wave: u32 = if gen.is_multiple_of(4) { 12 } else { 3 };
        let mut gen_receivers = Vec::new();
        for j in 0..wave {
            let hub = MemHub::new();
            let preset = if j % 2 == 0 {
                ChaosPreset::Light
            } else {
                ChaosPreset::Heavy
            };
            let fault = preset.fault_config();
            let seed = (u64::from(gen) << 8) | u64::from(j);
            let data = payload(700 + 90 * j as usize);
            let s = mux.try_add_sender(
                NpSender::new(j, &data, np_cfg()).expect("valid config"),
                Box::new(FaultyTransport::new(hub.join(), fault, seed)),
                chaos_rt,
            );
            if s.is_err() {
                rejected += 1;
                continue;
            }
            match mux.try_add_receiver(
                NpReceiver::new(100 + j, j, 0.001, seed ^ 1),
                Box::new(FaultyTransport::new(hub.join(), fault, seed ^ 2)),
                chaos_rt,
            ) {
                Ok(r_tok) => gen_receivers.push((r_tok, data)),
                Err(_) => rejected += 1, // its sender will stall out: typed error
            }
        }
        if mux
            .try_add_sender(
                NpSender::new(50, &payload(400), np_cfg()).expect("valid config"),
                Box::new(MemHub::new().join()),
                burner_rt,
            )
            .is_err()
        {
            rejected += 1;
        }

        // Leave: drive the whole generation to completion.
        let mut turns = 0u64;
        while !mux.is_empty() {
            mux.turn_once();
            turns += 1;
            assert!(turns < 20_000_000, "generation {gen} hung");
        }
        // Bounded memory: a drained mux holds no sessions, no timers, and
        // the outcome/postmortem ledgers are emptied every generation.
        assert_eq!(mux.wheel_depth(), 0, "generation {gen}: timers leak");
        let outcomes = mux.take_outcomes();
        assert!(!outcomes.is_empty());
        let postmortems = mux.take_postmortems();
        assert!(
            postmortems.len() <= outcomes.len(),
            "generation {gen}: postmortem ledger outgrew its sessions"
        );
        for (tok, out) in &outcomes {
            match out {
                SessionOutcome::Receiver(Ok(rep)) => {
                    if let Some((_, data)) = gen_receivers.iter().find(|(t, _)| t == tok) {
                        assert_eq!(&rep.data, data, "gen {gen}: receiver bytes");
                    }
                    clean += 1;
                }
                SessionOutcome::Sender(Ok(rep)) => {
                    if rep.is_degraded() {
                        degraded += 1;
                    } else {
                        clean += 1;
                    }
                }
                SessionOutcome::Sender(Err(_)) | SessionOutcome::Receiver(Err(_)) => errored += 1,
                SessionOutcome::Shed(rep) => {
                    assert!(
                        rep.postmortem.is_some(),
                        "gen {gen}: shed without postmortem"
                    );
                    shed += 1;
                }
            }
        }
    }

    assert!(mux.clock().now() >= 3600.0, "a full virtual hour elapsed");
    assert!(gen >= 20, "the soak must churn many generations, got {gen}");
    assert!(clean > 0, "soak produced no clean sessions");
    assert!(shed > 0, "burst generations must trigger shedding");
    assert!(errored > 0, "every generation carries a stalling burner");

    // Exact reconciliation across all three ledgers, soak-wide.
    assert_eq!(shed, mux.shed_count(), "driver ledger");
    assert_eq!(shed, reg.counter("mux.shed_sessions").get(), "metric");
    assert_eq!(
        rejected,
        reg.counter("mux.admission_rejected").get(),
        "admission metric"
    );
    let ta = analyze_trace(&buf.text()).expect("soak trace validates");
    assert_eq!(
        ta.census.get("mux_session_shed").copied().unwrap_or(0),
        shed,
        "trace census"
    );
    let _ = degraded; // degradation is chaos-dependent; counted, not required
}
