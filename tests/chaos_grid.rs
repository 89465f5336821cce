//! The deterministic chaos grid: full NP sessions under every cell of
//! {corruption} × {blackout} × {dup/reorder} × {receiver death}, pinned to
//! the degradation trichotomy — each session must end in
//!
//! 1. clean completion with byte-identical data at every receiver, or
//! 2. a typed degraded report (responsive population completed, silent
//!    stragglers evicted and counted), or
//! 3. a typed [`ProtocolError`],
//!
//! and never a panic or an unbounded hang. The grid is seeded: a failure
//! reproduces bit-for-bit from the same base seed.
//!
//! Each scenario's endpoints share one wall-clock mux (blackout windows
//! are in the fault injectors' wall time) with per-session flight rings,
//! pinning the postmortem contract alongside the trichotomy: a
//! schema-valid postmortem exactly when a session ends degraded or
//! errored, never for a clean one.

use std::time::{Duration, Instant};

use parity_multicast::mux::{Mux, MuxConfig, SessionOutcome, WallClock};
use parity_multicast::net::mem::MemEndpoint;
use parity_multicast::net::{scenario_grid, FaultConfig, FaultyTransport, MemHub};
use parity_multicast::obs::Postmortem;
use parity_multicast::protocol::runtime::{ReceiverReport, RuntimeConfig, SessionReport};
use parity_multicast::protocol::{
    CompletionPolicy, NpConfig, NpReceiver, NpSender, ProtocolError, ResiliencePolicy,
};

/// Events each session's bounded flight ring retains.
const FLIGHT_CAPACITY: usize = 256;

/// A verdict with the postmortem the mux froze for it, if any.
type Verdict<R> = (Result<R, ProtocolError>, Option<Postmortem>);

/// Run one sender and its receivers — `(id, fault, seed)` each — on one
/// wall-clock mux with flight recording on. An errored session's
/// postmortem comes from the mux's ledger, a degraded sender's rides its
/// report; either way it is returned beside the verdict.
fn run_recorded(
    hub: &MemHub,
    sender: NpSender,
    sender_fault: (FaultConfig, u64),
    receivers: impl IntoIterator<Item = (u32, FaultConfig, u64)>,
    session: u32,
) -> (Verdict<SessionReport>, Vec<Verdict<ReceiverReport>>) {
    let cfg = MuxConfig {
        flight_capacity: Some(FLIGHT_CAPACITY),
        ..MuxConfig::default()
    };
    let mut mux: Mux<FaultyTransport<MemEndpoint>, WallClock> = Mux::new(cfg, WallClock::new());
    let r_toks: Vec<_> = receivers
        .into_iter()
        .map(|(id, fault, seed)| {
            mux.add_receiver(
                NpReceiver::new(id, session, 0.001, seed),
                FaultyTransport::new(hub.join(), fault, seed),
                rt(),
            )
        })
        .collect();
    let (fault, seed) = sender_fault;
    let s_tok = mux.add_sender(sender, FaultyTransport::new(hub.join(), fault, seed), rt());
    let mut outcomes = mux.run();
    let mut ledger = mux.take_postmortems();
    let mut take = |tok| {
        let at = outcomes.iter().position(|(t, _)| *t == tok);
        let outcome = outcomes.swap_remove(at.expect("one outcome per session")).1;
        let pm = ledger.iter().position(|(t, _)| *t == tok);
        (outcome, pm.map(|at| ledger.swap_remove(at).1))
    };
    let sender = match take(s_tok) {
        (SessionOutcome::Sender(verdict), ledgered) => {
            let attached = verdict.as_ref().ok().and_then(|r| r.postmortem.clone());
            (verdict, ledgered.or(attached))
        }
        (other, _) => panic!("sender slot ended as {other:?}"),
    };
    let receivers = r_toks
        .into_iter()
        .map(|tok| match take(tok) {
            (SessionOutcome::Receiver(verdict), pm) => (verdict, pm),
            (other, _) => panic!("receiver slot ended as {other:?}"),
        })
        .collect();
    (sender, receivers)
}

/// A postmortem must exist exactly when the outcome is degraded/errored,
/// and its JSON rendering must satisfy the `pm.postmortem.v1` schema.
fn check_postmortem(scenario: &str, who: &str, pm: &Option<Postmortem>, wants: bool) {
    assert_eq!(
        pm.is_some(),
        wants,
        "{scenario}: {who} postmortem presence must match the outcome \
         (got {:?}, wanted {wants})",
        pm.is_some(),
    );
    if let Some(pm) = pm {
        let rendered = serde_json::from_str(&pm.to_string_json()).expect("postmortem parses");
        Postmortem::validate(&rendered)
            .unwrap_or_else(|e| panic!("{scenario}: {who} postmortem invalid: {e}"));
    }
}

/// Announced population per scenario; dead receivers never join.
const RECEIVERS: u32 = 3;

fn config() -> NpConfig {
    let mut c = NpConfig::small(CompletionPolicy::KnownReceivers(RECEIVERS));
    c.k = 8;
    c.h = 40;
    c.payload_len = 128;
    c.nak_slot = 0.001;
    c
}

fn rt() -> RuntimeConfig {
    RuntimeConfig {
        packet_spacing: Duration::from_micros(50),
        // The hang backstop: every driver gives up after this much silence.
        stall_timeout: Duration::from_secs(6),
        complete_linger: Duration::from_millis(250),
        resilience: ResiliencePolicy {
            // ~10 announce intervals of receiver silence before the sender
            // completes for the responsive population.
            eviction_timeout: Some(Duration::from_millis(500)),
            ..ResiliencePolicy::default()
        },
    }
}

fn payload(n: usize) -> Vec<u8> {
    (0..n)
        .map(|i| (i.wrapping_mul(2654435761) >> 11) as u8)
        .collect()
}

#[test]
fn chaos_grid_upholds_the_degradation_trichotomy() {
    let data = payload(6000);
    for scenario in scenario_grid(0xC4A05) {
        #[expect(
            clippy::disallowed_methods,
            reason = "bounds the wall time of a WallClock mux over a faulty MemHub"
        )]
        let started = Instant::now();
        let hub = MemHub::new();
        let session = 0xC4A0;
        let live = RECEIVERS - scenario.dead_receivers;

        let sender = NpSender::new(session, &data, config()).expect("valid config");
        // A panicking driver fails the test — arm zero of the trichotomy is
        // "no panics, ever".
        let ((sender_verdict, sender_pm), receiver_verdicts) = run_recorded(
            &hub,
            sender,
            (scenario.sender_fault, scenario.seed),
            (0..live).map(|id| (id, scenario.receiver_fault, scenario.seed ^ (id as u64 + 1))),
            session,
        );

        // Postmortem contract, sender side: one exactly when the report is
        // degraded (attached to it) or the session errored (ledgered).
        let sender_degraded = match &sender_verdict {
            Ok(report) => report.is_degraded(),
            Err(_) => true,
        };
        check_postmortem(&scenario.name, "sender", &sender_pm, sender_degraded);
        if let Ok(report) = &sender_verdict {
            assert_eq!(
                report.postmortem.is_some(),
                report.is_degraded(),
                "{}: the report carries the postmortem iff degraded",
                scenario.name
            );
        }

        // Arm three of the trichotomy needs no assert: an Err is a typed
        // ProtocolError by construction, and getting here proved no panic.
        if let Ok(report) = &sender_verdict {
            // Complete or degraded-complete: everyone announced is
            // accounted for, either finished or explicitly evicted.
            assert_eq!(
                report.completed.len() as u32 + report.evicted,
                RECEIVERS,
                "{}: completed {:?} + evicted {} must cover the population",
                scenario.name,
                report.completed,
                report.evicted,
            );
            if scenario.dead_receivers > 0 {
                assert!(
                    report.is_degraded(),
                    "{}: dead receivers can only end in a degraded report",
                    scenario.name
                );
                assert!(
                    report.evicted >= scenario.dead_receivers,
                    "{}: at least the dead must be evicted",
                    scenario.name
                );
            }
        }

        for (id, (verdict, pm)) in receiver_verdicts.iter().enumerate() {
            // Arm one: any receiver that claims success must hold the exact
            // bytes — corruption may delay a transfer, never silently
            // damage it.
            if let Ok(report) = verdict {
                assert_eq!(
                    report.data, data,
                    "{}: receiver {id} completed with wrong bytes",
                    scenario.name
                );
            }
            // Postmortem contract, receiver side: errored sessions only.
            check_postmortem(
                &scenario.name,
                &format!("receiver {id}"),
                pm,
                verdict.is_err(),
            );
        }

        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(30),
            "{}: exceeded the wall-clock bound ({elapsed:?})",
            scenario.name
        );
    }
}

/// The acceptance scenario pinned on its own: R receivers, one dead —
/// the session completes for R-1 and reports the straggler.
#[test]
fn one_dead_receiver_completes_for_the_rest() {
    let data = payload(4000);
    let hub = MemHub::new();
    let session = 0xDEAD;
    let live = RECEIVERS - 1;

    let sender = NpSender::new(session, &data, config()).expect("valid config");
    let ((verdict, pm), receivers) = run_recorded(
        &hub,
        sender,
        (FaultConfig::none(), 0),
        (0..live).map(|id| (id, FaultConfig::none(), id as u64 + 9)),
        session,
    );
    let report = verdict.expect("degraded completion");

    assert!(report.is_degraded());
    assert_eq!(report.evicted, 1);
    assert_eq!(report.completed, vec![0, 1]);

    // The degraded session yields its postmortem, attached to the report,
    // labelled with the outcome and the session's own events.
    let pm = pm.expect("degraded session must yield a postmortem");
    assert_eq!(pm.outcome, "degraded");
    assert_eq!(pm.role, "sender");
    assert!(pm
        .events
        .iter()
        .any(|(_, e)| matches!(e, parity_multicast::obs::Event::ReceiverEvicted { .. })));
    assert_eq!(report.postmortem.as_ref(), Some(&pm));
    Postmortem::validate(&serde_json::from_str(&pm.to_string_json()).expect("parses"))
        .expect("schema-valid postmortem");

    for (r, rx_pm) in receivers {
        assert_eq!(r.expect("receiver completes").data, data);
        assert!(rx_pm.is_none(), "clean receivers yield no postmortem");
    }
}
