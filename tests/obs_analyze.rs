//! `obs-analyze` end-to-end: a deterministic 16-receiver NP session on a
//! virtual-clock mux produces a JSONL trace whose *measured* E\[M\]
//! (transmissions per distinct data packet) lands within 5% of the
//! `pm-analysis` analytical prediction at the same `(k, h, R, p)` — the
//! paper's Figure-4 claim recovered from a live trace rather than the
//! simulator. The trace is also written to `target/obs_smoke.jsonl` so CI
//! can re-run the comparison through the `obs-analyze` binary itself.

mod common;

use std::sync::Arc;

use parity_multicast::analysis::{integrated, Population};
use parity_multicast::mux::VirtualClock;
use parity_multicast::net::{FaultConfig, FaultyTransport, MemHub, PollTransport};
use parity_multicast::obs::{analyze_trace, Event, Obs, RingRecorder};
use parity_multicast::protocol::{CompletionPolicy, NpConfig, NpReceiver, NpSender};

const SESSION: u32 = 0xE16;
const RECEIVERS: usize = 16;
const K: usize = 8;
const H: usize = 40;
const GROUPS: usize = 300;
const PAYLOAD: usize = 32;
const LOSS_P: f64 = 0.03;

/// Run the deterministic 16-receiver session and return the trace as
/// `(t, event)` pairs, including a leading `session_config`.
fn traced_session() -> Vec<(f64, Event)> {
    let ring = Arc::new(RingRecorder::new(1 << 18));
    let obs = Obs::new(ring.clone());
    obs.emit(0.0, || Event::SessionConfig {
        session: SESSION,
        k: K as u32,
        h: H as u32,
        receivers: RECEIVERS as u32,
        loss: LOSS_P,
        backend: pm_simd::backend_name(),
    });

    let data: Vec<u8> = (0..GROUPS * K * PAYLOAD)
        .map(|i| (i.wrapping_mul(2654435761) >> 5) as u8)
        .collect();
    let mut cfg = NpConfig::small(CompletionPolicy::KnownReceivers(RECEIVERS as u32));
    cfg.k = K;
    cfg.h = H;
    cfg.payload_len = PAYLOAD;
    cfg.nak_slot = 0.002;

    let sender = NpSender::new(SESSION, &data, cfg)
        .expect("valid config")
        .with_obs(obs.clone());
    let hub = MemHub::new();
    let mut sender_tp = hub.join();
    let mut tps: Vec<_> = (0..RECEIVERS as u64)
        .map(|id| FaultyTransport::new(hub.join(), FaultConfig::drop_only(LOSS_P), 0xA11CE + id))
        .collect();
    let (sent, reports) = common::run_session(
        VirtualClock::new(),
        common::rt(),
        // The mux's own lifecycle events are keyed by slot, which the
        // analyzer would read as 17 more sessions; the machines' suffice.
        &Obs::null(),
        (sender, &mut sender_tp as &mut dyn PollTransport),
        tps.iter_mut().zip(0..).map(|(tp, id)| {
            let m = NpReceiver::new(id, SESSION, 0.002, id as u64).with_obs(obs.clone());
            (m, tp as &mut dyn PollTransport)
        }),
    );
    sent.expect("session completes");
    assert!(
        reports.iter().all(|r| r.is_ok()),
        "all receivers must finish"
    );
    assert_eq!(ring.evicted(), 0, "ring must hold the complete trace");
    ring.events()
}

fn render_jsonl(events: &[(f64, Event)]) -> String {
    let mut out = String::new();
    for (t, e) in events {
        let line = serde_json::to_string(&e.to_json(*t)).expect("render event");
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[test]
fn measured_em_matches_analysis_within_5_percent() {
    let events = traced_session();
    let text = render_jsonl(&events);
    // Leave the trace behind for the CI `obs-analyze` smoke run.
    std::fs::create_dir_all("target").expect("target dir");
    std::fs::write("target/obs_smoke.jsonl", &text).expect("write smoke trace");

    let ta = analyze_trace(&text).expect("trace validates");
    let (id, sess) = ta.sole_session().expect("exactly one session");
    assert_eq!(id, SESSION);
    assert_eq!(sess.data_packets, (GROUPS * K) as u64);
    assert!(sess.completed, "trace must show a completed session");

    let cfg = sess.config.clone().expect("session_config recorded");
    assert_eq!((cfg.k, cfg.h, cfg.receivers), (K as u32, H as u32, 16));
    assert_eq!(cfg.backend.as_deref(), Some(pm_simd::backend_name()));

    let measured = sess.measured_em().expect("measurable E[M]");
    let pop = Population::homogeneous(LOSS_P, RECEIVERS as u64);
    let analytic = integrated::finite(K, H, 0, &pop);
    let dev = (measured - analytic).abs() / analytic;
    assert!(
        dev < 0.05,
        "measured E[M] {measured:.4} deviates {:.1}% from analytic {analytic:.4}",
        dev * 100.0
    );

    // Everyone finished under homogeneous loss: fairness near 1.
    let fairness = sess.fairness().expect("fairness defined");
    assert!(fairness > 0.9, "Jain index {fairness:.3} unexpectedly low");
}
