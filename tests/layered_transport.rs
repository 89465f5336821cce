//! The paper's Figure 2(a) — layered FEC — live: protocol N2 (pure ARQ)
//! running unchanged over the transparent `FecTransport` sublayer, versus
//! plain N2, under identical loss. The FEC layer absorbs most packet
//! losses before the RM layer ever notices them, cutting RM
//! retransmissions exactly as Section 3.1 predicts.
//!
//! The sublayer's repair timer (`max_delay`) is wall time, so every
//! session here runs — all endpoints on one mux — over the wall clock.

mod common;

use std::time::Duration;

use parity_multicast::mux::WallClock;
use parity_multicast::net::{
    FaultConfig, FaultyTransport, FecLayerConfig, FecTransport, MemHub, PollTransport,
};
use parity_multicast::obs::Obs;
use parity_multicast::protocol::n2::{N2Receiver, N2Sender};
use parity_multicast::protocol::runtime::{ReceiverReport, RuntimeConfig, SessionReport};
use parity_multicast::protocol::{CompletionPolicy, NpConfig};

fn rt() -> RuntimeConfig {
    RuntimeConfig {
        packet_spacing: Duration::from_micros(100),
        stall_timeout: Duration::from_secs(20),
        complete_linger: Duration::from_millis(250),
        ..RuntimeConfig::default()
    }
}

fn n2_config(receivers: u32) -> NpConfig {
    let mut c = NpConfig::small(CompletionPolicy::KnownReceivers(receivers));
    c.k = 10;
    c.h = 0;
    c.payload_len = 256;
    c.nak_slot = 0.001;
    c
}

fn payload(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i.wrapping_mul(40503) >> 4) as u8).collect()
}

/// Run N2 with `receivers` lossy receivers; `fec` selects whether each
/// endpoint is wrapped in the FEC sublayer.
fn run_n2(
    data: &[u8],
    receivers: u32,
    drop: f64,
    fec: Option<(usize, usize)>,
    seed: u64,
) -> (SessionReport, Vec<ReceiverReport>) {
    let hub = MemHub::new();
    let session = 0x1A7E + seed as u32;
    let mk = |ep: parity_multicast::net::mem::MemEndpoint,
              tag: u32,
              lossy: bool,
              seed: u64|
     -> Box<dyn PollTransport> {
        // Loss lives *below* the FEC layer (it is a network property).
        let base: Box<dyn PollTransport> = if lossy {
            Box::new(FaultyTransport::new(ep, FaultConfig::drop_only(drop), seed))
        } else {
            Box::new(ep)
        };
        match fec {
            Some((k, h)) => Box::new(
                FecTransport::new(
                    base,
                    FecLayerConfig {
                        k,
                        h,
                        max_delay: Duration::from_millis(5),
                        sender_tag: tag,
                    },
                )
                .expect("valid layer geometry"),
            ),
            None => base,
        }
    };
    let mut tps: Vec<_> = (0..receivers)
        .map(|id| mk(hub.join(), 1000 + id, true, seed * 31 + id as u64))
        .collect();
    let mut sender_tp = mk(hub.join(), 1, false, 0);
    let sender = N2Sender::new(session, data, n2_config(receivers)).expect("config");
    let (sr, rrs) = common::run_session(
        WallClock::new(),
        rt(),
        &Obs::null(),
        (sender, &mut sender_tp),
        tps.iter_mut().enumerate().map(|(id, tp)| {
            let m = N2Receiver::new(id as u32, session, 0.001, id as u64);
            (m, tp as &mut dyn PollTransport)
        }),
    );
    let rrs = rrs.into_iter().map(|r| r.expect("receiver failed"));
    (sr.expect("sender failed"), rrs.collect())
}

#[test]
fn n2_over_fec_layer_delivers() {
    let data = payload(60_000);
    let (_, rrs) = run_n2(&data, 3, 0.10, Some((7, 2)), 1);
    for (id, r) in rrs.iter().enumerate() {
        assert_eq!(r.data, data, "receiver {id}");
    }
}

#[test]
fn fec_layer_cuts_rm_retransmissions() {
    // The Section 3.1 effect, on the wire: the FEC sublayer reduces the
    // residual loss the ARQ layer sees from p to q(k, n, p), so the RM
    // sender retransmits far less.
    let data = payload(100_000);
    let (receivers, drop) = (4u32, 0.08);
    let (plain, _) = run_n2(&data, receivers, drop, None, 2);
    let (layered, _) = run_n2(&data, receivers, drop, Some((7, 2)), 2);
    assert!(
        layered.counters.repairs_sent * 3 < plain.counters.repairs_sent.max(1) * 2,
        "layered RM repairs {} should be well under plain {}",
        layered.counters.repairs_sent,
        plain.counters.repairs_sent
    );
}

#[test]
fn layered_pays_constant_parity_overhead() {
    // The flip side the analysis also predicts (Figs. 3-4): the sublayer
    // ships h/k extra frames whether or not anyone needed them. For a
    // single receiver with no loss, plain N2 is strictly cheaper.
    let data = payload(50_000);
    let (plain, _) = run_n2(&data, 1, 0.0, None, 3);
    let (layered, _) = run_n2(&data, 1, 0.0, Some((7, 1)), 3);
    assert_eq!(plain.counters.repairs_sent, 0);
    assert_eq!(layered.counters.repairs_sent, 0);
    // The overhead is invisible at the RM layer (same counters) — it lives
    // in the sublayer's parity frames, which is exactly the point: measure
    // at the right layer or you under-count layered FEC's cost.
}

#[test]
fn heavier_loss_still_converges_with_more_parities() {
    let data = payload(40_000);
    let (_, rrs) = run_n2(&data, 2, 0.20, Some((7, 3)), 4);
    for r in &rrs {
        assert_eq!(r.data, data);
    }
}
