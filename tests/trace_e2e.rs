//! End-to-end observability: run real NP sessions with every layer wired
//! to one shared recorder and check the trace against ground truth —
//! causality (sends precede receives), reconciliation (event counts match
//! the transports' and machines' own counters), and decode-cache reuse
//! under a repeating loss pattern.

mod common;

use std::sync::Arc;
use std::time::Duration;

use parity_multicast::mux::VirtualClock;
use parity_multicast::net::{
    FaultConfig, FaultyTransport, MemHub, Message, NetError, PollTransport, Transport,
};
use parity_multicast::obs::{Event, Obs, RingRecorder};
use parity_multicast::protocol::runtime::RuntimeConfig;
use parity_multicast::protocol::{CompletionPolicy, NpConfig, NpReceiver, NpSender};

fn payload(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i.wrapping_mul(40503) >> 3) as u8).collect()
}

#[test]
fn session_trace_reconciles_with_counters() {
    const RECEIVERS: u32 = 3;
    let ring = Arc::new(RingRecorder::new(1 << 16));
    let obs = Obs::new(ring.clone());

    let hub = MemHub::new();
    let data = payload(40_000);
    let session = 0x0B5;
    let mut cfg = NpConfig::small(CompletionPolicy::KnownReceivers(RECEIVERS));
    cfg.k = 8;
    cfg.h = 40;
    cfg.payload_len = 256;
    cfg.nak_slot = 0.002;
    let rt = RuntimeConfig {
        packet_spacing: Duration::from_micros(100),
        stall_timeout: Duration::from_secs(15),
        complete_linger: Duration::from_millis(300),
        ..RuntimeConfig::default()
    };

    let mut tps: Vec<_> = (0..RECEIVERS)
        .map(|id| {
            FaultyTransport::new(hub.join(), FaultConfig::drop_only(0.08), 0xD0 + id as u64)
                .with_obs(obs.clone())
        })
        .collect();
    let mut sender_tp = hub.join().with_obs(obs.clone());
    let sender = NpSender::new(session, &data, cfg)
        .expect("config")
        .with_obs(obs.clone());
    let (sent, reports) = common::run_session(
        VirtualClock::new(),
        rt,
        &obs,
        (sender, &mut sender_tp),
        tps.iter_mut().enumerate().map(|(id, tp)| {
            let m = NpReceiver::new(id as u32, session, 0.002, id as u64).with_obs(obs.clone());
            (m, tp as &mut dyn PollTransport)
        }),
    );
    sent.expect("send");

    let injected_drops: u64 = tps.iter().map(|tp| tp.stats().dropped).sum();
    let mut suppressed_counted = 0u64;
    for report in reports {
        let report = report.expect("receive");
        assert_eq!(report.data, data);
        suppressed_counted += report.counters.feedback_suppressed;
    }

    assert_eq!(ring.evicted(), 0, "ring must hold the complete trace");
    let events = ring.events();

    // Causality: every data/parity reception was transmitted first.
    let mut sent: std::collections::BTreeSet<(u32, u32, u16, bool)> = Default::default();
    for (_, ev) in &events {
        match *ev {
            Event::DataSent {
                session: s,
                group,
                index,
            } => {
                sent.insert((s, group, index, true));
            }
            Event::ParitySent {
                session: s,
                group,
                index,
            } => {
                sent.insert((s, group, index, false));
            }
            Event::DataRecv {
                session: s,
                group,
                index,
            } => {
                assert!(
                    sent.contains(&(s, group, index, true)),
                    "data_recv {s}/{group}/{index} before any data_sent"
                );
            }
            Event::ParityRecv {
                session: s,
                group,
                index,
            } => {
                assert!(
                    sent.contains(&(s, group, index, false)),
                    "parity_recv {s}/{group}/{index} before any parity_sent"
                );
            }
            _ => {}
        }
    }

    // Reconciliation: fault-injector drops and damped NAKs match 1:1.
    let count =
        |pred: &dyn Fn(&Event) -> bool| events.iter().filter(|(_, e)| pred(e)).count() as u64;
    assert_eq!(
        count(&|e| matches!(e, Event::NetDropped { .. })),
        injected_drops,
        "net_dropped events must equal the injector's drop count"
    );
    assert_eq!(
        count(&|e| matches!(e, Event::NakSuppressed { .. })),
        suppressed_counted,
        "nak_suppressed events must equal the feedback_suppressed counters"
    );

    // Lifecycle: one session_start per endpoint, everyone ends Completed.
    assert_eq!(
        count(&|e| matches!(e, Event::SessionStart { .. })),
        RECEIVERS as u64 + 1
    );
    assert_eq!(
        count(&|e| matches!(
            e,
            Event::SessionEnd {
                outcome: parity_multicast::obs::Outcome::Completed,
                ..
            }
        )),
        RECEIVERS as u64 + 1
    );
    assert_eq!(count(&|e| matches!(e, Event::StallTimeout { .. })), 0);
}

/// Loses data packet 1 of every group on the way in: NP sends each data
/// packet once and repairs with parities, so every group reaches the
/// decoder with the same one-erasure pattern.
struct SecondPacketOfEachGroup<T> {
    inner: T,
    dropped: usize,
}

impl<T> SecondPacketOfEachGroup<T> {
    fn filter(
        &mut self,
        mut recv: impl FnMut(&mut T) -> Result<Option<Message>, NetError>,
    ) -> Result<Option<Message>, NetError> {
        loop {
            match recv(&mut self.inner)? {
                Some(Message::Packet { index: 1, .. }) => self.dropped += 1,
                other => return Ok(other),
            }
        }
    }
}

impl<T: Transport> Transport for SecondPacketOfEachGroup<T> {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        self.inner.send(msg)
    }
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, NetError> {
        self.filter(|t| t.recv_timeout(timeout))
    }
}

impl<T: PollTransport> PollTransport for SecondPacketOfEachGroup<T> {
    fn poll_recv(&mut self) -> Result<Option<Message>, NetError> {
        self.filter(T::poll_recv)
    }
}

#[test]
fn repeating_loss_pattern_decodes_each_group_once() {
    const K: usize = 4;
    const GROUPS: usize = 4;
    let ring = Arc::new(RingRecorder::new(1 << 12));
    let obs = Obs::new(ring.clone());

    let mut cfg = NpConfig::small(CompletionPolicy::KnownReceivers(1));
    cfg.k = K;
    cfg.h = 8;
    cfg.payload_len = 64;
    cfg.nak_slot = 0.001;
    let data = payload(GROUPS * K * 64); // exact multiple: every group same spec

    let hub = MemHub::new();
    let mut sender_tp = hub.join();
    let mut receiver_tp = SecondPacketOfEachGroup {
        inner: hub.join(),
        dropped: 0,
    };
    let (sent, mut reports) = common::run_session(
        VirtualClock::new(),
        common::rt(),
        &Obs::null(),
        (
            NpSender::new(0xCAC, &data, cfg).expect("config"),
            &mut sender_tp as &mut dyn PollTransport,
        ),
        [(
            NpReceiver::new(0, 0xCAC, 0.001, 9).with_obs(obs),
            &mut receiver_tp as &mut dyn PollTransport,
        )],
    );
    sent.expect("session completes");
    assert_eq!(reports.remove(0).expect("receive").data, data);
    assert_eq!(receiver_tp.dropped, GROUPS);

    // One `group_decoded` per group, each recovering the one packet the
    // filter dropped from it.
    let mut decoded: Vec<_> = ring
        .events()
        .iter()
        .filter_map(|(_, e)| match e {
            Event::GroupDecoded {
                group, recovered, ..
            } => Some((*group, *recovered)),
            _ => None,
        })
        .collect();
    decoded.sort_unstable();
    let lost_per_group = (receiver_tp.dropped / GROUPS) as u64;
    let want: Vec<_> = (0..GROUPS as u32).map(|g| (g, lost_per_group)).collect();
    assert_eq!(decoded, want);
}
