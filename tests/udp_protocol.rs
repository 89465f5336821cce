//! Protocol NP over *real* UDP multicast sockets (kernel loopback path).
//! Each group runs on one wall-clock mux on the test's thread. Skips
//! gracefully (with a note) on hosts without multicast support.

mod common;

use std::net::{Ipv4Addr, SocketAddrV4};
use std::time::Duration;

use common::run_session;
use parity_multicast::mux::{Mux, MuxConfig, SessionOutcome, WallClock};
use parity_multicast::net::udp::UdpHub;
use parity_multicast::net::{FaultConfig, FaultyTransport, PollTransport};
use parity_multicast::obs::Obs;
use parity_multicast::protocol::runtime::RuntimeConfig;
use parity_multicast::protocol::{CompletionPolicy, NpConfig, NpReceiver, NpSender};

fn try_hub(port: u16) -> Option<UdpHub> {
    match UdpHub::join(SocketAddrV4::new(Ipv4Addr::new(239, 255, 77, 2), port)) {
        Ok(h) => Some(h),
        Err(e) => {
            eprintln!("skipping UDP protocol test: {e}");
            None
        }
    }
}

fn rt() -> RuntimeConfig {
    RuntimeConfig {
        packet_spacing: Duration::from_micros(100),
        stall_timeout: Duration::from_secs(20),
        complete_linger: Duration::from_millis(250),
        ..RuntimeConfig::default()
    }
}

#[test]
fn np_over_udp_with_loss() {
    let Some(hub) = try_hub(46011) else { return };
    let data: Vec<u8> = (0..120_000usize)
        .map(|i| (i.wrapping_mul(97) >> 3) as u8)
        .collect();
    let session = 0xD06;
    let receivers = 3u32;
    let mut cfg = NpConfig::small(CompletionPolicy::KnownReceivers(receivers));
    cfg.k = 20;
    cfg.h = 120;
    cfg.payload_len = 1024;
    cfg.nak_slot = 0.002;
    cfg.round_timeout = 0.1;

    let mut tps: Vec<_> = (0..receivers)
        .map(|id| {
            let ep = hub.endpoint().expect("endpoint");
            FaultyTransport::new(ep, FaultConfig::drop_only(0.10), 0xFACE + id as u64)
        })
        .collect();
    let mut sender_tp = hub.endpoint().expect("endpoint");
    let sender = NpSender::new(session, &data, cfg).expect("config");
    let (sr, rrs) = run_session(
        WallClock::new(),
        rt(),
        &Obs::null(),
        (sender, &mut sender_tp),
        tps.iter_mut().enumerate().map(|(id, tp)| {
            let m = NpReceiver::new(id as u32, session, 0.002, id as u64);
            (m, tp as &mut dyn PollTransport)
        }),
    );
    let sr = sr.expect("sender failed");
    for (id, rr) in rrs.into_iter().enumerate() {
        assert_eq!(rr.expect("receiver failed").data, data, "receiver {id}");
    }
    assert!(
        sr.counters.repairs_sent > 0,
        "10% loss must exercise parity repair on UDP"
    );
    // Self-delivery tolerance: the sender heard its own packets and
    // ignored them without protocol errors (we got here).
}

#[test]
fn n2_over_udp_lossless() {
    use parity_multicast::protocol::n2::{N2Receiver, N2Sender};
    let Some(hub) = try_hub(46013) else { return };
    let data: Vec<u8> = (0..30_000usize).map(|i| (i * 13 % 251) as u8).collect();
    let session = 0xD07;
    let mut cfg = NpConfig::small(CompletionPolicy::KnownReceivers(1));
    cfg.k = 10;
    cfg.h = 0; // N2 has no parities; keep k + h within the block limit
    cfg.payload_len = 512;

    let ep = hub.endpoint().expect("endpoint");
    let mut tp = FaultyTransport::new(ep, FaultConfig::none(), 5);
    let mut sender_tp = hub.endpoint().expect("endpoint");
    let sender = N2Sender::new(session, &data, cfg).expect("config");
    let (sr, mut rrs) = run_session(
        WallClock::new(),
        rt(),
        &Obs::null(),
        (sender, &mut sender_tp),
        [(
            N2Receiver::new(0, session, 0.001, 5),
            &mut tp as &mut dyn PollTransport,
        )],
    );
    sr.expect("sender failed");
    let rr = rrs.pop().expect("one receiver").expect("receiver failed");
    assert_eq!(rr.data, data);
}

#[test]
fn two_sessions_share_one_group() {
    // Session ids isolate concurrent transfers on the same multicast
    // group address.
    let Some(hub) = try_hub(46015) else { return };
    let data_a: Vec<u8> = vec![0xAA; 20_000];
    let data_b: Vec<u8> = vec![0xBB; 15_000];
    let mut cfg = NpConfig::small(CompletionPolicy::KnownReceivers(1));
    cfg.k = 10;
    cfg.h = 40;
    cfg.payload_len = 512;

    // Both groups' senders and receivers on one mux.
    let lossy = |seed| {
        let ep = hub.endpoint().expect("endpoint");
        Box::new(FaultyTransport::new(ep, FaultConfig::drop_only(0.05), seed))
            as Box<dyn PollTransport>
    };
    let mut mux = Mux::new(MuxConfig::default(), WallClock::new());
    let ra = mux.add_receiver(NpReceiver::new(100, 1, 0.002, 100), lossy(100), rt());
    let rb = mux.add_receiver(NpReceiver::new(200, 2, 0.002, 200), lossy(200), rt());
    for (session, data) in [(2, &data_b), (1, &data_a)] {
        let ep = Box::new(hub.endpoint().expect("endpoint"));
        let s = NpSender::new(session, data, cfg.clone()).expect("config");
        mux.add_sender(s, ep, rt());
    }
    let outcomes = mux.run();
    assert_eq!(outcomes.len(), 4);
    for (tok, outcome) in outcomes {
        match outcome {
            SessionOutcome::Sender(r) => {
                r.expect("sender failed");
            }
            SessionOutcome::Receiver(r) => {
                let want = if tok == ra { &data_a } else { &data_b };
                assert!(tok == ra || tok == rb);
                assert_eq!(&r.expect("receiver failed").data, want);
            }
            SessionOutcome::Shed(r) => panic!("nothing sheds without a policy: {r:?}"),
        }
    }
}
