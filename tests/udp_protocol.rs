//! Protocol NP over *real* UDP multicast sockets (kernel loopback path).
//! Skips gracefully (with a note) on hosts without multicast support.

use std::net::{Ipv4Addr, SocketAddrV4};
use std::time::Duration;

use parity_multicast::mux::{drive_receiver, drive_sender};
use parity_multicast::net::udp::UdpHub;
use parity_multicast::net::{FaultConfig, FaultyTransport};
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

    let handles: Vec<_> = (0..receivers)
        .map(|id| {
            let ep = hub.endpoint().expect("endpoint");
            std::thread::spawn(move || {
                let mut tp =
                    FaultyTransport::new(ep, FaultConfig::drop_only(0.10), 0xFACE + id as u64);
                let m = NpReceiver::new(id, session, 0.002, id as u64);
                drive_receiver(m, &mut tp, &rt(), &Obs::null()).expect("receiver failed")
            })
        })
        .collect();

    let mut sender_tp = hub.endpoint().expect("endpoint");
    let sender = NpSender::new(session, &data, cfg).expect("config");
    let sr = drive_sender(sender, &mut sender_tp, &rt(), &Obs::null()).expect("sender failed");
    for (id, h) in handles.into_iter().enumerate() {
        let rr = h.join().expect("receiver thread");
        assert_eq!(rr.data, data, "receiver {id}");
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

    let handle = {
        let ep = hub.endpoint().expect("endpoint");
        std::thread::spawn(move || {
            let mut tp = FaultyTransport::new(ep, FaultConfig::none(), 5);
            let m = N2Receiver::new(0, session, 0.001, 5);
            drive_receiver(m, &mut tp, &rt(), &Obs::null()).expect("receiver failed")
        })
    };
    let mut sender_tp = hub.endpoint().expect("endpoint");
    let sender = N2Sender::new(session, &data, cfg).expect("config");
    drive_sender(sender, &mut sender_tp, &rt(), &Obs::null()).expect("sender failed");
    assert_eq!(handle.join().unwrap().data, data);
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

    let mk_receiver = |session: u32, seed: u64| {
        let ep = hub.endpoint().expect("endpoint");
        std::thread::spawn(move || {
            let mut tp = FaultyTransport::new(ep, FaultConfig::drop_only(0.05), seed);
            let m = NpReceiver::new(seed as u32, session, 0.002, seed);
            drive_receiver(m, &mut tp, &rt(), &Obs::null()).expect("receiver failed")
        })
    };
    let ra = mk_receiver(1, 100);
    let rb = mk_receiver(2, 200);

    let cfg_b = cfg.clone();
    let hub_b = hub.endpoint().expect("endpoint");
    let db = data_b.clone();
    let sb = std::thread::spawn(move || {
        let mut t = hub_b;
        let s = NpSender::new(2, &db, cfg_b).expect("config");
        drive_sender(s, &mut t, &rt(), &Obs::null()).expect("sender b failed")
    });
    let mut ta = hub.endpoint().expect("endpoint");
    let sa = NpSender::new(1, &data_a, cfg).expect("config");
    drive_sender(sa, &mut ta, &rt(), &Obs::null()).expect("sender a failed");
    sb.join().unwrap();

    assert_eq!(ra.join().unwrap().data, data_a);
    assert_eq!(rb.join().unwrap().data, data_b);
}
