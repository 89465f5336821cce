//! The tail of NP session time on the paced shape: NP, k = 20, one
//! receiver whose downlink drops 5 % of datagrams, 13 groups of 1-KiB
//! packets paced 200 µs apart, 2-ms NAK slots, a 200-ms `round_timeout`
//! and a 50-ms keep-alive announce, each session alone on a virtual-clock
//! mux.
//!
//! A receiver that loses a whole repair round, poll included, asks again
//! at the next keep-alive announce with a NAK that echoes the round it
//! last heard polled. The sender serves that NAK once the group's NAK
//! slots are past, so the lost round costs about one announce interval.
//! Held off for the whole `round_timeout` instead, it cost up to three
//! announce intervals, and 7 of these 300 sessions ran past 200 ms.

mod common;

use std::time::Duration;

use common::{payload, run_session};
use parity_multicast::mux::VirtualClock;
use parity_multicast::net::{FaultConfig, FaultyTransport, MemHub};
use parity_multicast::obs::Obs;
use parity_multicast::protocol::runtime::RuntimeConfig;
use parity_multicast::protocol::{CompletionPolicy, NpConfig, NpReceiver, NpSender};

const SEEDS: u64 = 300;
const GROUPS: usize = 13;

fn paced_cfg(seed: u64) -> NpConfig {
    NpConfig {
        k: 20,
        h: 235,
        proactive_parity: 0,
        adaptive_parity: false,
        payload_len: 1024,
        nak_slot: 0.002,
        round_timeout: 0.200,
        preencode: false,
        completion: CompletionPolicy::KnownReceivers(1),
        announce_interval: 0.050,
        seed,
    }
}

fn paced_rt() -> RuntimeConfig {
    RuntimeConfig {
        packet_spacing: Duration::from_micros(200),
        stall_timeout: Duration::from_secs(30),
        complete_linger: Duration::from_millis(50),
        ..RuntimeConfig::default()
    }
}

#[test]
fn paced_sessions_past_200_ms_are_at_most_one_in_300() {
    let mut slow = Vec::new();
    for seed in 0..SEEDS {
        let cfg = paced_cfg(seed);
        let data = payload(GROUPS * cfg.k * cfg.payload_len);
        let session = seed as u32;
        let hub = MemHub::new();
        let mut sender_ep = hub.join();
        let mut receiver_ep =
            FaultyTransport::new(hub.join(), FaultConfig::drop_only(0.05), 0xDA7A + seed);
        let receiver = NpReceiver::new(1, session, cfg.nak_slot, seed);
        let sender = NpSender::new(session, &data, cfg).expect("valid config");
        let (sent, received) = run_session(
            VirtualClock::new(),
            paced_rt(),
            &Obs::null(),
            (sender, &mut sender_ep),
            [(receiver, &mut receiver_ep as _)],
        );
        for rep in received {
            assert_eq!(rep.expect("receiver completes").data, data, "seed {seed}");
        }
        let elapsed = sent.expect("sender completes").elapsed;
        if elapsed > Duration::from_millis(200) {
            slow.push((seed, elapsed));
        }
    }
    assert!(slow.len() <= 1, "sessions past 200 ms: {slow:?}");
}
