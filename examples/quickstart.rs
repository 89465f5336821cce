//! Quickstart: erasure-code a transmission group, lose packets, recover —
//! then do the same through the full NP protocol on an in-memory multicast
//! group.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use std::time::Duration;

use parity_multicast::mux::{drive_receiver, drive_sender};
use parity_multicast::net::{FaultConfig, FaultyTransport, MemHub};
use parity_multicast::obs::Obs;
use parity_multicast::protocol::runtime::RuntimeConfig;
use parity_multicast::protocol::{CompletionPolicy, NpConfig, NpReceiver, NpSender};
use parity_multicast::rse::{CodeSpec, RseDecoder, RseEncoder};

fn codec_demo() {
    println!("== 1. Raw RSE codec (Section 2 of the paper)");
    // A transmission group of k = 7 packets protected by h = 3 parities.
    let spec = CodeSpec::new(7, 3).expect("7 + 3 <= 255");
    let encoder = RseEncoder::new(spec).expect("valid spec");
    let decoder = RseDecoder::from_encoder(&encoder);

    let group: Vec<Vec<u8>> = (0..7)
        .map(|i| format!("data packet {i} ~~~~~~~~~~~~~~~").into_bytes())
        .collect();
    let parities = encoder.encode_all(&group).expect("equal-size packets");
    println!(
        "   encoded {} parities for k = {} data packets",
        parities.len(),
        spec.k()
    );

    // The network eats packets 0, 3 and 6 — the worst the code tolerates.
    let mut shares: Vec<(usize, &[u8])> = group
        .iter()
        .enumerate()
        .filter(|(i, _)| ![0usize, 3, 6].contains(i))
        .map(|(i, d)| (i, d.as_slice()))
        .collect();
    for (j, p) in parities.iter().enumerate() {
        shares.push((7 + j, p.as_slice()));
    }
    let recovered = decoder.decode(&shares).expect("any 7 of 10 decode");
    assert_eq!(recovered, group);
    println!(
        "   lost packets 0, 3, 6 -> recovered all {} packets bit-exactly",
        recovered.len()
    );
}

fn protocol_demo() {
    println!("== 2. Protocol NP over a lossy in-memory multicast group");
    let hub = MemHub::new();
    let payload: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();

    let mut cfg = NpConfig::small(CompletionPolicy::KnownReceivers(3));
    cfg.payload_len = 1024;
    cfg.k = 7;
    let rt = RuntimeConfig {
        packet_spacing: Duration::from_micros(30),
        stall_timeout: Duration::from_secs(10),
        complete_linger: Duration::from_millis(300),
        ..RuntimeConfig::default()
    };

    let mut sender_tp = hub.join();
    let to_send = payload.clone();
    let sender_cfg = cfg.clone();
    let sender = std::thread::spawn(move || {
        let s = NpSender::new(99, &to_send, sender_cfg).expect("valid config");
        drive_sender(s, &mut sender_tp, &rt, &Obs::null()).expect("sender completes")
    });

    // Three receivers, each independently dropping 10% of packets.
    let receivers: Vec<_> = (0..3)
        .map(|id| {
            let endpoint = hub.join();
            std::thread::spawn(move || {
                let mut tp =
                    FaultyTransport::new(endpoint, FaultConfig::drop_only(0.10), id as u64);
                let r = NpReceiver::new(id, 99, 0.001, id as u64);
                drive_receiver(r, &mut tp, &rt, &Obs::null()).expect("receiver completes")
            })
        })
        .collect();

    let sender_report = sender.join().expect("sender thread");
    for (id, r) in receivers.into_iter().enumerate() {
        let report = r.join().expect("receiver thread");
        assert_eq!(report.data, payload, "receiver {id} data mismatch");
        println!(
            "   receiver {id}: {} bytes OK, {} pkts received, {} decoded by parity, {} unneeded",
            report.data.len(),
            report.counters.packets_received,
            report.counters.packets_decoded,
            report.counters.unneeded_receptions,
        );
    }
    let c = sender_report.counters;
    println!(
        "   sender: {} data + {} parity transmissions ({} NAKs heard) in {:?}",
        c.data_sent, c.repairs_sent, c.feedback_received, sender_report.elapsed,
    );
    println!(
        "   E[M] achieved = {:.3} transmissions per data packet",
        (c.data_sent + c.repairs_sent) as f64 / c.data_sent as f64
    );
}

fn main() {
    codec_demo();
    protocol_demo();
    println!("quickstart complete");
}
