//! Feedback-free carousel distribution (the paper's Integrated FEC 1):
//! broadcast a file in continuous interleaved FEC cycles; receivers join
//! whenever, collect `k` packets per group, decode, and leave — no NAKs,
//! no polls, no return channel at all.
//!
//! ```sh
//! cargo run --release --example carousel -- --receivers 8 --drop 0.15 --cycles 4
//! ```

use std::time::Duration;

use parity_multicast::mux::{drive_session, Mux, MuxConfig, VirtualClock};
use parity_multicast::net::{
    FaultConfig, FaultyTransport, MemHub, Message, PollTransport, TranscriptTransport,
};
use parity_multicast::protocol::runtime::RuntimeConfig;
use parity_multicast::protocol::{CarouselConfig, CarouselSender, CarouselStop, NpReceiver};

struct Args {
    receivers: usize,
    drop: f64,
    cycles: u32,
    size: usize,
    redundancy: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        receivers: 8,
        drop: 0.15,
        cycles: 4,
        size: 200_000,
        redundancy: 4,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--receivers" => args.receivers = val().parse().expect("count"),
            "--drop" => args.drop = val().parse().expect("probability"),
            "--cycles" => args.cycles = val().parse().expect("count"),
            "--size" => args.size = val().parse().expect("bytes"),
            "--redundancy" => args.redundancy = val().parse().expect("parities per group"),
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let session = 0xCAFE;
    let data: Vec<u8> = (0..args.size)
        .map(|i| (i.wrapping_mul(613) >> 2) as u8)
        .collect();

    let cfg = CarouselConfig {
        k: 20,
        h: args.redundancy,
        payload_len: 1024,
        stop: CarouselStop::Cycles(args.cycles),
        announce_every: 64,
    };
    println!(
        "carousel: {} bytes, k = 20, h = {} per cycle, {} cycles, {} receivers at {:.0}% loss",
        args.size,
        args.redundancy,
        args.cycles,
        args.receivers,
        args.drop * 100.0
    );

    // One mux on a virtual clock drives the sender and every receiver; a
    // receiver's downlink drops each datagram with probability `--drop`.
    let sender = CarouselSender::new(session, &data, cfg).expect("valid config");
    let hub = MemHub::new();
    let mut sender_tp = TranscriptTransport::new(hub.join());
    let sender_log = sender_tp.transcript();
    let mut endpoints: Vec<_> = (0..args.receivers as u64)
        .map(|i| FaultyTransport::new(hub.join(), FaultConfig::drop_only(args.drop), 0xCA20 + i))
        .collect();
    let rt = RuntimeConfig {
        packet_spacing: Duration::from_millis(1),
        ..RuntimeConfig::default()
    };
    let (sent, received) = drive_session(
        &mut Mux::new(MuxConfig::default(), VirtualClock::new()),
        rt,
        (sender, &mut sender_tp as &mut dyn PollTransport),
        endpoints.iter_mut().zip(0..).map(|(tp, id)| {
            let machine = NpReceiver::new(id, session, 0.002, id as u64);
            (machine, tp as &mut dyn PollTransport)
        }),
    );
    let report = sent.expect("carousel run");

    // A receiver that ran out of cycles ends with a typed error, not data.
    let completed = received.iter().filter(|r| r.is_ok()).count();
    let verified = received
        .iter()
        .filter(|r| r.as_ref().is_ok_and(|rep| rep.data == data))
        .count();
    let naks = sender_log
        .lock()
        .received_messages()
        .filter(|m| matches!(m, Message::Nak { .. }))
        .count();
    println!(
        "completed {completed}/{} receivers (verified {verified}); {} data + {} parity frames over {:.1}s virtual",
        args.receivers,
        report.counters.data_sent,
        report.counters.repairs_sent,
        report.elapsed.as_secs_f64(),
    );
    println!("repair feedback received by the sender: {naks} NAKs (the whole point: zero)");
    let per_cycle_cost = (20 + args.redundancy) as f64 / 20.0;
    println!(
        "wire cost: {:.2}x the data volume per cycle, {} cycles total = {:.2}x overall \
         (fixed-cycle carousels trade bandwidth for zero feedback; AllDone stops early)",
        per_cycle_cost,
        args.cycles,
        per_cycle_cost * args.cycles as f64,
    );
    assert_eq!(naks, 0);
    assert_eq!(verified, completed, "a receiver completed with wrong bytes");
    if completed < args.receivers {
        println!(
            "note: {} receivers did not finish within {} cycles — raise --cycles or --redundancy",
            args.receivers - completed,
            args.cycles
        );
    }
}
