//! The paper's two architectures, live and head-to-head (Figure 2):
//!
//! * **(a) layered FEC** — plain ARQ (protocol N2) running unchanged over
//!   the transparent `FecTransport` sublayer;
//! * **(b) integrated FEC** — protocol NP with parity retransmission.
//!
//! Both transfer the same data to the same lossy receiver population; the
//! example reports the wire cost of each (data + parity + retransmission
//! frames) next to the no-FEC baseline, reproducing the Figure 5 ordering
//! with real packets instead of formulas.
//!
//! ```sh
//! cargo run --release --example layered_vs_integrated -- --receivers 4 --drop 0.08
//! ```

use std::time::Duration;

use parity_multicast::mux::{drive_session, Mux, MuxConfig, WallClock};
use parity_multicast::net::{
    FaultConfig, FaultyTransport, FecLayerConfig, FecTransport, MemHub, PollTransport,
};
use parity_multicast::protocol::n2::{N2Receiver, N2Sender};
use parity_multicast::protocol::runtime::{ReceiverMachine, RuntimeConfig, SenderMachine};
use parity_multicast::protocol::{CompletionPolicy, NpConfig, NpReceiver, NpSender, Payload};

struct Args {
    receivers: u32,
    drop: f64,
    size: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        receivers: 4,
        drop: 0.08,
        size: 120_000,
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
            "--size" => args.size = val().parse().expect("bytes"),
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn rt() -> RuntimeConfig {
    RuntimeConfig {
        packet_spacing: Duration::from_micros(80),
        stall_timeout: Duration::from_secs(20),
        complete_linger: Duration::from_millis(300),
        ..RuntimeConfig::default()
    }
}

const K: usize = 10;
const LAYER_K: usize = 7;
const LAYER_H: usize = 1;

fn config(receivers: u32, h: usize) -> NpConfig {
    let mut c = NpConfig::small(CompletionPolicy::KnownReceivers(receivers));
    c.k = K;
    c.h = h;
    c.payload_len = 512;
    c.nak_slot = 0.001;
    c
}

enum Arch {
    NoFec,
    Layered,
    Integrated,
}

/// Returns (wire frames sent by the sender side, verified).
fn run(arch: &Arch, data: &[u8], receivers: u32, drop: f64) -> (u64, bool) {
    let hub = MemHub::new();
    let session = 0xA5C;
    let wrap = |ep: parity_multicast::net::mem::MemEndpoint,
                tag: u32,
                lossy: bool,
                seed: u64,
                layered: bool|
     -> Box<dyn PollTransport> {
        let base: Box<dyn PollTransport> = if lossy {
            Box::new(FaultyTransport::new(ep, FaultConfig::drop_only(drop), seed))
        } else {
            Box::new(ep)
        };
        if layered {
            Box::new(
                FecTransport::new(
                    base,
                    FecLayerConfig {
                        k: LAYER_K,
                        h: LAYER_H,
                        max_delay: Duration::from_millis(5),
                        sender_tag: tag,
                    },
                )
                .expect("valid geometry"),
            )
        } else {
            base
        }
    };
    let layered = matches!(arch, Arch::Layered);
    let mut receiver_tps: Vec<_> = (0..receivers)
        .map(|id| wrap(hub.join(), 100 + id, true, 7 * id as u64 + 3, layered))
        .collect();
    let mut sender_tp = wrap(hub.join(), 1, false, 0, layered);
    let (frames, delivered) = if matches!(arch, Arch::Integrated) {
        let s = NpSender::new(session, data, config(receivers, 120)).expect("config");
        let rs = (0..receivers).map(|id| NpReceiver::new(id, session, 0.001, id as u64));
        run_group(s, rs, &mut sender_tp, &mut receiver_tps)
    } else {
        // For the layered run the caller scales by n/k afterwards — that
        // is the honest wire cost (Figs. 3-4's expansion factor).
        let s = N2Sender::new(session, data, config(receivers, 0)).expect("config");
        let rs = (0..receivers).map(|id| N2Receiver::new(id, session, 0.001, id as u64));
        run_group(s, rs, &mut sender_tp, &mut receiver_tps)
    };
    (frames, delivered.iter().all(|d| d == data))
}

/// One sender and its receivers on one mux, on this thread. The clock is
/// the wall's: the FEC sublayer sends a part-filled block once it has
/// waited `max_delay` of real time. Returns the sender's wire frames and
/// what each receiver delivered.
fn run_group<S, R>(
    sender: S,
    receivers: impl Iterator<Item = R>,
    sender_tp: &mut Box<dyn PollTransport>,
    receiver_tps: &mut [Box<dyn PollTransport>],
) -> (u64, Vec<Payload>)
where
    S: SenderMachine + 'static,
    R: ReceiverMachine + 'static,
{
    let mut mux = Mux::new(MuxConfig::default(), WallClock::new());
    let (sent, got) = drive_session(
        &mut mux,
        rt(),
        (sender, sender_tp.as_mut()),
        receivers.zip(
            receiver_tps
                .iter_mut()
                .map(|tp| tp.as_mut() as &mut dyn PollTransport),
        ),
    );
    let sent = sent.expect("sender");
    let delivered = got.into_iter().map(|r| r.expect("receiver").data);
    (
        sent.counters.data_sent + sent.counters.repairs_sent,
        delivered.collect(),
    )
}

fn main() {
    let args = parse_args();
    let data: Vec<u8> = (0..args.size)
        .map(|i| (i.wrapping_mul(977) >> 3) as u8)
        .collect();
    println!(
        "transfer {} bytes to {} receivers at {:.0}% loss (k = {K}, layered = {LAYER_K}+{LAYER_H})\n",
        args.size,
        args.receivers,
        args.drop * 100.0
    );
    println!(
        "{:<22}{:>16}{:>14}{:>10}",
        "architecture", "RM frames sent", "E[M] per pkt", "verified"
    );
    let base_packets = args.size.div_ceil(512) as f64;
    for (name, arch, note) in [
        ("no FEC (N2)", Arch::NoFec, ""),
        (
            "layered (N2 + FEC)",
            Arch::Layered,
            " +n/k sublayer parities",
        ),
        ("integrated (NP)", Arch::Integrated, ""),
    ] {
        let (frames, ok) = run(&arch, &data, args.receivers, args.drop);
        let mut wire = frames as f64;
        if matches!(arch, Arch::Layered) {
            wire *= (LAYER_K + LAYER_H) as f64 / LAYER_K as f64;
        }
        println!(
            "{name:<22}{:>16.0}{:>14.3}{:>10}{note}",
            wire,
            wire / base_packets,
            if ok { "OK" } else { "CORRUPT" }
        );
        assert!(ok);
    }
    println!("\nexpect the Figure 5 ordering: integrated < layered < no FEC at scale");
}
