//! Fixtures shared by the integration-test binaries.
//!
//! * [`run_session`] — one sender and its receivers on a single mux, on
//!   the calling thread, over whichever clock the test is about;
//!   [`run_fanout`] — the same on a fresh hub under the virtual clock, with
//!   the sender's wire history handed back ([`feedback_in`] counts the
//!   NAKs and `Done`s that reached it).
//! * The pinned 16-pair `VirtualClock` farm of `mux_sessions.rs` and
//!   `mux_auto_dispatch.rs` (the latter forces `PM_SIMD=auto` first; env
//!   overrides are memoized process-wide, hence two binaries, one
//!   fixture). Under a virtual clock a mux run is a pure function of the
//!   session set, so each pair's wire history is a constant of the code:
//!   [`PINNED`] holds one digest per pair, captured at the last commit
//!   where the mux was also checked byte-for-byte against dedicated
//!   blocking drivers.

// Each test binary uses its own subset.
#![allow(dead_code)]

use std::time::Duration;

use parity_multicast::mux::{drive_session, Mux, MuxClock, MuxConfig, VirtualClock};
use parity_multicast::net::mem::MemEndpoint;
use parity_multicast::net::wire::{checksum_of, HEADER_LEN};
use parity_multicast::net::{MemHub, Message, PollTransport, Transcript, TranscriptTransport};
use parity_multicast::obs::Obs;
use parity_multicast::protocol::runtime::{
    ReceiverMachine, ReceiverReport, RuntimeConfig, SenderMachine, SessionReport,
};
use parity_multicast::protocol::{CompletionPolicy, NpConfig, NpReceiver, NpSender, ProtocolError};

/// A machine with the (borrowed) endpoint it runs on.
pub type Endpoint<'a, M> = (M, &'a mut dyn PollTransport);

/// Run one sender and its receivers on one fresh mux over `clock` until
/// every session has ended: [`drive_session`] with the mux built here.
/// Endpoints are borrowed, so `stats()` and transcripts stay readable
/// afterwards. Returns the sender's verdict and the receivers', in the
/// order given.
pub fn run_session<'a, S, R>(
    clock: impl MuxClock,
    rt: RuntimeConfig,
    obs: &Obs,
    sender: Endpoint<'a, S>,
    receivers: impl IntoIterator<Item = Endpoint<'a, R>>,
) -> (
    Result<SessionReport, ProtocolError>,
    Vec<Result<ReceiverReport, ProtocolError>>,
)
where
    S: SenderMachine + 'static,
    R: ReceiverMachine + 'static,
{
    let mut mux = Mux::new(MuxConfig::default(), clock).with_obs(obs.clone());
    drive_session(&mut mux, rt, sender, receivers)
}

/// `(NAKs, Dones)` among the datagrams an endpoint received.
pub fn feedback_in(log: &Transcript) -> (usize, usize) {
    let (mut naks, mut dones) = (0, 0);
    for msg in log.received_messages() {
        match msg {
            Message::Nak { .. } | Message::NakPacket { .. } => naks += 1,
            Message::Done { .. } => dones += 1,
            _ => {}
        }
    }
    (naks, dones)
}

/// One sender and `receivers` receivers on a fresh hub under the virtual
/// clock. The sender's endpoint is `wrap(hub endpoint)` inside a
/// transcript; receiver `i`'s is `rx_endpoint(hub endpoint, i)`. Returns
/// the sender's report, its wire history, and asserts every receiver
/// delivered `data`.
pub fn run_fanout<S, R, W, E>(
    sender: S,
    receivers: Vec<R>,
    data: &[u8],
    wrap: impl FnOnce(MemEndpoint) -> W,
    rx_endpoint: impl Fn(MemEndpoint, u64) -> E,
) -> (SessionReport, Transcript)
where
    S: SenderMachine + 'static,
    R: ReceiverMachine + 'static,
    W: PollTransport,
    E: PollTransport,
{
    let hub = MemHub::new();
    let mut sender_tp = TranscriptTransport::new(wrap(hub.join()));
    let log = sender_tp.transcript();
    let mut endpoints: Vec<E> = (0..receivers.len() as u64)
        .map(|i| rx_endpoint(hub.join(), i))
        .collect();
    let (sent, received) = run_session(
        VirtualClock::new(),
        rt(),
        &Obs::null(),
        (sender, &mut sender_tp as &mut dyn PollTransport),
        receivers
            .into_iter()
            .zip(endpoints.iter_mut())
            .map(|(machine, tp)| (machine, tp as &mut dyn PollTransport)),
    );
    for (i, rep) in received.iter().enumerate() {
        let rep = rep.as_ref().unwrap_or_else(|e| panic!("receiver {i}: {e}"));
        assert_eq!(rep.data, data, "receiver {i} bytes");
    }
    let history = log.lock().clone();
    (sent.expect("sender completes"), history)
}

/// Pairs in the pinned farm (twice as many sessions).
pub const PAIRS: u32 = 16;

/// `(sender endpoint, receiver endpoint)` transcript digests per pair.
///
/// Re-pinned once since that capture, when the protocol itself changed
/// bytes: a completed receiver no longer answers the last group's `Poll`
/// with a second `Done`, and the sender repeats its `Announce` ahead of
/// the last group — per pair, sender-sent `A d.. P d.. P F` became
/// `A d.. P A d.. P F` and sender-received `D D` became `D`; nothing else
/// moved. Same 16 values under `PM_SIMD=scalar` and `auto`.
pub const PINNED: [(u32, u32); PAIRS as usize] = [
    (0xdea0d311, 0x5f4b92d7),
    (0xa35cedb7, 0xa4efc0a9),
    (0x89f6e1b7, 0x507ae808),
    (0xcc8c797f, 0x0b296ca9),
    (0x09f49775, 0x0732874e),
    (0xe3ea56c2, 0x1b4ca51c),
    (0x042e504c, 0xeff0ab49),
    (0xafcdab48, 0x479d96d3),
    (0x33c12d65, 0xf09cca80),
    (0xbb342b7f, 0xcd4a97b0),
    (0xd8954b99, 0xb2c6bc35),
    (0xa9b28897, 0xd5eb6e31),
    (0xc4b49e19, 0x84444664),
    (0xb3f8fc95, 0x7e74fe28),
    (0x836549a0, 0xb9871ea4),
    (0x97cd3b43, 0xf18df58e),
];

pub fn np_cfg() -> NpConfig {
    let mut c = NpConfig::small(CompletionPolicy::KnownReceivers(1));
    c.k = 8;
    c.h = 40;
    c.payload_len = 128;
    c.nak_slot = 0.001;
    c
}

pub fn rt() -> RuntimeConfig {
    RuntimeConfig {
        packet_spacing: Duration::from_micros(50),
        stall_timeout: Duration::from_secs(5),
        complete_linger: Duration::from_millis(250),
        ..RuntimeConfig::default()
    }
}

pub fn payload(n: usize) -> Vec<u8> {
    (0..n)
        .map(|i| (i.wrapping_mul(2654435761) >> 11) as u8)
        .collect()
}

pub fn pair_payload(i: u32) -> Vec<u8> {
    payload(1800 + 111 * i as usize)
}

/// The wire checksum (XXH32) over an endpoint's whole ordered history:
/// every datagram, direction-tagged and length-prefixed, behind a blank
/// header so the checksum's own zeroed field covers no transcript byte.
pub fn transcript_digest(t: &Transcript) -> u32 {
    let mut buf = vec![0u8; HEADER_LEN];
    for (tag, datagrams) in [(b'S', &t.sent), (b'R', &t.received)] {
        for d in datagrams {
            buf.push(tag);
            buf.extend_from_slice(&(d.len() as u32).to_le_bytes());
            buf.extend_from_slice(d);
        }
    }
    checksum_of(&buf).expect("buffer holds a header")
}

/// One pair's result: both endpoints' wire histories and the bytes the
/// receiver delivered.
pub struct PairRun {
    pub sent: Transcript,
    pub received: Transcript,
    pub data: Vec<u8>,
}

/// Run the pinned farm — all 32 sessions on one mux, one thread, one
/// virtual clock — and return the pairs in index order.
pub fn run_pinned_farm() -> Vec<PairRun> {
    let mut mux = Mux::new(MuxConfig::default(), VirtualClock::new());
    let mut pairs = Vec::new();
    for i in 0..PAIRS {
        let hub = MemHub::new();
        let sender_tp = TranscriptTransport::new(hub.join());
        let receiver_tp = TranscriptTransport::new(hub.join());
        let logs = (sender_tp.transcript(), receiver_tp.transcript());
        mux.add_sender(
            NpSender::new(i, &pair_payload(i), np_cfg()).expect("valid config"),
            sender_tp,
            rt(),
        );
        let r_tok = mux.add_receiver(
            NpReceiver::new(1000 + i, i, 0.001, i as u64),
            receiver_tp,
            rt(),
        );
        pairs.push((logs, r_tok));
    }
    let outcomes = mux.run();
    assert_eq!(outcomes.len(), 2 * PAIRS as usize);
    pairs
        .into_iter()
        .map(|((sender_log, receiver_log), r_tok)| {
            let (_, outcome) = outcomes
                .iter()
                .find(|(t, _)| *t == r_tok)
                .expect("receiver outcome");
            let sent = sender_log.lock().clone();
            let received = receiver_log.lock().clone();
            PairRun {
                sent,
                received,
                data: outcome
                    .receiver_report()
                    .expect("receiver ok")
                    .data
                    .to_vec(),
            }
        })
        .collect()
}

/// Every pair's transcripts hash to [`PINNED`] and every receiver holds
/// its payload; `label` names the kernel backend in failure messages.
pub fn assert_farm_is_pinned(farm: &[PairRun], label: &str) {
    for (i, (run, want)) in farm.iter().zip(PINNED).enumerate() {
        let got = (
            transcript_digest(&run.sent),
            transcript_digest(&run.received),
        );
        assert_eq!(
            got, want,
            "pair {i}: (sender, receiver) transcript digests moved under {label}"
        );
        assert_eq!(
            run.data,
            pair_payload(i as u32),
            "pair {i}: received bytes under {label}"
        );
    }
}
