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
//! * Two lossy farms, one per protocol ([`run_lossy_farm`]): NP at
//!   `k = 8`, `h = 40` with proactive and adaptive parity on some pairs,
//!   and N2, where one receiver loses a whole repair round
//!   ([`LoseOneRound`]). Every receiver endpoint drops 5% of what reaches
//!   it, seeded per endpoint, so the NAK, repair and heartbeat paths run;
//!   [`LOSSY_NP`] and [`LOSSY_N2`] pin every endpoint's transcript.

#![allow(dead_code, reason = "each test binary uses its own subset")]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parity_multicast::mux::{drive_session, Mux, MuxClock, MuxConfig, VirtualClock};
use parity_multicast::net::mem::MemEndpoint;
use parity_multicast::net::wire::{checksum_of, HEADER_LEN};
use parity_multicast::net::{
    FaultConfig, FaultyTransport, MemHub, Message, NetError, PollTransport, Transcript,
    TranscriptTransport, Transport,
};
use parity_multicast::obs::Obs;
use parity_multicast::protocol::n2::{N2Receiver, N2Sender};
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
    let history = log.lock().unwrap().clone();
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
            let sent = sender_log.lock().unwrap().clone();
            let received = receiver_log.lock().unwrap().clone();
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

/// Pairs and receivers per pair in each lossy farm.
pub const LOSSY_PAIRS: u32 = 4;
pub const LOSSY_RECEIVERS: u32 = 4;

/// NP lossy farm: per pair, the sender's transcript digest, then each
/// receiver's. Same values under `PM_SIMD=scalar`, `avx2` and `gfni`.
pub const LOSSY_NP: [[u32; 1 + LOSSY_RECEIVERS as usize]; LOSSY_PAIRS as usize] = [
    [0x7029e01f, 0x919fb1c3, 0x9506cb20, 0x349a53f1, 0xf8633936],
    [0x63b275f7, 0xc4f13d6c, 0xe6d7dfa2, 0xdcbef61a, 0x8daaaecb],
    [0xaf22e72b, 0xabc01b70, 0xd315fa5c, 0xd0429de3, 0x6ddcd046],
    [0x6a95c387, 0xfdd4ecaf, 0x43af7754, 0x3fb503da, 0x0b601b44],
];

/// N2 lossy farm, laid out as [`LOSSY_NP`].
pub const LOSSY_N2: [[u32; 1 + LOSSY_RECEIVERS as usize]; LOSSY_PAIRS as usize] = [
    [0x1d571647, 0x5b6bd71c, 0xe69b4f17, 0x3f05b74a, 0x3e7b66ce],
    [0xaccbca4f, 0x691218c8, 0x0585c220, 0xdc1f5171, 0xa40d66f6],
    [0xea3c5e3b, 0xdfe0cfee, 0xca0a25c3, 0x58d1aa9f, 0xd14557ec],
    [0xde7941dd, 0x18c83dc4, 0x3c81ade7, 0x8c73c336, 0x1e6a3ffe],
];

/// The NP lossy farm's sender for pair `i`: proactive parity on pairs 1
/// and 3, adaptive parity on pair 2.
pub fn lossy_np_cfg(i: u32) -> NpConfig {
    let mut c = np_cfg();
    c.completion = CompletionPolicy::KnownReceivers(LOSSY_RECEIVERS);
    c.proactive_parity = [0, 2, 0, 1][i as usize];
    c.adaptive_parity = i == 2;
    c
}

pub fn lossy_payload(i: u32) -> Vec<u8> {
    payload(6 * 8 * 128 + 97 * i as usize)
}

/// Loses one whole N2 repair round at a receiver: once the receiver NAKs
/// a packet, every later copy of that packet and every poll of its group
/// is dropped until one such poll has been, so only the announce
/// heartbeat can get the packet asked for again. `lost` turns true once
/// the round is gone.
pub struct LoseOneRound<T> {
    inner: T,
    armed: bool,
    losing: Option<(u32, u16)>,
    lost: Arc<AtomicBool>,
}

impl<T> LoseOneRound<T> {
    pub fn new(inner: T, lost: Arc<AtomicBool>) -> Self {
        LoseOneRound {
            inner,
            armed: true,
            losing: None,
            lost,
        }
    }

    fn filter(
        &mut self,
        mut next: impl FnMut(&mut T) -> Result<Option<Message>, NetError>,
    ) -> Result<Option<Message>, NetError> {
        loop {
            let msg = next(&mut self.inner)?;
            let Some((g, i)) = self.losing else {
                return Ok(msg);
            };
            match &msg {
                Some(Message::Packet { group, index, .. }) if (*group, *index) == (g, i) => {}
                Some(Message::Poll { group, .. }) if *group == g => {
                    self.losing = None;
                    self.lost.store(true, Ordering::Relaxed);
                }
                _ => return Ok(msg),
            }
        }
    }
}

impl<T: Transport> Transport for LoseOneRound<T> {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        if let (true, Message::NakPacket { group, index, .. }) = (self.armed, msg) {
            self.armed = false;
            self.losing = Some((*group, *index));
        }
        self.inner.send(msg)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, NetError> {
        self.filter(|t| t.recv_timeout(timeout))
    }
}

impl<T: PollTransport> PollTransport for LoseOneRound<T> {
    fn poll_recv(&mut self) -> Result<Option<Message>, NetError> {
        self.filter(T::poll_recv)
    }
}

/// One lossy pair's result: every endpoint's wire history (sender first)
/// and what each receiver delivered.
pub struct LossyPair {
    pub transcripts: Vec<Transcript>,
    pub delivered: Vec<Vec<u8>>,
}

impl LossyPair {
    pub fn digests(&self) -> Vec<u32> {
        self.transcripts.iter().map(transcript_digest).collect()
    }
}

/// Run a lossy farm — [`LOSSY_PAIRS`] sessions of [`LOSSY_RECEIVERS`]
/// receivers each, all on one mux under the virtual clock. Each receiver
/// endpoint drops 5% of its datagrams (seeded per endpoint, recorded after
/// the loss); with `lose_round`, pair 0's first receiver also loses one
/// whole repair round. Returns the pairs in index order and whether that
/// round was lost.
pub fn run_lossy_farm<S, R>(
    sender: impl Fn(u32, &[u8]) -> S,
    receiver: impl Fn(u32, u32) -> R,
    lose_round: bool,
) -> (Vec<LossyPair>, bool)
where
    S: SenderMachine + 'static,
    R: ReceiverMachine + 'static,
{
    let lost = Arc::new(AtomicBool::new(false));
    let mut mux: Mux<Box<dyn PollTransport>, _> =
        Mux::new(MuxConfig::default(), VirtualClock::new());
    let mut pairs = Vec::new();
    for i in 0..LOSSY_PAIRS {
        let hub = MemHub::new();
        let sender_tp = TranscriptTransport::new(hub.join());
        let mut logs = vec![sender_tp.transcript()];
        mux.add_sender(sender(i, &lossy_payload(i)), Box::new(sender_tp), rt());
        let mut tokens = Vec::new();
        for r in 0..LOSSY_RECEIVERS {
            let seed = 0x10_55E5 ^ (u64::from(i) << 8) ^ u64::from(r);
            let faulty = FaultyTransport::new(hub.join(), FaultConfig::drop_only(0.05), seed);
            let tp: Box<dyn PollTransport> = if lose_round && (i, r) == (0, 0) {
                let tp = TranscriptTransport::new(LoseOneRound::new(faulty, lost.clone()));
                logs.push(tp.transcript());
                Box::new(tp)
            } else {
                let tp = TranscriptTransport::new(faulty);
                logs.push(tp.transcript());
                Box::new(tp)
            };
            tokens.push(mux.add_receiver(receiver(i, r), tp, rt()));
        }
        pairs.push((logs, tokens));
    }
    let outcomes = mux.run();
    assert_eq!(
        outcomes.len(),
        (LOSSY_PAIRS * (1 + LOSSY_RECEIVERS)) as usize
    );
    let pairs = pairs
        .into_iter()
        .map(|(logs, tokens)| LossyPair {
            transcripts: logs.iter().map(|log| log.lock().unwrap().clone()).collect(),
            delivered: tokens
                .iter()
                .map(|tok| {
                    let (_, outcome) = outcomes
                        .iter()
                        .find(|(t, _)| t == tok)
                        .expect("receiver outcome");
                    outcome
                        .receiver_report()
                        .expect("receiver ok")
                        .data
                        .to_vec()
                })
                .collect(),
        })
        .collect();
    (pairs, lost.load(Ordering::Relaxed))
}

/// The NP lossy farm.
pub fn run_lossy_np_farm() -> Vec<LossyPair> {
    run_lossy_farm(
        |i, data| NpSender::new(i, data, lossy_np_cfg(i)).expect("valid config"),
        |i, r| NpReceiver::new(100 * i + r, i, 0.001, u64::from(16 * i + r)),
        false,
    )
    .0
}

/// The N2 lossy farm, and whether its whole-round loss happened.
pub fn run_lossy_n2_farm() -> (Vec<LossyPair>, bool) {
    run_lossy_farm(
        |i, data| N2Sender::new(i, data, lossy_np_cfg(0)).expect("valid config"),
        |i, r| N2Receiver::new(100 * i + r, i, 0.001, u64::from(16 * i + r)),
        true,
    )
}

/// Every endpoint of a lossy farm hashes to `pinned` and every receiver
/// delivered its pair's payload.
pub fn assert_lossy_farm_is_pinned(
    farm: &[LossyPair],
    pinned: &[[u32; 1 + LOSSY_RECEIVERS as usize]],
    label: &str,
) {
    for (i, (pair, want)) in farm.iter().zip(pinned).enumerate() {
        for (r, data) in pair.delivered.iter().enumerate() {
            assert_eq!(
                *data,
                lossy_payload(i as u32),
                "{label} pair {i} receiver {r} bytes"
            );
        }
        assert_eq!(
            pair.digests(),
            want.to_vec(),
            "{label} pair {i}: (sender, receivers..) transcript digests moved"
        );
    }
}
