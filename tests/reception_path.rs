//! The per-reception data structures against plain models, over a seed
//! sweep: `GroupDecoder` (what a receiver keeps per transmission group)
//! against a map of what it was given, and `MemHub` (one shared log, a
//! cursor per endpoint) against a queue per endpoint — which is what a
//! multicast group *means*, whatever the hub does to deliver it cheaply
//! (one shared log, each datagram decoded once for all its readers).
//! Then the ownership of a delivered byte, by address: a report's chunks
//! *are* the datagrams that arrived, the sender's packets are one buffer,
//! and `Payload` against a `Vec<u8>`.

mod common;

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Duration;

use bytes::Bytes;
use parity_multicast::mux::VirtualClock;
use parity_multicast::net::wire::HEADER_LEN;
use parity_multicast::net::{
    FaultConfig, FaultyTransport, MemHub, Message, NetError, PollTransport, Transport,
};
use parity_multicast::obs::Obs;
use parity_multicast::protocol::n2::{N2Receiver, N2Sender};
use parity_multicast::protocol::runtime::{ReceiverMachine, ReceiverReport, SenderMachine};
use parity_multicast::protocol::{
    CompletionPolicy, NpConfig, NpReceiver, NpSender, Payload, SessionPlan,
};
use parity_multicast::rse::{
    CodeSpec, GroupDecoder, InsertOutcome, RseDecoder, RseEncoder, RseError,
};
use proptest::prelude::*;

/// Seeded draws (`xorshift64*`), so a failure names its seed.
struct Draw(u64);

impl Draw {
    fn below(&mut self, bound: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % bound
    }
}

/// What the accumulator owes its caller, stated on a map of the packets it
/// accepted: the checks in their documented order, storing stops at `k`.
fn expected_insert(
    held: &mut BTreeMap<usize, Bytes>,
    spec: &CodeSpec,
    index: usize,
    payload: &Bytes,
) -> Result<InsertOutcome, RseError> {
    let (k, n) = (spec.k(), spec.n());
    if index >= n {
        return Err(RseError::IndexOutOfRange { index, n });
    }
    if let Some(first) = held.values().next() {
        if first.len() != payload.len() {
            return Err(RseError::PacketSizeMismatch {
                expected: first.len(),
                got: payload.len(),
            });
        }
    }
    match held.get(&index) {
        Some(existing) if existing == payload => return Ok(InsertOutcome::Duplicate),
        Some(_) => return Err(RseError::DuplicateShare { index }),
        None => {}
    }
    if held.len() >= k {
        return Ok(InsertOutcome::Unneeded);
    }
    held.insert(index, payload.clone());
    Ok(if held.len() == k {
        InsertOutcome::Decodable
    } else {
        InsertOutcome::Stored
    })
}

#[test]
fn group_decoder_follows_what_arrived_across_seeds() {
    for seed in 1..=40u64 {
        let mut draw = Draw(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        // Protocol NP's geometry: every parity the field allows.
        let k = 1 + draw.below(if seed % 4 == 0 { 100 } else { 12 });
        let spec = CodeSpec::with_max_parity(k).unwrap();
        let n = spec.n();
        let enc = RseEncoder::new(spec).unwrap();
        let dec = RseDecoder::from_encoder(&enc);
        let len = 1 + draw.below(48);
        let data: Vec<Bytes> = (0..k)
            .map(|_| {
                (0..len)
                    .map(|_| draw.below(256) as u8)
                    .collect::<Vec<u8>>()
                    .into()
            })
            .collect();
        // Only some parities are ever offered; encode those.
        let block = |i: usize| -> Bytes {
            if i < k {
                data[i].clone()
            } else {
                enc.parity(i - k, &data).unwrap().into()
            }
        };
        let mut offered: Vec<(usize, Bytes)> = Vec::new();
        let mut held = BTreeMap::new();
        let mut gd = GroupDecoder::new(spec);
        let mut unneeded = 0;
        for _ in 0..3 * k + 8 {
            let (index, payload) = match (draw.below(10), offered.is_empty()) {
                // Heard before: the same bytes, then different ones.
                (0, false) => offered[draw.below(offered.len())].clone(),
                (1, false) => {
                    let (i, p) = &offered[draw.below(offered.len())];
                    (*i, p.iter().map(|b| !b).collect::<Vec<u8>>().into())
                }
                (2, false) => (draw.below(n), vec![0u8; len + 1].into()),
                (3, _) => (n + draw.below(400), block(0)),
                // A lossy, sometimes reordered pass over data then parities.
                _ => {
                    let i = if draw.below(4) == 0 {
                        draw.below(n.min(k + 16))
                    } else {
                        offered.len() % n
                    };
                    (i, block(i))
                }
            };
            let want = expected_insert(&mut held, &spec, index, &payload);
            unneeded += u64::from(want == Ok(InsertOutcome::Unneeded));
            assert_eq!(
                gd.insert(index, payload.clone()),
                want,
                "seed {seed} index {index}"
            );
            if want.is_ok() && !offered.iter().any(|(i, _)| *i == index) {
                offered.push((index, payload));
            }
            let missing: Vec<usize> = (0..k).filter(|i| !held.contains_key(i)).collect();
            assert_eq!(gd.received(), held.len(), "seed {seed}");
            assert_eq!(gd.needed(), k - held.len(), "seed {seed}");
            assert_eq!(gd.data_received(), k - missing.len(), "seed {seed}");
            assert_eq!(gd.all_data_received(), missing.is_empty(), "seed {seed}");
            assert_eq!(gd.missing_data(), missing, "seed {seed}");
            assert_eq!(gd.unneeded_receptions(), unneeded, "seed {seed}");
            assert_eq!(
                gd.data_if_complete().is_some(),
                missing.is_empty(),
                "seed {seed}"
            );
        }
        if held.len() < k {
            let short = RseError::NotEnoughShares {
                have: held.len(),
                need: k,
            };
            assert_eq!(gd.reconstruct(&dec), Err(short), "seed {seed}");
            continue;
        }
        let rebuilt = gd.reconstruct(&dec).unwrap();
        assert_eq!(rebuilt, data, "seed {seed}");
        for (i, packet) in rebuilt.iter().enumerate() {
            // What arrived comes back as the storage that was inserted.
            let arrived = held.get(&i).is_some_and(|p| p.as_ptr() == packet.as_ptr());
            assert_eq!(arrived, held.contains_key(&i), "seed {seed} packet {i}");
        }
    }
}

/// A datagram a member is owed: the message it decodes to and, for a
/// `Packet`, the datagram its payload must be a window of. `None` is
/// damaged own-traffic, which must surface as a recoverable error.
type Owed = Option<(Message, Option<Bytes>)>;

/// One endpoint and the queue a per-endpoint-channel hub would hold for it.
struct Member {
    ep: parity_multicast::net::mem::MemEndpoint,
    queue: VecDeque<Owed>,
    left: bool,
}

/// Where a sealed packet's payload sits in its datagram.
fn payload_in(raw: &Bytes) -> usize {
    raw.as_ptr() as usize + HEADER_LEN + 14
}

fn check_poll(m: &mut Member, blocking: bool, ctx: &str) {
    let got = if blocking {
        // Never parks: a backlog or `Closed` answers at once, and an
        // empty joined endpoint is only ever polled.
        m.ep.recv_timeout(std::time::Duration::from_secs(60))
    } else {
        m.ep.poll_recv()
    };
    match (m.queue.pop_front(), got) {
        (Some(Some((want, raw))), Ok(Some(got))) => {
            if let (Some(raw), Message::Packet { payload, .. }) = (raw, &got) {
                let at = payload.as_ptr() as usize;
                assert_eq!(at, payload_in(&raw), "{ctx}: a window of the sent datagram");
            }
            assert_eq!(got, want, "{ctx}");
        }
        (Some(None), Err(e @ NetError::Corrupt(_))) => assert!(e.is_recoverable(), "{ctx}"),
        (None, Ok(None)) => assert!(!m.left, "{ctx}: a leaver's empty backlog is Closed"),
        (None, Err(NetError::Closed)) => assert!(m.left, "{ctx}: Closed while joined"),
        (want, got) => panic!("{ctx}: model {want:?}, hub {got:?}"),
    }
}

/// A sealed `Packet` of seeded header and payload (1–48 bytes).
fn seeded_packet(draw: &mut Draw, session: u32) -> Message {
    let n = 1 + draw.below(255) as u16;
    let len = 1 + draw.below(48);
    Message::Packet {
        session,
        group: draw.below(1 << 20) as u32,
        index: draw.below(n as usize) as u16,
        k: 1 + draw.below(n as usize) as u16,
        n,
        payload: (0..len)
            .map(|_| draw.below(256) as u8)
            .collect::<Vec<u8>>()
            .into(),
    }
}

/// `raw` with one seeded bit flipped past the magic: our traffic, damaged.
fn flip_one_bit(draw: &mut Draw, raw: &Bytes) -> Bytes {
    let mut raw = raw.to_vec();
    let at = 2 + draw.below(raw.len() - 2);
    raw[at] ^= 1 << draw.below(8);
    raw.into()
}

#[test]
fn mem_hub_is_a_queue_per_endpoint_across_seeds() {
    for seed in 1..=40u64 {
        let mut draw = Draw(seed.wrapping_mul(0xd1b5_4a32_d192_ed03));
        let hub = MemHub::new();
        let mut members: Vec<Member> = Vec::new();
        let mut next_session = 0u32;
        for step in 0..600 {
            let ctx = format!("seed {seed} step {step}");
            let pick = draw.below(members.len().max(1));
            match (draw.below(24), members.is_empty()) {
                (0, _) | (_, true) => members.push(Member {
                    ep: hub.join(),
                    queue: VecDeque::new(),
                    left: false,
                }),
                (1, _) => {
                    members[pick].ep.leave();
                    members[pick].left = true;
                }
                (2, _) => drop(members.swap_remove(pick)),
                (3..=10, _) => {
                    // Damaged own-traffic, foreign bytes, or a real send:
                    // a sealed packet, or a `Fin` through `send`.
                    let msg = seeded_packet(&mut draw, next_session);
                    let raw = msg.encode();
                    next_session += 1;
                    let sender = &mut members[pick].ep;
                    let heard: Option<Owed> = match draw.below(8) {
                        0 => {
                            sender.send_raw(flip_one_bit(&mut draw, &raw));
                            Some(None)
                        }
                        1 => {
                            let before = hub.retained();
                            sender.send_raw(Bytes::from_static(b"\0\0not ours"));
                            assert_eq!(hub.retained(), before, "{ctx}: foreign bytes kept");
                            None
                        }
                        2 => {
                            let fin = Message::Fin {
                                session: next_session,
                            };
                            sender.send(&fin).unwrap();
                            Some(Some((fin, None)))
                        }
                        _ => {
                            sender.send_raw(raw.clone());
                            Some(Some((msg, Some(raw))))
                        }
                    };
                    for (i, m) in members.iter_mut().enumerate() {
                        if i != pick && !m.left {
                            m.queue.extend(heard.clone());
                        }
                    }
                }
                _ => {
                    let m = &mut members[pick];
                    let blocking = (m.left || !m.queue.is_empty()) && draw.below(3) == 0;
                    check_poll(m, blocking, &ctx);
                }
            }
            let joined = members.iter().filter(|m| !m.left).count();
            assert_eq!(hub.endpoints(), joined, "{ctx}");
        }
        // Everything still owed is delivered, in order, to the last entry.
        for (i, m) in members.iter_mut().enumerate() {
            while !m.queue.is_empty() {
                check_poll(m, false, &format!("seed {seed} final drain of {i}"));
            }
            check_poll(
                m,
                false,
                &format!("seed {seed} endpoint {i} after its last"),
            );
        }
        assert_eq!(hub.retained(), 0, "seed {seed}: everything read");

        // One datagram, R readers: a foreign one is never kept, a damaged
        // one surfaces exactly once at each, a sealed one is one buffer.
        for r in [1, 4, 64] {
            let ctx = format!("seed {seed} R = {r}");
            let hub = MemHub::new();
            let tx = hub.join();
            let mut rx: Vec<_> = (0..r).map(|_| hub.join()).collect();
            tx.send_raw(Bytes::from_static(b"\0\0not ours"));
            assert_eq!(hub.retained(), 0, "{ctx}");
            let msg = seeded_packet(&mut draw, 0);
            let raw = msg.encode();
            tx.send_raw(flip_one_bit(&mut draw, &raw));
            tx.send_raw(raw.clone());
            for ep in &mut rx {
                assert!(matches!(ep.poll_recv(), Err(NetError::Corrupt(_))), "{ctx}");
                let got = ep.poll_recv().unwrap().expect("the sealed packet");
                let Message::Packet { payload, .. } = &got else {
                    panic!("{ctx}: {got:?}");
                };
                assert_eq!(payload.as_ptr() as usize, payload_in(&raw), "{ctx}");
                assert_eq!(got, msg, "{ctx}");
                assert_eq!(ep.poll_recv().unwrap(), None, "{ctx}: once each");
            }
            assert_eq!(hub.retained(), 0, "{ctx}");
        }
    }
}

/// A receiver's endpoint that keeps (alive, so no address is ever reused)
/// the payload of every packet it hands to its machine.
struct Noting<T> {
    inner: T,
    delivered: Vec<Bytes>,
}

impl<T> Noting<T> {
    fn note(
        &mut self,
        got: Result<Option<Message>, NetError>,
    ) -> Result<Option<Message>, NetError> {
        if let Ok(Some(Message::Packet { payload, .. })) = &got {
            self.delivered.push(payload.clone());
        }
        got
    }
}

impl<T: PollTransport> Transport for Noting<T> {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        self.inner.send(msg)
    }
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, NetError> {
        let got = self.inner.recv_timeout(timeout);
        self.note(got)
    }
}

impl<T: PollTransport> PollTransport for Noting<T> {
    fn poll_recv(&mut self) -> Result<Option<Message>, NetError> {
        let got = self.inner.poll_recv();
        self.note(got)
    }
}

const PACKET: usize = 128;

fn fanout_cfg() -> NpConfig {
    let mut cfg = common::np_cfg();
    cfg.completion = CompletionPolicy::KnownReceivers(4);
    cfg.payload_len = PACKET;
    cfg
}

/// One sender and four receivers on a `MemHub`, each receiver dropping
/// with probability `drop`: every receiver's report, with the addresses
/// of the packet payloads that reached its machine.
fn fanout_of_4<S, R>(
    sender: S,
    receiver: impl Fn(u32) -> R,
    drop: f64,
) -> Vec<(ReceiverReport, BTreeSet<usize>)>
where
    S: SenderMachine + 'static,
    R: ReceiverMachine + 'static,
{
    let hub = MemHub::new();
    let mut sender_tp = hub.join();
    let mut tps: Vec<_> = (0..4)
        .map(|id| Noting {
            inner: FaultyTransport::new(hub.join(), FaultConfig::drop_only(drop), 77 + id),
            delivered: Vec::new(),
        })
        .collect();
    let (sent, reports) = common::run_session(
        VirtualClock::new(),
        common::rt(),
        &Obs::null(),
        (sender, &mut sender_tp as &mut dyn PollTransport),
        tps.iter_mut()
            .enumerate()
            .map(|(id, tp)| (receiver(id as u32), tp as &mut dyn PollTransport)),
    );
    sent.expect("sender completes");
    let reports = reports.into_iter().map(|r| r.expect("receiver completes"));
    reports
        .zip(&tps)
        .map(|(rep, tp)| {
            let at = tp.delivered.iter().map(|p| p.as_ptr() as usize).collect();
            (rep, at)
        })
        .collect()
}

/// Loss-free, every chunk of every report is the datagram the hub
/// delivered — one buffer per packet for all four receivers — and not the
/// sender's: its packets lie `PACKET` apart in one allocation, which two
/// live datagrams (each `PACKET` plus a header long) cannot.
fn assert_reports_share_the_datagrams(runs: &[(ReceiverReport, BTreeSet<usize>)], data: &[u8]) {
    let (first, _) = &runs[0];
    assert_eq!(first.data.chunks().len(), data.len().div_ceil(PACKET));
    for (rep, delivered) in runs {
        assert_eq!(rep.data, data);
        assert_eq!(rep.counters.packets_decoded, 0, "loss-free");
        for (mine, theirs) in rep.data.chunks().iter().zip(first.data.chunks()) {
            assert_eq!(mine.as_ptr(), theirs.as_ptr(), "one buffer per packet");
            assert!(delivered.contains(&(mine.as_ptr() as usize)));
        }
        for pair in rep.data.chunks().windows(2) {
            assert_ne!(
                pair[0].as_ptr() as usize + PACKET,
                pair[1].as_ptr() as usize
            );
        }
    }
}

#[test]
fn loss_free_reports_share_one_datagram_per_packet() {
    let data = common::payload(5 * 8 * PACKET + 300);
    let np = fanout_of_4(
        NpSender::new(5, &data, fanout_cfg()).unwrap(),
        |id| NpReceiver::new(id, 5, 0.001, id as u64),
        0.0,
    );
    assert_reports_share_the_datagrams(&np, &data);
    let n2 = fanout_of_4(
        N2Sender::new(6, &data, fanout_cfg()).unwrap(),
        |id| N2Receiver::new(id, 6, 0.001, id as u64),
        0.0,
    );
    assert_reports_share_the_datagrams(&n2, &data);
}

#[test]
fn under_loss_only_reconstructed_packets_own_their_storage() {
    let data = common::payload(40 * 8 * PACKET + 17);
    let runs = fanout_of_4(
        NpSender::new(7, &data, fanout_cfg()).unwrap(),
        |id| NpReceiver::new(id, 7, 0.001, id as u64),
        0.1,
    );
    let mut decoded = 0;
    for (rep, delivered) in &runs {
        assert_eq!(rep.data, data);
        let chunks = rep.data.chunks().iter();
        let private = chunks.filter(|c| !delivered.contains(&(c.as_ptr() as usize)));
        assert_eq!(private.count() as u64, rep.counters.packets_decoded);
        decoded += rep.counters.packets_decoded;
    }
    assert!(
        decoded > 0,
        "p = 0.1 over 321 packets x 4 lost no data packet"
    );
}

#[test]
fn split_is_consecutive_windows_of_one_zero_padded_buffer() {
    let plan = SessionPlan::new(1, 7 * 16 + 5, 3, 2, 16).unwrap();
    let split = plan.split(&common::payload(7 * 16 + 5));
    assert_eq!(split.iter().map(Vec::len).collect::<Vec<_>>(), [3, 3, 2]);
    let packets: Vec<&Bytes> = split.iter().flatten().collect();
    for pair in packets.windows(2) {
        assert_eq!(pair[0].as_ptr() as usize + 16, pair[1].as_ptr() as usize);
    }
    assert_eq!(packets[7][5..], [0; 11]);
}

proptest! {
    /// `Payload` is the first `cut` bytes of its packets, however they are
    /// chunked (empty packets included) and wherever the cut falls.
    #[test]
    fn payload_is_the_bytes_of_its_packets(
        packets in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 0..12),
        cut in 0usize..500,
        flip in any::<usize>(),
    ) {
        let all = packets.concat();
        let cut = cut % (all.len() + 3);
        let model = all[..cut.min(all.len())].to_vec();
        let payload = Payload::new(packets.into_iter().map(Bytes::from).collect(), cut);
        prop_assert_eq!(payload.len(), model.len());
        prop_assert_eq!(payload.is_empty(), model.is_empty());
        prop_assert!(payload.chunks().iter().all(|c| !c.is_empty()));
        let laid_out: Vec<u8> = payload.chunks().iter().flat_map(|c| c.to_vec()).collect();
        prop_assert_eq!(laid_out, model.clone());
        prop_assert_eq!(payload.to_vec(), model.clone());
        let borrowed: &[u8] = &model;
        prop_assert!(payload == model && payload == model[..] && payload == borrowed);
        prop_assert!(payload.clone() == model);

        let mut longer = model.clone();
        longer.push(0);
        prop_assert!(payload != longer && payload != longer[..]);
        if !model.is_empty() {
            prop_assert!(payload != model[1..] && payload != model[..model.len() - 1]);
            let mut flipped = model.clone();
            flipped[flip % model.len()] ^= 1 << (flip % 8);
            prop_assert!(payload != flipped && payload != flipped[..]);
        }
    }
}
