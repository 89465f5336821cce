//! The per-reception data structures against plain models, over a seed
//! sweep: `GroupDecoder` (what a receiver keeps per transmission group)
//! against a map of what it was given, and `MemHub` (one shared log, a
//! cursor per endpoint) against a queue per endpoint — which is what a
//! multicast group *means*, whatever the hub does to deliver it cheaply.

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;
use parity_multicast::net::{MemHub, Message, NetError, PollTransport, Transport};
use parity_multicast::rse::{
    CodeSpec, GroupDecoder, InsertOutcome, RseDecoder, RseEncoder, RseError,
};

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

/// One endpoint and the queue a per-endpoint-channel hub would hold for it.
struct Member {
    ep: parity_multicast::net::mem::MemEndpoint,
    /// `Ok` datagrams decode to that message; `Err(())` ones are damaged
    /// own-traffic and must surface as a recoverable error.
    queue: VecDeque<Result<Message, ()>>,
    left: bool,
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
        (Some(Ok(want)), Ok(Some(got))) => assert_eq!(got, want, "{ctx}"),
        (Some(Err(())), Err(e)) => assert!(e.is_recoverable(), "{ctx}: {e}"),
        (None, Ok(None)) => assert!(!m.left, "{ctx}: a leaver's empty backlog is Closed"),
        (None, Err(NetError::Closed)) => assert!(m.left, "{ctx}: Closed while joined"),
        (want, got) => panic!("{ctx}: model {want:?}, hub {got:?}"),
    }
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
                    // Damaged own-traffic, foreign bytes, or a real send.
                    let msg = Message::Fin {
                        session: next_session,
                    };
                    next_session += 1;
                    let heard = match draw.below(8) {
                        0 => {
                            let mut raw = msg.encode().to_vec();
                            raw[10] ^= 0x40;
                            members[pick].ep.send_raw(raw.into());
                            Some(Err(()))
                        }
                        1 => {
                            members[pick]
                                .ep
                                .send_raw(Bytes::from_static(b"\0\0not ours"));
                            None
                        }
                        _ => {
                            members[pick].ep.send(&msg).unwrap();
                            Some(Ok(msg))
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
    }
}
