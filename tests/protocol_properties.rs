//! Property-based tests of the protocol state machines: totality against
//! arbitrary message streams, and guaranteed convergence of deterministic
//! lossy exchanges (no wall clock, no threads — pure machine stepping).

use bytes::Bytes;
use proptest::prelude::*;

use parity_multicast::net::Message;
use parity_multicast::protocol::receiver::ReceiverAction;
use parity_multicast::protocol::sender::SenderStep;
use parity_multicast::protocol::{CompletionPolicy, NpConfig, NpReceiver, NpSender};

fn config(k: usize, h: usize) -> NpConfig {
    let mut c = NpConfig::small(CompletionPolicy::KnownReceivers(1));
    c.k = k;
    c.h = h;
    c.payload_len = 32;
    c.nak_slot = 0.001;
    c.round_timeout = 0.05;
    c
}

fn arbitrary_message() -> impl Strategy<Value = Message> {
    let session = 0u32..3;
    prop_oneof![
        (
            session.clone(),
            0u32..4,
            0u16..12,
            1u16..8,
            proptest::collection::vec(any::<u8>(), 0..40)
        )
            .prop_map(|(session, group, index, k, payload)| {
                let n = k + 4;
                Message::Packet {
                    session,
                    group,
                    index: index % n,
                    k,
                    n,
                    payload: Bytes::from(payload),
                }
            }),
        (session.clone(), 0u32..4, 0u16..30, 0u16..5).prop_map(|(session, group, sent, round)| {
            Message::Poll {
                session,
                group,
                sent,
                round,
            }
        }),
        (session.clone(), 0u32..4, 0u16..30, 0u16..5).prop_map(
            |(session, group, needed, round)| {
                Message::Nak {
                    session,
                    group,
                    needed,
                    round,
                }
            }
        ),
        (session.clone(), 0u32..4, 0u16..12).prop_map(|(session, group, index)| {
            Message::NakPacket {
                session,
                group,
                index,
            }
        }),
        (
            session.clone(),
            0u32..5,
            1u16..8,
            1u16..8,
            1u32..64,
            0u64..10_000
        )
            .prop_map(|(session, groups, k, last_k, payload_len, total_bytes)| {
                Message::Announce {
                    session,
                    groups,
                    k,
                    n: k + 4,
                    last_k: last_k.min(k),
                    payload_len,
                    total_bytes,
                }
            }),
        (session.clone(), 0u32..8)
            .prop_map(|(session, receiver)| Message::Done { session, receiver }),
        session.prop_map(|session| Message::Fin { session }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary (even adversarial) message streams never panic the
    /// receiver; errors are returned, not thrown, and the machine stays
    /// usable afterwards for messages it accepts.
    #[test]
    fn receiver_total_against_arbitrary_streams(
        msgs in proptest::collection::vec(arbitrary_message(), 0..60),
        seed in any::<u64>(),
    ) {
        let mut rx = NpReceiver::new(1, 1, 0.001, seed);
        let mut t = 0.0f64;
        for m in &msgs {
            t += 0.001;
            let _ = rx.handle(m, t); // Err is acceptable; panic is not
            let _ = rx.on_timer(t);
        }
        let _ = rx.next_deadline();
        let _ = rx.is_complete();
    }

    /// Arbitrary feedback never panics the sender, and it never transmits
    /// a packet with an out-of-range FEC index.
    #[test]
    fn sender_total_against_arbitrary_feedback(
        msgs in proptest::collection::vec(arbitrary_message(), 0..60),
        data_len in 0usize..300,
        seed in any::<u64>(),
    ) {
        let data: Vec<u8> = (0..data_len).map(|i| (i as u64 ^ seed) as u8).collect();
        let mut tx = NpSender::new(1, &data, config(3, 5)).unwrap();
        let mut t = 0.0f64;
        for m in &msgs {
            t += 0.001;
            let _ = tx.handle(m, t);
            for _ in 0..3 {
                match tx.next_step(t) {
                    SenderStep::Transmit(Message::Packet { index, n, .. }) => {
                        prop_assert!(index < n, "index {index} >= n {n}");
                    }
                    SenderStep::Transmit(_) => {}
                    SenderStep::WaitUntil(_) | SenderStep::Finished => break,
                }
            }
        }
    }

    /// Deterministic lossy exchange always converges: drop packets by an
    /// arbitrary boolean pattern (re-used cyclically), rely on polls,
    /// NAKs and announces, and the receiver must end complete with the
    /// exact payload in bounded steps.
    #[test]
    fn lossy_exchange_always_converges(
        data_len in 1usize..400,
        drops in proptest::collection::vec(any::<bool>(), 16..128),
        seed in any::<u64>(),
    ) {
        let data: Vec<u8> = (0..data_len).map(|i| (i * 17 + 3) as u8).collect();
        let mut tx = NpSender::new(9, &data, config(4, 8)).unwrap();
        let mut rx = NpReceiver::new(0, 9, 0.001, seed);
        let mut drop_iter = drops.iter().cycle();
        let mut now = 0.0f64;
        let mut complete = false;
        let mut to_sender: Vec<Message> = Vec::new();
        // Generous step bound: every step advances time by 1 ms; the
        // machines must converge long before the bound.
        for _ in 0..40_000 {
            now += 0.001;
            // Sender turn: up to one transmission per tick.
            match tx.next_step(now) {
                SenderStep::Transmit(msg) => {
                    // Drop *data-plane* packets by the pattern; control
                    // messages get through (their loss is exercised by the
                    // e2e fault-injection tests; dropping every message
                    // class by an adversarial pattern could starve the
                    // exchange forever, which is not a protocol bug).
                    let dropped = matches!(msg, Message::Packet { .. })
                        && *drop_iter.next().unwrap();
                    if !dropped {
                        for a in rx.handle(&msg, now).unwrap() {
                            match a {
                                ReceiverAction::Send(m) => to_sender.push(m),
                                ReceiverAction::Complete => complete = true,
                                ReceiverAction::GroupDecoded { .. } => {}
                            }
                        }
                    }
                }
                SenderStep::WaitUntil(_) => {}
                SenderStep::Finished => break,
            }
            // Receiver timers.
            for a in rx.on_timer(now) {
                if let ReceiverAction::Send(m) = a {
                    to_sender.push(m);
                }
            }
            for m in std::mem::take(&mut to_sender) {
                tx.handle(&m, now).unwrap();
            }
        }
        prop_assert!(complete, "exchange did not converge (len={data_len})");
        prop_assert_eq!(rx.payload().unwrap(), data);
    }

    /// The same property for the N2 baseline.
    #[test]
    fn n2_lossy_exchange_converges(
        data_len in 1usize..300,
        drops in proptest::collection::vec(any::<bool>(), 16..96),
        seed in any::<u64>(),
    ) {
        use parity_multicast::protocol::n2::{N2Receiver, N2Sender};
        let data: Vec<u8> = (0..data_len).map(|i| (i * 29 + 1) as u8).collect();
        let mut tx = N2Sender::new(9, &data, config(4, 0)).unwrap();
        let mut rx = N2Receiver::new(0, 9, 0.001, seed);
        let mut drop_iter = drops.iter().cycle();
        let mut now = 0.0f64;
        let mut complete = false;
        let mut to_sender: Vec<Message> = Vec::new();
        for _ in 0..40_000 {
            now += 0.001;
            match tx.next_step(now) {
                SenderStep::Transmit(msg) => {
                    let dropped = matches!(msg, Message::Packet { .. })
                        && *drop_iter.next().unwrap();
                    if !dropped {
                        for a in rx.handle(&msg, now).unwrap() {
                            match a {
                                ReceiverAction::Send(m) => to_sender.push(m),
                                ReceiverAction::Complete => complete = true,
                                ReceiverAction::GroupDecoded { .. } => {}
                            }
                        }
                    }
                }
                SenderStep::WaitUntil(_) => {}
                SenderStep::Finished => break,
            }
            for a in rx.on_timer(now) {
                if let ReceiverAction::Send(m) = a {
                    to_sender.push(m);
                }
            }
            for m in std::mem::take(&mut to_sender) {
                tx.handle(&m, now).unwrap();
            }
        }
        prop_assert!(complete, "N2 exchange did not converge (len={data_len})");
        prop_assert_eq!(rx.payload().unwrap(), data);
    }
}
