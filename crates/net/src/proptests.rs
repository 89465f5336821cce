//! Property-based tests: wire-format totality and suppression invariants.

use bytes::Bytes;
use proptest::prelude::*;

use crate::suppression::NakSuppressor;
use crate::wire::Message;

fn message_strategy() -> impl Strategy<Value = Message> {
    prop_oneof![
        (
            any::<u32>(),
            any::<u32>(),
            0u16..50,
            1u16..50,
            proptest::collection::vec(any::<u8>(), 0..256)
        )
            .prop_filter_map("valid geometry", |(session, group, index, k, payload)| {
                // Build a consistent (index, k, n) triple.
                let n = k + (index % 8) + 1;
                let index = index % n;
                Some(Message::Packet {
                    session,
                    group,
                    index,
                    k: k.min(n),
                    n,
                    payload: Bytes::from(payload),
                })
            }),
        (any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>()).prop_map(
            |(session, group, sent, round)| Message::Poll {
                session,
                group,
                sent,
                round
            }
        ),
        (any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>()).prop_map(
            |(session, group, needed, round)| Message::Nak {
                session,
                group,
                needed,
                round
            }
        ),
        (any::<u32>(), any::<u32>(), any::<u16>()).prop_map(|(session, group, index)| {
            Message::NakPacket {
                session,
                group,
                index,
            }
        }),
        (any::<u32>(), any::<u32>())
            .prop_map(|(session, receiver)| Message::Done { session, receiver }),
        any::<u32>().prop_map(|session| Message::Fin { session }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// encode -> decode is the identity for every valid message.
    #[test]
    fn wire_roundtrip(msg in message_strategy()) {
        let decoded = Message::decode(msg.encode()).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    /// decode never panics on arbitrary bytes — it returns Ok or Err.
    #[test]
    fn decode_total(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Message::decode(Bytes::from(bytes));
    }

    /// decode of a corrupted valid message never panics (and if it decodes,
    /// the result is again encodable).
    #[test]
    fn decode_corrupted(msg in message_strategy(), flip in any::<(usize, u8)>()) {
        let mut raw = msg.encode().to_vec();
        if !raw.is_empty() {
            let pos = flip.0 % raw.len();
            raw[pos] ^= flip.1;
        }
        if let Ok(decoded) = Message::decode(Bytes::from(raw)) {
            let _ = decoded.encode();
        }
    }

    /// encode → corrupt(0 flips) → decode is the exact identity: an
    /// undamaged datagram always passes the integrity check and
    /// round-trips byte-for-byte.
    #[test]
    fn zero_flip_roundtrip_exact(msg in message_strategy()) {
        let raw = msg.encode();
        let reencoded = Message::decode(raw.clone()).unwrap().encode();
        prop_assert_eq!(&reencoded[..], &raw[..]);
    }

    /// The XXH32 wire checksum (wire v3) absorbs a datagram in aligned
    /// 4-byte words, each step a bijection in the word it absorbs, so any
    /// damage confined to one whole aligned word (any position, the
    /// checksum field included) never mis-parses into a valid Message. A
    /// trailing partial word is absorbed byte by byte; there the
    /// certainty covers damage to one byte.
    #[test]
    fn checksum_detects_damage_within_one_word(
        msg in message_strategy(),
        pos in any::<usize>(),
        mask in 1u32..=u32::MAX,
    ) {
        let mut raw = msg.encode().to_vec();
        let at = pos % raw.len();
        let word = at - at % 4;
        let mask = mask.to_le_bytes();
        if word + 4 <= raw.len() {
            for (b, m) in raw[word..word + 4].iter_mut().zip(mask) {
                *b ^= m;
            }
        } else {
            raw[at] ^= mask.into_iter().find(|&m| m != 0).expect("mask is non-zero");
        }
        match Message::decode(Bytes::from(raw)) {
            Ok(m) => prop_assert!(false, "damage in word at {} mis-parsed as {:?}", word, m),
            Err(e) => prop_assert!(e.is_recoverable(), "damage must stay recoverable: {}", e),
        }
    }

    /// Truncating an encoded datagram anywhere short of its full length
    /// never yields a valid Message.
    #[test]
    fn truncation_never_misparses(msg in message_strategy(), cut in any::<usize>()) {
        let raw = msg.encode();
        let cut = cut % raw.len();
        prop_assert!(Message::decode(raw.slice(0..cut)).is_err());
    }

    /// Suppression: deadlines always fall inside the scheduled slot, and a
    /// heard NAK with m >= l always cancels.
    #[test]
    fn suppression_slot_bounds(
        sent in 1u16..200,
        needed in 1u16..200,
        slot in 1u32..1000,
        seed in any::<u64>(),
        now in 0.0f64..1e6,
    ) {
        let slot = slot as f64 * 1e-3;
        let mut s = NakSuppressor::new(slot, seed);
        s.on_poll(0, 1, sent, needed, now);
        let deadline = s.next_deadline().unwrap();
        let slot_index = sent.saturating_sub(needed) as f64;
        prop_assert!(deadline >= now + slot_index * slot - 1e-9);
        prop_assert!(deadline <= now + (slot_index + 1.0) * slot + 1e-9);
        s.on_nak_heard(0, needed); // equal demand cancels
        prop_assert_eq!(s.pending_count(), 0);
    }

    /// Firing consumes: after take_due at a late time, nothing remains.
    #[test]
    fn suppression_fire_consumes(
        polls in proptest::collection::vec((any::<u32>(), 1u16..100, 1u16..100), 1..20),
        seed in any::<u64>(),
    ) {
        let mut s = NakSuppressor::new(0.01, seed);
        for &(group, sent, needed) in &polls {
            s.on_poll(group, 1, sent.max(needed), needed, 0.0);
        }
        let fired = s.take_due(1e9);
        prop_assert_eq!(s.pending_count(), 0);
        // One NAK per distinct group at most.
        let mut groups: Vec<u32> = fired.iter().map(|f| f.group).collect();
        groups.sort_unstable();
        groups.dedup();
        prop_assert_eq!(groups.len(), fired.len());
    }
}
