//! Wire format (version 3).
//!
//! Every datagram carries one [`Message`]. Layout (all integers
//! big-endian):
//!
//! ```text
//!     0      2      3      4          8          12
//!     +------+------+------+----------+----------+------ ... ----+
//!     | MAGIC| VER  | TYPE | CKSUM    | SESSION  |  type body    |
//!     +------+------+------+----------+----------+------ ... ----+
//! ```
//!
//! `Packet` unifies data and parity: an FEC-block index `< k` is a data
//! packet, `>= k` a parity — receivers treat both uniformly, which is the
//! whole point of parity repair. Block geometry `(k, n)` rides in every
//! packet so receivers are stateless per group.
//!
//! ## Integrity
//!
//! `CKSUM` is the XXH32 digest (seed 0) of the *entire* datagram with the
//! checksum field itself zeroed. UDP's 16-bit ones-complement checksum is
//! optional (and absent on many paths); relying on it left bit-flipped
//! datagrams free to mis-parse into valid-looking `Message`s. XXH32 runs
//! four independent lanes over 16-byte stripes: a sixth of what wire v2's
//! byte-serial FNV-1a cost on each side of the socket.
//!
//! Damage confined to one byte, or to one whole 4-byte-aligned word, is
//! detected with certainty. XXH32 absorbs the buffer in units: a word per
//! lane per stripe (`acc = rotl(acc + w * P2, 13) * P1`), then whole tail
//! words (`h = rotl(h + w * P3, 17) * P4`), then tail bytes
//! (`h = rotl(h + b * P5, 11) * P1`). The primes are odd, so every step
//! is injective in the unit it absorbs (state fixed) and a bijection of
//! the state (unit fixed). Two equal-length buffers that differ in one
//! unit leave that step in different states; later steps absorb identical
//! input and keep them apart; the lane merge (a sum of rotations) differs
//! when exactly one lane does; the final avalanche (xor-shifts, odd
//! multiplies) is a bijection. Stripes and tail start on multiples of 16,
//! so an aligned word is exactly one unit. A flip inside `CKSUM` changes
//! the stored value, not the computed one. Wider damage is caught with
//! probability `1 - 2^-32`. A mismatch surfaces as the *recoverable*
//! [`NetError::Corrupt`]; the header magic guards against foreign
//! datagrams on the group, which stay a silent skip.
//!
//! ## Versions
//!
//! Versions 1 (no checksum; `SESSION` at offset 4) and 2 (this layout,
//! sealed with FNV-1a) are not accepted: corruption detection is
//! load-bearing for the hostile-network guarantees, so the version byte
//! is bumped rather than negotiated. Integrity is checked *before* the
//! version byte is trusted, so a well-formed v2 datagram reads as
//! [`NetError::Corrupt`] (its seal is not the XXH32 of its bytes) and a
//! v1 datagram as `Corrupt` or, if short, `Decode`: never a mis-parse.

use bytes::{Buf, Bytes};

use crate::transport::NetError;

/// Wire magic: "PM".
pub const MAGIC: u16 = 0x504D;
/// Current protocol version. Bumped 1 → 2 when the integrity checksum
/// was inserted at offset 4 and 2 → 3 when it changed from FNV-1a to
/// XXH32; the formats are deliberately incompatible.
pub const VERSION: u8 = 3;
/// Fixed header bytes before the type-specific body:
/// magic(2) + version(1) + type(1) + checksum(4) + session(4).
pub const HEADER_LEN: usize = 12;
/// Maximum payload bytes carried by one packet (fits a UDP datagram with
/// ample headroom).
pub const MAX_PAYLOAD: usize = 60_000;

const P1: u32 = 0x9E37_79B1;
const P2: u32 = 0x85EB_CA77;
const P3: u32 = 0xC2B2_AE3D;
const P4: u32 = 0x27D4_EB2F;
const P5: u32 = 0x1656_67B1;

/// One XXH32 step: fold the little-endian word `w` into `acc`. Forced
/// inline because timing-sensitive tests run this unoptimized.
#[inline(always)]
fn step(acc: u32, w: [u8; 4], mul_in: u32, rot: u32, mul_out: u32) -> u32 {
    acc.wrapping_add(u32::from_le_bytes(w).wrapping_mul(mul_in))
        .rotate_left(rot)
        .wrapping_mul(mul_out)
}

/// Feed each whole 16-byte stripe of `data` to the lanes; returns the rest.
fn absorb_stripes<'a>(lanes: &mut [u32; 4], mut data: &'a [u8]) -> &'a [u8] {
    while data.len() >= 16 {
        let (s, rest) = data.split_at(16);
        lanes[0] = step(lanes[0], [s[0], s[1], s[2], s[3]], P2, 13, P1);
        lanes[1] = step(lanes[1], [s[4], s[5], s[6], s[7]], P2, 13, P1);
        lanes[2] = step(lanes[2], [s[8], s[9], s[10], s[11]], P2, 13, P1);
        lanes[3] = step(lanes[3], [s[12], s[13], s[14], s[15]], P2, 13, P1);
        data = rest;
    }
    data
}

/// XXH32 (seed 0) of `head ‖ body`. No stripe may straddle the two:
/// `head` is whole stripes unless `body` is empty ([`checksum_of`] passes
/// a patched copy of the first stripe and the rest of the datagram).
#[expect(
    clippy::cast_possible_truncation,
    reason = "XXH32 folds the length in mod 2^32"
)]
fn xxh32(head: &[u8], body: &[u8]) -> u32 {
    debug_assert!(body.is_empty() || head.len() & 15 == 0);
    let len = head.len() + body.len();
    let mut lanes = [P1.wrapping_add(P2), P2, 0, 0u32.wrapping_sub(P1)];
    let mut tail = absorb_stripes(&mut lanes, head);
    if !body.is_empty() {
        tail = absorb_stripes(&mut lanes, body);
    }
    let [v1, v2, v3, v4] = lanes;
    let mut h = if len >= 16 {
        v1.rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18))
    } else {
        P5
    };
    h = h.wrapping_add((len & 0xFFFF_FFFF) as u32); // length folds in mod 2^32
    while tail.len() >= 4 {
        let (w, rest) = tail.split_at(4);
        h = step(h, [w[0], w[1], w[2], w[3]], P3, 17, P4);
        tail = rest;
    }
    for &b in tail {
        h = step(h, [b, 0, 0, 0], P5, 11, P1);
    }
    h ^= h >> 15;
    h = h.wrapping_mul(P2);
    h ^= h >> 13;
    h = h.wrapping_mul(P3);
    h ^ (h >> 16)
}

/// Integrity digest of a full datagram: XXH32 with the checksum field
/// (bytes `4..8`) treated as zero. Returns `None` for buffers too short
/// to carry the fixed header.
pub fn checksum_of(datagram: &[u8]) -> Option<u32> {
    if datagram.len() < HEADER_LEN {
        return None;
    }
    // Hash a copy of the first stripe with the field zeroed, the rest in place.
    let (first, rest) = datagram.split_at(datagram.len().min(16));
    let mut patched = [0u8; 16];
    patched[..first.len()].copy_from_slice(first);
    patched[4..8].fill(0);
    Some(xxh32(&patched[..first.len()], rest))
}

/// Recompute and install the checksum of a raw datagram in place.
///
/// A test/chaos utility: after hand-patching bytes of an encoded
/// datagram (to probe structural validation *past* the integrity layer),
/// call this to re-seal it. Buffers shorter than the fixed header are
/// left untouched.
pub fn reseal(datagram: &mut [u8]) {
    if let Some(sum) = checksum_of(datagram) {
        datagram[4..8].copy_from_slice(&sum.to_be_bytes());
    }
}

const TYPE_PACKET: u8 = 1;
const TYPE_POLL: u8 = 2;
const TYPE_NAK: u8 = 3;
const TYPE_NAK_PACKET: u8 = 4;
const TYPE_ANNOUNCE: u8 = 5;
const TYPE_DONE: u8 = 6;
const TYPE_FIN: u8 = 7;
const TYPE_FEC_FRAME: u8 = 8;

/// One protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// A data (`index < k`) or parity (`index >= k`) packet of a
    /// transmission group.
    Packet {
        /// Session this packet belongs to.
        session: u32,
        /// Transmission-group number.
        group: u32,
        /// FEC-block index within the group (`0..n`).
        index: u16,
        /// Data packets per group.
        k: u16,
        /// FEC block size (data + maximum parities).
        n: u16,
        /// Payload bytes (equal length across one group).
        payload: Bytes,
    },
    /// Sender poll `POLL(group, sent)`: asks receivers for the number of
    /// packets they still need to decode `group`; `sent` is the number of
    /// packets transmitted in the just-finished round (the NAK slotting
    /// parameter `s`), `round` the round number.
    Poll {
        session: u32,
        group: u32,
        sent: u16,
        round: u16,
    },
    /// Receiver NAK `NAK(group, needed)` — protocol NP's per-group
    /// feedback: "I need `needed` more packets to decode `group`".
    Nak {
        session: u32,
        group: u32,
        needed: u16,
        round: u16,
    },
    /// Per-packet NAK — protocol N2's feedback: "retransmit packet `index`
    /// of `group`".
    NakPacket {
        session: u32,
        group: u32,
        index: u16,
    },
    /// Session announcement: geometry of the transfer.
    Announce {
        session: u32,
        /// Number of transmission groups.
        groups: u32,
        /// Data packets per full group.
        k: u16,
        /// FEC block size per group.
        n: u16,
        /// Data packets in the final (possibly short) group.
        last_k: u16,
        /// Payload size of every packet.
        payload_len: u32,
        /// Exact byte length of the transfer (strips final-packet padding).
        total_bytes: u64,
    },
    /// A receiver reports the whole session decoded.
    Done { session: u32, receiver: u32 },
    /// Sender closes the session.
    Fin { session: u32 },
    /// A frame of the transparent layered-FEC transport
    /// ([`crate::fec_layer::FecTransport`]): one slot of an FEC block whose
    /// payloads are *opaque inner datagrams* (length-prefixed and padded
    /// for data slots, raw parity bytes otherwise). `session` carries the
    /// sender tag that keeps concurrent senders' blocks apart.
    FecFrame {
        session: u32,
        /// Block sequence number of this sender.
        block: u32,
        /// Slot within the FEC block (`< k` data, `>= k` parity).
        index: u16,
        /// Data slots per block.
        k: u16,
        /// Block size (data + parities).
        n: u16,
        /// Padded inner datagram or parity bytes.
        payload: Bytes,
    },
}

impl Message {
    /// Session id of any message.
    pub fn session(&self) -> u32 {
        match *self {
            Message::Packet { session, .. }
            | Message::Poll { session, .. }
            | Message::Nak { session, .. }
            | Message::NakPacket { session, .. }
            | Message::Announce { session, .. }
            | Message::Done { session, .. }
            | Message::Fin { session }
            | Message::FecFrame { session, .. } => session,
        }
    }

    /// Observability classification of this message. `Packet` splits into
    /// data vs parity by FEC-block index, like the protocol does.
    pub fn obs_kind(&self) -> pm_obs::MsgKind {
        use pm_obs::MsgKind;
        match self {
            Message::Packet { index, k, .. } => {
                if index < k {
                    MsgKind::Data
                } else {
                    MsgKind::Parity
                }
            }
            Message::Poll { .. } => MsgKind::Poll,
            Message::Nak { .. } => MsgKind::Nak,
            Message::NakPacket { .. } => MsgKind::NakPacket,
            Message::Announce { .. } => MsgKind::Announce,
            Message::Done { .. } => MsgKind::Done,
            Message::Fin { .. } => MsgKind::Fin,
            Message::FecFrame { .. } => MsgKind::FecFrame,
        }
    }

    fn type_byte(&self) -> u8 {
        match self {
            Message::Packet { .. } => TYPE_PACKET,
            Message::Poll { .. } => TYPE_POLL,
            Message::Nak { .. } => TYPE_NAK,
            Message::NakPacket { .. } => TYPE_NAK_PACKET,
            Message::Announce { .. } => TYPE_ANNOUNCE,
            Message::Done { .. } => TYPE_DONE,
            Message::Fin { .. } => TYPE_FIN,
            Message::FecFrame { .. } => TYPE_FEC_FRAME,
        }
    }

    /// Bytes of the type-specific body after the fixed header.
    fn body_len(&self) -> usize {
        match self {
            Message::Packet { payload, .. } | Message::FecFrame { payload, .. } => {
                14 + payload.len()
            }
            Message::Poll { .. } | Message::Nak { .. } => 8,
            Message::NakPacket { .. } => 6,
            Message::Announce { .. } => 22,
            Message::Done { .. } => 4,
            Message::Fin { .. } => 0,
        }
    }

    /// Encode into a fresh buffer, sealed with the integrity checksum.
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        Bytes::from(out)
    }

    /// Encode into `out`, replacing its contents. The exact length is
    /// reserved up front, so a reused buffer never reallocates mid-encode.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a payload is bounded far below 4 GiB by the datagram size"
    )]
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        fn put<const N: usize>(out: &mut Vec<u8>, be: [u8; N]) {
            out.extend_from_slice(&be);
        }
        out.clear();
        out.reserve_exact(HEADER_LEN + self.body_len());
        put(out, MAGIC.to_be_bytes());
        put(out, [VERSION, self.type_byte()]);
        put(out, [0; 4]); // checksum placeholder, sealed below
        put(out, self.session().to_be_bytes());
        match self {
            Message::Packet {
                group: seq,
                index,
                k,
                n,
                payload,
                ..
            }
            | Message::FecFrame {
                block: seq,
                index,
                k,
                n,
                payload,
                ..
            } => {
                put(out, seq.to_be_bytes());
                put(out, index.to_be_bytes());
                put(out, k.to_be_bytes());
                put(out, n.to_be_bytes());
                put(out, (payload.len() as u32).to_be_bytes());
                out.extend_from_slice(payload);
            }
            Message::Poll {
                group,
                sent: count,
                round,
                ..
            }
            | Message::Nak {
                group,
                needed: count,
                round,
                ..
            } => {
                put(out, group.to_be_bytes());
                put(out, count.to_be_bytes());
                put(out, round.to_be_bytes());
            }
            Message::NakPacket { group, index, .. } => {
                put(out, group.to_be_bytes());
                put(out, index.to_be_bytes());
            }
            Message::Announce {
                groups,
                k,
                n,
                last_k,
                payload_len,
                total_bytes,
                ..
            } => {
                put(out, groups.to_be_bytes());
                put(out, k.to_be_bytes());
                put(out, n.to_be_bytes());
                put(out, last_k.to_be_bytes());
                put(out, payload_len.to_be_bytes());
                put(out, total_bytes.to_be_bytes());
            }
            Message::Done { receiver, .. } => put(out, receiver.to_be_bytes()),
            Message::Fin { .. } => {}
        }
        debug_assert_eq!(out.len(), HEADER_LEN + self.body_len());
        reseal(out);
    }

    /// Decode one datagram. Total: never panics on arbitrary bytes.
    ///
    /// # Errors
    /// [`NetError::Decode`] on bad magic/version/type, truncation, or an
    /// over-size payload; [`NetError::Corrupt`] when the header carries
    /// our magic but the integrity checksum does not match (damaged in
    /// flight). Both are recoverable
    /// ([`NetError::is_recoverable`]).
    pub fn decode(mut buf: Bytes) -> Result<Message, NetError> {
        fn need(buf: &Bytes, n: usize, what: &'static str) -> Result<(), NetError> {
            if buf.remaining() < n {
                Err(NetError::Decode(format!("truncated {what}")))
            } else {
                Ok(())
            }
        }
        let Some(computed) = checksum_of(&buf) else {
            return Err(NetError::Decode("truncated header".into()));
        };
        let magic = buf.get_u16();
        if magic != MAGIC {
            return Err(NetError::Decode(format!("bad magic {magic:#06x}")));
        }
        // Integrity comes before any other field: a flipped version/type
        // byte must read as corruption, not as a foreign datagram.
        let version = buf.get_u8();
        let ty = buf.get_u8();
        let stored = buf.get_u32();
        let session = buf.get_u32();
        if stored != computed {
            return Err(NetError::Corrupt(format!(
                "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            )));
        }
        if version != VERSION {
            return Err(NetError::Decode(format!("unsupported version {version}")));
        }
        match ty {
            TYPE_PACKET => {
                need(&buf, 14, "packet header")?;
                let group = buf.get_u32();
                let index = buf.get_u16();
                let k = buf.get_u16();
                let n = buf.get_u16();
                let len = buf.get_u32() as usize;
                if len > MAX_PAYLOAD {
                    return Err(NetError::Decode(format!("payload {len} exceeds max")));
                }
                need(&buf, len, "payload")?;
                let payload = buf.split_to(len);
                if index >= n {
                    return Err(NetError::Decode(format!("index {index} >= n {n}")));
                }
                if k == 0 || k > n {
                    return Err(NetError::Decode(format!("bad geometry k={k} n={n}")));
                }
                Ok(Message::Packet {
                    session,
                    group,
                    index,
                    k,
                    n,
                    payload,
                })
            }
            TYPE_POLL => {
                need(&buf, 8, "poll")?;
                Ok(Message::Poll {
                    session,
                    group: buf.get_u32(),
                    sent: buf.get_u16(),
                    round: buf.get_u16(),
                })
            }
            TYPE_NAK => {
                need(&buf, 8, "nak")?;
                Ok(Message::Nak {
                    session,
                    group: buf.get_u32(),
                    needed: buf.get_u16(),
                    round: buf.get_u16(),
                })
            }
            TYPE_NAK_PACKET => {
                need(&buf, 6, "nak-packet")?;
                Ok(Message::NakPacket {
                    session,
                    group: buf.get_u32(),
                    index: buf.get_u16(),
                })
            }
            TYPE_ANNOUNCE => {
                need(&buf, 22, "announce")?;
                let groups = buf.get_u32();
                let k = buf.get_u16();
                let n = buf.get_u16();
                let last_k = buf.get_u16();
                let payload_len = buf.get_u32();
                let total_bytes = buf.get_u64();
                if k == 0 || k > n || last_k == 0 || last_k > k {
                    return Err(NetError::Decode(format!(
                        "bad announce geometry k={k} n={n} last_k={last_k}"
                    )));
                }
                Ok(Message::Announce {
                    session,
                    groups,
                    k,
                    n,
                    last_k,
                    payload_len,
                    total_bytes,
                })
            }
            TYPE_DONE => {
                need(&buf, 4, "done")?;
                Ok(Message::Done {
                    session,
                    receiver: buf.get_u32(),
                })
            }
            TYPE_FIN => Ok(Message::Fin { session }),
            TYPE_FEC_FRAME => {
                need(&buf, 14, "fec frame header")?;
                let block = buf.get_u32();
                let index = buf.get_u16();
                let k = buf.get_u16();
                let n = buf.get_u16();
                let len = buf.get_u32() as usize;
                if len > MAX_PAYLOAD {
                    return Err(NetError::Decode(format!("fec payload {len} exceeds max")));
                }
                need(&buf, len, "fec payload")?;
                let payload = buf.split_to(len);
                if index >= n || k == 0 || k > n {
                    return Err(NetError::Decode(format!(
                        "bad fec geometry index={index} k={k} n={n}"
                    )));
                }
                Ok(Message::FecFrame {
                    session,
                    block,
                    index,
                    k,
                    n,
                    payload,
                })
            }
            other => Err(NetError::Decode(format!("unknown message type {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{BufMut, BytesMut};

    fn roundtrip(m: Message) {
        let encoded = m.encode();
        let decoded = Message::decode(encoded).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn roundtrip_all_variants() {
        roundtrip(Message::Packet {
            session: 42,
            group: 7,
            index: 3,
            k: 5,
            n: 9,
            payload: Bytes::from_static(b"hello world"),
        });
        roundtrip(Message::Poll {
            session: 1,
            group: 2,
            sent: 20,
            round: 1,
        });
        roundtrip(Message::Nak {
            session: 1,
            group: 2,
            needed: 3,
            round: 2,
        });
        roundtrip(Message::NakPacket {
            session: 9,
            group: 0,
            index: 11,
        });
        roundtrip(Message::Announce {
            session: 5,
            groups: 100,
            k: 20,
            n: 60,
            last_k: 13,
            payload_len: 1024,
            total_bytes: 2_036_481,
        });
        roundtrip(Message::Done {
            session: 5,
            receiver: 17,
        });
        roundtrip(Message::Fin { session: 5 });
    }

    #[test]
    fn fec_frame_roundtrips() {
        roundtrip(Message::FecFrame {
            session: 0xBEEF,
            block: 42,
            index: 8,
            k: 7,
            n: 10,
            payload: Bytes::from_static(b"opaque inner datagram bytes"),
        });
    }

    #[test]
    fn fec_frame_rejects_bad_geometry() {
        let good = Message::FecFrame {
            session: 1,
            block: 1,
            index: 9,
            k: 7,
            n: 10,
            payload: Bytes::new(),
        }
        .encode();
        // Patch index beyond n (index lives right after block), then
        // re-seal so the structural check is what rejects it.
        let mut raw = good.to_vec();
        // header(12) + block(4) => index at offset 16.
        raw[16] = 0xFF;
        raw[17] = 0xFF;
        reseal(&mut raw);
        assert!(matches!(
            Message::decode(Bytes::from(raw)),
            Err(NetError::Decode(_))
        ));
    }

    #[test]
    fn empty_payload_roundtrips() {
        roundtrip(Message::Packet {
            session: 0,
            group: 0,
            index: 0,
            k: 1,
            n: 1,
            payload: Bytes::new(),
        });
    }

    #[test]
    fn rejects_foreign_datagrams() {
        assert!(matches!(
            Message::decode(Bytes::from_static(b"")),
            Err(NetError::Decode(_))
        ));
        assert!(matches!(
            Message::decode(Bytes::from_static(b"\x00\x00\x01\x01\x00\x00\x00\x00")),
            Err(NetError::Decode(_))
        ));
        // Right magic, wrong version, valid checksum: rejected as a
        // foreign (incompatible) datagram, not corruption.
        let mut bad = BytesMut::new();
        bad.put_u16(MAGIC);
        bad.put_u8(99);
        bad.put_u8(TYPE_FIN);
        bad.put_u32(0); // checksum placeholder
        bad.put_u32(0); // session
        reseal(&mut bad);
        assert!(matches!(
            Message::decode(bad.freeze()),
            Err(NetError::Decode(_))
        ));
    }

    /// XXH32 (seed 0) one unit at a time, straight from the specification:
    /// the reference the lane implementation is held against.
    fn xxh32_reference(data: &[u8]) -> u32 {
        let word = |at: usize| (0..4).fold(0u32, |w, i| w | u32::from(data[at + i]) << (8 * i));
        let round = |acc: u32, w: u32| {
            acc.wrapping_add(w.wrapping_mul(P2))
                .rotate_left(13)
                .wrapping_mul(P1)
        };
        let mut at = 0;
        let mut h = if data.len() >= 16 {
            let (mut v1, mut v2, mut v3, mut v4) =
                (P1.wrapping_add(P2), P2, 0u32, 0u32.wrapping_sub(P1));
            while data.len() - at >= 16 {
                v1 = round(v1, word(at));
                v2 = round(v2, word(at + 4));
                v3 = round(v3, word(at + 8));
                v4 = round(v4, word(at + 12));
                at += 16;
            }
            v1.rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18))
        } else {
            P5
        };
        h = h.wrapping_add(data.len() as u32);
        while data.len() - at >= 4 {
            h = h
                .wrapping_add(word(at).wrapping_mul(P3))
                .rotate_left(17)
                .wrapping_mul(P4);
            at += 4;
        }
        for &b in &data[at..] {
            h = h
                .wrapping_add(u32::from(b).wrapping_mul(P5))
                .rotate_left(11)
                .wrapping_mul(P1);
        }
        h ^= h >> 15;
        h = h.wrapping_mul(P2);
        h ^= h >> 13;
        h = h.wrapping_mul(P3);
        h ^ (h >> 16)
    }

    #[test]
    fn xxh32_known_answers() {
        for (input, want) in [
            (&b""[..], 0x02CC_5D05u32),
            (b"a", 0x550D_7456),
            (b"abc", 0x32D1_53FF),
        ] {
            assert_eq!(xxh32(input, &[]), want, "head-only {input:?}");
            assert_eq!(xxh32(&[], input), want, "body-only {input:?}");
            assert_eq!(xxh32_reference(input), want, "reference {input:?}");
        }
    }

    #[test]
    fn xxh32_lanes_match_the_reference_at_every_boundary() {
        // Every length around the stripe (16), tail-word (4) and
        // tail-byte boundaries, then datagram sizes: 1050 = 65 stripes +
        // 2 words + 2 bytes, 1500 = 93 stripes + 3 words, 60026 = a
        // maximal packet (3751 stripes + 2 words + 2 bytes).
        for len in (0..=80).chain([1050, 1500, 60_026]) {
            let data: Vec<u8> = (0..len).map(|i| (i * 131 + len * 7 + 13) as u8).collect();
            let want = xxh32_reference(&data);
            assert_eq!(xxh32(&[], &data), want, "one slice, len {len}");
            let (head, body) = data.split_at(len.min(16));
            assert_eq!(xxh32(head, body), want, "first stripe split off, len {len}");
            if len >= HEADER_LEN {
                let mut zeroed = data.clone();
                zeroed[4..8].fill(0);
                assert_eq!(
                    checksum_of(&data),
                    Some(xxh32_reference(&zeroed)),
                    "checksum field reads as zero, len {len}"
                );
            }
        }
    }

    #[test]
    fn v2_datagrams_are_rejected_as_corrupt() {
        // Well-formed wire-v2 datagrams as the previous encoder sealed
        // them (FNV-1a): Fin { session: 5 } and a 17-byte-payload Packet.
        // The seal is checked before the version byte is trusted, so they
        // read as damage; with a v3 seal the version check refuses them.
        let fin: &[u8] = b"\x50\x4d\x02\x07\x5d\xcf\x45\x4a\x00\x00\x00\x05";
        let packet: &[u8] = b"\x50\x4d\x02\x01\x5b\x26\x05\x09\x00\x00\x00\x07\
            \x00\x00\x00\x03\x00\x02\x00\x04\x00\x06\x00\x00\x00\x11integrity matters";
        for v2 in [fin, packet] {
            let got = Message::decode(Bytes::copy_from_slice(v2));
            assert!(matches!(got, Err(NetError::Corrupt(_))), "{got:?}");
            let mut resealed = v2.to_vec();
            reseal(&mut resealed);
            let got = Message::decode(Bytes::from(resealed));
            match got {
                Err(NetError::Decode(why)) => assert!(why.contains("version 2"), "{why}"),
                other => panic!("v3-sealed v2 datagram must be refused by version: {other:?}"),
            }
        }
    }

    #[test]
    fn encode_into_reuses_the_buffer_and_matches_encode() {
        let big = Message::Packet {
            session: 1,
            group: 2,
            index: 0,
            k: 3,
            n: 5,
            payload: Bytes::from(vec![0xA5; 1024]),
        };
        let mut scratch = Vec::new();
        big.encode_into(&mut scratch);
        assert_eq!(&scratch[..], &big.encode()[..]);
        assert_eq!(scratch.capacity(), scratch.len(), "exact reservation");
        let cap = scratch.capacity();
        // A shorter message replaces the contents without reallocating.
        let fin = Message::Fin { session: 9 };
        fin.encode_into(&mut scratch);
        assert_eq!(&scratch[..], &fin.encode()[..]);
        assert_eq!(scratch.capacity(), cap);
    }

    #[test]
    fn single_byte_damage_is_always_caught() {
        let full = Message::Packet {
            session: 7,
            group: 3,
            index: 2,
            k: 4,
            n: 6,
            payload: Bytes::from_static(b"integrity matters"),
        }
        .encode();
        for pos in 0..full.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut raw = full.to_vec();
                raw[pos] ^= mask;
                let got = Message::decode(Bytes::from(raw));
                match got {
                    Err(e) => assert!(e.is_recoverable(), "flip at {pos}: {e}"),
                    Ok(m) => panic!("flip at {pos} mask {mask:#04x} mis-parsed as {m:?}"),
                }
            }
        }
    }

    #[test]
    fn damage_outside_magic_reads_as_corrupt() {
        let full = Message::Fin { session: 9 }.encode();
        // Any flip past the magic bytes must surface as Corrupt, so the
        // drivers can tell damaged own-traffic from foreign datagrams.
        for pos in 2..full.len() {
            let mut raw = full.to_vec();
            raw[pos] ^= 0x10;
            assert!(
                matches!(Message::decode(Bytes::from(raw)), Err(NetError::Corrupt(_))),
                "flip at {pos} should be Corrupt"
            );
        }
    }

    #[test]
    fn reseal_restores_decodability() {
        let full = Message::Done {
            session: 11,
            receiver: 4,
        }
        .encode();
        let mut raw = full.to_vec();
        let last = raw.len() - 1;
        raw[last] ^= 0xAA; // damage the receiver id
        assert!(Message::decode(Bytes::from(raw.clone())).is_err());
        reseal(&mut raw);
        let reparsed = Message::decode(Bytes::from(raw)).unwrap();
        assert!(matches!(reparsed, Message::Done { .. }));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let full = Message::Packet {
            session: 1,
            group: 2,
            index: 0,
            k: 3,
            n: 5,
            payload: Bytes::from_static(b"abcdef"),
        }
        .encode();
        for cut in 0..full.len() {
            let sliced = full.slice(0..cut);
            assert!(
                Message::decode(sliced).is_err(),
                "cut at {cut} of {} should fail",
                full.len()
            );
        }
    }

    #[test]
    fn rejects_bad_geometry() {
        // index >= n
        let mut b = BytesMut::new();
        b.put_u16(MAGIC);
        b.put_u8(VERSION);
        b.put_u8(TYPE_PACKET);
        b.put_u32(0); // checksum placeholder
        b.put_u32(0); // session
        b.put_u32(0); // group
        b.put_u16(9); // index
        b.put_u16(3); // k
        b.put_u16(5); // n
        b.put_u32(0); // payload len
        reseal(&mut b);
        assert!(Message::decode(b.freeze()).is_err());
        // k > n in announce
        let mut b = BytesMut::new();
        b.put_u16(MAGIC);
        b.put_u8(VERSION);
        b.put_u8(TYPE_ANNOUNCE);
        b.put_u32(0); // checksum placeholder
        b.put_u32(0); // session
        b.put_u32(1); // groups
        b.put_u16(9); // k
        b.put_u16(5); // n
        b.put_u16(1); // last_k
        b.put_u32(16);
        b.put_u64(16);
        reseal(&mut b);
        assert!(Message::decode(b.freeze()).is_err());
    }

    #[test]
    fn checksum_helpers() {
        assert_eq!(checksum_of(&[0u8; 4]), None);
        let enc = Message::Fin { session: 1 }.encode();
        let stored = u32::from_be_bytes([enc[4], enc[5], enc[6], enc[7]]);
        assert_eq!(checksum_of(&enc), Some(stored));
        // Resealing an already-sealed datagram is a no-op.
        let mut raw = enc.to_vec();
        reseal(&mut raw);
        assert_eq!(&raw[..], &enc[..]);
    }

    #[test]
    fn session_accessor() {
        assert_eq!(Message::Fin { session: 77 }.session(), 77);
        assert_eq!(
            Message::Done {
                session: 3,
                receiver: 1
            }
            .session(),
            3
        );
    }
}
