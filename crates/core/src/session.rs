//! Session geometry — chunking a byte stream into transmission groups and
//! reassembling it — plus the typed end-of-session outcome
//! ([`SessionReport`]).

use std::collections::BTreeMap;
use std::time::Duration;

use bytes::Bytes;

use pm_net::Message;

use crate::costs::CostCounters;
use crate::error::ProtocolError;
use crate::payload::Payload;

/// Typed outcome of a sender session: who finished, who was given up on,
/// and how much network hostility the driver absorbed along the way.
///
/// What a sender session driven by `pm-mux` ends with. A session
/// that runs under a [`ResiliencePolicy`](crate::runtime::ResiliencePolicy)
/// with an eviction deadline can end *degraded*: complete for the
/// responsive population with the silent stragglers evicted and counted
/// here rather than stalling the whole transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Work counters at session end.
    pub counters: CostCounters,
    /// Wall-clock duration of the session.
    pub elapsed: Duration,
    /// Identities of the receivers that reported `Done`, ascending.
    pub completed: Vec<u32>,
    /// Receivers evicted for staying silent past the eviction deadline.
    pub evicted: u32,
    /// Corrupt datagrams counted-and-dropped by the driver.
    pub corrupt_dropped: u64,
    /// Transient send failures absorbed by retrying.
    pub send_retries: u64,
    /// Flight-recorder dump, attached when the session ended degraded and
    /// a recorder was wired in (`pm_mux::MuxConfig::flight_capacity`).
    pub postmortem: Option<pm_obs::Postmortem>,
}

impl SessionReport {
    /// True when the session completed for only part of the announced
    /// population (at least one receiver was evicted).
    pub fn is_degraded(&self) -> bool {
        self.evicted > 0
    }
}

/// Immutable description of one transfer's layout.
///
/// `groups - 1` full groups of `k` packets are followed by one final group
/// of `last_k <= k` packets; every packet carries exactly `payload_len`
/// bytes (the tail is zero-padded and trimmed back to `total_bytes` on
/// reassembly). Each group's FEC block keeps the same parity budget `h`,
/// so the final group's block size is `last_k + h`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionPlan {
    /// Session identifier.
    pub session: u32,
    /// Data packets per full group.
    pub k: u16,
    /// Parity budget per group.
    pub h: u16,
    /// Payload bytes per packet.
    pub payload_len: u32,
    /// Number of transmission groups (0 for an empty transfer).
    pub groups: u32,
    /// Data packets in the final group (`== k` when the length divides
    /// evenly; 0 only when `groups == 0`).
    pub last_k: u16,
    /// Exact transfer length in bytes.
    pub total_bytes: u64,
}

impl SessionPlan {
    /// Plan a transfer of `total_bytes` with group size `k`, parity budget
    /// `h` and packet payload `payload_len`.
    ///
    /// # Errors
    /// [`ProtocolError::Config`] on zero/oversize parameters.
    pub fn new(
        session: u32,
        total_bytes: u64,
        k: usize,
        h: usize,
        payload_len: usize,
    ) -> Result<Self, ProtocolError> {
        if k == 0 || k + h > 255 {
            return Err(ProtocolError::Config(format!(
                "bad group geometry k={k} h={h}"
            )));
        }
        if payload_len == 0 {
            return Err(ProtocolError::Config("payload_len must be positive".into()));
        }
        let packets = total_bytes.div_ceil(payload_len as u64);
        let groups = packets.div_ceil(k as u64);
        if groups > u32::MAX as u64 {
            return Err(ProtocolError::Config("transfer too large".into()));
        }
        let last_k = if groups == 0 {
            0
        } else {
            let rem = packets % k as u64;
            if rem == 0 {
                k as u16
            } else {
                rem as u16
            }
        };
        Ok(SessionPlan {
            session,
            k: k as u16,
            h: h as u16,
            payload_len: payload_len as u32,
            groups: groups as u32,
            last_k,
            total_bytes,
        })
    }

    /// Data packets in group `g`.
    ///
    /// # Panics
    /// Panics if `g >= groups`.
    pub fn group_k(&self, g: u32) -> usize {
        assert!(g < self.groups, "group {g} out of range");
        if g + 1 == self.groups {
            self.last_k as usize
        } else {
            self.k as usize
        }
    }

    /// True when the sender repeats its announce right ahead of group
    /// `g`'s first data packet: once, before the last of several groups.
    ///
    /// The plan travels only in announces, and a receiver that lost the
    /// first one decodes every group without knowing it is complete.
    /// *Ahead of* the last group nobody can be complete yet, so the repeat
    /// solicits no `Done` (after it, every finished receiver would send
    /// one), and whoever missed the first learns the plan in time to
    /// finish with the last packet instead of at the keep-alive.
    pub fn reannounce_before(&self, g: u32) -> bool {
        g > 0 && g + 1 == self.groups
    }

    /// FEC block size of group `g` (`group_k + h`).
    pub fn group_n(&self, g: u32) -> usize {
        self.group_k(g) + self.h as usize
    }

    /// Total data packets across all groups.
    pub fn total_packets(&self) -> u64 {
        if self.groups == 0 {
            0
        } else {
            (self.groups as u64 - 1) * self.k as u64 + self.last_k as u64
        }
    }

    /// The announce message describing this plan.
    pub fn announce(&self) -> Message {
        Message::Announce {
            session: self.session,
            groups: self.groups,
            k: self.k,
            n: self.k + self.h,
            last_k: if self.groups == 0 { 1 } else { self.last_k },
            payload_len: self.payload_len,
            total_bytes: self.total_bytes,
        }
    }

    /// Block packet `index` of group `group`, carrying `payload`.
    pub fn packet(&self, group: u32, index: u16, payload: Bytes) -> Message {
        let k = self.group_k(group) as u16;
        Message::Packet {
            session: self.session,
            group,
            index,
            k,
            n: k + self.h,
            payload,
        }
    }

    /// The poll closing round `round` of group `group`, `sent` packets
    /// long.
    pub fn poll(&self, group: u32, sent: u16, round: u16) -> Message {
        Message::Poll {
            session: self.session,
            group,
            sent,
            round,
        }
    }

    /// Reconstruct a plan from an announce message.
    ///
    /// # Errors
    /// [`ProtocolError::Inconsistent`] if the message is not an announce
    /// or carries impossible geometry.
    pub fn from_announce(msg: &Message) -> Result<Self, ProtocolError> {
        let Message::Announce {
            session,
            groups,
            k,
            n,
            last_k,
            payload_len,
            total_bytes,
        } = *msg
        else {
            return Err(ProtocolError::Inconsistent(
                "expected an announce message".into(),
            ));
        };
        if k == 0 || n < k || payload_len == 0 {
            return Err(ProtocolError::Inconsistent(
                "announce carries bad geometry".into(),
            ));
        }
        Ok(SessionPlan {
            session,
            k,
            h: n - k,
            payload_len,
            groups,
            last_k: if groups == 0 { 0 } else { last_k },
            total_bytes,
        })
    }

    /// Split `data` into per-group packets: windows of one zero-padded copy.
    ///
    /// # Panics
    /// Panics if `data.len() != total_bytes` (caller constructed the plan
    /// from this very buffer).
    pub fn split(&self, data: &[u8]) -> Vec<Vec<Bytes>> {
        assert_eq!(
            data.len() as u64,
            self.total_bytes,
            "plan/data length mismatch"
        );
        let plen = self.payload_len as usize;
        let padded = self.total_packets() as usize * plen;
        let mut buf = Vec::with_capacity(padded);
        buf.extend_from_slice(data);
        buf.resize(padded, 0);
        let buf = Bytes::from(buf);
        let mut packets = (0..padded).step_by(plen).map(|at| buf.slice(at..at + plen));
        let groups = (0..self.groups).map(|g| packets.by_ref().take(self.group_k(g)).collect());
        groups.collect()
    }

    /// The transfer as the packets of its decoded groups (keys `0..groups`),
    /// cut to `total_bytes`; the [`Payload`] shares their storage.
    ///
    /// # Errors
    /// [`ProtocolError::Inconsistent`] if groups are missing or have the
    /// wrong shape.
    pub fn reassemble(&self, groups: &BTreeMap<u32, Vec<Bytes>>) -> Result<Payload, ProtocolError> {
        let plen = self.payload_len as usize;
        for g in 0..self.groups {
            let packets = groups.get(&g).ok_or_else(|| {
                ProtocolError::Inconsistent(format!("group {g} missing at reassembly"))
            })?;
            if packets.len() != self.group_k(g) {
                return Err(ProtocolError::Inconsistent(format!(
                    "group {g} has {} packets, expected {}",
                    packets.len(),
                    self.group_k(g)
                )));
            }
            if let Some(p) = packets.iter().find(|p| p.len() != plen) {
                return Err(ProtocolError::Inconsistent(format!(
                    "group {g} packet size {} != {plen}",
                    p.len()
                )));
            }
        }
        let mut packets = Vec::with_capacity(self.total_packets() as usize);
        packets.extend(groups.range(..self.groups).flat_map(|(_, g)| g).cloned());
        Ok(Payload::new(packets, self.total_bytes as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn exact_multiple_layout() {
        let p = SessionPlan::new(1, 7 * 4 * 16, 7, 3, 16).unwrap();
        assert_eq!(p.groups, 4);
        assert_eq!(p.last_k, 7);
        assert_eq!(p.total_packets(), 28);
        assert_eq!(p.group_k(3), 7);
        assert_eq!(p.group_n(0), 10);
    }

    #[test]
    fn ragged_tail_layout() {
        // 100 bytes, 16-byte packets => 7 packets; k = 3 => groups 3,
        // last_k = 1.
        let p = SessionPlan::new(1, 100, 3, 2, 16).unwrap();
        assert_eq!(p.groups, 3);
        assert_eq!(p.last_k, 1);
        assert_eq!(p.total_packets(), 7);
        assert_eq!(p.group_k(2), 1);
        assert_eq!(p.group_n(2), 3);
    }

    #[test]
    fn empty_transfer() {
        let p = SessionPlan::new(1, 0, 7, 3, 1024).unwrap();
        assert_eq!(p.groups, 0);
        assert_eq!(p.total_packets(), 0);
        assert_eq!(p.split(&[]).len(), 0);
        assert_eq!(p.reassemble(&BTreeMap::new()).unwrap(), Vec::<u8>::new());
    }

    fn decoded(split: Vec<Vec<Bytes>>) -> BTreeMap<u32, Vec<Bytes>> {
        (0..).zip(split).collect()
    }

    /// Lengths around every cut: 0, 1, P - 1, P, P + 1, k * P, k * P + 1
    /// (a last group of one packet) and longer ragged ones.
    #[test]
    fn split_reassemble_roundtrip() {
        for len in [0usize, 1, 15, 16, 17, 100, 7 * 16, 7 * 16 + 1, 999, 1000] {
            let p = SessionPlan::new(9, len as u64, 7, 3, 16).unwrap();
            // No zero byte in the data: padding that leaked would show.
            let bytes: Vec<u8> = (0..len).map(|i| 1 + (i % 255) as u8).collect();
            let split = p.split(&bytes);
            assert_eq!(split.len(), p.groups as usize);
            let got = p.reassemble(&decoded(split)).unwrap();
            assert_eq!(got.len(), len, "len={len}");
            assert_eq!(got.is_empty(), len == 0);
            assert_eq!(got, bytes, "len={len}");
            assert_eq!(got.to_vec(), bytes, "len={len}");
            // One chunk per packet, all whole but the last, none empty.
            let sizes: Vec<usize> = got.chunks().iter().map(|c| c.len()).collect();
            let mut want = vec![16; len / 16];
            want.extend((len % 16 > 0).then_some(len % 16));
            assert_eq!(sizes, want, "len={len}");
        }
    }

    #[test]
    fn padding_is_zero() {
        let p = SessionPlan::new(1, 5, 2, 1, 4).unwrap();
        let split = p.split(&data(5));
        // 5 bytes over 4-byte packets: 2 packets, second padded.
        assert_eq!(split[0][1][1..], [0, 0, 0][..]);
    }

    #[test]
    fn announce_roundtrip() {
        let p = SessionPlan::new(3, 12345, 20, 40, 512).unwrap();
        let q = SessionPlan::from_announce(&p.announce()).unwrap();
        assert_eq!(p, q);
        // Empty plan survives too (last_k encodes as 1 on the wire, comes
        // back as 0 because groups == 0).
        let p = SessionPlan::new(3, 0, 20, 40, 512).unwrap();
        let q = SessionPlan::from_announce(&p.announce()).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn from_announce_rejects_non_announce() {
        let r = SessionPlan::from_announce(&Message::Fin { session: 1 });
        assert!(matches!(r, Err(ProtocolError::Inconsistent(_))));
    }

    #[test]
    fn reassemble_detects_missing_and_malformed() {
        let p = SessionPlan::new(1, 64, 2, 1, 16).unwrap();
        let mut map = decoded(p.split(&data(64)));
        let mut missing = map.clone();
        missing.remove(&1);
        assert!(p.reassemble(&missing).is_err());
        let mut wrong_size = map.clone();
        wrong_size.get_mut(&1).unwrap()[0] = Bytes::from_static(&[0; 15]);
        assert!(p.reassemble(&wrong_size).is_err());
        map.get_mut(&0).unwrap().pop();
        assert!(p.reassemble(&map).is_err());
    }

    #[test]
    fn invalid_plans_rejected() {
        assert!(SessionPlan::new(1, 10, 0, 3, 16).is_err());
        assert!(SessionPlan::new(1, 10, 200, 100, 16).is_err());
        assert!(SessionPlan::new(1, 10, 7, 3, 0).is_err());
    }
}
