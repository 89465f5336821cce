//! The NP receiver — a sans-io state machine.
//!
//! Feed it every message seen on the multicast group via
//! [`NpReceiver::handle`], call [`NpReceiver::on_timer`] whenever
//! [`NpReceiver::next_deadline`] passes, and perform the
//! [`ReceiverAction`]s it returns (send a message, observe a decoded
//! group, observe completion). `now` is any monotonic clock in seconds.
//!
//! The receiver stores data and parity packets of each group until `k`
//! have arrived ([`pm_rse::GroupDecoder`]), reconstructs, and answers
//! sender polls through slotting-and-damping NAK suppression
//! ([`pm_net::NakSuppressor`]): `NAK(i, l)` with `l` the number of packets
//! still missing — per-group feedback rather than per-packet, one of NP's
//! two key reductions over N2.

use std::collections::btree_map::{BTreeMap, Entry};

use bytes::Bytes;

use pm_net::suppression::NakSuppressor;
use pm_net::Message;
use pm_obs::{Event, Histogram, Obs, Role};
use pm_rse::{CacheStats, CodeSpec, GroupDecoder, InsertOutcome, RseDecoder};

use crate::costs::CostCounters;
use crate::error::ProtocolError;
use crate::payload::Payload;
use crate::runtime::ReceiverMachine;
use crate::session::SessionPlan;

/// What the caller must do after feeding the receiver an event.
#[derive(Debug, Clone, PartialEq)]
pub enum ReceiverAction {
    /// Multicast this message.
    Send(Message),
    /// Group `group` has just been fully decoded.
    GroupDecoded {
        /// The decoded transmission group.
        group: u32,
    },
    /// Every group of the session is decoded; [`NpReceiver::payload`]
    /// yields the byte stream. Emitted exactly once.
    Complete,
}

/// Per-group reception state.
enum GroupState {
    /// Still collecting packets.
    Collecting(GroupDecoder),
    /// Decoded; further packets are unneeded receptions.
    Decoded,
}

/// NP receiver state machine.
pub struct NpReceiver {
    id: u32,
    session: u32,
    plan: Option<SessionPlan>,
    groups: BTreeMap<u32, GroupState>,
    decoded: BTreeMap<u32, Vec<Bytes>>,
    decoders: BTreeMap<(u16, u16), RseDecoder>,
    suppressor: NakSuppressor,
    /// Last poll round seen per group (recovery NAKs echo it).
    poll_rounds: BTreeMap<u32, u16>,
    /// Highest group id observed in a packet or poll (groups beyond it
    /// have presumably not been transmitted yet).
    max_group_seen: Option<u32>,
    /// Announces heard since the last packet/poll (>= 2 means the sender
    /// is idle and everything has been transmitted at least once).
    quiet_announces: u32,
    /// A poll has been seen: the sender runs a feedback protocol (NP).
    /// Feedback-free senders (the carousel) never poll, and receivers must
    /// then stay silent rather than NAK into the void.
    saw_poll: bool,
    counters: CostCounters,
    complete_emitted: bool,
    fin_seen: bool,
    obs: Obs,
    /// Histogram wired into lazily-created decoders (nanoseconds/decode).
    decode_timer: Option<Histogram>,
}

impl NpReceiver {
    /// A receiver with identity `id` joining session `session`.
    /// `nak_slot` is the suppression slot width `Ts` (seconds); `seed`
    /// randomises the intra-slot jitter.
    ///
    /// # Panics
    /// Panics unless `nak_slot > 0`.
    pub fn new(id: u32, session: u32, nak_slot: f64, seed: u64) -> Self {
        NpReceiver {
            id,
            session,
            plan: None,
            groups: BTreeMap::new(),
            decoded: BTreeMap::new(),
            decoders: BTreeMap::new(),
            suppressor: NakSuppressor::new(nak_slot, seed ^ (id as u64) << 17),
            poll_rounds: BTreeMap::new(),
            max_group_seen: None,
            quiet_announces: 0,
            saw_poll: false,
            counters: CostCounters::default(),
            complete_emitted: false,
            fin_seen: false,
            obs: Obs::null(),
            decode_timer: None,
        }
    }

    /// Emit structured events to `obs` (a `session_start` marks the
    /// attachment point). The NAK suppressor shares the recorder, so
    /// `nak_scheduled`/`nak_suppressed` land in the same trace.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.suppressor.set_obs(obs.clone());
        self.obs = obs;
        self.obs.emit(0.0, || Event::SessionStart {
            role: Role::Receiver,
            session: self.session,
            groups: 0,
            bytes: 0,
        });
        self
    }

    /// Record per-call decode latency into `hist` (applies to decoders
    /// created from here on — call before traffic arrives).
    pub fn set_decode_timer(&mut self, hist: Histogram) {
        self.decode_timer = Some(hist);
    }

    /// Aggregated inverse-cache hit/miss counts across this receiver's
    /// decoders.
    pub fn decode_cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for dec in self.decoders.values() {
            let s = dec.cache_stats();
            total.hits += s.hits;
            total.misses += s.misses;
        }
        total
    }

    /// The receiver's identity.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Session plan, once learned from an announce.
    pub fn plan(&self) -> Option<&SessionPlan> {
        self.plan.as_ref()
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "the key is inserted just above when absent"
    )]
    fn decoder_for(&mut self, spec: CodeSpec) -> Result<&RseDecoder, ProtocolError> {
        let key = (spec.k() as u16, spec.n() as u16);
        if let Entry::Vacant(e) = self.decoders.entry(key) {
            let mut dec = RseDecoder::new(spec)?;
            if let Some(hist) = &self.decode_timer {
                dec.set_timer(hist.clone());
            }
            e.insert(dec);
        }
        Ok(&self.decoders[&key])
    }

    /// Queue one `Done` for the transport (and count it as sent).
    fn push_done(&mut self, actions: &mut Vec<ReceiverAction>, now: f64) {
        self.counters.feedback_sent += 1;
        self.obs.emit(now, || Event::DoneSent {
            session: self.session,
            receiver: self.id,
        });
        actions.push(ReceiverAction::Send(Message::Done {
            session: self.session,
            receiver: self.id,
        }));
    }

    fn completion_actions(&mut self, actions: &mut Vec<ReceiverAction>, now: f64) {
        if self.is_complete() && !self.complete_emitted {
            self.complete_emitted = true;
            self.push_done(actions, now);
            self.obs.emit(now, || Event::TransferComplete {
                session: self.session,
                groups: self.plan.map(|p| p.groups).unwrap_or(0),
            });
            actions.push(ReceiverAction::Complete);
        }
    }
}

impl ReceiverMachine for NpReceiver {
    /// Feed one received message.
    ///
    /// # Errors
    /// [`ProtocolError`] on geometry conflicts (a corrupted or hostile
    /// stream); the session should be abandoned.
    #[expect(
        clippy::unreachable,
        reason = "a group turns decodable only while Collecting"
    )]
    fn handle(&mut self, msg: &Message, now: f64) -> Result<Vec<ReceiverAction>, ProtocolError> {
        if msg.session() != self.session {
            return Ok(Vec::new());
        }
        let mut actions = Vec::new();
        match msg {
            Message::Packet {
                group,
                index,
                k,
                n,
                payload,
                ..
            } => {
                self.counters.packets_received += 1;
                self.obs.emit(now, || {
                    if index < k {
                        Event::DataRecv {
                            session: self.session,
                            group: *group,
                            index: *index,
                        }
                    } else {
                        Event::ParityRecv {
                            session: self.session,
                            group: *group,
                            index: *index,
                        }
                    }
                });
                self.max_group_seen = Some(self.max_group_seen.unwrap_or(0).max(*group));
                self.quiet_announces = 0;
                // First packet of a group defines its geometry; the
                // CodeSpec constructor revalidates what the wire allowed.
                let state = match self.groups.entry(*group) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => {
                        let spec = CodeSpec::new(*k as usize, (*n - *k) as usize)?;
                        e.insert(GroupState::Collecting(GroupDecoder::new(spec)))
                    }
                };
                let decodable = match state {
                    GroupState::Decoded => {
                        self.counters.unneeded_receptions += 1;
                        false
                    }
                    GroupState::Collecting(gd) => {
                        if gd.spec().k() != *k as usize || gd.spec().n() != *n as usize {
                            return Err(ProtocolError::Inconsistent(format!(
                                "group {group} geometry changed: ({k},{n}) vs ({},{})",
                                gd.spec().k(),
                                gd.spec().n()
                            )));
                        }
                        match gd.insert(*index as usize, payload.clone())? {
                            InsertOutcome::Decodable => true,
                            InsertOutcome::Duplicate | InsertOutcome::Unneeded => {
                                self.counters.unneeded_receptions += 1;
                                false
                            }
                            InsertOutcome::Stored => false,
                        }
                    }
                };
                if decodable {
                    let GroupState::Collecting(gd) = std::mem::replace(state, GroupState::Decoded)
                    else {
                        unreachable!("checked Collecting above")
                    };
                    let spec = *gd.spec();
                    let missing = (spec.k() - gd.data_received()) as u64;
                    // A group whose data all arrived needs no decoder: on a
                    // lossless path none is ever built.
                    let (packets, cache_delta) = match gd.data_if_complete() {
                        Some(packets) => (packets, CacheStats::default()),
                        None => {
                            let decoder = self.decoder_for(spec)?;
                            let before = decoder.cache_stats();
                            let packets = gd.reconstruct(decoder)?;
                            let after = decoder.cache_stats();
                            (
                                packets,
                                CacheStats {
                                    hits: after.hits - before.hits,
                                    misses: after.misses - before.misses,
                                },
                            )
                        }
                    };
                    for _ in 0..cache_delta.hits {
                        self.obs.emit(now, || Event::DecodeCacheHit {
                            k: spec.k() as u16,
                            n: spec.n() as u16,
                        });
                    }
                    for _ in 0..cache_delta.misses {
                        self.obs.emit(now, || Event::DecodeCacheMiss {
                            k: spec.k() as u16,
                            n: spec.n() as u16,
                        });
                    }
                    self.counters.packets_decoded += missing;
                    self.counters.unneeded_receptions += gd.unneeded_receptions();
                    self.decoded.insert(*group, packets);
                    self.suppressor.cancel(*group);
                    self.obs.emit(now, || Event::GroupDecoded {
                        session: self.session,
                        group: *group,
                        recovered: missing,
                    });
                    actions.push(ReceiverAction::GroupDecoded { group: *group });
                    self.completion_actions(&mut actions, now);
                }
            }
            Message::Poll {
                group, sent, round, ..
            } => {
                self.counters.feedback_received += 1;
                self.obs.emit(now, || Event::PollRecv {
                    session: self.session,
                    group: *group,
                    sent: *sent,
                    round: *round,
                });
                self.max_group_seen = Some(self.max_group_seen.unwrap_or(0).max(*group));
                self.quiet_announces = 0;
                self.saw_poll = true;
                // A poll solicits NAKs, never `Done`: once complete we have
                // nothing to ask for. A lost `Done` is recovered by the
                // sender's keep-alive announce (below), not by O(R) replies
                // to every repair round.
                if !self.complete_emitted {
                    let needed = match self.groups.get(group) {
                        Some(GroupState::Decoded) => 0,
                        Some(GroupState::Collecting(gd)) => gd.needed() as u16,
                        // Whole round lost: we need everything that was
                        // sent (we cannot know more without the geometry).
                        None => *sent,
                    };
                    self.counters.timers += 1; // scheduling / clearing a timer
                    self.poll_rounds.insert(*group, *round);
                    self.suppressor.on_poll(*group, *round, *sent, needed, now);
                }
            }
            Message::Nak { group, needed, .. } => {
                // Overheard another receiver's NAK: damping.
                self.counters.feedback_received += 1;
                let before = self.suppressor.pending_count();
                self.suppressor.on_nak_heard(*group, *needed);
                if self.suppressor.pending_count() < before {
                    self.counters.feedback_suppressed += 1;
                }
            }
            Message::Announce { .. } => {
                let plan = SessionPlan::from_announce(msg)?;
                match &self.plan {
                    Some(existing) if *existing != plan => {
                        return Err(ProtocolError::Inconsistent(
                            "announce contradicts the known session plan".into(),
                        ));
                    }
                    Some(_) => {}
                    None => self.plan = Some(plan),
                }
                let was_complete = self.complete_emitted;
                self.completion_actions(&mut actions, now);
                if was_complete {
                    // A keep-alive announce after we finished means the
                    // sender is still waiting on someone — possibly us,
                    // if our Done was lost or corrupted. Remind it. This
                    // is the one `Done`-recovery path (DESIGN §12c).
                    self.push_done(&mut actions, now);
                }
                // An announce while we are incomplete doubles as a
                // recovery heartbeat: if a whole repair round (parities +
                // poll) was lost, nothing else would ever re-solicit our
                // feedback. Schedule slot-0 NAKs for groups still missing
                // packets; normal damping applies if other receivers
                // answer first. Two gates stop premature demand: groups
                // beyond the highest one seen have probably not been sent
                // yet, unless repeated quiet announces show the sender is
                // idle with nothing left to transmit.
                self.quiet_announces += 1;
                // Recovery NAKs only make sense toward a feedback-driven
                // sender: either we have seen a poll (NP), or the sender
                // has gone idle-announcing (so it is waiting on us).
                let feedback_driven = self.saw_poll || self.quiet_announces >= 2;
                if !self.complete_emitted && feedback_driven {
                    if let Some(plan) = self.plan {
                        for g in 0..plan.groups {
                            let transmitted = self.max_group_seen.is_some_and(|m| g <= m);
                            if !transmitted && self.quiet_announces < 2 {
                                continue;
                            }
                            if self.suppressor.is_pending(g) {
                                continue;
                            }
                            let needed = match self.groups.get(&g) {
                                Some(GroupState::Decoded) => 0,
                                Some(GroupState::Collecting(gd)) => gd.needed() as u16,
                                None => plan.group_k(g) as u16,
                            };
                            if needed == 0 {
                                continue;
                            }
                            let round = self.poll_rounds.get(&g).copied().unwrap_or(1);
                            self.counters.timers += 1;
                            self.suppressor.on_poll(g, round, needed, needed, now);
                        }
                    }
                }
            }
            Message::Fin { .. } => {
                self.obs.emit(now, || Event::FinRecv {
                    session: self.session,
                });
                self.fin_seen = true;
            }
            // Another receiver finishing, an N2 NAK, or an (unexpected
            // here) raw FEC-layer frame: not ours to act on.
            Message::Done { .. } | Message::NakPacket { .. } | Message::FecFrame { .. } => {}
        }
        Ok(actions)
    }

    /// Fire due NAK timers.
    fn on_timer(&mut self, now: f64) -> Vec<ReceiverAction> {
        let mut actions = Vec::new();
        for due in self.suppressor.take_due(now) {
            self.counters.feedback_sent += 1;
            self.counters.timers += 1;
            self.obs.emit(now, || Event::NakSent {
                session: self.session,
                group: due.group,
                needed: due.needed,
                round: due.round,
            });
            actions.push(ReceiverAction::Send(Message::Nak {
                session: self.session,
                group: due.group,
                needed: due.needed,
                round: due.round,
            }));
        }
        actions
    }

    fn counters(&self) -> &CostCounters {
        &self.counters
    }

    /// True once every group is decoded (requires a plan).
    fn is_complete(&self) -> bool {
        match &self.plan {
            Some(p) => self.decoded.len() as u64 == p.groups as u64,
            None => false,
        }
    }

    fn fin_seen(&self) -> bool {
        self.fin_seen
    }

    fn next_deadline(&self) -> Option<f64> {
        self.suppressor.next_deadline()
    }

    /// The transfer once complete, as the decoded packets (shared, not copied).
    ///
    /// # Errors
    /// [`ProtocolError::Inconsistent`] if called before completion.
    fn payload(&self) -> Result<Payload, ProtocolError> {
        match &self.plan {
            Some(plan) => plan.reassemble(&self.decoded),
            None => Err(ProtocolError::Inconsistent("no session plan yet".into())),
        }
    }

    fn take_data(&self) -> Result<Vec<u8>, ProtocolError> {
        self.payload().map(|p| p.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_rse::RseEncoder;

    const SESSION: u32 = 11;

    /// Packets of one transmission group (data or parities).
    type Groups = Vec<Vec<Bytes>>;

    /// Build plan + packets + parities for a tiny transfer.
    fn setup(bytes: usize, k: usize, h: usize) -> (SessionPlan, Vec<u8>, Groups, Groups) {
        let data: Vec<u8> = (0..bytes).map(|i| (i % 251) as u8).collect();
        let plan = SessionPlan::new(SESSION, bytes as u64, k, h, 16).unwrap();
        let groups = plan.split(&data);
        let parities: Vec<Vec<Bytes>> = groups
            .iter()
            .map(|g| {
                let spec = CodeSpec::new(g.len(), h).unwrap();
                let enc = RseEncoder::new(spec).unwrap();
                enc.encode_all(g)
                    .unwrap()
                    .into_iter()
                    .map(Bytes::from)
                    .collect()
            })
            .collect();
        (plan, data, groups, parities)
    }

    fn packet(plan: &SessionPlan, group: u32, index: usize, payload: Bytes) -> Message {
        let gk = plan.group_k(group) as u16;
        Message::Packet {
            session: SESSION,
            group,
            index: index as u16,
            k: gk,
            n: gk + plan.h,
            payload,
        }
    }

    #[test]
    fn clean_reception_decodes_and_completes() {
        let (plan, data, groups, _) = setup(100, 3, 2);
        let mut rx = NpReceiver::new(1, SESSION, 0.01, 1);
        rx.handle(&plan.announce(), 0.0).unwrap();
        assert!(matches!(rx.payload(), Err(ProtocolError::Inconsistent(_))));
        let mut completed = false;
        for (g, packets) in groups.iter().enumerate() {
            for (i, p) in packets.iter().enumerate() {
                let actions = rx
                    .handle(&packet(&plan, g as u32, i, p.clone()), 0.0)
                    .unwrap();
                completed |= actions
                    .iter()
                    .any(|a| matches!(a, ReceiverAction::Complete));
            }
        }
        assert!(completed);
        assert!(rx.is_complete());
        assert_eq!(rx.payload().unwrap(), data);
        // Nothing was lost, so no decoder (and no generator) was ever built.
        assert!(rx.decoders.is_empty());
        assert_eq!(rx.decode_cache_stats(), CacheStats::default());
        assert_eq!(rx.counters().packets_decoded, 0, "systematic fast path");
    }

    #[test]
    fn parity_repairs_loss() {
        let (plan, data, groups, parities) = setup(48, 3, 2);
        let mut rx = NpReceiver::new(1, SESSION, 0.01, 2);
        rx.handle(&plan.announce(), 0.0).unwrap();
        // Group 0: lose packet 1, deliver parity 0 instead.
        rx.handle(&packet(&plan, 0, 0, groups[0][0].clone()), 0.0)
            .unwrap();
        rx.handle(&packet(&plan, 0, 2, groups[0][2].clone()), 0.0)
            .unwrap();
        let actions = rx
            .handle(&packet(&plan, 0, 3, parities[0][0].clone()), 0.0)
            .unwrap();
        assert!(actions
            .iter()
            .any(|a| matches!(a, ReceiverAction::GroupDecoded { group: 0 })));
        assert!(rx.is_complete());
        assert_eq!(rx.payload().unwrap(), data);
        assert_eq!(rx.counters().packets_decoded, 1);
    }

    #[test]
    fn poll_schedules_nak_and_decode_cancels() {
        let (plan, _, groups, _) = setup(48, 3, 2);
        let mut rx = NpReceiver::new(1, SESSION, 0.01, 3);
        rx.handle(&packet(&plan, 0, 0, groups[0][0].clone()), 0.0)
            .unwrap();
        // Poll after round 1 (3 packets sent); we still need 2.
        let poll = Message::Poll {
            session: SESSION,
            group: 0,
            sent: 3,
            round: 1,
        };
        rx.handle(&poll, 0.0).unwrap();
        let deadline = rx.next_deadline().expect("NAK scheduled");
        // Needed 2 of 3 => slot index 1.
        assert!(
            (0.01..0.02 + 1e-9).contains(&deadline),
            "deadline {deadline}"
        );
        // The NAK fires with l = 2.
        let actions = rx.on_timer(deadline);
        assert_eq!(
            actions,
            vec![ReceiverAction::Send(Message::Nak {
                session: SESSION,
                group: 0,
                needed: 2,
                round: 1
            })]
        );
        // A later decode must clear any rescheduled state.
        rx.handle(&poll, 1.0).unwrap();
        assert!(rx.next_deadline().is_some());
        rx.handle(&packet(&plan, 0, 1, groups[0][1].clone()), 1.0)
            .unwrap();
        rx.handle(&packet(&plan, 0, 2, groups[0][2].clone()), 1.0)
            .unwrap();
        assert!(
            rx.next_deadline().is_none(),
            "decode cancels the pending NAK"
        );
    }

    #[test]
    fn unknown_group_poll_naks_for_everything() {
        let mut rx = NpReceiver::new(1, SESSION, 0.01, 4);
        let poll = Message::Poll {
            session: SESSION,
            group: 5,
            sent: 7,
            round: 1,
        };
        rx.handle(&poll, 0.0).unwrap();
        let actions = rx.on_timer(10.0);
        assert_eq!(
            actions,
            vec![ReceiverAction::Send(Message::Nak {
                session: SESSION,
                group: 5,
                needed: 7,
                round: 1
            })]
        );
    }

    #[test]
    fn overheard_nak_suppresses() {
        let (plan, _, groups, _) = setup(48, 3, 2);
        let mut rx = NpReceiver::new(1, SESSION, 0.01, 5);
        rx.handle(&packet(&plan, 0, 0, groups[0][0].clone()), 0.0)
            .unwrap();
        rx.handle(
            &Message::Poll {
                session: SESSION,
                group: 0,
                sent: 3,
                round: 1,
            },
            0.0,
        )
        .unwrap();
        assert!(rx.next_deadline().is_some());
        // Another receiver NAKs for >= our need: ours is damped.
        rx.handle(
            &Message::Nak {
                session: SESSION,
                group: 0,
                needed: 3,
                round: 1,
            },
            0.001,
        )
        .unwrap();
        assert!(rx.next_deadline().is_none());
        assert_eq!(rx.counters().feedback_suppressed, 1);
    }

    /// A receiver that took the whole transfer cleanly (one `Done` sent).
    fn completed_receiver(id: u32, seed: u64) -> (SessionPlan, NpReceiver) {
        let (plan, _, groups, _) = setup(32, 2, 1);
        let mut rx = NpReceiver::new(id, SESSION, 0.01, seed);
        rx.handle(&plan.announce(), 0.0).unwrap();
        for (g, packets) in groups.iter().enumerate() {
            for (i, p) in packets.iter().enumerate() {
                rx.handle(&packet(&plan, g as u32, i, p.clone()), 0.0)
                    .unwrap();
            }
        }
        assert!(rx.is_complete());
        assert_eq!(rx.counters().feedback_sent, 1, "the completion Done");
        (plan, rx)
    }

    #[test]
    fn completed_receiver_is_silent_on_polls() {
        // A poll solicits NAKs; a complete receiver has none to give, and
        // answering with `Done` would cost O(R) datagrams per repair round.
        let (plan, mut rx) = completed_receiver(9, 6);
        for group in 0..plan.groups + 2 {
            for round in [1, 2, 9, u16::MAX] {
                let poll = Message::Poll {
                    session: SESSION,
                    group,
                    sent: 2,
                    round,
                };
                assert_eq!(rx.handle(&poll, 1.0).unwrap(), vec![]);
            }
        }
        assert_eq!(rx.next_deadline(), None, "and schedules no NAK either");
        assert_eq!(
            rx.counters().feedback_sent,
            1,
            "feedback_sent counts only what was handed to the transport"
        );
    }

    #[test]
    fn done_resent_once_per_keepalive_announce() {
        // A keep-alive announce after completion re-solicits our Done (the
        // first one may have been lost or corrupted in flight) — the only
        // path that does.
        let (plan, mut rx) = completed_receiver(4, 13);
        let done = ReceiverAction::Send(Message::Done {
            session: SESSION,
            receiver: 4,
        });
        assert_eq!(
            rx.handle(&plan.announce(), 5.0).unwrap(),
            vec![done.clone()]
        );
        assert_eq!(rx.counters().feedback_sent, 2);
        assert_eq!(rx.handle(&plan.announce(), 5.05).unwrap(), vec![done]);
        assert_eq!(rx.counters().feedback_sent, 3);
    }

    #[test]
    fn foreign_session_ignored() {
        let mut rx = NpReceiver::new(1, SESSION, 0.01, 7);
        let foreign = Message::Poll {
            session: SESSION + 1,
            group: 0,
            sent: 3,
            round: 1,
        };
        assert!(rx.handle(&foreign, 0.0).unwrap().is_empty());
        assert_eq!(rx.counters().feedback_received, 0);
    }

    #[test]
    fn geometry_conflicts_detected() {
        let (plan, _, groups, _) = setup(48, 3, 2);
        let mut rx = NpReceiver::new(1, SESSION, 0.01, 8);
        rx.handle(&packet(&plan, 0, 0, groups[0][0].clone()), 0.0)
            .unwrap();
        // Same group, different (k, n).
        let bad = Message::Packet {
            session: SESSION,
            group: 0,
            index: 1,
            k: 4,
            n: 6,
            payload: groups[0][1].clone(),
        };
        assert!(matches!(
            rx.handle(&bad, 0.0),
            Err(ProtocolError::Inconsistent(_))
        ));
        // Conflicting announce.
        let mut rx = NpReceiver::new(1, SESSION, 0.01, 9);
        rx.handle(&plan.announce(), 0.0).unwrap();
        let other = SessionPlan::new(SESSION, 999, 4, 1, 32).unwrap();
        assert!(matches!(
            rx.handle(&other.announce(), 0.0),
            Err(ProtocolError::Inconsistent(_))
        ));
    }

    #[test]
    fn empty_session_completes_on_announce() {
        let plan = SessionPlan::new(SESSION, 0, 3, 2, 16).unwrap();
        let mut rx = NpReceiver::new(1, SESSION, 0.01, 10);
        let actions = rx.handle(&plan.announce(), 0.0).unwrap();
        assert!(actions
            .iter()
            .any(|a| matches!(a, ReceiverAction::Complete)));
        assert_eq!(rx.payload().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn fin_recorded() {
        let mut rx = NpReceiver::new(1, SESSION, 0.01, 11);
        assert!(!rx.fin_seen());
        rx.handle(&Message::Fin { session: SESSION }, 0.0).unwrap();
        assert!(rx.fin_seen());
    }

    #[test]
    fn unneeded_receptions_counted() {
        let (plan, _, groups, parities) = setup(48, 3, 2);
        let mut rx = NpReceiver::new(1, SESSION, 0.01, 12);
        rx.handle(&plan.announce(), 0.0).unwrap();
        for (i, p) in groups[0].iter().enumerate() {
            rx.handle(&packet(&plan, 0, i, p.clone()), 0.0).unwrap();
        }
        // A parity arriving after decode is an unnecessary reception.
        rx.handle(&packet(&plan, 0, 3, parities[0][0].clone()), 0.0)
            .unwrap();
        assert_eq!(rx.counters().unneeded_receptions, 1);
    }
}
