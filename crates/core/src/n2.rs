//! Protocol **N2** — the receiver-initiated NAK ARQ baseline
//! (Towsley, Kurose, Pingali, "A Comparison of Sender-Initiated and
//! Receiver-Initiated Reliable Multicast Protocols", JSAC '97), as used for
//! the paper's Section 5 comparison.
//!
//! Differences from NP, exactly the two the paper calls out:
//!
//! 1. **Per-packet feedback** — a receiver NAKs each missing packet
//!    (`NakPacket`), not a per-group count.
//! 2. **Retransmission of originals** — the sender resends the named data
//!    packet; a retransmission helps only receivers missing *that* packet
//!    (duplicate receptions for everyone else).
//!
//! Feedback still uses multicast NAKs with suppression (a receiver hearing
//! `NAK` for a packet it also misses cancels its own timer), so the
//! comparison isolates the parity-vs-original and per-group-vs-per-packet
//! effects.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use bytes::Bytes;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use pm_net::Message;

use crate::config::{CompletionPolicy, NpConfig};
use crate::costs::CostCounters;
use crate::error::ProtocolError;
use crate::payload::Payload;
use crate::receiver::ReceiverAction;
use crate::sender::SenderStep;
use crate::session::SessionPlan;

/// N2 sender state machine.
pub struct N2Sender {
    cfg: NpConfig,
    plan: SessionPlan,
    groups: Vec<Vec<Bytes>>,
    queue: VecDeque<Message>,
    /// Packets already retransmitted since the last poll of their group
    /// (suppresses NAK-storm duplicates within one round). Ordered maps
    /// keep servicing order independent of hasher state, so two runs with
    /// the same seed produce byte-identical transcripts (pinned by
    /// `transcripts_identical_across_runs`).
    serviced: BTreeMap<u32, BTreeSet<u16>>,
    rounds: Vec<u16>,
    done_receivers: BTreeSet<u32>,
    counters: CostCounters,
    last_demand: f64,
    announce_due: f64,
    fin_sent: bool,
}

impl N2Sender {
    /// Build an N2 sender. `cfg.h`/`cfg.proactive_parity`/`cfg.preencode`
    /// are ignored (N2 has no parities).
    ///
    /// # Errors
    /// Configuration/geometry errors.
    pub fn new(session: u32, data: &[u8], cfg: NpConfig) -> Result<Self, ProtocolError> {
        cfg.validate()?;
        // N2 blocks carry no parities: n == k on the wire.
        let plan = SessionPlan::new(session, data.len() as u64, cfg.k, 0, cfg.payload_len)?;
        let groups = plan.split(data);
        let mut queue = VecDeque::new();
        queue.push_back(plan.announce());
        let mut s = N2Sender {
            cfg,
            plan,
            groups,
            queue,
            serviced: BTreeMap::new(),
            rounds: Vec::new(),
            done_receivers: BTreeSet::new(),
            counters: CostCounters::default(),
            last_demand: 0.0,
            announce_due: 0.0,
            fin_sent: false,
        };
        s.counters.feedback_sent += 1;
        for g in 0..s.plan.groups {
            s.rounds.push(1);
            if s.plan.reannounce_before(g) {
                s.queue.push_back(s.plan.announce());
            }
            let gk = s.plan.group_k(g) as u16;
            for (i, payload) in s.groups[g as usize].iter().enumerate() {
                s.queue.push_back(Message::Packet {
                    session,
                    group: g,
                    index: i as u16,
                    k: gk,
                    n: gk,
                    payload: payload.clone(),
                });
            }
            s.queue.push_back(Message::Poll {
                session,
                group: g,
                sent: gk,
                round: 1,
            });
        }
        Ok(s)
    }

    /// Session plan.
    pub fn plan(&self) -> &SessionPlan {
        &self.plan
    }

    /// Processing counters.
    pub fn counters(&self) -> &CostCounters {
        &self.counters
    }

    /// Receivers that reported completion.
    pub fn done_count(&self) -> usize {
        self.done_receivers.len()
    }

    /// Identities of the receivers that reported completion, ascending.
    pub fn done_ids(&self) -> Vec<u32> {
        self.done_receivers.iter().copied().collect()
    }

    /// Receiver/feedback-dependent sender state in bytes: the done set
    /// plus the per-packet NAK-servicing sets that per-packet ARQ forces
    /// the sender to keep (the contrast with
    /// [`crate::NpSender::state_bytes`], where no such per-packet
    /// bookkeeping exists).
    pub fn state_bytes(&self) -> usize {
        let done = self.done_receivers.len() * std::mem::size_of::<u32>();
        let serviced: usize = self
            .serviced
            .values()
            .map(|set| std::mem::size_of::<u32>() + set.len() * std::mem::size_of::<u16>())
            .sum();
        done + serviced
    }

    /// Receivers still outstanding under
    /// [`CompletionPolicy::KnownReceivers`] (0 under quiescence).
    pub fn outstanding(&self) -> u32 {
        match self.cfg.completion {
            CompletionPolicy::KnownReceivers(r) => {
                r.saturating_sub(self.done_receivers.len() as u32)
            }
            CompletionPolicy::Quiescence(_) => 0,
        }
    }

    /// Give up on receivers that never reported `Done`: lower the
    /// known-receivers completion target to the responsive population and
    /// return how many were evicted.
    pub fn evict_outstanding(&mut self) -> u32 {
        let evicted = self.outstanding();
        if evicted > 0 {
            self.cfg.completion =
                CompletionPolicy::KnownReceivers(self.done_receivers.len() as u32);
        }
        evicted
    }

    /// True once FIN has been handed to the transport.
    pub fn is_finished(&self) -> bool {
        self.fin_sent
    }

    fn completion_reached(&self, now: f64) -> bool {
        match self.cfg.completion {
            CompletionPolicy::KnownReceivers(r) => self.done_receivers.len() as u32 >= r,
            CompletionPolicy::Quiescence(q) => now - self.last_demand >= q,
        }
    }

    /// Next action (same contract as [`crate::NpSender::next_step`]).
    pub fn next_step(&mut self, now: f64) -> SenderStep {
        if self.fin_sent {
            return SenderStep::Finished;
        }
        if let Some(msg) = self.queue.pop_front() {
            match &msg {
                Message::Packet { .. } => {
                    // First transmissions and retransmissions both carry
                    // originals; count retransmissions as repairs.
                    if self.counters.data_sent < self.plan.total_packets() {
                        self.counters.data_sent += 1;
                    } else {
                        self.counters.repairs_sent += 1;
                    }
                }
                Message::Poll { group, .. } => {
                    self.counters.feedback_sent += 1;
                    // A transmitted poll opens a new round: packets NAKed
                    // from here on deserve fresh retransmissions.
                    self.serviced.remove(group);
                }
                Message::Announce { .. } => {
                    self.counters.feedback_sent += 1;
                    // A transmitted announce resets the keep-alive clock.
                    self.announce_due = now + self.cfg.announce_interval;
                }
                _ => {}
            }
            return SenderStep::Transmit(msg);
        }
        if self.completion_reached(now) {
            self.fin_sent = true;
            return SenderStep::Transmit(Message::Fin {
                session: self.plan.session,
            });
        }
        if now >= self.announce_due {
            self.announce_due = now + self.cfg.announce_interval;
            self.counters.feedback_sent += 1;
            return SenderStep::Transmit(self.plan.announce());
        }
        let wake = match self.cfg.completion {
            CompletionPolicy::Quiescence(q) => (self.last_demand + q).min(self.announce_due),
            CompletionPolicy::KnownReceivers(_) => self.announce_due,
        };
        SenderStep::WaitUntil(wake)
    }

    /// Feed one received message.
    ///
    /// # Errors
    /// None in practice (kept fallible for driver symmetry with NP).
    pub fn handle(&mut self, msg: &Message, now: f64) -> Result<(), ProtocolError> {
        if msg.session() != self.plan.session {
            return Ok(());
        }
        match msg {
            Message::NakPacket { group, index, .. } => {
                self.counters.feedback_received += 1;
                let g = *group;
                if g >= self.plan.groups || *index as usize >= self.plan.group_k(g) {
                    return Ok(());
                }
                self.last_demand = now;
                let serviced = self.serviced.entry(g).or_default();
                if !serviced.insert(*index) {
                    return Ok(()); // already retransmitted this round
                }
                let gk = self.plan.group_k(g) as u16;
                let retransmission = Message::Packet {
                    session: self.plan.session,
                    group: g,
                    index: *index,
                    k: gk,
                    n: gk,
                    payload: self.groups[g as usize][*index as usize].clone(),
                };
                // A fresh poll follows each retransmission batch; schedule
                // one if no poll for this group is already queued.
                let round = {
                    let r = &mut self.rounds[g as usize];
                    *r += 1;
                    *r
                };
                self.queue.push_front(Message::Poll {
                    session: self.plan.session,
                    group: g,
                    sent: 1,
                    round,
                });
                self.queue.push_front(retransmission);
            }
            Message::Done { receiver, .. } => {
                self.counters.feedback_received += 1;
                self.done_receivers.insert(*receiver);
            }
            Message::Poll { group, .. } => {
                // Self-delivered poll on UDP: marks the round boundary, so
                // clear the serviced set for that group.
                self.serviced.remove(group);
            }
            _ => {}
        }
        Ok(())
    }
}

/// A pending per-packet NAK at an N2 receiver.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PendingNak {
    deadline: f64,
}

/// N2 receiver state machine.
pub struct N2Receiver {
    id: u32,
    session: u32,
    nak_slot: f64,
    plan: Option<SessionPlan>,
    /// Received data packets per group. Every collection here is ordered:
    /// NAK scheduling iterates these maps, and servicing order must be a
    /// pure function of the seed, not of per-process hasher state.
    have: BTreeMap<u32, BTreeMap<u16, Bytes>>,
    /// Expected packet count per group (from packet headers).
    group_k: BTreeMap<u32, u16>,
    decoded: BTreeMap<u32, Vec<Bytes>>,
    pending: BTreeMap<(u32, u16), PendingNak>,
    max_group_seen: Option<u32>,
    quiet_announces: u32,
    rng: ChaCha8Rng,
    counters: CostCounters,
    complete_emitted: bool,
    fin_seen: bool,
}

impl N2Receiver {
    /// A receiver with identity `id` joining session `session`; `nak_slot`
    /// scales the random NAK delay.
    ///
    /// # Panics
    /// Panics unless `nak_slot > 0`.
    pub fn new(id: u32, session: u32, nak_slot: f64, seed: u64) -> Self {
        assert!(nak_slot > 0.0, "nak_slot must be positive");
        N2Receiver {
            id,
            session,
            nak_slot,
            plan: None,
            have: BTreeMap::new(),
            group_k: BTreeMap::new(),
            decoded: BTreeMap::new(),
            pending: BTreeMap::new(),
            max_group_seen: None,
            quiet_announces: 0,
            rng: ChaCha8Rng::seed_from_u64(seed ^ (id as u64) << 13),
            counters: CostCounters::default(),
            complete_emitted: false,
            fin_seen: false,
        }
    }

    /// The receiver's identity.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Processing counters.
    pub fn counters(&self) -> &CostCounters {
        &self.counters
    }

    /// True once every group is complete (requires a plan).
    pub fn is_complete(&self) -> bool {
        match &self.plan {
            Some(p) => self.decoded.len() as u64 == p.groups as u64,
            None => false,
        }
    }

    /// True if the sender has closed the session.
    pub fn fin_seen(&self) -> bool {
        self.fin_seen
    }

    /// Earliest NAK deadline.
    pub fn next_deadline(&self) -> Option<f64> {
        self.pending
            .values()
            .map(|p| p.deadline)
            .min_by(|a, b| a.total_cmp(b))
    }

    /// The transfer once complete, as the received packets (shared, not copied).
    ///
    /// # Errors
    /// [`ProtocolError::Inconsistent`] before completion.
    pub fn payload(&self) -> Result<Payload, ProtocolError> {
        match &self.plan {
            Some(plan) => plan.reassemble(&self.decoded),
            None => Err(ProtocolError::Inconsistent("no session plan yet".into())),
        }
    }

    fn check_group_complete(&mut self, group: u32, actions: &mut Vec<ReceiverAction>) {
        let Some(&gk) = self.group_k.get(&group) else {
            return;
        };
        let Some(have) = self.have.get(&group) else {
            return;
        };
        if have.len() == gk as usize && !self.decoded.contains_key(&group) {
            let packets: Vec<Bytes> = have.values().cloned().collect();
            self.decoded.insert(group, packets);
            self.have.remove(&group);
            // Cancel pending NAKs for this group.
            self.pending.retain(|(g, _), _| *g != group);
            actions.push(ReceiverAction::GroupDecoded { group });
            if self.is_complete() && !self.complete_emitted {
                self.complete_emitted = true;
                self.push_done(actions);
                actions.push(ReceiverAction::Complete);
            }
        }
    }

    /// Queue one `Done` for the transport (and count it as sent).
    fn push_done(&mut self, actions: &mut Vec<ReceiverAction>) {
        self.counters.feedback_sent += 1;
        actions.push(ReceiverAction::Send(Message::Done {
            session: self.session,
            receiver: self.id,
        }));
    }

    /// Feed one received message (same contract as
    /// [`crate::NpReceiver::handle`]).
    ///
    /// # Errors
    /// Geometry conflicts.
    pub fn handle(
        &mut self,
        msg: &Message,
        now: f64,
    ) -> Result<Vec<ReceiverAction>, ProtocolError> {
        if msg.session() != self.session {
            return Ok(Vec::new());
        }
        let mut actions = Vec::new();
        match msg {
            Message::Packet {
                group,
                index,
                k,
                payload,
                ..
            } => {
                self.counters.packets_received += 1;
                self.max_group_seen = Some(self.max_group_seen.unwrap_or(0).max(*group));
                self.quiet_announces = 0;
                if self.decoded.contains_key(group) {
                    self.counters.unneeded_receptions += 1;
                    return Ok(actions);
                }
                match self.group_k.get(group) {
                    Some(&gk) if gk != *k => {
                        return Err(ProtocolError::Inconsistent(format!(
                            "group {group} k changed: {k} vs {gk}"
                        )))
                    }
                    Some(_) => {}
                    None => {
                        self.group_k.insert(*group, *k);
                    }
                }
                let slot = self.have.entry(*group).or_default();
                if slot.insert(*index, payload.clone()).is_some() {
                    self.counters.unneeded_receptions += 1;
                }
                self.pending.remove(&(*group, *index));
                self.check_group_complete(*group, &mut actions);
            }
            Message::Poll { group, sent, .. } => {
                self.counters.feedback_received += 1;
                self.max_group_seen = Some(self.max_group_seen.unwrap_or(0).max(*group));
                self.quiet_announces = 0;
                // A poll solicits NAKs, never `Done` (see `NpReceiver`).
                if !self.complete_emitted && !self.decoded.contains_key(group) {
                    // Schedule a NAK per missing packet with random jitter.
                    let known_k = self.group_k.get(group).copied();
                    let missing: Vec<u16> = match known_k {
                        Some(gk) => {
                            let have = self.have.entry(*group).or_default();
                            (0..gk).filter(|i| !have.contains_key(i)).collect()
                        }
                        // Whole round lost: NAK the `sent` indices
                        // announced by the poll.
                        None => (0..*sent).collect(),
                    };
                    for i in missing {
                        self.counters.timers += 1;
                        let jitter: f64 =
                            self.rng.random::<f64>() * self.nak_slot * (1.0 + *sent as f64);
                        self.pending.entry((*group, i)).or_insert(PendingNak {
                            deadline: now + jitter,
                        });
                    }
                }
            }
            Message::NakPacket { group, index, .. } => {
                // Another receiver NAKed the same packet: ours is damped.
                self.counters.feedback_received += 1;
                if self.pending.remove(&(*group, *index)).is_some() {
                    self.counters.feedback_suppressed += 1;
                }
            }
            Message::Announce { .. } => {
                // N2 announces carry n == k (no parities).
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
                if self.complete_emitted {
                    // A keep-alive announce after we finished: the sender
                    // still waits on someone, possibly on our lost `Done`.
                    self.push_done(&mut actions);
                } else if self.is_complete() {
                    self.complete_emitted = true;
                    self.push_done(&mut actions);
                    actions.push(ReceiverAction::Complete);
                } else {
                    // Recovery heartbeat: re-NAK everything still missing
                    // in case an entire retransmission round (and its
                    // poll) was lost. The pending map dedupes; the same
                    // not-yet-transmitted gates as NP apply.
                    self.quiet_announces += 1;
                    if let Some(plan) = self.plan {
                        for g in 0..plan.groups {
                            if self.decoded.contains_key(&g) {
                                continue;
                            }
                            let transmitted = self.max_group_seen.is_some_and(|m| g <= m);
                            if !transmitted && self.quiet_announces < 2 {
                                continue;
                            }
                            let gk = plan.group_k(g) as u16;
                            self.group_k.entry(g).or_insert(gk);
                            let have = self.have.entry(g).or_default();
                            let missing: Vec<u16> =
                                (0..gk).filter(|i| !have.contains_key(i)).collect();
                            for i in missing {
                                let jitter: f64 = self.rng.random::<f64>() * self.nak_slot;
                                self.pending.entry((g, i)).or_insert(PendingNak {
                                    deadline: now + jitter,
                                });
                            }
                        }
                    }
                }
            }
            Message::Fin { .. } => {
                self.fin_seen = true;
            }
            Message::Nak { .. } | Message::Done { .. } | Message::FecFrame { .. } => {}
        }
        Ok(actions)
    }

    /// Fire due NAK timers.
    pub fn on_timer(&mut self, now: f64) -> Vec<ReceiverAction> {
        let mut due: Vec<(u32, u16)> = self
            .pending
            .iter()
            .filter(|(_, p)| p.deadline <= now)
            .map(|(&key, _)| key)
            .collect();
        due.sort_unstable();
        let mut actions = Vec::new();
        for key in due {
            self.pending.remove(&key);
            self.counters.feedback_sent += 1;
            self.counters.timers += 1;
            actions.push(ReceiverAction::Send(Message::NakPacket {
                session: self.session,
                group: key.0,
                index: key.1,
            }));
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SESSION: u32 = 31;

    fn config() -> NpConfig {
        let mut c = NpConfig::small(CompletionPolicy::KnownReceivers(1));
        c.k = 3;
        c.payload_len = 16;
        c
    }

    fn data(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 13 % 251) as u8).collect()
    }

    fn drain(s: &mut N2Sender, now: f64) -> Vec<Message> {
        let mut out = Vec::new();
        while let SenderStep::Transmit(m) = s.next_step(now) {
            out.push(m);
        }
        out
    }

    #[test]
    fn sender_initial_schedule_has_no_parities() {
        let mut s = N2Sender::new(SESSION, &data(100), config()).unwrap();
        let msgs = drain(&mut s, 0.0);
        for m in &msgs {
            if let Message::Packet { index, k, n, .. } = m {
                assert!(index < k, "N2 sends only originals");
                assert_eq!(k, n, "no parity space in N2 blocks");
            }
        }
        assert_eq!(s.counters().data_sent, 7);
    }

    #[test]
    fn nak_packet_triggers_named_retransmission_once() {
        let mut s = N2Sender::new(SESSION, &data(100), config()).unwrap();
        let _ = drain(&mut s, 0.0);
        let nak = Message::NakPacket {
            session: SESSION,
            group: 0,
            index: 1,
        };
        s.handle(&nak, 0.1).unwrap();
        s.handle(&nak, 0.1).unwrap(); // duplicate within the round
        let out = drain(&mut s, 0.1);
        let retx: Vec<_> = out
            .iter()
            .filter(|m| {
                matches!(
                    m,
                    Message::Packet {
                        group: 0,
                        index: 1,
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(retx.len(), 1, "dedupe within a round: {out:?}");
        assert_eq!(s.counters().repairs_sent, 1);
    }

    #[test]
    fn full_exchange_lossless() {
        let bytes = data(100);
        let mut tx = N2Sender::new(SESSION, &bytes, config()).unwrap();
        let mut rx = N2Receiver::new(1, SESSION, 0.001, 7);
        let mut complete = false;
        let mut to_sender: Vec<Message> = Vec::new();
        let mut now = 0.0;
        for _ in 0..200 {
            for m in drain(&mut tx, now) {
                for a in rx.handle(&m, now).unwrap() {
                    match a {
                        ReceiverAction::Send(r) => to_sender.push(r),
                        ReceiverAction::Complete => complete = true,
                        ReceiverAction::GroupDecoded { .. } => {}
                    }
                }
            }
            for m in std::mem::take(&mut to_sender) {
                tx.handle(&m, now).unwrap();
            }
            if tx.is_finished() {
                break;
            }
            now += 0.01;
        }
        assert!(complete);
        assert_eq!(rx.payload().unwrap(), bytes);
        assert!(tx.is_finished());
    }

    #[test]
    fn initial_schedule_repeats_the_announce_ahead_of_the_last_group() {
        let mut s = N2Sender::new(SESSION, &data(100), config()).unwrap();
        let msgs = drain(&mut s, 0.0);
        // Groups of 3, 3, 1: announce, (3 + poll) x 2, announce, 1 + poll.
        let announces: Vec<usize> = (0..msgs.len())
            .filter(|&i| matches!(msgs[i], Message::Announce { .. }))
            .collect();
        assert_eq!(announces, vec![0, 9]);
        assert!(matches!(msgs[10], Message::Packet { group: 2, .. }));
    }

    #[test]
    fn completed_receiver_is_silent_on_polls_and_answers_keepalive_announces() {
        let bytes = data(100);
        let mut tx = N2Sender::new(SESSION, &bytes, config()).unwrap();
        let mut rx = N2Receiver::new(5, SESSION, 0.001, 17);
        let schedule = drain(&mut tx, 0.0);
        let dones = schedule
            .iter()
            .flat_map(|m| rx.handle(m, 0.0).unwrap())
            .filter(|a| matches!(a, ReceiverAction::Send(Message::Done { .. })))
            .count();
        assert!(rx.is_complete());
        // The last group's own poll arrives after completion: no second Done.
        assert_eq!(dones, 1);
        for group in 0..5 {
            for round in [1, 2, u16::MAX] {
                let poll = Message::Poll {
                    session: SESSION,
                    group,
                    sent: 3,
                    round,
                };
                assert_eq!(rx.handle(&poll, 1.0).unwrap(), vec![]);
            }
        }
        assert_eq!(rx.next_deadline(), None);
        assert_eq!(rx.counters().feedback_sent, 1, "only the completion Done");
        let announce = tx.plan().announce();
        assert_eq!(
            rx.handle(&announce, 5.0).unwrap(),
            vec![ReceiverAction::Send(Message::Done {
                session: SESSION,
                receiver: 5
            })]
        );
        assert_eq!(rx.counters().feedback_sent, 2);
    }

    #[test]
    fn receiver_naks_missing_packets_after_poll() {
        let bytes = data(100);
        let mut tx = N2Sender::new(SESSION, &bytes, config()).unwrap();
        let mut rx = N2Receiver::new(1, SESSION, 0.001, 9);
        // Deliver everything except group 0 packet 1.
        for m in drain(&mut tx, 0.0) {
            let skip = matches!(
                m,
                Message::Packet {
                    group: 0,
                    index: 1,
                    ..
                }
            );
            if !skip {
                let _ = rx.handle(&m, 0.0).unwrap();
            }
        }
        assert!(rx.next_deadline().is_some(), "NAK scheduled for the hole");
        let actions = rx.on_timer(f64::MAX);
        assert_eq!(
            actions,
            vec![ReceiverAction::Send(Message::NakPacket {
                session: SESSION,
                group: 0,
                index: 1
            })]
        );
    }

    #[test]
    fn overheard_nak_packet_suppresses() {
        let bytes = data(100);
        let mut tx = N2Sender::new(SESSION, &bytes, config()).unwrap();
        let mut rx = N2Receiver::new(1, SESSION, 0.001, 11);
        for m in drain(&mut tx, 0.0) {
            let skip = matches!(
                m,
                Message::Packet {
                    group: 0,
                    index: 1,
                    ..
                }
            );
            if !skip {
                let _ = rx.handle(&m, 0.0).unwrap();
            }
        }
        assert!(rx.next_deadline().is_some());
        rx.handle(
            &Message::NakPacket {
                session: SESSION,
                group: 0,
                index: 1,
            },
            0.001,
        )
        .unwrap();
        assert!(rx.next_deadline().is_none(), "identical NAK damps ours");
        assert_eq!(rx.counters().feedback_suppressed, 1);
    }

    #[test]
    fn retransmission_completes_receiver() {
        let bytes = data(100);
        let mut tx = N2Sender::new(SESSION, &bytes, config()).unwrap();
        let mut rx = N2Receiver::new(1, SESSION, 0.001, 13);
        for m in drain(&mut tx, 0.0) {
            let skip = matches!(
                m,
                Message::Packet {
                    group: 1,
                    index: 0,
                    ..
                }
            );
            if !skip {
                let _ = rx.handle(&m, 0.0).unwrap();
            }
        }
        // Fire the NAK, feed it to the sender, deliver the repair.
        let nak = match rx.on_timer(f64::MAX).pop() {
            Some(ReceiverAction::Send(m)) => m,
            other => panic!("expected NAK, got {other:?}"),
        };
        tx.handle(&nak, 0.5).unwrap();
        let mut complete = false;
        for m in drain(&mut tx, 0.5) {
            for a in rx.handle(&m, 0.5).unwrap() {
                if matches!(a, ReceiverAction::Complete) {
                    complete = true;
                }
            }
        }
        assert!(complete);
        assert_eq!(rx.payload().unwrap(), bytes);
    }

    /// Determinism contract: the full N2 message transcript (sender and
    /// receiver sides, including the order retransmissions are serviced
    /// in) must be a pure function of the seed. This is the regression
    /// test for the `determinism-hash-iter` hazard pm-audit flags —
    /// `pending`/`serviced` lived in `HashMap`s whose iteration order
    /// varies with per-process hasher state.
    fn lossy_transcript(seed: u64) -> Vec<Message> {
        let bytes = data(300);
        let mut cfg = config();
        cfg.k = 4;
        let mut tx = N2Sender::new(SESSION, &bytes, cfg).unwrap();
        let mut rx = N2Receiver::new(1, SESSION, 0.001, seed);
        let mut transcript = Vec::new();
        let mut to_sender: Vec<Message> = Vec::new();
        let mut now = 0.0;
        let mut first_pass = true;
        for _ in 0..400 {
            for m in drain(&mut tx, now) {
                transcript.push(m.clone());
                // First transmission: drop a deterministic packet subset so
                // several NAKs race; repairs always arrive.
                let drop = first_pass
                    && matches!(
                        &m,
                        Message::Packet { group, index, .. }
                            if (*group as usize + *index as usize) % 3 == 1
                    );
                if !drop {
                    for a in rx.handle(&m, now).unwrap() {
                        if let ReceiverAction::Send(r) = a {
                            transcript.push(r.clone());
                            to_sender.push(r);
                        }
                    }
                }
            }
            first_pass = false;
            for a in rx.on_timer(now) {
                if let ReceiverAction::Send(r) = a {
                    transcript.push(r.clone());
                    to_sender.push(r);
                }
            }
            for m in std::mem::take(&mut to_sender) {
                tx.handle(&m, now).unwrap();
            }
            if tx.is_finished() {
                break;
            }
            now += 0.01;
        }
        assert!(tx.is_finished(), "exchange must converge");
        assert_eq!(rx.payload().unwrap(), bytes);
        transcript
    }

    #[test]
    fn transcripts_identical_across_runs() {
        let a = lossy_transcript(42);
        let b = lossy_transcript(42);
        assert_eq!(a, b, "N2 servicing order must be seed-deterministic");
        // And the transcript actually contains serviced retransmissions,
        // so the equality above exercises the ordering path.
        assert!(a.iter().any(|m| matches!(m, Message::NakPacket { .. })));
    }

    #[test]
    fn unknown_group_poll_naks_announced_count() {
        let mut rx = N2Receiver::new(1, SESSION, 0.001, 15);
        rx.handle(
            &Message::Poll {
                session: SESSION,
                group: 2,
                sent: 3,
                round: 1,
            },
            0.0,
        )
        .unwrap();
        let actions = rx.on_timer(f64::MAX);
        assert_eq!(actions.len(), 3, "one NAK per announced packet");
    }
}
