//! The NP sender — a sans-io state machine.
//!
//! The runtime drives it with a simple loop: call [`NpSender::next_step`]
//! to learn what to do (transmit a message — paced at the application's
//! packet rate —, sleep until a deadline, or stop), and feed every
//! incoming message to [`NpSender::handle`].
//!
//! Transmission follows Section 5.1: groups go out in order, each followed
//! by `POLL(i, s)`; an arriving `NAK(i, l)` *interrupts* the current group
//! (repair work is pushed to the front of the work queue), the sender
//! encodes `l` fresh parities for group `i` (or takes them from the
//! pre-encoded store), multicasts them plus a new poll, and resumes where
//! it left off. Per-group round counters make duplicate NAKs of an
//! already-serviced round harmless.
//!
//! If a pathological receiver exhausts the parity budget `h`, the sender
//! falls back to retransmitting original data packets (functionally the
//! paper's "place the packets into a new TG" — the receiver needs at most
//! `k` specific packets at that point, and originals always help).

use std::collections::{BTreeSet, VecDeque};

use bytes::Bytes;

use pm_net::Message;
use pm_obs::{Event, Histogram, Obs, Role};
use pm_rse::{CodeSpec, RseEncoder};

use crate::config::{CompletionPolicy, NpConfig};
use crate::costs::CostCounters;
use crate::error::ProtocolError;
use crate::runtime::SenderMachine;
use crate::session::SessionPlan;

/// What the runtime should do next.
#[derive(Debug, Clone, PartialEq)]
pub enum SenderStep {
    /// Multicast this message (pace data/parity packets at the send rate).
    Transmit(Message),
    /// Nothing to send; wake at the given time (or when a message
    /// arrives).
    WaitUntil(f64),
    /// Session finished (FIN already transmitted).
    Finished,
}

/// Per-group transmission state.
#[derive(Debug, Clone)]
struct GroupProgress {
    /// Current feedback round (1 = initial transmission).
    round: u16,
    /// Parities generated so far (next parity index = k + this).
    parities_used: usize,
    /// Data packets resent after parity exhaustion (round-robin cursor).
    resend_cursor: usize,
    /// When this group last had a repair serviced (recovery-NAK gate).
    last_service: f64,
}

/// NP sender state machine for one session.
pub struct NpSender {
    cfg: NpConfig,
    plan: SessionPlan,
    groups: Vec<Vec<Bytes>>,
    encoders: Vec<(CodeSpec, RseEncoder)>,
    /// Pre-encoded parities per group (full budget) when `cfg.preencode`.
    preencoded: Option<Vec<Vec<Bytes>>>,
    progress: Vec<GroupProgress>,
    queue: VecDeque<Message>,
    /// Next group whose initial round has not been scheduled yet (groups
    /// are scheduled lazily so adaptive parity can learn from feedback).
    next_group: u32,
    /// Observed round-1 NAK demand per group (0 until a NAK arrives).
    round1_demand: Vec<u16>,
    done_receivers: BTreeSet<u32>,
    counters: CostCounters,
    /// Time of the last NAK (or start) for quiescence detection.
    last_demand: f64,
    announce_due: f64,
    fin_sent: bool,
    obs: Obs,
}

impl NpSender {
    /// Build a sender for `data` under `cfg`; `session` identifies the
    /// transfer on the group.
    ///
    /// # Errors
    /// Configuration/geometry errors.
    #[expect(
        clippy::expect_used,
        reason = "every group's encoder is pushed just above"
    )]
    pub fn new(session: u32, data: &[u8], cfg: NpConfig) -> Result<Self, ProtocolError> {
        cfg.validate()?;
        let plan = SessionPlan::new(session, data.len() as u64, cfg.k, cfg.h, cfg.payload_len)?;
        let groups = plan.split(data);

        // One encoder per distinct geometry (full groups + possibly a
        // short final group).
        let mut encoders: Vec<(CodeSpec, RseEncoder)> = Vec::new();
        for g in 0..plan.groups {
            let spec = CodeSpec::new(plan.group_k(g), cfg.h)?;
            if !encoders.iter().any(|(s, _)| *s == spec) {
                encoders.push((spec, RseEncoder::new(spec)?));
            }
        }

        let mut counters = CostCounters::default();
        let preencoded = if cfg.preencode {
            let mut all = Vec::with_capacity(groups.len());
            for (g, packets) in groups.iter().enumerate() {
                let spec = CodeSpec::new(plan.group_k(g as u32), cfg.h)?;
                let enc = &encoders
                    .iter()
                    .find(|(s, _)| *s == spec)
                    .expect("built above")
                    .1;
                let parities: Vec<Bytes> = enc
                    .encode_all(packets)?
                    .into_iter()
                    .map(Bytes::from)
                    .collect();
                counters.parities_encoded += parities.len() as u64;
                all.push(parities);
            }
            Some(all)
        } else {
            None
        };

        // Initial schedule: announce, then each group's data (+ proactive
        // parities) followed by its poll.
        let mut queue = VecDeque::new();
        queue.push_back(plan.announce());
        let group_count = plan.groups as usize;
        let mut sender = NpSender {
            cfg,
            plan,
            groups,
            encoders,
            preencoded,
            progress: vec![
                GroupProgress {
                    round: 1,
                    parities_used: 0,
                    resend_cursor: 0,
                    last_service: f64::NEG_INFINITY,
                };
                group_count
            ],
            queue,
            next_group: 0,
            round1_demand: vec![0; group_count],
            done_receivers: BTreeSet::new(),
            counters,
            last_demand: 0.0,
            announce_due: 0.0,
            fin_sent: false,
            obs: Obs::null(),
        };
        sender.counters.feedback_sent += 1; // the announce
        Ok(sender)
    }

    /// Emit structured events to `obs` (a `session_start` marks the
    /// attachment point).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self.obs.emit(0.0, || Event::SessionStart {
            role: Role::Sender,
            session: self.plan.session,
            groups: self.plan.groups,
            bytes: self.plan.total_bytes,
        });
        self
    }

    /// Record per-parity encode latency into `hist` (all geometries).
    pub fn set_encode_timer(&mut self, hist: Histogram) {
        for (_, enc) in &mut self.encoders {
            enc.set_timer(hist.clone());
        }
    }

    fn geometry(&self, g: u32) -> (u16, u16) {
        let gk = self.plan.group_k(g) as u16;
        (gk, gk + self.plan.h)
    }

    #[expect(
        clippy::expect_used,
        reason = "new() validated every group's spec and built its encoder"
    )]
    fn encoder_for(&self, g: u32) -> &RseEncoder {
        let spec = CodeSpec::new(self.plan.group_k(g), self.cfg.h).expect("validated at build");
        &self
            .encoders
            .iter()
            .find(|(s, _)| *s == spec)
            .expect("built in new()")
            .1
    }

    /// Proactive parity count for the group about to be scheduled: the
    /// configured static `a`, or — under adaptive parity — the rounded-up
    /// mean of the most recent observed round-1 demands.
    #[expect(
        clippy::indexing_slicing,
        reason = "0 < g < plan.groups, the length of round1_demand"
    )]
    fn proactive_count(&self, g: u32) -> usize {
        if !self.cfg.adaptive_parity || g == 0 {
            return self.cfg.proactive_parity.min(self.cfg.h);
        }
        let window = &self.round1_demand[(g as usize).saturating_sub(8)..g as usize];
        let sum: u32 = window.iter().map(|&d| d as u32).sum();
        let mean = (sum as f64 / window.len() as f64).ceil() as usize;
        mean.min(self.cfg.h).min(self.plan.group_k(g))
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "g < plan.groups, and groups has one entry per group"
    )]
    fn schedule_initial_group(&mut self, g: u32) -> Result<(), ProtocolError> {
        let (k, n) = self.geometry(g);
        if self.plan.reannounce_before(g) {
            self.queue.push_back(self.plan.announce());
        }
        for (i, payload) in self.groups[g as usize].iter().enumerate() {
            self.queue.push_back(Message::Packet {
                session: self.plan.session,
                group: g,
                index: i as u16,
                k,
                n,
                payload: payload.clone(),
            });
        }
        let a = self.proactive_count(g);
        if a > 0 {
            let parities = self.produce_parities(g, a)?;
            for msg in parities {
                self.queue.push_back(msg);
            }
        }
        self.queue.push_back(Message::Poll {
            session: self.plan.session,
            group: g,
            sent: k + a as u16,
            round: 1,
        });
        Ok(())
    }

    /// Produce `count` parity packets for group `g`, falling back to
    /// original-data retransmission once the budget is exhausted.
    #[expect(
        clippy::indexing_slicing,
        reason = "g < plan.groups indexes the per-group vectors; j < h and i < k index the group"
    )]
    fn produce_parities(&mut self, g: u32, count: usize) -> Result<Vec<Message>, ProtocolError> {
        let (k, n) = self.geometry(g);
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let pr = &mut self.progress[g as usize];
            if pr.parities_used < self.cfg.h {
                let j = pr.parities_used;
                pr.parities_used += 1;
                let payload: Bytes = match &self.preencoded {
                    Some(all) => all[g as usize][j].clone(),
                    None => {
                        self.counters.parities_encoded += 1;
                        let enc = self.encoder_for(g);
                        Bytes::from(enc.parity(j, &self.groups[g as usize])?)
                    }
                };
                out.push(Message::Packet {
                    session: self.plan.session,
                    group: g,
                    index: k + j as u16,
                    k,
                    n,
                    payload,
                });
            } else {
                // Budget exhausted: resend originals round-robin.
                let pr = &mut self.progress[g as usize];
                let i = pr.resend_cursor % self.plan.group_k(g);
                pr.resend_cursor += 1;
                out.push(Message::Packet {
                    session: self.plan.session,
                    group: g,
                    index: i as u16,
                    k,
                    n,
                    payload: self.groups[g as usize][i].clone(),
                });
            }
        }
        Ok(out)
    }

    /// Session plan (geometry of the transfer).
    pub fn plan(&self) -> &SessionPlan {
        &self.plan
    }

    fn completion_reached(&self, now: f64) -> bool {
        match self.cfg.completion {
            CompletionPolicy::KnownReceivers(r) => self.done_receivers.len() as u32 >= r,
            CompletionPolicy::Quiescence(q) => now - self.last_demand >= q,
        }
    }
}

impl SenderMachine for NpSender {
    /// Decide the next action. Call again after performing it (and pace
    /// packet transmissions at the application's send rate).
    #[expect(
        clippy::expect_used,
        reason = "new() validated what schedule_initial_group checks"
    )]
    fn next_step(&mut self, now: f64) -> SenderStep {
        if self.fin_sent {
            return SenderStep::Finished;
        }
        if self.queue.is_empty() && self.next_group < self.plan.groups {
            let g = self.next_group;
            self.next_group += 1;
            // Cannot fail: geometry and packet sizes were validated at
            // construction, and the parity budget arithmetic is internal.
            self.schedule_initial_group(g)
                .expect("validated group schedules");
        }
        if let Some(msg) = self.queue.pop_front() {
            match &msg {
                Message::Packet {
                    session,
                    group,
                    index,
                    k,
                    ..
                } => {
                    if index < k {
                        self.counters.data_sent += 1;
                        self.obs.emit(now, || Event::DataSent {
                            session: *session,
                            group: *group,
                            index: *index,
                        });
                    } else {
                        self.counters.repairs_sent += 1;
                        self.obs.emit(now, || Event::ParitySent {
                            session: *session,
                            group: *group,
                            index: *index,
                        });
                    }
                }
                Message::Poll {
                    session,
                    group,
                    sent,
                    round,
                } => {
                    self.counters.feedback_sent += 1;
                    self.obs.emit(now, || Event::PollSent {
                        session: *session,
                        group: *group,
                        sent: *sent,
                        round: *round,
                    });
                }
                Message::Announce { session, .. } => {
                    self.counters.feedback_sent += 1;
                    // A transmitted announce resets the keep-alive clock.
                    self.announce_due = now + self.cfg.announce_interval;
                    self.obs
                        .emit(now, || Event::AnnounceSent { session: *session });
                }
                _ => {}
            }
            return SenderStep::Transmit(msg);
        }
        if self.completion_reached(now) {
            self.fin_sent = true;
            self.obs.emit(now, || Event::FinSent {
                session: self.plan.session,
            });
            return SenderStep::Transmit(Message::Fin {
                session: self.plan.session,
            });
        }
        // Idle: keep the session discoverable and give the quiescence
        // clock a wake-up point.
        if now >= self.announce_due {
            self.announce_due = now + self.cfg.announce_interval;
            self.counters.feedback_sent += 1;
            self.obs.emit(now, || Event::AnnounceSent {
                session: self.plan.session,
            });
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
    /// Coding failures while producing repair parities.
    #[expect(
        clippy::indexing_slicing,
        reason = "a NAK's group is checked against plan.groups first"
    )]
    fn handle(&mut self, msg: &Message, now: f64) -> Result<(), ProtocolError> {
        if msg.session() != self.plan.session {
            return Ok(());
        }
        match msg {
            Message::Nak {
                group,
                needed,
                round,
                ..
            } => {
                self.counters.feedback_received += 1;
                let g = *group;
                let round_mismatch =
                    g < self.plan.groups && *round != self.progress[g as usize].round;
                self.obs.emit(now, || Event::NakRecv {
                    session: self.plan.session,
                    group: g,
                    needed: *needed,
                    round: *round,
                    stale: round_mismatch,
                });
                if g >= self.plan.groups || *needed == 0 {
                    return Ok(());
                }
                self.last_demand = now;
                let pr = &mut self.progress[g as usize];
                // A NAK echoing the current round is serviced immediately.
                // A *stale* round usually means a duplicate that escaped
                // suppression — ignored — but it can also be a recovery
                // NAK from a receiver that lost an entire repair round
                // (including its poll). Those must still be serviced or
                // the session livelocks, so stale NAKs pass once the group
                // has been quiet for a full round_timeout.
                let stale = *round != pr.round;
                if stale && now - pr.last_service < self.cfg.round_timeout {
                    return Ok(());
                }
                if *round == 1 {
                    self.round1_demand[g as usize] = self.round1_demand[g as usize].max(*needed);
                }
                let pr = &mut self.progress[g as usize];
                pr.round += 1;
                pr.last_service = now;
                let next_round = pr.round;
                let count = (*needed as usize).min(self.plan.group_k(g));
                let mut repair = self.produce_parities(g, count)?;
                self.obs.emit(now, || {
                    let parities = repair
                        .iter()
                        .filter(|m| matches!(m, Message::Packet { index, k, .. } if index >= k))
                        .count() as u16;
                    Event::RepairRound {
                        session: self.plan.session,
                        group: g,
                        round: next_round,
                        parities,
                        originals: count as u16 - parities,
                    }
                });
                repair.push(Message::Poll {
                    session: self.plan.session,
                    group: g,
                    sent: count as u16,
                    round: next_round,
                });
                // Interrupt: repair goes to the front, preserving order.
                for msg in repair.into_iter().rev() {
                    self.queue.push_front(msg);
                }
            }
            Message::Done { receiver, .. } => {
                self.counters.feedback_received += 1;
                self.obs.emit(now, || Event::DoneRecv {
                    session: self.plan.session,
                    receiver: *receiver,
                });
                self.done_receivers.insert(*receiver);
            }
            // Self-delivered traffic on UDP (our own packets/polls) and
            // receiver-side types are ignored.
            Message::Packet { .. }
            | Message::Poll { .. }
            | Message::Announce { .. }
            | Message::Fin { .. }
            | Message::NakPacket { .. }
            | Message::FecFrame { .. } => {}
        }
        Ok(())
    }

    fn counters(&self) -> &CostCounters {
        &self.counters
    }

    fn done_count(&self) -> usize {
        self.done_receivers.len()
    }

    fn done_ids(&self) -> Vec<u32> {
        self.done_receivers.iter().copied().collect()
    }

    /// Receiver-dependent sender state in bytes.
    ///
    /// The paper's scalability argument: an NP sender tracks only *who*
    /// reported `Done` — one id per receiver, no per-packet per-receiver
    /// bookkeeping — so this stays at ~4 bytes per receiver no matter how
    /// large the transfer (ROADMAP item 2's acceptance metric, exported
    /// as the `sender.state_bytes_per_receiver` gauge).
    fn state_bytes(&self) -> usize {
        self.done_receivers.len() * std::mem::size_of::<u32>()
    }

    /// Receivers still outstanding under
    /// [`CompletionPolicy::KnownReceivers`] (0 under quiescence, which has
    /// no roll to call).
    fn outstanding(&self) -> u32 {
        match self.cfg.completion {
            CompletionPolicy::KnownReceivers(r) => {
                r.saturating_sub(self.done_receivers.len() as u32)
            }
            CompletionPolicy::Quiescence(_) => 0,
        }
    }

    /// Give up on receivers that never reported `Done`: lower the
    /// known-receivers completion target to the responsive population and
    /// return how many were evicted. A no-op (returning 0) under
    /// quiescence completion or when everyone already answered.
    fn evict_outstanding(&mut self) -> u32 {
        let evicted = self.outstanding();
        if evicted > 0 {
            self.cfg.completion =
                CompletionPolicy::KnownReceivers(self.done_receivers.len() as u32);
        }
        evicted
    }

    fn is_finished(&self) -> bool {
        self.fin_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SESSION: u32 = 21;

    fn config(recv: u32) -> NpConfig {
        let mut c = NpConfig::small(CompletionPolicy::KnownReceivers(recv));
        c.payload_len = 16;
        c.k = 3;
        c.h = 4;
        c
    }

    fn data(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 7 % 251) as u8).collect()
    }

    /// Drain transmissions until the sender goes idle; returns them.
    fn drain(sender: &mut NpSender, now: f64) -> Vec<Message> {
        let mut out = Vec::new();
        loop {
            match sender.next_step(now) {
                SenderStep::Transmit(m) => out.push(m),
                SenderStep::WaitUntil(_) | SenderStep::Finished => return out,
            }
        }
    }

    #[test]
    fn initial_schedule_order() {
        let mut s = NpSender::new(SESSION, &data(100), config(1)).unwrap();
        let msgs = drain(&mut s, 0.0);
        // 100 bytes / 16 = 7 packets; k = 3 -> groups of 3, 3, 1.
        assert!(matches!(msgs[0], Message::Announce { .. }));
        // The plan is repeated once, right ahead of the last group's data
        // (after group 1's poll: 1 + (3 + 1) + (3 + 1) messages in).
        assert_eq!(msgs[9], msgs[0]);
        assert!(matches!(msgs[10], Message::Packet { group: 2, .. }));
        let mut polls = 0;
        let mut per_group_counts = std::collections::BTreeMap::new();
        for (at, m) in msgs.iter().enumerate().skip(1) {
            match m {
                Message::Announce { .. } if at == 9 => {}
                Message::Packet {
                    group, index, k, ..
                } => {
                    assert!(index < k, "round 1 sends only data");
                    *per_group_counts.entry(*group).or_insert(0usize) += 1;
                }
                Message::Poll { sent, .. } => {
                    polls += 1;
                    assert!(*sent > 0);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(polls, 3);
        assert_eq!(per_group_counts[&0], 3);
        assert_eq!(per_group_counts[&2], 1);
        assert_eq!(s.counters().data_sent, 7);
    }

    #[test]
    fn nak_interrupts_with_parities_and_poll() {
        let mut s = NpSender::new(SESSION, &data(100), config(1)).unwrap();
        let _ = drain(&mut s, 0.0);
        s.handle(
            &Message::Nak {
                session: SESSION,
                group: 0,
                needed: 2,
                round: 1,
            },
            0.01,
        )
        .unwrap();
        let repair = drain(&mut s, 0.01);
        assert_eq!(repair.len(), 3, "2 parities + 1 poll: {repair:?}");
        for m in &repair[..2] {
            match m {
                Message::Packet {
                    group: 0, index, k, ..
                } => assert!(index >= k),
                other => panic!("expected parity, got {other:?}"),
            }
        }
        assert_eq!(
            repair[2],
            Message::Poll {
                session: SESSION,
                group: 0,
                sent: 2,
                round: 2
            }
        );
        assert_eq!(s.counters().repairs_sent, 2);
        assert_eq!(s.counters().parities_encoded, 2);
    }

    #[test]
    fn parities_are_fresh_across_rounds() {
        let mut s = NpSender::new(SESSION, &data(48), config(1)).unwrap();
        let _ = drain(&mut s, 0.0);
        s.handle(
            &Message::Nak {
                session: SESSION,
                group: 0,
                needed: 1,
                round: 1,
            },
            0.01,
        )
        .unwrap();
        let first = drain(&mut s, 0.01);
        s.handle(
            &Message::Nak {
                session: SESSION,
                group: 0,
                needed: 1,
                round: 2,
            },
            0.02,
        )
        .unwrap();
        let second = drain(&mut s, 0.02);
        let idx = |m: &Message| match m {
            Message::Packet { index, .. } => *index,
            _ => panic!("not a packet"),
        };
        assert_ne!(
            idx(&first[0]),
            idx(&second[0]),
            "each round uses new parity indices"
        );
    }

    #[test]
    fn stale_nak_ignored() {
        let mut s = NpSender::new(SESSION, &data(48), config(1)).unwrap();
        let _ = drain(&mut s, 0.0);
        s.handle(
            &Message::Nak {
                session: SESSION,
                group: 0,
                needed: 1,
                round: 1,
            },
            0.01,
        )
        .unwrap();
        let _ = drain(&mut s, 0.01);
        // A duplicate NAK for round 1 (suppression failed) is stale now.
        s.handle(
            &Message::Nak {
                session: SESSION,
                group: 0,
                needed: 3,
                round: 1,
            },
            0.015,
        )
        .unwrap();
        assert!(
            drain(&mut s, 0.015).is_empty(),
            "stale NAK must not trigger repair"
        );
    }

    #[test]
    fn parity_exhaustion_falls_back_to_originals() {
        let mut cfg = config(1);
        cfg.h = 1;
        let mut s = NpSender::new(SESSION, &data(48), cfg).unwrap();
        let _ = drain(&mut s, 0.0);
        s.handle(
            &Message::Nak {
                session: SESSION,
                group: 0,
                needed: 3,
                round: 1,
            },
            0.01,
        )
        .unwrap();
        let repair = drain(&mut s, 0.01);
        // 3 requested, budget 1: one parity then originals.
        let kinds: Vec<bool> = repair
            .iter()
            .filter_map(|m| match m {
                Message::Packet { index, k, .. } => Some(index >= k),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, vec![true, false, false]);
    }

    #[test]
    fn completion_by_known_receivers() {
        let mut s = NpSender::new(SESSION, &data(48), config(2)).unwrap();
        let _ = drain(&mut s, 0.0);
        assert!(!s.completion_reached(1.0));
        s.handle(
            &Message::Done {
                session: SESSION,
                receiver: 1,
            },
            1.0,
        )
        .unwrap();
        s.handle(
            &Message::Done {
                session: SESSION,
                receiver: 1,
            },
            1.1,
        )
        .unwrap(); // dup
        assert_eq!(s.done_count(), 1);
        s.handle(
            &Message::Done {
                session: SESSION,
                receiver: 2,
            },
            1.2,
        )
        .unwrap();
        match s.next_step(1.3) {
            SenderStep::Transmit(Message::Fin { .. }) => {}
            other => panic!("expected FIN, got {other:?}"),
        }
        assert!(matches!(s.next_step(1.4), SenderStep::Finished));
        assert!(s.is_finished());
    }

    #[test]
    fn completion_by_quiescence() {
        let mut cfg = config(1);
        cfg.completion = CompletionPolicy::Quiescence(0.5);
        let mut s = NpSender::new(SESSION, &data(48), cfg).unwrap();
        let _ = drain(&mut s, 0.0);
        // A NAK resets the quiescence clock.
        s.handle(
            &Message::Nak {
                session: SESSION,
                group: 0,
                needed: 1,
                round: 1,
            },
            0.02,
        )
        .unwrap();
        let _ = drain(&mut s, 0.02);
        if let SenderStep::Transmit(Message::Fin { .. }) = s.next_step(0.3) {
            // Still inside the window: announce or wait, but never FIN.
            panic!("premature FIN");
        }
        // Past last_demand + 0.5 with an empty queue: FIN.
        let mut fin_seen = false;
        for _ in 0..5 {
            if let SenderStep::Transmit(Message::Fin { .. }) = s.next_step(0.9) {
                fin_seen = true;
                break;
            }
        }
        assert!(fin_seen);
    }

    #[test]
    fn idle_reannounces() {
        let mut s = NpSender::new(SESSION, &data(48), config(1)).unwrap();
        let _ = drain(&mut s, 0.0);
        // First idle step at t >= announce_due re-announces.
        match s.next_step(10.0) {
            SenderStep::Transmit(Message::Announce { .. }) => {}
            other => panic!("expected re-announce, got {other:?}"),
        }
        // Immediately after, it waits.
        assert!(matches!(s.next_step(10.0), SenderStep::WaitUntil(_)));
    }

    #[test]
    fn preencode_counts_all_parities_upfront() {
        let mut cfg = config(1);
        cfg.preencode = true;
        cfg.h = 4;
        let s = NpSender::new(SESSION, &data(100), cfg).unwrap();
        // 3 groups x 4 parities.
        assert_eq!(s.counters().parities_encoded, 12);
    }

    #[test]
    fn foreign_and_self_messages_ignored() {
        let mut s = NpSender::new(SESSION, &data(48), config(1)).unwrap();
        let _ = drain(&mut s, 0.0);
        s.handle(
            &Message::Nak {
                session: SESSION + 1,
                group: 0,
                needed: 3,
                round: 1,
            },
            0.01,
        )
        .unwrap();
        s.handle(
            &Message::Poll {
                session: SESSION,
                group: 0,
                sent: 3,
                round: 1,
            },
            0.01,
        )
        .unwrap();
        assert!(drain(&mut s, 0.01).is_empty());
    }

    #[test]
    fn nak_for_unknown_group_ignored() {
        let mut s = NpSender::new(SESSION, &data(48), config(1)).unwrap();
        let _ = drain(&mut s, 0.0);
        s.handle(
            &Message::Nak {
                session: SESSION,
                group: 99,
                needed: 1,
                round: 1,
            },
            0.01,
        )
        .unwrap();
        assert!(drain(&mut s, 0.01).is_empty());
    }

    #[test]
    fn adaptive_parity_learns_from_round1_demand() {
        let mut cfg = config(1);
        cfg.adaptive_parity = true;
        cfg.h = 6;
        // 100 bytes / 16 = 7 packets; k = 3 -> groups 0,1 full, group 2
        // has 1 packet.
        let mut s = NpSender::new(SESSION, &data(100), cfg).unwrap();
        // Step until group 0's poll goes out (announce + 3 data + poll).
        let mut polls = 0;
        let mut sent = Vec::new();
        while polls == 0 {
            match s.next_step(0.0) {
                SenderStep::Transmit(m) => {
                    if matches!(m, Message::Poll { .. }) {
                        polls += 1;
                    }
                    sent.push(m);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // Receivers report needing 2 packets in round 1.
        s.handle(
            &Message::Nak {
                session: SESSION,
                group: 0,
                needed: 2,
                round: 1,
            },
            0.001,
        )
        .unwrap();
        // Drain the repair + everything else; group 1's initial round must
        // now carry 2 proactive parities (learned demand).
        let rest = drain(&mut s, 0.002);
        let g1_parities = rest
            .iter()
            .filter(|m| matches!(m, Message::Packet { group: 1, index, k, .. } if index >= k))
            .count();
        assert_eq!(
            g1_parities, 2,
            "group 1 should carry the learned demand: {rest:?}"
        );
        // And its poll advertises k + a packets.
        let g1_poll = rest.iter().find_map(|m| match m {
            Message::Poll { group: 1, sent, .. } => Some(*sent),
            _ => None,
        });
        assert_eq!(g1_poll, Some(5), "poll sent = k + a = 3 + 2");
    }

    #[test]
    fn adaptive_parity_stays_zero_without_demand() {
        let mut cfg = config(1);
        cfg.adaptive_parity = true;
        let mut s = NpSender::new(SESSION, &data(100), cfg).unwrap();
        let msgs = drain(&mut s, 0.0);
        let parities = msgs
            .iter()
            .filter(|m| matches!(m, Message::Packet { index, k, .. } if index >= k))
            .count();
        assert_eq!(parities, 0, "no demand observed, no proactive parities");
    }

    #[test]
    fn empty_transfer_announces_and_finishes() {
        let mut s = NpSender::new(SESSION, &[], config(1)).unwrap();
        let msgs = drain(&mut s, 0.0);
        assert_eq!(msgs.len(), 1);
        assert!(matches!(msgs[0], Message::Announce { .. }));
        s.handle(
            &Message::Done {
                session: SESSION,
                receiver: 5,
            },
            0.1,
        )
        .unwrap();
        assert!(matches!(
            s.next_step(0.2),
            SenderStep::Transmit(Message::Fin { .. })
        ));
    }
}
