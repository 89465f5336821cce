//! The session sender — one sans-io state machine for protocols NP and N2.
//!
//! The runtime drives it with a simple loop: call `next_step` to learn
//! what to do (transmit a message — paced at the application's packet
//! rate —, sleep until a deadline, or stop), and feed every incoming
//! message to `handle` (both [`SenderMachine`] methods).
//!
//! [`Sender`] holds what the two protocols share, once: the work queue,
//! groups scheduled in order, each first round followed by `POLL(i, s)`,
//! the repeated and keep-alive announces, the `Roll` of receivers that
//! reported `Done`, quiescence, eviction and the FIN. A NAK *interrupts*
//! the current group: its repair round and a new poll go to the front of
//! the queue, and transmission resumes where it left off. What the round
//! holds is the [`Repair`] policy's, and the paper's Section 5 names the
//! only two structural differences between the protocols: NP answers a
//! per-group `NAK(i, l)` with `l` fresh parities ([`NpRepair`]), N2 a
//! per-packet NAK with the named original (`crate::n2::N2Repair`).
//!
//! NP (Section 5.1) encodes the parities on demand or takes them from the
//! pre-encoded store. Per-group round counters make duplicate NAKs of an
//! already-serviced round harmless: one that echoes an older round is
//! dropped for as long as the group's NAK slots could still hold answers
//! to its polls, and serviced as a recovery NAK after that. If a
//! pathological receiver exhausts the parity budget `h`, NP falls back to
//! retransmitting original data packets (functionally the paper's "place
//! the packets into a new TG" — the receiver needs at most `k` specific
//! packets at that point, and originals always help).

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

/// The receivers that reported `Done`, and how many must before the
/// sender may finish (`None`: no roll is called). Every sender keeps one.
#[derive(Debug, Clone)]
struct Roll {
    done_receivers: BTreeSet<u32>,
    target: Option<u32>,
}

impl Roll {
    fn new(target: Option<u32>) -> Self {
        Roll {
            done_receivers: BTreeSet::new(),
            target,
        }
    }

    /// Count a `Done` from `receiver` as feedback and enter it.
    fn on_done(&mut self, receiver: u32, counters: &mut CostCounters) {
        counters.feedback_received += 1;
        self.done_receivers.insert(receiver);
    }

    /// True once the target is met (never without one).
    fn reached(&self) -> bool {
        self.target.is_some() && self.outstanding() == 0
    }

    fn count(&self) -> usize {
        self.done_receivers.len()
    }

    fn ids(&self) -> Vec<u32> {
        self.done_receivers.iter().copied().collect()
    }

    /// Receivers still owed a `Done` (0 without a target).
    fn outstanding(&self) -> u32 {
        let done = self.done_receivers.len() as u32;
        self.target.map_or(0, |t| t.saturating_sub(done))
    }

    /// Lower the target to the receivers that answered; returns how many
    /// were given up on.
    fn evict(&mut self) -> u32 {
        let evicted = self.outstanding();
        if evicted > 0 {
            self.target = Some(self.done_receivers.len() as u32);
        }
        evicted
    }

    /// The paper's scalability argument: the roll tracks only *who*
    /// reported `Done` — one id per receiver, no per-packet per-receiver
    /// bookkeeping — so this stays at ~4 bytes per receiver no matter how
    /// large the transfer.
    fn state_bytes(&self) -> usize {
        self.done_receivers.len() * std::mem::size_of::<u32>()
    }
}

/// What a [`Sender`] sends to repair: what a group's first round adds to
/// its data, and the round that answers a NAK.
pub trait Repair: Send + Sized {
    /// Parities per group that the session plan announces.
    fn budget(cfg: &NpConfig) -> usize;
    /// Per-group state for a transfer of `groups` under `cfg` (work done
    /// up front is counted into `counters`).
    ///
    /// # Errors
    /// Coding failures.
    fn new(
        cfg: &NpConfig,
        groups: &[Vec<Bytes>],
        counters: &mut CostCounters,
    ) -> Result<Self, ProtocolError>;
    /// What follows group `g`'s data in its first round.
    ///
    /// # Errors
    /// Coding failures.
    fn proactive(_s: &mut Sender<Self>, _g: u32) -> Result<Vec<Message>, ProtocolError> {
        Ok(Vec::new())
    }
    /// Answer `msg` if it is this policy's NAK (counting it as feedback):
    /// `None` if it is not, or names nothing to repair; otherwise the
    /// packets of one group's repair round, empty when an earlier round
    /// already answers the NAK.
    ///
    /// # Errors
    /// Coding failures.
    fn on_nak(
        s: &mut Sender<Self>,
        msg: &Message,
        now: f64,
    ) -> Result<Option<Vec<Message>>, ProtocolError>;
    /// Whether block packet `index` (of a group of `k`), about to go out,
    /// counts as a repair rather than as data.
    fn is_repair(s: &Sender<Self>, index: u16, k: u16) -> bool;
    /// A poll of `group` announcing `sent` packets went out (or came back
    /// on a loopback).
    fn polled(&mut self, _group: u32, _sent: u16) {}
    /// Feedback-dependent state in bytes, beyond the roll.
    fn state_bytes(&self) -> usize {
        0
    }
}

/// The sender state machine for one session, under repair policy `R`.
pub struct Sender<R> {
    pub(crate) cfg: NpConfig,
    pub(crate) plan: SessionPlan,
    /// Each group's data packets.
    pub(crate) groups: Vec<Vec<Bytes>>,
    /// Each group's current round (1 = its first transmission).
    pub(crate) rounds: Vec<u16>,
    pub(crate) counters: CostCounters,
    pub(crate) obs: Obs,
    pub(crate) repair: R,
    queue: VecDeque<Message>,
    /// Next group whose first round has not been scheduled yet (groups
    /// are scheduled lazily so adaptive parity can learn from feedback).
    next_group: u32,
    roll: Roll,
    /// Time of the last NAK (or start) for quiescence detection.
    last_demand: f64,
    announce_due: f64,
    fin_sent: bool,
}

/// The NP sender.
pub type NpSender = Sender<NpRepair>;

impl<R: Repair> Sender<R> {
    /// Build a sender for `data` under `cfg`; `session` identifies the
    /// transfer on the group.
    ///
    /// # Errors
    /// Configuration/geometry errors.
    pub fn new(session: u32, data: &[u8], cfg: NpConfig) -> Result<Self, ProtocolError> {
        cfg.validate()?;
        let bytes = data.len() as u64;
        let plan = SessionPlan::new(session, bytes, cfg.k, R::budget(&cfg), cfg.payload_len)?;
        let groups = plan.split(data);
        let mut counters = CostCounters::default();
        let repair = R::new(&cfg, &groups, &mut counters)?;
        counters.feedback_sent += 1; // the announce
        let target = match cfg.completion {
            CompletionPolicy::KnownReceivers(r) => Some(r),
            CompletionPolicy::Quiescence(_) => None,
        };
        Ok(Sender {
            cfg,
            plan,
            rounds: vec![1; groups.len()],
            groups,
            counters,
            obs: Obs::null(),
            repair,
            queue: VecDeque::from([plan.announce()]),
            next_group: 0,
            roll: Roll::new(target),
            last_demand: 0.0,
            announce_due: 0.0,
            fin_sent: false,
        })
    }

    /// Session plan (geometry of the transfer).
    pub fn plan(&self) -> &SessionPlan {
        &self.plan
    }

    /// Queue group `g`'s first round: its data, what the policy adds,
    /// and the poll.
    fn schedule_first_round(&mut self, g: u32) -> Result<(), ProtocolError> {
        if self.plan.reannounce_before(g) {
            self.queue.push_back(self.plan.announce());
        }
        let data = self.groups.get(g as usize).into_iter().flatten();
        for (i, payload) in data.enumerate() {
            let packet = self.plan.packet(g, i as u16, payload.clone());
            self.queue.push_back(packet);
        }
        let extra = R::proactive(self, g)?;
        let sent = self.plan.group_k(g) + extra.len();
        self.queue.extend(extra);
        self.queue.push_back(self.plan.poll(g, sent as u16, 1));
        Ok(())
    }

    /// Interrupt: group `g`'s repair round and a poll opening its next
    /// round go to the front of the queue, in order.
    fn queue_repair(&mut self, g: u32, repair: Vec<Message>, now: f64) {
        let Some(round) = self.rounds.get_mut(g as usize) else {
            return;
        };
        *round += 1;
        let round = *round;
        self.obs.emit(now, || {
            let parities = repair
                .iter()
                .filter(|m| matches!(m, Message::Packet { index, k, .. } if index >= k))
                .count() as u16;
            Event::RepairRound {
                session: self.plan.session,
                group: g,
                round,
                parities,
                originals: repair.len() as u16 - parities,
            }
        });
        let poll = self.plan.poll(g, repair.len() as u16, round);
        self.queue.push_front(poll);
        for msg in repair.into_iter().rev() {
            self.queue.push_front(msg);
        }
    }

    fn completion_reached(&self, now: f64) -> bool {
        match self.cfg.completion {
            CompletionPolicy::KnownReceivers(_) => self.roll.reached(),
            CompletionPolicy::Quiescence(q) => now - self.last_demand >= q,
        }
    }

    /// Count (and trace) `msg` as it goes out.
    fn transmit(&mut self, msg: Message, now: f64) -> SenderStep {
        match msg {
            Message::Packet {
                session,
                group,
                index,
                k,
                ..
            } => {
                if R::is_repair(self, index, k) {
                    self.counters.repairs_sent += 1;
                    self.obs.emit(now, || Event::ParitySent {
                        session,
                        group,
                        index,
                    });
                } else {
                    self.counters.data_sent += 1;
                    self.obs.emit(now, || Event::DataSent {
                        session,
                        group,
                        index,
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
                    session,
                    group,
                    sent,
                    round,
                });
                self.repair.polled(group, sent);
            }
            Message::Announce { session, .. } => {
                self.counters.feedback_sent += 1;
                // A transmitted announce resets the keep-alive clock.
                self.announce_due = now + self.cfg.announce_interval;
                self.obs.emit(now, || Event::AnnounceSent { session });
            }
            _ => {}
        }
        SenderStep::Transmit(msg)
    }
}

impl NpSender {
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
        for enc in &mut self.repair.encoders {
            enc.set_timer(hist.clone());
        }
    }
}

impl<R: Repair> SenderMachine for Sender<R> {
    /// Decide the next action. Call again after performing it (and pace
    /// packet transmissions at the application's send rate).
    #[expect(
        clippy::expect_used,
        reason = "new() validated what schedule_first_round checks"
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
            self.schedule_first_round(g)
                .expect("validated group schedules");
        }
        if let Some(msg) = self.queue.pop_front() {
            return self.transmit(msg, now);
        }
        let session = self.plan.session;
        if self.completion_reached(now) {
            self.fin_sent = true;
            self.obs.emit(now, || Event::FinSent { session });
            return SenderStep::Transmit(Message::Fin { session });
        }
        // Idle: keep the session discoverable and give the quiescence
        // clock a wake-up point.
        if now >= self.announce_due {
            return self.transmit(self.plan.announce(), now);
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
    fn handle(&mut self, msg: &Message, now: f64) -> Result<(), ProtocolError> {
        if msg.session() != self.plan.session {
            return Ok(());
        }
        match msg {
            Message::Done { session, receiver } => {
                self.roll.on_done(*receiver, &mut self.counters);
                self.obs.emit(now, || Event::DoneRecv {
                    session: *session,
                    receiver: *receiver,
                });
            }
            // Our own poll, self-delivered on UDP.
            Message::Poll { group, sent, .. } => self.repair.polled(*group, *sent),
            _ => {
                if let Some(repair) = R::on_nak(self, msg, now)? {
                    self.last_demand = now;
                    if let Some(Message::Packet { group, .. }) = repair.first() {
                        self.queue_repair(*group, repair, now);
                    }
                }
            }
        }
        Ok(())
    }

    fn counters(&self) -> &CostCounters {
        &self.counters
    }

    fn done_count(&self) -> usize {
        self.roll.count()
    }

    fn done_ids(&self) -> Vec<u32> {
        self.roll.ids()
    }

    /// Receiver-dependent sender state in bytes: the roll, plus whatever
    /// per-packet bookkeeping the repair policy keeps (ROADMAP item
    /// 13 (b)'s acceptance metric, exported as the
    /// `sender.state_bytes_per_receiver` gauge).
    fn state_bytes(&self) -> usize {
        self.roll.state_bytes() + self.repair.state_bytes()
    }

    /// Receivers still outstanding under
    /// [`CompletionPolicy::KnownReceivers`] (0 under quiescence, which has
    /// no roll to call).
    fn outstanding(&self) -> u32 {
        self.roll.outstanding()
    }

    /// Give up on receivers that never reported `Done`: lower the
    /// known-receivers completion target to the responsive population and
    /// return how many were evicted. A no-op (returning 0) under
    /// quiescence completion or when everyone already answered.
    fn evict_outstanding(&mut self) -> u32 {
        self.roll.evict()
    }

    fn is_finished(&self) -> bool {
        self.fin_sent
    }
}

/// Per-group NP repair state.
#[derive(Debug, Clone)]
struct GroupProgress {
    /// Parities generated so far (next parity index = k + this).
    parities_used: usize,
    /// Data packets resent after parity exhaustion (round-robin cursor).
    resend_cursor: usize,
    /// When this group last had a repair serviced (recovery-NAK gate).
    last_service: f64,
    /// The most packets any of the group's polls announced: its NAK slots
    /// span this many slot widths.
    max_sent: u16,
}

impl GroupProgress {
    /// How long after a service a NAK echoing an older round may still be
    /// a duplicate: a receiver answers a poll of `sent` packets within
    /// `sent` NAK slots, so `(sent + 1) · nak_slot` covers the slots and
    /// one slot of delivery, capped at `round_timeout`.
    fn duplicate_window(&self, cfg: &NpConfig) -> f64 {
        ((f64::from(self.max_sent) + 1.0) * cfg.nak_slot).min(cfg.round_timeout)
    }
}

/// NP's repair: `NAK(i, l)` is answered with `l` fresh parities of group
/// `i`, and a group's first round may carry proactive parities.
pub struct NpRepair {
    /// One encoder per distinct group size (full groups + possibly a short
    /// final group).
    encoders: Vec<RseEncoder>,
    /// Pre-encoded parities per group (full budget) when `cfg.preencode`.
    preencoded: Option<Vec<Vec<Bytes>>>,
    progress: Vec<GroupProgress>,
    /// Observed round-1 NAK demand per group (0 until a NAK arrives).
    round1_demand: Vec<u16>,
}

/// One encoder per distinct group size in `groups` (full groups and
/// possibly a short final group), each with parity budget `h`.
fn encoders(groups: &[Vec<Bytes>], h: usize) -> Result<Vec<RseEncoder>, ProtocolError> {
    let mut encoders: Vec<RseEncoder> = Vec::new();
    for data in groups {
        if !encoders.iter().any(|e| e.spec().k() == data.len()) {
            encoders.push(RseEncoder::new(CodeSpec::new(data.len(), h)?)?);
        }
    }
    Ok(encoders)
}

/// The encoder for groups of `k` data packets.
fn encoder(encoders: &[RseEncoder], k: usize) -> Result<&RseEncoder, ProtocolError> {
    encoders
        .iter()
        .find(|e| e.spec().k() == k)
        .ok_or_else(|| ProtocolError::Inconsistent(format!("no encoder for k = {k}")))
}

/// Every group's whole parity budget, encoded up front (and counted): one
/// round per group.
fn preencode(
    encoders: &[RseEncoder],
    groups: &[Vec<Bytes>],
    counters: &mut CostCounters,
) -> Result<Vec<Vec<Bytes>>, ProtocolError> {
    let mut all = Vec::with_capacity(groups.len());
    for data in groups {
        let enc = encoder(encoders, data.len())?;
        let parities = enc.encode_round(0, enc.spec().h(), data)?;
        counters.parities_encoded += parities.len() as u64;
        all.push(parities);
    }
    Ok(all)
}

impl NpRepair {
    /// Proactive parity count for the group about to be scheduled: the
    /// configured static `a`, or — under adaptive parity — the rounded-up
    /// mean of the most recent observed round-1 demands.
    fn proactive_count(&self, g: u32, cfg: &NpConfig, group_k: usize) -> usize {
        if !cfg.adaptive_parity || g == 0 {
            return cfg.proactive_parity.min(cfg.h);
        }
        let recent = (g as usize).saturating_sub(8)..g as usize;
        let window = self.round1_demand.get(recent).unwrap_or_default();
        let sum: u32 = window.iter().map(|&d| d as u32).sum();
        let mean = (sum as f64 / window.len() as f64).ceil() as usize;
        mean.min(cfg.h).min(group_k)
    }

    /// Produce `count` parity packets for group `g`, falling back to
    /// original-data retransmission once the budget is exhausted. The
    /// round's fresh parities are one [`RseEncoder::encode_round`] call.
    #[expect(
        clippy::indexing_slicing,
        reason = "g < plan.groups indexes the per-group vectors; parities_used + fresh <= h and i < k index the group"
    )]
    fn produce(s: &mut NpSender, g: u32, count: usize) -> Result<Vec<Message>, ProtocolError> {
        let np = &mut s.repair;
        let data = &s.groups[g as usize];
        let pr = &mut np.progress[g as usize];
        let first = pr.parities_used;
        let fresh = count.min(s.cfg.h.saturating_sub(first));
        pr.parities_used += fresh;
        let encoded;
        let parities: &[Bytes] = match &np.preencoded {
            Some(all) => &all[g as usize][first..first + fresh],
            None if fresh == 0 => &[],
            None => {
                s.counters.parities_encoded += fresh as u64;
                encoded = encoder(&np.encoders, data.len())?.encode_round(first, fresh, data)?;
                &encoded
            }
        };
        let mut out = Vec::with_capacity(count);
        for (j, payload) in (first..).zip(parities) {
            out.push(s.plan.packet(g, (data.len() + j) as u16, payload.clone()));
        }
        // Budget exhausted: resend originals round-robin.
        for _ in fresh..count {
            let i = pr.resend_cursor % data.len();
            pr.resend_cursor += 1;
            out.push(s.plan.packet(g, i as u16, data[i].clone()));
        }
        Ok(out)
    }
}

impl Repair for NpRepair {
    fn budget(cfg: &NpConfig) -> usize {
        cfg.h
    }

    fn new(
        cfg: &NpConfig,
        groups: &[Vec<Bytes>],
        counters: &mut CostCounters,
    ) -> Result<Self, ProtocolError> {
        let encoders = encoders(groups, cfg.h)?;
        let preencoded = if cfg.preencode {
            Some(preencode(&encoders, groups, counters)?)
        } else {
            None
        };
        let fresh = GroupProgress {
            parities_used: 0,
            resend_cursor: 0,
            last_service: f64::NEG_INFINITY,
            max_sent: 0,
        };
        Ok(NpRepair {
            encoders,
            preencoded,
            progress: vec![fresh; groups.len()],
            round1_demand: vec![0; groups.len()],
        })
    }

    fn proactive(s: &mut NpSender, g: u32) -> Result<Vec<Message>, ProtocolError> {
        let a = s.repair.proactive_count(g, &s.cfg, s.plan.group_k(g));
        NpRepair::produce(s, g, a)
    }

    fn on_nak(
        s: &mut NpSender,
        msg: &Message,
        now: f64,
    ) -> Result<Option<Vec<Message>>, ProtocolError> {
        let Message::Nak {
            session,
            group: g,
            needed,
            round,
        } = *msg
        else {
            return Ok(None);
        };
        s.counters.feedback_received += 1;
        let current = s.rounds.get(g as usize).copied();
        let stale = current.is_some_and(|r| round != r);
        s.obs.emit(now, || Event::NakRecv {
            session,
            group: g,
            needed,
            round,
            stale,
        });
        let Some(pr) = s.repair.progress.get_mut(g as usize) else {
            return Ok(None);
        };
        if needed == 0 {
            return Ok(None);
        }
        // A NAK echoing the current round is serviced immediately. One
        // echoing an older round is a duplicate that escaped suppression
        // while answers to the serviced poll can still arrive, and is
        // ignored; after that it is a recovery NAK from a receiver that
        // lost a whole repair round (poll included) and asked again at the
        // announce heartbeat. It must be serviced or the session
        // livelocks, and every slot it waits adds to the session's tail.
        if stale && now - pr.last_service < pr.duplicate_window(&s.cfg) {
            return Ok(Some(Vec::new()));
        }
        pr.last_service = now;
        if let (1, Some(demand)) = (round, s.repair.round1_demand.get_mut(g as usize)) {
            *demand = (*demand).max(needed);
        }
        let count = (needed as usize).min(s.plan.group_k(g));
        NpRepair::produce(s, g, count).map(Some)
    }

    fn is_repair(_s: &NpSender, index: u16, k: u16) -> bool {
        index >= k
    }

    fn polled(&mut self, group: u32, sent: u16) {
        if let Some(pr) = self.progress.get_mut(group as usize) {
            pr.max_sent = pr.max_sent.max(sent);
        }
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

    /// The repair round (packets and poll) that a NAK of `group` for one
    /// packet, echoing `round` and handled at `now`, makes the sender send.
    fn nak_at(s: &mut NpSender, group: u32, round: u16, now: f64) -> Vec<Message> {
        let nak = Message::Nak {
            session: SESSION,
            group,
            needed: 1,
            round,
        };
        s.handle(&nak, now).unwrap();
        let mut sent = drain(s, now);
        sent.retain(|m| !matches!(m, Message::Announce { .. }));
        sent
    }

    /// A slot of 2^-7 s keeps every window boundary exact in `f64`.
    const SLOT: f64 = 1.0 / 128.0;

    #[test]
    fn an_older_round_is_a_duplicate_only_within_the_nak_slots() {
        let mut cfg = config(1);
        cfg.nak_slot = SLOT;
        // One group of k = 3: its round-1 poll announces 3 packets, so
        // answers to it come within 3 slots, and the window is 4.
        let window = 4.0 * SLOT;
        let mut s = NpSender::new(SESSION, &data(48), cfg).unwrap();
        let _ = drain(&mut s, 0.0);
        assert_eq!(nak_at(&mut s, 0, 1, 1.0).len(), 2, "a parity and a poll");
        let early = 1.0 + window - SLOT / 8.0;
        assert!(nak_at(&mut s, 0, 1, early).is_empty(), "a duplicate");
        let recovery = nak_at(&mut s, 0, 1, 1.0 + window);
        assert_eq!(recovery.len(), 2, "a recovery NAK: {recovery:?}");
        assert!(matches!(recovery[1], Message::Poll { round: 3, .. }));
        // The recovery's own service opens a new window, for every older
        // round.
        let again = 1.0 + window + SLOT / 8.0;
        assert!(nak_at(&mut s, 0, 2, again).is_empty());
        assert!(nak_at(&mut s, 0, 1, again).is_empty());
    }

    #[test]
    fn the_duplicate_window_spans_the_largest_poll_adaptive_parity_included() {
        let mut cfg = config(1);
        cfg.nak_slot = SLOT;
        cfg.adaptive_parity = true;
        cfg.h = 6;
        // Groups of 3, 3 and 1: group 0's round-1 demand of 2 makes group
        // 1's poll announce 3 + 2 packets, so its window is 6 slots.
        let mut s = NpSender::new(SESSION, &data(100), cfg).unwrap();
        while !matches!(s.next_step(0.0), SenderStep::Transmit(Message::Poll { .. })) {}
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
        let rest = drain(&mut s, 0.002);
        assert!(rest.contains(&Message::Poll {
            session: SESSION,
            group: 1,
            sent: 5,
            round: 1
        }));
        let _ = nak_at(&mut s, 1, 1, 1.0);
        assert!(nak_at(&mut s, 1, 1, 1.0 + 5.5 * SLOT).is_empty());
        assert_eq!(nak_at(&mut s, 1, 1, 1.0 + 6.0 * SLOT).len(), 2);
    }

    #[test]
    fn round_timeout_caps_the_duplicate_window() {
        let mut cfg = config(1);
        cfg.nak_slot = SLOT;
        cfg.round_timeout = 2.0 * SLOT; // below the 4 slots of k = 3
        let mut s = NpSender::new(SESSION, &data(48), cfg).unwrap();
        let _ = drain(&mut s, 0.0);
        let _ = nak_at(&mut s, 0, 1, 1.0);
        assert!(nak_at(&mut s, 0, 1, 1.0 + 1.5 * SLOT).is_empty());
        assert_eq!(nak_at(&mut s, 0, 1, 1.0 + 2.0 * SLOT).len(), 2);
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
