//! Feedback-free carousel distribution — the paper's **Integrated FEC 1**
//! as a real protocol.
//!
//! Section 4.2 describes the variant: "parity packets are transmitted with
//! the same rate 1/delta immediately following the original packets. When a
//! receiver has received enough parity packets, it leaves the multicast
//! group. In this scheme no feedback is needed for loss recovery." This is
//! the satellite/broadcast-distribution mode: the sender cycles the FEC
//! blocks of the whole transfer — data first, then parities, groups
//! interleaved — and any receiver that collects `k` packets of every group
//! reconstructs the transfer and departs. Late joiners are first-class:
//! every cycle is as good as the first.
//!
//! The sender is a [`crate::runtime::SenderMachine`], so `pm-mux` drives it
//! like any other; the ordinary [`crate::NpReceiver`] is the receiver (it
//! never gets polled, so it never sends repair feedback — its only
//! transmission is the final `Done`, which [`CarouselStop::AllDone`] uses
//! for termination and [`CarouselStop::Cycles`] ignores entirely).

use bytes::Bytes;

use pm_net::Message;

use crate::costs::CostCounters;
use crate::error::ProtocolError;
use crate::runtime::SenderMachine;
use crate::sender::{encoders, preencode, Roll, SenderStep};
use crate::session::SessionPlan;

/// When the carousel stops spinning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CarouselStop {
    /// Transmit this many full cycles, then FIN. Fully feedback-free.
    Cycles(u32),
    /// Spin until this many distinct receivers reported `Done` (the only
    /// feedback used), then FIN.
    AllDone(u32),
}

/// Carousel configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CarouselConfig {
    /// Data packets per transmission group.
    pub k: usize,
    /// Parities carried per group *in every cycle*.
    pub h: usize,
    /// Payload bytes per packet.
    pub payload_len: usize,
    /// Termination rule.
    pub stop: CarouselStop,
    /// Emit a session announce every this many packets (receivers may join
    /// mid-cycle and need the geometry).
    pub announce_every: usize,
}

impl CarouselConfig {
    /// `k = 20, h = 4` (20% redundancy per cycle), announce every 50
    /// packets.
    pub fn default_with(stop: CarouselStop) -> Self {
        CarouselConfig {
            k: 20,
            h: 4,
            payload_len: 1024,
            stop,
            announce_every: 50,
        }
    }

    /// What [`SessionPlan::new`] does not check already.
    fn validate(&self) -> Result<(), ProtocolError> {
        if self.payload_len > pm_net::wire::MAX_PAYLOAD {
            return Err(ProtocolError::Config("payload_len out of range".into()));
        }
        if self.announce_every == 0 {
            return Err(ProtocolError::Config(
                "announce_every must be positive".into(),
            ));
        }
        if let CarouselStop::Cycles(0) = self.stop {
            return Err(ProtocolError::Config("Cycles(0) transmits nothing".into()));
        }
        if let CarouselStop::AllDone(0) = self.stop {
            return Err(ProtocolError::Config("AllDone(0) is vacuous".into()));
        }
        Ok(())
    }
}

/// The carousel sender state machine.
pub struct CarouselSender {
    cfg: CarouselConfig,
    plan: SessionPlan,
    /// All packets of all groups in one interleaved transmission cycle:
    /// `(group, block_index, payload)`.
    schedule: Vec<(u32, u16, Bytes)>,
    cursor: usize,
    cycles_done: u32,
    since_announce: usize,
    roll: Roll,
    counters: CostCounters,
    fin_sent: bool,
}

impl CarouselSender {
    /// Pre-encode the transfer and build the interleaved cycle schedule.
    ///
    /// # Errors
    /// Configuration or coding failures.
    pub fn new(session: u32, data: &[u8], cfg: CarouselConfig) -> Result<Self, ProtocolError> {
        cfg.validate()?;
        let plan = SessionPlan::new(session, data.len() as u64, cfg.k, cfg.h, cfg.payload_len)?;
        let groups = plan.split(data);
        let mut counters = CostCounters::default();

        // Pre-encode every group's parities (the natural carousel mode —
        // Fig. 18's pre-encoding column).
        let parities = preencode(&encoders(&groups, cfg.h)?, &groups, &mut counters)?;
        let blocks: Vec<Vec<Bytes>> = groups
            .into_iter()
            .zip(parities)
            .map(|(data, parities)| data.into_iter().chain(parities).collect())
            .collect();

        // Interleave across groups: transmit position 0 of every group,
        // then position 1, ... — a loss burst of length L damages each
        // block by at most ceil(L / groups). A short last group drops out
        // of the rotation once exhausted, so from then on the divisor is
        // the number of groups still in play.
        let mut schedule = Vec::new();
        let max_len = blocks.iter().map(Vec::len).max().unwrap_or(0);
        for pos in 0..max_len {
            for (g, block) in blocks.iter().enumerate() {
                if let Some(payload) = block.get(pos) {
                    schedule.push((g as u32, pos as u16, payload.clone()));
                }
            }
        }
        Ok(CarouselSender {
            cfg,
            plan,
            schedule,
            cursor: 0,
            cycles_done: 0,
            since_announce: 0,
            roll: Roll::new(match cfg.stop {
                CarouselStop::AllDone(r) => Some(r),
                // Cycle-bounded carousels owe nobody anything.
                CarouselStop::Cycles(_) => None,
            }),
            counters,
            fin_sent: false,
        })
    }

    /// Session plan.
    pub fn plan(&self) -> &SessionPlan {
        &self.plan
    }

    /// Full cycles completed so far.
    pub fn cycles_done(&self) -> u32 {
        self.cycles_done
    }

    fn stop_reached(&self) -> bool {
        match self.cfg.stop {
            CarouselStop::Cycles(c) => self.cycles_done >= c,
            CarouselStop::AllDone(_) => self.roll.reached(),
        }
    }
}

impl SenderMachine for CarouselSender {
    #[expect(
        clippy::indexing_slicing,
        reason = "cursor wraps to 0 at schedule.len(), never empty here"
    )]
    fn next_step(&mut self, _now: f64) -> SenderStep {
        if self.fin_sent {
            return SenderStep::Finished;
        }
        if self.stop_reached() || self.schedule.is_empty() {
            self.fin_sent = true;
            return SenderStep::Transmit(Message::Fin {
                session: self.plan.session,
            });
        }
        // Periodic announce keeps late joiners informed.
        if self.since_announce == 0 {
            self.since_announce = self.cfg.announce_every;
            self.counters.feedback_sent += 1;
            return SenderStep::Transmit(self.plan.announce());
        }
        self.since_announce -= 1;
        let (group, index, payload) = self.schedule[self.cursor].clone();
        self.cursor += 1;
        if self.cursor == self.schedule.len() {
            self.cursor = 0;
            self.cycles_done += 1;
        }
        if (index as usize) < self.plan.group_k(group) {
            self.counters.data_sent += 1;
        } else {
            self.counters.repairs_sent += 1;
        }
        SenderStep::Transmit(self.plan.packet(group, index, payload))
    }

    /// Feed one received message. Only `Done` matters (and only under
    /// [`CarouselStop::AllDone`]); everything else is ignored — the whole
    /// point of the scheme.
    ///
    /// # Errors
    /// None; fallible for driver symmetry.
    fn handle(&mut self, msg: &Message, _now: f64) -> Result<(), ProtocolError> {
        if msg.session() != self.plan.session {
            return Ok(());
        }
        if let Message::Done { receiver, .. } = msg {
            self.roll.on_done(*receiver, &mut self.counters);
        }
        Ok(())
    }

    fn is_finished(&self) -> bool {
        self.fin_sent
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
    fn outstanding(&self) -> u32 {
        self.roll.outstanding()
    }
    fn evict_outstanding(&mut self) -> u32 {
        self.roll.evict()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::NpReceiver;
    use crate::runtime::ReceiverMachine;

    const SESSION: u32 = 0xCA80;

    fn data(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 37 % 251) as u8).collect()
    }

    fn cfg(stop: CarouselStop) -> CarouselConfig {
        CarouselConfig {
            k: 5,
            h: 2,
            payload_len: 16,
            stop,
            announce_every: 10,
        }
    }

    /// Drain one full cycle's transmissions.
    fn drain_cycle(s: &mut CarouselSender) -> Vec<Message> {
        let mut out = Vec::new();
        let start = s.cycles_done();
        while s.cycles_done() == start && !s.is_finished() {
            match s.next_step(0.0) {
                SenderStep::Transmit(m) => out.push(m),
                other => panic!("carousel never waits: {other:?}"),
            }
        }
        out
    }

    #[test]
    fn schedule_interleaves_groups() {
        let mut s =
            CarouselSender::new(SESSION, &data(5 * 16 * 3), cfg(CarouselStop::Cycles(1))).unwrap();
        let msgs = drain_cycle(&mut s);
        // First packets after the announce alternate across the 3 groups.
        let first_groups: Vec<u32> = msgs
            .iter()
            .filter_map(|m| match m {
                Message::Packet { group, .. } => Some(*group),
                _ => None,
            })
            .take(3)
            .collect();
        assert_eq!(first_groups, vec![0, 1, 2]);
        // Exactly (k + h) * groups data+parity packets per cycle.
        let packets = msgs
            .iter()
            .filter(|m| matches!(m, Message::Packet { .. }))
            .count();
        assert_eq!(packets, (5 + 2) * 3);
        // Announces appear at the configured cadence.
        assert!(msgs.iter().any(|m| matches!(m, Message::Announce { .. })));

        // The burst guarantee the schedule exists for: any window of L
        // consecutive slots holds at most ceil(L / m) packets of one group,
        // m being the groups still in rotation at the window's last slot —
        // all 3 unless a short last group has run out. Three equal groups,
        // then two full ones plus a ragged last group of 2 data packets.
        for (bytes, lens) in [
            (5 * 16 * 3, [7usize, 7, 7]),
            (5 * 16 * 2 + 2 * 16, [7, 7, 4]),
        ] {
            let mut s =
                CarouselSender::new(SESSION, &data(bytes), cfg(CarouselStop::Cycles(1))).unwrap();
            let slots: Vec<(usize, usize)> = drain_cycle(&mut s)
                .iter()
                .filter_map(|m| match m {
                    Message::Packet { group, index, .. } => {
                        Some((*group as usize, *index as usize))
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(slots.len(), lens.iter().sum::<usize>());
            for l in 1..=slots.len() {
                for w in slots.windows(l) {
                    let last_pos = w[l - 1].1;
                    let in_rotation = lens.iter().filter(|&&len| len > last_pos).count();
                    for g in 0..lens.len() {
                        let hit = w.iter().filter(|s| s.0 == g).count();
                        assert!(
                            hit <= l.div_ceil(in_rotation),
                            "lens {lens:?}: {l} slots ending at pos {last_pos} hold {hit} of group {g}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cycles_stop_then_fin() {
        let mut s =
            CarouselSender::new(SESSION, &data(5 * 16 * 2), cfg(CarouselStop::Cycles(2))).unwrap();
        let mut fin = false;
        for _ in 0..1000 {
            match s.next_step(0.0) {
                SenderStep::Transmit(Message::Fin { .. }) => {
                    fin = true;
                    break;
                }
                SenderStep::Transmit(_) => {}
                other => panic!("{other:?}"),
            }
        }
        assert!(fin);
        assert_eq!(s.cycles_done(), 2);
        assert!(matches!(s.next_step(0.0), SenderStep::Finished));
    }

    #[test]
    fn empty_transfer_fins_immediately() {
        let mut s = CarouselSender::new(SESSION, &[], cfg(CarouselStop::Cycles(3))).unwrap();
        assert!(matches!(
            s.next_step(0.0),
            SenderStep::Transmit(Message::Fin { .. })
        ));
    }

    #[test]
    fn config_validation() {
        let bad = CarouselConfig {
            k: 0,
            ..cfg(CarouselStop::Cycles(1))
        };
        assert!(CarouselSender::new(SESSION, &[], bad).is_err());
        let bad = CarouselConfig {
            announce_every: 0,
            ..cfg(CarouselStop::Cycles(1))
        };
        assert!(CarouselSender::new(SESSION, &[], bad).is_err());
        let bad = cfg(CarouselStop::Cycles(0));
        assert!(CarouselSender::new(SESSION, &[], bad).is_err());
        let bad = cfg(CarouselStop::AllDone(0));
        assert!(CarouselSender::new(SESSION, &[], bad).is_err());
    }

    #[test]
    fn late_joiner_completes_from_announce_cadence() {
        // Drive manually: drop every message to the receiver during the
        // first half cycle (it "joined late"), then deliver everything.
        let payload = data(5 * 16 * 2);
        let mut s = CarouselSender::new(SESSION, &payload, cfg(CarouselStop::Cycles(3))).unwrap();
        let mut rx = NpReceiver::new(0, SESSION, 0.002, 1);
        let mut complete = false;
        let mut i = 0usize;
        loop {
            match s.next_step(0.0) {
                SenderStep::Transmit(Message::Fin { .. }) => break,
                SenderStep::Transmit(m) => {
                    i += 1;
                    if i > 10 {
                        for a in rx.handle(&m, i as f64 * 0.001).unwrap() {
                            if matches!(a, crate::receiver::ReceiverAction::Complete) {
                                complete = true;
                            }
                        }
                    }
                }
                other => panic!("{other:?}"),
            }
        }
        assert!(complete, "late joiner must catch up from later cycles");
        assert_eq!(rx.payload().unwrap(), payload);
    }
}
