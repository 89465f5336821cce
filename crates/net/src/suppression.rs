//! NAK slotting and damping — Section 5.1's feedback discipline.
//!
//! After a transmission round for group `i` in which `s` packets were
//! sent, the sender polls. A receiver still needing `l` packets schedules
//! `NAK(i, l)` at a uniformly random time inside slot
//! `[(s - l) Ts, (s - l + 1) Ts]` after the poll: the *worse off* a
//! receiver is (larger `l`), the *earlier* its slot, so the maximum demand
//! surfaces first. Hearing another receiver's `NAK(i, m)` with `m >= l`
//! makes the own NAK redundant — the timer is cancelled (damping).
//! Ideally the sender receives exactly one NAK per round carrying the
//! population maximum.
//!
//! Time is a caller-supplied monotonic clock in seconds, so the state
//! machine is fully deterministic under test and wall-clock driven in the
//! runtime.

use std::collections::{BTreeMap, BTreeSet};

use pm_obs::{Event, Obs};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A NAK scheduled but not yet sent.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PendingNak {
    needed: u16,
    round: u16,
    deadline: f64,
}

/// `deadline` as a key whose integer order is `f64::total_cmp`'s, so the
/// deadline index sorts by time.
fn deadline_key(deadline: f64) -> u64 {
    let bits = deadline.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The deadline a [`deadline_key`] was made from.
fn key_deadline(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// A NAK that became due and must be multicast now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DueNak {
    /// Transmission group.
    pub group: u32,
    /// Packets still needed.
    pub needed: u16,
    /// Round being answered.
    pub round: u16,
}

/// Per-receiver NAK suppression state across all groups.
#[derive(Debug)]
pub struct NakSuppressor {
    slot: f64,
    rng: ChaCha8Rng,
    pending: BTreeMap<u32, PendingNak>,
    /// `pending` by deadline: `(deadline_key, group)` for each entry, so
    /// the earliest deadline is the first key.
    by_deadline: BTreeSet<(u64, u32)>,
    obs: Obs,
    /// High-water mark of the caller-supplied clock, used to timestamp
    /// `nak_suppressed` events (overhearing has no `now` of its own).
    last_seen: f64,
}

impl NakSuppressor {
    /// `slot` is the slot width `Ts` in seconds ("chosen appropriately
    /// taking the requirements of the application into account").
    ///
    /// # Panics
    /// Panics unless `slot > 0`.
    pub fn new(slot: f64, seed: u64) -> Self {
        assert!(slot > 0.0, "slot width must be positive");
        NakSuppressor {
            slot,
            rng: ChaCha8Rng::seed_from_u64(seed),
            pending: BTreeMap::new(),
            by_deadline: BTreeSet::new(),
            obs: Obs::null(),
            last_seen: 0.0,
        }
    }

    /// Emit `nak_scheduled`/`nak_suppressed` events to `obs`.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Schedule `nak` for `group`, replacing any earlier schedule.
    fn schedule(&mut self, group: u32, nak: PendingNak) {
        if let Some(old) = self.pending.insert(group, nak) {
            self.by_deadline
                .remove(&(deadline_key(old.deadline), group));
        }
        self.by_deadline.insert((deadline_key(nak.deadline), group));
    }

    /// Drop `group`'s scheduled NAK, if any.
    fn unschedule(&mut self, group: u32) {
        if let Some(old) = self.pending.remove(&group) {
            self.by_deadline
                .remove(&(deadline_key(old.deadline), group));
        }
    }

    /// Handle `POLL(group, sent)` for a group where this receiver still
    /// needs `needed` packets. `needed == 0` clears any pending NAK (we
    /// decoded since the last poll). Re-polling a group replaces its
    /// schedule (the paper's "timer is reset" footnote).
    pub fn on_poll(&mut self, group: u32, round: u16, sent: u16, needed: u16, now: f64) {
        self.last_seen = self.last_seen.max(now);
        if needed == 0 {
            self.unschedule(group);
            return;
        }
        let slot_index = sent.saturating_sub(needed) as f64;
        let offset = (slot_index + self.rng.random::<f64>()) * self.slot;
        let deadline = now + offset;
        self.obs.emit(now, || Event::NakScheduled {
            group,
            needed,
            round,
            deadline,
        });
        self.schedule(
            group,
            PendingNak {
                needed,
                round,
                deadline,
            },
        );
    }

    /// Handle an overheard `NAK(group, m)` from another receiver: damp the
    /// own NAK if `m` covers our demand.
    pub fn on_nak_heard(&mut self, group: u32, m: u16) {
        if let Some(p) = self.pending.get(&group) {
            if m >= p.needed {
                let needed = p.needed;
                self.obs.emit(self.last_seen, || Event::NakSuppressed {
                    group,
                    needed,
                    covered_by: m,
                });
                self.unschedule(group);
            }
        }
    }

    /// The group decoded — no more feedback needed.
    pub fn cancel(&mut self, group: u32) {
        self.unschedule(group);
    }

    /// Earliest pending deadline, if any (for event-loop timeouts).
    ///
    /// The mux asks this after every datagram, so it reads the first key
    /// of the deadline index rather than scanning the schedule.
    pub fn next_deadline(&self) -> Option<f64> {
        self.by_deadline.first().map(|&(key, _)| key_deadline(key))
    }

    /// Pop every NAK whose deadline has passed; each is returned once
    /// (send it now). Deterministic order (by group id). Walks only the
    /// due prefix of the deadline index, and allocates only when
    /// something is due (`collect` of no matches is an empty `Vec`).
    pub fn take_due(&mut self, now: f64) -> Vec<DueNak> {
        self.last_seen = self.last_seen.max(now);
        let mut due: Vec<DueNak> = self
            .by_deadline
            .iter()
            .take_while(|&&(key, _)| key_deadline(key) <= now)
            .filter_map(|(_, group)| self.pending.get_key_value(group))
            .map(|(&group, p)| DueNak {
                group,
                needed: p.needed,
                round: p.round,
            })
            .collect();
        due.sort_by_key(|d| d.group);
        for d in &due {
            self.unschedule(d.group);
        }
        due
    }

    /// Number of NAKs currently scheduled.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// True if a NAK is scheduled for `group`.
    pub fn is_pending(&self, group: u32) -> bool {
        self.pending.contains_key(&group)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_receivers_fire_earlier() {
        // Receiver needing all s packets lands in slot 0; one needing a
        // single packet in slot s-1. Deadlines must reflect that ordering
        // regardless of the intra-slot jitter.
        let mut desperate = NakSuppressor::new(0.01, 1);
        let mut relaxed = NakSuppressor::new(0.01, 2);
        desperate.on_poll(0, 1, 20, 20, 0.0);
        relaxed.on_poll(0, 1, 20, 1, 0.0);
        let d = desperate.next_deadline().unwrap();
        let r = relaxed.next_deadline().unwrap();
        assert!(d < 0.01, "slot 0 deadline {d}");
        assert!((0.19..0.20).contains(&r), "slot 19 deadline {r}");
        assert!(d < r);
    }

    #[test]
    fn damping_cancels_covered_naks() {
        let mut s = NakSuppressor::new(0.01, 3);
        s.on_poll(5, 1, 7, 3, 0.0);
        assert_eq!(s.pending_count(), 1);
        s.on_nak_heard(5, 2); // smaller demand: keep ours
        assert_eq!(s.pending_count(), 1);
        s.on_nak_heard(5, 3); // equal: ours is redundant
        assert_eq!(s.pending_count(), 0);
    }

    #[test]
    fn due_naks_fire_once() {
        let mut s = NakSuppressor::new(0.01, 4);
        s.on_poll(1, 2, 7, 2, 0.0); // slot 5: deadline in [0.05, 0.06)
        s.on_poll(2, 1, 7, 7, 0.0); // slot 0: deadline in [0.00, 0.01)
        let early = s.take_due(0.02);
        assert_eq!(
            early,
            vec![DueNak {
                group: 2,
                needed: 7,
                round: 1
            }]
        );
        let late = s.take_due(0.06);
        assert_eq!(
            late,
            vec![DueNak {
                group: 1,
                needed: 2,
                round: 2
            }]
        );
        assert!(s.take_due(10.0).is_empty(), "already fired");
    }

    #[test]
    fn zero_need_clears() {
        let mut s = NakSuppressor::new(0.01, 5);
        s.on_poll(1, 1, 7, 3, 0.0);
        assert_eq!(s.pending_count(), 1);
        s.on_poll(1, 2, 7, 0, 0.1); // decoded by the next poll
        assert_eq!(s.pending_count(), 0);
    }

    #[test]
    fn repoll_replaces_schedule() {
        let mut s = NakSuppressor::new(0.01, 6);
        s.on_poll(1, 1, 7, 3, 0.0);
        let first = s.next_deadline().unwrap();
        s.on_poll(1, 2, 3, 1, 5.0);
        let second = s.next_deadline().unwrap();
        assert!(second >= 5.0 && second != first);
        assert_eq!(s.pending_count(), 1);
    }

    #[test]
    fn cancel_removes() {
        let mut s = NakSuppressor::new(0.01, 7);
        s.on_poll(9, 1, 7, 2, 0.0);
        s.cancel(9);
        assert_eq!(s.pending_count(), 0);
        assert_eq!(s.next_deadline(), None);
    }

    #[test]
    fn ideal_single_nak_emerges() {
        // Simulate a population: the receiver with max demand fires first;
        // once everyone hears it, all others suppress. Exactly one NAK.
        let slot = 0.01;
        let mut pop: Vec<NakSuppressor> =
            (0..20).map(|i| NakSuppressor::new(slot, 100 + i)).collect();
        let needs: Vec<u16> = (0..20).map(|i| 1 + (i % 5) as u16).collect();
        for (s, &l) in pop.iter_mut().zip(&needs) {
            s.on_poll(0, 1, 7, l, 0.0);
        }
        // Advance time in fine steps; deliver each fired NAK to everyone.
        let mut fired: Vec<DueNak> = Vec::new();
        let mut t = 0.0;
        while t < 0.2 {
            for s in pop.iter_mut() {
                for nak in s.take_due(t) {
                    fired.push(nak);
                }
            }
            // Overhearing is immediate (same step) — like a LAN.
            for &nak in &fired {
                for s in pop.iter_mut() {
                    s.on_nak_heard(nak.group, nak.needed);
                }
            }
            t += slot / 10.0;
        }
        let max_need = *needs.iter().max().unwrap();
        assert!(!fired.is_empty());
        assert_eq!(
            fired[0].needed, max_need,
            "worst receiver must answer first"
        );
        // Damping keeps the count tiny: everyone in later slots suppressed.
        assert!(
            fired.len() <= 4,
            "expected near-single NAK, got {}: {fired:?}",
            fired.len()
        );
        assert!(
            fired.iter().all(|f| f.needed == max_need),
            "only max-demand slots fire"
        );
    }

    /// The deadline index agrees with a scan of the schedule through a
    /// seeded run of polls, damping, cancels and due sweeps.
    #[test]
    fn deadline_index_tracks_the_schedule() {
        let mut s = NakSuppressor::new(0.01, 9);
        let mut x = 0x9e37_79b9_u64;
        let mut now = 0.0;
        for _ in 0..4000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let group = (x >> 8) as u32 % 24;
            let needed = (x >> 16) as u16 % 8;
            match x % 5 {
                0 | 1 => s.on_poll(group, 1, 8, needed, now),
                2 => s.on_nak_heard(group, needed),
                3 => s.cancel(group),
                _ => {
                    let due = s.take_due(now);
                    assert!(due.windows(2).all(|w| w[0].group < w[1].group));
                    assert!(due.iter().all(|d| !s.is_pending(d.group)));
                }
            }
            let scan = s.pending.values().map(|p| p.deadline);
            assert_eq!(s.next_deadline(), scan.min_by(|a, b| a.total_cmp(b)));
            assert_eq!(s.by_deadline.len(), s.pending.len());
            now += 0.003;
        }
    }

    #[test]
    #[should_panic(expected = "slot width")]
    fn zero_slot_rejected() {
        let _ = NakSuppressor::new(0.0, 0);
    }

    #[test]
    fn schedule_and_suppress_events_emitted() {
        use std::sync::Arc;
        let ring = Arc::new(pm_obs::RingRecorder::new(16));
        let mut s = NakSuppressor::new(0.01, 8);
        s.set_obs(Obs::new(ring.clone()));
        s.on_poll(3, 1, 7, 2, 1.0);
        s.on_nak_heard(3, 5);
        let events = ring.events();
        assert_eq!(events.len(), 2);
        assert!(matches!(
            events[0].1,
            Event::NakScheduled {
                group: 3,
                needed: 2,
                round: 1,
                ..
            }
        ));
        assert_eq!(
            events[1].1,
            Event::NakSuppressed {
                group: 3,
                needed: 2,
                covered_by: 5
            }
        );
        assert_eq!(events[1].0, 1.0, "suppression stamped with last seen now");
    }
}
