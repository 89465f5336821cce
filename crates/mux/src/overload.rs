//! Admission control and load shedding for the session multiplexer.
//!
//! The mux's fairness story ([`crate::Mux`]) bounds what one hostile
//! session can cost its neighbors *within* a turn. This module bounds
//! what the whole population can cost the turn: every turn runs under an
//! explicit budget (datagrams via the poll budget, drive passes via
//! [`OverloadConfig::drive_budget`]), the fraction of that budget
//! actually consumed feeds a rolling utilization estimate, and an
//! [`OverloadPolicy`] turns the estimate into three escalating answers —
//! refuse new sessions past the high-water mark (typed
//! [`AdmissionError`]), declare an overload episode when saturation
//! persists, and finally shed victims by a deterministic, seedable
//! priority so the survivors keep their unloaded schedule. Shedding is
//! graceful degradation, not failure: a shed session ends with a typed
//! `Shed` outcome carrying its flight-recorder postmortem.
//!
//! The scalability papers behind this repo (see PAPERS.md) make the same
//! argument at the protocol layer: reliability mechanisms must stay
//! stable when per-connection work outstrips the host. The policy here
//! is that argument applied to the driver layer.

use std::fmt;

use pm_par::splitmix64;

/// Tuning knobs of the mux's overload policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadConfig {
    /// Rolling utilization above which the mux counts a turn as
    /// saturated, refuses admission, and — sustained — sheds.
    pub high_water: f64,
    /// Hard cap on live sessions; admission past it fails with
    /// [`AdmissionError::AtCapacity`] regardless of utilization.
    pub max_sessions: usize,
    /// Drive passes per turn that count as a fully-utilized turn (the
    /// drives half of the budget; the datagram half is the poll budget).
    pub drive_budget: usize,
    /// Consecutive saturated turns before the policy declares an
    /// overload episode and starts shedding.
    pub sustain_turns: u32,
    /// Victims shed per turn while the episode lasts — shedding is
    /// incremental so one bad turn cannot empty the farm.
    pub max_shed_per_turn: usize,
    /// EWMA smoothing factor for the utilization estimate (weight of the
    /// newest turn), in `(0, 1]`.
    pub alpha: f64,
    /// Seed for the victim-priority tie-break, so shedding order is
    /// reproducible in tests and drills.
    pub seed: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            high_water: 0.85,
            max_sessions: 4096,
            drive_budget: 1024,
            sustain_turns: 64,
            max_shed_per_turn: 4,
            alpha: 0.2,
            seed: 0,
        }
    }
}

/// Why the mux refused a new session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionError {
    /// The rolling utilization is above the high-water mark: the mux is
    /// saturated and taking more work would push it into shedding.
    Saturated {
        /// The utilization estimate at refusal.
        utilization: f64,
    },
    /// The hard session cap is reached.
    AtCapacity {
        /// The configured [`OverloadConfig::max_sessions`].
        limit: usize,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::Saturated { utilization } => {
                write!(
                    f,
                    "mux saturated (utilization {utilization:.3}), admission refused"
                )
            }
            AdmissionError::AtCapacity { limit } => {
                write!(f, "mux at its session cap ({limit}), admission refused")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// What the policy concluded from one turn's budget accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadSignal {
    /// Business as usual.
    Nominal,
    /// This turn tipped the policy into an overload episode.
    Entered,
    /// An episode is running and has sustained long enough: shed now.
    Shedding,
    /// Utilization fell back under the high-water mark; episode over.
    Cleared,
}

/// Rolling saturation tracker: EWMA utilization + episode state machine.
#[derive(Debug, Clone)]
pub struct OverloadPolicy {
    cfg: OverloadConfig,
    util: f64,
    saturated_turns: u32,
    overloaded: bool,
}

impl OverloadPolicy {
    /// A fresh policy at zero utilization.
    pub fn new(cfg: OverloadConfig) -> Self {
        OverloadPolicy {
            cfg,
            util: 0.0,
            saturated_turns: 0,
            overloaded: false,
        }
    }

    /// The configuration this policy runs under.
    pub fn config(&self) -> &OverloadConfig {
        &self.cfg
    }

    /// Current rolling utilization estimate (1.0 = the turn budget is
    /// fully consumed; transiently above 1.0 under a burst).
    pub fn utilization(&self) -> f64 {
        self.util
    }

    /// True while an overload episode is running.
    pub fn overloaded(&self) -> bool {
        self.overloaded
    }

    /// Fold one turn's utilization sample into the estimate and step the
    /// episode state machine.
    pub fn observe(&mut self, sample: f64) -> OverloadSignal {
        let sample = if sample.is_finite() {
            sample.max(0.0)
        } else {
            0.0
        };
        let a = self.cfg.alpha.clamp(f64::MIN_POSITIVE, 1.0);
        self.util += a * (sample - self.util);
        if self.util > self.cfg.high_water {
            self.saturated_turns = self.saturated_turns.saturating_add(1);
            if self.overloaded {
                OverloadSignal::Shedding
            } else if self.saturated_turns >= self.cfg.sustain_turns.max(1) {
                self.overloaded = true;
                OverloadSignal::Entered
            } else {
                OverloadSignal::Nominal
            }
        } else {
            self.saturated_turns = 0;
            if self.overloaded {
                self.overloaded = false;
                OverloadSignal::Cleared
            } else {
                OverloadSignal::Nominal
            }
        }
    }

    /// Admission check for a prospective session when `live` are running.
    ///
    /// # Errors
    /// [`AdmissionError`] when the cap is reached or the mux is past the
    /// high-water mark.
    pub fn admit(&self, live: usize) -> Result<(), AdmissionError> {
        if live >= self.cfg.max_sessions {
            return Err(AdmissionError::AtCapacity {
                limit: self.cfg.max_sessions,
            });
        }
        if self.util > self.cfg.high_water {
            return Err(AdmissionError::Saturated {
                utilization: self.util,
            });
        }
        Ok(())
    }

    /// Deterministic victim priority: newest session first (it has the
    /// least sunk work), then fewest drive passes (most behind), then a
    /// seeded hash of the slot so equal candidates still order stably
    /// but differently across seeds. Returns the sort key — *larger
    /// sorts earlier* via `sort_by` on the caller's side.
    pub fn victim_key(&self, slot: usize, started: f64, drives: u64) -> (u64, u64, u64) {
        // Later start → larger bits → earlier victim. f64 start times in
        // a mux are non-negative, so the IEEE bit pattern is monotonic.
        let recency = started.max(0.0).to_bits();
        // Fewer drives → earlier victim.
        let behind = u64::MAX - drives;
        let tiebreak = splitmix64(self.cfg.seed ^ slot as u64);
        (recency, behind, tiebreak)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> OverloadConfig {
        OverloadConfig {
            high_water: 0.8,
            sustain_turns: 3,
            alpha: 1.0, // no smoothing: samples are the estimate
            ..OverloadConfig::default()
        }
    }

    #[test]
    fn episode_lifecycle() {
        let mut p = OverloadPolicy::new(cfg());
        assert_eq!(p.observe(0.5), OverloadSignal::Nominal);
        assert_eq!(p.observe(1.0), OverloadSignal::Nominal);
        assert_eq!(p.observe(1.0), OverloadSignal::Nominal);
        assert_eq!(
            p.observe(1.0),
            OverloadSignal::Entered,
            "3rd saturated turn"
        );
        assert!(p.overloaded());
        assert_eq!(p.observe(1.0), OverloadSignal::Shedding);
        assert_eq!(p.observe(0.1), OverloadSignal::Cleared);
        assert!(!p.overloaded());
        // A fresh burst must sustain again from scratch.
        assert_eq!(p.observe(1.0), OverloadSignal::Nominal);
    }

    #[test]
    fn admission_tracks_utilization_and_cap() {
        let mut p = OverloadPolicy::new(cfg());
        assert!(p.admit(10).is_ok());
        p.observe(1.0);
        match p.admit(10) {
            Err(AdmissionError::Saturated { utilization }) => assert!(utilization > 0.8),
            other => panic!("expected Saturated, got {other:?}"),
        }
        p.observe(0.0);
        assert!(p.admit(10).is_ok(), "recovers when utilization drops");
        match p.admit(cfg().max_sessions) {
            Err(AdmissionError::AtCapacity { limit }) => assert_eq!(limit, cfg().max_sessions),
            other => panic!("expected AtCapacity, got {other:?}"),
        }
    }

    #[test]
    fn victim_priority_is_newest_then_most_behind_and_seeded() {
        let p = OverloadPolicy::new(cfg());
        // Newer session outranks older regardless of drives.
        assert!(p.victim_key(0, 5.0, 1000) > p.victim_key(1, 1.0, 2));
        // Same start: fewer drives outranks more.
        assert!(p.victim_key(0, 2.0, 3) > p.victim_key(1, 2.0, 30));
        // Same start and drives: seed decides, deterministically.
        let a = p.victim_key(0, 2.0, 5);
        let b = p.victim_key(1, 2.0, 5);
        assert_ne!(a, b);
        assert_eq!(a, p.victim_key(0, 2.0, 5));
        let p2 = OverloadPolicy::new(OverloadConfig { seed: 99, ..cfg() });
        assert_ne!(
            a.2,
            p2.victim_key(0, 2.0, 5).2,
            "tie-break follows the seed"
        );
    }

    #[test]
    fn hostile_samples_do_not_poison_the_estimate() {
        let mut p = OverloadPolicy::new(cfg());
        p.observe(f64::NAN);
        p.observe(f64::INFINITY);
        assert!(p.utilization().is_finite());
        p.observe(-3.0);
        assert!(p.utilization() >= 0.0);
    }
}
