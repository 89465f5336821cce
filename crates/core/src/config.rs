//! Protocol configuration.

use crate::error::ProtocolError;

/// How the sender decides the session is over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CompletionPolicy {
    /// Wait until this many distinct receivers have reported `Done`.
    /// Reliable-multicast semantics with a known population.
    KnownReceivers(u32),
    /// Declare completion after this many seconds without any NAK
    /// following the last poll (open populations; weaker guarantee).
    Quiescence(f64),
}

/// Configuration of an NP (or N2) session.
#[derive(Debug, Clone, PartialEq)]
pub struct NpConfig {
    /// Data packets per transmission group (`k`).
    pub k: usize,
    /// Maximum parities per group (`h = n - k`). The paper's assumption is
    /// "h sufficiently large that the sender never runs out"; the default
    /// fills the GF(2^8) block.
    pub h: usize,
    /// Parities multicast proactively with round 1 (`a` in Section 3.2;
    /// 0 = pure reactive NP).
    pub proactive_parity: usize,
    /// Adapt the proactive parity count to *measured* demand: the sender
    /// tracks each group's round-1 NAK demand and sends the recent
    /// average (rounded up) proactively with subsequent groups, within
    /// the `h` budget. Extension beyond the paper (its Section 4.1 flags
    /// adaptive redundancy estimation as follow-on work); effective when
    /// transmission is paced slowly enough for feedback to arrive while
    /// groups are still being scheduled.
    pub adaptive_parity: bool,
    /// Payload bytes per packet.
    pub payload_len: usize,
    /// NAK slot width `Ts`, seconds.
    pub nak_slot: f64,
    /// Cap on the NP sender's duplicate window, seconds. After servicing a
    /// group's NAK, the sender drops a NAK that echoes an older round of
    /// that group as a duplicate for `(s + 1) · nak_slot`, `s` the most
    /// packets any of the group's polls announced, and at most this long;
    /// later, such a NAK is a receiver's recovery request after losing a
    /// whole repair round, and is serviced. The sender never waits on it.
    pub round_timeout: f64,
    /// Pre-encode all parities before transmission starts (Fig. 18's
    /// "NP pre-encode").
    pub preencode: bool,
    /// Completion detection.
    pub completion: CompletionPolicy,
    /// Re-announce interval while the session is idle, seconds.
    pub announce_interval: f64,
    /// RNG seed for NAK jitter.
    pub seed: u64,
}

impl NpConfig {
    /// A small-packet config suitable for tests and examples:
    /// `k = 7`, full parity budget, 1 KB payloads.
    pub fn small(completion: CompletionPolicy) -> Self {
        NpConfig {
            k: 7,
            h: 248,
            proactive_parity: 0,
            adaptive_parity: false,
            payload_len: 1024,
            nak_slot: 0.002,
            round_timeout: 0.100,
            preencode: false,
            completion,
            announce_interval: 0.050,
            seed: 0,
        }
    }

    /// Validate invariants.
    ///
    /// # Errors
    /// [`ProtocolError::Config`] describing the first violated invariant.
    pub fn validate(&self) -> Result<(), ProtocolError> {
        if self.k == 0 {
            return Err(ProtocolError::Config("k must be at least 1".into()));
        }
        if self.k + self.h > 255 {
            return Err(ProtocolError::Config(format!(
                "k + h = {} exceeds the GF(2^8) block limit of 255",
                self.k + self.h
            )));
        }
        if self.proactive_parity > self.h {
            return Err(ProtocolError::Config(format!(
                "proactive parities {} exceed the parity budget h = {}",
                self.proactive_parity, self.h
            )));
        }
        if self.payload_len == 0 || self.payload_len > pm_net::wire::MAX_PAYLOAD {
            return Err(ProtocolError::Config(format!(
                "payload_len {} out of range 1..={}",
                self.payload_len,
                pm_net::wire::MAX_PAYLOAD
            )));
        }
        if self.nak_slot <= 0.0 || self.round_timeout <= 0.0 || self.announce_interval <= 0.0 {
            return Err(ProtocolError::Config(
                "timing parameters must be positive".into(),
            ));
        }
        if let CompletionPolicy::KnownReceivers(0) = self.completion {
            return Err(ProtocolError::Config("KnownReceivers(0) is vacuous".into()));
        }
        if let CompletionPolicy::Quiescence(q) = self.completion {
            if q <= 0.0 {
                return Err(ProtocolError::Config(
                    "quiescence period must be positive".into(),
                ));
            }
        }
        Ok(())
    }

    /// FEC block size `n = k + h`.
    pub fn n(&self) -> usize {
        self.k + self.h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_config_valid() {
        NpConfig::small(CompletionPolicy::KnownReceivers(3))
            .validate()
            .unwrap();
        NpConfig::small(CompletionPolicy::Quiescence(1.0))
            .validate()
            .unwrap();
    }

    #[test]
    fn invariants_enforced() {
        let base = NpConfig::small(CompletionPolicy::KnownReceivers(1));
        let mut c = base.clone();
        c.k = 0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.k = 200;
        c.h = 100;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.proactive_parity = 500;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.payload_len = 0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.nak_slot = 0.0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.completion = CompletionPolicy::KnownReceivers(0);
        assert!(c.validate().is_err());
        let mut c = base;
        c.completion = CompletionPolicy::Quiescence(-1.0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn n_accessor() {
        let c = NpConfig::small(CompletionPolicy::KnownReceivers(1));
        assert_eq!(c.n(), c.k + c.h);
    }
}
