//! What a runtime needs to drive a sans-io machine, minus the runtime: the
//! timing and resilience configuration, the clock-agnostic resilience
//! accounting, the NP/N2 machine traits and the session reports.
//!
//! Each machine implements its trait once, in its own module:
//! [`SenderMachine`] beside `Sender<R>` (`sender.rs`, NP and N2 by repair
//! policy), [`ReceiverMachine`] beside `Receiver<F>` (`receiver.rs`, NP and
//! N2 by feedback policy). Their driver methods are those impls, so a
//! caller names the trait to call them.
//!
//! Nothing here reads a clock, touches a socket or computes a wait. The
//! loop that does — pacing, retry backoff, stall/linger/eviction
//! deadlines — is `pm-mux` (`pm_mux::Mux`; `pm_mux::drive_session` runs a
//! sender and its receivers on one).

use std::time::Duration;

use pm_net::{Message, NetError};
use pm_obs::{Event, Obs};
use pm_par::splitmix64;

use crate::costs::CostCounters;
use crate::error::ProtocolError;
use crate::payload::Payload;
use crate::receiver::ReceiverAction;
use crate::sender::SenderStep;
pub use crate::session::SessionReport;

/// Timing knobs of a driven session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeConfig {
    /// Pacing between consecutive packet transmissions (the paper's
    /// `delta`).
    pub packet_spacing: Duration,
    /// Abort if the session makes no progress for this long.
    pub stall_timeout: Duration,
    /// How long a *complete* receiver lingers answering polls before
    /// concluding the sender's FIN was lost and returning anyway. Should
    /// exceed a few announce intervals; much shorter than `stall_timeout`.
    pub complete_linger: Duration,
    /// Hostile-network posture: corruption tolerance, retry backoff cap and
    /// receiver eviction.
    pub resilience: ResiliencePolicy,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            packet_spacing: Duration::from_micros(200),
            stall_timeout: Duration::from_secs(10),
            complete_linger: Duration::from_millis(500),
            resilience: ResiliencePolicy::default(),
        }
    }
}

/// Hostile-network posture of a driven session: how much datagram damage to
/// absorb, how hard to retry transient send failures, and when the sender
/// gives up on silent receivers.
///
/// The defaults absorb corruption essentially forever and never evict —
/// byte damage alone cannot abort a session. A transient send failure is
/// retried [`SEND_RETRIES`] times whatever the policy.
/// Eviction is opt-in because it trades completeness for liveness: with a
/// deadline set, a session facing a dead receiver finishes *degraded*
/// (see [`SessionReport::is_degraded`]) instead of stalling out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResiliencePolicy {
    /// Corrupt/undecodable datagrams tolerated — counted, reported and
    /// dropped — before the driver aborts with
    /// [`ProtocolError::Quarantined`].
    pub corrupt_quarantine: u64,
    /// Upper bound on the per-attempt retry backoff.
    pub retry_backoff_cap: Duration,
    /// Sender only: once at least one receiver finished and *nothing* has
    /// been heard for this long, evict the receivers still outstanding and
    /// complete the session for the responsive population. `None` (the
    /// default) never evicts. Should comfortably exceed a few announce
    /// intervals and stay below `stall_timeout`, which remains the
    /// backstop when *no* receiver ever finishes.
    pub eviction_timeout: Option<Duration>,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy {
            corrupt_quarantine: 10_000,
            retry_backoff_cap: Duration::from_millis(20),
            eviction_timeout: None,
        }
    }
}

/// Transient I/O send failures retried per message before the error
/// becomes fatal.
pub const SEND_RETRIES: u32 = 3;
/// Backoff before the first send retry; doubles per attempt up to
/// [`ResiliencePolicy::retry_backoff_cap`].
const RETRY_BACKOFF: Duration = Duration::from_millis(1);
/// Seed of the deterministic retry-backoff jitter.
const RETRY_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Clock-agnostic resilience accounting: damage counters plus the
/// deterministic jitter RNG, wrapped around every transport interaction.
///
/// The core never sleeps and never reads a clock — it *classifies*
/// outcomes and *computes* backoff durations; the runtime owns all waiting
/// (the multiplexer schedules an entry on its timer queue), which is what keeps
/// the policy testable under a virtual clock.
#[derive(Debug, Clone)]
pub struct ResilienceCore {
    policy: ResiliencePolicy,
    corrupt_dropped: u64,
    send_retries: u64,
    rng: u64,
}

impl ResilienceCore {
    /// Fresh accounting state under `policy`.
    pub fn new(policy: ResiliencePolicy) -> Self {
        ResilienceCore {
            policy,
            corrupt_dropped: 0,
            send_retries: 0,
            rng: splitmix64(RETRY_SEED),
        }
    }

    /// The policy this state enforces.
    pub fn policy(&self) -> &ResiliencePolicy {
        &self.policy
    }

    /// Corrupt datagrams counted-and-dropped so far.
    pub fn corrupt_dropped(&self) -> u64 {
        self.corrupt_dropped
    }

    /// Transient send failures retried so far.
    pub fn send_retries(&self) -> u64 {
        self.send_retries
    }

    /// Classify one receive outcome with damage absorption: a recoverable
    /// error (decode failure or checksum mismatch) kills one datagram, not
    /// the session — count it, report it, and treat the interval as quiet.
    /// Past the quarantine threshold the link is hostile beyond use and
    /// the session aborts with a typed error.
    ///
    /// # Errors
    /// [`ProtocolError::Quarantined`] past the corruption budget; fatal
    /// transport errors pass through.
    pub fn absorb_recv(
        &mut self,
        outcome: Result<Option<Message>, NetError>,
        now: f64,
        obs: &Obs,
    ) -> Result<Option<Message>, ProtocolError> {
        match outcome {
            Ok(msg) => Ok(msg),
            Err(e) if e.is_recoverable() => {
                self.corrupt_dropped += 1;
                let total = self.corrupt_dropped;
                obs.emit(now, || Event::CorruptDropped { total });
                if total >= self.policy.corrupt_quarantine {
                    Err(ProtocolError::Quarantined {
                        corrupt_dropped: total,
                    })
                } else {
                    Ok(None)
                }
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Record one retry of a transient send failure and return how long to
    /// back off before re-attempting (`attempt` is 1-based): exponential
    /// in the attempt number, capped by the policy, plus an *unbiased*
    /// uniform jitter in `[0, base/2]` so colliding retriers decorrelate.
    pub fn retry_backoff(&mut self, attempt: u32, now: f64, obs: &Obs) -> Duration {
        self.send_retries += 1;
        obs.emit(now, || Event::SendRetry { attempt });
        let exp = attempt.saturating_sub(1).min(16);
        let base = RETRY_BACKOFF
            .saturating_mul(1u32 << exp)
            .min(self.policy.retry_backoff_cap);
        let half_span = (base.as_nanos() / 2) as u64;
        base + Duration::from_nanos(self.bounded(half_span.saturating_add(1)))
    }

    /// Uniform sample in `[0, n)` via Lemire's nearly-divisionless
    /// rejection method — unlike `rng % n`, every outcome is exactly
    /// equally likely. `n` must be nonzero.
    fn bounded(&mut self, n: u64) -> u64 {
        let threshold = n.wrapping_neg() % n;
        loop {
            self.rng = splitmix64(self.rng);
            let m = u128::from(self.rng) * u128::from(n);
            if m as u64 >= threshold {
                return (m >> 64) as u64;
            }
        }
    }
}

/// Sender-side protocol machine, abstracted over NP/N2.
pub trait SenderMachine: Send {
    /// Decide the next action.
    fn next_step(&mut self, now: f64) -> SenderStep;
    /// Feed one received message.
    ///
    /// # Errors
    /// Protocol-level failures abort the session.
    fn handle(&mut self, msg: &Message, now: f64) -> Result<(), ProtocolError>;
    /// True once FIN went out.
    fn is_finished(&self) -> bool;
    /// Work counters.
    fn counters(&self) -> &CostCounters;
    /// How many receivers reported completion. Allocation-free — this is
    /// what hot driver loops should poll; `done_ids` is for reports.
    fn done_count(&self) -> usize;
    /// Identities of receivers that reported completion, ascending.
    fn done_ids(&self) -> Vec<u32>;
    /// Receivers still outstanding under known-receivers completion.
    fn outstanding(&self) -> u32;
    /// Give up on outstanding receivers (lower the completion target to
    /// the responsive population); returns how many were evicted.
    fn evict_outstanding(&mut self) -> u32;
    /// Receiver/feedback-dependent sender state in bytes (the
    /// `sender.state_bytes_per_receiver` gauge's numerator).
    fn state_bytes(&self) -> usize;
}

/// Receiver-side protocol machine, abstracted over NP/N2.
pub trait ReceiverMachine: Send {
    /// Feed one received message.
    ///
    /// # Errors
    /// Protocol-level failures abort the session.
    fn handle(&mut self, msg: &Message, now: f64) -> Result<Vec<ReceiverAction>, ProtocolError>;
    /// Fire due timers.
    fn on_timer(&mut self, now: f64) -> Vec<ReceiverAction>;
    /// Earliest timer deadline.
    fn next_deadline(&self) -> Option<f64>;
    /// All groups decoded.
    fn is_complete(&self) -> bool;
    /// Sender closed the session.
    fn fin_seen(&self) -> bool;
    /// The transfer, as the packets that carried it — not a copy of them.
    ///
    /// # Errors
    /// If called before completion.
    fn payload(&self) -> Result<Payload, ProtocolError> {
        self.take_data().map(Payload::from)
    }
    /// [`Self::payload`] copied out, failing as it does. Nothing in `crates/`
    /// calls it: required only until the frozen `e2e-bench` wrapper forwards
    /// `payload` instead (ROADMAP item 1 (h)).
    fn take_data(&self) -> Result<Vec<u8>, ProtocolError>;
    /// Work counters.
    fn counters(&self) -> &CostCounters;
}

/// Result of a completed receiver run.
#[derive(Debug, Clone)]
pub struct ReceiverReport {
    /// The received byte stream, as the packets that carried it.
    pub data: Payload,
    /// Work counters at session end.
    pub counters: CostCounters,
    /// Wall-clock duration until completion.
    pub elapsed: Duration,
    /// Corrupt datagrams counted-and-dropped by the driver.
    pub corrupt_dropped: u64,
}

/// Label a driver error for postmortem artifacts (`"quarantined"`,
/// `"stalled"`, `"sender_gone"`, or `"failed"`).
pub fn error_outcome(err: &ProtocolError) -> &'static str {
    match err {
        ProtocolError::Quarantined { .. } => "quarantined",
        ProtocolError::Stalled { .. } => "stalled",
        ProtocolError::SenderGone { .. } => "sender_gone",
        _ => "failed",
    }
}

/// Feed one incoming message to a sender machine and report whether it
/// proved an *unfinished* receiver is still out there working — the signal
/// the eviction clock resets on.
///
/// The classification is machine-informed, not wire-informed: a NAK counts
/// only if the machine actually absorbed it as feedback (a NAK for another
/// session, or one the machine ignores, must not keep a dead receiver
/// unevictable), and a Done counts only if it grew the done population
/// (duplicate Dones and announce/data echoes from self-delivered multicast
/// must not postpone eviction of a receiver that actually died).
///
/// # Errors
/// Protocol errors from the machine's `handle`.
pub fn absorb_feedback<S: SenderMachine + ?Sized>(
    machine: &mut S,
    msg: &Message,
    now: f64,
) -> Result<bool, ProtocolError> {
    let done_before = machine.done_count();
    let feedback_before = machine.counters().feedback_received;
    machine.handle(msg, now)?;
    Ok(match msg {
        Message::Nak { .. } | Message::NakPacket { .. } => {
            machine.counters().feedback_received > feedback_before
        }
        Message::Done { .. } => machine.done_count() > done_before,
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_jitter_is_unbiased_and_deterministic() {
        let mut a = ResilienceCore::new(ResiliencePolicy::default());
        let mut b = ResilienceCore::new(ResiliencePolicy::default());
        let obs = Obs::null();
        // Same seed, same sequence of backoffs.
        for attempt in 1..=16 {
            assert_eq!(
                a.retry_backoff(attempt, 0.0, &obs),
                b.retry_backoff(attempt, 0.0, &obs)
            );
        }
        // The bounded sampler is uniform: over a span that a modulo would
        // bias hard (n just above 2^63, where `rng % n` hits the low half
        // of the range twice as often), low and high halves draw evenly.
        let n = (1u64 << 63) + 1;
        let mut low = 0u64;
        let samples = 20_000;
        for _ in 0..samples {
            let v = a.bounded(n);
            assert!(v < n);
            if v < n / 2 {
                low += 1;
            }
        }
        // A modulo-biased sampler would put ~2/3 of the mass in the low
        // half; the unbiased one stays near 1/2 (±3%, far below 2/3).
        let frac = low as f64 / samples as f64;
        assert!(
            (frac - 0.5).abs() < 0.03,
            "low-half fraction {frac} not uniform"
        );
        // Backoff stays within [base, base * 1.5] of the capped schedule.
        let mut c = ResilienceCore::new(ResiliencePolicy::default());
        let pol = ResiliencePolicy::default();
        for attempt in 1u32..=8 {
            let exp = attempt.saturating_sub(1).min(16);
            let base = RETRY_BACKOFF
                .saturating_mul(1u32 << exp)
                .min(pol.retry_backoff_cap);
            let d = c.retry_backoff(attempt, 0.0, &obs);
            assert!(d >= base && d <= base + base / 2 + Duration::from_nanos(1));
        }
    }
}
