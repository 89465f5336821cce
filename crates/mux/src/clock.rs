//! The multiplexer's notion of time: a trait with a virtual
//! implementation (deterministic tests) and a wall implementation
//! (production).
//!
//! The mux never reads `Instant` directly — all waiting funnels through
//! [`MuxClock::advance_to`], which a [`VirtualClock`] satisfies by
//! *jumping* (zero wall time, perfectly reproducible) and a [`WallClock`]
//! by napping in bounded slices (so the I/O sweep keeps running between
//! naps). This is the same sans-io discipline the protocol machines
//! follow, applied to the runtime itself.

use std::time::Duration;

use pm_core::runtime::clamp_wait;
use pm_obs::Stopwatch;

/// Time source driving a [`Mux`](crate::Mux).
pub trait MuxClock {
    /// Seconds since the mux epoch.
    fn now(&self) -> f64;

    /// Move time toward `deadline` (seconds since epoch). Virtual clocks
    /// jump exactly; wall clocks sleep a bounded slice and may return
    /// early (the caller re-polls I/O and calls again). Must tolerate
    /// hostile inputs: a `NaN`, infinite or past deadline advances by at
    /// most one minimal step and never panics.
    fn advance_to(&mut self, deadline: f64);
}

/// Deterministic simulated time: starts at zero, moves only when told to.
///
/// Under a virtual clock the mux's whole schedule — pacing, backoff,
/// stall deadlines — becomes a pure function of the session set and the
/// transport contents, which is what lets tests pin byte-identical
/// transcripts across runs.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    now: f64,
}

impl VirtualClock {
    /// A clock at `t = 0`.
    pub fn new() -> Self {
        VirtualClock::default()
    }
}

impl MuxClock for VirtualClock {
    fn now(&self) -> f64 {
        self.now
    }

    fn advance_to(&mut self, deadline: f64) {
        if deadline.is_finite() && deadline > self.now {
            self.now = deadline;
        }
    }
}

/// Real time, read through the observability stopwatch.
///
/// `advance_to` naps at most `max_nap` per call so a far-out timer can
/// never blind the mux to arriving datagrams: the run loop re-polls every
/// endpoint between naps.
#[derive(Debug, Clone)]
pub struct WallClock {
    epoch: Stopwatch,
    max_nap: Duration,
}

impl WallClock {
    /// A clock whose epoch is now, napping at most 500µs at a time.
    pub fn new() -> Self {
        WallClock {
            epoch: Stopwatch::start(),
            max_nap: Duration::from_micros(500),
        }
    }

    /// Override the nap ceiling (coarser naps trade latency for CPU).
    pub fn with_max_nap(mut self, max_nap: Duration) -> Self {
        self.max_nap = max_nap.max(Duration::from_micros(1));
        self
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl MuxClock for WallClock {
    fn now(&self) -> f64 {
        self.epoch.now()
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "a wall-clock mux naps until its next timer while its real sockets fill"
    )]
    fn advance_to(&mut self, deadline: f64) {
        let nap = clamp_wait(
            deadline - self.now(),
            Duration::from_micros(20),
            self.max_nap,
        );
        std::thread::sleep(nap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_jumps_forward_only() {
        let mut c = VirtualClock::new();
        assert_eq!(c.now(), 0.0);
        c.advance_to(1.5);
        assert_eq!(c.now(), 1.5);
        c.advance_to(1.0);
        assert_eq!(c.now(), 1.5, "never moves backwards");
        c.advance_to(f64::NAN);
        c.advance_to(f64::INFINITY);
        c.advance_to(f64::NEG_INFINITY);
        assert_eq!(c.now(), 1.5, "hostile deadlines are ignored");
    }

    #[test]
    fn wall_clock_naps_are_bounded() {
        let mut c = WallClock::new().with_max_nap(Duration::from_millis(1));
        let before = c.now();
        // An hour-out (and an infinite) deadline must return promptly.
        c.advance_to(before + 3600.0);
        c.advance_to(f64::INFINITY);
        c.advance_to(f64::NAN);
        let waited = c.now() - before;
        assert!(waited < 0.5, "bounded naps, waited {waited}s");
        assert!(c.now() >= before);
    }
}
