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

/// Clamp a wait `delta_secs` from now to `[floor, ceil]`, total over every
/// float: `NaN` and non-positive deltas clamp to `floor`, `+inf` and
/// oversized ones to `ceil` — a misbehaving machine can delay the mux,
/// never panic it (`Duration::from_secs_f64` panics on non-finite input).
/// The mux's timer waits and a [`WallClock`]'s naps both go through here.
pub(crate) fn clamp_wait(delta_secs: f64, floor: Duration, ceil: Duration) -> Duration {
    if delta_secs.is_nan() || delta_secs <= 0.0 {
        return floor;
    }
    if delta_secs >= ceil.as_secs_f64() {
        return ceil;
    }
    Duration::from_secs_f64(delta_secs).clamp(floor, ceil)
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

/// The shortest nap a [`WallClock`] takes.
const MIN_NAP: Duration = Duration::from_micros(20);
/// The longest nap a [`WallClock`] takes.
const MAX_NAP: Duration = Duration::from_micros(500);

/// Real time, read through the observability stopwatch.
///
/// `advance_to` naps at most [`MAX_NAP`] per call so a far-out timer can
/// never blind the mux to arriving datagrams: the run loop re-polls every
/// endpoint between naps.
#[derive(Debug, Clone)]
pub struct WallClock {
    epoch: Stopwatch,
}

impl WallClock {
    /// A clock whose epoch is now.
    pub fn new() -> Self {
        WallClock {
            epoch: Stopwatch::start(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl MuxClock for WallClock {
    #[expect(
        clippy::disallowed_methods,
        reason = "a wall-clock mux's time is the stopwatch's"
    )]
    fn now(&self) -> f64 {
        self.epoch.now()
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "a wall-clock mux naps until its next timer while its real sockets fill"
    )]
    fn advance_to(&mut self, deadline: f64) {
        std::thread::sleep(clamp_wait(deadline - self.now(), MIN_NAP, MAX_NAP));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_wait_is_total_over_hostile_floats() {
        let floor = Duration::from_micros(100);
        let ceil = Duration::from_millis(50);
        // NaN and non-positive deltas wake immediately-ish at the floor.
        assert_eq!(clamp_wait(f64::NAN, floor, ceil), floor);
        assert_eq!(clamp_wait(f64::NEG_INFINITY, floor, ceil), floor);
        assert_eq!(clamp_wait(-1.0, floor, ceil), floor);
        assert_eq!(clamp_wait(0.0, floor, ceil), floor);
        assert_eq!(clamp_wait(1e-9, floor, ceil), floor);
        // Oversized and infinite deltas cap at the ceiling.
        assert_eq!(clamp_wait(f64::INFINITY, floor, ceil), ceil);
        assert_eq!(clamp_wait(1e300, floor, ceil), ceil);
        assert_eq!(clamp_wait(3600.0, floor, ceil), ceil);
        // In-range deltas pass through.
        assert_eq!(clamp_wait(0.001, floor, ceil), Duration::from_millis(1));
    }

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
        let mut c = WallClock::new();
        let before = c.now();
        // An hour-out and an infinite deadline nap MAX_NAP each, a NaN one
        // the floor: all three return promptly.
        c.advance_to(before + 3600.0);
        c.advance_to(f64::INFINITY);
        c.advance_to(f64::NAN);
        let waited = c.now() - before;
        let bound = 3.0 * MAX_NAP.as_secs_f64() + 0.5;
        assert!(waited < bound, "bounded naps, waited {waited}s");
        assert!(
            waited >= 2.0 * MAX_NAP.as_secs_f64(),
            "two full naps, waited {waited}s"
        );
    }
}
