//! Simulation results.
//!
//! The Welford accumulator lives in `pm-obs` ([`pm_obs::RunningStat`]) so
//! the observability layer and the simulator share one implementation; it
//! is re-exported here for existing `pm_sim::RunningStat` call sites.

pub use pm_obs::RunningStat;

/// Result of one simulated configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimResult {
    /// Mean transmissions per data packet, `E[M]`.
    pub mean_transmissions: f64,
    /// Standard error of `mean_transmissions` (`NaN` with fewer than two
    /// trials — undefined, not zero).
    pub stderr: f64,
    /// Half-width of the 95% confidence interval on `mean_transmissions`
    /// (`1.96 × stderr`; `NaN` with fewer than two trials).
    pub ci95: f64,
    /// Mean transmission rounds per group (1 when the scheme has no round
    /// structure, e.g. integrated FEC 1).
    pub mean_rounds: f64,
    /// Mean *unnecessary receptions* per receiver per transmission group:
    /// packets received by a receiver that no longer needed them (the
    /// duplicate-waste metric of the paper's Section 2.1; parity repair
    /// drives it "nearly to zero").
    pub mean_unneeded: f64,
    /// Trials averaged.
    pub trials: usize,
}

impl SimResult {
    /// Assemble from accumulators.
    pub fn from_stats(m: &RunningStat, rounds: &RunningStat, unneeded: &RunningStat) -> Self {
        SimResult {
            mean_transmissions: m.mean(),
            stderr: m.stderr(),
            ci95: m.ci95(),
            mean_rounds: rounds.mean(),
            mean_unneeded: unneeded.mean(),
            trials: m.count() as usize,
        }
    }
}

/// Raw outputs of one simulated trial — one transmission group (one packet
/// for no-FEC), produced by the per-trial scheme functions and folded into
/// [`SchemeStats`] by the runner. Keeping the trial→accumulator step
/// explicit is what lets serial and parallel drivers share one
/// numerically identical aggregation path. The samples are borrowed from
/// the worker's trial buffers, so producing one allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialOut<'a> {
    /// Per-packet `E[M]` samples this trial contributes, in slot order —
    /// `k` values for layered FEC (one per data slot), a single value for
    /// the other schemes.
    pub m_values: &'a [f64],
    /// Rounds the trial took (1 for schemes without round structure).
    pub rounds: f64,
    /// Unnecessary receptions per receiver, `None` for schemes that by
    /// construction produce none (integrated FEC 1, where completed
    /// receivers leave the group).
    pub unneeded: Option<f64>,
}

impl TrialOut<'_> {
    /// Mean of this trial's `m_values` — the per-trial `M` sample reported
    /// in `sim_trial` trace events.
    pub fn mean_m(&self) -> f64 {
        if self.m_values.is_empty() {
            return 0.0;
        }
        self.m_values.iter().sum::<f64>() / self.m_values.len() as f64
    }
}

/// The three per-run accumulators every scheme feeds, with a Chan-et-al
/// merge so per-chunk instances from a parallel run collapse into one
/// result. Both the serial and the parallel driver accumulate through
/// this type with the *same chunk layout and merge order*, which is what
/// makes their `SimResult`s bit-identical.
#[derive(Debug, Clone, Default)]
pub struct SchemeStats {
    m: RunningStat,
    rounds: RunningStat,
    unneeded: RunningStat,
}

impl SchemeStats {
    /// Empty accumulators.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one trial's outputs in, in the same push order the legacy
    /// single-stream runners used.
    pub fn push_trial(&mut self, out: &TrialOut<'_>) {
        for &m in out.m_values {
            self.m.push(m);
        }
        self.rounds.push(out.rounds);
        if let Some(u) = out.unneeded {
            self.unneeded.push(u);
        }
    }

    /// Absorb another accumulator (parallel variance combine on all three
    /// statistics).
    pub fn merge(&mut self, other: &SchemeStats) {
        self.m.merge(&other.m);
        self.rounds.merge(&other.rounds);
        self.unneeded.merge(&other.unneeded);
    }

    /// Number of `E[M]` samples accumulated so far.
    pub fn count(&self) -> u64 {
        self.m.count()
    }

    /// Finish into a [`SimResult`].
    pub fn result(&self) -> SimResult {
        SimResult::from_stats(&self.m, &self.rounds, &self.unneeded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_assembly() {
        let mut m = RunningStat::new();
        let mut r = RunningStat::new();
        for i in 0..10 {
            m.push(1.0 + i as f64 * 0.1);
            r.push(2.0);
        }
        let res = SimResult::from_stats(&m, &r, &RunningStat::new());
        assert_eq!(res.trials, 10);
        assert!((res.mean_rounds - 2.0).abs() < 1e-12);
        assert_eq!(res.mean_unneeded, 0.0);
        assert!(res.stderr > 0.0);
        assert!((res.ci95 - 1.96 * res.stderr).abs() < 1e-12);
    }

    #[test]
    fn single_trial_interval_is_nan() {
        let mut m = RunningStat::new();
        m.push(3.0);
        let res = SimResult::from_stats(&m, &m, &m);
        assert_eq!(res.trials, 1);
        assert_eq!(res.mean_transmissions, 3.0);
        assert!(res.stderr.is_nan(), "n=1 stderr must be NaN, not 0");
        assert!(res.ci95.is_nan());
    }
}
