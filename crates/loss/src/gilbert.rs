//! Temporally correlated (burst) loss — Section 4.2.
//!
//! Losses at one receiver follow a two-state continuous-time Markov chain
//! `{X_t}`, `X_t ∈ {0, 1}`: a packet transmitted at time `t` is lost iff
//! `X_t = 1`. The infinitesimal generator is
//!
//! ```text
//!     Q = [ -l0   l0 ]
//!         [  l1  -l1 ]
//! ```
//!
//! with stationary distribution `pi_1 = l0 / (l0 + l1) = p` (the packet
//! loss probability). The transition probabilities over an interval `t`
//! are the classic closed forms (Morse [16, ch. 6]):
//!
//! ```text
//!     P(X_{s+t}=1 | X_s=1) = pi_1 + pi_0 * exp(-(l0+l1) t)
//!     P(X_{s+t}=1 | X_s=0) = pi_1 * (1 - exp(-(l0+l1) t))
//! ```
//!
//! **Calibration.** The paper parameterises the chain by the loss
//! probability `p`, the mean burst length `b` (consecutive lost packets)
//! and the packet spacing `delta = 1/lambda`. When the chain is sampled
//! every `delta` seconds it becomes a two-state DTMC, in which runs of the
//! loss state are geometric with continuation probability
//! `p11 = P(X_{t+delta}=1 | X_t=1)`; the mean run is `1 / (1 - p11)`.
//! [`GilbertLoss::new`] solves `p11 = 1 - 1/b` *exactly*:
//!
//! ```text
//!     exp(-(l0+l1) delta) = (1 - 1/b - p) / (1 - p)
//!     l1 = (1 - p) * s,   l0 = p * s,    s = l0 + l1
//! ```
//!
//! (The paper's printed formulas — `l0` from `-ln(1 - 1/b)` scaled by the
//! packet rate, then `l1 = l0 (1-p)/p` — are the small-`p` approximation of
//! the same calibration with the state labels fixed up; the OCR of the
//! archived text garbles the subscripts. [`GilbertLoss::from_paper_rates`]
//! implements that literal reading; tests verify both yield mean burst
//! `~= b` and loss rate `~= p` for the paper's parameters.)
//!
//! Chains at different receivers are independent, each driven by its own
//! ChaCha stream.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::model::{lost_indices, LossModel};

/// Two-state Markov burst-loss model (one independent chain per receiver).
#[derive(Debug, Clone)]
pub struct GilbertLoss {
    /// Sum of rates `s = l0 + l1`.
    s: f64,
    /// Stationary loss probability `pi_1 = l0 / s`.
    pi1: f64,
    /// Per-receiver chain state: `true` = loss state.
    state: Vec<bool>,
    /// Per-receiver time of the last sample.
    last: Vec<f64>,
    rng: ChaCha8Rng,
}

impl GilbertLoss {
    /// Exact calibration from `(p, mean burst length b, packet spacing
    /// delta)`: sampling the chain every `delta` seconds yields loss runs
    /// with mean exactly `b` and stationary loss probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 < p < 1`, `delta > 0`, and `b > 1 / (1 - p)`
    /// (shorter bursts than `1/(1-p)` would need anti-correlated loss,
    /// which a two-state chain cannot produce).
    pub fn new(receivers: usize, p: f64, b: f64, delta: f64, seed: u64) -> Self {
        assert!(receivers > 0, "need at least one receiver");
        assert!(p > 0.0 && p < 1.0, "p must be in (0,1), got {p}");
        assert!(delta > 0.0, "delta must be positive");
        assert!(
            b > 1.0 / (1.0 - p),
            "mean burst length b={b} must exceed 1/(1-p)={}",
            1.0 / (1.0 - p)
        );
        let ratio = (1.0 - 1.0 / b - p) / (1.0 - p);
        let s = -ratio.ln() / delta;
        Self::from_rates(receivers, p * s, (1.0 - p) * s, seed)
    }

    /// The paper's literal printed calibration: `l1 = -ln(1 - 1/b) / delta`
    /// (exit rate from the loss state such that the chance of *remaining*
    /// lost across one packet spacing is `1 - 1/b`), and `l0 = l1 p/(1-p)`
    /// for stationarity. Close to [`GilbertLoss::new`] for small `p`.
    ///
    /// # Panics
    /// As for [`GilbertLoss::new`], with the weaker requirement `b > 1`.
    pub fn from_paper_rates(receivers: usize, p: f64, b: f64, delta: f64, seed: u64) -> Self {
        assert!(p > 0.0 && p < 1.0, "p must be in (0,1), got {p}");
        assert!(delta > 0.0, "delta must be positive");
        assert!(b > 1.0, "mean burst length must exceed 1, got {b}");
        let l1 = -(1.0 - 1.0 / b).ln() / delta;
        let l0 = l1 * p / (1.0 - p);
        Self::from_rates(receivers, l0, l1, seed)
    }

    /// Directly from the generator rates `l0` (enter loss) and `l1`
    /// (leave loss). Initial states are drawn from the stationary
    /// distribution.
    ///
    /// # Panics
    /// Panics unless both rates are positive and `receivers > 0`.
    pub fn from_rates(receivers: usize, l0: f64, l1: f64, seed: u64) -> Self {
        assert!(receivers > 0, "need at least one receiver");
        assert!(
            l0 > 0.0 && l1 > 0.0,
            "rates must be positive: l0={l0} l1={l1}"
        );
        let s = l0 + l1;
        let mut model = GilbertLoss {
            s,
            pi1: l0 / s,
            state: vec![false; receivers],
            last: vec![0.0; receivers],
            rng: ChaCha8Rng::seed_from_u64(seed),
        };
        model.start();
        model
    }

    /// Restart as the constructors with `seed` would build the model: the
    /// same draws from here on, in the model's own buffers (no
    /// allocation).
    pub fn reseed(&mut self, seed: u64) {
        self.rng = ChaCha8Rng::seed_from_u64(seed);
        self.start();
    }

    /// Draw every chain's state at time 0 from the stationary
    /// distribution, in receiver order.
    fn start(&mut self) {
        for st in &mut self.state {
            *st = self.rng.random::<f64>() < self.pi1;
        }
        self.last.fill(0.0);
    }

    /// Stationary loss probability `pi_1`.
    pub fn p(&self) -> f64 {
        self.pi1
    }

    /// Rate sum `l0 + l1` (the chain's mixing rate).
    pub fn rate_sum(&self) -> f64 {
        self.s
    }

    /// Probability of being in the loss state after `dt`, starting from
    /// `from_loss`.
    fn p_loss_after(&self, from_loss: bool, dt: f64) -> f64 {
        let decay = (-self.s * dt).exp();
        if from_loss {
            self.pi1 + (1.0 - self.pi1) * decay
        } else {
            self.pi1 * (1.0 - decay)
        }
    }

    /// Advance every chain to `time`; `self.state` is then the pattern of
    /// a packet sent at `time`.
    fn advance(&mut self, time: f64) {
        for r in 0..self.state.len() {
            // Clamp tiny negative dt from floating-point scheduling noise;
            // genuinely going backwards in time is a caller bug.
            let dt = time - self.last[r];
            debug_assert!(
                dt >= -1e-9,
                "time went backwards: {} -> {time}",
                self.last[r]
            );
            let dt = dt.max(0.0);
            let p1 = self.p_loss_after(self.state[r], dt);
            self.state[r] = self.rng.random::<f64>() < p1;
            self.last[r] = time;
        }
    }
}

impl LossModel for GilbertLoss {
    fn receivers(&self) -> usize {
        self.state.len()
    }

    fn sample_lost(&mut self, time: f64, out: &mut Vec<u32>) {
        self.advance(time);
        lost_indices(&self.state, out);
    }

    fn sample(&mut self, time: f64, lost: &mut [bool]) {
        assert_eq!(lost.len(), self.state.len(), "loss buffer size mismatch");
        self.advance(time);
        lost.copy_from_slice(&self.state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::BurstStats;

    /// Drive one receiver for `n` packets spaced `delta`, returning burst
    /// statistics.
    fn run(model: &mut GilbertLoss, n: usize, delta: f64) -> BurstStats {
        let mut stats = BurstStats::new();
        let mut lost = vec![false; model.receivers()];
        for i in 0..n {
            model.sample(i as f64 * delta, &mut lost);
            stats.record(lost[0]);
        }
        stats.finish();
        stats
    }

    #[test]
    fn stationary_loss_rate_is_p() {
        let mut m = GilbertLoss::new(1, 0.05, 2.0, 0.04, 42);
        let stats = run(&mut m, 200_000, 0.04);
        let rate = stats.loss_rate();
        assert!((rate - 0.05).abs() < 0.005, "rate={rate}");
    }

    #[test]
    fn mean_burst_matches_exact_calibration() {
        // Paper parameters: p = 0.01, b = 2, delta = 40 ms.
        let mut m = GilbertLoss::new(1, 0.01, 2.0, 0.04, 7);
        let stats = run(&mut m, 400_000, 0.04);
        let mean = stats.mean_burst().unwrap();
        assert!((mean - 2.0).abs() < 0.15, "mean burst {mean}");
    }

    #[test]
    fn paper_rates_close_for_small_p() {
        let mut m = GilbertLoss::from_paper_rates(1, 0.01, 2.0, 0.04, 7);
        let stats = run(&mut m, 400_000, 0.04);
        let mean = stats.mean_burst().unwrap();
        assert!((mean - 2.0).abs() < 0.25, "mean burst {mean}");
        assert!((stats.loss_rate() - 0.01).abs() < 0.003);
    }

    #[test]
    fn burst_tail_is_geometric() {
        // log-occurrences should fall roughly linearly (Fig. 14's shape):
        // check the ratio of successive counts is near the continuation
        // probability 1 - 1/b = 0.5.
        let mut m = GilbertLoss::new(1, 0.05, 2.0, 0.04, 3);
        let stats = run(&mut m, 500_000, 0.04);
        let h = stats.histogram();
        assert!(h.len() >= 3, "need bursts up to length 3, got {h:?}");
        let r1 = h[1] as f64 / h[0] as f64;
        let r2 = h[2] as f64 / h[1] as f64;
        assert!((r1 - 0.5).abs() < 0.1, "ratio1={r1}");
        assert!((r2 - 0.5).abs() < 0.15, "ratio2={r2}");
    }

    #[test]
    fn wider_spacing_decorrelates() {
        // Sampling far apart (>> 1/s) should look iid: mean burst -> 1/(1-p).
        let m0 = GilbertLoss::new(1, 0.2, 3.0, 0.04, 9);
        let s = m0.rate_sum();
        let wide = 50.0 / s;
        let mut m = GilbertLoss::new(1, 0.2, 3.0, 0.04, 9);
        let stats = run(&mut m, 100_000, wide);
        let mean = stats.mean_burst().unwrap();
        assert!(
            (mean - 1.25).abs() < 0.1,
            "mean burst {mean} should approach 1/(1-p)=1.25"
        );
    }

    #[test]
    fn receivers_independent() {
        let mut m = GilbertLoss::new(2, 0.3, 2.0, 0.04, 5);
        let n = 50_000;
        let (mut both, mut first, mut second) = (0usize, 0usize, 0usize);
        let mut lost = vec![false; 2];
        for i in 0..n {
            m.sample(i as f64 * 0.04, &mut lost);
            if lost[0] {
                first += 1;
            }
            if lost[1] {
                second += 1;
            }
            if lost[0] && lost[1] {
                both += 1;
            }
        }
        let pj = both as f64 / n as f64;
        let pp = (first as f64 / n as f64) * (second as f64 / n as f64);
        assert!((pj - pp).abs() < 0.01, "joint {pj} vs product {pp}");
    }

    #[test]
    fn reproducible_from_seed() {
        let mut a = GilbertLoss::new(4, 0.1, 2.0, 0.04, 77);
        let mut b = GilbertLoss::new(4, 0.1, 2.0, 0.04, 77);
        for i in 0..100 {
            assert_eq!(a.sample_vec(i as f64 * 0.04), b.sample_vec(i as f64 * 0.04));
        }
    }

    #[test]
    #[should_panic(expected = "must exceed 1/(1-p)")]
    fn too_short_bursts_rejected() {
        let _ = GilbertLoss::new(1, 0.5, 1.5, 0.04, 0);
    }
}
