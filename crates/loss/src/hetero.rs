//! Heterogeneous receiver populations (Section 3.3).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::model::LossModel;
use crate::skip::GeoSkip;

/// Arbitrary per-receiver loss probabilities, independent in space and time.
///
/// Stored as runs of consecutive receivers with equal `p`; each run
/// is sampled by its own geometric skip stream, so a population of a few
/// classes costs `O(losses)` per transmission and `O(classes)` memory.
#[derive(Debug, Clone)]
pub struct PerReceiverLoss {
    /// `(end, skip)`: the run covers receivers `previous end .. end`.
    runs: Vec<(u32, GeoSkip)>,
    rng: ChaCha8Rng,
}

impl PerReceiverLoss {
    /// One loss probability per receiver.
    ///
    /// # Panics
    /// Panics if `ps` is empty or contains a non-probability.
    pub fn new(ps: Vec<f64>, seed: u64) -> Self {
        Self::from_runs(
            ps.chunk_by(|a, b| a == b).map(|run| (run.len(), run[0])),
            seed,
        )
    }

    /// `(count, p)` per run of consecutive receivers; empty runs are dropped.
    fn from_runs(runs: impl IntoIterator<Item = (usize, f64)>, seed: u64) -> Self {
        let mut end = 0usize;
        let runs: Vec<(u32, GeoSkip)> = runs
            .into_iter()
            .filter(|&(count, _)| count > 0)
            .map(|(count, p)| {
                assert!(
                    (0.0..=1.0).contains(&p),
                    "receiver {end}: p={p} is not a probability"
                );
                end += count;
                let end = u32::try_from(end).expect("receiver indices are u32");
                (end, GeoSkip::new(p))
            })
            .collect();
        assert!(!runs.is_empty(), "need at least one receiver");
        PerReceiverLoss {
            runs,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// The loss probability of receiver `r`.
    pub fn p_of(&self, r: usize) -> f64 {
        let run = self.runs.partition_point(|&(end, _)| end as usize <= r);
        self.runs[run].1.p()
    }
}

impl LossModel for PerReceiverLoss {
    fn receivers(&self) -> usize {
        self.runs.last().map_or(0, |&(end, _)| end as usize)
    }

    fn sample_lost(&mut self, _time: f64, out: &mut Vec<u32>) {
        out.clear();
        let mut lo = 0;
        for &(end, skip) in &self.runs {
            skip.for_each_hit(&mut self.rng, lo, end, |r| out.push(r));
            lo = end;
        }
    }
}

/// The paper's two-class population: a fraction `alpha` of receivers are
/// "high loss" (`p_high`, 0.25 in the paper), the rest "low loss" (`p_low`,
/// 0.01 in the paper). Figures 9–10.
///
/// Class assignment is deterministic — the first `round(alpha * R)`
/// receivers are the high-loss ones — so experiments are exactly
/// reproducible and `alpha` is honoured to the nearest receiver.
#[derive(Debug, Clone)]
pub struct TwoClassLoss {
    inner: PerReceiverLoss,
    high_count: usize,
}

impl TwoClassLoss {
    /// Build the two-class population.
    ///
    /// # Panics
    /// Panics unless `alpha`, `p_low`, `p_high` are probabilities and
    /// `receivers > 0`.
    pub fn new(receivers: usize, alpha: f64, p_low: f64, p_high: f64, seed: u64) -> Self {
        assert!(receivers > 0, "need at least one receiver");
        assert!((0.0..=1.0).contains(&alpha), "alpha must be a probability");
        // Checked here, not left to `from_runs`: that drops an empty class
        // before it looks at its `p`.
        for (name, p) in [("p_low", p_low), ("p_high", p_high)] {
            assert!((0.0..=1.0).contains(&p), "{name}={p} is not a probability");
        }
        let high_count = (alpha * receivers as f64).round() as usize;
        TwoClassLoss {
            inner: PerReceiverLoss::from_runs(
                [(high_count, p_high), (receivers - high_count, p_low)],
                seed,
            ),
            high_count,
        }
    }

    /// Number of receivers in the high-loss class.
    pub fn high_count(&self) -> usize {
        self.high_count
    }
}

impl LossModel for TwoClassLoss {
    fn receivers(&self) -> usize {
        self.inner.receivers()
    }

    fn sample_lost(&mut self, time: f64, out: &mut Vec<u32>) {
        self.inner.sample_lost(time, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::empirical_loss_rate;

    #[test]
    fn class_sizes_round_correctly() {
        let m = TwoClassLoss::new(100, 0.25, 0.01, 0.25, 0);
        assert_eq!(m.high_count(), 25);
        let m = TwoClassLoss::new(1000, 0.01, 0.01, 0.25, 0);
        assert_eq!(m.high_count(), 10);
        let m = TwoClassLoss::new(3, 0.5, 0.0, 1.0, 0);
        assert_eq!(m.high_count(), 2); // round(1.5)
    }

    #[test]
    fn per_class_rates_hold() {
        let mut m = TwoClassLoss::new(40, 0.5, 0.05, 0.5, 11);
        let n = 4000;
        let mut per_recv = vec![0usize; 40];
        for i in 0..n {
            for (r, &l) in m.sample_vec(i as f64).iter().enumerate() {
                if l {
                    per_recv[r] += 1;
                }
            }
        }
        #[expect(
            clippy::needless_range_loop,
            reason = "r is also the receiver id in the message"
        )]
        for r in 0..20 {
            let rate = per_recv[r] as f64 / n as f64;
            assert!((rate - 0.5).abs() < 0.04, "high receiver {r}: {rate}");
        }
        #[expect(
            clippy::needless_range_loop,
            reason = "r is also the receiver id in the message"
        )]
        for r in 20..40 {
            let rate = per_recv[r] as f64 / n as f64;
            assert!((rate - 0.05).abs() < 0.02, "low receiver {r}: {rate}");
        }
    }

    #[test]
    fn aggregate_rate_is_mixture() {
        let mut m = TwoClassLoss::new(100, 0.25, 0.01, 0.25, 3);
        let rate = empirical_loss_rate(&mut m, 3000, 0.04);
        let expect = 0.25 * 0.25 + 0.75 * 0.01;
        assert!((rate - expect).abs() < 0.01, "rate={rate} expect={expect}");
    }

    #[test]
    fn alpha_zero_and_one() {
        assert_eq!(TwoClassLoss::new(10, 0.0, 0.1, 0.9, 0).high_count(), 0);
        assert_eq!(TwoClassLoss::new(10, 1.0, 0.1, 0.9, 0).high_count(), 10);
    }

    #[test]
    fn per_receiver_accessor() {
        let m = PerReceiverLoss::new(vec![0.1, 0.9], 0);
        assert_eq!(m.p_of(0), 0.1);
        assert_eq!(m.p_of(1), 0.9);
    }

    #[test]
    #[should_panic(expected = "not a probability")]
    fn bad_probability_panics() {
        let _ = PerReceiverLoss::new(vec![0.5, -0.1], 0);
    }

    #[test]
    #[should_panic(expected = "p_high=5 is not a probability")]
    fn bad_probability_of_an_empty_class_panics() {
        let _ = TwoClassLoss::new(10, 0.0, 0.1, 5.0, 0);
    }
}
