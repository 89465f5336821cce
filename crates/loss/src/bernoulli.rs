//! Spatially and temporally independent loss (the Section 3 baseline).

use crate::model::LossModel;
use crate::skip::{Draws, GeoSkip};

/// Every receiver loses each packet independently with probability `p`;
/// packets are independent of each other ("independent loss" in the paper:
/// only the receivers lose packets, interior tree nodes do not).
///
/// Sampled by geometric skipping over the receiver indices: one RNG draw
/// per *loss*, its logarithm taken in batches, and no per-receiver state,
/// so the cost of a transmission is `O(p * R)` at any population size.
#[derive(Debug, Clone)]
pub struct IndependentLoss {
    receivers: u32,
    skip: GeoSkip,
    draws: Draws,
}

impl IndependentLoss {
    /// Create the model for `receivers` receivers with loss probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 <= p <= 1` and `0 < receivers <= u32::MAX`, and if
    /// `PM_SIMD` is invalid on this host (the gaps' logarithms go through
    /// pm-simd's dispatch).
    pub fn new(receivers: usize, p: f64, seed: u64) -> Self {
        assert!(receivers > 0, "need at least one receiver");
        assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
        IndependentLoss {
            receivers: u32::try_from(receivers).expect("receiver indices are u32"),
            skip: GeoSkip::new(p),
            draws: Draws::new(seed),
        }
    }

    /// The configured loss probability.
    pub fn p(&self) -> f64 {
        self.skip.p()
    }

    /// Restart as [`IndependentLoss::new`] with `seed` would build the
    /// model: the same draws from here on.
    pub fn reseed(&mut self, seed: u64) {
        self.draws.reseed(seed);
    }
}

impl LossModel for IndependentLoss {
    fn receivers(&self) -> usize {
        self.receivers as usize
    }

    fn sample_lost(&mut self, _time: f64, out: &mut Vec<u32>) {
        out.clear();
        self.skip
            .for_each_hit(&mut self.draws, 0, self.receivers, |r| out.push(r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::empirical_loss_rate;
    use crate::skip::oracle;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn zero_and_one_are_degenerate() {
        let mut never = IndependentLoss::new(4, 0.0, 1);
        assert!(never.sample_vec(0.0).iter().all(|&l| !l));
        let mut always = IndependentLoss::new(4, 1.0, 1);
        assert!(always.sample_vec(0.0).iter().all(|&l| l));
    }

    #[test]
    fn rate_converges_to_p() {
        for p in [0.01, 0.25, 0.9] {
            let mut m = IndependentLoss::new(50, p, 99);
            let rate = empirical_loss_rate(&mut m, 4000, 0.04);
            assert!((rate - p).abs() < 0.02, "p={p} rate={rate}");
        }
    }

    #[test]
    fn reproducible_from_seed() {
        let mut a = IndependentLoss::new(10, 0.5, 1234);
        let mut b = IndependentLoss::new(10, 0.5, 1234);
        for i in 0..50 {
            assert_eq!(a.sample_vec(i as f64), b.sample_vec(i as f64));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = IndependentLoss::new(64, 0.5, 1);
        let mut b = IndependentLoss::new(64, 0.5, 2);
        let mut any_diff = false;
        for i in 0..20 {
            if a.sample_vec(i as f64) != b.sample_vec(i as f64) {
                any_diff = true;
                break;
            }
        }
        assert!(any_diff);
    }

    #[test]
    fn receivers_are_spatially_independent() {
        // Correlation between two receivers should be ~0.
        let mut m = IndependentLoss::new(2, 0.3, 7);
        let n = 20000;
        let (mut c01, mut c10, mut c11) = (0, 0, 0);
        for i in 0..n {
            let v = m.sample_vec(i as f64);
            match (v[0], v[1]) {
                (false, false) => {}
                (false, true) => c01 += 1,
                (true, false) => c10 += 1,
                (true, true) => c11 += 1,
            }
        }
        let p1 = (c10 + c11) as f64 / n as f64;
        let p2 = (c01 + c11) as f64 / n as f64;
        let joint = c11 as f64 / n as f64;
        assert!(
            (joint - p1 * p2).abs() < 0.01,
            "joint={joint} p1*p2={}",
            p1 * p2
        );
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_p_panics() {
        let _ = IndependentLoss::new(1, 1.5, 0);
    }

    #[test]
    fn hit_lists_equal_the_draw_then_ln_oracle() {
        for kernels in oracle::backends() {
            for p in oracle::PS {
                let receivers = if p < 0.1 { 1024 } else { 16 };
                let mut model = IndependentLoss::new(receivers, p, 5);
                model.draws.set_kernels(kernels);
                let mut rng = ChaCha8Rng::seed_from_u64(5);
                let (mut got, mut want) = (Vec::new(), Vec::new());
                for call in 0..oracle::CALLS {
                    model.sample_lost(0.0, &mut got);
                    want.clear();
                    oracle::for_each_hit(&model.skip, &mut rng, 0, model.receivers, |r| {
                        want.push(r)
                    });
                    assert_eq!(got, want, "{:?} p={p} call {call}", kernels.backend());
                }
            }
        }
    }
}
