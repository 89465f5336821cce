//! Parallel Monte Carlo estimators for the paper's stochastic models.
//!
//! Every closed form in this crate describes the expectation of a random
//! variable with a short generative definition (max of geometrics,
//! recover-or-retransmit rounds, worst-receiver parity demand, …). This
//! module simulates those *definitions* directly — not the formulas — so
//! implementation errors in either direction surface when the two
//! disagree; the unit tests at the bottom are exactly those cross-checks.
//!
//! Estimation follows the same deterministic-parallel recipe as the
//! scheme simulator: trial `i` draws from a `ChaCha8Rng` seeded with
//! [`pm_par::mix_seed`]`(seed, i)`, trials fan across a [`Pool`] in fixed
//! chunks, and per-chunk [`RunningStat`] accumulators merge in chunk
//! order — an estimate is a pure function of `(parameters, trials, seed)`
//! and is **bit-identical** at every worker count.

use pm_obs::RunningStat;
use pm_par::{mix_seed, Pool};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::population::Population;

/// Trials per work chunk. Fixed so the chunk layout — and with it the
/// floating-point merge order — never depends on the worker count.
const TRIAL_CHUNK: usize = 256;

/// A Monte Carlo point estimate with its sampling uncertainty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McEstimate {
    /// Sample mean of the simulated quantity.
    pub mean: f64,
    /// Standard error of `mean` (`NaN` with fewer than two trials).
    pub stderr: f64,
    /// Trials simulated.
    pub trials: u64,
}

impl McEstimate {
    fn from_stat(stat: &RunningStat) -> Self {
        McEstimate {
            mean: stat.mean(),
            stderr: stat.stderr(),
            trials: stat.count(),
        }
    }

    /// Relative deviation of `mean` from a reference value.
    pub fn rel_error(&self, reference: f64) -> f64 {
        (self.mean - reference).abs() / reference.abs()
    }
}

/// Run `trials` independent trials of `sample` across `pool`, each with
/// its own `mix_seed`-derived ChaCha stream, and reduce deterministically.
fn estimate<F>(trials: usize, seed: u64, pool: &Pool, sample: F) -> McEstimate
where
    F: Fn(&mut ChaCha8Rng) -> f64 + Sync,
{
    let stat = pool.par_map_reduce(
        trials,
        TRIAL_CHUNK,
        RunningStat::new,
        |acc, trial| {
            let mut rng = ChaCha8Rng::seed_from_u64(mix_seed(seed, trial as u64));
            acc.push(sample(&mut rng));
        },
        |acc, part| acc.merge(&part),
    );
    McEstimate::from_stat(&stat)
}

/// Geometric number of Bernoulli(`1-p`) attempts until the first success.
fn geometric_trials(rng: &mut ChaCha8Rng, p: f64) -> u64 {
    let mut n = 1;
    while rng.random::<f64>() < p {
        n += 1;
    }
    n
}

/// Bernoulli(`1-p`) packet stream: transmissions needed for `k` receipts.
fn sends_until_k(rng: &mut ChaCha8Rng, k: usize, p: f64) -> u64 {
    let mut got = 0usize;
    let mut sent = 0u64;
    while got < k {
        sent += 1;
        if rng.random::<f64>() >= p {
            got += 1;
        }
    }
    sent
}

/// The Eq. (2) per-receiver non-recovery event for one block: own copy
/// lost AND more than `h-1` of the other `n-1` block packets lost.
fn block_unrecovered(rng: &mut ChaCha8Rng, n: usize, h: usize, p: f64) -> bool {
    let own_lost = rng.random::<f64>() < p;
    let others_lost = (0..n - 1).filter(|_| rng.random::<f64>() < p).count();
    own_lost && others_lost > h - 1
}

/// No-FEC `E[M]` for `r` receivers at loss `p`: the max over receivers of
/// a geometric transmission count (cross-checks
/// [`crate::nofec::expected_transmissions`]).
pub fn nofec_mean_m(p: f64, r: usize, trials: usize, seed: u64, pool: &Pool) -> McEstimate {
    estimate(trials, seed, pool, |rng| {
        (0..r).map(|_| geometric_trials(rng, p)).max().unwrap_or(1) as f64
    })
}

/// Probability that a data packet stays unrecovered after one `(k, n)`
/// FEC block at loss `p` (cross-checks
/// [`crate::layered::rm_loss_probability`], Eq. (2)).
pub fn rm_loss_probability(
    k: usize,
    n: usize,
    p: f64,
    trials: usize,
    seed: u64,
    pool: &Pool,
) -> McEstimate {
    let h = n - k;
    estimate(trials, seed, pool, |rng| {
        f64::from(block_unrecovered(rng, n, h, p))
    })
}

/// Layered-FEC `E[M]` for one data packet over `r` receivers: rounds until
/// every receiver recovers, costed at `n/k` per round (cross-checks
/// [`crate::layered::expected_transmissions`], Eq. (3)).
pub fn layered_mean_m(
    k: usize,
    h: usize,
    p: f64,
    r: usize,
    trials: usize,
    seed: u64,
    pool: &Pool,
) -> McEstimate {
    let n = k + h;
    estimate(trials, seed, pool, |rng| {
        // Receivers are exchangeable, so the ones still missing the packet
        // are a count, not a list.
        let mut pending = r;
        let mut rounds_needed = 0u64;
        while pending > 0 {
            rounds_needed += 1;
            pending = (0..pending)
                .filter(|_| block_unrecovered(rng, n, h, p))
                .count();
        }
        rounds_needed as f64 * n as f64 / k as f64
    })
}

/// Idealized integrated-FEC `E[M]` over a (possibly heterogeneous)
/// population: each receiver needs `k` successes from its own
/// Bernoulli stream; the group cost is `(k + a + E[max_r L_r]) / k` with
/// `L_r` the extra demand past the `k + a` proactively sent packets
/// (cross-checks [`crate::integrated::lower_bound`], Eqs. (4)–(8)).
pub fn integrated_lower_bound(
    k: usize,
    a: usize,
    pop: &Population,
    trials: usize,
    seed: u64,
    pool: &Pool,
) -> McEstimate {
    let ps = pop.expand();
    estimate(trials, seed, pool, |rng| {
        let worst = ps
            .iter()
            .map(|&p| sends_until_k(rng, k, p).saturating_sub((k + a) as u64))
            .max()
            .unwrap_or(0);
        (worst as f64 + (k + a) as f64) / k as f64
    })
}

/// Expected transmission rounds `E[T]` for a `k`-packet group over `r`
/// receivers at loss `p`: per slot a geometric round count, maxed over
/// slots and receivers (cross-checks [`crate::rounds::expected_rounds`],
/// Eq. (17)).
pub fn expected_rounds(
    k: usize,
    p: f64,
    r: usize,
    trials: usize,
    seed: u64,
    pool: &Pool,
) -> McEstimate {
    estimate(trials, seed, pool, |rng| {
        (0..r)
            .map(|_| (0..k).map(|_| geometric_trials(rng, p)).max().unwrap_or(1))
            .max()
            .unwrap_or(1) as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrated;
    use crate::layered;
    use crate::nofec;
    use crate::rounds;

    /// The cross-check pool: 2 workers exercises the parallel path even
    /// on single-core CI hosts.
    fn pool() -> Pool {
        Pool::new(2)
    }

    #[test]
    fn mc_nofec_expected_transmissions() {
        let (p, r) = (0.1, 40usize);
        let mc = nofec_mean_m(p, r, 30_000, 1, &pool());
        let analytic = nofec::expected_transmissions(&Population::homogeneous(p, r as u64));
        assert!(
            mc.rel_error(analytic) < 0.02,
            "MC {} vs analytic {analytic}",
            mc.mean
        );
    }

    #[test]
    fn mc_rm_loss_probability_eq2() {
        let (k, h, p) = (7usize, 2usize, 0.05);
        let mc = rm_loss_probability(k, k + h, p, 2_000_000, 2, &pool());
        let analytic = layered::rm_loss_probability(k, k + h, p);
        assert!(
            mc.rel_error(analytic) < 0.05,
            "MC {} vs analytic {analytic}",
            mc.mean
        );
    }

    #[test]
    fn mc_layered_expected_transmissions() {
        let (k, h, p, r) = (7usize, 1usize, 0.05, 20usize);
        let mc = layered_mean_m(k, h, p, r, 20_000, 3, &pool());
        let analytic = layered::expected_transmissions(k, h, &Population::homogeneous(p, r as u64));
        assert!(
            mc.rel_error(analytic) < 0.03,
            "MC {} vs analytic {analytic}",
            mc.mean
        );
    }

    #[test]
    fn mc_integrated_lower_bound() {
        let (k, a, p, r) = (7usize, 0usize, 0.1, 25usize);
        let pop = Population::homogeneous(p, r as u64);
        let mc = integrated_lower_bound(k, a, &pop, 30_000, 4, &pool());
        let analytic = integrated::lower_bound(k, a, &pop);
        assert!(
            mc.rel_error(analytic) < 0.02,
            "MC {} vs analytic {analytic}",
            mc.mean
        );
    }

    #[test]
    fn mc_integrated_lower_bound_with_proactive_parities() {
        let (k, a, p, r) = (5usize, 2usize, 0.2, 10usize);
        let pop = Population::homogeneous(p, r as u64);
        let mc = integrated_lower_bound(k, a, &pop, 30_000, 5, &pool());
        let analytic = integrated::lower_bound(k, a, &pop);
        assert!(
            mc.rel_error(analytic) < 0.02,
            "MC {} vs analytic {analytic}",
            mc.mean
        );
    }

    #[test]
    fn mc_hetero_integrated() {
        let (k, r) = (7usize, 20usize);
        let pop = Population::two_class(r as u64, 0.25, 0.01, 0.25);
        let mc = integrated_lower_bound(k, 0, &pop, 30_000, 6, &pool());
        let analytic = integrated::lower_bound(k, 0, &pop);
        assert!(
            mc.rel_error(analytic) < 0.02,
            "MC {} vs analytic {analytic}",
            mc.mean
        );
    }

    #[test]
    fn mc_rounds_model() {
        let (k, p, r) = (20usize, 0.05, 15usize);
        let mc = expected_rounds(k, p, r, 30_000, 7, &pool());
        let analytic = rounds::expected_rounds(k, &Population::homogeneous(p, r as u64));
        assert!(
            mc.rel_error(analytic) < 0.02,
            "MC {} vs analytic {analytic}",
            mc.mean
        );
    }

    #[test]
    fn estimates_are_bit_identical_across_worker_counts() {
        // The determinism contract inherited from pm-par: same
        // (parameters, trials, seed) ⇒ same bits, any pool.
        let pop = Population::homogeneous(0.1, 12);
        let serial = integrated_lower_bound(7, 1, &pop, 4_000, 9, &Pool::serial());
        for workers in [2, 3, 5] {
            let par = integrated_lower_bound(7, 1, &pop, 4_000, 9, &Pool::new(workers));
            assert_eq!(
                serial.mean.to_bits(),
                par.mean.to_bits(),
                "mean @ {workers} workers"
            );
            assert_eq!(
                serial.stderr.to_bits(),
                par.stderr.to_bits(),
                "stderr @ {workers} workers"
            );
            assert_eq!(serial.trials, par.trials);
        }
    }

    #[test]
    fn mc_finite_integrated_components() {
        // The finite-h expression is assembled from two stochastic
        // quantities; validate each against a direct simulation of its
        // definition. The rejection-sampling loop below draws an *a
        // priori unknown* number of samples per kept trial, so it stays
        // on a single sequential stream rather than the per-trial
        // parallel harness.
        //
        // (a) E[B]: per block, a receiver still missing the packet fails
        //     to recover it iff its own copy is lost AND more than h-1 of
        //     the other n-1 block packets are lost (the q(k,n,p) event);
        //     the packet needs a new block while any receiver remains
        //     pending.
        let (k, h, p, r) = (7usize, 2usize, 0.1, 10usize);
        let n = k + h;
        let trials = 40_000;
        let mut g = ChaCha8Rng::seed_from_u64(8);
        let mut total_blocks = 0u64;
        for _ in 0..trials {
            let mut pending = r;
            let mut blocks = 0u64;
            while pending > 0 {
                blocks += 1;
                let mut still = 0usize;
                for _ in 0..pending {
                    if block_unrecovered(&mut g, n, h, p) {
                        still += 1;
                    }
                }
                pending = still;
            }
            total_blocks += blocks;
        }
        let mc_b = total_blocks as f64 / trials as f64;
        let q = layered::rm_loss_probability(k, n, p);
        let analytic_b = crate::numerics::sum_series(0, 1e-12, 100_000, |i| {
            crate::numerics::one_minus_pow_one_minus(q.powi(i as i32), r as f64)
        });
        assert!(
            (mc_b - analytic_b).abs() / analytic_b < 0.02,
            "E[B]: MC {mc_b} vs analytic {analytic_b}"
        );

        // (b) E[L | L <= h]: rejection-sample the max over receivers of
        //     the negative-binomial extra demand, conditioned on <= h.
        let mut kept = 0u64;
        let mut total_l = 0u64;
        let mut attempts = 0u64;
        while kept < 20_000 && attempts < 10_000_000 {
            attempts += 1;
            let worst = (0..r)
                .map(|_| sends_until_k(&mut g, k, p) - k as u64)
                .max()
                .unwrap();
            if worst <= h as u64 {
                kept += 1;
                total_l += worst;
            }
        }
        assert!(
            kept >= 1000,
            "conditioning event too rare for the test setup"
        );
        let mc_l = total_l as f64 / kept as f64;

        // Recover the analytic conditional mean by inverting the
        // published finite() assembly with the analytic E[B].
        let analytic_total = integrated::finite(k, h, 0, &Population::homogeneous(p, r as u64));
        let analytic_l = analytic_total * k as f64 - (analytic_b - 1.0) * n as f64 - k as f64;
        assert!(
            (mc_l - analytic_l).abs() < 0.05 * (1.0 + analytic_l),
            "E[L|L<=h]: MC {mc_l} vs analytic {analytic_l}"
        );
    }
}
