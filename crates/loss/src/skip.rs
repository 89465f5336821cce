//! Geometric skipping: visit only the successes of a run of independent
//! Bernoulli(`p`) trials, at one RNG draw and one `ln` per success.
//!
//! The number of failures before the next success is geometric,
//! `P(gap >= g) = (1-p)^g`, and inverting that tail gives
//! `gap = floor(ln U / ln(1-p))` for `U` uniform on `(0, 1]` — the half-open
//! end matters: `U = 0` has no logarithm, while `U = 1` is the legitimate
//! "gap 0" outcome. Walking a range of `len` trials this way costs
//! `O(p * len)` instead of `len` draws.

use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Gap sampler for one success probability.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GeoSkip {
    p: f64,
    /// `1 / ln(1-p)`: negative; `-inf` at `p = 0`, `-0.0` at `p = 1`.
    inv_ln_q: f64,
}

impl GeoSkip {
    /// `p` must be a probability (the models' constructors check it).
    pub(crate) fn new(p: f64) -> Self {
        debug_assert!((0.0..=1.0).contains(&p), "p={p} is not a probability");
        GeoSkip {
            p,
            // ln_1p keeps full precision where 1 - p would round (p ~ 1e-12).
            inv_ln_q: 1.0 / (-p).ln_1p(),
        }
    }

    pub(crate) fn p(&self) -> f64 {
        self.p
    }

    /// Call `hit(i)`, ascending, for every `i` in `lo..hi` whose trial
    /// succeeds. Index `lo` succeeds iff the first gap is 0, i.e. iff
    /// `U > 1-p`: probability exactly `p`, as for every later index.
    pub(crate) fn for_each_hit(
        &self,
        rng: &mut ChaCha8Rng,
        lo: u32,
        hi: u32,
        mut hit: impl FnMut(u32),
    ) {
        let mut pos = lo;
        while pos < hi {
            let u = 1.0 - rng.random::<f64>(); // (0, 1]
            let gap = u.ln() * self.inv_ln_q; // >= 0; the cast below floors it
                                              // Compared as f64, before any cast: at p = 1e-12 a gap is ~1e13
                                              // and at p = 0 it is +inf (NaN when u = 1) — all of them "past
                                              // the end". At p = 1 every gap is 0 and every index is hit.
            if gap < f64::from(hi - pos) {
                pos += gap as u32;
                hit(pos);
                pos += 1;
            } else {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn hits(p: f64, lo: u32, hi: u32, seed: u64) -> Vec<u32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut out = Vec::new();
        GeoSkip::new(p).for_each_hit(&mut rng, lo, hi, |i| out.push(i));
        out
    }

    #[test]
    fn degenerate_probabilities() {
        for seed in 0..200 {
            assert!(hits(0.0, 0, 1000, seed).is_empty());
            assert_eq!(hits(1.0, 3, 40, seed), (3..40).collect::<Vec<_>>());
            // A gap of ~1e13 must end the walk, not wrap into the range.
            assert!(hits(1e-12, 0, u32::MAX, seed).len() <= 1);
            // P(any miss among 40) = 4e-11.
            assert_eq!(hits(1.0 - 1e-12, 0, 40, seed).len(), 40);
        }
        assert!(hits(0.5, 7, 7, 1).is_empty(), "empty range draws nothing");
    }

    #[test]
    fn hits_are_ascending_and_in_range() {
        for seed in 0..50 {
            let h = hits(0.3, 10, 500, seed);
            assert!(h.windows(2).all(|w| w[0] < w[1]));
            assert!(h.iter().all(|&i| (10..500).contains(&i)));
        }
    }

    #[test]
    fn single_trial_range_succeeds_with_probability_p() {
        // hi - lo = 1 is every run of a fully heterogeneous population.
        for p in [0.01, 0.5, 0.9] {
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            let skip = GeoSkip::new(p);
            let n = 200_000;
            let mut got = 0u32;
            for _ in 0..n {
                skip.for_each_hit(&mut rng, 5, 6, |_| got += 1);
            }
            let rate = f64::from(got) / f64::from(n);
            let sd = (p * (1.0 - p) / f64::from(n)).sqrt();
            assert!((rate - p).abs() < 5.0 * sd, "p={p} rate={rate}");
        }
    }

    #[test]
    fn gap_histogram_is_geometric() {
        // Gaps between successive hits in one long run: P(g) = (1-p)^g p.
        let p = 0.2;
        let h = hits(p, 0, 2_000_000, 3);
        let mut hist = [0u32; 12];
        let mut n = 0u32;
        for w in h.windows(2) {
            let g = (w[1] - w[0] - 1) as usize;
            n += 1;
            if g < hist.len() {
                hist[g] += 1;
            }
        }
        for (g, &c) in hist.iter().enumerate() {
            let expect = (1.0 - p).powi(g as i32) * p;
            let sd = (expect * (1.0 - expect) / f64::from(n)).sqrt();
            let got = f64::from(c) / f64::from(n);
            assert!(
                (got - expect).abs() < 5.0 * sd,
                "gap {g}: {got} vs {expect}"
            );
        }
    }
}
