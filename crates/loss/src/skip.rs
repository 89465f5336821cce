//! Geometric skipping: visit only the successes of a run of independent
//! Bernoulli(`p`) trials, at one RNG draw per success and, almost always,
//! no libm logarithm.
//!
//! The number of failures before the next success is geometric,
//! `P(gap >= g) = (1-p)^g`, and inverting that tail gives
//! `gap = floor(ln U / ln(1-p))` for `U` uniform on `(0, 1]` — the half-open
//! end matters: `U = 0` has no logarithm, while `U = 1` is the legitimate
//! "gap 0" outcome. Walking a range of `len` trials this way costs
//! `O(p * len)` instead of `len` draws.
//!
//! # Batched, certified logarithms
//!
//! A model keeps its uniforms in one [`Draws`] buffer: `BATCH` values of
//! `U = 1 - rng.random::<f64>()` at a time, with their logarithms from one
//! [`pm_simd::Kernels::ln_unit`] call (four lanes per instruction on
//! AVX-512 hosts). The model's RNG serves only gap draws, so drawing ahead
//! changes no draw's order: the `i`-th gap still reads the `i`-th `U`.
//!
//! The kernel's logarithm `L'` is within `E = ln_unit_rel_err()` of
//! libm's `L = U.ln()`, relative: `2^-51` for the vector kernel, 0 where
//! the backend's `ln_unit` is `f64::ln` itself (then `L' = L` bit for bit
//! and there is nothing to certify). The gap libm gives is
//! `ĝ = L · inv_ln_q`, and all a walk reads of it is its floor and its
//! order against the integer distance to the end of the range. So the
//! kernel's `g = L' · inv_ln_q` stands in for `ĝ` only when no integer
//! lies in `g ± g·M`, `M = 2^11 · E = 2^-40`: `ĝ` is within
//! `(E + 2^-52)·g` of `g` (the two products' roundings included), far
//! inside that interval, so it lies between the same two integers as `g`.
//! Any other gap — one whose `ĝ` lies within `2^-40` of an integer,
//! relative: about `2^-39 / p` of random draws, 2·10⁻¹⁰ at `p = 0.01`,
//! and all of them once gaps near `2^40` are typical — is recomputed as
//! `U.ln() * inv_ln_q` and used exactly as before, and so is every gap at
//! `p ∈ {0, 1}`, where `inv_ln_q` is infinite or zero. The rule rests on
//! libm's `log` being within 1 ulp, as glibc documents; `pm-simd`'s tests
//! measure the kernel against this host's libm. Every hit list is
//! therefore the one the draw-then-`ln` walk produces, bit for bit, on
//! every backend.

use pm_simd::Kernels;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Uniforms drawn (and logarithms taken) per refill of a [`Draws`].
const BATCH: usize = 32;

/// Half-width of the certified interval around a kernel gap, relative,
/// per unit of the kernel's documented error.
const MARGIN_PER_ERR: f64 = 2048.0;

/// `2^52`: below it, `(g + ROUND) - ROUND` rounds `g >= 0` to the
/// nearest integer.
const ROUND: f64 = 4_503_599_627_370_496.0;

/// A model's gap draws: its RNG, and the next uniforms `U ∈ (0, 1]` with
/// their logarithms, `BATCH` per refill. Empty after [`Draws::new`] and
/// [`Draws::reseed`], so a re-seeded model draws what a fresh one does.
#[derive(Debug, Clone)]
pub(crate) struct Draws {
    rng: ChaCha8Rng,
    kernels: &'static Kernels,
    /// `MARGIN_PER_ERR ×` the kernel's documented error: `2^-40` for the
    /// vector kernel, 0 where its `ln` is libm's.
    margin: f64,
    /// Index of the next unused entry; `BATCH` when empty.
    next: usize,
    u: [f64; BATCH],
    ln: [f64; BATCH],
}

impl Draws {
    /// Seeded as `ChaCha8Rng::seed_from_u64(seed)`, with the process's
    /// dispatched kernels (`PM_SIMD`).
    ///
    /// # Panics
    /// Panics if `PM_SIMD` names an unknown backend or one this host
    /// cannot run.
    pub(crate) fn new(seed: u64) -> Self {
        let kernels = pm_simd::kernels();
        Draws {
            rng: ChaCha8Rng::seed_from_u64(seed),
            kernels,
            margin: MARGIN_PER_ERR * kernels.ln_unit_rel_err(),
            next: BATCH,
            u: [1.0; BATCH],
            ln: [0.0; BATCH],
        }
    }

    /// Restart the stream at `seed`, dropping the buffered draws.
    pub(crate) fn reseed(&mut self, seed: u64) {
        self.rng = ChaCha8Rng::seed_from_u64(seed);
        self.next = BATCH;
    }

    /// The same stream through another backend's `ln_unit`.
    #[cfg(test)]
    pub(crate) fn set_kernels(&mut self, kernels: &'static Kernels) {
        self.kernels = kernels;
        self.margin = MARGIN_PER_ERR * kernels.ln_unit_rel_err();
    }

    /// Draw the next `BATCH` uniforms and take their logarithms.
    #[inline(never)]
    fn refill(&mut self) {
        for u in &mut self.u {
            *u = 1.0 - self.rng.random::<f64>(); // (0, 1]
        }
        self.kernels.ln_unit(&self.u, &mut self.ln);
    }
}

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

    /// The kernel's gap `ln * inv_ln_q`, when no integer lies within
    /// `margin` of it, relative: then libm's gap has the same floor, and
    /// the same order against every integer (module doc). With a margin
    /// of 0 the kernel's `ln` is libm's, and so is the gap.
    #[inline]
    fn certified(&self, ln: f64, margin: f64) -> Option<f64> {
        let g = ln * self.inv_ln_q;
        if margin == 0.0 {
            return Some(g);
        }
        // Below 2^52, `nearest` is g's nearest integer and g − nearest is
        // exact (Sterbenz), so `clear` says that no integer lies within
        // the margin. It is false for every other g: at and above 2^52
        // (an integer, or within 1 of the rounded one), for infinite and
        // NaN g (p = 0, or a subnormal p), and for g = 0 (every gap at
        // p = 1), so those gaps all take libm's path.
        let nearest = (g + ROUND) - ROUND;
        let clear = (g - nearest).abs() > g * margin;
        clear.then_some(g)
    }

    /// The gap after a draw `u` whose logarithm the kernel gave as `ln`:
    /// the certified kernel gap, or else libm's `u.ln() * inv_ln_q`. Its
    /// floor, and its order against every integer, are libm's gap's.
    #[inline]
    fn gap(&self, u: f64, ln: f64, margin: f64) -> f64 {
        self.certified(ln, margin)
            .unwrap_or_else(|| u.ln() * self.inv_ln_q)
    }

    /// Call `hit(i)`, ascending, for every `i` in `lo..hi` whose trial
    /// succeeds, drawing the gaps from `draws`. Index `lo` succeeds iff the
    /// first gap is 0, i.e. iff `U > 1-p`: probability exactly `p`, as for
    /// every later index.
    pub(crate) fn for_each_hit(
        &self,
        draws: &mut Draws,
        lo: u32,
        hi: u32,
        mut hit: impl FnMut(u32),
    ) {
        // The buffer position lives in a register for the walk.
        let (mut pos, mut next) = (lo, draws.next);
        while pos < hi {
            if next >= BATCH {
                draws.refill();
                next = 0;
            }
            // >= 0; the cast below floors it
            let gap = self.gap(draws.u[next], draws.ln[next], draws.margin);
            next += 1;
            // Compared as f64, before any cast: at p = 1e-12 a gap is ~1e13
            // and at p = 0 it is +inf (NaN when u = 1) — all of them "past
            // the end". At p = 1 every gap is 0 and every index is hit.
            if gap < f64::from(hi - pos) {
                pos += gap as u32;
                hit(pos);
                pos += 1;
            } else {
                break;
            }
        }
        draws.next = next;
    }
}

/// The draw-one-then-`ln` walk and what the equivalence tests share: every
/// model's hit lists must equal this walk's over the same seed.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// The loss probabilities the equivalence tests run at.
    pub(crate) const PS: [f64; 10] = [
        0.0,
        1e-12,
        1e-9,
        1e-4,
        0.01,
        0.3,
        0.5,
        0.9,
        1.0 - 1e-12,
        1.0,
    ];

    /// Transmissions per (model, p, backend).
    pub(crate) const CALLS: usize = 100_000;

    /// Every `ln_unit` backend this host runs.
    pub(crate) fn backends() -> impl Iterator<Item = &'static Kernels> {
        use pm_simd::Backend;
        [Backend::Scalar, Backend::Avx2, Backend::Gfni, Backend::Neon]
            .into_iter()
            .filter_map(pm_simd::kernels_for)
    }

    /// [`GeoSkip::for_each_hit`] without the buffer: one draw, then libm's
    /// `ln`, per gap.
    pub(crate) fn for_each_hit(
        skip: &GeoSkip,
        rng: &mut ChaCha8Rng,
        lo: u32,
        hi: u32,
        mut hit: impl FnMut(u32),
    ) {
        let mut pos = lo;
        while pos < hi {
            let u = 1.0 - rng.random::<f64>();
            let gap = u.ln() * skip.inv_ln_q;
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

    fn hits(p: f64, lo: u32, hi: u32, seed: u64) -> Vec<u32> {
        let mut draws = Draws::new(seed);
        let mut out = Vec::new();
        GeoSkip::new(p).for_each_hit(&mut draws, lo, hi, |i| out.push(i));
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
            let mut draws = Draws::new(11);
            let skip = GeoSkip::new(p);
            let n = 200_000;
            let mut got = 0u32;
            for _ in 0..n {
                skip.for_each_hit(&mut draws, 5, 6, |_| got += 1);
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

    #[test]
    fn walks_equal_the_oracle_across_refills_and_ranges() {
        // One stream over ranges of every kind in turn, so refills fall
        // at every position of a walk.
        for kernels in oracle::backends() {
            for (i, p) in oracle::PS.into_iter().enumerate() {
                let skip = GeoSkip::new(p);
                let mut draws = Draws::new(i as u64);
                draws.set_kernels(kernels);
                let mut rng = ChaCha8Rng::seed_from_u64(i as u64);
                let (mut got, mut want) = (Vec::new(), Vec::new());
                for call in 0..20_000u32 {
                    let (lo, hi) = (call % 7, call % 7 + [0, 1, 2, 40, 300][call as usize % 5]);
                    got.clear();
                    want.clear();
                    skip.for_each_hit(&mut draws, lo, hi, |h| got.push(h));
                    oracle::for_each_hit(&skip, &mut rng, lo, hi, |h| want.push(h));
                    assert_eq!(got, want, "{:?} p={p} call {call}", kernels.backend());
                }
            }
        }
    }

    #[test]
    fn certified_floors_agree_with_libm_at_every_gap_transition() {
        // The grid the models draw from is u = 1 - j·2^-53, j < 2^53. For
        // every gap k in 1..=4096 that some u reaches, bisect to the first
        // j whose libm gap floors to k, then run the buffered decision on
        // the 129 draws around it with each backend's logarithms. Near a
        // transition the certified interval straddles the integer, so the
        // libm fallback must run there, and agree.
        const J_MAX: u64 = (1 << 53) - 1;
        let u_of = |j: u64| 1.0 - j as f64 / (1u64 << 53) as f64;
        for kernels in oracle::backends() {
            let margin = MARGIN_PER_ERR * kernels.ln_unit_rel_err();
            for p in [1e-4, 0.01, 0.3] {
                let skip = GeoSkip::new(p);
                let libm_gap = |j: u64| u_of(j).ln() * skip.inv_ln_q;
                let (mut checked, mut fallbacks, mut transitions) = (0, 0, 0);
                for k in 1..=4096u32 {
                    if libm_gap(J_MAX) < f64::from(k) {
                        break;
                    }
                    let (mut below, mut at) = (0, J_MAX);
                    while at - below > 1 {
                        let mid = below + (at - below) / 2;
                        if libm_gap(mid) >= f64::from(k) {
                            at = mid;
                        } else {
                            below = mid;
                        }
                    }
                    transitions += 1;
                    let us: Vec<f64> = (at.saturating_sub(64)..=(at + 64).min(J_MAX))
                        .map(u_of)
                        .collect();
                    let mut lns = vec![0.0; us.len()];
                    kernels.ln_unit(&us, &mut lns);
                    for (&u, &ln) in us.iter().zip(&lns) {
                        let (got, exact) = (skip.gap(u, ln, margin), u.ln() * skip.inv_ln_q);
                        let what = format!("{:?} p={p} k={k} u={u:e}", kernels.backend());
                        assert_eq!(got as u32, exact as u32, "{what}");
                        for n in [k - 1, k, k + 1] {
                            let n = f64::from(n);
                            assert_eq!(got < n, exact < n, "{what} n={n}");
                        }
                        checked += 1;
                        fallbacks += usize::from(skip.certified(ln, margin).is_none());
                    }
                }
                let backend = kernels.backend();
                eprintln!(
                    "{backend:?} p={p}: {transitions} transitions, {checked} draws, {fallbacks} fell back to libm"
                );
                assert!(transitions >= 100, "{backend:?} p={p}: {transitions}");
                // A backend whose `ln` is libm's certifies every gap.
                assert_eq!(
                    fallbacks > 0,
                    margin > 0.0,
                    "{backend:?} p={p}: {fallbacks}"
                );
            }
        }
    }

    #[test]
    fn degenerate_probabilities_never_certify() {
        // An inexact kernel's gaps at p ∈ {0, 1} (and at a subnormal p,
        // where 1 / ln(1 - p) is infinite too) all take libm's path.
        let margin = MARGIN_PER_ERR * pm_simd::LN_UNIT_REL_ERR;
        for p in [0.0, 1.0, 1e-320] {
            let skip = GeoSkip::new(p);
            for ln in [0.0, -1e-16, -0.5, -36.7] {
                assert_eq!(skip.certified(ln, margin), None, "p={p} ln={ln}");
            }
        }
    }
}
