//! Every backend's `ln_unit` against libm's `f64::ln` on `(0, 1]`: the
//! worst relative difference must stay within the backend's documented
//! `ln_unit_rel_err` (0 where the entry is `f64::ln`, `LN_UNIT_REL_ERR` for
//! the vector kernel), the bound pm-loss derives its certified-floor
//! margin from.

use pm_simd::{kernels_for, Backend, Kernels, LN_UNIT_REL_ERR};

fn backends() -> impl Iterator<Item = &'static Kernels> {
    [Backend::Scalar, Backend::Avx2, Backend::Gfni, Backend::Neon]
        .into_iter()
        .filter_map(kernels_for)
}

/// splitmix64: a self-contained stream of u64s for the test inputs.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `1 − r·2^-53` for a uniform 53-bit `r`: the `(0, 1]` grid pm-loss
    /// draws from.
    fn unit(&mut self) -> f64 {
        1.0 - (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The worst `|ln'(x) − ln(x)| / |ln(x)|` of `k` over `xs`, and the `x`
/// it occurs at. `ln 1` must be exactly 0.
fn worst(k: &Kernels, xs: &[f64]) -> (f64, f64) {
    let mut out = vec![f64::NAN; xs.len()];
    k.ln_unit(xs, &mut out);
    let mut worst = (0.0, 1.0);
    for (&x, &got) in xs.iter().zip(&out) {
        let want = x.ln();
        if want == 0.0 {
            assert_eq!(got, 0.0, "{:?}: ln({x:e}) = {got:e}", k.backend());
            continue;
        }
        let rel = ((got - want) / want).abs();
        assert!(!rel.is_nan(), "{:?}: ln({x:e}) = {got:e}", k.backend());
        if rel > worst.0 {
            worst = (rel, x);
        }
    }
    worst
}

fn check(k: &Kernels, what: &str, (rel, x): (f64, f64)) {
    eprintln!(
        "{:?} {what}: worst relative difference {rel:e} (2^{:.2}) at x = {x:e}",
        k.backend(),
        rel.log2()
    );
    let bound = k.ln_unit_rel_err();
    assert!(bound <= LN_UNIT_REL_ERR, "{:?}: {bound:e}", k.backend());
    assert!(
        rel <= bound,
        "{:?} {what}: ln({x:e}) is {rel:e} from libm, over {bound:e}",
        k.backend()
    );
}

#[test]
fn uniform_draws_stay_within_the_documented_error() {
    for k in backends() {
        let mut mix = Mix(0x1234_5678);
        let mut xs = vec![0.0; 1 << 16];
        let mut all = (0.0, 1.0);
        for _ in 0..10_000_000 / xs.len() + 1 {
            xs.iter_mut().for_each(|x| *x = mix.unit());
            let w = worst(k, &xs);
            if w.0 > all.0 {
                all = w;
            }
        }
        check(k, "10^7 uniforms", all);
    }
}

#[test]
fn every_exponent_stays_within_the_documented_error() {
    // Per binade 2^e .. 2^(e+1), e = -53 ..= -1, and 1 itself: the ends,
    // both sides of the √2 reduction boundary, the grid's last steps below
    // 1 and random mantissas.
    let mut mix = Mix(99);
    let mut xs = vec![1.0, 1.0 - f64::EPSILON / 2.0, 1.0 - f64::EPSILON];
    for e in -53..0 {
        let lo = 2f64.powi(e);
        let mid = lo * std::f64::consts::SQRT_2;
        let next = |x: f64, by: i64| f64::from_bits((x.to_bits() as i64 + by) as u64);
        xs.extend((-8..=8).map(|d| next(mid, d)));
        xs.extend((0..8).map(|d| next(lo, d)));
        xs.extend((1..=8).map(|d| next(2.0 * lo, -d)));
        xs.extend(
            (0..20_000).map(|_| lo * (1.0 + (mix.next() >> 12) as f64 / (1u64 << 52) as f64)),
        );
    }
    assert!(xs.iter().all(|&x| x > 0.0 && x <= 1.0));
    for k in backends() {
        check(k, "every binade", worst(k, &xs));
    }
}

#[test]
fn any_length_and_offset_is_computed() {
    // The vector kernel masks its last step: every length 0..=9 at every
    // offset, against the scalar entry element by element.
    let scalar = kernels_for(Backend::Scalar).unwrap();
    let xs: Vec<f64> = (1..=16).map(|i| f64::from(i) / 17.0).collect();
    for k in backends() {
        for off in 0..4 {
            for len in 0..=9 {
                let src = &xs[off..off + len];
                let (mut got, mut want) = (vec![7.0; len + 2], vec![7.0; len + 2]);
                k.ln_unit(src, &mut got[1..=len]);
                scalar.ln_unit(src, &mut want[1..=len]);
                assert_eq!(
                    (got[0], got[len + 1]),
                    (7.0, 7.0),
                    "{:?} wrote outside",
                    k.backend()
                );
                for (g, w) in got.iter().zip(&want) {
                    let rel = ((g - w) / w).abs();
                    assert!(rel <= k.ln_unit_rel_err(), "{:?}: {g} vs {w}", k.backend());
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "ln_unit length mismatch")]
fn mismatched_lengths_panic() {
    kernels_for(Backend::Scalar)
        .unwrap()
        .ln_unit(&[0.5; 3], &mut [0.0; 2]);
}
