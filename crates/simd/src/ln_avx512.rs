//! The natural logarithm of `x ∈ (0, 1]`, four lanes at a time in 256-bit
//! AVX-512F/VL registers: the GFNI backend's `ln_unit`.
//!
//! Each lane is reduced to `x = 2^k · m` with `m ∈ [√½, √2)`: `getexp`
//! gives `⌊log2 x⌋`, `scalef` scales `x` by the negated exponent into
//! `[1, 2)`, and a mantissa at or above `√2` is halved (a masked multiply)
//! and its exponent raised by one. Every step is exact. `ln m` is then the table-free fdlibm polynomial in
//! `s = f / (2 + f)`, `f = m − 1`, in the branch-free form of FreeBSD's and
//! musl's `log` (error below 1 ulp), and `k · ln 2` is added in two parts
//! (`ln2_hi` has trailing zero bits, so `k · ln2_hi` is exact). Every
//! operation is a plain IEEE multiply, add or divide in the order of the C
//! source — no fused multiply-add — so the lanes compute what fdlibm's
//! scalar code computes.
//!
//! 256-bit lanes, not 512: the kernel runs a few dozen lanes per call
//! between scalar work, where a 512-bit variant measured a higher set-up
//! time on AVX-512 hosts (plausibly the frequency licence it takes).
//!
//! # Safety
//!
//! The entry calls a `#[target_feature(enable = "avx512f,avx512vl")]`
//! function, which is sound only on hosts with both features. It is
//! reachable solely through the `GFNI_KERNELS` vtable, and `kernels_for`
//! hands that out only after runtime detection found `avx512f` and
//! `avx512vl` (with `gfni` and `avx512bw`). Every load and store is masked
//! to the lanes below the buffer's length, and `Kernels::ln_unit` asserts
//! that input and output have one length before the pointers are formed.

use core::arch::x86_64::*;

const SQRT_2: f64 = std::f64::consts::SQRT_2;
// fdlibm's constants, as their bit patterns.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
const LG1: f64 = f64::from_bits(0x3fe5_5555_5555_5593);
const LG2: f64 = f64::from_bits(0x3fd9_9999_9997_fa04);
const LG3: f64 = f64::from_bits(0x3fd2_4924_9422_9359);
const LG4: f64 = f64::from_bits(0x3fcc_71c5_1d8e_78af);
const LG5: f64 = f64::from_bits(0x3fc7_4664_96cb_03de);
const LG6: f64 = f64::from_bits(0x3fc3_9a09_d078_c69f);
const LG7: f64 = f64::from_bits(0x3fc2_f112_df3e_5244);

pub(crate) fn ln_unit(xs: &[f64], out: &mut [f64]) {
    // SAFETY: only reachable via the GFNI vtable, selected after runtime
    // detection of avx512f and avx512vl.
    unsafe { ln_unit_avx512(xs, out) }
}

#[target_feature(enable = "avx512f,avx512vl")]
fn ln_unit_avx512(xs: &[f64], out: &mut [f64]) {
    let n = xs.len();
    let mut o = 0;
    while o < n {
        // Lanes o..n of this step; a missing lane reads 1.0, whose
        // logarithm is 0, and is never stored.
        let mask: __mmask8 = if n - o >= 4 { 0xf } else { (1 << (n - o)) - 1 };
        // SAFETY: o < n = xs.len() = out.len() (asserted by the caller),
        // and the mask limits both accesses to lanes o..n.
        unsafe {
            let x = _mm256_mask_loadu_pd(_mm256_set1_pd(1.0), mask, xs.as_ptr().add(o));
            _mm256_mask_storeu_pd(out.as_mut_ptr().add(o), mask, ln4(x));
        }
        o += 4;
    }
}

/// `ln x` in each of four lanes, for positive finite `x`.
#[inline]
#[target_feature(enable = "avx512f,avx512vl")]
fn ln4(x: __m256d) -> __m256d {
    let one = _mm256_set1_pd(1.0);
    // x = 2^e · m1 with m1 ∈ [1, 2); where m1 >= √2, x = 2^(e+1) · m1/2.
    let e = _mm256_getexp_pd(x);
    let m1 = _mm256_scalef_pd(x, _mm256_sub_pd(_mm256_setzero_pd(), e));
    let high = _mm256_cmp_pd_mask::<_CMP_GE_OQ>(m1, _mm256_set1_pd(SQRT_2));
    let k = _mm256_mask_add_pd(e, high, e, one);
    let m = _mm256_mask_mul_pd(m1, high, m1, _mm256_set1_pd(0.5));

    let f = _mm256_sub_pd(m, one);
    let hfsq = _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(0.5), f), f);
    let s = _mm256_div_pd(f, _mm256_add_pd(_mm256_set1_pd(2.0), f));
    let z = _mm256_mul_pd(s, s);
    let w = _mm256_mul_pd(z, z);
    // t1 = w·(Lg2 + w·(Lg4 + w·Lg6)), t2 = z·(Lg1 + w·(Lg3 + w·(Lg5 + w·Lg7)))
    let t1 = _mm256_mul_pd(w, horner(w, horner(w, _mm256_set1_pd(LG6), LG4), LG2));
    let t2 = horner(w, horner(w, horner(w, _mm256_set1_pd(LG7), LG5), LG3), LG1);
    let t2 = _mm256_mul_pd(z, t2);
    let r = _mm256_add_pd(t2, t1);
    // s·(hfsq + R) + k·ln2_lo − hfsq + f + k·ln2_hi, left to right.
    let acc = _mm256_mul_pd(s, _mm256_add_pd(hfsq, r));
    let acc = _mm256_add_pd(acc, _mm256_mul_pd(k, _mm256_set1_pd(LN2_LO)));
    let acc = _mm256_sub_pd(acc, hfsq);
    let acc = _mm256_add_pd(acc, f);
    _mm256_add_pd(acc, _mm256_mul_pd(k, _mm256_set1_pd(LN2_HI)))
}

/// `coeff + w·acc`: one Horner step, unfused.
#[inline]
#[target_feature(enable = "avx512f,avx512vl")]
fn horner(w: __m256d, acc: __m256d, coeff: f64) -> __m256d {
    _mm256_add_pd(_mm256_set1_pd(coeff), _mm256_mul_pd(w, acc))
}
