//! NEON nibble-split kernels (aarch64): 16 GF(2^8) products per table pair.
//!
//! Mirrors the AVX2 module at 16-byte granularity, with `vqtbl1q_u8` doing
//! the nibble lookups (its index type is a full byte, so no broadcast step
//! is needed — each 16-entry table loads straight into one register).
//! The bytes past the last whole 16-byte step go to the scalar kernel.
//!
//! # Safety
//!
//! NEON is part of the aarch64 baseline ISA, so `Backend::Neon` is always
//! available on this architecture and the `#[target_feature]` call in the
//! kernel entry is sound. The kernel indexes raw pointers at 16-byte
//! granularity; the `Kernels` methods assert the length preconditions
//! before the pointers are formed. The matrix entry runs the four-source
//! kernel once per output row (there is no multi-output NEON kernel).

#![allow(
    unused_unsafe,
    reason = "NEON intrinsics are safe under target_feature on newer toolchains only"
)]

use core::arch::aarch64::*;

use pm_gf::gf256::Gf256;

use crate::tables;

/// The matrix form, one output row at a time through the four-source
/// kernel below; the bytes past the last whole 16-byte step go to the
/// scalar kernel.
pub(crate) fn mul_add_multi_rows(coeffs: &[Gf256], sources: &[&[u8]], outs: &mut [&mut [u8]]) {
    for (row, out) in coeffs.chunks(sources.len()).zip(outs.iter_mut()) {
        for (cs, srcs) in row.chunks(4).zip(sources.chunks(4)) {
            // SAFETY: aarch64-only module; NEON is baseline there.
            unsafe { mul_add_multi_rows_neon(cs, srcs, out) }
        }
    }
    let n = outs.first().map_or(0, |out| out.len());
    crate::vector_tail(n / 16 * 16, coeffs, sources, outs);
}

#[inline]
#[target_feature(enable = "neon")]
fn load_tables(nib: &[u8; 32]) -> (uint8x16_t, uint8x16_t) {
    // SAFETY: `nib` is 32 readable bytes.
    unsafe { (vld1q_u8(nib.as_ptr()), vld1q_u8(nib.as_ptr().add(16))) }
}

/// 16 parallel GF(2^8) products of `s` by the tables' coefficient.
#[inline]
#[target_feature(enable = "neon")]
fn product16(lo_t: uint8x16_t, hi_t: uint8x16_t, s: uint8x16_t) -> uint8x16_t {
    // SAFETY: register-only NEON ops; callers are #[target_feature(neon)].
    unsafe {
        let lo = vandq_u8(s, vdupq_n_u8(0x0f));
        let hi = vshrq_n_u8::<4>(s);
        veorq_u8(vqtbl1q_u8(lo_t, lo), vqtbl1q_u8(hi_t, hi))
    }
}

/// `dst ^= Σ cs[i]·srcs[i]` over the whole 16-byte steps, for up to four
/// sources with their tables in registers.
#[target_feature(enable = "neon")]
fn mul_add_multi_rows_neon(cs: &[Gf256], srcs: &[&[u8]], dst: &mut [u8]) {
    let n = dst.len();
    // SAFETY: vdupq_n_u8 is a register splat with no memory access.
    let mut lo_t = unsafe { [vdupq_n_u8(0); 4] };
    let mut hi_t = lo_t;
    for (i, &c) in cs.iter().enumerate() {
        (lo_t[i], hi_t[i]) = load_tables(tables::nib_tables(c));
    }
    let mut o = 0;
    while o + 16 <= n {
        // SAFETY: o + 16 <= n and the wrapper asserted every source
        // length equals n.
        unsafe {
            let mut acc = vld1q_u8(dst.as_ptr().add(o));
            for (i, src) in srcs.iter().enumerate() {
                let s = vld1q_u8(src.as_ptr().add(o));
                acc = veorq_u8(acc, product16(lo_t[i], hi_t[i], s));
            }
            vst1q_u8(dst.as_mut_ptr().add(o), acc);
        }
        o += 16;
    }
}
