//! NEON nibble-split kernels (aarch64): 16 GF(2^8) products per table pair.
//!
//! Mirrors the AVX2 module at 16-byte granularity, with `vqtbl1q_u8` doing
//! the nibble lookups (its index type is a full byte, so no broadcast step
//! is needed — each 16-entry table loads straight into one register).
//! Sub-16-byte tails fall back to the coefficient's 256-entry scalar row.
//!
//! # Safety
//!
//! NEON is part of the aarch64 baseline ISA, so `Backend::Neon` is always
//! available on this architecture and the `#[target_feature]` calls in the
//! wrappers are sound. The kernels index raw pointers at 16-byte
//! granularity; the `Kernels` methods assert the length preconditions
//! before the pointers are formed.

#![allow(
    unused_unsafe,
    reason = "NEON intrinsics are safe under target_feature on newer toolchains only"
)]

use core::arch::aarch64::*;

use crate::CoeffTables;

pub(crate) fn xor(dst: &mut [u8], src: &[u8]) {
    // SAFETY: aarch64-only module; NEON is baseline there.
    unsafe { xor_neon(dst, src) }
}

pub(crate) fn mul_add(t: &CoeffTables, src: &[u8], dst: &mut [u8]) {
    // SAFETY: as above.
    unsafe { mul_add_neon(t, src, dst) }
}

pub(crate) fn mul_add_multi_rows(sources: &[(CoeffTables, &[u8])], dst: &mut [u8]) {
    // SAFETY: as above.
    unsafe { mul_add_multi_rows_neon(sources, dst) }
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

#[target_feature(enable = "neon")]
fn xor_neon(dst: &mut [u8], src: &[u8]) {
    let n = dst.len();
    let mut o = 0;
    while o + 16 <= n {
        // SAFETY: o + 16 <= n and the wrapper asserted src.len() == n.
        unsafe {
            let d = vld1q_u8(dst.as_ptr().add(o));
            let s = vld1q_u8(src.as_ptr().add(o));
            vst1q_u8(dst.as_mut_ptr().add(o), veorq_u8(d, s));
        }
        o += 16;
    }
    pm_gf::slice::xor_slice(&mut dst[o..], &src[o..]);
}

#[target_feature(enable = "neon")]
fn mul_add_neon(t: &CoeffTables, src: &[u8], dst: &mut [u8]) {
    let n = dst.len();
    let (lo_t, hi_t) = load_tables(t.nib());
    let mut o = 0;
    while o + 16 <= n {
        // SAFETY: o + 16 <= n and the wrapper asserted src.len() == n.
        unsafe {
            let s = vld1q_u8(src.as_ptr().add(o));
            let d = vld1q_u8(dst.as_ptr().add(o));
            vst1q_u8(
                dst.as_mut_ptr().add(o),
                veorq_u8(d, product16(lo_t, hi_t, s)),
            );
        }
        o += 16;
    }
    let row = t.row();
    for (d, s) in dst[o..].iter_mut().zip(&src[o..]) {
        *d ^= row[*s as usize];
    }
}

#[target_feature(enable = "neon")]
fn mul_add_multi_rows_neon(sources: &[(CoeffTables, &[u8])], dst: &mut [u8]) {
    let n = dst.len();
    for group in sources.chunks(4) {
        // SAFETY: vdupq_n_u8 is a register splat with no memory access.
        let mut lo_t = unsafe { [vdupq_n_u8(0); 4] };
        let mut hi_t = lo_t;
        for (i, (t, _)) in group.iter().enumerate() {
            let (lo, hi) = load_tables(t.nib());
            lo_t[i] = lo;
            hi_t[i] = hi;
        }
        let mut o = 0;
        while o + 16 <= n {
            // SAFETY: o + 16 <= n and the wrapper asserted every source
            // length equals n.
            unsafe {
                let mut acc = vld1q_u8(dst.as_ptr().add(o));
                for (i, (_, src)) in group.iter().enumerate() {
                    let s = vld1q_u8(src.as_ptr().add(o));
                    acc = veorq_u8(acc, product16(lo_t[i], hi_t[i], s));
                }
                vst1q_u8(dst.as_mut_ptr().add(o), acc);
            }
            o += 16;
        }
        for (i, d) in dst[o..].iter_mut().enumerate() {
            let mut b = *d;
            for (t, src) in group {
                b ^= t.row()[src[o + i] as usize];
            }
            *d = b;
        }
    }
}
