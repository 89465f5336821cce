//! AVX2 nibble-split kernels: 32 GF(2^8) products per shuffle pair.
//!
//! Each step loads 32 source bytes, splits them into nibbles, and resolves
//! both halves through `_mm256_shuffle_epi8` against the coefficient's
//! broadcast 16-entry lo/hi tables:
//!
//! ```text
//! prod = shuffle(lo_t, s & 0x0f) ^ shuffle(hi_t, (s >> 4) & 0x0f)
//! ```
//!
//! Sub-32-byte tails fall back to the coefficient's 256-entry scalar row, so
//! arbitrary lengths and unaligned buffers work; all loads/stores are
//! unaligned (`loadu`/`storeu`).
//!
//! # Safety
//!
//! The public wrappers call `#[target_feature(enable = "avx2")]` functions,
//! which is sound only on AVX2 hosts. They are reachable solely through the
//! `AVX2_KERNELS` vtable, and `kernels_for` refuses to hand that out unless
//! `is_x86_feature_detected!("avx2")` holds. The kernels index raw pointers
//! at 32-byte granularity; the `Kernels` methods assert the length
//! preconditions (`src.len() == dst.len()`) before the pointers are formed.

#[cfg(target_arch = "x86")]
use core::arch::x86::*;
#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;

use crate::CoeffTables;

pub(crate) fn xor(dst: &mut [u8], src: &[u8]) {
    // SAFETY: only reachable via the AVX2 vtable, selected after runtime
    // feature detection.
    unsafe { xor_avx2(dst, src) }
}

pub(crate) fn mul_add(t: &CoeffTables, src: &[u8], dst: &mut [u8]) {
    // SAFETY: as above — AVX2 was detected before this vtable existed.
    unsafe { mul_add_avx2(t, src, dst) }
}

pub(crate) fn mul_add_multi_rows(sources: &[(CoeffTables, &[u8])], dst: &mut [u8]) {
    // SAFETY: as above.
    unsafe { mul_add_multi_rows_avx2(sources, dst) }
}

/// Broadcast a coefficient's 16-byte lo/hi nibble tables to both 128-bit
/// lanes, matching `_mm256_shuffle_epi8`'s per-lane indexing.
#[inline]
#[target_feature(enable = "avx2")]
fn broadcast_tables(nib: &[u8; 32]) -> (__m256i, __m256i) {
    // SAFETY: `nib` is 32 readable bytes; unaligned loads.
    let (lo, hi) = unsafe {
        (
            _mm_loadu_si128(nib.as_ptr() as *const __m128i),
            _mm_loadu_si128(nib.as_ptr().add(16) as *const __m128i),
        )
    };
    (
        _mm256_broadcastsi128_si256(lo),
        _mm256_broadcastsi128_si256(hi),
    )
}

/// 32 parallel GF(2^8) products of `s` by the tables' coefficient.
#[inline]
#[target_feature(enable = "avx2")]
fn product32(lo_t: __m256i, hi_t: __m256i, s: __m256i) -> __m256i {
    let mask = _mm256_set1_epi8(0x0f);
    let lo = _mm256_and_si256(s, mask);
    // No epi8 shift exists; shift wider lanes and mask the stray bits away.
    let hi = _mm256_and_si256(_mm256_srli_epi64::<4>(s), mask);
    _mm256_xor_si256(_mm256_shuffle_epi8(lo_t, lo), _mm256_shuffle_epi8(hi_t, hi))
}

#[target_feature(enable = "avx2")]
fn xor_avx2(dst: &mut [u8], src: &[u8]) {
    let n = dst.len();
    let mut o = 0;
    while o + 32 <= n {
        // SAFETY: o + 32 <= n and the wrapper asserted src.len() == n.
        unsafe {
            let d = _mm256_loadu_si256(dst.as_ptr().add(o) as *const __m256i);
            let s = _mm256_loadu_si256(src.as_ptr().add(o) as *const __m256i);
            _mm256_storeu_si256(
                dst.as_mut_ptr().add(o) as *mut __m256i,
                _mm256_xor_si256(d, s),
            );
        }
        o += 32;
    }
    pm_gf::slice::xor_slice(&mut dst[o..], &src[o..]);
}

#[target_feature(enable = "avx2")]
fn mul_add_avx2(t: &CoeffTables, src: &[u8], dst: &mut [u8]) {
    let n = dst.len();
    let (lo_t, hi_t) = broadcast_tables(t.nib());
    let mut o = 0;
    while o + 32 <= n {
        // SAFETY: o + 32 <= n and the wrapper asserted src.len() == n.
        unsafe {
            let s = _mm256_loadu_si256(src.as_ptr().add(o) as *const __m256i);
            let d = _mm256_loadu_si256(dst.as_ptr().add(o) as *const __m256i);
            _mm256_storeu_si256(
                dst.as_mut_ptr().add(o) as *mut __m256i,
                _mm256_xor_si256(d, product32(lo_t, hi_t, s)),
            );
        }
        o += 32;
    }
    let row = t.row();
    for (d, s) in dst[o..].iter_mut().zip(&src[o..]) {
        *d ^= row[*s as usize];
    }
}

#[target_feature(enable = "avx2")]
fn mul_add_multi_rows_avx2(sources: &[(CoeffTables, &[u8])], dst: &mut [u8]) {
    let n = dst.len();
    // Mirror the scalar kernel's grouping: up to four sources per
    // destination pass, so each parity vector is loaded and stored once per
    // group instead of once per coefficient.
    for group in sources.chunks(4) {
        let mut lo_t = [_mm256_setzero_si256(); 4];
        let mut hi_t = lo_t;
        for (i, (t, _)) in group.iter().enumerate() {
            let (lo, hi) = broadcast_tables(t.nib());
            lo_t[i] = lo;
            hi_t[i] = hi;
        }
        let mut o = 0;
        while o + 32 <= n {
            // SAFETY: o + 32 <= n and the wrapper asserted every source
            // length equals n.
            unsafe {
                let mut acc = _mm256_loadu_si256(dst.as_ptr().add(o) as *const __m256i);
                for (i, (_, src)) in group.iter().enumerate() {
                    let s = _mm256_loadu_si256(src.as_ptr().add(o) as *const __m256i);
                    acc = _mm256_xor_si256(acc, product32(lo_t[i], hi_t[i], s));
                }
                _mm256_storeu_si256(dst.as_mut_ptr().add(o) as *mut __m256i, acc);
            }
            o += 32;
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
