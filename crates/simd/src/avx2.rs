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
//! The matrix kernel works in tiles: two outputs by two sources (or one
//! output by four, the rest narrower) with all their tables in registers, so each loaded,
//! split source serves two outputs and each output is read and written once
//! per two sources. Sub-32-byte tails fall back to the coefficients'
//! 256-entry scalar rows, so arbitrary lengths and unaligned buffers work;
//! all loads/stores are unaligned (`loadu`/`storeu`).
//!
//! # Safety
//!
//! The public wrappers call `#[target_feature(enable = "avx2")]` functions,
//! which is sound only on AVX2 hosts. They are reachable solely through the
//! `AVX2_KERNELS` vtable, and `kernels_for` refuses to hand that out unless
//! `is_x86_feature_detected!("avx2")` holds. The kernels index raw pointers
//! at 32-byte granularity; the `Kernels` methods assert the length
//! preconditions (every source and output of one call has one length)
//! before the pointers are formed.

#[cfg(target_arch = "x86")]
use core::arch::x86::*;
#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;

use pm_gf::gf256::Gf256;
use pm_gf::mul_table::MulTable;
use pm_gf::slice;

use crate::{tables, CoeffTables};

pub(crate) fn xor(dst: &mut [u8], src: &[u8]) {
    // SAFETY: only reachable via the AVX2 vtable, selected after runtime
    // feature detection.
    unsafe { xor_avx2(dst, src) }
}

pub(crate) fn mul_add(c: Gf256, src: &[u8], dst: &mut [u8]) {
    // SAFETY: as above — AVX2 was detected before this vtable existed.
    unsafe { mul_add_avx2(&CoeffTables::new(c), src, dst) }
}

pub(crate) fn mul_add_multi_rows(coeffs: &[Gf256], sources: &[&[u8]], outs: &mut [&mut [u8]]) {
    // SAFETY: as above.
    unsafe { mul_add_multi_rows_avx2(coeffs, sources, outs) }
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

/// The low and high nibbles of every byte of `s`, each in the low half of
/// its byte: the shuffle indices of a nibble-split product.
#[inline]
#[target_feature(enable = "avx2")]
fn split(s: __m256i) -> (__m256i, __m256i) {
    let mask = _mm256_set1_epi8(0x0f);
    // No epi8 shift exists; shift wider lanes and mask the stray bits away.
    (
        _mm256_and_si256(s, mask),
        _mm256_and_si256(_mm256_srli_epi64::<4>(s), mask),
    )
}

/// 32 parallel GF(2^8) products of the split bytes `(lo, hi)` by the
/// tables' coefficient.
#[inline]
#[target_feature(enable = "avx2")]
fn product32(tables: (__m256i, __m256i), (lo, hi): (__m256i, __m256i)) -> __m256i {
    _mm256_xor_si256(
        _mm256_shuffle_epi8(tables.0, lo),
        _mm256_shuffle_epi8(tables.1, hi),
    )
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
    let tables = broadcast_tables(t.nib());
    let mut o = 0;
    while o + 32 <= n {
        // SAFETY: o + 32 <= n and the wrapper asserted src.len() == n.
        unsafe {
            let s = _mm256_loadu_si256(src.as_ptr().add(o) as *const __m256i);
            let d = _mm256_loadu_si256(dst.as_ptr().add(o) as *const __m256i);
            _mm256_storeu_si256(
                dst.as_mut_ptr().add(o) as *mut __m256i,
                _mm256_xor_si256(d, product32(tables, split(s))),
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
fn mul_add_multi_rows_avx2(coeffs: &[Gf256], sources: &[&[u8]], outs: &mut [&mut [u8]]) {
    let nib = tables::nib_table();
    for (rows, outs) in coeffs.chunks(2 * sources.len()).zip(outs.chunks_mut(2)) {
        match outs {
            [_] => tiles_avx2::<1, 4>(nib, rows, sources, outs),
            _ => tiles_avx2::<2, 2>(nib, rows, sources, outs),
        }
    }
    tail(coeffs, sources, outs);
}

/// The bytes past the last whole 32-byte step, through the multiplication
/// rows: at most 31 per output.
fn tail(coeffs: &[Gf256], sources: &[&[u8]], outs: &mut [&mut [u8]]) {
    let n = outs.first().map_or(0, |out| out.len());
    if n.is_multiple_of(32) {
        return;
    }
    let (table, o) = (MulTable::shared(), n / 32 * 32);
    for (row, out) in coeffs.chunks(sources.len()).zip(outs.iter_mut()) {
        for (&c, src) in row.iter().zip(sources) {
            slice::mul_add_row(table.row(c), &src[o..], &mut out[o..]);
        }
    }
}

/// The `R` outputs over all sources, `G` sources per tile and one
/// narrower tile for the sources left over.
#[inline]
#[target_feature(enable = "avx2")]
fn tiles_avx2<const R: usize, const G: usize>(
    nib: &[[u8; 32]; 256],
    rows: &[Gf256],
    sources: &[&[u8]],
    outs: &mut [&mut [u8]],
) {
    let k = sources.len();
    let mut s0 = 0;
    while s0 + G <= k {
        tile_avx2::<R, G>(nib, rows, sources, s0, outs);
        s0 += G;
    }
    match k - s0 {
        0 => {}
        1 => tile_avx2::<R, 1>(nib, rows, sources, s0, outs),
        2 => tile_avx2::<R, 2>(nib, rows, sources, s0, outs),
        _ => tile_avx2::<R, 3>(nib, rows, sources, s0, outs),
    }
}

/// `R` outputs times the `G` sources from `s0`, the `2·R·G` tables held in
/// registers for the whole packet: per 32-byte step, each source is loaded
/// and split once for the `R` outputs, and each output is read and written
/// once for the `G` sources. `R·G <= 4` fits AVX2's sixteen registers.
#[inline]
#[target_feature(enable = "avx2")]
fn tile_avx2<const R: usize, const G: usize>(
    nib: &[[u8; 32]; 256],
    rows: &[Gf256],
    sources: &[&[u8]],
    s0: usize,
    outs: &mut [&mut [u8]],
) {
    let (k, n) = (sources.len(), outs[0].len());
    let mut lo_t = [[_mm256_setzero_si256(); G]; R];
    let mut hi_t = lo_t;
    for r in 0..R {
        for g in 0..G {
            let c = rows[r * k + s0 + g];
            (lo_t[r][g], hi_t[r][g]) = broadcast_tables(&nib[c.0 as usize]);
        }
    }
    let srcs = &sources[s0..s0 + G];
    let mut o = 0;
    while o + 32 <= n {
        // SAFETY: o + 32 <= n, and the wrapper asserted that every source
        // and output has length n.
        unsafe {
            let mut x = [(_mm256_setzero_si256(), _mm256_setzero_si256()); G];
            for g in 0..G {
                x[g] = split(_mm256_loadu_si256(srcs[g].as_ptr().add(o) as *const __m256i));
            }
            for r in 0..R {
                let mut acc = _mm256_loadu_si256(outs[r].as_ptr().add(o) as *const __m256i);
                for g in 0..G {
                    acc = _mm256_xor_si256(acc, product32((lo_t[r][g], hi_t[r][g]), x[g]));
                }
                _mm256_storeu_si256(outs[r].as_mut_ptr().add(o) as *mut __m256i, acc);
            }
        }
        o += 32;
    }
}
