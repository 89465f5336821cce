//! GFNI affine kernels (x86_64 with AVX-512): 64 GF(2^8) products per
//! instruction.
//!
//! Multiplying by a constant `c` is linear over GF(2), so it is an 8×8 bit
//! matrix: column `j` is the byte `c·2^j`. `tables::affine_table` holds the
//! 256 matrices in `gf2p8affineqb`'s qword layout, and one `vgf2p8affineqb`
//! applies it to all 64 bytes of a vector — a product is one instruction
//! where the nibble-split kernels spend a split and two shuffles:
//!
//! ```text
//! prod = gf2p8affine(s, broadcast(matrix(c)), 0)
//! ```
//!
//! The kernel steps 64 bytes at a time. The last, partial step uses
//! byte-masked loads and stores (`_mm512_maskz_loadu_epi8` /
//! `_mm512_mask_storeu_epi8`), which touch no byte outside the mask, so
//! there is no scalar tail.
//!
//! # Safety
//!
//! The kernel entry calls a `#[target_feature(enable =
//! "avx512f,avx512bw,gfni")]` function, which is sound only on hosts with
//! all three features. It is reachable solely through the `GFNI_KERNELS`
//! vtable, and `kernels_for` refuses to hand that out unless runtime
//! detection found `gfni`, `avx512f` and `avx512bw`. The kernels form raw
//! pointers at offsets below each buffer's length and mask every access to
//! the bytes the buffer holds; the `Kernels` methods assert the length
//! preconditions (every source and output of one call has one length)
//! before the pointers are formed.

use core::arch::x86_64::*;

use pm_gf::gf256::Gf256;

use crate::tables;

pub(crate) fn mul_add_multi_rows(coeffs: &[Gf256], sources: &[&[u8]], outs: &mut [&mut [u8]]) {
    // SAFETY: only reachable via the GFNI vtable, selected after runtime
    // detection of gfni, avx512f and avx512bw.
    unsafe { mul_add_multi_rows_gfni(coeffs, sources, outs) }
}

/// The mask of bytes `o..n` of the 64-byte step at offset `o < n`: all of
/// them but in the last, partial step.
#[inline]
fn step_mask(o: usize, n: usize) -> __mmask64 {
    match n - o {
        rem if rem >= 64 => u64::MAX,
        rem => (1u64 << rem) - 1,
    }
}

/// 64 parallel GF(2^8) products of `s` by the coefficient whose bit matrix
/// is `matrix`.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,gfni")]
fn product64(matrix: u64, s: __m512i) -> __m512i {
    _mm512_gf2p8affine_epi64_epi8::<0>(s, _mm512_set1_epi64(matrix as i64))
}

#[target_feature(enable = "avx512f,avx512bw,gfni")]
fn mul_add_multi_rows_gfni(coeffs: &[Gf256], sources: &[&[u8]], outs: &mut [&mut [u8]]) {
    let (k, matrices) = (sources.len(), tables::affine_table());
    for (rows, outs) in coeffs.chunks(8 * k).zip(outs.chunks_mut(8)) {
        match outs.len() {
            1 => rows_gfni::<1>(matrices, rows, sources, outs),
            2 => rows_gfni::<2>(matrices, rows, sources, outs),
            3 => rows_gfni::<3>(matrices, rows, sources, outs),
            4 => rows_gfni::<4>(matrices, rows, sources, outs),
            5 => rows_gfni::<5>(matrices, rows, sources, outs),
            6 => rows_gfni::<6>(matrices, rows, sources, outs),
            7 => rows_gfni::<7>(matrices, rows, sources, outs),
            _ => rows_gfni::<8>(matrices, rows, sources, outs),
        }
    }
}

/// `R <= 8` outputs at once: per 64-byte step, each source is loaded once
/// and accumulated into the `R` outputs, which stay in registers (AVX-512
/// has 32) for the whole pass over the sources. Each coefficient's matrix
/// is a broadcast memory operand of the affine instruction.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,gfni")]
fn rows_gfni<const R: usize>(
    matrices: &[u64; 256],
    rows: &[Gf256],
    sources: &[&[u8]],
    outs: &mut [&mut [u8]],
) {
    let (k, n) = (sources.len(), outs[0].len());
    let mut o = 0;
    while o < n {
        let mask = step_mask(o, n);
        let mut acc = [_mm512_setzero_si512(); R];
        // SAFETY: o < n, the wrapper asserted that every source and output
        // has length n, and the mask limits every access to bytes o..n.
        unsafe {
            for (a, out) in acc.iter_mut().zip(outs.iter()) {
                *a = _mm512_maskz_loadu_epi8(mask, out.as_ptr().add(o).cast());
            }
            for (s, src) in sources.iter().enumerate() {
                let x = _mm512_maskz_loadu_epi8(mask, src.as_ptr().add(o).cast());
                for (r, a) in acc.iter_mut().enumerate() {
                    let matrix = matrices[rows[r * k + s].0 as usize];
                    *a = _mm512_xor_si512(*a, product64(matrix, x));
                }
            }
            for (a, out) in acc.iter().zip(outs.iter_mut()) {
                _mm512_mask_storeu_epi8(out.as_mut_ptr().add(o).cast(), mask, *a);
            }
        }
        o += 64;
    }
}
