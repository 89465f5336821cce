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
//! The kernel steps 64 bytes at a time, two whole steps per visit to a
//! source while two remain. The last, partial step uses byte-masked loads
//! and stores (`_mm512_maskz_loadu_epi8` / `_mm512_mask_storeu_epi8`),
//! which touch no byte outside the mask, so there is no scalar tail.
//!
//! A call resolves its coefficients once: before the first step, each
//! block of up to eight rows copies its `R × k` matrices out of the table
//! into a stack array laid out source by source, so a step reads them as
//! consecutive broadcast operands and never re-reads a coefficient. A step
//! then waits only on its sources: `k` scattered packets, a cache line of
//! each per step, more streams than the hardware prefetcher follows. So a
//! multi-row pass prefetches each source `PREFETCH_AHEAD` bytes past the
//! lines it reads, wherever the source has such bytes, and reads two
//! consecutive lines per visit.
//!
//! # Safety
//!
//! The kernel entry calls a `#[target_feature(enable =
//! "avx512f,avx512bw,gfni")]` function, which is sound only on hosts with
//! all three features. It is reachable solely through the `GFNI_KERNELS`
//! vtable, and `kernels_for` refuses to hand that out unless runtime
//! detection found `gfni`, `avx512f` and `avx512bw`. The kernels form raw
//! pointers at offsets below each buffer's length and mask every access to
//! the bytes the buffer holds; a prefetch address is formed only when it
//! lies inside its source. The `Kernels` methods assert the length
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

/// Sources per resolved block: eight rows' matrices for 128 sources are an
/// 8 KB stack array. A call with more sources runs block after block, each
/// re-reading the outputs the previous one wrote.
const SOURCE_BLOCK: usize = 128;

/// How far ahead of the bytes in use a source is prefetched: four 64-byte
/// steps.
const PREFETCH_AHEAD: usize = 256;

#[target_feature(enable = "avx512f,avx512bw,gfni")]
fn mul_add_multi_rows_gfni(coeffs: &[Gf256], sources: &[&[u8]], outs: &mut [&mut [u8]]) {
    let k = sources.len();
    for (rows, outs) in coeffs.chunks(8 * k).zip(outs.chunks_mut(8)) {
        match outs.len() {
            1 => rows_gfni::<1>(rows, sources, outs),
            2 => rows_gfni::<2>(rows, sources, outs),
            3 => rows_gfni::<3>(rows, sources, outs),
            4 => rows_gfni::<4>(rows, sources, outs),
            5 => rows_gfni::<5>(rows, sources, outs),
            6 => rows_gfni::<6>(rows, sources, outs),
            7 => rows_gfni::<7>(rows, sources, outs),
            _ => rows_gfni::<8>(rows, sources, outs),
        }
    }
}

/// `R <= 8` outputs at once. A call on at most 8 sources (a 1 × 1 call,
/// a group of k = 7) clears a matrix array of 8 sources, not one of
/// [`SOURCE_BLOCK`]: zeroing 8 KB cost a tiny call a quarter of its time.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,gfni")]
fn rows_gfni<const R: usize>(rows: &[Gf256], sources: &[&[u8]], outs: &mut [&mut [u8]]) {
    if sources.len() <= 8 {
        blocks_gfni::<R, 8>(rows, sources, outs);
    } else {
        blocks_gfni::<R, SOURCE_BLOCK>(rows, sources, outs);
    }
}

/// The `R × k` coefficients' matrices are resolved once per call, `B`
/// sources at a time, into a stack array indexed `[source][row]`;
/// [`block_gfni`] then makes one pass over the block's sources.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,gfni")]
fn blocks_gfni<const R: usize, const B: usize>(
    rows: &[Gf256],
    sources: &[&[u8]],
    outs: &mut [&mut [u8]],
) {
    let (k, table) = (sources.len(), tables::affine_table());
    let mut matrices = [[0u64; R]; B];
    for (b, block) in sources.chunks(B).enumerate() {
        for (s, m) in matrices.iter_mut().take(block.len()).enumerate() {
            for (r, m) in m.iter_mut().enumerate() {
                *m = table[rows[r * k + b * B + s].0 as usize];
            }
        }
        block_gfni(&matrices[..block.len()], block, outs);
    }
}

/// One pass over a block of sources and their resolved matrices: two
/// whole 64-byte steps per visit to a source while two remain, then one
/// masked step at a time. With more than one row, each visit prefetches
/// the source's lines [`PREFETCH_AHEAD`] bytes past the ones it reads; one
/// row does a single product per loaded vector, so its loads already
/// overlap and a prefetch would only add memory operations.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,gfni")]
fn block_gfni<const R: usize>(matrices: &[[u64; R]], sources: &[&[u8]], outs: &mut [&mut [u8]]) {
    let n = outs[0].len();
    let mut o = 0;
    while o + 128 <= n {
        steps::<R, 2>(matrices, sources, outs, o, [u64::MAX; 2]);
        o += 128;
    }
    while o < n {
        steps::<R, 1>(matrices, sources, outs, o, [step_mask(o, n)]);
        o += 64;
    }
}

/// `S` consecutive 64-byte steps from offset `o`, step `s` under
/// `masks[s]`: each source is loaded once per step and accumulated into
/// the `R` outputs, which stay in registers (AVX-512 has 32) for the whole
/// pass over the sources. The caller keeps every step's start below the
/// outputs' length `n` and its mask within bytes `..n`.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,gfni")]
fn steps<const R: usize, const S: usize>(
    matrices: &[[u64; R]],
    sources: &[&[u8]],
    outs: &mut [&mut [u8]],
    o: usize,
    masks: [__mmask64; S],
) {
    let mut acc = [[_mm512_setzero_si512(); R]; S];
    // SAFETY: every step starts at o + 64 s < n, the wrapper asserted that
    // every source and output has length n, and each step's mask limits
    // its accesses to bytes below n.
    unsafe {
        for ((acc, &mask), at) in acc.iter_mut().zip(&masks).zip((o..).step_by(64)) {
            for (a, out) in acc.iter_mut().zip(outs.iter()) {
                *a = _mm512_maskz_loadu_epi8(mask, out.as_ptr().add(at).cast());
            }
        }
        for (m, src) in matrices.iter().zip(sources) {
            if R > 1 {
                for s in 0..S {
                    prefetch(src, o + PREFETCH_AHEAD + 64 * s);
                }
            }
            for ((acc, &mask), at) in acc.iter_mut().zip(&masks).zip((o..).step_by(64)) {
                let x = _mm512_maskz_loadu_epi8(mask, src.as_ptr().add(at).cast());
                for (a, &matrix) in acc.iter_mut().zip(m) {
                    *a = _mm512_xor_si512(*a, product64(matrix, x));
                }
            }
        }
        for ((acc, &mask), at) in acc.iter().zip(&masks).zip((o..).step_by(64)) {
            for (a, out) in acc.iter().zip(outs.iter_mut()) {
                _mm512_mask_storeu_epi8(out.as_mut_ptr().add(at).cast(), mask, *a);
            }
        }
    }
}

/// Prefetch the cache line holding byte `at` of `src` into L1, when
/// `src` has that byte.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,gfni")]
fn prefetch(src: &[u8], at: usize) {
    if at < src.len() {
        // SAFETY: at < src.len(), so the address lies inside `src`; a
        // prefetch reads nothing architecturally and cannot fault.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(src.as_ptr().add(at).cast()) }
    }
}
