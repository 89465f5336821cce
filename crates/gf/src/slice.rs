//! Bulk GF(256) operations over byte slices — the codec inner loop.
//!
//! A packet-level RSE coder spends essentially all of its time computing
//! `parity ^= coeff * data` over whole packets (Section 2.2 of the paper:
//! one GF(2^8) operation per byte per matrix coefficient, so encode cost is
//! proportional to `h * k * packet_len`). These routines are the portable
//! kernels behind `pm-simd`'s scalar backend: they take precomputed rows of
//! the shared 64 KB multiplication table ([`crate::mul_table`]) — no
//! per-call row construction. [`mul_add_multi_rows`] additionally batches
//! several source packets per destination pass so each parity byte is
//! loaded and stored once per group instead of once per coefficient.
//! Coefficient-level dispatch (skip 0, XOR for 1) lives in
//! `pm_simd::Kernels`, the one entry point production code uses.
//!
//! The seed's scalar kernels are preserved verbatim in [`mod@reference`]; the
//! differential proptests in this crate pin the table-driven kernels
//! byte-for-byte against them.

/// `dst ^= src`, element-wise. Both slices must have equal length.
///
/// # Panics
/// Panics if the lengths differ (caller bug: packets in one FEC block must
/// have equal size).
#[expect(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    reason = "o + 8 <= chunks * 8 <= len after the length assert, and 8 bytes convert to [u8; 8]"
)]
pub fn xor_slice(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "xor_slice length mismatch");
    // Wide XOR on 8-byte chunks; the 1..=7-byte remainder goes through one
    // more u64 via zero-padded staging buffers (XOR with the padding zeros
    // is a no-op) instead of a byte-at-a-time loop, so misaligned tails pay
    // one wide op rather than up to seven scalar ones.
    let n = dst.len();
    let chunks = n / 8;
    for i in 0..chunks {
        let o = i * 8;
        let a = u64::from_ne_bytes(dst[o..o + 8].try_into().unwrap());
        let b = u64::from_ne_bytes(src[o..o + 8].try_into().unwrap());
        dst[o..o + 8].copy_from_slice(&(a ^ b).to_ne_bytes());
    }
    if chunks * 8 < n {
        let tail = dst.split_at_mut(chunks * 8).1;
        let stail = src.split_at(chunks * 8).1;
        let mut a = [0u8; 8];
        let mut b = [0u8; 8];
        for (pad, &d) in a.iter_mut().zip(tail.iter()) {
            *pad = d;
        }
        for (pad, &s) in b.iter_mut().zip(stail) {
            *pad = s;
        }
        let x = (u64::from_ne_bytes(a) ^ u64::from_ne_bytes(b)).to_ne_bytes();
        for (d, &v) in tail.iter_mut().zip(&x) {
            *d = v;
        }
    }
}

/// `dst ^= c * src` where `row` is `c`'s multiplication row
/// (`row[x] == c * x`), e.g. a row cached from [`crate::mul_table`].
///
/// Zero setup per call: callers hold rows across many packets (the RSE
/// encoder caches one row per matrix coefficient).
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
#[expect(clippy::indexing_slicing, reason = "a u8 indexes the 256-entry row")]
pub fn mul_add_row(row: &[u8; 256], src: &[u8], dst: &mut [u8]) {
    assert_eq!(dst.len(), src.len(), "mul_add_row length mismatch");
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d ^= row[*s as usize];
    }
}

/// `dst ^= c1*src1 ^ c2*src2 ^ ...` — batched multiply-accumulate. Each
/// source comes with its coefficient's multiplication row
/// (`row[x] == c * x`), e.g. rows cached per matrix coefficient by the RSE
/// encoder.
///
/// Sources are applied in groups of at most four per destination pass, so
/// each destination byte is read and written once per group rather than
/// once per source: computing parity `j` over `k` data packets issues
/// `ceil(k/4)` passes instead of `k`. An all-zero row (coefficient 0) is
/// applied as-is, as `pm_simd::Kernels::mul_add_multi_rows` applies every
/// coefficient of its matrix.
///
/// # Panics
/// Panics if any source length differs from `dst.len()`.
#[expect(
    clippy::indexing_slicing,
    clippy::unreachable,
    reason = "a u8 indexes a 256-entry row, and chunks(4) yields 1..=4 sources"
)]
pub fn mul_add_multi_rows(sources: &[(&[u8; 256], &[u8])], dst: &mut [u8]) {
    for (_, src) in sources {
        assert_eq!(dst.len(), src.len(), "mul_add_multi length mismatch");
    }
    // Zipped iteration keeps every lane bounds-check free; indexing a
    // `[u8; 256]` by a `u8` needs no check either.
    for group in sources.chunks(4) {
        match group {
            [(r0, s0)] => {
                for (d, &a) in dst.iter_mut().zip(s0.iter()) {
                    *d ^= r0[a as usize];
                }
            }
            [(r0, s0), (r1, s1)] => {
                for ((d, &a), &b) in dst.iter_mut().zip(s0.iter()).zip(s1.iter()) {
                    *d ^= r0[a as usize] ^ r1[b as usize];
                }
            }
            [(r0, s0), (r1, s1), (r2, s2)] => {
                for (((d, &a), &b), &e) in
                    dst.iter_mut().zip(s0.iter()).zip(s1.iter()).zip(s2.iter())
                {
                    *d ^= r0[a as usize] ^ r1[b as usize] ^ r2[e as usize];
                }
            }
            [(r0, s0), (r1, s1), (r2, s2), (r3, s3)] => {
                for ((((d, &a), &b), &e), &f) in dst
                    .iter_mut()
                    .zip(s0.iter())
                    .zip(s1.iter())
                    .zip(s2.iter())
                    .zip(s3.iter())
                {
                    *d ^= r0[a as usize] ^ r1[b as usize] ^ r2[e as usize] ^ r3[f as usize];
                }
            }
            _ => unreachable!("chunks(4) yields 1..=4 items"),
        }
    }
}

/// Scalar reference kernels — the definitional per-byte field arithmetic.
///
/// These never touch the shared table (each byte is multiplied through the
/// exp/log scalar path), so they serve as the independent oracle for the
/// differential property tests and the "uncached" baseline in `pm-bench`.
pub mod reference {
    use crate::gf256::{fill_mul_row, Gf256};

    /// Scalar `dst ^= c * src`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn mul_add_slice(c: Gf256, src: &[u8], dst: &mut [u8]) {
        assert_eq!(dst.len(), src.len(), "mul_add_slice length mismatch");
        for (d, s) in dst.iter_mut().zip(src.iter()) {
            *d = (Gf256(*d) + c * Gf256(*s)).0;
        }
    }

    /// Scalar batched multiply-accumulate (sequential applications).
    ///
    /// # Panics
    /// Panics if any source length differs from `dst.len()`.
    pub fn mul_add_multi(sources: &[(Gf256, &[u8])], dst: &mut [u8]) {
        for (c, src) in sources {
            mul_add_slice(*c, src, dst);
        }
    }

    /// The seed's per-call-row kernel, kept as the "uncached" benchmark
    /// baseline: builds the 256-entry multiplication row on the stack on
    /// every invocation, then applies it.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    #[expect(clippy::indexing_slicing, reason = "a u8 indexes the 256-entry row")]
    pub fn mul_add_slice_uncached(c: Gf256, src: &[u8], dst: &mut [u8]) {
        assert_eq!(dst.len(), src.len(), "mul_add_slice length mismatch");
        if c.is_zero() {
            return;
        }
        if c == Gf256::ONE {
            super::xor_slice(dst, src);
            return;
        }
        let mut row = [0u8; 256];
        fill_mul_row(c, &mut row);
        for (d, s) in dst.iter_mut().zip(src.iter()) {
            *d ^= row[*s as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gf256::Gf256;
    use crate::mul_table::mul_row;

    #[test]
    fn xor_slice_matches_bytewise() {
        // Lengths straddling the 8-byte fast path boundary.
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 100, 1024] {
            let src: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let mut dst: Vec<u8> = (0..len).map(|i| (i * 13 + 5) as u8).collect();
            let mut expect = dst.clone();
            for (d, s) in expect.iter_mut().zip(&src) {
                *d ^= s;
            }
            xor_slice(&mut dst, &src);
            assert_eq!(dst, expect, "len={len}");
        }
    }

    #[test]
    fn mul_add_row_matches_reference() {
        let src: Vec<u8> = (0..300).map(|i| (i * 7 + 3) as u8).collect();
        for c in [0u8, 1, 2, 37, 255] {
            let mut dst: Vec<u8> = (0..300).map(|i| (i * 31) as u8).collect();
            let mut expect = dst.clone();
            reference::mul_add_slice(Gf256(c), &src, &mut expect);
            mul_add_row(mul_row(Gf256(c)), &src, &mut dst);
            assert_eq!(dst, expect, "c={c}");
        }
    }

    #[test]
    fn mul_add_multi_rows_matches_sequential() {
        // Batch sizes exercising every chunk arm (1..=4) plus a second pass.
        for nsrc in 0..=6usize {
            let sources: Vec<Vec<u8>> = (0..nsrc)
                .map(|j| (0..64).map(|i| (i * 7 + j * 41 + 3) as u8).collect())
                .collect();
            let pairs: Vec<(&[u8; 256], &[u8])> = sources
                .iter()
                .enumerate()
                .map(|(j, s)| (mul_row(Gf256((j * 61 + 2) as u8)), s.as_slice()))
                .collect();
            let base: Vec<u8> = (0..64).map(|i| (i * 11) as u8).collect();

            let mut batched = base.clone();
            mul_add_multi_rows(&pairs, &mut batched);

            let mut sequential = base.clone();
            for (row, s) in &pairs {
                mul_add_row(row, s, &mut sequential);
            }
            assert_eq!(batched, sequential, "nsrc={nsrc}");
        }
    }

    #[test]
    fn empty_slices_are_no_ops() {
        let mut dst: Vec<u8> = vec![];
        xor_slice(&mut dst, &[]);
        mul_add_row(mul_row(Gf256(7)), &[], &mut dst);
        mul_add_multi_rows(&[(mul_row(Gf256(7)), &[][..])], &mut dst);
        assert!(dst.is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut dst = vec![0u8; 4];
        mul_add_row(mul_row(Gf256::ONE), &[1, 2, 3], &mut dst);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mul_add_multi_rows_mismatched_lengths_panic() {
        let mut dst = vec![0u8; 4];
        mul_add_multi_rows(&[(mul_row(Gf256::ONE), &[1, 2, 3][..])], &mut dst);
    }
}
