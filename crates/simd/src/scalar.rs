//! Portable scalar backend: the matrix kernel one byte at a time, through
//! rows of the shared 64 KB multiplication table (`row[x] == c·x`), and
//! `ln_unit` as libm's `ln` per element. It has no `unsafe` and needs no
//! CPU feature. The AVX2 and NEON kernels hand it their sub-vector tails,
//! so the last bytes of every buffer on those backends are computed here
//! too, and their `ln_unit` slot is this one.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use pm_gf::gf256::Gf256;

use crate::tables::mul_row;

/// `outs[r] ^= Σ_s coeffs[r·k + s]·sources[s]`, one output row at a time
/// and four sources per destination pass, so each output byte is read and
/// written once per four sources rather than once per source.
pub(crate) fn mul_add_multi_rows(coeffs: &[Gf256], sources: &[&[u8]], outs: &mut [&mut [u8]]) {
    // Zipped iteration keeps every lane bounds-check free, and a `u8`
    // always indexes a 256-entry row.
    let at = |row: &[u8; 256], x: u8| row.get(usize::from(x)).copied().unwrap_or(0);
    for (row, out) in coeffs.chunks(sources.len().max(1)).zip(outs.iter_mut()) {
        for (cs, srcs) in row.chunks(4).zip(sources.chunks(4)) {
            match (cs, srcs) {
                ([c0], [s0]) => {
                    let r0 = mul_row(*c0);
                    for (d, &a) in out.iter_mut().zip(*s0) {
                        *d ^= at(r0, a);
                    }
                }
                ([c0, c1], [s0, s1]) => {
                    let (r0, r1) = (mul_row(*c0), mul_row(*c1));
                    for ((d, &a), &b) in out.iter_mut().zip(*s0).zip(*s1) {
                        *d ^= at(r0, a) ^ at(r1, b);
                    }
                }
                ([c0, c1, c2], [s0, s1, s2]) => {
                    let (r0, r1, r2) = (mul_row(*c0), mul_row(*c1), mul_row(*c2));
                    for (((d, &a), &b), &e) in out.iter_mut().zip(*s0).zip(*s1).zip(*s2) {
                        *d ^= at(r0, a) ^ at(r1, b) ^ at(r2, e);
                    }
                }
                ([c0, c1, c2, c3], [s0, s1, s2, s3]) => {
                    let [r0, r1, r2, r3] = [c0, c1, c2, c3].map(|&c| mul_row(c));
                    for ((((d, &a), &b), &e), &f) in
                        out.iter_mut().zip(*s0).zip(*s1).zip(*s2).zip(*s3)
                    {
                        *d ^= at(r0, a) ^ at(r1, b) ^ at(r2, e) ^ at(r3, f);
                    }
                }
                // `chunks(4)` of a row and of the sources, which are equally
                // long, yields 1..=4 of each.
                _ => {}
            }
        }
    }
}

/// `out[i] = xs[i].ln()`: libm's logarithm, the oracle of every vector
/// `ln_unit`.
pub(crate) fn ln_unit(xs: &[f64], out: &mut [f64]) {
    for (o, x) in out.iter_mut().zip(xs) {
        *o = x.ln();
    }
}
