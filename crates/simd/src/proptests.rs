//! Differential property tests: every backend this host can run must be
//! byte-for-byte identical to the scalar reference on every kernel, across
//! arbitrary lengths (covering the sub-vector tail paths), unaligned
//! buffer offsets, and arbitrary coefficients. This is the contract that
//! lets `PM_SIMD` change throughput without ever changing a transcript.

use proptest::prelude::*;

use pm_gf::gf256::Gf256;

use crate::{kernels_for, reference, Backend, Kernels};

fn backends() -> Vec<&'static Kernels> {
    [Backend::Scalar, Backend::Avx2, Backend::Gfni, Backend::Neon]
        .into_iter()
        .filter_map(kernels_for)
        .collect()
}

/// Deterministic pseudo-random bytes (xorshift) for buffer contents.
fn bytes_from_seed(len: usize, seed: u64) -> Vec<u8> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 24) as u8
        })
        .collect()
}

proptest! {
    /// `mul_add_slice` agrees with the definitional per-byte reference on
    /// every backend, `c = 0` and `c = 1` included. `off` slides the
    /// working window through a larger allocation so the vector loops see
    /// misaligned heads; `len` down to 0 exercises the pure-tail path.
    #[test]
    fn mul_add_slice_matches_reference(
        c in any::<u8>(),
        len in 0usize..300,
        off in 0usize..33,
        sseed in any::<u64>(),
        dseed in any::<u64>(),
    ) {
        let c = Gf256(c);
        let src_buf = bytes_from_seed(off + len, sseed);
        let src = &src_buf[off..];

        let mut mul_add_want = bytes_from_seed(off + len, dseed)[off..].to_vec();
        reference::mul_add_slice(c, src, &mut mul_add_want);

        for k in backends() {
            let name = k.backend().name();

            let mut buf = bytes_from_seed(off + len, dseed);
            k.mul_add_slice(c, src, &mut buf[off..]);
            prop_assert_eq!(&buf[off..], mul_add_want.as_slice(), "mul_add on {}", name);
        }
    }

    /// The matrix kernel equals per-coefficient scalar-reference
    /// accumulation on every backend: 1–8 output rows (every GFNI pass
    /// width, AVX2's row pairs and odd last row), 0–20 sources (AVX2's
    /// full and narrower tiles), lengths 0–300 (pure tails, one GFNI step
    /// and a few AVX2 ones with every tail length), misaligned buffers, and
    /// coefficient draws heavy in zeros and ones.
    #[test]
    fn matrix_kernel_matches_reference(
        rows in 1usize..9,
        raw in proptest::collection::vec(any::<u8>(), 160),
        nsrc in 0usize..21,
        len in 0usize..300,
        off in 0usize..65,
        seed in any::<u64>(),
    ) {
        // A quarter of the draws are 0 and another quarter 1.
        let coeffs: Vec<Gf256> = raw[..rows * nsrc]
            .iter()
            .map(|&b| Gf256(match b { 0..=63 => 0, 64..=127 => 1, _ => b }))
            .collect();
        let src_bufs: Vec<Vec<u8>> = (0..nsrc)
            .map(|s| bytes_from_seed(off + len, seed ^ (s as u64 + 1)))
            .collect();
        let sources: Vec<&[u8]> = src_bufs.iter().map(|b| &b[off..]).collect();
        let out_seed = |r: usize| seed ^ 0xD57 ^ ((r as u64) << 40);

        let want: Vec<Vec<u8>> = (0..rows)
            .map(|r| {
                let mut out = bytes_from_seed(off + len, out_seed(r))[off..].to_vec();
                for (c, src) in coeffs[r * nsrc..(r + 1) * nsrc].iter().zip(&sources) {
                    reference::mul_add_slice(*c, src, &mut out);
                }
                out
            })
            .collect();

        for k in backends() {
            let mut bufs: Vec<Vec<u8>> = (0..rows).map(|r| bytes_from_seed(off + len, out_seed(r))).collect();
            let mut outs: Vec<&mut [u8]> = bufs.iter_mut().map(|b| &mut b[off..]).collect();
            k.mul_add_multi_rows(&coeffs, &sources, &mut outs);
            for (r, (got, want)) in bufs.iter().zip(&want).enumerate() {
                prop_assert_eq!(&got[off..], want.as_slice(), "row {} on {}", r, k.backend().name());
            }
        }
    }
}

/// Exhaustive over all 256 coefficients — so over all 256 GFNI affine
/// matrices, nibble-table pairs and multiplication rows — at lengths that
/// are pure tails (0, 1, 31), one vector step plus a tail on each side of
/// AVX2's 32 and GFNI's 64 (33, 63, 65) and several steps plus a tail
/// (141), through the single kernel and the matrix kernel at one to three
/// output rows, so every backend's tail runs through the scalar kernel
/// for every coefficient: cheap insurance the proptest sampling can't skip
/// one.
#[test]
fn all_coefficients_match_reference() {
    for len in [0usize, 1, 31, 33, 63, 65, 141] {
        let src = bytes_from_seed(len, 0x1234_5678);
        for c in 0..=255u8 {
            let c = Gf256(c);
            // Row r's coefficient is c·(r + 1), so each row differs.
            let row_coeff = |r: usize| c * Gf256(r as u8 + 1);
            let want = |r: usize| {
                let mut want = bytes_from_seed(len, 0xABCD + r as u64);
                reference::mul_add_slice(row_coeff(r), &src, &mut want);
                want
            };
            for k in backends() {
                let name = k.backend().name();
                let mut dst = bytes_from_seed(len, 0xABCD);
                k.mul_add_slice(c, &src, &mut dst);
                assert_eq!(dst, want(0), "c={c:?} len={len} backend={name}");

                for rows in 1..=3 {
                    let coeffs: Vec<Gf256> = (0..rows).map(row_coeff).collect();
                    let mut bufs: Vec<Vec<u8>> = (0..rows)
                        .map(|r| bytes_from_seed(len, 0xABCD + r as u64))
                        .collect();
                    let mut outs: Vec<&mut [u8]> =
                        bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
                    k.mul_add_multi_rows(&coeffs, &[&src], &mut outs);
                    for (r, got) in bufs.iter().enumerate() {
                        assert_eq!(
                            got,
                            &want(r),
                            "matrix c={c:?} len={len} rows={rows} row {r} backend={name}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn length_mismatch_panics_on_every_backend() {
    for k in backends() {
        let name = k.backend().name();
        let r = std::panic::catch_unwind(|| {
            let mut dst = vec![0u8; 4];
            k.mul_add_slice(Gf256(3), &[1, 2, 3], &mut dst);
        });
        assert!(r.is_err(), "mul_add length mismatch must panic on {name}");
        let r = std::panic::catch_unwind(|| {
            let (a, b) = (vec![0u8; 4], vec![0u8; 3]);
            let mut dst = vec![0u8; 4];
            k.mul_add_multi_rows(&[Gf256(3); 2], &[&a, &b], &mut [&mut dst]);
        });
        assert!(r.is_err(), "matrix length mismatch must panic on {name}");
        let r = std::panic::catch_unwind(|| {
            let mut dst = vec![0u8; 4];
            k.mul_add_multi_rows(&[Gf256(3)], &[&[0u8; 4], &[0u8; 4]], &mut [&mut dst]);
        });
        assert!(
            r.is_err(),
            "a short coefficient matrix must panic on {name}"
        );
    }
}
