//! Differential property tests: every backend this host can run must be
//! byte-for-byte identical to the scalar reference on every kernel, across
//! arbitrary lengths (covering the sub-vector tail paths), unaligned
//! buffer offsets, and arbitrary coefficients. This is the contract that
//! lets `PM_SIMD` change throughput without ever changing a transcript.

use proptest::prelude::*;

use pm_gf::gf256::Gf256;
use pm_gf::slice::reference;

use crate::{kernels_for, Backend, CoeffTables, Kernels};

fn backends() -> Vec<&'static Kernels> {
    [Backend::Scalar, Backend::Avx2, Backend::Neon]
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
    /// every backend (`c = 1` takes the `xor` slot). `off` slides the
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

    /// The batched multi-source kernel equals sequential scalar-reference
    /// accumulation for any batch size — covering the 1..=4 group arms,
    /// multi-group batches, and zero coefficients in the mix.
    #[test]
    fn mul_add_multi_matches_reference(
        coeffs in proptest::collection::vec(any::<u8>(), 0..10),
        len in 0usize..200,
        off in 0usize..33,
        seed in any::<u64>(),
    ) {
        let sources: Vec<Vec<u8>> = (0..coeffs.len())
            .map(|i| bytes_from_seed(off + len, seed ^ (i as u64 + 1)))
            .collect();
        let pairs: Vec<(Gf256, &[u8])> = coeffs
            .iter()
            .zip(&sources)
            .map(|(&c, s)| (Gf256(c), &s[off..]))
            .collect();

        let mut want = bytes_from_seed(off + len, seed ^ 0xD57)[off..].to_vec();
        reference::mul_add_multi(&pairs, &mut want);

        for k in backends() {
            let name = k.backend().name();

            let mut buf = bytes_from_seed(off + len, seed ^ 0xD57);
            k.mul_add_multi(&pairs, &mut buf[off..]);
            prop_assert_eq!(&buf[off..], want.as_slice(), "mul_add_multi on {}", name);

            // Tables variant: zero coefficients stay in the batch (their
            // tables are all-zero) and must contribute nothing.
            let with_tables: Vec<(CoeffTables, &[u8])> = pairs
                .iter()
                .map(|(c, s)| (CoeffTables::new(*c), *s))
                .collect();
            let mut buf = bytes_from_seed(off + len, seed ^ 0xD57);
            k.mul_add_multi_rows(&with_tables, &mut buf[off..]);
            prop_assert_eq!(&buf[off..], want.as_slice(), "mul_add_multi_rows on {}", name);
        }
    }
}

/// Exhaustive over all 256 coefficients at a fixed awkward length (covers
/// both the vector body and the tail in one buffer) — cheap insurance the
/// proptest sampling can't skip a coefficient.
#[test]
fn all_coefficients_match_reference() {
    let src = bytes_from_seed(77, 0x1234_5678);
    for c in 0..=255u8 {
        let c = Gf256(c);
        let mut want = bytes_from_seed(77, 0xABCD);
        reference::mul_add_slice(c, &src, &mut want);
        for k in backends() {
            let mut dst = bytes_from_seed(77, 0xABCD);
            k.mul_add_slice(c, &src, &mut dst);
            assert_eq!(dst, want, "c={:?} backend={}", c, k.backend().name());
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
    }
}
