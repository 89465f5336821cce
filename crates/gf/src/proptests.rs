//! Property-based tests for the field axioms and the slice kernels.

use proptest::prelude::*;

use crate::gf256::Gf256;
use crate::mul_table::mul_row;
use crate::slice;

fn gf() -> impl Strategy<Value = Gf256> {
    any::<u8>().prop_map(Gf256)
}

/// Deterministic pseudo-random bytes (xorshift) for destination buffers.
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
    #[test]
    fn add_commutative_associative(a in gf(), b in gf(), c in gf()) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn mul_commutative_associative(a in gf(), b in gf(), c in gf()) {
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!((a * b) * c, a * (b * c));
    }

    #[test]
    fn distributive(a in gf(), b in gf(), c in gf()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn mul_inverse_cancels(a in gf()) {
        prop_assume!(!a.is_zero());
        prop_assert_eq!(a * a.checked_inv().unwrap(), Gf256::ONE);
    }

    #[test]
    fn div_then_mul_roundtrips(a in gf(), b in gf()) {
        prop_assume!(!b.is_zero());
        prop_assert_eq!(a.checked_div(b).unwrap() * b, a);
    }

    #[test]
    fn pow_is_homomorphism(a in gf(), e1 in 0u64..1000, e2 in 0u64..1000) {
        prop_assert_eq!(a.pow(e1) * a.pow(e2), a.pow(e1 + e2));
    }

    #[test]
    fn slice_mul_add_linear(
        c1 in gf(),
        c2 in gf(),
        src in proptest::collection::vec(any::<u8>(), 1..200),
    ) {
        // (c1 + c2) * src == c1 * src + c2 * src, applied to whole slices.
        let mut lhs = vec![0u8; src.len()];
        slice::mul_add_row(mul_row(c1 + c2), &src, &mut lhs);
        let mut rhs = vec![0u8; src.len()];
        slice::mul_add_row(mul_row(c1), &src, &mut rhs);
        slice::mul_add_row(mul_row(c2), &src, &mut rhs);
        prop_assert_eq!(lhs, rhs);
    }

    /// Differential: the shared-table row kernel is byte-identical to the
    /// scalar reference (and to the seed's per-call-row kernel) for every
    /// coefficient, 0 and 1 included.
    #[test]
    fn table_kernels_match_scalar_reference(
        c in gf(),
        src in proptest::collection::vec(any::<u8>(), 0..64),
        seed in any::<u64>(),
    ) {
        let dst0 = bytes_from_seed(src.len(), seed);

        let mut table = dst0.clone();
        slice::mul_add_row(mul_row(c), &src, &mut table);
        let mut scalar = dst0.clone();
        slice::reference::mul_add_slice(c, &src, &mut scalar);
        prop_assert_eq!(&table, &scalar);
        let mut uncached = dst0;
        slice::reference::mul_add_slice_uncached(c, &src, &mut uncached);
        prop_assert_eq!(&table, &uncached);
    }

    /// Differential: the batched multi-source kernel equals sequential
    /// scalar-reference accumulation for any batch size (covering every
    /// unrolled group arm and multi-group batches).
    #[test]
    fn mul_add_multi_matches_scalar_reference(
        coeffs in proptest::collection::vec(any::<u8>(), 0..10),
        len in 0usize..48,
        seed in any::<u64>(),
    ) {
        let sources: Vec<Vec<u8>> = coeffs
            .iter()
            .enumerate()
            .map(|(i, _)| bytes_from_seed(len, seed ^ (i as u64 + 1)))
            .collect();
        let pairs: Vec<(Gf256, &[u8])> = coeffs
            .iter()
            .zip(&sources)
            .map(|(&c, s)| (Gf256(c), s.as_slice()))
            .collect();
        let rows: Vec<(&[u8; 256], &[u8])> =
            pairs.iter().map(|&(c, s)| (mul_row(c), s)).collect();
        let dst0 = bytes_from_seed(len, seed ^ 0xD57);

        let mut batched = dst0.clone();
        slice::mul_add_multi_rows(&rows, &mut batched);
        let mut scalar = dst0;
        slice::reference::mul_add_multi(&pairs, &mut scalar);
        prop_assert_eq!(batched, scalar);
    }

    /// The u64 XOR fast path agrees with bytewise XOR right across the
    /// 8-byte chunk boundary.
    #[test]
    fn xor_fast_path_matches_bytewise(len in 0usize..25, seed in any::<u64>()) {
        let src = bytes_from_seed(len, seed);
        let dst0 = bytes_from_seed(len, seed ^ 0xBEEF);
        let mut fast = dst0.clone();
        slice::xor_slice(&mut fast, &src);
        let mut slow = dst0;
        for (d, s) in slow.iter_mut().zip(&src) {
            *d ^= s;
        }
        prop_assert_eq!(fast, slow);
    }

    /// The staged-u64 remainder path: XOR on subslices starting at every
    /// misaligned offset, for every remainder length 1..=7, leaves the bytes
    /// outside the window untouched and matches bytewise XOR inside it.
    #[test]
    fn xor_remainder_boundaries_match_bytewise(
        len in 0usize..41,
        off in 0usize..9,
        seed in any::<u64>(),
    ) {
        let total = off + len;
        let src = bytes_from_seed(total, seed);
        let orig = bytes_from_seed(total, seed ^ 0xF00D);
        let mut fast = orig.clone();
        slice::xor_slice(&mut fast[off..], &src[off..]);
        let mut slow = orig.clone();
        for i in off..total {
            slow[i] ^= src[i];
        }
        prop_assert_eq!(&fast[..off], &orig[..off]);
        prop_assert_eq!(fast, slow);
    }
}
