//! Property-based tests for the field axioms.

use proptest::prelude::*;

use crate::gf256::Gf256;

fn gf() -> impl Strategy<Value = Gf256> {
    any::<u8>().prop_map(Gf256)
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
}
