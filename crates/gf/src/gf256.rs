//! GF(2^8) with statically initialised tables — the hot-path field.
//!
//! The paper's codec (after McAuley \[12\] and Rizzo \[14\]) operates on `m = 8`
//! bit symbols: every byte of a packet is an element of GF(256) and parity
//! byte `j` of symbol position `s` is a field linear combination of the data
//! bytes at position `s`. [`Gf256`] is a `#[repr(transparent)]` wrapper over
//! `u8` with operator impls; the kernels that apply it to whole packets live
//! in `pm-simd`.
//!
//! The field is generated by the primitive polynomial
//! `x^8 + x^4 + x^3 + x^2 + 1` (0x11D), the same one used by Rizzo's `fec.c`
//! and by CCSDS/DVB Reed–Solomon codes.
//!
//! Every table read is a `get` on an index the table always holds (a `u8`
//! into a 256-entry table, a sum of two logs, at most 508, into the
//! 512-entry `exp`), so nothing here can panic but division by zero.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Sub, SubAssign};
use std::sync::OnceLock;

/// The reduction polynomial for GF(2^8): `x^8 + x^4 + x^3 + x^2 + 1`.
pub const POLY: u32 = 0x11D;

/// Exp/log tables. `exp[i] = alpha^(i mod 255)` for every `i < 512`, so
/// `exp[log a + log b]` needs no modulo.
struct Tables {
    exp: [u8; 512],
    log: [u8; 256],
}

impl Tables {
    /// `alpha^i` for `i < 512`.
    #[inline]
    fn exp(&self, i: usize) -> u8 {
        self.exp.get(i).copied().unwrap_or(0)
    }

    /// `log_alpha a` for `a != 0` (`0` for `a == 0`).
    #[inline]
    fn log(&self, a: u8) -> usize {
        self.log.get(usize::from(a)).map_or(0, |&l| usize::from(l))
    }
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let (mut exp, mut log) = ([0u8; 512], [0u8; 256]);
        // alpha has order 255, so stepping by alpha past 255 repeats the cycle.
        let mut x = 1u8;
        for e in &mut exp {
            *e = x;
            let reduce = if x & 0x80 != 0 {
                POLY.to_le_bytes()[0]
            } else {
                0
            };
            x = (x << 1) ^ reduce;
        }
        for (i, &e) in (0..255u8).zip(&exp) {
            if let Some(l) = log.get_mut(usize::from(e)) {
                *l = i;
            }
        }
        Tables { exp, log }
    })
}

/// The field's log and exp tables, for a loop that works in the log domain
/// and reads them once: `log[a]` is `log_alpha a` for `a != 0` (`log[0]`
/// means nothing), and `exp[i] = alpha^(i mod 255)` for `i < 512`, so a sum
/// of two logs indexes it without a modulo.
pub fn log_exp() -> (&'static [u8; 256], &'static [u8; 512]) {
    let t = tables();
    (&t.log, &t.exp)
}

/// An element of GF(2^8).
///
/// Arithmetic operators are total except division: dividing by zero panics
/// (like integer division); use [`Gf256::checked_div`] and
/// [`Gf256::checked_inv`] where zero divisors are reachable from input data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
#[repr(transparent)]
pub struct Gf256(pub u8);

impl Gf256 {
    /// Additive identity.
    pub const ZERO: Gf256 = Gf256(0);
    /// Multiplicative identity.
    pub const ONE: Gf256 = Gf256(1);
    /// The primitive element `alpha = x` generating the multiplicative group.
    pub const ALPHA: Gf256 = Gf256(2);
    /// Order of the multiplicative group, `2^8 - 1`.
    pub const ORDER: usize = 255;

    /// `alpha^i` with `i` reduced modulo 255.
    #[inline]
    pub fn alpha_pow(i: usize) -> Gf256 {
        Gf256(tables().exp(i % Self::ORDER))
    }

    /// Discrete logarithm base alpha; `None` for zero.
    #[inline]
    pub fn log(self) -> Option<u8> {
        if self.0 == 0 {
            None
        } else {
            tables().log.get(usize::from(self.0)).copied()
        }
    }

    /// Multiplicative inverse; `None` for zero.
    #[inline]
    pub fn checked_inv(self) -> Option<Gf256> {
        if self.0 == 0 {
            None
        } else {
            let t = tables();
            Some(Gf256(t.exp(Self::ORDER - t.log(self.0))))
        }
    }

    /// `self / rhs`; `None` if `rhs` is zero.
    #[inline]
    pub fn checked_div(self, rhs: Gf256) -> Option<Gf256> {
        rhs.checked_inv().map(|i| self * i)
    }

    /// `self^e` (with `0^0 == 1`).
    pub fn pow(self, e: u64) -> Gf256 {
        if e == 0 {
            return Gf256::ONE;
        }
        if self.0 == 0 {
            return Gf256::ZERO;
        }
        let t = tables();
        // e mod 255 is below 256, so its low byte is all of it.
        let e = usize::from((e % 255).to_le_bytes()[0]);
        Gf256(t.exp(t.log(self.0) * e % Self::ORDER))
    }

    /// True iff the element is zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#04x}", self.0)
    }
}

impl From<u8> for Gf256 {
    #[inline]
    fn from(v: u8) -> Self {
        Gf256(v)
    }
}

impl From<Gf256> for u8 {
    #[inline]
    fn from(v: Gf256) -> Self {
        v.0
    }
}

#[expect(
    clippy::suspicious_arithmetic_impl,
    reason = "addition in GF(2^8) is XOR"
)]
impl Add for Gf256 {
    type Output = Gf256;
    #[inline]
    fn add(self, rhs: Gf256) -> Gf256 {
        Gf256(self.0 ^ rhs.0)
    }
}

#[expect(
    clippy::suspicious_op_assign_impl,
    reason = "addition in GF(2^8) is XOR"
)]
impl AddAssign for Gf256 {
    #[inline]
    fn add_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

#[expect(
    clippy::suspicious_arithmetic_impl,
    reason = "subtraction in GF(2^8) is XOR"
)]
impl Sub for Gf256 {
    type Output = Gf256;
    #[inline]
    fn sub(self, rhs: Gf256) -> Gf256 {
        // Characteristic 2: subtraction is addition.
        Gf256(self.0 ^ rhs.0)
    }
}

#[expect(
    clippy::suspicious_op_assign_impl,
    reason = "subtraction in GF(2^8) is XOR"
)]
impl SubAssign for Gf256 {
    #[inline]
    fn sub_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

impl Mul for Gf256 {
    type Output = Gf256;
    #[inline]
    fn mul(self, rhs: Gf256) -> Gf256 {
        if self.0 == 0 || rhs.0 == 0 {
            return Gf256::ZERO;
        }
        let t = tables();
        Gf256(t.exp(t.log(self.0) + t.log(rhs.0)))
    }
}

impl MulAssign for Gf256 {
    #[inline]
    fn mul_assign(&mut self, rhs: Gf256) {
        *self = *self * rhs;
    }
}

impl Div for Gf256 {
    type Output = Gf256;
    /// # Panics
    /// Panics if `rhs` is zero; use [`Gf256::checked_div`] for fallible
    /// division.
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "documented panic, like integer division; checked_div is the fallible form"
    )]
    fn div(self, rhs: Gf256) -> Gf256 {
        self.checked_div(rhs).expect("division by zero in GF(256)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Carry-less multiplication reduced by 0x11D — the definitional check.
    fn slow_mul(a: u8, b: u8) -> u8 {
        let (mut a, mut b, mut r) = (a as u32, b as u32, 0u32);
        while b != 0 {
            if b & 1 != 0 {
                r ^= a;
            }
            b >>= 1;
            a <<= 1;
            if a & 0x100 != 0 {
                a ^= POLY;
            }
        }
        r as u8
    }

    #[test]
    fn mul_matches_schoolbook_exhaustive() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!((Gf256(a) * Gf256(b)).0, slow_mul(a, b), "{a} * {b}");
            }
        }
    }

    #[test]
    fn add_is_xor_and_self_inverse() {
        for a in 0..=255u8 {
            assert_eq!(Gf256(a) + Gf256(a), Gf256::ZERO);
            assert_eq!(Gf256(a) - Gf256(a), Gf256::ZERO);
            assert_eq!(Gf256(a) + Gf256::ZERO, Gf256(a));
        }
    }

    #[test]
    fn every_nonzero_element_has_inverse() {
        for a in 1..=255u8 {
            let inv = Gf256(a).checked_inv().unwrap();
            assert_eq!(Gf256(a) * inv, Gf256::ONE);
        }
        assert_eq!(Gf256::ZERO.checked_inv(), None);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = Gf256(3) / Gf256::ZERO;
    }

    #[test]
    fn alpha_generates_group() {
        let mut seen = [false; 256];
        for i in 0..255 {
            let v = Gf256::alpha_pow(i);
            assert!(!seen[v.0 as usize], "alpha^{i} repeats");
            seen[v.0 as usize] = true;
        }
        assert!(!seen[0], "alpha powers must be non-zero");
        assert_eq!(Gf256::alpha_pow(255), Gf256::ONE);
    }

    #[test]
    fn pow_agrees_with_repeated_mul() {
        for a in [0u8, 1, 2, 3, 91, 200, 255] {
            let mut acc = Gf256::ONE;
            for e in 0..20u64 {
                assert_eq!(Gf256(a).pow(e), acc, "a={a} e={e}");
                acc *= Gf256(a);
            }
        }
    }

    #[test]
    fn exp_repeats_with_period_255_across_all_512_entries() {
        let (log, exp) = log_exp();
        for (i, &e) in exp.iter().enumerate() {
            assert_eq!(Gf256(e), Gf256::alpha_pow(i), "exp[{i}]");
        }
        for a in 1..=255u8 {
            assert_eq!(exp[log[a as usize] as usize], a, "exp[log[{a}]]");
        }
    }

    #[test]
    fn display_formats_as_hex() {
        assert_eq!(Gf256(0xab).to_string(), "0xab");
    }
}
