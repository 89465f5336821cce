//! Polynomials over GF(2^8).
//!
//! The paper (Eq. 1) defines the encoder through the polynomial
//! `F(X) = d_1 + d_2 X + ... + d_k X^(k-1)` whose coefficients are the data
//! symbols, with parity `p_j = F(alpha^(j-1))`. This module provides that
//! evaluation plus Lagrange interpolation (the mathematical inverse used to
//! validate the matrix decoder in tests and to implement the reference
//! polynomial codec in `pm-rse`).

use crate::gf256::Gf256;

/// A dense polynomial over GF(2^8), little-endian coefficients
/// (`coeffs[i]` multiplies `X^i`). The zero polynomial has no coefficients.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Poly {
    coeffs: Vec<Gf256>,
}

impl Poly {
    /// Polynomial from little-endian coefficients; trailing zeros trimmed.
    pub fn new(mut coeffs: Vec<Gf256>) -> Self {
        while coeffs.last() == Some(&Gf256::ZERO) {
            coeffs.pop();
        }
        Poly { coeffs }
    }

    /// Polynomial whose coefficients are raw data bytes (the paper's F(X)).
    pub fn from_bytes(data: &[u8]) -> Self {
        Poly::new(data.iter().map(|&b| Gf256(b)).collect())
    }

    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly { coeffs: Vec::new() }
    }

    /// Degree, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.len().checked_sub(1)
    }

    /// Coefficient view (little-endian, trailing zeros trimmed).
    pub fn coeffs(&self) -> &[Gf256] {
        &self.coeffs
    }

    /// Coefficient of `X^i` (zero beyond the degree).
    pub fn coeff(&self, i: usize) -> Gf256 {
        self.coeffs.get(i).copied().unwrap_or(Gf256::ZERO)
    }

    /// Horner evaluation at `x`.
    pub fn eval(&self, x: Gf256) -> Gf256 {
        let mut acc = Gf256::ZERO;
        for &c in self.coeffs.iter().rev() {
            acc = acc * x + c;
        }
        acc
    }

    /// Sum of two polynomials (XOR of coefficients).
    pub fn add(&self, other: &Poly) -> Poly {
        let n = self.coeffs.len().max(other.coeffs.len());
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(self.coeff(i) + other.coeff(i));
        }
        Poly::new(out)
    }

    /// Product of two polynomials (schoolbook; sizes here are tiny).
    #[expect(
        clippy::indexing_slicing,
        reason = "i + j <= out.len() - 1 by construction"
    )]
    pub fn mul(&self, other: &Poly) -> Poly {
        if self.coeffs.is_empty() || other.coeffs.is_empty() {
            return Poly::zero();
        }
        let mut out = vec![Gf256::ZERO; self.coeffs.len() + other.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            if a.is_zero() {
                continue;
            }
            for (j, &b) in other.coeffs.iter().enumerate() {
                out[i + j] += a * b;
            }
        }
        Poly::new(out)
    }

    /// Multiply every coefficient by a scalar.
    pub fn scale(&self, c: Gf256) -> Poly {
        Poly::new(self.coeffs.iter().map(|&a| a * c).collect())
    }

    /// Unique polynomial of degree `< points.len()` through the given
    /// `(x, y)` points (Lagrange interpolation).
    ///
    /// Returns `None` if two points share an `x` coordinate — the erasure
    /// decoder guarantees distinct evaluation points, so `None` here always
    /// indicates a caller bug surfaced as a recoverable error.
    pub fn interpolate(points: &[(Gf256, Gf256)]) -> Option<Poly> {
        for (i, (xi, _)) in points.iter().enumerate() {
            for (xj, _) in points.iter().skip(i + 1) {
                if xi == xj {
                    return None;
                }
            }
        }
        let mut acc = Poly::zero();
        for (i, &(xi, yi)) in points.iter().enumerate() {
            // Basis polynomial l_i(X) = prod_{j != i} (X - x_j) / (x_i - x_j)
            let mut basis = Poly::new(vec![Gf256::ONE]);
            let mut denom = Gf256::ONE;
            for (j, &(xj, _)) in points.iter().enumerate() {
                if i == j {
                    continue;
                }
                basis = basis.mul(&Poly::new(vec![xj, Gf256::ONE]));
                denom *= xi + xj; // subtraction == addition in char 2
            }
            let inv = denom.checked_inv()?;
            acc = acc.add(&basis.scale(yi * inv));
        }
        Some(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trailing_zeros_trimmed() {
        let p = Poly::new(vec![Gf256(1), Gf256(0), Gf256(0)]);
        assert_eq!(p.degree(), Some(0));
        assert_eq!(Poly::zero().degree(), None);
        assert_eq!(Poly::from_bytes(&[]).degree(), None);
    }

    #[test]
    fn eval_constant_and_linear() {
        let c = Poly::from_bytes(&[7]);
        assert_eq!(c.eval(Gf256(99)), Gf256(7));
        // p(X) = 3 + 2X at X = 5: 3 + 2*5 (GF mul)
        let p = Poly::from_bytes(&[3, 2]);
        assert_eq!(p.eval(Gf256(5)), Gf256(3) + Gf256(2) * Gf256(5));
    }

    #[test]
    fn eval_at_zero_is_constant_term() {
        let p = Poly::from_bytes(&[42, 1, 2, 3]);
        assert_eq!(p.eval(Gf256::ZERO), Gf256(42));
    }

    #[test]
    fn add_is_pointwise() {
        let a = Poly::from_bytes(&[1, 2, 3]);
        let b = Poly::from_bytes(&[7, 2]);
        let s = a.add(&b);
        for x in [0u8, 1, 5, 130] {
            assert_eq!(s.eval(Gf256(x)), a.eval(Gf256(x)) + b.eval(Gf256(x)));
        }
        // Self-cancellation: a + a = 0.
        assert_eq!(a.add(&a), Poly::zero());
    }

    #[test]
    fn mul_is_pointwise() {
        let a = Poly::from_bytes(&[1, 2, 3]);
        let b = Poly::from_bytes(&[7, 0, 9]);
        let m = a.mul(&b);
        assert_eq!(m.degree(), Some(4));
        for x in [0u8, 1, 5, 130, 255] {
            assert_eq!(m.eval(Gf256(x)), a.eval(Gf256(x)) * b.eval(Gf256(x)));
        }
        assert_eq!(a.mul(&Poly::zero()), Poly::zero());
    }

    #[test]
    fn interpolation_recovers_polynomial() {
        let p = Poly::from_bytes(&[10, 20, 30, 40, 50]);
        let points: Vec<(Gf256, Gf256)> = (0..5)
            .map(|i| (Gf256::alpha_pow(i), p.eval(Gf256::alpha_pow(i))))
            .collect();
        let q = Poly::interpolate(&points).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn interpolation_with_mixed_points() {
        // Recover F(X) from 2 "data" points (evaluations at distinct x) and
        // 3 "parity" points — the erasure-decoding scenario.
        let p = Poly::from_bytes(&[1, 2, 3, 4, 5]);
        let xs = [
            Gf256(7),
            Gf256(11),
            Gf256::alpha_pow(0),
            Gf256::alpha_pow(3),
            Gf256(200),
        ];
        let pts: Vec<_> = xs.iter().map(|&x| (x, p.eval(x))).collect();
        assert_eq!(Poly::interpolate(&pts).unwrap(), p);
    }

    #[test]
    fn interpolation_rejects_duplicate_x() {
        let pts = [(Gf256(1), Gf256(2)), (Gf256(1), Gf256(3))];
        assert_eq!(Poly::interpolate(&pts), None);
    }

    #[test]
    fn paper_eq1_parity_definition() {
        // p_j = F(alpha^(j-1)) for data d_1..d_k (Eq. 1 of the paper).
        let data = [0x12u8, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde];
        let f = Poly::from_bytes(&data);
        for j in 1..=3usize {
            let pj = f.eval(Gf256::alpha_pow(j - 1));
            // Independent Horner-free computation.
            let mut expect = Gf256::ZERO;
            for (i, &d) in data.iter().enumerate() {
                expect += Gf256(d) * Gf256::alpha_pow(j - 1).pow(i as u64);
            }
            assert_eq!(pj, expect, "parity {j}");
        }
    }
}
