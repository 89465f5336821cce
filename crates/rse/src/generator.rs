//! The systematic generator's parity rows, in closed form.
//!
//! Over the points `x_r = alpha^r`, row `r` of the systematised `n x k`
//! Vandermonde (Rizzo's `fec.c`: right-multiply by the inverse of the top
//! `k x k` block) is the Lagrange basis over the `k` data points evaluated
//! at `x_r`. For parity `j` that is
//! `G[k+j][i] = N_j / ((x_{k+j} - x_i) * w_i)`, where
//! `w_i = prod_{m<k, m!=i} (x_i - x_m)` and `N_j = prod_{m<k} (x_{k+j} - x_m)`.
//! The `k` weights `1 / w_i` cost `O(k^2)` field operations once per code;
//! each row is then `O(k)`, so the encoder's `h` rows cost `O(k^2 + h*k)`
//! instead of `O(k^3 + n*k^2)` for the same matrix, and a decoder derives
//! only the rows a loss pattern chose — the tests hold both equal to
//! `Matrix::systematize`, entry by entry.

use pm_gf::{Gf256, Matrix};

use crate::code::CodeSpec;
use crate::error::RseError;

/// Only differences of distinct points are inverted: a zero is a bug.
fn inv(v: Gf256) -> Result<Gf256, RseError> {
    v.checked_inv().ok_or(RseError::Internal("distinct points"))
}

/// The per-code half of the closed form: the `k` inverse weights `1 / w_i`.
#[derive(Debug, Clone)]
pub(crate) struct Lagrange {
    w_inv: Vec<Gf256>,
}

impl Lagrange {
    /// The weights for `k` data points, in `O(k^2)`.
    pub(crate) fn new(k: usize) -> Result<Self, RseError> {
        let x = Gf256::alpha_pow;
        let w_inv = (0..k)
            .map(|i| {
                let (x_i, others) = (x(i), (0..k).filter(|&m| m != i));
                inv(others.fold(Gf256::ONE, |p, m| p * (x_i - x(m))))
            })
            .collect::<Result<_, _>>()?;
        Ok(Lagrange { w_inv })
    }

    /// The number of data points.
    pub(crate) fn k(&self) -> usize {
        self.w_inv.len()
    }

    /// Append row `r` of the generator (`k <= r < n`, a parity's block
    /// index) to `out`: its `k` coefficients, one per data index, in `O(k)`.
    pub(crate) fn row_into(&self, r: usize, out: &mut Vec<Gf256>) -> Result<(), RseError> {
        let (x, x_r) = (Gf256::alpha_pow, Gf256::alpha_pow(r));
        let n_r = (0..self.k()).fold(Gf256::ONE, |p, m| p * (x_r - x(m)));
        for (i, &w) in self.w_inv.iter().enumerate() {
            out.push(n_r * inv(x_r - x(i))? * w);
        }
        Ok(())
    }
}

/// Parity rows `k..n` of the systematic generator for `spec`, `h x k`.
/// With `h = 0` there are none; the result is a `1 x k` zero dummy that is
/// never read (`Matrix` forbids zero dimensions).
pub(crate) fn parity_rows(spec: &CodeSpec, lagrange: &Lagrange) -> Result<Matrix, RseError> {
    let (k, n) = (spec.k(), spec.n());
    if spec.h() == 0 {
        return Ok(Matrix::zero(1, k));
    }
    let mut coeffs = Vec::with_capacity(spec.h() * k);
    for r in k..n {
        lagrange.row_into(r, &mut coeffs)?;
    }
    Ok(Matrix::from_vec(spec.h(), k, coeffs)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle: systematise the Vandermonde, keep rows `k..n`.
    fn systematised(k: usize, n: usize) -> Matrix {
        let points: Vec<Gf256> = (0..n).map(Gf256::alpha_pow).collect();
        let g = Matrix::vandermonde(&points, k).systematize().unwrap();
        g.select_rows(&(k..n).collect::<Vec<_>>())
    }

    #[test]
    fn closed_form_equals_systematised_vandermonde() {
        let small = (1..=40).flat_map(|n| (1..n).map(move |k| (k, n)));
        let large = [(7, 255), (20, 255), (100, 255), (254, 255), (1, 255)];
        for (k, n) in small.chain(large) {
            let spec = CodeSpec::new(k, n - k).unwrap();
            let lagrange = Lagrange::new(k).unwrap();
            let oracle = systematised(k, n);
            assert_eq!(parity_rows(&spec, &lagrange).unwrap(), oracle, "({k},{n})");
            // Every row a decoder derives on its own, in any order.
            let dec = crate::RseDecoder::new(spec).unwrap();
            for r in (k..n).rev() {
                assert_eq!(
                    dec.parity_row(r).unwrap(),
                    oracle.row(r - k),
                    "({k},{n}) row {r}"
                );
            }
        }
    }

    #[test]
    fn no_parities_gives_the_zero_dummy() {
        for k in (1..=40).chain([255]) {
            let spec = CodeSpec::new(k, 0).unwrap();
            let lagrange = Lagrange::new(k).unwrap();
            assert_eq!(parity_rows(&spec, &lagrange).unwrap(), Matrix::zero(1, k));
        }
    }
}
