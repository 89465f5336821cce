//! The systematic generator's parity rows, in closed form.
//!
//! Over the points `x_r = alpha^r`, row `r` of the systematised `n x k`
//! Vandermonde (Rizzo's `fec.c`: right-multiply by the inverse of the top
//! `k x k` block) is the Lagrange basis over the `k` data points evaluated
//! at `x_r`. For parity `j` that is
//! `G[k+j][i] = N_j / ((x_{k+j} - x_i) * w_i)`, where
//! `w_i = prod_{m<k, m!=i} (x_i - x_m)` and `N_j = prod_{m<k} (x_{k+j} - x_m)`:
//! `O(k^2 + h*k)` field operations instead of `O(k^3 + n*k^2)` for the same
//! matrix — the tests hold it equal to `Matrix::systematize`, entry by entry.

use pm_gf::{Gf256, Matrix};

use crate::code::CodeSpec;
use crate::error::RseError;

/// Parity rows `k..n` of the systematic generator for `spec`, `h x k`.
/// With `h = 0` there are none; the result is a `1 x k` zero dummy that is
/// never read (`Matrix` forbids zero dimensions).
pub(crate) fn parity_rows(spec: &CodeSpec) -> Result<Matrix, RseError> {
    let (k, n) = (spec.k(), spec.n());
    if spec.h() == 0 {
        return Ok(Matrix::zero(1, k));
    }
    let x = Gf256::alpha_pow;
    // Only differences of distinct points are inverted: a zero is a bug.
    let inv = |v: Gf256| v.checked_inv().ok_or(RseError::Internal("distinct points"));
    // prod over m < k, m != skip of (at - x_m); `skip = k` skips nothing.
    let vanish = |at: Gf256, skip: usize| {
        (0..k)
            .filter(|&m| m != skip)
            .fold(Gf256::ONE, |p, m| p * (at - x(m)))
    };
    let w_inv = (0..k)
        .map(|i| inv(vanish(x(i), i)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut coeffs = Vec::with_capacity(spec.h() * k);
    for r in k..n {
        let n_j = vanish(x(r), k);
        for (i, &w) in w_inv.iter().enumerate() {
            coeffs.push(n_j * inv(x(r) - x(i))? * w);
        }
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
            assert_eq!(parity_rows(&spec).unwrap(), systematised(k, n), "({k},{n})");
        }
    }

    #[test]
    fn no_parities_gives_the_zero_dummy() {
        for k in (1..=40).chain([255]) {
            let spec = CodeSpec::new(k, 0).unwrap();
            assert_eq!(parity_rows(&spec).unwrap(), Matrix::zero(1, k));
        }
    }
}
