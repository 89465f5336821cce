//! Dense matrices over GF(2^8), kept as the tests' oracle.
//!
//! Rizzo's `fec.c` builds the systematic generator by right-multiplying an
//! `n x k` Vandermonde by the inverse of its top `k x k` block, and decodes
//! any `k` received packets by inverting the `k x k` submatrix their rows
//! select — Gauss–Jordan. The codec writes both down in closed form
//! (`generator.rs`); this module is what the tests hold that form to, and
//! is compiled for tests only.

#![cfg(test)]

use std::ops::{Index, IndexMut};

use pm_gf::Gf256;

/// A row-major dense matrix over GF(2^8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Gf256>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zero(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix {
            rows,
            cols,
            data: vec![Gf256::ZERO; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        Matrix::from_fn(n, n, |r, c| if r == c { Gf256::ONE } else { Gf256::ZERO })
    }

    /// Build a matrix from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Gf256) -> Self {
        let mut m = Matrix::zero(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Vandermonde matrix `V[r][c] = x_r ^ c` over the given evaluation
    /// points. Any `k` rows with distinct points are linearly independent,
    /// which is exactly the MDS property the erasure code needs.
    pub fn vandermonde(points: &[Gf256], cols: usize) -> Self {
        Matrix::from_fn(points.len(), cols, |r, c| points[r].pow(c as u64))
    }

    /// Borrow row `r` as a slice.
    pub fn row(&self, r: usize) -> &[Gf256] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * rhs`.
    pub fn mul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "inner dimensions disagree");
        Matrix::from_fn(self.rows, rhs.cols, |r, c| {
            (0..self.cols).fold(Gf256::ZERO, |acc, i| acc + self[(r, i)] * rhs[(i, c)])
        })
    }

    /// New matrix made of the selected rows (in the given order).
    pub fn select_rows(&self, rows: &[usize]) -> Matrix {
        Matrix::from_fn(rows.len(), self.cols, |r, c| self[(rows[r], c)])
    }

    /// Gauss–Jordan inverse; `None` if the matrix is singular.
    pub fn invert(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "only a square matrix inverts");
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = Matrix::identity(n);
        for col in 0..n {
            // Any non-zero pivot works in a finite field.
            let pivot = (col..n).find(|&r| !a[(r, col)].is_zero())?;
            a.swap_rows(pivot, col);
            inv.swap_rows(pivot, col);
            let p_inv = a[(col, col)].checked_inv()?;
            for c in 0..n {
                a[(col, c)] *= p_inv;
                inv[(col, c)] *= p_inv;
            }
            for r in 0..n {
                let factor = a[(r, col)];
                if r == col || factor.is_zero() {
                    continue;
                }
                for c in 0..n {
                    let (av, iv) = (a[(col, c)], inv[(col, c)]);
                    a[(r, c)] += factor * av;
                    inv[(r, c)] += factor * iv;
                }
            }
        }
        Some(inv)
    }

    /// Swap two rows in place.
    pub fn swap_rows(&mut self, r1: usize, r2: usize) {
        for c in 0..self.cols {
            self.data.swap(r1 * self.cols + c, r2 * self.cols + c);
        }
    }

    /// Turn an `n x k` MDS generator candidate into *systematic* form:
    /// right-multiply by the inverse of its top `k x k` block so the top
    /// becomes the identity. Any `k` rows of the result are still
    /// invertible, but data symbols now pass through the code unchanged.
    /// `None` if the top block is singular (it cannot be, for distinct
    /// Vandermonde points).
    pub fn systematize(&self) -> Option<Matrix> {
        assert!(self.rows >= self.cols, "a generator has at least k rows");
        let top = self.select_rows(&(0..self.cols).collect::<Vec<_>>());
        Some(self.mul(&top.invert()?))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = Gf256;
    fn index(&self, (r, c): (usize, usize)) -> &Gf256 {
        assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Gf256 {
        assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

mod tests {
    use super::*;
    use proptest::prelude::*;

    fn demo_matrix() -> Matrix {
        // A 3x3 Vandermonde over distinct points: guaranteed invertible.
        Matrix::vandermonde(&[Gf256(1), Gf256(2), Gf256(3)], 3)
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let m = demo_matrix();
        let i = Matrix::identity(3);
        assert_eq!(m.mul(&i), m);
        assert_eq!(i.mul(&m), m);
    }

    #[test]
    fn inverse_times_self_is_identity() {
        let m = demo_matrix();
        let inv = m.invert().unwrap();
        assert_eq!(m.mul(&inv), Matrix::identity(3));
        assert_eq!(inv.mul(&m), Matrix::identity(3));
    }

    #[test]
    fn singular_matrix_detected() {
        let m = Matrix::from_fn(2, 2, |_, c| [Gf256(5), Gf256(7)][c]);
        assert_eq!(m.invert(), None);
    }

    #[test]
    fn vandermonde_any_k_rows_invertible() {
        // MDS property over a larger-than-square Vandermonde.
        let points: Vec<Gf256> = (0..8).map(|i| Gf256(i as u8 + 1)).collect();
        let v = Matrix::vandermonde(&points, 4);
        // Try several 4-row subsets, including non-contiguous ones.
        for rows in [[0usize, 1, 2, 3], [4, 5, 6, 7], [0, 2, 5, 7], [1, 3, 4, 6]] {
            assert!(v.select_rows(&rows).invert().is_some(), "rows {rows:?}");
        }
    }

    #[test]
    fn systematize_top_is_identity_and_stays_mds() {
        let points: Vec<Gf256> = (0..10).map(Gf256::alpha_pow).collect();
        let g = Matrix::vandermonde(&points, 6).systematize().unwrap();
        assert_eq!(g.select_rows(&[0, 1, 2, 3, 4, 5]), Matrix::identity(6));
        // Spot-check MDS: a mixed data/parity row selection still inverts.
        assert!(g.select_rows(&[0, 7, 2, 8, 4, 9]).invert().is_some());
    }

    #[test]
    fn swap_rows_swaps() {
        let mut m = demo_matrix();
        let r0: Vec<_> = m.row(0).to_vec();
        let r2: Vec<_> = m.row(2).to_vec();
        m.swap_rows(0, 2);
        assert_eq!(m.row(0), &r2[..]);
        assert_eq!(m.row(2), &r0[..]);
        m.swap_rows(1, 1); // no-op must not panic
    }

    #[test]
    #[should_panic(expected = "dimensions must be non-zero")]
    fn zero_dimension_panics() {
        let _ = Matrix::zero(0, 3);
    }

    proptest! {
        #[test]
        fn random_vandermonde_subsets_invert(
            k in 2usize..8,
            extra in 1usize..8,
            seed in any::<u64>(),
        ) {
            // Any k rows of an n x k Vandermonde over distinct points invert.
            let n = k + extra;
            let points: Vec<Gf256> = (0..n).map(Gf256::alpha_pow).collect();
            let v = Matrix::vandermonde(&points, k);
            // Pick k distinct rows pseudo-randomly from the seed.
            let mut rows: Vec<usize> = (0..n).collect();
            let mut s = seed.wrapping_add(1);
            for i in (1..rows.len()).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = (s >> 33) as usize % (i + 1);
                rows.swap(i, j);
            }
            rows.truncate(k);
            prop_assert!(v.select_rows(&rows).invert().is_some());
        }

        #[test]
        fn matrix_inverse_involution(vals in proptest::collection::vec(any::<u8>(), 9..=9)) {
            let m = Matrix::from_fn(3, 3, |r, c| Gf256(vals[r * 3 + c]));
            if let Some(inv) = m.invert() {
                prop_assert_eq!(inv.invert().unwrap(), m);
            }
        }
    }
}
