//! Dense matrices over GF(2^8) for erasure encoding/decoding.
//!
//! The systematic RSE code is defined by an `n x k` generator matrix `G`
//! whose top `k` rows are the identity (data passes through untouched) and
//! whose lower `h` rows produce parities. Decoding any `k` received packets
//! reduces to inverting the `k x k` submatrix of `G` selected by the received
//! row indices — Gauss–Jordan over GF(2^8), here.

use crate::error::GfError;
use crate::gf256::Gf256;
use crate::mul_table::mul_row;

/// A row-major dense matrix over GF(2^8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Gf256>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
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
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m[(i, i)] = Gf256::ONE;
        }
        m
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

    /// Matrix over row-major `data`, for builders whose entries are fallible
    /// (they collect into a `Result<Vec<_>, _>` first).
    ///
    /// # Errors
    /// [`GfError::DimensionMismatch`] unless `data` holds exactly
    /// `rows * cols > 0` entries.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Gf256>) -> Result<Self, GfError> {
        if data.is_empty() || data.len() != rows * cols {
            return Err(GfError::DimensionMismatch {
                expected: rows * cols,
                got: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Vandermonde matrix `V[r][c] = x_r ^ c` over the given evaluation
    /// points. Any `k` rows with distinct points are linearly independent,
    /// which is exactly the MDS property the erasure code needs.
    #[expect(clippy::indexing_slicing, reason = "from_fn passes r < points.len()")]
    pub fn vandermonde(points: &[Gf256], cols: usize) -> Self {
        Matrix::from_fn(points.len(), cols, |r, c| points[r].pow(c as u64))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `r` as a slice.
    #[expect(
        clippy::indexing_slicing,
        reason = "r < rows is the caller's contract, as in a slice"
    )]
    pub fn row(&self, r: usize) -> &[Gf256] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "r < rows is the caller's contract, as in a slice"
    )]
    fn row_mut(&mut self, r: usize) -> &mut [Gf256] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * rhs` — the scalar oracle of this crate's
    /// tests. Codec products run on `pm-simd`'s matrix kernel instead.
    ///
    /// # Errors
    /// [`GfError::DimensionMismatch`] if inner dimensions disagree.
    #[cfg(test)]
    pub fn mul(&self, rhs: &Matrix) -> Result<Matrix, GfError> {
        if self.cols != rhs.rows {
            return Err(GfError::DimensionMismatch {
                expected: self.cols,
                got: rhs.rows,
            });
        }
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for r in 0..self.rows {
            for i in 0..self.cols {
                let a = self[(r, i)];
                if a.is_zero() {
                    continue;
                }
                for c in 0..rhs.cols {
                    out[(r, c)] += a * rhs[(i, c)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product.
    ///
    /// # Errors
    /// [`GfError::DimensionMismatch`] if the vector length is not `cols`.
    pub fn mul_vec(&self, v: &[Gf256]) -> Result<Vec<Gf256>, GfError> {
        if v.len() != self.cols {
            return Err(GfError::DimensionMismatch {
                expected: self.cols,
                got: v.len(),
            });
        }
        Ok((0..self.rows)
            .map(|r| {
                self.row(r)
                    .iter()
                    .zip(v)
                    .fold(Gf256::ZERO, |acc, (&a, &b)| acc + a * b)
            })
            .collect())
    }

    /// New matrix made of the selected rows (in the given order).
    ///
    /// # Panics
    /// Panics if `rows` is empty or an index is out of bounds.
    pub fn select_rows(&self, rows: &[usize]) -> Matrix {
        assert!(!rows.is_empty(), "select_rows: empty selection");
        let mut m = Matrix::zero(rows.len(), self.cols);
        for (dst, &src) in rows.iter().enumerate() {
            assert!(src < self.rows, "select_rows: row {src} out of bounds");
            m.row_mut(dst).copy_from_slice(self.row(src));
        }
        m
    }

    /// Gauss–Jordan inverse. Each row operation multiplies through one row
    /// of the shared multiplication table, so an element costs one lookup.
    ///
    /// # Errors
    /// [`GfError::SingularMatrix`] if not invertible,
    /// [`GfError::DimensionMismatch`] if not square.
    #[expect(
        clippy::expect_used,
        reason = "the pivot search returns only non-zero pivots"
    )]
    pub fn invert(&self) -> Result<Matrix, GfError> {
        if self.rows != self.cols {
            return Err(GfError::DimensionMismatch {
                expected: self.rows,
                got: self.cols,
            });
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = Matrix::identity(n);
        for col in 0..n {
            // Find a pivot (any non-zero element works in a finite field).
            let pivot = (col..n)
                .find(|&r| !a[(r, col)].is_zero())
                .ok_or(GfError::SingularMatrix)?;
            if pivot != col {
                a.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            let p_inv = mul_row(a[(col, col)].checked_inv().expect("pivot is non-zero"));
            for c in 0..n {
                a[(col, c)] = times(p_inv, a[(col, c)]);
                inv[(col, c)] = times(p_inv, inv[(col, c)]);
            }
            for r in 0..n {
                if r == col || a[(r, col)].is_zero() {
                    continue;
                }
                let factor = mul_row(a[(r, col)]);
                for c in 0..n {
                    let av = a[(col, c)];
                    let iv = inv[(col, c)];
                    a[(r, c)] += times(factor, av);
                    inv[(r, c)] += times(factor, iv);
                }
            }
        }
        Ok(inv)
    }

    /// Swap two rows in place.
    #[expect(
        clippy::indexing_slicing,
        reason = "lo < hi < rows is the caller's contract, so both rows lie inside data"
    )]
    pub fn swap_rows(&mut self, r1: usize, r2: usize) {
        if r1 == r2 {
            return;
        }
        let (lo, hi) = (r1.min(r2), r1.max(r2));
        let (head, tail) = self.data.split_at_mut(hi * self.cols);
        head[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut tail[..self.cols]);
    }

    /// Turn an `n x k` MDS generator candidate into *systematic* form: right-
    /// multiply by the inverse of its top `k x k` block so the top becomes
    /// the identity. This is how Rizzo's `fec.c` builds its generator: the
    /// result still has the property that any `k` rows are invertible, but
    /// data symbols now pass through the code unchanged. The RSE codec
    /// writes its generator down in closed form; this is the oracle its
    /// tests hold that form to.
    ///
    /// # Errors
    /// [`GfError::DimensionMismatch`] if `rows < cols`;
    /// [`GfError::SingularMatrix`] if the top block is singular (cannot
    /// happen for distinct Vandermonde points).
    pub fn systematize(&self) -> Result<Matrix, GfError> {
        if self.rows < self.cols {
            return Err(GfError::DimensionMismatch {
                expected: self.cols,
                got: self.rows,
            });
        }
        let k = self.cols;
        let top = self.select_rows(&(0..k).collect::<Vec<_>>());
        let top_inv = top.invert()?;
        Ok(Matrix::from_fn(self.rows, k, |r, c| {
            (0..k).fold(Gf256::ZERO, |acc, i| acc + self[(r, i)] * top_inv[(i, c)])
        }))
    }
}

/// `c * x`, where `row` is `c`'s multiplication row.
#[inline]
#[expect(clippy::indexing_slicing, reason = "a u8 indexes the 256-entry row")]
fn times(row: &[u8; 256], x: Gf256) -> Gf256 {
    Gf256(row[x.0 as usize])
}

#[expect(
    clippy::indexing_slicing,
    reason = "the (row, col) index panics out of range, as a slice index does"
)]
impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = Gf256;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Gf256 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

#[expect(
    clippy::indexing_slicing,
    reason = "the (row, col) index panics out of range, as a slice index does"
)]
impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Gf256 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_matrix() -> Matrix {
        // A 3x3 Vandermonde over distinct points: guaranteed invertible.
        Matrix::vandermonde(&[Gf256(1), Gf256(2), Gf256(3)], 3)
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let m = demo_matrix();
        let i = Matrix::identity(3);
        assert_eq!(m.mul(&i).unwrap(), m);
        assert_eq!(i.mul(&m).unwrap(), m);
    }

    #[test]
    fn inverse_times_self_is_identity() {
        let m = demo_matrix();
        let inv = m.invert().unwrap();
        assert_eq!(m.mul(&inv).unwrap(), Matrix::identity(3));
        assert_eq!(inv.mul(&m).unwrap(), Matrix::identity(3));
    }

    #[test]
    fn from_vec_is_row_major_and_checks_the_shape() {
        let data: Vec<Gf256> = (1..=6).map(Gf256).collect();
        let m = Matrix::from_vec(2, 3, data.clone()).unwrap();
        assert_eq!(m, Matrix::from_fn(2, 3, |r, c| data[r * 3 + c]));
        for (rows, cols) in [(3, 3), (0, 6), (6, 0)] {
            assert!(matches!(
                Matrix::from_vec(rows, cols, data.clone()),
                Err(GfError::DimensionMismatch { .. })
            ));
        }
        assert!(Matrix::from_vec(0, 0, Vec::new()).is_err());
    }

    #[test]
    fn singular_matrix_detected() {
        let mut m = Matrix::zero(2, 2);
        m[(0, 0)] = Gf256(5);
        m[(0, 1)] = Gf256(7);
        m[(1, 0)] = Gf256(5);
        m[(1, 1)] = Gf256(7);
        assert_eq!(m.invert().unwrap_err(), GfError::SingularMatrix);
    }

    #[test]
    fn non_square_inversion_errors() {
        let m = Matrix::zero(2, 3);
        assert!(matches!(m.invert(), Err(GfError::DimensionMismatch { .. })));
    }

    #[test]
    fn mul_dimension_mismatch_errors() {
        let a = Matrix::zero(2, 3);
        let b = Matrix::zero(2, 2);
        assert!(matches!(a.mul(&b), Err(GfError::DimensionMismatch { .. })));
        assert!(matches!(
            a.mul_vec(&[Gf256::ONE; 2]),
            Err(GfError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn vandermonde_any_k_rows_invertible() {
        // MDS property over a larger-than-square Vandermonde.
        let points: Vec<Gf256> = (0..8).map(|i| Gf256(i as u8 + 1)).collect();
        let v = Matrix::vandermonde(&points, 4);
        // Try several 4-row subsets, including non-contiguous ones.
        for rows in [[0usize, 1, 2, 3], [4, 5, 6, 7], [0, 2, 5, 7], [1, 3, 4, 6]] {
            let sub = v.select_rows(&rows);
            sub.invert()
                .unwrap_or_else(|_| panic!("rows {rows:?} should be invertible"));
        }
    }

    #[test]
    fn systematize_top_is_identity_and_stays_mds() {
        let points: Vec<Gf256> = (0..10).map(Gf256::alpha_pow).collect();
        let v = Matrix::vandermonde(&points, 6);
        let g = v.systematize().unwrap();
        for r in 0..6 {
            for c in 0..6 {
                let want = if r == c { Gf256::ONE } else { Gf256::ZERO };
                assert_eq!(g[(r, c)], want, "({r},{c})");
            }
        }
        // Spot-check MDS: a mixed data/parity row selection still inverts.
        let sub = g.select_rows(&[0, 7, 2, 8, 4, 9]);
        sub.invert().unwrap();
    }

    #[test]
    fn mul_vec_matches_mul() {
        let m = demo_matrix();
        let v = vec![Gf256(9), Gf256(8), Gf256(7)];
        let mv = m.mul_vec(&v).unwrap();
        let col = Matrix::from_fn(3, 1, |r, _| v[r]);
        let mm = m.mul(&col).unwrap();
        for r in 0..3 {
            assert_eq!(mv[r], mm[(r, 0)]);
        }
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
}
