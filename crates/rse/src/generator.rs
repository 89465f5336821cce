//! The code's rows in closed form: encoding and decoding are one
//! interpolation.
//!
//! The paper's Section 2.1 and Eq. 1 define the code as one polynomial `f`
//! of degree below `k` evaluated at distinct points `x_r = alpha^r`: data
//! packet `i` is `f(x_i)` and parity `r` (block index `k <= r < n`) is
//! `f(x_r)`. Any `k` values determine `f`, so from the values at a
//! selection `R` of `k` block indices the value at any other point `a` is
//!
//! ```text
//! f(x_a) = sum_{r in R} f(x_r) * Q(a) / ((x_a - x_r) * Q(r)),
//! Q(b)   = prod_{s in R, s != b} (x_b - x_s)
//! ```
//!
//! (Lagrange). The encoder's parity rows are that with `R` the data points
//! and `a = k..n` — the systematised `n x k` Vandermonde of Rizzo's
//! `fec.c`, written down directly. A decoder's rows are that with `R` the
//! data that arrived plus the `l` parities chosen to stand in, and `a` the
//! missing data points: the rows of the selection's inverse that belong to
//! the missing packets, with no system to solve and no singular case,
//! because the points are distinct.
//!
//! The only per-code state is the `k` data weights
//! `w_i = prod_{m<k, m!=i} (x_i - x_m)`, in `O(k^2)`. Every `Q(b)` is a
//! weight — or, for a parity point, `prod_{i<k} (x_b - x_i)` in `O(k)` —
//! corrected by the `O(l)` factors of the `l` data points the selection
//! lacks and the `l` parities it adds. So the `l x k` decode rows cost
//! `O(k*l)` and the encoder's `h x k` block `O(h*k)`. All of it runs in the
//! log domain on pm-gf's tables, read once per call: an entry is one xor,
//! one log lookup, two adds (one conditionally reduced) and one exp
//! lookup. The tests hold both row sets equal, entry by entry, to the
//! Gauss–Jordan oracle.

use pm_gf::gf256::log_exp;
use pm_gf::Gf256;

/// pm-gf's log and exp tables, read once per call.
#[derive(Clone, Copy)]
struct Tables {
    log: &'static [u8; 256],
    exp: &'static [u8; 512],
}

impl Tables {
    fn get() -> Self {
        let (log, exp) = log_exp();
        Tables { log, exp }
    }

    /// `alpha^i` for `i < 512`: a block index's point, or a sum of logs.
    fn exp(self, i: usize) -> u8 {
        self.exp.get(i).copied().unwrap_or(0)
    }

    /// `log_alpha v` for `v != 0`.
    fn log(self, v: u8) -> usize {
        self.log.get(usize::from(v)).map_or(0, |&l| usize::from(l))
    }

    /// The points `x_i` of the first `k <= 255` block indices.
    fn first(self, k: usize) -> &'static [u8] {
        self.exp.get(..k).unwrap_or_default()
    }

    /// The points of the block indices `points`.
    fn points(self, points: &[usize]) -> Vec<u8> {
        points.iter().map(|&p| self.exp(p)).collect()
    }

    /// `log prod_{x in xs, x != x_b} (x_b - x)`, unreduced.
    fn log_prod(self, x_b: u8, xs: &[u8]) -> usize {
        xs.iter()
            .filter(|&&x| x != x_b)
            .map(|&x| self.log(x_b ^ x))
            .sum()
    }
}

/// The closed form's per-code state: `log w_i` for the `k` data points.
#[derive(Debug, Clone)]
pub(crate) struct Lagrange {
    log_w: Vec<usize>,
}

impl Lagrange {
    /// The weights for `k <= 255` data points, in `O(k^2)`.
    pub(crate) fn new(k: usize) -> Self {
        let t = Tables::get();
        let data = t.first(k);
        let log_w = data
            .iter()
            .map(|&x_i| t.log_prod(x_i, data) % 255)
            .collect();
        Lagrange { log_w }
    }

    /// The rows that carry the values at `R = ([0, k) \ missing) ∪ chosen`
    /// to the points `at`: `at.len() x k`, row-major, one column per point
    /// of `R` — the data points outside `missing` ascending, then `chosen`.
    /// `missing` holds ascending data indices and `chosen` as many parity
    /// indices; no point of `at` lies in `R`.
    pub(crate) fn rows(&self, missing: &[usize], chosen: &[usize], at: &[usize]) -> Vec<Gf256> {
        let t = Tables::get();
        let k = self.log_w.len();
        let data = t.first(k);
        let (x_missing, x_chosen) = (t.points(missing), t.points(chosen));
        // Block index b as (x_b, log Q(b)): the product over all data points
        // (a stored weight, or O(k) for a parity), with the chosen parities'
        // factors added and the missing points' taken out, reduced below 255.
        let point = |b: usize| {
            let x_b = t.exp(b);
            let all_data = match self.log_w.get(b) {
                Some(&log_w) => log_w,
                None => t.log_prod(x_b, data),
            };
            let added = t.log_prod(x_b, &x_chosen);
            let lacked = t.log_prod(x_b, &x_missing);
            (
                x_b,
                (all_data + added + 255 * x_missing.len() - lacked) % 255,
            )
        };
        let mut gaps = missing.iter().peekable();
        let arrived = (0..k).filter(|&i| gaps.next_if_eq(&&i).is_none());
        // Each point of R as (x_r, -log Q(r)).
        let cols: Vec<(u8, usize)> = arrived
            .chain(chosen.iter().copied())
            .map(|r| {
                let (x_r, log_q_r) = point(r);
                (x_r, (255 - log_q_r) % 255)
            })
            .collect();
        let mut out = Vec::with_capacity(at.len() * cols.len());
        for &a in at {
            let (x_a, log_q_a) = point(a);
            out.extend(cols.iter().map(|&(x_r, neg_log_q_r)| {
                let sum = log_q_a + neg_log_q_r;
                let sum = if sum >= 255 { sum - 255 } else { sum };
                Gf256(t.exp(sum + 255 - t.log(x_a ^ x_r)))
            }));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::CodeSpec;
    use crate::matrix::Matrix;

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
            let lagrange = Lagrange::new(k);
            let oracle = systematised(k, n);
            let rows = lagrange.rows(&[], &[], &(k..n).collect::<Vec<_>>());
            assert_eq!(rows.len(), spec.h() * k);
            for (j, row) in rows.chunks_exact(k).enumerate() {
                assert_eq!(row, oracle.row(j), "({k},{n}) row {}", k + j);
            }
            // Every row on its own, in any order.
            for r in (k..n).rev() {
                assert_eq!(
                    lagrange.rows(&[], &[], &[r]),
                    oracle.row(r - k),
                    "({k},{n}) row {r}"
                );
            }
        }
    }

    #[test]
    fn no_points_give_no_rows() {
        for k in (1..=40).chain([255]) {
            assert!(Lagrange::new(k).rows(&[], &[], &[]).is_empty());
        }
    }
}
