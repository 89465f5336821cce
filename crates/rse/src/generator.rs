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
//! `w_i = prod_{m<k, m!=i} (x_i - x_m)`, in `O(k^2)`. Every other factor
//! is a `log(x_a - x_r)` the rows need anyway, looked up once: a row's
//! `Q(a)` is the product of its own entries' denominators, an arrived data
//! point's `Q(r)` is its weight with the chosen parities' factors added
//! and — in a decode, whose rows are the missing points — its column's
//! denominators taken out, and a chosen parity's `Q(c)` is the product of
//! the factors it shares with the arrived points and the other parities.
//! So the `l x k` decode rows cost about `2 l k` log lookups and the
//! encoder's `h x k` block `h k`. All of it runs in the log domain on
//! pm-gf's tables, read once per call: an entry is one xor, one log
//! lookup, two adds (one conditionally reduced) and one exp lookup. The
//! tests hold both row sets equal, entry by entry, to the Gauss–Jordan
//! oracle.

use pm_gf::gf256::log_exp;
use pm_gf::Gf256;

use crate::code::MAX_BLOCK;

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
        usize::from(self.log_byte(v))
    }

    /// `log_alpha v` for `v != 0`, as the table's byte (it is below 255).
    fn log_byte(self, v: u8) -> u8 {
        self.log.get(usize::from(v)).copied().unwrap_or(0)
    }

    /// The points `x_i` of the first `k <= 255` block indices.
    fn first(self, k: usize) -> &'static [u8] {
        self.exp.get(..k).unwrap_or_default()
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
    ///
    /// Each `log(x_a - x_r)` of a row point and a column point is looked up
    /// once and serves three sums as well as its entry: row `a`'s
    /// `log Q(a)` is its row's sum, and when `at` is `missing` (a decode)
    /// an arrived column's sum is the factor its `Q` lacks for the missing
    /// points. Likewise each `log(x_c - x_r)` of a chosen parity and an
    /// arrived point adds to both columns' `Q`. A decode's set-up is about
    /// `2 l k` lookups, and the encoder's `h x k` block `h k`.
    pub(crate) fn rows(&self, missing: &[usize], chosen: &[usize], at: &[usize]) -> Vec<Gf256> {
        let t = Tables::get();
        let k = self.log_w.len();
        let arrived = k.saturating_sub(chosen.len());
        // Column c as its point x_c and log Q(c) being summed. An arrived
        // data point starts from its weight, with 255 l of headroom for
        // the missing points' factors it lacks; a chosen parity from 0.
        let (mut x_col, mut log_q_col) = ([0u8; MAX_BLOCK], [0usize; MAX_BLOCK]);
        let x_col = x_col.get_mut(..k).unwrap_or_default();
        let log_q_col = log_q_col.get_mut(..k).unwrap_or_default();
        let mut gaps = missing.iter().peekable();
        let data_cols = (0..k).filter(|&i| gaps.next_if_eq(&&i).is_none());
        let headroom = 255 * missing.len();
        let starts = data_cols
            .map(|i| (i, self.log_w.get(i).map_or(0, |&w| w + headroom)))
            .chain(chosen.iter().map(|&c| (c, 0)));
        for ((x, q), (b, start)) in x_col.iter_mut().zip(log_q_col.iter_mut()).zip(starts) {
            (*x, *q) = (t.exp(b), start);
        }
        let (x_arrived, x_chosen) = x_col.split_at(arrived);
        let (q_arrived, q_chosen) = log_q_col.split_at_mut(arrived);
        for (&x_c, q_c) in x_chosen.iter().zip(q_chosen.iter_mut()) {
            for (&x_r, q_r) in x_arrived.iter().zip(q_arrived.iter_mut()) {
                let d = t.log(x_c ^ x_r);
                *q_c += d;
                *q_r += d;
            }
            *q_c += t.log_prod(x_c, x_chosen);
        }
        let lacked_by_rows = at == missing;
        if !lacked_by_rows {
            for (&x_r, q_r) in x_arrived.iter().zip(q_arrived.iter_mut()) {
                *q_r -= missing
                    .iter()
                    .map(|&m| t.log(x_r ^ t.exp(m)))
                    .sum::<usize>();
            }
        }
        // The entries' logs, summed along rows (and, in a decode, down the
        // arrived columns), then turned into the entries in place.
        let mut out = vec![Gf256::ZERO; at.len() * k];
        let mut log_q_row = Vec::with_capacity(at.len());
        for (&a, row) in at.iter().zip(out.chunks_exact_mut(k.max(1))) {
            let x_a = t.exp(a);
            let mut sum = 0;
            let (row_arrived, row_chosen) = row.split_at_mut(arrived);
            for ((e, &x_r), q_r) in row_arrived
                .iter_mut()
                .zip(x_arrived)
                .zip(q_arrived.iter_mut())
            {
                let d = t.log_byte(x_a ^ x_r);
                *e = Gf256(d);
                sum += usize::from(d);
                if lacked_by_rows {
                    *q_r -= usize::from(d);
                }
            }
            for (e, &x_c) in row_chosen.iter_mut().zip(x_chosen) {
                let d = t.log_byte(x_a ^ x_c);
                *e = Gf256(d);
                sum += usize::from(d);
            }
            log_q_row.push(sum % 255);
        }
        // Column c's -log Q(c), reduced below 255.
        for q in log_q_col.iter_mut() {
            *q = (255 - *q % 255) % 255;
        }
        for (row, &log_q_a) in out.chunks_exact_mut(k.max(1)).zip(&log_q_row) {
            for (e, &neg_log_q_r) in row.iter_mut().zip(&*log_q_col) {
                let sum = log_q_a + neg_log_q_r;
                let sum = if sum >= 255 { sum - 255 } else { sum };
                *e = Gf256(t.exp(sum + 255 - usize::from(e.0)));
            }
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
