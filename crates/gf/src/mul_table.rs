//! The full GF(2^8) multiplication table — 64 KB, built once, shared.
//!
//! The bulk slice kernels in [`crate::slice`] need a 256-entry lookup row
//! `row[x] = c * x` for each coefficient `c` they apply. The seed built that
//! row on the stack *per call*, costing 256 exp/log multiplications (and a
//! 256-byte write) before touching a single packet byte. For the RSE
//! encoder's inner loop — `h * k` coefficient applications per FEC block —
//! that row construction is pure overhead.
//!
//! [`MulTable`] instead materialises the entire 256x256 product table once
//! (Rizzo's `fec.c` keeps the same `gf_mul_table`), lazily on first use, and
//! hands out `&'static` borrows of its rows. A row borrow is a pointer copy;
//! the 64 KB table stays hot in L1/L2 across calls because every coefficient
//! of every block walks the same storage.

use crate::gf256::{fill_mul_row, Gf256};
use std::sync::OnceLock;

/// The complete GF(2^8) multiplication table: `rows[c][x] == c * x`.
///
/// Obtain the process-wide instance with [`MulTable::shared`]; rows borrowed
/// from it are `&'static` and can be cached freely (see the encoder's
/// cached coefficient rows in `pm-rse`).
pub struct MulTable {
    rows: Box<[[u8; 256]; 256]>,
}

impl MulTable {
    /// Build the table (65536 field multiplications via exp/log rows).
    #[expect(
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::cast_possible_truncation,
        reason = "a 256-row boxed slice converts to [_; 256], and c < 256 indexes it and fits u8"
    )]
    fn build() -> MulTable {
        // Build on the heap: a 64 KB by-value array would transit the stack.
        let mut rows: Box<[[u8; 256]; 256]> = vec![[0u8; 256]; 256]
            .into_boxed_slice()
            .try_into()
            .expect("vec of 256 rows");
        for c in 0..256usize {
            fill_mul_row(Gf256((c & 0xff) as u8), &mut rows[c]);
        }
        MulTable { rows }
    }

    /// The lazily-initialised process-wide table.
    pub fn shared() -> &'static MulTable {
        static TABLE: OnceLock<MulTable> = OnceLock::new();
        TABLE.get_or_init(MulTable::build)
    }

    /// The multiplication row for coefficient `c`: `row[x] == c * x`.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "a u8 indexes the 256 rows")]
    pub fn row(&self, c: Gf256) -> &[u8; 256] {
        &self.rows[c.0 as usize]
    }
}

/// The `&'static` multiplication row for `c` from the shared table.
///
/// This is the hot-path entry point: one index into the shared 64 KB table,
/// no per-call row construction.
#[inline]
pub fn mul_row(c: Gf256) -> &'static [u8; 256] {
    MulTable::shared().row(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_matches_scalar_mul() {
        let t = MulTable::shared();
        for c in 0..=255u8 {
            let row = t.row(Gf256(c));
            for x in 0..=255u8 {
                assert_eq!(Gf256(row[x as usize]), Gf256(c) * Gf256(x), "row[{c}][{x}]");
            }
        }
    }

    #[test]
    fn shared_is_one_instance() {
        let a = MulTable::shared() as *const MulTable;
        let b = MulTable::shared() as *const MulTable;
        assert_eq!(a, b);
    }

    #[test]
    fn static_rows_are_borrowable_concurrently() {
        let r2 = mul_row(Gf256(2));
        let r3 = mul_row(Gf256(3));
        assert_eq!(r2[1], 2);
        assert_eq!(r3[1], 3);
        assert_eq!(r2[0], 0);
    }
}
