//! Process-wide per-coefficient tables, one entry per GF(2^8) coefficient
//! and each built once on first use: the scalar kernel's multiplication
//! rows, the nibble-split pairs of the AVX2/NEON kernels and the bit
//! matrices of the GFNI kernels.
//!
//! Every table is filled by walking its entries beside the coefficients
//! `0..=255`, and read through an accessor that takes a `u8`, which always
//! indexes 256 entries, so no read here can miss.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::sync::OnceLock;

use pm_gf::gf256::Gf256;

/// The 256 coefficients in order, each beside its entry of `t`.
fn by_coefficient<T>(t: &mut [T; 256]) -> impl Iterator<Item = (Gf256, &mut T)> {
    (0..=255u8).map(Gf256).zip(t.iter_mut())
}

static MUL: OnceLock<Box<[[u8; 256]; 256]>> = OnceLock::new();

/// The multiplication row of `c`: `row[x] == c·x`. All 256 rows are one
/// 64 KB table (Rizzo's `fec.c` keeps the same full product table), so a row
/// is a pointer into storage every coefficient of every block shares.
pub(crate) fn mul_row(c: Gf256) -> &'static [u8; 256] {
    let table = MUL.get_or_init(|| {
        let mut t = Box::new([[0u8; 256]; 256]);
        for (c, row) in by_coefficient(&mut t) {
            for (x, p) in by_coefficient(row) {
                *p = (c * x).0;
            }
        }
        t
    });
    table.get(usize::from(c.0)).unwrap_or(&[0; 256])
}

static NIB: OnceLock<Box<[[u8; 32]; 256]>> = OnceLock::new();

/// The nibble-split pair of `c`, back to back in one 32-byte row: bytes
/// 0..16 hold `c·x` for the low source nibble `x`, bytes 16..32 hold
/// `c·(x<<4)` for the high nibble, so a full product is
/// `lo[s & 0xf] ^ hi[s >> 4]` — the layout the SIMD backends load straight
/// into vector registers. All 256 pairs fit in 8 KB.
pub(crate) fn nib_tables(c: Gf256) -> &'static [u8; 32] {
    let table = NIB.get_or_init(|| {
        let mut t = Box::new([[0u8; 32]; 256]);
        for (c, row) in by_coefficient(&mut t) {
            let (lo, hi) = row.split_at_mut(16);
            for ((x, l), h) in (0..16u8).zip(lo).zip(hi) {
                *l = (c * Gf256(x)).0;
                *h = (c * Gf256(x << 4)).0;
            }
        }
        t
    });
    table.get(usize::from(c.0)).unwrap_or(&[0; 32])
}

#[cfg(target_arch = "x86_64")]
static AFFINE: OnceLock<Box<[u64; 256]>> = OnceLock::new();

/// All 256 bit matrices of `x ↦ c·x`, indexed by coefficient, in
/// `gf2p8affineqb`'s layout: byte `7 - i` of the qword is row `i`, whose
/// bit `j` is bit `i` of `c·2^j`, so output bit `i` is the parity of
/// `row_i & x`. The 256 qwords are 2 KB.
#[cfg(target_arch = "x86_64")]
pub(crate) fn affine_table() -> &'static [u64; 256] {
    AFFINE.get_or_init(|| {
        let mut t = Box::new([0u64; 256]);
        for (c, q) in by_coefficient(&mut t) {
            let columns: [u8; 8] = std::array::from_fn(|j| (c * Gf256(1 << j)).0);
            for i in 0..8 {
                let row = (columns.iter().enumerate())
                    .fold(0u8, |r, (j, &column)| r | ((column >> i) & 1) << j);
                *q |= u64::from(row) << (8 * (7 - i));
            }
        }
        t
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nibble_split_reconstructs_full_products() {
        for c in 0..=255u8 {
            let nib = nib_tables(Gf256(c));
            for x in 0..=255u8 {
                let split = nib[(x & 0x0f) as usize] ^ nib[16 + (x >> 4) as usize];
                assert_eq!(
                    split,
                    (Gf256(c) * Gf256(x)).0,
                    "c={c} x={x}: lo/hi split disagrees with field product"
                );
            }
        }
    }

    /// The bit matrix, applied the way `gf2p8affineqb` applies it, is the
    /// field product for every coefficient and every byte.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn affine_matrices_reproduce_full_products() {
        for c in 0..=255u8 {
            let q = affine_table()[c as usize];
            for x in 0..=255u8 {
                let bit = |i: usize| (((q >> (8 * (7 - i))) as u8 & x).count_ones() as u8 & 1) << i;
                let product = (0..8).fold(0u8, |p, i| p | bit(i));
                assert_eq!(product, (Gf256(c) * Gf256(x)).0, "c={c} x={x}");
            }
        }
    }
}
