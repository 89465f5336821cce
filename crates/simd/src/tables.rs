//! Process-wide per-coefficient table caches: the nibble-split pairs of the
//! AVX2/NEON kernels and the bit matrices of the GFNI kernels.
//!
//! Each GF(2^8) coefficient `c` expands to two 16-entry lookup tables laid
//! out back to back in one 32-byte row: bytes 0..16 hold `c·x` for the low
//! source nibble `x`, bytes 16..32 hold `c·(x<<4)` for the high nibble, so a
//! full product is `lo[s & 0xf] ^ hi[s >> 4]`. All 256 coefficients fit in
//! 8 KB, built once on first use — the same lazily-shared shape as
//! `pm-gf`'s 64 KB `MulTable`, and the layout the SIMD backends broadcast
//! straight into vector registers.

use std::sync::OnceLock;

use pm_gf::gf256::Gf256;

static NIB_TABLES: OnceLock<Box<[[u8; 32]; 256]>> = OnceLock::new();

pub(crate) fn nib_tables(c: Gf256) -> &'static [u8; 32] {
    &nib_table()[c.0 as usize]
}

/// All 256 nibble-table pairs, indexed by coefficient.
pub(crate) fn nib_table() -> &'static [[u8; 32]; 256] {
    NIB_TABLES.get_or_init(|| {
        let mut t = Box::new([[0u8; 32]; 256]);
        for (coeff, row) in t.iter_mut().enumerate() {
            let c = Gf256(coeff as u8);
            for x in 0..16u8 {
                row[x as usize] = (c * Gf256(x)).0;
                row[16 + x as usize] = (c * Gf256(x << 4)).0;
            }
        }
        t
    })
}

#[cfg(target_arch = "x86_64")]
static AFFINE: OnceLock<Box<[u64; 256]>> = OnceLock::new();

/// The 8×8 GF(2) bit matrix of `x ↦ c·x`, in `gf2p8affineqb`'s layout: byte
/// `7 - i` of the qword is row `i`, whose bit `j` is bit `i` of `c·2^j`, so
/// output bit `i` is the parity of `row_i & x`. The 256 qwords (2 KB) are
/// built once on first use, beside the nibble tables.
#[cfg(target_arch = "x86_64")]
pub(crate) fn affine_matrix(c: Gf256) -> u64 {
    affine_table()[c.0 as usize]
}

/// All 256 bit matrices, indexed by coefficient.
#[cfg(target_arch = "x86_64")]
pub(crate) fn affine_table() -> &'static [u64; 256] {
    AFFINE.get_or_init(|| {
        let mut t = Box::new([0u64; 256]);
        for (coeff, q) in t.iter_mut().enumerate() {
            let columns: [u8; 8] = std::array::from_fn(|j| (Gf256(coeff as u8) * Gf256(1 << j)).0);
            for i in 0..8 {
                let row = (0..8).fold(0u8, |r, j| r | ((columns[j] >> i) & 1) << j);
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
        for c in [0u8, 1, 2, 3, 29, 76, 143, 255] {
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
            let q = affine_matrix(Gf256(c));
            for x in 0..=255u8 {
                let bit = |i: usize| (((q >> (8 * (7 - i))) as u8 & x).count_ones() as u8 & 1) << i;
                let product = (0..8).fold(0u8, |p, i| p | bit(i));
                assert_eq!(product, (Gf256(c) * Gf256(x)).0, "c={c} x={x}");
            }
        }
    }
}
