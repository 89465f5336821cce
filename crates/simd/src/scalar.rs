//! Portable scalar backend: delegates to the table-driven `pm_gf::slice`
//! kernels, so the fallback path is exactly the code every prior release
//! shipped. This module contains no `unsafe` and is the differential
//! oracle the SIMD backends are proptested against.

use pm_gf::gf256::Gf256;
use pm_gf::mul_table::{mul_row, MulTable};
use pm_gf::slice;

pub(crate) fn xor(dst: &mut [u8], src: &[u8]) {
    slice::xor_slice(dst, src);
}

pub(crate) fn mul_add(c: Gf256, src: &[u8], dst: &mut [u8]) {
    slice::mul_add_row(mul_row(c), src, dst);
}

/// One output row at a time, four sources per destination pass.
pub(crate) fn mul_add_multi_rows(coeffs: &[Gf256], sources: &[&[u8]], outs: &mut [&mut [u8]]) {
    let table = MulTable::shared();
    for (row, out) in coeffs.chunks(sources.len()).zip(outs.iter_mut()) {
        for (cs, srcs) in row.chunks(4).zip(sources.chunks(4)) {
            let group: [(&[u8; 256], &[u8]); 4] = std::array::from_fn(|i| {
                let i = i.min(cs.len() - 1);
                (table.row(cs[i]), srcs[i])
            });
            slice::mul_add_multi_rows(&group[..cs.len()], out);
        }
    }
}
