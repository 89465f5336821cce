//! Portable scalar backend: delegates to the table-driven `pm_gf::slice`
//! kernels, so the fallback path is exactly the code every prior release
//! shipped. This module contains no `unsafe` and is the differential
//! oracle the SIMD backends are proptested against.

use pm_gf::slice;

use crate::CoeffTables;

pub(crate) fn xor(dst: &mut [u8], src: &[u8]) {
    slice::xor_slice(dst, src);
}

pub(crate) fn mul_add(t: &CoeffTables, src: &[u8], dst: &mut [u8]) {
    slice::mul_add_row(t.row(), src, dst);
}

pub(crate) fn mul_add_multi_rows(sources: &[(CoeffTables, &[u8])], dst: &mut [u8]) {
    let rows: Vec<(&[u8; 256], &[u8])> = sources.iter().map(|(t, src)| (t.row(), *src)).collect();
    slice::mul_add_multi_rows(&rows, dst);
}
