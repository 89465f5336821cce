//! Forcing `PM_SIMD=gfni` selects the GFNI backend on a host with `gfni`,
//! `avx512f`, `avx512bw` and `avx512vl`, and is a typed `Unavailable` error — not a
//! crash in the first kernel call — on any other. Own binary: the value
//! must be in place before the process-wide selection is memoized.

use pm_gf::gf256::Gf256;
use pm_simd::reference;
use pm_simd::{kernels, try_kernels, Backend, DispatchError, ENV_VAR};

#[test]
fn forcing_gfni_follows_the_host() {
    std::env::set_var(ENV_VAR, "gfni");
    if Backend::Gfni.is_available() {
        let k = kernels();
        assert_eq!(k.backend(), Backend::Gfni);
        assert_eq!(pm_simd::backend_name(), "gfni");
        let src: Vec<u8> = (0..77u32).map(|i| (i * 37 + 11) as u8).collect();
        let mut dst: Vec<u8> = (0..77u32).map(|i| (i * 13 + 5) as u8).collect();
        let mut want = dst.clone();
        reference::mul_add_slice(Gf256(0x8e), &src, &mut want);
        k.mul_add_slice(Gf256(0x8e), &src, &mut dst);
        assert_eq!(dst, want);
    } else {
        match try_kernels() {
            Err(DispatchError::Unavailable { backend }) => assert_eq!(backend, Backend::Gfni),
            other => panic!("expected Unavailable, got {other:?}"),
        }
    }
}
