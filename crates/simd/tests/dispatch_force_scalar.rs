//! `PM_SIMD=scalar` must force the portable fallback even on SIMD-capable
//! hosts. Dispatch is memoized process-wide, so this lives in its own
//! integration-test binary where the override is installed before the first
//! kernel access — and wins over whatever `PM_SIMD` the harness inherited.

use pm_gf::gf256::Gf256;
use pm_simd::reference;
use pm_simd::{kernels, try_kernels, Backend, ENV_VAR};

#[test]
fn forced_scalar_wins_over_detection() {
    std::env::set_var(ENV_VAR, "scalar");

    let k = kernels();
    assert_eq!(
        k.backend(),
        Backend::Scalar,
        "PM_SIMD=scalar must select the fallback even though this host \
         detects {:?}",
        Backend::detect()
    );
    assert_eq!(pm_simd::backend_name(), "scalar");

    // The memoized selection is stable across calls.
    assert_eq!(try_kernels().unwrap().backend(), Backend::Scalar);

    // And the fallback actually computes: differential spot-check against
    // the definitional reference on an odd, tail-heavy length.
    let src: Vec<u8> = (0..77u32).map(|i| (i * 37 + 11) as u8).collect();
    let mut dst: Vec<u8> = (0..77u32).map(|i| (i * 13 + 5) as u8).collect();
    let mut want = dst.clone();
    reference::mul_add_slice(Gf256(0x8e), &src, &mut want);
    k.mul_add_slice(Gf256(0x8e), &src, &mut dst);
    assert_eq!(dst, want);
}
