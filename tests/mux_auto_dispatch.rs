//! The pm-mux determinism contract under `PM_SIMD=auto` dispatch.
//!
//! `tests/mux_sessions.rs` pins the 32-session farm's transcripts under
//! whatever backend the ambient environment selects; this binary forces
//! `PM_SIMD=auto` before the first kernel dispatch (env overrides are
//! memoized process-wide, hence the dedicated test binary) and checks the
//! same farm against the same digests, so the vectorized kernels are
//! proven to leave every wire byte exactly where the scalar reference puts
//! it — end to end through encode, NAK repair and decode, on the lossless
//! farm and on the lossy NP farm.

mod common;

use common::pair_payload;
use parity_multicast::rse::{CodeSpec, RseEncoder};
use parity_multicast::simd::{kernels_for, Backend};

#[test]
fn mux_transcripts_stay_pinned_under_auto_dispatch() {
    std::env::set_var(parity_multicast::simd::ENV_VAR, "auto");
    let backend = parity_multicast::simd::kernels().backend();
    assert_eq!(
        backend,
        Backend::detect(),
        "auto must resolve to the detected backend"
    );

    // GF arithmetic is exact, so whichever backend auto picked, parities
    // must equal the scalar reference byte-for-byte before any protocol
    // bytes move.
    let spec = CodeSpec::new(8, 4).expect("valid spec");
    let auto_enc = RseEncoder::new(spec).expect("auto encoder");
    let scalar_enc = RseEncoder::with_kernels(
        spec,
        kernels_for(Backend::Scalar).expect("scalar always available"),
    );
    let group: Vec<Vec<u8>> = (0..8)
        .map(|i| pair_payload(i as u32)[..128].to_vec())
        .collect();
    assert_eq!(
        auto_enc.encode_all(&group).expect("auto parities"),
        scalar_enc.encode_all(&group).expect("scalar parities"),
        "{backend} parities diverged from scalar"
    );

    common::assert_farm_is_pinned(&common::run_pinned_farm(), &backend.to_string());
    // The lossy NP farm reconstructs lost packets from parities, so its
    // digests also pin the decode kernels.
    common::assert_lossy_farm_is_pinned(
        &common::run_lossy_np_farm(),
        &common::LOSSY_NP,
        &format!("NP under {backend}"),
    );
}
