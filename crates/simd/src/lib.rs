//! Runtime-dispatched kernels for the workspace's two inner loops: the
//! GF(2^8) codec's multiply-accumulate and the loss simulator's logarithm.
//!
//! The paper's Section 5 throughput argument hinges on end-host coding rate:
//! a packet-level RSE coder spends essentially all of its time in
//! `parity ^= coeff * data` over whole packets. This crate owns every
//! kernel that computes it, and a backend has one such kernel, the matrix
//! form below: the scalar backend resolves one byte per step through a row
//! of the 64 KB multiplication table, the SIMD backends 64 (GFNI), 32
//! (AVX2) or 16 (NEON) bytes per step.
//!
//! A backend's second kernel is [`Kernels::ln_unit`], the natural
//! logarithm of a batch of `x ∈ (0, 1]`: pm-loss draws every geometric gap
//! of its memoryless models as `⌊ln U / ln(1−p)⌋`, so at the paper's
//! populations one `ln` per loss is most of a simulated transmission. The
//! scalar entry is libm's `f64::ln` per element and is the oracle; the
//! GFNI backend (whose hosts have AVX-512) evaluates fdlibm's polynomial
//! in four 256-bit lanes, within [`LN_UNIT_REL_ERR`] of libm; AVX2 and
//! NEON use the scalar entry.
//!
//! AVX2 and NEON use the classic nibble-split trick: each coefficient `c`
//! expands to two 16-entry tables — `lo[x] = c·x` and `hi[x] = c·(x<<4)` —
//! and a full product is `lo[s & 0xf] ^ hi[s >> 4]`, computed lane-parallel
//! with `_mm256_shuffle_epi8` / `vqtbl1q_u8`.
//!
//! GFNI uses the affine trick: `x ↦ c·x` is linear over GF(2), so it is an
//! 8×8 bit matrix, and `gf2p8affineqb` applies one such matrix to all 64
//! bytes of a vector in one instruction. Column `j` of `c`'s matrix is the
//! byte `c·2^j`, so the matrix comes from the field's own multiplication
//! (polynomial 0x11d here, though the trick holds for any); the 256
//! matrices are one 2 KB table, and a product needs no shuffle.
//!
//! The kernel is one matrix form for every caller:
//! `rows × sources` coefficients, `sources` inputs, `rows` outputs. Per
//! vector chunk a source is loaded once for several outputs: GFNI holds up
//! to eight accumulating outputs in registers, AVX2 a tile of two outputs
//! by two sources with their tables. An encoder's repair round is one call
//! with a row per parity, a decoder reconstructs all `l` missing packets
//! in one call, and [`Kernels::mul_add_slice`] is the one-by-one case. The
//! kernels take plain coefficients and index the process-wide tables
//! themselves, so a caller keeps no per-coefficient state. GFNI resolves a
//! call's matrices from its table once, into a stack array it reads
//! source by source, and prefetches its sources ahead of the step. The
//! AVX2 and NEON kernels hand the bytes past their last whole vector to
//! the scalar kernel.
//!
//! ## Dispatch
//!
//! Backend selection happens **once per process**: [`try_kernels`] consults
//! the `PM_SIMD` environment variable (`scalar`, `avx2`, `gfni`, `neon`, or
//! `auto`; unset means `auto`), performs runtime CPU-feature detection
//! (`gfni`, `avx512f`, `avx512bw` and `avx512vl` for GFNI, `avx2` for AVX2; NEON is
//! baseline on aarch64), and memoizes a `&'static` [`Kernels`] vtable.
//! `auto` prefers GFNI, then AVX2, then NEON, then scalar. Every backend
//! computes byte-identical results — GF arithmetic is exact — so the choice
//! affects throughput only, never transcripts; the differential proptests
//! in this crate pin each backend against the per-byte [`mod@reference`]
//! across arbitrary lengths, unaligned offsets, and sub-vector tails.
//!
//! ## The unsafe boundary
//!
//! This crate is the one sanctioned home for `unsafe` in the workspace
//! (`#![forbid(unsafe_code)]` everywhere else): raw SIMD loads/stores
//! (byte-masked ones for GFNI's tails) and cross-feature calls into
//! `#[target_feature]` functions, which are sound because a backend's
//! vtable is handed out only after its features were detected. Clippy's
//! `undocumented_unsafe_blocks` and `missing_safety_doc` hold every block
//! here to a `// SAFETY:` comment and every `unsafe fn` to a `# Safety`
//! section, and CI prints this crate's `unsafe` count as a ratchet.

#![deny(unsafe_op_in_unsafe_fn)]

use std::fmt;
use std::sync::OnceLock;

use pm_gf::gf256::Gf256;

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod gfni;
#[cfg(target_arch = "x86_64")]
mod ln_avx512;
#[cfg(target_arch = "aarch64")]
mod neon;
mod scalar;
mod tables;

/// Environment variable overriding backend selection: `scalar`, `avx2`,
/// `gfni`, `neon`, or `auto` (the default when unset).
pub const ENV_VAR: &str = "PM_SIMD";

/// A codec kernel backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The portable scalar kernel, one byte per step through the 64 KB
    /// multiplication table. Always available.
    Scalar,
    /// AVX2 nibble-split kernels, 32 bytes per step (x86/x86_64 with runtime
    /// `avx2` detection).
    Avx2,
    /// GFNI affine kernels, 64 bytes per step, and the four-lane AVX-512
    /// `ln_unit` (x86_64 with runtime `gfni`, `avx512f`, `avx512bw` and
    /// `avx512vl` detection).
    Gfni,
    /// NEON nibble-split kernels, 16 bytes per step (aarch64, where NEON is
    /// part of the baseline ISA).
    Neon,
}

impl Backend {
    /// Stable lowercase name, as accepted by `PM_SIMD` and emitted in the
    /// `session_config` trace event's `backend` field.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Gfni => "gfni",
            Backend::Neon => "neon",
        }
    }

    /// Whether the current host can run this backend.
    pub fn is_available(self) -> bool {
        match self {
            Backend::Scalar => true,
            Backend::Avx2 => {
                #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                }
                #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
                {
                    false
                }
            }
            Backend::Gfni => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("gfni")
                        && std::arch::is_x86_feature_detected!("avx512f")
                        && std::arch::is_x86_feature_detected!("avx512bw")
                        && std::arch::is_x86_feature_detected!("avx512vl")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            Backend::Neon => cfg!(target_arch = "aarch64"),
        }
    }

    /// The fastest backend the current host supports (`auto` resolution).
    pub fn detect() -> Backend {
        if Backend::Gfni.is_available() {
            Backend::Gfni
        } else if Backend::Avx2.is_available() {
            Backend::Avx2
        } else if Backend::Neon.is_available() {
            Backend::Neon
        } else {
            Backend::Scalar
        }
    }

    /// Parse a `PM_SIMD` value. `auto` yields `None` (resolve via
    /// [`Backend::detect`]); anything else must name a backend exactly.
    pub fn parse(value: &str) -> Result<Option<Backend>, DispatchError> {
        match value {
            "auto" => Ok(None),
            "scalar" => Ok(Some(Backend::Scalar)),
            "avx2" => Ok(Some(Backend::Avx2)),
            "gfni" => Ok(Some(Backend::Gfni)),
            "neon" => Ok(Some(Backend::Neon)),
            other => Err(DispatchError::UnknownBackend {
                value: other.to_string(),
            }),
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why `PM_SIMD`-driven dispatch failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DispatchError {
    /// `PM_SIMD` was set to something other than `scalar|avx2|gfni|neon|auto`.
    UnknownBackend {
        /// The offending value.
        value: String,
    },
    /// `PM_SIMD` forced a backend the current host cannot run.
    Unavailable {
        /// The backend that was requested.
        backend: Backend,
    },
}

impl fmt::Display for DispatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DispatchError::UnknownBackend { value } => write!(
                f,
                "unknown {ENV_VAR} value {value:?} (expected scalar, avx2, gfni, neon, or auto)"
            ),
            DispatchError::Unavailable { backend } => write!(
                f,
                "{ENV_VAR} forces backend {backend:?}, which this host does not support"
            ),
        }
    }
}

impl std::error::Error for DispatchError {}

type MatrixFn = fn(&[Gf256], &[&[u8]], &mut [&mut [u8]]);
type LnFn = fn(&[f64], &mut [f64]);

/// How far a vector [`Kernels::ln_unit`] may be from libm's `f64::ln`,
/// relative to the result, for every `x ∈ (0, 1]`: `2^-51`. The vector
/// kernel is fdlibm's algorithm, within 1 ulp of the true logarithm, and
/// libm's `log` is documented within 1 ulp too (glibc); an ulp is at most
/// `2^-52` of the value, so the two differ by at most twice that. It is
/// the largest [`Kernels::ln_unit_rel_err`] of any backend; pm-simd's
/// tests measure each backend's worst case against its own.
pub const LN_UNIT_REL_ERR: f64 = 1.0 / (1u64 << 51) as f64;

/// A backend's kernel vtable. Obtain one via [`kernels`] / [`try_kernels`]
/// (dispatched) or [`kernels_for`] (explicit, for benches and differential
/// tests); all handles are `&'static`, so they are free to copy around.
///
/// Length preconditions are asserted here, once, at the safe surface — the
/// backend functions behind the pointers rely on them.
pub struct Kernels {
    backend: Backend,
    matrix: MatrixFn,
    ln: LnFn,
    /// `ln`'s documented distance from `f64::ln`, relative.
    ln_rel_err: f64,
}

impl Kernels {
    /// Which backend this vtable runs on.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// `dst ^= c * src` — multiply-accumulate with a scalar coefficient:
    /// the one-by-one case of [`Kernels::mul_add_multi_rows`].
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn mul_add_slice(&self, c: Gf256, src: &[u8], dst: &mut [u8]) {
        self.mul_add_multi_rows(&[c], &[src], &mut [dst]);
    }

    /// `outs[r] ^= Σ_s coeffs[r * sources.len() + s] * sources[s]` — the
    /// matrix multiply-accumulate: `coeffs` is `outs.len() × sources.len()`,
    /// row-major. One output is the one-row case (an encoder's parity); a
    /// decoder passes all its missing packets at once, so each source is
    /// read once per several outputs rather than once per output. The
    /// backend looks each coefficient's tables up in its process-wide
    /// cache, so a caller builds nothing per call. A zero coefficient
    /// contributes nothing but is not skipped.
    ///
    /// # Panics
    /// Panics if `coeffs.len() != outs.len() * sources.len()`, or if the
    /// sources and outputs are not all one length.
    pub fn mul_add_multi_rows(&self, coeffs: &[Gf256], sources: &[&[u8]], outs: &mut [&mut [u8]]) {
        assert_eq!(
            coeffs.len(),
            outs.len() * sources.len(),
            "mul_add_multi_rows wants rows x sources coefficients"
        );
        let Some(len) = outs.first().map(|o| o.len()) else {
            return;
        };
        for len_i in outs
            .iter()
            .map(|o| o.len())
            .chain(sources.iter().map(|s| s.len()))
        {
            assert_eq!(len_i, len, "mul_add_multi_rows length mismatch");
        }
        if !sources.is_empty() {
            (self.matrix)(coeffs, sources, outs);
        }
    }

    /// `out[i] = ln xs[i]` for `xs[i] ∈ (0, 1]`, within
    /// [`Kernels::ln_unit_rel_err`] of `f64::ln` (and `ln 1 = 0` exactly).
    /// The scalar, AVX2 and NEON backends call `f64::ln` per element; GFNI
    /// evaluates four lanes at a time in 256-bit AVX-512F/VL registers.
    /// Outside `(0, 1]` the values are unspecified, but the call is
    /// still memory-safe.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn ln_unit(&self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "ln_unit length mismatch");
        (self.ln)(xs, out);
    }

    /// The largest relative distance of this backend's
    /// [`Kernels::ln_unit`] from `f64::ln` on `(0, 1]`: 0 where it *is*
    /// `f64::ln`, [`LN_UNIT_REL_ERR`] for the vector kernel.
    pub fn ln_unit_rel_err(&self) -> f64 {
        self.ln_rel_err
    }
}

impl fmt::Debug for Kernels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernels")
            .field("backend", &self.backend)
            .finish_non_exhaustive()
    }
}

static SCALAR_KERNELS: Kernels = Kernels {
    backend: Backend::Scalar,
    matrix: scalar::mul_add_multi_rows,
    ln: scalar::ln_unit,
    ln_rel_err: 0.0,
};

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
static AVX2_KERNELS: Kernels = Kernels {
    backend: Backend::Avx2,
    matrix: avx2::mul_add_multi_rows,
    ln: scalar::ln_unit,
    ln_rel_err: 0.0,
};

#[cfg(target_arch = "x86_64")]
static GFNI_KERNELS: Kernels = Kernels {
    backend: Backend::Gfni,
    matrix: gfni::mul_add_multi_rows,
    ln: ln_avx512::ln_unit,
    ln_rel_err: LN_UNIT_REL_ERR,
};

#[cfg(target_arch = "aarch64")]
static NEON_KERNELS: Kernels = Kernels {
    backend: Backend::Neon,
    matrix: neon::mul_add_multi_rows,
    ln: scalar::ln_unit,
    ln_rel_err: 0.0,
};

/// The kernel vtable for a specific backend, or `None` if the current host
/// cannot run it. Intended for benches and differential tests; production
/// callers should go through [`kernels`] / [`try_kernels`].
pub fn kernels_for(backend: Backend) -> Option<&'static Kernels> {
    if !backend.is_available() {
        return None;
    }
    match backend {
        Backend::Scalar => Some(&SCALAR_KERNELS),
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Backend::Avx2 => Some(&AVX2_KERNELS),
        #[cfg(target_arch = "x86_64")]
        Backend::Gfni => Some(&GFNI_KERNELS),
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => Some(&NEON_KERNELS),
        _ => None,
    }
}

fn auto_kernels() -> &'static Kernels {
    kernels_for(Backend::detect()).unwrap_or(&SCALAR_KERNELS)
}

/// The process-wide dispatched kernels: resolved once from `PM_SIMD` plus
/// runtime CPU detection, then memoized for the lifetime of the process.
/// Changing the variable after the first call has no effect.
pub fn try_kernels() -> Result<&'static Kernels, DispatchError> {
    static SELECTED: OnceLock<Result<&'static Kernels, DispatchError>> = OnceLock::new();
    SELECTED
        .get_or_init(|| {
            let value = match std::env::var(ENV_VAR) {
                Ok(v) => v,
                Err(std::env::VarError::NotPresent) => return Ok(auto_kernels()),
                Err(std::env::VarError::NotUnicode(_)) => {
                    return Err(DispatchError::UnknownBackend {
                        value: "<non-unicode>".to_string(),
                    })
                }
            };
            match Backend::parse(&value)? {
                None => Ok(auto_kernels()),
                Some(forced) => {
                    kernels_for(forced).ok_or(DispatchError::Unavailable { backend: forced })
                }
            }
        })
        .clone()
}

/// Panicking variant of [`try_kernels`], for callers with no error channel.
///
/// # Panics
/// Panics if `PM_SIMD` is set to an unknown value or forces a backend this
/// host cannot run.
pub fn kernels() -> &'static Kernels {
    match try_kernels() {
        Ok(k) => k,
        Err(e) => panic!("pm-simd dispatch failed: {e}"),
    }
}

/// The dispatched backend's name, or `"invalid"` when `PM_SIMD` is bad —
/// for telemetry emitters that must not fail.
pub fn backend_name() -> &'static str {
    try_kernels()
        .map(|k| k.backend().name())
        .unwrap_or("invalid")
}

/// Bytes `from..` of every buffer through the scalar kernel: the AVX2 and
/// NEON kernels' sub-vector tails, one output row by up to four sources
/// per call, on the suffixes.
#[cfg(any(target_arch = "x86", target_arch = "x86_64", target_arch = "aarch64"))]
fn vector_tail(from: usize, coeffs: &[Gf256], sources: &[&[u8]], outs: &mut [&mut [u8]]) {
    if outs.first().is_none_or(|out| out.len() <= from) {
        return;
    }
    for (row, out) in coeffs.chunks(sources.len().max(1)).zip(outs.iter_mut()) {
        let mut out = [out.get_mut(from..).unwrap_or_default()];
        for (cs, srcs) in row.chunks(4).zip(sources.chunks(4)) {
            let suffixes: [&[u8]; 4] = std::array::from_fn(|i| {
                srcs.get(i).and_then(|s| s.get(from..)).unwrap_or_default()
            });
            scalar::mul_add_multi_rows(cs, suffixes.get(..cs.len()).unwrap_or_default(), &mut out);
        }
    }
}

/// The definitional per-byte field arithmetic: the oracle every kernel is
/// tested against, here and in `pm-rse`. It shares no table or code path
/// with the kernels — each byte is multiplied through [`Gf256`]'s exp/log
/// arithmetic.
pub mod reference {
    use pm_gf::gf256::Gf256;

    /// `dst ^= c * src`, one byte at a time.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn mul_add_slice(c: Gf256, src: &[u8], dst: &mut [u8]) {
        assert_eq!(dst.len(), src.len(), "mul_add_slice length mismatch");
        for (d, s) in dst.iter_mut().zip(src) {
            *d = (Gf256(*d) + c * Gf256(*s)).0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_known_values() {
        assert_eq!(Backend::parse("auto").unwrap(), None);
        assert_eq!(Backend::parse("scalar").unwrap(), Some(Backend::Scalar));
        assert_eq!(Backend::parse("avx2").unwrap(), Some(Backend::Avx2));
        assert_eq!(Backend::parse("gfni").unwrap(), Some(Backend::Gfni));
        assert_eq!(Backend::parse("neon").unwrap(), Some(Backend::Neon));
    }

    #[test]
    fn parse_rejects_unknown_values() {
        for bad in ["", "AVX2", "sse2", "scalar ", "auto,avx2"] {
            match Backend::parse(bad) {
                Err(DispatchError::UnknownBackend { value }) => assert_eq!(value, bad),
                other => panic!("expected UnknownBackend for {bad:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn scalar_is_always_available() {
        assert!(Backend::Scalar.is_available());
        assert_eq!(
            kernels_for(Backend::Scalar).unwrap().backend(),
            Backend::Scalar
        );
    }

    #[test]
    fn detect_names_an_available_backend() {
        let b = Backend::detect();
        assert!(b.is_available(), "detect() returned unavailable {b:?}");
        assert_eq!(kernels_for(b).unwrap().backend(), b);
    }

    #[test]
    fn unavailable_backends_have_no_kernels() {
        for b in [Backend::Scalar, Backend::Avx2, Backend::Gfni, Backend::Neon] {
            assert_eq!(kernels_for(b).is_some(), b.is_available(), "{b:?}");
        }
    }

    #[test]
    fn dispatch_errors_render() {
        let e = DispatchError::UnknownBackend {
            value: "sse9".to_string(),
        };
        assert!(e.to_string().contains("sse9"));
        assert!(e.to_string().contains(ENV_VAR));
        let e = DispatchError::Unavailable {
            backend: Backend::Neon,
        };
        assert!(e.to_string().contains("Neon"));
    }
}

#[cfg(test)]
mod proptests;
