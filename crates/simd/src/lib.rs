//! Runtime-dispatched SIMD kernels for the GF(2^8) codec hot loops.
//!
//! The paper's Section 5 throughput argument hinges on end-host coding rate:
//! a packet-level RSE coder spends essentially all of its time in
//! `parity ^= coeff * data` over whole packets. The table-driven scalar
//! kernels in `pm-gf` resolve one byte per step through a 256-entry row;
//! the SIMD backends here resolve 32 (AVX2) or 16 (NEON) bytes per step
//! with the classic nibble-split trick: each coefficient `c` expands to two
//! 16-entry tables — `lo[x] = c·x` and `hi[x] = c·(x<<4)` — and a full
//! product is `lo[s & 0xf] ^ hi[s >> 4]`, computed lane-parallel with
//! `_mm256_shuffle_epi8` / `vqtbl1q_u8`.
//!
//! ## Dispatch
//!
//! Backend selection happens **once per process**: [`try_kernels`] consults
//! the `PM_SIMD` environment variable (`scalar`, `avx2`, `neon`, or `auto`;
//! unset means `auto`), performs runtime CPU-feature detection
//! (`is_x86_feature_detected!("avx2")`; NEON is baseline on aarch64), and
//! memoizes a `&'static` [`Kernels`] vtable. Every backend computes
//! byte-identical results — GF arithmetic is exact — so the choice affects
//! throughput only, never transcripts; the differential proptests in this
//! crate pin each backend against the scalar reference across arbitrary
//! lengths, unaligned offsets, and sub-vector tails.
//!
//! ## The unsafe boundary
//!
//! This crate is the one sanctioned home for `unsafe` in the workspace
//! (`#![forbid(unsafe_code)]` everywhere else): raw SIMD loads/stores and
//! cross-feature calls into `#[target_feature]` functions. Clippy's
//! `undocumented_unsafe_blocks` and `missing_safety_doc` hold every block
//! here to a `// SAFETY:` comment and every `unsafe fn` to a `# Safety`
//! section, and CI prints this crate's `unsafe` count as a ratchet.

#![deny(unsafe_op_in_unsafe_fn)]

use std::fmt;
use std::sync::OnceLock;

use pm_gf::gf256::Gf256;
use pm_gf::mul_table::mul_row;

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod avx2;
#[cfg(target_arch = "aarch64")]
mod neon;
mod scalar;
mod tables;

/// Environment variable overriding backend selection: `scalar`, `avx2`,
/// `neon`, or `auto` (the default when unset).
pub const ENV_VAR: &str = "PM_SIMD";

/// A codec kernel backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Portable scalar kernels delegating to the table-driven `pm_gf::slice`
    /// routines. Always available.
    Scalar,
    /// AVX2 nibble-split kernels, 32 bytes per step (x86/x86_64 with runtime
    /// `avx2` detection).
    Avx2,
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
            Backend::Neon => cfg!(target_arch = "aarch64"),
        }
    }

    /// The fastest backend the current host supports (`auto` resolution).
    pub fn detect() -> Backend {
        if Backend::Avx2.is_available() {
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
    /// `PM_SIMD` was set to something other than `scalar|avx2|neon|auto`.
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
                "unknown {ENV_VAR} value {value:?} (expected scalar, avx2, neon, or auto)"
            ),
            DispatchError::Unavailable { backend } => write!(
                f,
                "{ENV_VAR} forces backend {backend:?}, which this host does not support"
            ),
        }
    }
}

impl std::error::Error for DispatchError {}

/// Precomputed lookup tables for one GF(2^8) coefficient, shared by every
/// backend: the 256-entry multiplication row (scalar path and vector tails)
/// plus the 32-byte nibble-split pair (SIMD path; `lo` table at bytes 0..16,
/// `hi` at 16..32). Both live in process-wide caches, so the handle is a
/// couple of `&'static` references — cheap to build per call and cheaper to
/// cache per matrix coefficient, as the RSE encoder does.
#[derive(Clone, Copy)]
pub struct CoeffTables {
    c: Gf256,
    row: &'static [u8; 256],
    nib: &'static [u8; 32],
}

impl CoeffTables {
    /// Resolve (or lazily build) the tables for coefficient `c`.
    pub fn new(c: Gf256) -> CoeffTables {
        CoeffTables {
            c,
            row: mul_row(c),
            nib: tables::nib_tables(c),
        }
    }

    /// The coefficient these tables multiply by.
    pub fn coeff(&self) -> Gf256 {
        self.c
    }

    pub(crate) fn row(&self) -> &'static [u8; 256] {
        self.row
    }

    pub(crate) fn nib(&self) -> &'static [u8; 32] {
        self.nib
    }
}

impl fmt::Debug for CoeffTables {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoeffTables").field("c", &self.c).finish()
    }
}

type XorFn = fn(&mut [u8], &[u8]);
type MulFn = fn(&CoeffTables, &[u8], &mut [u8]);
type MultiRowsFn = fn(&[(CoeffTables, &[u8])], &mut [u8]);

/// A backend's kernel vtable. Obtain one via [`kernels`] / [`try_kernels`]
/// (dispatched) or [`kernels_for`] (explicit, for benches and differential
/// tests); all handles are `&'static`, so they are free to copy around.
///
/// Length preconditions are asserted here, once, at the safe surface — the
/// backend functions behind the pointers rely on them.
pub struct Kernels {
    backend: Backend,
    xor: XorFn,
    mul_add: MulFn,
    multi_rows: MultiRowsFn,
}

impl Kernels {
    /// Which backend this vtable runs on.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// `dst ^= c * src` — multiply-accumulate with a scalar coefficient.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn mul_add_slice(&self, c: Gf256, src: &[u8], dst: &mut [u8]) {
        assert_eq!(dst.len(), src.len(), "mul_add_slice length mismatch");
        if c.is_zero() {
            return;
        }
        if c == Gf256::ONE {
            (self.xor)(dst, src);
            return;
        }
        (self.mul_add)(&CoeffTables::new(c), src, dst);
    }

    /// `dst ^= c1*src1 ^ c2*src2 ^ ...` — batched multiply-accumulate over
    /// up to four sources per destination pass. Zero coefficients are
    /// skipped.
    ///
    /// # Panics
    /// Panics if any source length differs from `dst.len()`.
    pub fn mul_add_multi(&self, sources: &[(Gf256, &[u8])], dst: &mut [u8]) {
        for (_, src) in sources {
            assert_eq!(dst.len(), src.len(), "mul_add_multi length mismatch");
        }
        let live: Vec<(CoeffTables, &[u8])> = sources
            .iter()
            .filter(|(c, _)| !c.is_zero())
            .map(|(c, src)| (CoeffTables::new(*c), *src))
            .collect();
        (self.multi_rows)(&live, dst);
    }

    /// Prebuilt-tables variant of [`Kernels::mul_add_multi`], for callers
    /// that hold [`CoeffTables`] per matrix coefficient. A zero coefficient
    /// contributes nothing (its tables are all-zero) but still costs a pass
    /// — callers that want the skip should filter first, as
    /// [`Kernels::mul_add_multi`] does.
    ///
    /// # Panics
    /// Panics if any source length differs from `dst.len()`.
    pub fn mul_add_multi_rows(&self, sources: &[(CoeffTables, &[u8])], dst: &mut [u8]) {
        for (_, src) in sources {
            assert_eq!(dst.len(), src.len(), "mul_add_multi length mismatch");
        }
        (self.multi_rows)(sources, dst);
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
    xor: scalar::xor,
    mul_add: scalar::mul_add,
    multi_rows: scalar::mul_add_multi_rows,
};

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
static AVX2_KERNELS: Kernels = Kernels {
    backend: Backend::Avx2,
    xor: avx2::xor,
    mul_add: avx2::mul_add,
    multi_rows: avx2::mul_add_multi_rows,
};

#[cfg(target_arch = "aarch64")]
static NEON_KERNELS: Kernels = Kernels {
    backend: Backend::Neon,
    xor: neon::xor,
    mul_add: neon::mul_add,
    multi_rows: neon::mul_add_multi_rows,
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
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => Some(&NEON_KERNELS),
        _ => None,
    }
}

fn auto_kernels() -> &'static Kernels {
    kernels_for(Backend::detect()).expect("detected backend is always available")
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_known_values() {
        assert_eq!(Backend::parse("auto").unwrap(), None);
        assert_eq!(Backend::parse("scalar").unwrap(), Some(Backend::Scalar));
        assert_eq!(Backend::parse("avx2").unwrap(), Some(Backend::Avx2));
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
        for b in [Backend::Scalar, Backend::Avx2, Backend::Neon] {
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

    #[test]
    fn coeff_tables_expose_coefficient() {
        let t = CoeffTables::new(Gf256(7));
        assert_eq!(t.coeff(), Gf256(7));
        assert_eq!(format!("{t:?}"), "CoeffTables { c: Gf256(7) }");
    }
}

#[cfg(test)]
mod proptests;
