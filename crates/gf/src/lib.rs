#![forbid(unsafe_code)]
//! Galois-field arithmetic for Reed–Solomon erasure coding.
//!
//! This crate is the arithmetic substrate for the packet-level FEC codec used
//! in the SIGCOMM '97 reproduction of *Parity-Based Loss Recovery for
//! Reliable Multicast Transmission* (Nonnenmacher, Biersack, Towsley). It
//! provides:
//!
//! * [`Gf256`] — a zero-cost scalar wrapper over GF(2^8) with statically
//!   initialised exp/log tables. The paper's code is `m = 8` ("for our
//!   purposes, m = 8 will be sufficiently large"), so FEC blocks have
//!   `n <= 255`; this is the only field in the workspace.
//! * [`mod@mul_table`] — the lazily-built, process-shared 64 KB full
//!   multiplication table (Rizzo's `gf_mul_table`) whose rows back the bulk
//!   kernels.
//! * [`mod@slice`] — the portable row kernels (`dst ^= row[src]`) behind
//!   `pm-simd`'s scalar backend, including the batched
//!   [`slice::mul_add_multi_rows`] multi-source kernel, and the per-byte
//!   [`slice::reference`] oracle every other kernel is tested against.
//! * [`poly`] — polynomials over GF(2^8): Horner evaluation (the paper's
//!   Eq. 1 encoder computes parities as `p_j = F(alpha^(j-1))`) and Lagrange
//!   interpolation.
//! * [`matrix`] — dense matrices over GF(2^8): Vandermonde construction,
//!   systematisation and Gauss–Jordan inversion for the erasure decoder.
//!
//! All arithmetic is table-driven and allocation-free on the hot path.
//!
//! ```
//! use pm_gf::Gf256;
//! let a = Gf256(0x53);
//! let b = Gf256(0xCA);
//! assert_eq!(a + b, Gf256(0x53 ^ 0xCA));          // addition is XOR
//! assert_eq!((a * b) * a.checked_inv().unwrap(), b); // field inverse
//! ```

pub mod error;
pub mod gf256;
pub mod matrix;
pub mod mul_table;
pub mod poly;
pub mod slice;

pub use error::GfError;
pub use gf256::Gf256;
pub use matrix::Matrix;
pub use mul_table::MulTable;
pub use poly::Poly;

#[cfg(test)]
mod proptests;
