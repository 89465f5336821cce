#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
// Test fixtures build bytes from loop counters; library casts must not truncate.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]
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
//!
//! There are no polynomials or matrices here: `pm-rse` writes the code's
//! encode and decode rows down in closed form, in the log domain on the
//! tables [`gf256::log_exp`] hands out, and keeps the Gauss–Jordan and
//! polynomial oracles it is tested against in its own test-only modules.
//! All arithmetic is table-driven and allocation-free on the hot path.
//!
//! ```
//! use pm_gf::Gf256;
//! let a = Gf256(0x53);
//! let b = Gf256(0xCA);
//! assert_eq!(a + b, Gf256(0x53 ^ 0xCA));          // addition is XOR
//! assert_eq!((a * b) * a.checked_inv().unwrap(), b); // field inverse
//! ```

pub mod gf256;
pub mod mul_table;
pub mod slice;

pub use gf256::Gf256;
pub use mul_table::MulTable;

#[cfg(test)]
mod proptests;
