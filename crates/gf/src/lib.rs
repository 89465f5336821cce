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
//! This crate is the field under the packet-level FEC codec of the
//! SIGCOMM '97 reproduction of *Parity-Based Loss Recovery for Reliable
//! Multicast Transmission* (Nonnenmacher, Biersack, Towsley): [`Gf256`], a
//! zero-cost scalar wrapper over GF(2^8) with lazily built exp/log tables.
//! The paper's code is `m = 8` ("for our purposes, m = 8 will be
//! sufficiently large"), so FEC blocks have `n <= 255`; this is the only
//! field in the workspace.
//!
//! The kernels that apply the field to whole packets (`parity ^= c·data`,
//! the codec's one inner loop) and the per-byte oracle they are tested
//! against live in `pm-simd`, one matrix kernel per backend. There are no
//! polynomials or matrices here either: `pm-rse` writes the code's encode
//! and decode rows down in closed form, in the log domain on the tables
//! [`gf256::log_exp`] hands out. Every table read is total, so the one
//! panic in the crate is division by zero through `/`.
//!
//! ```
//! use pm_gf::Gf256;
//! let a = Gf256(0x53);
//! let b = Gf256(0xCA);
//! assert_eq!(a + b, Gf256(0x53 ^ 0xCA));          // addition is XOR
//! assert_eq!((a * b) * a.checked_inv().unwrap(), b); // field inverse
//! ```

pub mod gf256;

pub use gf256::Gf256;

#[cfg(test)]
mod proptests;
