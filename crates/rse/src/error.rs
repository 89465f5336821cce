//! Error type for the RSE codec.

use std::fmt;

use pm_simd::DispatchError;

/// Errors raised by encoding, decoding and block accumulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RseError {
    /// `(k, n)` outside the valid range: need `1 <= k <= n <= 256` over
    /// GF(2^8) (n evaluation points: k data identities + up to 256-k
    /// distinct parity points; the paper notes `n < 2^m` suffices).
    InvalidSpec {
        k: usize,
        n: usize,
        reason: &'static str,
    },
    /// All packets in one FEC block must have the same length.
    PacketSizeMismatch { expected: usize, got: usize },
    /// Fewer than `k` distinct packets of the block are available.
    NotEnoughShares { have: usize, need: usize },
    /// A packet index `>= n` was supplied.
    IndexOutOfRange { index: usize, n: usize },
    /// The same packet index was supplied twice with different content.
    DuplicateShare { index: usize },
    /// Wrong number of data packets passed to the encoder.
    WrongDataCount { expected: usize, got: usize },
    /// `PM_SIMD`-driven kernel dispatch failed (unknown value, or a forced
    /// backend this host cannot run). Surfaces at codec construction, so a
    /// misconfigured environment fails loudly before any data moves.
    Dispatch(DispatchError),
    /// An internal invariant of this crate was violated — a bug, surfaced
    /// as a typed error instead of a panic so the public decode APIs stay
    /// total even when the impossible happens.
    Internal(&'static str),
}

impl fmt::Display for RseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RseError::InvalidSpec { k, n, reason } => {
                write!(f, "invalid code spec k={k}, n={n}: {reason}")
            }
            RseError::PacketSizeMismatch { expected, got } => {
                write!(
                    f,
                    "packet size mismatch: block uses {expected} bytes, got {got}"
                )
            }
            RseError::NotEnoughShares { have, need } => {
                write!(f, "cannot decode: have {have} packets, need {need}")
            }
            RseError::IndexOutOfRange { index, n } => {
                write!(
                    f,
                    "packet index {index} out of range for FEC block of n={n}"
                )
            }
            RseError::DuplicateShare { index } => {
                write!(f, "conflicting duplicate for packet index {index}")
            }
            RseError::WrongDataCount { expected, got } => {
                write!(f, "encoder expects {expected} data packets, got {got}")
            }
            RseError::Dispatch(e) => write!(f, "codec kernel dispatch failed: {e}"),
            RseError::Internal(what) => {
                write!(f, "internal invariant violated (bug in pm-rse): {what}")
            }
        }
    }
}

impl std::error::Error for RseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RseError::Dispatch(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DispatchError> for RseError {
    fn from(e: DispatchError) -> Self {
        RseError::Dispatch(e)
    }
}
