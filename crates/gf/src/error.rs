//! Errors raised by the matrix routines.

use std::fmt;

/// Errors raised by matrix construction and inversion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GfError {
    /// A matrix that must be invertible is singular.
    SingularMatrix,
    /// Operand shapes do not agree.
    DimensionMismatch { expected: usize, got: usize },
}

impl fmt::Display for GfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GfError::SingularMatrix => write!(f, "matrix is singular over GF(2^8)"),
            GfError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for GfError {}
