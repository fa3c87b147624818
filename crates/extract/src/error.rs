//! Typed errors for the extraction layer.
//!
//! Extraction inputs come straight from user-configurable geometry
//! builders, so a NaN or zero dimension can reach the decomposition and
//! impedance kernels. The fallible entry points reject such inputs with
//! an [`ExtractError`] instead of letting the NaN propagate into the
//! inductance integrals (where it would silently poison every coupling
//! downstream of a comparison).

use std::error::Error;
use std::fmt;

/// Why an extraction entry point rejected its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtractError {
    /// A filament has non-finite (NaN/∞) or non-positive dimensions.
    NonPhysicalFilament {
        /// What was wrong with it.
        reason: &'static str,
    },
    /// A cross-section subdivision count was zero.
    ZeroSubdivision,
}

impl fmt::Display for ExtractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtractError::NonPhysicalFilament { reason } => {
                write!(f, "filament has non-physical dimensions: {reason}")
            }
            ExtractError::ZeroSubdivision => {
                write!(f, "subdivision counts must be at least 1")
            }
        }
    }
}

impl Error for ExtractError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        let e = ExtractError::NonPhysicalFilament {
            reason: "width is NaN",
        };
        assert!(e.to_string().contains("non-physical"));
        assert!(e.to_string().contains("width is NaN"));
        assert!(ExtractError::ZeroSubdivision
            .to_string()
            .contains("at least 1"));
    }
}
