//! Error type for model construction.

use std::error::Error;
use std::fmt;
use vpec_circuit::CircuitError;
use vpec_numerics::NumericsError;

/// Errors produced while building VPEC/PEEC models.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// The extracted inductance matrix could not be inverted (singular or
    /// not positive definite) — degenerate geometry.
    BadInductanceMatrix(NumericsError),
    /// A model parameter was out of range.
    InvalidParameter {
        /// What was wrong.
        reason: &'static str,
    },
    /// The parasitics and layout disagree on filament count.
    ShapeMismatch {
        /// Filaments in the parasitics.
        parasitics: usize,
        /// Filaments in the layout.
        layout: usize,
    },
    /// Netlist construction failed.
    Circuit(CircuitError),
    /// A runtime numerical audit found an invariant violation (see
    /// [`crate::invariants`]).
    AuditFailed(vpec_numerics::audit::AuditFailure),
    /// A simulated waveform produced a non-finite (NaN/∞) peak — the
    /// solver output is unusable and must not be ranked or reported as
    /// if it were a quiet net.
    NonFinitePeak {
        /// The net whose far-end waveform was non-finite.
        net: usize,
    },
    /// A pre-flight budget check rejected the request before any work
    /// (engine admission control, see `BuildBudget` in the harness).
    BudgetExceeded {
        /// Which budget was exceeded (`"filament count"`, `"matrix
        /// dimension"`, `"step count"`).
        what: &'static str,
        /// The configured limit.
        limit: usize,
        /// The requested amount.
        actual: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::BadInductanceMatrix(e) => {
                write!(f, "inductance matrix cannot be inverted: {e}")
            }
            CoreError::InvalidParameter { reason } => write!(f, "invalid parameter: {reason}"),
            CoreError::ShapeMismatch { parasitics, layout } => write!(
                f,
                "parasitics cover {parasitics} filaments but layout has {layout}"
            ),
            CoreError::Circuit(e) => write!(f, "netlist construction failed: {e}"),
            CoreError::AuditFailed(e) => write!(f, "numerical audit failed: {e}"),
            CoreError::NonFinitePeak { net } => write!(
                f,
                "far-end waveform of net {net} has a non-finite peak (NaN/inf)"
            ),
            CoreError::BudgetExceeded {
                what,
                limit,
                actual,
            } => write!(f, "request exceeds its {what} budget: {actual} > {limit}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::BadInductanceMatrix(e) => Some(e),
            CoreError::Circuit(e) => Some(e),
            CoreError::AuditFailed(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NumericsError> for CoreError {
    fn from(e: NumericsError) -> Self {
        CoreError::BadInductanceMatrix(e)
    }
}

impl From<CircuitError> for CoreError {
    fn from(e: CircuitError) -> Self {
        CoreError::Circuit(e)
    }
}

impl From<vpec_numerics::audit::AuditFailure> for CoreError {
    fn from(e: vpec_numerics::audit::AuditFailure) -> Self {
        CoreError::AuditFailed(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e: CoreError = NumericsError::Singular { step: 2 }.into();
        assert!(e.to_string().contains("inverted"));
        assert!(e.source().is_some());
        let e = CoreError::InvalidParameter {
            reason: "window must be positive",
        };
        assert!(e.to_string().contains("window"));
        let e = CoreError::ShapeMismatch {
            parasitics: 3,
            layout: 4,
        };
        assert!(e.to_string().contains('3') && e.to_string().contains('4'));
        let e = CoreError::BudgetExceeded {
            what: "filament count",
            limit: 64,
            actual: 100,
        };
        assert!(e.to_string().contains("filament count"));
        assert!(e.to_string().contains("100 > 64"));
        let e = CoreError::NonFinitePeak { net: 7 };
        assert!(e.to_string().contains("net 7"));
        assert!(e.to_string().contains("non-finite"));
    }
}
