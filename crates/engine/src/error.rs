//! The engine's error taxonomy: every way one request can fail, typed.
//!
//! The categories drive three behavioural decisions in the runner:
//! whether a failure is worth retrying ([`EngineError::retryable`]),
//! whether the request can be gracefully re-run as a cheaper windowed
//! model ([`EngineError::degradable`]), and which `category` string the
//! JSONL response carries.

use std::error::Error;
use std::fmt;
use vpec_core::CoreError;

/// One request's failure, classified.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EngineError {
    /// The request line was not valid JSON or violated the schema.
    BadRequest {
        /// What was wrong.
        message: String,
    },
    /// The request panicked inside the isolation boundary (a bug, an
    /// injected fault, or a numerical assert) — the engine caught it and
    /// other requests are unaffected.
    RequestPanicked {
        /// The panic payload, when it carried one.
        message: String,
    },
    /// The wall-clock deadline expired and the watchdog cancelled the
    /// request cooperatively.
    DeadlineExceeded {
        /// The deadline that was exceeded, in milliseconds.
        ms: u64,
    },
    /// Admission control rejected the request before any heavy work.
    BudgetExceeded {
        /// Which budget (`"filament count"`, `"matrix dimension"`,
        /// `"step count"`).
        what: &'static str,
        /// The configured limit.
        limit: usize,
        /// The requested amount.
        actual: usize,
    },
    /// Model construction failed (singular matrix, audit failure, …).
    BuildFailed {
        /// The underlying error, rendered.
        message: String,
    },
    /// The transient/AC analysis failed after a successful build.
    AnalysisFailed {
        /// The underlying error, rendered.
        message: String,
    },
    /// Reading the request stream or writing a response failed.
    Io {
        /// The underlying I/O error, rendered.
        message: String,
    },
}

impl EngineError {
    /// Short machine-readable category for the JSONL `error.category`
    /// field.
    pub fn category(&self) -> &'static str {
        match self {
            EngineError::BadRequest { .. } => "bad-request",
            EngineError::RequestPanicked { .. } => "panic",
            EngineError::DeadlineExceeded { .. } => "deadline",
            EngineError::BudgetExceeded { .. } => "budget",
            EngineError::BuildFailed { .. } => "build",
            EngineError::AnalysisFailed { .. } => "analysis",
            EngineError::Io { .. } => "io",
        }
    }

    /// `true` for failures a bounded retry may fix. Budget and schema
    /// rejections are deterministic, and a deadline overrun would just
    /// burn its deadline again, so none of those retry.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            EngineError::RequestPanicked { .. }
                | EngineError::BuildFailed { .. }
                | EngineError::AnalysisFailed { .. }
        )
    }

    /// `true` when the failure mode is exactly "the full O(N³) build is
    /// too expensive" — a deadline overrun or a matrix-dimension budget
    /// rejection — which the engine can answer with a windowed (wVPEC)
    /// re-run instead of a failure.
    pub fn degradable(&self) -> bool {
        matches!(
            self,
            EngineError::DeadlineExceeded { .. }
                | EngineError::BudgetExceeded {
                    what: "matrix dimension",
                    ..
                }
        )
    }

    /// Classifies a [`CoreError`] from a model build.
    pub fn from_build(e: CoreError) -> Self {
        match e {
            CoreError::BudgetExceeded {
                what,
                limit,
                actual,
            } => EngineError::BudgetExceeded {
                what,
                limit,
                actual,
            },
            other => EngineError::BuildFailed {
                message: other.to_string(),
            },
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::BadRequest { message } => write!(f, "bad request: {message}"),
            EngineError::RequestPanicked { message } => {
                write!(f, "request panicked: {message}")
            }
            EngineError::DeadlineExceeded { ms } => {
                write!(f, "deadline of {ms} ms exceeded")
            }
            EngineError::BudgetExceeded {
                what,
                limit,
                actual,
            } => {
                write!(f, "request exceeds its {what} budget: {actual} > {limit}")
            }
            EngineError::BuildFailed { message } => write!(f, "model build failed: {message}"),
            EngineError::AnalysisFailed { message } => write!(f, "analysis failed: {message}"),
            EngineError::Io { message } => write!(f, "stream I/O failed: {message}"),
        }
    }
}

impl Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_and_policies() {
        let panic = EngineError::RequestPanicked {
            message: "boom".into(),
        };
        assert_eq!(panic.category(), "panic");
        assert!(panic.retryable());
        assert!(!panic.degradable());

        let deadline = EngineError::DeadlineExceeded { ms: 50 };
        assert_eq!(deadline.category(), "deadline");
        assert!(!deadline.retryable());
        assert!(deadline.degradable());

        let dim = EngineError::BudgetExceeded {
            what: "matrix dimension",
            limit: 8,
            actual: 64,
        };
        assert!(dim.degradable());
        assert!(!dim.retryable());
        let fil = EngineError::BudgetExceeded {
            what: "filament count",
            limit: 8,
            actual: 64,
        };
        assert!(!fil.degradable(), "filament overrun is a hard rejection");

        let bad = EngineError::BadRequest {
            message: "no".into(),
        };
        assert!(!bad.retryable() && !bad.degradable());
        assert!(bad.to_string().contains("bad request"));
    }

    #[test]
    fn core_errors_classify() {
        let e = EngineError::from_build(CoreError::BudgetExceeded {
            what: "matrix dimension",
            limit: 4,
            actual: 9,
        });
        assert_eq!(e.category(), "budget");
        let e = EngineError::from_build(CoreError::InvalidParameter { reason: "nope" });
        assert_eq!(e.category(), "build");
        assert!(e.to_string().contains("nope"));
    }
}
