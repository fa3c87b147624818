//! Deterministic fault injection at pipeline stage boundaries.
//!
//! Defaults to "inject nothing". Carried by extraction configs and
//! analysis specs so integration tests (and the engine's request schema)
//! can exercise every recovery branch deterministically: transient NaN
//! recovery, panic isolation at the extraction and engine boundaries, and
//! deadline enforcement. A factorization has no recovery branch to
//! exercise: every MNA system gets one sparse factor, and a system it
//! cannot factor is an error.
//!
//! The struct lives in `vpec-numerics` (the bottom of the crate stack) so
//! every layer can consume it; `vpec-circuit` re-exports it under its
//! original `diagnostics` path for compatibility.

/// Test-only fault injection at pipeline stage boundaries.
///
/// Defaults to "inject nothing". Carried by analysis specs so
/// integration tests (and the engine request schema) can exercise
/// every recovery branch deterministically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultInjection {
    /// Poison the transient solution with NaN once, right after this
    /// accepted step count (0 poisons the first computed step).
    pub poison_step: Option<usize>,
    /// Panic inside parasitic extraction — exercises the engine's
    /// `catch_unwind` request boundary at the earliest pipeline stage.
    pub panic_extraction: bool,
    /// Panic inside the engine request boundary itself, after the request
    /// has been admitted but before any model work.
    pub panic_engine: bool,
    /// Stall the transient loop for this many milliseconds before the
    /// first step — a deterministic way to trip a wall-clock deadline.
    pub stall_ms: Option<u64>,
}

impl FaultInjection {
    /// No faults — the default.
    pub fn none() -> Self {
        FaultInjection::default()
    }

    /// `true` if any fault is armed.
    pub fn is_armed(&self) -> bool {
        self.poison_step.is_some()
            || self.panic_extraction
            || self.panic_engine
            || self.stall_ms.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disarmed() {
        assert!(!FaultInjection::none().is_armed());
        assert_eq!(FaultInjection::none(), FaultInjection::default());
    }

    #[test]
    fn every_fault_arms() {
        let cases = [
            FaultInjection {
                poison_step: Some(3),
                ..FaultInjection::none()
            },
            FaultInjection {
                panic_extraction: true,
                ..FaultInjection::none()
            },
            FaultInjection {
                panic_engine: true,
                ..FaultInjection::none()
            },
            FaultInjection {
                stall_ms: Some(10),
                ..FaultInjection::none()
            },
        ];
        for f in cases {
            assert!(f.is_armed(), "{f:?} should arm");
        }
    }
}
