//! The hardened request boundary: panic isolation and a wall-clock
//! deadline watchdog.
//!
//! Every request runs inside [`run_guarded`]:
//!
//! - **Panic isolation** — the work closure runs under
//!   [`std::panic::catch_unwind`]; a panic anywhere in the pipeline
//!   (extraction, factorization, solve) becomes a typed
//!   [`EngineError::RequestPanicked`] and the batch keeps going.
//! - **Deadline** — an optional watchdog thread sleeps on a condvar until
//!   either the request finishes (it is woken and exits silently) or the
//!   deadline expires, at which point it fires the request's
//!   [`CancelToken`]. The numerics and circuit layers poll that token
//!   cooperatively (per elimination column, per inverse column or
//!   four-column Cholesky block, per transient step, per AC point), so
//!   cancellation lands within one unit of work — no threads are killed,
//!   no state is corrupted.

use crate::EngineError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vpec_numerics::CancelToken;

/// A deadline watchdog: fires `token` if not disarmed within `deadline`.
///
/// Dropping the watchdog disarms and joins it, so the thread never
/// outlives the request that armed it.
struct Watchdog {
    state: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Spawns the watchdog thread. A failed spawn is a typed
    /// [`EngineError::Io`]: the request cannot honour its deadline.
    fn arm(deadline: Duration, token: CancelToken) -> Result<Self, EngineError> {
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_state = Arc::clone(&state);
        let handle = std::thread::Builder::new()
            .name("vpec-engine-watchdog".into())
            .spawn(move || {
                let (lock, cvar) = &*thread_state;
                let start = Instant::now();
                // The flag is a plain bool, valid even if a holder panicked.
                let mut done = lock.lock().unwrap_or_else(PoisonError::into_inner);
                while !*done {
                    let elapsed = start.elapsed();
                    if elapsed >= deadline {
                        token.cancel();
                        return;
                    }
                    let (guard, _) = cvar
                        .wait_timeout(done, deadline - elapsed)
                        .unwrap_or_else(PoisonError::into_inner);
                    done = guard;
                }
            })
            .map_err(|e| EngineError::Io {
                message: format!("cannot spawn the deadline watchdog: {e}"),
            })?;
        Ok(Watchdog {
            state,
            handle: Some(handle),
        })
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        let (lock, cvar) = &*self.state;
        *lock.lock().unwrap_or_else(PoisonError::into_inner) = true;
        cvar.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `work` inside the request boundary.
///
/// `token` must be the same token `work` polls (the caller clones it into
/// analysis specs); `deadline_ms` arms the watchdog when set.
///
/// Error mapping, in priority order:
/// 1. a panic → [`EngineError::RequestPanicked`];
/// 2. any build/analysis failure while the token is fired →
///    [`EngineError::DeadlineExceeded`] (the cancellation surfaced
///    through whatever layer was running — its shape varies, the cause
///    is the deadline);
/// 3. everything else passes through unchanged.
///
/// A watchdog thread that cannot be spawned fails the request with
/// [`EngineError::Io`] before `work` runs.
///
/// A request that *completes* despite a late-firing watchdog counts as a
/// success — the deadline bounds work, it does not invalidate results.
///
/// # Errors
///
/// See the mapping above.
pub fn run_guarded<T>(
    deadline_ms: Option<u64>,
    token: &CancelToken,
    work: impl FnOnce() -> Result<T, EngineError>,
) -> Result<T, EngineError> {
    let _watchdog = deadline_ms
        .map(|ms| Watchdog::arm(Duration::from_millis(ms), token.clone()))
        .transpose()?;
    match catch_unwind(AssertUnwindSafe(work)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => {
            if token.is_cancelled()
                && matches!(
                    e,
                    EngineError::BuildFailed { .. } | EngineError::AnalysisFailed { .. }
                )
            {
                Err(EngineError::DeadlineExceeded {
                    ms: deadline_ms.unwrap_or(0),
                })
            } else {
                Err(e)
            }
        }
        Err(payload) => Err(EngineError::RequestPanicked {
            message: panic_message(payload),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_passes_through() {
        let token = CancelToken::new();
        let out = run_guarded(Some(5_000), &token, || Ok::<_, EngineError>(41 + 1));
        assert_eq!(out.unwrap(), 42);
        assert!(
            !token.is_cancelled(),
            "watchdog must be disarmed on success"
        );
    }

    #[test]
    fn panic_is_isolated_and_typed() {
        let token = CancelToken::new();
        let out: Result<(), _> = run_guarded(None, &token, || panic!("injected boom"));
        match out {
            Err(EngineError::RequestPanicked { message }) => {
                assert!(message.contains("injected boom"));
            }
            other => panic!("expected RequestPanicked, got {other:?}"),
        }
    }

    #[test]
    fn deadline_fires_token_and_maps_failure() {
        let token = CancelToken::new();
        let out: Result<(), _> = run_guarded(Some(20), &token, || {
            // Simulate cooperative work that polls the token.
            let start = Instant::now();
            while !token.is_cancelled() {
                assert!(
                    start.elapsed() < Duration::from_secs(10),
                    "watchdog never fired"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(EngineError::BuildFailed {
                message: "solve cancelled by deadline".into(),
            })
        });
        assert_eq!(out, Err(EngineError::DeadlineExceeded { ms: 20 }));
    }

    #[test]
    fn non_cancellation_errors_pass_through_unmapped() {
        let token = CancelToken::new();
        let out: Result<(), _> = run_guarded(Some(5_000), &token, || {
            Err(EngineError::BudgetExceeded {
                what: "filament count",
                limit: 1,
                actual: 2,
            })
        });
        assert!(matches!(out, Err(EngineError::BudgetExceeded { .. })));
    }

    #[test]
    fn late_completion_beats_the_watchdog() {
        // Work that finishes after the deadline but never polls the token
        // still succeeds — cancellation is cooperative, not preemptive.
        let token = CancelToken::new();
        let out = run_guarded(Some(1), &token, || {
            std::thread::sleep(Duration::from_millis(30));
            Ok::<_, EngineError>(7)
        });
        assert_eq!(out.unwrap(), 7);
    }
}
