//! Cooperative cancellation for long-running kernels.
//!
//! The batch engine enforces wall-clock deadlines with a watchdog thread
//! that cannot preempt a compute thread mid-kernel; instead it flips a
//! shared flag and the kernels check it at natural phase boundaries (one
//! elimination column, one LU inverse column or four-column Cholesky
//! inverse block, one transient step, one AC frequency point). A
//! [`CancelToken`] is that flag: cheap to clone, cheap to poll, and free
//! when disarmed — the common single-shot CLI path carries
//! [`CancelToken::none`] and pays one `Option` branch per check.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared cancellation flag polled cooperatively by long kernels.
///
/// Disarmed tokens ([`CancelToken::none`], also the `Default`) never
/// report cancellation and carry no allocation.
///
/// # Example
///
/// ```
/// use vpec_numerics::cancel::CancelToken;
///
/// let t = CancelToken::new();
/// assert!(!t.is_cancelled());
/// let watcher = t.clone();
/// watcher.cancel();
/// assert!(t.is_cancelled());
/// assert!(!CancelToken::none().is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<AtomicBool>>,
}

impl CancelToken {
    /// An armed token, initially not cancelled. Clones share the flag.
    pub fn new() -> Self {
        CancelToken {
            inner: Some(Arc::new(AtomicBool::new(false))),
        }
    }

    /// A disarmed token: never cancelled, no allocation.
    pub fn none() -> Self {
        CancelToken { inner: None }
    }

    /// `true` when this token can ever report cancellation.
    pub fn armed(&self) -> bool {
        self.inner.is_some()
    }

    /// Requests cancellation. No-op on a disarmed token.
    pub fn cancel(&self) {
        if let Some(flag) = &self.inner {
            flag.store(true, Ordering::Release);
        }
    }

    /// Polls the flag. Always `false` for a disarmed token.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        match &self.inner {
            Some(flag) => flag.load(Ordering::Acquire),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_never_cancelled() {
        let t = CancelToken::none();
        assert!(!t.armed());
        t.cancel();
        assert!(!t.is_cancelled());
    }

    #[test]
    fn clones_share_the_flag() {
        let t = CancelToken::new();
        assert!(t.armed());
        let u = t.clone();
        u.cancel();
        assert!(t.is_cancelled() && u.is_cancelled());
    }

    #[test]
    fn default_is_disarmed() {
        assert!(!CancelToken::default().armed());
    }

    #[test]
    fn cancel_crosses_threads() {
        let t = CancelToken::new();
        let u = t.clone();
        std::thread::spawn(move || u.cancel()).join().unwrap();
        assert!(t.is_cancelled());
    }
}
