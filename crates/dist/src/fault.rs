//! Cooperative cancellation.
//!
//! [`CancelToken`] carries a cancel flag and an optional deadline, checked
//! at morsel boundaries and spill frame boundaries (never per row). One
//! token lives in every [`crate::DistContext`]; the compiler resets it at
//! the start of each run and arms the deadline from the caller's timeout.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{ExecError, Result};
use crate::stats::lock;

const DEADLINE_UNSET: u64 = u64::MAX;

#[derive(Debug)]
struct CancelState {
    cancelled: AtomicBool,
    /// Deadline as nanos since `anchor`; [`DEADLINE_UNSET`] when unarmed.
    deadline_nanos: AtomicU64,
    anchor: Instant,
    reason: std::sync::Mutex<Option<String>>,
}

/// Cooperative cancellation handle: cheap to clone, checked at morsel and
/// spill frame boundaries. One token lives in every [`crate::DistContext`];
/// the compiler resets it at the start of each run.
#[derive(Debug, Clone)]
pub struct CancelToken {
    state: Arc<CancelState>,
}

impl Default for CancelToken {
    fn default() -> CancelToken {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A fresh, unarmed token.
    pub fn new() -> CancelToken {
        CancelToken {
            state: Arc::new(CancelState {
                cancelled: AtomicBool::new(false),
                deadline_nanos: AtomicU64::new(DEADLINE_UNSET),
                anchor: Instant::now(),
                reason: std::sync::Mutex::new(None),
            }),
        }
    }

    /// Requests cancellation with a caller-supplied reason. Idempotent; the
    /// first reason wins.
    pub fn cancel(&self, reason: &str) {
        {
            let mut slot = lock(&self.state.reason);
            if slot.is_none() {
                *slot = Some(reason.to_string());
            }
        }
        self.state.cancelled.store(true, Ordering::Release);
    }

    /// Arms (or clears) a deadline `timeout` from now: the next boundary
    /// check after it elapses cancels the run, even mid-spill.
    pub fn set_timeout(&self, timeout: Option<Duration>) {
        let nanos = match timeout {
            Some(t) => {
                let from_anchor = self.state.anchor.elapsed() + t;
                (from_anchor.as_nanos() as u64).min(DEADLINE_UNSET - 1)
            }
            None => DEADLINE_UNSET,
        };
        self.state.deadline_nanos.store(nanos, Ordering::Release);
    }

    /// Clears the flag, the reason and the deadline — the start-of-run
    /// reset.
    pub fn reset(&self) {
        self.state.cancelled.store(false, Ordering::Release);
        self.state
            .deadline_nanos
            .store(DEADLINE_UNSET, Ordering::Release);
        *lock(&self.state.reason) = None;
    }

    /// True once cancellation was requested (does not evaluate the
    /// deadline).
    pub fn is_cancelled(&self) -> bool {
        self.state.cancelled.load(Ordering::Acquire)
    }

    /// The boundary check: `Ok` while the run may continue,
    /// [`ExecError::Cancelled`] once cancelled or past the deadline.
    pub fn check(&self) -> Result<()> {
        if self.state.cancelled.load(Ordering::Acquire) {
            let reason = lock(&self.state.reason)
                .clone()
                .unwrap_or_else(|| "cancelled".to_string());
            return Err(ExecError::Cancelled { reason });
        }
        let deadline = self.state.deadline_nanos.load(Ordering::Acquire);
        if deadline != DEADLINE_UNSET && self.state.anchor.elapsed().as_nanos() as u64 >= deadline {
            self.cancel("deadline exceeded");
            return Err(ExecError::Cancelled {
                reason: "deadline exceeded".to_string(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_checks_flag_and_deadline() {
        let token = CancelToken::new();
        assert!(token.check().is_ok());
        token.cancel("user abort");
        assert!(token.is_cancelled());
        match token.check() {
            Err(ExecError::Cancelled { reason }) => assert_eq!(reason, "user abort"),
            other => panic!("expected Cancelled, got {other:?}"),
        }
        token.reset();
        assert!(token.check().is_ok());
        token.set_timeout(Some(Duration::ZERO));
        match token.check() {
            Err(ExecError::Cancelled { reason }) => assert_eq!(reason, "deadline exceeded"),
            other => panic!("expected deadline Cancelled, got {other:?}"),
        }
        assert!(token.is_cancelled(), "a fired deadline latches the flag");
    }
}
