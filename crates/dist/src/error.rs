//! The typed error taxonomy shared by every engine operator.
//!
//! Failures fall into four classes:
//!
//! * **retryable** ([`ExecError::Retryable`]) — a lost link or peer of a
//!   multi-process run (raised by the cluster [`crate::Exchange`]s and the
//!   coordinator). No operator retries it: the coordinator reruns the whole
//!   job on a fresh mesh;
//! * **cancelled** ([`ExecError::Cancelled`]) — the run's
//!   [`crate::CancelToken`] fired (explicit cancel or deadline); never
//!   retried, unwinds cooperatively at the next boundary;
//! * **memory** ([`ExecError::MemoryExceeded`]) — the paper's simulated
//!   FAIL, a *deterministic* planning outcome, never retried;
//! * **fatal** (everything else) — wrong data, corrupt spill frames,
//!   unsupported shapes; retrying cannot help.

use std::fmt;

use trance_nrc::NrcError;

/// Errors raised by the distributed engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A worker's materialized state exceeded the simulated per-worker memory
    /// cap ([`crate::ClusterConfig::with_worker_memory`]). This reproduces the
    /// paper's FAIL entries: strategies whose flattened intermediates blow up
    /// die here instead of finishing. Deterministic — never retried.
    MemoryExceeded {
        /// The worker that ran out of memory.
        worker: usize,
        /// Bytes the worker would have had to hold.
        used_bytes: usize,
        /// The configured per-worker cap in bytes.
        limit_bytes: usize,
    },
    /// A row-level evaluation error bubbled up from the NRC value model.
    Nrc(NrcError),
    /// The spill subsystem failed *non-transiently* (I/O error after a
    /// partial write, corrupt spill frame). Carries the rendered error so
    /// `ExecError` stays `Clone + PartialEq`.
    Spill(String),
    /// A transient failure of a multi-process run: a link or peer was lost
    /// mid-exchange. The job as a whole may be rerun on a fresh mesh; the
    /// failed run's partial state is discarded.
    Retryable {
        /// Human-readable description of the failure.
        detail: String,
    },
    /// The run was cancelled — explicitly through its
    /// [`crate::CancelToken`] or by an armed deadline elapsing. Observed at
    /// the next morsel or spill-frame boundary; never retried.
    Cancelled {
        /// Why the run was cancelled (`"deadline exceeded"`, a caller's
        /// reason, ...).
        reason: String,
    },
    /// Anything else (unknown inputs, unsupported shapes, ...).
    Other(String),
}

/// The engine-wide error name used by the compiler and harness layers; one
/// taxonomy, two names.
pub type EngineError = ExecError;

impl ExecError {
    /// True for transient failures a whole-job rerun may absorb.
    pub fn is_retryable(&self) -> bool {
        matches!(self, ExecError::Retryable { .. })
    }

    /// True when the run was cancelled (explicitly or by deadline).
    pub fn is_cancelled(&self) -> bool {
        matches!(self, ExecError::Cancelled { .. })
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::MemoryExceeded {
                worker,
                used_bytes,
                limit_bytes,
            } => write!(
                f,
                "worker {worker} exceeded its memory cap ({used_bytes} bytes needed, \
                 {limit_bytes} allowed)"
            ),
            ExecError::Nrc(e) => write!(f, "{e}"),
            ExecError::Spill(msg) => write!(f, "spill failure: {msg}"),
            ExecError::Retryable { detail } => write!(f, "transient fault: {detail}"),
            ExecError::Cancelled { reason } => write!(f, "query cancelled: {reason}"),
            ExecError::Other(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Nrc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NrcError> for ExecError {
    fn from(e: NrcError) -> Self {
        ExecError::Nrc(e)
    }
}

impl From<std::io::Error> for ExecError {
    fn from(e: std::io::Error) -> Self {
        ExecError::Spill(e.to_string())
    }
}

/// Result alias used throughout the engine and its callers.
pub type Result<T> = std::result::Result<T, ExecError>;
