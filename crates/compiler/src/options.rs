//! [`ExecOptions`]: everything a caller can set about how one query executes.

use std::sync::Arc;
use std::time::Duration;

use crate::kernel::KernelCache;

/// Compilation options for one query execution.
///
/// [`crate::strategy_options`] gives a strategy's defaults; callers override
/// single fields, e.g.
/// `ExecOptions { spill: false, ..strategy_options(s, false) }`.
///
/// There is one executor shape — every row-local operator runs in a fused
/// pipeline over compiled expression kernels — and one reference, the
/// differential suites' `nrc::eval`; no field selects a second way to run a
/// plan. `spill` is the one mode boolean. `skew_aware` is read by the `Plan::Join` arm of `eval_plan_col` alone:
/// a skew-aware run executes the plain run's plans, and every join
/// (unshredding's label joins included — unshredding is a plan) goes
/// through `skew_join` with the strategy its plan names.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Run the plan optimizer (column pruning, selection pushdown, join
    /// strategy selection). Disabled for the SparkSQL-like baseline — the
    /// baseline is the same compilation route with the optimizer off, not a
    /// separate code path.
    pub optimize: bool,
    /// Run every join skew-aware (Section 5): heavy keys stay put and their
    /// matches are broadcast.
    pub skew_aware: bool,
    /// Allow out-of-core execution: on clusters with the spill subsystem
    /// enabled (`ClusterConfig::with_spill`) and a worker memory cap set,
    /// memory pressure spills victim partitions to disk instead of failing
    /// with `MemoryExceeded`. **Default on when a memory cap is set** — a
    /// capped run only reproduces the paper's FAIL cells when this is turned
    /// off (or the cluster has no spill support, the default).
    pub spill: bool,
    /// A shared [`KernelCache`] to reuse compiled kernel programs across
    /// runs (`None` by default: every run compiles its own). The serving
    /// layer threads the engine's cache through here so a warm query's fused
    /// pipelines replay the cold run's `Arc`'d programs — a hit skips both
    /// the SSA compiler and its compile-time accounting, which is how a warm
    /// query reports zero expression-compile time.
    pub kernel_cache: Option<Arc<KernelCache>>,
    /// Wall-clock budget of the run (`None` by default: unbounded). Arms the
    /// context's [`trance_dist::CancelToken`] for the duration of the run,
    /// so the query is cooperatively cancelled — returning
    /// [`trance_dist::ExecError::Cancelled`] — once the budget expires, even
    /// mid-spill.
    pub deadline: Option<Duration>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            optimize: true,
            skew_aware: false,
            spill: true,
            kernel_cache: None,
            deadline: None,
        }
    }
}
