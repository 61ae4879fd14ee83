//! [`ExecOptions`]: everything a caller can set about how one query executes.

use std::sync::Arc;
use std::time::Duration;

use crate::kernel::KernelCache;

/// Compilation options for one query execution.
///
/// [`crate::strategy_options`] gives a strategy's defaults; callers that need
/// a reference mode override single fields, e.g.
/// `ExecOptions { compiled_exprs: false, ..strategy_options(s, false) }`.
///
/// There is one executor shape — every row-local operator runs in a fused
/// pipeline — so the one execution fork is `compiled_exprs`, read by one
/// function, `columnar.rs`'s `flush_kernel`, which builds every `select` /
/// `project` / `extend` step. Both cells are held by a suite: on is the
/// default everywhere; off is `expr_agree.rs` (bag-equal, equal shuffled
/// bytes, compiles nothing) and its overflow cells. `skew_aware` is read by
/// `optimizer_config` and by the `Plan::Join` / `Plan::Nest` arms of
/// `eval_plan_col` (an unoptimized plan has no `Skew` annotation to read,
/// `Γ+` never has one) — unshredding is a plan and gets it there.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Run the plan optimizer (column pruning, selection pushdown, join
    /// strategy selection). Disabled for the SparkSQL-like baseline — the
    /// baseline is the same compilation route with the optimizer off, not a
    /// separate code path.
    pub optimize: bool,
    /// Use skew-aware joins (Section 5).
    pub skew_aware: bool,
    /// Allow out-of-core execution: on clusters with the spill subsystem
    /// enabled (`ClusterConfig::with_spill`) and a worker memory cap set,
    /// memory pressure spills victim partitions to disk instead of failing
    /// with `MemoryExceeded`. **Default on when a memory cap is set** — a
    /// capped run only reproduces the paper's FAIL cells when this is turned
    /// off (or the cluster has no spill support, the default).
    pub spill: bool,
    /// Let the cluster's [`trance_dist::FaultInjector`] fire during this run
    /// (the default). Only bites on clusters configured with a
    /// [`trance_dist::FaultPlan`]; turning it off runs fault-free on the same
    /// cluster — the oracle side of the chaos differential suite.
    pub faults: bool,
    /// Compile scalar expressions to register-based vectorized kernel
    /// programs ([`crate::kernel`], the default): the expressions of each
    /// fused `select`/`extend`/`project` run are flattened — common
    /// subexpressions shared — into one SSA program per pipeline, compiled
    /// once at plan time and executed per morsel as type-specialized
    /// kernels over a selection vector. With this off every such run is
    /// evaluated **by definition** ([`crate::kernel::apply_by_definition`]:
    /// `ScalarExpr::eval` row by row) — no second engine, the written rule
    /// the kernels are held to, kept selectable as the expression-level
    /// differential reference.
    pub compiled_exprs: bool,
    /// A shared [`KernelCache`] to reuse compiled kernel programs across
    /// runs (`None` by default: every run compiles its own). The serving
    /// layer threads the engine's cache through here so a warm query's fused
    /// pipelines replay the cold run's `Arc`'d programs — a hit skips both
    /// the SSA compiler and its compile-time accounting, which is how a warm
    /// query reports zero expression-compile time. Only consulted when
    /// `compiled_exprs` is on.
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
            faults: true,
            compiled_exprs: true,
            kernel_cache: None,
            deadline: None,
        }
    }
}
