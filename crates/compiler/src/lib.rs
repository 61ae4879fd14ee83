//! # trance-compiler
//!
//! The compilation framework of **trance-rs** (Section 3 of the paper): it
//! turns NRC programs into distributed executions on the `trance-dist`
//! engine through the live plan pipeline
//! **NRC → Plan → optimize → execute**:
//!
//! * the unnesting algorithm (`trance_algebra::lower`, Figure 3) reifies the
//!   query as a `PlanProgram`;
//! * `trance_algebra::optimize` applies column pruning, selection/aggregation
//!   pushdown and broadcast-vs-shuffle join strategy selection — the
//!   SparkSQL-like baseline is this same route with the optimizer off;
//! * the physical executor ([`columnar`]) — the only one, with one shape:
//!   every row-local operator runs in a fused morsel pipeline — interprets
//!   the optimized plans over typed batches, materializing assignment
//!   intermediates so later plans optimize against their exact schemas and
//!   sizes. Every strategy runs on it, so any difference between strategies
//!   comes from the compilation route; `nrc::eval` is the reference every
//!   result is held to.
//!
//! The **shredded route** ([`pipeline`]) first applies query shredding
//! (`trance-shred`), then lowers and executes each resulting flat assignment
//! — one per output dictionary — through the same plan layer. Unshredding the
//! output is one more unit of that program ([`unshred`]): a plan that folds
//! each dictionary into the rows holding its labels with one re-nesting join
//! over `NestBag key=[label]`, optimized, captured, explained and replayed
//! like every other unit. Nothing a query executes
//! is outside the plan layer.
//!
//! Registered inputs live in the **table store** ([`store`], owned through
//! [`pipeline::InputSet`]): every table is its batches, converted once at
//! registration and shared by every clone, and a nested input's shredded
//! form is derived from its nested batches partition by partition — the one
//! catalog behind `run_query`, the TCP worker and the serving engine.
//!
//! The strategies compared in the paper's experiments are exposed as
//! [`pipeline::Strategy`] and driven by [`pipeline::run_query`] (the
//! strategy's default options) or [`pipeline::run_query_with`] (explicit
//! [`ExecOptions`] — spilling off, a deadline, a shared kernel cache; no
//! option selects a second way to run a plan, and the one reference is
//! `nrc::eval`);
//! [`pipeline::explain_query`] renders the optimized plans a strategy
//! actually executes. All of them — and the serving layer's
//! [`prepared::prepare_and_run`] / [`prepared::run_prepared`] — execute
//! through one program driver in [`prepared`].

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod columnar;
pub mod kernel;
pub mod options;
pub mod pipeline;
pub mod prepared;
mod shredder;
pub mod store;
pub mod unshred;

pub use columnar::{
    eval_plan_col, exact_schema_col, execute_via_plans_col, infer_catalog_col, ingest_env,
    CapturedPlans,
};
pub use kernel::{compile_ops, Instr, KernelCache, KernelOp, KernelProgram};
pub use options::ExecOptions;
pub use pipeline::{
    collect_unshredded, explain_query, run_query, run_query_explained, run_query_with,
    strategy_options, InputSet, QuerySpec, RunOutcome, RunResult, ShreddedOutput, Strategy,
};
pub use prepared::{plan_cache_key, prepare_and_run, run_prepared, PreparedQuery};
pub use store::ResidentTables;
pub use unshred::unshred_distributed_col;
