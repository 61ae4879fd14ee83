//! # trance-algebra
//!
//! The plan layer of **trance-rs** — the middle of the live compilation
//! pipeline **NRC → Plan → optimize → execute** (Figure 2 of the paper):
//!
//! 1. [`lower()`] implements the unnesting algorithm (Figure 3): it translates
//!    an NRC bag expression into a [`PlanProgram`] — materialized assignments
//!    plus a root [`Plan`] built from selections, projections/extensions,
//!    (cross/equi/re-nesting) joins, unnests, nest operators `Γ⊎`/`Γ+`, duplicate
//!    elimination and unions. The shredded route lowers each of its flat
//!    assignments through the same entry point. Putting a flat child stream
//!    back under its parent is one shape, built in one place
//!    ([`Plan::renest`]): the lowering uses it for every nesting level, the
//!    compiler's unshredding unit for every dictionary.
//! 2. [`optimize()`] is the single place optimization lives: selection
//!    pushdown, liveness-based column pruning (above scans and unnests and
//!    below every join and `Γ` input), aggregation
//!    pushdown, broadcast-vs-shuffle-vs-skew join strategy selection
//!    annotated on [`Plan::Join`] nodes, and the `place_by` of every
//!    [`Plan::Nest`] — the subset of its key that hashes its output to where
//!    the next breaker up needs it. Running a lowered program without this
//!    step *is* the SparkSQL-like baseline.
//! 3. `trance-compiler`'s physical executor interprets the optimized plans
//!    on `trance-dist` collections; [`pretty_plan`] renders them (pruned
//!    columns and chosen join strategies included) for EXPLAIN output.
//!
//! [`schema`] provides the attribute-level schema inference and the
//! [`Catalog`] (schemas plus materialized sizes) that both the optimizer and
//! the lowering consult. [`pipelines`] is the **pipeline-breaker analysis**:
//! it groups each plan's maximal chains of row-local operators into the
//! fused pipelines the executor drives morsel-by-morsel
//! ([`fuse_chain`]), and [`pretty_plan_pipelines`] renders plans with their
//! pipeline groupings for EXPLAIN. [`placement`] is hash placement as a plan
//! property: the one per-node rule for which columns a row-local operator
//! carries through unchanged ([`carried_column`]), shared by the executor,
//! the optimizer and EXPLAIN's `[in place: hashed by …]` marks.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod fingerprint;
pub mod lower;
pub mod optimize;
pub mod pipelines;
pub mod placement;
pub mod plan;
pub mod scalar;
pub mod schema;

pub use fingerprint::{combine as combine_fingerprints, fingerprint, Fnv1a};
pub use lower::{lower, LowerError, LowerResult, PlanAssignment, PlanProgram};
pub use optimize::{optimize, optimize_default, OptimizerConfig};
pub use pipelines::{
    fuse_chain, is_row_local, needs_sequential, pipeline_label, pipeline_op_name,
    pretty_plan_pipelines,
};
pub use placement::{
    carried_column, plan_placement, served_in_place, PlanPlacement, ScanPlacements,
};
pub use plan::{is_passthrough, pretty_plan, JoinStrategy, NestOp, Plan, PlanJoinKind};
pub use scalar::ScalarExpr;
pub use schema::{output_schema, physical_fields, AttrSchema, Catalog, PhysField, PhysType};
