//! # trance-nrc
//!
//! The Nested Relational Calculus (NRC) front end of **trance-rs**, a Rust
//! reproduction of *"Scalable Querying of Nested Data"* (VLDB 2020).
//!
//! This crate provides:
//!
//! * the nested data model ([`value::Value`], [`types::Type`]) shared by every
//!   other crate in the workspace,
//! * the NRC expression language of Figure 1 ([`expr::Expr`]) together with
//!   `NewLabel`, the one label construct the shredded compilation route
//!   emits,
//! * an ergonomic [`builder`] DSL for writing queries,
//! * a structural type checker ([`typecheck`]),
//! * a single-node reference evaluator ([`mod@eval`]) defining the semantics that
//!   the distributed pipelines must reproduce, and
//! * programs as sequences of assignments ([`program::Program`]).
//!
//! ```
//! use trance_nrc::builder::*;
//! use trance_nrc::eval::{eval, Env};
//! use trance_nrc::value::Value;
//!
//! let q = forin("x", var("R"), singleton(add(var("x"), int(1))));
//! let env = Env::from_bindings([("R", Value::bag(vec![Value::Int(1), Value::Int(2)]))]);
//! assert_eq!(eval(&q, &env).unwrap(), Value::bag(vec![Value::Int(2), Value::Int(3)]));
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod builder;
pub mod compare;
pub mod error;
pub mod eval;
pub mod expr;
pub mod pretty;
pub mod program;
pub mod typecheck;
pub mod types;
pub mod value;

pub use compare::{approx_eq, bags_approx_equal, canonical_rows};
pub use error::{NrcError, Result};
pub use eval::{eval, Env};
pub use expr::{CmpOp, Expr, PrimOp};
pub use program::{Assignment, Program};
pub use typecheck::{infer, TypeEnv};
pub use types::{ScalarType, TupleType, Type};
pub use value::{Bag, Label, MemSize, Tuple, Value};
