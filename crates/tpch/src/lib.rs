//! # trance-tpch
//!
//! The TPC-H micro-benchmark of Section 6: a seeded, optionally skewed data
//! generator for the tables used by the benchmark (Lineitem, Orders,
//! Customer, Nation, Region, Part) and the three query families —
//! flat-to-nested, nested-to-nested, nested-to-flat — at nesting depths 0–4
//! in narrow and wide variants.
//!
//! The hierarchy follows the paper: level 0 is Lineitem, successive levels
//! group across Orders, Customer, Nation and Region, so the number of
//! top-level tuples shrinks as depth grows.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod generator;
pub mod queries;

pub use generator::{generate, SkewFactor, TpchConfig, TpchData};
pub use queries::{
    flat_to_nested, nested_to_flat, nested_to_nested, nesting_structure_for_depth, QueryVariant,
};
