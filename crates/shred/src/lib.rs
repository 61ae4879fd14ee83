//! # trance-shred
//!
//! The shredded representation and query shredding transformation of
//! **trance-rs** (Section 4 of the paper).
//!
//! * [`repr`] — value shredding and unshredding: a nested bag becomes a flat
//!   top-level bag plus one flat dictionary (with a `label` column) per
//!   nesting level, and back.
//! * [`query`] — query shredding: an NRC query over nested inputs becomes a
//!   *flat* NRC program computing the output's top-level bag and one
//!   materialized dictionary per output nesting level, applying the paper's
//!   domain-elimination rules so dictionaries are computed directly from
//!   input dictionaries or flat sources.
//! * [`unshred`] — generation of the unshredding step that reassembles nested
//!   output from the materialized dictionaries.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod query;
pub mod repr;
pub mod unshred;

pub use query::{
    flat_input_name, input_dict_name, output_dict_name, shred_query, ShreddedInputDecl,
    ShreddedQuery, TOP_BAG,
};
pub use repr::{
    nesting_structure, shred_value, unshred_value, NestingStructure, ShreddedValue, SiteAllocator,
};
pub use unshred::{bind_shredded_input, eval_and_unshred, unshred_pieces, unshred_program_output};
