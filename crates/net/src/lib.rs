//! trance-net — true multi-node execution for the trance engine.
//!
//! The engine's SPMD model runs the same deterministic `PlanProgram` on
//! every rank and funnels all cross-partition movement through the
//! `Exchange` collectives. This crate supplies the network backend:
//!
//! - [`msg`]: the control protocol between the [`Coordinator`] and the
//!   `trance-worker` processes, riding the hardened spill wire format
//!   (magic, version, CRC-32, bounded lengths) so corrupt frames surface as
//!   typed errors, never panics or over-allocation.
//! - [`exchange`]: the async TCP data plane — one connection per worker
//!   pair, per-link credit-based backpressure, reorder-tolerant collective
//!   rounds, and typed `Retryable` errors on connection loss that feed the
//!   coordinator's whole-job retry.
//! - [`coordinator`]: a library — it partitions the catalog across worker
//!   processes, drives jobs attempt by attempt, and merges per-rank rows
//!   back into one bag in partition order.
//! - [`worker`]: one rank's serve loop, the body of the crate's one binary,
//!   `trance-worker --connect HOST:PORT`.
//! - [`testkit`]: multi-process clusters, one worker process per rank.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod coordinator;
pub mod exchange;
pub mod link;
pub mod msg;
pub mod testkit;
pub mod worker;

pub use coordinator::{Coordinator, CoordinatorListener, JobReport, JobSpec, MAX_JOB_ATTEMPTS};
pub use exchange::{DataPlane, NetExchange, CREDIT_WINDOW};
pub use link::FramedConn;
pub use msg::{ClusterParams, Ctrl, DropSpec, ErrKind, LoadKind, NetStats, Outcome};
pub use testkit::{spawn_cluster, spawn_self_cluster, LocalCluster};
