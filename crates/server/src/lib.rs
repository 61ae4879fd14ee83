//! # trance-server
//!
//! **Query-as-a-service** over the trance-rs engine: an embeddable
//! [`Engine`] that keeps one `DistContext` — and with it the persistent
//! morsel worker pool — open across requests and serves many clients'
//! queries concurrently. Three layers turn the one-shot benchmark pipeline
//! into a server:
//!
//! 1. **Compiled-plan cache.** Compiling a query repeats identical
//!    front-loaded work on every submission: lowering (the unnesting
//!    algorithm), per-assignment optimization, pipeline-breaker analysis,
//!    kernel-program compilation. The engine caches what that work
//!    produces ([`trance_compiler::PreparedQuery`] + the kernel programs)
//!    keyed by the *structural fingerprint* of the NRC program and input
//!    declarations, the strategy, and the table registry's **epoch**. Any
//!    registration bumps the epoch, so stale plans can never serve; an LRU
//!    bound caps resident memory. A warm hit replays the captured
//!    optimized plans verbatim and books **zero** plan/kernel compile
//!    time.
//! 2. **Concurrent admission on the shared pool.** At most
//!    `max_in_flight` queries execute at once; waiters sit in per-client
//!    FIFO queues granted round-robin across clients, and a full queue is
//!    answered with the typed [`ServeError::Busy`] backpressure signal —
//!    never unbounded buffering. Each admitted query runs in its own
//!    session context (own stats, own cancellation scope with optional
//!    deadline) on the shared workers.
//! 3. **Per-query memory budgets.** A request carrying `memory_budget`
//!    runs under its own worker-memory cap with spilling forced on: the
//!    budgeted tenant degrades to out-of-core execution while neighbors
//!    on the same pool run uncapped.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod admission;
mod cache;
mod engine;

pub use engine::{Engine, EngineConfig, EngineStats, QueryRequest, QueryResponse, ServeError};
