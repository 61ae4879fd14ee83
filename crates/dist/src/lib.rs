//! # trance-dist
//!
//! The simulated distributed bulk-collection engine of **trance-rs**: the
//! runtime that the standard and shredded compilation routes of
//! `trance-compiler` execute on (the role Spark plays for the paper's
//! implementation).
//!
//! * [`DistContext`] — owns the cluster configuration, the **persistent
//!   worker pool** ([`scheduler::WorkerPool`], [`ClusterConfig::workers`]
//!   participants with work-stealing deques — no per-operator thread spawn)
//!   and the shared [`Stats`] counters (shuffled rows/bytes, broadcast
//!   volume, join strategies taken, per-operator timings).
//! * [`DistCollection`] — the partitioned row-side container: how rows are
//!   loaded into the engine, and how a result is handed back at the collect
//!   boundary — as its batches, whose rows are built once, on demand.
//!   Nothing executes on it.
//! * [`Batch`] / [`ColCollection`] — the **columnar representation** every
//!   operator runs on. A batch holds one
//!   partition's rows as `Arc<Schema>` (attribute names once per batch) plus
//!   typed columns: `i64`/`f64`/`bool`/date vectors, dictionary-encoded
//!   strings (one concatenated byte buffer + `u32` offsets and codes), and
//!   offset-encoded nested-bag columns whose elements form a child batch.
//!   Validity is two bitmaps per column — `nulls` for explicit NULLs and
//!   `absent` for attributes a row's tuple never carried, which keeps the
//!   `Value` ↔ `Batch` round trip lossless. [`ColCollection`] carries the
//!   operator suite (row-local transforms, `union`, `distinct`, `unnest`,
//!   `join`, `nest_sum`, `nest_bag`), each partition-parallel on the pool;
//!   fused operator pipelines compiled by `trance-compiler` execute
//!   **morsel-by-morsel** through [`ColCollection::run_pipeline`]. Shuffles
//!   meter **exact physical buffer bytes**
//!   ([`StatsSnapshot::shuffled_bytes_phys`]) next to the row-equivalent
//!   logical estimate, while broadcast planning and the memory cap use
//!   logical sizes. Batch schemas are the attribute sets of the optimized
//!   plan operators that produce them — the same plans `--explain` renders.
//! * [`JoinSpec`] — equi-join specs executed as partitioned hash joins with
//!   automatic small-side broadcast ([`ColCollection::join`]), or skew-aware
//!   as in Section 5 ([`ColCollection::skew_join`]): a shuffle join holds
//!   back the rows of the heavy keys its route phase counts and joins them
//!   by a broadcast under [`ClusterConfig::with_broadcast_limit`].
//!
//! The engine also simulates the paper's FAIL runs: when a per-worker memory
//! cap is configured ([`ClusterConfig::with_worker_memory`]), operators whose
//! output overloads a worker raise [`ExecError::MemoryExceeded`].
//!
//! With the **out-of-core spill subsystem** enabled
//! ([`ClusterConfig::with_spill`], backed by the `trance-store` crate),
//! memory pressure spills instead of failing: the memory governor picks
//! victim partitions at materialize time, shuffle writers overflow oversized
//! receiving partitions to disk, co-partitioned joins that exceed the
//! operator budget run as external (Grace-style) hash joins over on-disk
//! buckets, and grouping finalizers sub-partition the same way (see
//! [`spill`] and [`colops`]). Spill traffic is metered in
//! [`StatsSnapshot::spilled_bytes`] / `spill_files` / `spill_micros`.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use trance_nrc::Value;
use trance_store::SpillManager;

use crate::stats::lock;

pub mod batch;
pub mod cancel;
pub mod colops;
pub mod error;
pub mod exchange;
pub mod join;
mod keys;
pub mod ops;
mod partition;
pub mod scheduler;
pub mod spill;
pub mod stats;

pub use batch::{
    Batch, Bitmap, Column, FieldHint, GatherIndex, RowSel, Schema, SelScratch, StrDict,
};
pub use cancel::CancelToken;
pub use colops::{ColCollection, Placement};
pub use error::{EngineError, ExecError, Result};
pub use exchange::{allgather_u64, global_sum, owned_range, owner_of_partition, Exchange, MemMesh};
pub use join::{JoinHint, JoinKind, JoinSpec};
pub use ops::DistCollection;
pub use scheduler::{MorselCtx, WorkerPool};
pub use stats::{ExprProgramStat, JoinStrategy, OpTiming, PipelineTiming, Stats, StatsSnapshot};

/// Shape and limits of the simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of parallel workers (OS threads running partitions).
    pub workers: usize,
    /// Number of hash partitions (usually a small multiple of `workers`).
    pub partitions: usize,
    /// Maximum size in bytes of a side that may be broadcast to every worker
    /// instead of shuffled.
    pub broadcast_limit: usize,
    /// Simulated per-worker memory cap in bytes; operators fail with
    /// [`ExecError::MemoryExceeded`] when an output overloads a worker.
    pub worker_memory: Option<usize>,
    /// Whether the spill subsystem is available: with this set (and a
    /// [`ClusterConfig::worker_memory`] cap configured), operators whose
    /// materialized output overloads a worker spill victim partitions to
    /// disk instead of raising [`ExecError::MemoryExceeded`]. Off by default
    /// so the paper's FAIL reproduction is untouched.
    pub spill: bool,
    /// Base directory for the run's scoped spill directory (the system temp
    /// directory when unset).
    pub spill_dir: Option<PathBuf>,
}

impl ClusterConfig {
    /// A cluster of `workers` workers over `partitions` hash partitions, with
    /// an 8 MiB broadcast limit and no memory cap.
    pub fn new(workers: usize, partitions: usize) -> ClusterConfig {
        ClusterConfig {
            workers: workers.max(1),
            partitions: partitions.max(1),
            broadcast_limit: 8 * 1024 * 1024,
            worker_memory: None,
            spill: false,
            spill_dir: None,
        }
    }

    /// Sets the broadcast limit in bytes.
    pub fn with_broadcast_limit(mut self, bytes: usize) -> ClusterConfig {
        self.broadcast_limit = bytes;
        self
    }

    /// Sets the simulated per-worker memory cap in bytes.
    pub fn with_worker_memory(mut self, bytes: usize) -> ClusterConfig {
        self.worker_memory = Some(bytes);
        self
    }

    /// Enables the out-of-core spill subsystem: with a worker memory cap
    /// set, memory pressure spills victim partitions to disk instead of
    /// failing the run.
    pub fn with_spill(mut self) -> ClusterConfig {
        self.spill = true;
        self
    }

    /// Enables spilling with an explicit base directory for the run's
    /// scoped spill directory.
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> ClusterConfig {
        self.spill = true;
        self.spill_dir = Some(dir.into());
        self
    }

    /// Sets an explicit worker count.
    pub fn with_workers(mut self, workers: usize) -> ClusterConfig {
        self.workers = workers.max(1);
        self
    }

    /// Applies the `TRANCE_WORKERS` environment override to the worker
    /// count, when the variable is set — the knob the CI matrix turns to run
    /// the differential suites at several pool sizes. Tests that depend on
    /// an exact worker count (the scheduler-stress suite, the parallelism
    /// assertions) simply do not call this.
    pub fn with_env_workers(mut self) -> ClusterConfig {
        if let Some(workers) = env_workers() {
            self.workers = workers.max(1);
        }
        self
    }
}

/// Upper bound [`env_workers`] clamps to: far above any real core count,
/// low enough that a stray huge value cannot exhaust memory spawning pool
/// threads.
pub const MAX_ENV_WORKERS: usize = 256;

/// The `TRANCE_WORKERS` environment override. Hardened: garbage and `0`
/// are ignored with a warning (the engine must never panic on a bad knob),
/// absurd values clamp to [`MAX_ENV_WORKERS`] with a warning.
pub fn env_workers() -> Option<usize> {
    let raw = std::env::var("TRANCE_WORKERS").ok()?;
    match raw.trim().parse::<usize>() {
        Ok(0) => {
            eprintln!("warning: ignoring TRANCE_WORKERS=0 (worker count must be positive)");
            None
        }
        Ok(w) if w > MAX_ENV_WORKERS => {
            eprintln!("warning: clamping TRANCE_WORKERS={w} to {MAX_ENV_WORKERS}");
            Some(MAX_ENV_WORKERS)
        }
        Ok(w) => Some(w),
        Err(_) => {
            eprintln!("warning: ignoring unparseable TRANCE_WORKERS={raw:?}");
            None
        }
    }
}

#[derive(Debug)]
struct CtxInner {
    config: ClusterConfig,
    stats: Stats,
    /// The persistent worker pool — created once with the root context and
    /// shared (via `Arc`) by every operator, pipeline run and **session
    /// context** derived from it (no per-operator thread spawn, no per-query
    /// pool).
    pool: Arc<WorkerPool>,
    /// Per-run spill toggle: lets a caller (the compiler's
    /// `ExecOptions::spill`) run one query with spilling off on a
    /// spill-capable cluster — the FAIL-vs-spill comparison the capped
    /// benchmarks report.
    spill_session: AtomicBool,
    /// The scoped spill directory, created lazily on the first spill so
    /// non-spilling runs never touch the filesystem.
    spill_manager: Mutex<Option<Arc<SpillManager>>>,
    /// The run's cancellation token; reset by the compiler at the start of
    /// each run, checked at morsel and spill-frame boundaries.
    cancel: CancelToken,
    /// The multi-process exchange, when this context is one rank of a
    /// cluster run (see [`exchange`]). `None` — the default — keeps every
    /// distributed branch a single resident check.
    exchange: Mutex<Option<Arc<dyn exchange::Exchange>>>,
}

/// Handle to the simulated cluster: configuration plus shared metrics.
/// Cheap to clone; clones share the same [`Stats`].
#[derive(Debug, Clone)]
pub struct DistContext {
    inner: Arc<CtxInner>,
}

impl DistContext {
    /// Creates a context for `config`.
    pub fn new(config: ClusterConfig) -> DistContext {
        let pool = Arc::new(WorkerPool::new(config.workers));
        DistContext {
            inner: Arc::new(CtxInner {
                config,
                stats: Stats::new(),
                pool,
                spill_session: AtomicBool::new(true),
                spill_manager: Mutex::new(None),
                cancel: CancelToken::new(),
                exchange: Mutex::new(None),
            }),
        }
    }

    /// Derives a **session context**: a context with its own [`Stats`],
    /// [`CancelToken`], spill scope and spill toggle, *sharing this
    /// context's persistent worker pool*. This is what lets several queries
    /// run concurrently on one pool without racing on each other's metrics,
    /// deadlines or spill switches — the serving layer creates one session
    /// per admitted query.
    pub fn session(&self) -> DistContext {
        self.session_with_memory(self.inner.config.worker_memory)
    }

    /// A session context (see [`DistContext::session`]) with an explicit
    /// per-session **memory budget**: `worker_memory` overrides the cluster
    /// cap for every operator run under the session. A budgeted session also
    /// gets the spill subsystem enabled, so one tenant under memory pressure
    /// spills to disk while its uncapped neighbours are untouched.
    pub fn session_with_memory(&self, worker_memory: Option<usize>) -> DistContext {
        let mut config = self.inner.config.clone();
        let budgeted = worker_memory != self.inner.config.worker_memory;
        config.worker_memory = worker_memory;
        if budgeted && worker_memory.is_some() {
            config.spill = true;
        }
        DistContext {
            inner: Arc::new(CtxInner {
                config,
                stats: Stats::new(),
                pool: self.inner.pool.clone(),
                spill_session: AtomicBool::new(true),
                spill_manager: Mutex::new(None),
                cancel: CancelToken::new(),
                exchange: Mutex::new(self.exchange()),
            }),
        }
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.inner.config
    }

    /// The shared engine metrics.
    pub fn stats(&self) -> &Stats {
        &self.inner.stats
    }

    /// The context's persistent worker pool.
    pub fn pool(&self) -> &WorkerPool {
        &self.inner.pool
    }

    /// Runs a batch of borrowed tasks on the persistent pool, blocking until
    /// all complete, and meters the scope's steals into the context stats.
    /// Panics of individual tasks re-raise here after the whole scope
    /// settled.
    pub fn run_tasks<'env>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        let steals = self.inner.pool.run(tasks);
        if steals > 0 {
            self.inner.stats.record_steals(steals);
        }
    }

    /// True when memory pressure spills instead of failing: the cluster
    /// enables spilling, a worker memory cap is set, and the current session
    /// has not turned spilling off.
    pub fn spill_active(&self) -> bool {
        self.inner.config.spill
            && self.inner.config.worker_memory.is_some()
            && self.inner.spill_session.load(Ordering::Relaxed)
    }

    /// Toggles spilling for subsequent operators on this context (no-op on
    /// clusters without [`ClusterConfig::spill`]). The compiler sets this
    /// from `ExecOptions::spill` at the start of each run.
    pub fn set_spill_session(&self, on: bool) {
        self.inner.spill_session.store(on, Ordering::Relaxed);
    }

    /// The run's cancellation token. Cheap to clone; callers cancel (or arm
    /// a deadline on) the clone while the run is in flight, and the engine
    /// observes it at the next morsel or spill-frame boundary.
    pub fn cancel_token(&self) -> CancelToken {
        self.inner.cancel.clone()
    }

    /// Boundary cancellation check (flag + deadline).
    pub fn check_cancel(&self) -> error::Result<()> {
        self.inner.cancel.check()
    }

    /// Installs (or clears) the multi-process [`exchange::Exchange`] for
    /// this context: with one installed, shuffles, broadcasts and planning
    /// decisions coordinate with the other ranks of the cluster run.
    /// Sessions derived afterwards inherit the handle.
    pub fn set_exchange(&self, ex: Option<Arc<dyn exchange::Exchange>>) {
        *self
            .inner
            .exchange
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = ex;
    }

    /// The installed multi-process exchange, if this context is one rank of
    /// a cluster run.
    pub fn exchange(&self) -> Option<Arc<dyn exchange::Exchange>> {
        self.inner
            .exchange
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// A rank-local logical size as planning decisions must see it: the
    /// cluster-wide sum when a multi-process exchange is installed (every
    /// rank has to take the same plan), `local` itself otherwise. Saturates
    /// at `usize::MAX`, so a huge cluster-wide sum can only make the planner
    /// *more* conservative.
    pub fn planning_bytes(&self, local: usize) -> error::Result<usize> {
        match self.exchange() {
            Some(ex) => {
                let total = exchange::global_sum(ex.as_ref(), local as u64)?;
                Ok(usize::try_from(total).unwrap_or(usize::MAX))
            }
            None => Ok(local),
        }
    }

    /// The run's scoped spill directory, if any spill has happened yet.
    /// Tests assert it drains back to empty once spilled collections drop.
    pub fn spill_dir(&self) -> Option<PathBuf> {
        lock(&self.inner.spill_manager)
            .as_ref()
            .map(|m| m.dir().to_path_buf())
    }

    /// The spill manager, created on first use.
    pub(crate) fn spill_manager(&self) -> error::Result<Arc<SpillManager>> {
        let mut slot = lock(&self.inner.spill_manager);
        if let Some(m) = slot.as_ref() {
            return Ok(m.clone());
        }
        let manager = Arc::new(SpillManager::new(self.inner.config.spill_dir.as_deref())?);
        *slot = Some(manager.clone());
        Ok(manager)
    }

    /// Distributes local rows over the cluster's partitions (round-robin).
    /// Input loading is not metered or capped, matching the paper's
    /// exclusion of input caching from measured runs.
    pub fn parallelize(&self, rows: Vec<Value>) -> DistCollection {
        DistCollection::parallelize(self.clone(), rows)
    }
}
