//! The embeddable query **engine**: one resident `DistContext`/worker pool
//! serving many clients' queries concurrently.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use trance_algebra::Catalog;
use trance_compiler::columnar::exact_schema_col;
use trance_compiler::{
    collect_unshredded, ingest_env, plan_cache_key, prepare_and_run, run_prepared,
    strategy_options, ExecOptions, KernelCache, QuerySpec, RunResult, Strategy,
};
use trance_dist::{ClusterConfig, ColCollection, DistContext, ExecError, StatsSnapshot};
use trance_nrc::{Bag, Type, TypeEnv};
use trance_shred::{
    flat_input_name, input_dict_name, nesting_structure, shred_value, NestingStructure,
    ShreddedInputDecl,
};

use crate::admission::AdmissionQueue;
use crate::cache::PlanCache;

/// Engine construction knobs. `cluster` configures the shared worker pool;
/// the rest bound concurrency and cache residency.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The cluster the resident worker pool is built from.
    pub cluster: ClusterConfig,
    /// Maximum queries executing concurrently on the shared pool.
    pub max_in_flight: usize,
    /// Maximum submissions *waiting* beyond the in-flight bound before the
    /// engine answers [`ServeError::Busy`] instead of queueing.
    pub queue_capacity: usize,
    /// Maximum prepared queries held by the plan cache (LRU beyond this).
    pub plan_cache_capacity: usize,
    /// Deadline applied to queries that do not carry their own.
    pub default_deadline: Option<Duration>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cluster: ClusterConfig::new(4, 16),
            max_in_flight: 4,
            queue_capacity: 16,
            plan_cache_capacity: 64,
            default_deadline: None,
        }
    }
}

impl EngineConfig {
    /// A config with everything default but the cluster.
    pub fn with_cluster(cluster: ClusterConfig) -> EngineConfig {
        EngineConfig {
            cluster,
            ..EngineConfig::default()
        }
    }
}

/// One query submission.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// The submitting client — the admission queue's fairness unit.
    pub client: String,
    /// The query and its nested-input declarations.
    pub spec: QuerySpec,
    /// The strategy to run it under.
    pub strategy: Strategy,
    /// Per-query deadline (overrides the engine default when set).
    pub deadline: Option<Duration>,
    /// Per-query worker-memory budget in bytes. A budgeted query runs with
    /// spilling forced on, so it degrades to out-of-core execution instead
    /// of failing — while unbudgeted neighbors on the same pool run
    /// uncapped.
    pub memory_budget: Option<usize>,
}

impl QueryRequest {
    /// A plain request: no deadline, no memory budget.
    pub fn new(client: impl Into<String>, spec: QuerySpec, strategy: Strategy) -> QueryRequest {
        QueryRequest {
            client: client.into(),
            spec,
            strategy,
            deadline: None,
            memory_budget: None,
        }
    }
}

/// What a served query returns.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The collected (nested) result rows. Shredded strategies are
    /// reassembled at the collect boundary so every strategy answers in
    /// the same shape.
    pub rows: Bag,
    /// The strategy that ran.
    pub strategy: Strategy,
    /// True when the plan cache served this query (no lowering, no
    /// optimizer pass, kernel programs reused).
    pub cache_hit: bool,
    /// Optimized plans compiled by this run (0 on a cache hit).
    pub plans_compiled: usize,
    /// Kernel-compile milliseconds booked by this run (≈ 0 on a hit).
    pub compile_ms: f64,
    /// Time spent waiting for admission.
    pub queue_wait: Duration,
    /// Execution wall clock (excludes queue wait).
    pub elapsed: Duration,
    /// The engine metrics of this query alone (per-session stats).
    pub stats: StatsSnapshot,
}

/// A typed serving failure.
#[derive(Debug, Clone)]
pub enum ServeError {
    /// The admission queue is full: the submission was rejected without
    /// buffering. Carries the load observed at rejection time so clients
    /// can back off proportionally.
    Busy {
        /// Queries executing when the submission was rejected.
        in_flight: usize,
        /// Submissions already waiting.
        queued: usize,
    },
    /// The query failed while executing (including cancellation/deadline
    /// and memory-cap errors).
    Exec(ExecError),
    /// A textual submission failed to parse or type check before reaching
    /// the pool. Carries the rendered diagnostic (spanned, for parse
    /// errors).
    Compile(String),
}

impl ServeError {
    /// True for the queue-full backpressure rejection.
    pub fn is_busy(&self) -> bool {
        matches!(self, ServeError::Busy { .. })
    }

    /// True when the query was cancelled (deadline or explicit).
    pub fn is_cancelled(&self) -> bool {
        matches!(self, ServeError::Exec(e) if e.is_cancelled())
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Busy { in_flight, queued } => write!(
                f,
                "engine busy: {in_flight} queries in flight, {queued} queued"
            ),
            ServeError::Exec(e) => write!(f, "{e}"),
            ServeError::Compile(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A point-in-time view of the engine's serving counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineStats {
    /// Plan-cache hits across all submissions.
    pub cache_hits: u64,
    /// Plan-cache misses (= queries prepared).
    pub cache_misses: u64,
    /// Entries evicted by the LRU bound.
    pub cache_evictions: u64,
    /// Prepared queries currently resident.
    pub cache_len: usize,
    /// Kernel-program cache hits.
    pub kernel_hits: u64,
    /// Kernel-program cache misses (= programs compiled).
    pub kernel_misses: u64,
    /// Submissions admitted (fast path or after queueing).
    pub admitted: u64,
    /// Submissions rejected with [`ServeError::Busy`].
    pub rejected: u64,
    /// Queries that finished successfully.
    pub completed: u64,
    /// Queries that failed while executing.
    pub failed: u64,
    /// The table catalog's current epoch.
    pub epoch: u64,
}

impl EngineStats {
    /// Plan-cache hit rate over all lookups (0 when none happened).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// The registered tables: every logical table in nested form (standard
/// strategies) and shredded form (shredded strategies), both resident as
/// columnar collections, plus the catalog whose **epoch** keys the plan
/// cache.
struct TableRegistry {
    nested: HashMap<String, ColCollection>,
    shredded: HashMap<String, ColCollection>,
    /// Logical table → every physical name it registered (nested name,
    /// flat top bag, input dictionaries), so unregistering removes all.
    physical: HashMap<String, Vec<String>>,
    /// Logical table → its bag type (inferred at registration) — the type
    /// environment textual submissions are checked against.
    types: HashMap<String, Type>,
    /// Logical table → its nesting structure; non-empty structures become
    /// the shredded-input declarations of textual submissions.
    structures: HashMap<String, NestingStructure>,
    catalog: Catalog,
}

struct EngineInner {
    ctx: DistContext,
    config: EngineConfig,
    tables: RwLock<TableRegistry>,
    plans: Mutex<PlanCache>,
    kernels: Arc<KernelCache>,
    admission: AdmissionQueue,
    admitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
}

/// The embeddable query-as-a-service engine (cheaply cloneable handle).
///
/// One engine owns one resident `DistContext` — and with it the persistent
/// worker pool — plus the table registry, the compiled-plan cache, and the
/// admission queue. [`submit`](Engine::submit) is safe to call from many
/// threads at once: each admitted query runs in its own session context
/// (own stats, own cancellation scope, own optional memory budget) on the
/// shared pool.
#[derive(Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

impl Engine {
    /// Builds an engine: spins up the worker pool and empty registries.
    pub fn new(config: EngineConfig) -> Engine {
        let ctx = DistContext::new(config.cluster.clone());
        let admission = AdmissionQueue::new(config.max_in_flight, config.queue_capacity);
        let plans = Mutex::new(PlanCache::new(config.plan_cache_capacity));
        Engine {
            inner: Arc::new(EngineInner {
                ctx,
                config,
                tables: RwLock::new(TableRegistry {
                    nested: HashMap::new(),
                    shredded: HashMap::new(),
                    physical: HashMap::new(),
                    types: HashMap::new(),
                    structures: HashMap::new(),
                    catalog: Catalog::new(),
                }),
                plans,
                kernels: Arc::new(KernelCache::new()),
                admission,
                admitted: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                failed: AtomicU64::new(0),
            }),
        }
    }

    /// The engine's base context (the session factory / pool owner).
    pub fn context(&self) -> &DistContext {
        &self.inner.ctx
    }

    /// Registers (or replaces) a **flat** table. Ingests to columnar form
    /// once, resident for every later query; bumps the catalog epoch, so
    /// every cached plan compiled against the old catalog stops matching.
    pub fn register_flat(&self, name: &str, rows: Bag) -> trance_dist::Result<()> {
        let ty = table_type(&rows);
        let mut staged = HashMap::new();
        staged.insert(
            name.to_string(),
            self.inner.ctx.parallelize(rows.into_items()),
        );
        let cols = ingest_env(&staged)?;
        let col = cols.into_values().next().expect("one staged input");
        let mut t = self.inner.tables.write().unwrap();
        self.unregister_locked(&mut t, name);
        register_physical(&mut t, name, name.to_string(), &col)?;
        t.types.insert(name.to_string(), ty);
        t.structures
            .insert(name.to_string(), NestingStructure::flat());
        t.nested.insert(name.to_string(), col.clone());
        t.shredded.insert(name.to_string(), col);
        Ok(())
    }

    /// Registers (or replaces) a **nested** table: loads both its nested
    /// form and its shredded form (flat top bag plus one collection per
    /// dictionary path), all columnar-resident. Bumps the catalog epoch.
    pub fn register_nested(&self, name: &str, rows: Bag) -> trance_dist::Result<()> {
        let ty = table_type(&rows);
        let structure = nesting_structure(&ty).map_err(ExecError::from)?;
        let shredded = shred_value(&rows).map_err(ExecError::from)?;
        let mut staged = HashMap::new();
        staged.insert(
            name.to_string(),
            self.inner.ctx.parallelize(rows.into_items()),
        );
        staged.insert(
            flat_input_name(name),
            self.inner.ctx.parallelize(shredded.top.into_items()),
        );
        for (path, bag) in shredded.dicts {
            staged.insert(
                input_dict_name(name, &path),
                self.inner.ctx.parallelize(bag.into_items()),
            );
        }
        let mut cols = ingest_env(&staged)?;
        let mut t = self.inner.tables.write().unwrap();
        self.unregister_locked(&mut t, name);
        let nested_col = cols.remove(name).expect("nested form staged");
        register_physical(&mut t, name, name.to_string(), &nested_col)?;
        t.types.insert(name.to_string(), ty);
        t.structures.insert(name.to_string(), structure);
        t.nested.insert(name.to_string(), nested_col);
        for (phys_name, col) in cols {
            register_physical(&mut t, name, phys_name.clone(), &col)?;
            t.shredded.insert(phys_name, col);
        }
        Ok(())
    }

    /// Drops a table (both forms). Bumps the epoch when it existed.
    pub fn unregister(&self, name: &str) {
        let mut t = self.inner.tables.write().unwrap();
        self.unregister_locked(&mut t, name);
    }

    fn unregister_locked(&self, t: &mut TableRegistry, name: &str) {
        if let Some(physical) = t.physical.remove(name) {
            for phys in physical {
                t.nested.remove(&phys);
                t.shredded.remove(&phys);
                t.catalog.remove(&phys);
            }
            t.types.remove(name);
            t.structures.remove(name);
        }
    }

    /// The table catalog's current epoch (every registration bumps it).
    pub fn epoch(&self) -> u64 {
        self.inner.tables.read().unwrap().catalog.epoch()
    }

    /// Empties the compiled-plan cache *and* the kernel-program cache —
    /// the cold-start switch the cold-vs-warm benchmark flips between
    /// samples.
    pub fn clear_plan_cache(&self) {
        self.inner.plans.lock().unwrap().clear();
        self.inner.kernels.clear();
    }

    /// Serving counters so far.
    pub fn stats(&self) -> EngineStats {
        let plans = self.inner.plans.lock().unwrap();
        EngineStats {
            cache_hits: plans.hits(),
            cache_misses: plans.misses(),
            cache_evictions: plans.evictions(),
            cache_len: plans.len(),
            kernel_hits: self.inner.kernels.hits(),
            kernel_misses: self.inner.kernels.misses(),
            admitted: self.inner.admitted.load(Ordering::Relaxed),
            rejected: self.inner.rejected.load(Ordering::Relaxed),
            completed: self.inner.completed.load(Ordering::Relaxed),
            failed: self.inner.failed.load(Ordering::Relaxed),
            epoch: self.inner.tables.read().unwrap().catalog.epoch(),
        }
    }

    /// Current admission load: `(in_flight, queued)`.
    pub fn load(&self) -> (usize, usize) {
        self.inner.admission.depth()
    }

    /// Submits one query and blocks until it finishes (or is rejected).
    ///
    /// The submission first passes admission control (fair round-robin
    /// across clients, bounded queue — a full queue answers
    /// [`ServeError::Busy`] immediately). Once admitted, the query runs in
    /// a fresh **session context** sharing the engine's worker pool: its
    /// own stats, its own cancellation scope (armed with the request's or
    /// the engine's deadline), and — when `memory_budget` is set — its own
    /// worker-memory cap with spilling forced on. The compiled-plan cache
    /// is consulted under the key *(query structure, input declarations,
    /// strategy, catalog epoch)*: a hit replays the captured optimized
    /// plans verbatim and reuses the cold run's kernel programs.
    pub fn submit(&self, req: &QueryRequest) -> Result<QueryResponse, ServeError> {
        let admitted = match self.inner.admission.acquire(&req.client) {
            Ok(a) => a,
            Err(r) => {
                self.inner.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Busy {
                    in_flight: r.in_flight,
                    queued: r.queued,
                });
            }
        };
        self.inner.admitted.fetch_add(1, Ordering::Relaxed);
        let out = self.run_admitted(req, admitted.queue_wait);
        self.inner.admission.release();
        match &out {
            Ok(_) => self.inner.completed.fetch_add(1, Ordering::Relaxed),
            Err(_) => self.inner.failed.fetch_add(1, Ordering::Relaxed),
        };
        out
    }

    /// Builds a [`QueryRequest`] from **surface-NRC text**, resolved
    /// against the registered tables: the text is parsed with
    /// `trance-frontend`, type checked against the registration-time table
    /// types, and multi-assignment programs are desugared into a `let`
    /// chain. Nested tables the query references become its shredded-input
    /// declarations automatically.
    ///
    /// Parse and type errors come back as [`ServeError::Compile`] with the
    /// rendered (spanned) diagnostic; nothing reaches the admission queue.
    ///
    /// Because the plan cache keys on the *structural fingerprint* of the
    /// parsed AST, resubmitting the same text (modulo whitespace and
    /// comments) is a cache hit: the second submission books zero plan and
    /// kernel compile time.
    pub fn text_request(
        &self,
        client: &str,
        text: &str,
        strategy: Strategy,
    ) -> Result<QueryRequest, ServeError> {
        let program =
            trance_frontend::parse_program(text).map_err(|e| ServeError::Compile(e.to_string()))?;
        let (env, structures) = {
            let t = self.inner.tables.read().unwrap();
            let mut env = TypeEnv::new();
            for (name, ty) in &t.types {
                env.bind(name.clone(), ty.clone());
            }
            (env, t.structures.clone())
        };
        program
            .typecheck(&env)
            .map_err(|e| ServeError::Compile(format!("type error: {e}")))?;
        let query = program
            .to_let_chain()
            .ok_or_else(|| ServeError::Compile("empty program".to_string()))?;
        let used = query.free_vars();
        let mut decls: Vec<ShreddedInputDecl> = structures
            .iter()
            .filter(|(name, s)| !s.children.is_empty() && used.contains(*name))
            .map(|(name, s)| ShreddedInputDecl::new(name, s.clone()))
            .collect();
        // Registry iteration order is arbitrary; the declaration list is
        // part of the cache fingerprint, so keep it deterministic.
        decls.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(QueryRequest::new(
            client,
            QuerySpec::new("text", query, decls),
            strategy,
        ))
    }

    /// Submits a **textual** query and blocks until it finishes: shorthand
    /// for [`text_request`](Engine::text_request) followed by
    /// [`submit`](Engine::submit).
    pub fn submit_text(
        &self,
        client: &str,
        text: &str,
        strategy: Strategy,
    ) -> Result<QueryResponse, ServeError> {
        let req = self.text_request(client, text, strategy)?;
        self.submit(&req)
    }

    fn run_admitted(
        &self,
        req: &QueryRequest,
        queue_wait: Duration,
    ) -> Result<QueryResponse, ServeError> {
        // Snapshot the registry under the read lock: clones are O(#tables)
        // Arc bumps, and the epoch read here is the one the cache key uses,
        // so a concurrent re-registration either fully precedes this query
        // (new tables, new epoch) or fully follows it.
        let (nested, shredded, epoch) = {
            let t = self.inner.tables.read().unwrap();
            (t.nested.clone(), t.shredded.clone(), t.catalog.epoch())
        };
        // A fresh session on the shared pool: per-query stats, cancellation
        // scope, and (when budgeted) worker-memory cap with spill forced on.
        let session = match req.memory_budget {
            Some(budget) => self.inner.ctx.session_with_memory(Some(budget)),
            None => self.inner.ctx.session(),
        };
        // Rebind the resident collections into the session (O(1) each: the
        // partitions are Arc-shared, only the context handle changes).
        let nested: HashMap<String, ColCollection> = nested
            .iter()
            .map(|(k, v)| (k.clone(), v.with_context(&session)))
            .collect();
        let shredded: HashMap<String, ColCollection> = shredded
            .iter()
            .map(|(k, v)| (k.clone(), v.with_context(&session)))
            .collect();

        let options = ExecOptions {
            kernel_cache: Some(self.inner.kernels.clone()),
            deadline: req.deadline.or(self.inner.config.default_deadline),
            ..strategy_options(req.strategy, false)
        };

        let key = plan_cache_key(&req.spec, req.strategy, epoch);
        let cached = self.inner.plans.lock().unwrap().get(key);
        let cache_hit = cached.is_some();
        let t0 = Instant::now();
        let result = match cached {
            Some(prepared) => {
                run_prepared(&prepared, &nested, &shredded, &session, &options).map(|r| (r, 0))
            }
            None => prepare_and_run(
                &req.spec,
                &nested,
                &shredded,
                &session,
                req.strategy,
                &options,
            )
            .map(|(result, prepared)| {
                let plans = prepared.plan_count();
                self.inner
                    .plans
                    .lock()
                    .unwrap()
                    .insert(key, Arc::new(prepared));
                (result, plans)
            }),
        };
        let elapsed = t0.elapsed();
        let (result, plans_compiled) = result.map_err(ServeError::Exec)?;
        let rows = collect_rows(result).map_err(ServeError::Exec)?;
        let stats = session.stats().snapshot();
        Ok(QueryResponse {
            rows,
            strategy: req.strategy,
            cache_hit,
            plans_compiled,
            compile_ms: stats.expr_compile_ms(),
            queue_wait,
            elapsed,
            stats,
        })
    }
}

/// The bag type of a registered table, inferred from its first row (all
/// rows of a registered table share one shape).
fn table_type(rows: &Bag) -> Type {
    Type::bag(
        rows.items()
            .first()
            .map(|v| v.infer_type())
            .unwrap_or(Type::Unknown),
    )
}

/// Registers one physical collection in the catalog (schema + size — the
/// epoch bump is the cache-invalidation signal) and records it under its
/// logical table for later unregistration.
fn register_physical(
    t: &mut TableRegistry,
    logical: &str,
    physical: String,
    col: &ColCollection,
) -> trance_dist::Result<()> {
    t.catalog.register(physical.clone(), exact_schema_col(col)?);
    t.catalog.set_size(physical.clone(), col.logical_bytes());
    t.physical
        .entry(logical.to_string())
        .or_default()
        .push(physical);
    Ok(())
}

/// Collects any strategy's output down to one nested row bag, so clients
/// see one response shape across all seven strategies.
fn collect_rows(result: RunResult) -> trance_dist::Result<Bag> {
    match result {
        RunResult::Nested(d) => Ok(d.collect_bag()),
        RunResult::Shredded(out) => collect_unshredded(&out).map_err(ExecError::from),
        RunResult::Failed(e) => Err(e),
    }
}
