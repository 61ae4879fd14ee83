//! The embeddable query **engine**: one resident `DistContext`/worker pool
//! serving many clients' queries concurrently.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use trance_compiler::{
    collect_unshredded, plan_cache_key, prepare_and_run, run_prepared, strategy_options,
    ExecOptions, InputSet, KernelCache, QuerySpec, RunResult, Strategy,
};
use trance_dist::{ClusterConfig, DistContext, ExecError, StatsSnapshot};
use trance_nrc::{Bag, Type, TypeEnv};
use trance_shred::{nesting_structure, NestingStructure, ShreddedInputDecl};

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
    /// The table registry's current epoch.
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

/// The registered tables: the table store (every logical table in nested
/// and shredded form, rows plus resident batches — the same [`InputSet`] a
/// one-shot `run_query` or a TCP worker holds), plus what only a serving
/// catalog needs: the types textual submissions check against and the
/// **epoch** that keys the plan cache.
struct TableRegistry {
    inputs: InputSet,
    /// Logical table → every physical name it registered (nested name,
    /// flat top bag, input dictionaries), so unregistering removes all.
    physical: HashMap<String, Vec<String>>,
    /// Logical table → its bag type (inferred at registration) — the type
    /// environment textual submissions are checked against.
    types: HashMap<String, Type>,
    /// Logical table → its nesting structure; non-empty structures become
    /// the shredded-input declarations of textual submissions.
    structures: HashMap<String, NestingStructure>,
    /// Bumped by every install and by every unregister of a table that
    /// existed, so a plan cached under an older epoch never matches again.
    epoch: u64,
}

impl TableRegistry {
    fn unregister(&mut self, name: &str) {
        if let Some(physical) = self.physical.remove(name) {
            for phys in physical {
                self.inputs.remove(&phys);
            }
            self.types.remove(name);
            self.structures.remove(name);
            self.epoch += 1;
        }
    }
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
                config,
                tables: RwLock::new(TableRegistry {
                    inputs: InputSet::new(ctx.clone()),
                    physical: HashMap::new(),
                    types: HashMap::new(),
                    structures: HashMap::new(),
                    epoch: 0,
                }),
                ctx,
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

    /// Registers (or replaces) a **flat** table. Converts it to columnar
    /// form once, resident for every later query; bumps the registry epoch,
    /// so every cached plan compiled against the old tables stops matching.
    pub fn register_flat(&self, name: &str, rows: Bag) -> trance_dist::Result<()> {
        let ty = table_type(&rows);
        let mut staged = InputSet::new(self.inner.ctx.clone());
        staged.add_flat(name, rows)?;
        self.install(name, ty, NestingStructure::flat(), staged)
    }

    /// Registers (or replaces) a **nested** table: loads both its nested
    /// form and its shredded form (flat top bag plus one collection per
    /// dictionary path), all columnar-resident. Bumps the registry epoch.
    pub fn register_nested(&self, name: &str, rows: Bag) -> trance_dist::Result<()> {
        let ty = table_type(&rows);
        let structure = nesting_structure(&ty).map_err(ExecError::from)?;
        let mut staged = InputSet::new(self.inner.ctx.clone());
        staged.add_nested(name, rows)?;
        self.install(name, ty, structure, staged)
    }

    /// Installs the one logical table `staged` holds. Registering converted
    /// it already, outside the registry lock; here the tables move into the
    /// registry under the physical names they were staged with.
    fn install(
        &self,
        name: &str,
        ty: Type,
        structure: NestingStructure,
        staged: InputSet,
    ) -> trance_dist::Result<()> {
        // A flat table is one physical table present in both forms.
        let mut physical: Vec<String> = staged.nested_inputs().keys().cloned().collect();
        physical.extend(staged.shredded_inputs().keys().cloned());
        physical.sort_unstable();
        physical.dedup();
        let mut t = write_lock(&self.inner.tables);
        t.unregister(name);
        t.inputs.extend(staged);
        t.physical.insert(name.to_string(), physical);
        t.epoch += 1;
        t.types.insert(name.to_string(), ty);
        t.structures.insert(name.to_string(), structure);
        Ok(())
    }

    /// Drops a table (both forms). Bumps the epoch when it existed.
    pub fn unregister(&self, name: &str) {
        write_lock(&self.inner.tables).unregister(name);
    }

    /// The table registry's current epoch (every registration bumps it).
    pub fn epoch(&self) -> u64 {
        read_lock(&self.inner.tables).epoch
    }

    /// Empties the compiled-plan cache *and* the kernel-program cache —
    /// the cold-start switch the cold-vs-warm benchmark flips between
    /// samples.
    pub fn clear_plan_cache(&self) {
        lock_plans(&self.inner.plans).clear();
        self.inner.kernels.clear();
    }

    /// Serving counters so far.
    pub fn stats(&self) -> EngineStats {
        let plans = lock_plans(&self.inner.plans);
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
            epoch: read_lock(&self.inner.tables).epoch,
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
    /// strategy, registry epoch)*: a hit replays the captured optimized
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
        drop(admitted);
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
            let t = read_lock(&self.inner.tables);
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
        // Snapshot the store under the read lock: the clone is O(#tables)
        // Arc bumps (rows and resident cells are shared, not copied), and
        // the epoch read here is the one the cache key uses, so a concurrent
        // re-registration either fully precedes this query (new tables, new
        // epoch) or fully follows it.
        let (inputs, epoch) = {
            let t = read_lock(&self.inner.tables);
            (t.inputs.clone(), t.epoch)
        };
        // A fresh session on the shared pool: per-query stats, cancellation
        // scope, and (when budgeted) worker-memory cap with spill forced on.
        // The run binds the resident batches into it (O(1) each: the
        // partitions are Arc-shared, only the context handle changes).
        let session = match req.memory_budget {
            Some(budget) => self.inner.ctx.session_with_memory(Some(budget)),
            None => self.inner.ctx.session(),
        };

        let options = ExecOptions {
            kernel_cache: Some(self.inner.kernels.clone()),
            deadline: req.deadline.or(self.inner.config.default_deadline),
            ..strategy_options(req.strategy, false)
        };

        let key = plan_cache_key(&req.spec, req.strategy, epoch);
        let cached = lock_plans(&self.inner.plans).get(key);
        let cache_hit = cached.is_some();
        let t0 = Instant::now();
        let result = match cached {
            Some(prepared) => run_prepared(&prepared, &inputs, &session, &options).map(|r| (r, 0)),
            None => prepare_and_run(&req.spec, &inputs, &session, req.strategy, &options).map(
                |(result, prepared)| {
                    let plans = prepared.plan_count();
                    lock_plans(&self.inner.plans).insert(key, Arc::new(prepared));
                    (result, plans)
                },
            ),
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

/// The registry and plan-cache guards recover from poison: every critical
/// section leaves both structures consistent at each step (whole-entry
/// inserts and removes), so a query or registration that panicked must not
/// turn every later call on a resident engine into a panic.
fn read_lock(tables: &RwLock<TableRegistry>) -> RwLockReadGuard<'_, TableRegistry> {
    tables.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_lock(tables: &RwLock<TableRegistry>) -> RwLockWriteGuard<'_, TableRegistry> {
    tables.write().unwrap_or_else(PoisonError::into_inner)
}

fn lock_plans(plans: &Mutex<PlanCache>) -> MutexGuard<'_, PlanCache> {
    plans.lock().unwrap_or_else(PoisonError::into_inner)
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

#[cfg(test)]
mod tests {
    use super::*;
    use trance_nrc::builder::{forin, proj, singleton, tuple, var};
    use trance_nrc::Value;

    fn table(rows: i64) -> Bag {
        Bag::new(
            (0..rows)
                .map(|i| Value::tuple([("a", Value::Int(i)), ("b", Value::Int(i * i))]))
                .collect(),
        )
    }

    /// Panics on another thread while holding `lock`'s guard — what a
    /// panicking registration or query leaves behind.
    fn poison<T: Send + Sync>(lock: &T, hold: impl FnOnce(&T) + Send) {
        std::thread::scope(|scope| {
            let _ = scope.spawn(|| hold(lock)).join();
        });
    }

    #[test]
    fn poisoned_registry_and_plan_cache_keep_serving() {
        let engine = Engine::new(EngineConfig::with_cluster(ClusterConfig::new(2, 4)));
        engine.register_flat("R", table(40)).unwrap();
        poison(&engine.inner.tables, |tables| {
            let _guard = tables.write().unwrap();
            panic!("poisoning the table registry");
        });
        poison(&engine.inner.plans, |plans| {
            let _guard = plans.lock().unwrap();
            panic!("poisoning the plan cache");
        });
        assert!(engine.inner.tables.is_poisoned() && engine.inner.plans.is_poisoned());
        // The kernel cache compiles under its lock, so a query that panics
        // there poisons the one cache every later query shares.
        poison(&engine.inner.kernels, |kernels| {
            kernels.under_lock(|| panic!("poisoning the kernel cache"));
        });

        // Every entry point that takes one of the locks still answers.
        let before = engine.epoch();
        engine.register_flat("S", table(7)).unwrap();
        engine.register_nested("N", table(3)).unwrap();
        engine.unregister("N");
        assert!(engine.epoch() > before);
        let query = forin(
            "s",
            var("S"),
            singleton(tuple([("b", proj(var("s"), "b"))])),
        );
        let req = QueryRequest::new("t", QuerySpec::new("q", query, vec![]), Strategy::Standard);
        for cache_hit in [false, true] {
            let resp = engine.submit(&req).unwrap();
            assert_eq!(resp.rows.len(), 7);
            assert_eq!(resp.cache_hit, cache_hit);
        }
        let text = engine.submit_text("t", "for r in R union { <a := r.a> }", Strategy::Shred);
        assert_eq!(text.unwrap().rows.len(), 40);
        engine.clear_plan_cache();
        assert_eq!(engine.stats().cache_len, 0);
    }
}
