//! The six workloads: what each runs, how its inputs are built from the
//! seed, and how one op is driven through the engine's public functions.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use trance_compiler::{collect_unshredded, run_query, InputSet, QuerySpec, RunResult, Strategy};
use trance_dist::{ClusterConfig, DistContext};
use trance_net::{spawn_self_cluster, ClusterParams, JobSpec, LocalCluster};
use trance_nrc::{bags_approx_equal, eval, pretty::pretty, Bag, Env, Value};
use trance_server::{Engine, EngineConfig};
use trance_shred::ShreddedInputDecl;
use trance_tpch::{
    flat_to_nested, generate, nested_to_flat, nested_to_nested, nesting_structure_for_depth,
    QueryVariant, TpchConfig, TpchData,
};

/// Environment variable that turns a copy of this binary into a TCP worker
/// (`main` checks it before anything else).
pub const NET_WORKER_ENV: &str = "TRANCE_NET_WORKER";

/// Cluster shape shared by every workload: 2 workers (the box has 2 cores)
/// over 16 partitions, and a 4 KiB broadcast limit so that even the small
/// dimension tables shuffle and only heavy-key subsets broadcast.
pub const WORKERS: usize = 2;
pub const PARTITIONS: usize = 16;
pub const BROADCAST_LIMIT: usize = 4 * 1024;

/// Nesting depth of every query (Customer → Orders → Lineitem).
pub const DEPTH: usize = 2;

/// Largest scale of the oracle check against `trance_nrc::eval` (300
/// lineitems: the reference evaluator is quadratic) and of `--quick` runs.
pub const ORACLE_SCALE: f64 = 0.05;

/// Every strategy, with the end-to-end metric that reports its median op
/// wall. Every workload runs all seven: the driver wants every end-to-end
/// metric from every workload.
pub const STRATEGIES: [(Strategy, &str); 7] = [
    (Strategy::Baseline, "sparksql_ms"),
    (Strategy::Standard, "standard_ms"),
    (Strategy::Shred, "shred_ms"),
    (Strategy::ShredUnshred, "unshred_ms"),
    (Strategy::StandardSkew, "standard_skew_ms"),
    (Strategy::ShredSkew, "shred_skew_ms"),
    (Strategy::ShredUnshredSkew, "unshred_skew_ms"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    FlatToNested,
    NestedToNested,
    NestedToFlat,
}

/// How a workload's op reaches the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `run_query` on an in-process cluster of worker threads.
    Threads(Family),
    /// `Coordinator::run` on worker processes over localhost TCP.
    Tcp,
    /// The three family queries as text through a resident `Engine`; `cold`
    /// clears the plan and kernel caches before every op.
    Engine { cold: bool },
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub route: Route,
    pub variant: QueryVariant,
    pub scale: f64,
    pub skew: u32,
    /// Per-worker memory cap in bytes per unit of scale (spilling on); the
    /// cap follows the scale so `--quick` runs spill too. At 1 MB per unit
    /// STANDARD writes about twice its input in ~45 files per op; a tighter
    /// cap multiplies the files, and the run then measures the file system's
    /// metadata path, whose speed drifted threefold between runs.
    pub memory_per_scale: Option<f64>,
}

/// Scales are sized so that one sweep of the seven strategies takes well
/// under a second on the 2-core box: the driver gives a run 15 s, and every
/// strategy's fast decile should rest on fifteen or more ops.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "n2n_wide",
        why: "Figure 7b headline: join, nest_bag and nest_sum dominate the op and it shuffles the most, so breaker and typed-key work must show here",
        route: Route::Threads(Family::NestedToNested),
        variant: QueryVariant::Wide,
        scale: 2.0,
        skew: 0,
        memory_per_scale: None,
    },
    Workload {
        name: "skew_n2n_narrow",
        why: "Figure 8 at skew 4: the only data on which heavy-key sampling, split and broadcast do work; the join layer is entered through skew_join",
        route: Route::Threads(Family::NestedToNested),
        variant: QueryVariant::Narrow,
        scale: 4.0,
        skew: 4,
        memory_per_scale: None,
    },
    Workload {
        name: "spill_f2n_wide",
        why: "memory-capped flat-to-nested: the only workload where store and dist::spill (Grace join, spilling nest) run; its SHRED op is nearly all fused pipelines",
        route: Route::Threads(Family::FlatToNested),
        variant: QueryVariant::Wide,
        scale: 1.5,
        skew: 0,
        memory_per_scale: Some(1_000_000.0),
    },
    Workload {
        name: "net_n2n_wide",
        why: "n2n_wide's query on coordinator + 2 worker processes over localhost TCP: the only workload where net runs; decides the parked TCP-gap item",
        route: Route::Tcp,
        variant: QueryVariant::Wide,
        scale: 1.5,
        skew: 0,
        memory_per_scale: None,
    },
    Workload {
        name: "small_cold",
        why: "120 lineitems, caches cleared before each op: parse, typecheck, shredding, lowering, optimizer, kernel compilation and admission do most of the work",
        route: Route::Engine { cold: true },
        variant: QueryVariant::Wide,
        scale: 0.02,
        skew: 0,
        memory_per_scale: None,
    },
    Workload {
        name: "small_warm",
        why: "bypass twin of small_cold: every op a plan-cache hit, so compile-path changes must not move it; isolates the fixed per-query cost",
        route: Route::Engine { cold: false },
        variant: QueryVariant::Wide,
        scale: 0.02,
        skew: 0,
        memory_per_scale: None,
    },
];

impl Workload {
    /// Scale of the oracle check and of `--quick` runs.
    pub fn oracle_scale(&self) -> f64 {
        self.scale.min(ORACLE_SCALE)
    }
}

pub fn find_workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One query of a workload, in the forms the routes need.
#[derive(Debug, Clone)]
pub struct Query {
    pub family: Family,
    pub spec: QuerySpec,
    /// Surface syntax of `spec.query`, for the textual routes.
    pub text: String,
}

impl Query {
    fn new(family: Family, variant: QueryVariant) -> Query {
        let nested = vec![ShreddedInputDecl::new(
            "Nested",
            nesting_structure_for_depth(DEPTH),
        )];
        let (name, expr, decls) = match family {
            Family::FlatToNested => ("f2n", flat_to_nested(DEPTH, variant), vec![]),
            Family::NestedToNested => ("n2n", nested_to_nested(DEPTH, variant), nested),
            Family::NestedToFlat => ("n2f", nested_to_flat(DEPTH, variant), nested),
        };
        Query {
            family,
            text: pretty(&expr),
            spec: QuerySpec::new(name, expr, decls),
        }
    }
}

/// The three family queries (the compile-path probes use all of them).
pub fn family_queries(variant: QueryVariant) -> Vec<Query> {
    [
        Family::FlatToNested,
        Family::NestedToNested,
        Family::NestedToFlat,
    ]
    .into_iter()
    .map(|f| Query::new(f, variant))
    .collect()
}

/// The six flat tables by name.
pub fn tables(data: &TpchData) -> [(&'static str, &Bag); 6] {
    [
        ("Lineitem", &data.lineitem),
        ("Orders", &data.orders),
        ("Customer", &data.customer),
        ("Nation", &data.nation),
        ("Region", &data.region),
        ("Part", &data.part),
    ]
}

/// What an op produced, kept so it can be checked outside the timed span.
#[derive(Debug, Clone)]
pub enum Output {
    Run(RunResult),
    Rows(Bag),
}

impl Output {
    /// Top-level rows (cheap: no collection).
    pub fn rows(&self) -> usize {
        match self {
            Output::Run(RunResult::Nested(d)) => d.len(),
            Output::Run(RunResult::Shredded(s)) => s.top.len(),
            Output::Run(RunResult::Failed(_)) => 0,
            Output::Rows(bag) => bag.len(),
        }
    }

    /// The nested result; shredded outputs are unshredded locally.
    pub fn bag(&self) -> Result<Bag, String> {
        match self {
            Output::Run(RunResult::Nested(d)) => Ok(d.collect_bag()),
            Output::Run(RunResult::Shredded(s)) => collect_unshredded(s).map_err(|e| e.to_string()),
            Output::Run(RunResult::Failed(e)) => Err(e.to_string()),
            Output::Rows(bag) => Ok(bag.clone()),
        }
    }
}

/// One completed op: the wall the benchmark timed around the public call,
/// and what the call reported.
#[derive(Debug, Clone)]
pub struct OpRun {
    pub wall: Duration,
    /// One output per query of the op.
    pub outputs: Vec<Output>,
    pub shuffle_bytes: u64,
    /// `Coordinator::run` attempts (TCP route only).
    pub attempts: u32,
    /// Server-side numbers of the op's queries (Engine route only).
    pub served: Vec<Served>,
}

#[derive(Debug, Clone, Copy)]
pub struct Served {
    pub cache_hit: bool,
    pub plans_compiled: usize,
    pub compile_ms: f64,
    pub queue_wait: Duration,
}

enum Backend {
    Threads,
    Tcp(LocalCluster),
    Engine(Engine),
}

/// Times of the setup steps, reported by the traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub mesh: Duration,
    pub net_load: Duration,
}

/// A workload set up at some scale: generated data, the materialised nested
/// input, the in-process inputs and the route's backend.
pub struct Bench {
    pub workload: &'static Workload,
    pub config: TpchConfig,
    pub data: TpchData,
    /// The flat-to-nested output, materialised through the engine.
    pub nested: Bag,
    /// In-process inputs: the op target of the `Threads` route, the twin of
    /// the `Tcp` route, and what the layer probes of every route run on.
    pub inputs: InputSet,
    /// The queries one op runs.
    pub queries: Vec<Query>,
    pub times: SetupTimes,
    backend: Backend,
}

fn cluster(workload: &Workload, scale: f64, spill_dir: &Path) -> ClusterConfig {
    let config = ClusterConfig::new(WORKERS, PARTITIONS).with_broadcast_limit(BROADCAST_LIMIT);
    match workload.memory_per_scale {
        Some(per_scale) => config
            .with_worker_memory((per_scale * scale) as usize)
            .with_spill_dir(spill_dir),
        None => config,
    }
}

fn add_flat_tables(inputs: &mut InputSet, data: &TpchData) -> Result<(), String> {
    for (name, bag) in tables(data) {
        inputs
            .add_flat(name, bag.clone())
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

impl Bench {
    /// Generates the data from `seed`, materialises the nested input by
    /// running flat-to-nested through the engine (SHRED+UNSHRED, uncapped;
    /// never through the quadratic `nrc::eval`), and loads the route.
    pub fn build(
        workload: &'static Workload,
        scale: f64,
        seed: u64,
        spill_dir: &Path,
    ) -> Result<Bench, String> {
        let config = TpchConfig {
            scale,
            skew: workload.skew,
            seed,
        };
        let data = generate(&config);
        let queries: Vec<Query> = match workload.route {
            Route::Threads(family) => vec![Query::new(family, workload.variant)],
            Route::Tcp => vec![Query::new(Family::NestedToNested, workload.variant)],
            Route::Engine { .. } => family_queries(workload.variant),
        };

        let uncapped =
            ClusterConfig::new(WORKERS, PARTITIONS).with_broadcast_limit(BROADCAST_LIMIT);
        let mut flat = InputSet::new(DistContext::new(uncapped));
        add_flat_tables(&mut flat, &data)?;
        let f2n = Query::new(Family::FlatToNested, workload.variant);
        let nested = run_query(&f2n.spec, &flat, Strategy::ShredUnshred)
            .result
            .nested_bag()
            .ok_or("materialising the nested input failed")?;

        let mut inputs = if workload.memory_per_scale.is_some() {
            let mut capped = InputSet::new(DistContext::new(cluster(workload, scale, spill_dir)));
            add_flat_tables(&mut capped, &data)?;
            capped
        } else {
            flat
        };
        inputs
            .add_nested("Nested", nested.clone())
            .map_err(|e| e.to_string())?;

        let mut times = SetupTimes::default();
        let backend = match workload.route {
            Route::Threads(_) => Backend::Threads,
            Route::Tcp => {
                // One thread per worker process: threads in flight never
                // exceed the two cores.
                let params = ClusterParams {
                    partitions: PARTITIONS as u32,
                    threads: 1,
                    broadcast_limit: BROADCAST_LIMIT as u64,
                };
                let t0 = Instant::now();
                let cluster = spawn_self_cluster(NET_WORKER_ENV, WORKERS, params)
                    .map_err(|e| format!("spawning the TCP cluster: {e}"))?;
                times.mesh = t0.elapsed();
                let t0 = Instant::now();
                for (name, bag) in tables(&data) {
                    cluster
                        .coordinator
                        .load_flat(name, bag.clone().into_items())
                        .map_err(|e| e.to_string())?;
                }
                cluster
                    .coordinator
                    .load_nested("Nested", nested.clone())
                    .map_err(|e| e.to_string())?;
                times.net_load = t0.elapsed();
                Backend::Tcp(cluster)
            }
            Route::Engine { .. } => {
                let engine = Engine::new(EngineConfig::with_cluster(cluster(
                    workload, scale, spill_dir,
                )));
                for (name, bag) in tables(&data) {
                    engine
                        .register_flat(name, bag.clone())
                        .map_err(|e| e.to_string())?;
                }
                engine
                    .register_nested("Nested", nested.clone())
                    .map_err(|e| e.to_string())?;
                Backend::Engine(engine)
            }
        };
        Ok(Bench {
            workload,
            config,
            data,
            nested,
            inputs,
            queries,
            times,
            backend,
        })
    }

    /// The resident engine of the `Engine` route.
    pub fn engine(&self) -> Option<&Engine> {
        match &self.backend {
            Backend::Engine(engine) => Some(engine),
            _ => None,
        }
    }

    /// True when `strategy`'s op goes over TCP.
    pub fn over_tcp(&self, strategy: Strategy) -> bool {
        matches!(self.backend, Backend::Tcp(_)) && tcp_serves(strategy)
    }

    /// The op on the in-process cluster, whatever the workload's route.
    pub fn run_in_process(&self, strategy: Strategy) -> Result<OpRun, String> {
        let spec = &self.queries[0].spec;
        let t0 = Instant::now();
        let outcome = run_query(spec, &self.inputs, strategy);
        let wall = t0.elapsed();
        if let RunResult::Failed(e) = &outcome.result {
            return Err(e.to_string());
        }
        Ok(OpRun {
            wall,
            outputs: vec![Output::Run(outcome.result)],
            shuffle_bytes: outcome.stats.shuffled_bytes,
            attempts: 0,
            served: Vec::new(),
        })
    }

    /// Runs one op — one query (or, on the `Engine` route, the three family
    /// queries back to back) under `strategy` — timing only the public call.
    pub fn run_op(&mut self, strategy: Strategy) -> Result<OpRun, String> {
        self.clear_caches_if_cold();
        match &mut self.backend {
            Backend::Tcp(cluster) if tcp_serves(strategy) => {
                let spec = &self.queries[0].spec;
                let decls = spec
                    .nested_inputs
                    .iter()
                    .map(|d| (d.name.clone(), d.structure.clone()))
                    .collect();
                let job = JobSpec::new(spec.query.clone(), decls, strategy);
                let t0 = Instant::now();
                let report = cluster.coordinator.run(&job).map_err(|e| e.to_string())?;
                let wall = t0.elapsed();
                Ok(OpRun {
                    wall,
                    outputs: vec![Output::Rows(report.rows)],
                    shuffle_bytes: report.stats.shuffled_bytes,
                    attempts: report.attempts,
                    served: Vec::new(),
                })
            }
            Backend::Engine(engine) => {
                let mut responses = Vec::with_capacity(self.queries.len());
                let t0 = Instant::now();
                for q in &self.queries {
                    responses.push(
                        engine
                            .submit_text("bench", &q.text, strategy)
                            .map_err(|e| e.to_string())?,
                    );
                }
                let mut op = OpRun {
                    wall: t0.elapsed(),
                    outputs: Vec::new(),
                    shuffle_bytes: 0,
                    attempts: 0,
                    served: Vec::new(),
                };
                for r in responses {
                    op.shuffle_bytes += r.stats.shuffled_bytes;
                    op.served.push(Served {
                        cache_hit: r.cache_hit,
                        plans_compiled: r.plans_compiled,
                        compile_ms: r.compile_ms,
                        queue_wait: r.queue_wait,
                    });
                    op.outputs.push(Output::Rows(r.rows));
                }
                Ok(op)
            }
            Backend::Threads | Backend::Tcp(_) => self.run_in_process(strategy),
        }
    }

    /// Peak resident set (`VmHWM`) of the workload in KiB: this process
    /// plus, on the TCP route, its worker processes. `LocalCluster` keeps
    /// its children private, so they are found in `/proc` by parent pid.
    pub fn peak_rss_kib(&self) -> u64 {
        let hwm = |status: &str| -> Option<u64> { status_field(status, "VmHWM:")?.parse().ok() };
        let own = std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| hwm(&s))
            .unwrap_or(0);
        if !matches!(self.backend, Backend::Tcp(_)) {
            return own;
        }
        let me = std::process::id().to_string();
        let workers: u64 = std::fs::read_dir("/proc")
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|e| std::fs::read_to_string(e.path().join("status")).ok())
            .filter(|status| status_field(status, "PPid:") == Some(me.as_str()))
            .filter_map(|status| hwm(&status))
            .sum();
        own + workers
    }

    /// On the cold Engine workload, empties the plan and kernel caches
    /// (before each op, outside the timed span).
    pub fn clear_caches_if_cold(&self) {
        if let (Backend::Engine(engine), Route::Engine { cold: true }) =
            (&self.backend, self.workload.route)
        {
            engine.clear_plan_cache();
        }
    }

    /// Orderly teardown: asks TCP workers to exit and reaps them. (Dropping
    /// the bench kills and reaps them too, on every other exit path.)
    pub fn shutdown(&mut self) {
        if let Backend::Tcp(cluster) = &mut self.backend {
            cluster.shutdown();
        }
    }
}

/// The control protocol ships nested rows only and refuses SHRED and
/// SHRED-SKEW, so on the TCP workload those two run on the in-process twin
/// (same data, same cluster shape).
fn tcp_serves(strategy: Strategy) -> bool {
    !strategy.is_shredded() || strategy.unshreds()
}

/// First whitespace-separated token after `key` in a `/proc/<pid>/status`.
fn status_field<'a>(status: &'a str, key: &str) -> Option<&'a str> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
}

/// The leaf attribute whose sum over an output must equal the reference.
fn sum_field(family: Family) -> &'static str {
    match family {
        Family::FlatToNested => "l_quantity",
        Family::NestedToNested | Family::NestedToFlat => "total",
    }
}

/// What the leaf sums of each query's output must equal, computed straight
/// from the flat tables in O(n) with one hash map: every lineitem joins
/// exactly one order, customer and part, so flat-to-nested keeps
/// Σ `l_quantity` and the nested-to-* queries total
/// Σ `l_quantity` · `p_retailprice`. `corrupt` perturbs one price (the
/// benchmark's self-test: the check must then fail).
pub fn reference_sum(data: &TpchData, family: Family, corrupt: bool) -> Result<f64, String> {
    let real = |row: &Value, attr: &str| -> Result<f64, String> {
        row.as_tuple()
            .and_then(|t| t.get_or_err(attr, "reference"))
            .and_then(Value::as_real)
            .map_err(|e| e.to_string())
    };
    let int = |row: &Value, attr: &str| -> Result<i64, String> {
        row.as_tuple()
            .and_then(|t| t.get_or_err(attr, "reference"))
            .and_then(Value::as_int)
            .map_err(|e| e.to_string())
    };
    let mut price: HashMap<i64, f64> = HashMap::new();
    for p in data.part.iter() {
        price.insert(int(p, "p_partkey")?, real(p, "p_retailprice")?);
    }
    if corrupt {
        let key = int(
            data.lineitem.items().first().ok_or("no lineitems")?,
            "l_partkey",
        )?;
        *price.get_mut(&key).ok_or("dangling l_partkey")? += 1.0;
    }
    let mut sum = 0.0;
    for l in data.lineitem.iter() {
        let qty = real(l, "l_quantity")?;
        sum += match family {
            Family::FlatToNested => qty,
            _ => {
                qty * price
                    .get(&int(l, "l_partkey")?)
                    .ok_or("dangling l_partkey")?
            }
        };
    }
    Ok(sum)
}

/// Sums `field` over every tuple at any depth of `bag`.
pub fn leaf_sum(bag: &Bag, field: &str) -> f64 {
    fn walk(v: &Value, field: &str, acc: &mut f64) {
        match v {
            Value::Tuple(t) => {
                for (name, value) in t.iter() {
                    match value {
                        Value::Real(x) if name == field => *acc += x,
                        Value::Int(x) if name == field => *acc += *x as f64,
                        Value::Bag(_) => walk(value, field, acc),
                        _ => {}
                    }
                }
            }
            Value::Bag(b) => b.iter().for_each(|item| walk(item, field, acc)),
            _ => {}
        }
    }
    let mut acc = 0.0;
    bag.iter().for_each(|item| walk(item, field, &mut acc));
    acc
}

/// True when `output`'s leaf sum equals the reference up to the rounding a
/// different summation order leaves.
pub fn sum_matches(output: &Bag, family: Family, reference: f64) -> bool {
    let got = leaf_sum(output, sum_field(family));
    (got - reference).abs() <= 1e-9 * reference.abs().max(1.0)
}

/// The flat tables bound for the reference evaluator.
pub fn flat_env(data: &TpchData) -> Env {
    Env::from_bindings(tables(data).map(|(name, bag)| (name, Value::Bag(bag.clone()))))
}

/// Checks passed and missed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The small-scale oracle check: the workload set up at [`ORACLE_SCALE`],
/// every (query, strategy) compared with the reference evaluator, and the
/// engine-materialised nested input compared with `eval` of flat-to-nested.
pub fn oracle_check(
    workload: &'static Workload,
    seed: u64,
    spill_dir: &Path,
) -> Result<Checks, String> {
    let mut bench = Bench::build(workload, workload.oracle_scale(), seed, spill_dir)?;
    let mut env = flat_env(&bench.data);
    let f2n = Query::new(Family::FlatToNested, workload.variant);
    let nested = eval(&f2n.spec.query, &env).map_err(|e| e.to_string())?;
    let mut checks = Checks::default();
    checks.record(bags_approx_equal(
        nested.as_bag().map_err(|e| e.to_string())?,
        &bench.nested,
    ));
    env.bind("Nested", nested);
    let mut expected = Vec::with_capacity(bench.queries.len());
    for q in &bench.queries {
        let value = eval(&q.spec.query, &env).map_err(|e| e.to_string())?;
        expected.push(value.into_bag().map_err(|e| e.to_string())?);
    }
    for (strategy, _) in STRATEGIES {
        match bench.run_op(strategy) {
            Ok(op) => {
                for (output, want) in op.outputs.iter().zip(&expected) {
                    checks.record(output.bag().is_ok_and(|got| bags_approx_equal(&got, want)));
                }
            }
            Err(_) => checks.record(false),
        }
    }
    bench.shutdown();
    Ok(checks)
}
