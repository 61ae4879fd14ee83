//! Shared machinery for the figure-reproducing binaries and Criterion benches.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use trance_biomed::{BiomedConfig, BiomedData};
use trance_compiler::{
    run_query, run_query_with, strategy_options, ExecOptions, InputSet, QuerySpec, RunOutcome,
    RunResult, Strategy,
};
use trance_dist::{ClusterConfig, DistContext, FaultPlan, StatsSnapshot};
use trance_nrc::{eval, infer, Bag, Env, Expr, MemSize, Type, TypeEnv, Value};
use trance_shred::ShreddedInputDecl;
use trance_tpch::{
    flat_to_nested, generate, nested_to_flat, nested_to_nested, nesting_structure_for_depth,
    QueryVariant, TpchConfig,
};

/// The three TPC-H query families of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Build nested output from the flat tables.
    FlatToNested,
    /// Nested input, nested output with the Part join + aggregation.
    NestedToNested,
    /// Nested input, flat aggregated output.
    NestedToFlat,
}

impl Family {
    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Family> {
        match s {
            "flat-to-nested" => Some(Family::FlatToNested),
            "nested-to-nested" => Some(Family::NestedToNested),
            "nested-to-flat" => Some(Family::NestedToFlat),
            _ => None,
        }
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Family::FlatToNested => "Flat to Nested",
            Family::NestedToNested => "Nested to Nested",
            Family::NestedToFlat => "Nested to Flat",
        }
    }

    /// All families in figure order.
    pub fn all() -> [Family; 3] {
        [
            Family::FlatToNested,
            Family::NestedToNested,
            Family::NestedToFlat,
        ]
    }
}

/// One measured cell of a figure.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// The strategy that ran.
    pub strategy: Strategy,
    /// Runtime; `None` when the run failed (FAIL in the paper's figures).
    pub elapsed: Option<Duration>,
    /// Engine metrics.
    pub stats: StatsSnapshot,
}

impl BenchRow {
    /// Formats the runtime column (`FAIL` for failed runs).
    pub fn time_cell(&self) -> String {
        match self.elapsed {
            Some(d) => format!("{:8.1}", d.as_secs_f64() * 1000.0),
            None => format!("{:>8}", "FAIL"),
        }
    }

    /// Formats the shuffled-data column in MiB.
    pub fn shuffle_cell(&self) -> String {
        format!("{:7.2}", self.stats.shuffled_mib())
    }
}

fn outcome_to_row(outcome: RunOutcome) -> BenchRow {
    let elapsed = match outcome.result {
        RunResult::Failed(_) => None,
        _ => Some(outcome.elapsed),
    };
    BenchRow {
        strategy: outcome.strategy,
        elapsed,
        stats: outcome.stats,
    }
}

/// Runs the two sides of an A/B pair `rounds` times, back to back within
/// every round — a slow phase of the shared box then hits both sides — and
/// returns each side's best row by `key` (lower is better). One noisy run
/// must not decide a comparison whose sides differ by a few percent.
pub fn best_of_interleaved(
    rounds: usize,
    mut run: impl FnMut(usize) -> BenchRow,
    key: impl Fn(&BenchRow) -> f64,
) -> [BenchRow; 2] {
    let mut best: [Option<BenchRow>; 2] = [None, None];
    for _ in 0..rounds {
        for (side, slot) in best.iter_mut().enumerate() {
            let row = run(side);
            if slot.as_ref().is_none_or(|b| key(&row) < key(b)) {
                *slot = Some(row);
            }
        }
    }
    best.map(|row| row.expect("an A/B pair runs at least one round"))
}

/// Command-line overrides of the simulated cluster shape shared by the
/// figure binaries (see `trance_bench::cli_tuning`).
#[derive(Debug, Clone, Default)]
pub struct ClusterTuning {
    /// Overrides the number of hash partitions (default 16).
    pub partitions: Option<usize>,
    /// Absolute per-worker memory cap in bytes, overriding the
    /// input-proportional `--memory-factor` formula.
    pub memory_bytes: Option<usize>,
    /// Enables the out-of-core spill subsystem on the cluster.
    pub spill: bool,
    /// Runs the **staged** executor (no fused pipelines) instead of the
    /// default morsel-driven pipelined one — the A side of `--staged` A/B
    /// comparisons.
    pub staged: bool,
    /// Fault-plan spec (`--faults`, e.g. `42` or
    /// `seed=42,morsel=0.02,once=spill_read@3`) arming the cluster's
    /// deterministic fault injector. When absent, `TRANCE_FAULT_SEED`
    /// supplies the plan instead; when both are absent, runs are fault-free.
    pub faults: Option<String>,
}

impl ClusterTuning {
    /// The execution options `strategy` runs under with this tuning: its
    /// defaults, on the staged executor when `staged` is set.
    pub fn options(&self, strategy: Strategy) -> ExecOptions {
        ExecOptions {
            pipelined: !self.staged,
            ..strategy_options(strategy, false)
        }
    }
}

/// The default simulated cluster used by every figure: 4 workers, 16 shuffle
/// partitions, a small broadcast threshold (so joins actually shuffle), and a
/// per-worker memory cap proportional to the input size so that strategies
/// which blow up the flattened representation fail exactly as in the paper.
pub fn default_cluster(input_bytes: usize, memory_factor: f64) -> DistContext {
    default_cluster_tuned(input_bytes, memory_factor, &ClusterTuning::default())
}

/// [`default_cluster`] with CLI-provided overrides applied.
pub fn default_cluster_tuned(
    input_bytes: usize,
    memory_factor: f64,
    tuning: &ClusterTuning,
) -> DistContext {
    // 4 KiB keeps even the small dimension tables over the limit at the
    // benchmark scales, so ordinary joins shuffle and only the skew path's
    // heavy-key subsets qualify for broadcast. `TRANCE_WORKERS` overrides
    // the 4-worker default (the CI matrix knob).
    let mut cfg = ClusterConfig::new(4, tuning.partitions.unwrap_or(16))
        .with_broadcast_limit(4 * 1024)
        .with_env_workers();
    if let Some(bytes) = tuning.memory_bytes {
        cfg = cfg.with_worker_memory(bytes);
    } else if memory_factor > 0.0 {
        let per_worker = ((input_bytes as f64 / cfg.workers as f64) * memory_factor) as usize;
        cfg = cfg.with_worker_memory(per_worker.max(64 * 1024));
    }
    if tuning.spill {
        cfg = cfg.with_spill();
    }
    cfg = match &tuning.faults {
        // `--faults` beats the `TRANCE_FAULT_SEED` environment knob.
        Some(spec) => match FaultPlan::parse(spec) {
            Ok(plan) => cfg.with_faults(plan),
            Err(e) => {
                eprintln!("warning: ignoring invalid --faults spec: {e}");
                cfg
            }
        },
        None => cfg.with_env_faults(),
    };
    DistContext::new(cfg)
}

/// Environment with all flat TPC-H tables bound (for local materialization).
fn tpch_env(config: &TpchConfig) -> (Env, usize) {
    let data = generate(config);
    let bytes = [
        &data.lineitem,
        &data.orders,
        &data.customer,
        &data.nation,
        &data.region,
        &data.part,
    ]
    .iter()
    .map(|b| b.iter().map(MemSize::mem_size).sum::<usize>())
    .sum();
    let env = Env::from_bindings([
        ("Lineitem", Value::Bag(data.lineitem)),
        ("Orders", Value::Bag(data.orders)),
        ("Customer", Value::Bag(data.customer)),
        ("Nation", Value::Bag(data.nation)),
        ("Region", Value::Bag(data.region)),
        ("Part", Value::Bag(data.part)),
    ]);
    (env, bytes)
}

/// Typing environment mirroring `tpch_env`'s bindings, for driving the
/// textual front-end path: flat table types are inferred from a generated
/// sample and, when `depth > 0`, the nested input's type (the flat-to-nested
/// output type at `depth`) is bound as `Nested`.
pub fn tpch_type_env(config: &TpchConfig, depth: usize, variant: QueryVariant) -> TypeEnv {
    let data = generate(config);
    let mut env = TypeEnv::new();
    for (name, bag) in [
        ("Lineitem", &data.lineitem),
        ("Orders", &data.orders),
        ("Customer", &data.customer),
        ("Nation", &data.nation),
        ("Region", &data.region),
        ("Part", &data.part),
    ] {
        let elem = bag
            .iter()
            .next()
            .map(Value::infer_type)
            .unwrap_or(Type::Unknown);
        env.bind(name, Type::bag(elem));
    }
    if depth > 0 {
        let nested = infer(&flat_to_nested(depth, variant), &env)
            .expect("flat-to-nested must typecheck against the flat tables");
        env.bind("Nested", nested);
    }
    env
}

/// Microseconds to parse and typecheck the pretty-printed surface text of
/// `query` under `env` — the front-end cost a textual submission pays before
/// reaching the (cached) plan compiler. Panics if the query fails to
/// round-trip through the surface syntax: every benched query must be
/// expressible as text.
pub fn parse_typecheck_us(query: &Expr, env: &TypeEnv) -> f64 {
    let text = trance_nrc::pretty::pretty(query);
    let start = Instant::now();
    let parsed = trance_frontend::parse_expr(&text)
        .unwrap_or_else(|e| panic!("bench query text must re-parse: {e}"));
    infer(&parsed, env).expect("bench query text must typecheck");
    start.elapsed().as_secs_f64() * 1e6
}

/// Materializes the nested input of the nested-to-* families (the flat-to-
/// nested output at `depth`), exactly as the paper materializes it before
/// measuring.
pub fn materialize_nested_input(config: &TpchConfig, depth: usize, variant: QueryVariant) -> Bag {
    let (env, _) = tpch_env(config);
    eval(&flat_to_nested(depth, variant), &env)
        .expect("flat-to-nested materialization")
        .into_bag()
        .expect("bag result")
}

/// Builds the [`InputSet`] for one TPC-H experiment cell.
pub fn tpch_input_set(
    config: &TpchConfig,
    family: Family,
    depth: usize,
    variant: QueryVariant,
    memory_factor: f64,
) -> (InputSet, QuerySpec) {
    tpch_input_set_tuned(
        config,
        family,
        depth,
        variant,
        memory_factor,
        &ClusterTuning::default(),
    )
}

/// [`tpch_input_set`] with CLI-provided cluster overrides applied.
pub fn tpch_input_set_tuned(
    config: &TpchConfig,
    family: Family,
    depth: usize,
    variant: QueryVariant,
    memory_factor: f64,
    tuning: &ClusterTuning,
) -> (InputSet, QuerySpec) {
    let (env, flat_bytes) = tpch_env(config);
    let (query, nested_decls, nested_input) = match family {
        Family::FlatToNested => (flat_to_nested(depth, variant), vec![], None),
        Family::NestedToNested | Family::NestedToFlat => {
            let nested = materialize_nested_input(config, depth, variant);
            let query = match family {
                Family::NestedToNested => nested_to_nested(depth, variant),
                _ => nested_to_flat(depth, variant),
            };
            let decls = if depth == 0 {
                vec![]
            } else {
                vec![ShreddedInputDecl::new(
                    "Nested",
                    nesting_structure_for_depth(depth),
                )]
            };
            (query, decls, Some(nested))
        }
    };
    let nested_bytes: usize = nested_input
        .as_ref()
        .map(|b| b.iter().map(MemSize::mem_size).sum())
        .unwrap_or(0);
    let ctx = default_cluster_tuned(flat_bytes + nested_bytes, memory_factor, tuning);
    let mut inputs = InputSet::new(ctx);
    for name in ["Lineitem", "Orders", "Customer", "Nation", "Region", "Part"] {
        inputs
            .add_flat(name, env.get(name).unwrap().as_bag().unwrap().clone())
            .unwrap();
    }
    if let Some(nested) = nested_input {
        if depth == 0 {
            inputs.add_flat("Nested", nested).unwrap();
        } else {
            inputs.add_nested("Nested", nested).unwrap();
        }
    }
    let spec = QuerySpec::new(
        format!("{family:?}-depth{depth}-{variant:?}"),
        query,
        nested_decls,
    );
    (inputs, spec)
}

/// Runs `spec` once per strategy, each under the options `options_for`
/// returns for it — how the A/B pairs in `BENCH_summary.json` pick their
/// sides, e.g. `|s| ExecOptions { pipelined: false, ..strategy_options(s,
/// false) }` for the staged executor.
pub fn run_strategies(
    spec: &QuerySpec,
    inputs: &InputSet,
    strategies: &[Strategy],
    options_for: impl Fn(Strategy) -> ExecOptions,
) -> Vec<BenchRow> {
    strategies
        .iter()
        .map(|&s| outcome_to_row(run_query_with(spec, inputs, s, &options_for(s))))
        .collect()
}

/// Runs one TPC-H experiment cell for each requested strategy under the
/// strategy's default options.
pub fn run_tpch_query(
    config: &TpchConfig,
    family: Family,
    depth: usize,
    variant: QueryVariant,
    strategies: &[Strategy],
    memory_factor: f64,
) -> Vec<BenchRow> {
    let (inputs, spec) = tpch_input_set(config, family, depth, variant, memory_factor);
    run_strategies(&spec, &inputs, strategies, |s| strategy_options(s, false))
}

/// One memory-capped cell run both ways on a spill-capable cluster: spill
/// off (reproducing the paper's FAIL) and spill on (completing out-of-core),
/// with the spill-on result differentially checked against an uncapped
/// in-memory oracle run.
#[derive(Debug, Clone)]
pub struct CappedCell {
    /// Query family of the cell.
    pub family: Family,
    /// Strategy of the cell.
    pub strategy: Strategy,
    /// The run with spilling disabled (expected: FAIL).
    pub spill_off: BenchRow,
    /// The run with spilling enabled (expected: ok, `spilled_bytes > 0`).
    pub spill_on: BenchRow,
    /// Whether the spill-on result matched the uncapped oracle
    /// (multiset-equal up to float-summation order).
    pub results_match_uncapped: bool,
}

/// Re-runs the paper's three FAIL cells (FlatToNested-Wide STANDARD +
/// SPARKSQL-LIKE, NestedToNested-Wide SPARKSQL-LIKE) on a spill-capable
/// cluster capped at `memory_factor`: spill off must FAIL, spill on must
/// complete with results identical to an uncapped oracle run.
pub fn run_capped_cells(config: &TpchConfig, memory_factor: f64) -> Vec<CappedCell> {
    let cells = [
        (Family::FlatToNested, Strategy::Standard),
        (Family::FlatToNested, Strategy::Baseline),
        (Family::NestedToNested, Strategy::Baseline),
    ];
    let mut out = Vec::new();
    for (family, strategy) in cells {
        // Uncapped in-memory oracle.
        let (oracle_inputs, oracle_spec) =
            tpch_input_set(config, family, 2, QueryVariant::Wide, 0.0);
        let oracle = run_query(&oracle_spec, &oracle_inputs, strategy);
        let oracle_bag = match &oracle.result {
            RunResult::Nested(d) => Some(d.collect_bag()),
            _ => None,
        };

        // The capped, spill-capable cluster.
        let tuning = ClusterTuning {
            spill: true,
            ..ClusterTuning::default()
        };
        let (inputs, spec) = tpch_input_set_tuned(
            config,
            family,
            2,
            QueryVariant::Wide,
            memory_factor,
            &tuning,
        );
        let spill_off = ExecOptions {
            spill: false,
            ..strategy_options(strategy, false)
        };
        let off = run_query_with(&spec, &inputs, strategy, &spill_off);
        let on = run_query(&spec, &inputs, strategy);
        let results_match_uncapped = match (&oracle_bag, &on.result) {
            (Some(expected), RunResult::Nested(d)) => {
                trance_nrc::bags_approx_equal(expected, &d.collect_bag())
            }
            _ => false,
        };
        out.push(CappedCell {
            family,
            strategy,
            spill_off: outcome_to_row(off),
            spill_on: outcome_to_row(on),
            results_match_uncapped,
        });
    }
    out
}

// ---------------------------------------------------------------------------
// biomedical pipeline
// ---------------------------------------------------------------------------

/// Per-step measurement of the E2E pipeline for one strategy.
#[derive(Debug, Clone)]
pub struct PipelineRow {
    /// The strategy.
    pub strategy: Strategy,
    /// Per-step runtimes; `None` marks the step where the run failed (later
    /// steps are not attempted, as in the paper).
    pub steps: Vec<(String, Option<Duration>)>,
    /// Total shuffled bytes across the whole pipeline.
    pub shuffled_bytes: u64,
}

impl PipelineRow {
    /// Total runtime across completed steps.
    pub fn total(&self) -> Duration {
        self.steps.iter().filter_map(|(_, d)| *d).sum()
    }

    /// True when some step failed.
    pub fn failed(&self) -> bool {
        self.steps.iter().any(|(_, d)| d.is_none())
    }
}

/// Builds the distributed input set for the biomedical benchmark.
pub fn biomed_input_set(config: &BiomedConfig, memory_factor: f64) -> (InputSet, BiomedData) {
    biomed_input_set_tuned(config, memory_factor, &ClusterTuning::default())
}

/// [`biomed_input_set`] with CLI-provided cluster overrides applied.
pub fn biomed_input_set_tuned(
    config: &BiomedConfig,
    memory_factor: f64,
    tuning: &ClusterTuning,
) -> (InputSet, BiomedData) {
    let data = trance_biomed::generate(config);
    let bytes: usize = [
        &data.occurrences,
        &data.network,
        &data.gene_info,
        &data.impact_weights,
        &data.conseq_weights,
    ]
    .iter()
    .map(|b| b.iter().map(MemSize::mem_size).sum::<usize>())
    .sum();
    let ctx = default_cluster_tuned(bytes, memory_factor, tuning);
    let mut inputs = InputSet::new(ctx);
    inputs
        .add_nested("Occurrences", data.occurrences.clone())
        .unwrap();
    inputs.add_nested("Network", data.network.clone()).unwrap();
    inputs.add_flat("GeneInfo", data.gene_info.clone()).unwrap();
    inputs
        .add_flat("ImpactWeights", data.impact_weights.clone())
        .unwrap();
    inputs
        .add_flat("ConseqWeights", data.conseq_weights.clone())
        .unwrap();
    (inputs, data)
}

/// Runs the five-step E2E pipeline under one strategy, feeding each step's
/// output to the next (shredded outputs stay shredded between steps for the
/// shredded strategies; nested outputs stay distributed for the others).
pub fn run_biomed_pipeline(
    config: &BiomedConfig,
    strategy: Strategy,
    memory_factor: f64,
) -> PipelineRow {
    run_biomed_pipeline_tuned(config, strategy, memory_factor, &ClusterTuning::default())
}

/// [`run_biomed_pipeline`] on a CLI-tuned cluster.
pub fn run_biomed_pipeline_tuned(
    config: &BiomedConfig,
    strategy: Strategy,
    memory_factor: f64,
    tuning: &ClusterTuning,
) -> PipelineRow {
    run_biomed_pipeline_impl(config, strategy, memory_factor, tuning, None)
}

/// Runs the pipeline like [`run_biomed_pipeline`] while capturing, per step,
/// the EXPLAIN rendering of the optimized plans the step executed.
pub fn explain_biomed_pipeline(
    config: &BiomedConfig,
    strategy: Strategy,
    memory_factor: f64,
) -> Vec<(String, String)> {
    let mut explains = Vec::new();
    run_biomed_pipeline_impl(
        config,
        strategy,
        memory_factor,
        &ClusterTuning::default(),
        Some(&mut explains),
    );
    explains
}

fn run_biomed_pipeline_impl(
    config: &BiomedConfig,
    strategy: Strategy,
    memory_factor: f64,
    tuning: &ClusterTuning,
    mut explains: Option<&mut Vec<(String, String)>>,
) -> PipelineRow {
    let (mut inputs, _) = biomed_input_set_tuned(config, memory_factor, tuning);
    let structures: HashMap<&str, trance_shred::NestingStructure> = HashMap::from([
        ("Occurrences", trance_biomed::occurrences_structure()),
        ("Network", trance_biomed::network_structure()),
        ("HybridScores", trance_biomed::step1_structure()),
        ("NetworkScores", trance_biomed::step2_structure()),
    ]);
    let mut steps = Vec::new();
    let mut shuffled = 0u64;
    let mut failed = false;
    for (step_name, output_name, expr) in trance_biomed::pipeline_steps() {
        if failed {
            steps.push((step_name.to_string(), None));
            continue;
        }
        // Declare the nested inputs this step reads.
        let decls: Vec<ShreddedInputDecl> = expr
            .free_vars()
            .into_iter()
            .filter_map(|v| {
                structures
                    .get(v.as_str())
                    .map(|s| ShreddedInputDecl::new(v.clone(), s.clone()))
            })
            .collect();
        let spec = QuerySpec::new(step_name, expr, decls);
        let outcome = match explains.as_deref_mut() {
            Some(explains) => {
                let (outcome, text) =
                    trance_compiler::run_query_explained(&spec, &inputs, strategy);
                explains.push((step_name.to_string(), text));
                outcome
            }
            None => run_query_with(&spec, &inputs, strategy, &tuning.options(strategy)),
        };
        shuffled += outcome.stats.shuffled_bytes;
        match &outcome.result {
            RunResult::Failed(_) => {
                steps.push((step_name.to_string(), None));
                failed = true;
            }
            RunResult::Nested(d) => {
                steps.push((step_name.to_string(), Some(outcome.elapsed)));
                inputs.add_nested_collection(output_name, d.clone());
                // Also make it available to a shredded next step.
                if let Some(s) = structures.get(output_name) {
                    let bag = d.collect_bag();
                    let _ = s;
                    inputs.add_nested(output_name, bag).unwrap();
                } else {
                    inputs.add_flat(output_name, d.collect_bag()).unwrap();
                }
            }
            RunResult::Shredded(out) => {
                steps.push((step_name.to_string(), Some(outcome.elapsed)));
                inputs.add_shredded(output_name, out);
                // The standard route of a later step (if mixed) would need the
                // nested form too; reconstruct it cheaply at this scale.
                if let Ok(bag) = trance_compiler::collect_unshredded(out) {
                    if structures.contains_key(output_name) {
                        inputs.add_nested(output_name, bag).unwrap();
                    } else {
                        inputs.add_flat(output_name, bag).unwrap();
                    }
                }
            }
        }
    }
    PipelineRow {
        strategy,
        steps,
        shuffled_bytes: shuffled,
    }
}
