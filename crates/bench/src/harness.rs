//! Shared machinery of the figure-reproducing binaries and the examples.

use std::collections::HashMap;
use std::time::Duration;

use trance_biomed::BiomedConfig;
use trance_compiler::{run_query, InputSet, QuerySpec, RunOutcome, RunResult, Strategy};
use trance_dist::{ClusterConfig, DistContext, Result, StatsSnapshot};
use trance_nrc::{eval, Bag, Env, MemSize, Value};
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

/// Command-line overrides of the simulated cluster shape shared by the
/// figure binaries (see [`crate::Cli::tuning`]).
#[derive(Debug, Clone, Default)]
pub struct ClusterTuning {
    /// Overrides the number of hash partitions (default 16).
    pub partitions: Option<usize>,
    /// Absolute per-worker memory cap in bytes, overriding the
    /// input-proportional `--memory-factor` formula.
    pub memory_bytes: Option<usize>,
    /// Enables the out-of-core spill subsystem on the cluster.
    pub spill: bool,
}

/// The simulated cluster every figure runs on: 4 workers, 16 shuffle
/// partitions, a small broadcast threshold (so joins actually shuffle), and a
/// per-worker memory cap proportional to the input size so that strategies
/// which blow up the flattened representation fail exactly as in the paper —
/// with `tuning`'s overrides applied.
fn cluster(input_bytes: usize, memory_factor: f64, tuning: &ClusterTuning) -> DistContext {
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
    DistContext::new(cfg)
}

fn bag_bytes(bag: &Bag) -> usize {
    bag.iter().map(MemSize::mem_size).sum()
}

/// The flat TPC-H tables under the names the queries read them by.
fn tpch_tables(config: &TpchConfig) -> [(&'static str, Bag); 6] {
    let data = generate(config);
    [
        ("Lineitem", data.lineitem),
        ("Orders", data.orders),
        ("Customer", data.customer),
        ("Nation", data.nation),
        ("Region", data.region),
        ("Part", data.part),
    ]
}

/// Builds the [`InputSet`] and query of one TPC-H experiment cell on the
/// figure cluster with `tuning` applied. The nested input of the nested-to-*
/// families is the flat-to-nested output at `depth`, materialized before
/// anything is measured, exactly as in the paper. The error is the
/// materialization's or a table's registration's.
pub fn tpch_input_set_tuned(
    config: &TpchConfig,
    family: Family,
    depth: usize,
    variant: QueryVariant,
    memory_factor: f64,
    tuning: &ClusterTuning,
) -> Result<(InputSet, QuerySpec)> {
    let tables = tpch_tables(config);
    let (query, nested) = match family {
        Family::FlatToNested => (flat_to_nested(depth, variant), None),
        Family::NestedToNested | Family::NestedToFlat => {
            let env = Env::from_bindings(
                tables
                    .iter()
                    .map(|(name, bag)| (*name, Value::Bag(bag.clone()))),
            );
            let nested = eval(&flat_to_nested(depth, variant), &env)?.into_bag()?;
            let query = match family {
                Family::NestedToNested => nested_to_nested(depth, variant),
                _ => nested_to_flat(depth, variant),
            };
            (query, Some(nested))
        }
    };
    let input_bytes = tables.iter().map(|(_, bag)| bag_bytes(bag)).sum::<usize>()
        + nested.as_ref().map_or(0, bag_bytes);
    let mut inputs = InputSet::new(cluster(input_bytes, memory_factor, tuning));
    for (name, bag) in tables {
        inputs.add_flat(name, bag)?;
    }
    let mut nested_decls = vec![];
    if let Some(nested) = nested {
        if depth == 0 {
            inputs.add_flat("Nested", nested)?;
        } else {
            inputs.add_nested("Nested", nested)?;
            nested_decls.push(ShreddedInputDecl::new(
                "Nested",
                nesting_structure_for_depth(depth),
            ));
        }
    }
    let spec = QuerySpec::new(
        format!("{family:?}-depth{depth}-{variant:?}"),
        query,
        nested_decls,
    );
    Ok((inputs, spec))
}

/// Runs `spec` once per strategy, each under its default options. The
/// table-store cells of the forms the strategies read
/// are filled first, untimed: the one-time `Value` → batch conversion belongs
/// to loading the inputs, not to whichever strategy happens to run first.
pub fn run_strategies(
    spec: &QuerySpec,
    inputs: &InputSet,
    strategies: &[Strategy],
) -> Vec<BenchRow> {
    for shredded in [false, true] {
        if strategies.iter().any(|s| s.is_shredded() == shredded) {
            // A conversion that fails here fails again inside the first
            // timed run, which reports it as that cell's FAIL.
            let _ = inputs.resident(shredded);
        }
    }
    strategies
        .iter()
        .map(|&s| outcome_to_row(run_query(spec, inputs, s)))
        .collect()
}

/// Runs one TPC-H experiment cell on the untuned figure cluster for each
/// requested strategy under the strategy's default options. The error is
/// the cell's setup's ([`tpch_input_set_tuned`]); a failed run is a row.
pub fn run_tpch_query(
    config: &TpchConfig,
    family: Family,
    depth: usize,
    variant: QueryVariant,
    strategies: &[Strategy],
    memory_factor: f64,
) -> Result<Vec<BenchRow>> {
    let tuning = ClusterTuning::default();
    let (inputs, spec) =
        tpch_input_set_tuned(config, family, depth, variant, memory_factor, &tuning)?;
    Ok(run_strategies(&spec, &inputs, strategies))
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

/// Builds the distributed input set of the biomedical benchmark on the
/// figure cluster with `tuning` applied.
fn biomed_input_set(
    config: &BiomedConfig,
    memory_factor: f64,
    tuning: &ClusterTuning,
) -> Result<InputSet> {
    let data = trance_biomed::generate(config);
    let nested = [("Occurrences", data.occurrences), ("Network", data.network)];
    let flat = [
        ("GeneInfo", data.gene_info),
        ("ImpactWeights", data.impact_weights),
        ("ConseqWeights", data.conseq_weights),
    ];
    let bytes = nested
        .iter()
        .chain(&flat)
        .map(|(_, bag)| bag_bytes(bag))
        .sum();
    let mut inputs = InputSet::new(cluster(bytes, memory_factor, tuning));
    for (name, bag) in nested {
        inputs.add_nested(name, bag)?;
    }
    for (name, bag) in flat {
        inputs.add_flat(name, bag)?;
    }
    Ok(inputs)
}

/// Runs the five-step E2E pipeline under one strategy on a CLI-tuned
/// cluster, feeding each step's output to the next in the form it was
/// produced (see [`observe_biomed_pipeline`]).
pub fn run_biomed_pipeline_tuned(
    config: &BiomedConfig,
    strategy: Strategy,
    memory_factor: f64,
    tuning: &ClusterTuning,
) -> Result<PipelineRow> {
    observe_biomed_pipeline(config, strategy, memory_factor, tuning, |spec, inputs| {
        run_query(spec, inputs, strategy)
    })
}

/// Runs the pipeline like [`run_biomed_pipeline_tuned`] on the untuned
/// cluster while capturing, per step, the EXPLAIN rendering of the optimized
/// plans the step executed.
pub fn explain_biomed_pipeline(
    config: &BiomedConfig,
    strategy: Strategy,
    memory_factor: f64,
) -> Result<Vec<(String, String)>> {
    let mut explains = Vec::new();
    let tuning = ClusterTuning::default();
    observe_biomed_pipeline(config, strategy, memory_factor, &tuning, |spec, inputs| {
        let (outcome, text) = trance_compiler::run_query_explained(spec, inputs, strategy);
        explains.push((spec.name.clone(), text));
        outcome
    })?;
    Ok(explains)
}

/// The pipeline driver: runs each step through `run_step` (which sees the
/// step's query and the inputs as they stand, and may keep what it likes of
/// the outcome) and registers the step's output for the next one **once, in
/// the form it was produced**:
///
/// * a shredded output (SHRED, SHRED-SKEW) as its shredded pieces, so the
///   next step consumes the dictionaries this one wrote — the point of the
///   figure;
/// * a standard-family output as the distributed nested collection it is;
/// * an unshredded output (SHRED+UNSHRED) is nested rows where the shredded
///   family's next step reads shredded ones, so this arm alone converts: the
///   rows are registered as a nested input, which shreds them.
///
/// The table-store cells of the form the strategy reads are filled before
/// each step runs, untimed, as [`run_strategies`] does. A step after a
/// failed one is not attempted and reported failed, as in the paper. The
/// error is a registration's: of the generated inputs, or of a step's
/// output as the next step's input.
pub fn observe_biomed_pipeline(
    config: &BiomedConfig,
    strategy: Strategy,
    memory_factor: f64,
    tuning: &ClusterTuning,
    mut run_step: impl FnMut(&QuerySpec, &InputSet) -> RunOutcome,
) -> Result<PipelineRow> {
    let mut inputs = biomed_input_set(config, memory_factor, tuning)?;
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
        // A conversion that fails here fails again inside the timed run,
        // which reports it as this step's FAIL.
        let _ = inputs.resident(strategy.is_shredded());
        let outcome = run_step(&spec, &inputs);
        shuffled += outcome.stats.shuffled_bytes;
        match &outcome.result {
            RunResult::Failed(_) => failed = true,
            RunResult::Shredded(out) => inputs.add_shredded(output_name, out),
            RunResult::Nested(d) if !strategy.is_shredded() => {
                inputs.add_nested_collection(output_name, d.clone());
            }
            RunResult::Nested(d) => {
                let rows = d.collect_bag();
                match structures.contains_key(output_name) {
                    true => inputs.add_nested(output_name, rows)?,
                    false => inputs.add_flat(output_name, rows)?,
                }
            }
        }
        let elapsed = (!failed).then_some(outcome.elapsed);
        steps.push((step_name.to_string(), elapsed));
    }
    Ok(PipelineRow {
        strategy,
        steps,
        shuffled_bytes: shuffled,
    })
}
