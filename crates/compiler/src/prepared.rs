//! **Prepared queries** — the compiled-plan payload of the serving layer's
//! plan cache.
//!
//! Compiling a query is front-loaded work that repeats identically on every
//! submission: lowering (the unnesting algorithm), per-assignment
//! `trance_algebra::optimize` against the catalog known so far,
//! pipeline-breaker analysis, and kernel-program compilation. A
//! [`PreparedQuery`] captures what that work produced — the **optimized**
//! plans of every assignment (for the shredded strategies: of every flat
//! assignment of the shredded program, each with its own call-local
//! intermediates) — so a warm submission replays them **verbatim** through
//! [`eval_plan_col`]: no lowering, no catalog work, no optimizer pass.
//! Kernel programs are reused through the shared [`crate::KernelCache`]
//! threaded through `ExecOptions::kernel_cache`, which is what makes a warm
//! run report *zero* expression-compile time.
//!
//! Replaying a plan optimized against yesterday's statistics is safe:
//! optimizer choices only affect *how* a plan runs, and the one
//! data-dependent hazard — a broadcast join whose build side has since
//! grown — is re-checked at runtime by the columnar executor's broadcast
//! guard, which falls back to a shuffle join when the side no longer fits
//! under `broadcast_limit`. Staleness is bounded by the serving layer's
//! cache key, which includes the table registry's epoch: any re-registration
//! invalidates the entry and the next submission re-prepares.
//!
//! This module also holds the one **program driver**
//! (`run_program`): a one-shot [`crate::run_query`], an explained run, a cold
//! [`prepare_and_run`] and a warm [`run_prepared`] are the same loop over
//! program units — they differ only in whether a unit is compiled from NRC
//! or replayed from captured plans, and in whether the plans are recorded.
//! All of them start from the table store's resident batches
//! ([`crate::store`]); no run converts an input it (or an earlier run)
//! already converted.

use std::collections::{BTreeMap, HashMap};

use trance_dist::{ColCollection, DistContext, ExecError};
use trance_nrc::Expr;
use trance_shred::{output_dict_name, shred_query, NestingStructure, ShreddedQuery, TOP_BAG};

use crate::columnar::{
    eval_plan_col, exact_schema_col, execute_program, lower_in_catalog, CapturedPlans,
};
use crate::options::ExecOptions;
use crate::pipeline::{with_session, InputSet, QuerySpec, RunResult, ShreddedOutput, Strategy};
use crate::store::ResidentTables;
use crate::unshred::{unshred_program, UNSHRED};

/// Name of a standard-family program's single unit (and of its root plan in
/// EXPLAIN output).
const RESULT: &str = "result";

/// The optimized plans one run executed, grouped by program unit in
/// execution order: `(unit name, the unit's captured plans)`. Each unit's
/// intermediate plans are call-local; its root plan's output enters the
/// shared environment under the unit name.
pub(crate) type CapturedUnits = Vec<(String, CapturedPlans)>;

/// A query compiled down to its optimized plans, ready for verbatim replay.
///
/// Produced by [`prepare_and_run`] on a cache miss (the cold run executes
/// *and* captures), consumed by [`run_prepared`] on every hit.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    strategy: Strategy,
    /// Standard family: one unit, [`RESULT`]. Shredded family: one unit per
    /// flat assignment of the shredded query, then [`UNSHRED`] for the
    /// strategies that unshred.
    units: CapturedUnits,
    output: Output,
}

/// How a program's executed environment becomes the run's result.
#[derive(Debug, Clone)]
pub(crate) enum Output {
    /// The rows of the program's last unit: [`RESULT`] for the standard
    /// family, [`UNSHRED`] for the shredded strategies that unshred.
    Nested,
    /// SHRED / SHRED-SKEW: the top bag plus one dictionary per output path,
    /// left shredded.
    Shredded {
        /// The output's nesting structure.
        structure: NestingStructure,
        /// `(dictionary path, environment name)`, resolved once per program.
        dict_sources: Vec<(String, String)>,
    },
}

impl PreparedQuery {
    /// The strategy this query was prepared under.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Total number of captured (optimized) plans across all units, the
    /// unshredding plan included.
    pub fn plan_count(&self) -> usize {
        self.units.iter().map(|(_, p)| p.len()).sum()
    }
}

/// Where one unit of a columnar program gets its plans from.
enum Step<'a> {
    /// Build the unit's plan program against the catalog known so far,
    /// optimize each plan, execute.
    Compile(Source<'a>),
    /// Replay already-optimized plans verbatim.
    Replay(&'a CapturedPlans),
}

/// What a compiled unit's plan program is built from.
enum Source<'a> {
    /// An NRC expression, through the unnesting algorithm.
    Nrc(&'a Expr),
    /// The dictionaries the earlier units produced: the unit starts from a
    /// ready plan, the one that re-nests them ([`unshred_program`]).
    Dicts {
        structure: &'a NestingStructure,
        dict_sources: &'a [(String, String)],
    },
}

/// `(dictionary path, environment name)` of every output dictionary of a
/// shredded query.
fn dict_sources(shredded: &ShreddedQuery) -> Vec<(String, String)> {
    shredded
        .structure
        .paths()
        .into_iter()
        .map(|path| {
            let name = shredded
                .dict_names
                .get(&path)
                .cloned()
                .unwrap_or_else(|| output_dict_name(&path));
            (path, name)
        })
        .collect()
}

/// **The** program driver: executes the units in order over an
/// accumulating environment that starts as the resident batches of `tables`
/// (recording each compiled unit's optimized plans when `capture` is given),
/// then hands the outputs back the way `output` asks — the last unit's
/// result ([`RESULT`], or [`UNSHRED`]: unshredding is a unit like any
/// other), or the shredded collections as they are — each as its batches,
/// whose rows are built only when a caller asks for them. Every run —
/// one-shot, explained, prepared cold, prepared warm — goes through here.
///
/// Compiled units optimize against one catalog carried across the program:
/// seeded from the store's memoised schemas and sizes at the first compiled
/// unit, extended with each earlier unit's output (exact batch schema,
/// logical size) before the next one compiles. A replayed program never
/// builds it.
fn run_program<'a>(
    steps: impl IntoIterator<Item = (&'a str, Step<'a>)>,
    tables: &ResidentTables,
    output: &Output,
    ctx: &DistContext,
    options: &ExecOptions,
    mut capture: Option<&mut CapturedUnits>,
) -> trance_dist::Result<RunResult> {
    let mut env = tables.batches(ctx);
    let mut catalog = None;
    // Unit outputs the catalog does not describe yet.
    let mut unregistered: Vec<&str> = Vec::new();
    let mut last = None;
    for (name, step) in steps {
        let out = match step {
            Step::Compile(source) => {
                let catalog = match &mut catalog {
                    Some(catalog) => catalog,
                    None => catalog.insert(tables.catalog(ctx)?),
                };
                for unit in unregistered.drain(..) {
                    let out = &env[unit];
                    catalog.register(unit, exact_schema_col(out)?);
                    catalog.set_size(unit, out.planning_bytes()?);
                }
                let program = match source {
                    Source::Nrc(expr) => lower_in_catalog(expr, catalog)?,
                    Source::Dicts {
                        structure,
                        dict_sources,
                    } => unshred_program(structure, TOP_BAG, dict_sources, catalog),
                };
                let mut plans = CapturedPlans::new();
                let sink = capture.is_some().then_some(&mut plans);
                let out =
                    execute_program(&program, &env, catalog.clone(), ctx, options, name, sink)?;
                if let Some(capture) = capture.as_deref_mut() {
                    capture.push((name.to_string(), plans));
                }
                out
            }
            Step::Replay(plans) => replay_plans(plans, &env, ctx, options)?,
        };
        env.insert(name.to_string(), out);
        unregistered.push(name);
        last = Some(name);
    }
    match output {
        Output::Nested => {
            let out = last
                .and_then(|last| env.get(last))
                .ok_or_else(|| ExecError::Other("program produced no result".into()))?;
            Ok(RunResult::Nested(out.to_rows()?))
        }
        Output::Shredded {
            structure,
            dict_sources,
        } => {
            let top = env
                .get(TOP_BAG)
                .ok_or_else(|| ExecError::Other("shredded program produced no TopBag".into()))?;
            let mut dicts = BTreeMap::new();
            for (path, name) in dict_sources {
                if let Some(dict) = env.get(name) {
                    dicts.insert(path.clone(), dict.to_rows()?);
                }
            }
            Ok(RunResult::Shredded(ShreddedOutput {
                top: top.to_rows()?,
                dicts,
                structure: structure.clone(),
            }))
        }
    }
}

/// Compiles and runs `spec` under `strategy` over the resident tables of its
/// form (nested for the standard family, shredded for the shredded family)
/// through [`run_program`], returning the result together with the
/// program's [`Output`] shape.
pub(crate) fn run_spec(
    spec: &QuerySpec,
    tables: &ResidentTables,
    ctx: &DistContext,
    strategy: Strategy,
    options: &ExecOptions,
    capture: Option<&mut CapturedUnits>,
) -> trance_dist::Result<(RunResult, Output)> {
    let shredded = strategy
        .is_shredded()
        .then(|| shred_query(&spec.query, &spec.nested_inputs))
        .transpose()
        .map_err(ExecError::from)?;
    // Declared ahead of the steps that may borrow it.
    let dict_names;
    let mut steps = Vec::new();
    let output = match &shredded {
        None => {
            steps.push((RESULT, Step::Compile(Source::Nrc(&spec.query))));
            Output::Nested
        }
        Some(shredded) => {
            let assignments = &shredded.program.assignments;
            steps.extend(
                assignments
                    .iter()
                    .map(|a| (a.name.as_str(), Step::Compile(Source::Nrc(&a.expr)))),
            );
            dict_names = dict_sources(shredded);
            if strategy.unshreds() {
                let dicts = Source::Dicts {
                    structure: &shredded.structure,
                    dict_sources: &dict_names,
                };
                steps.push((UNSHRED, Step::Compile(dicts)));
                Output::Nested
            } else {
                Output::Shredded {
                    structure: shredded.structure.clone(),
                    dict_sources: dict_names,
                }
            }
        }
    };
    let result = run_program(steps, tables, &output, ctx, options, capture)?;
    Ok((result, output))
}

/// Cold path: runs `spec` under `strategy` over `inputs`' resident batches
/// through the full compile pipeline, capturing the optimized plans of
/// everything it executes. Returns the result together with the
/// [`PreparedQuery`] to cache. `ctx` is the context the run is metered,
/// budgeted and cancelled under — `inputs`' own, or a session of it, as the
/// serving layer passes.
pub fn prepare_and_run(
    spec: &QuerySpec,
    inputs: &InputSet,
    ctx: &DistContext,
    strategy: Strategy,
    options: &ExecOptions,
) -> trance_dist::Result<(RunResult, PreparedQuery)> {
    let mut units = CapturedUnits::new();
    let (result, output) = with_session(ctx, options, || {
        let tables = inputs.resident(strategy.is_shredded())?;
        run_spec(spec, &tables, ctx, strategy, options, Some(&mut units))
    })?;
    let prepared = PreparedQuery {
        strategy,
        units,
        output,
    };
    Ok((result, prepared))
}

/// Warm path: replays a [`PreparedQuery`]'s captured plans **verbatim** —
/// no lowering, no catalog work, no optimizer pass — over `inputs`' current
/// resident batches. With the shared kernel cache threaded through
/// `options.kernel_cache`, the fused pipelines reuse their compiled
/// programs too, so the run books zero plan- and expression-compile time.
pub fn run_prepared(
    prepared: &PreparedQuery,
    inputs: &InputSet,
    ctx: &DistContext,
    options: &ExecOptions,
) -> trance_dist::Result<RunResult> {
    let steps = prepared
        .units
        .iter()
        .map(|(name, plans)| (name.as_str(), Step::Replay(plans)));
    with_session(ctx, options, || {
        let tables = inputs.resident(prepared.strategy.is_shredded())?;
        run_program(steps, &tables, &prepared.output, ctx, options, None)
    })
}

/// Replays one captured program: every plan but the last materializes an
/// intermediate into a call-local environment under its captured name; the
/// last plan (the program root) produces the output.
fn replay_plans(
    plans: &CapturedPlans,
    inputs: &HashMap<String, ColCollection>,
    ctx: &DistContext,
    options: &ExecOptions,
) -> trance_dist::Result<ColCollection> {
    let (root, intermediates) = plans
        .split_last()
        .ok_or_else(|| ExecError::Other("prepared query holds no plans".into()))?;
    let mut env = inputs.clone();
    for (name, plan) in intermediates {
        let out = eval_plan_col(plan, &env, ctx, options)?;
        env.insert(name.clone(), out);
    }
    eval_plan_col(&root.1, &env, ctx, options)
}

/// The serving layer's plan-cache key for `spec` under `strategy` at a
/// given table-registry `epoch`: structural fingerprints of the NRC program and
/// the nested-input declarations, combined with the strategy and the epoch.
/// Any registration bumps the epoch, so every cached plan compiled
/// against the old tables misses and re-prepares.
pub fn plan_cache_key(spec: &QuerySpec, strategy: Strategy, epoch: u64) -> u64 {
    trance_algebra::combine_fingerprints(&[
        trance_algebra::fingerprint(&spec.query),
        trance_algebra::fingerprint(&spec.nested_inputs),
        trance_algebra::fingerprint(&strategy),
        epoch,
    ])
}
