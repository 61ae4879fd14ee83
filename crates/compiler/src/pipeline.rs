//! End-to-end compilation pipelines (Figure 2) and the evaluation strategies
//! compared in Section 6.
//!
//! Every strategy compiles through the plan layer — NRC is lowered to a
//! `trance_algebra::PlanProgram`, optimized, and interpreted by the physical
//! executor ([`crate::columnar`]); the shredded strategies lower each flat
//! assignment of the shredded program the same way:
//!
//! * **Standard** — the standard compilation route: flattening execution over
//!   nested rows with the optimizer on (column pruning, pushdown, join
//!   strategy selection).
//! * **Baseline** — the SparkSQL-like competitor: the same route with the
//!   optimizer **off** (wide rows travel through every shuffle), not a
//!   separate code path.
//! * **Shred** — the shredded compilation route, leaving the output in
//!   shredded (dictionary) form for downstream consumers.
//! * **ShredUnshred** — shredded route plus distributed unshredding of the
//!   final nested output: the program's last unit, a plan of label joins
//!   built by [`crate::unshred`].
//! * `*Skew` variants run their plain twin's plans, every join (unshredding's
//!   label joins included) through the skew-aware join of Section 5.
//!
//! Inputs are registered in an [`InputSet`], a view of the table store
//! ([`crate::store`]): each table is its batches, converted when it is
//! registered, and a nested input's shredded form is derived from its
//! nested batches on the spot. No run ingests; what [`RunOutcome`] times is
//! compilation and execution alone, as in the paper's Section 6.
//!
//! A result stays columnar: the program driver hands each output over as
//! its batches (`ColCollection::to_rows`), and rows are built once, only
//! when a caller asks for them — `collect` / `collect_bag` straight into
//! the one output vector. SHRED's top bag and dictionaries are never
//! reassembled, or even read, for the query to be done.
//!
//! [`run_query`] runs a strategy with its default options and
//! [`run_query_with`] with explicit [`ExecOptions`]; both go through the one
//! program driver in [`crate::prepared`]. [`explain_query`] renders the
//! optimized plans a strategy actually executes — for the strategies that
//! unshred, ending in an `-- unshred --` unit whose joins and `Γ⊎`s are the
//! difference between their `-- shuffle --` line and SHRED's.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use std::sync::Arc;

use trance_dist::exchange::split_rows_round_robin;
use trance_dist::{DistCollection, DistContext, ExecError, StatsSnapshot};
use trance_nrc::{Bag, Expr, Value};
use trance_shred::{flat_input_name, input_dict_name, NestingStructure, ShreddedInputDecl};

use crate::options::ExecOptions;
use crate::prepared::{run_spec, CapturedUnits};
use crate::shredder::shred_partitions;
use crate::store::{ResidentTables, Table, TableStore};

/// The evaluation strategies of the paper's experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Standard compilation route (flattening, with optimizations).
    Standard,
    /// SparkSQL-like flattening baseline (no column pruning).
    Baseline,
    /// Shredded compilation, output left in shredded form.
    Shred,
    /// Shredded compilation plus unshredding of the nested output.
    ShredUnshred,
    /// Standard route with skew-aware joins.
    StandardSkew,
    /// Shredded route with skew-aware joins.
    ShredSkew,
    /// Shredded route with skew-aware joins plus unshredding.
    ShredUnshredSkew,
}

impl Strategy {
    /// All strategies, in the order the paper's figures list them.
    pub fn all() -> [Strategy; 7] {
        [
            Strategy::Standard,
            Strategy::Baseline,
            Strategy::Shred,
            Strategy::ShredUnshred,
            Strategy::StandardSkew,
            Strategy::ShredSkew,
            Strategy::ShredUnshredSkew,
        ]
    }

    /// Short label used by the benchmark harness.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::Standard => "STANDARD",
            Strategy::Baseline => "SPARKSQL-LIKE",
            Strategy::Shred => "SHRED",
            Strategy::ShredUnshred => "SHRED+UNSHRED",
            Strategy::StandardSkew => "STANDARD-SKEW",
            Strategy::ShredSkew => "SHRED-SKEW",
            Strategy::ShredUnshredSkew => "SHRED+UNSHRED-SKEW",
        }
    }

    /// Parses a [`Strategy::label`] back to its strategy — the wire form the
    /// multi-node protocol ships strategies in.
    pub fn from_label(label: &str) -> Option<Strategy> {
        Strategy::all().into_iter().find(|s| s.label() == label)
    }

    /// True for the strategies that run on the shredded representation.
    pub fn is_shredded(&self) -> bool {
        matches!(
            self,
            Strategy::Shred
                | Strategy::ShredUnshred
                | Strategy::ShredSkew
                | Strategy::ShredUnshredSkew
        )
    }

    /// True for the strategies that run every join skew-aware (Section 5).
    pub fn skew_aware(&self) -> bool {
        matches!(
            self,
            Strategy::StandardSkew | Strategy::ShredSkew | Strategy::ShredUnshredSkew
        )
    }

    /// True for the shredded strategies that unshred the final output back
    /// to nested form.
    pub fn unshreds(&self) -> bool {
        matches!(self, Strategy::ShredUnshred | Strategy::ShredUnshredSkew)
    }
}

/// A query together with the declaration of which of its inputs are nested.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Human-readable query name (used in benchmark reports).
    pub name: String,
    /// The NRC query.
    pub query: Expr,
    /// Nested inputs and their structures (flat inputs need no declaration).
    pub nested_inputs: Vec<ShreddedInputDecl>,
}

impl QuerySpec {
    /// Creates a query spec.
    pub fn new(
        name: impl Into<String>,
        query: Expr,
        nested_inputs: Vec<ShreddedInputDecl>,
    ) -> Self {
        QuerySpec {
            name: name.into(),
            query,
            nested_inputs,
        }
    }
}

/// The registered inputs: every relation in its nested form (for the
/// flattening strategies) and its shredded form (for the shredded
/// strategies), held in the table store ([`crate::store`]).
///
/// Each table is its batches, converted once, when it is added — in
/// parallel on the worker pool, typed from this process's sample — and
/// shared by every clone of the set. A nested input's shredded form is
/// derived from its nested batches, partition by partition. Re-adding a
/// name replaces the entry; clones taken earlier keep the old table. The
/// `CLI`, the TCP worker and the serving engine all hold one of these and
/// differ only in who owns it.
#[derive(Debug, Clone)]
pub struct InputSet {
    ctx: DistContext,
    nested: TableStore,
    shredded: TableStore,
}

impl InputSet {
    /// Creates an empty input set bound to a cluster context.
    pub fn new(ctx: DistContext) -> Self {
        InputSet {
            ctx,
            nested: TableStore::default(),
            shredded: TableStore::default(),
        }
    }

    /// The cluster context.
    pub fn context(&self) -> &DistContext {
        &self.ctx
    }

    /// Rows split round-robin over the context's partitions, as every
    /// loader splits them.
    fn split(&self, rows: Bag) -> Vec<Vec<Value>> {
        split_rows_round_robin(rows.into_items(), self.ctx.config().partitions)
    }

    /// A flat relation is its own shredded form: one table under the same
    /// name in both stores.
    fn insert_flat(&mut self, name: &str, coll: &DistCollection) -> trance_dist::Result<()> {
        let table = Arc::new(Table::ingest(coll)?);
        self.nested.insert(name, table.clone());
        self.shredded.insert(name, table);
        Ok(())
    }

    /// Registers a flat input relation.
    pub fn add_flat(&mut self, name: &str, rows: Bag) -> trance_dist::Result<()> {
        self.add_flat_partitioned(name, self.split(rows))
    }

    /// Registers a nested input relation: its nested form, and its shredded
    /// form (flat top bag plus one table per dictionary path) derived from
    /// it.
    pub fn add_nested(&mut self, name: &str, rows: Bag) -> trance_dist::Result<()> {
        self.add_nested_partitioned(name, self.split(rows))
    }

    /// Registers a flat input from explicitly partitioned rows — the
    /// multi-node loading entry point: a worker process passes only the
    /// partition slots its rank owns and empty vectors elsewhere, so every
    /// rank sees the same full-length partition vector the coordinator
    /// round-robin split.
    pub fn add_flat_partitioned(
        &mut self,
        name: &str,
        parts: Vec<Vec<Value>>,
    ) -> trance_dist::Result<()> {
        let coll = DistCollection::from_partitioned_rows(self.ctx.clone(), parts);
        self.insert_flat(name, &coll)
    }

    /// Registers a nested input from explicitly partitioned rows (multi-node
    /// loading, as [`InputSet::add_flat_partitioned`]): the nested form, and
    /// the shredded form derived from it partition by partition — so a rank
    /// shreds the partitions it owns and mints the labels one process mints
    /// for them.
    pub fn add_nested_partitioned(
        &mut self,
        name: &str,
        parts: Vec<Vec<Value>>,
    ) -> trance_dist::Result<()> {
        let nested = Table::ingest(&DistCollection::from_partitioned_rows(
            self.ctx.clone(),
            parts,
        ))?;
        let (top, dicts) = shred_partitions(&nested.batches().batches()?);
        let top = Table::derived(&self.ctx, top)?;
        self.shredded.insert(&flat_input_name(name), top);
        for (path, parts) in dicts {
            let dict = Table::derived(&self.ctx, parts)?;
            self.shredded.insert(&input_dict_name(name, &path), dict);
        }
        self.nested.insert(name, nested);
        Ok(())
    }

    /// Registers an already-shredded input under its shredded names. Useful
    /// when a shredded query output feeds the next query of a pipeline. An
    /// output without dictionaries is a flat relation — its own shredded
    /// form — and is registered as one, under `name` itself.
    pub fn add_shredded(&mut self, name: &str, output: &ShreddedOutput) -> trance_dist::Result<()> {
        if output.structure.children.is_empty() {
            return self.insert_flat(name, &output.top);
        }
        let top = Table::ingest(&output.top)?;
        self.shredded.insert(&flat_input_name(name), top);
        for (path, coll) in &output.dicts {
            let dict = Table::ingest(coll)?;
            self.shredded.insert(&input_dict_name(name, path), dict);
        }
        Ok(())
    }

    /// Registers an already-distributed nested collection (e.g. the output of
    /// a previous standard-route query).
    pub fn add_nested_collection(
        &mut self,
        name: &str,
        coll: DistCollection,
    ) -> trance_dist::Result<()> {
        self.nested.insert(name, Table::ingest(&coll)?);
        Ok(())
    }

    /// Drops whatever is stored under the **physical** name `name` in either
    /// form (a nested input occupies its own name in the nested form and
    /// its `flat_input_name` / `input_dict_name`s in the shredded form).
    pub fn remove(&mut self, name: &str) {
        self.nested.remove(name);
        self.shredded.remove(name);
    }

    /// Moves every table of `other` into this set — how the serving engine
    /// installs a table it staged (and converted) outside its registry lock.
    pub fn extend(&mut self, other: InputSet) {
        self.nested.extend(other.nested);
        self.shredded.extend(other.shredded);
    }

    /// The nested (standard-route) collections, batch-backed: their rows
    /// are built on first read, and ingesting one is a pointer copy.
    pub fn nested_inputs(&self) -> &HashMap<String, DistCollection> {
        self.nested.rows()
    }

    /// The shredded collections, batch-backed like
    /// [`InputSet::nested_inputs`].
    pub fn shredded_inputs(&self) -> &HashMap<String, DistCollection> {
        self.shredded.rows()
    }

    /// The batches of the shredded (`shredded: true`) or nested form's
    /// tables, as a run reads them.
    pub fn resident(&self, shredded: bool) -> trance_dist::Result<ResidentTables> {
        match shredded {
            true => self.shredded.resident(&self.ctx),
            false => self.nested.resident(&self.ctx),
        }
    }
}

/// The shredded output of a query: the flat top bag plus one collection per
/// output dictionary path, each held as its batches until its rows are
/// asked for.
#[derive(Debug, Clone)]
pub struct ShreddedOutput {
    /// The flat top-level bag.
    pub top: DistCollection,
    /// Dictionaries keyed by path.
    pub dicts: BTreeMap<String, DistCollection>,
    /// The output's nesting structure.
    pub structure: NestingStructure,
}

/// What a strategy produced. Outputs are held as their batches; rows are
/// built once, on demand ([`DistCollection::collect_bag`]).
#[derive(Debug, Clone)]
pub enum RunResult {
    /// Nested output rows (Standard, Baseline, ShredUnshred).
    Nested(DistCollection),
    /// Shredded output (Shred, ShredSkew).
    Shredded(ShreddedOutput),
    /// The run failed — in particular [`ExecError::MemoryExceeded`] reproduces
    /// the paper's FAIL entries.
    Failed(ExecError),
}

impl RunResult {
    /// True when the run failed.
    pub fn is_failure(&self) -> bool {
        matches!(self, RunResult::Failed(_))
    }

    /// Collects the nested output rows when available.
    pub fn nested_bag(&self) -> Option<Bag> {
        match self {
            RunResult::Nested(d) => Some(d.collect_bag()),
            _ => None,
        }
    }
}

/// The outcome of running one strategy on one query.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The strategy that ran.
    pub strategy: Strategy,
    /// Wall-clock duration of the run (excluding input loading).
    pub elapsed: Duration,
    /// Engine metrics accumulated during the run.
    pub stats: StatsSnapshot,
    /// The produced result or failure.
    pub result: RunResult,
}

impl RunOutcome {
    /// Seconds elapsed (convenience for reports).
    pub fn seconds(&self) -> f64 {
        self.elapsed.as_secs_f64()
    }
}

/// The options a strategy runs under by default: the optimizer on for
/// everything but the baseline, skew-aware operators for the `*Skew`
/// strategies. The second parameter is ignored; it is retained only
/// because the frozen benchmark (`benchmark/src/probes.rs`) calls
/// `strategy_options(strategy, false)`.
pub fn strategy_options(strategy: Strategy, _retained: bool) -> ExecOptions {
    ExecOptions {
        optimize: strategy != Strategy::Baseline,
        skew_aware: strategy.skew_aware(),
        ..ExecOptions::default()
    }
}

/// Runs `spec` under `strategy` over the given inputs with the strategy's
/// default options ([`strategy_options`]) — the plan route, NRC → Plan →
/// optimize → columnar physical execution.
pub fn run_query(spec: &QuerySpec, inputs: &InputSet, strategy: Strategy) -> RunOutcome {
    run_query_with(spec, inputs, strategy, &strategy_options(strategy, false))
}

/// Runs `spec` under `strategy` with every execution choice spelled out in
/// `options` (`spill: false` the paper's FAIL behaviour on a capped
/// spill-capable cluster, `deadline` a wall-clock budget, `kernel_cache` a
/// shared program cache). Start from [`strategy_options`] and override
/// single fields. No option selects a reference mode: a run is held to
/// `nrc::eval`.
pub fn run_query_with(
    spec: &QuerySpec,
    inputs: &InputSet,
    strategy: Strategy,
    options: &ExecOptions,
) -> RunOutcome {
    run_outcome(inputs, strategy, options, || {
        run_strategy(spec, inputs, strategy, options, None)
    })
}

/// Runs `spec` under `strategy` while capturing the optimized plans it
/// executes, returning the outcome together with the rendered EXPLAIN text.
/// After the plans come the run's shuffle volume and join counts, and for
/// runs that went out-of-core their spill volume and I/O time.
pub fn run_query_explained(
    spec: &QuerySpec,
    inputs: &InputSet,
    strategy: Strategy,
) -> (RunOutcome, String) {
    let options = strategy_options(strategy, false);
    let mut capture = CapturedUnits::new();
    let outcome = run_outcome(inputs, strategy, &options, || {
        run_strategy(spec, inputs, strategy, &options, Some(&mut capture))
    });
    let mut out = String::new();
    let _ = writeln!(out, "== {} · {} ==", spec.name, strategy.label());
    // What each unit's plan says about where its output sits, for the units
    // that scan it.
    let mut placed = trance_algebra::ScanPlacements::new();
    for (name, plan) in capture.iter().flat_map(|(_, plans)| plans) {
        let _ = writeln!(out, "-- {name} --");
        // Each operator is annotated with the fused pipeline it executes in
        // (`·p0`, `·p1`, …); breakers carry no marker. A `Γ` says what its
        // shuffle hashes by when that is less than its key (`place by`), and
        // a breaker input the plan leaves where the breaker needs it is
        // marked `[in place: hashed by …]` (`[in place unless broadcast: …]`
        // under a join that settles its strategy at run time). The marks are
        // read off the plans; the `-- shuffle` line below counts the
        // shuffles the run answered in place.
        out.push_str(&trance_algebra::pretty_plan_pipelines(plan, &placed));
        if let Some(placement) = trance_algebra::plan_placement(plan, &placed) {
            placed.insert(name.clone(), placement);
        }
    }
    if !outcome.stats.pipeline_timings.is_empty() {
        let _ = writeln!(
            out,
            "-- pipelines: {} morsels, {} steals, {:.1} ms total --",
            outcome.stats.total_morsels(),
            outcome.stats.steal_count,
            outcome.stats.pipeline_ms(),
        );
        for (label, t) in &outcome.stats.pipeline_timings {
            let _ = writeln!(
                out,
                "   {label}: {} runs, {} morsels, {:.1} ms [{}]",
                t.calls,
                t.morsels,
                t.micros as f64 / 1000.0,
                t.ops.join(" → "),
            );
        }
    }
    if !outcome.stats.expr_programs.is_empty() {
        let _ = writeln!(
            out,
            "-- expr kernels: {} instrs over {} compiles, {:.2} ms compile --",
            outcome.stats.expr_kernel_instrs,
            outcome.stats.expr_compiles(),
            outcome.stats.expr_compile_ms(),
        );
        for (label, p) in &outcome.stats.expr_programs {
            let _ = writeln!(
                out,
                "   {label}: {} compiles, {} instrs, {} µs",
                p.compiles, p.instrs, p.micros
            );
            for line in p.text.lines() {
                let _ = writeln!(out, "      {line}");
            }
        }
    }
    // What the breakers shipped — where column pruning shows. The heavy-key
    // halves of skew joins count with the strategy they ran as.
    let stats = &outcome.stats;
    let shuffle_joins = stats.shuffle_joins + stats.skew_fallback_joins;
    let broadcast_joins = stats.broadcast_joins + stats.skew_broadcast_joins;
    if stats.shuffled_tuples + stats.shuffles_in_place + shuffle_joins + broadcast_joins > 0 {
        let _ = writeln!(
            out,
            "-- shuffle: {} tuples, {} logical / {} physical bytes, {} shuffles in place, \
             {} shuffle + {} broadcast joins --",
            stats.shuffled_tuples,
            stats.shuffled_bytes,
            stats.shuffled_bytes_phys,
            stats.shuffles_in_place,
            shuffle_joins,
            broadcast_joins,
        );
    }
    if outcome.stats.spilled_bytes > 0 {
        let _ = writeln!(
            out,
            "-- spill: {} bytes in {} files, {:.1} ms I/O --",
            outcome.stats.spilled_bytes,
            outcome.stats.spill_files,
            outcome.stats.spill_ms(),
        );
    }
    if outcome.stats.cancelled > 0 {
        let _ = writeln!(out, "-- cancelled --");
    }
    if let RunResult::Failed(e) = &outcome.result {
        let _ = writeln!(out, "-- run failed: {e} --");
    }
    (outcome, out)
}

/// Renders the optimized plans `strategy` actually executes for `spec` (the
/// query runs so intermediate schemas and sizes inform optimization, exactly
/// as in a measured run).
pub fn explain_query(
    spec: &QuerySpec,
    inputs: &InputSet,
    strategy: Strategy,
) -> trance_dist::Result<String> {
    let (outcome, text) = run_query_explained(spec, inputs, strategy);
    if let RunResult::Failed(e) = &outcome.result {
        return Err(e.clone());
    }
    Ok(text)
}

/// Wraps one run on `inputs`' context into a [`RunOutcome`]: fresh stats and
/// a fresh cancellation scope going in (a stale flag from an earlier run on
/// the same context must not leak in), `options`' session state around the
/// run, wall clock and stats snapshot coming out, errors folded into
/// [`RunResult::Failed`].
fn run_outcome(
    inputs: &InputSet,
    strategy: Strategy,
    options: &ExecOptions,
    run: impl FnOnce() -> trance_dist::Result<RunResult>,
) -> RunOutcome {
    let ctx = inputs.context();
    ctx.stats().reset();
    ctx.cancel_token().reset();
    let start = Instant::now();
    let result = with_session(ctx, options, run).unwrap_or_else(RunResult::Failed);
    RunOutcome {
        strategy,
        elapsed: start.elapsed(),
        stats: ctx.stats().snapshot(),
        result,
    }
}

/// Applies the per-run session state `options` asks for to `ctx`, runs
/// `run`, and disarms the deadline so it cannot fire into a later run.
///
/// `spill` only bites on clusters built with `ClusterConfig::with_spill` and
/// a memory cap (everywhere else capped runs FAIL as in the paper).
pub(crate) fn with_session<T>(
    ctx: &DistContext,
    options: &ExecOptions,
    run: impl FnOnce() -> trance_dist::Result<T>,
) -> trance_dist::Result<T> {
    ctx.set_spill_session(options.spill);
    let cancel = ctx.cancel_token();
    cancel.set_timeout(options.deadline);
    let result = run();
    cancel.set_timeout(None);
    if matches!(&result, Err(e) if e.is_cancelled()) {
        ctx.stats().record_cancelled();
    }
    result
}

/// One run: look the strategy's batches up in the table store, run the
/// program driver
/// ([`crate::prepared`]) — unshredding included — over batches, and hand
/// the outputs back as their batches at the collect boundary.
fn run_strategy(
    spec: &QuerySpec,
    inputs: &InputSet,
    strategy: Strategy,
    options: &ExecOptions,
    capture: Option<&mut CapturedUnits>,
) -> trance_dist::Result<RunResult> {
    let tables = inputs.resident(strategy.is_shredded())?;
    let (result, _) = run_spec(spec, &tables, inputs.context(), strategy, options, capture)?;
    Ok(result)
}

/// Collects a shredded output and reassembles the nested value locally (used
/// by tests and small examples).
pub fn collect_unshredded(output: &ShreddedOutput) -> trance_nrc::Result<Bag> {
    let mut dict_bags = BTreeMap::new();
    for (path, d) in &output.dicts {
        dict_bags.insert(path.clone(), d.collect_bag());
    }
    trance_shred::unshred_pieces(output.top.collect_bag(), dict_bags, &output.structure)
}
