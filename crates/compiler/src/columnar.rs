//! The columnar physical executor: interprets optimized [`Plan`] trees over
//! [`ColCollection`]s — typed batches end to end.
//!
//! This is the last stage of **NRC → Plan → optimize → execute**, and the
//! only executor: a stored table crosses the row/column boundary exactly
//! once, at **scan ingest** — when it is registered in the table store
//! ([`crate::store`]; batches are typed from the plan-layer schemas via
//! `trance_algebra::physical_fields`). Every operator
//! — including materialized assignment intermediates — runs over batches,
//! and a result leaves as its batches at the **collect** boundary
//! (`ColCollection::to_rows`): rows are built once, only when asked for.
//! With optimization disabled the same interpreter reproduces the
//! SparkSQL-like baseline: wide rows travel through every shuffle.
//!
//! Catalog inference is *exact and free* here: a batch already carries its
//! attribute schema (nested bag columns included), so intermediates register
//! their true schemas without scanning a single row. Only a stored table's
//! scan hints are sampled, once, when it is registered.

use std::collections::HashMap;
use std::time::Instant;

use trance_algebra::{
    carried_column, fuse_chain, is_passthrough, lower, needs_sequential, optimize, physical_fields,
    pipeline_label, pipeline_op_name, AttrSchema, Catalog, JoinStrategy, NestOp, OptimizerConfig,
    PhysField, PhysType, Plan, PlanJoinKind, PlanProgram,
};
use trance_dist::batch::BagElems;
use trance_dist::colops::{unique_ids_batch, unnest_batch};
use trance_dist::{
    Batch, ColCollection, Column, DistCollection, DistContext, ExecError, FieldHint, JoinHint,
    JoinSpec, MorselCtx, Result,
};
use trance_nrc::{Expr, Value};

use crate::kernel::{compile_ops, KernelOp};
use crate::options::ExecOptions;

/// Converts the plan layer's physical fields into engine field hints.
fn field_hints(fields: &[PhysField]) -> Vec<FieldHint> {
    fields
        .iter()
        .map(|f| match &f.ty {
            PhysType::Scalar => FieldHint::scalar(f.name.clone()),
            PhysType::Bag(inner) => FieldHint::bag(f.name.clone(), field_hints(inner)),
        })
        .collect()
}

/// The field hints one input's batches are typed from: its (sampled)
/// attribute schema, so bag-valued attributes become offset-encoded bag
/// columns even when the sampled rows hold only empty bags. Under a
/// multi-process exchange the sample is a cluster collective.
pub(crate) fn scan_hints(coll: &DistCollection) -> Result<Vec<FieldHint>> {
    match coll.context().exchange() {
        Some(ex) => gathered_hints(ex.as_ref(), encoded_sample(coll)?),
        None => Ok(local_hints(coll)),
    }
}

/// [`scan_hints`] from this process's partitions alone, never a collective:
/// what a loader types a table from. Batches a loader typed carry the hints
/// of this very sample.
pub(crate) fn local_hints(coll: &DistCollection) -> Vec<FieldHint> {
    match coll.typed_hints() {
        Some(hints) => hints.to_vec(),
        None => sample_hints(&coll.head_rows(SAMPLE_PER_PARTITION)),
    }
}

/// Rows sampled per partition, and in all, to infer a schema.
const SAMPLE_PER_PARTITION: usize = 8;
const SAMPLE_ROWS: usize = 64;

/// The hints of the attribute schema (recursively into bag-valued
/// attributes) of a per-partition sample, its rows truncated at
/// [`SAMPLE_ROWS`]. An empty sample (or non-tuple rows) yields the empty
/// schema, which the optimizer treats as "unknown — don't touch".
fn sample_hints<S: AsRef<[Value]>>(sample: &[S]) -> Vec<FieldHint> {
    let rows: Vec<&Value> = sample
        .iter()
        .flat_map(AsRef::as_ref)
        .take(SAMPLE_ROWS)
        .collect();
    field_hints(&physical_fields(&schema_of_rows(&rows)))
}

/// This process's sample of `coll`, encoded for [`gathered_hints`]: the
/// first ≤8 rows of every partition slot (non-owned slots are empty).
pub(crate) fn encoded_sample(coll: &DistCollection) -> Result<Vec<u8>> {
    let parts = coll.head_rows(SAMPLE_PER_PARTITION);
    let mut w = trance_store::ByteWriter::new();
    w.len_u32(parts.len(), "sampled partitions")?;
    for sampled in &parts {
        w.len_u32(sampled.len(), "sampled rows")?;
        for row in sampled.iter() {
            trance_store::encode_value(row, &mut w)?;
        }
    }
    Ok(w.into_bytes())
}

/// [`scan_hints`] under a cluster exchange, from this rank's
/// [`encoded_sample`] `local`: reconstructs the exact sample the
/// single-process engine draws. The per-partition samples are merged
/// element-wise across ranks (only the owner contributes to a slot) — so
/// every rank derives the identical schema, and it is the schema the
/// in-process oracle infers.
pub(crate) fn gathered_hints(
    ex: &dyn trance_dist::Exchange,
    local: Vec<u8>,
) -> Result<Vec<FieldHint>> {
    let mut merged: Vec<Vec<Value>> = Vec::new();
    for bytes in &ex.allgather(local)? {
        let mut r = trance_store::ByteReader::new(bytes);
        let nparts = r.u32()? as usize;
        if merged.is_empty() {
            merged.resize(nparts, Vec::new());
        }
        if nparts != merged.len() {
            return Err(ExecError::Other(format!(
                "schema sample partition count mismatch across ranks ({nparts} vs {})",
                merged.len()
            )));
        }
        for slot in merged.iter_mut() {
            let nrows = r.u32()? as usize;
            for _ in 0..nrows {
                slot.push(trance_store::decode_value(&mut r)?);
            }
        }
    }
    Ok(sample_hints(&merged))
}

fn schema_of_rows(rows: &[&Value]) -> AttrSchema {
    let mut out = AttrSchema::default();
    for row in rows {
        if let Value::Tuple(t) = row {
            for (name, value) in t.iter() {
                if !out.contains(name) {
                    out.attrs.push(name.to_string());
                }
                if let Value::Bag(bag) = value {
                    let inner_rows: Vec<&Value> = bag.iter().take(8).collect();
                    let inner = schema_of_rows(&inner_rows);
                    let entry = out.nested.entry(name.to_string()).or_default();
                    *entry = entry.merge(&inner);
                }
            }
        }
    }
    out
}

/// Ingests row inputs into columnar collections — the scan-ingest boundary,
/// as a standalone conversion. No query path calls this: `run_query`, the
/// TCP worker and the serving engine read the batches of the table store
/// ([`crate::store`]), which converts each table once, at registration. A
/// stored table's collection (`InputSet::nested_inputs`) comes back as a
/// pointer copy of those batches. It stays public for callers that hold
/// bare row collections (and as the benchmark's ingest probe).
pub fn ingest_env(
    inputs: &HashMap<String, DistCollection>,
) -> Result<HashMap<String, ColCollection>> {
    // Sorted iteration: schema inference runs cluster collectives under a
    // multi-process exchange, and HashMap order differs per process — every
    // rank must reach the collectives in the same input order.
    let mut names: Vec<&String> = inputs.keys().collect();
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let coll = &inputs[name];
            Ok((
                name.clone(),
                ColCollection::ingest(coll, &scan_hints(coll)?)?,
            ))
        })
        .collect()
}

/// The exact attribute schema of a columnar collection, read straight off the
/// batch schemas (nested bag columns recursively) — no row sampling. Spilled
/// partitions stream chunk by chunk (schema merge is associative), so
/// inspection never re-materializes what the memory cap evicted.
pub fn exact_schema_col(coll: &ColCollection) -> Result<AttrSchema> {
    global_schema(coll.context(), &local_schema_col(coll)?)
}

/// The rank-local half of [`exact_schema_col`]: the merged schema of the
/// batches this process holds.
pub(crate) fn local_schema_col(coll: &ColCollection) -> Result<AttrSchema> {
    let mut out = AttrSchema::default();
    coll.for_each_batch(|batch| {
        out = out.merge(&schema_of_batch(batch));
        Ok(())
    })?;
    Ok(out)
}

/// The cluster half of [`exact_schema_col`]: under a cluster exchange each
/// rank only saw its owned partitions, so the partial schemas are
/// allgathered and merged in rank order — with contiguous partition
/// ownership that folds the partitions in exactly the single-process order,
/// and the merge keeps first-occurrence attribute order, so every rank lands
/// on the identical schema. Without an exchange `local` already is the
/// answer.
pub(crate) fn global_schema(ctx: &DistContext, local: &AttrSchema) -> Result<AttrSchema> {
    let Some(ex) = ctx.exchange() else {
        return Ok(local.clone());
    };
    let mut w = trance_store::ByteWriter::new();
    encode_attr_schema(local, &mut w)?;
    let mut merged = AttrSchema::default();
    for bytes in &ex.allgather(w.into_bytes())? {
        let mut r = trance_store::ByteReader::new(bytes);
        merged = merged.merge(&decode_attr_schema(&mut r)?);
    }
    Ok(merged)
}

fn encode_attr_schema(s: &AttrSchema, w: &mut trance_store::ByteWriter) -> std::io::Result<()> {
    w.len_u32(s.attrs.len(), "schema attrs")?;
    for a in &s.attrs {
        w.str(a)?;
    }
    w.len_u32(s.nested.len(), "nested schemas")?;
    for (name, inner) in &s.nested {
        w.str(name)?;
        encode_attr_schema(inner, w)?;
    }
    Ok(())
}

fn decode_attr_schema(r: &mut trance_store::ByteReader<'_>) -> std::io::Result<AttrSchema> {
    let mut out = AttrSchema::default();
    let n = r.u32()? as usize;
    for _ in 0..n {
        out.attrs.push(r.str()?);
    }
    let m = r.u32()? as usize;
    for _ in 0..m {
        let name = r.str()?;
        let inner = decode_attr_schema(r)?;
        out.nested.insert(name, inner);
    }
    Ok(out)
}

fn schema_of_batch(batch: &Batch) -> AttrSchema {
    let mut out = AttrSchema::default();
    if batch.schema().is_opaque() {
        return out;
    }
    for (name, col) in batch.schema().fields().iter().zip(batch.columns()) {
        out.attrs.push(name.clone());
        match col.as_ref() {
            Column::Bag {
                elems: BagElems::Rows(child),
                ..
            } => {
                out.nested.insert(name.clone(), schema_of_batch(child));
            }
            Column::Bag { .. } => {
                out.nested.insert(name.clone(), AttrSchema::default());
            }
            Column::Other { values, .. } => {
                // A fallback column may still hold bags; sample for nesting.
                if let Some(Value::Bag(bag)) = values.iter().find(|v| matches!(v, Value::Bag(_))) {
                    let rows: Vec<&Value> = bag.iter().take(8).collect();
                    let inner = schema_of_batch(&Batch::from_row_refs(&rows));
                    out.nested.insert(name.clone(), inner);
                }
            }
            _ => {}
        }
    }
    out
}

/// Builds a [`Catalog`] from columnar inputs: exact batch schemas plus
/// logical (row-equivalent) sizes, which drive lowering and join strategy
/// selection.
pub fn infer_catalog_col(inputs: &HashMap<String, ColCollection>) -> Result<Catalog> {
    let mut catalog = Catalog::new();
    // Sorted for the same reason as ingest_env: schema and size inference
    // run cluster collectives that every rank must reach in the same order.
    let mut names: Vec<&String> = inputs.keys().collect();
    names.sort();
    for name in names {
        let coll = &inputs[name];
        catalog.register(name.clone(), exact_schema_col(coll)?);
        catalog.set_size(name.clone(), coll.planning_bytes()?);
    }
    Ok(catalog)
}

/// Optimized plans captured during one execution, in execution order. The
/// last entry is the root plan (named by the caller); earlier entries are the
/// program's materialized assignments.
pub type CapturedPlans = Vec<(String, Plan)>;

/// Lowers an NRC bag expression to a plan program and executes it over
/// columnar inputs: each assignment is optimized against the catalog known
/// so far, evaluated to a columnar intermediate, and registered with its
/// exact batch schema and logical size; then the root plan runs.
///
/// When `capture` is provided, every optimized plan is recorded (for EXPLAIN
/// output and prepared-query replay) with the root plan stored under
/// `root_label`.
pub fn execute_via_plans_col(
    expr: &Expr,
    inputs: &HashMap<String, ColCollection>,
    ctx: &DistContext,
    options: &ExecOptions,
    root_label: &str,
    capture: Option<&mut CapturedPlans>,
) -> Result<ColCollection> {
    let catalog = infer_catalog_col(inputs)?;
    let program = lower_in_catalog(expr, &catalog)?;
    execute_program(&program, inputs, catalog, ctx, options, root_label, capture)
}

/// The first half of compiling a unit: the unnesting algorithm.
pub(crate) fn lower_in_catalog(expr: &Expr, catalog: &Catalog) -> Result<PlanProgram> {
    lower(expr, catalog).map_err(|e| ExecError::Other(e.to_string()))
}

/// The second half, and the one way a plan program runs for the first time:
/// every plan is optimized against the catalog known so far, checked for
/// agreement across ranks, recorded into `capture` (the root under
/// `root_label`) and evaluated, each assignment's output registered with its
/// exact batch schema and logical size before the next plan is optimized. A
/// unit lowered from NRC and one that starts from a ready plan (unshredding,
/// [`crate::unshred`]) both enter here. `catalog` must describe `inputs`;
/// intermediates are registered into this call's copy only.
pub(crate) fn execute_program(
    program: &PlanProgram,
    inputs: &HashMap<String, ColCollection>,
    mut catalog: Catalog,
    ctx: &DistContext,
    options: &ExecOptions,
    root_label: &str,
    mut capture: Option<&mut CapturedPlans>,
) -> Result<ColCollection> {
    let mut env = inputs.clone();
    let opt_config = optimizer_config(options, ctx);
    // Optimizes one plan, checks every rank agrees on it, records it.
    let mut prepare = |name: &str, plan: &Plan, catalog: &Catalog| -> Result<Plan> {
        let plan = match &opt_config {
            Some(cfg) => optimize(plan, catalog, cfg),
            None => plan.clone(),
        };
        check_plan_agreement(ctx, name, &plan)?;
        if let Some(capture) = capture.as_deref_mut() {
            capture.push((name.to_string(), plan.clone()));
        }
        Ok(plan)
    };
    for assignment in &program.assignments {
        let plan = prepare(&assignment.name, &assignment.plan, &catalog)?;
        let out = eval_plan_col(&plan, &env, ctx, options)?;
        catalog.register(assignment.name.clone(), exact_schema_col(&out)?);
        catalog.set_size(assignment.name.clone(), out.planning_bytes()?);
        env.insert(assignment.name.clone(), out);
    }
    let root = prepare(root_label, &program.root, &catalog)?;
    eval_plan_col(&root, &env, ctx, options)
}

/// The optimizer configuration for one run; `None` when optimization is off
/// (the SparkSQL-like baseline executes lowered plans verbatim).
fn optimizer_config(options: &ExecOptions, ctx: &DistContext) -> Option<OptimizerConfig> {
    if !options.optimize {
        return None;
    }
    Some(OptimizerConfig {
        broadcast_limit: Some(ctx.config().broadcast_limit),
    })
}

/// Distributed-plan guardrail: every rank optimizes plans independently
/// from globally agreed catalogs, so the optimized plans must be identical
/// — a divergence would desynchronize the cluster collectives and corrupt
/// results silently. Fingerprints are allgathered and compared; a mismatch
/// fails loudly before any data moves.
fn check_plan_agreement(ctx: &DistContext, name: &str, plan: &Plan) -> Result<()> {
    let Some(ex) = ctx.exchange() else {
        return Ok(());
    };
    let fp = trance_algebra::fingerprint(plan);
    for (rank, other) in trance_dist::allgather_u64(ex.as_ref(), fp)?
        .into_iter()
        .enumerate()
    {
        if other != fp {
            return Err(ExecError::Other(format!(
                "distributed plan divergence on '{name}': rank {rank} optimized to fingerprint \
                 {other:#018x}, this rank to {fp:#018x}"
            )));
        }
    }
    Ok(())
}

/// The names a pruning projection keeps (`π` over `[a := a, …]`, each name
/// once). Such a projection computes nothing, so it runs as the schema-only
/// [`Batch::prune_fields`] instead of a kernel program.
fn pruned_names(columns: &[(String, trance_algebra::ScalarExpr)]) -> Option<Vec<String>> {
    let names: Vec<String> = columns.iter().map(|(n, _)| n.clone()).collect();
    let distinct = (1..names.len()).all(|i| !names[..i].contains(&names[i]));
    (is_passthrough(columns) && distinct).then_some(names)
}

/// One fused step of a columnar pipeline: batch in, batch out, with the
/// morsel cursor supplying per-partition id state for sequential chains.
type ColStep = Box<dyn Fn(&Batch, &mut MorselCtx) -> Result<Batch> + Send + Sync>;

/// Compiles a maximal chain of row-local plan operators (plus an optional
/// fused scan rename) into the batch-at-a-time steps of one pipeline.
struct CompiledColChain {
    steps: Vec<ColStep>,
    ops: Vec<String>,
    label: String,
    /// True when the chain assigns unique ids and must drive each
    /// partition's morsels sequentially.
    sequential: bool,
}

/// What compiling one kernel program cost — instruction count, elapsed time,
/// rendered listing — booked under the pipeline's label.
type Compiled = (u64, std::time::Duration, String);

/// The expression payload of a `Select`/`Project`/`Extend` node; `None` for
/// every other operator.
fn kernel_op(node: &Plan) -> Option<KernelOp> {
    match node {
        Plan::Select { predicate, .. } => Some(KernelOp::Select(predicate.clone())),
        Plan::Project { columns, .. } => Some(KernelOp::Project(columns.clone())),
        Plan::Extend { columns, .. } => Some(KernelOp::Extend(columns.clone())),
        _ => None,
    }
}

/// Closes the accumulated run of `select`/`project`/`extend` operators into
/// one step of the pipeline: one kernel program for the whole run, taken
/// from the shared [`KernelCache`] when one is threaded through the options.
/// What the compilation cost goes to `kernels` for the chain's stats —
/// nothing on a cache hit (a warm replay reports zero expression-compile
/// time) and nothing for a lone pruning projection, which needs no program.
fn flush_kernel(
    pending: &mut Vec<KernelOp>,
    steps: &mut Vec<ColStep>,
    kernels: &mut Vec<Compiled>,
    options: &ExecOptions,
) {
    if pending.is_empty() {
        return;
    }
    let ops = std::mem::take(pending);
    if let [KernelOp::Project(columns)] = ops.as_slice() {
        if let Some(names) = pruned_names(columns) {
            steps.push(Box::new(move |b, _| Ok(b.prune_fields(&names))));
            return;
        }
    }
    let (prog, elapsed) = match &options.kernel_cache {
        Some(cache) => cache.get_or_compile(&ops),
        None => {
            let t0 = Instant::now();
            let prog = std::sync::Arc::new(compile_ops(&ops));
            (prog, Some(t0.elapsed()))
        }
    };
    if let Some(dt) = elapsed {
        kernels.push((prog.instr_count() as u64, dt, prog.render()));
    }
    steps.push(Box::new(move |b, _| prog.run(b)));
}

fn compile_chain_col(
    scan_alias: Option<String>,
    chain: &[&Plan],
    ctx: &DistContext,
    options: &ExecOptions,
) -> Result<CompiledColChain> {
    let mut steps: Vec<ColStep> = Vec::new();
    let mut ops: Vec<String> = Vec::new();
    let mut id_slots = 0usize;
    let mut sequential = false;
    // Consecutive select/project/extend operators accumulate here and become
    // ONE step — compiled, one kernel program (sharing subexpressions, with
    // the selection vector carried across operator boundaries) built once
    // per pipeline, before any morsel runs.
    let mut pending: Vec<KernelOp> = Vec::new();
    let mut kernels: Vec<Compiled> = Vec::new();
    if let Some(alias) = scan_alias {
        ops.push("scan".to_string());
        steps.push(Box::new(move |b, _| {
            Ok(b.rename_fields(|f| format!("{alias}.{f}"), &format!("{alias}.__value")))
        }));
    }
    for node in chain {
        ops.push(pipeline_op_name(node).to_string());
        if needs_sequential(node) {
            sequential = true;
        }
        if let Some(op) = kernel_op(node) {
            // A pruning projection with no run open ahead of it is a run of
            // its own (it needs no program); behind one it fuses into that
            // run's output script.
            let lone_prune = pending.is_empty()
                && matches!(&op, KernelOp::Project(columns) if pruned_names(columns).is_some());
            pending.push(op);
            if lone_prune {
                flush_kernel(&mut pending, &mut steps, &mut kernels, options);
            }
            continue;
        }
        flush_kernel(&mut pending, &mut steps, &mut kernels, options);
        match node {
            Plan::AddIndex { id_attr, .. } => {
                let attr = id_attr.clone();
                let slot = id_slots;
                id_slots += 1;
                steps.push(Box::new(move |b, cx| unique_ids_batch(b, &attr, cx, slot)));
            }
            Plan::Unnest {
                bag_attr, alias, ..
            } => {
                let bag_attr = bag_attr.clone();
                let alias = alias.clone();
                steps.push(Box::new(move |b, _| unnest_batch(b, &bag_attr, &alias)));
            }
            other => {
                return Err(ExecError::Other(format!(
                    "operator {} is not row-local and cannot join a fused pipeline",
                    pipeline_op_name(other)
                )))
            }
        }
    }
    flush_kernel(&mut pending, &mut steps, &mut kernels, options);
    let label = pipeline_label(&ops);
    for (i, (instrs, dt, text)) in kernels.iter().enumerate() {
        ctx.stats()
            .record_expr_compile(&format!("{label}#k{i}"), *instrs, *dt, text);
    }
    Ok(CompiledColChain {
        steps,
        ops,
        label,
        sequential,
    })
}

/// Hands `out` — what the row-local `nodes` (source side first) made of
/// `input`, partition for partition — the placement of `input` that survives
/// them: each placed column followed through [`carried_column`], the one
/// carry rule of the plan layer. The engine clears
/// the placement of anything a batch closure produced; this is where the
/// plan says what the closure did.
fn carry_placement(input: &ColCollection, nodes: &[&Plan], out: ColCollection) -> ColCollection {
    let carried = input.placement().and_then(|placed| {
        placed.carried(|col| {
            nodes
                .iter()
                .try_fold(col.to_string(), |col, node| carried_column(node, &col))
        })
    });
    out.with_placement(carried)
}

/// The stored or intermediate relation `name` of the environment.
fn relation(env: &HashMap<String, ColCollection>, name: &str) -> Result<ColCollection> {
    env.get(name)
        .cloned()
        .ok_or_else(|| ExecError::Other(format!("unknown input relation `{name}`")))
}

/// Morsel-driven execution of `plan`'s topmost fused pipeline: splits the
/// plan at its first breaker, evaluates the source recursively, compiles the
/// row-local chain (and a fused scan rename) into one batch-at-a-time
/// closure, and drives it over the source's partitions on the persistent
/// worker pool. `plan` is row-local or an aliased scan, so the chain has at
/// least one member.
fn eval_pipeline(
    plan: &Plan,
    env: &HashMap<String, ColCollection>,
    ctx: &DistContext,
    options: &ExecOptions,
) -> Result<ColCollection> {
    let (chain, source) = fuse_chain(plan);
    let (src, scan_alias) = match source {
        Plan::Scan { name, alias } => (relation(env, name)?, alias.clone()),
        other => (eval_plan_col(other, env, ctx, options)?, None),
    };
    let compiled = compile_chain_col(scan_alias, &chain, ctx, options)?;
    let steps = compiled.steps;
    let out = src.run_pipeline(
        &compiled.label,
        &compiled.ops,
        compiled.sequential,
        move |b, cx| {
            let mut cur = b.clone();
            for step in &steps {
                cur = step(&cur, cx)?;
            }
            Ok(cur)
        },
    )?;
    // The fused scan rename is the first member of the chain.
    let renamed = matches!(source, Plan::Scan { .. }).then_some(source);
    let nodes: Vec<&Plan> = renamed.into_iter().chain(chain).collect();
    Ok(carry_placement(&src, &nodes, out))
}

/// Evaluates one plan tree against an environment of columnar collections:
/// the leaves and the pipeline breakers here, every row-local operator (and
/// an aliased scan's rename) in a fused pipeline — a lone one is a pipeline
/// of one member.
pub fn eval_plan_col(
    plan: &Plan,
    env: &HashMap<String, ColCollection>,
    ctx: &DistContext,
    options: &ExecOptions,
) -> Result<ColCollection> {
    match plan {
        Plan::Scan { name, alias: None } => relation(env, name),
        Plan::Unit => Ok(ColCollection::single(ctx, Batch::unit(1))),
        Plan::Empty => Ok(ColCollection::empty(ctx)),
        Plan::Scan { alias: Some(_), .. }
        | Plan::Select { .. }
        | Plan::Project { .. }
        | Plan::Extend { .. }
        | Plan::AddIndex { .. }
        | Plan::Unnest { .. } => eval_pipeline(plan, env, ctx, options),
        Plan::Join {
            left,
            right,
            left_key,
            right_key,
            kind,
            strategy,
        } => {
            let l = eval_plan_col(left, env, ctx, options)?;
            let r = eval_plan_col(right, env, ctx, options)?;
            let lk: Vec<&str> = left_key.iter().map(String::as_str).collect();
            let rk: Vec<&str> = right_key.iter().map(String::as_str).collect();
            let spec = match kind {
                PlanJoinKind::Inner => JoinSpec::inner(&lk, &rk),
                PlanJoinKind::Renest { attr } => JoinSpec::renest(&lk, &rk, attr),
            };
            let spec = match strategy {
                // The planner's size bound predates the `var.field`
                // renaming, which inflates per-row bytes; force the
                // broadcast only when the materialized side really fits
                // (cluster-wide under a multi-process exchange), otherwise
                // fall back to the runtime decision.
                JoinStrategy::Broadcast if r.planning_bytes()? <= ctx.config().broadcast_limit => {
                    spec.with_hint(JoinHint::BroadcastRight)
                }
                JoinStrategy::Shuffle => spec.with_hint(JoinHint::Shuffle),
                _ => spec,
            };
            if options.skew_aware {
                l.skew_join(&r, &spec)
            } else {
                l.join(&r, &spec)
            }
        }
        Plan::Nest {
            input,
            key,
            values,
            op,
            place_by,
        } => {
            let rows = eval_plan_col(input, env, ctx, options)?;
            let place_by = if place_by.is_empty() { key } else { place_by };
            match op {
                NestOp::Sum => rows.nest_sum_placed(key, values, place_by),
                NestOp::Bag { group_attr } => {
                    rows.nest_bag_placed(key, values, group_attr, place_by)
                }
            }
        }
        Plan::Dedup { input } => eval_plan_col(input, env, ctx, options)?.distinct(),
        Plan::Union { left, right } => {
            let l = eval_plan_col(left, env, ctx, options)?;
            let r = eval_plan_col(right, env, ctx, options)?;
            l.union(&r)
        }
    }
}
