//! The physical executor: interprets optimized [`Plan`] trees on
//! [`DistCollection`]s.
//!
//! This is the last stage of the live compilation pipeline
//! **NRC → Plan → optimize → execute**:
//!
//! 1. `infer_catalog` samples the distributed inputs to build the
//!    attribute-level [`Catalog`] (schemas plus materialized sizes) that
//!    drives lowering and optimization;
//! 2. `trance_algebra::lower` produces a `PlanProgram`;
//! 3. each assignment and the root are run through
//!    `trance_algebra::optimize` **immediately before execution**, so plans
//!    over intermediates benefit from the schemas and sizes of the
//!    materializations that precede them;
//! 4. `eval_plan` maps every plan operator onto the engine: scans with
//!    `var.field` renaming, selections/projections/extensions as
//!    partition-parallel maps, joins as distributed hash joins honouring the
//!    optimizer's strategy annotation (broadcast / shuffle / skew-aware),
//!    unnests as flat-maps, `Γ⊎`/`Γ+` as the engine's grouping operators.
//!
//! With optimization disabled the same interpreter reproduces the
//! SparkSQL-like baseline: wide rows travel through every shuffle.
//!
//! Scalar expressions on this row-oriented route are always evaluated by
//! the tree-walking interpreter ([`crate::vector`]): register-based kernel
//! compilation ([`crate::kernel`]) is a columnar-route concern — its
//! vectorized instructions operate on typed column buffers, which row
//! batches do not have — so [`crate::ExecOptions::compiled_exprs`]
//! has no effect here.

use std::collections::HashMap;

use trance_algebra::{
    fuse_chain, lower, needs_sequential, optimize, pipeline_label, pipeline_op_name, AttrSchema,
    Catalog, JoinStrategy, NestOp, OptimizerConfig, Plan, PlanJoinKind,
};
use trance_dist::{
    DistCollection, DistContext, ExecError, JoinHint, JoinSpec, MorselCtx, Result, SkewTriple,
};
use trance_nrc::{Expr, NrcError, Tuple, Value};

use crate::options::ExecOptions;

/// Lowers an NRC bag expression to a plan program and executes it over the
/// distributed row inputs: materializes each assignment in order (optimizing
/// it against the catalog known so far, then registering its inferred schema
/// and size), then evaluates the root plan.
pub(crate) fn execute_via_plans(
    expr: &Expr,
    inputs: &HashMap<String, DistCollection>,
    ctx: &DistContext,
    options: &ExecOptions,
) -> Result<DistCollection> {
    let mut catalog = infer_catalog(inputs)?;
    let program = lower(expr, &catalog).map_err(|e| ExecError::Other(e.to_string()))?;
    let mut env = inputs.clone();
    let opt_config = optimizer_config(options, ctx);
    let optimized = |plan: &Plan, catalog: &Catalog| match &opt_config {
        Some(cfg) => optimize(plan, catalog, cfg),
        None => plan.clone(),
    };
    for assignment in &program.assignments {
        let out = eval_plan(&optimized(&assignment.plan, &catalog), &env, ctx, options)?;
        // Intermediates are registered with their *exact* top-level
        // attribute set: their scans carry no alias, so the pruning pass has
        // no prefix fallback and a sampled schema could silently drop an
        // attribute present only in unsampled rows.
        catalog.register(assignment.name.clone(), exact_schema(&out)?);
        catalog.set_size(assignment.name.clone(), out.total_bytes());
        env.insert(assignment.name.clone(), out);
    }
    eval_plan(&optimized(&program.root, &catalog), &env, ctx, options)
}

/// The optimizer configuration for one run; `None` when optimization is off
/// (the SparkSQL-like baseline executes lowered plans verbatim). Shared by
/// the row and columnar interpreters.
pub(crate) fn optimizer_config(
    options: &ExecOptions,
    ctx: &DistContext,
) -> Option<OptimizerConfig> {
    if !options.optimize {
        return None;
    }
    Some(OptimizerConfig {
        skew_joins: options.skew_aware,
        broadcast_limit: Some(ctx.config().broadcast_limit),
        ..OptimizerConfig::default()
    })
}

// ---------------------------------------------------------------------------
// catalog inference
// ---------------------------------------------------------------------------

/// Builds a [`Catalog`] from distributed inputs by sampling rows for the
/// attribute schemas (recursively into bag-valued attributes) and recording
/// materialized sizes for join strategy selection.
fn infer_catalog(inputs: &HashMap<String, DistCollection>) -> Result<Catalog> {
    let mut catalog = Catalog::new();
    for (name, coll) in inputs {
        catalog.register(name.clone(), infer_schema(coll)?);
        catalog.set_size(name.clone(), coll.total_bytes());
    }
    Ok(catalog)
}

/// Infers the attribute schema of a collection from a small row sample.
/// Empty collections (or non-tuple rows) yield the empty schema, which the
/// optimizer treats as "unknown — don't touch". Partitions stream one at a
/// time, so spilled collections are never re-materialized wholesale.
pub(crate) fn infer_schema(coll: &DistCollection) -> Result<AttrSchema> {
    if let Some(ex) = coll.context().exchange() {
        return infer_schema_global(coll, ex.as_ref());
    }
    let mut sample: Vec<Value> = Vec::new();
    coll.for_each_partition(|rows| {
        for row in rows.iter().take(8) {
            if sample.len() < 64 {
                sample.push(row.clone());
            }
        }
        Ok(())
    })?;
    let refs: Vec<&Value> = sample.iter().collect();
    Ok(schema_of_rows(&refs))
}

/// [`infer_schema`] under a cluster exchange: reconstructs the exact sample
/// the single-process engine draws. Each rank gathers the first ≤8 rows of
/// every partition slot (non-owned slots are empty), the per-partition
/// samples are merged element-wise across ranks (only the owner contributes
/// to a slot), and the partition-ordered row sequence is truncated at the
/// same 64-row budget — so every rank derives the identical schema, and it
/// is the schema the in-process oracle infers.
fn infer_schema_global(
    coll: &DistCollection,
    ex: &dyn trance_dist::Exchange,
) -> Result<AttrSchema> {
    let mut per_part: Vec<Vec<Value>> = Vec::new();
    coll.for_each_partition(|rows| {
        per_part.push(rows.iter().take(8).cloned().collect());
        Ok(())
    })?;
    let mut w = trance_store::ByteWriter::new();
    w.len_u32(per_part.len(), "sampled partitions")?;
    for rows in &per_part {
        w.len_u32(rows.len(), "sampled rows")?;
        for row in rows {
            trance_store::encode_value(row, &mut w)?;
        }
    }
    let gathered = ex.allgather(w.into_bytes())?;
    let mut merged: Vec<Vec<Value>> = vec![Vec::new(); per_part.len()];
    for bytes in &gathered {
        let mut r = trance_store::ByteReader::new(bytes);
        let nparts = r.u32()? as usize;
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
    let mut sample: Vec<Value> = Vec::new();
    for slot in merged {
        for row in slot {
            if sample.len() < 64 {
                sample.push(row);
            }
        }
    }
    let refs: Vec<&Value> = sample.iter().collect();
    Ok(schema_of_rows(&refs))
}

/// The exact top-level attribute union across **all** rows of a collection
/// (one pass, like the size metering). Nested bag schemas stay sampled:
/// pruning below an aliased unnest keeps every required `alias.`-prefixed
/// attribute regardless of what the sample saw. Partitions stream one at a
/// time, like [`infer_schema`].
fn exact_schema(coll: &DistCollection) -> Result<AttrSchema> {
    let mut out = AttrSchema::default();
    coll.for_each_partition(|rows| {
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
        Ok(())
    })?;
    Ok(out)
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

// ---------------------------------------------------------------------------
// the interpreter
// ---------------------------------------------------------------------------

/// Evaluates one plan tree against the environment of named collections.
fn eval_plan(
    plan: &Plan,
    env: &HashMap<String, DistCollection>,
    ctx: &DistContext,
    options: &ExecOptions,
) -> Result<DistCollection> {
    if options.pipelined {
        if let Some(out) = eval_pipelined_row(plan, env, ctx, options)? {
            return Ok(out);
        }
    }
    match plan {
        Plan::Scan { name, alias } => {
            let coll = env
                .get(name)
                .ok_or_else(|| ExecError::Other(format!("unknown input relation `{name}`")))?;
            match alias {
                None => Ok(coll.clone()),
                Some(alias) => {
                    let alias = alias.clone();
                    coll.map(move |row| Ok(Value::Tuple(rename_row(row, &alias))))
                }
            }
        }
        Plan::Unit => Ok(ctx.parallelize(vec![Value::Tuple(Tuple::empty())])),
        Plan::Empty => Ok(ctx.empty()),
        Plan::Select { input, predicate } => {
            let rows = eval_plan(input, env, ctx, options)?;
            let predicate = predicate.clone();
            rows.filter(move |row| Ok(predicate.eval(row.as_tuple()?)?.as_bool()?))
        }
        Plan::Project { input, columns } => {
            let rows = eval_plan(input, env, ctx, options)?;
            let columns = columns.clone();
            rows.map(move |row| Ok(Value::Tuple(project_row(row.as_tuple()?, &columns)?)))
        }
        Plan::Extend { input, columns } => {
            let rows = eval_plan(input, env, ctx, options)?;
            let columns = columns.clone();
            rows.map(move |row| Ok(Value::Tuple(extend_row(row.as_tuple()?, &columns)?)))
        }
        Plan::AddIndex { input, id_attr } => {
            let rows = eval_plan(input, env, ctx, options)?;
            rows.with_unique_id(id_attr)
        }
        Plan::Join {
            left,
            right,
            left_key,
            right_key,
            kind,
            strategy,
        } => {
            let l = eval_plan(left, env, ctx, options)?;
            let r = eval_plan(right, env, ctx, options)?;
            let lk: Vec<&str> = left_key.iter().map(String::as_str).collect();
            let rk: Vec<&str> = right_key.iter().map(String::as_str).collect();
            let spec = match kind {
                PlanJoinKind::Inner => JoinSpec::inner(&lk, &rk),
                PlanJoinKind::LeftOuter => JoinSpec::left_outer(&lk, &rk),
            };
            if options.skew_aware || *strategy == JoinStrategy::Skew {
                SkewTriple::unknown(l).join(&r, &spec)?.merged()
            } else {
                let spec = match strategy {
                    // The planner's size bound predates the `var.field`
                    // renaming, which inflates per-row bytes; force the
                    // broadcast only when the materialized side really fits,
                    // otherwise fall back to the runtime decision.
                    JoinStrategy::Broadcast if r.total_bytes() <= ctx.config().broadcast_limit => {
                        spec.with_hint(JoinHint::BroadcastRight)
                    }
                    JoinStrategy::Shuffle => spec.with_hint(JoinHint::Shuffle),
                    _ => spec,
                };
                l.join(&r, &spec)
            }
        }
        Plan::Unnest {
            input,
            bag_attr,
            alias,
            outer,
            id_attr,
        } => {
            let rows = eval_plan(input, env, ctx, options)?;
            let rows = match (outer, id_attr) {
                (true, Some(id)) => rows.with_unique_id(id)?,
                _ => rows,
            };
            let bag_attr = bag_attr.clone();
            let alias = alias.clone();
            let outer = *outer;
            rows.flat_map(move |row| {
                unnest_row(row.as_tuple()?, &bag_attr, alias.as_deref(), outer)
            })
        }
        Plan::Nest {
            input,
            key,
            values,
            op,
        } => {
            let rows = eval_plan(input, env, ctx, options)?;
            match op {
                NestOp::Sum => {
                    if options.skew_aware {
                        SkewTriple::unknown(rows).nest_sum(key, values)?.merged()
                    } else {
                        rows.nest_sum(key, values)
                    }
                }
                NestOp::Bag { group_attr } => rows.nest_bag(key, values, group_attr),
            }
        }
        Plan::Dedup { input } => eval_plan(input, env, ctx, options)?.distinct(),
        Plan::Union { left, right } => {
            let l = eval_plan(left, env, ctx, options)?;
            let r = eval_plan(right, env, ctx, options)?;
            l.union(&r)
        }
        Plan::BagToDict { input } => {
            // The partitioning guarantee is implicit in the engine; the cast
            // is a no-op at execution time.
            eval_plan(input, env, ctx, options)
        }
        Plan::DictLookup { .. } => Err(ExecError::Other(
            "DictLookup is not produced by the lowering (shredded plans are flat); \
             reserved for hand-written plans"
                .into(),
        )),
    }
}

/// Flattens one row's bag-valued attribute — the row engine's unnest kernel,
/// shared by the staged operator and fused pipeline steps. With `outer`, a
/// row whose bag is empty or NULL keeps its parent tuple (inner attributes
/// stay absent).
fn unnest_row(t: &Tuple, bag_attr: &str, alias: Option<&str>, outer: bool) -> Result<Vec<Value>> {
    let bag = match t.get(bag_attr) {
        Some(Value::Bag(b)) => b.clone(),
        Some(Value::Null) | None => trance_nrc::Bag::empty(),
        Some(other) => {
            return Err(NrcError::TypeMismatch {
                expected: "bag".into(),
                found: other.kind().into(),
                context: format!("unnest of {bag_attr}"),
            }
            .into())
        }
    };
    let parent = t.project_away(&[bag_attr]);
    if bag.is_empty() {
        return Ok(if outer {
            vec![Value::Tuple(parent)]
        } else {
            Vec::new()
        });
    }
    let mut out = Vec::with_capacity(bag.len());
    for elem in bag.iter() {
        let mut new_row = parent.clone();
        merge_element(&mut new_row, elem, alias);
        out.push(Value::Tuple(new_row));
    }
    Ok(out)
}

/// Projection kernel (`π`) over one row — shared by the staged operator arm
/// and the fused pipeline step, so the two executors cannot drift.
fn project_row(t: &Tuple, columns: &[(String, trance_algebra::ScalarExpr)]) -> Result<Tuple> {
    let mut out = Tuple::empty();
    for (name, expr) in columns {
        out.set(name.clone(), expr.eval(t)?);
    }
    Ok(out)
}

/// Extension kernel over one row: each extension sees the attributes set
/// before it. Shared by the staged arm and the fused step.
fn extend_row(t: &Tuple, columns: &[(String, trance_algebra::ScalarExpr)]) -> Result<Tuple> {
    let mut t = t.clone();
    for (name, expr) in columns {
        let v = expr.eval(&t)?;
        t.set(name.clone(), v);
    }
    Ok(t)
}

// ---------------------------------------------------------------------------
// fused pipelines (row representation)
// ---------------------------------------------------------------------------

/// One fused step of a row pipeline: borrowed rows in, fresh rows out (every
/// row-local operator builds new rows, so borrowing the input avoids a deep
/// clone per morsel), with the morsel cursor supplying per-partition id
/// state for sequential chains.
type RowStep = Box<dyn Fn(&[Value], &mut MorselCtx) -> Result<Vec<Value>> + Send + Sync>;

/// The row-representation twin of the columnar chain compiler: a maximal
/// chain of row-local operators (plus an optional fused scan rename)
/// compiled into rows-at-a-time steps.
struct CompiledRowChain {
    steps: Vec<RowStep>,
    ops: Vec<String>,
    label: String,
    sequential: bool,
}

fn compile_chain_row(scan_alias: Option<String>, chain: &[&Plan]) -> Result<CompiledRowChain> {
    let mut steps: Vec<RowStep> = Vec::new();
    let mut ops: Vec<String> = Vec::new();
    let mut id_slots = 0usize;
    let mut sequential = false;
    if let Some(alias) = scan_alias {
        ops.push("scan".to_string());
        steps.push(Box::new(move |rows, _| {
            Ok(rows
                .iter()
                .map(|row| Value::Tuple(rename_row(row, &alias)))
                .collect())
        }));
    }
    for node in chain {
        ops.push(pipeline_op_name(node).to_string());
        if needs_sequential(node) {
            sequential = true;
        }
        match node {
            Plan::Select { predicate, .. } => {
                let predicate = predicate.clone();
                steps.push(Box::new(move |rows, _| {
                    let mut out = Vec::with_capacity(rows.len());
                    for row in rows {
                        if predicate.eval(row.as_tuple()?)?.as_bool()? {
                            out.push(row.clone());
                        }
                    }
                    Ok(out)
                }));
            }
            Plan::Project { columns, .. } => {
                let columns = columns.clone();
                steps.push(Box::new(move |rows, _| {
                    rows.iter()
                        .map(|row| Ok(Value::Tuple(project_row(row.as_tuple()?, &columns)?)))
                        .collect()
                }));
            }
            Plan::Extend { columns, .. } => {
                let columns = columns.clone();
                steps.push(Box::new(move |rows, _| {
                    rows.iter()
                        .map(|row| Ok(Value::Tuple(extend_row(row.as_tuple()?, &columns)?)))
                        .collect()
                }));
            }
            Plan::AddIndex { id_attr, .. } => {
                let attr = id_attr.clone();
                let slot = id_slots;
                id_slots += 1;
                steps.push(Box::new(move |rows, cx| {
                    let start = cx.reserve(slot, rows.len());
                    rows.iter()
                        .enumerate()
                        .map(|(i, row)| {
                            let mut t = row.as_tuple()?.clone();
                            t.set(
                                attr.clone(),
                                Value::Int(cx.partition as i64 + (start + i as i64) * cx.stride),
                            );
                            Ok(Value::Tuple(t))
                        })
                        .collect()
                }));
            }
            Plan::Unnest {
                bag_attr,
                alias,
                outer,
                id_attr,
                ..
            } => {
                let bag_attr = bag_attr.clone();
                let alias = alias.clone();
                let outer = *outer;
                let id = match (outer, id_attr) {
                    (true, Some(id)) => {
                        id_slots += 1;
                        Some((id.clone(), id_slots - 1))
                    }
                    _ => None,
                };
                steps.push(Box::new(move |rows, cx| {
                    let start = match &id {
                        Some((_, slot)) => cx.reserve(*slot, rows.len()),
                        None => 0,
                    };
                    let mut out = Vec::with_capacity(rows.len());
                    for (i, row) in rows.iter().enumerate() {
                        let t = row.as_tuple()?;
                        let flattened = match &id {
                            Some((attr, _)) => {
                                let mut t = t.clone();
                                t.set(
                                    attr.clone(),
                                    Value::Int(
                                        cx.partition as i64 + (start + i as i64) * cx.stride,
                                    ),
                                );
                                unnest_row(&t, &bag_attr, alias.as_deref(), outer)?
                            }
                            None => unnest_row(t, &bag_attr, alias.as_deref(), outer)?,
                        };
                        out.extend(flattened);
                    }
                    Ok(out)
                }));
            }
            other => {
                return Err(ExecError::Other(format!(
                    "operator {} is not row-local and cannot join a fused pipeline",
                    pipeline_op_name(other)
                )))
            }
        }
    }
    let label = pipeline_label(&ops);
    Ok(CompiledRowChain {
        steps,
        ops,
        label,
        sequential,
    })
}

/// Attempts morsel-driven execution of `plan`'s topmost fused pipeline over
/// row collections — the row twin of the columnar fast path. Returns `None`
/// when there is nothing to fuse.
fn eval_pipelined_row(
    plan: &Plan,
    env: &HashMap<String, DistCollection>,
    ctx: &DistContext,
    options: &ExecOptions,
) -> Result<Option<DistCollection>> {
    let (chain, source) = fuse_chain(plan);
    let scan_alias = match source {
        Plan::Scan {
            alias: Some(alias), ..
        } => Some(alias.clone()),
        _ => None,
    };
    if chain.is_empty() && scan_alias.is_none() {
        return Ok(None);
    }
    let src = match source {
        Plan::Scan { name, .. } => env
            .get(name)
            .cloned()
            .ok_or_else(|| ExecError::Other(format!("unknown input relation `{name}`")))?,
        other => eval_plan(other, env, ctx, options)?,
    };
    let compiled = compile_chain_row(scan_alias, &chain)?;
    let steps = compiled.steps;
    let out = src.run_pipeline(
        &compiled.label,
        &compiled.ops,
        compiled.sequential,
        move |morsel, cx| {
            let (first, rest) = steps.split_first().expect("non-empty chain");
            let mut rows = first(morsel, cx)?;
            for step in rest {
                rows = step(&rows, cx)?;
            }
            Ok(rows)
        },
    )?;
    Ok(Some(out))
}

/// Renames the fields of a scanned row to `alias.field` (non-tuple rows
/// become a single `alias.__value` attribute).
fn rename_row(row: &Value, alias: &str) -> Tuple {
    let mut out = Tuple::empty();
    match row {
        Value::Tuple(t) => {
            for (f, v) in t.iter() {
                out.set(format!("{alias}.{f}"), v.clone());
            }
        }
        other => out.set(format!("{alias}.__value"), other.clone()),
    }
    out
}

/// Merges one flattened bag element into a stream row, renaming its fields to
/// `alias.field` when an alias is present.
fn merge_element(row: &mut Tuple, elem: &Value, alias: Option<&str>) {
    match (elem, alias) {
        (Value::Tuple(et), Some(alias)) => {
            for (f, v) in et.iter() {
                row.set(format!("{alias}.{f}"), v.clone());
            }
        }
        (Value::Tuple(et), None) => {
            for (f, v) in et.iter() {
                row.set(f.to_string(), v.clone());
            }
        }
        (other, Some(alias)) => row.set(format!("{alias}.__value"), other.clone()),
        (other, None) => row.set("__value".to_string(), other.clone()),
    }
}
