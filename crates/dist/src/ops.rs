//! [`DistCollection`]: a hash-partitioned bag of [`Value`] rows and its
//! partition-parallel operators.
//!
//! Every operator executes per-partition on the worker threads of the owning
//! [`DistContext`] (see `crate::partition`), meters shuffles/broadcasts in
//! the context's [`crate::Stats`], enforces the simulated per-worker memory
//! cap on its output, and records its wall-clock time under its operator
//! name. Grouping operators pre-aggregate map-side before shuffling, so a
//! skewed grouping key costs at most `partitions` partial rows per key.
//!
//! With the spill subsystem enabled, a partition is either resident
//! (`Vec<Value>`) or spilled (encoded row chunks in a `trance-store` frame
//! file), and the memory governor spills victim partitions at materialize
//! time instead of raising [`crate::ExecError::MemoryExceeded`] — the row
//! representation goes out-of-core through the same machinery as the
//! columnar one, so the differential oracles cover spilling runs too.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use trance_nrc::{Bag, MemSize, Tuple, Value};

use crate::colops::MORSEL_ROWS;
use crate::error::{ExecError, Result};
use crate::fault::{with_retry, FaultSite};
use crate::partition::{
    enforce_memory, hash_key_ref, hash_value, run_partitioned, shuffle, split_round_robin, PartRows,
};
use crate::scheduler::MorselCtx;
use crate::spill::{govern_materialized, read_rows, spill_rows, SpilledRows};
use crate::DistContext;

/// One partition of a [`DistCollection`]: resident rows or a spilled frame
/// file (shared so collection clones share the file; it is deleted when the
/// last reference drops).
#[derive(Debug, Clone)]
pub(crate) enum RowPart {
    /// Resident rows.
    Mem(Vec<Value>),
    /// Disk-resident partition.
    Spilled(Arc<SpilledRows>),
}

impl RowPart {
    pub(crate) fn len(&self) -> usize {
        match self {
            RowPart::Mem(rows) => rows.len(),
            RowPart::Spilled(s) => s.rows(),
        }
    }

    /// `Value::mem_size` bytes currently resident in worker memory.
    pub(crate) fn resident_bytes(&self) -> usize {
        match self {
            RowPart::Mem(rows) => rows.iter().map(MemSize::mem_size).sum(),
            RowPart::Spilled(_) => 0,
        }
    }

    /// Logical `Value::mem_size` bytes, wherever the partition lives.
    pub(crate) fn logical_bytes(&self) -> usize {
        match self {
            RowPart::Mem(rows) => rows.iter().map(MemSize::mem_size).sum(),
            RowPart::Spilled(s) => s.bytes(),
        }
    }

    /// The partition's rows (spilled partitions are read back).
    pub(crate) fn rows<'a>(&'a self, ctx: &DistContext) -> Result<Cow<'a, [Value]>> {
        match self {
            RowPart::Mem(rows) => Ok(Cow::Borrowed(rows)),
            RowPart::Spilled(s) => Ok(Cow::Owned(read_rows(ctx, s)?)),
        }
    }
}

impl PartRows for RowPart {
    fn part_rows(&self) -> usize {
        self.len()
    }
}

/// A distributed collection: rows hash-partitioned into
/// `ClusterConfig::partitions` slices owned by a [`DistContext`].
#[derive(Clone)]
pub struct DistCollection {
    ctx: DistContext,
    parts: Arc<Vec<RowPart>>,
}

impl std::fmt::Debug for DistCollection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistCollection")
            .field("partitions", &self.parts.len())
            .field("rows", &self.len())
            .finish()
    }
}

impl DistCollection {
    /// Wraps an already-partitioned row set with an explicit slot per
    /// partition (no memory check, like input parallelizing). This is the
    /// multi-node loading entry point: a worker process receives only the
    /// partitions its rank owns and passes empty vectors for the rest, so
    /// every rank sees the same full-length partition vector.
    pub fn from_partitioned_rows(ctx: DistContext, mut parts: Vec<Vec<Value>>) -> Self {
        parts.resize(ctx.config().partitions.max(1).max(parts.len()), Vec::new());
        DistCollection::from_parts(ctx, parts)
    }

    /// Wraps an already-partitioned row set (no memory check: used for input
    /// loading, which the paper excludes from the measured runs).
    pub(crate) fn from_parts(ctx: DistContext, parts: Vec<Vec<Value>>) -> Self {
        DistCollection {
            ctx,
            parts: Arc::new(parts.into_iter().map(RowPart::Mem).collect()),
        }
    }

    fn from_row_parts(ctx: DistContext, parts: Vec<RowPart>) -> Self {
        DistCollection {
            ctx,
            parts: Arc::new(parts),
        }
    }

    /// Wraps freshly produced operator output, enforcing the per-worker
    /// memory cap first. With spilling enabled, the memory governor spills
    /// victim partitions instead of failing.
    pub(crate) fn materialize(ctx: DistContext, parts: Vec<Vec<Value>>) -> Result<Self> {
        let mut parts: Vec<RowPart> = parts.into_iter().map(RowPart::Mem).collect();
        if ctx.spill_active() {
            govern_materialized(&ctx, &mut parts, RowPart::resident_bytes, |part| {
                Ok(match part {
                    RowPart::Mem(rows) => RowPart::Spilled(Arc::new(spill_rows(&ctx, rows)?)),
                    RowPart::Spilled(s) => RowPart::Spilled(s.clone()),
                })
            })?;
        } else {
            enforce_memory(&ctx, &parts)?;
        }
        Ok(DistCollection::from_row_parts(ctx, parts))
    }

    /// Distributes `rows` round-robin over the context's partitions.
    pub(crate) fn parallelize(ctx: DistContext, rows: Vec<Value>) -> Self {
        let nparts = ctx.config().partitions;
        DistCollection::from_parts(ctx, split_round_robin(rows, nparts))
    }

    /// The owning context.
    pub fn context(&self) -> &DistContext {
        &self.ctx
    }

    /// Rebinds the collection to another context sharing the same worker
    /// pool (a [`DistContext::session`]): the partitions are Arc-shared, so
    /// the rebind is O(1) and subsequent operators meter their stats, honour
    /// the memory budget and observe the cancellation token of `ctx` instead
    /// of the original context's.
    pub fn with_context(&self, ctx: &DistContext) -> DistCollection {
        DistCollection {
            ctx: ctx.clone(),
            parts: self.parts.clone(),
        }
    }

    /// The internal partition set.
    pub(crate) fn parts(&self) -> &[RowPart] {
        &self.parts
    }

    /// The partitioned rows (partition `i` lives on worker `i % workers`).
    /// Spilled partitions are read back; resident ones are borrowed. Fails
    /// with [`crate::ExecError::Spill`] when a spill file cannot be read —
    /// for one-partition-at-a-time consumers prefer
    /// [`DistCollection::for_each_partition`], which never holds more than
    /// one spilled partition resident.
    pub fn partitions(&self) -> Result<Vec<Cow<'_, [Value]>>> {
        self.parts.iter().map(|p| p.rows(&self.ctx)).collect()
    }

    /// Streams the partitions one at a time: each spilled partition is read
    /// back, handed to `f`, and dropped before the next loads.
    pub fn for_each_partition(&self, mut f: impl FnMut(&[Value]) -> Result<()>) -> Result<()> {
        for part in self.parts.iter() {
            f(&part.rows(&self.ctx)?)?;
        }
        Ok(())
    }

    /// The attribute names of the first available tuple row, stopping at the
    /// first non-empty partition — at most one spilled partition is read
    /// (the row twin of [`crate::ColCollection::first_fields`]).
    pub fn first_fields(&self) -> Result<Vec<String>> {
        for part in self.parts.iter() {
            if part.len() == 0 {
                continue;
            }
            if let Some(Value::Tuple(t)) = part.rows(&self.ctx)?.first() {
                return Ok(t.field_names().iter().map(|s| s.to_string()).collect());
            }
        }
        Ok(Vec::new())
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.parts.len()
    }

    /// Number of partitions currently spilled to disk.
    pub fn spilled_partitions(&self) -> usize {
        self.parts
            .iter()
            .filter(|p| matches!(p, RowPart::Spilled(_)))
            .count()
    }

    /// Total number of rows.
    pub fn len(&self) -> usize {
        self.parts.iter().map(RowPart::len).sum()
    }

    /// Alias of [`DistCollection::len`], matching bulk-collection APIs.
    pub fn count(&self) -> usize {
        self.len()
    }

    /// True when the collection holds no rows.
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(|p| p.len() == 0)
    }

    /// Estimated total in-memory size in bytes (used for broadcast planning
    /// and shuffle metering).
    pub fn total_bytes(&self) -> usize {
        self.parts.iter().map(RowPart::logical_bytes).sum()
    }

    /// Gathers every row to the caller ("driver"), in partition order, with
    /// spill-read failures surfaced as [`crate::ExecError::Spill`].
    pub fn try_collect(&self) -> Result<Vec<Value>> {
        let mut out = Vec::with_capacity(self.len());
        for part in self.parts.iter() {
            out.extend(part.rows(&self.ctx)?.iter().cloned());
        }
        Ok(out)
    }

    /// Gathers every row to the caller ("driver"), in partition order.
    ///
    /// The final operator's output can itself be spilled, so this *is* a
    /// spill-read site: a spill file that cannot be read back at the collect
    /// boundary panics here. Drivers that want the error instead use
    /// [`DistCollection::try_collect`].
    pub fn collect(&self) -> Vec<Value> {
        self.try_collect()
            .expect("failed to read a spilled partition at the collect boundary")
    }

    /// Gathers every row into a [`Bag`] (panics like
    /// [`DistCollection::collect`]; see [`DistCollection::try_collect`]).
    pub fn collect_bag(&self) -> Bag {
        Bag::new(self.collect())
    }

    /// Times `f` under operator name `op` in the context stats.
    pub(crate) fn timed<T>(&self, op: &str, f: impl FnOnce() -> Result<T>) -> Result<T> {
        let start = Instant::now();
        let out = f();
        self.ctx.stats().record_op(op, start.elapsed());
        out
    }

    /// Applies `f` to every row (partition-parallel, no shuffle).
    pub fn map<F>(&self, f: F) -> Result<DistCollection>
    where
        F: Fn(&Value) -> Result<Value> + Send + Sync,
    {
        self.timed("map", || {
            let parts = run_partitioned(&self.ctx, &self.parts, |_, part| {
                part.rows(&self.ctx)?
                    .iter()
                    .map(&f)
                    .collect::<Result<Vec<Value>>>()
            })?;
            DistCollection::materialize(self.ctx.clone(), parts)
        })
    }

    /// Keeps the rows for which `pred` returns true (partition-parallel).
    pub fn filter<F>(&self, pred: F) -> Result<DistCollection>
    where
        F: Fn(&Value) -> Result<bool> + Send + Sync,
    {
        self.timed("filter", || {
            let parts = run_partitioned(&self.ctx, &self.parts, |_, part| {
                let mut out = Vec::new();
                for row in part.rows(&self.ctx)?.iter() {
                    if pred(row)? {
                        out.push(row.clone());
                    }
                }
                Ok(out)
            })?;
            DistCollection::materialize(self.ctx.clone(), parts)
        })
    }

    /// Expands every row into zero or more rows (the engine's unnest;
    /// partition-parallel).
    pub fn flat_map<F>(&self, f: F) -> Result<DistCollection>
    where
        F: Fn(&Value) -> Result<Vec<Value>> + Send + Sync,
    {
        self.timed("flat_map", || {
            let parts = run_partitioned(&self.ctx, &self.parts, |_, part| {
                let mut out = Vec::new();
                for row in part.rows(&self.ctx)?.iter() {
                    out.extend(f(row)?);
                }
                Ok(out)
            })?;
            DistCollection::materialize(self.ctx.clone(), parts)
        })
    }

    /// Bag union: partitions are concatenated pairwise, no data moves.
    pub fn union(&self, other: &DistCollection) -> Result<DistCollection> {
        self.timed("union", || {
            let n = self.parts.len().max(other.parts.len());
            let mut parts = Vec::with_capacity(n);
            for i in 0..n {
                let mut p: Vec<Value> = match self.parts.get(i) {
                    Some(part) => part.rows(&self.ctx)?.into_owned(),
                    None => Vec::new(),
                };
                if let Some(part) = other.parts.get(i) {
                    p.extend(part.rows(&self.ctx)?.iter().cloned());
                }
                parts.push(p);
            }
            DistCollection::materialize(self.ctx.clone(), parts)
        })
    }

    /// Distinct rows (set semantics): shuffles by row hash so equal rows meet
    /// in one partition, then deduplicates per partition.
    pub fn distinct(&self) -> Result<DistCollection> {
        self.timed("distinct", || {
            let shuffled = shuffle(&self.ctx, &self.parts, |row| Ok(hash_value(row)))?;
            let parts = run_partitioned(&self.ctx, &shuffled, |_, rows| {
                let mut seen: HashMap<&Value, ()> = HashMap::with_capacity(rows.len());
                let mut out = Vec::new();
                for row in rows {
                    if seen.insert(row, ()).is_none() {
                        out.push(row.clone());
                    }
                }
                Ok(out)
            })?;
            DistCollection::materialize(self.ctx.clone(), parts)
        })
    }

    /// Adds a globally unique integer id under `attr` without coordination:
    /// row `i` of partition `p` gets `p + i * partitions`.
    pub fn with_unique_id(&self, attr: &str) -> Result<DistCollection> {
        self.timed("with_unique_id", || {
            let stride = self.parts.len().max(1) as i64;
            let parts = run_partitioned(&self.ctx, &self.parts, |p, part| {
                part.rows(&self.ctx)?
                    .iter()
                    .enumerate()
                    .map(|(i, row)| {
                        let mut t = row.as_tuple()?.clone();
                        t.set(attr.to_string(), Value::Int(p as i64 + i as i64 * stride));
                        Ok(Value::Tuple(t))
                    })
                    .collect::<Result<Vec<Value>>>()
            })?;
            DistCollection::materialize(self.ctx.clone(), parts)
        })
    }

    /// The `Γ+` aggregation: groups rows by the `key` columns and sums each of
    /// the `values` columns, mirroring the reference evaluator's `sumBy`
    /// (integer sums stay integral, NULL contributes nothing, an all-NULL
    /// group sums to `0`).
    ///
    /// Runs as map-side partial aggregation, a shuffle of the (small) partial
    /// rows by key hash, and a final reduce — so even a heavily skewed key
    /// moves at most one partial row per source partition.
    pub fn nest_sum(&self, key: &[String], values: &[String]) -> Result<DistCollection> {
        self.timed("nest_sum", || {
            let partials = run_partitioned(&self.ctx, &self.parts, |_, part| {
                sum_partition(&part.rows(&self.ctx)?, key, values, false)
            })?;
            let partials: Vec<RowPart> = partials.into_iter().map(RowPart::Mem).collect();
            let shuffled = shuffle(&self.ctx, &partials, |row| {
                Ok(hash_routing_key(row.as_tuple()?, key))
            })?;
            let parts = run_partitioned(&self.ctx, &shuffled, |_, rows| {
                sum_partition(rows, key, values, true)
            })?;
            DistCollection::materialize(self.ctx.clone(), parts)
        })
    }

    /// Runs a **fused operator pipeline** morsel-by-morsel on the context's
    /// persistent worker pool — the row-representation twin of
    /// [`crate::ColCollection::run_pipeline`]. `step` is the fused
    /// rows-at-a-time closure compiled out of a chain of row-local plan
    /// operators; each partition's morsel outputs are re-assembled in source
    /// order, so the pipelined result is identical (rows *and* order) to the
    /// staged executor's.
    ///
    /// With `sequential` set, each partition runs as one task whose
    /// [`MorselCtx`] counters reproduce the staged executor's unique-id
    /// numbering. The run is metered as one [`crate::PipelineTiming`] under
    /// `label`, with the member `ops` list.
    pub fn run_pipeline<F>(
        &self,
        label: &str,
        ops: &[String],
        sequential: bool,
        step: F,
    ) -> Result<DistCollection>
    where
        F: Fn(&[Value], &mut MorselCtx) -> Result<Vec<Value>> + Send + Sync,
    {
        let start = Instant::now();
        let ctx = &self.ctx;
        let nparts = self.parts.len().max(1);
        let stride = nparts as i64;
        let morsels = AtomicU64::new(0);
        // Intra-partition splitting only pays when partitions are scarce
        // relative to workers; otherwise a partition is one morsel (the
        // same policy as the columnar driver, so morsel counts agree).
        let split = nparts < 2 * ctx.config().workers.max(1);
        // Spilled partitions are read back whole, exactly like the staged
        // row operators (the columnar driver is the streaming one).
        let src: Vec<Cow<'_, [Value]>> = self.partitions()?;
        // Per-partition, per-morsel output slots (chunk order preserved).
        type MorselSlots = Vec<Mutex<Option<Result<Vec<Value>>>>>;
        let slots: Vec<MorselSlots> = src
            .iter()
            .map(|rows| {
                let chunks = if sequential || !split {
                    1
                } else {
                    rows.len().div_ceil(MORSEL_ROWS).max(1)
                };
                (0..chunks).map(|_| Mutex::new(None)).collect()
            })
            .collect();
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
        for (p, rows) in src.iter().enumerate() {
            let step = &step;
            let morsels = &morsels;
            let part_slots = &slots[p];
            if sequential {
                tasks.push(Box::new(move || {
                    let mut cx = MorselCtx::new(p, stride);
                    let mut out: Result<Vec<Value>> = Ok(Vec::new());
                    for chunk in rows.chunks(MORSEL_ROWS.max(1)) {
                        // First error wins and stops the partition — like
                        // the staged executor, no later chunk runs.
                        let Ok(acc) = &mut out else { break };
                        morsels.fetch_add(1, Ordering::Relaxed);
                        match run_morsel_rows(ctx, &step, chunk, &mut cx) {
                            Ok(mut produced) => acc.append(&mut produced),
                            Err(e) => out = Err(e),
                        }
                    }
                    *part_slots[0].lock().unwrap() = Some(out);
                }));
                continue;
            }
            for (m, slot) in part_slots.iter().enumerate() {
                let single = part_slots.len() == 1;
                tasks.push(Box::new(move || {
                    let (lo, hi) = if single {
                        (0, rows.len())
                    } else {
                        (m * MORSEL_ROWS, ((m + 1) * MORSEL_ROWS).min(rows.len()))
                    };
                    let mut cx = MorselCtx::new(p, stride);
                    morsels.fetch_add(1, Ordering::Relaxed);
                    *slot.lock().unwrap() =
                        Some(run_morsel_rows(ctx, &step, &rows[lo..hi], &mut cx));
                }));
            }
        }
        // Tiny pipelines run inline on the caller, like every other
        // operator below the parallel threshold.
        let total_rows: usize = src.iter().map(|rows| rows.len()).sum();
        if ctx.config().workers.max(1) == 1 || total_rows < crate::partition::PARALLEL_THRESHOLD {
            for task in tasks {
                task();
            }
        } else {
            ctx.run_tasks(tasks);
        }
        let mut parts: Vec<Vec<Value>> = Vec::with_capacity(src.len());
        for (p, part_slots) in slots.into_iter().enumerate() {
            let results: Vec<Option<Result<Vec<Value>>>> = part_slots
                .into_iter()
                .map(|slot| slot.into_inner().unwrap())
                .collect();
            // Lineage recovery: a partition with a retry-exhausted
            // transient fault re-runs the whole fused chain over its source
            // rows (fresh draws, fresh MorselCtx — the chunk walk
            // reproduces the original morsel boundaries, so output order
            // and id numbering match the staged executor exactly).
            if results
                .iter()
                .any(|r| matches!(r, Some(Err(e)) if e.is_retryable()))
            {
                ctx.check_cancel()?;
                ctx.stats().record_recovered_partition();
                let rows = &src[p];
                let mut cx = MorselCtx::new(p, stride);
                let mut out = Vec::new();
                for chunk in rows.chunks(MORSEL_ROWS.max(1)) {
                    morsels.fetch_add(1, Ordering::Relaxed);
                    out.append(&mut run_morsel_rows(ctx, &step, chunk, &mut cx)?);
                }
                parts.push(out);
                continue;
            }
            let mut out = Vec::new();
            for result in results {
                match result {
                    Some(Ok(mut produced)) => out.append(&mut produced),
                    Some(Err(e)) => return Err(e),
                    None => return Err(ExecError::Other("morsel task did not run".into())),
                }
            }
            parts.push(out);
        }
        ctx.stats()
            .record_pipeline(label, ops, morsels.load(Ordering::Relaxed), start.elapsed());
        DistCollection::materialize(self.ctx.clone(), parts)
    }

    /// The `Γ⊎` grouping: groups rows by the `key` columns and collects the
    /// `value_attrs` projection of each row into a bag stored under
    /// `out_attr`. Rows shuffle by key hash; groups never span partitions.
    pub fn nest_bag(
        &self,
        key: &[String],
        value_attrs: &[String],
        out_attr: &str,
    ) -> Result<DistCollection> {
        self.timed("nest_bag", || {
            let shuffled = shuffle(&self.ctx, &self.parts, |row| {
                Ok(hash_routing_key(row.as_tuple()?, key))
            })?;
            let value_refs: Vec<&str> = value_attrs.iter().map(String::as_str).collect();
            let parts = run_partitioned(&self.ctx, &shuffled, |_, rows| {
                let mut groups: HashMap<Tuple, Bag> = HashMap::new();
                let mut order: Vec<Tuple> = Vec::new();
                for row in rows {
                    let t = row.as_tuple()?;
                    let k = project_tuple(t, key);
                    let elem = Value::Tuple(t.project(&value_refs));
                    groups
                        .entry(k.clone())
                        .or_insert_with(|| {
                            order.push(k);
                            Bag::empty()
                        })
                        .push(elem);
                }
                let mut out = Vec::with_capacity(order.len());
                for k in order {
                    let group = groups.remove(&k).expect("group recorded in order");
                    let mut row = k;
                    row.set(out_attr.to_string(), Value::Bag(group));
                    out.push(Value::Tuple(row));
                }
                Ok(out)
            })?;
            DistCollection::materialize(self.ctx.clone(), parts)
        })
    }
}

/// Projects the key columns of a row into a tuple (missing columns are
/// skipped, exactly like the reference evaluator's `project`).
fn project_tuple(t: &Tuple, key: &[String]) -> Tuple {
    let slots = t.project_values(key);
    Tuple::new(
        key.iter()
            .zip(slots)
            .filter_map(|(name, v)| v.map(|v| (name.clone(), v.clone()))),
    )
}

/// Routing hash over the key columns of a row, with NULL standing in for
/// missing columns (a stable stand-in is enough to route) — computed from
/// borrowed values, no clones.
fn hash_routing_key(t: &Tuple, key: &[String]) -> u64 {
    let null = Value::Null;
    let refs: Vec<&Value> = t
        .project_values(key)
        .into_iter()
        .map(|v| v.unwrap_or(&null))
        .collect();
    hash_key_ref(&refs)
}

/// One local aggregation pass of [`DistCollection::nest_sum`]: sums the value
/// columns per key group. With `finalize` set, NULL sums become `Int(0)`
/// (the reference evaluator's treatment of empty numeric aggregates).
fn sum_partition(
    rows: &[Value],
    key: &[String],
    values: &[String],
    finalize: bool,
) -> Result<Vec<Value>> {
    let mut groups: HashMap<Tuple, Vec<Value>> = HashMap::new();
    let mut order: Vec<Tuple> = Vec::new();
    for row in rows {
        let t = row.as_tuple()?;
        let k = project_tuple(t, key);
        let sums = groups.entry(k.clone()).or_insert_with(|| {
            order.push(k);
            vec![Value::Null; values.len()]
        });
        for (slot, v) in sums.iter_mut().zip(t.project_values(values)) {
            let v = v.unwrap_or(&Value::Null);
            *slot = slot.numeric_add(v)?;
        }
    }
    let mut out = Vec::with_capacity(order.len());
    for k in order {
        let sums = groups.remove(&k).expect("group recorded in order");
        let mut row = k;
        for (name, sum) in values.iter().zip(sums) {
            let sum = match (&sum, finalize) {
                (Value::Null, true) => Value::Int(0),
                _ => sum,
            };
            row.set(name.clone(), sum);
        }
        out.push(Value::Tuple(row));
    }
    Ok(out)
}

/// Executes one morsel of a row fused pipeline with the fault-tolerance
/// envelope — the row twin of the columnar `run_morsel`: a cancellation
/// check at the boundary, a fault-injection draw, and bounded retry that
/// rewinds the [`MorselCtx`] id counters before each attempt.
fn run_morsel_rows<F>(
    ctx: &DistContext,
    step: &F,
    rows: &[Value],
    cx: &mut MorselCtx,
) -> Result<Vec<Value>>
where
    F: Fn(&[Value], &mut MorselCtx) -> Result<Vec<Value>> + Send + Sync,
{
    ctx.check_cancel()?;
    let saved = cx.save();
    with_retry(ctx, || {
        cx.restore(saved.clone());
        ctx.fault_check(FaultSite::Morsel)?;
        step(rows, cx)
    })
}
