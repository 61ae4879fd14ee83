//! Partitioning primitives: the partition-parallel runner, round-robin
//! loading and the `Value` definition of key hashing.
//!
//! The engine models a cluster of `workers` executors over `partitions` hash
//! partitions (`partitions >= workers`, as on a real cluster where each
//! executor owns several shuffle partitions). Partition `i` lives on worker
//! `i % workers`; every operator runs its partitions on the context's
//! persistent worker pool, whose scoped task batches let operator closures
//! borrow (`Send + Sync`, not `'static`).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use trance_nrc::Value;

use crate::error::{ExecError, Result};
use crate::DistContext;

/// Below this many total rows an operator runs on the calling thread: the
/// pool fan-out costs more than the work it would parallelize.
pub(crate) const PARALLEL_THRESHOLD: usize = 256;

/// Splits rows round-robin into `partitions` slices (balanced independent of
/// input order).
pub(crate) fn split_round_robin(rows: Vec<Value>, partitions: usize) -> Vec<Vec<Value>> {
    let partitions = partitions.max(1);
    let mut parts: Vec<Vec<Value>> = (0..partitions)
        .map(|i| {
            Vec::with_capacity(rows.len() / partitions + usize::from(i < rows.len() % partitions))
        })
        .collect();
    for (i, row) in rows.into_iter().enumerate() {
        parts[i % partitions].push(row);
    }
    parts
}

/// Anything that can report how many rows it holds — lets the scoped-thread
/// partition runner work over row partitions (`Vec<Value>`) and columnar
/// partitions ([`crate::batch::Batch`]) alike.
pub(crate) trait PartRows {
    /// Number of rows in the partition.
    fn part_rows(&self) -> usize;
}

impl PartRows for Vec<Value> {
    fn part_rows(&self) -> usize {
        self.len()
    }
}

impl PartRows for crate::batch::Batch {
    fn part_rows(&self) -> usize {
        self.rows()
    }
}

/// Runs `f` once per partition, in parallel on the context's **persistent
/// worker pool**, and returns the per-partition results in partition order.
/// The first error (lowest partition index) wins.
///
/// Partition `i` is assigned to pool slot `i % workers` — the same
/// deterministic placement the old per-operator scoped threads used — and an
/// idle participant steals queued partitions from busy ones.
///
/// Cancellation is checked once per partition on the inline path and once
/// before tasks fan out on the pool path.
pub(crate) fn run_partitioned<P, T, F>(ctx: &DistContext, parts: &[P], f: F) -> Result<Vec<T>>
where
    P: PartRows + Sync,
    F: Fn(usize, &P) -> Result<T> + Send + Sync,
    T: Send,
{
    run_parts(ctx, parts, f, true)
}

/// [`run_partitioned`] for the two `Value`↔`Batch` boundaries (scan ingest
/// and collect), which the paper's measurements exclude: the same
/// placement and fan-out, but **unmetered** — no steal counts — and
/// observing no cancellation: a table converted at registration is no run.
pub(crate) fn run_partitioned_unmetered<P, T, F>(
    ctx: &DistContext,
    parts: &[P],
    f: F,
) -> Result<Vec<T>>
where
    P: PartRows + Sync,
    F: Fn(usize, &P) -> Result<T> + Send + Sync,
    T: Send,
{
    run_parts(ctx, parts, f, false)
}

fn run_parts<P, T, F>(ctx: &DistContext, parts: &[P], f: F, metered: bool) -> Result<Vec<T>>
where
    P: PartRows + Sync,
    F: Fn(usize, &P) -> Result<T> + Send + Sync,
    T: Send,
{
    let workers = ctx.config().workers.max(1);
    let total_rows: usize = parts.iter().map(PartRows::part_rows).sum();
    let check_cancel = || if metered { ctx.check_cancel() } else { Ok(()) };
    if workers == 1 || parts.len() <= 1 || total_rows < PARALLEL_THRESHOLD {
        let mut out = Vec::with_capacity(parts.len());
        for (i, p) in parts.iter().enumerate() {
            check_cancel()?;
            out.push(f(i, p)?);
        }
        return Ok(out);
    }
    check_cancel()?;
    let slots: Vec<Mutex<Option<Result<T>>>> = parts.iter().map(|_| Mutex::new(None)).collect();
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = parts
        .iter()
        .enumerate()
        .map(|(i, part)| {
            let slots = &slots;
            let f = &f;
            Box::new(move || {
                // Poison recovery as in the scheduler: the slot is written
                // whole, so a recovered guard never exposes a torn value.
                let result = f(i, part);
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    if metered {
        ctx.run_tasks(tasks);
    } else {
        ctx.pool().run(tasks);
    }
    let mut out = Vec::with_capacity(parts.len());
    for slot in slots {
        match slot.into_inner().unwrap_or_else(|e| e.into_inner()) {
            Some(result) => out.push(result?),
            None => return Err(ExecError::Other("partition task did not run".into())),
        }
    }
    Ok(out)
}

/// Hash of an arbitrary value, stable within a process run.
pub(crate) fn hash_value(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Hash of a multi-column key — the definition the typed key hashes of
/// `keys.rs` are proven equal to.
#[cfg(test)]
pub(crate) fn hash_key(key: &[Value]) -> u64 {
    let mut h = DefaultHasher::new();
    for v in key {
        v.hash(&mut h);
    }
    h.finish()
}
