//! Partitioning primitives: the scoped-thread partition-parallel runner, the
//! hash shuffle, worker memory accounting and key hashing.
//!
//! The engine models a cluster of `workers` executors over `partitions` hash
//! partitions (`partitions >= workers`, as on a real cluster where each
//! executor owns several shuffle partitions). Partition `i` lives on worker
//! `i % workers`; every operator runs its partitions on `workers` OS threads
//! via [`std::thread::scope`], so operator closures only need `Send + Sync`,
//! not `'static`.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use trance_nrc::{Tuple, Value};

use crate::error::{ExecError, Result};
use crate::fault::{with_retry, FaultSite};
use crate::ops::RowPart;
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
/// This is also the engine's **lineage-recovery boundary** for staged
/// operators: a partition whose task failed *retryably* (an injected fault
/// or transient I/O that exhausted its bounded per-task retries) is
/// recomputed here from its still-available source partition — the
/// superstep-recovery model: inputs are immutable within an operator, so
/// re-running `f` on the source reproduces the lost output exactly.
/// Cancellation is checked once per partition on the caller before tasks
/// fan out, and re-checked when recovery would otherwise retry.
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
/// placement and fan-out, but **unmetered** — no steal counts, no retry and
/// no lineage recovery (so nothing is booked under `retries` /
/// `recovered_partitions`), and the closures passed here draw no faults.
/// A run's deterministic counters are therefore the same whether or not it
/// had to convert its inputs first. Cancellation is still observed.
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
    let recover = |i: usize, part: &P, e: ExecError| -> Result<T> {
        if !metered || !e.is_retryable() {
            return Err(e);
        }
        ctx.check_cancel()?;
        ctx.stats().record_recovered_partition();
        with_retry(ctx, || f(i, part))
    };
    let workers = ctx.config().workers.max(1);
    let total_rows: usize = parts.iter().map(PartRows::part_rows).sum();
    if workers == 1 || parts.len() <= 1 || total_rows < PARALLEL_THRESHOLD {
        let mut out = Vec::with_capacity(parts.len());
        for (i, p) in parts.iter().enumerate() {
            ctx.check_cancel()?;
            match f(i, p) {
                Ok(v) => out.push(v),
                Err(e) => out.push(recover(i, p, e)?),
            }
        }
        return Ok(out);
    }
    ctx.check_cancel()?;
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
    for (i, slot) in slots.into_iter().enumerate() {
        match slot.into_inner().unwrap_or_else(|e| e.into_inner()) {
            Some(Ok(v)) => out.push(v),
            Some(Err(e)) => out.push(recover(i, &parts[i], e)?),
            None => return Err(ExecError::Other("partition task did not run".into())),
        }
    }
    Ok(out)
}

/// Enforces the simulated per-worker memory cap on a freshly materialized
/// partition set. Partition `i` is charged to worker `i % workers`. Only
/// reached with spilling off; partitions already on disk (left over from a
/// spill-enabled producer) still charge their logical size — turning
/// spilling off mid-pipeline does not grant free memory.
pub(crate) fn enforce_memory(ctx: &DistContext, parts: &[RowPart]) -> Result<()> {
    let Some(limit) = ctx.config().worker_memory else {
        return Ok(());
    };
    let workers = ctx.config().workers.max(1);
    let mut used = vec![0usize; workers];
    for (i, part) in parts.iter().enumerate() {
        used[i % workers] += part.logical_bytes();
    }
    for (worker, used_bytes) in used.into_iter().enumerate() {
        if used_bytes > limit {
            return Err(ExecError::MemoryExceeded {
                worker,
                used_bytes,
                limit_bytes: limit,
            });
        }
    }
    Ok(())
}

/// Hash of an arbitrary value, stable within a process run.
pub(crate) fn hash_value(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Hash of a multi-column key.
pub(crate) fn hash_key(key: &[Value]) -> u64 {
    let mut h = DefaultHasher::new();
    for v in key {
        v.hash(&mut h);
    }
    h.finish()
}

/// Hash of a borrowed multi-column key; agrees with [`hash_key`] for equal
/// values, so probe-side keys never need cloning.
pub(crate) fn hash_key_ref(key: &[&Value]) -> u64 {
    let mut h = DefaultHasher::new();
    for v in key {
        (*v).hash(&mut h);
    }
    h.finish()
}

/// Extracts the values of `cols` from a row as a join/grouping key.
///
/// Returns `None` when any key column is missing or NULL: such rows can never
/// satisfy an equality predicate (`NULL = x` is false in the compiled
/// predicates), so inner joins drop them and outer joins emit them unmatched.
pub(crate) fn key_of(t: &Tuple, cols: &[String]) -> Option<Vec<Value>> {
    key_of_ref(t, cols).map(|key| key.into_iter().cloned().collect())
}

/// Borrowing variant of [`key_of`]: the hash-join build and probe loops use
/// this so no key value is cloned per row.
pub(crate) fn key_of_ref<'a>(t: &'a Tuple, cols: &[String]) -> Option<Vec<&'a Value>> {
    let slots = t.project_values(cols);
    let mut key = Vec::with_capacity(cols.len());
    for slot in slots {
        match slot {
            Some(Value::Null) | None => return None,
            Some(v) => key.push(v),
        }
    }
    Some(key)
}

/// A hash table keyed by borrowed multi-column keys, probe-able with keys of
/// a *different* lifetime (the scoped-thread closures' reborrowed rows):
/// entries bucket by [`hash_key_ref`] and compare by value. This is what lets
/// the hash joins build and probe without cloning a single key value.
pub(crate) struct RefKeyTable<'a, V> {
    buckets: HashMap<u64, Vec<(Vec<&'a Value>, V)>>,
}

impl<'a, V> RefKeyTable<'a, V> {
    pub(crate) fn with_capacity(n: usize) -> Self {
        RefKeyTable {
            buckets: HashMap::with_capacity(n),
        }
    }

    /// Returns the slot for `key`, inserting `default()` when absent.
    pub(crate) fn entry_or_insert_with(
        &mut self,
        key: Vec<&'a Value>,
        default: impl FnOnce() -> V,
    ) -> &mut V {
        let bucket = self.buckets.entry(hash_key_ref(&key)).or_default();
        match bucket.iter().position(|(k, _)| k == &key) {
            Some(i) => &mut bucket[i].1,
            None => {
                bucket.push((key, default()));
                &mut bucket.last_mut().expect("just pushed").1
            }
        }
    }

    /// Looks up a probe key of any lifetime.
    pub(crate) fn get(&self, key: &[&Value]) -> Option<&V> {
        self.buckets.get(&hash_key_ref(key)).and_then(|bucket| {
            bucket
                .iter()
                .find(|(k, _)| k.len() == key.len() && k.iter().zip(key).all(|(a, b)| *a == *b))
                .map(|(_, v)| v)
        })
    }
}

/// Repartitions rows by `route` (a hash per row), metering the move as a
/// shuffle under `op`. Returns the new partition set (same partition count).
pub(crate) fn shuffle<F>(ctx: &DistContext, parts: &[RowPart], route: F) -> Result<Vec<Vec<Value>>>
where
    F: Fn(&Value) -> Result<u64> + Send + Sync,
{
    let nparts = ctx.config().partitions.max(1);
    let bucketed = run_partitioned(ctx, parts, |_, part| {
        // The shuffle-delivery injection point: a fault fails this source
        // partition's whole routing pass before any bucket ships, so a
        // retry rebuilds the delivery from scratch (no partial double
        // send).
        with_retry(ctx, || {
            ctx.fault_check(FaultSite::Shuffle)?;
            let rows = part.rows(ctx)?;
            let mut buckets: Vec<Vec<Value>> = (0..nparts).map(|_| Vec::new()).collect();
            let mut bytes = 0u64;
            for row in rows.iter() {
                bytes += trance_nrc::MemSize::mem_size(row) as u64;
                let target = (route(row)? % nparts as u64) as usize;
                buckets[target].push(row.clone());
            }
            Ok((buckets, rows.len() as u64, bytes))
        })
    })?;
    let mut out: Vec<Vec<Value>> = (0..nparts).map(|_| Vec::new()).collect();
    let mut tuples = 0u64;
    let mut bytes = 0u64;
    for (buckets, t, b) in bucketed {
        tuples += t;
        bytes += b;
        for (target, bucket) in buckets.into_iter().enumerate() {
            out[target].extend(bucket);
        }
    }
    // Rows ship as heap values: the logical estimate *is* the physical
    // representation, so both counters advance by the same amount.
    ctx.stats().record_shuffle(tuples, bytes, bytes);
    Ok(out)
}
