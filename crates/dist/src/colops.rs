//! [`ColCollection`]: a hash-partitioned collection whose partitions are
//! typed [`Batch`]es, and the engine's whole operator suite over it.
//!
//! Every operator computes what the reference evaluator defines on the
//! equivalent `Value` rows (the differential suites in `trance-compiler`
//! hold every plan to `nrc::eval`) while executing over column buffers:
//!
//! * row-local operators run as fused pipelines
//!   ([`ColCollection::run_pipeline`]) of batch-at-a-time steps: the
//!   compiler's kernel programs for projections/extensions/selections, scan
//!   renaming (`alias.field`, a schema rewrite — zero data movement),
//!   [`unique_ids_batch`] and [`unnest_batch`] (parent columns gathered by
//!   fan-out index and the bag column's child batch spliced in, all offset
//!   arithmetic);
//! * joins gather matched rows from both sides by index lists: an inner
//!   join's output row is the left row with the whole right row laid over
//!   it, a re-nesting join's is every left row once with the group it
//!   matched — or `{}` — gathered into its bag attribute;
//! * shuffles meter **exact physical buffer bytes** — what each (source
//!   chunk, target) batch weighs on the wire, schema and string dictionary
//!   counted once per such batch — next to the row-equivalent logical
//!   estimate (`Σ Value::mem_size` of the same rows).
//!
//! ## Keys
//!
//! The breakers never box a key per row. Shuffle routing, Grace salting,
//! join build/probe, `Γ+`, `Γ⊎` and heavy-key counting all go through
//! `keys.rs`: the key columns are resolved once per batch and hashed
//! into one `Vec<u64>` plus a validity mask, and chained index tables over
//! row numbers do the matching and grouping with typed, column-wise equality
//! on collision. That module states the contract — the hash **is** the
//! partition hash of the boxed key, a row is valid when no key lane is NULL
//! or absent, equality is `Value::cmp`'s — and where the by-reference
//! fallback applies (`Other` key columns such as labels; sum columns that
//! are not `Int`/`Real`). What follows from it here:
//!
//! * an inner join's shuffle ships only valid rows — nothing is filtered
//!   into a copy first — while a grouping's shuffle and a re-nesting join's
//!   left side ship every row, NULL standing in for a NULL or absent lane;
//! * a shuffle builds no (source, target) piece: a source routes each chunk
//!   into per-target row lists with one counting sort over its hash vector
//!   and meters those *selections* in place, and each target builds its
//!   partition on the worker pool with one n-way [`Batch::merge`] of the
//!   selections addressed to it (see `batch.rs`, "Data movement"); a
//!   selection is gathered only where a batch has to exist — a frame for
//!   another rank, a chunk for a spill file;
//! * `Γ+` accumulates into typed `i64`/`f64` slots with `numeric_add`'s
//!   semantics and, like `Γ⊎`, emits `take(first row of each group)` for the
//!   key columns next to directly built sum / bag columns;
//! * skew handling counts and holds back by the routing hash alone (`keys.rs`,
//!   "Heavy keys are hashes"), so a key is always held back whole;
//! * partition assignment, logical and physical shuffle bytes and output
//!   row order are exactly those of the boxed definition.
//!
//! Broadcast planning and the simulated per-worker memory cap use the
//! *logical* (row-equivalent) sizes on purpose: plans and the paper's FAIL
//! runs depend on the data, not on how compactly a batch encodes it.
//!
//! ## Placement
//!
//! A collection may carry a [`Placement`] — *the rows it covers of partition
//! `p` hash to `p`*: `hash(columns) mod partitions == p` under the one
//! key-hash law of `keys.rs` (`Value::Null` standing in for a NULL or absent
//! lane) and the context's partition count. A breaker whose input is already
//! placed the way it would route it **does not shuffle that input**: a join
//! side placed by exactly its key list, a grouping placed by any subset of
//! its key (rows that agree on the key agree on the subset, so every group
//! already sits in one partition). A shuffle that does not run books nothing
//! in the shuffle counters; it is counted in `shuffles_in_place`.
//!
//! * **Set** by what shuffles: [`ColCollection::nest_sum`] /
//!   [`ColCollection::nest_bag`] (by the columns the shuffle hashed by — the
//!   key, or the `place_by` subset of the `*_placed` variants; a grouping
//!   that found its input in place passes that placement on) and the shuffle
//!   join (by its left key, unless the join could overwrite a key column
//!   with another value).
//! * **Kept** across [`ColCollection::with_context`] and spilling (a partition
//!   is the same rows in memory or on disk). A caller
//!   that knows what a batch transform did to the placed columns — the
//!   compiler's per-plan-node carry rule, the only one —
//!   re-attaches the carried placement with
//!   [`ColCollection::with_placement`]; a rename rewrites the names.
//! * **Cleared** by everything else: [`ColCollection::map_batches`] and
//!   [`ColCollection::run_pipeline`] (an unknown transform may overwrite a
//!   placed column), [`ColCollection::union`], a broadcast join, a
//!   skew-aware join that held rows back, [`ColCollection::distinct`].
//!
//! **Rows with a NULL or absent key lane.** A grouping's shuffle and a
//! re-nesting join's left side ship them to the stand-in's partition; an
//! inner join's shuffle drops them, since they can never match. Either way a
//! placement covers *every* row of the collection, and a side found in place
//! keeps its invalid-key rows: the probe matches none of them, so an inner
//! join drops them there and a re-nesting join gives them `{}`.
//!
//! **Rank safety.** Skipping a shuffle skips a cluster collective, so every
//! rank must skip the same ones. A placement therefore derives only from the
//! plan (operator kinds, key lists, the [`JoinSpec`]) and from facts every
//! rank agrees on (the cluster-wide broadcast decision, the merged loads and
//! heavy-hash counts) — never from rank-local data such as an empty
//! partition, a schema only this rank saw, or "no NULL key arrived here".
//!
//! ## Out-of-core execution
//!
//! With the spill subsystem enabled ([`crate::ClusterConfig::with_spill`] +
//! a worker memory cap), a partition is either **resident** (an in-memory
//! batch) or **spilled** (chunked frames in a `trance-store` spill file),
//! and memory pressure spills instead of failing:
//!
//! * **materialize-time governor** — after every operator, the
//!   [`trance_store::MemoryGovernor`] picks victim partitions (largest first
//!   per overloaded worker) and writes them to disk;
//! * **spilling shuffle writers** — a receiving shuffle partition whose
//!   selections exceed its share of worker memory is gathered and written
//!   frame by frame instead of merged in memory;
//! * **external (Grace-style) hash join** — a co-partitioned join whose
//!   inputs exceed the operator budget sub-partitions both sides by a salted
//!   key hash into on-disk buckets and joins the bucket pairs one at a time;
//! * **spilling grouping** — `nest_bag` / `nest_sum` finalization over an
//!   oversized partition sub-partitions by grouping-key hash the same way
//!   (groups never span buckets);
//! * row-local operators (fused pipelines, `map_batches` and broadcast-join
//!   probes) stream spilled inputs chunk by chunk and overflow their outputs
//!   back to disk once they outgrow the partition budget.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use trance_nrc::{Bag, Tuple, Value};
use trance_store::{ByteReader, ByteWriter, MemoryGovernor, Spillable};

use crate::batch::{Batch, Bitmap, Column, FieldHint, RowSel, SelScratch};
use crate::error::{ExecError, Result};
use crate::exchange::{owned_range, owner_of_partition, Exchange};
use crate::join::{JoinKind, JoinSpec};
use crate::keys::{group_rows, KeyCols, KeyHashes, RowTable};
use crate::ops::DistCollection;
use crate::partition::{hash_value, run_partitioned, run_partitioned_unmetered, PartRows};
use crate::scheduler::MorselCtx;
use crate::spill::{batch_frames, read_batches, spill_batch, SpillChunkWriter, SpilledBatches};
use crate::stats::JoinStrategy;
use crate::{DistContext, JoinHint};

/// Target rows per morsel: resident partitions larger than this split into
/// row-range morsels so the worker pool can balance (and steal) within a
/// partition; spilled partitions already stream in bounded frames.
pub const MORSEL_ROWS: usize = 4096;

// ---------------------------------------------------------------------------
// partitions: resident or spilled
// ---------------------------------------------------------------------------

/// One partition of a [`ColCollection`]: resident in memory or spilled to a
/// frame file on disk.
#[derive(Debug, Clone)]
pub(crate) enum ColPart {
    /// Resident batch.
    Mem(Batch),
    /// Disk-resident partition (shared so clones of the collection share one
    /// file; the file is deleted when the last reference drops).
    Spilled(Arc<SpilledBatches>),
}

impl ColPart {
    fn rows(&self) -> usize {
        match self {
            ColPart::Mem(b) => b.rows(),
            ColPart::Spilled(s) => s.rows(),
        }
    }

    /// Bytes currently held in worker memory (0 for spilled partitions).
    fn resident_bytes(&self) -> usize {
        match self {
            ColPart::Mem(b) => b.logical_bytes(),
            ColPart::Spilled(_) => 0,
        }
    }

    fn logical_bytes(&self) -> usize {
        match self {
            ColPart::Mem(b) => b.logical_bytes(),
            ColPart::Spilled(s) => s.logical_bytes(),
        }
    }

    fn physical_bytes(&self) -> usize {
        match self {
            ColPart::Mem(b) => b.physical_bytes(),
            ColPart::Spilled(s) => s.physical_bytes(),
        }
    }

    /// The whole partition as one batch (reads spilled partitions back).
    fn batch<'a>(&'a self, ctx: &DistContext) -> Result<Cow<'a, Batch>> {
        match self {
            ColPart::Mem(b) => Ok(Cow::Borrowed(b)),
            ColPart::Spilled(s) => Ok(Cow::Owned(read_batches(ctx, s)?)),
        }
    }

    /// Streams the partition chunk by chunk without materializing it whole.
    fn chunks<'a>(&'a self, ctx: &'a DistContext) -> Result<ColChunks<'a>> {
        Ok(match self {
            ColPart::Mem(b) => ColChunks::Mem(Some(b)),
            ColPart::Spilled(s) => ColChunks::Spilled(batch_frames(ctx, s)?),
        })
    }
}

impl PartRows for ColPart {
    fn part_rows(&self) -> usize {
        self.rows()
    }
}

/// Chunk iterator over one partition (see [`ColPart::chunks`]).
pub(crate) enum ColChunks<'a> {
    Mem(Option<&'a Batch>),
    Spilled(crate::spill::BatchFrames<'a>),
}

impl Iterator for ColChunks<'_> {
    type Item = Result<Batch>;

    fn next(&mut self) -> Option<Result<Batch>> {
        match self {
            ColChunks::Mem(slot) => slot.take().map(|b| Ok(b.clone())),
            ColChunks::Spilled(frames) => frames.next(),
        }
    }
}

/// The per-partition resident budget: one worker owns
/// `ceil(partitions / workers)` partitions, so a single partition may keep
/// about that share of the worker cap in memory before overflowing to disk.
fn part_budget(ctx: &DistContext) -> usize {
    let limit = ctx.config().worker_memory.unwrap_or(usize::MAX);
    let per_worker = ctx
        .config()
        .partitions
        .max(1)
        .div_ceil(ctx.config().workers.max(1));
    (limit / per_worker.max(1)).max(1)
}

/// The memory governor of `ctx`'s cluster shape (uncapped clusters get an
/// unbounded one).
fn governor(ctx: &DistContext) -> MemoryGovernor {
    MemoryGovernor::new(
        ctx.config().worker_memory.unwrap_or(usize::MAX),
        ctx.config().workers,
    )
}

/// The working-set budget of one operator execution (a worker processes one
/// partition at a time) — the governor's policy, defined once in
/// [`MemoryGovernor::operator_budget`].
fn op_budget(ctx: &DistContext) -> usize {
    governor(ctx).operator_budget()
}

/// Accumulates operator output chunks for one partition: stays in memory
/// until the partition budget is exceeded, then overflows every chunk to a
/// spill file — the write side of every streaming operator.
struct PartBuilder<'a> {
    ctx: &'a DistContext,
    budget: usize,
    mem: Vec<Batch>,
    mem_logical: usize,
    writer: Option<SpillChunkWriter>,
}

impl<'a> PartBuilder<'a> {
    fn new(ctx: &'a DistContext) -> PartBuilder<'a> {
        let budget = if ctx.spill_active() {
            part_budget(ctx)
        } else {
            usize::MAX
        };
        PartBuilder {
            ctx,
            budget,
            mem: Vec::new(),
            mem_logical: 0,
            writer: None,
        }
    }

    fn push(&mut self, chunk: Batch) -> Result<()> {
        if crate::spill::batch_is_void(&chunk) {
            return Ok(());
        }
        if let Some(writer) = self.writer.as_mut() {
            return writer.push(self.ctx, &chunk);
        }
        self.mem_logical += chunk.logical_bytes();
        self.mem.push(chunk);
        if self.mem_logical > self.budget {
            // Overflow: move everything accumulated so far to disk.
            let mut writer = SpillChunkWriter::new(self.ctx)?;
            for chunk in self.mem.drain(..) {
                writer.push(self.ctx, &chunk)?;
            }
            self.mem_logical = 0;
            self.writer = Some(writer);
        }
        Ok(())
    }

    fn finish(self) -> Result<ColPart> {
        match self.writer {
            Some(writer) => Ok(ColPart::Spilled(Arc::new(writer.finish(self.ctx)?))),
            None => Ok(ColPart::Mem(Batch::concat(&self.mem))),
        }
    }
}

/// How a collection's rows sit in its partitions: hashed by `columns` (see
/// the module docs, "Placement").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    columns: Vec<String>,
}

impl Placement {
    /// Rows hashed by `columns`; `None` for an empty list (one partition
    /// holds everything, which no breaker is planned around).
    fn hashed_by(columns: &[String]) -> Option<Placement> {
        (!columns.is_empty()).then(|| Placement {
            columns: columns.to_vec(),
        })
    }

    /// The columns the rows are hashed by, in hash order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The placement after a row-local transform under which input column
    /// `c` is output column `carry(c)`, unchanged in value. A column the
    /// transform dropped or overwrote (`None`) voids the placement.
    pub fn carried(&self, carry: impl Fn(&str) -> Option<String>) -> Option<Placement> {
        let columns = self
            .columns
            .iter()
            .map(|c| carry(c))
            .collect::<Option<_>>()?;
        Some(Placement { columns })
    }
}

/// A distributed collection of columnar [`Batch`]es, one per hash partition.
#[derive(Clone)]
pub struct ColCollection {
    ctx: DistContext,
    parts: Arc<Vec<ColPart>>,
    placement: Option<Placement>,
}

impl std::fmt::Debug for ColCollection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColCollection")
            .field("partitions", &self.parts.len())
            .field("rows", &self.len())
            .field("placement", &self.placement)
            .finish()
    }
}

impl ColCollection {
    fn from_parts(ctx: DistContext, parts: Vec<Batch>) -> Self {
        ColCollection::from_col_parts(ctx, parts.into_iter().map(ColPart::Mem).collect())
    }

    fn from_col_parts(ctx: DistContext, parts: Vec<ColPart>) -> Self {
        ColCollection {
            ctx,
            parts: Arc::new(parts),
            placement: None,
        }
    }

    /// Wraps freshly produced operator output, enforcing the per-worker
    /// memory cap (on row-equivalent bytes). With spilling enabled, the
    /// memory governor picks victim partitions and they go to disk instead
    /// of the run failing.
    fn materialize(ctx: DistContext, parts: Vec<Batch>) -> Result<Self> {
        ColCollection::materialize_parts(ctx, parts.into_iter().map(ColPart::Mem).collect())
    }

    fn materialize_parts(ctx: DistContext, mut parts: Vec<ColPart>) -> Result<Self> {
        if ctx.spill_active() {
            let sizes: Vec<usize> = parts.iter().map(ColPart::resident_bytes).collect();
            for victim in governor(&ctx).plan_spills(&sizes) {
                if let ColPart::Mem(batch) = &parts[victim] {
                    parts[victim] = ColPart::Spilled(Arc::new(spill_batch(&ctx, batch)?));
                }
            }
        } else {
            enforce_memory_col(&ctx, &parts)?;
        }
        Ok(ColCollection::from_col_parts(ctx, parts))
    }

    /// Converts a row collection into batches, partition-parallel on the
    /// worker pool — the **scan ingest** boundary, one of the two places
    /// (with [`ColCollection::to_rows`]) where the columnar route touches row
    /// values. The compiler's table store calls it **once per stored table**,
    /// at registration. `hints` come from the plan-layer schema and type
    /// columns the sampled values alone could not. Batches typed from `hints`
    /// ([`DistCollection::from_batches`]) are a pointer copy; other
    /// batches are re-typed, their rows built for the conversion alone.
    /// Ingest is unmetered — no operator timing or steal count — matching
    /// the paper's exclusion of input loading.
    pub fn ingest(coll: &DistCollection, hints: &[FieldHint]) -> Result<ColCollection> {
        let ctx = coll.context();
        let hinted = |rows: &[Value]| {
            let refs: Vec<&Value> = rows.iter().collect();
            Ok(Batch::from_row_refs_hinted(&refs, hints))
        };
        let parts = match coll.batches() {
            Some((batches, Some(typed))) if typed == hints => batches.to_vec(),
            Some((batches, _)) => {
                run_partitioned_unmetered(ctx, batches, |_, b| hinted(&b.to_rows()))?
            }
            None => run_partitioned_unmetered(ctx, coll.partitions(), |_, rows| hinted(rows))?,
        };
        Ok(ColCollection::from_parts(ctx.clone(), parts))
    }

    /// An empty columnar collection over this context's partitions.
    pub fn empty(ctx: &DistContext) -> ColCollection {
        ColCollection::from_parts(
            ctx.clone(),
            vec![Batch::empty(); ctx.config().partitions.max(1)],
        )
    }

    /// A collection holding `batch` in partition 0 (the columnar counterpart
    /// of parallelizing a tiny constant input such as the plan `Unit`).
    pub fn single(ctx: &DistContext, batch: Batch) -> ColCollection {
        let nparts = ctx.config().partitions.max(1);
        let mut parts = vec![Batch::empty(); nparts];
        parts[0] = batch;
        ColCollection::from_parts(ctx.clone(), parts)
    }

    /// The owning context.
    pub fn context(&self) -> &DistContext {
        &self.ctx
    }

    /// Rebinds the collection to another context sharing the same worker
    /// pool (a [`DistContext::session`]): partitions are Arc-shared (spilled
    /// partitions own their files, so they stay readable), and subsequent
    /// operators meter their stats, honour the memory budget and observe the
    /// cancellation token of `ctx` — the serving layer's per-query isolation.
    pub fn with_context(&self, ctx: &DistContext) -> ColCollection {
        ColCollection {
            ctx: ctx.clone(),
            parts: self.parts.clone(),
            placement: self.placement.clone(),
        }
    }

    /// How the rows are placed, when that is known (module docs,
    /// "Placement").
    pub fn placement(&self) -> Option<&Placement> {
        self.placement.as_ref()
    }

    /// The same partitions under `placement`. The caller vouches for it: the
    /// rows were produced partition for partition from a collection placed
    /// that way, by a transform that left the placed columns' values alone
    /// ([`Placement::carried`]). Debug builds check every row of a claim
    /// that speaks of this context's partition count here, where it is
    /// made, and the panic names the caller's source line.
    #[track_caller]
    pub fn with_placement(mut self, placement: Option<Placement>) -> ColCollection {
        self.placement = placement;
        if cfg!(debug_assertions) {
            if let Some(claim) = self.usable_placement() {
                // A spilled partition that cannot be read back is the
                // consuming operator's error to report.
                let _ = self.assert_placed(claim.columns());
            }
        }
        self
    }

    /// The placement, when it is one a breaker can rely on: it speaks of
    /// this context's partition count.
    fn usable_placement(&self) -> Option<&Placement> {
        let nparts = self.ctx.config().partitions.max(1);
        self.placement
            .as_ref()
            .filter(|_| self.parts.len() == nparts)
    }

    /// True when a shuffle by `keys` would move no row.
    fn placed_by(&self, keys: &[String]) -> bool {
        self.usable_placement().is_some_and(|p| p.columns == keys)
    }

    /// Books one shuffle answered in place under the operator's context
    /// `ctx` — rows hashed by `columns` stay where they are — and, in debug
    /// builds, checks every row.
    fn stays_in_place(&self, ctx: &DistContext, columns: &[String]) -> Result<()> {
        ctx.stats().record_shuffle_in_place();
        if cfg!(debug_assertions) {
            self.assert_placed(columns)?;
        }
        Ok(())
    }

    /// Panics unless `hash(columns) mod partitions == p` for every row of
    /// every partition `p`.
    #[track_caller]
    fn assert_placed(&self, columns: &[String]) -> Result<()> {
        let nparts = self.parts.len() as u64;
        for (p, part) in self.parts.iter().enumerate() {
            for chunk in part.chunks(&self.ctx)? {
                let chunk = chunk?;
                let keys = KeyCols::resolve(&chunk, columns).hashes();
                for (i, h) in keys.hashes.iter().enumerate() {
                    assert!(
                        h % nparts == p as u64,
                        "rows claimed to be hashed by {columns:?} are not: \
                         row {i} of partition {p} hashes to partition {}: {:?}",
                        h % nparts,
                        chunk.row_value(i),
                    );
                }
            }
        }
        Ok(())
    }

    /// The partitions loaded as batches (spilled partitions are read back;
    /// resident ones are borrowed). For consumers that genuinely need every
    /// partition at once — streaming consumers use
    /// [`ColCollection::for_each_batch`] instead.
    pub fn batches(&self) -> Result<Vec<Cow<'_, Batch>>> {
        self.parts.iter().map(|p| p.batch(&self.ctx)).collect()
    }

    /// Streams every partition chunk by chunk: at most one decoded spill
    /// frame is resident at a time, so schema inspection over spilled
    /// collections does not re-materialize what the memory cap evicted.
    pub fn for_each_batch(&self, mut f: impl FnMut(&Batch) -> Result<()>) -> Result<()> {
        for part in self.parts.iter() {
            for chunk in part.chunks(&self.ctx)? {
                f(&chunk?)?;
            }
        }
        Ok(())
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.parts.len()
    }

    /// Number of partitions currently spilled to disk.
    pub fn spilled_partitions(&self) -> usize {
        self.parts
            .iter()
            .filter(|p| matches!(p, ColPart::Spilled(_)))
            .count()
    }

    /// Total number of rows.
    pub fn len(&self) -> usize {
        self.parts.iter().map(ColPart::rows).sum()
    }

    /// True when no partition holds rows.
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(|p| p.rows() == 0)
    }

    /// Row-equivalent (logical) bytes across all partitions — what the same
    /// rows would occupy in the row representation. Drives broadcast
    /// planning and the memory cap.
    pub fn logical_bytes(&self) -> usize {
        self.parts.iter().map(ColPart::logical_bytes).sum()
    }

    /// The logical size planning decisions must use: the cluster-wide sum
    /// when a multi-process exchange is installed (every rank has to pick
    /// the same plan), [`ColCollection::logical_bytes`] otherwise.
    pub fn planning_bytes(&self) -> Result<usize> {
        self.ctx.planning_bytes(self.logical_bytes())
    }

    /// Exact physical buffer bytes across all partitions.
    pub fn physical_bytes(&self) -> usize {
        self.parts.iter().map(ColPart::physical_bytes).sum()
    }

    /// Hands the result over at the **collect** boundary: a result is its
    /// batches, and its rows are built once, on demand, by the returned
    /// [`DistCollection`]. Resident partitions are pointer copies; spilled
    /// ones are read back here, through the same unmetered
    /// partition-parallel helper as [`ColCollection::ingest`], so every
    /// fallible read happens where its error can be returned.
    pub fn to_rows(&self) -> Result<DistCollection> {
        self.ctx.check_cancel()?;
        let batches = run_partitioned_unmetered(&self.ctx, &self.parts, |_, part| {
            Ok(part.batch(&self.ctx)?.into_owned())
        })?;
        Ok(DistCollection::from_batches(&self.ctx, batches, None))
    }

    /// Gathers every row into a [`Bag`].
    pub fn collect_bag(&self) -> Result<Bag> {
        let mut items = Vec::with_capacity(self.len());
        for part in self.parts.iter() {
            for chunk in part.chunks(&self.ctx)? {
                items.extend(chunk?.to_rows());
            }
        }
        Ok(Bag::new(items))
    }

    /// Times `f` under operator name `op` in the context stats.
    pub(crate) fn timed<T>(&self, op: &str, f: impl FnOnce() -> Result<T>) -> Result<T> {
        let start = Instant::now();
        let out = f();
        self.ctx.stats().record_op(op, start.elapsed());
        out
    }

    /// Applies a whole-batch, row-local transform to every partition
    /// (partition-parallel, no shuffle), timed under operator name `op`: one
    /// materialization per call, where a fused pipeline
    /// ([`ColCollection::run_pipeline`]) runs a chain of such steps per
    /// morsel. Spilled partitions stream chunk by chunk; oversized outputs
    /// overflow back to disk.
    pub fn map_batches<F>(&self, op: &str, f: F) -> Result<ColCollection>
    where
        F: Fn(&Batch) -> Result<Batch> + Send + Sync,
    {
        self.timed(op, || {
            let parts = run_partitioned(&self.ctx, &self.parts, |_, part| {
                let mut builder = PartBuilder::new(&self.ctx);
                for chunk in part.chunks(&self.ctx)? {
                    builder.push(f(&chunk?)?)?;
                }
                builder.finish()
            })?;
            ColCollection::materialize_parts(self.ctx.clone(), parts)
        })
    }

    /// Bag union: partitions are concatenated pairwise, no data moves.
    /// Pairs involving a spilled partition are streamed into a fresh spill
    /// file instead of being materialized.
    pub fn union(&self, other: &ColCollection) -> Result<ColCollection> {
        self.timed("union", || {
            let n = self.parts.len().max(other.parts.len());
            let empty = ColPart::Mem(Batch::empty());
            let mut parts = Vec::with_capacity(n);
            for i in 0..n {
                let a = self.parts.get(i).unwrap_or(&empty);
                let b = other.parts.get(i).unwrap_or(&empty);
                match (a, b) {
                    (ColPart::Mem(a), ColPart::Mem(b)) => {
                        parts.push(ColPart::Mem(Batch::concat(&[a.clone(), b.clone()])));
                    }
                    _ => {
                        let mut builder = PartBuilder::new(&self.ctx);
                        for side in [a, b] {
                            for chunk in side.chunks(&self.ctx)? {
                                builder.push(chunk?)?;
                            }
                        }
                        parts.push(builder.finish()?);
                    }
                }
            }
            ColCollection::materialize_parts(self.ctx.clone(), parts)
        })
    }

    /// Distinct rows (set semantics): shuffles by row hash so equal rows meet
    /// in one partition, then deduplicates per partition.
    pub fn distinct(&self) -> Result<ColCollection> {
        self.timed("distinct", || {
            let shuffled = shuffle_batches(&self.ctx, &self.parts, |b| {
                Ok(KeyHashes {
                    hashes: (0..b.rows()).map(|i| hash_value(&b.row_value(i))).collect(),
                    valid: None,
                })
            })?;
            let parts = run_partitioned(&self.ctx, &shuffled, |_, part| {
                let b = part.batch(&self.ctx)?;
                let mut seen: HashSet<Value> = HashSet::with_capacity(b.rows());
                let mut keep: Vec<usize> = Vec::new();
                for i in 0..b.rows() {
                    if seen.insert(b.row_value(i)) {
                        keep.push(i);
                    }
                }
                Ok(b.take(&keep))
            })?;
            ColCollection::materialize(self.ctx.clone(), parts)
        })
    }

    /// The `Γ+` aggregation over columns: map-side partial aggregation, a
    /// shuffle of the (small) partial batches by key hash, and a final
    /// reduce. Semantics mirror the reference evaluator's `sumBy` (integer
    /// sums stay integral, NULL contributes nothing, an all-NULL group
    /// finalizes to 0). An input already placed by a subset of `key` is
    /// aggregated where it is.
    pub fn nest_sum(&self, key: &[String], values: &[String]) -> Result<ColCollection> {
        self.nest_sum_placed(key, values, key)
    }

    /// [`ColCollection::nest_sum`] whose shuffle hashes by `place_by`, a
    /// non-empty subset of `key`: the groups are the same, and the output is
    /// placed for a consumer keyed by `place_by` (module docs, "Placement").
    pub fn nest_sum_placed(
        &self,
        key: &[String],
        values: &[String],
        place_by: &[String],
    ) -> Result<ColCollection> {
        self.timed("nest_sum", || {
            // Map-side partials: one typed accumulation per chunk,
            // re-aggregated across chunks (algebraic aggregation: chunk order
            // cannot matter).
            let partials = run_partitioned(&self.ctx, &self.parts, |_, part| {
                sum_chunks(part.chunks(&self.ctx)?, key, values)
            })?;
            let partials = partials.into_iter().map(ColPart::Mem).collect();
            self.grouped(Cow::Owned(partials), key, place_by, |b| {
                sum_batch(b, key, values, true)
            })
        })
    }

    /// The `Γ⊎` grouping over columns: rows shuffle by key hash, then each
    /// partition groups and emits one row per group whose `out_attr` is an
    /// offset-encoded bag column over the projected value columns. An input
    /// already placed by a subset of `key` is grouped where it is.
    pub fn nest_bag(
        &self,
        key: &[String],
        value_attrs: &[String],
        out_attr: &str,
    ) -> Result<ColCollection> {
        self.nest_bag_placed(key, value_attrs, out_attr, key)
    }

    /// [`ColCollection::nest_bag`] whose shuffle hashes by `place_by`, a
    /// non-empty subset of `key` (see [`ColCollection::nest_sum_placed`]).
    pub fn nest_bag_placed(
        &self,
        key: &[String],
        value_attrs: &[String],
        out_attr: &str,
        place_by: &[String],
    ) -> Result<ColCollection> {
        self.timed("nest_bag", || {
            self.grouped(Cow::Borrowed(&self.parts[..]), key, place_by, |b| {
                nest_bag_batch(b, key, value_attrs, out_attr)
            })
        })
    }

    /// The shared body of the groupings over `parts` — this collection's
    /// partitions, or what a map-side pass made of them one for one. They
    /// stay where they are when the collection's placement already keeps
    /// every group in one partition, and shuffle by the hash of `place_by`
    /// otherwise; then `finalize` groups each partition. The output is placed
    /// by what its rows were routed by, either way.
    fn grouped(
        &self,
        parts: Cow<'_, [ColPart]>,
        key: &[String],
        place_by: &[String],
        finalize: impl Fn(&Batch) -> Result<Batch> + Send + Sync,
    ) -> Result<ColCollection> {
        if place_by.is_empty() != key.is_empty() || place_by.iter().any(|c| !key.contains(c)) {
            return Err(ExecError::Other(format!(
                "a grouping by {key:?} cannot be placed by {place_by:?}: not a subset of its key"
            )));
        }
        let in_place = self
            .usable_placement()
            .filter(|p| p.columns.iter().all(|c| key.contains(c)));
        let (parts, placement) = match in_place {
            Some(p) => {
                self.stays_in_place(&self.ctx, &p.columns)?;
                (parts, Some(p.clone()))
            }
            None => (
                Cow::Owned(shuffle_batches(
                    &self.ctx,
                    &parts,
                    route_by(place_by, true),
                )?),
                Placement::hashed_by(place_by),
            ),
        };
        let parts = run_partitioned(&self.ctx, &parts, |_, part| {
            self.grouped_part(part, key, &finalize)
        })?;
        Ok(ColCollection::materialize_parts(self.ctx.clone(), parts)?.with_placement(placement))
    }

    /// Runs a grouping finalizer over one co-partitioned-by-key partition.
    /// Oversized partitions go out-of-core: rows are sub-partitioned by a
    /// salted hash of the grouping key into on-disk buckets (groups never
    /// span buckets) and each bucket is finalized independently.
    fn grouped_part(
        &self,
        part: &ColPart,
        key: &[String],
        finalize: impl Fn(&Batch) -> Result<Batch>,
    ) -> Result<ColPart> {
        let ctx = &self.ctx;
        let budget = op_budget(ctx);
        if !ctx.spill_active() || part.logical_bytes() <= budget {
            return Ok(ColPart::Mem(finalize(part.batch(ctx)?.as_ref())?));
        }
        let fanout = grace_fanout(part.logical_bytes(), budget);
        let buckets = spill_split(ctx, part, fanout, key)?;
        let mut builder = PartBuilder::new(ctx);
        for bucket in &buckets {
            let b = read_batches(ctx, bucket)?;
            builder.push(finalize(&b)?)?;
        }
        builder.finish()
    }

    /// Distributed equi-join following `spec`. Planning: a hinted strategy
    /// is taken as given; otherwise a side that fits under the cluster
    /// broadcast limit (by logical size) is replicated to every worker and
    /// joined in place — only the right side for a re-nesting join, whose
    /// every left row must be probed once — and failing that both sides
    /// shuffle by key hash and each partition pair hash-joins.
    pub fn join(&self, right: &ColCollection, spec: &JoinSpec) -> Result<ColCollection> {
        self.timed("join", || join_impl_col(self, right, spec, false))
    }

    /// Skew-aware equi-join (Section 5): [`ColCollection::join`] with the
    /// heavy rows of its shuffle held back — their left rows stay in their
    /// partitions and the matching right rows are broadcast to them (every
    /// row ships, as a skew fallback, if those exceed the broadcast limit).
    /// A broadcast join, or a left side placed by the key, moves no left row
    /// and runs as `join`.
    pub fn skew_join(&self, right: &ColCollection, spec: &JoinSpec) -> Result<ColCollection> {
        self.timed("skew_join", || join_impl_col(self, right, spec, true))
    }

    /// Skew-aware `Γ+`: [`ColCollection::nest_sum`] itself. Its map-side
    /// partial aggregation already ships at most one row per source
    /// partition per key, so a heavy key cannot overload the partition its
    /// hash lands on, and splitting heavy keys off would only add a sample,
    /// a second aggregation and an unplaced union.
    pub fn nest_sum_skew(&self, key: &[String], values: &[String]) -> Result<ColCollection> {
        self.nest_sum(key, values)
    }

    /// Runs a **fused operator pipeline** morsel-by-morsel on the context's
    /// persistent worker pool: `step` is the batch-at-a-time closure the
    /// compiler fused out of a chain of row-local plan operators
    /// (scan-rename / select / project / extend / unnest / id assignment).
    ///
    /// Each partition feeds its own spill-aware `PartBuilder` sink, so
    /// partition alignment is preserved for downstream breakers and
    /// oversized outputs overflow to disk exactly like a breaker's.
    /// When the partition count is too small to keep every worker busy
    /// (fewer than twice the workers), resident partitions larger than
    /// [`MORSEL_ROWS`] additionally split into row-range morsels executed as
    /// independent tasks (a reorder buffer re-assembles them in source
    /// order, so a split partition is row for row the unsplit one);
    /// with ample partitions the whole partition is one morsel — slicing
    /// would cost a gather without buying parallelism. Spilled partitions
    /// stream their frames inside one task either way.
    ///
    /// With `sequential` set (the chain assigns per-partition unique ids),
    /// every partition runs as a single task driving its chunks in order
    /// through a [`MorselCtx`] whose counters number the partition's rows
    /// `0, 1, 2, …` however many chunks it streams in.
    ///
    /// The run is metered as one [`crate::PipelineTiming`] under `label`
    /// with the fused `ops` member list — never as individual member
    /// operators.
    pub fn run_pipeline<F>(
        &self,
        label: &str,
        ops: &[String],
        sequential: bool,
        step: F,
    ) -> Result<ColCollection>
    where
        F: Fn(&Batch, &mut MorselCtx) -> Result<Batch> + Send + Sync,
    {
        let start = Instant::now();
        let ctx = &self.ctx;
        let nparts = self.parts.len().max(1);
        let stride = nparts as i64;
        let morsels = AtomicU64::new(0);
        // Intra-partition splitting only pays when partitions are scarce
        // relative to workers; otherwise a partition is one morsel.
        let split = nparts < 2 * ctx.config().workers.max(1);
        let sinks: Vec<Mutex<ColMorselSink<'_>>> = (0..self.parts.len())
            .map(|_| Mutex::new(ColMorselSink::new(ctx)))
            .collect();

        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
        for (p, part) in self.parts.iter().enumerate() {
            let sink = &sinks[p];
            let step = &step;
            let morsels = &morsels;
            match part {
                // One task per partition: spilled frames must be read in
                // order, and sequential pipelines thread a running cursor.
                ColPart::Spilled(_) => tasks.push(Box::new(move || {
                    let mut cx = MorselCtx::new(p, stride);
                    let mut next = 0usize;
                    let mut run = || -> Result<()> {
                        for chunk in part.chunks(ctx)? {
                            morsels.fetch_add(1, Ordering::Relaxed);
                            let out = run_morsel(ctx, &step, &chunk?, &mut cx)?;
                            lock_sink(sink).push(next, out);
                            next += 1;
                        }
                        Ok(())
                    };
                    if let Err(e) = run() {
                        lock_sink(sink).fail(e);
                    }
                })),
                ColPart::Mem(batch) if sequential || !split || batch.rows() <= MORSEL_ROWS => tasks
                    .push(Box::new(move || {
                        let mut cx = MorselCtx::new(p, stride);
                        morsels.fetch_add(1, Ordering::Relaxed);
                        match run_morsel(ctx, &step, batch, &mut cx) {
                            Ok(out) => lock_sink(sink).push(0, out),
                            Err(e) => lock_sink(sink).fail(e),
                        }
                    })),
                // Large resident partition: independent row-range morsels,
                // re-assembled in source order by the sink.
                ColPart::Mem(batch) => {
                    let chunks = batch.rows().div_ceil(MORSEL_ROWS);
                    for m in 0..chunks {
                        tasks.push(Box::new(move || {
                            let lo = m * MORSEL_ROWS;
                            let hi = ((m + 1) * MORSEL_ROWS).min(batch.rows());
                            let idx: Vec<usize> = (lo..hi).collect();
                            let morsel = batch.take(&idx);
                            let mut cx = MorselCtx::new(p, stride);
                            morsels.fetch_add(1, Ordering::Relaxed);
                            match run_morsel(ctx, &step, &morsel, &mut cx) {
                                Ok(out) => lock_sink(sink).push(m, out),
                                Err(e) => lock_sink(sink).fail(e),
                            }
                        }));
                    }
                }
            }
        }
        // Tiny pipelines run inline on the caller, like every other
        // operator below the parallel threshold.
        let total_rows: usize = self.parts.iter().map(ColPart::rows).sum();
        if ctx.config().workers.max(1) == 1 || total_rows < crate::partition::PARALLEL_THRESHOLD {
            for task in tasks {
                task();
            }
        } else {
            ctx.run_tasks(tasks);
        }

        let mut parts = Vec::with_capacity(self.parts.len());
        for (p, sink) in sinks.into_iter().enumerate() {
            // A sink poisoned by a panicking morsel holds unknown state; the
            // scope above re-raises that panic, so this is belt and braces.
            let sink = sink.into_inner().map_err(|_| {
                ExecError::Other(format!("pipeline sink of partition {p} was poisoned"))
            })?;
            parts.push(sink.finish()?);
        }
        ctx.stats()
            .record_pipeline(label, ops, morsels.load(Ordering::Relaxed), start.elapsed());
        ColCollection::materialize_parts(self.ctx.clone(), parts)
    }
}

/// Locks a pipeline sink, recovering the guard when a sibling morsel panicked
/// while holding it: the scope re-raises that *first* panic once every task
/// settled, and a second panic here would only mask it (the scheduler's
/// deques recover the same way).
fn lock_sink<'s, 'a>(sink: &'s Mutex<ColMorselSink<'a>>) -> MutexGuard<'s, ColMorselSink<'a>> {
    sink.lock().unwrap_or_else(|e| e.into_inner())
}

/// Executes one morsel of a fused pipeline after a cancellation check at
/// the morsel boundary.
fn run_morsel<F>(ctx: &DistContext, step: &F, batch: &Batch, cx: &mut MorselCtx) -> Result<Batch>
where
    F: Fn(&Batch, &mut MorselCtx) -> Result<Batch> + Send + Sync,
{
    ctx.check_cancel()?;
    step(batch, cx)
}

/// The per-partition sink of a fused pipeline run: morsel outputs arrive in
/// completion order, a reorder buffer releases them to the spill-aware
/// [`PartBuilder`] in **source order**, so a partition split into morsels
/// is row for row the unsplit one no matter how morsels were stolen.
struct ColMorselSink<'a> {
    builder: PartBuilder<'a>,
    next: usize,
    parked: BTreeMap<usize, Batch>,
    error: Option<ExecError>,
}

impl<'a> ColMorselSink<'a> {
    fn new(ctx: &'a DistContext) -> ColMorselSink<'a> {
        ColMorselSink {
            builder: PartBuilder::new(ctx),
            next: 0,
            parked: BTreeMap::new(),
            error: None,
        }
    }

    fn push(&mut self, idx: usize, batch: Batch) {
        if self.error.is_some() {
            return;
        }
        self.parked.insert(idx, batch);
        while let Some(batch) = self.parked.remove(&self.next) {
            if let Err(e) = self.builder.push(batch) {
                self.error = Some(e);
                self.parked.clear();
                return;
            }
            self.next += 1;
        }
    }

    /// Records the first failure; later morsels of the partition become
    /// no-ops (the error re-raises at `finish`).
    fn fail(&mut self, e: ExecError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    fn finish(mut self) -> Result<ColPart> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        debug_assert!(self.parked.is_empty(), "morsel indices must be contiguous");
        self.builder.finish()
    }
}

// ---------------------------------------------------------------------------
// shared helpers
// ---------------------------------------------------------------------------

fn tuple_rows_required(b: &Batch) -> Result<()> {
    if b.schema().is_opaque() && !b.is_empty() {
        return Err(ExecError::Other(
            "columnar operator requires tuple rows (opaque batch)".into(),
        ));
    }
    Ok(())
}

/// Enforces the simulated per-worker memory cap on freshly materialized
/// batches, charged in row-equivalent bytes (partition `i` to worker
/// `i % workers`). Only reached with spilling off; spilled partitions (left over
/// from a spill-enabled producer) still charge their logical size — turning
/// spilling off mid-pipeline does not grant free memory.
fn enforce_memory_col(ctx: &DistContext, parts: &[ColPart]) -> Result<()> {
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

/// Shuffle routing by the hash of `cols`: every row (a grouping, a
/// re-nesting join), NULL standing in for a NULL or absent lane, or only
/// the rows whose key is valid (an inner join: no other can match).
fn route_by(
    cols: &[String],
    every_row: bool,
) -> impl Fn(&Batch) -> Result<KeyHashes> + Send + Sync + '_ {
    move |b| {
        if !every_row {
            tuple_rows_required(b)?;
        }
        let keys = KeyCols::resolve(b, cols).hashes();
        let valid = keys.valid.filter(|_| !every_row);
        Ok(KeyHashes { valid, ..keys })
    }
}

/// The valid rows of one batch, listed per target: one counting sort over
/// the batch's hash vector, so routing allocates a fixed number of blocks
/// however many targets there are. Within a target, rows keep batch order.
struct RowLists {
    rows: Vec<usize>,
    /// Target `t`'s rows are `rows[bounds[t]..bounds[t + 1]]`.
    bounds: Vec<usize>,
}

impl RowLists {
    /// Lists row `i` of `keys`' valid rows under `target(hash) % targets`.
    fn route(keys: &KeyHashes, targets: usize, target: impl Fn(u64) -> u64) -> RowLists {
        let targets = targets.max(1);
        let of: Vec<u32> = keys
            .hashes
            .iter()
            .map(|h| (target(*h) % targets as u64) as u32)
            .collect();
        let valid = |i: &usize| keys.is_valid(*i);
        let mut bounds = vec![0usize; targets + 1];
        for i in (0..of.len()).filter(valid) {
            bounds[of[i] as usize + 1] += 1;
        }
        for t in 0..targets {
            bounds[t + 1] += bounds[t];
        }
        let mut next = bounds[..targets].to_vec();
        let mut rows = vec![0usize; bounds[targets]];
        for i in (0..of.len()).filter(valid) {
            let at = &mut next[of[i] as usize];
            rows[*at] = i;
            *at += 1;
        }
        RowLists { rows, bounds }
    }

    /// The rows routed to target `t`.
    fn of(&self, t: usize) -> &[usize] {
        &self.rows[self.bounds[t]..self.bounds[t + 1]]
    }
}

/// Salts a routing hash so Grace sub-partitioning decorrelates from the
/// cluster's partition hash (otherwise every row of one hash partition would
/// land in the same sub-bucket).
fn salted(h: u64) -> u64 {
    // splitmix64 finalizer.
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The Grace fan-out for `bytes` of input under an operator `budget`: sized
/// so each bucket fits the budget.
fn grace_fanout(bytes: usize, budget: usize) -> usize {
    (bytes / budget.max(1) + 1).next_power_of_two().clamp(2, 32)
}

/// Sub-partitions one partition into `fanout` on-disk buckets by the salted
/// hash of its `cols` key — the Grace fan-out shared by the external hash
/// join (both sides take the same `fanout`, so bucket pairs align) and the
/// spilling grouping.
fn spill_split(
    ctx: &DistContext,
    part: &ColPart,
    fanout: usize,
    cols: &[String],
) -> Result<Vec<SpilledBatches>> {
    let mut writers: Vec<SpillChunkWriter> = (0..fanout)
        .map(|_| SpillChunkWriter::new(ctx))
        .collect::<Result<_>>()?;
    for chunk in part.chunks(ctx)? {
        let b = chunk?;
        let lists = RowLists::route(&route_by(cols, true)(&b)?, fanout, salted);
        for (f, writer) in writers.iter_mut().enumerate() {
            if !lists.of(f).is_empty() {
                writer.push(ctx, &b.take(lists.of(f)))?;
            }
        }
    }
    writers.into_iter().map(|w| w.finish(ctx)).collect()
}

/// One routed chunk of a shuffle's source partition: the chunk (its columns
/// `Arc`-shared with the source), its key hashes, the rows it sends to each
/// target, each selection's row-equivalent bytes, and their physical total.
struct Routed {
    chunk: Batch,
    hashes: Vec<u64>,
    lists: RowLists,
    logical: Vec<usize>,
    physical: usize,
}

impl Routed {
    /// Meters every selection of `lists` in place: the bytes its
    /// [`Batch::take`] would weigh, which is what a piece on the wire weighs.
    fn new(chunk: Batch, hashes: Vec<u64>, lists: RowLists, scratch: &mut SelScratch) -> Routed {
        let (mut logical, mut physical) = (Vec::with_capacity(lists.bounds.len()), 0);
        for t in 0..lists.bounds.len() - 1 {
            let sel = Some(lists.of(t)).filter(|sel| !sel.is_empty());
            logical.push(sel.map_or(0, |sel| chunk.logical_bytes_of(Some(sel), scratch)));
            physical += sel.map_or(0, |sel| chunk.physical_bytes_of(Some(sel), scratch));
        }
        Routed {
            chunk,
            hashes,
            lists,
            logical,
            physical,
        }
    }
}

/// Repartitions batch rows by `route`'s hash vector (rows its validity mask
/// clears are not shipped), metering the move as a shuffle with both logical
/// (row-equivalent) and exact physical buffer bytes: [`route_batches`], then
/// [`deliver`].
///
/// No (source, target) piece is built for a target this process holds. A
/// source task routes each of its chunks into per-target row lists and meters
/// every such *selection* in place; a target task then builds its partition
/// straight from the selections addressed to it, in (source partition, chunk)
/// order, with one n-way [`Batch::merge`]. Both sides run on the worker pool.
///
/// This is also the **spilling shuffle writer**: spilled sources stream chunk
/// by chunk, and a receiving partition whose selections exceed its budget
/// gathers them one at a time into a spill file instead of merging them in
/// memory. Under a cluster [`Exchange`] only the selections bound for other
/// ranks are gathered, when they are encoded; see [`exchange_remote`].
fn shuffle_batches<F>(ctx: &DistContext, parts: &[ColPart], route: F) -> Result<Vec<ColPart>>
where
    F: Fn(&Batch) -> Result<KeyHashes> + Send + Sync,
{
    deliver(ctx, route_batches(ctx, parts, route)?)
}

/// A shuffle's route phase: every source chunk routed and metered. Nothing
/// moves yet: a caller may read the loads and withhold rows.
fn route_batches<F>(ctx: &DistContext, parts: &[ColPart], route: F) -> Result<Vec<Vec<Routed>>>
where
    F: Fn(&Batch) -> Result<KeyHashes> + Send + Sync,
{
    let nparts = ctx.config().partitions.max(1);
    run_partitioned(ctx, parts, |_, part| {
        let mut scratch = SelScratch::default();
        let mut routed = Vec::new();
        for chunk in part.chunks(ctx)? {
            let chunk = chunk?;
            let keys = route(&chunk)?;
            let lists = RowLists::route(&keys, nparts, |h| h);
            routed.push(Routed::new(chunk, keys.hashes, lists, &mut scratch));
        }
        Ok(routed)
    })
}

/// A shuffle's delivery phase: books, exchanges and merges what is routed.
fn deliver(ctx: &DistContext, mut routed: Vec<Vec<Routed>>) -> Result<Vec<ColPart>> {
    let nparts = ctx.config().partitions.max(1);
    // Routing is done: the hash vectors need not outlive it.
    for r in routed.iter_mut().flatten() {
        r.hashes = Vec::new();
    }
    // Per-rank metering: each rank counts the rows/bytes its own sources
    // routed, so the rank-summed counters equal the single-process totals.
    let sum = |f: fn(&Routed) -> usize| routed.iter().flatten().map(f).sum::<usize>() as u64;
    let (rows, logical) = (sum(|r| r.lists.rows.len()), sum(|r| r.logical.iter().sum()));
    let physical = sum(|r| r.physical);
    ctx.stats().record_shuffle(rows, logical, physical);
    let (owned, remote) = match ctx.exchange() {
        Some(ex) => (
            owned_range(ex.rank(), nparts, ex.ranks()),
            exchange_remote(ctx, ex.as_ref(), &routed)?,
        ),
        None => (0..nparts, (0..nparts).map(|_| Vec::new()).collect()),
    };
    // What each target merges: the local selections addressed to it and the
    // batches other ranks sent it, in the single-process merge order. Network
    // delivery is unordered, and ranks own contiguous blocks of source
    // partitions.
    let arrivals: Vec<Vec<Arrival<'_>>> = (0..nparts)
        .map(|t| {
            let mut arrivals = Vec::new();
            if owned.contains(&t) {
                for (s, chunks) in routed.iter().enumerate() {
                    arrivals.extend(sent_to(chunks, t).map(|(i, r)| Arrival {
                        order: (s as u32, i),
                        batch: &r.chunk,
                        rows: Some(r.lists.of(t)),
                        logical: Some(r.logical[t]),
                    }));
                }
            }
            arrivals.extend(remote[t].iter().map(|sent| Arrival {
                order: sent.order,
                batch: &sent.batch,
                rows: None,
                logical: None,
            }));
            arrivals.sort_by_key(|a| a.order);
            arrivals
        })
        .collect();
    run_partitioned(ctx, &arrivals, |_, arrivals| {
        let total = || -> usize { arrivals.iter().map(Arrival::logical_bytes).sum() };
        if ctx.spill_active() && total() > part_budget(ctx) {
            let mut builder = PartBuilder::new(ctx);
            for a in arrivals {
                builder.push(a.batch.select(a.rows))?;
            }
            return builder.finish();
        }
        let selections: Vec<(&Batch, RowSel<'_>)> =
            arrivals.iter().map(|a| (a.batch, a.rows)).collect();
        Ok(ColPart::Mem(Batch::merge(&selections)))
    })
}

/// The chunks of one source partition that send rows to target `t`, numbered
/// in chunk order: the number is the index half of a selection's merge order,
/// on this rank and on the wire alike.
fn sent_to(chunks: &[Routed], t: usize) -> impl Iterator<Item = (u32, &Routed)> {
    let sent = chunks.iter().filter(move |r| !r.lists.of(t).is_empty());
    sent.enumerate().map(|(i, r)| (i as u32, r))
}

/// One selection a shuffle target merges.
struct Arrival<'a> {
    /// (source partition, index among that source's selections for the
    /// target, see [`sent_to`]).
    order: (u32, u32),
    batch: &'a Batch,
    rows: RowSel<'a>,
    /// Row-equivalent bytes of the selection, where its source task metered
    /// them (every local selection).
    logical: Option<usize>,
}

impl Arrival<'_> {
    fn logical_bytes(&self) -> usize {
        self.logical.unwrap_or_else(|| {
            self.batch
                .logical_bytes_of(self.rows, &mut SelScratch::default())
        })
    }
}

impl PartRows for Vec<Arrival<'_>> {
    fn part_rows(&self) -> usize {
        let len = |a: &Arrival<'_>| a.rows.map_or(a.batch.rows(), <[usize]>::len);
        self.iter().map(len).sum()
    }
}

/// A batch another rank sent to a target this rank owns, tagged with its
/// place in the target's merge order (see [`Arrival`]).
struct Sent {
    order: (u32, u32),
    batch: Batch,
}

/// The cross-rank half of a shuffle pass through the cluster [`Exchange`].
/// Selections addressed to partitions this rank owns stay selections; the
/// rest are gathered here and ship to the owning rank as `(source, target,
/// index, batch)` frames — the frames, and the bytes, a piece-per-target
/// shuffle put on the wire. Returns, per target, the batches other ranks
/// sent.
fn exchange_remote(
    ctx: &DistContext,
    ex: &dyn Exchange,
    routed: &[Vec<Routed>],
) -> Result<Vec<Vec<Sent>>> {
    let nparts = ctx.config().partitions.max(1);
    let (rank, ranks) = (ex.rank(), ex.ranks());
    let owned = owned_range(rank, nparts, ranks);
    let mut outgoing: Vec<(usize, Vec<u8>)> = Vec::new();
    for (s, chunks) in routed.iter().enumerate() {
        for t in (0..nparts).filter(|t| !owned.contains(t)) {
            for (i, r) in sent_to(chunks, t) {
                let mut w = ByteWriter::new();
                w.u32(s as u32);
                w.u32(t as u32);
                w.u32(i);
                r.chunk.take(r.lists.of(t)).encode(&mut w)?;
                outgoing.push((owner_of_partition(t, nparts, ranks), w.into_bytes()));
            }
        }
    }
    let mut incoming: Vec<Vec<Sent>> = (0..nparts).map(|_| Vec::new()).collect();
    for payload in ex.shuffle(outgoing)? {
        let mut r = ByteReader::new(&payload);
        let s = r.u32()?;
        let t = r.u32()? as usize;
        let order = (s, r.u32()?);
        let batch = Batch::decode(&mut r)?;
        if !owned.contains(&t) {
            return Err(ExecError::Other(format!(
                "rank {rank} received a shuffle piece for partition {t} it does not own"
            )));
        }
        incoming[t].push(Sent { order, batch });
    }
    Ok(incoming)
}

// ---------------------------------------------------------------------------
// unnest
// ---------------------------------------------------------------------------

/// Numbers the rows of one morsel of a sequential fused pipeline under `attr`
/// — the batch-at-a-time kernel of id assignment (`AddIndex`): reserves the
/// morsel's rows on `cx`'s counter `slot` and gives row `i` of the partition
/// `partition + i * stride` ([`Batch::with_unique_ids`]), so ids are unique
/// without coordination.
pub fn unique_ids_batch(b: &Batch, attr: &str, cx: &mut MorselCtx, slot: usize) -> Result<Batch> {
    tuple_rows_required(b)?;
    let start = cx.reserve(slot, b.rows());
    Ok(b.with_unique_ids(attr, cx.partition, start, cx.stride))
}

/// Unnests (`µ`) a bag-valued attribute of one batch — the batch-at-a-time
/// kernel the compiler's fused pipelines splice into a morsel closure. Parent
/// columns are gathered by fan-out index, the bag column's child batch is
/// spliced in, renamed to `alias.field` (a schema rewrite). A row whose bag
/// is empty, NULL or absent yields no row.
pub fn unnest_batch(b: &Batch, bag_attr: &str, alias: &str) -> Result<Batch> {
    tuple_rows_required(b)?;
    let parent_shape = b.without_column(bag_attr);
    let Some(col) = b.column(bag_attr) else {
        // Every bag is missing → empty.
        return Ok(Batch::empty());
    };
    match col {
        Column::Bag { offsets, elems, .. } => {
            let mut parent_idx: Vec<usize> = Vec::new();
            let mut child_idx: Vec<usize> = Vec::new();
            for i in 0..b.rows() {
                for j in offsets[i] as usize..offsets[i + 1] as usize {
                    parent_idx.push(i);
                    child_idx.push(j);
                }
            }
            let parents = parent_shape.take(&parent_idx);
            let child = match elems {
                crate::batch::BagElems::Rows(elem_batch) => {
                    let renamed = |f: &str| format!("{alias}.{f}");
                    let value_name = format!("{alias}.__value");
                    elem_batch
                        .rename_fields(renamed, &value_name)
                        .take(&child_idx)
                }
                crate::batch::BagElems::Values(values) => {
                    // Mixed / non-tuple elements: fall back to per-element
                    // row merging.
                    let rows: Vec<Value> = child_idx
                        .iter()
                        .map(|&j| {
                            let mut t = Tuple::empty();
                            merge_element_row(&mut t, &values[j], alias);
                            Value::Tuple(t)
                        })
                        .collect();
                    Batch::from_rows(&rows)
                }
            };
            Ok(parents.merge_overwrite(&child))
        }
        other => {
            // Row-wise fallback for bags stored in a value column; scalars
            // are a type error.
            let mut out_rows: Vec<Value> = Vec::new();
            for i in 0..b.rows() {
                let parent = parent_shape.row_value(i);
                let bag = match other.value_at(i) {
                    Some(Value::Bag(bag)) => bag,
                    Some(Value::Null) | None => Bag::empty(),
                    Some(v) => {
                        return Err(trance_nrc::NrcError::TypeMismatch {
                            expected: "bag".into(),
                            found: v.kind().into(),
                            context: format!("unnest of {bag_attr}"),
                        }
                        .into())
                    }
                };
                let parent_t = parent.as_tuple()?.clone();
                for elem in bag.iter() {
                    let mut row = parent_t.clone();
                    merge_element_row(&mut row, elem, alias);
                    out_rows.push(Value::Tuple(row));
                }
            }
            Ok(Batch::from_rows(&out_rows))
        }
    }
}

/// Merges one flattened bag element into a row, renaming its fields to
/// `alias.field`.
fn merge_element_row(row: &mut Tuple, elem: &Value, alias: &str) {
    match elem {
        Value::Tuple(et) => {
            for (f, v) in et.iter() {
                row.set(format!("{alias}.{f}"), v.clone());
            }
        }
        other => row.set(format!("{alias}.__value"), other.clone()),
    }
}

// ---------------------------------------------------------------------------
// grouping
// ---------------------------------------------------------------------------

/// A running `Γ+` sum with [`Value::numeric_add`]'s semantics over unboxed
/// lanes: integer sums stay integral (and checked), an integer meeting a real
/// widens to real, NULL adds nothing.
#[derive(Debug, Clone, Copy)]
enum Sum {
    /// No non-NULL contribution yet.
    Null,
    Int(i64),
    Real(f64),
}

impl Sum {
    fn add_int(&mut self, x: i64) -> Result<()> {
        *self = match *self {
            Sum::Null => Sum::Int(x),
            Sum::Int(a) => Sum::Int(trance_nrc::value::checked_int_add(a, x)?),
            Sum::Real(a) => Sum::Real(a + x as f64),
        };
        Ok(())
    }

    fn add_real(&mut self, x: f64) -> Result<()> {
        *self = Sum::Real(match *self {
            Sum::Null => x,
            Sum::Int(a) => a as f64 + x,
            Sum::Real(a) => a + x,
        });
        Ok(())
    }
}

/// Sums one value column per group. `Int` and `Real` columns accumulate into
/// typed slots straight from their buffers; any other variant (mixed numeric
/// kinds in an `Other` column, or a column `numeric_add` must reject) folds
/// `numeric_add` over the stored values, by reference where the column holds
/// values. A column the batch lacks contributes nothing. With `finalize`, an
/// all-NULL group sums to `0`.
fn sum_column(
    col: Option<&Column>,
    group_of: &[u32],
    groups: usize,
    finalize: bool,
) -> Result<Column> {
    let mut sums = vec![Sum::Null; groups];
    // Adds the non-NULL, present lanes of a typed buffer.
    macro_rules! add_lanes {
        ($data:expr, $nulls:expr, $absent:expr, $add:expr) => {
            if $nulls.any() || $absent.any() {
                for (i, (x, g)) in $data.iter().zip(group_of).enumerate() {
                    if !$nulls.get(i) && !$absent.get(i) {
                        $add(&mut sums[*g as usize], *x)?;
                    }
                }
            } else {
                for (x, g) in $data.iter().zip(group_of) {
                    $add(&mut sums[*g as usize], *x)?;
                }
            }
        };
    }
    match col {
        None => {}
        Some(Column::Int {
            data,
            nulls,
            absent,
        }) => add_lanes!(data, nulls, absent, Sum::add_int),
        Some(Column::Real {
            data,
            nulls,
            absent,
        }) => add_lanes!(data, nulls, absent, Sum::add_real),
        Some(other) => {
            let mut slots = vec![Value::Null; groups];
            for (i, g) in group_of.iter().enumerate() {
                let slot = &mut slots[*g as usize];
                *slot = match other {
                    Column::Other { values, .. } => slot.numeric_add(&values[i])?,
                    _ => slot.numeric_add(&other.value_at(i).unwrap_or(Value::Null))?,
                };
            }
            if finalize {
                for slot in slots.iter_mut().filter(|s| matches!(s, Value::Null)) {
                    *slot = Value::Int(0);
                }
            }
            return Ok(Column::from_values(slots));
        }
    }
    if finalize {
        for s in sums.iter_mut().filter(|s| matches!(s, Sum::Null)) {
            *s = Sum::Int(0);
        }
    }
    // Same column layouts `Column::from_values` picks for these sums.
    let ints = sums.iter().filter(|s| matches!(s, Sum::Int(_))).count();
    let reals = sums.iter().filter(|s| matches!(s, Sum::Real(_))).count();
    let mut nulls = Bitmap::zeros(groups);
    for (g, s) in sums.iter().enumerate() {
        if matches!(s, Sum::Null) {
            nulls.set(g);
        }
    }
    let absent = Bitmap::zeros(groups);
    Ok(if ints > 0 && reals == 0 {
        let data = sums
            .iter()
            .map(|s| if let Sum::Int(x) = s { *x } else { 0 });
        Column::Int {
            data: data.collect(),
            nulls,
            absent,
        }
    } else if reals > 0 && ints == 0 {
        let data = sums
            .iter()
            .map(|s| if let Sum::Real(x) = s { *x } else { 0.0 });
        Column::Real {
            data: data.collect(),
            nulls,
            absent,
        }
    } else {
        // All-NULL partials, or groups that disagree on Int vs Real.
        Column::from_values(
            sums.iter()
                .map(|s| match s {
                    Sum::Null => Value::Null,
                    Sum::Int(x) => Value::Int(*x),
                    Sum::Real(x) => Value::Real(*x),
                })
                .collect(),
        )
    })
}

/// The key columns of a grouping's output: the first row of each group, key
/// columns in `key` order. A key column no group carries is dropped, as
/// tuples that lack an attribute do not name it.
fn group_keys_batch(b: &Batch, key: &[String], first_row: &[usize]) -> Batch {
    let taken = b.project_fields(key).take(first_row);
    let carried: Vec<String> = taken
        .schema()
        .fields()
        .iter()
        .zip(taken.columns())
        .filter(|(_, col)| col.present_count() > 0)
        .map(|(name, _)| name.clone())
        .collect();
    if carried.len() == taken.columns().len() {
        taken
    } else {
        taken.project_fields(&carried)
    }
}

/// One local `Γ+` pass over a single batch: group rows by key hash and typed
/// equality, sum each value column per group (see [`sum_column`]), and emit
/// the groups in first-occurrence order.
fn sum_batch(b: &Batch, key: &[String], values: &[String], finalize: bool) -> Result<Batch> {
    tuple_rows_required(b)?;
    let keys = KeyCols::resolve(b, key);
    let groups = group_rows(&keys, &keys.hashes().hashes)?;
    if groups.first_row.is_empty() {
        return Ok(Batch::empty());
    }
    let mut out = group_keys_batch(b, key, &groups.first_row);
    for name in values {
        let sums = sum_column(
            b.column(name),
            &groups.group_of,
            groups.first_row.len(),
            finalize,
        )?;
        out = out.with_column(name, Arc::new(sums));
    }
    Ok(out)
}

/// Map-side `Γ+` partials of one partition: one [`sum_batch`] pass per chunk
/// and, for a partition that streams several chunks, one more over their
/// concatenated partials (aggregation is algebraic).
fn sum_chunks(chunks: ColChunks<'_>, key: &[String], values: &[String]) -> Result<Batch> {
    let mut partials: Vec<Batch> = Vec::new();
    for chunk in chunks {
        partials.push(sum_batch(&chunk?, key, values, false)?);
    }
    if partials.len() == 1 {
        return Ok(partials.remove(0));
    }
    sum_batch(&Batch::concat(&partials), key, values, false)
}

/// One partition's `Γ⊎`: group rows, emit key columns plus an offset-encoded
/// bag column over the projected value columns.
fn nest_bag_batch(
    b: &Batch,
    key: &[String],
    value_attrs: &[String],
    out_attr: &str,
) -> Result<Batch> {
    tuple_rows_required(b)?;
    let keys = KeyCols::resolve(b, key);
    let groups = group_rows(&keys, &keys.hashes().hashes)?;
    let n = groups.first_row.len();
    // Counting sort of the rows by group: `offsets` delimits each group's
    // members, which stay in row order.
    let mut offsets: Vec<u32> = vec![0; n + 1];
    for g in &groups.group_of {
        offsets[*g as usize + 1] += 1;
    }
    for g in 0..n {
        offsets[g + 1] += offsets[g];
    }
    let mut cursor: Vec<u32> = offsets[..n].to_vec();
    let mut elem_idx: Vec<usize> = vec![0; b.rows()];
    for (i, g) in groups.group_of.iter().enumerate() {
        let at = &mut cursor[*g as usize];
        elem_idx[*at as usize] = i;
        *at += 1;
    }
    let child = b.project_fields(value_attrs).take(&elem_idx);
    let bag_col = Column::Bag {
        offsets,
        elems: crate::batch::BagElems::Rows(Box::new(child)),
        nulls: Bitmap::zeros(n),
        absent: Bitmap::zeros(n),
    };
    Ok(group_keys_batch(b, key, &groups.first_row).with_column(out_attr, Arc::new(bag_col)))
}

// ---------------------------------------------------------------------------
// joins
// ---------------------------------------------------------------------------

/// Plans a join and runs it: the hint, else broadcast-right if the right
/// side fits the broadcast limit, else broadcast-left for an inner join,
/// else shuffle, skew-aware with `skew` when the left side moves.
fn join_impl_col(
    left: &ColCollection,
    right: &ColCollection,
    spec: &JoinSpec,
    skew: bool,
) -> Result<ColCollection> {
    let limit = left.ctx.config().broadcast_limit;
    let auto = matches!(spec.hint(), JoinHint::Auto);
    let inner = *spec.kind() == JoinKind::Inner;
    if matches!(spec.hint(), JoinHint::BroadcastRight) || auto && right.planning_bytes()? <= limit {
        broadcast_right_col(left, right, spec)
    } else if auto && inner && left.planning_bytes()? <= limit {
        broadcast_left_col(left, right, spec)
    } else if skew && !left.placed_by(spec.left_keys()) {
        skew_shuffle_join(left, right, spec)
    } else {
        shuffle_join_col(left, right, spec)
    }
}

/// Concatenates a (small) broadcast side into one resident batch. Under an
/// exchange, every rank contributes its local concatenation and the
/// rank-ordered gather is concatenated again — with contiguous partition
/// ownership that reproduces exactly the partition-ordered batch the
/// single-process engine builds, so probe outputs stay row-identical.
fn gather_side_batch(ctx: &DistContext, side: &ColCollection) -> Result<Batch> {
    let batches: Vec<Cow<'_, Batch>> = side.batches()?;
    let local = Batch::merge(
        &batches
            .iter()
            .map(|b| (b.as_ref(), None))
            .collect::<Vec<_>>(),
    );
    match ctx.exchange() {
        Some(ex) => {
            let mut w = ByteWriter::new();
            local.encode(&mut w)?;
            let gathered = ex.allgather(w.into_bytes())?;
            let mut parts = Vec::with_capacity(gathered.len());
            for bytes in &gathered {
                parts.push(Batch::decode(&mut ByteReader::new(bytes))?);
            }
            Ok(Batch::concat(&parts))
        }
        None => Ok(local),
    }
}

fn meter_broadcast_col(ctx: &DistContext, side: &ColCollection, strategy: JoinStrategy) {
    let workers = ctx.config().workers.max(1) as u64;
    ctx.stats().record_broadcast(
        side.len() as u64 * workers,
        side.logical_bytes() as u64 * workers,
        side.physical_bytes() as u64 * workers,
    );
    ctx.stats().record_join(strategy);
}

/// The build side of a hash join: the build batch, its key columns, their
/// hash vector, and the row table over it.
struct BuildSide<'a> {
    batch: &'a Batch,
    keys: KeyCols<'a>,
    hashes: KeyHashes,
    table: RowTable,
}

impl<'a> BuildSide<'a> {
    fn new(b: &'a Batch, cols: &[String]) -> Result<BuildSide<'a>> {
        tuple_rows_required(b)?;
        let keys = KeyCols::resolve(b, cols);
        let hashes = keys.hashes();
        let table = RowTable::build(&hashes)?;
        Ok(BuildSide {
            batch: b,
            keys,
            hashes,
            table,
        })
    }

    /// Calls `emit` with each build row whose key equals probe row `i`'s, in
    /// build-row order.
    fn matches(
        &self,
        probe: &KeyCols<'_>,
        hashes: &KeyHashes,
        i: usize,
        mut emit: impl FnMut(usize),
    ) {
        if !hashes.is_valid(i) {
            return;
        }
        let h = hashes.hashes[i];
        for r in self.table.chain(h) {
            if self.hashes.hashes[r] == h && probe.lanes_equal(i, &self.keys, r) {
                emit(r);
            }
        }
    }
}

/// Gathers one joined partition in left-row order: every matching pair of an
/// inner join; every left row of a re-nesting join once, with its match's
/// group.
fn gather_joined(lbatch: &Batch, build: &BuildSide<'_>, spec: &JoinSpec) -> Result<Batch> {
    tuple_rows_required(lbatch)?;
    let lkeys = KeyCols::resolve(lbatch, spec.left_keys());
    let lhashes = lkeys.hashes();
    if let JoinKind::Renest { attr } = spec.kind() {
        let matched: Vec<Option<usize>> = (0..lbatch.rows())
            .map(|i| {
                let mut first = None;
                build.matches(&lkeys, &lhashes, i, |r| first = first.or(Some(r)));
                first
            })
            .collect();
        let groups = renested(build.batch.column(attr), &matched);
        return Ok(lbatch.with_column(attr, Arc::new(groups)));
    }
    let mut lidx: Vec<usize> = Vec::new();
    let mut ridx: Vec<usize> = Vec::new();
    for i in 0..lbatch.rows() {
        build.matches(&lkeys, &lhashes, i, |r| {
            lidx.push(i);
            ridx.push(r);
        });
    }
    let left_side = lbatch.take(&lidx);
    let right_side = build.batch.take(&ridx);
    Ok(left_side.merge_overwrite(&right_side))
}

/// A re-nesting join's bag column: lane `i` is row `matched[i]` of the right
/// side's `group` column, `{}` where nothing matched. It is decided by the
/// lanes, never by the right side's schema: a partition without rows may
/// have no `group` column, or one that is not bag-typed.
fn renested(group: Option<&Column>, matched: &[Option<usize>]) -> Column {
    let unmatched: Vec<bool> = matched.iter().map(Option::is_none).collect();
    if let Some(bags) = group.and_then(|g| g.gather(matched).coalesce_empty_bag(&unmatched)) {
        return bags;
    }
    let slots: Vec<Value> = matched
        .iter()
        .map(|m| match m {
            Some(r) => group.and_then(|g| g.value_at(*r)).unwrap_or(Value::Null),
            None => Value::empty_bag(),
        })
        .collect();
    Column::from_values(slots)
}

fn broadcast_right_col(
    left: &ColCollection,
    right: &ColCollection,
    spec: &JoinSpec,
) -> Result<ColCollection> {
    let ctx = left.ctx.clone();
    meter_broadcast_col(&ctx, right, JoinStrategy::Broadcast);
    // The broadcast side fits under the broadcast limit by construction:
    // concatenate it resident (cluster-wide under an exchange).
    let rbatch = gather_side_batch(&ctx, right)?;
    let build = BuildSide::new(&rbatch, spec.right_keys())?;
    let parts = run_partitioned(&ctx, &left.parts, |_, part| {
        let mut builder = PartBuilder::new(&ctx);
        for chunk in part.chunks(&ctx)? {
            builder.push(gather_joined(&chunk?, &build, spec)?)?;
        }
        builder.finish()
    })?;
    ColCollection::materialize_parts(ctx, parts)
}

/// Inner-join variant replicating the (small) left side and probing it from
/// the right partitions.
fn broadcast_left_col(
    left: &ColCollection,
    right: &ColCollection,
    spec: &JoinSpec,
) -> Result<ColCollection> {
    let ctx = left.ctx.clone();
    meter_broadcast_col(&ctx, left, JoinStrategy::Broadcast);
    let lbatch = gather_side_batch(&ctx, left)?;
    let build = BuildSide::new(&lbatch, spec.left_keys())?;
    let parts = run_partitioned(&ctx, &right.parts, |_, part| {
        let mut builder = PartBuilder::new(&ctx);
        for chunk in part.chunks(&ctx)? {
            let rbatch = chunk?;
            tuple_rows_required(&rbatch)?;
            let rkeys = KeyCols::resolve(&rbatch, spec.right_keys());
            let rhashes = rkeys.hashes();
            let mut lidx: Vec<usize> = Vec::new();
            let mut ridx: Vec<usize> = Vec::new();
            for i in 0..rbatch.rows() {
                build.matches(&rkeys, &rhashes, i, |l| {
                    lidx.push(l);
                    ridx.push(i);
                });
            }
            let left_side = lbatch.take(&lidx);
            let right_side = rbatch.take(&ridx);
            builder.push(left_side.merge_overwrite(&right_side))?;
        }
        builder.finish()
    })?;
    ColCollection::materialize_parts(ctx, parts)
}

/// One co-partitioned join pair that exceeds the operator budget: the
/// **external (Grace-style) hash join**. Both sides sub-partition by a
/// salted key hash into on-disk buckets; bucket pairs are then joined one at
/// a time, so the in-memory working set is one bucket pair instead of one
/// partition pair.
fn grace_join_partition(
    ctx: &DistContext,
    lpart: &ColPart,
    rpart: &ColPart,
    spec: &JoinSpec,
    builder: &mut PartBuilder<'_>,
) -> Result<()> {
    // Both sides must use the same fan-out for bucket pairs to align; size
    // it from the larger side.
    let joint = lpart.logical_bytes().max(rpart.logical_bytes());
    let fanout = grace_fanout(joint, op_budget(ctx));
    let lbuckets = spill_split(ctx, lpart, fanout, spec.left_keys())?;
    let rbuckets = spill_split(ctx, rpart, fanout, spec.right_keys())?;
    for (lb, rb) in lbuckets.iter().zip(&rbuckets) {
        if lb.rows() == 0 {
            continue;
        }
        let rbatch = read_batches(ctx, rb)?;
        let build = BuildSide::new(&rbatch, spec.right_keys())?;
        for chunk in batch_frames(ctx, lb)? {
            builder.push(gather_joined(&chunk?, &build, spec)?)?;
        }
    }
    Ok(())
}

fn shuffle_join_col(
    left: &ColCollection,
    right: &ColCollection,
    spec: &JoinSpec,
) -> Result<ColCollection> {
    let ctx = &left.ctx;
    let lparts = join_side(ctx, left, spec.left_keys(), spec)?;
    let rparts = join_side(ctx, right, spec.right_keys(), spec)?;
    ctx.stats().record_join(JoinStrategy::Shuffle);
    join_partitions(ctx, &lparts, &rparts, spec, None)
}

/// Hash-joins co-partitioned sides partition by partition, Grace-style
/// where a pair exceeds the operator budget. `held` is a skew-aware join's
/// held-back left rows, per partition, with the build side of their
/// broadcast matches: each partition probes its held rows after its pair,
/// and the output is then not placed.
fn join_partitions(
    ctx: &DistContext,
    lparts: &[ColPart],
    rparts: &[ColPart],
    spec: &JoinSpec,
    held: Option<(&[ColPart], &BuildSide<'_>)>,
) -> Result<ColCollection> {
    let parts = run_partitioned(ctx, lparts, |p, lpart| {
        let rpart = &rparts[p];
        let mut builder = PartBuilder::new(ctx);
        if ctx.spill_active() && lpart.logical_bytes() + rpart.logical_bytes() > op_budget(ctx) {
            grace_join_partition(ctx, lpart, rpart, spec, &mut builder)?;
        } else {
            let rbatch = rpart.batch(ctx)?;
            let build = BuildSide::new(&rbatch, spec.right_keys())?;
            for chunk in lpart.chunks(ctx)? {
                builder.push(gather_joined(&chunk?, &build, spec)?)?;
            }
        }
        if let Some((held, build)) = held {
            for chunk in held[p].chunks(ctx)? {
                builder.push(gather_joined(&chunk?, build, spec)?)?;
            }
        }
        builder.finish()
    })?;
    let placement = held.is_none().then(|| joined_placement(spec)).flatten();
    Ok(ColCollection::materialize_parts(ctx.clone(), parts)?.with_placement(placement))
}

/// Where a shuffle join leaves its output: hashed by the left key, unless the
/// join can change a key column. An inner join lays the whole right row over
/// the left one, so a key column's namesake must be the matching right key
/// (equal on a match); a re-nesting join sets `attr` alone. Decided from the
/// spec alone, never from the schemas a rank happens to see.
fn joined_placement(spec: &JoinSpec) -> Option<Placement> {
    let keeps_keys = match spec.kind() {
        JoinKind::Inner => spec.left_keys() == spec.right_keys(),
        JoinKind::Renest { attr } => !spec.left_keys().contains(attr),
    };
    keeps_keys.then(|| Placement::hashed_by(spec.left_keys()))?
}

/// One side of a shuffle join where the join needs it: partitioned by the
/// hash of `keys`. A side already placed by `keys` is not shuffled: its
/// partitions pass through as they are.
fn join_side(
    ctx: &DistContext,
    side: &ColCollection,
    keys: &[String],
    spec: &JoinSpec,
) -> Result<Vec<ColPart>> {
    if side.placed_by(keys) {
        side.stays_in_place(ctx, keys)?;
        return Ok(side.parts.to_vec());
    }
    let every_row = matches!(spec.kind(), JoinKind::Renest { .. });
    shuffle_batches(ctx, &side.parts, route_by(keys, every_row))
}

// ---------------------------------------------------------------------------
// skew handling
// ---------------------------------------------------------------------------

/// A target is *overloaded* past `OVERLOAD` times the mean load: hashing
/// keeps light keys near the mean (within 1.6 times it in every id and label
/// join of `skew_n2n_narrow`), so past twice it a few keys carry the target.
const OVERLOAD: u64 = 2;

/// The shuffle join of [`ColCollection::skew_join`]. The rows of
/// [`heavy_hashes`] are held back from both sides' deliveries: the left ones
/// stay in their partitions and probe the right ones, broadcast. A right
/// side in place keeps its heavy rows (no light left row matches them).
fn skew_shuffle_join(
    left: &ColCollection,
    right: &ColCollection,
    spec: &JoinSpec,
) -> Result<ColCollection> {
    let ctx = &left.ctx;
    let (lkeys, rkeys) = (spec.left_keys(), spec.right_keys());
    let every_row = matches!(spec.kind(), JoinKind::Renest { .. });
    let mut lrouted = route_batches(ctx, &left.parts, route_by(lkeys, every_row))?;
    let heavy = heavy_hashes(ctx, &lrouted)?;
    let right_in_place = right.placed_by(rkeys);
    let mut rrouted = match right_in_place && heavy.is_empty() {
        true => Vec::new(),
        false => route_batches(ctx, &right.parts, route_by(rkeys, every_row))?,
    };
    let mut held = None;
    if !heavy.is_empty() {
        let (rkept, rheld) = withhold(right, &rrouted, &heavy)?;
        let rheld = ColCollection::materialize_parts(ctx.clone(), rheld)?;
        if rheld.planning_bytes()? <= ctx.config().broadcast_limit {
            let (lkept, lheld) = withhold(left, &lrouted, &heavy)?;
            (lrouted, rrouted) = (lkept, rkept);
            held = Some((ColCollection::materialize_parts(ctx.clone(), lheld)?, rheld));
        }
    }
    let lparts = deliver(ctx, lrouted)?;
    let rparts = match right_in_place {
        true => {
            right.stays_in_place(ctx, rkeys)?;
            right.parts.to_vec()
        }
        false => deliver(ctx, rrouted)?,
    };
    let Some((lheld, rheld)) = held else {
        ctx.stats().record_join(match heavy.is_empty() {
            true => JoinStrategy::Shuffle,
            false => JoinStrategy::SkewFallback,
        });
        return join_partitions(ctx, &lparts, &rparts, spec, None);
    };
    ctx.stats().record_join(JoinStrategy::Shuffle);
    meter_broadcast_col(ctx, &rheld, JoinStrategy::SkewBroadcast);
    let rbatch = gather_side_batch(ctx, &rheld)?;
    let build = BuildSide::new(&rbatch, rkeys)?;
    join_partitions(ctx, &lparts, &rparts, spec, Some((&lheld.parts, &build)))
}

/// The heavy key hashes of a routed side, sorted. The loads are the row
/// lists' lengths; only overloaded targets ([`OVERLOAD`]) have their hashes
/// counted, and a hash is heavy when its count reaches `max(mean, 2)`. Ranks
/// merge loads and counts, so all derive the same set.
fn heavy_hashes(ctx: &DistContext, routed: &[Vec<Routed>]) -> Result<Vec<u64>> {
    let nparts = ctx.config().partitions.max(1);
    let mut load = HashMap::new();
    for r in routed.iter().flatten() {
        for t in 0..nparts {
            *load.entry(t as u64).or_default() += r.lists.of(t).len() as u64;
        }
    }
    let load = merge_counts(ctx, load)?;
    let total: u64 = load.values().sum();
    let share = |n: u64| n * nparts as u64;
    let overloaded: Vec<usize> = (0..nparts)
        .filter(|t| share(load.get(&(*t as u64)).copied().unwrap_or(0)) > OVERLOAD * total)
        .collect();
    if overloaded.is_empty() {
        return Ok(Vec::new());
    }
    let mut counts = HashMap::new();
    for r in routed.iter().flatten() {
        for &i in overloaded.iter().flat_map(|&t| r.lists.of(t)) {
            *counts.entry(r.hashes[i]).or_default() += 1;
        }
    }
    let mut heavy: Vec<u64> = merge_counts(ctx, counts)?
        .into_iter()
        .filter(|&(_, n)| n >= 2 && share(n) >= total)
        .map(|(hash, _)| hash)
        .collect();
    heavy.sort_unstable();
    Ok(heavy)
}

/// Under an exchange, allgathers each rank's `(key, count)` pairs as plain
/// `u64`s and sums them per key. A truncated frame is an error.
fn merge_counts(ctx: &DistContext, counts: HashMap<u64, u64>) -> Result<HashMap<u64, u64>> {
    let Some(ex) = ctx.exchange() else {
        return Ok(counts);
    };
    let mut w = ByteWriter::new();
    for (key, count) in &counts {
        w.u64(*key);
        w.u64(*count);
    }
    let mut merged: HashMap<u64, u64> = HashMap::new();
    for bytes in &ex.allgather(w.into_bytes())? {
        let mut r = ByteReader::new(bytes);
        while r.remaining() > 0 {
            let key = r.u64()?;
            *merged.entry(key).or_default() += r.u64()?;
        }
    }
    Ok(merged)
}

/// Takes the rows whose hash is in `heavy` (sorted) out of `side`'s routing:
/// returns it without them, metered again, and each source's held rows.
fn withhold(
    side: &ColCollection,
    routed: &[Vec<Routed>],
    heavy: &[u64],
) -> Result<(Vec<Vec<Routed>>, Vec<ColPart>)> {
    let ctx = &side.ctx;
    let split = run_partitioned(ctx, &side.parts, |p, _| {
        let chunks = &routed[p];
        let mut scratch = SelScratch::default();
        let (mut kept, mut held) = (Vec::with_capacity(chunks.len()), PartBuilder::new(ctx));
        for r in chunks {
            let (mut rows, mut bounds, mut held_rows) = (Vec::new(), vec![0], Vec::new());
            for t in 0..r.logical.len() {
                for &i in r.lists.of(t) {
                    match heavy.binary_search(&r.hashes[i]) {
                        Ok(_) => held_rows.push(i),
                        Err(_) => rows.push(i),
                    }
                }
                bounds.push(rows.len());
            }
            if !held_rows.is_empty() {
                held_rows.sort_unstable();
                held.push(r.chunk.take(&held_rows))?;
            }
            let (chunk, lists) = (r.chunk.clone(), RowLists { rows, bounds });
            kept.push(Routed::new(chunk, Vec::new(), lists, &mut scratch));
        }
        Ok((kept, held.finish()?))
    })?;
    Ok(split.into_iter().unzip())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterConfig, MemMesh};
    use std::ops::Range;

    type Metered = (u64, u64, u64);

    /// The shuffle as it is defined: every (source chunk, target) piece is
    /// gathered and metered as the batch it is, and every target
    /// concatenates — or, over budget, spills — the pieces it received.
    fn shuffle_by_pieces(
        ctx: &DistContext,
        parts: &[ColPart],
        route: &(impl Fn(&Batch) -> Result<KeyHashes> + Send + Sync),
    ) -> Result<(Vec<ColPart>, Metered)> {
        let nparts = ctx.config().partitions;
        let mut received: Vec<Vec<Batch>> = vec![Vec::new(); nparts];
        let mut metered = (0u64, 0u64, 0u64);
        for part in parts {
            for chunk in part.chunks(ctx)? {
                let b = chunk?;
                let keys = route(&b)?;
                let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); nparts];
                for (i, h) in keys.hashes.iter().enumerate() {
                    if keys.is_valid(i) {
                        buckets[(h % nparts as u64) as usize].push(i);
                    }
                }
                for (t, idx) in buckets.iter().enumerate().filter(|(_, i)| !i.is_empty()) {
                    let piece = b.take(idx);
                    metered.0 += piece.rows() as u64;
                    metered.1 += piece.logical_bytes() as u64;
                    metered.2 += piece.physical_bytes() as u64;
                    received[t].push(piece);
                }
            }
        }
        let merged = received.into_iter().map(|pieces| {
            let total: usize = pieces.iter().map(Batch::logical_bytes).sum();
            if ctx.spill_active() && total > part_budget(ctx) {
                let mut builder = PartBuilder::new(ctx);
                for piece in pieces {
                    builder.push(piece)?;
                }
                builder.finish()
            } else {
                Ok(ColPart::Mem(Batch::concat(&pieces)))
            }
        });
        Ok((merged.collect::<Result<_>>()?, metered))
    }

    /// A partition as a comparable value: where it lives, its sizes and the
    /// exact bytes of each of its chunks.
    fn image(ctx: &DistContext, part: &ColPart) -> (bool, [usize; 3], Vec<Vec<u8>>) {
        let chunks = part.chunks(ctx).unwrap().map(|chunk| {
            let mut w = ByteWriter::new();
            chunk.unwrap().encode(&mut w).unwrap();
            w.into_bytes()
        });
        (
            matches!(part, ColPart::Spilled(_)),
            [part.rows(), part.logical_bytes(), part.physical_bytes()],
            chunks.collect(),
        )
    }

    fn metered(ctx: &DistContext) -> Metered {
        let s = ctx.stats().snapshot();
        (s.shuffled_tuples, s.shuffled_bytes, s.shuffled_bytes_phys)
    }

    /// Six source partitions of keyed nested rows: a fifth of the keys NULL
    /// or absent, a third of the rows on one key (so one target outweighs the
    /// others), strings that repeat across partitions.
    fn keyed_sources(rows_per_part: usize) -> Vec<Batch> {
        let row = |i: usize| {
            let mut fields = vec![
                ("s", Value::str(format!("name-{}", i % 37))),
                ("v", Value::Real(i as f64 * 0.25)),
                (
                    "items",
                    Value::bag(
                        (0..i % 3)
                            .map(|j| {
                                Value::tuple([("t", Value::str(format!("tag-{}", (i + j) % 5)))])
                            })
                            .collect(),
                    ),
                ),
            ];
            match i % 10 {
                0 => fields.push(("k", Value::Null)),
                1 => {}
                2..=4 => fields.push(("k", Value::Int(7))),
                _ => fields.push(("k", Value::Int((i % 101) as i64))),
            }
            Value::tuple(fields)
        };
        (0..6)
            .map(|p| {
                let rows: Vec<Value> = (0..rows_per_part).map(|i| row(p * 1000 + i)).collect();
                Batch::from_rows(&rows)
            })
            .collect()
    }

    /// More rows than one spill frame holds.
    const SOURCE_ROWS: usize = crate::spill::SPILL_CHUNK_ROWS + 500;

    /// The capped cluster of the comparison, its sources (partition 2 on
    /// disk, streaming two chunks) and the reference result.
    fn capped_case() -> (
        ClusterConfig,
        Vec<ColPart>,
        Vec<ColPart>,
        Metered,
        DistContext,
    ) {
        let sources = keyed_sources(SOURCE_ROWS);
        // Size the receivers' budget between the lightest and the heaviest
        // target, so some merge in memory and some overflow.
        let open = DistContext::new(ClusterConfig::new(2, 6));
        let resident: Vec<ColPart> = sources.iter().cloned().map(ColPart::Mem).collect();
        let key = vec!["k".to_string()];
        let (uncapped, _) = shuffle_by_pieces(&open, &resident, &route_by(&key, false)).unwrap();
        let sizes: Vec<usize> = uncapped.iter().map(ColPart::logical_bytes).collect();
        let budget = (sizes.iter().min().unwrap() + sizes.iter().max().unwrap()) / 2;
        let config = ClusterConfig::new(2, 6)
            .with_worker_memory(budget * 3)
            .with_spill();
        let ctx = DistContext::new(config.clone());
        assert_eq!(part_budget(&ctx), budget);
        let mut parts = resident;
        parts[2] = ColPart::Spilled(Arc::new(spill_batch(&ctx, &sources[2]).unwrap()));
        let (expect, expect_metered) =
            shuffle_by_pieces(&ctx, &parts, &route_by(&key, false)).unwrap();
        let spilled = expect
            .iter()
            .filter(|p| matches!(p, ColPart::Spilled(_)))
            .count();
        assert!(
            0 < spilled && spilled < expect.len(),
            "the case must have receivers on both sides of the budget ({spilled} spilled)"
        );
        let shipped: usize = expect.iter().map(ColPart::rows).sum();
        let held: usize = parts.iter().map(ColPart::rows).sum();
        assert!(shipped < held, "rows with an invalid key are not shipped");
        (config, parts, expect, expect_metered, ctx)
    }

    #[test]
    fn the_shuffle_equals_its_definition_by_pieces() {
        let (config, parts, expect, expect_metered, reference) = capped_case();
        let key = vec!["k".to_string()];
        let ctx = DistContext::new(config);
        let got = shuffle_batches(&ctx, &parts, route_by(&key, false)).unwrap();
        assert_eq!(metered(&ctx), expect_metered);
        assert_eq!(got.len(), expect.len());
        for (t, (got, want)) in got.iter().zip(&expect).enumerate() {
            assert_eq!(image(&ctx, got), image(&reference, want), "target {t}");
        }
        // A grouping's shuffle ships every row, and the uncapped, all-resident
        // shape is the common one.
        let open = DistContext::new(ClusterConfig::new(2, 6));
        let resident: Vec<ColPart> = keyed_sources(300).into_iter().map(ColPart::Mem).collect();
        let (expect, expect_metered) =
            shuffle_by_pieces(&open, &resident, &route_by(&key, true)).unwrap();
        let ctx = DistContext::new(ClusterConfig::new(2, 6));
        let got = shuffle_batches(&ctx, &resident, route_by(&key, true)).unwrap();
        assert_eq!(metered(&ctx), expect_metered);
        assert_eq!(expect_metered.0, 6 * 300);
        for (t, (got, want)) in got.iter().zip(&expect).enumerate() {
            assert_eq!(image(&ctx, got), image(&open, want), "target {t}");
        }
    }

    #[test]
    fn the_exchange_shuffle_equals_the_single_process_one() {
        let (config, parts, expect, expect_metered, reference) = capped_case();
        let key = vec!["k".to_string()];
        for ranks in [2usize, 3] {
            let per_rank = on_ranks(ranks, &config, &|ctx, owned| {
                let local: Vec<ColPart> = (0..parts.len())
                    .map(|p| match owned.contains(&p) {
                        true => parts[p].clone(),
                        false => ColPart::Mem(Batch::empty()),
                    })
                    .collect();
                let got = shuffle_batches(ctx, &local, route_by(&key, false)).unwrap();
                (got, metered(ctx), ctx.clone())
            });
            let mut summed = (0u64, 0u64, 0u64);
            for (rank, (got, metered, ctx)) in per_rank.iter().enumerate() {
                summed = (
                    summed.0 + metered.0,
                    summed.1 + metered.1,
                    summed.2 + metered.2,
                );
                let owned = owned_range(rank, parts.len(), ranks);
                for (t, got) in got.iter().enumerate() {
                    if owned.contains(&t) {
                        let want = image(&reference, &expect[t]);
                        assert_eq!(image(ctx, got), want, "{ranks} ranks, target {t}");
                    } else {
                        assert_eq!(got.rows(), 0, "rank {rank} does not own target {t}");
                    }
                }
            }
            assert_eq!(summed, expect_metered, "{ranks} ranks");
        }
    }

    // -----------------------------------------------------------------
    // placement: a shuffle that is skipped changes nothing but the meters
    // -----------------------------------------------------------------

    fn names(cols: &[&str]) -> Vec<String> {
        cols.iter().map(|c| c.to_string()).collect()
    }

    /// A cluster that can spill but never has to.
    fn roomy() -> DistContext {
        DistContext::new(
            ClusterConfig::new(2, 6)
                .with_worker_memory(usize::MAX / 4)
                .with_spill(),
        )
    }

    /// [`keyed_sources`] hashed by `placed` (every row routed, so NULL and
    /// absent keys sit in the stand-in's partition), partition 2 on disk,
    /// with and without the placement that says so.
    fn placed_and_not(
        ctx: &DistContext,
        sources: Vec<Batch>,
        placed: &[&str],
    ) -> (ColCollection, ColCollection) {
        let placed = names(placed);
        let sources: Vec<ColPart> = sources.into_iter().map(ColPart::Mem).collect();
        let mut parts = shuffle_batches(ctx, &sources, route_by(&placed, true)).unwrap();
        let resident = parts[2].batch(ctx).unwrap().into_owned();
        assert!(resident.rows() > 0);
        parts[2] = ColPart::Spilled(Arc::new(spill_batch(ctx, &resident).unwrap()));
        let plain = ColCollection::from_col_parts(ctx.clone(), parts);
        let known = plain.clone().with_placement(Placement::hashed_by(&placed));
        ctx.stats().reset();
        (known, plain)
    }

    /// The right side of the test joins: one row per key — as a grouping
    /// leaves it, `rss` its group — plus a NULL and an absent key per
    /// partition, the key under the name the left side has it under (the
    /// shape of the plan's id joins, and the one whose output stays placed).
    fn right_sources() -> Vec<Batch> {
        let row = |k: Option<Value>, rs: String| {
            let group = Value::bag(vec![Value::tuple([("rs", Value::str(rs.clone()))])]);
            let mut t = Tuple::new([("rs", Value::str(rs)), ("rss", group)]);
            if let Some(k) = k {
                t.set("k", k);
            }
            Value::Tuple(t)
        };
        (0..6)
            .map(|p| {
                let mut rows: Vec<Value> = (0..101)
                    .filter(|k| k % 6 == p)
                    .map(|k| row(Some(Value::Int(k)), format!("r-{k}")))
                    .collect();
                rows.push(row(Some(Value::Null), "null".into()));
                rows.push(row(None, "absent".into()));
                Batch::from_rows(&rows)
            })
            .collect()
    }

    fn rows_per_partition(c: &ColCollection) -> Vec<Vec<Value>> {
        let parts = c.batches().unwrap();
        parts.iter().map(|b| b.to_rows()).collect()
    }

    /// Runs `op` over the collection with and without its placement: the
    /// outputs must agree row for row and partition for partition, the
    /// placed run books `in_place` skipped shuffles and exactly the bytes of
    /// the shuffles it still ran (`moved` says whether there are any).
    fn assert_same_in_place(
        ctx: &DistContext,
        what: &str,
        in_place: u64,
        moved: bool,
        op: impl Fn(bool) -> Result<ColCollection>,
    ) -> ColCollection {
        ctx.stats().reset();
        let reference = op(false).unwrap();
        let shuffled = ctx.stats().snapshot();
        assert_eq!(shuffled.shuffles_in_place, 0, "{what}: the reference run");
        ctx.stats().reset();
        let got = op(true).unwrap();
        let stats = ctx.stats().snapshot();
        assert_eq!(stats.shuffles_in_place, in_place, "{what}");
        assert_eq!(stats.shuffled_bytes > 0, moved, "{what}: {stats:?}");
        assert!(stats.shuffled_bytes < shuffled.shuffled_bytes, "{what}");
        let (got_rows, want_rows) = (rows_per_partition(&got), rows_per_partition(&reference));
        for (p, (g, w)) in got_rows.iter().zip(&want_rows).enumerate() {
            assert_eq!(g.len(), w.len(), "{what}: rows of partition {p}");
            for (i, (g, w)) in g.iter().zip(w).enumerate() {
                assert_eq!(g, w, "{what}: row {i} of partition {p}");
            }
        }
        assert_eq!(got_rows.len(), want_rows.len(), "{what}");
        assert!(!got.is_empty(), "{what}: an empty result proves nothing");
        got
    }

    #[test]
    fn groupings_in_place_equal_the_shuffled_result_and_book_nothing() {
        let ctx = roomy();
        // Placed by a subset of the key: `k` of `[k, s]`.
        let (known, plain) = placed_and_not(&ctx, keyed_sources(700), &["k"]);
        assert_eq!(known.spilled_partitions(), 1);
        let pick = |placed: bool| if placed { &known } else { &plain };
        // The reference shuffles by the same subset, so that its rows land in
        // the partitions the placed input's rows already sit in.
        let (key, by_k) = (names(&["k", "s"]), names(&["k"]));
        let bags = assert_same_in_place(&ctx, "nest_bag", 1, false, |placed| {
            pick(placed).nest_bag_placed(&key, &names(&["v", "items"]), "g", &by_k)
        });
        assert_same_in_place(&ctx, "nest_sum", 1, false, |placed| {
            pick(placed).nest_sum_placed(&key, &names(&["v"]), &by_k)
        });
        // The grouping passes its input's placement on — the next one up, by
        // `k` alone, is local as well — and `place_by` is not consulted when
        // nothing moves.
        assert_eq!(bags.placement().unwrap().columns(), names(&["k"]));
        ctx.stats().reset();
        let again = bags
            .nest_bag_placed(&key, &names(&["g"]), "gs", &names(&["s"]))
            .unwrap();
        assert_eq!(again.placement(), bags.placement());
        let stats = ctx.stats().snapshot();
        assert_eq!((stats.shuffles_in_place, stats.shuffled_bytes), (1, 0));
    }

    #[test]
    fn a_placement_that_is_not_within_the_key_is_shuffled() {
        // Rows that agree on `k` may differ on `s`: hashed by `[k, s]` they
        // sit in different partitions, and a grouping by `k` must move them.
        // (Relaxing `placed ⊆ key` to `placed ∩ key ≠ ∅` fails here: the
        // groups come out split.)
        let ctx = roomy();
        let (known, plain) = placed_and_not(&ctx, keyed_sources(700), &["k", "s"]);
        let key = names(&["k"]);
        let reference = plain.nest_sum(&key, &names(&["v"])).unwrap();
        ctx.stats().reset();
        let got = known.nest_sum(&key, &names(&["v"])).unwrap();
        let stats = ctx.stats().snapshot();
        assert_eq!(stats.shuffles_in_place, 0);
        assert!(stats.shuffled_bytes > 0);
        assert_eq!(rows_per_partition(&got), rows_per_partition(&reference));
        assert_eq!(got.placement().unwrap().columns(), key);
        // Nor does a placement serve a join keyed by more, fewer or
        // reordered columns.
        let (right, _) = placed_and_not(&ctx, right_sources(), &["k"]);
        for left_keys in [&["k"][..], &["s", "k"]] {
            ctx.stats().reset();
            let right_keys = if left_keys.len() == 1 {
                &["k"][..]
            } else {
                &["rs", "k"]
            };
            let spec = JoinSpec::inner(left_keys, right_keys).with_hint(JoinHint::Shuffle);
            known.join(&right, &spec).unwrap();
            let in_place = ctx.stats().snapshot().shuffles_in_place;
            assert_eq!(in_place, u64::from(left_keys.len() == 1), "{left_keys:?}");
        }
        // A subset that is not one: the grouping refuses to split its groups.
        let err = plain.nest_sum_placed(&key, &names(&["v"]), &names(&["s"]));
        assert!(err.unwrap_err().to_string().contains("not a subset"));
    }

    #[test]
    fn join_sides_in_place_equal_the_shuffled_result_and_drop_invalid_keys() {
        let ctx = roomy();
        let (left, left_plain) = placed_and_not(&ctx, keyed_sources(700), &["k"]);
        let (right, right_plain) = placed_and_not(&ctx, right_sources(), &["k"]);
        let rows = |c: &ColCollection| rows_per_partition(c).concat();
        let invalid = |c: &ColCollection, col: &str| -> usize {
            rows(c)
                .iter()
                .filter(|r| matches!(r.as_tuple().unwrap().get(col), None | Some(Value::Null)))
                .count()
        };
        assert!(invalid(&left, "k") > 0 && invalid(&right, "k") > 0);
        for spec in [
            JoinSpec::inner(&["k"], &["k"]),
            JoinSpec::renest(&["k"], &["k"], "rss"),
        ] {
            let spec = spec.with_hint(JoinHint::Shuffle);
            let renest = *spec.kind() != JoinKind::Inner;
            let both = assert_same_in_place(&ctx, "both sides", 2, false, |placed| {
                if placed {
                    left.join(&right, &spec)
                } else {
                    left_plain.join(&right_plain, &spec)
                }
            });
            assert_same_in_place(&ctx, "left side", 1, true, |placed| {
                let l = if placed { &left } else { &left_plain };
                l.join(&right_plain, &spec)
            });
            assert_same_in_place(&ctx, "right side", 1, true, |placed| {
                let r = if placed { &right } else { &right_plain };
                left_plain.join(r, &spec)
            });
            // The inner join drops the invalid-key rows; the re-nesting join
            // keeps every left row once, `{}` where nothing matched.
            let kept = if renest { invalid(&left, "k") } else { 0 };
            assert_eq!(invalid(&both, "k"), kept);
            if renest {
                assert_eq!(rows(&both).len(), rows(&left).len());
                let empty = rows(&both)
                    .iter()
                    .filter(|r| r.as_tuple().unwrap().get("rss") == Some(&Value::empty_bag()))
                    .count();
                assert!(
                    empty >= kept,
                    "{empty} empty groups for {kept} invalid keys"
                );
            }
            // Either way the output sits by the left key, every row of it, so
            // a join side and a grouping both find it in place.
            let placed = both.placement().unwrap();
            assert_eq!(placed.columns(), names(&["k"]));
            both.assert_placed(placed.columns()).unwrap();
            let again = assert_same_in_place(&ctx, "joined again", 2, false, |placed| {
                let l = if placed {
                    both.clone()
                } else {
                    both.clone().with_placement(None)
                };
                let r = if placed { &right } else { &right_plain };
                l.join(r, &spec)
            });
            assert_eq!(invalid(&again, "k"), kept);
            ctx.stats().reset();
            both.nest_bag(&names(&["k"]), &names(&["s"]), "g").unwrap();
            assert_eq!(ctx.stats().snapshot().shuffles_in_place, 1);
        }
    }

    #[test]
    fn a_right_attribute_that_can_overwrite_a_key_column_voids_the_joins_placement() {
        let placed = |spec: JoinSpec| joined_placement(&spec).map(|p| p.columns().to_vec());
        // Whole right rows ride along: only the matching right key may share
        // a left key's name.
        assert_eq!(
            placed(JoinSpec::inner(&["id"], &["id"])),
            Some(names(&["id"]))
        );
        assert_eq!(placed(JoinSpec::inner(&["a"], &["b"])), None);
        assert_eq!(placed(JoinSpec::inner(&["a", "b"], &["a", "c"])), None);
        assert_eq!(placed(JoinSpec::inner(&[], &[])), None);
        // A re-nesting join sets its bag alone: placed unless the bag takes
        // a key column's name.
        let renest = JoinSpec::renest;
        assert_eq!(placed(renest(&["id"], &["id"], "g")), Some(names(&["id"])));
        assert_eq!(placed(renest(&["a"], &["label"], "g")), Some(names(&["a"])));
        assert_eq!(placed(renest(&["a"], &["label"], "a")), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn a_wrong_placement_claim_fails_where_it_is_made() {
        let ctx = roomy();
        let (_, plain) = placed_and_not(&ctx, keyed_sources(50), &["k"]);
        let right = plain
            .clone()
            .with_placement(Placement::hashed_by(&names(&["k"])));
        assert_eq!(right.placement().unwrap().columns(), names(&["k"]));
        // The rows are hashed by `k`, not by `s`: no operator has to rely
        // on the claim for it to fail.
        let wrong = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plain
                .clone()
                .with_placement(Placement::hashed_by(&names(&["s"])))
        }))
        .expect_err("a wrong claim panics in debug builds");
        let msg = wrong.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains(r#"claimed to be hashed by ["s"]"#), "{msg}");
    }

    #[test]
    fn row_local_operators_keep_or_clear_the_placement() {
        let ctx = roomy();
        let (known, _) = placed_and_not(&ctx, keyed_sources(50), &["k"]);
        let by_k = known.placement().cloned();
        assert!(by_k.is_some());
        assert_eq!(known.with_context(&ctx).placement().cloned(), by_k);
        // A batch transform or a fused pipeline may overwrite a placed
        // column: only the plan's carry rule can hand a placement back.
        assert_eq!(
            known
                .map_batches("map", |b| Ok(b.clone()))
                .unwrap()
                .placement(),
            None
        );
        assert_eq!(
            known
                .run_pipeline("pipeline[add_index]", &[], true, |b, cx| {
                    unique_ids_batch(b, "id", cx, 0)
                })
                .unwrap()
                .placement(),
            None
        );
        assert_eq!(known.union(&known).unwrap().placement(), None);
        assert_eq!(known.distinct().unwrap().placement(), None);
        // A rename rewrites the names; a dropped column voids the claim.
        let renamed = by_k.as_ref().unwrap().carried(|c| Some(format!("x.{c}")));
        assert_eq!(renamed.unwrap().columns(), names(&["x.k"]));
        assert_eq!(by_k.as_ref().unwrap().carried(|_| None), None);
        // A broadcast join replicates one side and claims nothing.
        let small = ColCollection::from_parts(ctx.clone(), right_sources());
        let spec = JoinSpec::inner(&["k"], &["k"]).with_hint(JoinHint::BroadcastRight);
        assert_eq!(known.join(&small, &spec).unwrap().placement(), None);
    }

    /// The partitions of `all` that `owned` covers, the rest empty: one
    /// rank's share of a cluster-wide input.
    fn owned_share(ctx: &DistContext, all: &[Batch], owned: &Range<usize>) -> ColCollection {
        let parts = (0..all.len()).map(|p| match owned.contains(&p) {
            true => all[p].clone(),
            false => Batch::empty(),
        });
        ColCollection::from_parts(ctx.clone(), parts.collect())
    }

    /// Runs `run` once per rank of a `ranks`-process [`MemMesh`] cluster
    /// over `config.partitions` partitions, each rank on its own context.
    fn on_ranks<T: Send>(
        ranks: usize,
        config: &ClusterConfig,
        run: &(dyn Fn(&DistContext, Range<usize>) -> T + Sync),
    ) -> Vec<T> {
        std::thread::scope(|s| {
            let handles: Vec<_> = MemMesh::cluster(ranks)
                .into_iter()
                .map(|mesh| {
                    s.spawn(move || {
                        let owned = owned_range(mesh.rank(), config.partitions, ranks);
                        let ctx = DistContext::new(config.clone());
                        ctx.set_exchange(Some(Arc::new(mesh)));
                        run(&ctx, owned)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    /// Bags compare as multisets: a group's members arrive in rank order.
    fn canonical(rows: Vec<Value>) -> Vec<Value> {
        trance_nrc::canonical_rows(&Bag::new(rows))
    }

    /// An exchange whose every allgather answers with the same frames.
    #[derive(Debug)]
    struct Canned(Vec<Vec<u8>>);

    impl Exchange for Canned {
        fn rank(&self) -> usize {
            0
        }
        fn ranks(&self) -> usize {
            self.0.len()
        }
        fn shuffle(&self, _: Vec<(usize, Vec<u8>)>) -> Result<Vec<Vec<u8>>> {
            Ok(Vec::new())
        }
        fn allgather(&self, _: Vec<u8>) -> Result<Vec<Vec<u8>>> {
            Ok(self.0.clone())
        }
    }

    #[test]
    fn count_frames_merge_additively_and_a_truncated_one_is_an_error() {
        let frame =
            |words: &[u64]| -> Vec<u8> { words.iter().flat_map(|w| w.to_le_bytes()).collect() };
        let merged = |frames: Vec<Vec<u8>>| {
            let ctx = DistContext::new(ClusterConfig::new(1, 2));
            ctx.set_exchange(Some(Arc::new(Canned(frames))));
            merge_counts(&ctx, HashMap::new())
        };
        let whole = vec![frame(&[7, 3]), frame(&[7, 2, 9, 1]), frame(&[])];
        assert_eq!(merged(whole).unwrap(), HashMap::from([(7, 5), (9, 1)]));
        let full = frame(&[7, 3]);
        for cut in [4, 8, 12] {
            let truncated = vec![frame(&[9, 1]), full[..cut].to_vec()];
            assert!(merged(truncated).is_err(), "a frame cut to {cut} bytes");
        }
    }

    /// A grouping placed for its consumer, regrouped in place, joined in
    /// place twice and regrouped again — on one process and on 3 ranks, over
    /// keys a fifth of which are NULL or absent. Every rank must skip the
    /// same shuffles (or the collectives desynchronize) and the rank-summed
    /// result and meters must be the single process's.
    #[test]
    fn ranks_agree_on_what_stays_in_place_with_null_and_absent_keys() {
        let sources = keyed_sources(300);
        let rights = right_sources();
        let run = |ctx: &DistContext, owned: Range<usize>| {
            let spec = JoinSpec::renest(&["k"], &["k"], "rss").with_hint(JoinHint::Shuffle);
            let grouped = owned_share(ctx, &rights, &owned)
                .nest_bag_placed(&names(&["k", "rs"]), &[], "none", &names(&["k"]))
                .unwrap()
                .nest_bag(&names(&["k"]), &names(&["rs"]), "rss")
                .unwrap();
            let joined = owned_share(ctx, &sources, &owned)
                .join(&grouped, &spec)
                .unwrap();
            // Left side in place, right side in place.
            let twice = joined.join(&grouped, &spec).unwrap();
            // Every row of the output is placed, NULL and absent keys
            // included: the grouping stays in place too.
            let regrouped = twice
                .nest_bag(&names(&["k"]), &names(&["s", "v"]), "g")
                .unwrap();
            let mut rows: Vec<Value> = rows_per_partition(&regrouped).concat();
            rows.extend(rows_per_partition(&twice).concat());
            (rows, ctx.stats().snapshot())
        };
        let config = ClusterConfig::new(2, 6);
        let (want, single) = run(&DistContext::new(config.clone()), 0..6);
        // nest_bag, right side of both joins, left side of the second, the
        // regrouping.
        assert_eq!(single.shuffles_in_place, 5);
        let mut got: Vec<Value> = Vec::new();
        let mut shuffled = (0u64, 0u64);
        for (rows, stats) in on_ranks(3, &config, &run) {
            got.extend(rows);
            shuffled = (
                shuffled.0 + stats.shuffled_tuples,
                shuffled.1 + stats.shuffled_bytes,
            );
            assert_eq!(stats.shuffles_in_place, single.shuffles_in_place);
        }
        assert_eq!(canonical(got), canonical(want));
        assert_eq!(shuffled, (single.shuffled_tuples, single.shuffled_bytes));
    }

    /// Skew handling on 2 and 3 ranks: every rank derives the same heavy
    /// hashes from the merged per-target loads and the merged counts of the
    /// overloaded target, so `skew_join` and `nest_sum_skew` give the single
    /// process's rows, shuffle meters and skew broadcasts. Key 7 holds 30 %
    /// of the rows, spread evenly over the partitions: its target receives
    /// about three times the mean load, and a rank sees only its share.
    #[test]
    fn ranks_agree_on_the_heavy_hashes() {
        let sources = keyed_sources(300);
        let rights = right_sources();
        let run = |ctx: &DistContext, owned: Range<usize>| {
            let left = owned_share(ctx, &sources, &owned);
            let spec = JoinSpec::inner(&["k"], &["k"]).with_hint(JoinHint::Shuffle);
            let joined = left
                .skew_join(&owned_share(ctx, &rights, &owned), &spec)
                .unwrap();
            let summed = left.nest_sum_skew(&names(&["k"]), &names(&["v"])).unwrap();
            let mut rows: Vec<Value> = rows_per_partition(&joined).concat();
            rows.extend(rows_per_partition(&summed).concat());
            (rows, ctx.stats().snapshot())
        };
        let config = ClusterConfig::new(2, 6);
        let (want, single) = run(&DistContext::new(config.clone()), 0..6);
        assert_eq!(single.skew_broadcast_joins, 1, "{single:?}");
        for ranks in [2, 3] {
            let mut got: Vec<Value> = Vec::new();
            let mut shuffled = (0u64, 0u64);
            for (rows, stats) in on_ranks(ranks, &config, &run) {
                got.extend(rows);
                shuffled = (
                    shuffled.0 + stats.shuffled_tuples,
                    shuffled.1 + stats.shuffled_bytes,
                );
                assert_eq!(stats.skew_broadcast_joins, 1, "{ranks} ranks");
                assert_eq!(stats.skew_fallback_joins, 0, "{ranks} ranks");
            }
            assert_eq!(canonical(got), canonical(want.clone()), "{ranks} ranks");
            assert_eq!(
                shuffled,
                (single.shuffled_tuples, single.shuffled_bytes),
                "{ranks} ranks"
            );
        }
    }
}
