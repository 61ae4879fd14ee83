//! [`DistCollection`]: a partitioned bag of [`Value`] rows — the row-side
//! container of the engine's two `Value` ↔ `Batch` boundaries.
//!
//! Rows enter the engine here (loaders parallelize or hand over partitioned
//! rows, and [`crate::ColCollection::ingest`] converts them to batches once)
//! and leave it here ([`crate::ColCollection::to_rows`] at the collect
//! boundary). Nothing executes on rows: every operator runs over batches in
//! [`crate::colops`]. A result is its batches: its rows are built once, on
//! demand — [`DistCollection::collect`] converts straight into the one
//! output vector, and [`DistCollection::partitions`] converts once into a
//! write-once cell; so is a stored table. A row collection is always
//! memory-resident, unmetered and uncapped, matching the paper's exclusion
//! of input loading and result collection from measured runs; building its
//! rows observes no cancellation.

use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

use trance_nrc::{Bag, Value};

use crate::batch::{Batch, FieldHint};
use crate::partition::split_round_robin;
use crate::DistContext;

/// A distributed collection of rows: `ClusterConfig::partitions` slices
/// owned by a [`DistContext`] (partition `i` lives on worker `i % workers`).
#[derive(Clone)]
pub struct DistCollection {
    ctx: DistContext,
    parts: Arc<Parts>,
}

/// What a collection holds: loaded rows, or batches (and the hints a loader
/// typed them from) plus their rows once [`DistCollection::partitions`]
/// asked for them.
enum Parts {
    Rows(Vec<Vec<Value>>),
    Batches(
        Vec<Batch>,
        Option<Arc<[FieldHint]>>,
        OnceLock<Vec<Vec<Value>>>,
    ),
}

impl std::fmt::Debug for DistCollection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistCollection")
            .field("partitions", &self.num_partitions())
            .field("rows", &self.len())
            .finish()
    }
}

impl DistCollection {
    /// Wraps an already-partitioned row set with an explicit slot per
    /// partition. This is the multi-node loading entry point: a worker
    /// process receives only the partitions its rank owns and passes empty
    /// vectors for the rest, so every rank sees the same full-length
    /// partition vector.
    pub fn from_partitioned_rows(ctx: DistContext, mut parts: Vec<Vec<Value>>) -> Self {
        parts.resize(ctx.config().partitions.max(1).max(parts.len()), Vec::new());
        DistCollection {
            ctx,
            parts: Arc::new(Parts::Rows(parts)),
        }
    }

    /// Wraps batches, one per partition, padded like
    /// [`DistCollection::from_partitioned_rows`]. No row is built here. With
    /// `typed`, a loader vouches that re-typing their rows from those hints
    /// would rebuild the same rows, so [`crate::ColCollection::ingest`] under
    /// them is a pointer copy.
    pub fn from_batches(
        ctx: &DistContext,
        mut batches: Vec<Batch>,
        typed: Option<&[FieldHint]>,
    ) -> Self {
        batches.resize(
            ctx.config().partitions.max(1).max(batches.len()),
            Batch::empty(),
        );
        let typed = typed.map(Arc::from);
        DistCollection {
            ctx: ctx.clone(),
            parts: Arc::new(Parts::Batches(batches, typed, OnceLock::new())),
        }
    }

    /// The batches and the hints they were typed from; `None` for rows.
    pub(crate) fn batches(&self) -> Option<(&[Batch], Option<&[FieldHint]>)> {
        match &*self.parts {
            Parts::Rows(_) => None,
            Parts::Batches(batches, typed, _) => Some((batches, typed.as_deref())),
        }
    }

    /// Distributes `rows` round-robin over the context's partitions.
    pub(crate) fn parallelize(ctx: DistContext, rows: Vec<Value>) -> Self {
        let nparts = ctx.config().partitions;
        DistCollection::from_partitioned_rows(ctx, split_round_robin(rows, nparts))
    }

    /// The owning context.
    pub fn context(&self) -> &DistContext {
        &self.ctx
    }

    /// The partitioned rows, in partition order. A result builds them on the
    /// first call and keeps them; later calls return the same slice.
    pub fn partitions(&self) -> &[Vec<Value>] {
        match &*self.parts {
            Parts::Rows(rows) => rows,
            Parts::Batches(batches, _, rows) => {
                rows.get_or_init(|| batches.iter().map(Batch::to_rows).collect())
            }
        }
    }

    /// The first `n` rows of every partition — a sample that builds no other
    /// row.
    pub fn head_rows(&self, n: usize) -> Vec<Cow<'_, [Value]>> {
        match &*self.parts {
            Parts::Rows(rows) => rows
                .iter()
                .map(|p| Cow::from(&p[..p.len().min(n)]))
                .collect(),
            Parts::Batches(batches, ..) => batches
                .iter()
                .map(|b| (0..b.rows().min(n)).map(|i| b.row_value(i)).collect())
                .collect(),
        }
    }

    /// The hints a loader typed the batches from, if it did.
    pub fn typed_hints(&self) -> Option<&[FieldHint]> {
        self.batches().and_then(|(_, typed)| typed)
    }

    fn num_partitions(&self) -> usize {
        match &*self.parts {
            Parts::Rows(rows) => rows.len(),
            Parts::Batches(batches, ..) => batches.len(),
        }
    }

    /// Total number of rows.
    pub fn len(&self) -> usize {
        match &*self.parts {
            Parts::Rows(rows) => rows.iter().map(Vec::len).sum(),
            Parts::Batches(batches, ..) => batches.iter().map(Batch::rows).sum(),
        }
    }

    /// True when the collection holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Gathers every row to the caller ("driver"), in partition order. A
    /// result's rows are built straight into the returned vector.
    pub fn collect(&self) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.len());
        match &*self.parts {
            Parts::Rows(rows) => rows.iter().for_each(|part| out.extend_from_slice(part)),
            Parts::Batches(batches, ..) => {
                for batch in batches {
                    out.extend((0..batch.rows()).map(|i| batch.row_value(i)));
                }
            }
        }
        out
    }

    /// Gathers every row into a [`Bag`].
    pub fn collect_bag(&self) -> Bag {
        Bag::new(self.collect())
    }
}
