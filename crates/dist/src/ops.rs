//! [`DistCollection`]: a partitioned bag of [`Value`] rows — the row-side
//! container of the engine's two `Value` ↔ `Batch` boundaries.
//!
//! Rows enter the engine here (loaders parallelize or hand over partitioned
//! rows, and [`crate::ColCollection::ingest`] converts them to batches once)
//! and leave it here ([`crate::ColCollection::to_rows`] at the collect
//! boundary). Nothing executes on rows: every operator runs over batches in
//! [`crate::colops`]. A row collection is always memory-resident, unmetered
//! and uncapped, matching the paper's exclusion of input loading and result
//! collection from measured runs.

use std::sync::Arc;

use trance_nrc::{Bag, Value};

use crate::partition::split_round_robin;
use crate::DistContext;

/// A distributed collection of rows: `ClusterConfig::partitions` slices
/// owned by a [`DistContext`] (partition `i` lives on worker `i % workers`).
#[derive(Clone)]
pub struct DistCollection {
    ctx: DistContext,
    parts: Arc<Vec<Vec<Value>>>,
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
    /// partition. This is the multi-node loading entry point: a worker
    /// process receives only the partitions its rank owns and passes empty
    /// vectors for the rest, so every rank sees the same full-length
    /// partition vector.
    pub fn from_partitioned_rows(ctx: DistContext, mut parts: Vec<Vec<Value>>) -> Self {
        parts.resize(ctx.config().partitions.max(1).max(parts.len()), Vec::new());
        DistCollection {
            ctx,
            parts: Arc::new(parts),
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

    /// The partitioned rows, in partition order.
    pub fn partitions(&self) -> &[Vec<Value>] {
        &self.parts
    }

    /// Total number of rows.
    pub fn len(&self) -> usize {
        self.parts.iter().map(Vec::len).sum()
    }

    /// True when the collection holds no rows.
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(Vec::is_empty)
    }

    /// Gathers every row to the caller ("driver"), in partition order.
    pub fn collect(&self) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.len());
        for part in self.parts.iter() {
            out.extend_from_slice(part);
        }
        out
    }

    /// Gathers every row into a [`Bag`].
    pub fn collect_bag(&self) -> Bag {
        Bag::new(self.collect())
    }
}
