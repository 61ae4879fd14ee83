//! The **table store**: where registered inputs live, in the engine's own
//! representation.
//!
//! A stored table is its batches, converted once, when it is registered, so
//! every query only looks them up — the input caching the paper's Section 6
//! excludes from its runtimes. A nested input's shredded form is derived
//! from its nested batches where they live (`shredder.rs`). One lifecycle
//! serves every owner — a one-shot `InputSet`, the TCP worker and the
//! serving engine:
//!
//! * a table sits behind an `Arc`, so clones of a store share it (a clone
//!   taken before a replacement keeps the old data), and a flat table's
//!   nested-form and shredded-form entries are one table;
//! * re-registering a name replaces the entry; nothing is invalidated in
//!   place;
//! * rows exist only when a frozen row accessor (`InputSet::nested_inputs`
//!   / `shredded_inputs`) reads them: those hand out batch-backed
//!   collections, and ingesting one again is a pointer copy.
//!
//! A TCP rank types its tables at `Load` from its own sample, since no
//! exchange exists then. Every rank must reach every collective in the same
//! order on every attempt, so with an exchange installed, looking the
//! tables up (`InputSet::resident`) walks the union of the ranks' table
//! names in order and gathers each table's sample; a table whose gathered
//! hints differ from its own is re-typed from its rows for that run.
//! [`ResidentTables::catalog`] merges schemas and sums sizes across ranks.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};

use trance_algebra::{AttrSchema, Catalog};
use trance_dist::{Batch, ColCollection, DistCollection, DistContext, FieldHint, Result};
use trance_store::{ByteReader, ByteWriter};

use crate::columnar::{
    encoded_sample, gathered_hints, global_schema, local_hints, local_schema_col,
};

/// One stored table: its batches, the field hints they were typed from
/// (this process's sample), the batches as a batch-backed row collection
/// for the frozen row accessors, and their exact schema and logical size
/// (rank-local), which every query's catalog reads.
#[derive(Debug)]
pub(crate) struct Table {
    hints: Vec<FieldHint>,
    batches: ColCollection,
    rows: DistCollection,
    schema: AttrSchema,
    logical_bytes: usize,
    /// This process's sample, encoded for the per-run gather under an
    /// exchange (a table never changes, so neither does its sample).
    sample: OnceLock<Vec<u8>>,
}

impl Table {
    /// The table over `parts`, batches a loader typed from `hints`.
    fn new(ctx: &DistContext, parts: Vec<Batch>, hints: Vec<FieldHint>) -> Result<Table> {
        let rows = DistCollection::from_batches(ctx, parts, Some(&hints));
        let batches = ColCollection::ingest(&rows, &hints)?;
        Ok(Table {
            schema: local_schema_col(&batches)?,
            logical_bytes: batches.logical_bytes(),
            hints,
            batches,
            rows,
            sample: OnceLock::new(),
        })
    }

    /// Converts `rows`, typed from `hints`.
    fn typed(rows: &DistCollection, hints: Vec<FieldHint>) -> Result<Table> {
        let batches = ColCollection::ingest(rows, &hints)?;
        let parts = batches.batches()?.into_iter().map(Cow::into_owned);
        Table::new(rows.context(), parts.collect(), hints)
    }

    /// Converts `rows`, typed from this process's sample of them.
    pub(crate) fn ingest(rows: &DistCollection) -> Result<Table> {
        Table::typed(rows, local_hints(rows))
    }

    /// The table over batches its loader built (the shredder's top bag and
    /// dictionaries), typed from this process's sample of them.
    pub(crate) fn derived(ctx: &DistContext, parts: Vec<Batch>) -> Result<Table> {
        let hints = local_hints(&DistCollection::from_batches(ctx, parts.clone(), None));
        Table::new(ctx, parts, hints)
    }

    /// The batches, one per partition.
    pub(crate) fn batches(&self) -> &ColCollection {
        &self.batches
    }

    /// The table a run reads: this one, unless an exchange is installed and
    /// the cluster's sample types it otherwise than this rank's did.
    fn for_run(self: &Arc<Table>) -> Result<Arc<Table>> {
        let Some(ex) = self.rows.context().exchange() else {
            return Ok(self.clone());
        };
        let sample = match self.sample.get() {
            Some(sample) => sample,
            None => {
                let sample = encoded_sample(&self.rows)?;
                self.sample.get_or_init(|| sample)
            }
        };
        let hints = gathered_hints(ex.as_ref(), sample.clone())?;
        if hints == self.hints {
            return Ok(self.clone());
        }
        Ok(Arc::new(Table::typed(&self.rows, hints)?))
    }
}

/// The tables of one form (nested or shredded) by physical name. They are
/// two maps only because the frozen `InputSet` accessors hand out
/// `&HashMap<String, DistCollection>`. `tables` is ordered: looking the
/// tables up walks it in name order (see [`TableStore::resident`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct TableStore {
    rows: HashMap<String, DistCollection>,
    tables: BTreeMap<String, Arc<Table>>,
}

impl TableStore {
    /// Adds `table` under `name`, replacing any previous entry.
    pub(crate) fn insert(&mut self, name: &str, table: impl Into<Arc<Table>>) {
        let table = table.into();
        self.rows.insert(name.to_string(), table.rows.clone());
        self.tables.insert(name.to_string(), table);
    }

    /// Drops the entry under `name`, if any.
    pub(crate) fn remove(&mut self, name: &str) {
        self.rows.remove(name);
        self.tables.remove(name);
    }

    /// Moves every entry of `other` in.
    pub(crate) fn extend(&mut self, other: TableStore) {
        self.rows.extend(other.rows);
        self.tables.extend(other.tables);
    }

    /// The batch-backed row collections by name.
    pub(crate) fn rows(&self) -> &HashMap<String, DistCollection> {
        &self.rows
    }

    /// The tables a run reads, in name order: under a multi-process
    /// exchange each table's sample is a cluster collective, so every rank
    /// must walk the same tables in the same order — the union of the
    /// ranks' names, a table this rank lacks read as empty. (A rank whose
    /// partitions hold none of a nested input's bags derives none of its
    /// dictionaries.)
    pub(crate) fn resident(&self, ctx: &DistContext) -> Result<ResidentTables> {
        let mut names: BTreeSet<String> = self.tables.keys().cloned().collect();
        if let Some(ex) = ctx.exchange() {
            let mut w = ByteWriter::new();
            w.len_u32(names.len(), "table names")?;
            for name in &names {
                w.str(name)?;
            }
            for bytes in ex.allgather(w.into_bytes())? {
                let mut r = ByteReader::new(&bytes);
                for _ in 0..r.u32()? {
                    names.insert(r.str()?);
                }
            }
        }
        names
            .into_iter()
            .map(|name| {
                let table = match self.tables.get(&name) {
                    Some(table) => table.clone(),
                    None => Arc::new(Table::derived(ctx, Vec::new())?),
                };
                Ok((name, table.for_run()?))
            })
            .collect::<Result<_>>()
            .map(ResidentTables)
    }
}

/// The batches of one form's tables, in name order — what a query runs
/// over. Obtained from `InputSet::resident`.
#[derive(Debug)]
pub struct ResidentTables(Vec<(String, Arc<Table>)>);

impl ResidentTables {
    /// The batches by table name, bound to `ctx` — the store's own context
    /// or a session of it (an O(1) rebind each: partitions are shared).
    pub fn batches(&self, ctx: &DistContext) -> HashMap<String, ColCollection> {
        self.0
            .iter()
            .map(|(name, t)| (name.clone(), t.batches.with_context(ctx)))
            .collect()
    }

    /// The catalog of these tables — exact batch schemas and logical sizes,
    /// what `infer_catalog_col` derives from the batches, read from the
    /// tables instead. Under a multi-process exchange on `ctx` they are
    /// merged / summed across the cluster, table by table in name order.
    pub fn catalog(&self, ctx: &DistContext) -> Result<Catalog> {
        let mut catalog = Catalog::new();
        for (name, t) in &self.0 {
            catalog.register(name.clone(), global_schema(ctx, &t.schema)?);
            catalog.set_size(name.clone(), ctx.planning_bytes(t.logical_bytes)?);
        }
        Ok(catalog)
    }
}
