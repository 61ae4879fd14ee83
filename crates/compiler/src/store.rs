//! The **table store**: where registered inputs live, in the engine's own
//! representation.
//!
//! A stored table is its row [`DistCollection`] (what the frozen
//! `InputSet::nested_inputs` / `shredded_inputs` accessors and the
//! benchmark's ingest probe read) plus a **write-once cell**
//! holding its columnar form: the ingested [`ColCollection`], the exact
//! schema of those batches and their logical size. The cell is filled on the
//! first query that needs the table's form and is never modified afterwards
//! — "added once, referenced thereafter" — so every later query only looks
//! the batches up. That is the input caching the paper's Section 6 excludes
//! from its runtimes.
//!
//! The write-once rule is the whole lifecycle:
//!
//! * the cell sits behind an `Arc`, so clones of a store share it (a clone
//!   taken before a replacement keeps answering over the old data), and a
//!   flat table's nested-form and shredded-form entries share one cell just
//!   as they share one row collection;
//! * re-registering a name replaces the entry — fresh rows, fresh empty
//!   cell. Nothing is ever invalidated in place, so there is no epoch on
//!   this path;
//! * an owner that never reads rows again (the serving engine) *seals* its
//!   tables: the cells are filled and the rows dropped, so each table is
//!   held once. A sealed table is its cell.
//!
//! Under a multi-process exchange only the **rank-local** conversion is
//! memoised. Schema sampling, schema merging and size summing are cluster
//! collectives, and every rank must reach every collective in the same
//! order on every attempt — whether its cell is warm, or cold because its
//! previous attempt died mid-ingest while a peer's finished. So with an
//! exchange installed, looking the resident tables up
//! (`InputSet::resident`) always runs the sample allgather (in sorted name
//! order) and reuses a cell only if the gathered hints equal the ones it
//! was built from, and [`ResidentTables::catalog`] always merges schemas and
//! sums sizes across ranks.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

use trance_algebra::{AttrSchema, Catalog};
use trance_dist::{ColCollection, DistCollection, DistContext, ExecError, FieldHint, Result};

use crate::columnar::{global_schema, local_schema_col, scan_hints};

/// The columnar form of one stored table, as this process holds it.
#[derive(Debug)]
struct Resident {
    /// The field hints the batches were typed from (cluster-wide under an
    /// exchange) — what decides whether a filled cell may be reused there.
    hints: Vec<FieldHint>,
    batches: ColCollection,
    /// Exact schema of `batches` (rank-local).
    schema: AttrSchema,
    /// Logical (row-equivalent) bytes of `batches` (rank-local).
    logical_bytes: usize,
}

type Cell = Arc<OnceLock<Arc<Resident>>>;

/// One stored table: its rows and the write-once cell of its columnar form.
/// Cloning shares the cell — how a flat table sits in both forms' stores.
#[derive(Debug, Clone)]
pub(crate) struct Table {
    rows: DistCollection,
    cell: Cell,
}

impl Table {
    /// A table over `rows` with an empty cell.
    pub(crate) fn new(rows: DistCollection) -> Table {
        Table {
            rows,
            cell: Cell::default(),
        }
    }
}

/// The tables of one form (nested or shredded) by physical name. Every
/// table has a cell; every table but a sealed one ([`TableStore::seal`]) has
/// rows. They are two maps only because the frozen `InputSet` accessors hand
/// out `&HashMap<String, DistCollection>`. `cells` is ordered: looking the
/// resident tables up walks it in name order (see [`TableStore::resident`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct TableStore {
    rows: HashMap<String, DistCollection>,
    cells: BTreeMap<String, Cell>,
}

impl TableStore {
    /// Adds `table` under `name`, replacing any previous entry (and with it
    /// the previous entry's cell).
    pub(crate) fn insert(&mut self, name: &str, table: Table) {
        self.rows.insert(name.to_string(), table.rows);
        self.cells.insert(name.to_string(), table.cell);
    }

    /// Drops the entry under `name`, if any.
    pub(crate) fn remove(&mut self, name: &str) {
        self.rows.remove(name);
        self.cells.remove(name);
    }

    /// Moves every entry of `other` in, cells included.
    pub(crate) fn extend(&mut self, other: TableStore) {
        self.rows.extend(other.rows);
        self.cells.extend(other.cells);
    }

    /// The row collections by name.
    pub(crate) fn rows(&self) -> &HashMap<String, DistCollection> {
        &self.rows
    }

    /// The resident columnar form of every table, filling cold cells.
    pub(crate) fn resident(&self) -> Result<ResidentTables> {
        // In name order: filling a cell samples the schema, a cluster
        // collective under a multi-process exchange, so every rank must walk
        // the tables in the same order.
        self.cells
            .iter()
            .map(|(name, cell)| {
                let table = match (self.rows.get(name), cell.get()) {
                    (Some(rows), _) => resident(rows, cell)?,
                    (None, Some(sealed)) => sealed.clone(),
                    (None, None) => {
                        return Err(ExecError::Other(format!(
                            "stored table `{name}` has neither rows nor resident batches"
                        )))
                    }
                };
                Ok((name.clone(), table))
            })
            .collect::<Result<_>>()
            .map(ResidentTables)
    }

    /// Fills every cell and drops the row collections: the tables live on as
    /// their resident batches alone.
    pub(crate) fn seal(&mut self) -> Result<()> {
        self.resident()?;
        self.rows.clear();
        Ok(())
    }
}

/// Looks `cell` up, converting `rows` on first use.
fn resident(rows: &DistCollection, cell: &Cell) -> Result<Arc<Resident>> {
    let clustered = rows.context().exchange().is_some();
    if !clustered {
        if let Some(found) = cell.get() {
            return Ok(found.clone());
        }
    }
    let hints = scan_hints(rows)?;
    if let Some(found) = cell.get().filter(|r| r.hints == hints) {
        return Ok(found.clone());
    }
    let batches = ColCollection::ingest(rows, &hints)?;
    let built = Arc::new(Resident {
        schema: local_schema_col(&batches)?,
        logical_bytes: batches.logical_bytes(),
        hints,
        batches,
    });
    // Write-once: if a concurrent first use won the race (or the cell was
    // built from other hints), the cell keeps what it has and this run uses
    // its own conversion.
    let _ = cell.set(built.clone());
    Ok(built)
}

/// The resident columnar form of one form's tables, in name order — what a
/// query runs over. Obtained from `InputSet::resident`.
#[derive(Debug)]
pub struct ResidentTables(Vec<(String, Arc<Resident>)>);

impl ResidentTables {
    /// The batches by table name, bound to `ctx` — the store's own context
    /// or a session of it (an O(1) rebind each: partitions are shared).
    pub fn batches(&self, ctx: &DistContext) -> HashMap<String, ColCollection> {
        self.0
            .iter()
            .map(|(name, r)| (name.clone(), r.batches.with_context(ctx)))
            .collect()
    }

    /// The catalog of these tables — exact batch schemas and logical sizes,
    /// what `infer_catalog_col` derives from the batches, read from the
    /// cells instead. Under a multi-process exchange on `ctx` the rank-local
    /// entries are merged / summed across the cluster, table by table in
    /// name order.
    pub fn catalog(&self, ctx: &DistContext) -> Result<Catalog> {
        let mut catalog = Catalog::new();
        for (name, r) in &self.0 {
            catalog.register(name.clone(), global_schema(ctx, &r.schema)?);
            catalog.set_size(name.clone(), ctx.planning_bytes(r.logical_bytes)?);
        }
        Ok(catalog)
    }
}
