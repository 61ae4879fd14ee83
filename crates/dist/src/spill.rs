//! The engine side of the out-of-core subsystem: the compact on-disk
//! serialization of [`Batch`], plus the spilled-part bookkeeping the
//! operators use.
//!
//! A spilled partition is a `trance-store` spill file whose
//! frames are encoded batch chunks (at most [`SPILL_CHUNK_ROWS`] rows each):
//! schema header (field names + opaque flag), then one typed column per
//! attribute — `i64`/`f64`/`bool`/date vectors, string dictionaries
//! (concatenated buffer + offsets + codes), offset-encoded bag columns whose
//! child batch recurses through the same format, and the null/absent
//! validity bitmaps as raw words. The round trip is lossless, like the
//! in-memory `Value` ↔ `Batch` path; `dist/tests/spill_roundtrip.rs` holds it
//! to strict equality on random nested batches.
//!
//! All writes and reads are metered into the context [`crate::Stats`]
//! (`spilled_bytes`, `spill_files`, `spill_micros`).

use std::sync::Arc;
use std::time::Instant;

use trance_store::{
    decode_value, encode_value, ByteReader, ByteWriter, SpillHandle, SpillReader, Spillable,
};

use crate::batch::{BagElems, Batch, Bitmap, Column, Schema, StrDict};
use crate::error::Result;
use crate::DistContext;

/// Maximum rows per spill frame: bounds the memory a streaming reader needs
/// to hold one decoded chunk.
pub const SPILL_CHUNK_ROWS: usize = 2048;

// ---------------------------------------------------------------------------
// batch codec
// ---------------------------------------------------------------------------

// Column tags — part of the on-disk format, do not renumber.
const COL_INT: u8 = 0;
const COL_REAL: u8 = 1;
const COL_BOOL: u8 = 2;
const COL_DATE: u8 = 3;
const COL_STR: u8 = 4;
const COL_BAG_ROWS: u8 = 5;
const COL_BAG_VALUES: u8 = 6;
const COL_OTHER: u8 = 7;

fn encode_bitmap(bm: &Bitmap, w: &mut ByteWriter) -> std::io::Result<()> {
    w.len_u32(bm.len(), "bitmap bits")?;
    for word in bm.words() {
        w.u64(*word);
    }
    Ok(())
}

fn decode_bitmap(r: &mut ByteReader<'_>) -> std::io::Result<Bitmap> {
    let len = r.u32()? as usize;
    let mut words = Vec::with_capacity(r.bounded_capacity(len.div_ceil(64)));
    for _ in 0..len.div_ceil(64) {
        words.push(r.u64()?);
    }
    Ok(Bitmap::from_words(words, len))
}

fn invalid(what: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.into())
}

/// Reads a column's `nulls` and `absent` bitmaps, which must cover exactly
/// its `rows` rows.
fn decode_validity(r: &mut ByteReader<'_>, rows: usize) -> std::io::Result<(Bitmap, Bitmap)> {
    let nulls = decode_bitmap(r)?;
    let absent = decode_bitmap(r)?;
    if nulls.len() != rows || absent.len() != rows {
        return Err(invalid(format!(
            "validity bitmaps of {} and {} bits on a column of {rows} rows",
            nulls.len(),
            absent.len()
        )));
    }
    Ok((nulls, absent))
}

/// Reads a `u32` offset vector; the caller validates it with
/// [`check_offsets`] once it has read what the offsets point into.
fn decode_offsets(r: &mut ByteReader<'_>) -> std::io::Result<Vec<u32>> {
    let n = r.u32()? as usize;
    let mut offsets = Vec::with_capacity(r.bounded_capacity(n));
    for _ in 0..n {
        offsets.push(r.u32()?);
    }
    Ok(offsets)
}

/// Offsets must start at 0, never decrease and end at `end`.
fn check_offsets(offsets: &[u32], end: usize, what: &str) -> std::io::Result<()> {
    let monotone = offsets.windows(2).all(|w| w[0] <= w[1]);
    if offsets.first() != Some(&0) || !monotone || offsets.last().map(|o| *o as usize) != Some(end)
    {
        return Err(invalid(format!(
            "{what} offsets do not run monotonically from 0 to {end}"
        )));
    }
    Ok(())
}

fn encode_column(col: &Column, w: &mut ByteWriter) -> std::io::Result<()> {
    macro_rules! prim {
        ($tag:expr, $data:expr, $nulls:expr, $absent:expr, $write:ident) => {{
            w.u8($tag);
            w.len_u32($data.len(), "column values")?;
            for v in $data {
                w.$write(*v);
            }
            encode_bitmap($nulls, w)?;
            encode_bitmap($absent, w)?;
        }};
    }
    match col {
        Column::Int {
            data,
            nulls,
            absent,
        } => prim!(COL_INT, data, nulls, absent, i64),
        Column::Real {
            data,
            nulls,
            absent,
        } => prim!(COL_REAL, data, nulls, absent, f64),
        Column::Date {
            data,
            nulls,
            absent,
        } => prim!(COL_DATE, data, nulls, absent, i64),
        Column::Bool {
            data,
            nulls,
            absent,
        } => {
            w.u8(COL_BOOL);
            w.len_u32(data.len(), "column values")?;
            for v in data {
                w.u8(u8::from(*v));
            }
            encode_bitmap(nulls, w)?;
            encode_bitmap(absent, w)?;
        }
        Column::Str {
            dict,
            codes,
            nulls,
            absent,
        } => {
            w.u8(COL_STR);
            let (bytes, offsets) = dict.raw_parts();
            w.str(bytes)?;
            w.len_u32(offsets.len(), "dictionary offsets")?;
            for o in offsets {
                w.u32(*o);
            }
            w.len_u32(codes.len(), "dictionary codes")?;
            for c in codes {
                w.u32(*c);
            }
            encode_bitmap(nulls, w)?;
            encode_bitmap(absent, w)?;
        }
        Column::Bag {
            offsets,
            elems,
            nulls,
            absent,
        } => {
            match elems {
                BagElems::Rows(child) => {
                    w.u8(COL_BAG_ROWS);
                    w.len_u32(offsets.len(), "bag offsets")?;
                    for o in offsets {
                        w.u32(*o);
                    }
                    child.encode(w)?;
                }
                BagElems::Values(values) => {
                    w.u8(COL_BAG_VALUES);
                    w.len_u32(offsets.len(), "bag offsets")?;
                    for o in offsets {
                        w.u32(*o);
                    }
                    w.len_u32(values.len(), "bag values")?;
                    for v in values {
                        encode_value(v, w)?;
                    }
                }
            }
            encode_bitmap(nulls, w)?;
            encode_bitmap(absent, w)?;
        }
        Column::Other { values, absent } => {
            w.u8(COL_OTHER);
            w.len_u32(values.len(), "column values")?;
            for v in values {
                encode_value(v, w)?;
            }
            encode_bitmap(absent, w)?;
        }
    }
    Ok(())
}

/// Decodes one column and checks every invariant the engine later indexes
/// by: a frame comes off a socket or a disk, so a violated one is a typed
/// `InvalidData`, never a panic three operators downstream.
fn decode_column(r: &mut ByteReader<'_>) -> std::io::Result<Column> {
    let tag = r.u8()?;
    macro_rules! prim {
        ($variant:ident, $read:expr) => {{
            let n = r.u32()? as usize;
            let mut data = Vec::with_capacity(r.bounded_capacity(n));
            for _ in 0..n {
                data.push($read(r)?);
            }
            let (nulls, absent) = decode_validity(r, n)?;
            Column::$variant {
                data,
                nulls,
                absent,
            }
        }};
    }
    Ok(match tag {
        COL_INT => prim!(Int, ByteReader::i64),
        COL_REAL => prim!(Real, ByteReader::f64),
        COL_DATE => prim!(Date, ByteReader::i64),
        COL_BOOL => prim!(Bool, |r: &mut ByteReader<'_>| r.u8().map(|b| b != 0)),
        COL_STR => {
            let bytes = r.str()?;
            let offsets = decode_offsets(r)?;
            check_offsets(&offsets, bytes.len(), "dictionary")?;
            if !offsets.iter().all(|o| bytes.is_char_boundary(*o as usize)) {
                return Err(invalid("dictionary offset inside a UTF-8 sequence"));
            }
            let n_codes = r.u32()? as usize;
            let mut codes = Vec::with_capacity(r.bounded_capacity(n_codes));
            for _ in 0..n_codes {
                codes.push(r.u32()?);
            }
            let (nulls, absent) = decode_validity(r, n_codes)?;
            // NULL/absent lanes hold placeholder codes that need not index
            // the (possibly empty) dictionary; every other lane must.
            let entries = offsets.len() - 1;
            let bad = (0..n_codes)
                .find(|&i| codes[i] as usize >= entries && !nulls.get(i) && !absent.get(i));
            if let Some(i) = bad {
                return Err(invalid(format!(
                    "string code {} of row {i} outside a dictionary of {entries} entries",
                    codes[i]
                )));
            }
            Column::Str {
                dict: StrDict::from_raw(bytes, offsets),
                codes,
                nulls,
                absent,
            }
        }
        COL_BAG_ROWS | COL_BAG_VALUES => {
            let offsets = decode_offsets(r)?;
            let elems = if tag == COL_BAG_ROWS {
                BagElems::Rows(Box::new(Batch::decode(r)?))
            } else {
                let n = r.u32()? as usize;
                let mut values = Vec::with_capacity(r.bounded_capacity(n));
                for _ in 0..n {
                    values.push(decode_value(r)?);
                }
                BagElems::Values(values)
            };
            let elem_count = match &elems {
                BagElems::Rows(child) => child.rows(),
                BagElems::Values(values) => values.len(),
            };
            check_offsets(&offsets, elem_count, "bag")?;
            let rows = offsets.len() - 1;
            let (nulls, absent) = decode_validity(r, rows)?;
            // `Column::coalesce_empty_bag` relies on this one.
            let spans = |i: usize| offsets[i] != offsets[i + 1];
            if (0..rows).any(|i| spans(i) && (nulls.get(i) || absent.get(i))) {
                return Err(invalid("NULL or absent bag row spans elements"));
            }
            Column::Bag {
                offsets,
                elems,
                nulls,
                absent,
            }
        }
        COL_OTHER => {
            let n = r.u32()? as usize;
            let mut values = Vec::with_capacity(r.bounded_capacity(n));
            for _ in 0..n {
                values.push(decode_value(r)?);
            }
            let absent = decode_bitmap(r)?;
            if absent.len() != n {
                return Err(invalid(format!(
                    "absent bitmap of {} bits on a column of {n} rows",
                    absent.len()
                )));
            }
            Column::Other { values, absent }
        }
        other => {
            return Err(invalid(format!(
                "unknown column tag {other} in spill frame"
            )))
        }
    })
}

/// The compact on-disk batch layout: row count, schema header (opaque flag +
/// field names), then the typed columns.
impl Spillable for Batch {
    fn encode(&self, w: &mut ByteWriter) -> std::io::Result<()> {
        w.len_u32(self.rows(), "batch rows")?;
        w.u8(u8::from(self.schema().is_opaque()));
        w.len_u32(self.schema().fields().len(), "schema fields")?;
        for f in self.schema().fields() {
            w.str(f)?;
        }
        w.len_u32(self.columns().len(), "batch columns")?;
        for col in self.columns() {
            encode_column(col, w)?;
        }
        Ok(())
    }

    fn decode(r: &mut ByteReader<'_>) -> std::io::Result<Batch> {
        let rows = r.u32()? as usize;
        let opaque = r.u8()? != 0;
        let n_fields = r.u32()? as usize;
        let mut fields = Vec::with_capacity(r.bounded_capacity(n_fields));
        for _ in 0..n_fields {
            fields.push(r.str()?);
        }
        let n_cols = r.u32()? as usize;
        let mut columns = Vec::with_capacity(r.bounded_capacity(n_cols));
        for _ in 0..n_cols {
            columns.push(Arc::new(decode_column(r)?));
        }
        // An opaque batch is one value column; a tuple batch one column per
        // field. Either way every column covers every row.
        let shaped = if opaque {
            matches!(columns.as_slice(), [col] if matches!(col.as_ref(), Column::Other { .. }))
        } else {
            columns.len() == fields.len()
        };
        if !shaped || columns.iter().any(|c| c.len() != rows) {
            return Err(invalid(format!(
                "batch of {rows} rows and {} fields carries columns of {:?} rows",
                fields.len(),
                columns.iter().map(|c| c.len()).collect::<Vec<_>>()
            )));
        }
        let schema = if opaque {
            Schema::opaque()
        } else {
            Schema::new(fields)
        };
        Ok(Batch::from_raw(Arc::new(schema), columns, rows))
    }
}

// ---------------------------------------------------------------------------
// spilled partitions
// ---------------------------------------------------------------------------

/// A columnar partition resident on disk: the sealed spill file plus the
/// metadata planners need without reading it back (row count and the
/// logical / physical sizes it had in memory). A partition that never
/// received a row carries no file at all (`handle: None`) — empty Grace
/// buckets must not create files or count in the spill stats.
#[derive(Debug)]
pub struct SpilledBatches {
    handle: Option<SpillHandle>,
    rows: usize,
    logical_bytes: usize,
    physical_bytes: usize,
}

impl SpilledBatches {
    /// Number of rows on disk.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row-equivalent (logical) bytes the partition had in memory.
    pub fn logical_bytes(&self) -> usize {
        self.logical_bytes
    }

    /// Physical buffer bytes the partition had in memory.
    pub fn physical_bytes(&self) -> usize {
        self.physical_bytes
    }
}

/// True for a batch carrying no information at all — no rows *and* no
/// schema. Such batches are skipped by both the resident accumulation path
/// and the spill writer (one shared predicate, so whether a partition
/// spilled cannot change which batches survive).
pub(crate) fn batch_is_void(batch: &Batch) -> bool {
    batch.is_empty() && batch.schema().fields().is_empty()
}

/// Splits a batch into row-range chunks of at most [`SPILL_CHUNK_ROWS`] rows
/// (one spill frame each).
pub(crate) fn batch_chunks(batch: &Batch) -> Vec<Batch> {
    if batch.rows() <= SPILL_CHUNK_ROWS {
        return vec![batch.clone()];
    }
    let mut out = Vec::with_capacity(batch.rows().div_ceil(SPILL_CHUNK_ROWS));
    let mut lo = 0;
    while lo < batch.rows() {
        let hi = (lo + SPILL_CHUNK_ROWS).min(batch.rows());
        let idx: Vec<usize> = (lo..hi).collect();
        out.push(batch.take(&idx));
        lo = hi;
    }
    out
}

/// Incremental writer of one spilled columnar partition: chunks are encoded
/// and appended as frames; [`SpillChunkWriter::finish`] seals the file and
/// meters the spill into the context stats. The file is created lazily on
/// the first pushed row, so a writer that never receives data (an empty
/// Grace bucket) leaves no file behind and is not counted in `spill_files`.
pub(crate) struct SpillChunkWriter {
    file: Option<trance_store::SpillFile>,
    rows: usize,
    logical_bytes: usize,
    physical_bytes: usize,
    elapsed: std::time::Duration,
}

impl SpillChunkWriter {
    /// A writer whose spill file is created on first use.
    pub(crate) fn new(_ctx: &DistContext) -> Result<SpillChunkWriter> {
        Ok(SpillChunkWriter {
            file: None,
            rows: 0,
            logical_bytes: 0,
            physical_bytes: 0,
            elapsed: std::time::Duration::ZERO,
        })
    }

    /// Appends a batch (re-chunked to [`SPILL_CHUNK_ROWS`]-row frames so the
    /// streaming reader's working set stays bounded). Empty batches that
    /// still carry a schema are written (one empty frame), so schema-bearing
    /// partitions survive the disk round trip exactly like the resident
    /// path's `Batch::concat` preserves them.
    pub(crate) fn push(&mut self, ctx: &DistContext, batch: &Batch) -> Result<()> {
        if batch_is_void(batch) {
            return Ok(());
        }
        // Frame-boundary check: cancellation fires even mid-spill.
        ctx.check_cancel()?;
        let start = Instant::now();
        let file = match self.file.as_mut() {
            Some(file) => file,
            None => self.file.insert(ctx.spill_manager()?.create()?),
        };
        for chunk in batch_chunks(batch) {
            self.rows += chunk.rows();
            self.logical_bytes += chunk.logical_bytes();
            self.physical_bytes += chunk.physical_bytes();
            let mut w = ByteWriter::new();
            chunk.encode(&mut w)?;
            file.append(&w.into_bytes())?;
        }
        self.elapsed += start.elapsed();
        Ok(())
    }

    /// Seals the file (when one was created) and meters the spill.
    pub(crate) fn finish(self, ctx: &DistContext) -> Result<SpilledBatches> {
        let handle = match self.file {
            Some(file) => {
                let bytes = file.bytes();
                let handle = file.finish()?;
                ctx.stats().record_spill(bytes, 1, self.elapsed);
                Some(handle)
            }
            None => None,
        };
        Ok(SpilledBatches {
            handle,
            rows: self.rows,
            logical_bytes: self.logical_bytes,
            physical_bytes: self.physical_bytes,
        })
    }
}

/// Spills one in-memory batch (chunked into frames).
pub(crate) fn spill_batch(ctx: &DistContext, batch: &Batch) -> Result<SpilledBatches> {
    let mut writer = SpillChunkWriter::new(ctx)?;
    writer.push(ctx, batch)?;
    writer.finish(ctx)
}

/// Streaming reader over a spilled columnar partition: one decoded chunk at
/// a time, never the whole partition. Read time is metered as spill time.
pub(crate) struct BatchFrames<'a> {
    ctx: &'a DistContext,
    reader: Option<SpillReader>,
}

impl Iterator for BatchFrames<'_> {
    type Item = Result<Batch>;

    fn next(&mut self) -> Option<Result<Batch>> {
        if self.reader.is_some() {
            // The frame-boundary check mirrors the write side: cancellation
            // stops a half-read partition.
            if let Err(e) = self.ctx.check_cancel() {
                return Some(Err(e));
            }
        }
        let reader = self.reader.as_mut()?;
        let start = Instant::now();
        let frame = match reader.next_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => return None,
            Err(e) => return Some(Err(e.into())),
        };
        let out = Batch::decode(&mut ByteReader::new(&frame)).map_err(Into::into);
        self.ctx.stats().record_spill(0, 0, start.elapsed());
        Some(out)
    }
}

/// Opens a streaming reader over a spilled columnar partition (empty for a
/// fileless empty partition).
pub(crate) fn batch_frames<'a>(
    ctx: &'a DistContext,
    spilled: &SpilledBatches,
) -> Result<BatchFrames<'a>> {
    Ok(BatchFrames {
        ctx,
        reader: spilled.handle.as_ref().map(SpillHandle::open).transpose()?,
    })
}

/// Reads a whole spilled columnar partition back into one batch.
pub(crate) fn read_batches(ctx: &DistContext, spilled: &SpilledBatches) -> Result<Batch> {
    let chunks: Vec<Batch> = batch_frames(ctx, spilled)?.collect::<Result<_>>()?;
    Ok(Batch::concat(&chunks))
}
