//! Columnar batches: the typed physical representation of the engine.
//!
//! A [`Batch`] stores a partition's rows column-wise: the attribute names
//! live **once** in a shared [`Schema`] (`Arc<Schema>`), and the data lives
//! in typed [`Column`]s — `i64`/`f64`/`bool`/date vectors, dictionary-encoded
//! strings, and offset-encoded nested-bag columns whose elements are
//! themselves a child `Batch`. Row-wise, every tuple of a
//! [`trance_nrc::Value`] collection repeats its attribute names as heap
//! strings; batch-wise those bytes are paid once per batch, which is what
//! makes a batch's shuffle volume so much smaller.
//!
//! Validity is tracked with two [`Bitmap`]s per column:
//!
//! * `nulls` — the row holds an explicit `Value::Null`;
//! * `absent` — the row's tuple did not contain the attribute at all. The
//!   nested data model distinguishes a tuple without attribute `a` from one
//!   with `a: NULL`, and a lossless `Value` ↔ `Batch` round trip must too.
//!
//! Values a typed column cannot hold (labels, mixed numeric kinds, nested
//! tuples) fall back to a [`Column::Other`] value vector — still schema-once,
//! just not vector-typed. Rows that are not tuples at all are kept verbatim
//! in an *opaque* batch ([`Schema::is_opaque`]), so non-tuple values pass
//! through untouched.
//!
//! ## Data movement
//!
//! The unit of data movement is the **selection**: a batch plus a
//! [`RowSel`] — a row list, or `None` for every row in order. A selection
//! stands for the batch [`Batch::take`] would gather from it, and two things
//! can be done with one without building that batch:
//!
//! * **meter** it — [`Batch::logical_bytes_of`] and
//!   [`Batch::physical_bytes_of`] are the byte accountings of the gathered
//!   batch computed in place (the law, held by `tests/batch_roundtrip.rs`:
//!   `b.physical_bytes_of(rows) == b.take(rows).physical_bytes()`). The schema
//!   counts once, a validity bitmap counts when a selected row sets it, a
//!   dictionary counts the distinct entries the selected rows use (found with
//!   a stamp vector a [`SelScratch`] reuses from one selection to the next),
//!   a bag column recurses on the selected element ranges.
//!   [`Batch::logical_bytes`] and [`Batch::physical_bytes`] are the
//!   every-row case of the same code, so each quantity has one definition;
//! * **merge** it with others — [`Batch::merge`] builds one batch from
//!   `[(batch, rows)]` in a single pass per column: one exactly sized
//!   allocation per output buffer, every value copied once, strings
//!   deduplicated through one lookup across all sources with a per-source
//!   remap filled on first use. The result is, buffer for buffer, the
//!   concatenation of the gathered selections (same law suite), so a shuffle
//!   can hand its targets selections instead of gathered pieces and nothing
//!   downstream — least of all the next shuffle's physical bytes — can tell.
//!   [`Batch::concat`] is the merge of every row of each batch.
//!
//! **gather** ([`Batch::take`], [`Column::gather`]) materializes a single
//! selection, and is the only form that null-extends: [`Column::gather`] is
//! generic over [`GatherIndex`], so a dense index list (`&[usize]`: morsel
//! slices, join sides) runs a loop with no `Option` in it and skips the
//! validity bitmaps of an all-valid source, while the re-nesting join passes
//! `&[Option<usize>]`, whose `None` rows come out *absent* before it turns
//! them into `{}` — there is one flavour of null extension. A
//! string gather renumbers the surviving codes in first-use order and copies
//! their bytes once, exactly sized, so dictionaries stay shrunk to what a
//! batch uses and the physical byte accounting stays exact. A gather that
//! names every row in order shares the source's columns, and so does the
//! merge of one such selection.
//!
//! The cheapest selection to move is the one that does not: a collection
//! that knows which columns its rows are hashed by (`colops.rs`,
//! "Placement") hands a breaker keyed that way its partitions as they are —
//! no routing, no metering, no merge; such a shuffle books nothing.
//!
//! Key hashing and key equality read the same buffers in place; see
//! `keys.rs` for the key-hash / validity contract the breakers rely on and
//! for where [`Column::Other`] is compared by reference instead.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use trance_nrc::{Bag, MemSize, Tuple, Value};

// ---------------------------------------------------------------------------
// bitmaps
// ---------------------------------------------------------------------------

/// A fixed-length bitmap (one bit per row) used for null / absent tracking.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    bits: Vec<u64>,
    len: usize,
    ones: usize,
}

impl Bitmap {
    /// An all-zero bitmap of `len` bits.
    pub fn zeros(len: usize) -> Bitmap {
        Bitmap {
            bits: vec![0; len.div_ceil(64)],
            len,
            ones: 0,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap has no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.bits[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Sets bit `i` to one.
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        let slot = &mut self.bits[i / 64];
        let mask = 1u64 << (i % 64);
        if *slot & mask == 0 {
            *slot |= mask;
            self.ones += 1;
        }
    }

    /// Appends one bit.
    pub fn push(&mut self, b: bool) {
        if self.len.is_multiple_of(64) {
            self.bits.push(0);
        }
        self.len += 1;
        if b {
            let i = self.len - 1;
            self.bits[i / 64] |= 1u64 << (i % 64);
            self.ones += 1;
        }
    }

    /// Appends every bit of `src`, a word at a time (an all-zero `src` — the
    /// common validity bitmap — only grows the length).
    pub(crate) fn extend_from(&mut self, src: &Bitmap) {
        let shift = self.len % 64;
        let len = self.len + src.len;
        if src.ones == 0 {
            self.bits.resize(len.div_ceil(64), 0);
        } else if shift == 0 {
            self.bits.extend_from_slice(&src.bits);
        } else {
            // Bits past `len` in the last word are zero (every constructor
            // keeps that), so or-ing the shifted words in is exact.
            for &word in &src.bits {
                let last = self.bits.len() - 1;
                self.bits[last] |= word << shift;
                self.bits.push(word >> (64 - shift));
            }
            self.bits.truncate(len.div_ceil(64));
        }
        self.len = len;
        self.ones += src.ones;
    }

    /// Appends the bits of `src` that `rows` selects, in selection order.
    fn extend_selected(&mut self, src: &Bitmap, rows: RowSel<'_>) {
        match rows {
            None => self.extend_from(src),
            Some(idx) if src.ones == 0 => {
                self.len += idx.len();
                self.bits.resize(self.len.div_ceil(64), 0);
            }
            Some(idx) => idx.iter().for_each(|i| self.push(src.get(*i))),
        }
    }

    /// An empty bitmap with room for `bits` bits (and the word an unaligned
    /// [`Bitmap::extend_from`] pushes past the end before it truncates).
    fn with_capacity(bits: usize) -> Bitmap {
        Bitmap {
            bits: Vec::with_capacity(bits.div_ceil(64) + 1),
            len: 0,
            ones: 0,
        }
    }

    /// Number of one bits.
    pub fn count_ones(&self) -> usize {
        self.ones
    }

    /// Number of one bits among the rows `rows` selects.
    fn count_among(&self, rows: RowSel<'_>) -> usize {
        match rows {
            Some(idx) if self.ones > 0 => idx.iter().filter(|i| self.get(**i)).count(),
            Some(_) => 0,
            None => self.ones,
        }
    }

    /// True when at least one bit is set.
    pub fn any(&self) -> bool {
        self.ones > 0
    }

    /// True when a row `rows` selects has its bit set.
    fn any_among(&self, rows: RowSel<'_>) -> bool {
        match rows {
            Some(idx) => self.ones > 0 && idx.iter().any(|i| self.get(*i)),
            None => self.ones > 0,
        }
    }

    /// Physical size of the bit buffer in bytes.
    pub fn byte_size(&self) -> usize {
        self.bits.len() * 8
    }

    /// The raw bit words (spill serialization).
    pub(crate) fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Rebuilds a bitmap from raw words and a bit length (spill
    /// deserialization); the ones count is recomputed and stray bits past
    /// `len` are cleared.
    pub(crate) fn from_words(mut bits: Vec<u64>, len: usize) -> Bitmap {
        debug_assert_eq!(bits.len(), len.div_ceil(64));
        if !len.is_multiple_of(64) {
            if let Some(last) = bits.last_mut() {
                *last &= (1u64 << (len % 64)) - 1;
            }
        }
        let ones = bits.iter().map(|w| w.count_ones() as usize).sum();
        Bitmap { bits, len, ones }
    }
}

// ---------------------------------------------------------------------------
// schema
// ---------------------------------------------------------------------------

/// The attribute schema shared by every row of a [`Batch`]: the field names,
/// stored once per batch instead of once per row.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<String>,
    opaque: bool,
}

impl Schema {
    /// A schema over the given attribute names, in order.
    pub fn new(fields: Vec<String>) -> Schema {
        Schema {
            fields,
            opaque: false,
        }
    }

    /// The marker schema of an *opaque* batch: rows that are not tuples are
    /// stored verbatim in a single value column.
    pub fn opaque() -> Schema {
        Schema {
            fields: Vec::new(),
            opaque: true,
        }
    }

    /// The attribute names, in order.
    pub fn fields(&self) -> &[String] {
        &self.fields
    }

    /// True for the opaque (non-tuple rows) schema.
    pub fn is_opaque(&self) -> bool {
        self.opaque
    }

    /// Position of attribute `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f == name)
    }

    /// Physical bytes of the schema itself (concatenated field-name buffer
    /// plus one offset per field), charged once per batch by the exact byte
    /// accounting.
    pub fn byte_size(&self) -> usize {
        8 + self.fields.iter().map(|f| 4 + f.len()).sum::<usize>()
    }
}

/// A planner-provided column hint: the field's name plus whether the plan
/// schema knows it to be bag-valued. Produced from
/// `trance_algebra::AttrSchema` by the compiler and used to type batch
/// columns from the plan schema even when the sampled data alone could not
/// (e.g. a nested attribute whose bags are all empty).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldHint {
    /// Attribute name.
    pub name: String,
    /// Inner hints when the plan schema marks the attribute bag-valued;
    /// `None` for scalar (or unknown) attributes.
    pub nested: Option<Vec<FieldHint>>,
}

impl FieldHint {
    /// A scalar (or unknown-typed) field hint.
    pub fn scalar(name: impl Into<String>) -> FieldHint {
        FieldHint {
            name: name.into(),
            nested: None,
        }
    }

    /// A bag-valued field hint with the given inner fields.
    pub fn bag(name: impl Into<String>, inner: Vec<FieldHint>) -> FieldHint {
        FieldHint {
            name: name.into(),
            nested: Some(inner),
        }
    }
}

// ---------------------------------------------------------------------------
// selections
// ---------------------------------------------------------------------------

/// Which rows of a batch an operation reads, in which order: a row list
/// (rows may repeat), or `None` for every row in order. A selection stands
/// for the batch [`Batch::take`] would gather from it, without building it.
pub type RowSel<'a> = Option<&'a [usize]>;

/// Number of rows `rows` selects out of `n`.
fn sel_len(rows: RowSel<'_>, n: usize) -> usize {
    rows.map_or(n, <[usize]>::len)
}

/// `rows`, with a list that names every one of `n` rows in order read as
/// `None`: [`Batch::take`] shares the source's columns for such a list
/// instead of re-gathering them, so that is the batch the selection stands
/// for.
fn proper(rows: RowSel<'_>, n: usize) -> RowSel<'_> {
    rows.filter(|idx| idx.len() != n || idx.iter().enumerate().any(|(i, r)| *r != i))
}

/// Calls `f` with each row `rows` selects out of `n`, in selection order.
fn for_rows(rows: RowSel<'_>, n: usize, f: impl FnMut(usize)) {
    match rows {
        Some(idx) => idx.iter().copied().for_each(f),
        None => (0..n).for_each(f),
    }
}

/// Reusable working memory of [`Batch::logical_bytes_of`] and
/// [`Batch::physical_bytes_of`]: metering the selections one batch is routed
/// into (one per shuffle target) allocates once per string and bag column,
/// not once per selection. Metering every row (`None`) never touches it.
#[derive(Debug, Default)]
pub struct SelScratch {
    cols: Vec<ColScratch>,
}

impl SelScratch {
    fn col(&mut self, c: usize) -> &mut ColScratch {
        if self.cols.len() <= c {
            self.cols.resize_with(c + 1, ColScratch::default);
        }
        &mut self.cols[c]
    }
}

/// One column's share of a [`SelScratch`].
#[derive(Debug, Default)]
struct ColScratch {
    /// String columns: `stamps[code] == epoch` once the selection being
    /// metered has counted dictionary entry `code`.
    stamps: Vec<u32>,
    epoch: u32,
    /// Bag columns: the element indices of the selected rows' bags.
    elems: Vec<usize>,
    /// Bag columns: the child batch's scratch.
    child: SelScratch,
}

impl ColScratch {
    /// Starts a selection over a dictionary of `entries` entries: no entry
    /// carries the returned stamp yet.
    fn next_epoch(&mut self, entries: usize) -> u32 {
        if self.stamps.len() < entries {
            self.stamps.resize(entries, 0);
        }
        if self.epoch == u32::MAX {
            self.stamps.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

impl ColScratch {
    /// The elements of the bags `rows` selects out of a bag column, as a
    /// selection of the column's child batch, next to the child's scratch.
    fn bag_elems(
        &mut self,
        rows: RowSel<'_>,
        offsets: &[u32],
        nulls: &Bitmap,
        absent: &Bitmap,
    ) -> (RowSel<'_>, &mut SelScratch) {
        let elems = rows.map(|idx| {
            self.elems.clear();
            for i in idx {
                self.elems.extend(bag_range(offsets, nulls, absent, *i));
            }
            self.elems.as_slice()
        });
        (elems, &mut self.child)
    }
}

/// The element range of row `i`'s bag; a NULL or absent row spans none.
fn bag_range(offsets: &[u32], nulls: &Bitmap, absent: &Bitmap, i: usize) -> Range<usize> {
    if nulls.get(i) || absent.get(i) {
        0..0
    } else {
        offsets[i] as usize..offsets[i + 1] as usize
    }
}

// ---------------------------------------------------------------------------
// columns
// ---------------------------------------------------------------------------

/// A string dictionary stored the way columnar formats ship it: one
/// concatenated byte buffer plus `u32` entry offsets. Entry `i` is
/// `bytes[offsets[i] .. offsets[i + 1]]`. Unlike a `Vec<String>`, a unique
/// string costs its bytes plus one offset — not a full heap-string header —
/// so dictionary encoding never loses to the row representation even when
/// every value is distinct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrDict {
    bytes: String,
    offsets: Vec<u32>,
}

/// `Default` must uphold the `offsets.len() == len() + 1` invariant, so it
/// delegates to [`StrDict::new`] instead of deriving (a derived empty
/// `offsets` would underflow `len()`).
impl Default for StrDict {
    fn default() -> StrDict {
        StrDict::new()
    }
}

impl StrDict {
    /// The empty dictionary.
    pub fn new() -> StrDict {
        StrDict {
            bytes: String::new(),
            offsets: vec![0],
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the dictionary has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entry `i`.
    pub fn get(&self, i: usize) -> &str {
        &self.bytes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Appends an entry, returning its code.
    // A dictionary past the u32 offset space panics: a typed error would
    // have to reach every infallible column builder, so it stays an edge.
    #[allow(clippy::expect_used)]
    pub fn push(&mut self, s: &str) -> u32 {
        self.bytes.push_str(s);
        let end = u32::try_from(self.bytes.len())
            .expect("string dictionary exceeds the u32 offset space of one batch");
        self.offsets.push(end);
        (self.offsets.len() - 2) as u32
    }

    /// The dictionary of the given (distinct) entries, in the given order,
    /// allocated exactly once.
    fn select(&self, entries: &[u32]) -> StrDict {
        let total: usize = entries.iter().map(|e| self.entry_len(*e as usize)).sum();
        let mut bytes = String::with_capacity(total);
        let mut offsets: Vec<u32> = Vec::with_capacity(entries.len() + 1);
        offsets.push(0);
        for e in entries {
            bytes.push_str(self.get(*e as usize));
            // A subset of this dictionary's bytes: within its u32 space.
            offsets.push(bytes.len() as u32);
        }
        StrDict { bytes, offsets }
    }

    /// Byte length of entry `i`.
    fn entry_len(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Physical bytes: the concatenated buffer plus one offset per entry.
    pub fn byte_size(&self) -> usize {
        self.bytes.len() + self.offsets.len() * 4
    }

    /// Iterator over the entries.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        (0..self.len()).map(|i| self.get(i))
    }

    /// The raw concatenated buffer and offsets (spill serialization).
    pub(crate) fn raw_parts(&self) -> (&str, &[u32]) {
        (&self.bytes, &self.offsets)
    }

    /// Rebuilds a dictionary from its raw buffers (spill deserialization).
    pub(crate) fn from_raw(bytes: String, offsets: Vec<u32>) -> StrDict {
        debug_assert!(!offsets.is_empty() && offsets[0] == 0);
        debug_assert_eq!(offsets.last().map(|o| *o as usize), Some(bytes.len()));
        StrDict { bytes, offsets }
    }
}

/// The elements of a [`Column::Bag`]: either a child batch (every element is
/// a tuple — the common, fully columnar case) or a plain value vector.
#[derive(Debug, Clone)]
pub enum BagElems {
    /// All elements are tuples; they form a child batch shared by the whole
    /// column.
    Rows(Box<Batch>),
    /// Mixed or non-tuple elements, kept as values.
    Values(Vec<Value>),
}

/// One typed column of a [`Batch`].
///
/// Every variant carries an `absent` bitmap (the row's tuple lacked the
/// attribute); the typed variants additionally carry a `nulls` bitmap for
/// explicit `Value::Null` entries, whose data slots hold an arbitrary
/// placeholder.
#[derive(Debug, Clone)]
pub enum Column {
    /// 64-bit integers.
    Int {
        /// Values (placeholder where null/absent).
        data: Vec<i64>,
        /// Explicit NULL rows.
        nulls: Bitmap,
        /// Rows whose tuple lacked the attribute.
        absent: Bitmap,
    },
    /// 64-bit floats.
    Real {
        /// Values (placeholder where null/absent).
        data: Vec<f64>,
        /// Explicit NULL rows.
        nulls: Bitmap,
        /// Rows whose tuple lacked the attribute.
        absent: Bitmap,
    },
    /// Booleans.
    Bool {
        /// Values (placeholder where null/absent).
        data: Vec<bool>,
        /// Explicit NULL rows.
        nulls: Bitmap,
        /// Rows whose tuple lacked the attribute.
        absent: Bitmap,
    },
    /// Dates (days since the epoch, like [`Value::Date`]).
    Date {
        /// Values (placeholder where null/absent).
        data: Vec<i64>,
        /// Explicit NULL rows.
        nulls: Bitmap,
        /// Rows whose tuple lacked the attribute.
        absent: Bitmap,
    },
    /// Dictionary-encoded strings: `codes[i]` indexes into `dict`, whose
    /// bytes are stored (and byte-accounted) once per batch.
    Str {
        /// The distinct string values (concatenated buffer + offsets).
        dict: StrDict,
        /// Per-row dictionary codes (placeholder where null/absent).
        codes: Vec<u32>,
        /// Explicit NULL rows.
        nulls: Bitmap,
        /// Rows whose tuple lacked the attribute.
        absent: Bitmap,
    },
    /// Offset-encoded nested bags: row `i`'s bag is
    /// `elems[offsets[i] .. offsets[i + 1]]`.
    Bag {
        /// `rows + 1` monotone offsets into `elems`.
        offsets: Vec<u32>,
        /// The flattened elements of every bag in the column.
        elems: BagElems,
        /// Explicit NULL rows (distinct from an empty bag).
        nulls: Bitmap,
        /// Rows whose tuple lacked the attribute.
        absent: Bitmap,
    },
    /// Fallback for values no typed column can hold (labels, nested tuples,
    /// mixed numeric kinds, all-NULL columns): the values verbatim, with
    /// `Value::Null` standing in for NULL rows.
    Other {
        /// The values (NULL rows hold `Value::Null`).
        values: Vec<Value>,
        /// Rows whose tuple lacked the attribute.
        absent: Bitmap,
    },
}

/// Candidate column type while scanning values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Unset,
    Int,
    Real,
    Bool,
    Date,
    Str,
    Bag,
    Mixed,
}

fn kind_of(v: &Value) -> Kind {
    match v {
        Value::Int(_) => Kind::Int,
        Value::Real(_) => Kind::Real,
        Value::Bool(_) => Kind::Bool,
        Value::Date(_) => Kind::Date,
        Value::Str(_) => Kind::Str,
        Value::Bag(_) => Kind::Bag,
        Value::Null => Kind::Unset,
        Value::Label(_) | Value::Tuple(_) => Kind::Mixed,
    }
}

/// Builds a column from per-row slots: `None` = attribute absent,
/// `Some(&Value::Null)` = explicit NULL.
// A bag column past the u32 offset space panics: a typed error would have
// to reach every infallible row-to-batch conversion, so it stays an edge.
#[allow(clippy::expect_used)]
pub(crate) fn build_column(slots: &[Option<&Value>]) -> Column {
    let mut kind = Kind::Unset;
    for v in slots.iter().flatten() {
        let k = kind_of(v);
        kind = match (kind, k) {
            (cur, Kind::Unset) => cur,
            (Kind::Unset, k) => k,
            (cur, k) if cur == k => cur,
            _ => Kind::Mixed,
        };
        if kind == Kind::Mixed {
            break;
        }
    }
    let n = slots.len();
    let mut nulls = Bitmap::zeros(n);
    let mut absent = Bitmap::zeros(n);
    macro_rules! fill_prim {
        ($variant:ident, $t:ty, $default:expr, $pat:pat => $val:expr) => {{
            let mut data: Vec<$t> = Vec::with_capacity(n);
            for (i, slot) in slots.iter().enumerate() {
                match slot {
                    Some($pat) => data.push($val),
                    Some(Value::Null) => {
                        data.push($default);
                        nulls.set(i);
                    }
                    None => {
                        data.push($default);
                        absent.set(i);
                    }
                    _ => unreachable!("kind scan guaranteed uniform values"),
                }
            }
            Column::$variant {
                data,
                nulls,
                absent,
            }
        }};
    }
    match kind {
        Kind::Int => fill_prim!(Int, i64, 0, Value::Int(x) => *x),
        Kind::Real => fill_prim!(Real, f64, 0.0, Value::Real(x) => *x),
        Kind::Bool => fill_prim!(Bool, bool, false, Value::Bool(x) => *x),
        Kind::Date => fill_prim!(Date, i64, 0, Value::Date(x) => *x),
        Kind::Str => {
            let mut dict = StrDict::new();
            let mut lookup: HashMap<&str, u32> = HashMap::new();
            let mut codes: Vec<u32> = Vec::with_capacity(n);
            for (i, slot) in slots.iter().enumerate() {
                match slot {
                    Some(Value::Str(s)) => {
                        let code = *lookup.entry(s.as_str()).or_insert_with(|| dict.push(s));
                        codes.push(code);
                    }
                    Some(Value::Null) => {
                        codes.push(0);
                        nulls.set(i);
                    }
                    None => {
                        codes.push(0);
                        absent.set(i);
                    }
                    _ => unreachable!("kind scan guaranteed uniform values"),
                }
            }
            Column::Str {
                dict,
                codes,
                nulls,
                absent,
            }
        }
        Kind::Bag => {
            let mut offsets: Vec<u32> = Vec::with_capacity(n + 1);
            offsets.push(0);
            let mut elem_refs: Vec<&Value> = Vec::new();
            let mut all_tuples = true;
            for (i, slot) in slots.iter().enumerate() {
                match slot {
                    Some(Value::Bag(b)) => {
                        for e in b.iter() {
                            all_tuples &= matches!(e, Value::Tuple(_));
                            elem_refs.push(e);
                        }
                    }
                    Some(Value::Null) => nulls.set(i),
                    None => absent.set(i),
                    _ => unreachable!("kind scan guaranteed uniform values"),
                }
                let end = u32::try_from(elem_refs.len())
                    .expect("bag column exceeds the u32 offset space of one batch");
                offsets.push(end);
            }
            let elems = if all_tuples {
                BagElems::Rows(Box::new(Batch::from_row_refs(&elem_refs)))
            } else {
                BagElems::Values(elem_refs.into_iter().cloned().collect())
            };
            Column::Bag {
                offsets,
                elems,
                nulls,
                absent,
            }
        }
        Kind::Unset | Kind::Mixed => {
            let mut values: Vec<Value> = Vec::with_capacity(n);
            for (i, slot) in slots.iter().enumerate() {
                match slot {
                    Some(v) => values.push((*v).clone()),
                    None => {
                        values.push(Value::Null);
                        absent.set(i);
                    }
                }
            }
            Column::Other { values, absent }
        }
    }
}

/// A row index of a gather: a dense row number, or an optional one whose
/// `None` stands for a NULL/absent output row. Generic so the dense case
/// (`take`, shuffle pieces, join sides) compiles to a loop
/// with no `Option` in it.
pub trait GatherIndex: Copy {
    /// The source row, if any.
    fn row(self) -> Option<usize>;
}

impl GatherIndex for usize {
    #[inline]
    fn row(self) -> Option<usize> {
        Some(self)
    }
}

impl GatherIndex for Option<usize> {
    #[inline]
    fn row(self) -> Option<usize> {
        self
    }
}

fn build_column_owned(slots: &[Option<Value>]) -> Column {
    let refs: Vec<Option<&Value>> = slots.iter().map(Option::as_ref).collect();
    build_column(&refs)
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int { data, .. } | Column::Date { data, .. } => data.len(),
            Column::Real { data, .. } => data.len(),
            Column::Bool { data, .. } => data.len(),
            Column::Str { codes, .. } => codes.len(),
            Column::Bag { offsets, .. } => offsets.len().saturating_sub(1),
            Column::Other { values, .. } => values.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Builds a typed column from owned values (no absent rows) — the entry
    /// point vectorized expression evaluators use to materialize results.
    pub fn from_values(values: Vec<Value>) -> Column {
        let slots: Vec<Option<&Value>> = values.iter().map(Some).collect();
        build_column(&slots)
    }

    /// A boolean column with no nulls (predicate results).
    pub fn from_bools(data: Vec<bool>) -> Column {
        let n = data.len();
        Column::Bool {
            data,
            nulls: Bitmap::zeros(n),
            absent: Bitmap::zeros(n),
        }
    }

    /// A column holding `n` copies of one value, built by filling the typed
    /// buffer directly — no per-row `Value` clones, no kind scan. Produces
    /// exactly the layout [`Column::from_values`] would for the same rows
    /// (one-entry string dictionaries included), so the constant fast path
    /// is byte-identical to the general one.
    pub fn from_const(v: &Value, n: usize) -> Column {
        match v {
            Value::Int(x) => Column::Int {
                data: vec![*x; n],
                nulls: Bitmap::zeros(n),
                absent: Bitmap::zeros(n),
            },
            Value::Real(x) => Column::Real {
                data: vec![*x; n],
                nulls: Bitmap::zeros(n),
                absent: Bitmap::zeros(n),
            },
            Value::Bool(x) => Column::Bool {
                data: vec![*x; n],
                nulls: Bitmap::zeros(n),
                absent: Bitmap::zeros(n),
            },
            Value::Date(x) => Column::Date {
                data: vec![*x; n],
                nulls: Bitmap::zeros(n),
                absent: Bitmap::zeros(n),
            },
            Value::Str(s) => {
                let mut dict = StrDict::new();
                if n > 0 {
                    dict.push(s);
                }
                Column::Str {
                    dict,
                    codes: vec![0; n],
                    nulls: Bitmap::zeros(n),
                    absent: Bitmap::zeros(n),
                }
            }
            // NULL, bags, labels and tuples keep the `from_values` fallback
            // layouts (an all-NULL column is `Other` there too).
            other => Column::from_values(vec![other.clone(); n]),
        }
    }

    /// An all-NULL column of `n` rows — what a column reference absent from
    /// the whole batch evaluates to. Same layout as
    /// `from_values(vec![Value::Null; n])` (the `Other` fallback), without
    /// the per-row build dispatch.
    pub fn null_column(n: usize) -> Column {
        Column::Other {
            values: vec![Value::Null; n],
            absent: Bitmap::zeros(n),
        }
    }

    /// The `i64` buffer when this is a no-null, no-absent integer column
    /// (vectorized fast path).
    pub fn dense_ints(&self) -> Option<&[i64]> {
        match self {
            Column::Int {
                data,
                nulls,
                absent,
            } if !nulls.any() && !absent.any() => Some(data),
            _ => None,
        }
    }

    /// The `f64` buffer when this is a no-null, no-absent real column.
    pub fn dense_reals(&self) -> Option<&[f64]> {
        match self {
            Column::Real {
                data,
                nulls,
                absent,
            } if !nulls.any() && !absent.any() => Some(data),
            _ => None,
        }
    }

    /// The `bool` buffer when this is a no-null, no-absent boolean column.
    pub fn dense_bools(&self) -> Option<&[bool]> {
        match self {
            Column::Bool {
                data,
                nulls,
                absent,
            } if !nulls.any() && !absent.any() => Some(data),
            _ => None,
        }
    }

    /// The absent bitmap.
    fn absent(&self) -> &Bitmap {
        match self {
            Column::Int { absent, .. }
            | Column::Real { absent, .. }
            | Column::Bool { absent, .. }
            | Column::Date { absent, .. }
            | Column::Str { absent, .. }
            | Column::Bag { absent, .. }
            | Column::Other { absent, .. } => absent,
        }
    }

    /// True when row `i`'s tuple lacked this attribute.
    pub fn is_absent(&self, i: usize) -> bool {
        self.absent().get(i)
    }

    /// True when any row lacks this attribute.
    pub fn has_absent(&self) -> bool {
        self.absent().any()
    }

    /// True when row `i` is NULL or absent — what expressions read as NULL.
    /// Reads the validity bitmaps only; [`Column::value_at`] would clone a
    /// whole bag to answer the same question.
    pub fn is_null_at(&self, i: usize) -> bool {
        match self {
            Column::Int { nulls, absent, .. }
            | Column::Real { nulls, absent, .. }
            | Column::Bool { nulls, absent, .. }
            | Column::Date { nulls, absent, .. }
            | Column::Str { nulls, absent, .. }
            | Column::Bag { nulls, absent, .. } => nulls.get(i) || absent.get(i),
            Column::Other { values, absent } => absent.get(i) || matches!(values[i], Value::Null),
        }
    }

    /// The `taken` lanes (NULL or absent bags) become valid empty bags,
    /// without touching an element — how the re-nesting join gives an
    /// unmatched row `{}`. A NULL or absent row
    /// of a bag column spans an empty element range — by construction in
    /// `build_column`, `gather` and `concat`, and checked when a frame is
    /// decoded — so the result shares `offsets` and `elems` with `self` and
    /// differs in validity only. Untaken absent lanes read as NULL, like
    /// every expression output.
    ///
    /// `None` when this is not a bag column or a taken lane spans elements;
    /// the caller then fills them row by row.
    pub fn coalesce_empty_bag(&self, taken: &[bool]) -> Option<Column> {
        let Column::Bag {
            offsets,
            elems,
            nulls,
            absent,
        } = self
        else {
            return None;
        };
        if taken.len() != self.len() {
            return None;
        }
        let mut out_nulls = Bitmap::zeros(taken.len());
        for (i, taken) in taken.iter().enumerate() {
            if *taken {
                if offsets[i] != offsets[i + 1] {
                    return None;
                }
            } else if nulls.get(i) || absent.get(i) {
                out_nulls.set(i);
            }
        }
        Some(Column::Bag {
            offsets: offsets.clone(),
            elems: elems.clone(),
            nulls: out_nulls,
            absent: Bitmap::zeros(taken.len()),
        })
    }

    /// True when no row is NULL or absent.
    pub(crate) fn all_valid(&self) -> bool {
        match self {
            Column::Int { nulls, absent, .. }
            | Column::Real { nulls, absent, .. }
            | Column::Bool { nulls, absent, .. }
            | Column::Date { nulls, absent, .. }
            | Column::Str { nulls, absent, .. }
            | Column::Bag { nulls, absent, .. } => !nulls.any() && !absent.any(),
            Column::Other { values, absent } => {
                !absent.any() && !values.iter().any(|v| matches!(v, Value::Null))
            }
        }
    }

    /// Number of rows whose tuple carries the attribute (present, possibly
    /// NULL).
    pub fn present_count(&self) -> usize {
        self.len() - self.absent().count_ones()
    }

    /// The value of row `i`; `None` when the attribute is absent from that
    /// row's tuple.
    pub fn value_at(&self, i: usize) -> Option<Value> {
        if self.is_absent(i) {
            return None;
        }
        Some(match self {
            Column::Int { data, nulls, .. } => {
                if nulls.get(i) {
                    Value::Null
                } else {
                    Value::Int(data[i])
                }
            }
            Column::Real { data, nulls, .. } => {
                if nulls.get(i) {
                    Value::Null
                } else {
                    Value::Real(data[i])
                }
            }
            Column::Bool { data, nulls, .. } => {
                if nulls.get(i) {
                    Value::Null
                } else {
                    Value::Bool(data[i])
                }
            }
            Column::Date { data, nulls, .. } => {
                if nulls.get(i) {
                    Value::Null
                } else {
                    Value::Date(data[i])
                }
            }
            Column::Str {
                dict, codes, nulls, ..
            } => {
                if nulls.get(i) {
                    Value::Null
                } else {
                    Value::Str(dict.get(codes[i] as usize).to_string())
                }
            }
            Column::Bag {
                offsets,
                elems,
                nulls,
                ..
            } => {
                if nulls.get(i) {
                    Value::Null
                } else {
                    let (lo, hi) = (offsets[i] as usize, offsets[i + 1] as usize);
                    let items: Vec<Value> = match elems {
                        BagElems::Rows(b) => (lo..hi).map(|j| b.row_value(j)).collect(),
                        BagElems::Values(v) => v[lo..hi].to_vec(),
                    };
                    Value::Bag(Bag::new(items))
                }
            }
            Column::Other { values, .. } => values[i].clone(),
        })
    }

    /// Reinterprets absent rows as explicit NULLs. Projection outputs always
    /// set every attribute they compute, so absence collapses to NULL there
    /// (exactly what `Tuple::get(..) -> None -> NULL` does on the row path).
    pub fn absent_as_null(&self) -> Column {
        let mut out = self.clone();
        match &mut out {
            Column::Int { nulls, absent, .. }
            | Column::Real { nulls, absent, .. }
            | Column::Bool { nulls, absent, .. }
            | Column::Date { nulls, absent, .. }
            | Column::Str { nulls, absent, .. }
            | Column::Bag { nulls, absent, .. } => {
                for i in 0..absent.len() {
                    if absent.get(i) {
                        nulls.set(i);
                    }
                }
                *absent = Bitmap::zeros(nulls.len());
            }
            Column::Other { values, absent } => {
                // Absent slots already hold `Value::Null` placeholders.
                let n = values.len();
                *absent = Bitmap::zeros(n);
            }
        }
        out
    }

    /// Gathers rows by index. Indices are dense row numbers (`usize`) or
    /// optional ones (`Option<usize>`), whose `None` entries produce an
    /// absent row — the re-nesting join's unmatched lanes.
    pub fn gather<I: GatherIndex>(&self, idx: &[I]) -> Column {
        let n = idx.len();
        let mut out_nulls = Bitmap::zeros(n);
        let mut out_absent = Bitmap::zeros(n);
        // One loop body serves every primitive vector; only the variant and
        // the placeholder differ. An all-valid source skips the bitmap reads.
        macro_rules! gather_prim {
            ($variant:ident, $data:expr, $nulls:expr, $absent:expr, $default:expr) => {{
                let masked = $nulls.any() || $absent.any();
                let mut out = Vec::with_capacity(n);
                for (slot, ix) in idx.iter().enumerate() {
                    match ix.row() {
                        Some(i) => {
                            out.push($data[i]);
                            if masked {
                                if $nulls.get(i) {
                                    out_nulls.set(slot);
                                }
                                if $absent.get(i) {
                                    out_absent.set(slot);
                                }
                            }
                        }
                        None => {
                            out.push($default);
                            out_absent.set(slot);
                        }
                    }
                }
                Column::$variant {
                    data: out,
                    nulls: out_nulls,
                    absent: out_absent,
                }
            }};
        }
        match self {
            Column::Int {
                data,
                nulls,
                absent,
            } => gather_prim!(Int, data, nulls, absent, 0),
            Column::Date {
                data,
                nulls,
                absent,
            } => gather_prim!(Date, data, nulls, absent, 0),
            Column::Real {
                data,
                nulls,
                absent,
            } => gather_prim!(Real, data, nulls, absent, 0.0),
            Column::Bool {
                data,
                nulls,
                absent,
            } => gather_prim!(Bool, data, nulls, absent, false),
            Column::Str {
                dict,
                codes,
                nulls,
                absent,
            } => {
                // Shrink the dictionary to the codes that survive the gather
                // so the physical accounting stays exact after filters:
                // codes are renumbered in first-use order here, the entries'
                // bytes are copied once, exactly sized, at the end.
                let masked = nulls.any() || absent.any();
                let mut remap: Vec<u32> = vec![u32::MAX; dict.len()];
                let mut kept: Vec<u32> = Vec::new();
                let mut out_codes: Vec<u32> = Vec::with_capacity(n);
                for (slot, ix) in idx.iter().enumerate() {
                    match ix.row() {
                        Some(i) if masked && nulls.get(i) => {
                            out_nulls.set(slot);
                            out_codes.push(0);
                        }
                        Some(i) if masked && absent.get(i) => {
                            out_absent.set(slot);
                            out_codes.push(0);
                        }
                        Some(i) => {
                            let old = codes[i] as usize;
                            if remap[old] == u32::MAX {
                                remap[old] = kept.len() as u32;
                                kept.push(old as u32);
                            }
                            out_codes.push(remap[old]);
                        }
                        None => {
                            out_codes.push(0);
                            out_absent.set(slot);
                        }
                    }
                }
                Column::Str {
                    dict: dict.select(&kept),
                    codes: out_codes,
                    nulls: out_nulls,
                    absent: out_absent,
                }
            }
            Column::Bag {
                offsets,
                elems,
                nulls,
                absent,
            } => {
                let mut out_offsets: Vec<u32> = Vec::with_capacity(n + 1);
                out_offsets.push(0);
                let mut elem_idx: Vec<usize> = Vec::new();
                for (slot, ix) in idx.iter().enumerate() {
                    match ix.row() {
                        Some(i) => {
                            if nulls.get(i) {
                                out_nulls.set(slot);
                            } else if absent.get(i) {
                                out_absent.set(slot);
                            } else {
                                elem_idx.extend(offsets[i] as usize..offsets[i + 1] as usize);
                            }
                        }
                        None => out_absent.set(slot),
                    }
                    out_offsets.push(elem_idx.len() as u32);
                }
                let out_elems = match elems {
                    BagElems::Rows(b) => BagElems::Rows(Box::new(b.take(&elem_idx))),
                    BagElems::Values(v) => {
                        BagElems::Values(elem_idx.iter().map(|j| v[*j].clone()).collect())
                    }
                };
                Column::Bag {
                    offsets: out_offsets,
                    elems: out_elems,
                    nulls: out_nulls,
                    absent: out_absent,
                }
            }
            Column::Other { values, absent } => {
                let mut out = Vec::with_capacity(n);
                for (slot, ix) in idx.iter().enumerate() {
                    match ix.row() {
                        Some(i) => {
                            out.push(values[i].clone());
                            if absent.get(i) {
                                out_absent.set(slot);
                            }
                        }
                        None => {
                            out.push(Value::Null);
                            out_absent.set(slot);
                        }
                    }
                }
                // `Other` has no separate null bitmap: an absent slot holds a
                // `Value::Null` placeholder.
                Column::Other {
                    values: out,
                    absent: out_absent,
                }
            }
        }
    }

    /// The n-way merge of same-variant columns: the rows each part selects,
    /// part after part, in one pass — one exactly sized allocation per output
    /// buffer, every value copied once. `None` when the variants differ (the
    /// caller rebuilds from values instead).
    ///
    /// The result is what gathering each part ([`Column::gather`]) and then
    /// appending the gathered columns would build, buffer for buffer: string
    /// entries are numbered in first-use order within a part and deduplicated
    /// through one lookup across parts, NULL and absent lanes carry
    /// placeholder code 0, bags gather their element ranges part by part and
    /// merge the child batches through [`Batch::merge`].
    fn merge(parts: &[(&Column, RowSel<'_>)]) -> Option<Column> {
        let rows: usize = parts.iter().map(|(c, sel)| sel_len(*sel, c.len())).sum();
        let mut out_nulls = Bitmap::with_capacity(rows);
        let mut out_absent = Bitmap::with_capacity(rows);
        // The four primitive vectors share one body.
        macro_rules! merge_prim {
            ($variant:ident, $t:ty) => {{
                let mut out: Vec<$t> = Vec::with_capacity(rows);
                for (col, sel) in parts {
                    let Column::$variant {
                        data,
                        nulls,
                        absent,
                    } = col
                    else {
                        return None;
                    };
                    match sel {
                        None => out.extend_from_slice(data),
                        Some(idx) => out.extend(idx.iter().map(|i| data[*i])),
                    }
                    out_nulls.extend_selected(nulls, *sel);
                    out_absent.extend_selected(absent, *sel);
                }
                Some(Column::$variant {
                    data: out,
                    nulls: out_nulls,
                    absent: out_absent,
                })
            }};
        }
        match parts.first()?.0 {
            Column::Int { .. } => merge_prim!(Int, i64),
            Column::Date { .. } => merge_prim!(Date, i64),
            Column::Real { .. } => merge_prim!(Real, f64),
            Column::Bool { .. } => merge_prim!(Bool, bool),
            Column::Str { .. } => {
                let entries = |(c, sel): &(&Column, RowSel<'_>)| match c {
                    Column::Str { dict, .. } => dict.len().min(sel_len(*sel, c.len())),
                    _ => 0,
                };
                let mut out_dict = StrDict::new();
                let mut lookup: HashMap<&str, u32> =
                    HashMap::with_capacity(parts.iter().map(entries).sum());
                let mut out_codes: Vec<u32> = Vec::with_capacity(rows);
                // This part's codes in the output dictionary.
                let mut remap: Vec<u32> = Vec::new();
                for (col, sel) in parts {
                    let Column::Str {
                        dict,
                        codes,
                        nulls,
                        absent,
                    } = col
                    else {
                        return None;
                    };
                    let mut intern = |code: usize| {
                        let s = dict.get(code);
                        *lookup.entry(s).or_insert_with(|| out_dict.push(s))
                    };
                    // NULL/absent lanes hold placeholder codes that need not
                    // index the (possibly empty) dictionary.
                    let masked = nulls.any() || absent.any();
                    remap.clear();
                    match sel {
                        // Every row: every entry, in dictionary order.
                        None => {
                            remap.extend((0..dict.len()).map(&mut intern));
                            if masked {
                                out_codes.extend(codes.iter().enumerate().map(|(i, c)| {
                                    if nulls.get(i) || absent.get(i) {
                                        0
                                    } else {
                                        remap[*c as usize]
                                    }
                                }));
                            } else {
                                out_codes.extend(codes.iter().map(|c| remap[*c as usize]));
                            }
                        }
                        // A row list: the entries it uses, in first-use order.
                        Some(idx) => {
                            remap.resize(dict.len(), u32::MAX);
                            for &i in *idx {
                                if masked && (nulls.get(i) || absent.get(i)) {
                                    out_codes.push(0);
                                    continue;
                                }
                                let old = codes[i] as usize;
                                if remap[old] == u32::MAX {
                                    remap[old] = intern(old);
                                }
                                out_codes.push(remap[old]);
                            }
                        }
                    }
                    out_nulls.extend_selected(nulls, *sel);
                    out_absent.extend_selected(absent, *sel);
                }
                Some(Column::Str {
                    dict: out_dict,
                    codes: out_codes,
                    nulls: out_nulls,
                    absent: out_absent,
                })
            }
            Column::Bag { elems: first, .. } => {
                let mut out_offsets: Vec<u32> = Vec::with_capacity(rows + 1);
                out_offsets.push(0);
                // Elements merged so far. Offsets are cast as they are
                // pushed and the (monotone) total is checked once at the end.
                let mut total = 0usize;
                // The element indices the row lists select, back to back;
                // each part's child comes with its run of them (`None`: the
                // whole child).
                let mut elem_idx: Vec<usize> = Vec::new();
                let mut child_rows: Vec<(&Batch, Option<Range<usize>>)> = Vec::new();
                let mut child_values: Vec<(&[Value], Option<Range<usize>>)> = Vec::new();
                for (col, sel) in parts {
                    let Column::Bag {
                        offsets,
                        elems,
                        nulls,
                        absent,
                    } = col
                    else {
                        return None;
                    };
                    let run = sel.map(|idx| {
                        let lo = elem_idx.len();
                        for i in idx {
                            elem_idx.extend(bag_range(offsets, nulls, absent, *i));
                            out_offsets.push((total + elem_idx.len() - lo) as u32);
                        }
                        lo..elem_idx.len()
                    });
                    match &run {
                        Some(run) => total += run.len(),
                        None => {
                            let base = total;
                            let shifted =
                                offsets.iter().skip(1).map(|o| (base + *o as usize) as u32);
                            out_offsets.extend(shifted);
                            total += offsets.last().map_or(0, |o| *o as usize);
                        }
                    }
                    match (first, elems) {
                        (BagElems::Rows(_), BagElems::Rows(b)) => child_rows.push((b, run)),
                        (BagElems::Values(_), BagElems::Values(v)) => child_values.push((v, run)),
                        _ => return None,
                    }
                    out_nulls.extend_selected(nulls, *sel);
                    out_absent.extend_selected(absent, *sel);
                }
                assert!(
                    u32::try_from(total).is_ok(),
                    "bag column exceeds the u32 offset space of one batch"
                );
                let selected = |run: &Option<Range<usize>>| run.clone().map(|r| &elem_idx[r]);
                let elems = match first {
                    BagElems::Rows(_) => {
                        let children: Vec<(&Batch, RowSel<'_>)> = child_rows
                            .iter()
                            .map(|(b, run)| (*b, selected(run)))
                            .collect();
                        BagElems::Rows(Box::new(Batch::merge(&children)))
                    }
                    BagElems::Values(_) => {
                        let mut out: Vec<Value> = Vec::with_capacity(total);
                        for (v, run) in &child_values {
                            for_rows(selected(run), v.len(), |j| out.push(v[j].clone()));
                        }
                        BagElems::Values(out)
                    }
                };
                Some(Column::Bag {
                    offsets: out_offsets,
                    elems,
                    nulls: out_nulls,
                    absent: out_absent,
                })
            }
            Column::Other { .. } => {
                let mut out: Vec<Value> = Vec::with_capacity(rows);
                for (col, sel) in parts {
                    let Column::Other { values, absent } = col else {
                        return None;
                    };
                    for_rows(*sel, values.len(), |i| out.push(values[i].clone()));
                    out_absent.extend_selected(absent, *sel);
                }
                Some(Column::Other {
                    values: out,
                    absent: out_absent,
                })
            }
        }
    }

    /// Exact physical bytes of the column's buffers. Validity bitmaps are
    /// charged only when they carry a set bit — an all-valid column ships
    /// without them, as in real columnar wire formats.
    pub fn physical_bytes(&self) -> usize {
        self.physical_bytes_of(None, &mut ColScratch::default())
    }

    /// [`Column::physical_bytes`] of the column [`Column::gather`] would
    /// build from `rows`, with nothing gathered: a bitmap counts when a
    /// selected row sets it, a dictionary by the distinct entries the
    /// selected rows use, a bag column by its selected element ranges.
    fn physical_bytes_of(&self, rows: RowSel<'_>, scratch: &mut ColScratch) -> usize {
        let n = sel_len(rows, self.len());
        let bitmap = |bm: &Bitmap| {
            if bm.any_among(rows) {
                n.div_ceil(64) * 8
            } else {
                0
            }
        };
        match self {
            Column::Int { nulls, absent, .. }
            | Column::Date { nulls, absent, .. }
            | Column::Real { nulls, absent, .. } => n * 8 + bitmap(nulls) + bitmap(absent),
            Column::Bool { nulls, absent, .. } => n + bitmap(nulls) + bitmap(absent),
            Column::Str {
                dict,
                codes,
                nulls,
                absent,
            } => {
                let dict_bytes = match rows {
                    None => dict.byte_size(),
                    Some(idx) => {
                        let masked = nulls.any() || absent.any();
                        let epoch = scratch.next_epoch(dict.len());
                        let (mut entries, mut bytes) = (0, 0);
                        for &i in idx {
                            if masked && (nulls.get(i) || absent.get(i)) {
                                continue;
                            }
                            let code = codes[i] as usize;
                            if scratch.stamps[code] != epoch {
                                scratch.stamps[code] = epoch;
                                entries += 1;
                                bytes += dict.entry_len(code);
                            }
                        }
                        bytes + (entries + 1) * 4
                    }
                };
                n * 4 + dict_bytes + bitmap(nulls) + bitmap(absent)
            }
            Column::Bag {
                offsets,
                elems,
                nulls,
                absent,
            } => {
                let (elem_rows, child) = scratch.bag_elems(rows, offsets, nulls, absent);
                let elem_bytes = match elems {
                    BagElems::Rows(b) => b.physical_bytes_of(elem_rows, child),
                    BagElems::Values(v) => {
                        let mut total = 0;
                        for_rows(elem_rows, v.len(), |j| total += v[j].mem_size());
                        total
                    }
                };
                rows.map_or(offsets.len(), |idx| idx.len() + 1) * 4
                    + elem_bytes
                    + bitmap(nulls)
                    + bitmap(absent)
            }
            Column::Other { values, absent } => {
                let mut total = bitmap(absent);
                for_rows(rows, values.len(), |i| total += values[i].mem_size());
                total
            }
        }
    }

    /// Row-equivalent bytes of the *values* of the rows `rows` selects (the
    /// contribution the same data would make to `Value::mem_size` as tuple
    /// fields), excluding the per-field name/slot overhead, which the batch
    /// accounts from the schema and the present counts.
    fn logical_value_bytes_of(&self, rows: RowSel<'_>, scratch: &mut ColScratch) -> usize {
        let n = sel_len(rows, self.len());
        match self {
            Column::Int { absent, .. }
            | Column::Date { absent, .. }
            | Column::Real { absent, .. }
            | Column::Bool { absent, .. } => (n - absent.count_among(rows)) * 8,
            Column::Str {
                dict,
                codes,
                nulls,
                absent,
            } => {
                let mut total = 0usize;
                for_rows(rows, codes.len(), |i| {
                    if !absent.get(i) {
                        total += if nulls.get(i) {
                            8
                        } else {
                            24 + dict.entry_len(codes[i] as usize)
                        };
                    }
                });
                total
            }
            Column::Bag {
                offsets,
                elems,
                nulls,
                absent,
            } => {
                let present = n - absent.count_among(rows);
                let null_rows = nulls.count_among(rows);
                let (elem_rows, child) = scratch.bag_elems(rows, offsets, nulls, absent);
                let elem_bytes = match elems {
                    BagElems::Rows(b) => b.logical_bytes_of(elem_rows, child),
                    BagElems::Values(v) => {
                        let mut total = 0;
                        for_rows(elem_rows, v.len(), |j| total += v[j].mem_size());
                        total
                    }
                };
                present.saturating_sub(null_rows) * 24 + null_rows * 8 + elem_bytes
            }
            Column::Other { values, absent } => {
                let mut total = 0;
                for_rows(rows, values.len(), |i| {
                    if !absent.get(i) {
                        total += values[i].mem_size();
                    }
                });
                total
            }
        }
    }
}

// ---------------------------------------------------------------------------
// batches
// ---------------------------------------------------------------------------

/// A columnar batch: one partition's rows as `Arc<Schema>` + typed columns.
///
/// Columns are `Arc`-shared: operators that keep a column untouched
/// (projection pass-through, column extension, renaming, expression
/// references) copy a pointer, not the buffers.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    schema: Arc<Schema>,
    columns: Vec<Arc<Column>>,
    rows: usize,
}

impl Batch {
    /// The empty batch (no rows, no attributes).
    pub fn empty() -> Batch {
        Batch::default()
    }

    /// Builds a batch from row values. Tuples become columns under the union
    /// of their attribute names (first-occurrence order); if any row is not a
    /// tuple the whole batch is stored *opaque* (values verbatim).
    pub fn from_rows(rows: &[Value]) -> Batch {
        let refs: Vec<&Value> = rows.iter().collect();
        Batch::from_row_refs(&refs)
    }

    /// [`Batch::from_rows`] over borrowed rows.
    pub fn from_row_refs(rows: &[&Value]) -> Batch {
        Batch::from_row_refs_hinted(rows, &[])
    }

    /// Builds a batch whose leading columns follow the planner's field hints
    /// (see [`FieldHint`]): hinted fields come first in hint order, and a
    /// hinted bag-valued field becomes a [`Column::Bag`] even when every row
    /// holds NULL or no data at all — batches typed from plan schemas, not
    /// only from sampled values.
    pub fn from_row_refs_hinted(rows: &[&Value], hints: &[FieldHint]) -> Batch {
        if rows.is_empty() {
            let fields: Vec<String> = hints.iter().map(|h| h.name.clone()).collect();
            let columns = hints
                .iter()
                .map(|h| Arc::new(empty_hinted_column(h)))
                .collect();
            return Batch {
                schema: Arc::new(Schema::new(fields)),
                columns,
                rows: 0,
            };
        }
        if rows.iter().any(|r| !matches!(r, Value::Tuple(_))) {
            return Batch {
                schema: Arc::new(Schema::opaque()),
                columns: vec![Arc::new(Column::Other {
                    values: rows.iter().map(|r| (*r).clone()).collect(),
                    absent: Bitmap::zeros(rows.len()),
                })],
                rows: rows.len(),
            };
        }
        // Field order: a topological merge of the rows' attribute orders
        // (hint fields lead), so every set of rows with *consistent* relative
        // orders — even when individual rows skip attributes — round-trips
        // with its order intact. Conflicting orders normalize to the merged
        // order, breaking ties by first occurrence.
        let fields = merge_field_order(rows, hints);
        let index: HashMap<&str, usize> = fields
            .iter()
            .enumerate()
            .map(|(i, f)| (f.as_str(), i))
            .collect();
        let mut slots: Vec<Vec<Option<&Value>>> = vec![vec![None; rows.len()]; fields.len()];
        for (r, row) in rows.iter().enumerate() {
            if let Value::Tuple(t) = row {
                for (name, value) in t.fields() {
                    slots[index[name.as_str()]][r] = Some(value);
                }
            }
        }
        let columns: Vec<Arc<Column>> = fields
            .iter()
            .enumerate()
            .map(|(c, name)| {
                let col = build_column(&slots[c]);
                Arc::new(match hints.iter().find(|h| h.name == *name) {
                    Some(FieldHint {
                        nested: Some(inner),
                        ..
                    }) => coerce_to_bag(col, inner),
                    _ => col,
                })
            })
            .collect();
        Batch {
            schema: Arc::new(Schema::new(fields)),
            columns,
            rows: rows.len(),
        }
    }

    /// Rebuilds a batch from its raw parts (spill deserialization): the
    /// exact schema (opaque flag included) and the decoded columns.
    pub(crate) fn from_raw(schema: Arc<Schema>, columns: Vec<Arc<Column>>, rows: usize) -> Batch {
        debug_assert!(columns.iter().all(|c| c.len() == rows) || schema.is_opaque());
        Batch {
            schema,
            columns,
            rows,
        }
    }

    /// A batch of `rows` empty tuples (used for the plan `Unit` input).
    pub fn unit(rows: usize) -> Batch {
        Batch {
            schema: Arc::new(Schema::new(Vec::new())),
            columns: Vec::new(),
            rows,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// True when the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The shared schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The columns, in schema order (`Arc`-shared).
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    /// The column of attribute `name`.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.schema.index_of(name).map(|i| self.columns[i].as_ref())
    }

    /// The shared handle of attribute `name`'s column — a pointer copy, the
    /// cheap path for expression references.
    pub fn column_arc(&self, name: &str) -> Option<Arc<Column>> {
        self.schema.index_of(name).map(|i| self.columns[i].clone())
    }

    /// The value of attribute `name` in row `i` (`None` when the attribute is
    /// absent from that row).
    pub fn value_at(&self, i: usize, name: &str) -> Option<Value> {
        self.column(name).and_then(|c| c.value_at(i))
    }

    /// Materializes row `i` as a [`Value`]: a tuple of the present attributes
    /// in schema order, or the stored value verbatim for opaque batches.
    pub fn row_value(&self, i: usize) -> Value {
        if self.schema.is_opaque() {
            if let Column::Other { values, .. } = self.columns[0].as_ref() {
                return values[i].clone();
            }
            unreachable!("opaque batches hold a single value column");
        }
        let mut fields: Vec<(String, Value)> = Vec::with_capacity(self.columns.len());
        for (name, col) in self.schema.fields().iter().zip(&self.columns) {
            if let Some(v) = col.value_at(i) {
                fields.push((name.clone(), v));
            }
        }
        Value::Tuple(Tuple::new(fields))
    }

    /// Materializes every row (the collect boundary back to the row world).
    pub fn to_rows(&self) -> Vec<Value> {
        (0..self.rows).map(|i| self.row_value(i)).collect()
    }

    /// Gathers the given rows into a new batch.
    pub fn take(&self, idx: &[usize]) -> Batch {
        // Every row, in order (an all-true filter, the probe side of a
        // foreign-key join): share the columns instead of copying them.
        // Gathers and concats keep dictionaries shrunk to what a batch uses,
        // so the copy would come out identical.
        if idx.len() == self.rows && idx.iter().enumerate().all(|(i, ix)| *ix == i) {
            return self.clone();
        }
        let columns: Vec<Arc<Column>> = self
            .columns
            .iter()
            .map(|c| Arc::new(c.gather(idx)))
            .collect();
        Batch {
            schema: self.schema.clone(),
            columns,
            rows: idx.len(),
        }
    }

    /// Keeps the rows whose mask bit is set.
    pub fn filter(&self, mask: &[bool]) -> Batch {
        debug_assert_eq!(mask.len(), self.rows);
        let idx: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.then_some(i))
            .collect();
        self.take(&idx)
    }

    /// Concatenates batches into one: [`Batch::merge`] of every row of each.
    pub fn concat(batches: &[Batch]) -> Batch {
        Batch::merge(&batches.iter().map(|b| (b, None)).collect::<Vec<_>>())
    }

    /// The batch a selection stands for: [`Batch::take`] of a row list, the
    /// batch itself (columns shared) for every row.
    pub fn select(&self, rows: RowSel<'_>) -> Batch {
        match rows {
            Some(idx) => self.take(idx),
            None => self.clone(),
        }
    }

    /// The n-way merge: one batch holding the rows each source selects,
    /// source after source — what [`Batch::concat`] builds from the
    /// [`Batch::take`] of every selection, buffer for buffer (row order,
    /// dictionary entry order, placeholder codes, validity), without
    /// building the takes. Sources with identical schemas merge column-wise
    /// in a single pass (`Column::merge`); mixed schemas or column variants
    /// fall back to a value-level rebuild.
    ///
    /// Empty selections are skipped. When no source contributes a row the
    /// result is the (empty) selection of the first source that carries a
    /// schema, and a single contributing source is gathered on its own — so
    /// a lone every-row selection shares its source's columns.
    pub fn merge(sources: &[(&Batch, RowSel<'_>)]) -> Batch {
        let nonempty: Vec<(&Batch, RowSel<'_>)> = sources
            .iter()
            .filter(|(b, rows)| sel_len(*rows, b.rows) > 0)
            .map(|(b, rows)| (*b, proper(*rows, b.rows)))
            .collect();
        match nonempty.as_slice() {
            [] => {
                return sources
                    .iter()
                    .find(|(b, _)| !b.schema.fields().is_empty())
                    .or(sources.first())
                    .map(|(b, rows)| b.select(*rows))
                    .unwrap_or_default();
            }
            [(b, rows)] => return b.select(*rows),
            _ => {}
        }
        let first = nonempty[0].0;
        let rows: usize = nonempty.iter().map(|(b, sel)| sel_len(*sel, b.rows)).sum();
        if nonempty
            .iter()
            .all(|(b, _)| Arc::ptr_eq(&b.schema, &first.schema) || b.schema == first.schema)
        {
            let columns: Option<Vec<Arc<Column>>> = (0..first.columns.len())
                .map(|c| {
                    let parts: Vec<(&Column, RowSel<'_>)> = nonempty
                        .iter()
                        .map(|(b, sel)| (b.columns[c].as_ref(), *sel))
                        .collect();
                    Column::merge(&parts).map(Arc::new)
                })
                .collect();
            if let Some(columns) = columns {
                return Batch {
                    schema: first.schema.clone(),
                    columns,
                    rows,
                };
            }
        }
        // Heterogeneous fallback: rebuild from materialized rows.
        let mut values: Vec<Value> = Vec::with_capacity(rows);
        for (b, sel) in &nonempty {
            for_rows(*sel, b.rows, |i| values.push(b.row_value(i)));
        }
        Batch::from_rows(&values)
    }

    /// Left-to-right tuple concatenation of two same-length batches with
    /// `Tuple::concat`'s overwrite semantics: the output keeps `self`'s attribute
    /// order; where `other` carries the same attribute and the row is
    /// present on the right, the right value wins; `other`-only attributes
    /// are appended.
    pub fn merge_overwrite(&self, other: &Batch) -> Batch {
        debug_assert_eq!(self.rows, other.rows);
        let mut fields: Vec<String> = Vec::new();
        let mut columns: Vec<Arc<Column>> = Vec::new();
        for (name, left_col) in self.schema.fields().iter().zip(&self.columns) {
            match other.column_arc(name) {
                None => {
                    fields.push(name.clone());
                    columns.push(left_col.clone());
                }
                Some(right_col) => {
                    fields.push(name.clone());
                    if !right_col.absent().any() {
                        columns.push(right_col);
                    } else {
                        // Row-wise overwrite: right wins where present.
                        let slots: Vec<Option<Value>> = (0..self.rows)
                            .map(|i| right_col.value_at(i).or_else(|| left_col.value_at(i)))
                            .collect();
                        columns.push(Arc::new(build_column_owned(&slots)));
                    }
                }
            }
        }
        for (name, right_col) in other.schema.fields().iter().zip(&other.columns) {
            if self.schema.index_of(name).is_none() {
                fields.push(name.clone());
                columns.push(right_col.clone());
            }
        }
        Batch {
            schema: Arc::new(Schema::new(fields)),
            columns,
            rows: self.rows,
        }
    }

    /// Renames every attribute through `f` — a schema-only operation, where
    /// rows would need a per-tuple `alias.field` rewrite. Opaque batches become a single column named `value_name`
    /// (the `alias.__value` convention).
    pub fn rename_fields(&self, f: impl Fn(&str) -> String, value_name: &str) -> Batch {
        if self.schema.is_opaque() {
            return Batch {
                schema: Arc::new(Schema::new(vec![value_name.to_string()])),
                columns: self.columns.clone(),
                rows: self.rows,
            };
        }
        let fields: Vec<String> = self.schema.fields().iter().map(|n| f(n)).collect();
        Batch {
            schema: Arc::new(Schema::new(fields)),
            columns: self.columns.clone(),
            rows: self.rows,
        }
    }

    /// Keeps only the attributes in `names`, in `names` order, skipping
    /// names the schema lacks — the columnar `Tuple::project`. Columns are
    /// shared, not copied.
    pub fn project_fields(&self, names: &[String]) -> Batch {
        let mut fields: Vec<String> = Vec::with_capacity(names.len());
        let mut columns: Vec<Arc<Column>> = Vec::with_capacity(names.len());
        for name in names {
            if let Some(i) = self.schema.index_of(name) {
                fields.push(name.clone());
                columns.push(self.columns[i].clone());
            }
        }
        Batch {
            schema: Arc::new(Schema::new(fields)),
            columns,
            rows: self.rows,
        }
    }

    /// The pruning projection `π[names]`: exactly the attributes in `names`,
    /// in `names` order, with the columns shared rather than copied. Like
    /// every projection output, each named attribute is set on every row: a
    /// name the schema lacks comes out all-NULL and absent rows become NULL
    /// — where [`Batch::project_fields`] skips the former and keeps the
    /// latter.
    pub fn prune_fields(&self, names: &[String]) -> Batch {
        let columns = names
            .iter()
            .map(|name| match self.column_arc(name) {
                Some(col) if col.has_absent() => Arc::new(col.absent_as_null()),
                Some(col) => col,
                None => Arc::new(Column::null_column(self.rows)),
            })
            .collect();
        Batch {
            schema: Arc::new(Schema::new(names.to_vec())),
            columns,
            rows: self.rows,
        }
    }

    /// The batch without attribute `name` (no-op when absent).
    pub fn without_column(&self, name: &str) -> Batch {
        match self.schema.index_of(name) {
            None => self.clone(),
            Some(i) => {
                let mut fields = self.schema.fields().to_vec();
                fields.remove(i);
                let mut columns = self.columns.clone();
                columns.remove(i);
                Batch {
                    schema: Arc::new(Schema::new(fields)),
                    columns,
                    rows: self.rows,
                }
            }
        }
    }

    /// Adds or replaces a column with tuple `set` semantics: an existing
    /// attribute keeps its position, a new one is appended. The untouched
    /// columns are shared, so repeated extension is linear, not quadratic.
    pub fn with_column(&self, name: &str, column: Arc<Column>) -> Batch {
        self.with_columns([(name, column)])
    }

    /// [`Batch::with_column`] for a run of sets, applied in order, building
    /// the output's schema once — what a kernel program's output script is.
    pub fn with_columns<'a>(
        &self,
        sets: impl IntoIterator<Item = (&'a str, Arc<Column>)>,
    ) -> Batch {
        let mut fields = self.schema.fields().to_vec();
        let mut columns = self.columns.clone();
        for (name, column) in sets {
            debug_assert_eq!(column.len(), self.rows);
            match fields.iter().position(|f| f == name) {
                Some(i) => columns[i] = column,
                None => {
                    fields.push(name.to_string());
                    columns.push(column);
                }
            }
        }
        Batch {
            schema: Arc::new(Schema::new(fields)),
            columns,
            rows: self.rows,
        }
    }

    /// Adds (or overwrites) `attr` with the engine's coordination-free
    /// unique-id numbering: row `i` of this batch gets
    /// `partition + (start + i) * stride`, where `start` is the number of
    /// rows of the same partition already numbered (a sequential pipeline's
    /// morsel cursor advances it chunk by chunk, see
    /// [`crate::colops::unique_ids_batch`]). Applied to a whole partition
    /// with `start = 0` it is the definition of the ids that partition gets.
    pub fn with_unique_ids(&self, attr: &str, partition: usize, start: i64, stride: i64) -> Batch {
        let n = self.rows;
        let data: Vec<i64> = (0..n)
            .map(|i| partition as i64 + (start + i as i64) * stride)
            .collect();
        self.with_column(
            attr,
            Arc::new(Column::Int {
                data,
                nulls: Bitmap::zeros(n),
                absent: Bitmap::zeros(n),
            }),
        )
    }

    /// Exact physical bytes of the batch: the column buffers plus the schema
    /// (and each string dictionary) counted **once per batch**.
    pub fn physical_bytes(&self) -> usize {
        self.physical_bytes_of(None, &mut SelScratch::default())
    }

    /// [`Batch::physical_bytes`] of the batch [`Batch::take`] would gather
    /// from `rows`, computed in place: no buffer is built or copied.
    pub fn physical_bytes_of(&self, rows: RowSel<'_>, scratch: &mut SelScratch) -> usize {
        self.schema.byte_size()
            + self.sum_columns(rows, scratch, |_, col, rows, scratch| {
                col.physical_bytes_of(rows, scratch)
            })
    }

    /// Row-equivalent bytes: what the same rows would occupy as heap values,
    /// i.e. `Σ Value::mem_size`. Used for the logical counters, broadcast
    /// planning and the simulated memory cap, so plans and FAIL cells depend
    /// on the data and not on how a batch encodes it.
    pub fn logical_bytes(&self) -> usize {
        self.logical_bytes_of(None, &mut SelScratch::default())
    }

    /// [`Batch::logical_bytes`] of the rows `rows` selects.
    pub fn logical_bytes_of(&self, rows: RowSel<'_>, scratch: &mut SelScratch) -> usize {
        if self.schema.is_opaque() {
            if let Column::Other { values, .. } = self.columns[0].as_ref() {
                let mut total = 0;
                for_rows(rows, values.len(), |i| total += values[i].mem_size());
                return total;
            }
        }
        let n = sel_len(rows, self.rows);
        n * 16
            + self.sum_columns(rows, scratch, |name, col, rows, scratch| {
                (n - col.absent().count_among(rows)) * (name.len() + 8)
                    + col.logical_value_bytes_of(rows, scratch)
            })
    }

    /// Sums `f` over the columns for the selection `rows`, handing each
    /// column its own scratch.
    fn sum_columns(
        &self,
        rows: RowSel<'_>,
        scratch: &mut SelScratch,
        f: impl Fn(&str, &Column, RowSel<'_>, &mut ColScratch) -> usize,
    ) -> usize {
        // An opaque batch's one column has no name.
        let name = |c: usize| self.schema.fields().get(c).map_or("", String::as_str);
        let columns = self.columns.iter().enumerate();
        match proper(rows, self.rows) {
            // Metering every row reads no scratch, so none is grown.
            None => {
                let unused = &mut ColScratch::default();
                columns.map(|(c, col)| f(name(c), col, None, unused)).sum()
            }
            rows => columns
                .map(|(c, col)| f(name(c), col, rows, scratch.col(c)))
                .sum(),
        }
    }
}

/// Merges the attribute orders of tuple rows (and leading hints) into one
/// schema order: Kahn's topological sort over the adjacency constraints each
/// row contributes, ties broken by first occurrence. Rows with mutually
/// consistent orders reproduce exactly; genuinely conflicting orders get a
/// deterministic normalization (the cycle is broken at the earliest-seen
/// field).
fn merge_field_order(rows: &[&Value], hints: &[FieldHint]) -> Vec<String> {
    // Rows overwhelmingly repeat one attribute sequence: collapse to the
    // *distinct* sequences first (in first-seen order) so the constraint
    // graph is built from a handful of chains, not one chain per row.
    let mut seqs: Vec<Vec<&str>> = Vec::new();
    let mut seen: std::collections::HashSet<Vec<&str>> = std::collections::HashSet::new();
    for row in rows {
        if let Value::Tuple(t) = row {
            let names: Vec<&str> = t.fields().iter().map(|(n, _)| n.as_str()).collect();
            if seen.insert(names.clone()) {
                seqs.push(names);
            }
        }
    }
    if hints.is_empty() && seqs.len() == 1 {
        return seqs.remove(0).into_iter().map(String::from).collect();
    }
    let mut names: Vec<String> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut intern = |name: &str, names: &mut Vec<String>| -> usize {
        if let Some(i) = index.get(name) {
            return *i;
        }
        names.push(name.to_string());
        index.insert(name.to_string(), names.len() - 1);
        names.len() - 1
    };
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut prev: Option<usize> = None;
    for h in hints {
        let i = intern(&h.name, &mut names);
        if let Some(p) = prev {
            edges.push((p, i));
        }
        prev = Some(i);
    }
    for seq in &seqs {
        let mut prev: Option<usize> = None;
        for name in seq {
            let i = intern(name, &mut names);
            if let Some(p) = prev {
                if p != i {
                    edges.push((p, i));
                }
            }
            prev = Some(i);
        }
    }
    edges.sort_unstable();
    edges.dedup();
    let n = names.len();
    let mut indegree = vec![0usize; n];
    for (_, v) in &edges {
        indegree[*v] += 1;
    }
    let mut placed = vec![false; n];
    let mut out: Vec<String> = Vec::with_capacity(n);
    // Lowest first-occurrence node with no remaining predecessors; if none
    // (a cycle of conflicting orders), the earliest remaining node; until
    // every node is placed.
    while let Some(next) = (0..n)
        .find(|i| !placed[*i] && indegree[*i] == 0)
        .or_else(|| (0..n).find(|i| !placed[*i]))
    {
        placed[next] = true;
        out.push(names[next].clone());
        for (u, v) in &edges {
            if *u == next && !placed[*v] {
                indegree[*v] = indegree[*v].saturating_sub(1);
            }
        }
    }
    out
}

/// An empty (zero-row) column matching a field hint.
fn empty_hinted_column(hint: &FieldHint) -> Column {
    match &hint.nested {
        Some(inner) => Column::Bag {
            offsets: vec![0],
            elems: BagElems::Rows(Box::new(Batch::from_row_refs_hinted(&[], inner))),
            nulls: Bitmap::zeros(0),
            absent: Bitmap::zeros(0),
        },
        None => Column::Other {
            values: Vec::new(),
            absent: Bitmap::zeros(0),
        },
    }
}

/// Upgrades an all-null/absent fallback column to a typed bag column when the
/// plan schema says the attribute is bag-valued.
fn coerce_to_bag(col: Column, inner: &[FieldHint]) -> Column {
    match &col {
        Column::Bag { .. } => col,
        Column::Other { values, absent } if values.iter().all(|v| matches!(v, Value::Null)) => {
            let n = values.len();
            let mut nulls = Bitmap::zeros(n);
            for i in 0..n {
                if !absent.get(i) {
                    nulls.set(i);
                }
            }
            Column::Bag {
                offsets: vec![0; n + 1],
                elems: BagElems::Rows(Box::new(Batch::from_row_refs_hinted(&[], inner))),
                nulls,
                absent: absent.clone(),
            }
        }
        _ => col,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Value> {
        vec![
            Value::tuple([
                ("a", Value::Int(1)),
                ("s", Value::str("x")),
                (
                    "bag",
                    Value::bag(vec![Value::tuple([("k", Value::Int(10))])]),
                ),
            ]),
            Value::tuple([
                ("a", Value::Null),
                ("s", Value::str("x")),
                ("bag", Value::bag(vec![])),
            ]),
            Value::tuple([("a", Value::Int(3)), ("s", Value::str("y"))]),
        ]
    }

    #[test]
    fn round_trip_preserves_rows_nulls_and_absence() {
        let rows = rows();
        let batch = Batch::from_rows(&rows);
        assert_eq!(batch.rows(), 3);
        assert_eq!(batch.schema().fields(), ["a", "s", "bag"]);
        assert_eq!(batch.to_rows(), rows);
    }

    #[test]
    fn string_dictionary_deduplicates() {
        let rows: Vec<Value> = (0..100)
            .map(|i| Value::tuple([("s", Value::str(if i % 2 == 0 { "even" } else { "odd" }))]))
            .collect();
        let batch = Batch::from_rows(&rows);
        match batch.column("s").unwrap() {
            Column::Str { dict, .. } => assert_eq!(dict.len(), 2),
            other => panic!("expected dict column, got {other:?}"),
        }
        assert!(batch.physical_bytes() < batch.logical_bytes());
    }

    #[test]
    fn opaque_batches_hold_non_tuple_rows_verbatim() {
        let rows = vec![Value::Int(1), Value::str("two")];
        let batch = Batch::from_rows(&rows);
        assert!(batch.schema().is_opaque());
        assert_eq!(batch.to_rows(), rows);
    }

    #[test]
    fn take_and_filter_gather_nested_bags() {
        let rows = rows();
        let batch = Batch::from_rows(&rows);
        let taken = batch.take(&[2, 0]);
        assert_eq!(taken.to_rows(), vec![rows[2].clone(), rows[0].clone()]);
        let filtered = batch.filter(&[false, true, false]);
        assert_eq!(filtered.to_rows(), vec![rows[1].clone()]);
    }

    #[test]
    fn concat_appends_same_schema_batches() {
        let rows = rows();
        let b1 = Batch::from_rows(&rows[..2]);
        let b2 = Batch::from_rows(&rows[..2]);
        let all = Batch::concat(&[b1, b2]);
        assert_eq!(all.rows(), 4);
        assert_eq!(all.to_rows()[2..], rows[..2]);
    }

    #[test]
    fn hinted_build_types_empty_bag_columns() {
        let rows = vec![Value::tuple([("k", Value::Int(1)), ("items", Value::Null)])];
        let hints = vec![
            FieldHint::scalar("k"),
            FieldHint::bag("items", vec![FieldHint::scalar("x")]),
        ];
        let refs: Vec<&Value> = rows.iter().collect();
        let batch = Batch::from_row_refs_hinted(&refs, &hints);
        assert!(matches!(batch.column("items").unwrap(), Column::Bag { .. }));
        assert_eq!(batch.to_rows(), rows);
    }
}
