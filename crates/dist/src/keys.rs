//! Typed keys for the columnar breakers: one hash vector per batch, typed
//! lane equality, and index tables over row numbers.
//!
//! Every operator that moves or matches rows by key — shuffle routing, Grace
//! salting, join build/probe, `Γ+`, `Γ⊎`, heavy-key detection and split —
//! reads the same three things from here instead of boxing a `Vec<Value>`
//! per row:
//!
//! * [`KeyCols::hashes`] — the key columns resolved to column references
//!   **once per batch**, hashed into one `Vec<u64>` plus a validity mask;
//! * [`KeyCols::lanes_equal`] — column-wise equality of two rows, used only
//!   when two hashes collide or match;
//! * [`RowTable`] / [`group_rows`] — chained-by-`u32` tables over row
//!   indices keyed by that hash vector.
//!
//! ## The key-hash / validity contract
//!
//! The hash of a row is **defined** as the engine's partition hash of its
//! boxed key — `partition::hash_key` (test-only: it is the definition) over
//! the key columns' values in key order, with `Value::Null` standing in for
//! a NULL *or absent* lane. The typed loops
//! write exactly what `impl Hash for Value` writes (they share
//! `trance_nrc::value::hash_scalar`), so partition assignment, shuffle bytes
//! and output row order are those of the boxed definition; a unit law below
//! holds every column variant to it.
//!
//! A row is *valid* when no key lane is NULL or absent. Joins only route,
//! build and probe valid rows (a NULL key can never satisfy an equality);
//! grouping ignores validity and uses [`KeyCols::lanes_equal`], under which
//! NULL and absent lanes are distinct from each other and from every value —
//! grouping by the projected key *tuple*, as the reference evaluator does.
//!
//! Equality follows `Value::cmp`: `Int` against `Real` compares through the
//! normalised real, NaN equals NaN, `-0.0` equals `0.0`, and two distinct
//! `i64` whose `f64` images coincide (equal hashes) are **not** equal.
//!
//! ## Heavy keys are hashes
//!
//! A partition is overloaded by `hash mod partitions`, not by a key's value,
//! so skew handling (Section 5) counts, merges and splits by the hash alone:
//! the sample is a `hash → count` map over [`KeyCols::hash_row`], ranks
//! allgather `(hash, count)` pairs, and a row goes to the heavy side when
//! its key is valid and its hash is in the heavy set. No key is boxed.
//!
//! Equal keys have equal hashes, so both join sides and both `Γ+` halves
//! always split each key whole and results cannot change. A light key whose
//! hash equals a heavy key's goes to the heavy side with it — its rows are
//! broadcast instead of shuffled, nothing more: `2^53` and `2^53 + 1`, which
//! [`KeyCols::lanes_equal`] keeps apart, are such a pair. Ranks agree on the
//! heavy set because they run the same binary, which the shuffle already
//! relies on to route rows across processes.
//!
//! ## The by-reference fallback
//!
//! `Int`/`Real`/`Date`/`Bool`/`Str` key columns are read from their typed
//! buffers. [`Column::Other`] columns — labels (the SHRED join keys), mixed
//! numeric kinds, nested tuples — hash and compare their stored `&Value` in
//! place, without a clone. Only a bag-valued key column (never planned, kept
//! for completeness) materializes a value per lane. The path is picked by
//! the column's variant, never by an option.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use trance_nrc::value::{hash_scalar, normalize_real};
use trance_nrc::Value;

use crate::batch::{Batch, Column};
use crate::error::{ExecError, Result};
use crate::partition::hash_value;

/// One key lane of one row, viewed without boxing.
enum Lane<'a> {
    /// The row's tuple lacks the attribute (or the batch lacks the column).
    Absent,
    /// Explicit NULL.
    Null,
    Bool(bool),
    Int(i64),
    Real(f64),
    Date(i64),
    Str(&'a str),
    /// A non-NULL value of an [`Column::Other`] column, by reference.
    Ref(&'a Value),
    /// A bag column's lane, materialized.
    Owned(Value),
}

impl Lane<'_> {
    fn feed<H: Hasher>(&self, state: &mut H) {
        match self {
            Lane::Absent | Lane::Null => hash_scalar::null(state),
            Lane::Bool(b) => hash_scalar::bool(*b, state),
            Lane::Int(i) => hash_scalar::int(*i, state),
            Lane::Real(r) => hash_scalar::real(*r, state),
            Lane::Date(d) => hash_scalar::date(*d, state),
            Lane::Str(s) => hash_scalar::str(s, state),
            Lane::Ref(v) => v.hash(state),
            Lane::Owned(v) => v.hash(state),
        }
    }

    fn is_valid(&self) -> bool {
        !matches!(self, Lane::Absent | Lane::Null)
    }

    /// Equality as `Value::cmp` defines it, with NULL and absent each equal
    /// only to themselves.
    fn equals(&self, other: &Lane<'_>) -> bool {
        match (self, other) {
            (Lane::Absent, Lane::Absent) | (Lane::Null, Lane::Null) => true,
            (Lane::Absent | Lane::Null, _) | (_, Lane::Absent | Lane::Null) => false,
            (Lane::Bool(a), Lane::Bool(b)) => a == b,
            (Lane::Int(a), Lane::Int(b)) | (Lane::Date(a), Lane::Date(b)) => a == b,
            (Lane::Real(a), Lane::Real(b)) => normalize_real(*a) == normalize_real(*b),
            (Lane::Int(a), Lane::Real(b)) | (Lane::Real(b), Lane::Int(a)) => {
                normalize_real(*a as f64) == normalize_real(*b)
            }
            (Lane::Str(a), Lane::Str(b)) => a == b,
            (Lane::Ref(v), typed) => typed.equals_value(v),
            (typed, Lane::Ref(v)) => typed.equals_value(v),
            (Lane::Owned(v), typed) => typed.equals_value(v),
            (typed, Lane::Owned(v)) => typed.equals_value(v),
            _ => false,
        }
    }

    /// Equality against a boxed (non-NULL) value.
    fn equals_value(&self, v: &Value) -> bool {
        match self {
            Lane::Absent | Lane::Null => false,
            Lane::Bool(b) => Value::Bool(*b) == *v,
            Lane::Int(i) => Value::Int(*i) == *v,
            Lane::Real(r) => Value::Real(*r) == *v,
            Lane::Date(d) => Value::Date(*d) == *v,
            Lane::Str(s) => matches!(v, Value::Str(t) if t == s),
            Lane::Ref(a) => *a == v,
            Lane::Owned(a) => a == v,
        }
    }
}

fn lane(col: Option<&Column>, i: usize) -> Lane<'_> {
    let Some(col) = col else {
        return Lane::Absent;
    };
    if col.is_absent(i) {
        return Lane::Absent;
    }
    macro_rules! prim {
        ($variant:ident, $data:expr, $nulls:expr) => {
            if $nulls.get(i) {
                Lane::Null
            } else {
                Lane::$variant($data[i])
            }
        };
    }
    match col {
        Column::Int { data, nulls, .. } => prim!(Int, data, nulls),
        Column::Real { data, nulls, .. } => prim!(Real, data, nulls),
        Column::Bool { data, nulls, .. } => prim!(Bool, data, nulls),
        Column::Date { data, nulls, .. } => prim!(Date, data, nulls),
        Column::Str {
            dict, codes, nulls, ..
        } => {
            if nulls.get(i) {
                Lane::Null
            } else {
                Lane::Str(dict.get(codes[i] as usize))
            }
        }
        Column::Other { values, .. } => match &values[i] {
            Value::Null => Lane::Null,
            v => Lane::Ref(v),
        },
        Column::Bag { .. } => match col.value_at(i) {
            None => Lane::Absent,
            Some(Value::Null) => Lane::Null,
            Some(v) => Lane::Owned(v),
        },
    }
}

/// The partition hash of a one-lane key.
fn hash_one(feed: impl FnOnce(&mut DefaultHasher)) -> u64 {
    let mut h = DefaultHasher::new();
    feed(&mut h);
    h.finish()
}

/// The hash vector of one batch's key columns and its validity mask.
pub(crate) struct KeyHashes {
    /// One partition hash per row (see the module docs for its definition).
    pub(crate) hashes: Vec<u64>,
    /// `valid[i]` is false when a key lane of row `i` is NULL or absent;
    /// `None` when every row is valid (nothing to filter, nothing to copy).
    pub(crate) valid: Option<Vec<bool>>,
}

impl KeyHashes {
    pub(crate) fn is_valid(&self, i: usize) -> bool {
        self.valid.as_ref().is_none_or(|v| v[i])
    }
}

/// The key columns of one batch, resolved by name once.
pub(crate) struct KeyCols<'a> {
    cols: Vec<Option<&'a Column>>,
    rows: usize,
}

impl<'a> KeyCols<'a> {
    /// Resolves `names` against the batch's schema; a name the schema lacks
    /// reads as an all-absent column.
    pub(crate) fn resolve(b: &'a Batch, names: &[String]) -> KeyCols<'a> {
        KeyCols {
            cols: names.iter().map(|n| b.column(n)).collect(),
            rows: b.rows(),
        }
    }

    /// The hash of row `i` alone (sampling reads a few rows per batch).
    pub(crate) fn hash_row(&self, i: usize) -> u64 {
        let mut h = DefaultHasher::new();
        for col in &self.cols {
            lane(*col, i).feed(&mut h);
        }
        h.finish()
    }

    /// True when no key lane of row `i` is NULL or absent.
    pub(crate) fn row_valid(&self, i: usize) -> bool {
        self.cols.iter().all(|col| lane(*col, i).is_valid())
    }

    /// Hashes every row. Single-column keys (the planned shape of every
    /// benchmark join and most groupings) run dense loops over the typed
    /// buffer, strings hashing once per dictionary entry; multi-column keys
    /// thread one hasher per row through the lanes.
    pub(crate) fn hashes(&self) -> KeyHashes {
        let n = self.rows;
        if let [Some(col)] = self.cols.as_slice() {
            return hash_column(col);
        }
        let mut hashes = Vec::with_capacity(n);
        let mut valid = vec![true; n];
        let mut all_valid = true;
        for (i, ok) in valid.iter_mut().enumerate() {
            let mut h = DefaultHasher::new();
            for col in &self.cols {
                let lane = lane(*col, i);
                *ok &= lane.is_valid();
                lane.feed(&mut h);
            }
            all_valid &= *ok;
            hashes.push(h.finish());
        }
        KeyHashes {
            hashes,
            valid: (!all_valid).then_some(valid),
        }
    }

    /// Lane-wise equality of row `i` with row `j` of `other` (same key
    /// arity): typed where both lanes are typed, by reference otherwise.
    pub(crate) fn lanes_equal(&self, i: usize, other: &KeyCols<'_>, j: usize) -> bool {
        self.cols.iter().zip(&other.cols).all(|(a, b)| {
            // The hot shape compares straight from the buffers.
            match (a, b) {
                (
                    Some(x @ Column::Int { data: xs, .. }),
                    Some(y @ Column::Int { data: ys, .. }),
                ) if x.all_valid() && y.all_valid() => xs[i] == ys[j],
                _ => lane(*a, i).equals(&lane(*b, j)),
            }
        })
    }
}

/// Dense single-column hashing.
fn hash_column(col: &Column) -> KeyHashes {
    let n = col.len();
    let null_hash = hash_one(hash_scalar::null);
    let mut hashes: Vec<u64> = match col {
        Column::Int { data, .. } => data
            .iter()
            .map(|x| hash_one(|h| hash_scalar::int(*x, h)))
            .collect(),
        Column::Real { data, .. } => data
            .iter()
            .map(|x| hash_one(|h| hash_scalar::real(*x, h)))
            .collect(),
        Column::Date { data, .. } => data
            .iter()
            .map(|x| hash_one(|h| hash_scalar::date(*x, h)))
            .collect(),
        Column::Bool { data, .. } => {
            let by_value = [false, true].map(|b| hash_one(|h| hash_scalar::bool(b, h)));
            data.iter().map(|b| by_value[usize::from(*b)]).collect()
        }
        Column::Str { dict, codes, .. } => {
            let by_code: Vec<u64> = dict
                .iter()
                .map(|s| hash_one(|h| hash_scalar::str(s, h)))
                .collect();
            // A placeholder code may not index an empty dictionary.
            codes
                .iter()
                .map(|c| by_code.get(*c as usize).copied().unwrap_or(null_hash))
                .collect()
        }
        Column::Other { values, .. } => values.iter().map(hash_value).collect(),
        Column::Bag { .. } => (0..n)
            .map(|i| hash_one(|h| lane(Some(col), i).feed(h)))
            .collect(),
    };
    if col.all_valid() {
        return KeyHashes {
            hashes,
            valid: None,
        };
    }
    // NULL/absent lanes hold placeholders: overwrite what the dense pass
    // hashed there and clear their validity.
    let mut valid = vec![true; n];
    for (i, ok) in valid.iter_mut().enumerate() {
        if !lane(Some(col), i).is_valid() {
            *ok = false;
            hashes[i] = null_hash;
        }
    }
    KeyHashes {
        hashes,
        valid: Some(valid),
    }
}

// ---------------------------------------------------------------------------
// index tables
// ---------------------------------------------------------------------------

/// Bucket of a hash in a table of `1 << bits` buckets. Fibonacci mixing:
/// rows of one partition share their hash modulo the partition count, so the
/// low bits alone would fill a fraction of the buckets.
fn bucket(hash: u64, bits: u32) -> usize {
    (hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
}

/// Bucket-count exponent for `n` entries (load factor ≤ 1/2).
fn table_bits(n: usize) -> u32 {
    (n.max(4) * 2).next_power_of_two().trailing_zeros()
}

const NIL: u32 = u32::MAX;

fn row_u32(rows: usize) -> Result<()> {
    if rows >= NIL as usize {
        return Err(ExecError::Other(format!(
            "batch of {rows} rows exceeds the u32 row index space of one key table"
        )));
    }
    Ok(())
}

/// A chained hash table over the valid rows of one (build-side) batch:
/// `heads[bucket]` is the first row of the bucket's chain and `next[row]`
/// the following one, in **ascending row order**, so probes emit matches in
/// build-row order.
pub(crate) struct RowTable {
    heads: Vec<u32>,
    next: Vec<u32>,
    bits: u32,
}

impl RowTable {
    pub(crate) fn build(keys: &KeyHashes) -> Result<RowTable> {
        let n = keys.hashes.len();
        row_u32(n)?;
        let bits = table_bits(n);
        let mut heads = vec![NIL; 1 << bits];
        let mut next = vec![NIL; n];
        // Insert back to front: each chain ends up ascending.
        for i in (0..n).rev() {
            if keys.is_valid(i) {
                let slot = &mut heads[bucket(keys.hashes[i], bits)];
                next[i] = *slot;
                *slot = i as u32;
            }
        }
        Ok(RowTable { heads, next, bits })
    }

    /// The rows chained in `hash`'s bucket (a superset of the rows with that
    /// hash), ascending.
    pub(crate) fn chain(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let mut at = self.heads[bucket(hash, self.bits)];
        std::iter::from_fn(move || {
            (at != NIL).then(|| {
                let row = at as usize;
                at = self.next[row];
                row
            })
        })
    }
}

/// The grouping of one batch's rows by key.
pub(crate) struct Groups {
    /// Group of each row; groups are numbered in first-occurrence order.
    pub(crate) group_of: Vec<u32>,
    /// First row of each group.
    pub(crate) first_row: Vec<usize>,
}

/// Groups the rows of one batch under [`KeyCols::lanes_equal`] (NULL and
/// absent lanes form their own groups), numbering groups by first
/// occurrence.
pub(crate) fn group_rows(keys: &KeyCols<'_>, hashes: &[u64]) -> Result<Groups> {
    let n = hashes.len();
    row_u32(n)?;
    let bits = table_bits(n);
    let mut heads = vec![NIL; 1 << bits];
    // Chain of groups per bucket.
    let mut next: Vec<u32> = Vec::new();
    let mut first_row: Vec<usize> = Vec::new();
    let mut group_of = Vec::with_capacity(n);
    for (i, hash) in hashes.iter().enumerate() {
        let slot = bucket(*hash, bits);
        let mut g = heads[slot];
        while g != NIL {
            let rep = first_row[g as usize];
            if hashes[rep] == *hash && keys.lanes_equal(i, keys, rep) {
                break;
            }
            g = next[g as usize];
        }
        if g == NIL {
            g = first_row.len() as u32;
            first_row.push(i);
            next.push(heads[slot]);
            heads[slot] = g;
        }
        group_of.push(g);
    }
    Ok(Groups {
        group_of,
        first_row,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::hash_key;
    use trance_nrc::Label;

    /// A batch with one column of every variant, each with a NULL and an
    /// absent lane, and pairs of lanes that are equal only under
    /// `Value::cmp` (Int vs Real, NaN, signed zero, big ints).
    fn every_variant() -> Batch {
        let big = 1i64 << 53;
        let label = |site, v| Value::Label(Label::new(site, vec![Value::Int(v)]));
        let lanes: Vec<Vec<(&str, Value)>> = vec![
            vec![
                ("i", Value::Int(big)),
                ("r", Value::Real(f64::NAN)),
                ("b", Value::Bool(true)),
                ("d", Value::Date(3)),
                ("s", Value::str("x")),
                ("o", label(1, 7)),
                ("m", Value::Int(1)),
                ("g", Value::bag(vec![Value::Int(1)])),
            ],
            vec![
                ("i", Value::Int(big + 1)),
                ("r", Value::Real(-f64::NAN)),
                ("b", Value::Bool(true)),
                ("d", Value::Date(3)),
                ("s", Value::str("x")),
                ("o", label(1, 7)),
                ("m", Value::Real(1.0)),
                ("g", Value::bag(vec![Value::Int(1)])),
            ],
            vec![
                ("i", Value::Int(3)),
                ("r", Value::Real(-0.0)),
                ("b", Value::Bool(false)),
                ("d", Value::Date(4)),
                ("s", Value::str("y")),
                ("o", label(2, 7)),
                ("m", Value::str("1")),
                ("g", Value::bag(vec![])),
            ],
            vec![
                ("i", Value::Int(3)),
                ("r", Value::Real(0.0)),
                ("b", Value::Null),
                ("d", Value::Null),
                ("s", Value::Null),
                ("o", Value::Null),
                ("m", Value::Null),
                ("g", Value::Null),
            ],
            vec![("i", Value::Null), ("r", Value::Null)],
            vec![("i", Value::Null), ("r", Value::Real(3.0))],
            vec![("i", Value::Int(3))],
            vec![],
        ];
        let b = Batch::from_rows(&lanes.into_iter().map(Value::tuple).collect::<Vec<_>>());
        for (name, variant) in [
            ("i", "Int"),
            ("r", "Real"),
            ("b", "Bool"),
            ("d", "Date"),
            ("s", "Str"),
            ("o", "Other"),
            ("m", "Other"),
            ("g", "Bag"),
        ] {
            let col = format!("{:?}", b.column(name).expect(name));
            assert!(col.starts_with(variant), "{name} is not a {variant} column");
        }
        b
    }

    fn names(cols: &[&str]) -> Vec<String> {
        cols.iter().map(|c| c.to_string()).collect()
    }

    /// The `Value` definitions the typed path must equal.
    fn boxed_key(b: &Batch, i: usize, cols: &[String]) -> Vec<Option<Value>> {
        cols.iter().map(|c| b.value_at(i, c)).collect()
    }

    fn boxed_hash(key: &[Option<Value>]) -> u64 {
        let routed: Vec<Value> = key
            .iter()
            .map(|v| v.clone().unwrap_or(Value::Null))
            .collect();
        hash_key(&routed)
    }

    fn boxed_valid(key: &[Option<Value>]) -> bool {
        key.iter().all(|v| !matches!(v, None | Some(Value::Null)))
    }

    #[test]
    fn typed_hash_validity_and_equality_equal_the_value_definitions() {
        let b = every_variant();
        let keysets: Vec<Vec<String>> = vec![
            names(&["i"]),
            names(&["r"]),
            names(&["b"]),
            names(&["d"]),
            names(&["s"]),
            names(&["o"]),
            names(&["m"]),
            names(&["g"]),
            names(&["missing"]),
            names(&["i", "s"]),
            names(&["s", "r", "o"]),
            names(&["d", "missing", "m", "b"]),
            names(&[]),
        ];
        for cols in &keysets {
            let keys = KeyCols::resolve(&b, cols);
            let hashed = keys.hashes();
            assert_eq!(hashed.hashes.len(), b.rows());
            for i in 0..b.rows() {
                let boxed = boxed_key(&b, i, cols);
                assert_eq!(
                    hashed.hashes[i],
                    boxed_hash(&boxed),
                    "hash {cols:?} row {i}"
                );
                assert_eq!(
                    keys.hash_row(i),
                    boxed_hash(&boxed),
                    "row hash {cols:?} row {i}"
                );
                assert_eq!(
                    hashed.is_valid(i),
                    boxed_valid(&boxed),
                    "valid {cols:?} row {i}"
                );
                assert_eq!(
                    keys.row_valid(i),
                    boxed_valid(&boxed),
                    "row valid {cols:?} row {i}"
                );
                for j in 0..b.rows() {
                    assert_eq!(
                        keys.lanes_equal(i, &keys, j),
                        boxed == boxed_key(&b, j, cols),
                        "equality {cols:?} rows {i},{j}"
                    );
                }
            }
        }
        // Equal hashes are not equal keys: 2^53 and 2^53 + 1 share their f64.
        let ints = KeyCols::resolve(&b, &keysets[0]);
        let hashed = ints.hashes();
        assert_eq!(hashed.hashes[0], hashed.hashes[1]);
        assert!(!ints.lanes_equal(0, &ints, 1));
    }

    #[test]
    fn equality_across_batches_follows_value_cmp() {
        // Int vs Real columns, and an `Other` column against a typed one.
        let left = Batch::from_rows(&[1, 2, 0].map(|k| Value::tuple([("k", Value::Int(k))])));
        let right = Batch::from_rows(
            &[1.0, 2.5, -0.0, f64::NAN].map(|k| Value::tuple([("k", Value::Real(k))])),
        );
        let mixed = Batch::from_rows(&[
            Value::tuple([("k", Value::Real(1.0))]),
            Value::tuple([("k", Value::Int(0))]),
            Value::tuple([("k", Value::Date(1))]),
        ]);
        let cols = names(&["k"]);
        for (a, b) in [(&left, &right), (&right, &mixed), (&mixed, &left)] {
            let (ka, kb) = (KeyCols::resolve(a, &cols), KeyCols::resolve(b, &cols));
            let (ha, hb) = (ka.hashes(), kb.hashes());
            for i in 0..a.rows() {
                for j in 0..b.rows() {
                    let equal = a.value_at(i, "k") == b.value_at(j, "k");
                    assert_eq!(ka.lanes_equal(i, &kb, j), equal, "rows {i},{j}");
                    if equal {
                        assert_eq!(ha.hashes[i], hb.hashes[j], "equal keys hash equally");
                    }
                }
            }
        }
    }

    #[test]
    fn tables_chain_build_rows_ascending_and_number_groups_by_first_occurrence() {
        let b = Batch::from_rows(&[5, 7, 5, 9, 7, 5].map(|k| Value::tuple([("k", Value::Int(k))])));
        let cols = names(&["k"]);
        let keys = KeyCols::resolve(&b, &cols);
        let hashed = keys.hashes();
        let table = RowTable::build(&hashed).unwrap();
        let matches = |i: usize| -> Vec<usize> {
            table
                .chain(hashed.hashes[i])
                .filter(|r| keys.lanes_equal(i, &keys, *r))
                .collect()
        };
        assert_eq!(matches(0), vec![0, 2, 5]);
        assert_eq!(matches(1), vec![1, 4]);
        let groups = group_rows(&keys, &hashed.hashes).unwrap();
        assert_eq!(groups.first_row, vec![0, 1, 3]);
        assert_eq!(groups.group_of, vec![0, 1, 0, 2, 1, 0]);
        // Empty input: no rows, no groups, an empty table.
        let empty = Batch::empty();
        let keys = KeyCols::resolve(&empty, &cols);
        let hashed = keys.hashes();
        assert!(hashed.hashes.is_empty());
        assert!(group_rows(&keys, &hashed.hashes)
            .unwrap()
            .first_row
            .is_empty());
        assert_eq!(RowTable::build(&hashed).unwrap().chain(1).count(), 0);
    }
}
