//! Runtime values of the nested data model.
//!
//! `Value` is the dynamic representation used by the local evaluator, the
//! distributed engine, the shredder, and the benchmark generators. Values are
//! totally ordered and hashable so that any flat value can serve as a grouping
//! or join key (reals are ordered by their IEEE-754 bit pattern after NaN
//! normalisation, which is sufficient for key semantics).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::{NrcError, Result};
use crate::expr::{CmpOp, PrimOp};
use crate::types::{TupleType, Type};

/// A label identifies one inner bag in the shredded representation.
///
/// Following NRC^{Lbl+λ}, a label created by `NewLabel(x1, …, xn)` records the
/// *construction site* (each syntactic `NewLabel` occurrence gets a unique
/// site id, assigned by the shredder) and the flat values captured at that
/// site. Two labels are equal when both agree.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label {
    /// Identifier of the `NewLabel` construction site.
    pub site: u32,
    /// Flat values captured by the label, in construction order.
    pub values: Arc<Vec<Value>>,
}

impl Label {
    /// Creates a label for `site` capturing `values`.
    pub fn new(site: u32, values: Vec<Value>) -> Self {
        Label {
            site,
            values: Arc::new(values),
        }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}(", self.site)?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// A tuple value: ordered attribute/value pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple {
    fields: Vec<(String, Value)>,
}

impl Tuple {
    /// Creates a tuple from `(name, value)` pairs, keeping their order.
    pub fn new<I, S>(fields: I) -> Self
    where
        I: IntoIterator<Item = (S, Value)>,
        S: Into<String>,
    {
        Tuple {
            fields: fields.into_iter().map(|(n, v)| (n.into(), v)).collect(),
        }
    }

    /// An empty tuple `⟨⟩`.
    pub fn empty() -> Self {
        Tuple { fields: Vec::new() }
    }

    /// Looks up attribute `name`.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Looks up attribute `name`, returning an error mentioning `context`.
    pub fn get_or_err(&self, name: &str, context: &str) -> Result<&Value> {
        self.get(name).ok_or_else(|| NrcError::UnknownField {
            field: name.to_string(),
            context: context.to_string(),
        })
    }

    /// Adds or replaces attribute `name`.
    pub fn set(&mut self, name: impl Into<String>, value: Value) {
        let name = name.into();
        if let Some(slot) = self.fields.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.fields.push((name, value));
        }
    }

    /// Removes attribute `name` if present, returning its value.
    pub fn remove(&mut self, name: &str) -> Option<Value> {
        let idx = self.fields.iter().position(|(n, _)| n == name)?;
        Some(self.fields.remove(idx).1)
    }

    /// Returns a new tuple containing only the attributes in `names`
    /// (in the order of `names`, skipping missing ones).
    pub fn project(&self, names: &[&str]) -> Tuple {
        Tuple {
            fields: names
                .iter()
                .zip(self.project_values(names))
                .filter_map(|(n, v)| v.map(|v| (n.to_string(), v.clone())))
                .collect(),
        }
    }

    /// Batch accessor: looks up every name in `names` in a **single pass**
    /// over the tuple's attributes, returning the values in `names` order
    /// (`None` for missing attributes).
    ///
    /// Per-row per-column [`Tuple::get`] calls in hot loops (row
    /// finalization, join key extraction, grouping) are O(fields) each; this
    /// replaces `names.len()` scans with one.
    pub fn project_values<'a, S: AsRef<str>>(&'a self, names: &[S]) -> Vec<Option<&'a Value>> {
        let mut out: Vec<Option<&Value>> = vec![None; names.len()];
        let mut unfilled = names.len();
        for (n, v) in &self.fields {
            if unfilled == 0 {
                break;
            }
            for (slot, name) in out.iter_mut().zip(names) {
                if slot.is_none() && name.as_ref() == n {
                    *slot = Some(v);
                    unfilled -= 1;
                }
            }
        }
        out
    }

    /// Returns a new tuple with the attributes in `names` removed.
    pub fn project_away(&self, names: &[&str]) -> Tuple {
        Tuple {
            fields: self
                .fields
                .iter()
                .filter(|(n, _)| !names.contains(&n.as_str()))
                .cloned()
                .collect(),
        }
    }

    /// Concatenates two tuples; attributes of `other` overwrite same-named
    /// attributes of `self`.
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut out = self.clone();
        for (n, v) in &other.fields {
            out.set(n.clone(), v.clone());
        }
        out
    }

    /// Iterator over `(name, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.fields.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Immutable view of the `(name, value)` pairs in attribute order — the
    /// converter entry point used by columnar batch builders, which need
    /// indexed access to a row's fields without the iterator adaptor.
    pub fn fields(&self) -> &[(String, Value)] {
        &self.fields
    }

    /// Attribute names in order.
    pub fn field_names(&self) -> Vec<&str> {
        self.fields.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the tuple has no attributes.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, (n, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}: {v}")?;
        }
        write!(f, ">")
    }
}

/// A bag (multiset) value, represented as a vector of elements.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bag {
    items: Vec<Value>,
}

impl Bag {
    /// Creates a bag from the given elements.
    pub fn new(items: Vec<Value>) -> Self {
        Bag { items }
    }

    /// The empty bag.
    pub fn empty() -> Self {
        Bag { items: Vec::new() }
    }

    /// Creates a singleton bag.
    pub fn singleton(v: Value) -> Self {
        Bag { items: vec![v] }
    }

    /// Appends an element.
    pub fn push(&mut self, v: Value) {
        self.items.push(v);
    }

    /// Appends all elements of `other`.
    pub fn extend(&mut self, other: Bag) {
        self.items.extend(other.items);
    }

    /// Number of elements (with multiplicity).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the bag has no elements.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Immutable view of the elements.
    pub fn items(&self) -> &[Value] {
        &self.items
    }

    /// Iterator over the elements.
    pub fn iter(&self) -> impl Iterator<Item = &Value> {
        self.items.iter()
    }

    /// Consumes the bag, returning its elements.
    pub fn into_items(self) -> Vec<Value> {
        self.items
    }

    /// Multiset-equality: true when both bags contain the same elements with
    /// the same multiplicities, irrespective of order.
    pub fn multiset_eq(&self, other: &Bag) -> bool {
        if self.len() != other.len() {
            return false;
        }
        let mut a = self.items.clone();
        let mut b = other.items.clone();
        a.sort();
        b.sort();
        a == b
    }
}

impl FromIterator<Value> for Bag {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Bag {
            items: iter.into_iter().collect(),
        }
    }
}

impl IntoIterator for Bag {
    type Item = Value;
    type IntoIter = std::vec::IntoIter<Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

impl fmt::Display for Bag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "}}")
    }
}

/// A dynamically typed value of the nested data model.
#[derive(Debug, Clone)]
pub enum Value {
    /// The NULL value introduced by outer joins.
    Null,
    /// Boolean scalar.
    Bool(bool),
    /// 64-bit integer scalar.
    Int(i64),
    /// 64-bit floating point scalar.
    Real(f64),
    /// String scalar.
    Str(String),
    /// Date scalar, stored as days since an arbitrary epoch.
    Date(i64),
    /// A label (shredded representation only).
    Label(Label),
    /// A tuple of named values.
    Tuple(Tuple),
    /// A bag of values.
    Bag(Bag),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Convenience constructor for tuple values.
    pub fn tuple<I, S>(fields: I) -> Value
    where
        I: IntoIterator<Item = (S, Value)>,
        S: Into<String>,
    {
        Value::Tuple(Tuple::new(fields))
    }

    /// Convenience constructor for bag values.
    pub fn bag(items: Vec<Value>) -> Value {
        Value::Bag(Bag::new(items))
    }

    /// The empty bag.
    pub fn empty_bag() -> Value {
        Value::Bag(Bag::empty())
    }

    /// True for scalar values (including NULL, dates and labels).
    pub fn is_scalar(&self) -> bool {
        !matches!(self, Value::Tuple(_) | Value::Bag(_))
    }

    /// Views this value as a boolean.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            Value::Null => Ok(false),
            other => Err(NrcError::TypeMismatch {
                expected: "bool".into(),
                found: other.kind().into(),
                context: "as_bool".into(),
            }),
        }
    }

    /// Views this value as an integer.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Date(d) => Ok(*d),
            Value::Null => Ok(0),
            other => Err(NrcError::TypeMismatch {
                expected: "int".into(),
                found: other.kind().into(),
                context: "as_int".into(),
            }),
        }
    }

    /// Views this value as a real number (integers are widened).
    pub fn as_real(&self) -> Result<f64> {
        match self {
            Value::Real(r) => Ok(*r),
            Value::Int(i) => Ok(*i as f64),
            Value::Null => Ok(0.0),
            other => Err(NrcError::TypeMismatch {
                expected: "real".into(),
                found: other.kind().into(),
                context: "as_real".into(),
            }),
        }
    }

    /// Views this value as a string slice.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(NrcError::TypeMismatch {
                expected: "string".into(),
                found: other.kind().into(),
                context: "as_str".into(),
            }),
        }
    }

    /// Views this value as a tuple.
    pub fn as_tuple(&self) -> Result<&Tuple> {
        match self {
            Value::Tuple(t) => Ok(t),
            other => Err(NrcError::TypeMismatch {
                expected: "tuple".into(),
                found: other.kind().into(),
                context: "as_tuple".into(),
            }),
        }
    }

    /// Mutable tuple view.
    pub fn as_tuple_mut(&mut self) -> Result<&mut Tuple> {
        match self {
            Value::Tuple(t) => Ok(t),
            other => Err(NrcError::TypeMismatch {
                expected: "tuple".into(),
                found: other.kind().into(),
                context: "as_tuple_mut".into(),
            }),
        }
    }

    /// Views this value as a bag. Anything else, NULL included, is a
    /// [`NrcError::TypeMismatch`]; [`Value::into_bag`] reads NULL as `{}`.
    pub fn as_bag(&self) -> Result<&Bag> {
        match self {
            Value::Bag(b) => Ok(b),
            other => Err(NrcError::TypeMismatch {
                expected: "bag".into(),
                found: other.kind().into(),
                context: "as_bag".into(),
            }),
        }
    }

    /// Consumes this value, returning the contained bag; NULL becomes the
    /// empty bag.
    pub fn into_bag(self) -> Result<Bag> {
        match self {
            Value::Bag(b) => Ok(b),
            Value::Null => Ok(Bag::empty()),
            other => Err(NrcError::TypeMismatch {
                expected: "bag".into(),
                found: other.kind().into(),
                context: "into_bag".into(),
            }),
        }
    }

    /// A short human-readable name of the value's kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Real(_) => "real",
            Value::Str(_) => "string",
            Value::Date(_) => "date",
            Value::Label(_) => "label",
            Value::Tuple(_) => "tuple",
            Value::Bag(_) => "bag",
        }
    }

    /// Infers the (structural) type of a value; bags infer their element type
    /// from the first element.
    pub fn infer_type(&self) -> Type {
        match self {
            Value::Null => Type::Unknown,
            Value::Bool(_) => Type::boolean(),
            Value::Int(_) => Type::int(),
            Value::Real(_) => Type::real(),
            Value::Str(_) => Type::string(),
            Value::Date(_) => Type::date(),
            Value::Label(_) => Type::Label,
            Value::Tuple(t) => Type::Tuple(TupleType::new(
                t.iter().map(|(n, v)| (n.to_string(), v.infer_type())),
            )),
            Value::Bag(b) => match b.items().first() {
                Some(v) => Type::bag(v.infer_type()),
                None => Type::bag(Type::Unknown),
            },
        }
    }

    /// Adds two numeric values, widening to real when either side is real.
    /// An integer sum that leaves `i64` is a typed
    /// [`NrcError::IntegerOverflow`], never a wrap or a panic.
    pub fn numeric_add(&self, other: &Value) -> Result<Value> {
        match (self, other) {
            (Value::Null, v) | (v, Value::Null) => Ok(v.clone()),
            (Value::Int(a), Value::Int(b)) => checked_int_add(*a, *b).map(Value::Int),
            _ => Ok(Value::Real(self.as_real()? + other.as_real()?)),
        }
    }
}

/// The integer case of [`Value::numeric_add`], shared with typed (unboxed)
/// `sumBy` accumulators so every route reports overflow the same way.
pub fn checked_int_add(a: i64, b: i64) -> Result<i64> {
    a.checked_add(b).ok_or(NrcError::IntegerOverflow("sumBy"))
}

/// `l op r` — the one place scalar arithmetic and its NULL rule are written:
/// `nrc::eval`, the plan layer's `ScalarExpr::eval` and the kernels'
/// row-wise lane all call it. NULL on either side (an absent attribute reads
/// as NULL) gives NULL. Two integers stay integral under `+`, `-`, `*`, and
/// a result that leaves `i64` is a typed [`NrcError::IntegerOverflow`]
/// naming the operator, never a wrap or a panic; every other pairing widens
/// to real, and `/` always does, with [`NrcError::DivisionByZero`] on a zero
/// divisor.
pub fn prim_op(op: PrimOp, l: &Value, r: &Value) -> Result<Value> {
    if matches!(l, Value::Null) || matches!(r, Value::Null) {
        return Ok(Value::Null);
    }
    let int = |x: Option<i64>| {
        x.map(Value::Int)
            .ok_or(NrcError::IntegerOverflow(op.symbol()))
    };
    match (op, l, r) {
        (PrimOp::Add, Value::Int(a), Value::Int(b)) => int(a.checked_add(*b)),
        (PrimOp::Sub, Value::Int(a), Value::Int(b)) => int(a.checked_sub(*b)),
        (PrimOp::Mul, Value::Int(a), Value::Int(b)) => int(a.checked_mul(*b)),
        (PrimOp::Add, _, _) => Ok(Value::Real(l.as_real()? + r.as_real()?)),
        (PrimOp::Sub, _, _) => Ok(Value::Real(l.as_real()? - r.as_real()?)),
        (PrimOp::Mul, _, _) => Ok(Value::Real(l.as_real()? * r.as_real()?)),
        (PrimOp::Div, _, _) => {
            let d = r.as_real()?;
            if d == 0.0 {
                return Err(NrcError::DivisionByZero);
            }
            Ok(Value::Real(l.as_real()? / d))
        }
    }
}

/// `l op r` as a truth value, through the total [`Value`] order — the one
/// place a comparison's NULL rule is written, for the same callers as
/// [`prim_op`]: NULL on either side compares false, `NULL = NULL` included,
/// so an outer-join mismatch satisfies no join or filter predicate.
pub fn cmp_op(op: CmpOp, l: &Value, r: &Value) -> bool {
    !matches!(l, Value::Null) && !matches!(r, Value::Null) && op.eval(l.cmp(r))
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn kind_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) => 2,
        Value::Real(_) => 3,
        Value::Str(_) => 4,
        Value::Date(_) => 5,
        Value::Label(_) => 6,
        Value::Tuple(_) => 7,
        Value::Bag(_) => 8,
    }
}

/// The order- and hash-normalised bit pattern of a real: a total order on
/// reals via the bit pattern, with NaN and `-0.0` normalised so that equal
/// keys hash equally. `Value`'s `Ord` and `Hash` are defined through it, and
/// typed (columnar) key code uses it to stay equal to them.
pub fn normalize_real(r: f64) -> u64 {
    if r.is_nan() {
        f64::NAN.to_bits()
    } else if r == 0.0 {
        0f64.to_bits()
    } else {
        let bits = r.to_bits();
        if r.is_sign_negative() {
            !bits
        } else {
            bits | (1 << 63)
        }
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Real(a), Value::Real(b)) => normalize_real(*a).cmp(&normalize_real(*b)),
            (Value::Int(a), Value::Real(b)) => normalize_real(*a as f64).cmp(&normalize_real(*b)),
            (Value::Real(a), Value::Int(b)) => normalize_real(*a).cmp(&normalize_real(*b as f64)),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Date(a), Value::Date(b)) => a.cmp(b),
            (Value::Label(a), Value::Label(b)) => a.cmp(b),
            (Value::Tuple(a), Value::Tuple(b)) => a.cmp(b),
            (Value::Bag(a), Value::Bag(b)) => a.cmp(b),
            _ => kind_rank(self).cmp(&kind_rank(other)),
        }
    }
}

/// The scalar pieces of `impl Hash for Value`: what each flat kind writes
/// into a hasher. Exposed so typed key code can hash an `i64`/`f64`/`&str`
/// lane without boxing it into a [`Value`] and still produce, by
/// construction, the hash the boxed value would.
pub mod hash_scalar {
    use super::normalize_real;
    use std::hash::{Hash, Hasher};

    /// `Value::Null`.
    pub fn null<H: Hasher>(state: &mut H) {
        0u8.hash(state);
    }

    /// `Value::Bool`.
    pub fn bool<H: Hasher>(b: bool, state: &mut H) {
        1u8.hash(state);
        b.hash(state);
    }

    /// `Value::Int`. Ints and reals that compare equal must hash equally, so
    /// both hash through the normalised real representation.
    pub fn int<H: Hasher>(i: i64, state: &mut H) {
        real(i as f64, state);
    }

    /// `Value::Real`.
    pub fn real<H: Hasher>(r: f64, state: &mut H) {
        2u8.hash(state);
        normalize_real(r).hash(state);
    }

    /// `Value::Str`.
    pub fn str<H: Hasher>(s: &str, state: &mut H) {
        4u8.hash(state);
        s.hash(state);
    }

    /// `Value::Date`.
    pub fn date<H: Hasher>(d: i64, state: &mut H) {
        5u8.hash(state);
        d.hash(state);
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => hash_scalar::null(state),
            Value::Bool(b) => hash_scalar::bool(*b, state),
            Value::Int(i) => hash_scalar::int(*i, state),
            Value::Real(r) => hash_scalar::real(*r, state),
            Value::Str(s) => hash_scalar::str(s, state),
            Value::Date(d) => hash_scalar::date(*d, state),
            Value::Label(l) => {
                6u8.hash(state);
                l.hash(state);
            }
            Value::Tuple(t) => {
                7u8.hash(state);
                for (n, v) in t.iter() {
                    n.hash(state);
                    v.hash(state);
                }
            }
            Value::Bag(b) => {
                8u8.hash(state);
                b.len().hash(state);
                for v in b.iter() {
                    v.hash(state);
                }
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{r}"),
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Date(d) => write!(f, "date({d})"),
            Value::Label(l) => write!(f, "{l}"),
            Value::Tuple(t) => write!(f, "{t}"),
            Value::Bag(b) => write!(f, "{b}"),
        }
    }
}

/// Estimate of a value's in-memory footprint in bytes.
///
/// Used by the distributed engine to meter shuffle volume and enforce the
/// per-worker memory caps that reproduce the paper's FAIL runs.
pub trait MemSize {
    /// Approximate number of bytes this value occupies.
    fn mem_size(&self) -> usize;
}

impl MemSize for Value {
    fn mem_size(&self) -> usize {
        match self {
            Value::Null | Value::Bool(_) => 8,
            Value::Int(_) | Value::Real(_) | Value::Date(_) => 8,
            Value::Str(s) => 24 + s.len(),
            Value::Label(l) => 8 + l.values.iter().map(MemSize::mem_size).sum::<usize>(),
            Value::Tuple(t) => t.mem_size(),
            Value::Bag(b) => b.mem_size(),
        }
    }
}

/// Tuples charge 16 bytes of structure plus, per attribute, the name bytes,
/// an 8-byte slot and the value itself. Exposed directly (not only through
/// [`Value`]) so columnar converters can account for the row-equivalent size
/// of data they no longer store as tuples.
impl MemSize for Tuple {
    fn mem_size(&self) -> usize {
        16 + self
            .iter()
            .map(|(n, v)| n.len() + 8 + v.mem_size())
            .sum::<usize>()
    }
}

/// Bags charge 24 bytes of structure plus their elements.
impl MemSize for Bag {
    fn mem_size(&self) -> usize {
        24 + self.iter().map(MemSize::mem_size).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn tuple_access_and_projection() {
        let t = Tuple::new([
            ("pid", Value::Int(7)),
            ("qty", Value::Real(2.5)),
            ("name", Value::str("bolt")),
        ]);
        assert_eq!(t.get("pid"), Some(&Value::Int(7)));
        assert_eq!(
            t.project(&["name", "pid"]).field_names(),
            vec!["name", "pid"]
        );
        assert_eq!(t.project_away(&["qty"]).len(), 2);
        assert_eq!(
            t.project_values(&["qty", "missing", "pid"]),
            vec![Some(&Value::Real(2.5)), None, Some(&Value::Int(7))]
        );
        let mut t2 = t.clone();
        t2.set("qty", Value::Real(9.0));
        assert_eq!(t2.get("qty"), Some(&Value::Real(9.0)));
    }

    #[test]
    fn int_real_key_equivalence() {
        // Keys that compare equal must hash equal (groupBy correctness).
        let mut m: HashMap<Value, i32> = HashMap::new();
        m.insert(Value::Int(3), 1);
        *m.entry(Value::Real(3.0)).or_insert(0) += 1;
        assert_eq!(m.len(), 1);
        assert_eq!(m[&Value::Int(3)], 2);
    }

    #[test]
    fn bag_multiset_equality_ignores_order() {
        let a = Bag::new(vec![Value::Int(1), Value::Int(2), Value::Int(2)]);
        let b = Bag::new(vec![Value::Int(2), Value::Int(1), Value::Int(2)]);
        let c = Bag::new(vec![Value::Int(1), Value::Int(2)]);
        assert!(a.multiset_eq(&b));
        assert!(!a.multiset_eq(&c));
    }

    #[test]
    fn labels_compare_by_site_and_captures() {
        let l1 = Label::new(1, vec![Value::Int(10)]);
        let l2 = Label::new(1, vec![Value::Int(10)]);
        let l3 = Label::new(2, vec![Value::Int(10)]);
        assert_eq!(Value::Label(l1.clone()), Value::Label(l2));
        assert_ne!(Value::Label(l1), Value::Label(l3));
    }

    #[test]
    fn null_coerces_to_neutral_values() {
        assert!(!Value::Null.as_bool().unwrap());
        assert_eq!(Value::Null.as_real().unwrap(), 0.0);
        assert!(Value::Null.clone().into_bag().unwrap().is_empty());
    }

    #[test]
    fn mem_size_grows_with_structure() {
        let small = Value::Int(1);
        let big = Value::bag(vec![Value::tuple([("a", Value::str("hello world"))]); 10]);
        assert!(big.mem_size() > small.mem_size() * 10);
    }

    #[test]
    fn infer_type_of_nested_value() {
        let v = Value::bag(vec![Value::tuple([
            ("cname", Value::str("c1")),
            (
                "corders",
                Value::bag(vec![Value::tuple([("odate", Value::Date(1))])]),
            ),
        ])]);
        let t = v.infer_type();
        assert!(t.is_bag());
        let tt = t.bag_elem().unwrap().as_tuple().unwrap();
        assert!(tt.field("corders").unwrap().is_bag());
    }
}
