//! The NRC type system (Figure 1 of the paper).
//!
//! Types are built from scalar types, tuple types and bag types, plus the one
//! extension used by the shredded pipeline: the atomic `Label` type, the type
//! of `NewLabel`.

use std::fmt;

/// Scalar (atomic) types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarType {
    /// 64-bit integers.
    Int,
    /// 64-bit IEEE-754 reals.
    Real,
    /// UTF-8 strings.
    Str,
    /// Booleans.
    Bool,
    /// Dates (days since an arbitrary epoch).
    Date,
}

impl fmt::Display for ScalarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarType::Int => write!(f, "int"),
            ScalarType::Real => write!(f, "real"),
            ScalarType::Str => write!(f, "string"),
            ScalarType::Bool => write!(f, "bool"),
            ScalarType::Date => write!(f, "date"),
        }
    }
}

/// A named, ordered collection of attribute types.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct TupleType {
    /// Attribute name / type pairs, in declaration order.
    pub fields: Vec<(String, Type)>,
}

impl TupleType {
    /// Creates a tuple type from `(name, type)` pairs.
    pub fn new<I, S>(fields: I) -> Self
    where
        I: IntoIterator<Item = (S, Type)>,
        S: Into<String>,
    {
        TupleType {
            fields: fields.into_iter().map(|(n, t)| (n.into(), t)).collect(),
        }
    }

    /// Looks up the type of attribute `name`, if present.
    pub fn field(&self, name: &str) -> Option<&Type> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    /// Names of all attributes in order.
    pub fn field_names(&self) -> Vec<&str> {
        self.fields.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// True when every attribute has scalar type, i.e. the tuple is flat.
    pub fn is_flat(&self) -> bool {
        self.fields
            .iter()
            .all(|(_, t)| t.is_scalar() || matches!(t, Type::Label))
    }
}

/// NRC types (`T` in Figure 1), extended with `Label` for the shredded
/// pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// A scalar type.
    Scalar(ScalarType),
    /// A tuple type `⟨a1 : T1, …, an : Tn⟩`.
    Tuple(TupleType),
    /// A bag type `Bag(F)`.
    Bag(Box<Type>),
    /// The atomic label type used by the shredded representation.
    Label,
    /// A type that is not yet known (used during inference of empty bags).
    Unknown,
}

impl Type {
    /// Shorthand for the `int` scalar type.
    pub fn int() -> Type {
        Type::Scalar(ScalarType::Int)
    }
    /// Shorthand for the `real` scalar type.
    pub fn real() -> Type {
        Type::Scalar(ScalarType::Real)
    }
    /// Shorthand for the `string` scalar type.
    pub fn string() -> Type {
        Type::Scalar(ScalarType::Str)
    }
    /// Shorthand for the `bool` scalar type.
    pub fn boolean() -> Type {
        Type::Scalar(ScalarType::Bool)
    }
    /// Shorthand for the `date` scalar type.
    pub fn date() -> Type {
        Type::Scalar(ScalarType::Date)
    }
    /// A bag of the given element type.
    pub fn bag(elem: Type) -> Type {
        Type::Bag(Box::new(elem))
    }
    /// A bag of tuples built from `(name, type)` pairs.
    pub fn bag_of<I, S>(fields: I) -> Type
    where
        I: IntoIterator<Item = (S, Type)>,
        S: Into<String>,
    {
        Type::bag(Type::Tuple(TupleType::new(fields)))
    }
    /// A tuple type built from `(name, type)` pairs.
    pub fn tuple<I, S>(fields: I) -> Type
    where
        I: IntoIterator<Item = (S, Type)>,
        S: Into<String>,
    {
        Type::Tuple(TupleType::new(fields))
    }

    /// True for scalar types.
    pub fn is_scalar(&self) -> bool {
        matches!(self, Type::Scalar(_))
    }

    /// True for bag types.
    pub fn is_bag(&self) -> bool {
        matches!(self, Type::Bag(_))
    }

    /// True for tuple types.
    pub fn is_tuple(&self) -> bool {
        matches!(self, Type::Tuple(_))
    }

    /// Element type of a bag type, if this is one.
    pub fn bag_elem(&self) -> Option<&Type> {
        match self {
            Type::Bag(e) => Some(e),
            _ => None,
        }
    }

    /// Tuple type view, if this is a tuple type.
    pub fn as_tuple(&self) -> Option<&TupleType> {
        match self {
            Type::Tuple(t) => Some(t),
            _ => None,
        }
    }

    /// A *flat bag* is a bag of tuples whose attributes are all scalars (or
    /// labels). This is the shape required by `dedup`, `groupBy` and `sumBy`
    /// keys, and the shape every shredded collection has.
    pub fn is_flat_bag(&self) -> bool {
        match self {
            Type::Bag(inner) => match inner.as_ref() {
                Type::Tuple(t) => t.is_flat(),
                Type::Scalar(_) | Type::Label => true,
                _ => false,
            },
            _ => false,
        }
    }

    /// Structural compatibility check that treats `Unknown` as a wildcard.
    pub fn compatible(&self, other: &Type) -> bool {
        match (self, other) {
            (Type::Unknown, _) | (_, Type::Unknown) => true,
            (Type::Scalar(a), Type::Scalar(b)) => a == b,
            (Type::Label, Type::Label) => true,
            (Type::Bag(a), Type::Bag(b)) => a.compatible(b),
            (Type::Tuple(a), Type::Tuple(b)) => {
                a.fields.len() == b.fields.len()
                    && a.fields
                        .iter()
                        .zip(&b.fields)
                        .all(|((n1, t1), (n2, t2))| n1 == n2 && t1.compatible(t2))
            }
            _ => false,
        }
    }

    /// Merges two compatible types, preferring the more specific one.
    pub fn merge(&self, other: &Type) -> Type {
        match (self, other) {
            (Type::Unknown, t) => t.clone(),
            (t, Type::Unknown) => t.clone(),
            (Type::Bag(a), Type::Bag(b)) => Type::Bag(Box::new(a.merge(b))),
            (Type::Tuple(a), Type::Tuple(b)) if a.fields.len() == b.fields.len() => {
                Type::Tuple(TupleType {
                    fields: a
                        .fields
                        .iter()
                        .zip(&b.fields)
                        .map(|((n, t1), (_, t2))| (n.clone(), t1.merge(t2)))
                        .collect(),
                })
            }
            _ => self.clone(),
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Scalar(s) => write!(f, "{s}"),
            Type::Tuple(t) => {
                write!(f, "<")?;
                for (i, (n, ty)) in t.fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n}: {ty}")?;
                }
                write!(f, ">")
            }
            Type::Bag(e) => write!(f, "Bag({e})"),
            Type::Label => write!(f, "Label"),
            Type::Unknown => write!(f, "?"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cop_type() -> Type {
        Type::bag_of([
            ("cname", Type::string()),
            (
                "corders",
                Type::bag_of([
                    ("odate", Type::date()),
                    (
                        "oparts",
                        Type::bag_of([("pid", Type::int()), ("qty", Type::real())]),
                    ),
                ]),
            ),
        ])
    }

    #[test]
    fn nested_type_construction_and_lookup() {
        let t = cop_type();
        let elem = t.bag_elem().unwrap().as_tuple().unwrap();
        assert_eq!(elem.field("cname"), Some(&Type::string()));
        assert!(elem.field("corders").unwrap().is_bag());
        assert!(elem.field("missing").is_none());
    }

    #[test]
    fn flat_bag_detection() {
        let flat = Type::bag_of([("pid", Type::int()), ("qty", Type::real())]);
        assert!(flat.is_flat_bag());
        assert!(!cop_type().is_flat_bag());
        let with_label = Type::bag_of([("cname", Type::string()), ("corders", Type::Label)]);
        assert!(with_label.is_flat_bag(), "labels count as flat attributes");
    }

    #[test]
    fn compatibility_treats_unknown_as_wildcard() {
        let a = Type::bag(Type::Unknown);
        let b = Type::bag_of([("x", Type::int())]);
        assert!(a.compatible(&b));
        assert_eq!(a.merge(&b), b);
        assert!(!Type::int().compatible(&Type::real()));
    }

    #[test]
    fn display_round_trips_structure() {
        let t = cop_type();
        let s = format!("{t}");
        assert!(s.contains("cname: string"));
        assert!(s.contains("Bag(<odate: date"));
    }
}
