//! Ergonomic constructors for NRC expressions.
//!
//! Writing deeply nested [`Expr`] values by hand is verbose; these helpers
//! keep query definitions (examples, benchmarks, tests) close to the surface
//! syntax used in the paper, e.g.
//!
//! ```
//! use trance_nrc::builder::*;
//! // for c in COP union { <cname := c.cname> }
//! let q = forin("c", var("COP"), singleton(tuple([("cname", proj(var("c"), "cname"))])));
//! assert_eq!(q.free_vars().len(), 1);
//! ```

use crate::expr::{CmpOp, Expr, PrimOp};
use crate::types::Type;
use crate::value::Value;

/// A variable reference.
pub fn var(name: impl Into<String>) -> Expr {
    Expr::Var(name.into())
}

/// An integer constant.
pub fn int(i: i64) -> Expr {
    Expr::Const(Value::Int(i))
}

/// A real constant.
pub fn real(r: f64) -> Expr {
    Expr::Const(Value::Real(r))
}

/// A string constant.
pub fn string(s: impl Into<String>) -> Expr {
    Expr::Const(Value::Str(s.into()))
}

/// A boolean constant.
pub fn boolean(b: bool) -> Expr {
    Expr::Const(Value::Bool(b))
}

/// Tuple projection `e.field`.
pub fn proj(tuple: Expr, field: impl Into<String>) -> Expr {
    Expr::Proj {
        tuple: Box::new(tuple),
        field: field.into(),
    }
}

/// Projection of a chain of fields `e.f1.f2…`.
pub fn proj_path(mut tuple: Expr, fields: &[&str]) -> Expr {
    for f in fields {
        tuple = proj(tuple, *f);
    }
    tuple
}

/// Tuple construction.
pub fn tuple<I, S>(fields: I) -> Expr
where
    I: IntoIterator<Item = (S, Expr)>,
    S: Into<String>,
{
    Expr::Tuple(fields.into_iter().map(|(n, e)| (n.into(), e)).collect())
}

/// The empty bag with unknown element type.
pub fn empty_bag() -> Expr {
    Expr::EmptyBag(None)
}

/// The empty bag annotated with an element type.
pub fn empty_bag_of(t: Type) -> Expr {
    Expr::EmptyBag(Some(t))
}

/// Singleton bag `{e}`.
pub fn singleton(e: Expr) -> Expr {
    Expr::Singleton(Box::new(e))
}

/// `get(e)`.
pub fn get(e: Expr) -> Expr {
    Expr::Get(Box::new(e))
}

/// `for var in source union body`.
pub fn forin(v: impl Into<String>, source: Expr, body: Expr) -> Expr {
    Expr::For {
        var: v.into(),
        source: Box::new(source),
        body: Box::new(body),
    }
}

/// Bag union `a ⊎ b`.
pub fn union(a: Expr, b: Expr) -> Expr {
    Expr::Union(Box::new(a), Box::new(b))
}

/// `let var := value in body`.
pub fn letin(v: impl Into<String>, value: Expr, body: Expr) -> Expr {
    Expr::Let {
        var: v.into(),
        value: Box::new(value),
        body: Box::new(body),
    }
}

/// `if cond then e` (bag-typed, empty bag otherwise).
pub fn ifthen(cond: Expr, then_branch: Expr) -> Expr {
    Expr::If {
        cond: Box::new(cond),
        then_branch: Box::new(then_branch),
        else_branch: None,
    }
}

/// `if cond then e1 else e2`.
pub fn ifelse(cond: Expr, then_branch: Expr, else_branch: Expr) -> Expr {
    Expr::If {
        cond: Box::new(cond),
        then_branch: Box::new(then_branch),
        else_branch: Some(Box::new(else_branch)),
    }
}

fn prim(op: PrimOp, l: Expr, r: Expr) -> Expr {
    Expr::Prim {
        op,
        left: Box::new(l),
        right: Box::new(r),
    }
}

/// Addition.
pub fn add(l: Expr, r: Expr) -> Expr {
    prim(PrimOp::Add, l, r)
}
/// Subtraction.
pub fn sub(l: Expr, r: Expr) -> Expr {
    prim(PrimOp::Sub, l, r)
}
/// Multiplication.
pub fn mul(l: Expr, r: Expr) -> Expr {
    prim(PrimOp::Mul, l, r)
}
/// Division.
pub fn div(l: Expr, r: Expr) -> Expr {
    prim(PrimOp::Div, l, r)
}

fn cmp(op: CmpOp, l: Expr, r: Expr) -> Expr {
    Expr::Cmp {
        op,
        left: Box::new(l),
        right: Box::new(r),
    }
}

/// Equality comparison.
pub fn cmp_eq(l: Expr, r: Expr) -> Expr {
    cmp(CmpOp::Eq, l, r)
}
/// Inequality comparison.
pub fn cmp_ne(l: Expr, r: Expr) -> Expr {
    cmp(CmpOp::Ne, l, r)
}
/// Less-than comparison.
pub fn cmp_lt(l: Expr, r: Expr) -> Expr {
    cmp(CmpOp::Lt, l, r)
}
/// Less-or-equal comparison.
pub fn cmp_le(l: Expr, r: Expr) -> Expr {
    cmp(CmpOp::Le, l, r)
}
/// Greater-than comparison.
pub fn cmp_gt(l: Expr, r: Expr) -> Expr {
    cmp(CmpOp::Gt, l, r)
}
/// Greater-or-equal comparison.
pub fn cmp_ge(l: Expr, r: Expr) -> Expr {
    cmp(CmpOp::Ge, l, r)
}

/// Boolean conjunction.
pub fn and(l: Expr, r: Expr) -> Expr {
    Expr::And(Box::new(l), Box::new(r))
}
/// Boolean disjunction.
pub fn or(l: Expr, r: Expr) -> Expr {
    Expr::Or(Box::new(l), Box::new(r))
}
/// Boolean negation.
pub fn not(e: Expr) -> Expr {
    Expr::Not(Box::new(e))
}

/// `dedup(e)`.
pub fn dedup(e: Expr) -> Expr {
    Expr::Dedup(Box::new(e))
}

/// `groupBy_key(e)` collecting non-key attributes into `group_attr`.
pub fn group_by(input: Expr, key: &[&str], group_attr: impl Into<String>) -> Expr {
    Expr::GroupBy {
        input: Box::new(input),
        key: key.iter().map(|s| s.to_string()).collect(),
        group_attr: group_attr.into(),
    }
}

/// `sumBy^values_key(e)`.
pub fn sum_by(input: Expr, key: &[&str], values: &[&str]) -> Expr {
    Expr::SumBy {
        input: Box::new(input),
        key: key.iter().map(|s| s.to_string()).collect(),
        values: values.iter().map(|s| s.to_string()).collect(),
    }
}

/// `NewLabel` capturing the given `(name, expr)` pairs at construction site
/// `site`.
pub fn new_label<I, S>(site: u32, captures: I) -> Expr
where
    I: IntoIterator<Item = (S, Expr)>,
    S: Into<String>,
{
    Expr::NewLabel {
        site,
        captures: captures.into_iter().map(|(n, e)| (n.into(), e)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_expected_shapes() {
        let e = sum_by(
            forin(
                "op",
                proj(var("co"), "oparts"),
                forin(
                    "p",
                    var("Part"),
                    ifthen(
                        cmp_eq(proj(var("op"), "pid"), proj(var("p"), "pid")),
                        singleton(tuple([
                            ("pname", proj(var("p"), "pname")),
                            (
                                "total",
                                mul(proj(var("op"), "qty"), proj(var("p"), "price")),
                            ),
                        ])),
                    ),
                ),
            ),
            &["pname"],
            &["total"],
        );
        match &e {
            Expr::SumBy { key, values, .. } => {
                assert_eq!(key, &vec!["pname".to_string()]);
                assert_eq!(values, &vec!["total".to_string()]);
            }
            _ => panic!("expected SumBy"),
        }
        assert_eq!(e.free_vars().len(), 2); // co, Part
    }

    #[test]
    fn proj_path_chains_projections() {
        let e = proj_path(var("x"), &["a", "b", "c"]);
        assert_eq!(e, proj(proj(proj(var("x"), "a"), "b"), "c"));
    }
}
