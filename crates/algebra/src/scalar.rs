//! Row-level scalar expressions used by plan operators (selection predicates,
//! projection columns, join keys).

use std::collections::BTreeSet;

use trance_nrc::value::{cmp_op, prim_op};
use trance_nrc::{CmpOp, Label, PrimOp, Result, Tuple, Value};

/// A scalar expression evaluated against a single row (tuple).
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// Reference to a column of the row.
    Col(String),
    /// A constant value.
    Const(Value),
    /// Binary arithmetic.
    Prim {
        /// The operator.
        op: PrimOp,
        /// Left operand.
        left: Box<ScalarExpr>,
        /// Right operand.
        right: Box<ScalarExpr>,
    },
    /// Comparison.
    Cmp {
        /// The comparison operator.
        op: CmpOp,
        /// Left operand.
        left: Box<ScalarExpr>,
        /// Right operand.
        right: Box<ScalarExpr>,
    },
    /// Conjunction.
    And(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Disjunction.
    Or(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Negation.
    Not(Box<ScalarExpr>),
    /// The first operand unless it evaluates to NULL, else the second. The
    /// one coalesce any plan holds is [`crate::Plan::renest`]'s
    /// `coalesce(group, {})`, which turns the NULL a left-outer join leaves on
    /// an unmatched nesting level into the empty bag (`Γ⊎` semantics).
    Coalesce(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Construct a label capturing the named columns (shredded plans).
    NewLabel {
        /// Label construction site.
        site: u32,
        /// `(capture name, column expression)` pairs.
        captures: Vec<(String, ScalarExpr)>,
    },
}

impl ScalarExpr {
    /// Column reference.
    pub fn col(name: impl Into<String>) -> Self {
        ScalarExpr::Col(name.into())
    }

    /// Constant.
    pub fn constant(v: Value) -> Self {
        ScalarExpr::Const(v)
    }

    /// Equality between two columns.
    pub fn col_eq(a: impl Into<String>, b: impl Into<String>) -> Self {
        ScalarExpr::Cmp {
            op: CmpOp::Eq,
            left: Box::new(ScalarExpr::col(a)),
            right: Box::new(ScalarExpr::col(b)),
        }
    }

    /// Evaluates the expression against `row` — **the definition** of what a
    /// plan expression means. The executor's compiled kernels are held to it
    /// row by row in their unit tests, and to `nrc::eval` by the differential
    /// suites; nothing else evaluates a `ScalarExpr`.
    ///
    /// A column absent from the row evaluates to NULL — plan streams follow
    /// the outer-join convention where missing attributes stand for NULL;
    /// `And`, `Or` and `Coalesce` evaluate their right operand only where the
    /// left one does not decide. Arithmetic and comparison, NULL rule
    /// included, are [`prim_op`] and [`cmp_op`], the reference evaluator's
    /// own.
    pub fn eval(&self, row: &Tuple) -> Result<Value> {
        match self {
            ScalarExpr::Col(name) => Ok(row.get(name).cloned().unwrap_or(Value::Null)),
            ScalarExpr::Const(v) => Ok(v.clone()),
            ScalarExpr::Prim { op, left, right } => {
                prim_op(*op, &left.eval(row)?, &right.eval(row)?)
            }
            ScalarExpr::Cmp { op, left, right } => Ok(Value::Bool(cmp_op(
                *op,
                &left.eval(row)?,
                &right.eval(row)?,
            ))),
            ScalarExpr::And(a, b) => Ok(Value::Bool(
                a.eval(row)?.as_bool()? && b.eval(row)?.as_bool()?,
            )),
            ScalarExpr::Or(a, b) => Ok(Value::Bool(
                a.eval(row)?.as_bool()? || b.eval(row)?.as_bool()?,
            )),
            ScalarExpr::Not(e) => Ok(Value::Bool(!e.eval(row)?.as_bool()?)),
            ScalarExpr::Coalesce(a, b) => match a.eval(row)? {
                Value::Null => b.eval(row),
                v => Ok(v),
            },
            ScalarExpr::NewLabel { site, captures } => {
                let mut vals = Vec::with_capacity(captures.len());
                for (_, e) in captures {
                    vals.push(e.eval(row)?);
                }
                Ok(Value::Label(Label::new(*site, vals)))
            }
        }
    }

    /// Columns referenced by the expression.
    pub fn referenced_columns(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut BTreeSet<String>) {
        match self {
            ScalarExpr::Col(c) => {
                out.insert(c.clone());
            }
            ScalarExpr::Const(_) => {}
            ScalarExpr::Prim { left, right, .. } | ScalarExpr::Cmp { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            ScalarExpr::And(a, b) | ScalarExpr::Or(a, b) | ScalarExpr::Coalesce(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            ScalarExpr::Not(e) => e.collect_columns(out),
            ScalarExpr::NewLabel { captures, .. } => {
                for (_, e) in captures {
                    e.collect_columns(out);
                }
            }
        }
    }

    /// Renders the expression compactly (used by the plan pretty printer).
    pub fn display(&self) -> String {
        match self {
            ScalarExpr::Col(c) => c.clone(),
            ScalarExpr::Const(v) => format!("{v}"),
            ScalarExpr::Prim { op, left, right } => {
                format!("({} {} {})", left.display(), op.symbol(), right.display())
            }
            ScalarExpr::Cmp { op, left, right } => {
                format!("({} {} {})", left.display(), op.symbol(), right.display())
            }
            ScalarExpr::And(a, b) => format!("({} && {})", a.display(), b.display()),
            ScalarExpr::Or(a, b) => format!("({} || {})", a.display(), b.display()),
            ScalarExpr::Not(e) => format!("!({})", e.display()),
            ScalarExpr::Coalesce(a, b) => {
                format!("coalesce({}, {})", a.display(), b.display())
            }
            ScalarExpr::NewLabel { site, captures } => format!(
                "NewLabel#{site}({})",
                captures
                    .iter()
                    .map(|(n, e)| format!("{n}:={}", e.display()))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Tuple {
        Tuple::new([
            ("qty", Value::Real(3.0)),
            ("price", Value::Real(2.0)),
            ("pid", Value::Int(7)),
            ("missing_val", Value::Null),
        ])
    }

    #[test]
    fn arithmetic_and_comparison_evaluate() {
        let e = ScalarExpr::Prim {
            op: PrimOp::Mul,
            left: Box::new(ScalarExpr::col("qty")),
            right: Box::new(ScalarExpr::col("price")),
        };
        assert_eq!(e.eval(&row()).unwrap(), Value::Real(6.0));
        let c = ScalarExpr::Cmp {
            op: CmpOp::Gt,
            left: Box::new(ScalarExpr::col("pid")),
            right: Box::new(ScalarExpr::Const(Value::Int(5))),
        };
        assert_eq!(c.eval(&row()).unwrap(), Value::Bool(true));
    }

    #[test]
    fn null_propagates_through_arithmetic_and_fails_comparisons() {
        let e = ScalarExpr::Prim {
            op: PrimOp::Add,
            left: Box::new(ScalarExpr::col("missing_val")),
            right: Box::new(ScalarExpr::col("qty")),
        };
        assert_eq!(e.eval(&row()).unwrap(), Value::Null);
        let c = ScalarExpr::col_eq("missing_val", "pid");
        assert_eq!(c.eval(&row()).unwrap(), Value::Bool(false));
    }

    /// Arithmetic and comparison over a row are the reference evaluator's,
    /// NULL rule included: on every pair of a small operand corpus — an
    /// absent column among them — `ScalarExpr::eval`, `prim_op` / `cmp_op`
    /// and `nrc::eval` give the same value or the same error.
    #[test]
    fn prim_and_cmp_are_the_reference_evaluators() {
        use trance_nrc::builder as nrc;
        let operands = [
            None,
            Some(Value::Null),
            Some(Value::Int(3)),
            Some(Value::Int(0)),
            Some(Value::Real(-1.5)),
            Some(Value::str("a")),
        ];
        let prims = [PrimOp::Add, PrimOp::Sub, PrimOp::Mul, PrimOp::Div];
        let cmps = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        for l in &operands {
            for r in &operands {
                let row = Tuple::new(
                    [("l", l), ("r", r)]
                        .into_iter()
                        .filter_map(|(n, v)| Some((n, v.clone()?))),
                );
                let env = trance_nrc::Env::from_bindings([("t", Value::Tuple(row.clone()))]);
                let field = |n| nrc::proj(nrc::var("t"), n);
                let (lv, rv) = (
                    l.clone().unwrap_or(Value::Null),
                    r.clone().unwrap_or(Value::Null),
                );
                for op in prims {
                    let e = ScalarExpr::Prim {
                        op,
                        left: Box::new(ScalarExpr::col("l")),
                        right: Box::new(ScalarExpr::col("r")),
                    };
                    let reference = trance_nrc::Expr::Prim {
                        op,
                        left: Box::new(field("l")),
                        right: Box::new(field("r")),
                    };
                    let want = format!("{:?}", prim_op(op, &lv, &rv));
                    assert_eq!(format!("{:?}", e.eval(&row)), want, "{l:?} {op:?} {r:?}");
                    let got = trance_nrc::eval(&reference, &env);
                    assert_eq!(format!("{got:?}"), want, "nrc::eval {l:?} {op:?} {r:?}");
                }
                for op in cmps {
                    let want = Ok(Value::Bool(cmp_op(op, &lv, &rv)));
                    let e = ScalarExpr::Cmp {
                        op,
                        left: Box::new(ScalarExpr::col("l")),
                        right: Box::new(ScalarExpr::col("r")),
                    };
                    let reference = trance_nrc::Expr::Cmp {
                        op,
                        left: Box::new(field("l")),
                        right: Box::new(field("r")),
                    };
                    assert_eq!(e.eval(&row), want, "{l:?} {op:?} {r:?}");
                    assert_eq!(trance_nrc::eval(&reference, &env), want, "nrc::eval");
                }
            }
        }
    }

    #[test]
    fn labels_are_built_from_their_site_and_captures() {
        let mk = ScalarExpr::NewLabel {
            site: 9,
            captures: vec![("pid".into(), ScalarExpr::col("pid"))],
        };
        assert_eq!(
            mk.eval(&row()).unwrap(),
            Value::Label(Label::new(9, vec![Value::Int(7)]))
        );
    }

    #[test]
    fn referenced_columns_are_collected() {
        let e = ScalarExpr::And(
            Box::new(ScalarExpr::col_eq("a", "b")),
            Box::new(ScalarExpr::Coalesce(
                Box::new(ScalarExpr::col("c")),
                Box::new(ScalarExpr::constant(Value::empty_bag())),
            )),
        );
        let cols = e.referenced_columns();
        assert_eq!(cols.len(), 3);
        assert!(cols.contains("a") && cols.contains("b") && cols.contains("c"));
    }
}
