//! The NRC expression language (Figure 1), extended with the one label
//! construct the shredded compilation route emits: `NewLabel`.
//!
//! The paper shreds through NRC^{Lbl+λ} (Section 4), whose other constructs
//! — λ-dictionaries, symbolic and materialized lookups, bag-to-dictionary
//! casts, dictionary-tree unions and label matching — are intermediate
//! forms. The shredder here folds the symbolic and materialization phases
//! into one pass (`trance_shred::query`), so none of them is ever built and
//! the language does not have them.

use std::collections::BTreeSet;

use crate::types::Type;
use crate::value::Value;

/// Primitive binary operations on scalars (`PrimOp` in Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrimOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (always yields a real).
    Div,
}

impl PrimOp {
    /// Symbol used by the pretty printer.
    pub fn symbol(&self) -> &'static str {
        match self {
            PrimOp::Add => "+",
            PrimOp::Sub => "-",
            PrimOp::Mul => "*",
            PrimOp::Div => "/",
        }
    }
}

/// Comparison operators on scalars (`RelOp` in Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// Symbol used by the pretty printer.
    pub fn symbol(&self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// Evaluates the comparison on an [`std::cmp::Ordering`].
    pub fn eval(&self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

/// An NRC expression.
///
/// Every variant but the last is the core NRC of Figure 1; `NewLabel` is the
/// label constructor the query shredding transformation introduces.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    // ----- core NRC -------------------------------------------------------
    /// A scalar constant.
    Const(Value),
    /// A variable reference (free input, `for`-bound or `let`-bound).
    Var(String),
    /// Tuple projection `e.a`.
    Proj {
        /// The tuple-valued expression.
        tuple: Box<Expr>,
        /// The attribute being accessed.
        field: String,
    },
    /// Tuple construction `⟨a1 := e1, …, an := en⟩`.
    Tuple(Vec<(String, Expr)>),
    /// The empty bag `∅`, optionally annotated with its element type.
    EmptyBag(Option<Type>),
    /// Singleton bag `{e}`.
    Singleton(Box<Expr>),
    /// `get(e)`: extracts the only element of a singleton bag.
    Get(Box<Expr>),
    /// `for var in e1 union e2`: bag comprehension.
    For {
        /// The bound variable.
        var: String,
        /// The bag iterated over.
        source: Box<Expr>,
        /// The body, evaluated once per element; must be bag-typed.
        body: Box<Expr>,
    },
    /// Additive bag union `e1 ⊎ e2`.
    Union(Box<Expr>, Box<Expr>),
    /// `let var := e1 in e2`.
    Let {
        /// The bound variable.
        var: String,
        /// The bound expression.
        value: Box<Expr>,
        /// The body in which `var` is visible.
        body: Box<Expr>,
    },
    /// `if cond then e1 [else e2]`. When the else branch is absent the
    /// expression must be bag-typed and yields the empty bag.
    If {
        /// The condition.
        cond: Box<Expr>,
        /// The then branch.
        then_branch: Box<Expr>,
        /// The optional else branch.
        else_branch: Option<Box<Expr>>,
    },
    /// Primitive scalar arithmetic.
    Prim {
        /// The operator.
        op: PrimOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Scalar comparison.
    Cmp {
        /// The comparison operator.
        op: CmpOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Boolean conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Boolean disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Boolean negation.
    Not(Box<Expr>),
    /// `dedup(e)`: resets all multiplicities to one. The input must be a flat
    /// bag.
    Dedup(Box<Expr>),
    /// `groupBy_key(e)`: groups the tuples of `e` by the `key` attributes and
    /// collects the remaining attributes of each group into a bag-valued
    /// attribute named `group_attr`.
    GroupBy {
        /// Input bag.
        input: Box<Expr>,
        /// Grouping attributes (must be flat).
        key: Vec<String>,
        /// Name of the produced bag-valued attribute.
        group_attr: String,
    },
    /// `sumBy^values_key(e)`: groups the tuples of `e` by the `key` attributes
    /// and sums the `values` attributes within each group.
    SumBy {
        /// Input bag.
        input: Box<Expr>,
        /// Grouping attributes (must be flat).
        key: Vec<String>,
        /// Summed attributes.
        values: Vec<String>,
    },

    // ----- label construction (shredded pipeline) ---------------------------
    /// `NewLabel(e1, …, en)`: constructs a label at construction site `site`
    /// capturing the given flat values.
    NewLabel {
        /// Identifier of this construction site (assigned by the shredder).
        site: u32,
        /// Captured expressions, each under a name (kept for printing; a
        /// label value holds only the captured values).
        captures: Vec<(String, Expr)>,
    },
}

impl Expr {
    /// Free variables of the expression, in no particular order.
    pub fn free_vars(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_free_vars(&mut Vec::new(), &mut out);
        out
    }

    fn collect_free_vars(&self, bound: &mut Vec<String>, out: &mut BTreeSet<String>) {
        match self {
            Expr::Const(_) | Expr::EmptyBag(_) => {}
            Expr::Var(v) => {
                if !bound.contains(v) {
                    out.insert(v.clone());
                }
            }
            Expr::Proj { tuple, .. } => tuple.collect_free_vars(bound, out),
            Expr::Tuple(fields) => {
                for (_, e) in fields {
                    e.collect_free_vars(bound, out);
                }
            }
            Expr::Singleton(e) | Expr::Get(e) | Expr::Not(e) | Expr::Dedup(e) => {
                e.collect_free_vars(bound, out)
            }
            Expr::For { var, source, body } => {
                source.collect_free_vars(bound, out);
                bound.push(var.clone());
                body.collect_free_vars(bound, out);
                bound.pop();
            }
            Expr::Let { var, value, body } => {
                value.collect_free_vars(bound, out);
                bound.push(var.clone());
                body.collect_free_vars(bound, out);
                bound.pop();
            }
            Expr::Union(a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.collect_free_vars(bound, out);
                b.collect_free_vars(bound, out);
            }
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => {
                cond.collect_free_vars(bound, out);
                then_branch.collect_free_vars(bound, out);
                if let Some(e) = else_branch {
                    e.collect_free_vars(bound, out);
                }
            }
            Expr::Prim { left, right, .. } | Expr::Cmp { left, right, .. } => {
                left.collect_free_vars(bound, out);
                right.collect_free_vars(bound, out);
            }
            Expr::GroupBy { input, .. } | Expr::SumBy { input, .. } => {
                input.collect_free_vars(bound, out)
            }
            Expr::NewLabel { captures, .. } => {
                for (_, e) in captures {
                    e.collect_free_vars(bound, out);
                }
            }
        }
    }

    /// Replaces every free occurrence of variable `name` with `replacement`.
    ///
    /// Bound occurrences (introduced by `for` and `let`) shadow the
    /// substitution as usual. No capture-avoidance is attempted beyond
    /// shadowing: callers (the shredder and optimizer) only substitute fresh
    /// or input variables, which cannot be captured.
    pub fn substitute(&self, name: &str, replacement: &Expr) -> Expr {
        let recur = |e: &Expr| e.substitute(name, replacement);
        match self {
            Expr::Const(_) | Expr::EmptyBag(_) => self.clone(),
            Expr::Var(v) => {
                if v == name {
                    replacement.clone()
                } else {
                    self.clone()
                }
            }
            Expr::Proj { tuple, field } => Expr::Proj {
                tuple: Box::new(recur(tuple)),
                field: field.clone(),
            },
            Expr::Tuple(fields) => {
                Expr::Tuple(fields.iter().map(|(n, e)| (n.clone(), recur(e))).collect())
            }
            Expr::Singleton(e) => Expr::Singleton(Box::new(recur(e))),
            Expr::Get(e) => Expr::Get(Box::new(recur(e))),
            Expr::Not(e) => Expr::Not(Box::new(recur(e))),
            Expr::Dedup(e) => Expr::Dedup(Box::new(recur(e))),
            Expr::For { var, source, body } => Expr::For {
                var: var.clone(),
                source: Box::new(recur(source)),
                body: if var == name {
                    body.clone()
                } else {
                    Box::new(recur(body))
                },
            },
            Expr::Let { var, value, body } => Expr::Let {
                var: var.clone(),
                value: Box::new(recur(value)),
                body: if var == name {
                    body.clone()
                } else {
                    Box::new(recur(body))
                },
            },
            Expr::Union(a, b) => Expr::Union(Box::new(recur(a)), Box::new(recur(b))),
            Expr::And(a, b) => Expr::And(Box::new(recur(a)), Box::new(recur(b))),
            Expr::Or(a, b) => Expr::Or(Box::new(recur(a)), Box::new(recur(b))),
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => Expr::If {
                cond: Box::new(recur(cond)),
                then_branch: Box::new(recur(then_branch)),
                else_branch: else_branch.as_ref().map(|e| Box::new(recur(e))),
            },
            Expr::Prim { op, left, right } => Expr::Prim {
                op: *op,
                left: Box::new(recur(left)),
                right: Box::new(recur(right)),
            },
            Expr::Cmp { op, left, right } => Expr::Cmp {
                op: *op,
                left: Box::new(recur(left)),
                right: Box::new(recur(right)),
            },
            Expr::GroupBy {
                input,
                key,
                group_attr,
            } => Expr::GroupBy {
                input: Box::new(recur(input)),
                key: key.clone(),
                group_attr: group_attr.clone(),
            },
            Expr::SumBy { input, key, values } => Expr::SumBy {
                input: Box::new(recur(input)),
                key: key.clone(),
                values: values.clone(),
            },
            Expr::NewLabel { site, captures } => Expr::NewLabel {
                site: *site,
                captures: captures
                    .iter()
                    .map(|(n, e)| (n.clone(), recur(e)))
                    .collect(),
            },
        }
    }

    /// Calls `f` on this expression and every sub-expression, pre-order.
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Const(_) | Expr::Var(_) | Expr::EmptyBag(_) => {}
            Expr::Proj { tuple, .. } => tuple.visit(f),
            Expr::Tuple(fields) => fields.iter().for_each(|(_, e)| e.visit(f)),
            Expr::Singleton(e) | Expr::Get(e) | Expr::Not(e) | Expr::Dedup(e) => e.visit(f),
            Expr::For { source, body, .. } => {
                source.visit(f);
                body.visit(f);
            }
            Expr::Let { value, body, .. } => {
                value.visit(f);
                body.visit(f);
            }
            Expr::Union(a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => {
                cond.visit(f);
                then_branch.visit(f);
                if let Some(e) = else_branch {
                    e.visit(f);
                }
            }
            Expr::Prim { left, right, .. } | Expr::Cmp { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            Expr::GroupBy { input, .. } | Expr::SumBy { input, .. } => input.visit(f),
            Expr::NewLabel { captures, .. } => captures.iter().for_each(|(_, e)| e.visit(f)),
        }
    }

    /// Number of AST nodes (useful for tests and optimizer statistics).
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::*;

    #[test]
    fn free_vars_respect_binders() {
        // for x in R union { <a := x.a, b := y.b> }
        let e = forin(
            "x",
            var("R"),
            singleton(tuple([
                ("a", proj(var("x"), "a")),
                ("b", proj(var("y"), "b")),
            ])),
        );
        let fv = e.free_vars();
        assert!(fv.contains("R"));
        assert!(fv.contains("y"));
        assert!(!fv.contains("x"));
    }

    #[test]
    fn substitution_is_shadow_aware() {
        let e = forin("x", var("R"), singleton(proj(var("x"), "a")));
        let s = e.substitute("x", &var("SHOULD_NOT_APPEAR"));
        assert_eq!(e, s, "bound x must not be substituted");
        let s2 = e.substitute("R", &var("S"));
        assert!(s2.free_vars().contains("S"));
        assert!(!s2.free_vars().contains("R"));
    }

    #[test]
    fn size_counts_nodes() {
        let e = ifthen(
            cmp_eq(proj(var("x"), "pid"), proj(var("p"), "pid")),
            singleton(var("x")),
        );
        assert!(e.size() >= 7);
    }
}
