//! The unnesting algorithm (Figure 3): lowering NRC expressions to [`Plan`]
//! programs.
//!
//! The lowering walks an NRC bag expression and builds the same operator
//! shapes the paper's compilation stage produces:
//!
//! * iterating an input relation establishes a flattened *stream* whose
//!   columns are named `var.field` ([`Plan::Scan`] with an alias);
//! * iterating a bag-valued attribute becomes an [`Plan::Unnest`] carrying
//!   the enclosing columns — the flattening the standard route pays for;
//! * a `for` over another relation whose body is guarded by an equality with
//!   the stream becomes an equi-[`Plan::Join`] (a cross join when genuinely
//!   uncorrelated);
//! * constructing a tuple with a bag-valued attribute enters a new nesting
//!   level: the stream is materialized with a fresh parent identifier
//!   ([`Plan::AddIndex`], emitted as a shared assignment so both sides of the
//!   regrouping join read the same materialization), the inner bag is
//!   compiled as a flat child stream, grouped by the parent id (`Γ⊎`) and
//!   re-attached by the re-nesting join ([`Plan::renest`]), which gives a
//!   parent without children the empty bag;
//! * `sumBy` / `groupBy` become `Γ+` / `Γ⊎` keyed by the enclosing parent ids
//!   plus the user key.
//!
//! The result is a [`PlanProgram`]: zero or more named assignments
//! (materialization points for `let` bindings and nesting levels) followed by
//! the root plan. Optimization happens **after** lowering, in
//! [`crate::optimize()`] — the lowering itself performs no pruning or pushdown,
//! so a program lowered here and executed without optimization reproduces the
//! SparkSQL-like baseline.

use std::collections::BTreeSet;
use std::fmt;

use trance_nrc::{CmpOp, Expr, Value};

use crate::plan::{NestOp, Plan, PlanJoinKind};
use crate::scalar::ScalarExpr;
use crate::schema::{output_schema, Catalog};

/// An NRC expression outside the distributable subset (or an unbound
/// variable) was encountered during lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    /// Human-readable description of what could not be lowered.
    pub message: String,
}

impl LowerError {
    fn new(message: impl Into<String>) -> Self {
        LowerError {
            message: message.into(),
        }
    }
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lowering failed: {}", self.message)
    }
}

impl std::error::Error for LowerError {}

/// Result alias for lowering.
pub type LowerResult<T> = Result<T, LowerError>;

/// One materialized intermediate of a lowered program.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanAssignment {
    /// Name under which the materialized output is registered (scannable by
    /// later plans of the same program).
    pub name: String,
    /// The plan computing it.
    pub plan: Plan,
}

/// A lowered NRC query: assignments to materialize in order, then the root
/// plan producing the query result.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanProgram {
    /// Materialization points (from `let` bindings, nested output levels and
    /// iterated subqueries), in execution order.
    pub assignments: Vec<PlanAssignment>,
    /// The plan computing the query result.
    pub root: Plan,
}

impl PlanProgram {
    /// Total number of plan operators across assignments and root.
    pub fn size(&self) -> usize {
        self.assignments
            .iter()
            .map(|a| a.plan.size())
            .sum::<usize>()
            + self.root.size()
    }
}

/// Lowers an NRC bag expression to a [`PlanProgram`] over the inputs named in
/// `catalog`. The catalog drives two things only: which free variables denote
/// scannable inputs, and the attribute lists of relations used as direct
/// aggregation/deduplication sources (the plan equivalent of discovering them
/// from the data).
pub fn lower(expr: &Expr, catalog: &Catalog) -> LowerResult<PlanProgram> {
    let mut lw = Lowerer {
        catalog,
        known: catalog
            .input_names()
            .iter()
            .map(|s| s.to_string())
            .collect(),
        renames: std::collections::BTreeMap::new(),
        assignments: Vec::new(),
        counter: 0,
    };
    let out = lw.compile_bag(expr, None)?;
    let root = lw.finalize(out);
    Ok(PlanProgram {
        assignments: lw.assignments,
        root,
    })
}

/// Column name of `var.field` in the flattened stream.
fn col(var: &str, field: &str) -> String {
    format!("{var}.{field}")
}

/// The flattened stream threaded through lowering: the plan computing rows
/// whose columns are `var.field` pairs plus parent-id columns, together with
/// the variables currently bound.
#[derive(Clone)]
struct Stream {
    plan: Plan,
    bound: Vec<String>,
    /// Parent-id columns present in the stream (innermost last).
    ids: Vec<String>,
}

/// The result of lowering a bag expression.
enum Lowered {
    /// The rows are already the final bag elements (whole-relation
    /// pass-through such as dictionary aliases).
    Passthrough(Plan),
    /// Flattened rows: stream columns plus plainly-named output attributes.
    Flattened {
        plan: Plan,
        attrs: Vec<String>,
        ids: Vec<String>,
    },
}

struct Lowerer<'a> {
    catalog: &'a Catalog,
    /// Names resolvable by `Scan`: catalog inputs plus assignments made so
    /// far.
    known: BTreeSet<String>,
    /// Lexically scoped `let` bindings: bag variable → the (freshened)
    /// assignment materializing it. Kept separate from `known` so shadowed
    /// bindings restore correctly when their scope ends.
    renames: std::collections::BTreeMap<String, String>,
    assignments: Vec<PlanAssignment>,
    counter: usize,
}

impl Lowerer<'_> {
    fn finalize(&self, out: Lowered) -> Plan {
        match out {
            Lowered::Passthrough(p) => p,
            Lowered::Flattened { plan, attrs, .. } => Plan::Project {
                input: Box::new(plan),
                columns: attrs
                    .into_iter()
                    .map(|a| (a.clone(), ScalarExpr::col(a)))
                    .collect(),
            },
        }
    }

    fn fresh(&mut self, prefix: &str) -> String {
        self.counter += 1;
        format!("__{prefix}{}", self.counter)
    }

    /// Materializes `plan` as a named assignment and returns its name.
    fn materialize(&mut self, prefix: &str, plan: Plan) -> String {
        let name = self.fresh(prefix);
        self.known.insert(name.clone());
        self.assignments.push(PlanAssignment {
            name: name.clone(),
            plan,
        });
        name
    }

    /// Resolves a bag variable to the name a `Scan` should use: an in-scope
    /// `let` binding first, then catalog inputs / materialized assignments.
    fn resolve_input(&self, name: &str) -> Option<String> {
        if let Some(target) = self.renames.get(name) {
            return Some(target.clone());
        }
        if self.known.contains(name) {
            return Some(name.to_string());
        }
        None
    }

    fn compile_bag(&mut self, e: &Expr, stream: Option<Stream>) -> LowerResult<Lowered> {
        match e {
            Expr::Var(name) => {
                if stream.is_none() {
                    match self.resolve_input(name) {
                        Some(target) => Ok(Lowered::Passthrough(Plan::scan(target))),
                        None => Err(LowerError::new(format!("unknown input `{name}`"))),
                    }
                } else {
                    Err(LowerError::new(format!(
                        "bag variable `{name}` cannot be used directly inside a nested context; \
                         iterate it with `for`"
                    )))
                }
            }
            Expr::EmptyBag(_) => Ok(Lowered::Flattened {
                plan: Plan::Empty,
                attrs: Vec::new(),
                ids: stream.map(|s| s.ids).unwrap_or_default(),
            }),
            Expr::Let { var, value, body } => {
                // The binding is materialized under a fresh name and mapped
                // lexically: sibling or shadowing `let`s of the same variable
                // each get their own assignment, and the previous binding is
                // restored when this scope ends.
                let value_out = self.compile_bag(value, None)?;
                let plan = self.finalize(value_out);
                let name = self.materialize(&format!("let_{var}_"), plan);
                let previous = self.renames.insert(var.clone(), name);
                let result = self.compile_bag(body, stream);
                match previous {
                    Some(p) => {
                        self.renames.insert(var.clone(), p);
                    }
                    None => {
                        self.renames.remove(var);
                    }
                }
                result
            }
            Expr::For { var, source, body } => self.compile_for(var, source, body, stream),
            Expr::If {
                cond,
                then_branch,
                else_branch: None,
            } => {
                let stream = stream.ok_or_else(|| {
                    LowerError::new("conditional bag outside of an iteration context")
                })?;
                let predicate = translate_scalar(cond, &stream.bound)?;
                let filtered = Stream {
                    plan: stream.plan.select(predicate),
                    bound: stream.bound,
                    ids: stream.ids,
                };
                self.compile_bag(then_branch, Some(filtered))
            }
            Expr::If { .. } => Err(LowerError::new(
                "if-then-else over bags is not supported by the plan compiler; \
                 rewrite with union of guarded branches",
            )),
            Expr::Singleton(inner) => self.compile_singleton(inner, stream),
            Expr::Union(a, b) => {
                let oa = self.compile_bag(a, stream.clone())?;
                let ob = self.compile_bag(b, stream)?;
                match (oa, ob) {
                    (Lowered::Passthrough(pa), Lowered::Passthrough(pb)) => {
                        Ok(Lowered::Passthrough(Plan::Union {
                            left: Box::new(pa),
                            right: Box::new(pb),
                        }))
                    }
                    (
                        Lowered::Flattened {
                            plan: pa,
                            attrs: aa,
                            ids,
                        },
                        Lowered::Flattened {
                            plan: pb,
                            attrs: ab,
                            ..
                        },
                    ) => {
                        let mut attrs = aa;
                        for a in ab {
                            if !attrs.contains(&a) {
                                attrs.push(a);
                            }
                        }
                        Ok(Lowered::Flattened {
                            plan: Plan::Union {
                                left: Box::new(pa),
                                right: Box::new(pb),
                            },
                            attrs,
                            ids,
                        })
                    }
                    _ => Err(LowerError::new("union of incompatible bag shapes")),
                }
            }
            Expr::SumBy { input, key, values } => {
                let inner = self.compile_bag(input, stream)?;
                let (plan, _attrs, ids) = self.expect_flattened(inner)?;
                let mut full_key: Vec<String> = ids.clone();
                full_key.extend(key.iter().cloned());
                let aggregated = Plan::Nest {
                    input: Box::new(plan),
                    key: full_key,
                    values: values.clone(),
                    op: NestOp::Sum,
                    place_by: Vec::new(),
                };
                let mut attrs = key.clone();
                attrs.extend(values.iter().cloned());
                Ok(Lowered::Flattened {
                    plan: aggregated,
                    attrs,
                    ids,
                })
            }
            Expr::GroupBy {
                input,
                key,
                group_attr,
            } => {
                let inner = self.compile_bag(input, stream)?;
                self.reject_unknown_passthrough(&inner, "groupBy")?;
                let (plan, attrs, ids) = self.expect_flattened(inner)?;
                let mut full_key: Vec<String> = ids.clone();
                full_key.extend(key.iter().cloned());
                let value_attrs: Vec<String> =
                    attrs.iter().filter(|a| !key.contains(a)).cloned().collect();
                let grouped = Plan::Nest {
                    input: Box::new(plan),
                    key: full_key,
                    values: value_attrs,
                    op: NestOp::Bag {
                        group_attr: group_attr.clone(),
                    },
                    place_by: Vec::new(),
                };
                let mut out_attrs = key.clone();
                out_attrs.push(group_attr.clone());
                Ok(Lowered::Flattened {
                    plan: grouped,
                    attrs: out_attrs,
                    ids,
                })
            }
            Expr::Dedup(input) => {
                let inner = self.compile_bag(input, stream)?;
                self.reject_unknown_passthrough(&inner, "dedup")?;
                let (plan, attrs, ids) = self.expect_flattened(inner)?;
                let keep: Vec<String> = ids.iter().chain(attrs.iter()).cloned().collect();
                let projected = Plan::Project {
                    input: Box::new(plan),
                    columns: keep
                        .into_iter()
                        .map(|a| (a.clone(), ScalarExpr::col(a)))
                        .collect(),
                };
                Ok(Lowered::Flattened {
                    plan: Plan::Dedup {
                        input: Box::new(projected),
                    },
                    attrs,
                    ids,
                })
            }
            other => Err(LowerError::new(format!(
                "the plan compiler does not support this bag expression: {other:?}"
            ))),
        }
    }

    fn expect_flattened(&self, out: Lowered) -> LowerResult<(Plan, Vec<String>, Vec<String>)> {
        match out {
            Lowered::Flattened { plan, attrs, ids } => Ok((plan, attrs, ids)),
            Lowered::Passthrough(plan) => {
                // Attribute discovery for whole-relation aggregates comes from
                // the catalog (the physical pipeline infers it from the data).
                let attrs = output_schema(&plan, self.catalog).attrs;
                Ok((plan, attrs, Vec::new()))
            }
        }
    }

    /// Rejects operations that need the full attribute list of a
    /// pass-through relation whose schema the catalog cannot supply (a
    /// `let`-bound or materialized intermediate): silently proceeding would
    /// project every row down to the empty tuple. Known-but-empty inputs
    /// pass through (an empty relation has no rows to mis-project).
    fn reject_unknown_passthrough(&self, out: &Lowered, what: &str) -> LowerResult<()> {
        if let Lowered::Passthrough(plan) = out {
            let unknown: Vec<String> = plan
                .scanned_inputs()
                .into_iter()
                .filter(|name| !self.catalog.contains(name))
                .collect();
            if !unknown.is_empty() {
                return Err(LowerError::new(format!(
                    "{what} over relation(s) {unknown:?} whose attributes are not in the \
                     catalog (let-bound intermediates cannot be aggregated whole; \
                     iterate them with `for` instead)"
                )));
            }
        }
        Ok(())
    }

    fn compile_for(
        &mut self,
        var: &str,
        source: &Expr,
        body: &Expr,
        stream: Option<Stream>,
    ) -> LowerResult<Lowered> {
        let input = match source {
            Expr::Var(name) => self.resolve_input(name),
            _ => None,
        };
        match (source, input) {
            // Iterate an input (or let-bound / materialized) relation.
            (_, Some(target)) => {
                match stream {
                    None => {
                        let s = Stream {
                            plan: Plan::scan_as(target, var),
                            bound: vec![var.to_string()],
                            ids: Vec::new(),
                        };
                        self.compile_bag(body, Some(s))
                    }
                    Some(s) => {
                        // A relation iterated inside an existing stream must
                        // be correlated by an equality in the body — this
                        // becomes an equi-join (or a cross join when truly
                        // uncorrelated).
                        let right = Plan::scan_as(target, var);
                        let (cond, inner_body) = peel_condition(body);
                        let (left_keys, right_keys, residual) =
                            split_join_condition(&cond, &s, var);
                        let lk: Vec<&str> = left_keys.iter().map(|s| s.as_str()).collect();
                        let rk: Vec<&str> = right_keys.iter().map(|s| s.as_str()).collect();
                        let joined = s.plan.clone().join(right, &lk, &rk, PlanJoinKind::Inner);
                        let mut plan = joined;
                        if let Some(res) = &residual {
                            let bound_with_var: Vec<String> =
                                s.bound.iter().cloned().chain([var.to_string()]).collect();
                            plan = plan.select(translate_scalar(res, &bound_with_var)?);
                        }
                        let new_stream = Stream {
                            plan,
                            bound: {
                                let mut b = s.bound.clone();
                                b.push(var.to_string());
                                b
                            },
                            ids: s.ids.clone(),
                        };
                        self.compile_bag(&inner_body, Some(new_stream))
                    }
                }
            }
            // Iterate a bag-valued attribute of an enclosing variable: unnest.
            (Expr::Proj { tuple, field }, None) => {
                let (outer_var, path) = projection_root(tuple, field)?;
                let stream = stream.ok_or_else(|| {
                    LowerError::new(format!(
                        "navigation into {outer_var}.{path} outside of an iteration context"
                    ))
                })?;
                if !stream.bound.contains(&outer_var) {
                    return Err(LowerError::new(format!(
                        "variable `{outer_var}` is not bound in the current stream"
                    )));
                }
                let s = Stream {
                    plan: stream.plan.unnest_as(col(&outer_var, &path), var),
                    bound: {
                        let mut b = stream.bound.clone();
                        b.push(var.to_string());
                        b
                    },
                    ids: stream.ids.clone(),
                };
                self.compile_bag(body, Some(s))
            }
            // Iterate the result of another bag expression: materialize it
            // first, then iterate it as a relation.
            (other, None) => {
                let lowered = self.compile_bag(other, None)?;
                let plan = self.finalize(lowered);
                let tmp = self.materialize("sub", plan);
                self.compile_for(var, &Expr::Var(tmp), body, stream)
            }
        }
    }

    fn compile_singleton(&mut self, inner: &Expr, stream: Option<Stream>) -> LowerResult<Lowered> {
        let mut stream = match stream {
            Some(s) => s,
            // A constant singleton bag: one empty row, no stream.
            None => Stream {
                plan: Plan::Unit,
                bound: Vec::new(),
                ids: Vec::new(),
            },
        };
        match inner {
            Expr::Tuple(fields) => {
                let mut attrs = Vec::with_capacity(fields.len());
                for (name, fe) in fields {
                    if self.is_bag_expr(fe) {
                        // Enter a new nesting level: materialize the stream
                        // with a fresh parent id so the child compilation and
                        // the regrouping join share one computation.
                        let id_attr = self.fresh("id");
                        let indexed = stream.plan.clone().add_index(id_attr.clone());
                        let mat = self.materialize("mat", indexed);
                        let base = Plan::scan(mat);
                        let parent = Stream {
                            plan: base.clone(),
                            bound: stream.bound.clone(),
                            ids: {
                                let mut ids = stream.ids.clone();
                                ids.push(id_attr.clone());
                                ids
                            },
                        };
                        let child = self.compile_bag(fe, Some(parent))?;
                        let (child_plan, child_attrs, _) = self.expect_flattened(child)?;
                        // Group the child rows by the parent id and hang
                        // each group under its parent as `name`.
                        stream.plan =
                            base.renest(child_plan, &id_attr, &id_attr, child_attrs, name);
                        attrs.push(name.clone());
                    } else {
                        let scalar = translate_scalar(fe, &stream.bound)?;
                        stream.plan = stream.plan.extend(vec![(name.clone(), scalar)]);
                        attrs.push(name.clone());
                    }
                }
                Ok(Lowered::Flattened {
                    plan: stream.plan,
                    attrs,
                    ids: stream.ids,
                })
            }
            other => {
                let scalar = translate_scalar(other, &stream.bound)?;
                Ok(Lowered::Flattened {
                    plan: stream.plan.extend(vec![("__value".to_string(), scalar)]),
                    attrs: vec!["__value".to_string()],
                    ids: stream.ids,
                })
            }
        }
    }

    fn is_bag_expr(&self, e: &Expr) -> bool {
        matches!(
            e,
            Expr::For { .. }
                | Expr::Union(..)
                | Expr::EmptyBag(_)
                | Expr::Singleton(_)
                | Expr::SumBy { .. }
                | Expr::GroupBy { .. }
                | Expr::Dedup(_)
                | Expr::If {
                    else_branch: None,
                    ..
                }
                | Expr::Let { .. }
        ) || matches!(e, Expr::Var(v) if self.resolve_input(v).is_some())
    }
}

// ---------------------------------------------------------------------------
// scalar translation: NRC scalar expressions -> plan scalar expressions
// ---------------------------------------------------------------------------

/// Translates an NRC scalar expression into a [`ScalarExpr`] over the
/// flattened stream's `var.field` columns.
fn translate_scalar(e: &Expr, bound: &[String]) -> LowerResult<ScalarExpr> {
    Ok(match e {
        Expr::Const(v) => ScalarExpr::constant(v.clone()),
        Expr::Proj { tuple, field } => {
            let (var, path) = projection_root(tuple, field)?;
            if !bound.contains(&var) {
                return Err(LowerError::new(format!(
                    "variable `{var}` is not bound in the current iteration context"
                )));
            }
            ScalarExpr::col(col(&var, &path))
        }
        Expr::Prim { op, left, right } => ScalarExpr::Prim {
            op: *op,
            left: Box::new(translate_scalar(left, bound)?),
            right: Box::new(translate_scalar(right, bound)?),
        },
        Expr::Cmp { op, left, right } => ScalarExpr::Cmp {
            op: *op,
            left: Box::new(translate_scalar(left, bound)?),
            right: Box::new(translate_scalar(right, bound)?),
        },
        Expr::And(a, b) => ScalarExpr::And(
            Box::new(translate_scalar(a, bound)?),
            Box::new(translate_scalar(b, bound)?),
        ),
        Expr::Or(a, b) => ScalarExpr::Or(
            Box::new(translate_scalar(a, bound)?),
            Box::new(translate_scalar(b, bound)?),
        ),
        Expr::Not(x) => ScalarExpr::Not(Box::new(translate_scalar(x, bound)?)),
        Expr::NewLabel { site, captures } => ScalarExpr::NewLabel {
            site: *site,
            captures: captures
                .iter()
                .map(|(n, c)| translate_scalar(c, bound).map(|c| (n.clone(), c)))
                .collect::<LowerResult<Vec<_>>>()?,
        },
        other => {
            return Err(LowerError::new(format!(
                "unsupported scalar expression in plan compilation: {other:?}"
            )))
        }
    })
}

/// Resolves a (possibly chained) projection to its root variable and the
/// dotted field path (e.g. `x.a` → (`x`, `a`)).
fn projection_root(tuple: &Expr, field: &str) -> LowerResult<(String, String)> {
    match tuple {
        Expr::Var(v) => Ok((v.clone(), field.to_string())),
        Expr::Proj {
            tuple: inner,
            field: f2,
        } => {
            let (v, p) = projection_root(inner, f2)?;
            Ok((v, format!("{p}.{field}")))
        }
        other => Err(LowerError::new(format!(
            "unsupported projection base: {other:?}"
        ))),
    }
}

/// Peels a leading `if` off a `for` body, returning the condition (Bool(true)
/// when absent) and the remaining body.
fn peel_condition(body: &Expr) -> (Expr, Expr) {
    match body {
        Expr::If {
            cond,
            then_branch,
            else_branch: None,
        } => (cond.as_ref().clone(), then_branch.as_ref().clone()),
        other => (Expr::Const(Value::Bool(true)), other.clone()),
    }
}

/// Splits a condition into equi-join keys between the stream (columns of
/// previously bound variables) and the newly introduced variable, plus a
/// residual predicate.
fn split_join_condition(
    cond: &Expr,
    stream: &Stream,
    new_var: &str,
) -> (Vec<String>, Vec<String>, Option<Expr>) {
    fn conjuncts(e: &Expr) -> Vec<Expr> {
        match e {
            Expr::And(a, b) => {
                let mut out = conjuncts(a);
                out.extend(conjuncts(b));
                out
            }
            other => vec![other.clone()],
        }
    }
    let mut left_keys = Vec::new();
    let mut right_keys = Vec::new();
    let mut residual = Vec::new();
    for c in conjuncts(cond) {
        if let Expr::Cmp {
            op: CmpOp::Eq,
            left,
            right,
        } = &c
        {
            let classify = |e: &Expr| -> Option<(String, String)> {
                if let Expr::Proj { tuple, field } = e {
                    if let Ok((v, p)) = projection_root(tuple, field) {
                        return Some((v, p));
                    }
                }
                None
            };
            if let (Some((lv, lp)), Some((rv, rp))) = (classify(left), classify(right)) {
                if lv == new_var && stream.bound.contains(&rv) {
                    left_keys.push(col(&rv, &rp));
                    right_keys.push(col(&lv, &lp));
                    continue;
                }
                if rv == new_var && stream.bound.contains(&lv) {
                    left_keys.push(col(&lv, &lp));
                    right_keys.push(col(&rv, &rp));
                    continue;
                }
            }
        }
        if matches!(c, Expr::Const(Value::Bool(true))) {
            continue;
        }
        residual.push(c);
    }
    let residual = residual
        .into_iter()
        .reduce(|a, b| Expr::And(Box::new(a), Box::new(b)));
    (left_keys, right_keys, residual)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::schema::AttrSchema;
    use trance_nrc::builder::*;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            "COP",
            AttrSchema::flat(["cname"]).with_nested(
                "corders",
                AttrSchema::flat(["odate"]).with_nested("oparts", AttrSchema::flat(["pid", "qty"])),
            ),
        );
        c.register("Part", AttrSchema::flat(["pid", "pname", "price"]));
        c
    }

    pub(crate) fn running_example() -> Expr {
        forin(
            "cop",
            var("COP"),
            singleton(tuple([
                ("cname", proj(var("cop"), "cname")),
                (
                    "corders",
                    forin(
                        "co",
                        proj(var("cop"), "corders"),
                        singleton(tuple([
                            ("odate", proj(var("co"), "odate")),
                            (
                                "oparts",
                                sum_by(
                                    forin(
                                        "op",
                                        proj(var("co"), "oparts"),
                                        forin(
                                            "p",
                                            var("Part"),
                                            ifthen(
                                                cmp_eq(
                                                    proj(var("op"), "pid"),
                                                    proj(var("p"), "pid"),
                                                ),
                                                singleton(tuple([
                                                    ("pname", proj(var("p"), "pname")),
                                                    (
                                                        "total",
                                                        mul(
                                                            proj(var("op"), "qty"),
                                                            proj(var("p"), "price"),
                                                        ),
                                                    ),
                                                ])),
                                            ),
                                        ),
                                    ),
                                    &["pname"],
                                    &["total"],
                                ),
                            ),
                        ])),
                    ),
                ),
            ])),
        )
    }

    #[test]
    fn running_example_lowering_has_figure3_shape() {
        let program = lower(&running_example(), &catalog()).unwrap();
        // Two nesting levels in the output → two materialization points.
        assert_eq!(program.assignments.len(), 2);
        let all_ops = |pred: &dyn Fn(&Plan) -> bool| -> usize {
            program
                .assignments
                .iter()
                .map(|a| a.plan.count(pred))
                .sum::<usize>()
                + program.root.count(pred)
        };
        // Two unnests (corders, oparts), one value join (Part) and two
        // re-nesting joins, one Γ+ and two Γ⊎.
        assert_eq!(all_ops(&|p| matches!(p, Plan::Unnest { .. })), 2);
        assert_eq!(all_ops(&|p| matches!(p, Plan::Join { .. })), 3);
        assert_eq!(
            all_ops(&|p| matches!(
                p,
                Plan::Nest {
                    op: NestOp::Sum,
                    ..
                }
            )),
            1
        );
        assert_eq!(
            all_ops(&|p| matches!(
                p,
                Plan::Nest {
                    op: NestOp::Bag { .. },
                    ..
                }
            )),
            2
        );
        // The root names the output attributes.
        match &program.root {
            Plan::Project { columns, .. } => {
                let names: Vec<&str> = columns.iter().map(|(n, _)| n.as_str()).collect();
                assert_eq!(names, vec!["cname", "corders"]);
            }
            other => panic!("root must be a projection, got {other:?}"),
        }
    }

    #[test]
    fn correlated_iteration_becomes_an_equi_join() {
        let q = forin(
            "l",
            var("Lineitem"),
            forin(
                "p",
                var("Part"),
                ifthen(
                    cmp_eq(proj(var("l"), "pid"), proj(var("p"), "pid")),
                    singleton(tuple([("pname", proj(var("p"), "pname"))])),
                ),
            ),
        );
        let mut c = catalog();
        c.register("Lineitem", AttrSchema::flat(["pid", "qty"]));
        let program = lower(&q, &c).unwrap();
        let mut join_keys = None;
        program.root.visit(&mut |p| {
            if let Plan::Join {
                left_key,
                right_key,
                ..
            } = p
            {
                join_keys = Some((left_key.clone(), right_key.clone()));
            }
        });
        let (lk, rk) = join_keys.expect("a join must be emitted");
        assert_eq!(lk, vec!["l.pid".to_string()]);
        assert_eq!(rk, vec!["p.pid".to_string()]);
    }

    #[test]
    fn uncorrelated_iteration_becomes_a_cross_join() {
        let q = forin(
            "a",
            var("Part"),
            forin(
                "b",
                var("Part"),
                singleton(tuple([("x", proj(var("a"), "pid"))])),
            ),
        );
        let program = lower(&q, &catalog()).unwrap();
        let mut cross = false;
        program.root.visit(&mut |p| {
            if let Plan::Join { left_key, .. } = p {
                cross = left_key.is_empty();
            }
        });
        assert!(cross, "{}", crate::plan::pretty_plan(&program.root));
    }

    #[test]
    fn let_bindings_become_assignments() {
        let q = Expr::Let {
            var: "Tmp".into(),
            value: Box::new(forin(
                "p",
                var("Part"),
                singleton(tuple([("pid", proj(var("p"), "pid"))])),
            )),
            body: Box::new(forin(
                "t",
                var("Tmp"),
                singleton(tuple([("pid", proj(var("t"), "pid"))])),
            )),
        };
        let program = lower(&q, &catalog()).unwrap();
        assert_eq!(program.assignments.len(), 1);
        // Let bindings materialize under a freshened name (so shadowed or
        // sibling bindings of the same variable never collide) and scans of
        // the variable resolve to it.
        let mat = &program.assignments[0].name;
        assert!(mat.contains("Tmp"), "{mat}");
        assert!(program.root.scanned_inputs().contains(mat));
    }

    #[test]
    fn shadowed_let_bindings_resolve_lexically() {
        // let X = π(Part) in (for t in (let X = π'(Part) in X-scan) ...) ∪
        // (for t in X ...): the second branch must read the OUTER binding.
        let inner = Expr::Let {
            var: "X".into(),
            value: Box::new(forin(
                "p",
                var("Part"),
                singleton(tuple([("u", proj(var("p"), "pname"))])),
            )),
            body: Box::new(forin(
                "t",
                var("X"),
                singleton(tuple([("u", proj(var("t"), "u"))])),
            )),
        };
        let outer_use = forin(
            "t",
            var("X"),
            singleton(tuple([("u", proj(var("t"), "u"))])),
        );
        let q = Expr::Let {
            var: "X".into(),
            value: Box::new(forin(
                "p",
                var("Part"),
                singleton(tuple([("u", proj(var("p"), "pid"))])),
            )),
            body: Box::new(Expr::Union(Box::new(inner), Box::new(outer_use))),
        };
        let program = lower(&q, &catalog()).unwrap();
        assert_eq!(program.assignments.len(), 2);
        let outer_name = program.assignments[0].name.clone();
        let inner_name = program.assignments[1].name.clone();
        assert_ne!(outer_name, inner_name);
        // The union's right branch scans the outer materialization, the left
        // branch the inner one.
        match &program.root {
            Plan::Project { input, .. } => match input.as_ref() {
                Plan::Union { left, right } => {
                    assert!(left.scanned_inputs().contains(&inner_name));
                    assert!(right.scanned_inputs().contains(&outer_name));
                }
                other => panic!("expected a union below the root, got {other:?}"),
            },
            other => panic!("expected a root projection, got {other:?}"),
        }
    }

    #[test]
    fn unsupported_expressions_are_rejected() {
        let q = Expr::If {
            cond: Box::new(cmp_eq(proj(var("x"), "a"), proj(var("x"), "b"))),
            then_branch: Box::new(var("Part")),
            else_branch: Some(Box::new(var("Part"))),
        };
        assert!(lower(&q, &catalog()).is_err());
        assert!(lower(&var("NoSuchInput"), &catalog()).is_err());
    }
}
