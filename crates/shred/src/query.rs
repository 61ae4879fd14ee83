//! Query shredding (Section 4, Figures 4 and 5).
//!
//! The transformation takes an NRC query over nested inputs and produces a
//! *shredded program*: a sequence of **flat** NRC assignments that compute
//! (a) one materialized dictionary per output nesting level and (b) the flat
//! top-level bag, all over the shredded (flat) representations of the inputs.
//!
//! Compared to the paper's presentation the implementation folds the symbolic
//! phase and the materialization phase into one pass and emits dictionaries in
//! their *relational* representation (a flat bag with a `label` column — the
//! representation the paper's own implementation uses for code generation).
//! The two domain-elimination rules of Section 4 appear here as *capture
//! analysis* on each dictionary definition:
//!
//! * **label passthrough** (rule 1): when an inner bag expression only
//!   navigates a nested attribute of the input, the output dictionary is
//!   computed directly from the corresponding input dictionary and the output
//!   labels are the input labels;
//! * **source grouping** (rule 2): when an inner bag expression filters a flat
//!   source by equality with an outer attribute, the output dictionary is
//!   computed directly from that source and labels are built from the join
//!   attribute;
//!
//! so no label-domain enumeration is ever materialized.

use std::collections::BTreeMap;

use trance_nrc::builder as b;
use trance_nrc::{CmpOp, Expr, NrcError, Program, Result};

use crate::repr::{NestingStructure, SiteAllocator};

/// Naming convention for the flat part of a shredded input.
pub fn flat_input_name(input: &str) -> String {
    format!("{input}__F")
}

/// Naming convention for the dictionary of `path` of a shredded input.
pub fn input_dict_name(input: &str, path: &str) -> String {
    format!("{input}__D_{path}")
}

/// Naming convention for an output dictionary assignment.
pub fn output_dict_name(path: &str) -> String {
    format!("MatDict_{path}")
}

/// Name of the assignment computing the flat top-level output bag.
pub const TOP_BAG: &str = "TopBag";

/// Description of one shredded (nested) input relation.
#[derive(Debug, Clone)]
pub struct ShreddedInputDecl {
    /// Original input name (e.g. `COP`).
    pub name: String,
    /// Nesting structure of the input's type.
    pub structure: NestingStructure,
}

impl ShreddedInputDecl {
    /// Declares an input with the given nesting structure. Flat inputs use
    /// [`NestingStructure::flat`].
    pub fn new(name: impl Into<String>, structure: NestingStructure) -> Self {
        ShreddedInputDecl {
            name: name.into(),
            structure,
        }
    }
}

/// A handle to a materialized dictionary variable and the handles of its
/// children.
#[derive(Debug, Clone, Default)]
struct DictHandle {
    var: String,
    children: BTreeMap<String, DictHandle>,
}

impl DictHandle {
    fn from_structure(
        input: &str,
        prefix: &str,
        s: &NestingStructure,
    ) -> BTreeMap<String, DictHandle> {
        let mut out = BTreeMap::new();
        for (attr, child) in &s.children {
            let path = if prefix.is_empty() {
                attr.clone()
            } else {
                format!("{prefix}_{attr}")
            };
            out.insert(
                attr.clone(),
                DictHandle {
                    var: input_dict_name(input, &path),
                    children: DictHandle::from_structure(input, &path, child),
                },
            );
        }
        out
    }
}

/// What a variable in scope denotes during shredding.
#[derive(Debug, Clone)]
enum VarInfo {
    /// A row of a flat (shredded) bag; bag attributes appear as labels whose
    /// dictionaries are given by the handles.
    Row(BTreeMap<String, DictHandle>),
    /// A whole flat bag (a `let`-bound bag or an input).
    Bag(BTreeMap<String, DictHandle>),
}

type Env = BTreeMap<String, VarInfo>;

/// The result of shredding a query.
#[derive(Debug, Clone)]
pub struct ShreddedQuery {
    /// The flat program: one assignment per output dictionary followed by the
    /// [`TOP_BAG`] assignment.
    pub program: Program,
    /// The nesting structure of the (nested) output, mapping output bag
    /// attributes to dictionary paths.
    pub structure: NestingStructure,
    /// Maps each output dictionary path to the name of its assignment.
    pub dict_names: BTreeMap<String, String>,
}

impl ShreddedQuery {
    /// Names of the shredded input variables the program expects to be bound:
    /// `X__F` and `X__D_<path>` for every declared nested input, plus any flat
    /// inputs referenced directly.
    pub fn input_names(&self) -> Vec<String> {
        self.program.input_names()
    }
}

struct ShredState {
    inputs: BTreeMap<String, ShreddedInputDecl>,
    sites: SiteAllocator,
    defs: Vec<(String, Expr)>,
    dict_names: BTreeMap<String, String>,
    structure_root: NestingStructure,
}

/// Shreds a query over the declared nested inputs into a flat program.
pub fn shred_query(query: &Expr, inputs: &[ShreddedInputDecl]) -> Result<ShreddedQuery> {
    let mut st = ShredState {
        inputs: inputs.iter().map(|d| (d.name.clone(), d.clone())).collect(),
        sites: SiteAllocator::new(),
        defs: Vec::new(),
        dict_names: BTreeMap::new(),
        structure_root: NestingStructure::flat(),
    };
    let env = Env::new();
    let (top, row_ctx) = shred_bag(query, &env, &mut st, "")?;
    // Record the output structure from the top-level row context.
    st.structure_root = structure_from_handles(&row_ctx);

    let mut program = Program::new();
    for (path, expr) in &st.defs {
        program.assign(output_dict_name(path), expr.clone());
    }
    program.assign(TOP_BAG, top);
    Ok(ShreddedQuery {
        program,
        structure: st.structure_root,
        dict_names: st.dict_names,
    })
}

fn structure_from_handles(handles: &BTreeMap<String, DictHandle>) -> NestingStructure {
    let mut s = NestingStructure::flat();
    for (attr, h) in handles {
        s.children
            .insert(attr.clone(), structure_from_handles(&h.children));
    }
    s
}

/// Shreds a bag-typed expression, returning the flat expression together with
/// the dictionary handles for the bag attributes of its rows.
fn shred_bag(
    e: &Expr,
    env: &Env,
    st: &mut ShredState,
    out_path: &str,
) -> Result<(Expr, BTreeMap<String, DictHandle>)> {
    match e {
        Expr::Var(name) => {
            if let Some(decl) = st.inputs.get(name) {
                let handles = DictHandle::from_structure(&decl.name, "", &decl.structure);
                return Ok((b::var(flat_input_name(name)), handles));
            }
            match env.get(name) {
                Some(VarInfo::Bag(handles)) => Ok((b::var(name.clone()), handles.clone())),
                _ => Ok((b::var(name.clone()), BTreeMap::new())),
            }
        }
        Expr::EmptyBag(t) => Ok((Expr::EmptyBag(t.clone()), BTreeMap::new())),
        Expr::For { var, source, body } => {
            let (src, row_ctx, guard) = shred_for_source(source, env, st)?;
            let mut inner_env = env.clone();
            inner_env.insert(var.clone(), VarInfo::Row(row_ctx));
            let (body_f, body_row) = shred_bag(body, &inner_env, st, out_path)?;
            let body_f = match guard {
                Some(g) => {
                    let g = g.substitute("__ROWVAR__", &b::var(var.clone()));
                    b::ifthen(g, body_f)
                }
                None => body_f,
            };
            Ok((b::forin(var.clone(), src, body_f), body_row))
        }
        Expr::Union(a, bq) => {
            let (fa, ra) = shred_bag(a, env, st, out_path)?;
            let (fb, rb) = shred_bag(bq, env, st, out_path)?;
            let mut merged = ra.clone();
            for (k, v) in rb {
                merged.entry(k).or_insert(v);
            }
            Ok((b::union(fa, fb), merged))
        }
        Expr::Let { var, value, body } => {
            let (vf, vrow) = shred_bag(value, env, st, out_path)?;
            let mut inner = env.clone();
            inner.insert(var.clone(), VarInfo::Bag(vrow));
            let (bf, brow) = shred_bag(body, &inner, st, out_path)?;
            Ok((b::letin(var.clone(), vf, bf), brow))
        }
        Expr::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let (tf, trow) = shred_bag(then_branch, env, st, out_path)?;
            match else_branch {
                None => Ok((b::ifthen(shred_scalar(cond), tf), trow)),
                Some(eb) => {
                    let (ef, _) = shred_bag(eb, env, st, out_path)?;
                    Ok((b::ifelse(shred_scalar(cond), tf, ef), trow))
                }
            }
        }
        Expr::Singleton(inner) => match inner.as_ref() {
            Expr::Tuple(fields) => {
                let mut flat_fields: Vec<(String, Expr)> = Vec::with_capacity(fields.len());
                let mut handles = BTreeMap::new();
                for (name, fe) in fields {
                    if is_bag_expr(fe, env, st) {
                        let path = if out_path.is_empty() {
                            name.clone()
                        } else {
                            format!("{out_path}_{name}")
                        };
                        let (label_expr, handle) = shred_inner_bag(fe, env, st, &path)?;
                        flat_fields.push((name.clone(), label_expr));
                        handles.insert(name.clone(), handle);
                    } else {
                        flat_fields.push((name.clone(), shred_scalar(fe)));
                    }
                }
                Ok((b::singleton(Expr::Tuple(flat_fields)), handles))
            }
            other => Ok((b::singleton(shred_scalar(other)), BTreeMap::new())),
        },
        Expr::SumBy { input, key, values } => {
            let (inf, _) = shred_bag(input, env, st, out_path)?;
            Ok((
                Expr::SumBy {
                    input: Box::new(inf),
                    key: key.clone(),
                    values: values.clone(),
                },
                BTreeMap::new(),
            ))
        }
        Expr::GroupBy {
            input,
            key,
            group_attr,
        } => {
            // The grouped attribute stays as an inline (flat) bag inside the
            // dictionary row; it is not shredded further.
            let (inf, _) = shred_bag(input, env, st, out_path)?;
            Ok((
                Expr::GroupBy {
                    input: Box::new(inf),
                    key: key.clone(),
                    group_attr: group_attr.clone(),
                },
                BTreeMap::new(),
            ))
        }
        Expr::Dedup(inner) => {
            let (inf, row) = shred_bag(inner, env, st, out_path)?;
            Ok((b::dedup(inf), row))
        }
        Expr::Proj { tuple, field } => {
            // A bag-valued projection used directly as a bag: turn it into an
            // explicit iteration so the label-equality join appears.
            if let Expr::Var(x) = tuple.as_ref() {
                if let Some(VarInfo::Row(handles)) = env.get(x) {
                    if let Some(h) = handles.get(field) {
                        let fresh = format!("__{x}_{field}_row");
                        let guard = b::cmp_eq(
                            b::proj(b::var(fresh.clone()), "label"),
                            b::proj(b::var(x.clone()), field.clone()),
                        );
                        return Ok((
                            b::forin(
                                fresh.clone(),
                                b::var(h.var.clone()),
                                b::ifthen(guard, b::singleton(b::var(fresh))),
                            ),
                            h.children.clone(),
                        ));
                    }
                }
            }
            Ok((e.clone(), BTreeMap::new()))
        }
        other => Err(NrcError::Other(format!(
            "query shredding does not support this bag expression shape: {other:?}"
        ))),
    }
}

/// Shreds the source of a `for` loop. Returns the flat source expression, the
/// row context of the bound variable, and an optional guard predicate (using
/// the placeholder variable `__ROWVAR__` for the bound row) that must be
/// applied to each row — used when navigating an inner bag turns into a
/// label-equality join against a dictionary.
fn shred_for_source(
    source: &Expr,
    env: &Env,
    st: &mut ShredState,
) -> Result<(Expr, BTreeMap<String, DictHandle>, Option<Expr>)> {
    match source {
        Expr::Proj { tuple, field } => {
            if let Expr::Var(x) = tuple.as_ref() {
                if let Some(VarInfo::Row(handles)) = env.get(x) {
                    if let Some(h) = handles.get(field) {
                        let guard = b::cmp_eq(
                            b::proj(b::var("__ROWVAR__"), "label"),
                            b::proj(b::var(x.clone()), field.clone()),
                        );
                        return Ok((b::var(h.var.clone()), h.children.clone(), Some(guard)));
                    }
                }
            }
            Err(NrcError::Other(format!(
                "cannot shred iteration over projection {source:?}"
            )))
        }
        other => {
            let (f, row) = shred_bag(other, env, &mut *st, "")?;
            Ok((f, row, None))
        }
    }
}

/// Scalars pass through unchanged: shredded rows keep the same scalar
/// attributes, and bag attributes referenced inside scalar expressions do not
/// occur in well-typed NRC.
fn shred_scalar(e: &Expr) -> Expr {
    e.clone()
}

/// True when `e` denotes a bag in the current context.
fn is_bag_expr(e: &Expr, env: &Env, st: &ShredState) -> bool {
    match e {
        Expr::For { .. }
        | Expr::Union(..)
        | Expr::EmptyBag(_)
        | Expr::Singleton(_)
        | Expr::SumBy { .. }
        | Expr::GroupBy { .. }
        | Expr::Dedup(_) => true,
        Expr::If {
            then_branch,
            else_branch,
            ..
        } => {
            is_bag_expr(then_branch, env, st)
                || else_branch
                    .as_ref()
                    .map(|e| is_bag_expr(e, env, st))
                    .unwrap_or(true)
        }
        Expr::Let { body, .. } => is_bag_expr(body, env, st),
        Expr::Var(v) => st.inputs.contains_key(v) || matches!(env.get(v), Some(VarInfo::Bag(_))),
        Expr::Proj { tuple, field } => {
            if let Expr::Var(x) = tuple.as_ref() {
                if let Some(VarInfo::Row(handles)) = env.get(x) {
                    return handles.contains_key(field);
                }
            }
            false
        }
        _ => false,
    }
}

/// Shreds an inner bag expression occurring as a bag-valued attribute of a
/// tuple constructor. Emits the dictionary definition(s) for `path` and
/// returns the label expression to store in the flat tuple, plus the handle
/// describing the produced dictionary.
fn shred_inner_bag(
    fe: &Expr,
    env: &Env,
    st: &mut ShredState,
    path: &str,
) -> Result<(Expr, DictHandle)> {
    // Peel aggregate/dedup wrappers; they are re-applied around the dictionary
    // definition with `label` added to the grouping key.
    let (wrapper, core) = match fe {
        Expr::SumBy { input, key, values } => (
            Wrapper::SumBy {
                key: key.clone(),
                values: values.clone(),
            },
            input.as_ref(),
        ),
        Expr::GroupBy {
            input,
            key,
            group_attr,
        } => (
            Wrapper::GroupBy {
                key: key.clone(),
                group_attr: group_attr.clone(),
            },
            input.as_ref(),
        ),
        Expr::Dedup(input) => (Wrapper::Dedup, input.as_ref()),
        other => (Wrapper::None, other),
    };

    // Case C: a nested attribute passed through unchanged.
    if let Expr::Proj { tuple, field } = core {
        if let Expr::Var(x) = tuple.as_ref() {
            if let Some(VarInfo::Row(handles)) = env.get(x) {
                if let Some(h) = handles.get(field) {
                    if matches!(wrapper, Wrapper::None) {
                        let handle = alias_dictionary(h, st, path)?;
                        return Ok((b::proj(b::var(x.clone()), field.clone()), handle));
                    }
                }
            }
        }
    }

    // The remaining cases need a `for` loop at the core.
    let (var, source, body) = match core {
        Expr::For { var, source, body } => (var.clone(), source.as_ref(), body.as_ref()),
        other => {
            return Err(NrcError::Other(format!(
                "unsupported inner bag expression for shredding at path `{path}`: {other:?}"
            )))
        }
    };

    // Case A — label passthrough (domain-elimination rule 1): the loop
    // navigates a nested attribute `x.a` of the enclosing level.
    if let Expr::Proj { tuple, field } = source {
        if let Expr::Var(x) = tuple.as_ref() {
            if let Some(VarInfo::Row(handles)) = env.get(x) {
                if let Some(h) = handles.get(field).cloned() {
                    let label_expr = b::proj(b::var(x.clone()), field.clone());
                    let mut inner_env = env.clone();
                    inner_env.insert(var.clone(), VarInfo::Row(h.children.clone()));
                    let (body_f, body_row) = shred_bag(body, &inner_env, st, path)?;
                    let labelled =
                        add_label_to_outputs(&body_f, &b::proj(b::var(var.clone()), "label"));
                    let def_core = b::forin(var.clone(), b::var(h.var.clone()), labelled);
                    let def = apply_wrapper(def_core, &wrapper);
                    let handle = register_def(st, path, def, &body_row, &wrapper);
                    return Ok((label_expr, handle));
                }
            }
        }
    }

    // Case B — source grouping (domain-elimination rule 2): the loop ranges
    // over a flat source and the body filters it by equality with an
    // expression over the enclosing level.
    if let Expr::If {
        cond,
        then_branch,
        else_branch: None,
    } = body
    {
        if let Some((outer_expr, inner_expr, residual)) = split_correlation(cond, env, &var) {
            let site = st.sites.fresh();
            let label_expr = Expr::NewLabel {
                site,
                captures: vec![("k".to_string(), outer_expr)],
            };
            let (src_f, src_row, guard) = shred_for_source(source, env, st)?;
            let mut inner_env = env.clone();
            inner_env.insert(var.clone(), VarInfo::Row(src_row));
            let (then_f, body_row) = shred_bag(then_branch, &inner_env, st, path)?;
            let label_for_def = Expr::NewLabel {
                site,
                captures: vec![("k".to_string(), inner_expr)],
            };
            let labelled = add_label_to_outputs(&then_f, &label_for_def);
            let mut def_body = labelled;
            if let Some(res) = residual {
                def_body = b::ifthen(res, def_body);
            }
            if let Some(g) = guard {
                let g = g.substitute("__ROWVAR__", &b::var(var.clone()));
                def_body = b::ifthen(g, def_body);
            }
            let def_core = b::forin(var.clone(), src_f, def_body);
            let def = apply_wrapper(def_core, &wrapper);
            let handle = register_def(st, path, def, &body_row, &wrapper);
            return Ok((label_expr, handle));
        }
    }

    Err(NrcError::Other(format!(
        "inner bag at path `{path}` does not match a shreddable pattern \
         (navigate-parent or correlated-filter); rewrite the query or use the standard pipeline"
    )))
}

/// Registers a dictionary definition and builds its handle.
fn register_def(
    st: &mut ShredState,
    path: &str,
    def: Expr,
    body_row: &BTreeMap<String, DictHandle>,
    wrapper: &impl WrapperInfo,
) -> DictHandle {
    st.defs.push((path.to_string(), def));
    st.dict_names
        .insert(path.to_string(), output_dict_name(path));
    DictHandle {
        var: output_dict_name(path),
        children: if wrapper.flattens() {
            BTreeMap::new()
        } else {
            body_row.clone()
        },
    }
}

/// Helper trait so [`register_def`] can ask whether a wrapper discards nested
/// attributes (aggregates produce flat rows).
trait WrapperInfo {
    /// True when the wrapper's output rows are flat.
    fn flattens(&self) -> bool;
}

/// Creates alias assignments `MatDict_path ⇐ <input dict var>` for a nested
/// attribute passed through unchanged, recursively for its descendants.
fn alias_dictionary(h: &DictHandle, st: &mut ShredState, path: &str) -> Result<DictHandle> {
    st.defs.push((path.to_string(), b::var(h.var.clone())));
    st.dict_names
        .insert(path.to_string(), output_dict_name(path));
    let mut children = BTreeMap::new();
    for (attr, child) in &h.children {
        let child_path = format!("{path}_{attr}");
        children.insert(attr.clone(), alias_dictionary(child, st, &child_path)?);
    }
    Ok(DictHandle {
        var: output_dict_name(path),
        children,
    })
}

/// Splits a correlation condition into `(outer expression, inner expression,
/// residual condition)`: one equality conjunct must compare an expression that
/// does not mention the loop variable with one that only mentions it.
fn split_correlation(cond: &Expr, env: &Env, loop_var: &str) -> Option<(Expr, Expr, Option<Expr>)> {
    let conjuncts = flatten_conjuncts(cond);
    let mut outer_inner: Option<(Expr, Expr)> = None;
    let mut residual: Vec<Expr> = Vec::new();
    for c in conjuncts {
        if outer_inner.is_none() {
            if let Expr::Cmp {
                op: CmpOp::Eq,
                left,
                right,
            } = &c
            {
                let l_uses = left.free_vars().contains(loop_var);
                let r_uses = right.free_vars().contains(loop_var);
                let l_outer = left
                    .free_vars()
                    .iter()
                    .all(|v| v != loop_var && env.contains_key(v));
                let r_outer = right
                    .free_vars()
                    .iter()
                    .all(|v| v != loop_var && env.contains_key(v));
                if r_uses && !l_uses && l_outer {
                    outer_inner = Some((left.as_ref().clone(), right.as_ref().clone()));
                    continue;
                }
                if l_uses && !r_uses && r_outer {
                    outer_inner = Some((right.as_ref().clone(), left.as_ref().clone()));
                    continue;
                }
            }
        }
        residual.push(c);
    }
    let (outer, inner) = outer_inner?;
    let residual = residual.into_iter().reduce(b::and);
    Some((outer, inner, residual))
}

fn flatten_conjuncts(cond: &Expr) -> Vec<Expr> {
    match cond {
        Expr::And(a, b) => {
            let mut out = flatten_conjuncts(a);
            out.extend(flatten_conjuncts(b));
            out
        }
        other => vec![other.clone()],
    }
}

/// Adds a `label := <label_expr>` attribute to every tuple produced in tail
/// position of a bag expression.
fn add_label_to_outputs(e: &Expr, label_expr: &Expr) -> Expr {
    match e {
        Expr::Singleton(inner) => match inner.as_ref() {
            Expr::Tuple(fields) => {
                let mut fields = fields.clone();
                fields.insert(0, ("label".to_string(), label_expr.clone()));
                b::singleton(Expr::Tuple(fields))
            }
            other => b::singleton(Expr::Tuple(vec![
                ("label".to_string(), label_expr.clone()),
                ("value".to_string(), other.clone()),
            ])),
        },
        Expr::For { var, source, body } => b::forin(
            var.clone(),
            source.as_ref().clone(),
            add_label_to_outputs(body, label_expr),
        ),
        Expr::If {
            cond,
            then_branch,
            else_branch,
        } => match else_branch {
            None => b::ifthen(
                cond.as_ref().clone(),
                add_label_to_outputs(then_branch, label_expr),
            ),
            Some(eb) => b::ifelse(
                cond.as_ref().clone(),
                add_label_to_outputs(then_branch, label_expr),
                add_label_to_outputs(eb, label_expr),
            ),
        },
        Expr::Union(a, bx) => b::union(
            add_label_to_outputs(a, label_expr),
            add_label_to_outputs(bx, label_expr),
        ),
        Expr::Let { var, value, body } => b::letin(
            var.clone(),
            value.as_ref().clone(),
            add_label_to_outputs(body, label_expr),
        ),
        Expr::SumBy { input, key, values } => {
            let mut key = key.clone();
            key.insert(0, "label".to_string());
            Expr::SumBy {
                input: Box::new(add_label_to_outputs(input, label_expr)),
                key,
                values: values.clone(),
            }
        }
        Expr::GroupBy {
            input,
            key,
            group_attr,
        } => {
            let mut key = key.clone();
            key.insert(0, "label".to_string());
            Expr::GroupBy {
                input: Box::new(add_label_to_outputs(input, label_expr)),
                key,
                group_attr: group_attr.clone(),
            }
        }
        Expr::Dedup(inner) => b::dedup(add_label_to_outputs(inner, label_expr)),
        other => other.clone(),
    }
}

/// Re-applies a peeled aggregate/dedup wrapper around a dictionary definition,
/// extending its key with `label`.
fn apply_wrapper(def: Expr, wrapper: &Wrapper) -> Expr {
    match wrapper {
        Wrapper::None => def,
        Wrapper::SumBy { key, values } => {
            let mut key = key.clone();
            key.insert(0, "label".to_string());
            Expr::SumBy {
                input: Box::new(def),
                key,
                values: values.clone(),
            }
        }
        Wrapper::GroupBy { key, group_attr } => {
            let mut key = key.clone();
            key.insert(0, "label".to_string());
            Expr::GroupBy {
                input: Box::new(def),
                key,
                group_attr: group_attr.clone(),
            }
        }
        Wrapper::Dedup => b::dedup(def),
    }
}

/// Wrapper kinds peeled from inner bag expressions. Public only to the module.
enum Wrapper {
    /// No wrapper.
    None,
    /// A `sumBy` aggregate.
    SumBy {
        /// Grouping attributes.
        key: Vec<String>,
        /// Summed attributes.
        values: Vec<String>,
    },
    /// A `groupBy`.
    GroupBy {
        /// Grouping attributes.
        key: Vec<String>,
        /// Name of the produced group attribute.
        group_attr: String,
    },
    /// A `dedup`.
    Dedup,
}

impl WrapperInfo for Wrapper {
    fn flattens(&self) -> bool {
        matches!(self, Wrapper::SumBy { .. } | Wrapper::GroupBy { .. })
    }
}
