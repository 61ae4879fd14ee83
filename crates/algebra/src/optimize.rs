//! Plan optimizations (Section 3, "Optimization").
//!
//! This module is the single place optimization lives: the compiler lowers
//! NRC to a [`Plan`] program, runs [`optimize`] on every plan, and hands the
//! optimized trees to the physical executor. Four rewrite families are
//! implemented, matching the ones the paper calls out as applied by the
//! framework and usually overlooked by hand-written distributed programs:
//!
//! 1. **Selection pushdown** — `σ` moves below projections, extensions and
//!    into the join side that supplies all of the predicate's columns.
//! 2. **Column pruning** — a top-down liveness pass: every node is handed
//!    the attributes its ancestors read and derives what it reads of its
//!    children from its own operands (a `Γ` reads its key and values, a join
//!    side what is read above plus its key, `Dedup`/`Union` whole rows).
//!    Pass-through projections (`Prune` in EXPLAIN) keep the live attributes
//!    where attributes enter the stream — above scans and above unnests,
//!    which drops unused attributes of nested bag elements — and directly
//!    below every breaker input that still carries a dead one, so a join or
//!    `Γ` ships only what is read afterwards; extension and projection
//!    outputs nobody reads are dropped with their operands. (This is the
//!    "narrow" benefit the benchmark's narrow/wide split measures: without
//!    it the flattening route drags every parent attribute through the
//!    joins and nests of the levels below.) Liveness stops at plan roots
//!    that do not name their output: a materialized assignment keeps every
//!    attribute, whatever its consumers scan.
//! 3. **Aggregation pushdown** — a summing nest `Γ+` above a join computes
//!    partial sums below the join when all summed attributes come from the
//!    left input and the grouping key covers the join key (the partial-sum
//!    example discussed with Figure 3).
//! 4. **Join strategy selection** — every [`Plan::Join`] is annotated with a
//!    physical strategy: `Broadcast`/`Shuffle` when the catalog's size
//!    information proves the choice, and `Auto` (runtime size check)
//!    otherwise. Skew-aware runs get the same plans: skew handling is how
//!    the executor runs a join, not an annotation.
//! 5. **Grouping placement** — a `Γ` may hash its shuffle by any non-empty
//!    subset of its key, so every [`Plan::Nest`] is annotated with the
//!    `place_by` that puts its output where the next breaker up needs it:
//!    the join key of the side it feeds, or what the grouping above is
//!    itself placed by. The engine then finds that breaker's input in place
//!    and does not shuffle it ([`crate::placement`]). This is an annotation,
//!    not a rewrite.
//!
//! No rewrite has a switch: every plan gets all of them.
//! [`OptimizerConfig`] carries only what the optimizer knows of the engine,
//! its broadcast limit.

use std::collections::BTreeSet;

use crate::pipelines::is_row_local;
use crate::placement::carried_column;
use crate::plan::{is_passthrough, JoinStrategy, NestOp, Plan, PlanJoinKind};
use crate::scalar::ScalarExpr;
use crate::schema::{node_schema, output_schema, AttrSchema, Catalog};

/// What [`optimize`] knows of the engine it plans for. Every rewrite always
/// runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptimizerConfig {
    /// The engine's broadcast limit in bytes; required for provable
    /// `Broadcast`/`Shuffle` annotations (without it joins stay `Auto`).
    pub broadcast_limit: Option<usize>,
}

/// Applies the rewrites until a fixpoint (bounded by a small number of
/// passes; each rule is individually terminating).
pub fn optimize(plan: &Plan, catalog: &Catalog, config: &OptimizerConfig) -> Plan {
    let mut current = plan.clone();
    for _ in 0..4 {
        let next = push_selections(&current, catalog);
        let next = push_aggregation(&next, catalog);
        let next = prune_columns(&next, catalog);
        let next = collapse_projections(&next);
        if next == current {
            break;
        }
        current = next;
    }
    current = select_join_strategies(&current, catalog, config);
    place_groupings(&current, &Wanted::dictionary_output())
}

/// Applies [`optimize`] with the default configuration.
pub fn optimize_default(plan: &Plan, catalog: &Catalog) -> Plan {
    optimize(plan, catalog, &OptimizerConfig::default())
}

// ---------------------------------------------------------------------------
// selection pushdown
// ---------------------------------------------------------------------------

fn push_selections(plan: &Plan, catalog: &Catalog) -> Plan {
    let rebuilt = map_children(plan, |c| push_selections(c, catalog));
    if let Plan::Select { input, predicate } = &rebuilt {
        let cols: Vec<String> = predicate.referenced_columns().into_iter().collect();
        match input.as_ref() {
            // σ over π: swap when every referenced column is a pass-through of
            // the projection.
            Plan::Project {
                input: proj_in,
                columns,
            } => {
                let passthrough = cols.iter().all(|c| {
                    columns
                        .iter()
                        .any(|(n, e)| n == c && *e == ScalarExpr::col(c.clone()))
                });
                if passthrough {
                    return Plan::Project {
                        input: Box::new(push_selections(
                            &Plan::Select {
                                input: proj_in.clone(),
                                predicate: predicate.clone(),
                            },
                            catalog,
                        )),
                        columns: columns.clone(),
                    };
                }
            }
            // σ over an extension: swap when the predicate does not touch any
            // column the extension computes.
            Plan::Extend {
                input: ext_in,
                columns,
            } => {
                let independent = cols.iter().all(|c| !columns.iter().any(|(n, _)| n == c));
                if independent {
                    return Plan::Extend {
                        input: Box::new(push_selections(
                            &Plan::Select {
                                input: ext_in.clone(),
                                predicate: predicate.clone(),
                            },
                            catalog,
                        )),
                        columns: columns.clone(),
                    };
                }
            }
            // σ over ⋈: push into the side that supplies every column.
            Plan::Join {
                left,
                right,
                left_key,
                right_key,
                kind,
                strategy,
            } => {
                let left_schema = output_schema(left, catalog);
                let right_schema = output_schema(right, catalog);
                // A re-nesting join replaces the left side's `attr`.
                let from_left = match kind {
                    PlanJoinKind::Inner => true,
                    PlanJoinKind::Renest { attr } => !cols.contains(attr),
                };
                if from_left && !cols.is_empty() && left_schema.contains_all(cols.iter()) {
                    return Plan::Join {
                        left: Box::new(push_selections(
                            &Plan::Select {
                                input: left.clone(),
                                predicate: predicate.clone(),
                            },
                            catalog,
                        )),
                        right: right.clone(),
                        left_key: left_key.clone(),
                        right_key: right_key.clone(),
                        kind: kind.clone(),
                        strategy: *strategy,
                    };
                }
                // Only inner joins admit pushing into the right side (a
                // re-nesting join keeps every left row).
                if *kind == PlanJoinKind::Inner
                    && !cols.is_empty()
                    && right_schema.contains_all(cols.iter())
                {
                    return Plan::Join {
                        left: left.clone(),
                        right: Box::new(push_selections(
                            &Plan::Select {
                                input: right.clone(),
                                predicate: predicate.clone(),
                            },
                            catalog,
                        )),
                        left_key: left_key.clone(),
                        right_key: right_key.clone(),
                        kind: kind.clone(),
                        strategy: *strategy,
                    };
                }
            }
            _ => {}
        }
    }
    rebuilt
}

// ---------------------------------------------------------------------------
// column pruning
// ---------------------------------------------------------------------------

/// What a node's ancestors read of its output: `None` means every attribute
/// (the root's consumer is unknown, or an operator above compares whole
/// rows).
type Need = Option<BTreeSet<String>>;

/// `need` plus the attributes an operator reads itself.
fn need_with(need: &Need, attrs: impl IntoIterator<Item = String>) -> Need {
    need.as_ref().map(|n| {
        let mut n = n.clone();
        n.extend(attrs);
        n
    })
}

/// Top-down liveness: every node is handed what its ancestors read and
/// derives what it reads of its children from its own operands, so an
/// attribute lives exactly from the operator that introduces it to the last
/// one that reads it.
fn prune_columns(plan: &Plan, catalog: &Catalog) -> Plan {
    prune_node(plan, &None, catalog).0
}

/// Wraps `plan` (whose output schema is `schema`) in a pass-through
/// projection onto the attributes of `need` when that drops something.
/// Conservative on purpose: an unknown (empty) schema is left alone, and so
/// is a node nothing is read of.
///
/// Catalog schemas may be sampled from the data, so for an aliased source
/// every needed `alias.`-prefixed attribute counts as part of its schema
/// even when the sample missed it: an attribute present only in unsampled
/// rows then flows through every projection above instead of being silently
/// dropped (absent ones evaluate to NULL either way).
fn keep_needed(
    plan: Plan,
    mut schema: AttrSchema,
    need: &Need,
    alias: Option<&str>,
) -> (Plan, AttrSchema) {
    let Some(need) = need else {
        return (plan, schema);
    };
    if schema.attrs.is_empty() {
        return (plan, schema);
    }
    if let Some(alias) = alias {
        let prefix = format!("{alias}.");
        let unsampled: Vec<String> = need
            .iter()
            .filter(|a| a.starts_with(&prefix) && !schema.contains(a))
            .cloned()
            .collect();
        schema.attrs.extend(unsampled);
    }
    let keep: Vec<String> = schema
        .attrs
        .iter()
        .filter(|a| need.contains(*a))
        .cloned()
        .collect();
    if keep.is_empty() || keep.len() == schema.attrs.len() {
        return (plan, schema);
    }
    let schema = schema.restrict(&keep);
    let pruned = Plan::Project {
        input: Box::new(plan),
        columns: keep
            .into_iter()
            .map(|a| (a.clone(), ScalarExpr::col(a)))
            .collect(),
    };
    (pruned, schema)
}

/// An operator's own liveness rule: what it reads of each child (in
/// [`Plan::children`] order) when its ancestors read `need` of it, and — for
/// a projection or an extension — the outputs it still has to compute.
fn child_needs(plan: &Plan, need: &Need) -> (Vec<Need>, Option<Vec<(String, ScalarExpr)>>) {
    let needs = match plan {
        Plan::Scan { .. } | Plan::Unit | Plan::Empty => vec![],
        Plan::Select { predicate, .. } => vec![need_with(need, predicate.referenced_columns())],
        Plan::Project { columns, .. } => {
            let mut kept: Vec<(String, ScalarExpr)> = columns
                .iter()
                .filter(|(n, _)| need.as_ref().is_none_or(|need| need.contains(n)))
                .cloned()
                .collect();
            if kept.is_empty() {
                kept = columns.clone();
            }
            let reads = kept.iter().flat_map(|(_, e)| e.referenced_columns());
            return (vec![Some(reads.collect())], Some(kept));
        }
        Plan::Extend { columns, .. } => {
            // Backwards over the in-order sets: an output nobody above reads
            // is dropped, a kept one makes its operands live below it.
            let mut live = need.clone();
            let mut kept: Vec<(String, ScalarExpr)> = Vec::with_capacity(columns.len());
            for (name, expr) in columns.iter().rev() {
                if let Some(live) = &mut live {
                    if !live.remove(name) {
                        continue;
                    }
                    live.extend(expr.referenced_columns());
                }
                kept.push((name.clone(), expr.clone()));
            }
            kept.reverse();
            return (vec![live], Some(kept));
        }
        Plan::AddIndex { .. } => vec![need.clone()],
        // Both sides of an inner join get the whole need: where they share an
        // attribute name the join's merge decides which one surfaces, and that
        // must not depend on pruning.
        Plan::Join {
            left_key,
            right_key,
            kind: PlanJoinKind::Inner,
            ..
        } => vec![
            need_with(need, left_key.iter().cloned()),
            need_with(need, right_key.iter().cloned()),
        ],
        // A re-nesting join reads the group and the key of its right side,
        // and sets `attr` over whatever the left side held under that name.
        Plan::Join {
            left_key,
            right_key,
            kind: PlanJoinKind::Renest { attr },
            ..
        } => {
            let left = need.as_ref().map(|n| {
                let above = n.iter().filter(|c| *c != attr);
                above.chain(left_key).cloned().collect()
            });
            vec![
                left,
                Some(right_key.iter().chain([attr]).cloned().collect()),
            ]
        }
        Plan::Unnest { bag_attr, .. } => vec![need_with(need, [bag_attr.clone()])],
        Plan::Nest { key, values, .. } => vec![Some(key.iter().chain(values).cloned().collect())],
        // Whole rows are compared or concatenated: everything below stays.
        Plan::Dedup { .. } => vec![None],
        Plan::Union { .. } => vec![None, None],
    };
    (needs, None)
}

/// Rewrites `plan` to produce no more than `need` plus what its own
/// operators read, returning the rewritten node together with its output
/// schema (each node's schema is derived once, from its children's).
///
/// Pruning projections go where attributes enter the stream (above scans
/// and above unnests whose inner schema is known) and directly below every
/// breaker input (both join sides, the nest input) that still carries an
/// attribute nobody reads, so a shuffle ships live columns only. Extension
/// and projection outputs nobody reads are dropped with their operands.
fn prune_node(plan: &Plan, need: &Need, catalog: &Catalog) -> (Plan, AttrSchema) {
    // A re-nesting join whose bag nobody reads is its left side: every left
    // row comes out exactly once.
    if let (Plan::Join { left, kind, .. }, Some(read)) = (plan, need) {
        if matches!(kind, PlanJoinKind::Renest { attr } if !read.contains(attr)) {
            return prune_node(left, need, catalog);
        }
    }
    let (needs, kept) = child_needs(plan, need);
    let breaker = matches!(plan, Plan::Join { .. } | Plan::Nest { .. });
    let mut needs = needs.iter();
    let mut inputs: Vec<AttrSchema> = Vec::new();
    let mut pruned_child = |child: &Plan| {
        // One need per child; were one missing, the child would keep all.
        let need = needs.next().unwrap_or(&None);
        let (mut child, mut schema) = prune_node(child, need, catalog);
        if breaker {
            (child, schema) = keep_needed(child, schema, need, None);
        }
        inputs.push(schema);
        child
    };
    let rebuilt = match (plan, kept) {
        (Plan::Project { input, .. }, Some(columns)) => Plan::Project {
            input: Box::new(pruned_child(input)),
            columns,
        },
        // Every output was dead: the extension is gone.
        (Plan::Extend { input, .. }, Some(columns)) if columns.is_empty() => {
            let input = pruned_child(input);
            return (input, inputs.remove(0));
        }
        (Plan::Extend { input, .. }, Some(columns)) => Plan::Extend {
            input: Box::new(pruned_child(input)),
            columns,
        },
        _ => map_children(plan, pruned_child),
    };
    // A schema that may miss attributes of the output is no basis for a
    // projection above: a node over an unknown input (a projection names its
    // own output) or an unnest of a bag of unknown element schema hands
    // "unknown" up, however much `node_schema` could still list.
    let known = match plan {
        Plan::Project { .. } => true,
        Plan::Unnest { bag_attr, .. } => inputs[0]
            .nested_schema(bag_attr)
            .is_some_and(|s| !s.attrs.is_empty()),
        _ => inputs.iter().all(|s| !s.attrs.is_empty()),
    };
    if !known {
        return (rebuilt, AttrSchema::default());
    }
    let schema = node_schema(&rebuilt, inputs, catalog);
    // Attributes enter the stream at scans and unnests: keep the needed ones
    // right there.
    match plan {
        Plan::Scan { alias, .. } => keep_needed(rebuilt, schema, need, alias.as_deref()),
        Plan::Unnest { alias, .. } => keep_needed(rebuilt, schema, need, Some(alias)),
        _ => (rebuilt, schema),
    }
}

// ---------------------------------------------------------------------------
// aggregation pushdown
// ---------------------------------------------------------------------------

fn push_aggregation(plan: &Plan, catalog: &Catalog) -> Plan {
    let rebuilt = map_children(plan, |c| push_aggregation(c, catalog));
    if let Plan::Nest {
        input,
        key,
        values,
        op: NestOp::Sum,
        ..
    } = &rebuilt
    {
        if let Plan::Join {
            left,
            right,
            left_key,
            right_key,
            kind,
            strategy,
        } = input.as_ref()
        {
            let left_schema = output_schema(left, catalog);
            let right_schema = output_schema(right, catalog);
            // All summed values must come from the left input, the join key
            // must be part of the left grouping attributes, and the right side
            // must not contribute summed values. Then partial sums grouped by
            // (left grouping attrs ∪ join key) can be computed below the join.
            let values_from_left = values.iter().all(|v| left_schema.contains(v))
                && values.iter().all(|v| !right_schema.contains(v));
            let partial_key: Vec<String> = key
                .iter()
                .filter(|k| left_schema.contains(k))
                .cloned()
                .chain(left_key.iter().cloned())
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            let covers_join_key = left_key.iter().all(|k| partial_key.contains(k));
            // Avoid a useless partial aggregate when the partial key is the
            // whole left row (nothing to reduce) — mirrors the paper's remark
            // that pre-aggregating `Part` on its primary key brings no benefit.
            let useful = partial_key.len() < left_schema.attrs.len();
            if values_from_left && covers_join_key && useful && !partial_key.is_empty() {
                let partial = Plan::Nest {
                    input: left.clone(),
                    key: partial_key,
                    values: values.clone(),
                    op: NestOp::Sum,
                    place_by: Vec::new(),
                };
                return Plan::Nest {
                    input: Box::new(Plan::Join {
                        left: Box::new(partial),
                        right: right.clone(),
                        left_key: left_key.clone(),
                        right_key: right_key.clone(),
                        kind: kind.clone(),
                        strategy: *strategy,
                    }),
                    key: key.clone(),
                    values: values.clone(),
                    op: NestOp::Sum,
                    place_by: Vec::new(),
                };
            }
        }
    }
    rebuilt
}

// ---------------------------------------------------------------------------
// join strategy selection
// ---------------------------------------------------------------------------

/// Annotates every `Auto` join with a physical strategy. The annotation never
/// contradicts what the engine's runtime size check would decide: `Broadcast`
/// is chosen only when an upper bound on the right side provably fits under
/// the broadcast limit, `Shuffle` only when lower-bound-free reasoning cannot
/// apply but both sides' upper bounds provably exceed it.
fn select_join_strategies(plan: &Plan, catalog: &Catalog, config: &OptimizerConfig) -> Plan {
    map_plan(plan, &|p| {
        if let Plan::Join {
            left,
            right,
            left_key,
            right_key,
            kind,
            strategy: JoinStrategy::Auto,
        } = p
        {
            let strategy = if let Some(limit) = config.broadcast_limit {
                let right_bound = size_upper_bound(right, catalog);
                let left_bound = size_upper_bound(left, catalog);
                match (right_bound, left_bound) {
                    (Some(r), _) if r <= limit => JoinStrategy::Broadcast,
                    // Lower bounds: a scan's recorded size is exact, so a
                    // bare scan larger than the limit can never broadcast.
                    _ => {
                        let right_big = scan_exact_size(right, catalog)
                            .map(|r| r > limit)
                            .unwrap_or(false);
                        let left_big = scan_exact_size(left, catalog)
                            .map(|l| l > limit)
                            .unwrap_or(false);
                        if right_big && (left_big || matches!(kind, PlanJoinKind::Renest { .. })) {
                            JoinStrategy::Shuffle
                        } else {
                            JoinStrategy::Auto
                        }
                    }
                }
            } else {
                JoinStrategy::Auto
            };
            if strategy != JoinStrategy::Auto {
                return Some(Plan::Join {
                    left: left.clone(),
                    right: right.clone(),
                    left_key: left_key.clone(),
                    right_key: right_key.clone(),
                    kind: kind.clone(),
                    strategy,
                });
            }
        }
        None
    })
}

/// An upper bound on the materialized size of a subplan's output, when one is
/// provable: shrinking-only operators pass their input's bound through, a
/// scan contributes its recorded size.
fn size_upper_bound(plan: &Plan, catalog: &Catalog) -> Option<usize> {
    match plan {
        Plan::Scan { name, .. } => catalog.size_of(name),
        Plan::Unit | Plan::Empty => Some(0),
        Plan::Select { input, .. } | Plan::Dedup { input } => size_upper_bound(input, catalog),
        // A pass-through projection keeps a subset of each row.
        Plan::Project { input, columns } if is_passthrough(columns) => {
            size_upper_bound(input, catalog)
        }
        // Γ+ emits at most one row per input row, each a subset of key/value
        // columns.
        Plan::Nest {
            input,
            op: NestOp::Sum,
            ..
        } => size_upper_bound(input, catalog),
        _ => None,
    }
}

/// The exact recorded size of a bare (possibly pruned/filtered) scan — used
/// as a lower bound only when nothing below could have shrunk it.
fn scan_exact_size(plan: &Plan, catalog: &Catalog) -> Option<usize> {
    match plan {
        Plan::Scan { name, .. } => catalog.size_of(name),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// grouping placement
// ---------------------------------------------------------------------------

/// The attribute a dictionary's rows carry their label under. Whatever reads
/// a materialized dictionary — unshredding's `Γ⊎` and label join, a label
/// join of the next query — is keyed by it alone.
const DICT_LABEL: &str = "label";

/// What the nearest breaker above routes a stream by, in the stream's own
/// column names.
#[derive(Debug, Clone)]
enum Wanted {
    /// Nothing to aim at: a broadcast join, a whole-row operator, or a key
    /// column computed above this point.
    Nothing,
    /// A join side: exactly these columns, in this order.
    Exactly(Vec<String>),
    /// A grouping: any non-empty subset of `key` serves it, and `prefer` —
    /// what that grouping is itself placed by — also serves what it feeds.
    AnyOf {
        /// The subset that keeps the chain above in place too.
        prefer: Vec<String>,
        /// The consuming grouping's key.
        key: Vec<String>,
    },
}

impl Wanted {
    /// A unit's output has no breaker above it in its plan. If it is a
    /// dictionary its consumers group and join by the label — the paper's
    /// label-partitioning guarantee; any other output has no `label` to
    /// place by and stays as it is.
    fn dictionary_output() -> Wanted {
        Wanted::AnyOf {
            prefer: vec![DICT_LABEL.to_string()],
            key: vec![DICT_LABEL.to_string()],
        }
    }

    /// The same demand below the row-local operator `node`, in the names of
    /// `node`'s input.
    fn below(&self, node: &Plan) -> Wanted {
        let all = |cols: &[String]| -> Option<Vec<String>> {
            cols.iter().map(|c| column_below(node, c)).collect()
        };
        match self {
            Wanted::Nothing => Wanted::Nothing,
            Wanted::Exactly(cols) => all(cols).map_or(Wanted::Nothing, Wanted::Exactly),
            Wanted::AnyOf { prefer, key } => {
                let key: Vec<String> = key.iter().filter_map(|c| column_below(node, c)).collect();
                if key.is_empty() {
                    return Wanted::Nothing;
                }
                Wanted::AnyOf {
                    prefer: all(prefer).unwrap_or_else(|| key.clone()),
                    key,
                }
            }
        }
    }

    /// The `place_by` of a grouping by `key` under this demand; empty when
    /// the whole key is as good as anything.
    fn place_by(&self, key: &[String]) -> Vec<String> {
        let within = |cols: &[String]| cols.iter().all(|c| key.contains(c));
        let chosen = match self {
            Wanted::Exactly(cols) if within(cols) => cols.clone(),
            Wanted::AnyOf { prefer, .. } if within(prefer) => prefer.clone(),
            Wanted::AnyOf { key: theirs, .. } => {
                key.iter().filter(|c| theirs.contains(c)).cloned().collect()
            }
            _ => Vec::new(),
        };
        if chosen == key {
            Vec::new()
        } else {
            chosen
        }
    }
}

/// The input column of the row-local `node` that its output carries as
/// `col` — the inverse of [`carried_column`], which stays the one rule: a
/// projection is searched for the column it passes through under that name,
/// every other operator keeps names.
fn column_below(node: &Plan, col: &str) -> Option<String> {
    let carries = |c: &str| carried_column(node, c).as_deref() == Some(col);
    match node {
        Plan::Project { columns, .. } => columns.iter().find_map(|(_, e)| match e {
            ScalarExpr::Col(c) if carries(c) => Some(c.clone()),
            _ => None,
        }),
        _ => carries(col).then(|| col.to_string()),
    }
}

/// Annotates every `Γ` with the columns its shuffle hashes by (see the
/// module docs, item 5), walking down from `wanted` — what the consumer of
/// `plan`'s output routes by.
fn place_groupings(plan: &Plan, wanted: &Wanted) -> Plan {
    match plan {
        Plan::Nest {
            input,
            key,
            values,
            op,
            ..
        } => {
            let place_by = wanted.place_by(key);
            let prefer = if place_by.is_empty() { key } else { &place_by }.clone();
            let below = Wanted::AnyOf {
                prefer,
                key: key.clone(),
            };
            Plan::Nest {
                input: Box::new(place_groupings(input, &below)),
                key: key.clone(),
                values: values.clone(),
                op: op.clone(),
                place_by,
            }
        }
        Plan::Join {
            left_key,
            right_key,
            strategy,
            ..
        } => {
            // A broadcast join moves nothing by key.
            let side = |key: &Vec<String>| match strategy {
                JoinStrategy::Broadcast => Wanted::Nothing,
                _ if key.is_empty() => Wanted::Nothing,
                _ => Wanted::Exactly(key.clone()),
            };
            let mut sides = [side(left_key), side(right_key)].into_iter();
            map_children(plan, |c| {
                place_groupings(c, &sides.next().unwrap_or(Wanted::Nothing))
            })
        }
        _ if is_row_local(plan) => {
            let below = wanted.below(plan);
            map_children(plan, |c| place_groupings(c, &below))
        }
        _ => map_children(plan, |c| place_groupings(c, &Wanted::Nothing)),
    }
}

// ---------------------------------------------------------------------------
// projection collapsing
// ---------------------------------------------------------------------------

/// Substitutes column references through a projection's column definitions,
/// returning `None` when a referenced column is not defined by it.
fn substitute_cols(
    expr: &ScalarExpr,
    defs: &std::collections::BTreeMap<String, ScalarExpr>,
) -> Option<ScalarExpr> {
    Some(match expr {
        ScalarExpr::Col(c) => defs.get(c)?.clone(),
        ScalarExpr::Const(_) => expr.clone(),
        ScalarExpr::Prim { op, left, right } => ScalarExpr::Prim {
            op: *op,
            left: Box::new(substitute_cols(left, defs)?),
            right: Box::new(substitute_cols(right, defs)?),
        },
        ScalarExpr::Cmp { op, left, right } => ScalarExpr::Cmp {
            op: *op,
            left: Box::new(substitute_cols(left, defs)?),
            right: Box::new(substitute_cols(right, defs)?),
        },
        ScalarExpr::And(a, b) => ScalarExpr::And(
            Box::new(substitute_cols(a, defs)?),
            Box::new(substitute_cols(b, defs)?),
        ),
        ScalarExpr::Or(a, b) => ScalarExpr::Or(
            Box::new(substitute_cols(a, defs)?),
            Box::new(substitute_cols(b, defs)?),
        ),
        ScalarExpr::Not(e) => ScalarExpr::Not(Box::new(substitute_cols(e, defs)?)),
        ScalarExpr::NewLabel { site, captures } => ScalarExpr::NewLabel {
            site: *site,
            captures: captures
                .iter()
                .map(|(n, e)| substitute_cols(e, defs).map(|e| (n.clone(), e)))
                .collect::<Option<Vec<_>>>()?,
        },
    })
}

/// Merges adjacent projections (`π₁ ∘ π₂ → π`) so repeated optimizer passes
/// converge instead of stacking pass-through projections.
fn collapse_projections(plan: &Plan) -> Plan {
    map_plan(plan, &|p| {
        if let Plan::Project { input, columns } = p {
            if let Plan::Project {
                input: inner_input,
                columns: inner_columns,
            } = input.as_ref()
            {
                let defs: std::collections::BTreeMap<String, ScalarExpr> = inner_columns
                    .iter()
                    .map(|(n, e)| (n.clone(), e.clone()))
                    .collect();
                let merged: Option<Vec<(String, ScalarExpr)>> = columns
                    .iter()
                    .map(|(n, e)| substitute_cols(e, &defs).map(|e| (n.clone(), e)))
                    .collect();
                if let Some(merged) = merged {
                    return Some(Plan::Project {
                        input: inner_input.clone(),
                        columns: merged,
                    });
                }
            }
        }
        None
    })
}

// ---------------------------------------------------------------------------
// traversal helpers
// ---------------------------------------------------------------------------

/// Rebuilds a node with its children transformed by `f`.
fn map_children(plan: &Plan, mut f: impl FnMut(&Plan) -> Plan) -> Plan {
    match plan {
        Plan::Scan { .. } | Plan::Unit | Plan::Empty => plan.clone(),
        Plan::Select { input, predicate } => Plan::Select {
            input: Box::new(f(input)),
            predicate: predicate.clone(),
        },
        Plan::Project { input, columns } => Plan::Project {
            input: Box::new(f(input)),
            columns: columns.clone(),
        },
        Plan::Extend { input, columns } => Plan::Extend {
            input: Box::new(f(input)),
            columns: columns.clone(),
        },
        Plan::AddIndex { input, id_attr } => Plan::AddIndex {
            input: Box::new(f(input)),
            id_attr: id_attr.clone(),
        },
        Plan::Join {
            left,
            right,
            left_key,
            right_key,
            kind,
            strategy,
        } => Plan::Join {
            left: Box::new(f(left)),
            right: Box::new(f(right)),
            left_key: left_key.clone(),
            right_key: right_key.clone(),
            kind: kind.clone(),
            strategy: *strategy,
        },
        Plan::Unnest {
            input,
            bag_attr,
            alias,
        } => Plan::Unnest {
            input: Box::new(f(input)),
            bag_attr: bag_attr.clone(),
            alias: alias.clone(),
        },
        Plan::Nest {
            input,
            key,
            values,
            op,
            place_by,
        } => Plan::Nest {
            input: Box::new(f(input)),
            key: key.clone(),
            values: values.clone(),
            op: op.clone(),
            place_by: place_by.clone(),
        },
        Plan::Dedup { input } => Plan::Dedup {
            input: Box::new(f(input)),
        },
        Plan::Union { left, right } => Plan::Union {
            left: Box::new(f(left)),
            right: Box::new(f(right)),
        },
    }
}

/// Bottom-up rewriting: `f` may return a replacement for any node.
fn map_plan(plan: &Plan, f: &impl Fn(&Plan) -> Option<Plan>) -> Plan {
    let rebuilt = map_children(plan, |c| map_plan(c, f));
    f(&rebuilt).unwrap_or(rebuilt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrSchema;
    use trance_nrc::Value;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            "Lineitem",
            AttrSchema::flat(["l_orderkey", "l_partkey", "l_quantity", "l_comment"]),
        );
        c.register(
            "Part",
            AttrSchema::flat(["p_partkey", "p_name", "p_retailprice", "p_comment"]),
        );
        c
    }

    #[test]
    fn selection_is_pushed_below_projection_and_into_join_side() {
        let c = catalog();
        let plan = Plan::scan("Lineitem")
            .join(
                Plan::scan("Part"),
                &["l_partkey"],
                &["p_partkey"],
                PlanJoinKind::Inner,
            )
            .select(ScalarExpr::Cmp {
                op: trance_nrc::CmpOp::Gt,
                left: Box::new(ScalarExpr::col("p_retailprice")),
                right: Box::new(ScalarExpr::constant(Value::Real(10.0))),
            })
            .project_columns(&["l_orderkey", "p_name"]);
        let opt = optimize_default(&plan, &c);
        // The selection must now sit below the join, on the Part side.
        let mut found = false;
        opt.visit(&mut |p| {
            if let Plan::Join { right, .. } = p {
                if matches!(right.as_ref(), Plan::Select { .. })
                    || matches!(right.as_ref(), Plan::Project { input, .. } if matches!(input.as_ref(), Plan::Select { .. }))
                {
                    found = true;
                }
            }
        });
        assert!(
            found,
            "selection not pushed into the join's right side:\n{}",
            crate::plan::pretty_plan(&opt)
        );
    }

    #[test]
    fn selection_is_pushed_below_an_independent_extension() {
        let c = catalog();
        let plan = Plan::scan("Lineitem")
            .extend(vec![(
                "double_qty".into(),
                ScalarExpr::Prim {
                    op: trance_nrc::PrimOp::Add,
                    left: Box::new(ScalarExpr::col("l_quantity")),
                    right: Box::new(ScalarExpr::col("l_quantity")),
                },
            )])
            .select(ScalarExpr::Cmp {
                op: trance_nrc::CmpOp::Gt,
                left: Box::new(ScalarExpr::col("l_partkey")),
                right: Box::new(ScalarExpr::constant(Value::Int(3))),
            })
            .project_columns(&["l_orderkey", "double_qty"]);
        let opt = optimize_default(&plan, &c);
        let mut select_below_extend = false;
        opt.visit(&mut |p| {
            if let Plan::Extend { input, .. } = p {
                // The selection must have moved somewhere below the
                // extension (possibly under a pruning projection too).
                select_below_extend |= input.count(|n| matches!(n, Plan::Select { .. })) > 0;
            }
        });
        assert!(
            select_below_extend,
            "selection must commute below the extension:\n{}",
            crate::plan::pretty_plan(&opt)
        );
    }

    /// The re-nesting join sets its bag over whatever the left side holds
    /// under that name (unshredding's labels), so a selection on the bag
    /// stays above the join while one on another parent column moves below
    /// it; and a join whose bag nobody reads is its left side.
    #[test]
    fn a_renest_keeps_selections_on_its_bag_above_and_goes_when_the_bag_is_dead() {
        let mut c = Catalog::new();
        c.register("Top", AttrSchema::flat(["id", "orders", "pad"]));
        c.register("Dict", AttrSchema::flat(["label", "odate", "note"]));
        let renest = || {
            let values = vec!["odate".to_string()];
            Plan::scan("Top").renest(Plan::scan("Dict"), "orders", "label", values, "orders")
        };
        let cmp = |col: &str, v: Value| ScalarExpr::Cmp {
            op: trance_nrc::CmpOp::Ne,
            left: Box::new(ScalarExpr::col(col)),
            right: Box::new(ScalarExpr::constant(v)),
        };
        let pushed = |predicate: ScalarExpr| {
            let plan = renest()
                .select(predicate)
                .project_columns(&["id", "orders"]);
            let opt = optimize_default(&plan, &c);
            let join = find(&opt, |p| matches!(p, Plan::Join { .. }));
            let Plan::Join { left, .. } = join else {
                unreachable!()
            };
            left.count(|p| matches!(p, Plan::Select { .. })) == 1
        };
        assert!(!pushed(cmp("orders", Value::empty_bag())));
        assert!(pushed(cmp("id", Value::Int(3))));
        let dead = optimize_default(&renest().project_columns(&["id"]), &c);
        assert_eq!(
            dead.count(|p| matches!(p, Plan::Join { .. } | Plan::Nest { .. })),
            0
        );
        assert_eq!(
            dead.scanned_inputs().into_iter().collect::<Vec<_>>(),
            ["Top"]
        );
    }

    #[test]
    fn unused_columns_are_pruned_above_scans() {
        let c = catalog();
        let plan = Plan::scan("Lineitem")
            .join(
                Plan::scan("Part"),
                &["l_partkey"],
                &["p_partkey"],
                PlanJoinKind::Inner,
            )
            .project_columns(&["l_orderkey", "p_name"]);
        let opt = optimize_default(&plan, &c);
        // Neither comment column may survive anywhere in the plan.
        let mut pruned = true;
        opt.visit(&mut |p| {
            if let Plan::Project { columns, input } = p {
                if matches!(input.as_ref(), Plan::Scan { .. }) {
                    for (n, _) in columns {
                        if n.ends_with("comment") {
                            pruned = false;
                        }
                    }
                }
            }
        });
        let has_scan_projection = opt.count(|p| {
            matches!(p, Plan::Project { input, .. } if matches!(input.as_ref(), Plan::Scan { .. }))
        });
        assert!(
            has_scan_projection >= 2,
            "projections must be inserted above both scans"
        );
        assert!(pruned, "comment columns must be pruned");
    }

    #[test]
    fn unused_inner_attributes_are_pruned_above_unnests() {
        let mut c = Catalog::new();
        c.register(
            "COP",
            AttrSchema::flat(["cname", "ccomment"])
                .with_nested("corders", AttrSchema::flat(["odate", "ocomment", "total"])),
        );
        // for co in cop.corders keep only odate/total.
        let plan = Plan::scan_as("COP", "cop")
            .unnest_as("cop.corders", "co")
            .project(vec![
                ("cname".into(), ScalarExpr::col("cop.cname")),
                ("odate".into(), ScalarExpr::col("co.odate")),
                ("total".into(), ScalarExpr::col("co.total")),
            ]);
        let opt = optimize_default(&plan, &c);
        let mut unnest_pruned = false;
        opt.visit(&mut |p| {
            if let Plan::Project { columns, input } = p {
                if matches!(input.as_ref(), Plan::Unnest { .. }) {
                    let names: Vec<&str> = columns.iter().map(|(n, _)| n.as_str()).collect();
                    unnest_pruned = !names.contains(&"co.ocomment");
                }
            }
        });
        assert!(
            unnest_pruned,
            "unused unnested element attributes must be pruned:\n{}",
            crate::plan::pretty_plan(&opt)
        );
        // The scan is pruned too (ccomment unused; corders still needed).
        let mut scan_keeps_bag = false;
        opt.visit(&mut |p| {
            if let Plan::Project { columns, input } = p {
                if matches!(input.as_ref(), Plan::Scan { .. }) {
                    let names: Vec<&str> = columns.iter().map(|(n, _)| n.as_str()).collect();
                    scan_keeps_bag =
                        names.contains(&"cop.corders") && !names.contains(&"cop.ccomment");
                }
            }
        });
        assert!(scan_keeps_bag, "{}", crate::plan::pretty_plan(&opt));
    }

    #[test]
    fn sum_aggregate_is_pushed_below_the_join() {
        let c = catalog();
        // sum l_quantity per (l_orderkey, p_name) over Lineitem ⋈ Part.
        let plan = Plan::scan("Lineitem")
            .join(
                Plan::scan("Part"),
                &["l_partkey"],
                &["p_partkey"],
                PlanJoinKind::Inner,
            )
            .nest_sum(&["l_orderkey", "p_name"], &["l_quantity"]);
        let opt = optimize_default(&plan, &c);
        // There must now be a NestSum below the join (partial sums).
        let mut partial_below_join = false;
        opt.visit(&mut |p| {
            if let Plan::Join { left, .. } = p {
                if matches!(
                    left.as_ref(),
                    Plan::Nest {
                        op: NestOp::Sum,
                        ..
                    }
                ) {
                    partial_below_join = true;
                }
            }
        });
        assert!(
            partial_below_join,
            "expected a partial Γ+ below the join:\n{}",
            crate::plan::pretty_plan(&opt)
        );
    }

    #[test]
    fn join_strategies_are_annotated_from_catalog_sizes() {
        let mut c = catalog();
        c.set_size("Lineitem", 1_000_000);
        c.set_size("Part", 512);
        let plan = Plan::scan("Lineitem")
            .join(
                Plan::scan("Part"),
                &["l_partkey"],
                &["p_partkey"],
                PlanJoinKind::Inner,
            )
            .project_columns(&["l_orderkey", "p_name"]);
        let cfg = OptimizerConfig {
            broadcast_limit: Some(4096),
        };
        let opt = optimize(&plan, &c, &cfg);
        let mut strategy = None;
        opt.visit(&mut |p| {
            if let Plan::Join { strategy: s, .. } = p {
                strategy = Some(*s);
            }
        });
        assert_eq!(strategy, Some(JoinStrategy::Broadcast));

        // Both sides provably over the limit: shuffle. The join is the root
        // and reads every attribute, so pruning leaves its sides bare scans,
        // whose sizes the catalog knows.
        c.set_size("Part", 1_000_000);
        let plan2 = Plan::scan("Lineitem").join(
            Plan::scan("Part"),
            &["l_partkey"],
            &["p_partkey"],
            PlanJoinKind::Inner,
        );
        let opt2 = optimize(&plan2, &c, &cfg);
        let mut strategy2 = None;
        opt2.visit(&mut |p| {
            if let Plan::Join { strategy: s, .. } = p {
                strategy2 = Some(*s);
            }
        });
        assert_eq!(strategy2, Some(JoinStrategy::Shuffle));
    }

    /// The paper's running example (nested-to-nested: navigate `COP`, join
    /// `Part` at the innermost level, regroup) lowered and optimized over a
    /// *wide* catalog — every level carries a comment attribute the query
    /// never reads. Returns the final catalog and the optimized plans in
    /// execution order, the root last.
    fn optimized_running_example() -> (Catalog, Vec<(String, Plan)>) {
        let mut catalog = Catalog::new();
        catalog.register(
            "COP",
            AttrSchema::flat(["cname", "ccomment"]).with_nested(
                "corders",
                AttrSchema::flat(["odate", "ocomment"])
                    .with_nested("oparts", AttrSchema::flat(["pid", "qty", "pcomment"])),
            ),
        );
        catalog.register(
            "Part",
            AttrSchema::flat(["pid", "pname", "price", "comment"]),
        );
        let program = crate::lower(&crate::lower::tests::running_example(), &catalog).unwrap();
        let mut plans = Vec::new();
        for a in &program.assignments {
            let plan = optimize_default(&a.plan, &catalog);
            catalog.register(a.name.clone(), output_schema(&plan, &catalog));
            plans.push((a.name.clone(), plan));
        }
        plans.push((
            "result".to_string(),
            optimize_default(&program.root, &catalog),
        ));
        (catalog, plans)
    }

    /// The attributes a pruning projection keeps; panics on anything else.
    fn pruned(plan: &Plan) -> Vec<&str> {
        match plan {
            Plan::Project { columns, .. } if is_passthrough(columns) => {
                columns.iter().map(|(n, _)| n.as_str()).collect()
            }
            other => panic!(
                "expected a pruning projection, got\n{}",
                crate::plan::pretty_plan(other)
            ),
        }
    }

    /// The first node of `plan` (pre-order) that `pred` accepts.
    fn find(plan: &Plan, pred: impl Fn(&Plan) -> bool) -> &Plan {
        let mut stack = vec![plan];
        while let Some(p) = stack.pop() {
            if pred(p) {
                return p;
            }
            stack.extend(p.children().into_iter().rev());
        }
        panic!("no such node in\n{}", crate::plan::pretty_plan(plan));
    }

    #[test]
    fn dead_parent_columns_are_dropped_on_the_probe_side_of_a_join_under_a_nest() {
        let (_, plans) = optimized_running_example();
        let root = &plans.last().unwrap().1;
        // The lineitem-level join reads two ids and two element attributes;
        // the customer and order columns riding along are dead below the Γs.
        let Plan::Join { left, right, .. } = find(
            root,
            |p| matches!(p, Plan::Join { left_key, .. } if left_key[0] == "op.pid"),
        ) else {
            unreachable!()
        };
        assert_eq!(pruned(left), ["__id1", "__id3", "op.pid", "op.qty"]);
        assert_eq!(pruned(right), ["p.pid", "p.pname", "p.price"]);
        // One level up the parent side ships neither the customer's columns
        // nor the raw bag the unnest below consumed.
        let Plan::Join { left, .. } = find(
            root,
            |p| matches!(p, Plan::Join { left_key, .. } if left_key[0] == "__id3"),
        ) else {
            unreachable!()
        };
        assert_eq!(pruned(left), ["__id1", "odate", "__id3"]);
    }

    #[test]
    fn nest_inputs_are_pruned_to_key_and_values() {
        let (catalog, plans) = optimized_running_example();
        let root = &plans.last().unwrap().1;
        let mut nests = 0;
        root.visit(&mut |p| {
            if let Plan::Nest {
                input, key, values, ..
            } = p
            {
                nests += 1;
                let mut shipped = output_schema(input, &catalog).attrs;
                let mut read: Vec<String> = key.iter().chain(values).cloned().collect();
                shipped.sort();
                read.sort();
                assert_eq!(shipped, read, "{}", crate::plan::pretty_plan(p));
            }
        });
        assert_eq!(nests, 3);
    }

    #[test]
    fn a_materialized_scan_consumed_twice_gets_two_prunes() {
        let (_, plans) = optimized_running_example();
        let mut prunes: Vec<Vec<String>> = Vec::new();
        plans.last().unwrap().1.visit(&mut |p| {
            if let Plan::Project { input, .. } = p {
                if matches!(input.as_ref(), Plan::Scan { name, .. } if name == "__mat4") {
                    prunes.push(pruned(p).into_iter().map(String::from).collect());
                }
            }
        });
        // The order level reads its scalars, the lineitem level the bag.
        assert_eq!(
            prunes,
            [
                vec!["__id1", "odate", "__id3"],
                vec!["__id1", "co.oparts", "__id3"]
            ]
        );
    }

    #[test]
    fn dedup_and_union_block_pruning_below_them() {
        let c = catalog();
        let joined = Plan::scan("Lineitem").join(
            Plan::scan("Part"),
            &["l_partkey"],
            &["p_partkey"],
            PlanJoinKind::Inner,
        );
        // Whole rows are compared / concatenated: every column stays live.
        let dedup = joined.clone().dedup().project_columns(&["l_orderkey"]);
        let union = Plan::Union {
            left: Box::new(joined.clone()),
            right: Box::new(joined),
        }
        .project_columns(&["l_orderkey"]);
        for plan in [dedup, union] {
            let opt = optimize_default(&plan, &c);
            assert_eq!(
                opt.count(|p| matches!(p, Plan::Project { .. })),
                1,
                "only the root projection may remain:\n{}",
                crate::plan::pretty_plan(&opt)
            );
        }
    }

    #[test]
    fn an_unknown_schema_is_left_untouched() {
        let c = catalog();
        // `Mystery` is not in the catalog: nothing may be projected out of
        // it, neither above the scan nor below the breakers it feeds.
        let plan = Plan::scan("Mystery")
            .extend(vec![("k".into(), ScalarExpr::col("m_key"))])
            .join(
                Plan::scan("Part"),
                &["k"],
                &["p_partkey"],
                PlanJoinKind::Inner,
            )
            .nest_sum(&["k"], &["p_retailprice"]);
        let opt = optimize_default(&plan, &c);
        let Plan::Nest { input, .. } = &opt else {
            panic!("{}", crate::plan::pretty_plan(&opt));
        };
        let Plan::Join { left, right, .. } = input.as_ref() else {
            panic!("{}", crate::plan::pretty_plan(&opt));
        };
        assert_eq!(
            **left,
            Plan::scan("Mystery").extend(vec![("k".into(), ScalarExpr::col("m_key"))])
        );
        assert_eq!(pruned(right), ["p_partkey", "p_retailprice"]);
    }

    #[test]
    fn an_alias_attribute_missing_from_a_sampled_schema_is_kept() {
        let mut c = Catalog::new();
        // The sample saw `cname` and `ccomment` but no row carrying `ccity`.
        c.register("COP", AttrSchema::flat(["cname", "ccomment"]));
        let plan = Plan::scan_as("COP", "cop").nest_bag(&["cop.ccity"], &["cop.cname"], "names");
        let opt = optimize_default(&plan, &c);
        let Plan::Nest { input, .. } = &opt else {
            unreachable!()
        };
        assert_eq!(pruned(input), ["cop.cname", "cop.ccity"]);
    }

    /// Every `Γ` of `plan` with what it is placed by, in pre-order.
    fn placed_by(plan: &Plan) -> Vec<(Vec<String>, Vec<String>)> {
        let mut out = Vec::new();
        plan.visit(&mut |p| {
            if let Plan::Nest { key, place_by, .. } = p {
                out.push((key.clone(), place_by.clone()));
            }
        });
        out
    }

    fn strs(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn a_grouping_is_placed_for_the_breaker_that_consumes_it() {
        let (_, plans) = optimized_running_example();
        // Γ⊎ by the customer id feeds the re-nesting join on it, Γ⊎ by the order
        // id the join on that: each already hashes by what its join wants.
        // The Γ+ below hashes by the order id alone, so the Γ⊎ above it and
        // that Γ⊎'s join side both find their rows in place.
        assert_eq!(
            placed_by(&plans.last().unwrap().1),
            [
                (strs(&["__id1"]), strs(&[])),
                (strs(&["__id3"]), strs(&[])),
                (strs(&["__id1", "__id3", "pname"]), strs(&["__id3"])),
            ]
        );
    }

    #[test]
    fn a_dictionary_units_output_is_placed_by_its_label() {
        let c = catalog();
        // Nothing in the unit's own plan consumes the grouping: what reads a
        // dictionary groups and joins by the label.
        let dict = Plan::scan("Lineitem")
            .extend(vec![("label".into(), ScalarExpr::col("l_orderkey"))])
            .nest_sum(&["label", "l_partkey"], &["l_quantity"])
            .project_columns(&["label", "l_partkey", "l_quantity"]);
        let placed = placed_by(&optimize_default(&dict, &c));
        assert_eq!(placed, [(strs(&["label", "l_partkey"]), strs(&["label"]))]);
        // The rule follows the label through a rename — and finds nothing to
        // follow when the output's `label` is computed above the grouping, or
        // when there is none.
        let renamed = Plan::scan("Lineitem")
            .nest_sum(&["l_orderkey", "l_partkey"], &["l_quantity"])
            .project(vec![
                ("label".into(), ScalarExpr::col("l_orderkey")),
                ("qty".into(), ScalarExpr::col("l_quantity")),
            ]);
        assert_eq!(
            placed_by(&optimize_default(&renamed, &c))[0].1,
            ["l_orderkey"]
        );
        let computed = Plan::scan("Lineitem")
            .nest_sum(&["l_orderkey", "l_partkey"], &["l_quantity"])
            .extend(vec![("label".into(), ScalarExpr::col("l_partkey"))])
            .extend(vec![("label".into(), ScalarExpr::constant(Value::Int(0)))]);
        assert_eq!(placed_by(&optimize_default(&computed, &c))[0].1, strs(&[]));
        let flat = Plan::scan("Lineitem").nest_sum(&["l_orderkey", "l_partkey"], &["l_quantity"]);
        assert_eq!(placed_by(&optimize_default(&flat, &c))[0].1, strs(&[]));
    }

    #[test]
    fn a_grouping_aims_at_a_join_side_exactly_and_at_a_grouping_by_any_shared_column() {
        let mut c = catalog();
        c.set_size("Lineitem", 1_000_000);
        c.set_size("Part", 1_000_000);
        let cfg = OptimizerConfig {
            broadcast_limit: Some(4096),
        };
        let sums =
            || Plan::scan("Lineitem").nest_sum(&["l_partkey", "l_orderkey"], &["l_quantity"]);
        let join_on = |right_key: &[&str]| {
            let left_key: Vec<&str> = right_key.iter().map(|_| "p_partkey").collect();
            let joined = Plan::scan("Part").join(
                sums(),
                &left_key[..right_key.len()],
                right_key,
                PlanJoinKind::Inner,
            );
            placed_by(&optimize(&joined, &c, &cfg))[0].1.clone()
        };
        // The join's key list, in the join's order — or, when the grouping
        // cannot supply it, nothing.
        assert_eq!(join_on(&["l_orderkey"]), ["l_orderkey"]);
        assert_eq!(join_on(&["l_quantity"]), strs(&[]));
        // A grouping above with another key: the columns the two share.
        let regrouped = sums().nest_sum(&["l_orderkey", "l_quantity"], &["l_partkey"]);
        assert_eq!(
            placed_by(&optimize(&regrouped, &c, &cfg)),
            [
                (strs(&["l_orderkey", "l_quantity"]), strs(&[])),
                (strs(&["l_partkey", "l_orderkey"]), strs(&["l_orderkey"])),
            ]
        );
        // A broadcast join moves nothing by key: there is nothing to aim at.
        c.set_size("Lineitem", 64);
        let broadcast =
            Plan::scan("Part").join(sums(), &["p_partkey"], &["l_orderkey"], PlanJoinKind::Inner);
        let opt = optimize(&broadcast, &c, &cfg);
        assert!(matches!(
            &opt,
            Plan::Join {
                strategy: JoinStrategy::Broadcast,
                ..
            }
        ));
        assert_eq!(placed_by(&opt)[0].1, strs(&[]));
    }

    #[test]
    fn the_optimized_nested_to_nested_program_is_a_fixpoint() {
        let (catalog, plans) = optimized_running_example();
        for (name, plan) in &plans {
            assert_eq!(
                &optimize_default(plan, &catalog),
                plan,
                "optimize ∘ optimize != optimize on {name}"
            );
        }
    }

    #[test]
    fn optimizer_is_idempotent() {
        let c = catalog();
        let plan = Plan::scan("Lineitem")
            .join(
                Plan::scan("Part"),
                &["l_partkey"],
                &["p_partkey"],
                PlanJoinKind::Inner,
            )
            .project_columns(&["l_orderkey", "p_name"]);
        let once = optimize_default(&plan, &c);
        let twice = optimize_default(&once, &c);
        assert_eq!(once, twice);
    }
}
