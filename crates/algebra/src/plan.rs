//! The plan language (Section 2): the algebraic operators the unnesting
//! algorithm targets, variants of the intermediate object algebra of
//! Fegaras & Maier used by the paper.
//!
//! Plans are produced by [`crate::lower()`], rewritten by [`crate::optimize()`],
//! and interpreted on the distributed engine by `trance-compiler`'s physical
//! executor. Attribute names in a lowered plan follow the flattened-stream
//! convention of the unnesting algorithm: a [`Plan::Scan`] carrying an
//! `alias`, and every [`Plan::Unnest`], rename the fields they introduce to
//! `alias.field`.

use std::collections::BTreeSet;

use crate::scalar::ScalarExpr;

/// Join flavour at the plan level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanJoinKind {
    /// Inner equi-join `⋈`: the left row with the whole right row laid over
    /// it, for every matching pair.
    Inner,
    /// The re-nesting join [`Plan::renest`] builds. Every left row comes out
    /// exactly once, with `attr` set to the matching right row's `attr`; a
    /// left row nothing matches — NULL and absent keys included — gets `{}`.
    /// No other right attribute surfaces. The right side is a `Γ⊎` by
    /// construction, so a key matches at most once.
    Renest {
        /// The bag-valued attribute set on every left row.
        attr: String,
    },
}

/// The physical join strategy the optimizer selected for a [`Plan::Join`].
///
/// `Auto` defers the broadcast-vs-shuffle decision to the engine's runtime
/// size check; the optimizer upgrades it to `Broadcast` / `Shuffle` when the
/// catalog's size information makes the choice provable. Skew-aware execution
/// (Section 5) is not a strategy: it is how the executor runs whichever one
/// the plan names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinStrategy {
    /// Decide broadcast vs. shuffle from actual side sizes at runtime.
    #[default]
    Auto,
    /// Replicate the right side to every worker (provably under the
    /// broadcast limit).
    Broadcast,
    /// Shuffle both sides by key hash (provably neither side fits).
    Shuffle,
}

impl JoinStrategy {
    /// Short label used by EXPLAIN output.
    pub fn label(&self) -> &'static str {
        match self {
            JoinStrategy::Auto => "auto",
            JoinStrategy::Broadcast => "broadcast",
            JoinStrategy::Shuffle => "shuffle",
        }
    }
}

/// Aggregate flavour of the nest operator `Γ`.
#[derive(Debug, Clone, PartialEq)]
pub enum NestOp {
    /// `Γ⊎`: collect the `values` attributes of each group into a bag-valued
    /// attribute named `group_attr` (NULLs become the empty bag).
    Bag {
        /// Name of the produced bag-valued attribute.
        group_attr: String,
    },
    /// `Γ+`: sum the `values` attributes within each group (NULLs become 0).
    Sum,
}

/// A node of the query plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Scan of a named input collection (top-level bag, materialized
    /// dictionary, or a materialized intermediate assignment).
    Scan {
        /// The input's name in the catalog.
        name: String,
        /// When set, fields of scanned tuples are renamed to `alias.field`
        /// (non-tuple rows become a single `alias.__value` attribute) — the
        /// flattened-stream naming of the unnesting algorithm.
        alias: Option<String>,
    },
    /// A single empty tuple — the unit input of a constant singleton bag.
    Unit,
    /// The empty collection (lowered from `∅`).
    Empty,
    /// Selection `σ`.
    Select {
        /// Input plan.
        input: Box<Plan>,
        /// Filter predicate.
        predicate: ScalarExpr,
    },
    /// Projection `π` (also used for renaming and pruning columns).
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// `(output name, expression)` pairs.
        columns: Vec<(String, ScalarExpr)>,
    },
    /// Map-style projection that adds (or overwrites) computed columns and
    /// keeps every other attribute of the row — the lowering's tuple
    /// construction step over a flattened stream.
    Extend {
        /// Input plan.
        input: Box<Plan>,
        /// `(attribute, expression)` pairs set on every row, in order.
        columns: Vec<(String, ScalarExpr)>,
    },
    /// Attaches a globally unique integer under `id_attr` to every row —
    /// the fresh parent identifier the unnesting algorithm introduces before
    /// compiling a nested output level.
    AddIndex {
        /// Input plan.
        input: Box<Plan>,
        /// Name of the generated identifier attribute.
        id_attr: String,
    },
    /// Equi-join `⋈` or re-nesting join (see [`PlanJoinKind`]). Empty key
    /// lists denote a cross product (every pair of rows matches).
    Join {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Join key attributes of the left input.
        left_key: Vec<String>,
        /// Join key attributes of the right input.
        right_key: Vec<String>,
        /// Inner or re-nesting.
        kind: PlanJoinKind,
        /// Physical strategy chosen by the optimizer.
        strategy: JoinStrategy,
    },
    /// Unnest `µ` of a bag-valued attribute: one row per element, a parent
    /// with an empty (or NULL) bag yields none. The paper's outer-unnest
    /// `µ̄` is not needed: the lowering mints parent ids with
    /// [`Plan::AddIndex`] before it unnests and re-attaches each level with
    /// [`Plan::renest`], which keeps the parents without children.
    Unnest {
        /// Input plan.
        input: Box<Plan>,
        /// The bag-valued attribute to flatten.
        bag_attr: String,
        /// Fields of the flattened elements are renamed to `alias.field`
        /// (non-tuple elements become `alias.__value`).
        alias: String,
    },
    /// Nest `Γ⊎` / `Γ+`.
    Nest {
        /// Input plan.
        input: Box<Plan>,
        /// Grouping attributes.
        key: Vec<String>,
        /// Attributes grouped or summed.
        values: Vec<String>,
        /// Bag-collecting or summing flavour.
        op: NestOp,
        /// The columns the grouping's shuffle hashes by — an ordered,
        /// non-empty subset of `key` the optimizer picks so that the output
        /// already sits where the next breaker up needs it (see
        /// [`crate::placement`]). Empty means the whole key.
        place_by: Vec<String>,
    },
    /// Duplicate elimination.
    Dedup {
        /// Input plan.
        input: Box<Plan>,
    },
    /// Additive union of two inputs with identical schemas.
    Union {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
    },
}

impl Plan {
    /// Scan of a named input (fields keep their original names).
    pub fn scan(name: impl Into<String>) -> Plan {
        Plan::Scan {
            name: name.into(),
            alias: None,
        }
    }

    /// Scan of a named input bound to an iteration variable: fields are
    /// renamed to `alias.field`, the flattened-stream convention.
    pub fn scan_as(name: impl Into<String>, alias: impl Into<String>) -> Plan {
        Plan::Scan {
            name: name.into(),
            alias: Some(alias.into()),
        }
    }

    /// Wraps this plan in a selection.
    pub fn select(self, predicate: ScalarExpr) -> Plan {
        Plan::Select {
            input: Box::new(self),
            predicate,
        }
    }

    /// Wraps this plan in a projection.
    pub fn project(self, columns: Vec<(String, ScalarExpr)>) -> Plan {
        Plan::Project {
            input: Box::new(self),
            columns,
        }
    }

    /// Wraps this plan in a projection that keeps the named columns as-is.
    pub fn project_columns(self, names: &[&str]) -> Plan {
        self.project(
            names
                .iter()
                .map(|n| (n.to_string(), ScalarExpr::col(*n)))
                .collect(),
        )
    }

    /// Wraps this plan in an [`Plan::Extend`] computing the given columns.
    pub fn extend(self, columns: Vec<(String, ScalarExpr)>) -> Plan {
        Plan::Extend {
            input: Box::new(self),
            columns,
        }
    }

    /// Wraps this plan in an [`Plan::AddIndex`] generating `id_attr`.
    pub fn add_index(self, id_attr: impl Into<String>) -> Plan {
        Plan::AddIndex {
            input: Box::new(self),
            id_attr: id_attr.into(),
        }
    }

    /// Joins this plan with `right` (strategy left to the optimizer).
    pub fn join(
        self,
        right: Plan,
        left_key: &[&str],
        right_key: &[&str],
        kind: PlanJoinKind,
    ) -> Plan {
        Plan::Join {
            left: Box::new(self),
            right: Box::new(right),
            left_key: left_key.iter().map(|s| s.to_string()).collect(),
            right_key: right_key.iter().map(|s| s.to_string()).collect(),
            kind,
            strategy: JoinStrategy::Auto,
        }
    }

    /// Unnests a bag-valued attribute, renaming the flattened element fields
    /// to `alias.field` (the lowering's `for var in x.bag`).
    pub fn unnest_as(self, bag_attr: impl Into<String>, alias: impl Into<String>) -> Plan {
        Plan::Unnest {
            input: Box::new(self),
            bag_attr: bag_attr.into(),
            alias: alias.into(),
        }
    }

    /// Wraps this plan in a bag-collecting nest `Γ⊎`.
    pub fn nest_bag(self, key: &[&str], values: &[&str], group_attr: impl Into<String>) -> Plan {
        Plan::Nest {
            input: Box::new(self),
            key: key.iter().map(|s| s.to_string()).collect(),
            values: values.iter().map(|s| s.to_string()).collect(),
            op: NestOp::Bag {
                group_attr: group_attr.into(),
            },
            place_by: Vec::new(),
        }
    }

    /// Wraps this plan in a summing nest `Γ+`.
    pub fn nest_sum(self, key: &[&str], values: &[&str]) -> Plan {
        Plan::Nest {
            input: Box::new(self),
            key: key.iter().map(|s| s.to_string()).collect(),
            values: values.iter().map(|s| s.to_string()).collect(),
            op: NestOp::Sum,
            place_by: Vec::new(),
        }
    }

    /// The **re-nesting join** `RenestJoin on parent_key = child_key as
    /// attr`: groups `child` by `child_key` into one bag of `values` per key
    /// (`Γ⊎ … as attr`) and hangs each group under the rows of this plan (the
    /// parent) whose `parent_key` matches it, as `attr` — `{}` where none
    /// does ([`PlanJoinKind::Renest`]). Every place a flat child stream goes
    /// back under its parent is this one node: each nesting level the
    /// unnesting algorithm compiles (both sides keyed by the minted parent
    /// id) and each dictionary unshredding folds into the rows that hold its
    /// labels (`attr` is the parent's key, the child's is `label`).
    pub fn renest(
        self,
        child: Plan,
        parent_key: &str,
        child_key: &str,
        values: Vec<String>,
        attr: &str,
    ) -> Plan {
        let grouped = Plan::Nest {
            input: Box::new(child),
            key: vec![child_key.to_string()],
            values,
            op: NestOp::Bag {
                group_attr: attr.to_string(),
            },
            place_by: Vec::new(),
        };
        let kind = PlanJoinKind::Renest {
            attr: attr.to_string(),
        };
        self.join(grouped, &[parent_key], &[child_key], kind)
    }

    /// Wraps this plan in duplicate elimination.
    pub fn dedup(self) -> Plan {
        Plan::Dedup {
            input: Box::new(self),
        }
    }

    /// Children of this node, in order.
    pub fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Scan { .. } | Plan::Unit | Plan::Empty => vec![],
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Extend { input, .. }
            | Plan::AddIndex { input, .. }
            | Plan::Unnest { input, .. }
            | Plan::Nest { input, .. }
            | Plan::Dedup { input } => vec![input],
            Plan::Join { left, right, .. } | Plan::Union { left, right } => vec![left, right],
        }
    }

    /// Names of all scanned inputs below (and including) this node.
    pub fn scanned_inputs(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.visit(&mut |p| {
            if let Plan::Scan { name, .. } = p {
                out.insert(name.clone());
            }
        });
        out
    }

    /// Pre-order traversal.
    pub fn visit(&self, f: &mut impl FnMut(&Plan)) {
        f(self);
        for c in self.children() {
            c.visit(f);
        }
    }

    /// Number of operators in the plan.
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }

    /// Number of operators of a particular shape, as judged by `pred`.
    pub fn count(&self, pred: impl Fn(&Plan) -> bool) -> usize {
        let mut n = 0;
        self.visit(&mut |p| {
            if pred(p) {
                n += 1;
            }
        });
        n
    }
}

/// True when a projection keeps columns under their own names and computes
/// nothing (`π` over `[a := a, b := b]`) — the shape of the optimizer's
/// pruning projections.
pub fn is_passthrough(columns: &[(String, ScalarExpr)]) -> bool {
    columns
        .iter()
        .all(|(n, e)| matches!(e, ScalarExpr::Col(c) if c == n))
}

/// One line of the rendered operator tree for `plan` (without children),
/// given the node's `parent`.
pub(crate) fn node_line(plan: &Plan, parent: Option<&Plan>) -> String {
    match plan {
        Plan::Scan { name, alias } => match alias {
            Some(a) => format!("Scan {name} as {a}"),
            None => format!("Scan {name}"),
        },
        Plan::Unit => "Unit".to_string(),
        Plan::Empty => "Empty".to_string(),
        Plan::Select { predicate, .. } => format!("Select {}", predicate.display()),
        Plan::Project { columns, input } => {
            let cols = columns
                .iter()
                .map(|(n, e)| {
                    if e == &ScalarExpr::col(n.clone()) {
                        n.clone()
                    } else {
                        format!("{n}:={}", e.display())
                    }
                })
                .collect::<Vec<_>>()
                .join(", ");
            // A pass-through projection where the optimizer puts its pruning
            // projections — directly above a source operator or directly
            // below a breaker input — is one: say so.
            let pruning = is_passthrough(columns)
                && (matches!(input.as_ref(), Plan::Scan { .. } | Plan::Unnest { .. })
                    || matches!(parent, Some(Plan::Join { .. } | Plan::Nest { .. })));
            if pruning {
                format!("Prune [{cols}]")
            } else {
                format!("Project [{cols}]")
            }
        }
        Plan::Extend { columns, .. } => format!(
            "Extend [{}]",
            columns
                .iter()
                .map(|(n, e)| format!("{n}:={}", e.display()))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        Plan::AddIndex { id_attr, .. } => format!("AddIndex {id_attr}"),
        Plan::Join {
            left_key,
            right_key,
            kind,
            strategy,
            ..
        } => {
            let keys = if left_key.is_empty() {
                "cross".to_string()
            } else {
                format!("on {} = {}", left_key.join(","), right_key.join(","))
            };
            let strategy = strategy.label();
            match kind {
                PlanJoinKind::Inner => format!("Join {keys} [{strategy}]"),
                PlanJoinKind::Renest { attr } => {
                    format!("RenestJoin {keys} as {attr} [{strategy}]")
                }
            }
        }
        Plan::Unnest {
            bag_attr, alias, ..
        } => format!("Unnest {bag_attr} as {alias}"),
        Plan::Nest {
            key,
            values,
            op,
            place_by,
            ..
        } => {
            let head = match op {
                NestOp::Bag { group_attr } => format!(
                    "NestBag key=[{}] values=[{}] as {group_attr}",
                    key.join(","),
                    values.join(",")
                ),
                NestOp::Sum => format!(
                    "NestSum key=[{}] values=[{}]",
                    key.join(","),
                    values.join(",")
                ),
            };
            if place_by.is_empty() {
                head
            } else {
                format!("{head} place by [{}]", place_by.join(","))
            }
        }
        Plan::Dedup { .. } => "Dedup".to_string(),
        Plan::Union { .. } => "Union".to_string(),
    }
}

/// Renders a plan as an indented operator tree (children below parents), in
/// the spirit of Figure 3. Pruning projections and chosen join strategies are
/// called out inline, which makes this the EXPLAIN rendering as well.
pub fn pretty_plan(plan: &Plan) -> String {
    fn go(plan: &Plan, parent: Option<&Plan>, depth: usize, out: &mut String) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&node_line(plan, parent));
        out.push('\n');
        for c in plan.children() {
            go(c, Some(plan), depth + 1, out);
        }
    }
    let mut out = String::new();
    go(plan, None, 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_plan() -> Plan {
        // The running example's standard plan skeleton (Figure 3).
        Plan::scan("COP")
            .add_index("copID")
            .unnest_as("corders", "co")
            .add_index("coID")
            .unnest_as("co.oparts", "op")
            .join(
                Plan::scan("Part"),
                &["op.pid"],
                &["pid"],
                PlanJoinKind::Inner,
            )
            .nest_sum(&["copID", "coID", "cname", "odate", "pname"], &["total"])
            .nest_bag(
                &["copID", "coID", "cname", "odate"],
                &["pname", "total"],
                "oparts",
            )
            .nest_bag(&["copID", "cname"], &["odate", "oparts"], "corders")
            .project_columns(&["cname", "corders"])
    }

    #[test]
    fn plan_builders_and_traversal() {
        let p = example_plan();
        assert_eq!(p.scanned_inputs().len(), 2);
        assert!(p.size() >= 8);
        assert_eq!(p.count(|n| matches!(n, Plan::Nest { .. })), 3);
        assert_eq!(p.count(|n| matches!(n, Plan::Unnest { .. })), 2);
    }

    #[test]
    fn pretty_plan_shows_operator_tree() {
        let s = pretty_plan(&example_plan());
        assert!(s.contains("Unnest corders as co"));
        assert!(s.contains("NestSum"));
        assert!(s.contains("Scan COP"));
        assert!(s.contains("Join on op.pid = pid [auto]"));
        // Children are indented deeper than parents.
        let proj_line = s.lines().next().unwrap();
        assert!(proj_line.starts_with("Project"));
    }

    #[test]
    fn pretty_plan_labels_strategies_and_aliases() {
        let p = Plan::scan_as("Part", "p").join(
            Plan::scan("Small"),
            &["p.pid"],
            &["pid"],
            PlanJoinKind::Inner,
        );
        let p = match p {
            Plan::Join {
                left,
                right,
                left_key,
                right_key,
                kind,
                ..
            } => Plan::Join {
                left,
                right,
                left_key,
                right_key,
                kind,
                strategy: JoinStrategy::Broadcast,
            },
            other => other,
        };
        let s = pretty_plan(&p);
        assert!(s.contains("[broadcast]"), "{s}");
        assert!(s.contains("Scan Part as p"), "{s}");
    }

    #[test]
    fn renest_is_one_join_over_the_grouped_child() {
        let p = Plan::scan("Top").renest(
            Plan::scan("Dict"),
            "orders",
            "label",
            vec!["odate".into()],
            "orders",
        );
        assert_eq!(p.size(), 4);
        let s = pretty_plan(&p);
        let lines: Vec<&str> = s.lines().map(str::trim).collect();
        assert_eq!(
            lines,
            [
                "RenestJoin on orders = label as orders [auto]",
                "Scan Top",
                "NestBag key=[label] values=[odate] as orders",
                "Scan Dict",
            ]
        );
    }
}
