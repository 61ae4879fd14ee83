//! Hash placement as a plan property: which columns a plan's output is
//! hashed by, as far as the plan alone decides it.
//!
//! The engine's collections carry a *placement* — "the rows of partition `p`
//! hash to `p` by these columns" (`trance-dist`, `colops.rs`, "Placement") —
//! and a breaker skips the shuffle of an input whose placement already
//! serves it: the same key list for a join side, any subset of the key for a
//! grouping. Breakers set and consume placements inside the engine; this
//! module holds the plan-level half:
//!
//! * [`carried_column`] — the **one carry rule** per plan node: under which
//!   name, if any, a row-local operator's output still carries an input
//!   column unchanged. The executor applies it after every fused chain of
//!   row-local operators to keep or void the placement of
//!   what it produced, the optimizer reads it to look from a `Γ` up to the
//!   breaker that consumes it (`place_by`, see `optimize.rs`), and EXPLAIN
//!   reads it through [`plan_placement`];
//! * [`plan_placement`] / [`served_in_place`] — the static mirror of the
//!   engine's rules, for EXPLAIN's `[in place: hashed by …]` marks. It is
//!   conservative: a join whose strategy is decided at run time (`auto`,
//!   `skew`) or that broadcasts claims nothing for its output, so the run
//!   may find more in place than the marks say. Two run-time decisions can
//!   find less: an `auto` join that broadcasts moves neither side by key
//!   (its inputs are marked `unless broadcast`), and a skew-aware `Γ+` that
//!   finds heavy keys unions two aggregations, whose output is unplaced.
//!   The run's own count is the `shuffles_in_place` counter.

use std::collections::BTreeMap;

use crate::plan::{JoinStrategy, Plan, PlanJoinKind};
use crate::scalar::ScalarExpr;

/// Column `col` of `node`'s input as `node`'s output still carries it — the
/// same value in every row, possibly under a new name — or `None` when the
/// operator drops, overwrites or may overwrite it. Defined for the members
/// of fused pipelines (row-local operators and the scan rename); a breaker
/// carries nothing.
pub fn carried_column(node: &Plan, col: &str) -> Option<String> {
    let kept = |keep: bool| keep.then(|| col.to_string());
    match node {
        Plan::Scan { alias: Some(a), .. } => Some(format!("{a}.{col}")),
        Plan::Scan { alias: None, .. } | Plan::Select { .. } => kept(true),
        // The first output that is the column itself and is not redefined
        // by a later entry of the same projection.
        Plan::Project { columns, .. } => columns
            .iter()
            .enumerate()
            .find(|(i, (name, expr))| {
                matches!(expr, ScalarExpr::Col(c) if c == col)
                    && !columns[i + 1..].iter().any(|(later, _)| later == name)
            })
            .map(|(_, (name, _))| name.clone()),
        // An extension keeps every column it does not set.
        Plan::Extend { columns, .. } => kept(
            columns
                .iter()
                .all(|(name, expr)| name != col || matches!(expr, ScalarExpr::Col(c) if c == col)),
        ),
        Plan::AddIndex { id_attr, .. } => kept(id_attr != col),
        // An unnest consumes the bag and splices the element's attributes,
        // `alias.*`, over the parent's.
        Plan::Unnest {
            bag_attr, alias, ..
        } => {
            let spliced = col
                .strip_prefix(alias.as_str())
                .is_some_and(|rest| rest.starts_with('.'));
            kept(col != bag_attr && !spliced)
        }
        _ => None,
    }
}

/// What the plan alone says about where a plan's output rows sit: every
/// row, a NULL or absent lane hashed as NULL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanPlacement {
    /// The columns the rows are hashed by, in hash order.
    pub columns: Vec<String>,
}

impl PlanPlacement {
    /// True when a grouping by `key` finds every group in one partition.
    pub fn serves_grouping(&self, key: &[String]) -> bool {
        self.columns.iter().all(|c| key.contains(c))
    }

    /// True when a shuffle join keyed by `key` on this side finds the side's
    /// rows where it would send them.
    pub fn serves_join_side(&self, key: &[String]) -> bool {
        self.columns == key
    }
}

/// Placements of the named inputs a plan scans (earlier units of the same
/// program, as far as their plans decided them).
pub type ScanPlacements = BTreeMap<String, PlanPlacement>;

/// The placement of `plan`'s output that follows from the plan alone, given
/// the placements of what it scans.
pub fn plan_placement(plan: &Plan, scans: &ScanPlacements) -> Option<PlanPlacement> {
    match plan {
        Plan::Scan { name, .. } => carry(plan, scans.get(name).cloned()),
        Plan::Select { input, .. }
        | Plan::Project { input, .. }
        | Plan::Extend { input, .. }
        | Plan::AddIndex { input, .. }
        | Plan::Unnest { input, .. } => carry(plan, plan_placement(input, scans)),
        // A grouping that finds its input in place leaves it there; one that
        // shuffles hashes by `place_by`.
        Plan::Nest {
            input,
            key,
            place_by,
            ..
        } => Some(
            plan_placement(input, scans)
                .filter(|p| p.serves_grouping(key))
                .unwrap_or_else(|| PlanPlacement {
                    columns: if place_by.is_empty() { key } else { place_by }.clone(),
                }),
        )
        .filter(|p| !p.columns.is_empty()),
        // A shuffle join's output sits by its left key, unless the join can
        // overwrite a key column: an inner join lays the whole right row over
        // the left one, which is harmless only where a key's namesake is the
        // matching right key (equal values on a match); a re-nesting join
        // sets `attr` alone.
        Plan::Join {
            left_key,
            right_key,
            kind,
            strategy: JoinStrategy::Shuffle,
            ..
        } if !left_key.is_empty() => {
            let keeps_keys = match kind {
                PlanJoinKind::Inner => left_key == right_key,
                PlanJoinKind::Renest { attr } => !left_key.contains(attr),
            };
            keeps_keys.then(|| PlanPlacement {
                columns: left_key.clone(),
            })
        }
        _ => None,
    }
}

/// `placement` after the row-local `node`: every placed column must survive.
fn carry(node: &Plan, placement: Option<PlanPlacement>) -> Option<PlanPlacement> {
    let p = placement?;
    let carried = p.columns.iter().map(|c| carried_column(node, c));
    Some(PlanPlacement {
        columns: carried.collect::<Option<_>>()?,
    })
}

/// When `child` is an input of the breaker `parent` that the plan already
/// puts where the breaker needs it, the columns it is hashed by. For a join
/// this is the side's answer should the join shuffle: a `broadcast` join
/// moves nothing by key and is never marked.
pub fn served_in_place(parent: &Plan, child: &Plan, scans: &ScanPlacements) -> Option<Vec<String>> {
    let (grouping, key) = match parent {
        Plan::Nest { key, .. } => (true, key),
        Plan::Join {
            left,
            left_key,
            right_key,
            strategy,
            ..
        } if *strategy != JoinStrategy::Broadcast => {
            let is_left = std::ptr::eq(left.as_ref(), child);
            (false, if is_left { left_key } else { right_key })
        }
        _ => return None,
    };
    let placed = plan_placement(child, scans)?;
    let serves = match grouping {
        true => placed.serves_grouping(key),
        false => placed.serves_join_side(key),
    };
    serves.then_some(placed.columns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    /// The carry rule, node by node: (operator, input column, what the
    /// output carries it as).
    #[test]
    fn the_carry_rule_per_plan_node() {
        let col = ScalarExpr::col;
        let one = || ScalarExpr::constant(trance_nrc::Value::Int(1));
        let src = || Plan::scan("R");
        let cases: Vec<(&str, Plan, &str, Option<&str>)> = vec![
            (
                "scan alias renames",
                Plan::scan_as("R", "x"),
                "k",
                Some("x.k"),
            ),
            ("bare scan keeps", src(), "k", Some("k")),
            ("select keeps", src().select(col("a")), "k", Some("k")),
            (
                "project renames",
                src().project(vec![("id".into(), col("k")), ("v".into(), col("a"))]),
                "k",
                Some("id"),
            ),
            ("project drops", src().project_columns(&["a"]), "k", None),
            (
                "project computes over the column",
                src().project(vec![("k".into(), one())]),
                "k",
                None,
            ),
            (
                "project redefines the first copy, keeps the second",
                src().project(vec![
                    ("a".into(), col("k")),
                    ("b".into(), col("k")),
                    ("a".into(), one()),
                ]),
                "k",
                Some("b"),
            ),
            (
                "extend of another column keeps",
                src().extend(vec![("v".into(), col("k"))]),
                "k",
                Some("k"),
            ),
            (
                "extend overwrites",
                src().extend(vec![("k".into(), one())]),
                "k",
                None,
            ),
            (
                "extend sets the column to itself",
                src().extend(vec![("k".into(), col("k"))]),
                "k",
                Some("k"),
            ),
            ("add_index keeps", src().add_index("__id"), "k", Some("k")),
            (
                "add_index mints the column",
                src().add_index("k"),
                "k",
                None,
            ),
            (
                "unnest keeps a parent column",
                src().unnest_as("items", "i"),
                "k",
                Some("k"),
            ),
            (
                "unnest consumes the bag",
                src().unnest_as("items", "i"),
                "items",
                None,
            ),
            (
                "unnest splices alias.* over the parent",
                src().unnest_as("items", "i"),
                "i.k",
                None,
            ),
            (
                "a prefix that is not the alias survives",
                src().unnest_as("items", "i"),
                "id.k",
                Some("id.k"),
            ),
            ("a breaker carries nothing", src().dedup(), "k", None),
        ];
        for (what, node, input, want) in cases {
            assert_eq!(
                carried_column(&node, input).as_deref(),
                want,
                "{what}: {input} through\n{}",
                crate::pretty_plan(&node)
            );
        }
    }

    #[test]
    fn a_grouping_keeps_an_input_placement_it_can_use_and_sets_its_own_otherwise() {
        let scans = ScanPlacements::new();
        let sum = Plan::Nest {
            input: Box::new(Plan::scan("R")),
            key: cols(&["a", "b", "c"]),
            values: cols(&["v"]),
            op: crate::NestOp::Sum,
            place_by: cols(&["b"]),
        };
        let placed = |columns: &[&str]| PlanPlacement {
            columns: cols(columns),
        };
        assert_eq!(plan_placement(&sum, &scans), Some(placed(&["b"])));
        // Through a prune and a rename the next grouping finds it in place.
        let renamed = sum.clone().project(vec![
            ("id".into(), ScalarExpr::col("b")),
            ("v".into(), ScalarExpr::col("v")),
        ]);
        let bag = renamed.clone().nest_bag(&["id"], &["v"], "vs");
        let Plan::Nest { input, .. } = &bag else {
            unreachable!()
        };
        assert_eq!(served_in_place(&bag, input, &scans), Some(cols(&["id"])));
        assert_eq!(plan_placement(&bag, &scans), Some(placed(&["id"])));
        // A grouping by other columns shuffles, and says by what.
        let other = renamed.nest_bag(&["v"], &["id"], "ids");
        let Plan::Nest { input, .. } = &other else {
            unreachable!()
        };
        assert_eq!(served_in_place(&other, input, &scans), None);
        assert_eq!(plan_placement(&other, &scans), Some(placed(&["v"])));
        // An input scanned from an earlier unit brings that unit's placement.
        let mut scans = ScanPlacements::new();
        scans.insert("D".into(), placed(&["label"]));
        let regroup = Plan::scan_as("D", "d").nest_bag(&["d.label"], &["d.v"], "g");
        let Plan::Nest { input, .. } = &regroup else {
            unreachable!()
        };
        assert_eq!(
            served_in_place(&regroup, input, &scans),
            Some(cols(&["d.label"]))
        );
    }

    #[test]
    fn only_a_planned_shuffle_join_claims_a_placement_covering_every_row() {
        let scans = ScanPlacements::new();
        let join = |kind, strategy| Plan::Join {
            left: Box::new(Plan::scan("L")),
            right: Box::new(Plan::scan("R").nest_bag(&["id"], &["v"], "vs")),
            left_key: cols(&["id"]),
            right_key: cols(&["id"]),
            kind,
            strategy,
        };
        let renest = |attr: &str| PlanJoinKind::Renest { attr: attr.into() };
        for strategy in [
            JoinStrategy::Auto,
            JoinStrategy::Skew,
            JoinStrategy::Broadcast,
        ] {
            assert_eq!(
                plan_placement(&join(PlanJoinKind::Inner, strategy), &scans),
                None
            );
            assert_eq!(plan_placement(&join(renest("vs"), strategy), &scans), None);
        }
        let id = Some(PlanPlacement {
            columns: cols(&["id"]),
        });
        let inner = join(PlanJoinKind::Inner, JoinStrategy::Shuffle);
        assert_eq!(plan_placement(&inner, &scans), id);
        // Every row of a re-nesting join is placed, invalid keys included:
        // a grouping by its key finds it in place.
        let placed = plan_placement(&join(renest("vs"), JoinStrategy::Shuffle), &scans);
        assert_eq!(placed, id);
        assert!(placed.is_some_and(|p| p.serves_grouping(&cols(&["id", "x"]))));
        // A re-nesting join that sets its own key column claims nothing.
        let over_key = join(renest("id"), JoinStrategy::Shuffle);
        assert_eq!(plan_placement(&over_key, &scans), None);
        // The grouped right side is in place unless the join broadcasts.
        for (strategy, want) in [
            (JoinStrategy::Auto, Some(cols(&["id"]))),
            (JoinStrategy::Shuffle, Some(cols(&["id"]))),
            (JoinStrategy::Broadcast, None),
        ] {
            let j = join(renest("vs"), strategy);
            let Plan::Join { left, right, .. } = &j else {
                unreachable!()
            };
            assert_eq!(served_in_place(&j, right, &scans), want);
            assert_eq!(served_in_place(&j, left, &scans), None);
        }
    }
}
