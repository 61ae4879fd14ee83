//! Pipeline-breaker analysis: which plan operators fuse into a single
//! morsel-driven pass, and where a plan *must* materialize.
//!
//! A **row-local** operator (selection, projection, extension, id
//! assignment, unnest, scan renaming) consumes each input row independently:
//! a chain of them needs no shuffle and no barrier, so the executor fuses
//! every maximal chain into one batch-at-a-time closure and
//! drives it morsel-by-morsel over the source partitions (HyPer-style
//! pipelining). **Pipeline breakers** — joins, `Γ` groupings, dedup and union
//! — end a chain: they repartition or need all rows of a group before
//! emitting.
//!
//! [`fuse_chain`] performs the split; [`pretty_plan_pipelines`] is the
//! EXPLAIN rendering that marks each operator with the pipeline it belongs
//! to (`·p0`, `·p1`, …), so the plan output stays truthful about what
//! actually runs fused.

use crate::placement::{served_in_place, ScanPlacements};
use crate::plan::{node_line, JoinStrategy, Plan};

/// True for operators that process rows locally (no shuffle, no barrier) —
/// the members of fused pipelines.
pub fn is_row_local(plan: &Plan) -> bool {
    matches!(
        plan,
        Plan::Select { .. }
            | Plan::Project { .. }
            | Plan::Extend { .. }
            | Plan::AddIndex { .. }
            | Plan::Unnest { .. }
    )
}

/// True when a fused chain containing this operator must drive each
/// partition's morsels **sequentially**: unique-id assignment needs a
/// running per-partition row offset to number the partition's rows
/// `partition + row * stride` in order.
pub fn needs_sequential(plan: &Plan) -> bool {
    matches!(plan, Plan::AddIndex { .. })
}

/// Splits `plan` at its topmost pipeline: the maximal chain of row-local
/// operators ending at `plan`, in **execution order** (source side first),
/// plus the source sub-plan the chain consumes. The source is a pipeline
/// breaker, a scan or a constant; when `plan` itself is not row-local the
/// chain is empty and `plan` is its own source.
pub fn fuse_chain(plan: &Plan) -> (Vec<&Plan>, &Plan) {
    let mut chain = Vec::new();
    let mut cur = plan;
    while is_row_local(cur) {
        chain.push(cur);
        cur = match cur {
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Extend { input, .. }
            | Plan::AddIndex { input, .. }
            | Plan::Unnest { input, .. } => input,
            _ => unreachable!("row-local operators are unary"),
        };
    }
    chain.reverse();
    (chain, cur)
}

/// Short operator name used in pipeline labels and member lists.
pub fn pipeline_op_name(plan: &Plan) -> &'static str {
    match plan {
        Plan::Scan { .. } => "scan",
        Plan::Select { .. } => "select",
        Plan::Project { .. } => "project",
        Plan::Extend { .. } => "extend",
        Plan::AddIndex { .. } => "add_index",
        Plan::Unnest { .. } => "unnest",
        Plan::Unit => "unit",
        Plan::Empty => "empty",
        Plan::Join { .. } => "join",
        Plan::Nest { .. } => "nest",
        Plan::Dedup { .. } => "dedup",
        Plan::Union { .. } => "union",
    }
}

/// The stats label of a fused pipeline, e.g. `pipeline[scan+select+project]`.
pub fn pipeline_label(ops: &[String]) -> String {
    format!("pipeline[{}]", ops.join("+"))
}

/// Renders a plan like [`crate::pretty_plan`], additionally marking every
/// fused-pipeline member with its pipeline id (`·p0`, `·p1`, … in execution
/// order of the chains' *top* operators). An aliased or bare scan under a
/// chain belongs to that chain's pipeline (the executor fuses the scan
/// rename); breakers carry no marker — they are where the plan
/// materializes. A breaker input the plan already puts where the breaker
/// needs it — so that its shuffle does not run — is marked `[in place:
/// hashed by …]` ([`served_in_place`], given the placements `scans` of the
/// units computed before this one); under a join that may still decide to
/// broadcast, `[in place unless broadcast: …]`.
pub fn pretty_plan_pipelines(plan: &Plan, scans: &ScanPlacements) -> String {
    fn go(
        plan: &Plan,
        parent: Option<&Plan>,
        depth: usize,
        inherited: Option<usize>,
        next: &mut usize,
        scans: &ScanPlacements,
        out: &mut String,
    ) {
        let member = is_row_local(plan) || matches!(plan, Plan::Scan { .. });
        let pid = if member {
            Some(inherited.unwrap_or_else(|| {
                let id = *next;
                *next += 1;
                id
            }))
        } else {
            None
        };
        out.push_str(&"  ".repeat(depth));
        out.push_str(&node_line(plan, parent));
        if let Some(pid) = pid {
            out.push_str(&format!("  ·p{pid}"));
        }
        if let Some(cols) = parent.and_then(|p| served_in_place(p, plan, scans)) {
            // A grouping always shuffles what is not in place; a join whose
            // strategy is settled at run time may broadcast instead.
            let hedge = match parent {
                Some(Plan::Join { strategy, .. }) if *strategy != JoinStrategy::Shuffle => {
                    " unless broadcast"
                }
                _ => "",
            };
            out.push_str(&format!(
                "  [in place{hedge}: hashed by {}]",
                cols.join(",")
            ));
        }
        out.push('\n');
        for child in plan.children() {
            // A row-local operator extends its pipeline into its single
            // input (when that input is row-local or a scan); a breaker's
            // children start fresh pipelines.
            let pass = match (pid, is_row_local(plan)) {
                (Some(pid), true) if is_row_local(child) || matches!(child, Plan::Scan { .. }) => {
                    Some(pid)
                }
                _ => None,
            };
            go(child, Some(plan), depth + 1, pass, next, scans, out);
        }
    }
    let mut out = String::new();
    go(plan, None, 0, None, &mut 0, scans, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanJoinKind;

    fn chain_names(plan: &Plan) -> Vec<&'static str> {
        fuse_chain(plan)
            .0
            .into_iter()
            .map(pipeline_op_name)
            .collect()
    }

    #[test]
    fn fuse_chain_groups_row_local_ops_and_stops_at_breakers() {
        let plan = Plan::scan_as("R", "x")
            .select(crate::ScalarExpr::col("x.a"))
            .extend(vec![("y".into(), crate::ScalarExpr::col("x.b"))])
            .unnest_as("x.items", "it")
            .project_columns(&["x.a"]);
        let (chain, source) = fuse_chain(&plan);
        assert_eq!(
            chain
                .iter()
                .map(|p| pipeline_op_name(p))
                .collect::<Vec<_>>(),
            vec!["select", "extend", "unnest", "project"],
            "chain must be in execution order, source side first"
        );
        assert!(matches!(source, Plan::Scan { .. }));

        let joined = plan
            .clone()
            .join(Plan::scan("S"), &["x.a"], &["a"], PlanJoinKind::Inner);
        let above = joined.clone().select(crate::ScalarExpr::col("x.a"));
        let (chain, source) = fuse_chain(&above);
        assert_eq!(chain.len(), 1, "the join breaks the pipeline");
        assert!(matches!(source, Plan::Join { .. }));

        // A breaker is its own (empty-chain) source.
        let (chain, source) = fuse_chain(&joined);
        assert!(chain.is_empty());
        assert!(std::ptr::eq(source, &joined));
        assert_eq!(chain_names(&Plan::scan("R")), Vec::<&str>::new());
    }

    #[test]
    fn sequential_detection_flags_id_assigning_ops() {
        let p = Plan::scan("R").add_index("__id");
        assert!(needs_sequential(fuse_chain(&p).0[0]));
        let p = Plan::scan("R").unnest_as("items", "i");
        assert!(!needs_sequential(fuse_chain(&p).0[0]));
        let p = Plan::scan("R").select(crate::ScalarExpr::col("a"));
        assert!(!needs_sequential(fuse_chain(&p).0[0]));
    }

    #[test]
    fn pretty_plan_marks_pipeline_groups() {
        let plan = Plan::scan_as("R", "x")
            .select(crate::ScalarExpr::col("x.a"))
            .join(
                Plan::scan_as("S", "y").unnest_as("y.items", "it"),
                &["x.a"],
                &["y.a"],
                PlanJoinKind::Inner,
            )
            .project_columns(&["x.a"]);
        let s = pretty_plan_pipelines(&plan, &ScanPlacements::new());
        // The projection above the join is one pipeline; each join input is
        // its own; the join itself carries no marker.
        assert!(s.contains("Project [x.a]  ·p0"), "{s}");
        assert!(s.contains("Select x.a  ·p1"), "{s}");
        assert!(s.contains("Scan R as x  ·p1"), "{s}");
        assert!(s.contains("Unnest y.items as it  ·p2"), "{s}");
        assert!(s.contains("Scan S as y  ·p2"), "{s}");
        let join_line = s.lines().find(|l| l.contains("Join")).unwrap();
        assert!(!join_line.contains("·p"), "breakers carry no marker: {s}");
    }

    #[test]
    fn pipeline_labels_compose_member_ops() {
        assert_eq!(
            pipeline_label(&["scan".into(), "select".into(), "project".into()]),
            "pipeline[scan+select+project]"
        );
    }
}
