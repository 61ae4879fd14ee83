//! Scheduler-stress differential suite: morsel-driven **pipelined** execution
//! must agree with the **staged** executor — bag-equal results, both equal
//! to `nrc::eval`, and identical logical shuffle volume — on every strategy
//! and the seeded random NRC program suite, at worker counts {1, 2, 7}. Odd
//! worker counts and repeated pipelined runs shake out ordering and
//! work-stealing races: stolen morsels are re-assembled in source order, so
//! not a byte may move differently.
//!
//! This suite is what keeps `ExecOptions::pipelined = false` alive. The
//! guarantee nothing else checks: fusing row-local operators into morsel
//! pipelines changes *when* rows are materialized and nothing else — the
//! staged executor, one materialization per plan operator, is the only
//! fusion-free execution of the same plans, so it alone can show that a
//! pipelined run shuffles the same tuples and bytes (a fused chain that
//! dropped or duplicated work could still return the right bag) and, with
//! `dist/tests/scheduler.rs`, that it yields the same rows in the same
//! partition order.

use trance_compiler::{
    run_query, run_query_with, strategy_options, ExecOptions, InputSet, QuerySpec, Strategy,
};
use trance_dist::{ClusterConfig, DistContext};
use trance_nrc::Bag;
use trance_shred::ShreddedInputDecl;

mod common;
use common::{
    assert_bags_approx_eq, cop_structure, cop_value, input_set, outcome_bag, part_value,
    random_case, reference_bag, running_example, Watchdog,
};

/// The stress suite pins its worker counts explicitly (it *is* the matrix),
/// so `TRANCE_WORKERS` is deliberately not consulted here.
fn ctx(workers: usize) -> DistContext {
    DistContext::new(ClusterConfig::new(workers, 8).with_broadcast_limit(64))
}

const WORKER_COUNTS: [usize; 3] = [1, 2, 7];

/// Runs `spec` pipelined and staged and asserts results bag-equal to each
/// other and to the reference `expected`, and identical logical shuffle
/// bytes; `repeats` extra pipelined runs guard against steal-order
/// nondeterminism.
fn check_pipelined_vs_staged(
    spec: &QuerySpec,
    inputs: &InputSet,
    strategy: Strategy,
    expected: &Bag,
    repeats: usize,
    context: &str,
) {
    let options = |pipelined| ExecOptions {
        pipelined,
        ..strategy_options(strategy, false)
    };
    let staged = run_query_with(spec, inputs, strategy, &options(false));
    let staged_bag = outcome_bag(&staged.result, &format!("{context} staged"));
    assert_bags_approx_eq(
        expected,
        &staged_bag,
        &format!("{context}: staged run vs reference evaluator"),
    );
    for rep in 0..=repeats {
        let pipelined = run_query_with(spec, inputs, strategy, &options(true));
        let pipelined_bag =
            outcome_bag(&pipelined.result, &format!("{context} pipelined rep{rep}"));
        assert_bags_approx_eq(
            &staged_bag,
            &pipelined_bag,
            &format!("{context} rep{rep}: pipelined vs staged results"),
        );
        assert_eq!(
            staged.stats.shuffled_bytes, pipelined.stats.shuffled_bytes,
            "{context} rep{rep}: fusion must not move a single extra logical shuffle byte"
        );
        assert_eq!(
            staged.stats.shuffled_tuples, pipelined.stats.shuffled_tuples,
            "{context} rep{rep}: shuffled tuple counts must match"
        );
    }
}

#[test]
fn running_example_pipelined_matches_staged_all_strategies_reprs_and_workers() {
    let _watchdog = Watchdog::arm(
        "scheduler_stress::running_example",
        std::time::Duration::from_secs(600),
    );
    let spec = QuerySpec::new(
        "running-example",
        running_example(),
        vec![ShreddedInputDecl::new("COP", cop_structure())],
    );
    let values = [("COP", cop_value(30), true), ("Part", part_value(), false)];
    let expected = reference_bag(&spec.query, &values);
    for workers in WORKER_COUNTS {
        let inputs = input_set(ctx(workers), &values);
        for strategy in Strategy::all() {
            check_pipelined_vs_staged(
                &spec,
                &inputs,
                strategy,
                &expected,
                0,
                &format!("running-example workers={workers} {}", strategy.label()),
            );
        }
    }
}

#[test]
fn random_programs_pipelined_matches_staged_all_strategies_reprs_and_workers() {
    let _watchdog = Watchdog::arm(
        "scheduler_stress::random_programs",
        std::time::Duration::from_secs(600),
    );
    for workers in WORKER_COUNTS {
        // Repeated pipelined runs only at the odd worker count, where steal
        // interleavings are most adversarial (keeps suite runtime sane).
        let repeats = if workers == 7 { 1 } else { 0 };
        for seed in 0..24u64 {
            let (spec, values, expected) = random_case(seed);
            let inputs = input_set(ctx(workers), &values);
            for strategy in Strategy::all() {
                check_pipelined_vs_staged(
                    &spec,
                    &inputs,
                    strategy,
                    &expected,
                    repeats,
                    &format!("seed {seed} workers={workers} {}", strategy.label()),
                );
            }
        }
    }
}

#[test]
fn pipelined_runs_report_morsels_and_truthful_op_attribution() {
    // The stats contract the benches and `--explain` surface: a pipelined
    // run reports per-pipeline timings with member operator lists; a staged
    // run reports none. Fused time never lands in a bare member-op bucket
    // that did not actually run staged.
    let spec = QuerySpec::new(
        "running-example",
        running_example(),
        vec![ShreddedInputDecl::new("COP", cop_structure())],
    );
    let inputs = input_set(
        ctx(3),
        &[("COP", cop_value(40), true), ("Part", part_value(), false)],
    );

    let pipelined = run_query(&spec, &inputs, Strategy::Standard);
    assert!(!pipelined.result.is_failure());
    assert!(
        !pipelined.stats.pipeline_timings.is_empty(),
        "a pipelined run must report per-pipeline timings"
    );
    assert!(pipelined.stats.total_morsels() > 0);
    for (label, timing) in &pipelined.stats.pipeline_timings {
        assert!(
            !timing.ops.is_empty(),
            "pipeline {label} must report its member operator list"
        );
        assert_eq!(
            label,
            &trance_algebra::pipeline_label(&timing.ops),
            "the label must be derived from the member list"
        );
        assert!(
            pipelined.stats.op_timings.contains_key(label),
            "pipeline {label} must appear in op_ms under its own label"
        );
    }
    // Row-local member operators of fused chains never show up as bare
    // staged entries on the pipelined run.
    for fused_member in ["map", "filter", "flat_map"] {
        assert!(
            !pipelined.stats.op_timings.contains_key(fused_member),
            "fused pipelines must not lump time into the staged `{fused_member}` bucket"
        );
    }
    // Expression kernels are compiled once per pipeline execution — at plan
    // time, before the first morsel — never once per morsel: across many
    // morsels the compile count stays bounded by the pipeline run count.
    let pipeline_runs: u64 = pipelined
        .stats
        .pipeline_timings
        .values()
        .map(|t| t.calls)
        .sum();
    let compiles = pipelined.stats.expr_compiles();
    assert!(
        compiles > 0,
        "a pipelined compiled run over expression chains must compile kernels"
    );
    assert!(
        compiles <= pipeline_runs * 4,
        "kernel compiles ({compiles}) must be bounded by pipeline executions \
         ({pipeline_runs}), not morsel count ({})",
        pipelined.stats.total_morsels()
    );

    let staged_options = ExecOptions {
        pipelined: false,
        ..strategy_options(Strategy::Standard, false)
    };
    let staged = run_query_with(&spec, &inputs, Strategy::Standard, &staged_options);
    assert!(!staged.result.is_failure());
    assert!(
        staged.stats.pipeline_timings.is_empty(),
        "a staged run must not report pipelines"
    );
    assert_eq!(staged.stats.total_morsels(), 0);
}
