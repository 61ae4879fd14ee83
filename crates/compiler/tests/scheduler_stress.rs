//! Scheduler-stress differential suite. Every row-local operator runs in a
//! fused morsel pipeline — there is one executor shape — so what fusing must
//! not change is held pipelined against pipelined: how the worker pool
//! slices a partition into morsels changes *when* rows materialise and
//! nothing else.
//!
//! * At a fixed partition count, every worker count yields the same rows in
//!   the same partition order — minted ids included, since they decide where
//!   every row derived from them is routed — and the same exact shuffle
//!   counters. With partitions at least twice the workers (1 and 2 workers
//!   over 8 partitions) each partition is one morsel; with fewer (7 workers
//!   over 8) a resident partition above `MORSEL_ROWS` rows splits into
//!   row-range morsels that run as independent, stealable tasks and a reorder
//!   buffer re-assembles in source order. The small corpora never reach that
//!   size; `split_morsels_reassemble_row_for_row` uses an input that does.
//! * A chain that mints ids never splits a partition, but a spilled one
//!   streams through it chunk by chunk, and its ids must run on across the
//!   chunks: `sequential_chains_number_spilled_partitions_across_chunks`.
//! * Across partition counts {1, 8, 13}, on every strategy, the running
//!   example and the seeded random NRC program suite, results are bag-equal
//!   to `nrc::eval` and so to each other.
//!
//! Odd worker counts and repeated runs shake out ordering and work-stealing
//! races.

use trance_compiler::{run_query, QuerySpec, RunOutcome, RunResult, Strategy};
use trance_dist::{ClusterConfig, DistContext};
use trance_nrc::builder::{cmp_eq, forin, ifthen, proj, singleton, tuple, var};
use trance_nrc::{Bag, Value};
use trance_shred::ShreddedInputDecl;

mod common;
use common::{
    assert_bags_approx_eq, cop_structure, cop_value, input_set, outcome_bag, part_value,
    random_case, reference_bag, running_example, CaseInput, Watchdog,
};

/// The stress suite pins its cluster shapes explicitly (it *is* the matrix),
/// so `TRANCE_WORKERS` is deliberately not consulted here.
fn ctx(workers: usize, partitions: usize) -> DistContext {
    DistContext::new(ClusterConfig::new(workers, partitions).with_broadcast_limit(64))
}

const WORKER_COUNTS: [usize; 3] = [1, 2, 7];
const PARTITION_COUNTS: [usize; 3] = [1, 8, 13];

/// A run's output rows, partition by partition: the nested rows, or a
/// shredded output's top bag followed by each dictionary in path order.
fn partition_rows(result: &RunResult, context: &str) -> Vec<Vec<Value>> {
    match result {
        RunResult::Nested(d) => d.partitions().to_vec(),
        RunResult::Shredded(out) => std::iter::once(&out.top)
            .chain(out.dicts.values())
            .flat_map(|d| d.partitions().to_vec())
            .collect(),
        RunResult::Failed(e) => panic!("{context}: run failed: {e}"),
    }
}

/// The exact shuffle counters of a run: tuples, logical and physical bytes,
/// shuffles answered in place, shuffle joins.
fn shuffle_counters(outcome: &RunOutcome) -> [u64; 5] {
    let s = &outcome.stats;
    [
        s.shuffled_tuples,
        s.shuffled_bytes,
        s.shuffled_bytes_phys,
        s.shuffles_in_place,
        s.shuffle_joins,
    ]
}

/// Asserts `run` equal to `first` row for row in partition order and in its
/// exact shuffle counters.
fn assert_same_run(first: &RunOutcome, run: &RunOutcome, context: &str) {
    assert!(
        partition_rows(&first.result, context) == partition_rows(&run.result, context),
        "{context}: rows or their partition order differ"
    );
    assert_eq!(
        shuffle_counters(first),
        shuffle_counters(run),
        "{context}: exact shuffle counters differ"
    );
}

/// Runs `spec` under every strategy at `partitions` partitions, once per
/// worker count, and asserts each run equal to the 1-worker run row for row
/// (minted ids included) and in its exact shuffle counters; the 1-worker
/// run's bag must equal the reference `expected`. `repeats` extra runs at
/// the last worker count guard against steal-order nondeterminism.
fn check_partition_count(
    spec: &QuerySpec,
    values: &[CaseInput],
    partitions: usize,
    expected: &Bag,
    repeats: usize,
    context: &str,
) {
    let inputs = WORKER_COUNTS.map(|workers| input_set(ctx(workers, partitions), values));
    for strategy in Strategy::all() {
        let tag = format!("{context} partitions={partitions} {}", strategy.label());
        let first = run_query(spec, &inputs[0], strategy);
        assert_bags_approx_eq(
            expected,
            &outcome_bag(&first.result, &tag),
            &format!("{tag}: workers=1 vs reference evaluator"),
        );
        for (i, workers) in WORKER_COUNTS.into_iter().enumerate().skip(1) {
            let runs = if i + 1 == WORKER_COUNTS.len() {
                1 + repeats
            } else {
                1
            };
            for rep in 0..runs {
                let run = run_query(spec, &inputs[i], strategy);
                assert_same_run(
                    &first,
                    &run,
                    &format!("{tag}: workers={workers} rep{rep} vs workers=1"),
                );
            }
        }
    }
}

fn running_example_spec() -> QuerySpec {
    QuerySpec::new(
        "running-example",
        running_example(),
        vec![ShreddedInputDecl::new("COP", cop_structure())],
    )
}

#[test]
fn running_example_agrees_across_workers_and_partition_counts() {
    let _watchdog = Watchdog::arm(
        "scheduler_stress::running_example",
        std::time::Duration::from_secs(600),
    );
    let spec = running_example_spec();
    let values = [("COP", cop_value(30), true), ("Part", part_value(), false)];
    let expected = reference_bag(&spec.query, &values);
    for partitions in PARTITION_COUNTS {
        check_partition_count(&spec, &values, partitions, &expected, 0, "running-example");
    }
}

#[test]
fn random_programs_agree_across_workers_and_partition_counts() {
    let _watchdog = Watchdog::arm(
        "scheduler_stress::random_programs",
        std::time::Duration::from_secs(600),
    );
    for seed in 0..24u64 {
        let (spec, values, expected) = random_case(seed);
        for partitions in PARTITION_COUNTS {
            check_partition_count(
                &spec,
                &values,
                partitions,
                &expected,
                1,
                &format!("seed {seed}"),
            );
        }
    }
}

/// `rows` line items, each referencing one of [`part_value`]'s 7 parts:
/// `<lk, pid, qty>`.
fn line_items(rows: i64) -> Value {
    let item = |i: i64| {
        Value::tuple([
            ("lk", Value::Int(i)),
            ("pid", Value::Int(i % 7)),
            ("qty", Value::Real((i % 5) as f64)),
        ])
    };
    Value::bag((0..rows).map(item).collect())
}

/// The reorder buffer at work. 36,000 line items each nest the part they
/// reference, so the plans' pipelines run over partitions of 4,500 rows and
/// more: 7 workers over 8 partitions split such a partition into a full
/// `MORSEL_ROWS` morsel and a short one, which finishes first whenever the
/// two run at once. Under every strategy the split run must really split —
/// some pipeline drives more morsels than it has partitions, where the
/// 2-worker run drives exactly one per partition — and equal the 2-worker
/// run row for row, minted ids included, and in its exact shuffle counters,
/// and equal `nrc::eval` of the same query.
#[test]
fn split_morsels_reassemble_row_for_row() {
    let _watchdog = Watchdog::arm(
        "scheduler_stress::split_morsels",
        std::time::Duration::from_secs(600),
    );
    const PARTITIONS: u64 = 8;
    const ROWS: i64 = 36_000;
    let l = || var("l");
    let parts = forin(
        "p",
        var("Part"),
        ifthen(
            cmp_eq(proj(var("p"), "pid"), proj(l(), "pid")),
            singleton(tuple([
                ("pname", proj(var("p"), "pname")),
                ("price", proj(var("p"), "price")),
            ])),
        ),
    );
    let query = forin(
        "l",
        var("L"),
        singleton(tuple([
            ("lk", proj(l(), "lk")),
            ("qty", proj(l(), "qty")),
            ("parts", parts),
        ])),
    );
    let values = [
        ("L", line_items(ROWS), false),
        ("Part", part_value(), false),
    ];
    let expected = reference_bag(&query, &values);
    let spec = QuerySpec::new("line-item-parts", query, vec![]);
    let unsplit = input_set(ctx(2, PARTITIONS as usize), &values);
    let split = input_set(ctx(7, PARTITIONS as usize), &values);
    let splits = |outcome: &RunOutcome| {
        outcome
            .stats
            .pipeline_timings
            .values()
            .filter(|t| t.morsels > t.calls * PARTITIONS)
            .count()
    };
    for strategy in Strategy::all() {
        let tag = strategy.label();
        let one_each = run_query(&spec, &unsplit, strategy);
        assert_eq!(splits(&one_each), 0, "{tag}: 2 workers split a partition");
        let sliced = run_query(&spec, &split, strategy);
        assert!(
            splits(&sliced) > 0 && sliced.stats.total_morsels() > one_each.stats.total_morsels(),
            "{tag}: no pipeline of the 7-worker run split a partition ({} morsels vs {})",
            sliced.stats.total_morsels(),
            one_each.stats.total_morsels()
        );
        assert_same_run(
            &one_each,
            &sliced,
            &format!("{tag}: split vs one morsel each"),
        );
        assert_bags_approx_eq(
            &expected,
            &outcome_bag(&sliced.result, tag),
            &format!("{tag}: split run vs nrc::eval"),
        );
    }
}

/// Customers, their orders and the orders' line items, flat: `C <ck>`,
/// `O <ok, ck>`, `L <ok, qty>`.
fn customer_orders_items() -> [CaseInput; 3] {
    let rows = |n: i64, row: &dyn Fn(i64) -> Value| Value::bag((0..n).map(row).collect());
    [
        (
            "C",
            rows(40, &|c| Value::tuple([("ck", Value::Int(c))])),
            false,
        ),
        (
            "O",
            rows(240, &|o| {
                Value::tuple([("ok", Value::Int(o)), ("ck", Value::Int(o * 7 % 40))])
            }),
            false,
        ),
        (
            "L",
            rows(960, &|l| {
                Value::tuple([
                    ("ok", Value::Int(l * 11 % 240)),
                    ("qty", Value::Real((l % 9) as f64)),
                ])
            }),
            false,
        ),
    ]
}

/// A sequential chain over a spilled partition: the partition streams in
/// chunks, one morsel each, and the morsel cursor must number its rows on
/// from chunk to chunk. Nesting orders under customers and line items under
/// orders mints an id per customer and per (customer, order) row; under a
/// cap the join feeding the second `AddIndex` spills frame by frame. Ids
/// restarted per chunk would be minted twice and merge two orders' items
/// into one group. At every worker count each strategy must go out of core
/// and equal `nrc::eval`, and the flattening routes must drive an id-minting
/// pipeline over more chunks than partitions.
#[test]
fn sequential_chains_number_spilled_partitions_across_chunks() {
    let _watchdog = Watchdog::arm(
        "scheduler_stress::spilled_ids",
        std::time::Duration::from_secs(600),
    );
    const PARTITIONS: u64 = 8;
    let items = forin(
        "l",
        var("L"),
        ifthen(
            cmp_eq(proj(var("l"), "ok"), proj(var("o"), "ok")),
            singleton(tuple([("qty", proj(var("l"), "qty"))])),
        ),
    );
    let orders = forin(
        "o",
        var("O"),
        ifthen(
            cmp_eq(proj(var("o"), "ck"), proj(var("c"), "ck")),
            singleton(tuple([("ok", proj(var("o"), "ok")), ("items", items)])),
        ),
    );
    let query = forin(
        "c",
        var("C"),
        singleton(tuple([("ck", proj(var("c"), "ck")), ("orders", orders)])),
    );
    let spec = QuerySpec::new("customer-orders-items", query, vec![]);
    let values = customer_orders_items();
    let expected = reference_bag(&spec.query, &values);
    for workers in WORKER_COUNTS {
        let capped = DistContext::new(
            ClusterConfig::new(workers, PARTITIONS as usize)
                .with_broadcast_limit(64)
                .with_worker_memory(4 * 1024)
                .with_spill(),
        );
        let inputs = input_set(capped, &values);
        for strategy in Strategy::all() {
            let tag = format!("workers={workers} {}", strategy.label());
            let run = run_query(&spec, &inputs, strategy);
            assert!(run.stats.spilled_bytes > 0, "{tag}: nothing spilled");
            assert_bags_approx_eq(
                &expected,
                &outcome_bag(&run.result, &tag),
                &format!("{tag}: capped run vs reference evaluator"),
            );
            let chunked_ids = run.stats.pipeline_timings.values().any(|t| {
                t.ops.iter().any(|op| op == "add_index") && t.morsels > t.calls * PARTITIONS
            });
            assert!(
                chunked_ids || strategy.is_shredded(),
                "{tag}: no id-minting pipeline streamed a spilled partition in chunks"
            );
        }
    }
}

#[test]
fn pipelined_runs_report_morsels_and_truthful_op_attribution() {
    // The stats contract the benches and `--explain` surface: a run reports
    // per-pipeline timings with member operator lists, and row-local time
    // never lands in a bare member-op bucket.
    let spec = running_example_spec();
    let inputs = input_set(
        ctx(3, 8),
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
    // Row-local operators are members of fused chains, never entries of
    // their own.
    for fused_member in ["map", "filter", "flat_map"] {
        assert!(
            !pipelined.stats.op_timings.contains_key(fused_member),
            "fused pipelines must not lump time into a bare `{fused_member}` bucket"
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
}
