//! Out-of-core correctness: with the spill subsystem enabled, memory-capped
//! runs must produce results **identical** to uncapped in-memory runs and to
//! `nrc::eval` — on every strategy and across the seeded random NRC program
//! suite — while the same cap with spilling disabled
//! still reproduces the paper's FAIL. Spill files must drain back to zero
//! once the runs' collections are gone.

use trance_compiler::{
    run_query, run_query_with, strategy_options, ExecOptions, QuerySpec, Strategy,
};
use trance_dist::{ClusterConfig, DistContext};
use trance_nrc::builder::{
    and, cmp_eq, forin, group_by, ifthen, mul, proj, singleton, sum_by, tuple, var,
};
use trance_nrc::Value;
use trance_shred::ShreddedInputDecl;

mod common;
use common::{
    assert_bags_approx_eq, cop_structure, cop_value, input_set, outcome_bag, part_value,
    random_case, reference_bag, running_example, Watchdog,
};

/// A spill-capable cluster with a cap small enough that the flattening
/// strategies go out-of-core on the running example. `TRANCE_WORKERS`
/// overrides the worker count (the CI matrix knob) — the assertions here are
/// differential, so they must hold at any pool size.
fn capped_ctx(worker_memory: usize) -> DistContext {
    DistContext::new(
        ClusterConfig::new(3, 8)
            .with_broadcast_limit(64)
            .with_worker_memory(worker_memory)
            .with_spill()
            .with_env_workers(),
    )
}

fn uncapped_ctx() -> DistContext {
    DistContext::new(
        ClusterConfig::new(3, 8)
            .with_broadcast_limit(64)
            .with_env_workers(),
    )
}

#[test]
fn capped_spill_runs_match_uncapped_on_every_strategy() {
    let values = [("COP", cop_value(120), true), ("Part", part_value(), false)];
    let spec = QuerySpec::new(
        "running-example",
        running_example(),
        vec![ShreddedInputDecl::new("COP", cop_structure())],
    );

    let reference = reference_bag(&spec.query, &values);
    let uncapped = input_set(uncapped_ctx(), &values);
    let capped = input_set(capped_ctx(12 * 1024), &values);
    let mut spilled_somewhere = false;
    for strategy in Strategy::all() {
        let expected = outcome_bag(
            &run_query(&spec, &uncapped, strategy).result,
            &format!("uncapped {}", strategy.label()),
        );
        assert_bags_approx_eq(
            &reference,
            &expected,
            &format!(
                "strategy {}: uncapped oracle vs reference",
                strategy.label()
            ),
        );
        let outcome = run_query(&spec, &capped, strategy);
        let produced = outcome_bag(
            &outcome.result,
            &format!("capped+spill {}", strategy.label()),
        );
        spilled_somewhere |= outcome.stats.spilled_bytes > 0;
        assert_bags_approx_eq(
            &expected,
            &produced,
            &format!(
                "strategy {}: capped spill run vs uncapped oracle",
                strategy.label()
            ),
        );
    }
    assert!(
        spilled_somewhere,
        "the cap is meant to force at least one strategy out-of-core"
    );

    // The same cap with spilling off must still reproduce the paper's FAIL
    // for the flattening strategy (SPARKSQL-LIKE drags wide rows through
    // every shuffle).
    let spill_off = ExecOptions {
        spill: false,
        ..strategy_options(Strategy::Baseline, false)
    };
    let outcome = run_query_with(&spec, &capped, Strategy::Baseline, &spill_off);
    assert!(
        outcome.result.is_failure(),
        "spill off on the capped cluster must FAIL like the paper"
    );

    // Once every run's collections are dropped, no spill file may remain.
    drop(uncapped);
    if let Some(dir) = capped.context().spill_dir() {
        drop(capped);
        assert!(
            !dir.exists(),
            "dropping the context must remove the scoped spill directory"
        );
    }
}

#[test]
fn capped_string_and_two_column_keys_match_uncapped() {
    // Grace salting and the spilling Γ read the same key-hash vector as the
    // resident operators. Every other cell here keys on one integer column;
    // this one joins on a two-column string key (sku, region), sums by a
    // two-column key (store, region) and groups by a string key (store), so
    // the per-dictionary-entry hashes and the threaded multi-column hasher
    // both go out-of-core.
    let sales: Vec<Value> = (0..600)
        .map(|i| {
            Value::tuple([
                ("store", Value::str(format!("store-{:02}", i % 13))),
                ("sku", Value::str(format!("sku-{:03}", i % 41))),
                ("region", Value::str(["north", "south", "east"][i % 3])),
                ("qty", Value::Int((i % 7) as i64 + 1)),
            ])
        })
        .collect();
    let prices: Vec<Value> = (0..41 * 3)
        .map(|i| {
            Value::tuple([
                ("sku", Value::str(format!("sku-{:03}", i % 41))),
                ("region", Value::str(["north", "south", "east"][i / 41])),
                ("price", Value::Real(1.0 + (i % 17) as f64 * 0.25)),
            ])
        })
        .collect();
    let query = group_by(
        sum_by(
            forin(
                "s",
                var("Sales"),
                forin(
                    "p",
                    var("Prices"),
                    ifthen(
                        and(
                            cmp_eq(proj(var("s"), "sku"), proj(var("p"), "sku")),
                            cmp_eq(proj(var("s"), "region"), proj(var("p"), "region")),
                        ),
                        singleton(tuple([
                            ("store", proj(var("s"), "store")),
                            ("region", proj(var("s"), "region")),
                            ("total", mul(proj(var("s"), "qty"), proj(var("p"), "price"))),
                        ])),
                    ),
                ),
            ),
            &["store", "region"],
            &["total"],
        ),
        &["store"],
        "regions",
    );
    let values = [
        ("Sales", Value::bag(sales), false),
        ("Prices", Value::bag(prices), false),
    ];
    let expected = reference_bag(&query, &values);
    assert_eq!(expected.len(), 13);

    let spec = QuerySpec::new("string-keys", query, vec![]);
    let uncapped = input_set(uncapped_ctx(), &values);
    let capped = input_set(capped_ctx(4 * 1024), &values);
    for strategy in [Strategy::Standard, Strategy::Baseline] {
        let context = format!("string keys under {}", strategy.label());
        let resident = run_query(&spec, &uncapped, strategy);
        let resident_bag = outcome_bag(&resident.result, &format!("uncapped {context}"));
        assert_bags_approx_eq(&expected, &resident_bag, &format!("uncapped {context}"));
        assert!(
            resident.stats.shuffle_joins > 0,
            "{context}: the two-column join is meant to shuffle"
        );

        let spilled = run_query(&spec, &capped, strategy);
        let spilled_bag = outcome_bag(&spilled.result, &format!("capped {context}"));
        assert!(
            spilled.stats.spilled_bytes > 0,
            "{context}: the cap is meant to force the run out-of-core"
        );
        assert_bags_approx_eq(&resident_bag, &spilled_bag, &format!("capped {context}"));
        // Same hash, same partition assignment, same shuffled rows.
        assert_eq!(
            spilled.stats.shuffled_tuples, resident.stats.shuffled_tuples,
            "{context}: spilling must not change what is shuffled"
        );
        assert_eq!(spilled.stats.shuffled_bytes, resident.stats.shuffled_bytes);
    }
}

#[test]
fn capped_pipelined_fail_cells_match_their_uncapped_oracles() {
    // The spill × pipeline interaction the capped benchmark cells rely on:
    // on the FAIL-cell strategies (the flattening routes that exceed the
    // cap), a memory-capped pipelined run with spilling on must match the
    // uncapped run and `nrc::eval`. Fused pipelines stream through the same
    // spill-aware PartBuilder sinks as the breakers, so going out-of-core
    // mid-pipeline must not change a single row.
    let values = [("COP", cop_value(120), true), ("Part", part_value(), false)];
    let spec = QuerySpec::new(
        "running-example",
        running_example(),
        vec![ShreddedInputDecl::new("COP", cop_structure())],
    );
    let reference = reference_bag(&spec.query, &values);
    let uncapped = input_set(uncapped_ctx(), &values);
    let capped = input_set(capped_ctx(12 * 1024), &values);
    let mut spilled_somewhere = false;
    for strategy in [Strategy::Standard, Strategy::Baseline] {
        // Uncapped: the oracle, itself held to the reference evaluator.
        let oracle = run_query(&spec, &uncapped, strategy);
        let oracle_bag = outcome_bag(&oracle.result, &format!("uncapped {}", strategy.label()));
        assert_bags_approx_eq(
            &reference,
            &oracle_bag,
            &format!("{}: uncapped oracle vs reference", strategy.label()),
        );
        // Pipelined, capped, spilling: must complete and agree.
        let capped_run = run_query(&spec, &capped, strategy);
        spilled_somewhere |= capped_run.stats.spilled_bytes > 0;
        let capped_bag = outcome_bag(
            &capped_run.result,
            &format!("capped pipelined {}", strategy.label()),
        );
        assert_bags_approx_eq(
            &oracle_bag,
            &capped_bag,
            &format!(
                "{}: capped pipelined run vs uncapped oracle",
                strategy.label()
            ),
        );
    }
    assert!(
        spilled_somewhere,
        "the cap is meant to force the pipelined runs out-of-core"
    );
    // Spill files of the pipelined runs drain with their collections.
    if let Some(dir) = capped.context().spill_dir() {
        let ctx = capped.context().clone();
        drop(capped);
        assert_eq!(
            std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0),
            0,
            "pipelined spill files leaked"
        );
        drop(ctx);
        assert!(!dir.exists());
    }
}

#[test]
fn randomized_capped_spill_runs_match_uncapped_in_both_representations() {
    let _watchdog = Watchdog::arm(
        "spill_agree::randomized_capped",
        std::time::Duration::from_secs(600),
    );
    let mut spilled_somewhere = false;
    for seed in 0..24u64 {
        let (spec, values, expected) = random_case(seed);
        // A cap this small forces even the random programs' joins and
        // groupings out-of-core; spilling must keep them correct anyway.
        let capped = input_set(capped_ctx(2 * 1024), &values);

        for strategy in [Strategy::Standard, Strategy::Baseline] {
            let run = run_query(&spec, &capped, strategy);
            spilled_somewhere |= run.stats.spilled_bytes > 0;
            let bag = outcome_bag(
                &run.result,
                &format!("seed {seed} capped {}", strategy.label()),
            );
            assert_bags_approx_eq(
                &expected,
                &bag,
                &format!(
                    "seed {seed}: capped spill run vs reference under {}",
                    strategy.label()
                ),
            );
        }

        // All collections die with the input set: the scoped directory must
        // be empty (it is removed entirely when the context drops).
        if let Some(dir) = capped.context().spill_dir() {
            let ctx = capped.context().clone();
            drop(capped);
            assert_eq!(
                std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0),
                0,
                "seed {seed}: spill files leaked"
            );
            drop(ctx);
            assert!(!dir.exists());
        }
    }
    assert!(
        spilled_somewhere,
        "the randomized capped suite is meant to exercise real spills"
    );
}
