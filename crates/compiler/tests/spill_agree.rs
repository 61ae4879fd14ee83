//! Out-of-core correctness: with the spill subsystem enabled, memory-capped
//! runs must produce results **identical** to uncapped in-memory runs — on
//! every strategy, on both physical representations, and across the seeded
//! random NRC program suite — while the same cap with spilling disabled
//! still reproduces the paper's FAIL. Spill files must drain back to zero
//! once the runs' collections are gone.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trance_compiler::{
    collect_unshredded, run_query, run_query_with, strategy_options, ExecOptions, InputSet,
    QuerySpec, RunResult, Strategy,
};
use trance_dist::{ClusterConfig, DistContext};
use trance_nrc::builder::{
    and, cmp_eq, forin, group_by, ifthen, mul, proj, singleton, sum_by, tuple, var,
};
use trance_nrc::{eval, Bag, Env, Value};
use trance_shred::ShreddedInputDecl;

mod common;
use common::{
    assert_bags_approx_eq, cop_structure, cop_value, part_value, random_flat, random_nested,
    random_query, running_example, Watchdog,
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

fn input_set(ctx: DistContext, values: &[(&str, Value, bool)]) -> InputSet {
    let mut inputs = InputSet::new(ctx);
    for (name, v, nested) in values {
        if *nested {
            inputs
                .add_nested(name, v.as_bag().unwrap().clone())
                .unwrap();
        } else {
            inputs.add_flat(name, v.as_bag().unwrap().clone()).unwrap();
        }
    }
    inputs
}

fn outcome_bag(result: &RunResult, context: &str) -> Bag {
    match result {
        RunResult::Nested(d) => d.collect_bag(),
        RunResult::Shredded(out) => collect_unshredded(out).unwrap(),
        RunResult::Failed(e) => panic!("{context}: run failed: {e}"),
    }
}

#[test]
fn capped_spill_runs_match_uncapped_on_every_strategy() {
    let values = [("COP", cop_value(120), true), ("Part", part_value(), false)];
    let spec = QuerySpec::new(
        "running-example",
        running_example(),
        vec![ShreddedInputDecl::new("COP", cop_structure())],
    );

    let uncapped = input_set(uncapped_ctx(), &values);
    let capped = input_set(capped_ctx(12 * 1024), &values);
    let mut spilled_somewhere = false;
    for strategy in Strategy::all() {
        let expected = outcome_bag(
            &run_query(&spec, &uncapped, strategy).result,
            &format!("uncapped {}", strategy.label()),
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
    let env = Env::from_bindings(values.iter().map(|(n, v, _)| (*n, v.clone())));
    let expected = eval(&query, &env).unwrap().into_bag().unwrap();
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
    // cap), a memory-capped **pipelined** run with spilling on must match
    // the uncapped staged oracle exactly — on both physical
    // representations. Fused pipelines stream through the same spill-aware
    // PartBuilder sinks as the staged operators, so going out-of-core
    // mid-pipeline must not change a single row.
    let values = [("COP", cop_value(120), true), ("Part", part_value(), false)];
    let spec = QuerySpec::new(
        "running-example",
        running_example(),
        vec![ShreddedInputDecl::new("COP", cop_structure())],
    );
    let uncapped = input_set(uncapped_ctx(), &values);
    let capped = input_set(capped_ctx(12 * 1024), &values);
    let mut spilled_somewhere = false;
    for strategy in [Strategy::Standard, Strategy::Baseline] {
        for columnar in [true, false] {
            let repr = if columnar { "columnar" } else { "row" };
            // Staged, uncapped: the oracle.
            let staged = ExecOptions {
                columnar,
                pipelined: false,
                ..strategy_options(strategy, false)
            };
            let oracle = run_query_with(&spec, &uncapped, strategy, &staged);
            let oracle_bag = outcome_bag(
                &oracle.result,
                &format!("uncapped staged {} {repr}", strategy.label()),
            );
            // Pipelined, capped, spilling: must complete and agree.
            let pipelined = ExecOptions {
                columnar,
                ..strategy_options(strategy, false)
            };
            let capped_run = run_query_with(&spec, &capped, strategy, &pipelined);
            spilled_somewhere |= capped_run.stats.spilled_bytes > 0;
            let capped_bag = outcome_bag(
                &capped_run.result,
                &format!("capped pipelined {} {repr}", strategy.label()),
            );
            assert_bags_approx_eq(
                &oracle_bag,
                &capped_bag,
                &format!(
                    "{} {repr}: capped pipelined run vs uncapped staged oracle",
                    strategy.label()
                ),
            );
        }
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
        let mut rng = StdRng::seed_from_u64(0xC0FFEE + seed);
        let r_rows = rng.gen_range(5..40usize);
        let s_rows = rng.gen_range(5..30usize);
        let n_rows = rng.gen_range(3..20usize);
        let r = random_flat(&mut rng, r_rows, 8);
        let s = random_flat(&mut rng, s_rows, 8);
        let n = random_nested(&mut rng, n_rows, 8);
        let query = random_query(&mut rng);

        let env = Env::from_bindings([("R", r.clone()), ("S", s.clone()), ("N", n.clone())]);
        let expected = eval(&query, &env).unwrap().into_bag().unwrap();

        let values = [("R", r, false), ("S", s, false), ("N", n, true)];
        // A cap this small forces even the random programs' joins and
        // groupings out-of-core; spilling must keep them correct anyway.
        let capped = input_set(capped_ctx(2 * 1024), &values);
        let spec = QuerySpec::new(format!("random-{seed}"), query, vec![]);

        for strategy in [Strategy::Standard, Strategy::Baseline] {
            // Columnar (default) representation under the cap.
            let col = run_query(&spec, &capped, strategy);
            spilled_somewhere |= col.stats.spilled_bytes > 0;
            let col_bag = outcome_bag(
                &col.result,
                &format!("seed {seed} capped columnar {}", strategy.label()),
            );
            assert_bags_approx_eq(
                &expected,
                &col_bag,
                &format!(
                    "seed {seed}: capped columnar spill run vs reference under {}",
                    strategy.label()
                ),
            );
            // Row-representation oracle under the same cap: the row engine
            // spills through the same machinery and must agree too.
            let row_route = ExecOptions {
                columnar: false,
                ..strategy_options(strategy, false)
            };
            let row = run_query_with(&spec, &capped, strategy, &row_route);
            let row_bag = outcome_bag(
                &row.result,
                &format!("seed {seed} capped row {}", strategy.label()),
            );
            assert_bags_approx_eq(
                &expected,
                &row_bag,
                &format!(
                    "seed {seed}: capped row spill run vs reference under {}",
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
