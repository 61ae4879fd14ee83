//! Cross-strategy correctness: every compilation strategy (standard,
//! SparkSQL-like baseline, shredded, shredded+unshredded, and their skew-aware
//! variants) must produce the same result as the local reference evaluator
//! (`nrc::eval`) on the paper's query families; the serving layer's prepared
//! cold and warm paths are held to the one-shot run — and so to the
//! reference — on every query/strategy pair too. A seeded random NRC program
//! generator widens the net beyond the hand-written queries.

use std::collections::{BTreeMap, HashMap};

use trance_compiler::{
    prepare_and_run, run_prepared, run_query, run_query_explained, strategy_options, InputSet,
    QuerySpec, RunResult, Strategy,
};
use trance_dist::{ClusterConfig, DistCollection, DistContext, StatsSnapshot};
use trance_nrc::builder::*;
use trance_nrc::Value;
use trance_shred::ShreddedInputDecl;

mod common;
use common::{
    assert_bags_approx_eq, canonical, cop_structure, cop_value, input_set, outcome_bag, part_value,
    random_case, reference_bag, running_example, running_example_as, CaseInput,
};

fn ctx() -> DistContext {
    // `TRANCE_WORKERS` overrides the worker count (the CI matrix knob):
    // every assertion here is differential or reference-based, so it must
    // hold at any pool size.
    DistContext::new(
        ClusterConfig::new(3, 8)
            .with_broadcast_limit(64)
            .with_env_workers(),
    )
}

/// The counters that depend only on which plans ran over which partitions.
fn deterministic_counters(s: &StatsSnapshot) -> [u64; 7] {
    [
        s.shuffled_tuples,
        s.shuffled_bytes,
        s.shuffled_bytes_phys,
        s.shuffle_joins,
        s.broadcast_joins,
        s.skew_broadcast_joins,
        s.skew_fallback_joins,
    ]
}

fn check_all_strategies(spec: &QuerySpec, values: &[CaseInput]) {
    let expected = reference_bag(&spec.query, values);
    let inputs = input_set(ctx(), values);
    let ctx = inputs.context();
    for strategy in Strategy::all() {
        // Plan route (NRC → Plan → optimize → physical execution).
        let outcome = run_query(spec, &inputs, strategy);
        let produced = outcome_bag(&outcome.result, strategy.label());
        assert_eq!(
            canonical(&expected),
            canonical(&produced),
            "strategy {} disagrees with the reference evaluator for query {}",
            strategy.label(),
            spec.name
        );
        // The serving path is the same driver: a cold `prepare_and_run` and
        // a warm `run_prepared` over the same table store must reproduce
        // the one-shot run — same bag, same deterministic counters.
        let options = strategy_options(strategy, false);
        ctx.stats().reset();
        let (cold, prepared) = prepare_and_run(spec, &inputs, ctx, strategy, &options).unwrap();
        let cold_stats = ctx.stats().snapshot();
        ctx.stats().reset();
        let warm = run_prepared(&prepared, &inputs, ctx, &options).unwrap();
        let warm_stats = ctx.stats().snapshot();
        for (path, result, stats) in [("cold", cold, cold_stats), ("warm", warm, warm_stats)] {
            let bag = outcome_bag(&result, &format!("prepared {path} {}", strategy.label()));
            assert_eq!(
                canonical(&produced),
                canonical(&bag),
                "run_query and the prepared {path} path disagree under {} for query {}",
                strategy.label(),
                spec.name
            );
            assert_eq!(
                deterministic_counters(&outcome.stats),
                deterministic_counters(&stats),
                "run_query and the prepared {path} path count differently under {} for query {}",
                strategy.label(),
                spec.name
            );
        }
    }
}

#[test]
fn running_example_all_strategies_agree() {
    let spec = QuerySpec::new(
        "running-example",
        running_example(),
        vec![ShreddedInputDecl::new("COP", cop_structure())],
    );
    check_all_strategies(
        &spec,
        &[("COP", cop_value(12), true), ("Part", part_value(), false)],
    );
}

/// Skew-awareness is how the executor runs a join, not a plan: on the
/// running example a skew twin's EXPLAIN plan lines are its plain twin's
/// (the run's timings and counters, below the plans, are not compared).
#[test]
fn a_skew_twin_runs_its_plain_twins_plans() {
    let spec = QuerySpec::new(
        "running-example",
        running_example(),
        vec![ShreddedInputDecl::new("COP", cop_structure())],
    );
    let inputs = input_set(
        ctx(),
        &[("COP", cop_value(12), true), ("Part", part_value(), false)],
    );
    let plan_lines = |strategy: Strategy| -> Vec<String> {
        let (outcome, text) = run_query_explained(&spec, &inputs, strategy);
        outcome_bag(&outcome.result, strategy.label());
        text.lines()
            .skip(1)
            .take_while(|l| !(l.starts_with("-- ") && l.contains(": ")))
            .map(str::to_string)
            .collect()
    };
    for (plain, skew) in [
        (Strategy::Standard, Strategy::StandardSkew),
        (Strategy::ShredUnshred, Strategy::ShredUnshredSkew),
    ] {
        let plain_lines = plan_lines(plain);
        assert!(
            plain_lines.iter().any(|l| l.contains("Join on ")),
            "{} explains no join: {plain_lines:#?}",
            plain.label()
        );
        assert_eq!(
            plain_lines,
            plan_lines(skew),
            "{} and {} run different plans",
            plain.label(),
            skew.label()
        );
    }
}

/// Dictionary paths join attribute names with `_`, so an output bag
/// attribute that contains one itself (`c_orders`, `o_parts`: paths
/// `c_orders` and `c_orders_o_parts`) must be found by walking the nesting
/// structure — unshredding used to split the path and returned labels and
/// empty bags.
#[test]
fn underscored_bag_attributes_unshred_like_any_other() {
    let spec = QuerySpec::new(
        "running-example-underscored",
        running_example_as("c_orders", "o_parts"),
        vec![ShreddedInputDecl::new("COP", cop_structure())],
    );
    check_all_strategies(
        &spec,
        &[("COP", cop_value(12), true), ("Part", part_value(), false)],
    );
}

/// Where a parent has no children the regrouped level must come back as the
/// empty bag: the re-nesting join gives an unmatched parent `{}` on the
/// standard route and in the unshredding unit of SHRED+UNSHRED and
/// SHRED+UNSHRED-SKEW — a validity flip on a typed bag column, and a row-wise
/// build when the dictionary below is empty and its group column is not
/// bag-typed at all.
#[test]
fn childless_parents_come_back_with_empty_bags() {
    let spec = QuerySpec::new(
        "running-example-childless",
        running_example(),
        vec![ShreddedInputDecl::new("COP", cop_structure())],
    );
    let bags = |row: &Value, attr: &str| -> Vec<Value> {
        let bag = row.as_tuple().unwrap().get(attr).unwrap().as_bag().unwrap();
        bag.iter().cloned().collect()
    };

    // Customers without orders and orders without parts, next to ones that
    // have them.
    let some = [("COP", cop_value(12), true), ("Part", part_value(), false)];
    let expected = reference_bag(&spec.query, &some);
    let orders: Vec<Value> = expected.iter().flat_map(|c| bags(c, "corders")).collect();
    assert!(expected.iter().any(|c| bags(c, "corders").is_empty()));
    assert!(orders.iter().any(|o| bags(o, "oparts").is_empty()));
    assert!(orders.iter().any(|o| !bags(o, "oparts").is_empty()));
    check_all_strategies(&spec, &some);

    // No order has a part: the innermost input dictionary is empty.
    let no_parts = Value::bag(
        (0..9)
            .map(|c| {
                let orders = (0..c % 3).map(|o| {
                    Value::tuple([
                        ("odate", Value::Date(100 + o)),
                        ("oparts", Value::bag(vec![])),
                    ])
                });
                Value::tuple([
                    ("cname", Value::str(format!("c{c}"))),
                    ("corders", Value::bag(orders.collect())),
                ])
            })
            .collect(),
    );
    let none = [("COP", no_parts, true), ("Part", part_value(), false)];
    let expected = reference_bag(&spec.query, &none);
    let orders: Vec<Value> = expected.iter().flat_map(|c| bags(c, "corders")).collect();
    assert!(!orders.is_empty() && orders.iter().all(|o| bags(o, "oparts").is_empty()));
    check_all_strategies(&spec, &none);
}

#[test]
fn flat_to_nested_all_strategies_agree() {
    let query = forin(
        "c",
        var("Customer"),
        singleton(tuple([
            ("cname", proj(var("c"), "cname")),
            (
                "orders",
                forin(
                    "o",
                    var("Orders"),
                    ifthen(
                        cmp_eq(proj(var("o"), "ckey"), proj(var("c"), "ckey")),
                        singleton(tuple([
                            ("odate", proj(var("o"), "odate")),
                            (
                                "items",
                                forin(
                                    "l",
                                    var("Lineitem"),
                                    ifthen(
                                        cmp_eq(proj(var("l"), "okey"), proj(var("o"), "okey")),
                                        singleton(tuple([
                                            ("pid", proj(var("l"), "pid")),
                                            ("qty", proj(var("l"), "qty")),
                                        ])),
                                    ),
                                ),
                            ),
                        ])),
                    ),
                ),
            ),
        ])),
    );
    let customer = Value::bag(
        (0..10)
            .map(|c| {
                Value::tuple([
                    ("ckey", Value::Int(c)),
                    ("cname", Value::str(format!("c{c}"))),
                ])
            })
            .collect(),
    );
    let orders = Value::bag(
        (0..25)
            .map(|o| {
                Value::tuple([
                    ("okey", Value::Int(o)),
                    ("ckey", Value::Int(o % 10)),
                    ("odate", Value::Date(1000 + o)),
                ])
            })
            .collect(),
    );
    let lineitem = Value::bag(
        (0..60)
            .map(|l| {
                Value::tuple([
                    ("okey", Value::Int(l % 25)),
                    ("pid", Value::Int(l % 7)),
                    ("qty", Value::Real(1.0 + (l % 4) as f64)),
                ])
            })
            .collect(),
    );
    let spec = QuerySpec::new("flat-to-nested", query, vec![]);
    check_all_strategies(
        &spec,
        &[
            ("Customer", customer, false),
            ("Orders", orders, false),
            ("Lineitem", lineitem, false),
        ],
    );
}

#[test]
fn nested_to_flat_all_strategies_agree() {
    let query = sum_by(
        forin(
            "cop",
            var("COP"),
            forin(
                "co",
                proj(var("cop"), "corders"),
                forin(
                    "op",
                    proj(var("co"), "oparts"),
                    forin(
                        "p",
                        var("Part"),
                        ifthen(
                            cmp_eq(proj(var("op"), "pid"), proj(var("p"), "pid")),
                            singleton(tuple([
                                ("cname", proj(var("cop"), "cname")),
                                (
                                    "spent",
                                    mul(proj(var("op"), "qty"), proj(var("p"), "price")),
                                ),
                            ])),
                        ),
                    ),
                ),
            ),
        ),
        &["cname"],
        &["spent"],
    );
    let spec = QuerySpec::new(
        "nested-to-flat",
        query,
        vec![ShreddedInputDecl::new("COP", cop_structure())],
    );
    check_all_strategies(
        &spec,
        &[("COP", cop_value(15), true), ("Part", part_value(), false)],
    );
}

#[test]
fn memory_cap_produces_fail_outcomes() {
    // A tiny per-worker memory cap makes the flattening strategies fail with
    // MemoryExceeded — the engine-level reproduction of the paper's FAIL runs.
    let ctx = DistContext::new(
        ClusterConfig::new(2, 4)
            .with_worker_memory(2_000)
            .with_broadcast_limit(64),
    );
    let mut inputs = InputSet::new(ctx);
    inputs
        .add_nested("COP", cop_value(200).as_bag().unwrap().clone())
        .unwrap();
    inputs
        .add_flat("Part", part_value().as_bag().unwrap().clone())
        .unwrap();
    let spec = QuerySpec::new(
        "running-example",
        running_example(),
        vec![ShreddedInputDecl::new("COP", cop_structure())],
    );
    let outcome = run_query(&spec, &inputs, Strategy::Baseline);
    assert!(
        outcome.result.is_failure(),
        "baseline must hit the memory cap"
    );
}

/// Core NRC that the plan compiler rejects — `get`, and `if … else` over
/// bags (the list is in `trance_frontend`'s crate docs) — evaluates under
/// `nrc::eval` but ends every strategy in a failed run whose error names the
/// construct: a typed error, never a panic.
#[test]
fn core_nrc_the_plan_compiler_rejects_fails_typed_on_every_strategy() {
    let values = [("Part", part_value(), false)];
    let inputs = input_set(ctx(), &values);
    let first_price = forin(
        "p",
        var("Part"),
        singleton(tuple([
            ("pid", proj(var("p"), "pid")),
            ("first", get(singleton(proj(var("p"), "price")))),
        ])),
    );
    let either_branch = forin(
        "p",
        var("Part"),
        ifelse(
            cmp_gt(proj(var("p"), "price"), real(3.0)),
            singleton(tuple([("pid", proj(var("p"), "pid"))])),
            singleton(tuple([("pid", int(-1))])),
        ),
    );
    for (query, construct) in [(first_price, "Get("), (either_branch, "if-then-else")] {
        assert_eq!(reference_bag(&query, &values).len(), 7, "{construct}");
        let spec = QuerySpec::new(construct, query, vec![]);
        for strategy in Strategy::all() {
            match run_query(&spec, &inputs, strategy).result {
                RunResult::Failed(e) => assert!(
                    e.to_string().contains(construct),
                    "{}: the error must name `{construct}`: {e}",
                    strategy.label()
                ),
                _ => panic!("{} ran `{construct}`", strategy.label()),
            }
        }
    }
}

#[test]
fn shredded_strategy_reports_lower_shuffle_than_baseline_for_wide_rows() {
    // Wide nested rows: the baseline drags every attribute through the
    // shuffles while the shredded route only moves dictionary rows.
    let mut rows = Vec::new();
    for c in 0..40 {
        let orders: Vec<Value> = (0..6)
            .map(|o| {
                Value::tuple([
                    ("odate", Value::Date(o)),
                    (
                        "oparts",
                        Value::bag(
                            (0..8)
                                .map(|p| {
                                    Value::tuple([
                                        ("pid", Value::Int(p % 7)),
                                        ("qty", Value::Real(p as f64)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        rows.push(Value::tuple([
            ("cname", Value::str(format!("customer-{c}"))),
            ("comment", Value::str("x".repeat(120))),
            ("corders", Value::bag(orders)),
        ]));
    }
    let cop = Value::bag(rows);
    let ctx = DistContext::new(ClusterConfig::new(3, 8).with_broadcast_limit(64));
    let mut inputs = InputSet::new(ctx);
    inputs
        .add_nested("COP", cop.as_bag().unwrap().clone())
        .unwrap();
    inputs
        .add_flat("Part", part_value().as_bag().unwrap().clone())
        .unwrap();
    let spec = QuerySpec::new(
        "running-example",
        running_example(),
        vec![ShreddedInputDecl::new("COP", cop_structure())],
    );
    let shred = run_query(&spec, &inputs, Strategy::Shred);
    let baseline = run_query(&spec, &inputs, Strategy::Baseline);
    assert!(!shred.result.is_failure());
    assert!(!baseline.result.is_failure());
    assert!(
        shred.stats.shuffled_bytes < baseline.stats.shuffled_bytes,
        "shredded route should shuffle fewer bytes ({} vs {})",
        shred.stats.shuffled_bytes,
        baseline.stats.shuffled_bytes
    );
}

// ---------------------------------------------------------------------------
// seeded randomized NRC programs vs reference
// ---------------------------------------------------------------------------

#[test]
fn randomized_programs_match_the_reference_on_the_standard_family() {
    for seed in 0..24u64 {
        let (spec, values, expected) = random_case(seed);
        let inputs = input_set(ctx(), &values);
        for strategy in [
            Strategy::Standard,
            Strategy::Baseline,
            Strategy::StandardSkew,
        ] {
            let plan_out = match &run_query(&spec, &inputs, strategy).result {
                RunResult::Nested(d) => d.collect_bag(),
                other => panic!("seed {seed} {}: {other:?}", strategy.label()),
            };
            assert_bags_approx_eq(
                &expected,
                &plan_out,
                &format!(
                    "seed {seed}: plan route vs reference evaluator under {}",
                    strategy.label()
                ),
            );
        }
    }
}

#[test]
fn shadowed_let_bindings_execute_lexically_on_the_plan_route() {
    // let X = {pids} in (let X = {pids+100} in scan X) ∪ (scan X): the second
    // branch must read the OUTER binding (the plan route freshens assignment
    // names so a shared environment cannot confuse the two).
    let inner = trance_nrc::Expr::Let {
        var: "X".into(),
        value: Box::new(forin(
            "p",
            var("Part"),
            singleton(tuple([("u", add(proj(var("p"), "pid"), int(100)))])),
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
    let query = trance_nrc::Expr::Let {
        var: "X".into(),
        value: Box::new(forin(
            "p",
            var("Part"),
            singleton(tuple([("u", proj(var("p"), "pid"))])),
        )),
        body: Box::new(trance_nrc::Expr::Union(
            Box::new(inner),
            Box::new(outer_use),
        )),
    };
    let expected = reference_bag(&query, &[("Part", part_value(), false)]);
    let ctx = ctx();
    let mut inputs = InputSet::new(ctx);
    inputs
        .add_flat("Part", part_value().as_bag().unwrap().clone())
        .unwrap();
    let spec = QuerySpec::new("shadowed-lets", query, vec![]);
    let outcome = run_query(&spec, &inputs, Strategy::Standard);
    let produced = match &outcome.result {
        RunResult::Nested(d) => d.collect_bag(),
        other => panic!("{other:?}"),
    };
    assert_eq!(canonical(&expected), canonical(&produced));
}

#[test]
fn optimizer_reduces_standard_route_shuffle_volume() {
    // The SparkSQL-like baseline is the standard route with the optimizer
    // off: with it on, column pruning (at scans *and* unnests) must strictly
    // reduce the shuffled volume on wide nested rows.
    let mut rows = Vec::new();
    for c in 0..40 {
        let orders: Vec<Value> = (0..6)
            .map(|o| {
                Value::tuple([
                    ("odate", Value::Date(o)),
                    ("ocomment", Value::str("y".repeat(60))),
                    (
                        "oparts",
                        Value::bag(
                            (0..8)
                                .map(|p| {
                                    Value::tuple([
                                        ("pid", Value::Int(p % 7)),
                                        ("qty", Value::Real(p as f64)),
                                        ("note", Value::str("z".repeat(40))),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        rows.push(Value::tuple([
            ("cname", Value::str(format!("customer-{c}"))),
            ("comment", Value::str("x".repeat(120))),
            ("corders", Value::bag(orders)),
        ]));
    }
    let cop = Value::bag(rows);
    let ctx = DistContext::new(ClusterConfig::new(3, 8).with_broadcast_limit(64));
    let mut inputs = InputSet::new(ctx);
    inputs
        .add_nested("COP", cop.as_bag().unwrap().clone())
        .unwrap();
    inputs
        .add_flat("Part", part_value().as_bag().unwrap().clone())
        .unwrap();
    let spec = QuerySpec::new(
        "running-example",
        running_example(),
        vec![ShreddedInputDecl::new("COP", cop_structure())],
    );
    let standard = run_query(&spec, &inputs, Strategy::Standard);
    let baseline = run_query(&spec, &inputs, Strategy::Baseline);
    assert!(!standard.result.is_failure());
    assert!(!baseline.result.is_failure());
    assert!(
        standard.stats.shuffled_bytes < baseline.stats.shuffled_bytes,
        "optimizer on must shuffle strictly fewer bytes ({} vs {})",
        standard.stats.shuffled_bytes,
        baseline.stats.shuffled_bytes
    );
}

#[test]
fn columnar_representation_ships_fewer_physical_bytes_than_rows() {
    // A shuffle meters what it ships twice: the row-equivalent logical
    // volume (what the same rows would ship as heap values) and the exact
    // physical buffer bytes. On nested input the batches must ship strictly
    // fewer physical bytes (schema once per batch, typed vectors,
    // buffer-dictionary strings).
    let mut rows = Vec::new();
    for c in 0..40 {
        let orders: Vec<Value> = (0..6)
            .map(|o| {
                Value::tuple([
                    ("odate", Value::Date(o)),
                    (
                        "oparts",
                        Value::bag(
                            (0..8)
                                .map(|p| {
                                    Value::tuple([
                                        ("pid", Value::Int(p % 7)),
                                        ("qty", Value::Real(p as f64)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        rows.push(Value::tuple([
            ("cname", Value::str(format!("customer-{c}"))),
            ("corders", Value::bag(orders)),
        ]));
    }
    let cop = Value::bag(rows);
    let ctx = DistContext::new(ClusterConfig::new(3, 8).with_broadcast_limit(64));
    let mut inputs = InputSet::new(ctx);
    inputs
        .add_nested("COP", cop.as_bag().unwrap().clone())
        .unwrap();
    inputs
        .add_flat("Part", part_value().as_bag().unwrap().clone())
        .unwrap();
    let spec = QuerySpec::new(
        "running-example",
        running_example(),
        vec![ShreddedInputDecl::new("COP", cop_structure())],
    );
    let run = run_query(&spec, &inputs, Strategy::Standard);
    assert!(!run.result.is_failure());
    assert!(
        run.stats.shuffled_bytes > 0,
        "the query is meant to shuffle"
    );
    assert!(
        run.stats.shuffled_bytes_phys < run.stats.shuffled_bytes,
        "batches must ship strictly fewer physical bytes than their rows would ({} vs {})",
        run.stats.shuffled_bytes_phys,
        run.stats.shuffled_bytes
    );
}

#[test]
fn shredded_output_dictionaries_are_exposed() {
    let ctx = ctx();
    let mut inputs = InputSet::new(ctx);
    inputs
        .add_nested("COP", cop_value(10).as_bag().unwrap().clone())
        .unwrap();
    inputs
        .add_flat("Part", part_value().as_bag().unwrap().clone())
        .unwrap();
    let spec = QuerySpec::new(
        "running-example",
        running_example(),
        vec![ShreddedInputDecl::new("COP", cop_structure())],
    );
    let outcome = run_query(&spec, &inputs, Strategy::Shred);
    match outcome.result {
        RunResult::Shredded(out) => {
            let paths: Vec<&String> = out.dicts.keys().collect();
            assert_eq!(paths, vec!["corders", "corders_oparts"]);
            let mut sizes = BTreeMap::new();
            for (p, d) in &out.dicts {
                sizes.insert(p.clone(), d.len());
            }
            assert!(sizes["corders"] > 0);
        }
        other => panic!("expected shredded output, got {other:?}"),
    }
}

/// `part_value` with every price doubled and one part withdrawn — a changed
/// table to re-register under the same name.
fn repriced_parts() -> Value {
    Value::bag(
        (0..6)
            .map(|p| {
                Value::tuple([
                    ("pid", Value::Int(p)),
                    ("pname", Value::str(format!("part{p}"))),
                    ("price", Value::Real(1.0 + 2.0 * p as f64)),
                ])
            })
            .collect(),
    )
}

/// The table store's replacement rule, end to end: the first run over a set
/// counts exactly like the run after it; re-adding
/// a name (`add_flat` and `add_nested`) replaces the table, so every
/// strategy answers over the new rows; a clone taken before the replacement
/// keeps answering over the old ones.
#[test]
fn replaced_tables_are_seen_by_every_strategy_and_earlier_clones_keep_the_old_ones() {
    let spec = QuerySpec::new(
        "running-example",
        running_example(),
        vec![ShreddedInputDecl::new("COP", cop_structure())],
    );
    let (old_cop, old_part) = (cop_value(12), part_value());
    let (new_cop, new_part) = (cop_value(17), repriced_parts());
    let expected_old = reference_bag(
        &spec.query,
        &[
            ("COP", old_cop.clone(), true),
            ("Part", old_part.clone(), false),
        ],
    );
    let expected_new = reference_bag(
        &spec.query,
        &[
            ("COP", new_cop.clone(), true),
            ("Part", new_part.clone(), false),
        ],
    );
    assert_ne!(canonical(&expected_old), canonical(&expected_new));

    let load = |inputs: &mut InputSet, cop: &Value, part: &Value| {
        inputs
            .add_nested("COP", cop.as_bag().unwrap().clone())
            .unwrap();
        inputs
            .add_flat("Part", part.as_bag().unwrap().clone())
            .unwrap();
    };
    let mut inputs = InputSet::new(ctx());
    load(&mut inputs, &old_cop, &old_part);

    for strategy in Strategy::all() {
        // A fresh set per strategy, so each strategy gets a first run over
        // it: registering converted, so the first and second run count
        // identically.
        let mut fresh = InputSet::new(ctx());
        load(&mut fresh, &old_cop, &old_part);
        let first = run_query(&spec, &fresh, strategy);
        let second = run_query(&spec, &fresh, strategy);
        assert_eq!(
            deterministic_counters(&first.stats),
            deterministic_counters(&second.stats),
            "{}: the first and the second run count differently",
            strategy.label()
        );
        for (run, outcome) in [("first", &first), ("second", &second)] {
            assert_eq!(
                canonical(&expected_old),
                canonical(&outcome_bag(&outcome.result, strategy.label())),
                "{} ({run} run) disagrees with the reference evaluator",
                strategy.label()
            );
        }
        // Run the shared set too, so the replacement below has old tables
        // that served runs to get wrong.
        let first = run_query(&spec, &inputs, strategy);
        assert_eq!(
            canonical(&expected_old),
            canonical(&outcome_bag(&first.result, strategy.label()))
        );
    }

    let before = inputs.clone();
    load(&mut inputs, &new_cop, &new_part);
    for strategy in Strategy::all() {
        let replaced = run_query(&spec, &inputs, strategy);
        assert_eq!(
            canonical(&expected_new),
            canonical(&outcome_bag(&replaced.result, strategy.label())),
            "{} does not see the re-registered tables",
            strategy.label()
        );
        let kept = run_query(&spec, &before, strategy);
        assert_eq!(
            canonical(&expected_old),
            canonical(&outcome_bag(&kept.result, strategy.label())),
            "{}: a clone taken before the replacement must keep the old tables",
            strategy.label()
        );
    }
}

/// A registered table is its batches: every strategy answers from them, the
/// row accessors read back exactly the registered rows (a flat table in both
/// forms, a nested one in its nested form beside its shredded pieces), and a
/// name re-added afterwards replaces the table in both forms.
#[test]
fn a_set_answers_from_its_batches_and_reads_back_the_registered_rows() {
    let spec = QuerySpec::new(
        "running-example",
        running_example(),
        vec![ShreddedInputDecl::new("COP", cop_structure())],
    );
    let (cop, part) = (cop_value(12), part_value());
    let mut inputs = InputSet::new(ctx());
    inputs
        .add_nested("COP", cop.as_bag().unwrap().clone())
        .unwrap();
    inputs
        .add_flat("Part", part.as_bag().unwrap().clone())
        .unwrap();
    let read =
        |form: &HashMap<String, DistCollection>, name: &str| canonical(&form[name].collect_bag());
    assert_eq!(
        read(inputs.nested_inputs(), "COP"),
        canonical(cop.as_bag().unwrap())
    );
    for form in [inputs.nested_inputs(), inputs.shredded_inputs()] {
        assert_eq!(read(form, "Part"), canonical(part.as_bag().unwrap()));
    }
    assert!(inputs.shredded_inputs().contains_key("COP__F"));

    let expected = reference_bag(
        &spec.query,
        &[("COP", cop.clone(), true), ("Part", part, false)],
    );
    for strategy in Strategy::all() {
        let outcome = run_query(&spec, &inputs, strategy);
        assert_eq!(
            canonical(&expected),
            canonical(&outcome_bag(&outcome.result, strategy.label())),
            "{} over the registered batches disagrees with the reference evaluator",
            strategy.label()
        );
    }

    let repriced = repriced_parts();
    inputs
        .add_flat("Part", repriced.as_bag().unwrap().clone())
        .unwrap();
    for form in [inputs.nested_inputs(), inputs.shredded_inputs()] {
        assert_eq!(read(form, "Part"), canonical(repriced.as_bag().unwrap()));
    }
    let expected = reference_bag(
        &spec.query,
        &[("COP", cop, true), ("Part", repriced, false)],
    );
    for strategy in Strategy::all() {
        let outcome = run_query(&spec, &inputs, strategy);
        assert_eq!(
            canonical(&expected),
            canonical(&outcome_bag(&outcome.result, strategy.label())),
            "{} over a re-added table disagrees with the reference",
            strategy.label()
        );
    }
}

/// A grouping attribute that is overwritten between two groupings. The
/// inner `Γ+` is materialized and scanned as `t`, so its rows arrive hashed
/// by `[t.a, t.b]`; the tuple constructor then stores `t.b` under the name
/// `t.a` — an output attribute may be called what a stream column is called
/// — and the outer `Γ+` by `[t.a, t.b]` must move the rows: they sit where
/// the *old* `t.a` put them. (A carry rule under which a placement survives
/// the overwriting `Extend` fails here.)
#[test]
fn regrouping_by_an_overwritten_key_attribute_moves_the_rows() {
    let inner = sum_by(
        forin(
            "r",
            var("R"),
            singleton(tuple([
                ("a", proj(var("r"), "a")),
                ("b", proj(var("r"), "b")),
                ("n", int(1)),
            ])),
        ),
        &["a", "b"],
        &["n"],
    );
    let query = sum_by(
        forin(
            "t",
            inner,
            singleton(tuple([
                ("t.a", proj(var("t"), "b")),
                ("t.b", proj(var("t"), "b")),
                ("n", proj(var("t"), "n")),
            ])),
        ),
        &["t.a", "t.b"],
        &["n"],
    );
    let spec = QuerySpec::new("overwritten-key", query, vec![]);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
    let values = [("R", common::random_flat(&mut rng, 400, 9), false)];
    check_all_strategies(&spec, &values);
}
