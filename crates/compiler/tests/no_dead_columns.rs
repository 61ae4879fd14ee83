//! No dead column at a breaker: what a join or a `Γ` ships is what somebody
//! reads.
//!
//! The paper's Narrow/Wide query variants measure how much of a parent's
//! width a compilation route drags through its joins and nests; the
//! optimizer's column pruning is what keeps the standard route from paying
//! for width nobody reads. This suite holds the *optimized plans* to that, as
//! a structural property: in every plan an optimizing strategy executes,
//! every attribute of a `Join` side's or a `Nest` input's known schema is
//! either the breaker's own key / value or read by some ancestor on the path
//! to the plan's root. Liveness is re-derived here from the operators'
//! operands, independently of `optimize.rs`, over every TPC-H family ×
//! {Narrow, Wide} × optimizing strategy and over the shared
//! [`common::random_case`] corpus — where every executed plan must also be a
//! fixpoint of the optimizer — and the byte volume it buys is pinned on the
//! Wide nested-to-nested cell.

use std::collections::{BTreeSet, HashMap};
use std::time::Duration;

use trance_algebra::{optimize_default, output_schema, Catalog, Plan};
use trance_compiler::{
    eval_plan_col, exact_schema_col, execute_via_plans_col, infer_catalog_col, run_query,
    strategy_options, CapturedPlans, ExecOptions, InputSet, QuerySpec, Strategy,
};
use trance_dist::{ClusterConfig, ColCollection, DistContext};
use trance_nrc::{eval, Env, Value};
use trance_shred::{shred_query, ShreddedInputDecl};
use trance_tpch::{
    flat_to_nested, generate, nested_to_flat, nested_to_nested, nesting_structure_for_depth,
    QueryVariant, TpchConfig,
};

mod common;
use common::{input_set, random_case, CaseInput, Watchdog};

fn ctx() -> DistContext {
    // A small broadcast limit, so that the fact-side joins really shuffle.
    DistContext::new(ClusterConfig::new(2, 8).with_broadcast_limit(4096))
}

/// Every strategy that runs the optimizer (the SparkSQL-like baseline is the
/// same route with it off, and ships dead columns by design).
fn optimizing_strategies() -> impl Iterator<Item = Strategy> {
    Strategy::all()
        .into_iter()
        .filter(|s| *s != Strategy::Baseline)
}

/// The attributes of `input`'s known output schema that are not in `live`.
fn dead(input: &Plan, live: &BTreeSet<String>, catalog: &Catalog) -> Vec<String> {
    output_schema(input, catalog)
        .attrs
        .into_iter()
        .filter(|a| !live.contains(a))
        .collect()
}

/// `read` plus the attributes an operator reads itself; "everything" stays
/// everything.
fn reading(
    read: Option<&BTreeSet<String>>,
    attrs: impl IntoIterator<Item = String>,
) -> Option<BTreeSet<String>> {
    read.map(|r| r.iter().cloned().chain(attrs).collect())
}

/// Walks `plan` top-down with `read` = what the ancestors of the node read
/// of its output (`None` = every attribute), derived from each operator's
/// own operands, and records every breaker input that ships an attribute
/// neither the breaker nor an ancestor reads.
fn find_dead_columns(
    plan: &Plan,
    read: Option<&BTreeSet<String>>,
    catalog: &Catalog,
    found: &mut Vec<String>,
) {
    let refs = |columns: &[(String, trance_algebra::ScalarExpr)]| -> Vec<String> {
        columns
            .iter()
            .flat_map(|(_, e)| e.referenced_columns())
            .collect()
    };
    match plan {
        Plan::Scan { .. } | Plan::Unit | Plan::Empty => {}
        Plan::Select { input, predicate } => {
            let read = reading(read, predicate.referenced_columns());
            find_dead_columns(input, read.as_ref(), catalog, found);
        }
        // Above a projection only its outputs exist; below it only what its
        // expressions name is read.
        Plan::Project { input, columns } => {
            let read = refs(columns).into_iter().collect();
            find_dead_columns(input, Some(&read), catalog, found);
        }
        Plan::Extend { input, columns } => {
            let read = reading(read, refs(columns));
            find_dead_columns(input, read.as_ref(), catalog, found);
        }
        Plan::AddIndex { input, .. } => find_dead_columns(input, read, catalog, found),
        Plan::Unnest {
            input, bag_attr, ..
        } => {
            let read = reading(read, [bag_attr.clone()]);
            find_dead_columns(input, read.as_ref(), catalog, found);
        }
        Plan::Join {
            left,
            right,
            left_key,
            right_key,
            ..
        } => {
            for (side, key) in [(left, left_key), (right, right_key)] {
                let read = reading(read, key.iter().cloned());
                if let Some(live) = &read {
                    for attr in dead(side, live, catalog) {
                        found.push(format!(
                            "`{attr}` on the {} side of the join on {}",
                            if std::ptr::eq(side, left) {
                                "left"
                            } else {
                                "right"
                            },
                            key.join(","),
                        ));
                    }
                }
                find_dead_columns(side, read.as_ref(), catalog, found);
            }
        }
        Plan::Nest {
            input, key, values, ..
        } => {
            let live: BTreeSet<String> = key.iter().chain(values).cloned().collect();
            for attr in dead(input, &live, catalog) {
                found.push(format!(
                    "`{attr}` into the nest by {} of {}",
                    key.join(","),
                    values.join(",")
                ));
            }
            find_dead_columns(input, Some(&live), catalog, found);
        }
        // Whole rows are compared or concatenated.
        Plan::Dedup { .. } | Plan::Union { .. } => {
            for child in plan.children() {
                find_dead_columns(child, None, catalog, found);
            }
        }
    }
}

/// Compiles and runs one program unit (`expr` over `env`) the way the
/// program driver does, checks every optimized plan it executed against the
/// catalog that plan was optimized under — the inputs' exact schemas plus
/// the unit's own materialized intermediates — and returns the unit's
/// output.
fn check_unit(
    expr: &trance_nrc::Expr,
    name: &str,
    env: &HashMap<String, ColCollection>,
    ctx: &DistContext,
    options: &ExecOptions,
    context: &str,
) -> ColCollection {
    let mut plans = CapturedPlans::new();
    let out = execute_via_plans_col(expr, env, ctx, options, name, Some(&mut plans))
        .unwrap_or_else(|e| panic!("{context}: unit {name} failed: {e}"));
    let mut catalog = infer_catalog_col(env).unwrap();
    let mut env = env.clone();
    let (root, intermediates) = plans.split_last().expect("a unit executes a root plan");
    for (plan_name, plan) in intermediates.iter().chain([root]) {
        let mut found = Vec::new();
        find_dead_columns(plan, None, &catalog, &mut found);
        assert!(
            found.is_empty(),
            "{context}: plan `{plan_name}` ships dead columns:\n  {}\n{}",
            found.join("\n  "),
            trance_algebra::pretty_plan(plan)
        );
        // Pruning below breakers must not cost the optimizer its fixpoint:
        // what it emitted, it leaves alone.
        assert_eq!(
            &optimize_default(plan, &catalog),
            plan,
            "{context}: plan `{plan_name}` is not a fixpoint of the optimizer"
        );
        if !std::ptr::eq(plan, &root.1) {
            let out = eval_plan_col(plan, &env, ctx, options).unwrap();
            catalog.register(plan_name.clone(), exact_schema_col(&out).unwrap());
            env.insert(plan_name.clone(), out);
        }
    }
    out
}

/// Checks every plan `strategy` executes for `spec` over `inputs`.
fn check_strategy(spec: &QuerySpec, inputs: &InputSet, strategy: Strategy, context: &str) {
    let ctx = inputs.context();
    let options = strategy_options(strategy, false);
    let context = format!("{context} {}", strategy.label());
    let mut env = inputs
        .resident(strategy.is_shredded())
        .unwrap()
        .batches(ctx);
    if !strategy.is_shredded() {
        check_unit(&spec.query, "result", &env, ctx, &options, &context);
        return;
    }
    let shredded = shred_query(&spec.query, &spec.nested_inputs).unwrap();
    for a in &shredded.program.assignments {
        let out = check_unit(&a.expr, &a.name, &env, ctx, &options, &context);
        env.insert(a.name.clone(), out);
    }
}

/// One TPC-H cell at depth 2 (Customer → Orders → Lineitem): the six flat
/// tables, plus — for the nested-to-* families — the materialized
/// flat-to-nested result as the nested input.
fn tpch_case(family: &str, variant: QueryVariant, scale: f64) -> (QuerySpec, Vec<CaseInput>) {
    const DEPTH: usize = 2;
    let data = generate(&TpchConfig::new(scale, 0));
    let mut values: Vec<CaseInput> = vec![
        ("Lineitem", Value::Bag(data.lineitem), false),
        ("Orders", Value::Bag(data.orders), false),
        ("Customer", Value::Bag(data.customer), false),
        ("Nation", Value::Bag(data.nation), false),
        ("Region", Value::Bag(data.region), false),
        ("Part", Value::Bag(data.part), false),
    ];
    let nested_decl = vec![ShreddedInputDecl::new(
        "Nested",
        nesting_structure_for_depth(DEPTH),
    )];
    let (query, decls) = match family {
        "flat-to-nested" => (flat_to_nested(DEPTH, variant), vec![]),
        "nested-to-nested" => (nested_to_nested(DEPTH, variant), nested_decl),
        "nested-to-flat" => (nested_to_flat(DEPTH, variant), nested_decl),
        other => panic!("unknown family {other}"),
    };
    if !decls.is_empty() {
        let env = Env::from_bindings(values.iter().map(|(n, v, _)| (*n, v.clone())));
        let nested = eval(&flat_to_nested(DEPTH, variant), &env).unwrap();
        values.push(("Nested", nested, true));
    }
    let spec = QuerySpec::new(format!("{family}-{variant:?}"), query, decls);
    (spec, values)
}

const FAMILIES: [&str; 3] = ["flat-to-nested", "nested-to-nested", "nested-to-flat"];

#[test]
fn no_tpch_plan_ships_a_dead_column_into_a_breaker() {
    let _watchdog = Watchdog::arm("no_dead_columns::tpch", Duration::from_secs(600));
    for family in FAMILIES {
        for variant in [QueryVariant::Narrow, QueryVariant::Wide] {
            let (spec, values) = tpch_case(family, variant, 0.02);
            let inputs = input_set(ctx(), &values);
            for strategy in optimizing_strategies() {
                check_strategy(&spec, &inputs, strategy, &spec.name);
            }
        }
    }
}

#[test]
fn no_random_program_ships_a_dead_column_into_a_breaker() {
    let _watchdog = Watchdog::arm("no_dead_columns::random", Duration::from_secs(600));
    for seed in 0..24u64 {
        let (spec, values, _) = random_case(seed);
        let inputs = input_set(ctx(), &values);
        for strategy in optimizing_strategies() {
            check_strategy(&spec, &inputs, strategy, &format!("seed {seed}"));
        }
    }
}

/// What the property buys on the paper's headline cell: with the dead half
/// gone, the standard route ships at most half of what the SparkSQL-like
/// baseline ships and no more than the shredded route plus unshredding —
/// the ordering of the paper's Figure 7b.
#[test]
fn wide_nested_to_nested_standard_ships_half_the_baseline() {
    let _watchdog = Watchdog::arm("no_dead_columns::bytes", Duration::from_secs(600));
    let (spec, values) = tpch_case("nested-to-nested", QueryVariant::Wide, 0.05);
    let inputs = input_set(ctx(), &values);
    let shipped = |strategy: Strategy| {
        let outcome = run_query(&spec, &inputs, strategy);
        assert!(!outcome.result.is_failure(), "{} failed", strategy.label());
        outcome.stats.shuffled_bytes
    };
    let standard = shipped(Strategy::Standard);
    let baseline = shipped(Strategy::Baseline);
    let unshred = shipped(Strategy::ShredUnshred);
    assert!(
        2 * standard <= baseline,
        "STANDARD ships {standard} logical bytes, over half of SPARKSQL-LIKE's {baseline}"
    );
    assert!(
        10 * standard <= 11 * unshred,
        "STANDARD ships {standard} logical bytes, over 1.1 × SHRED+UNSHRED's {unshred}"
    );
}
