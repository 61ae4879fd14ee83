//! Compiled kernels vs the definition: the register-based expression
//! kernels ([`trance_compiler::kernel`]) must compute what the plan layer
//! *defines* a `select` / `project` / `extend` to compute — every expression
//! evaluated row by row through `ScalarExpr::eval`
//! ([`trance_compiler::kernel::apply_by_definition`]) — **exactly**, not
//! approximately, on a seeded corpus of expression-heavy queries over awkward
//! inputs (NULL lanes, absent attributes, mixed-kind columns, dictionary
//! strings), across every compilation strategy. Both modes run the same
//! optimized plans over the same partitions, so their logical *and* physical
//! shuffle byte accounting must also be identical: the kernels are a pure
//! evaluation-strategy change.
//!
//! `ExecOptions::compiled_exprs = false` is the seam this suite selects its
//! reference through; there is no second engine behind it, only the written
//! rule. The guarantee nothing else checks: on NULL, absent and mixed-kind
//! operands — where `nrc::eval` is no reference, because the reference
//! evaluator rejects a projection of an absent attribute and orders NULL
//! below every value while plans follow the outer-join convention — the
//! compiled kernels compute bit for bit what `ScalarExpr::eval` says. Every
//! program of the corpus that does not read the awkward relation is held to
//! `nrc::eval` as well.

use std::time::Duration;
use trance_compiler::{
    run_query, run_query_with, strategy_options, ExecOptions, InputSet, QuerySpec, RunResult,
    Strategy,
};
use trance_dist::{ClusterConfig, DistContext, ExecError};
use trance_nrc::builder::{add, cmp_eq, forin, ifthen, int, mul, proj, singleton, tuple, var};
use trance_nrc::{Bag, NrcError, Value};
use trance_shred::ShreddedInputDecl;

mod common;
use common::{
    assert_bags_approx_eq, canonical, cop_structure, cop_value, input_set, outcome_bag, part_value,
    random_expr_case, reference_bag, running_example, try_reference_bag, Watchdog,
};

fn ctx() -> DistContext {
    // `TRANCE_WORKERS` overrides the worker count (the CI matrix knob): the
    // kernels must agree with the interpreter at any pool size.
    DistContext::new(
        ClusterConfig::new(3, 8)
            .with_broadcast_limit(64)
            .with_env_workers(),
    )
}

/// Runs `spec` under every strategy with compiled kernels and with the
/// interpreter: the two runs must produce identical bags (exact equality —
/// same floats bit for bit, since both modes execute the same arithmetic per
/// surviving lane in the same order) and move identical logical and physical
/// byte volumes through their shuffles; where `expected` holds the reference
/// evaluator's result, both must equal it.
fn assert_engines_agree(spec: &QuerySpec, inputs: &InputSet, expected: Option<&Bag>, case: &str) {
    for strategy in Strategy::all() {
        let tag = format!("{case} {}", strategy.label());
        let options = |compiled_exprs| ExecOptions {
            compiled_exprs,
            ..strategy_options(strategy, false)
        };
        let compiled = run_query_with(spec, inputs, strategy, &options(true));
        let interp = run_query_with(spec, inputs, strategy, &options(false));
        let compiled_bag = outcome_bag(&compiled.result, &format!("{tag} compiled"));
        let interp_bag = outcome_bag(&interp.result, &format!("{tag} interpreted"));
        assert_eq!(
            canonical(&interp_bag),
            canonical(&compiled_bag),
            "{tag}: compiled kernels disagree with the interpreter"
        );
        if let Some(expected) = expected {
            assert_bags_approx_eq(
                expected,
                &compiled_bag,
                &format!("{tag}: compiled run vs reference evaluator"),
            );
        }
        // Identical plans over identical partitions: a diverging
        // byte count means the kernels changed WHAT was computed,
        // not just how.
        assert_eq!(
            interp.stats.shuffled_tuples, compiled.stats.shuffled_tuples,
            "{tag}: shuffled tuple counts diverge"
        );
        assert_eq!(
            interp.stats.shuffled_bytes, compiled.stats.shuffled_bytes,
            "{tag}: logical shuffle bytes diverge"
        );
        assert_eq!(
            interp.stats.shuffled_bytes_phys, compiled.stats.shuffled_bytes_phys,
            "{tag}: physical shuffle bytes diverge"
        );
        // The interpreter side must not have compiled anything — the
        // switch actually selects the engine.
        assert_eq!(
            interp.stats.expr_compiles(),
            0,
            "{tag}: interpreted run recorded kernel compiles"
        );
    }
}

/// The core differential: every seeded query of the corpus, under every
/// strategy, on both expression engines ([`assert_engines_agree`]).
#[test]
fn compiled_kernels_agree_with_interpreter_on_seeded_corpus() {
    let _watchdog = Watchdog::arm("expr_agree::seeded_corpus", Duration::from_secs(600));
    let mut referenced = 0;
    for seed in 0..12u64 {
        let (spec, values, expected) = random_expr_case(seed);
        let inputs = input_set(ctx(), &values);
        referenced += usize::from(expected.is_some());
        assert_engines_agree(&spec, &inputs, expected.as_ref(), &format!("seed {seed}"));
    }
    assert!(
        referenced > 0,
        "no program of the corpus was held to the reference evaluator"
    );
}

/// `coalesce(bag, {})` over a bag column with NULL lanes — what the lowering
/// puts above every outer join that re-attaches a nesting level: orders
/// without parts leave `oparts` NULL-extended, the coalesced column is then
/// grouped into `corders`, so the next `Γ⊎` ships it. Both engines answer
/// with `Column::coalesce_empty_bag`; a column built any other way on one
/// side would show in the physical bytes of that shuffle.
#[test]
fn coalesced_bag_columns_ship_identical_bytes_on_both_engines() {
    let _watchdog = Watchdog::arm("expr_agree::coalesced_bags", Duration::from_secs(120));
    let spec = QuerySpec::new(
        "running-example",
        running_example(),
        vec![ShreddedInputDecl::new("COP", cop_structure())],
    );
    let values = [("COP", cop_value(24), true), ("Part", part_value(), false)];
    let expected = reference_bag(&spec.query, &values);
    let empty_parts = expected
        .iter()
        .flat_map(|c| {
            c.as_tuple()
                .unwrap()
                .get("corders")
                .unwrap()
                .as_bag()
                .unwrap()
                .iter()
        })
        .filter(|o| {
            o.as_tuple()
                .unwrap()
                .get("oparts")
                .unwrap()
                .as_bag()
                .unwrap()
                .is_empty()
        })
        .count();
    assert!(empty_parts > 0, "the case needs orders without parts");
    let inputs = input_set(ctx(), &values);
    assert_engines_agree(&spec, &inputs, Some(&expected), "running example");
}

/// A default run actually engages the kernels: programs are compiled,
/// instructions counted, and compile time metered.
#[test]
fn compiled_runs_record_kernel_programs() {
    let _watchdog = Watchdog::arm("expr_agree::kernel_stats", Duration::from_secs(120));
    // A fixed, unmistakably expression-heavy case.
    let (spec, values, _) = random_expr_case(1);
    let inputs = input_set(ctx(), &values);
    let compiled = run_query(&spec, &inputs, Strategy::Standard);
    assert!(
        !compiled.result.is_failure(),
        "compiled standard run must succeed"
    );
    assert!(
        compiled.stats.expr_compiles() > 0,
        "a compiled run must compile at least one kernel program"
    );
    assert!(
        compiled.stats.expr_kernel_instrs > 0,
        "compiled programs must report their instruction counts"
    );
    for (label, prog) in &compiled.stats.expr_programs {
        assert!(
            !prog.text.is_empty(),
            "program {label} must record its rendered listing"
        );
    }
}

/// The running example evaluated by definition against the default
/// (compiled kernels): the same bags, the same tuples and logical bytes
/// through the shuffles, and nothing compiled.
#[test]
fn by_definition_runs_agree_with_the_default() {
    let _watchdog = Watchdog::arm("expr_agree::by_definition", Duration::from_secs(120));
    let spec = QuerySpec::new(
        "running-example",
        running_example(),
        vec![ShreddedInputDecl::new("COP", cop_structure())],
    );
    let values = [("COP", cop_value(24), true), ("Part", part_value(), false)];
    let inputs = input_set(ctx(), &values);
    for strategy in Strategy::all() {
        let tag = strategy.label();
        let default = run_query(&spec, &inputs, strategy);
        let reference = ExecOptions {
            compiled_exprs: false,
            ..strategy_options(strategy, false)
        };
        let by_def = run_query_with(&spec, &inputs, strategy, &reference);
        assert_eq!(
            canonical(&outcome_bag(
                &by_def.result,
                &format!("{tag} by definition")
            )),
            canonical(&outcome_bag(&default.result, &format!("{tag} default"))),
            "{tag}: by-definition run disagrees with the default"
        );
        assert_eq!(
            (by_def.stats.shuffled_tuples, by_def.stats.shuffled_bytes),
            (default.stats.shuffled_tuples, default.stats.shuffled_bytes),
            "{tag}: shuffled tuples / logical bytes diverge"
        );
        assert_eq!(by_def.stats.expr_compiles(), 0, "{tag}: compiled something");
        assert!(default.stats.expr_compiles() > 0, "{tag}: compiled nothing");
    }
}

/// `Int` × `Int` arithmetic that leaves `i64` is the typed error `nrc::eval`
/// returns — never a panic (debug builds) or a wrapped value (release builds)
/// — under every strategy, compiled and by definition; behind a selection that removes the overflowing rows it is no
/// error at all.
#[test]
fn integer_overflow_fails_every_strategy_with_the_reference_error() {
    let _watchdog = Watchdog::arm("expr_agree::overflow", Duration::from_secs(120));
    let rows = (0..40).map(|i| Value::tuple([("pk", Value::Int(i))]));
    let values = [("L", Value::bag(rows.collect()), false)];
    let inputs = input_set(ctx(), &values);
    let k = |e| singleton(tuple([("k", e)]));
    let pk = || proj(var("l"), "pk");
    let overflowing = mul(add(pk(), int(2)), int(i64::MAX));
    // Every strategy, compiled and by definition.
    let cells = || {
        Strategy::all().into_iter().flat_map(move |strategy| {
            [true, false].map(|compiled_exprs| {
                let options = ExecOptions {
                    compiled_exprs,
                    ..strategy_options(strategy, false)
                };
                let tag = format!("{} compiled_exprs={compiled_exprs}", strategy.label());
                (strategy, options, tag)
            })
        })
    };

    let spec = QuerySpec::new("overflow", forin("l", var("L"), k(overflowing)), vec![]);
    let expected = try_reference_bag(&spec.query, &values).unwrap_err();
    assert_eq!(expected, NrcError::IntegerOverflow("*"));
    for (strategy, options, tag) in cells() {
        match run_query_with(&spec, &inputs, strategy, &options).result {
            RunResult::Failed(e) => assert_eq!(e, ExecError::Nrc(expected.clone()), "{tag}"),
            _ => panic!("{tag}: an overflowing product came back as a value"),
        }
    }

    let guarded = ifthen(cmp_eq(pk(), int(0)), k(mul(pk(), int(i64::MAX))));
    let spec = QuerySpec::new("guarded-overflow", forin("l", var("L"), guarded), vec![]);
    let expected = reference_bag(&spec.query, &values);
    assert_eq!(expected.len(), 1);
    for (strategy, options, tag) in cells() {
        let got = run_query_with(&spec, &inputs, strategy, &options);
        assert_bags_approx_eq(&expected, &outcome_bag(&got.result, &tag), &tag);
    }
}
