//! Compiled kernels vs the reference evaluator: the register-based
//! expression kernels ([`trance_compiler::kernel`]) must compute what
//! `nrc::eval` computes — **exactly**, not approximately — on a seeded corpus
//! of expression-heavy queries over awkward inputs (NULL lanes, absent
//! attributes, mixed-kind columns, dictionary strings), across every
//! compilation strategy.
//!
//! Plans and the reference evaluator follow one NULL rule, written once in
//! `trance_nrc::value` (an absent attribute reads as NULL, NULL propagates
//! through arithmetic and compares false), so every program of the corpus
//! has a reference. The kernels' row-wise lanes call that rule; their dense
//! and dictionary paths do not, and this suite is what holds them to it.

use std::time::Duration;
use trance_compiler::{run_query, InputSet, QuerySpec, RunResult, Strategy};
use trance_dist::{ClusterConfig, DistContext, ExecError};
use trance_nrc::builder::{add, cmp_eq, forin, ifthen, int, mul, proj, singleton, tuple, var};
use trance_nrc::{Bag, NrcError, Value};

mod common;
use common::{
    assert_bags_approx_eq, canonical, input_set, outcome_bag, random_expr_case, reference_bag,
    try_reference_bag, Watchdog,
};

fn ctx() -> DistContext {
    // `TRANCE_WORKERS` overrides the worker count (the CI matrix knob): the
    // kernels must agree with the reference at any pool size.
    DistContext::new(
        ClusterConfig::new(3, 8)
            .with_broadcast_limit(64)
            .with_env_workers(),
    )
}

/// Runs `spec` under every strategy: each run must produce the reference
/// evaluator's bag exactly — the same floats bit for bit, since both sides
/// execute the same arithmetic per surviving row in the same order.
fn assert_matches_reference(spec: &QuerySpec, inputs: &InputSet, expected: &Bag, case: &str) {
    for strategy in Strategy::all() {
        let tag = format!("{case} {}", strategy.label());
        let run = run_query(spec, inputs, strategy);
        assert_eq!(
            canonical(expected),
            canonical(&outcome_bag(&run.result, &tag)),
            "{tag}: compiled kernels disagree with the reference evaluator"
        );
    }
}

/// The core differential: every seeded query of the corpus, under every
/// strategy, held to `nrc::eval` ([`assert_matches_reference`]).
#[test]
fn compiled_kernels_agree_with_interpreter_on_seeded_corpus() {
    let _watchdog = Watchdog::arm("expr_agree::seeded_corpus", Duration::from_secs(600));
    for seed in 0..12u64 {
        let (spec, values, expected) = random_expr_case(seed);
        let inputs = input_set(ctx(), &values);
        assert_matches_reference(&spec, &inputs, &expected, &format!("seed {seed}"));
    }
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

/// `Int` × `Int` arithmetic that leaves `i64` is the typed error `nrc::eval`
/// returns — never a panic (debug builds) or a wrapped value (release builds)
/// — under every strategy; behind a selection that removes the overflowing
/// rows it is no error at all.
#[test]
fn integer_overflow_fails_every_strategy_with_the_reference_error() {
    let _watchdog = Watchdog::arm("expr_agree::overflow", Duration::from_secs(120));
    let rows = (0..40).map(|i| Value::tuple([("pk", Value::Int(i))]));
    let values = [("L", Value::bag(rows.collect()), false)];
    let inputs = input_set(ctx(), &values);
    let k = |e| singleton(tuple([("k", e)]));
    let pk = || proj(var("l"), "pk");
    let overflowing = mul(add(pk(), int(2)), int(i64::MAX));

    let spec = QuerySpec::new("overflow", forin("l", var("L"), k(overflowing)), vec![]);
    let expected = try_reference_bag(&spec.query, &values).unwrap_err();
    assert_eq!(expected, NrcError::IntegerOverflow("*"));
    for strategy in Strategy::all() {
        let tag = strategy.label();
        match run_query(&spec, &inputs, strategy).result {
            RunResult::Failed(e) => assert_eq!(e, ExecError::Nrc(expected.clone()), "{tag}"),
            _ => panic!("{tag}: an overflowing product came back as a value"),
        }
    }

    let guarded = ifthen(cmp_eq(pk(), int(0)), k(mul(pk(), int(i64::MAX))));
    let spec = QuerySpec::new("guarded-overflow", forin("l", var("L"), guarded), vec![]);
    let expected = reference_bag(&spec.query, &values);
    assert_eq!(expected.len(), 1);
    for strategy in Strategy::all() {
        let tag = strategy.label();
        let got = run_query(&spec, &inputs, strategy);
        assert_bags_approx_eq(&expected, &outcome_bag(&got.result, tag), tag);
    }
}
