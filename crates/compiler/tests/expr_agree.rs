//! Compiled-kernel vs interpreter differential suite: the register-based
//! expression kernels ([`trance_compiler::kernel`]) must agree with the
//! tree-walking interpreter ([`trance_compiler::vector`]) — **exactly**, not
//! approximately — on a seeded corpus of expression-heavy queries over
//! awkward inputs (NULL lanes, absent attributes, mixed-kind columns,
//! dictionary strings), across every compilation strategy and both physical
//! representations. Both routes run the same optimized plans over the same
//! partitions, so their logical *and* physical shuffle byte accounting must
//! also be identical: the kernels are a pure evaluation-strategy change.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;
use trance_compiler::{
    collect_unshredded, run_query, run_query_with, strategy_options, ExecOptions, InputSet,
    QuerySpec, RunResult, Strategy,
};
use trance_dist::{ClusterConfig, DistContext};
use trance_nrc::{Bag, Value};
use trance_shred::{NestingStructure, ShreddedInputDecl};

mod common;
use common::{
    canonical, random_expr_query, random_flat, random_flat_nullable, random_nested, Watchdog,
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

fn outcome_bag(result: &RunResult, context: &str) -> Bag {
    match result {
        RunResult::Nested(d) => d.collect_bag(),
        RunResult::Shredded(out) => collect_unshredded(out).unwrap(),
        RunResult::Failed(e) => panic!("{context} failed: {e}"),
    }
}

fn random_case(seed: u64) -> (QuerySpec, Vec<(&'static str, Value, bool)>) {
    let mut rng = StdRng::seed_from_u64(0xE1_0000 + seed);
    let rn_rows = rng.gen_range(15..40usize);
    let s_rows = rng.gen_range(10..30usize);
    let n_rows = rng.gen_range(3..15usize);
    let rn = random_flat_nullable(&mut rng, rn_rows, 8);
    let s = random_flat(&mut rng, s_rows, 8);
    let n = random_nested(&mut rng, n_rows, 8);
    let query = random_expr_query(&mut rng);
    let n_structure = NestingStructure::flat().with_child("items", NestingStructure::flat());
    let spec = QuerySpec::new(
        format!("expr-{seed}"),
        query,
        vec![ShreddedInputDecl::new("N", n_structure)],
    );
    (
        spec,
        vec![("RN", rn, false), ("S", s, false), ("N", n, true)],
    )
}

fn input_set(values: &[(&'static str, Value, bool)]) -> InputSet {
    let mut inputs = InputSet::new(ctx());
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

/// The core differential: for every seeded query, strategy and physical
/// representation, the compiled run and the interpreted run must produce
/// identical bags (exact equality — same floats bit for bit, since both
/// routes execute the same arithmetic per surviving lane in the same order)
/// and move identical logical and physical byte volumes through their
/// shuffles.
#[test]
fn compiled_kernels_agree_with_interpreter_on_seeded_corpus() {
    let _watchdog = Watchdog::arm("expr_agree::seeded_corpus", Duration::from_secs(600));
    for seed in 0..12u64 {
        let (spec, values) = random_case(seed);
        let inputs = input_set(&values);
        for strategy in Strategy::all() {
            for columnar in [true, false] {
                let repr = if columnar { "columnar" } else { "row" };
                let tag = format!("seed {seed} {} {repr}", strategy.label());
                let options = |compiled_exprs| ExecOptions {
                    columnar,
                    compiled_exprs,
                    ..strategy_options(strategy, false)
                };
                let compiled = run_query_with(&spec, &inputs, strategy, &options(true));
                let interp = run_query_with(&spec, &inputs, strategy, &options(false));
                let compiled_bag = outcome_bag(&compiled.result, &format!("{tag} compiled"));
                let interp_bag = outcome_bag(&interp.result, &format!("{tag} interpreted"));
                assert_eq!(
                    canonical(&interp_bag),
                    canonical(&compiled_bag),
                    "{tag}: compiled kernels disagree with the interpreter"
                );
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
    }
}

/// The compiled columnar route actually engages the kernels: programs are
/// compiled, instructions counted, and compile time metered — and on the
/// row route the kernels stay out of the picture entirely.
#[test]
fn compiled_runs_record_kernel_programs() {
    let _watchdog = Watchdog::arm("expr_agree::kernel_stats", Duration::from_secs(120));
    // A fixed, unmistakably expression-heavy case.
    let (spec, values) = random_case(1);
    let inputs = input_set(&values);
    let compiled = run_query(&spec, &inputs, Strategy::Standard);
    assert!(
        !compiled.result.is_failure(),
        "compiled standard run must succeed"
    );
    assert!(
        compiled.stats.expr_compiles() > 0,
        "columnar compiled run must compile at least one kernel program"
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
    let row_route = ExecOptions {
        columnar: false,
        ..strategy_options(Strategy::Standard, false)
    };
    let row = run_query_with(&spec, &inputs, Strategy::Standard, &row_route);
    assert!(!row.result.is_failure(), "row run must succeed");
    assert_eq!(
        row.stats.expr_compiles(),
        0,
        "the row route has no columnar kernels to compile"
    );
}
