//! Grammar-driven fuzzing of the textual front-end.
//!
//! The seeded generator in `common` produces random NRC programs; each one
//! is pretty-printed, re-parsed with `trance-frontend`, and checked two
//! ways:
//!
//! 1. **Round-trip law**: `parse(pretty(e)) == e`, structurally.
//! 2. **Differential execution**: the re-parsed program must behave
//!    *identically* to the directly-built AST on every compilation
//!    strategy — bag-equal results and identical logical shuffle volume —
//!    and both must equal `nrc::eval`.
//!
//! Seeds come from `TRANCE_FUZZ_SEED` (default `0xF0D`) and the corpus
//! size from `TRANCE_FUZZ_PROGRAMS` / `TRANCE_FUZZ_DIFF_PROGRAMS`, so CI
//! can run a date-seeded sweep and echo the seed for replay.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trance_compiler::{run_query, QuerySpec, Strategy};
use trance_dist::{ClusterConfig, DistContext};
use trance_nrc::Program;
use trance_shred::ShreddedInputDecl;

mod common;
use common::{
    assert_bags_approx_eq, assert_round_trips, canonical, env_u64, input_set, items_structure,
    outcome_bag, random_expr_query, random_flat, random_flat_nullable, random_nested, random_query,
    reference_bag, running_example, Watchdog,
};

fn ctx() -> DistContext {
    DistContext::new(
        ClusterConfig::new(3, 8)
            .with_broadcast_limit(64)
            .with_env_workers(),
    )
}

#[test]
fn roundtrip_law_holds_for_seeded_generator_programs() {
    let _w = Watchdog::arm("frontend_roundtrip::law", Duration::from_secs(600));
    let base = env_u64("TRANCE_FUZZ_SEED", 0xF0D);
    let n = env_u64("TRANCE_FUZZ_PROGRAMS", 48);
    eprintln!("fuzz: round-trip law over {n} seeds starting at {base} (TRANCE_FUZZ_SEED)");
    assert_round_trips(&running_example(), "running example");
    for i in 0..n {
        let mut rng = StdRng::seed_from_u64(base.wrapping_add(i));
        let q = random_query(&mut rng);
        assert_round_trips(&q, &format!("seed {base}+{i} (random_query)"));
        let q = random_expr_query(&mut rng);
        assert_round_trips(&q, &format!("seed {base}+{i} (random_expr_query)"));
    }
}

#[test]
fn roundtrip_law_holds_for_multi_assignment_programs() {
    let base = env_u64("TRANCE_FUZZ_SEED", 0xF0D);
    for i in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(base.wrapping_add(0x9000 + i));
        let mut prog = Program::new();
        prog.assign("A", random_query(&mut rng));
        prog.assign("B", random_expr_query(&mut rng));
        prog.assign("Result", random_query(&mut rng));
        let text = trance_nrc::pretty::pretty_program(&prog);
        let parsed = trance_frontend::parse_program(&text).unwrap_or_else(|e| {
            panic!("seed {base}+{i}: program failed to re-parse:\n{text}\n{e}")
        });
        assert_eq!(
            parsed, prog,
            "seed {base}+{i}: parse_program(pretty_program(p)) != p:\n{text}"
        );
    }
}

#[test]
fn parsed_text_runs_identically_across_all_strategies_and_representations() {
    let _w = Watchdog::arm(
        "frontend_roundtrip::differential",
        Duration::from_secs(1200),
    );
    let base = env_u64("TRANCE_FUZZ_SEED", 0xF0D);
    let n = env_u64("TRANCE_FUZZ_DIFF_PROGRAMS", 6);
    eprintln!("fuzz: differential sweep over {n} seeds starting at {base} (TRANCE_FUZZ_SEED)");
    for i in 0..n {
        let mut rng = StdRng::seed_from_u64(base.wrapping_add(0x1000 + i));
        let r_rows = rng.gen_range(5..30usize);
        let s_rows = rng.gen_range(5..25usize);
        let n_rows = rng.gen_range(3..15usize);
        let r = random_flat(&mut rng, r_rows, 8);
        let rn = random_flat_nullable(&mut rng, r_rows, 8);
        let s = random_flat(&mut rng, s_rows, 8);
        let nv = random_nested(&mut rng, n_rows, 8);
        let query = if i % 2 == 0 {
            random_query(&mut rng)
        } else {
            random_expr_query(&mut rng)
        };
        let parsed = assert_round_trips(&query, &format!("diff seed {base}+{i}"));

        let values = [
            ("R", r, false),
            ("RN", rn, false),
            ("S", s, false),
            ("N", nv, true),
        ];
        let expected = reference_bag(&query, &values);
        let inputs = input_set(ctx(), &values);
        let decls = vec![ShreddedInputDecl::new("N", items_structure())];
        let direct_spec = QuerySpec::new(format!("fuzz-{i}"), query, decls.clone());
        let parsed_spec = QuerySpec::new(format!("fuzz-{i}"), parsed, decls);

        for strategy in Strategy::all() {
            let direct = run_query(&direct_spec, &inputs, strategy);
            let parsed = run_query(&parsed_spec, &inputs, strategy);
            let label = format!("seed {base}+{i} strategy {}", strategy.label());
            let db = outcome_bag(&direct.result, &format!("{label} direct AST"));
            let pb = outcome_bag(&parsed.result, &format!("{label} parsed text"));
            assert_eq!(
                canonical(&db),
                canonical(&pb),
                "{label}: parsed text and direct AST disagree on results"
            );
            assert_bags_approx_eq(
                &expected,
                &db,
                &format!("{label}: direct AST vs reference evaluator"),
            );
            assert_eq!(
                direct.stats.shuffled_bytes, parsed.stats.shuffled_bytes,
                "{label}: parsed text shuffled a different logical volume"
            );
        }
    }
}
