//! **Textual submission** end to end: surface-NRC text goes through the
//! front-end into the engine, nested tables become shredded-input
//! declarations automatically, and — because the plan cache keys on the
//! structural fingerprint of the *parsed AST* — resubmitting the same text
//! (even reformatted) is a plan-cache hit booking zero compile time.

use std::time::Duration;

use trance_compiler::Strategy;
use trance_dist::ClusterConfig;
use trance_nrc::{Bag, Value};
use trance_server::{Engine, EngineConfig, ServeError};

#[path = "../../compiler/tests/common/mod.rs"]
mod common;
use common::Watchdog;

fn dept(name: &str, emps: Vec<(&str, i64, i64)>) -> Value {
    Value::tuple([
        ("dept", Value::str(name)),
        (
            "emps",
            Value::bag(
                emps.into_iter()
                    .map(|(n, s, g)| {
                        Value::tuple([
                            ("name", Value::str(n)),
                            ("sal", Value::Int(s)),
                            ("grade", Value::Int(g)),
                        ])
                    })
                    .collect::<Vec<_>>(),
            ),
        ),
    ])
}

fn engine_with_tables() -> Engine {
    let engine = Engine::new(EngineConfig::with_cluster(ClusterConfig::new(2, 4)));
    engine
        .register_nested(
            "N",
            Bag::new(vec![
                dept("eng", vec![("ada", 90, 1), ("bob", 40, 2)]),
                dept("ops", vec![("cyd", 70, 1)]),
            ]),
        )
        .unwrap();
    engine
        .register_flat(
            "R",
            Bag::new(vec![
                Value::tuple([("grade", Value::Int(1)), ("bonus", Value::Int(20))]),
                Value::tuple([("grade", Value::Int(2)), ("bonus", Value::Int(10))]),
            ]),
        )
        .unwrap();
    engine
}

const QUERY: &str = "
// Employees whose salary plus their grade's bonus clears 100.
Result <=
  for d in N union
  { <
      dept := d.dept,
      rich :=
        for e in d.emps union
        for r in R union
        if (r.grade == e.grade && e.sal + r.bonus > 100) then
        { <name := e.name, pay := e.sal + r.bonus> }
    > }
";

/// The same query with every comment stripped and all whitespace
/// reshuffled — structurally identical, textually different.
const QUERY_REFORMATTED: &str = "Result <= for d in N union { < dept := d.dept, \
    rich := for e in d.emps union for r in R union \
    if (r.grade == e.grade && e.sal + r.bonus > 100) then \
    { < name := e.name, pay := e.sal + r.bonus > } > }";

fn expected() -> Bag {
    Bag::new(vec![
        Value::tuple([
            ("dept", Value::str("eng")),
            (
                "rich",
                Value::bag(vec![Value::tuple([
                    ("name", Value::str("ada")),
                    ("pay", Value::Int(110)),
                ])]),
            ),
        ]),
        Value::tuple([
            ("dept", Value::str("ops")),
            ("rich", Value::bag(Vec::new())),
        ]),
    ])
}

#[test]
fn repeated_text_submission_is_a_plan_cache_hit_on_every_strategy() {
    let _wd = Watchdog::arm("text_submission", Duration::from_secs(600));
    let engine = engine_with_tables();
    let want = expected();

    for strategy in Strategy::all() {
        let cold = engine.submit_text("tenant", QUERY, strategy).unwrap();
        assert!(
            !cold.cache_hit,
            "{}: first textual submission must miss",
            strategy.label()
        );
        assert!(
            cold.plans_compiled > 0,
            "{}: cold text run must compile plans",
            strategy.label()
        );
        assert!(
            cold.rows.multiset_eq(&want),
            "{}: wrong rows from text: {:?}",
            strategy.label(),
            cold.rows
        );

        let warm = engine.submit_text("tenant", QUERY, strategy).unwrap();
        assert!(
            warm.cache_hit,
            "{}: resubmitting the same text must hit the plan cache",
            strategy.label()
        );
        assert_eq!(
            warm.plans_compiled,
            0,
            "{}: a textual hit compiles no plans",
            strategy.label()
        );
        assert_eq!(
            warm.compile_ms,
            0.0,
            "{}: a textual hit books zero kernel-compile time",
            strategy.label()
        );
        assert!(warm.rows.multiset_eq(&want), "{}", strategy.label());

        // Reformatting the text (comments gone, whitespace reshuffled)
        // parses to the same AST, so it must hit too.
        let reformatted = engine
            .submit_text("tenant", QUERY_REFORMATTED, strategy)
            .unwrap();
        assert!(
            reformatted.cache_hit,
            "{}: reformatted text must fingerprint identically",
            strategy.label()
        );
        assert!(reformatted.rows.multiset_eq(&want), "{}", strategy.label());
    }

    let stats = engine.stats();
    assert_eq!(stats.cache_misses, 7, "one cold compile per strategy");
    assert_eq!(stats.cache_hits, 14, "warm + reformatted per strategy");
}

/// Unshredding is a unit of the prepared program: the cold SHRED+UNSHRED run
/// compiles one plan more than SHRED does — the unshredding plan — and a
/// warm hit replays it from the cache, compiling no plan and no kernel.
#[test]
fn a_warm_unshredding_hit_replays_the_unshred_plan() {
    let _wd = Watchdog::arm("text_submission", Duration::from_secs(600));
    let engine = engine_with_tables();
    let shred = engine
        .submit_text("tenant", QUERY, Strategy::Shred)
        .unwrap();
    let cold = engine
        .submit_text("tenant", QUERY, Strategy::ShredUnshred)
        .unwrap();
    assert!(!cold.cache_hit);
    assert_eq!(cold.plans_compiled, shred.plans_compiled + 1);
    // SHRED left its kernels in the shared cache: what is compiled now is
    // the unshredding unit's own.
    assert!(cold.stats.expr_compiles() > 0);

    let warm = engine
        .submit_text("tenant", QUERY, Strategy::ShredUnshred)
        .unwrap();
    assert!(warm.cache_hit);
    assert_eq!(warm.plans_compiled, 0);
    assert_eq!(warm.stats.expr_compiles(), 0, "a hit compiles no kernel");
    assert_eq!(warm.compile_ms, 0.0);
    assert!(warm.rows.multiset_eq(&expected()));
    // The replayed unit does the work the compiled one did.
    assert_eq!(warm.stats.shuffled_bytes, cold.stats.shuffled_bytes);
    assert_eq!(warm.stats.shuffle_joins, cold.stats.shuffle_joins);
    assert_eq!(warm.stats.shuffles_in_place, cold.stats.shuffles_in_place);
}

#[test]
fn compile_errors_are_typed_and_never_reach_the_pool() {
    let engine = engine_with_tables();

    let err = engine
        .submit_text("tenant", "for d in union", Strategy::Standard)
        .unwrap_err();
    match &err {
        ServeError::Compile(msg) => {
            assert!(
                msg.contains("1:10"),
                "parse diagnostic must carry the span, got: {msg}"
            );
        }
        other => panic!("expected a Compile error, got {other}"),
    }

    let err = engine
        .submit_text(
            "tenant",
            "for d in N union { d.no_such_field }",
            Strategy::Standard,
        )
        .unwrap_err();
    assert!(
        matches!(&err, ServeError::Compile(msg) if msg.contains("no_such_field")),
        "type diagnostic must name the field, got: {err}"
    );

    let stats = engine.stats();
    assert_eq!(stats.admitted, 0, "rejected text must not be admitted");
    assert_eq!(stats.failed, 0);
}
