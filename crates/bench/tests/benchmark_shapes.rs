//! The repo benchmark's in-process shapes in tier-1: each workload's cluster,
//! data and query family rebuilt here, every (query, strategy) held to
//! `nrc::eval` at the benchmark's oracle scale. A routing change that breaks
//! a benchmark cell fails here first, in a debug build, where placement
//! claims are checked where they are made.
//!
//! `benchmark/` is its own workspace and not a dependency, so its constants
//! are copied; each names where it comes from (`benchmark/src/workload.rs`).
//! The TCP workload's shape lives beside `dist_agree` in `crates/net/tests`
//! (`skew_ranks`), because its ranks are `trance-net`'s `trance-worker`
//! binary.

use trance_compiler::{collect_unshredded, run_query, InputSet, QuerySpec, RunResult, Strategy};
use trance_dist::{ClusterConfig, DistContext, StatsSnapshot};
use trance_nrc::{bags_approx_equal, eval, pretty::pretty, Bag, Env, Expr, Value};
use trance_server::{Engine, EngineConfig};
use trance_shred::ShreddedInputDecl;
use trance_tpch::{
    flat_to_nested, generate, nested_to_flat, nested_to_nested, nesting_structure_for_depth,
    QueryVariant, TpchConfig, TpchData,
};

/// `WORKERS`, `PARTITIONS` and `BROADCAST_LIMIT`: 2 workers over 16
/// partitions, and a 4 KiB broadcast limit so that even the small dimension
/// tables shuffle and only heavy-key subsets broadcast.
const WORKERS: usize = 2;
const PARTITIONS: usize = 16;
const BROADCAST_LIMIT: usize = 4 * 1024;

/// `DEPTH`: Customer → Orders → Lineitem.
const DEPTH: usize = 2;

/// `ORACLE_SCALE`: the largest scale the benchmark checks against
/// `nrc::eval`; every workload's oracle check runs at `min(scale, 0.05)`.
const ORACLE_SCALE: f64 = 0.05;

/// `run.sh`'s default seed.
const SEED: u64 = 1;

/// `spill_f2n_wide`'s `memory_per_scale`: 1 MB per worker per unit of
/// scale, spilling on.
const SPILL_BYTES_PER_SCALE: f64 = 1_000_000.0;

/// `small_cold` / `small_warm`'s scale (under the oracle scale).
const SMALL_SCALE: f64 = 0.02;

#[derive(Clone, Copy, Debug)]
enum Family {
    FlatToNested,
    NestedToNested,
    NestedToFlat,
}

/// `Query::new`: the family's depth-2 query; the nested-input families read
/// `Nested`, declared with the depth's nesting structure.
fn query(family: Family, variant: QueryVariant) -> QuerySpec {
    let nested = || {
        vec![ShreddedInputDecl::new(
            "Nested",
            nesting_structure_for_depth(DEPTH),
        )]
    };
    match family {
        Family::FlatToNested => QuerySpec::new("f2n", flat_to_nested(DEPTH, variant), vec![]),
        Family::NestedToNested => QuerySpec::new("n2n", nested_to_nested(DEPTH, variant), nested()),
        Family::NestedToFlat => QuerySpec::new("n2f", nested_to_flat(DEPTH, variant), nested()),
    }
}

fn tables(data: &TpchData) -> [(&'static str, &Bag); 6] {
    [
        ("Lineitem", &data.lineitem),
        ("Orders", &data.orders),
        ("Customer", &data.customer),
        ("Nation", &data.nation),
        ("Region", &data.region),
        ("Part", &data.part),
    ]
}

fn cluster(partitions: usize) -> ClusterConfig {
    ClusterConfig::new(WORKERS, partitions).with_broadcast_limit(BROADCAST_LIMIT)
}

fn flat_inputs(config: ClusterConfig, data: &TpchData) -> InputSet {
    let mut inputs = InputSet::new(DistContext::new(config));
    for (name, bag) in tables(data) {
        inputs.add_flat(name, bag.clone()).unwrap();
    }
    inputs
}

/// A workload's data, its nested input and the reference environment, built
/// as `Bench::build` builds them: the nested input is materialised by
/// running flat-to-nested SHRED+UNSHRED on the uncapped cluster, and that
/// input must itself equal `nrc::eval` of flat-to-nested.
struct Shape {
    data: TpchData,
    nested: Bag,
    env: Env,
}

impl Shape {
    fn build(scale: f64, skew: u32, variant: QueryVariant, partitions: usize) -> Shape {
        let data = generate(&TpchConfig {
            scale,
            skew,
            seed: SEED,
        });
        let f2n = query(Family::FlatToNested, variant);
        let nested = run_query(
            &f2n,
            &flat_inputs(cluster(partitions), &data),
            Strategy::ShredUnshred,
        )
        .result
        .nested_bag()
        .expect("materialising the nested input");
        let mut env =
            Env::from_bindings(tables(&data).map(|(name, bag)| (name, Value::Bag(bag.clone()))));
        let want = eval(&f2n.query, &env).unwrap();
        assert!(
            bags_approx_equal(want.as_bag().unwrap(), &nested),
            "the materialised nested input differs from nrc::eval"
        );
        env.bind("Nested", want);
        Shape { data, nested, env }
    }

    fn expected(&self, query: &Expr) -> Bag {
        eval(query, &self.env).unwrap().into_bag().unwrap()
    }

    fn inputs(&self, config: ClusterConfig) -> InputSet {
        let mut inputs = flat_inputs(config, &self.data);
        inputs.add_nested("Nested", self.nested.clone()).unwrap();
        inputs
    }
}

/// Top-level output rows: `Output::rows` (`benchmark/src/workload.rs`).
fn output_rows(result: &RunResult) -> usize {
    match result {
        RunResult::Nested(d) => d.len(),
        RunResult::Shredded(s) => s.top.len(),
        RunResult::Failed(_) => 0,
    }
}

/// Runs every strategy of an in-process (`Threads`) cell against
/// `nrc::eval` and returns each strategy's counters. Each strategy runs twice
/// on the same inputs, as the benchmark's warm-up sweep and its timed ops
/// do: the first run fills the table-store cells the second finds resident,
/// and the second must repeat the first's output rows and logical shuffle
/// bytes exactly (`WarmUp::repeats`, `benchmark/src/run.rs`).
fn threads_cell(
    label: &str,
    shape: &Shape,
    config: ClusterConfig,
    family: Family,
    variant: QueryVariant,
) -> Vec<(Strategy, StatsSnapshot)> {
    let spec = query(family, variant);
    let want = shape.expected(&spec.query);
    assert!(!want.is_empty(), "{label}: an empty result proves nothing");
    let inputs = shape.inputs(config);
    Strategy::all()
        .into_iter()
        .map(|strategy| {
            let [first, second] = [0, 1].map(|run| {
                let outcome = run_query(&spec, &inputs, strategy);
                let got = match &outcome.result {
                    RunResult::Nested(d) => d.collect_bag(),
                    RunResult::Shredded(s) => collect_unshredded(s).unwrap(),
                    RunResult::Failed(e) => panic!("{label} {} run {run}: {e}", strategy.label()),
                };
                assert!(
                    bags_approx_equal(&got, &want),
                    "{label} {} run {run}: differs from nrc::eval",
                    strategy.label()
                );
                outcome
            });
            assert_eq!(
                (output_rows(&first.result), first.stats.shuffled_bytes),
                (output_rows(&second.result), second.stats.shuffled_bytes),
                "{label} {}: the repeat's output rows and logical shuffle bytes differ",
                strategy.label()
            );
            (strategy, first.stats)
        })
        .collect()
}

/// `n2n_wide`: nested-to-nested, Wide, unskewed.
#[test]
fn n2n_wide_equals_the_reference_on_every_strategy() {
    let shape = Shape::build(ORACLE_SCALE, 0, QueryVariant::Wide, PARTITIONS);
    threads_cell(
        "n2n_wide",
        &shape,
        cluster(PARTITIONS),
        Family::NestedToNested,
        QueryVariant::Wide,
    );
}

/// `skew_n2n_narrow`: nested-to-nested, Narrow, skew 4 — on the benchmark's
/// 16 partitions and on 17, since a placement or a heavy hash means
/// something only relative to the partition count. Every skew-aware
/// strategy must really take the heavy path.
#[test]
fn skew_n2n_narrow_equals_the_reference_and_splits_heavy_keys_on_16_and_17_partitions() {
    for partitions in [PARTITIONS, PARTITIONS + 1] {
        let label = format!("skew_n2n_narrow/{partitions}");
        let shape = Shape::build(ORACLE_SCALE, 4, QueryVariant::Narrow, partitions);
        let stats = threads_cell(
            &label,
            &shape,
            cluster(partitions),
            Family::NestedToNested,
            QueryVariant::Narrow,
        );
        for (strategy, stats) in stats {
            if strategy.skew_aware() {
                assert!(
                    stats.skew_broadcast_joins > 0,
                    "{label} {}: no heavy key was split off: {stats:?}",
                    strategy.label()
                );
            }
        }
    }
}

/// `spill_f2n_wide`: flat-to-nested, Wide, under a 1 MB-per-scale worker
/// cap with spilling on. The cap must really bite.
#[test]
fn spill_f2n_wide_equals_the_reference_on_every_strategy_while_spilling() {
    let shape = Shape::build(ORACLE_SCALE, 0, QueryVariant::Wide, PARTITIONS);
    let dir = std::env::temp_dir().join(format!("benchmark-shapes-{}", std::process::id()));
    let capped = cluster(PARTITIONS)
        .with_worker_memory((SPILL_BYTES_PER_SCALE * ORACLE_SCALE) as usize)
        .with_spill_dir(&dir);
    let stats = threads_cell(
        "spill_f2n_wide",
        &shape,
        capped,
        Family::FlatToNested,
        QueryVariant::Wide,
    );
    assert!(
        stats.iter().any(|(_, s)| s.spilled_bytes > 0),
        "spill_f2n_wide: nothing spilled"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `small_cold` / `small_warm`: the three family queries as text through a
/// resident `Engine`; cold clears the plan cache before every query, warm
/// runs each twice and the second run is a plan-cache hit.
#[test]
fn the_engine_cold_and_warm_equals_the_reference_on_every_strategy() {
    let shape = Shape::build(SMALL_SCALE, 0, QueryVariant::Wide, PARTITIONS);
    let engine = Engine::new(EngineConfig::with_cluster(cluster(PARTITIONS)));
    for (name, bag) in tables(&shape.data) {
        engine.register_flat(name, bag.clone()).unwrap();
    }
    engine
        .register_nested("Nested", shape.nested.clone())
        .unwrap();
    for family in [
        Family::FlatToNested,
        Family::NestedToNested,
        Family::NestedToFlat,
    ] {
        let spec = query(family, QueryVariant::Wide);
        let (text, want) = (pretty(&spec.query), shape.expected(&spec.query));
        for strategy in Strategy::all() {
            let label = format!("{family:?} {}", strategy.label());
            engine.clear_plan_cache();
            for cold in [true, false] {
                let r = engine
                    .submit_text("bench", &text, strategy)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_eq!(r.cache_hit, !cold, "{label}");
                assert!(
                    bags_approx_equal(&r.rows, &want),
                    "{label} (cold: {cold}): differs from nrc::eval"
                );
            }
        }
    }
}
