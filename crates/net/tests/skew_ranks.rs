//! The benchmark's TCP shape on skewed data: a coordinator and two worker
//! **processes** on localhost TCP, with the benchmark's cluster (16
//! partitions, a 4 KiB broadcast limit) and the `skew_n2n_narrow` data and
//! query (skew 4, nested-to-nested Narrow, depth 2) at scale 0.2, the
//! smallest at which its `Lineitem ⋈ Part` joins shuffle (at the oracle
//! scale, 0.05, `Part` fits the broadcast limit, and a broadcast join is
//! never skew-handled). The two skew-aware strategies the TCP route serves
//! must equal `nrc::eval`, ship the in-process oracle's logical bytes, and
//! hold heavy keys back on every rank: the ranks agree on the heavy hashes
//! through the allgathered per-target loads and key-hash counts of each
//! join's route phase. Each job runs twice on the one cluster, and the
//! repeat must return the same rows, logical shuffle bytes and skew
//! broadcasts.
//!
//! The constants are copied from `benchmark/src/workload.rs`, which is not
//! a dependency.
//!
//! The ranks are the shipped `trance-worker` binary. Runs as a harness-less
//! main, with one cluster for both strategies.

use std::path::Path;
use std::time::Duration;

use trance_compiler::{run_query, InputSet, QuerySpec, RunResult, Strategy};
use trance_dist::{ClusterConfig, DistContext};
use trance_net::coordinator::JobSpec;
use trance_net::msg::ClusterParams;
use trance_net::testkit::spawn_cluster;
use trance_nrc::{canonical_rows, eval, Env, Value};
use trance_shred::ShreddedInputDecl;
use trance_tpch::{
    flat_to_nested, generate, nested_to_nested, nesting_structure_for_depth, QueryVariant,
    TpchConfig,
};

#[path = "../../compiler/tests/common/mod.rs"]
mod common;
use common::{assert_bags_approx_eq, Watchdog};

/// `WORKERS`: the TCP workload's worker processes.
const RANKS: usize = 2;
/// `PARTITIONS` and `BROADCAST_LIMIT`.
const PARTITIONS: usize = 16;
const BROADCAST_LIMIT: usize = 4 * 1024;
/// `DEPTH`, `skew_n2n_narrow`'s skew and `run.sh`'s seed; the scale is the
/// smallest at which a skew-aware join has heavy keys to hold back.
const DEPTH: usize = 2;
const SCALE: f64 = 0.2;
const SKEW: u32 = 4;
const SEED: u64 = 1;

fn main() {
    let _watchdog = Watchdog::arm("skew_ranks", Duration::from_secs(300));

    let data = generate(&TpchConfig {
        scale: SCALE,
        skew: SKEW,
        seed: SEED,
    });
    let tables = [
        ("Lineitem", &data.lineitem),
        ("Orders", &data.orders),
        ("Customer", &data.customer),
        ("Nation", &data.nation),
        ("Region", &data.region),
        ("Part", &data.part),
    ];
    let mut env = Env::from_bindings(tables.map(|(name, bag)| (name, Value::Bag(bag.clone()))));
    let nested = eval(&flat_to_nested(DEPTH, QueryVariant::Narrow), &env).unwrap();
    env.bind("Nested", nested.clone());
    let nested = nested.into_bag().unwrap();
    let query = nested_to_nested(DEPTH, QueryVariant::Narrow);
    let want = eval(&query, &env).unwrap().into_bag().unwrap();
    assert!(!want.is_empty(), "an empty result proves nothing");

    let config = ClusterConfig::new(1, PARTITIONS).with_broadcast_limit(BROADCAST_LIMIT);
    let mut inputs = InputSet::new(DistContext::new(config));
    let params = ClusterParams {
        partitions: PARTITIONS as u32,
        threads: 1,
        broadcast_limit: BROADCAST_LIMIT as u64,
    };
    let worker = Path::new(env!("CARGO_BIN_EXE_trance-worker"));
    let mut cluster = spawn_cluster(worker, RANKS, params).expect("spawning worker processes");
    let coord = &mut cluster.coordinator;
    for (name, bag) in tables {
        coord.load_flat(name, bag.items().to_vec()).unwrap();
        inputs.add_flat(name, bag.clone()).unwrap();
    }
    coord.load_nested("Nested", nested.clone()).unwrap();
    inputs.add_nested("Nested", nested).unwrap();

    let structure = nesting_structure_for_depth(DEPTH);
    let spec = QuerySpec::new(
        "n2n",
        query.clone(),
        vec![ShreddedInputDecl::new("Nested", structure.clone())],
    );
    for strategy in [Strategy::StandardSkew, Strategy::ShredUnshredSkew] {
        let label = format!("skew_n2n_narrow over TCP/{}", strategy.label());
        let oracle = run_query(&spec, &inputs, strategy);
        assert!(
            matches!(oracle.result, RunResult::Nested(_)),
            "{label}: the in-process oracle failed"
        );
        let job = JobSpec::new(
            query.clone(),
            vec![("Nested".to_string(), structure.clone())],
            strategy,
        );
        let [report, repeat] = [0, 1].map(|run| {
            coord
                .run(&job)
                .unwrap_or_else(|e| panic!("{label} run {run}: distributed run failed: {e}"))
        });
        assert_eq!(
            (
                canonical_rows(&report.rows),
                report.stats.shuffled_bytes,
                report.stats.skew_broadcast_joins
            ),
            (
                canonical_rows(&repeat.rows),
                repeat.stats.shuffled_bytes,
                repeat.stats.skew_broadcast_joins
            ),
            "{label}: the repeat's rows, logical shuffle bytes or skew broadcasts differ"
        );
        assert_bags_approx_eq(&want, &report.rows, &label);
        assert_eq!(
            report.stats.shuffled_bytes, oracle.stats.shuffled_bytes,
            "{label}: summed logical shuffle bytes diverge from the oracle"
        );
        // Every rank counts each skew broadcast join it took part in.
        assert!(
            oracle.stats.skew_broadcast_joins > 0,
            "{label}: no heavy key"
        );
        assert_eq!(
            report.stats.skew_broadcast_joins,
            RANKS as u64 * oracle.stats.skew_broadcast_joins,
            "{label}: the ranks split different heavy keys"
        );
        println!("ok {label}");
    }
    cluster.shutdown();
}
