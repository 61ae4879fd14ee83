//! The multi-process differential suite: a real coordinator plus three
//! worker **processes** — the shipped `trance-worker` binary — on localhost
//! TCP, checked bag-for-bag — and logical-shuffle-byte-for-byte — against
//! the in-process thread backend, which stays the single-node oracle.
//!
//! Runs as a harness-less main: one cluster serves every cell in order, so
//! the cells share the ranks' loaded tables and the suite starts three
//! processes in all.

use std::path::Path;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trance_compiler::{run_query, InputSet, QuerySpec, RunResult, Strategy};
use trance_dist::{ClusterConfig, DistContext, ExecError};
use trance_net::coordinator::{Coordinator, JobSpec};
use trance_net::msg::{ClusterParams, DropSpec};
use trance_net::testkit::spawn_cluster;
use trance_nrc::Bag;
use trance_shred::ShreddedInputDecl;

#[path = "../../compiler/tests/common/mod.rs"]
mod common;
use common::{
    assert_bags_approx_eq, cop_structure, cop_value, env_u64, part_value, random_flat,
    random_nested, random_query, running_example, Watchdog,
};

const RANKS: usize = 3;

fn params() -> ClusterParams {
    // The same deliberately hostile shape the in-process differential
    // suites use: more partitions than ranks, a tiny broadcast limit so
    // joins actually shuffle.
    ClusterParams {
        partitions: 8,
        threads: 2,
        broadcast_limit: 64,
    }
}

/// The in-process oracle context — identical shape to what every worker
/// process configures from [`params`].
fn oracle_ctx() -> DistContext {
    let p = params();
    DistContext::new(
        ClusterConfig::new(p.threads as usize, p.partitions as usize)
            .with_broadcast_limit(p.broadcast_limit as usize),
    )
}

/// Runs the oracle and returns its bag and logical shuffle bytes.
fn oracle_run(spec: &QuerySpec, inputs: &InputSet, strategy: Strategy) -> (Bag, u64) {
    let outcome = run_query(spec, inputs, strategy);
    match &outcome.result {
        RunResult::Nested(d) => (d.collect_bag(), outcome.stats.shuffled_bytes),
        other => panic!("oracle {} produced {other:?}", strategy.label()),
    }
}

fn check_job(
    coord: &mut Coordinator,
    label: &str,
    job: &JobSpec,
    oracle_bag: &Bag,
    oracle_shuffled: u64,
) -> u32 {
    let report = coord
        .run(job)
        .unwrap_or_else(|e| panic!("{label}: distributed run failed: {e}"));
    assert_bags_approx_eq(oracle_bag, &report.rows, label);
    assert_eq!(
        report.stats.shuffled_bytes, oracle_shuffled,
        "{label}: summed logical shuffle bytes diverge from the oracle"
    );
    report.attempts
}

fn running_example_agrees(coord: &mut Coordinator) {
    let cop = cop_value(40).as_bag().unwrap().clone();
    let part = part_value().as_bag().unwrap().clone();
    coord.load_nested("COP", cop.clone()).unwrap();
    coord.load_flat("Part", part.items().to_vec()).unwrap();

    let mut inputs = InputSet::new(oracle_ctx());
    inputs.add_nested("COP", cop).unwrap();
    inputs.add_flat("Part", part).unwrap();
    let spec = QuerySpec::new(
        "running-example",
        running_example(),
        vec![ShreddedInputDecl::new("COP", cop_structure())],
    );

    for strategy in [
        Strategy::Standard,
        Strategy::Baseline,
        Strategy::StandardSkew,
        Strategy::ShredUnshred,
        Strategy::ShredUnshredSkew,
    ] {
        let label = format!("running-example/{}", strategy.label());
        let (oracle_bag, oracle_shuffled) = oracle_run(&spec, &inputs, strategy);
        let job = JobSpec::new(
            running_example(),
            vec![("COP".to_string(), cop_structure())],
            strategy,
        );
        let attempts = check_job(coord, &label, &job, &oracle_bag, oracle_shuffled);
        assert_eq!(attempts, 1, "{label}: clean run needed retries");
        println!("ok {label}");
    }
}

fn random_programs_agree(coord: &mut Coordinator, base_seed: u64, programs: u64) {
    for i in 0..programs {
        let seed = base_seed.wrapping_add(i);
        let mut rng = StdRng::seed_from_u64(seed);
        let r_rows = rng.gen_range(10..50usize);
        let s_rows = rng.gen_range(10..40usize);
        let n_rows = rng.gen_range(5..25usize);
        let r = random_flat(&mut rng, r_rows, 8);
        let s = random_flat(&mut rng, s_rows, 8);
        let n = random_nested(&mut rng, n_rows, 8);
        let query = random_query(&mut rng);

        // Reloading under the same names replaces the previous program's
        // inputs on every rank.
        coord
            .load_flat("R", r.as_bag().unwrap().items().to_vec())
            .unwrap();
        coord
            .load_flat("S", s.as_bag().unwrap().items().to_vec())
            .unwrap();
        coord.load_nested("N", n.as_bag().unwrap().clone()).unwrap();

        let mut inputs = InputSet::new(oracle_ctx());
        inputs.add_flat("R", r.as_bag().unwrap().clone()).unwrap();
        inputs.add_flat("S", s.as_bag().unwrap().clone()).unwrap();
        inputs.add_nested("N", n.as_bag().unwrap().clone()).unwrap();
        let spec = QuerySpec::new(format!("random-{seed}"), query.clone(), vec![]);

        for strategy in [
            Strategy::Standard,
            Strategy::Baseline,
            Strategy::StandardSkew,
        ] {
            let label = format!("random-{seed}/{}", strategy.label());
            let (oracle_bag, oracle_shuffled) = oracle_run(&spec, &inputs, strategy);
            let job = JobSpec::new(query.clone(), vec![], strategy);
            check_job(coord, &label, &job, &oracle_bag, oracle_shuffled);
        }
        println!("ok random program seed {seed}");
    }
}

fn chaos_drop_recovers(coord: &mut Coordinator, seed: u64) {
    // Inputs for the running example are still loaded (the random programs
    // used different names); rerun it with a seeded connection drop.
    let cop = cop_value(40).as_bag().unwrap().clone();
    let part = part_value().as_bag().unwrap().clone();
    let mut inputs = InputSet::new(oracle_ctx());
    inputs.add_nested("COP", cop).unwrap();
    inputs.add_flat("Part", part).unwrap();
    let spec = QuerySpec::new(
        "running-example",
        running_example(),
        vec![ShreddedInputDecl::new("COP", cop_structure())],
    );
    let (oracle_bag, oracle_shuffled) = oracle_run(&spec, &inputs, Strategy::Standard);

    let drop = DropSpec {
        victim: (seed % RANKS as u64) as u32,
        after_frames: 2 + seed % 5,
    };
    println!(
        "chaos: rank {} severs its data link after {} frames (seed {seed})",
        drop.victim, drop.after_frames
    );
    let mut job = JobSpec::new(
        running_example(),
        vec![("COP".to_string(), cop_structure())],
        Strategy::Standard,
    );
    job.chaos = Some(drop);
    let attempts = check_job(coord, "chaos", &job, &oracle_bag, oracle_shuffled);
    assert!(
        attempts > 1,
        "chaos drop did not force a global retry (attempts = {attempts})"
    );
    println!("ok chaos: recovered to the oracle bag in {attempts} attempts");
}

fn deadline_cancels(coord: &mut Coordinator) {
    let mut job = JobSpec::new(
        running_example(),
        vec![("COP".to_string(), cop_structure())],
        Strategy::Standard,
    );
    job.deadline_ms = Some(0);
    match coord.run(&job) {
        Err(ExecError::Cancelled { .. }) => println!("ok cancellation: typed Cancelled"),
        other => panic!("expected Cancelled from a zero deadline, got {other:?}"),
    }
}

/// Rank divergence around the load-time conversion. Every rank converts a
/// loaded table at `Load`, typed from its own partitions' sample, and every
/// run walks the union of the ranks' table names and gathers each table's
/// sample (cluster collectives, beside the schema merge and size sum),
/// re-typing for that run a table whose gathered hints differ from its own.
/// A run that dies in those collectives, or is cancelled, must leave nothing
/// that makes a later run reach them in another order on some rank, and a
/// `Load` after a cancelled run must still convert.
fn cold_cell_failures_do_not_desync_the_ranks(coord: &mut Coordinator, seed: u64) {
    let spec = QuerySpec::new(
        "running-example",
        running_example(),
        vec![ShreddedInputDecl::new("COP", cop_structure())],
    );
    let plain = |strategy| {
        JobSpec::new(
            running_example(),
            vec![("COP".to_string(), cop_structure())],
            strategy,
        )
    };
    let part = part_value().as_bag().unwrap().clone();

    // The worker's store also holds the random programs' R, S and N, so a
    // standard-family run makes a table-name allgather and 5 sample
    // allgathers (2 frames each per rank) before anything else: all three
    // cut points land inside them.
    for (i, after_frames) in [1u64, 4, 7].into_iter().enumerate() {
        // Loading replaces the entries on every rank, converted at `Load`.
        let cop = cop_value(30 + i).as_bag().unwrap().clone();
        coord.load_nested("COP", cop.clone()).unwrap();
        coord.load_flat("Part", part.items().to_vec()).unwrap();
        let mut inputs = InputSet::new(oracle_ctx());
        inputs.add_nested("COP", cop).unwrap();
        inputs.add_flat("Part", part.clone()).unwrap();

        // The first run over the new tables is cancelled by a zero deadline
        // (and the next iteration's `Load` converts all the same) …
        let mut job = plain(Strategy::Standard);
        job.deadline_ms = Some(0);
        match coord.run(&job) {
            Err(ExecError::Cancelled { .. }) => {}
            other => panic!("cold cells: expected Cancelled from a zero deadline, got {other:?}"),
        }
        // … the next loses a data link mid-sample; its retry — the same job,
        // run normally — and a clean run after it must match the oracle.
        let (oracle_bag, oracle_shuffled) = oracle_run(&spec, &inputs, Strategy::Standard);
        let mut job = plain(Strategy::Standard);
        job.chaos = Some(DropSpec {
            victim: ((seed + i as u64) % RANKS as u64) as u32,
            after_frames,
        });
        let label = format!("cold-cell drop after {after_frames} frames");
        let attempts = check_job(coord, &label, &job, &oracle_bag, oracle_shuffled);
        assert!(attempts > 1, "{label}: the drop did not force a retry");
        let attempts = check_job(
            coord,
            &label,
            &plain(Strategy::Standard),
            &oracle_bag,
            oracle_shuffled,
        );
        assert_eq!(attempts, 1, "{label}: the clean rerun needed retries");
        // The shredded form's tables have served no run yet.
        let (oracle_bag, oracle_shuffled) = oracle_run(&spec, &inputs, Strategy::ShredUnshred);
        let mut job = plain(Strategy::ShredUnshred);
        job.chaos = Some(DropSpec {
            victim: ((seed + i as u64 + 1) % RANKS as u64) as u32,
            after_frames,
        });
        let label = format!("cold-cell shredded drop after {after_frames} frames");
        let attempts = check_job(coord, &label, &job, &oracle_bag, oracle_shuffled);
        assert!(attempts > 1, "{label}: the drop did not force a retry");
        println!("ok cold cells: zero deadline, then a drop after {after_frames} frames");
    }

    // Re-loading a table under an existing name replaces a table that served
    // runs: the next run answers over the new rows on every strategy family.
    let repriced: Vec<_> = part
        .items()
        .iter()
        .take(5)
        .map(|row| {
            let mut t = row.as_tuple().unwrap().clone();
            t.set("price", trance_nrc::Value::Real(100.0));
            trance_nrc::Value::Tuple(t)
        })
        .collect();
    coord.load_flat("Part", repriced.clone()).unwrap();
    let cop = cop_value(32).as_bag().unwrap().clone();
    let mut inputs = InputSet::new(oracle_ctx());
    inputs.add_nested("COP", cop).unwrap();
    inputs.add_flat("Part", part).unwrap();
    let (stale_bag, _) = oracle_run(&spec, &inputs, Strategy::Standard);
    inputs.add_flat("Part", Bag::new(repriced)).unwrap();
    for strategy in [Strategy::Standard, Strategy::ShredUnshred] {
        let (oracle_bag, oracle_shuffled) = oracle_run(&spec, &inputs, strategy);
        assert_ne!(
            common::canonical(&stale_bag),
            common::canonical(&oracle_bag)
        );
        let label = format!("re-loaded Part/{}", strategy.label());
        check_job(
            coord,
            &label,
            &plain(strategy),
            &oracle_bag,
            oracle_shuffled,
        );
    }
    println!("ok re-load: the next run sees the new rows");
}

fn shredded_result_rejected(coord: &mut Coordinator) {
    let job = JobSpec::new(
        running_example(),
        vec![("COP".to_string(), cop_structure())],
        Strategy::Shred,
    );
    match coord.run(&job) {
        Err(ExecError::Other(detail)) => {
            assert!(
                detail.contains("shredded"),
                "unexpected rejection detail: {detail}"
            );
            println!("ok shredded-result strategy rejected as fatal");
        }
        other => panic!("expected a fatal rejection of Shred, got {other:?}"),
    }
}

fn main() {
    let _watchdog = Watchdog::arm("dist_agree", Duration::from_secs(600));
    let seed = env_u64("TRANCE_DIST_SEED", 0xD157);
    let programs = env_u64("TRANCE_DIST_PROGRAMS", 6);
    println!("dist_agree: {RANKS} worker processes, seed {seed}, {programs} random programs");

    let worker = Path::new(env!("CARGO_BIN_EXE_trance-worker"));
    let mut cluster = spawn_cluster(worker, RANKS, params()).expect("spawning worker processes");
    let coord = &mut cluster.coordinator;

    running_example_agrees(coord);
    random_programs_agree(coord, seed, programs);
    chaos_drop_recovers(coord, seed);
    deadline_cancels(coord);
    cold_cell_failures_do_not_desync_the_ranks(coord, seed);
    shredded_result_rejected(coord);

    cluster.shutdown();
    println!("dist_agree: all multi-process checks agree with the in-process oracle");
}
