//! Chaos differential suite: under **seeded, deterministic fault injection**
//! at every site (morsel execution, spill read/write, shuffle delivery),
//! every run must either match the `nrc::eval` reference after recovery or
//! return a **typed** error within its deadline — never a hang, never a
//! silently wrong answer, never a leaked spill file. The fault
//! schedules are pure functions of their seeds, so every failure here
//! reproduces byte-for-byte. A cluster with a fault plan always injects; the
//! cancellation cells run on a plan that injects nothing.

use std::time::Duration;

use trance_compiler::{
    run_query_with, strategy_options, ExecOptions, InputSet, QuerySpec, RunOutcome, RunResult,
    Strategy,
};
use trance_dist::{ClusterConfig, DistContext, FaultPlan, FaultSite};

mod common;
use common::{assert_bags_approx_eq, input_set, outcome_bag, random_case, Watchdog};

/// Generous per-run deadline: the contract is "typed result before this
/// fires", so it only bites when recovery livelocks — which is exactly the
/// bug it exists to surface (backed up by the process-level watchdog).
const RUN_DEADLINE: Duration = Duration::from_secs(120);

/// A cluster armed with `plan`. `capped` additionally enables the spill
/// subsystem under a tight memory cap so the `spill_read` / `spill_write`
/// injection sites actually execute. The worker count is pinned (like the
/// scheduler-stress suite, this suite *is* its own matrix) and does not
/// follow `TRANCE_WORKERS`.
fn chaos_ctx(plan: FaultPlan, capped: bool) -> DistContext {
    let mut cfg = ClusterConfig::new(3, 8)
        .with_broadcast_limit(64)
        .with_faults(plan);
    if capped {
        cfg = cfg.with_worker_memory(2 * 1024).with_spill();
    }
    DistContext::new(cfg)
}

#[test]
fn seeded_fault_schedules_recover_or_fail_typed_on_every_strategy_and_repr() {
    let _watchdog = Watchdog::arm("chaos::seeded_fault_schedules", Duration::from_secs(600));
    // Accumulated per-site fire counts across the whole suite: the schedules
    // must collectively exercise every injection point.
    let mut fired = [0u64; FaultSite::ALL.len()];
    let mut recovered_runs = 0u64;
    let mut typed_failures = 0u64;
    for seed in 0..24u64 {
        let (spec, values, expected) = random_case(seed);
        // Odd seeds run memory-capped with spilling on, so the spill
        // read/write sites execute; even seeds run in-memory.
        let capped = seed % 2 == 1;
        let inputs = input_set(chaos_ctx(FaultPlan::seeded(seed), capped), &values);
        let ctx = inputs.context().clone();

        for strategy in Strategy::all() {
            let outcome = run_faulted(&spec, &inputs, strategy);
            recovered_runs +=
                u64::from(outcome.stats.retries > 0 || outcome.stats.recovered_partitions > 0);
            match &outcome.result {
                RunResult::Failed(e) => {
                    // A surviving failure must be typed — retry
                    // exhaustion, memory, or cancellation — and the
                    // injector must actually have been the cause class
                    // the taxonomy claims.
                    assert!(
                        e.is_retryable() || e.is_fatal() || e.is_cancelled(),
                        "seed {seed} {}: untyped failure {e}",
                        strategy.label()
                    );
                    typed_failures += 1;
                }
                other => {
                    let produced = outcome_bag(other, &format!("seed {seed} {}", strategy.label()));
                    assert_bags_approx_eq(
                        &expected,
                        &produced,
                        &format!(
                            "seed {seed} {}: faulted run after recovery vs reference",
                            strategy.label()
                        ),
                    );
                }
            }
        }

        let injector = ctx.faults().expect("chaos cluster has an injector");
        for site in FaultSite::ALL {
            fired[site.index()] += injector.fired(site);
        }

        // No spill file may survive the runs' collections.
        if let Some(dir) = ctx.spill_dir() {
            drop(inputs);
            assert_eq!(
                std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0),
                0,
                "seed {seed}: spill files leaked under fault injection"
            );
            drop(ctx);
            assert!(!dir.exists(), "seed {seed}: spill dir survived the context");
        }
    }
    for site in FaultSite::ALL {
        assert!(
            fired[site.index()] > 0,
            "the 24 schedules never exercised the `{site}` injection point"
        );
    }
    assert!(
        recovered_runs > 0,
        "no run ever retried or recovered — injection is not reaching execution"
    );
    // Typed failures are allowed but must stay the exception: recovery is
    // supposed to absorb the default fault rates almost always.
    let total_runs = 24 * Strategy::all().len() as u64;
    assert!(
        typed_failures < total_runs / 4,
        "{typed_failures}/{total_runs} faulted runs failed — recovery is not absorbing faults"
    );
}

/// One run under the cooperative wall-clock budget `deadline`.
fn run_enveloped(
    spec: &QuerySpec,
    inputs: &InputSet,
    strategy: Strategy,
    deadline: Option<Duration>,
) -> RunOutcome {
    let options = ExecOptions {
        deadline,
        ..strategy_options(strategy, false)
    };
    run_query_with(spec, inputs, strategy, &options)
}

/// One faulted run under the chaos deadline.
fn run_faulted(spec: &QuerySpec, inputs: &InputSet, strategy: Strategy) -> RunOutcome {
    run_enveloped(spec, inputs, strategy, Some(RUN_DEADLINE))
}

#[test]
fn targeted_one_shot_bursts_force_lineage_recovery_deterministically() {
    let _watchdog = Watchdog::arm("chaos::one_shot_bursts", Duration::from_secs(600));
    let (spec, values, expected) = random_case(3);
    // A quiet plan except for one burst of morsel faults long enough to
    // exhaust the bounded per-task retries (initial attempt + MAX_TASK_RETRIES
    // redraws), so the task fails and the partition must be recomputed from
    // its source — the lineage path, pinned to exact draw indices.
    let plan = FaultPlan::quiet(7).with_burst(FaultSite::Morsel, 0, 1 + 3);
    let inputs = input_set(chaos_ctx(plan, false), &values);
    for strategy in [Strategy::Standard, Strategy::Shred] {
        let outcome = run_faulted(&spec, &inputs, strategy);
        let produced = outcome_bag(&outcome.result, &format!("one-shot {}", strategy.label()));
        assert_bags_approx_eq(
            &expected,
            &produced,
            &format!("one-shot burst {}: recovery vs reference", strategy.label()),
        );
    }
    let injector = inputs.context().faults().unwrap();
    assert!(
        injector.fired(FaultSite::Morsel) >= 4,
        "the pinned burst must have fired all four morsel faults"
    );
}

#[test]
fn deadline_cancellation_races_mid_spill_without_leaks_and_oracle_unaffected() {
    let _watchdog = Watchdog::arm("chaos::cancellation", Duration::from_secs(600));
    let (spec, values, expected) = random_case(5);
    // Quiet injector (it injects nothing): this test is about cancellation,
    // not faults — but the cluster is capped with spilling on so
    // cancellation lands mid-spill.
    let inputs = input_set(chaos_ctx(FaultPlan::quiet(0), true), &values);
    let ctx = inputs.context().clone();

    // A zero deadline fires at the first morsel/frame boundary check:
    // deterministic cancellation, typed error, `cancelled` stat set.
    let outcome = run_enveloped(&spec, &inputs, Strategy::Standard, Some(Duration::ZERO));
    match &outcome.result {
        RunResult::Failed(e) => assert!(
            e.is_cancelled(),
            "zero deadline must surface as Cancelled, got: {e}"
        ),
        _ => panic!("zero deadline must cancel the run"),
    }
    assert_eq!(outcome.stats.cancelled, 1, "the cancelled stat must be set");

    // Cross-thread cancellation racing the run mid-spill / mid-shuffle: the
    // canceller sweeps its delay across iterations so the cancel lands at
    // different pipeline stages. Every iteration must end in a typed
    // Cancelled error or a clean completion matching the reference — and
    // never leak a spill file.
    for delay_us in [0u64, 50, 200, 800, 3200] {
        let token = ctx.cancel_token();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_micros(delay_us));
            token.cancel("chaos test canceller");
        });
        let outcome = run_enveloped(&spec, &inputs, Strategy::Baseline, None);
        canceller.join().unwrap();
        match &outcome.result {
            RunResult::Failed(e) => assert!(
                e.is_cancelled(),
                "racing cancel at {delay_us}µs: non-cancellation failure {e}"
            ),
            other => {
                // Cancel lost the race (fired before the run reset its
                // token, or after completion): the result must be untouched.
                let produced = outcome_bag(other, &format!("racing cancel at {delay_us}µs"));
                assert_bags_approx_eq(
                    &expected,
                    &produced,
                    &format!("racing cancel at {delay_us}µs: completed run vs reference"),
                );
            }
        }
        if let Some(dir) = ctx.spill_dir() {
            assert_eq!(
                std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0),
                0,
                "racing cancel at {delay_us}µs: spill files leaked"
            );
        }
    }

    // The same context stays healthy after cancellations: a fresh run with
    // no deadline completes and matches the reference.
    let oracle = run_enveloped(&spec, &inputs, Strategy::Standard, None);
    let oracle_bag = outcome_bag(&oracle.result, "post-cancel oracle");
    assert_bags_approx_eq(&expected, &oracle_bag, "post-cancel oracle vs reference");
    assert_eq!(oracle.stats.cancelled, 0);

    // Spill teardown still holds after the cancellation storm.
    if let Some(dir) = ctx.spill_dir() {
        drop(inputs);
        assert_eq!(
            std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0),
            0,
            "spill files leaked after the cancellation storm"
        );
        drop(ctx);
        assert!(!dir.exists());
    }
}

/// Filling the table store's cells draws no faults and books no retries:
/// a run that has to convert its inputs first (cold cells) replays exactly
/// the fault schedule of a run that finds them resident (warm cells).
#[test]
fn cold_and_warm_cell_runs_replay_the_same_fault_schedule() {
    let _watchdog = Watchdog::arm("chaos::cold_vs_warm_cells", Duration::from_secs(600));
    let (spec, values, expected) = random_case(3);
    // Morsel and shuffle faults at ten times the default rate, so a run this
    // small still draws failures. One worker: the schedule is then a pure
    // function of the seed, draw for draw (see `trance_dist::fault`).
    let plan = FaultPlan {
        rates: [0.2, 0.0, 0.0, 0.2],
        ..FaultPlan::quiet(11)
    };
    for strategy in [Strategy::Standard, Strategy::ShredUnshred] {
        let run = |warm_cells: bool| {
            let cfg = ClusterConfig::new(1, 8)
                .with_broadcast_limit(64)
                .with_faults(plan.clone());
            let inputs = input_set(DistContext::new(cfg), &values);
            if warm_cells {
                // Filling the cells draws nothing.
                inputs.resident(strategy.is_shredded()).expect("cells fill");
                let injector = inputs.context().faults().expect("an injector");
                assert!(FaultSite::ALL.iter().all(|&site| injector.draws(site) == 0));
            }
            run_faulted(&spec, &inputs, strategy)
        };
        let (cold, warm) = (run(false), run(true));
        let schedule = |o: &RunOutcome| {
            (
                o.stats.faults_injected,
                o.stats.retries,
                o.stats.recovered_partitions,
            )
        };
        assert!(
            cold.stats.faults_injected > 0,
            "{}: the plan never fired — the comparison is vacuous",
            strategy.label()
        );
        assert_eq!(
            schedule(&cold),
            schedule(&warm),
            "{}: cold-cell and warm-cell runs drew different fault schedules",
            strategy.label()
        );
        for (cells, outcome) in [("cold", &cold), ("warm", &warm)] {
            let produced = outcome_bag(&outcome.result, &format!("{cells} {}", strategy.label()));
            assert_bags_approx_eq(
                &expected,
                &produced,
                &format!("{cells}-cell {} after recovery", strategy.label()),
            );
        }
    }
}
