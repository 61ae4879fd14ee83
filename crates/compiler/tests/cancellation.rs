//! Cooperative cancellation: a deadline or a cross-thread cancel that lands
//! anywhere in a run — mid-shuffle, mid-spill — ends it in a **typed**
//! `Cancelled` error or a completed run equal to the `nrc::eval` reference,
//! never a hang and never a leaked spill file, and the context keeps
//! serving afterwards.

use std::time::Duration;

use trance_compiler::{
    run_query_with, strategy_options, ExecOptions, InputSet, QuerySpec, RunOutcome, RunResult,
    Strategy,
};
use trance_dist::{ClusterConfig, DistContext};

mod common;
use common::{assert_bags_approx_eq, input_set, outcome_bag, random_case, Watchdog};

/// A cluster with the spill subsystem on under a tight memory cap, so runs
/// spill and a cancellation can land mid-spill. The worker count is pinned
/// and does not follow `TRANCE_WORKERS`.
fn capped_ctx() -> DistContext {
    let cfg = ClusterConfig::new(3, 8)
        .with_broadcast_limit(64)
        .with_worker_memory(2 * 1024)
        .with_spill();
    DistContext::new(cfg)
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

#[test]
fn deadline_cancellation_races_mid_spill_without_leaks_and_oracle_unaffected() {
    let _watchdog = Watchdog::arm("cancellation", Duration::from_secs(600));
    let (spec, values, expected) = random_case(5);
    // The cluster is capped with spilling on so cancellation lands
    // mid-spill.
    let inputs = input_set(capped_ctx(), &values);
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
            token.cancel("test canceller");
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
