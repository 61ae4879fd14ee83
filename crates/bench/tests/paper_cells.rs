//! What the figure tables must show, as assertions: the paper's FAIL cells
//! (and their completion once spilling is on), physical against logical
//! shuffle bytes, the optimizer against the SparkSQL-like baseline, the
//! skew-aware shredded route against the skew-unaware one, and Figure 9:
//! every step of its pipeline against `nrc::eval`, the bytes STANDARD ships
//! against the baseline's, and how a FAIL is reported.
//!
//! The cells are the depth-2 cells of `figure7` at scale 0.1 — the smallest
//! scale whose capped Wide row reads like the one at the figures' default 0.3
//! (`figure7 --schema wide --scale 0.1 --memory-factor 1.5`) — and of
//! `figure8` at 0.2, the smallest at which a key is heavy enough for the
//! skew-aware joins to treat it apart.

use trance_bench::{
    observe_biomed_pipeline, run_biomed_pipeline_tuned, tpch_input_set_tuned, ClusterTuning, Family,
};
use trance_biomed::BiomedConfig;
use trance_compiler::{
    collect_unshredded, run_query, run_query_explained, run_query_with, strategy_options,
    ExecOptions, InputSet, QuerySpec, RunOutcome, RunResult, Strategy,
};
use trance_dist::ExecError;
use trance_nrc::{bags_approx_equal, eval, Bag, Env, Value};
use trance_tpch::{
    QueryVariant::{self, Narrow, Wide},
    TpchConfig,
};

/// Figure 7's (unskewed) data.
fn figure7_data() -> TpchConfig {
    TpchConfig::new(0.1, 0)
}

/// Figure 8's data at skew factor 3.
fn figure8_data() -> TpchConfig {
    TpchConfig::new(0.2, 3)
}

/// The per-worker cap, as a multiple of a worker's share of the input, at
/// which all three of the paper's FAIL cells exhaust memory: since the
/// optimizer prunes dead parent columns below every breaker, Wide
/// flat-to-nested STANDARD fits under the figures' default factor of 3. (At
/// this scale the flat-to-nested cap is the harness's 64 KiB floor, 1.7
/// shares.)
const CAP_FACTOR: f64 = 1.5;

/// The cells the paper reports as FAIL: the flattening strategies on the
/// Wide queries that build or carry two levels of nesting.
const PAPER_FAIL_CELLS: [(Family, Strategy); 3] = [
    (Family::FlatToNested, Strategy::Standard),
    (Family::FlatToNested, Strategy::Baseline),
    (Family::NestedToNested, Strategy::Baseline),
];

/// One depth-2 cell on the figure cluster, capped at `memory_factor` times a
/// worker's share of the input (0 is uncapped), spill-capable on request.
fn cell(
    config: TpchConfig,
    family: Family,
    variant: QueryVariant,
    memory_factor: f64,
    spill: bool,
) -> (InputSet, QuerySpec) {
    let tuning = ClusterTuning {
        spill,
        ..ClusterTuning::default()
    };
    tpch_input_set_tuned(&config, family, 2, variant, memory_factor, &tuning)
}

/// An uncapped cell: where bytes are compared, the cap is not the subject.
fn uncapped(config: TpchConfig, family: Family, variant: QueryVariant) -> (InputSet, QuerySpec) {
    cell(config, family, variant, 0.0, false)
}

/// Which capped cells exhaust memory depends on the cluster's shape — the cap
/// is a worker's share of the input, and 16 partitions fall unevenly on 7
/// workers and all on 1 — so the FAIL pattern is the 4-worker figure
/// cluster's. Under a `TRANCE_WORKERS` override (the CI matrix) the capped
/// tests step aside; the byte comparisons below run at every worker count.
fn on_the_figure_cluster(inputs: &InputSet) -> bool {
    let workers = inputs.context().config().workers;
    if workers != 4 {
        eprintln!("skipped: the paper's FAIL cells are the 4-worker cluster's, not {workers}'s");
    }
    workers == 4
}

fn completed(outcome: &RunOutcome, case: &str) {
    if let RunResult::Failed(e) = &outcome.result {
        panic!("{case} must complete: {e}");
    }
}

/// The capped Wide row of `figure7`: the shredded strategies never FAIL,
/// only the flattening ones may, and the paper's three cells do — by
/// exhausting the simulated worker memory, not by any other error. The
/// Narrow nested-to-nested row at the figures' default cap has no FAIL cell.
#[test]
fn only_the_flattening_strategies_on_wide_queries_exhaust_memory() {
    let capped_wide = Family::all().map(|family| (Wide, family, CAP_FACTOR));
    let default_narrow = (Narrow, Family::NestedToNested, 3.0);
    for (variant, family, cap_factor) in capped_wide.into_iter().chain([default_narrow]) {
        let (inputs, spec) = cell(figure7_data(), family, variant, cap_factor, false);
        if !on_the_figure_cluster(&inputs) {
            return;
        }
        let wide = variant == Wide;
        for strategy in [
            Strategy::ShredUnshred,
            Strategy::Shred,
            Strategy::Standard,
            Strategy::Baseline,
        ] {
            let case = format!("{variant:?} {} {}", family.label(), strategy.label());
            let outcome = run_query(&spec, &inputs, strategy);
            match &outcome.result {
                RunResult::Failed(ExecError::MemoryExceeded { .. }) => assert!(
                    wide && !strategy.is_shredded(),
                    "{case} exhausted worker memory"
                ),
                RunResult::Failed(e) => panic!("{case} failed, and not for memory: {e}"),
                _ => assert!(
                    !(wide && PAPER_FAIL_CELLS.contains(&(family, strategy))),
                    "{case} fits under the cap; the paper reports FAIL"
                ),
            }
            assert_eq!(
                outcome.stats.spilled_bytes, 0,
                "{case}: a cluster without spilling spilled"
            );
        }
    }
}

/// The paper's FAIL cells on a spill-capable cluster under the same cap:
/// still FAIL with spilling switched off for the run, complete out-of-core
/// with it on, and the out-of-core result is the uncapped one.
#[test]
fn the_paper_fail_cells_complete_out_of_core_with_the_uncapped_result() {
    for (family, strategy) in PAPER_FAIL_CELLS {
        let case = format!("{} {}", family.label(), strategy.label());
        let (capped, spec) = cell(figure7_data(), family, Wide, CAP_FACTOR, true);
        if !on_the_figure_cluster(&capped) {
            return;
        }
        let (oracle, _) = uncapped(figure7_data(), family, Wide);
        let expected = run_query(&spec, &oracle, strategy)
            .result
            .nested_bag()
            .unwrap_or_else(|| panic!("{case}: the uncapped oracle must produce a nested bag"));

        let spill_off = ExecOptions {
            spill: false,
            ..strategy_options(strategy, false)
        };
        let off = run_query_with(&spec, &capped, strategy, &spill_off);
        assert!(
            matches!(
                off.result,
                RunResult::Failed(ExecError::MemoryExceeded { .. })
            ),
            "{case} with spill off must exhaust worker memory, got {:?}",
            off.result
        );
        assert_eq!(
            off.stats.spilled_bytes, 0,
            "{case}: a spill-off run spilled"
        );

        let on = run_query(&spec, &capped, strategy);
        completed(&on, &format!("{case} with spill on"));
        assert!(
            on.stats.spilled_bytes > 0 && on.stats.spill_files > 0,
            "{case} completed under the cap without spill traffic: {} bytes, {} files",
            on.stats.spilled_bytes,
            on.stats.spill_files
        );
        let produced = on.result.nested_bag().expect("a nested result");
        assert!(
            bags_approx_equal(&expected, &produced),
            "{case}: the spilled result diverged from the uncapped oracle"
        );
    }
}

/// A shuffle's logical volume is what its rows would ship as heap values,
/// its physical volume what the batch buffers ship. Unshredding must meter
/// real buffers (physical strictly below logical), and typed batches ship
/// at most half the row-equivalent bytes on the headline Wide cell.
#[test]
fn typed_batches_ship_fewer_bytes_than_their_row_equivalent() {
    let (inputs, spec) = uncapped(figure7_data(), Family::FlatToNested, Wide);
    let unshred = run_query(&spec, &inputs, Strategy::ShredUnshred);
    completed(&unshred, "flat-to-nested SHRED+UNSHRED");
    assert!(
        unshred.stats.shuffled_bytes_phys < unshred.stats.shuffled_bytes,
        "SHRED+UNSHRED must meter physical batch buffers, not the logical estimate: \
         {} physical vs {} logical",
        unshred.stats.shuffled_bytes_phys,
        unshred.stats.shuffled_bytes
    );

    let (inputs, spec) = uncapped(figure7_data(), Family::NestedToNested, Wide);
    let standard = run_query(&spec, &inputs, Strategy::Standard);
    completed(&standard, "nested-to-nested STANDARD");
    assert!(
        2 * standard.stats.shuffled_bytes_phys <= standard.stats.shuffled_bytes,
        "STANDARD must shuffle at most half its row-equivalent bytes: \
         {} physical vs {} logical",
        standard.stats.shuffled_bytes_phys,
        standard.stats.shuffled_bytes
    );
}

/// Column pruning and pushdown are what separate STANDARD from the
/// SparkSQL-like baseline: where both complete, STANDARD ships strictly
/// fewer logical bytes.
#[test]
fn the_optimizer_ships_fewer_bytes_than_the_baseline() {
    let (inputs, spec) = uncapped(figure7_data(), Family::NestedToNested, Narrow);
    let standard = run_query(&spec, &inputs, Strategy::Standard);
    let baseline = run_query(&spec, &inputs, Strategy::Baseline);
    completed(&standard, "narrow STANDARD");
    completed(&baseline, "narrow SPARKSQL-LIKE");
    assert!(
        standard.stats.shuffled_bytes < baseline.stats.shuffled_bytes,
        "STANDARD shipped {} logical bytes, SPARKSQL-LIKE {}",
        standard.stats.shuffled_bytes,
        baseline.stats.shuffled_bytes
    );
}

/// Figure 8's direction: on skewed data the skew-aware shredded route
/// broadcasts the heavy keys' matches instead of shuffling the heavy rows,
/// and ships strictly fewer logical bytes for it.
#[test]
fn skew_aware_shredding_ships_fewer_bytes_on_skewed_data() {
    let (inputs, spec) = uncapped(figure8_data(), Family::NestedToNested, Narrow);
    let shred = run_query(&spec, &inputs, Strategy::Shred);
    let skew = run_query(&spec, &inputs, Strategy::ShredSkew);
    completed(&shred, "skew-3 SHRED");
    completed(&skew, "skew-3 SHRED-SKEW");
    assert!(
        skew.stats.skew_broadcast_joins >= 1,
        "SHRED-SKEW found no heavy key to broadcast"
    );
    assert!(
        skew.stats.shuffled_bytes < shred.stats.shuffled_bytes,
        "SHRED-SKEW shipped {} logical bytes, SHRED {}",
        skew.stats.shuffled_bytes,
        shred.stats.shuffled_bytes
    );
}

/// Which shuffles run on the headline cell. The optimizer places each `Γ`
/// for the breaker that consumes it, so STANDARD answers three of its seven
/// shuffles in place (the `Γ⊎` above the `Γ+` and the grouped side of both
/// re-nesting joins) and SHRED+UNSHRED three of its seven (the first `Γ⊎` by
/// label and the grouped side of both label joins). SHRED alone has nothing
/// downstream to be placed for: every one of its shuffles runs.
#[test]
fn groupings_are_placed_for_their_consumers_and_those_shuffles_do_not_run() {
    let (inputs, spec) = uncapped(figure7_data(), Family::NestedToNested, Wide);
    let standard = run_query(&spec, &inputs, Strategy::Standard);
    let shred = run_query(&spec, &inputs, Strategy::Shred);
    let unshred = run_query(&spec, &inputs, Strategy::ShredUnshred);
    completed(&standard, "STANDARD");
    completed(&unshred, "SHRED+UNSHRED");
    let in_place = |o: &RunOutcome| o.stats.shuffles_in_place;
    assert_eq!(
        (in_place(&standard), in_place(&shred), in_place(&unshred)),
        (3, 0, 3),
        "shuffles answered in place by STANDARD, SHRED, SHRED+UNSHRED"
    );
    // Both joins of each route still run as shuffle joins: what dropped is
    // rows moved, not work reclassified.
    assert_eq!(standard.stats.shuffle_joins, 2);
    assert_eq!(unshred.stats.shuffle_joins, 2);

    // A label join of unshredding books a shuffle for at most one side.
    // What unshredding moves is then exactly: the order dictionary into the
    // first label join, its rows again into the `Γ⊎` by their own label,
    // and the top bag into the second join — never a grouped side.
    let RunResult::Shredded(shredded) = &shred.result else {
        panic!("SHRED must produce a shredded result");
    };
    let orders = shredded.dicts["orders"].len() as u64;
    let top = shredded.top.len() as u64;
    assert_eq!(
        unshred.stats.shuffled_tuples - shred.stats.shuffled_tuples,
        2 * orders + top,
        "unshredding moved a grouped join side ({orders} order rows, {top} top rows)"
    );

    // The same reading off the plan: unshredding is the run's last unit, and
    // its `-- unshred --` section shows two label joins, each with the
    // grouped side — never the scanned parent — marked in place, over a
    // first `Γ⊎` that finds its dictionary hashed by label.
    let (explained, text) = run_query_explained(&spec, &inputs, Strategy::ShredUnshred);
    assert_eq!(in_place(&explained), 3);
    let unit = text
        .split_once("-- unshred --\n")
        .expect("SHRED+UNSHRED explains its unshredding unit")
        .1;
    let unit = unit.split_once("\n-- ").map_or(unit, |(plan, _)| plan);
    let lines = |what: &str| -> Vec<&str> { unit.lines().filter(|l| l.contains(what)).collect() };
    assert_eq!(lines("RenestJoin on ").len(), 2, "{unit}");
    assert_eq!(lines("NestBag key=[label]").len(), 2, "{unit}");
    let marked = lines("[in place");
    assert_eq!(marked.len(), 3, "{unit}");
    let grouped_in_place = lines("NestBag key=[label]")
        .into_iter()
        .filter(|l| l.contains("hashed by label]"));
    assert_eq!(grouped_in_place.count(), 2, "{unit}");
    assert!(marked.iter().all(|l| !l.contains("Scan TopBag")), "{unit}");
    assert!(
        lines("Scan MatDict_orders_lineitems")[0].contains("[in place: hashed by label]"),
        "{unit}"
    );
}

/// Figure 9 on the small dataset: every step of the biomedical pipeline, fed
/// the previous step's output in the form that step produced it, equals
/// `nrc::eval` of the step over the reference's own intermediate — under
/// STANDARD (nested collections handed on), SHRED (each step reads the
/// dictionaries the previous one wrote) and SHRED+UNSHRED.
#[test]
fn every_step_of_the_biomedical_pipeline_equals_its_reference() {
    let config = BiomedConfig::small().scaled(0.3);
    let data = trance_biomed::generate(&config);
    let mut env = Env::from_bindings([
        ("Occurrences", Value::Bag(data.occurrences)),
        ("Network", Value::Bag(data.network)),
        ("GeneInfo", Value::Bag(data.gene_info)),
        ("ImpactWeights", Value::Bag(data.impact_weights)),
        ("ConseqWeights", Value::Bag(data.conseq_weights)),
    ]);
    let mut reference: Vec<(&str, Bag)> = Vec::new();
    for (step, output, expr) in trance_biomed::pipeline_steps() {
        let out = eval(&expr, &env).expect("the reference evaluates the step");
        reference.push((step, out.as_bag().expect("a step yields a bag").clone()));
        env.bind(output, out);
    }
    for strategy in [Strategy::Standard, Strategy::Shred, Strategy::ShredUnshred] {
        let mut step = 0;
        let tuning = ClusterTuning::default();
        let row = observe_biomed_pipeline(&config, strategy, 0.0, &tuning, |spec, inputs| {
            let outcome = run_query(spec, inputs, strategy);
            let (name, want) = &reference[step];
            let case = format!("{} {name}", strategy.label());
            assert_eq!(spec.name, *name);
            completed(&outcome, &case);
            let got = match &outcome.result {
                RunResult::Shredded(out) => collect_unshredded(out).expect("the output unshreds"),
                other => other.nested_bag().expect("a nested result"),
            };
            assert!(!want.is_empty(), "{case}: the reference is empty");
            assert!(
                bags_approx_equal(&got, want),
                "{case} differs from nrc::eval"
            );
            step += 1;
            outcome
        });
        assert_eq!(step, 5, "{}: five steps ran", strategy.label());
        assert!(!row.failed());
    }
}

/// Figure 9 on the full dataset, uncapped so every step runs: with the
/// optimizer on, the flattening route ships no more logical bytes over the
/// whole pipeline than the SparkSQL-like baseline (16.77 vs 28.67 MiB at the
/// default scale).
#[test]
fn full_standard_ships_no_more_than_the_baseline_over_the_biomedical_pipeline() {
    let config = BiomedConfig::full().scaled(0.5);
    let tuning = ClusterTuning::default();
    let [standard, baseline] = [Strategy::Standard, Strategy::Baseline]
        .map(|s| run_biomed_pipeline_tuned(&config, s, 0.0, &tuning));
    assert!(
        !standard.failed() && !baseline.failed(),
        "an uncapped step failed"
    );
    assert!(
        standard.shuffled_bytes <= baseline.shuffled_bytes,
        "FULL STANDARD shipped {} logical bytes, SPARKSQL-LIKE {}",
        standard.shuffled_bytes,
        baseline.shuffled_bytes
    );
}

/// A step after a FAIL is reported as FAIL, not as a time: it is not
/// attempted. On the figure cluster the small dataset at memory factor 6
/// exhausts SPARKSQL-LIKE's memory at Step2 (`figure9 --memory-factor 6`).
#[test]
fn a_step_after_a_fail_is_reported_as_fail() {
    let (mut attempted, mut figure_cluster, mut failure) = (0, true, None);
    let tuning = ClusterTuning::default();
    let config = BiomedConfig::small();
    let row = observe_biomed_pipeline(&config, Strategy::Baseline, 6.0, &tuning, |spec, inputs| {
        attempted += 1;
        figure_cluster = on_the_figure_cluster(inputs);
        let outcome = run_query(spec, inputs, Strategy::Baseline);
        if let RunResult::Failed(e) = &outcome.result {
            failure = Some(e.clone());
        }
        outcome
    });
    if !figure_cluster {
        return;
    }
    let failed_at = row.steps.iter().position(|(_, time)| time.is_none());
    assert_eq!(failed_at, Some(1), "SPARKSQL-LIKE must FAIL at Step2");
    assert!(
        matches!(failure, Some(ExecError::MemoryExceeded { .. })),
        "Step2 failed, and not for memory: {failure:?}"
    );
    assert_eq!(attempted, 2, "a step after the FAIL was run");
    assert_eq!(row.steps.len(), 5);
    assert!(
        row.steps[1..].iter().all(|(_, time)| time.is_none()),
        "a step after the FAIL reported a time: {:?}",
        row.steps
    );
    assert!(row.failed());
}
