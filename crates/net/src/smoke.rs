//! The multi-node smoke suite: the paper's running example executed on a
//! live coordinator + worker cluster, differentially checked against the
//! in-process engine.
//!
//! The thread backend is the oracle: for every strategy the TCP run must be
//! bag-identical (up to float tolerance — distributed `Real` sums reorder)
//! **and** move exactly the same logical shuffle bytes, because every rank
//! drives the same deterministic plan over the same partition layout. The
//! optional chaos cells sever a data link mid-run — once before any
//! successful run over the freshly loaded tables, once after — and must
//! still converge to the oracle bag through the coordinator's global retry.

use std::time::Instant;

use trance_compiler::{run_query, InputSet, QuerySpec, RunResult, Strategy};
use trance_dist::{ClusterConfig, DistContext};
use trance_nrc::builder::*;
use trance_nrc::{bags_approx_equal, Bag, Expr, Value};
use trance_shred::{NestingStructure, ShreddedInputDecl};

use crate::coordinator::{Coordinator, JobSpec};
use crate::msg::{ClusterParams, DropSpec};

/// Customers in the smoke dataset — small enough for CI, large enough that
/// every partition is non-empty and shuffles actually move rows.
const SMOKE_CUSTOMERS: usize = 60;

/// The customers/orders/parts nested input of the running example (the same
/// generator the compiler's differential suites use, reproduced here so the
/// binaries stay self-contained).
pub fn cop_value(customers: usize) -> Value {
    let mut rows = Vec::new();
    for c in 0..customers {
        let mut orders = Vec::new();
        for o in 0..(c % 4) {
            let mut parts = Vec::new();
            for p in 0..(o + c) % 5 {
                parts.push(Value::tuple([
                    ("pid", Value::Int((p % 7) as i64)),
                    ("qty", Value::Real(1.0 + p as f64)),
                ]));
            }
            orders.push(Value::tuple([
                ("odate", Value::Date(100 + o as i64)),
                ("oparts", Value::bag(parts)),
            ]));
        }
        rows.push(Value::tuple([
            ("cname", Value::str(format!("c{c}"))),
            ("corders", Value::bag(orders)),
        ]));
    }
    Value::bag(rows)
}

/// The flat `Part` side of the running example.
pub fn part_value() -> Value {
    Value::bag(
        (0..7)
            .map(|p| {
                Value::tuple([
                    ("pid", Value::Int(p)),
                    ("pname", Value::str(format!("part{p}"))),
                    ("price", Value::Real(0.5 + p as f64)),
                ])
            })
            .collect(),
    )
}

/// The nesting structure of [`cop_value`].
pub fn cop_structure() -> NestingStructure {
    NestingStructure::flat().with_child(
        "corders",
        NestingStructure::flat().with_child("oparts", NestingStructure::flat()),
    )
}

/// The paper's running example query (nested output, join + aggregation at
/// the innermost level).
pub fn running_example() -> Expr {
    forin(
        "cop",
        var("COP"),
        singleton(tuple([
            ("cname", proj(var("cop"), "cname")),
            (
                "corders",
                forin(
                    "co",
                    proj(var("cop"), "corders"),
                    singleton(tuple([
                        ("odate", proj(var("co"), "odate")),
                        (
                            "oparts",
                            sum_by(
                                forin(
                                    "op",
                                    proj(var("co"), "oparts"),
                                    forin(
                                        "p",
                                        var("Part"),
                                        ifthen(
                                            cmp_eq(proj(var("op"), "pid"), proj(var("p"), "pid")),
                                            singleton(tuple([
                                                ("pname", proj(var("p"), "pname")),
                                                (
                                                    "total",
                                                    mul(
                                                        proj(var("op"), "qty"),
                                                        proj(var("p"), "price"),
                                                    ),
                                                ),
                                            ])),
                                        ),
                                    ),
                                ),
                                &["pname"],
                                &["total"],
                            ),
                        ),
                    ])),
                ),
            ),
        ])),
    )
}

/// The strategies the smoke suite drives — every strategy with a nested
/// result (shredded-result-only strategies cannot ship rows back).
pub fn smoke_strategies() -> Vec<Strategy> {
    vec![
        Strategy::Standard,
        Strategy::Baseline,
        Strategy::StandardSkew,
        Strategy::ShredUnshred,
        Strategy::ShredUnshredSkew,
    ]
}

/// One verified smoke cell.
#[derive(Debug, Clone)]
pub struct SmokeOutcome {
    /// Cell label (strategy, `"chaos-cold(<strategy>)"` or
    /// `"chaos(<strategy>)"`).
    pub label: String,
    /// Result rows (equal to the oracle's cardinality).
    pub rows: usize,
    /// Whole-job attempts the coordinator used.
    pub attempts: u32,
    /// Summed logical shuffle bytes across ranks.
    pub shuffled_bytes: u64,
    /// Wall-clock milliseconds of the distributed job.
    pub wall_ms: u128,
    /// Wall-clock milliseconds of the in-process oracle run (the
    /// thread-backend side of the thread-vs-TCP comparison).
    pub oracle_wall_ms: u128,
}

/// Runs the running example on the connected cluster, differentially
/// checking every cell against the in-process oracle. With `chaos` set, a
/// first cell (cold table-store cells) and a final cell (warm cells) inject
/// the connection drop and must recover to the oracle result with
/// `attempts > 1`.
pub fn run_smoke(
    coord: &mut Coordinator,
    params: ClusterParams,
    chaos: Option<DropSpec>,
) -> Result<Vec<SmokeOutcome>, String> {
    let cop = cop_value(SMOKE_CUSTOMERS);
    let part = part_value();
    let cop_bag = cop.as_bag().map_err(|e| e.to_string())?.clone();
    let part_bag = part.as_bag().map_err(|e| e.to_string())?.clone();

    // The in-process oracle: identical cluster shape, thread backend.
    let ctx = DistContext::new(
        ClusterConfig::new(params.threads as usize, params.partitions as usize)
            .with_broadcast_limit(params.broadcast_limit as usize),
    );
    let mut oracle_inputs = InputSet::new(ctx);
    oracle_inputs
        .add_nested("COP", cop_bag.clone())
        .map_err(|e| e.to_string())?;
    oracle_inputs
        .add_flat("Part", part_bag.clone())
        .map_err(|e| e.to_string())?;
    let spec = QuerySpec::new(
        "running-example",
        running_example(),
        vec![ShreddedInputDecl::new("COP", cop_structure())],
    );

    coord
        .load_nested("COP", cop_bag)
        .map_err(|e| format!("loading COP: {e}"))?;
    coord
        .load_flat("Part", part_bag.into_items())
        .map_err(|e| format!("loading Part: {e}"))?;

    let mut outcomes = Vec::new();
    let mut cells: Vec<(String, Strategy, Option<DropSpec>)> = Vec::new();
    // The chaos drop runs twice: as the very first job over the freshly
    // loaded tables, when every rank's table-store cells are still cold and
    // the drop lands among the collectives that fill them, and again at the
    // end over warm cells. A rank that skipped or added a collective
    // because of what its cells hold shows up as a mismatch or a timeout.
    if let Some(drop) = chaos {
        cells.push((
            "chaos-cold(STANDARD)".to_string(),
            Strategy::Standard,
            Some(drop),
        ));
    }
    cells.extend(
        smoke_strategies()
            .into_iter()
            .map(|s| (s.label().to_string(), s, None)),
    );
    if let Some(drop) = chaos {
        cells.push((
            "chaos(STANDARD)".to_string(),
            Strategy::Standard,
            Some(drop),
        ));
    }

    for (label, strategy, drop) in cells {
        let oracle = run_query(&spec, &oracle_inputs, strategy);
        let oracle_bag = match &oracle.result {
            RunResult::Nested(coll) => coll.collect_bag(),
            other => return Err(format!("{label}: oracle produced {other:?}")),
        };

        let mut job = JobSpec::new(
            running_example(),
            vec![("COP".to_string(), cop_structure())],
            strategy,
        );
        job.chaos = drop;
        let started = Instant::now();
        let report = coord
            .run(&job)
            .map_err(|e| format!("{label}: distributed run failed: {e}"))?;
        let wall_ms = started.elapsed().as_millis();

        check_cell(
            &label,
            &oracle_bag,
            oracle.stats.shuffled_bytes,
            &report.rows,
            report.stats.shuffled_bytes,
        )?;
        if drop.is_some() && report.attempts < 2 {
            return Err(format!(
                "{label}: chaos drop did not force a retry (attempts = {})",
                report.attempts
            ));
        }
        outcomes.push(SmokeOutcome {
            label,
            rows: report.rows.items().len(),
            attempts: report.attempts,
            shuffled_bytes: report.stats.shuffled_bytes,
            wall_ms,
            oracle_wall_ms: oracle.elapsed.as_millis(),
        });
    }
    Ok(outcomes)
}

fn check_cell(
    label: &str,
    oracle_bag: &Bag,
    oracle_shuffled: u64,
    got_bag: &Bag,
    got_shuffled: u64,
) -> Result<(), String> {
    if !bags_approx_equal(oracle_bag, got_bag) {
        return Err(format!(
            "{label}: distributed result diverges from the in-process oracle \
             ({} vs {} rows)",
            got_bag.items().len(),
            oracle_bag.items().len()
        ));
    }
    if got_shuffled != oracle_shuffled {
        return Err(format!(
            "{label}: logical shuffle bytes diverge (distributed {got_shuffled}, \
             oracle {oracle_shuffled})"
        ));
    }
    Ok(())
}
