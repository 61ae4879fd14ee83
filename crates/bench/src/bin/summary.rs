//! Prints the headline comparison ratios of the experimental summary
//! (Section 6 bullet list) and writes every measured cell to
//! `BENCH_summary.json` so successive changes have a machine-readable perf
//! trajectory to regress against.
//!
//! Every row carries an explicit `status` (`ok` / `fail`); `wall_ms` is a
//! number exactly when `status` is `ok` and `null` only for failed runs (the
//! paper's FAIL cells, whose shuffle counters still reflect the work done
//! before the memory cap hit). `op_ms` breaks the run down per engine
//! operator. `spill` / `spilled_bytes` / `spill_files` / `spill_ms` describe
//! the out-of-core subsystem: the `-capped` rows re-run the paper's three
//! FAIL cells on a spill-capable cluster at half the headline cap (where all
//! three flattening cells exhaust memory), spill off (FAIL) and
//! spill on (ok, differentially checked against an uncapped oracle via
//! `results_match_uncapped`). `faults_injected` / `retries` /
//! `recovered_partitions` / `cancelled` report the fault-tolerance layer —
//! all zero unless a fault plan (`--faults` / `TRANCE_FAULT_SEED`) armed the
//! injector. The top-level `net` key holds the multi-node cells: the
//! running example executed by real worker *processes* over TCP, each cell
//! differentially checked against the in-process thread oracle (equal bags,
//! equal logical shuffle bytes), plus a seeded connection-drop chaos cell
//! that must recover to the oracle result through the coordinator's global
//! retry (`TRANCE_NET_SEED` picks the victim and drop point).

use std::fmt::Write as _;

use trance_bench::{
    best_of_interleaved, cli_flag, parse_typecheck_us, run_capped_cells, run_closed_loop,
    run_cold_warm_pair, run_strategies, serve_engine, serve_query_set, tpch_input_set,
    tpch_type_env, wide_standard_case, BenchRow, Family, ServeRow,
};
use trance_compiler::{strategy_options, ExecOptions, Strategy};
use trance_net::{run_smoke, spawn_self_cluster, ClusterParams, DropSpec, SmokeOutcome};
use trance_tpch::{flat_to_nested, nested_to_flat, nested_to_nested, QueryVariant, TpchConfig};

fn ratio(a: Option<std::time::Duration>, b: Option<std::time::Duration>) -> String {
    match (a, b) {
        (Some(a), Some(b)) if b.as_secs_f64() > 0.0 => {
            format!("{:.1}x", a.as_secs_f64() / b.as_secs_f64())
        }
        (None, Some(_)) => "FAIL vs ok".to_string(),
        _ => "n/a".to_string(),
    }
}

/// One measured cell destined for `BENCH_summary.json`.
struct JsonCell {
    query: String,
    /// Which executor drove the run: morsel-driven fused pipelines
    /// (`pipelined`, the default) or one materialization per operator
    /// (`staged`).
    exec: &'static str,
    /// Which expression engine evaluated scalar operators: register-based
    /// vectorized kernels (`compiled`, the default) or the tree-walking
    /// interpreter (`interp`).
    expr: &'static str,
    /// Whether the out-of-core subsystem was enabled for this run.
    spill: &'static str,
    /// For capped spill-on runs: did the result match the uncapped oracle?
    results_match: Option<bool>,
    /// Front-end cost of the textual path for this cell's query: parse the
    /// pretty-printed surface text and typecheck it (microseconds).
    parse_typecheck_us: f64,
    row: BenchRow,
}

impl JsonCell {
    fn new(query: String, parse_typecheck_us: f64, row: BenchRow) -> JsonCell {
        JsonCell {
            query,
            exec: "pipelined",
            expr: "compiled",
            spill: "off",
            results_match: None,
            parse_typecheck_us,
            row,
        }
    }
}

/// Runs one TPC-H cell per strategy under explicit options.
fn run_cell(
    cfg: &TpchConfig,
    family: Family,
    depth: usize,
    variant: QueryVariant,
    strategies: &[Strategy],
    memory_factor: f64,
    options_for: impl Fn(Strategy) -> ExecOptions,
) -> Vec<BenchRow> {
    let (inputs, spec) = tpch_input_set(cfg, family, depth, variant, memory_factor);
    run_strategies(&spec, &inputs, strategies, options_for)
}

/// Renders the collected cells as a JSON document (the workspace builds
/// offline, so the document is assembled by hand instead of via serde).
/// The serving rows live under their own top-level `serve` key: they
/// measure a different object (sustained multi-client throughput against
/// the resident engine) and carry a different schema than the per-run
/// `rows`.
fn render_json(cells: &[JsonCell], serve: &[ServeRow], net: &[SmokeOutcome]) -> String {
    fn escape(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    let mut out = String::from("{\n  \"rows\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        let s = &cell.row.stats;
        let (status, wall) = match cell.row.elapsed {
            Some(d) => ("ok", format!("{:.3}", d.as_secs_f64() * 1000.0)),
            None => ("fail", "null".to_string()),
        };
        let op_ms = s
            .op_timings
            .iter()
            .map(|(op, t)| format!("\"{}\": {:.3}", escape(op), t.micros as f64 / 1000.0))
            .collect::<Vec<_>>()
            .join(", ");
        // Per-row shuffled bytes (physical): what the batch encoding ships,
        // tracked next to wall time.
        let bytes_per_tuple = if s.shuffled_tuples > 0 {
            s.shuffled_bytes_phys as f64 / s.shuffled_tuples as f64
        } else {
            0.0
        };
        let results_match = match cell.results_match {
            Some(m) => format!(", \"results_match_uncapped\": {m}"),
            None => String::new(),
        };
        let _ = writeln!(
            out,
            "    {{\"query\": \"{}\", \"strategy\": \"{}\", \
             \"exec\": \"{}\", \"expr\": \"{}\", \"status\": \"{}\", \"wall_ms\": {}, \
             \"shuffled_tuples\": {}, \"shuffled_bytes\": {}, \
             \"shuffled_bytes_phys\": {}, \"bytes_per_tuple\": {:.3}, \
             \"broadcast_tuples\": {}, \"broadcast_bytes\": {}, \
             \"broadcast_bytes_phys\": {}, \
             \"shuffle_joins\": {}, \"broadcast_joins\": {}, \
             \"skew_broadcast_joins\": {}, \"skew_fallback_joins\": {}, \
             \"spill\": \"{}\", \"spilled_bytes\": {}, \"spill_files\": {}, \
             \"spill_ms\": {:.3}{}, \
             \"pipeline_ms\": {:.3}, \"morsels\": {}, \"steals\": {}, \
             \"expr_compile_ms\": {:.3}, \"expr_instrs\": {}, \
             \"parse_typecheck_us\": {:.3}, \
             \"faults_injected\": {}, \"retries\": {}, \
             \"recovered_partitions\": {}, \"cancelled\": {}, \
             \"op_ms\": {{{}}}}}{}",
            escape(&cell.query),
            escape(cell.row.strategy.label()),
            cell.exec,
            cell.expr,
            status,
            wall,
            s.shuffled_tuples,
            s.shuffled_bytes,
            s.shuffled_bytes_phys,
            bytes_per_tuple,
            s.broadcast_tuples,
            s.broadcast_bytes,
            s.broadcast_bytes_phys,
            s.shuffle_joins,
            s.broadcast_joins,
            s.skew_broadcast_joins,
            s.skew_fallback_joins,
            cell.spill,
            s.spilled_bytes,
            s.spill_files,
            s.spill_ms(),
            results_match,
            s.pipeline_ms(),
            s.total_morsels(),
            s.steal_count,
            s.expr_compile_ms(),
            s.expr_kernel_instrs,
            cell.parse_typecheck_us,
            s.faults_injected,
            s.retries,
            s.recovered_partitions,
            s.cancelled,
            op_ms,
            if i + 1 < cells.len() { "," } else { "" },
        );
    }
    out.push_str("  ],\n  \"serve\": [\n");
    for (i, row) in serve.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"label\": \"{}\", \"clients\": {}, \"queries\": {}, \
             \"rejected\": {}, \"qps\": {:.3}, \"p50_ms\": {:.3}, \
             \"p95_ms\": {:.3}, \"p99_ms\": {:.3}, \"cache_hit_rate\": {:.4}, \
             \"compile_ms\": {:.3}, \"plans_compiled\": {}}}{}",
            escape(&row.label),
            row.clients,
            row.queries,
            row.rejected,
            row.qps,
            row.p50_ms,
            row.p95_ms,
            row.p99_ms,
            row.cache_hit_rate,
            row.compile_ms,
            row.plans_compiled,
            if i + 1 < serve.len() { "," } else { "" },
        );
    }
    out.push_str("  ],\n  \"net\": [\n");
    for (i, cell) in net.iter().enumerate() {
        let chaos = cell.label.starts_with("chaos");
        let _ = writeln!(
            out,
            "    {{\"label\": \"{}\", \"ranks\": {}, \"status\": \"ok\", \
             \"oracle_match\": true, \"chaos\": {}, \"attempts\": {}, \
             \"rows\": {}, \"shuffled_bytes\": {}, \"wall_ms_tcp\": {}, \
             \"wall_ms_thread\": {}}}{}",
            escape(&cell.label),
            NET_RANKS,
            chaos,
            cell.attempts,
            cell.rows,
            cell.shuffled_bytes,
            cell.wall_ms,
            cell.oracle_wall_ms,
            if i + 1 < net.len() { "," } else { "" },
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Worker processes of the multi-node cells.
const NET_RANKS: usize = 3;

/// Runs the multi-node cells: spawn [`NET_RANKS`] worker processes
/// (re-executions of this binary, diverted by `TRANCE_NET_WORKER`), drive
/// the smoke suite over real TCP, and return the verified cells. `run_smoke`
/// itself asserts every cell bag- and shuffle-byte-identical to the
/// in-process oracle, so a divergence fails the benchmark run loudly.
fn run_net_cells() -> Vec<SmokeOutcome> {
    let params = ClusterParams {
        partitions: 8,
        threads: 2,
        broadcast_limit: 8 * 1024 * 1024,
    };
    let seed = std::env::var("TRANCE_NET_SEED")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
        .unwrap_or(0);
    let chaos = DropSpec {
        victim: (seed % NET_RANKS as u64) as u32,
        after_frames: 2 + seed % 5,
    };
    println!(
        "\nmulti-node cells: {NET_RANKS} worker processes over TCP \
         (chaos seed {seed}: rank {} drops after {} frames)",
        chaos.victim, chaos.after_frames
    );
    let mut cluster = match spawn_self_cluster("TRANCE_NET_WORKER", NET_RANKS, params) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("failed to spawn the multi-node cluster: {e}");
            return Vec::new();
        }
    };
    let cells = match run_smoke(&mut cluster.coordinator, params, Some(chaos)) {
        Ok(cells) => cells,
        Err(e) => {
            eprintln!("multi-node cells failed: {e}");
            Vec::new()
        }
    };
    for cell in &cells {
        println!(
            "net {:<22} TCP {} ms vs thread {} ms, {} shuffle bytes, \
             {} attempt(s), oracle match",
            cell.label, cell.wall_ms, cell.oracle_wall_ms, cell.shuffled_bytes, cell.attempts
        );
    }
    cluster.shutdown();
    cells
}

fn main() {
    // Re-executions of this binary become worker processes for the
    // multi-node cells — divert them before any benchmarking starts.
    if let Ok(addr) = std::env::var("TRANCE_NET_WORKER") {
        if let Err(e) = trance_net::worker::serve(&addr) {
            eprintln!("net worker failed: {e}");
            std::process::exit(1);
        }
        return;
    }
    let mut cells: Vec<JsonCell> = Vec::new();
    // `--staged` switches the headline cells to the staged executor (the
    // pipelined-vs-staged A/B pair below always runs both).
    let pipelined = !cli_flag("--staged");
    let exec_label = if pipelined { "pipelined" } else { "staged" };
    let headline = |s: Strategy| ExecOptions {
        pipelined,
        ..strategy_options(s, false)
    };
    let cfg = TpchConfig::new(0.3, 0);
    // Front-end cost per distinct query text: a tiny generated sample gives
    // the table types, then the cell's query is pretty-printed, re-parsed and
    // typechecked — the price a textual submission pays once per cache miss.
    let fe_cfg = TpchConfig::new(0.01, 0);
    let fe_env_wide = tpch_type_env(&fe_cfg, 2, QueryVariant::Wide);
    let fe_env_narrow = tpch_type_env(&fe_cfg, 2, QueryVariant::Narrow);
    let front_end_us = |family: Family, variant: QueryVariant| -> f64 {
        let query = match family {
            Family::FlatToNested => flat_to_nested(2, variant),
            Family::NestedToNested => nested_to_nested(2, variant),
            Family::NestedToFlat => nested_to_flat(2, variant),
        };
        let env = match variant {
            QueryVariant::Wide => &fe_env_wide,
            QueryVariant::Narrow => &fe_env_narrow,
        };
        parse_typecheck_us(&query, env)
    };
    let strategies = [
        Strategy::Shred,
        Strategy::ShredUnshred,
        Strategy::Standard,
        Strategy::Baseline,
    ];
    println!("Summary ratios (flattening / shredded), scale 0.3\n");
    for (family, depth) in [
        (Family::FlatToNested, 2usize),
        (Family::NestedToNested, 2),
        (Family::NestedToFlat, 2),
    ] {
        let rows = run_cell(
            &cfg,
            family,
            depth,
            QueryVariant::Wide,
            &strategies,
            3.0,
            headline,
        );
        let shred = &rows[0];
        let standard = &rows[2];
        let baseline = &rows[3];
        println!(
            "{:<18} depth {depth}: standard/shred = {:>9}, baseline/shred = {:>9}, shuffle standard/shred = {:.1}x",
            family.label(),
            ratio(standard.elapsed, shred.elapsed),
            ratio(baseline.elapsed, shred.elapsed),
            standard.stats.shuffled_bytes.max(1) as f64 / shred.stats.shuffled_bytes.max(1) as f64,
        );
        let query = format!("{family:?}-depth{depth}-Wide-scale0.3");
        let fe_us = front_end_us(family, QueryVariant::Wide);
        cells.extend(rows.into_iter().map(|row| JsonCell {
            query: query.clone(),
            exec: exec_label,
            expr: "compiled",
            spill: "off",
            results_match: None,
            parse_typecheck_us: fe_us,
            row,
        }));
    }
    // Optimizer-on vs optimizer-off at a scale where both runs complete: the
    // plan optimizer (column pruning + pushdown) must strictly reduce the
    // shuffled volume of the standard route vs the SparkSQL-like baseline.
    let rows = run_cell(
        &cfg,
        Family::NestedToNested,
        2,
        QueryVariant::Narrow,
        &[Strategy::Standard, Strategy::Baseline],
        3.0,
        headline,
    );
    println!(
        "NestedToNested     depth 2 (narrow): standard shuffle / baseline shuffle = {:.2}x",
        rows[0].stats.shuffled_bytes.max(1) as f64 / rows[1].stats.shuffled_bytes.max(1) as f64
    );
    let narrow_fe_us = front_end_us(Family::NestedToNested, QueryVariant::Narrow);
    cells.extend(rows.into_iter().map(|row| JsonCell {
        query: "NestedToNested-depth2-Narrow-scale0.3".to_string(),
        exec: exec_label,
        expr: "compiled",
        spill: "off",
        results_match: None,
        parse_typecheck_us: narrow_fe_us,
        row,
    }));

    // Pipelined-vs-staged executor pair: the Wide STANDARD cell (no memory
    // cap so both complete) through the morsel-driven fused pipelines and
    // through the staged one-materialization-per-operator oracle. The
    // pipelined executor must beat the staged wall clock at identical
    // logical shuffle volume (fusion moves no extra byte — it only removes
    // barriers and intermediate materializations), and typed batches must
    // ship at most half their row-equivalent logical bytes. Each side
    // reports its best of `PAIR_ROUNDS` interleaved runs
    // (`best_of_interleaved`, keyed on wall clock — the metric this pair
    // compares) over one input set both pairs share, its table-store cells
    // filled by an untimed run: with the dead columns pruned out of the
    // breakers, the row-local work the two pairs compare is ~1 ms of a
    // ~10 ms op, which three runs per side that each regenerate and
    // re-ingest their inputs cannot resolve.
    const PAIR_ROUNDS: usize = 60;
    let (pair_inputs, pair_spec) =
        tpch_input_set(&cfg, Family::NestedToNested, 2, QueryVariant::Wide, 0.0);
    let pair_run = |options: ExecOptions| {
        run_strategies(&pair_spec, &pair_inputs, &[Strategy::Standard], |_| {
            options.clone()
        })
        .remove(0)
    };
    pair_run(strategy_options(Strategy::Standard, false));
    let wide_n2n_fe_us = front_end_us(Family::NestedToNested, QueryVariant::Wide);
    let mut exec_walls: Vec<Option<std::time::Duration>> = Vec::new();
    let exec_sides = [("pipelined", true), ("staged", false)];
    let rows = best_of_interleaved(
        PAIR_ROUNDS,
        |side| {
            pair_run(ExecOptions {
                pipelined: exec_sides[side].1,
                ..strategy_options(Strategy::Standard, false)
            })
        },
        |r| r.elapsed.map_or(f64::INFINITY, |d| d.as_secs_f64()),
    );
    for ((exec, _), row) in exec_sides.into_iter().zip(rows) {
        println!(
            "executor {exec:>9}: STANDARD wide wall {} ms, \
             {} physical bytes ({} logical), {} morsels, {} steals",
            row.time_cell().trim(),
            row.stats.shuffled_bytes_phys,
            row.stats.shuffled_bytes,
            row.stats.total_morsels(),
            row.stats.steal_count,
        );
        exec_walls.push(row.elapsed);
        cells.push(JsonCell {
            query: "NestedToNested-depth2-Wide-scale0.3-exec".to_string(),
            exec,
            expr: "compiled",
            spill: "off",
            results_match: None,
            parse_typecheck_us: wide_n2n_fe_us,
            row,
        });
    }
    println!(
        "executor           wide STANDARD: staged / pipelined wall = {}",
        ratio(exec_walls[1], exec_walls[0])
    );

    // Compiled-kernel vs interpreted expression engine pair: the same Wide
    // STANDARD pipelined cell with scalar operators evaluated by
    // register-based vectorized kernel programs (the default) and by the
    // tree-walking interpreter. Both evaluate identical plans over identical
    // shuffles — the expr_agree suite proves byte-identical results — so the
    // pair isolates pure expression-evaluation time; the compiled side's
    // fused pipeline time must not regress past the interpreter's. Best of
    // `PAIR_ROUNDS` interleaved runs per side, selected on pipeline time
    // (the metric the pair compares).
    let mut expr_walls: Vec<(&str, Option<std::time::Duration>)> = Vec::new();
    let expr_sides = [("compiled", true), ("interp", false)];
    let rows = best_of_interleaved(
        PAIR_ROUNDS,
        |side| {
            pair_run(ExecOptions {
                compiled_exprs: expr_sides[side].1,
                ..strategy_options(Strategy::Standard, false)
            })
        },
        |r| r.stats.pipeline_ms(),
    );
    for ((expr_label, _), row) in expr_sides.into_iter().zip(rows) {
        println!(
            "expressions {expr_label:>9}: STANDARD wide wall {} ms, pipeline {:.1} ms, \
             {} kernel instrs over {} programs, {:.2} ms compile",
            row.time_cell().trim(),
            row.stats.pipeline_ms(),
            row.stats.expr_kernel_instrs,
            row.stats.expr_compiles(),
            row.stats.expr_compile_ms(),
        );
        expr_walls.push((expr_label, row.elapsed));
        cells.push(JsonCell {
            query: "NestedToNested-depth2-Wide-scale0.3-expr".to_string(),
            exec: "pipelined",
            expr: expr_label,
            spill: "off",
            results_match: None,
            parse_typecheck_us: wide_n2n_fe_us,
            row,
        });
    }
    if let (Some((_, compiled)), Some((_, interp))) = (
        expr_walls.iter().find(|(k, _)| *k == "compiled"),
        expr_walls.iter().find(|(k, _)| *k == "interp"),
    ) {
        println!(
            "expr engine        wide STANDARD: interp / compiled wall = {}",
            ratio(*interp, *compiled)
        );
    }

    // Skew: shuffle reduction of the skew-aware shredded join (Figure 8 claim).
    let skew_cfg = TpchConfig::new(0.3, 3);
    let rows = run_cell(
        &skew_cfg,
        Family::NestedToNested,
        2,
        QueryVariant::Narrow,
        &[Strategy::Shred, Strategy::ShredSkew],
        3.0,
        headline,
    );
    println!(
        "skew factor 3      depth 2: shred shuffle / shred-skew shuffle = {:.1}x",
        rows[0].stats.shuffled_bytes.max(1) as f64 / rows[1].stats.shuffled_bytes.max(1) as f64
    );
    cells.extend(rows.into_iter().map(|row| JsonCell {
        query: "NestedToNested-depth2-Narrow-scale0.3-skew3".to_string(),
        exec: exec_label,
        expr: "compiled",
        spill: "off",
        results_match: None,
        parse_typecheck_us: narrow_fe_us,
        row,
    }));

    // Capped mode: the paper's three FAIL cells re-run on a spill-capable
    // cluster — FAIL (spill off) next to ok-with-spill (spill on), the
    // paper's story plus the engineering answer to it. The spill-on result is
    // differentially checked against an uncapped in-memory oracle. The cap
    // is half the headline cells': since the optimizer prunes dead parent
    // columns below every breaker, Wide flat-to-nested STANDARD fits under
    // the headline cap and only exhausts memory from factor ~2 down.
    for cell in run_capped_cells(&cfg, 1.5) {
        let query = format!("{:?}-depth2-Wide-scale0.3-capped", cell.family);
        println!(
            "capped {:<15} {:>13}: spill off = {}, spill on = {} ms \
             ({} spilled bytes, {} files, {:.1} ms I/O, oracle match = {})",
            format!("{:?}", cell.family),
            cell.strategy.label(),
            cell.spill_off.time_cell().trim(),
            cell.spill_on.time_cell().trim(),
            cell.spill_on.stats.spilled_bytes,
            cell.spill_on.stats.spill_files,
            cell.spill_on.stats.spill_ms(),
            cell.results_match_uncapped,
        );
        let fe_us = front_end_us(cell.family, QueryVariant::Wide);
        cells.push(JsonCell::new(query.clone(), fe_us, cell.spill_off));
        cells.push(JsonCell {
            query,
            exec: "pipelined",
            expr: "compiled",
            spill: "on",
            results_match: Some(cell.results_match_uncapped),
            parse_typecheck_us: fe_us,
            row: cell.spill_on,
        });
    }

    // Query-as-a-service: the resident engine serving the mixed query set
    // closed-loop from four clients, then the cold-vs-warm compiled-plan-
    // cache A/B pair on the Wide STANDARD cell (cold clears the plan and
    // kernel caches before every sample; warm replays the cached plans and
    // must book zero compile time). Scale 0.1 keeps the added wall time
    // modest while leaving the per-query compile cost visible.
    let serve_cfg = TpchConfig::new(0.1, 0);
    let engine = serve_engine(&serve_cfg, 2, QueryVariant::Wide, 4);
    let serve_cases = serve_query_set(2, QueryVariant::Wide);
    let mixed = run_closed_loop(&engine, &serve_cases, 4, 2, "mixed-depth2-Wide-scale0.1");
    println!(
        "serving mixed set  4 clients: {:.1} qps, p50 {:.1} ms, p99 {:.1} ms, \
         cache hit {:.0}%",
        mixed.qps,
        mixed.p50_ms,
        mixed.p99_ms,
        mixed.cache_hit_rate * 100.0,
    );
    let (ab_spec, ab_strategy) = wide_standard_case(2);
    let (cold, warm) = run_cold_warm_pair(&engine, &ab_spec, ab_strategy, 7, "wide-standard");
    println!(
        "serving plan cache wide STANDARD: cold p50 {:.1} ms ({:.2} ms compile, \
         {} plans), warm p50 {:.1} ms ({:.2} ms compile, {} plans)",
        cold.p50_ms,
        cold.compile_ms,
        cold.plans_compiled,
        warm.p50_ms,
        warm.compile_ms,
        warm.plans_compiled,
    );
    let serve_rows = vec![mixed, cold, warm];

    let net_cells = run_net_cells();

    let json = render_json(&cells, &serve_rows, &net_cells);
    match std::fs::write("BENCH_summary.json", &json) {
        Ok(()) => println!(
            "\nwrote {} benchmark rows to BENCH_summary.json",
            cells.len()
        ),
        Err(e) => eprintln!("\nfailed to write BENCH_summary.json: {e}"),
    }
}
