//! Reproduces Figure 7 (a: narrow, b: wide): TPC-H query families at nesting
//! depths 0–4 under each strategy.
//!
//! `--memory` sets an absolute per-worker cap (overriding the
//! input-proportional `--memory-factor`), `--partitions` the shuffle
//! partition count, and `--spill` enables the out-of-core subsystem so
//! capped cells complete (with spill metrics) instead of printing FAIL.
//!
//! With `--explain` the binary prints, instead of the timing table, the
//! optimized plans each strategy executes at `--depth` (default 2).

use std::process::ExitCode;

use trance_bench::{exit_code, run_strategies, tpch_input_set_tuned, Cli, Family};
use trance_compiler::{explain_query, Strategy};
use trance_tpch::{QueryVariant, TpchConfig};

const USAGE: &str = "figure7 [--schema narrow|wide] \
    [--family flat-to-nested|nested-to-nested|nested-to-flat|all] [--scale F] \
    [--memory-factor F] [--partitions N] [--memory BYTES] [--spill] [--faults SPEC] \
    [--explain [--depth N]]";

fn main() -> ExitCode {
    exit_code(run(&Cli::from_env(USAGE)))
}

fn run(cli: &Cli) -> trance_dist::Result<()> {
    let (schema, variant) = cli
        .value_with("--schema", |raw| match raw {
            "narrow" => Ok(("narrow", QueryVariant::Narrow)),
            "wide" => Ok(("wide", QueryVariant::Wide)),
            _ => Err("expected `narrow` or `wide`".to_string()),
        })
        .unwrap_or(("narrow", QueryVariant::Narrow));
    let families = cli
        .value_with("--family", |raw| match raw {
            "all" => Ok(Family::all().to_vec()),
            name => Family::parse(name)
                .map(|family| vec![family])
                .ok_or_else(|| "unknown family".to_string()),
        })
        .unwrap_or_else(|| Family::all().to_vec());
    let scale: f64 = cli.value("--scale", 0.3);
    let memory_factor: f64 = cli.value("--memory-factor", 3.0);
    let tuning = cli.tuning();
    let strategies = [
        Strategy::ShredUnshred,
        Strategy::Shred,
        Strategy::Standard,
        Strategy::Baseline,
    ];
    if cli.flag("--explain") {
        let depth: usize = cli.value("--depth", 2);
        let cfg = TpchConfig::new(scale, 0);
        for family in families {
            let (inputs, spec) =
                tpch_input_set_tuned(&cfg, family, depth, variant, memory_factor, &tuning)?;
            for s in &strategies {
                match explain_query(&spec, &inputs, *s) {
                    Ok(text) => println!("{text}\n"),
                    Err(e) => println!("== {} · {} == run failed: {e}\n", spec.name, s.label()),
                }
            }
        }
        return Ok(());
    }
    println!("Figure 7 ({schema} schema), scale {scale}, memory factor {memory_factor}");
    println!("runtimes in ms, shuffle in MiB; FAIL = simulated worker memory exhausted\n");
    for family in families {
        println!("== {} ==", family.label());
        print!("{:>6}", "depth");
        for s in &strategies {
            print!(" | {:>8} {:>7}", s.label(), "shufMiB");
        }
        println!();
        for depth in 0..=4usize {
            let cfg = TpchConfig::new(scale, 0);
            let (inputs, spec) =
                tpch_input_set_tuned(&cfg, family, depth, variant, memory_factor, &tuning)?;
            let rows = run_strategies(&spec, &inputs, &strategies);
            print!("{depth:>6}");
            for r in &rows {
                print!(" | {} {}", r.time_cell(), r.shuffle_cell());
            }
            println!();
        }
        println!();
    }
    Ok(())
}
