//! Reproduces Figure 8: the nested-to-nested narrow query with two levels of
//! nesting on increasingly skewed datasets (skew factor 0–4), with and without
//! skew-aware processing.
//!
//! With `--explain` the binary prints, instead of the timing table, the
//! optimized plans each strategy executes at skew factor `--skew` (default 3)
//! — a skew-aware strategy's plans are its plain twin's, and its `-- shuffle`
//! line counts the heavy-key broadcasts.

use std::process::ExitCode;

use trance_bench::{exit_code, run_strategies, tpch_input_set_tuned, Cli, Family};
use trance_compiler::{explain_query, Strategy};
use trance_tpch::{QueryVariant, TpchConfig};

const USAGE: &str = "figure8 [--scale F] [--memory-factor F] [--partitions N] [--memory BYTES] \
    [--spill] [--explain [--skew N]]";

fn main() -> ExitCode {
    exit_code(run(&Cli::from_env(USAGE)))
}

fn run(cli: &Cli) -> trance_dist::Result<()> {
    let scale: f64 = cli.value("--scale", 0.3);
    let memory_factor: f64 = cli.value("--memory-factor", 3.0);
    let tuning = cli.tuning();
    let strategies = [
        Strategy::ShredUnshred,
        Strategy::Shred,
        Strategy::Standard,
        Strategy::Baseline,
        Strategy::ShredUnshredSkew,
        Strategy::ShredSkew,
        Strategy::StandardSkew,
    ];
    if cli.flag("--explain") {
        let skew: u32 = cli.value("--skew", 3);
        let cfg = TpchConfig::new(scale, skew);
        let (inputs, spec) = tpch_input_set_tuned(
            &cfg,
            Family::NestedToNested,
            2,
            QueryVariant::Narrow,
            memory_factor,
            &tuning,
        )?;
        for s in &strategies {
            match explain_query(&spec, &inputs, *s) {
                Ok(text) => println!("{text}\n"),
                Err(e) => println!("== {} · {} == run failed: {e}\n", spec.name, s.label()),
            }
        }
        return Ok(());
    }
    println!("Figure 8: nested-to-nested narrow, depth 2, skew factors 0-4 (scale {scale})");
    println!("runtimes in ms, shuffle in MiB; FAIL = simulated worker memory exhausted\n");
    print!("{:>5}", "skew");
    for s in &strategies {
        print!(" | {:>18} {:>7}", s.label(), "shufMiB");
    }
    println!();
    for skew in 0..=4u32 {
        let cfg = TpchConfig::new(scale, skew);
        let (inputs, spec) = tpch_input_set_tuned(
            &cfg,
            Family::NestedToNested,
            2,
            QueryVariant::Narrow,
            memory_factor,
            &tuning,
        )?;
        let rows = run_strategies(&spec, &inputs, &strategies);
        print!("{skew:>5}");
        for r in &rows {
            print!(" | {:>18} {}", r.time_cell(), r.shuffle_cell());
        }
        println!();
    }
    Ok(())
}
