//! Reproduces Figure 7 (a: narrow, b: wide): TPC-H query families at nesting
//! depths 0–4 under each strategy.
//!
//! Usage: `figure7 [--schema narrow|wide] [--family <name>|all] [--scale F] [--memory-factor F]
//! [--partitions N] [--memory BYTES] [--spill] [--staged] [--explain [--depth N]]`
//!
//! `--memory` sets an absolute per-worker cap (overriding the
//! input-proportional `--memory-factor`), `--partitions` the shuffle
//! partition count, and `--spill` enables the out-of-core subsystem so
//! capped cells complete (with spill metrics) instead of printing FAIL.
//!
//! With `--explain` the binary prints, instead of the timing table, the
//! optimized plans each strategy executes at `--depth` (default 2).

use trance_bench::{cli_arg, cli_flag, cli_tuning, run_strategies, tpch_input_set_tuned, Family};
use trance_compiler::{explain_query, Strategy};
use trance_tpch::{QueryVariant, TpchConfig};

fn main() {
    let schema = cli_arg("--schema", "narrow");
    let family_arg = cli_arg("--family", "all");
    let scale: f64 = cli_arg("--scale", "0.3").parse().unwrap();
    let memory_factor: f64 = cli_arg("--memory-factor", "3.0").parse().unwrap();
    let tuning = cli_tuning();
    let variant = if schema == "wide" {
        QueryVariant::Wide
    } else {
        QueryVariant::Narrow
    };
    let families: Vec<Family> = if family_arg == "all" {
        Family::all().to_vec()
    } else {
        vec![Family::parse(&family_arg).expect("unknown family")]
    };
    let strategies = [
        Strategy::ShredUnshred,
        Strategy::Shred,
        Strategy::Standard,
        Strategy::Baseline,
    ];
    if cli_flag("--explain") {
        let depth: usize = cli_arg("--depth", "2").parse().unwrap();
        let cfg = TpchConfig::new(scale, 0);
        for family in families {
            let (inputs, spec) =
                tpch_input_set_tuned(&cfg, family, depth, variant, memory_factor, &tuning);
            for s in &strategies {
                match explain_query(&spec, &inputs, *s) {
                    Ok(text) => println!("{text}\n"),
                    Err(e) => println!("== {} · {} == run failed: {e}\n", spec.name, s.label()),
                }
            }
        }
        return;
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
                tpch_input_set_tuned(&cfg, family, depth, variant, memory_factor, &tuning);
            let rows = run_strategies(&spec, &inputs, &strategies, |s| tuning.options(s));
            print!("{depth:>6}");
            for r in &rows {
                print!(" | {} {}", r.time_cell(), r.shuffle_cell());
            }
            println!();
        }
        println!();
    }
}
