//! Reproduces Figure 9: the five-step biomedical end-to-end pipeline on the
//! small and full datasets, per strategy and per step.
//!
//! With `--explain` the binary prints, instead of the timing table, the
//! optimized plans each pipeline step executes per strategy (small dataset).

use std::process::ExitCode;

use trance_bench::{exit_code, explain_biomed_pipeline, run_biomed_pipeline_tuned, Cli};
use trance_biomed::BiomedConfig;
use trance_compiler::Strategy;

const USAGE: &str = "figure9 [--memory-factor F] [--scale F] [--partitions N] [--memory BYTES] \
    [--spill] [--explain]";

fn main() -> ExitCode {
    exit_code(run(&Cli::from_env(USAGE)))
}

fn run(cli: &Cli) -> trance_dist::Result<()> {
    let memory_factor: f64 = cli.value("--memory-factor", 12.0);
    let scale: f64 = cli.value("--scale", 1.0);
    let tuning = cli.tuning();
    let strategies = [Strategy::Shred, Strategy::Standard, Strategy::Baseline];
    if cli.flag("--explain") {
        let cfg = BiomedConfig::small().scaled(scale);
        for strategy in strategies {
            for (step, text) in explain_biomed_pipeline(&cfg, strategy, memory_factor)? {
                println!("### step {step} ({})", strategy.label());
                println!("{text}\n");
            }
        }
        return Ok(());
    }
    for (label, cfg) in [
        ("SMALL DATASET", BiomedConfig::small().scaled(scale)),
        ("FULL DATASET", BiomedConfig::full().scaled(scale)),
    ] {
        println!("== Figure 9: E2E pipeline, {label} ==");
        for strategy in strategies {
            let row = run_biomed_pipeline_tuned(&cfg, strategy, memory_factor, &tuning)?;
            print!("{:>14}:", strategy.label());
            for (step, d) in &row.steps {
                match d {
                    Some(d) => print!("  {step}={:.1}ms", d.as_secs_f64() * 1000.0),
                    None => print!("  {step}=FAIL"),
                }
            }
            println!(
                "  | total={:.1}ms shuffled={:.2}MiB{}",
                row.total().as_secs_f64() * 1000.0,
                row.shuffled_bytes as f64 / (1024.0 * 1024.0),
                if row.failed() { "  [FAILED]" } else { "" }
            );
        }
        println!();
    }
    Ok(())
}
