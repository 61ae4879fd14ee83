//! Biomedical end-to-end pipeline (Figure 9): run the five-step driver-gene
//! scoring pipeline over the synthetic ICGC-shaped datasets under the
//! shredded and standard strategies.
//!
//! Run with `cargo run --release --example biomedical_pipeline`.

use trance::biomed::BiomedConfig;
use trance::compiler::Strategy;
use trance_bench::{run_biomed_pipeline_tuned, ClusterTuning};

fn main() -> trance::dist::Result<()> {
    let cfg = BiomedConfig::small();
    for strategy in [Strategy::Shred, Strategy::Standard] {
        let row = run_biomed_pipeline_tuned(&cfg, strategy, 0.0, &ClusterTuning::default())?;
        println!("== {} ==", strategy.label());
        for (step, d) in &row.steps {
            match d {
                Some(d) => println!("  {step}: {:.1} ms", d.as_secs_f64() * 1000.0),
                None => println!("  {step}: FAIL"),
            }
        }
        println!(
            "  total: {:.1} ms, shuffled {:.2} MiB\n",
            row.total().as_secs_f64() * 1000.0,
            row.shuffled_bytes as f64 / (1024.0 * 1024.0)
        );
    }
    Ok(())
}
