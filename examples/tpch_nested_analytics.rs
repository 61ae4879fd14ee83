//! TPC-H nested analytics: build the customer->order->lineitem hierarchy from
//! the flat tables, then run the nested-to-nested aggregation query under all
//! strategies and report runtimes and shuffle volume (a one-cell slice of
//! Figure 7).
//!
//! Run with `cargo run --release --example tpch_nested_analytics`.

use trance::compiler::Strategy;
use trance::tpch::{QueryVariant, TpchConfig};
use trance_bench::{run_tpch_query, Family};

fn main() -> trance::dist::Result<()> {
    let cfg = TpchConfig::new(0.2, 0);
    println!("TPC-H nested-to-nested (depth 2, narrow), scale 0.2\n");
    let strategies = [
        Strategy::Shred,
        Strategy::ShredUnshred,
        Strategy::Standard,
        Strategy::Baseline,
    ];
    let rows = run_tpch_query(
        &cfg,
        Family::NestedToNested,
        2,
        QueryVariant::Narrow,
        &strategies,
        0.0,
    )?;
    for r in rows {
        println!(
            "{:>16}: {} ms   shuffled {} tuples ({:.2} MiB)",
            r.strategy.label(),
            r.time_cell().trim(),
            r.stats.shuffled_tuples,
            r.stats.shuffled_mib()
        );
    }
    Ok(())
}
