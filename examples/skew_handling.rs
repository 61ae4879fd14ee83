//! Skew handling: generate increasingly skewed TPC-H data and compare the
//! skew-aware shredded pipeline against the skew-unaware one (a slice of
//! Figure 8), reporting shuffle volumes.
//!
//! Run with `cargo run --release --example skew_handling`.

use trance::compiler::Strategy;
use trance::tpch::{QueryVariant, TpchConfig};
use trance_bench::{run_tpch_query, Family};

fn main() -> trance::dist::Result<()> {
    println!("Nested-to-nested narrow, depth 2, skew factors 0-4 (scale 0.2)\n");
    for skew in 0..=4u32 {
        let cfg = TpchConfig::new(0.2, skew);
        let rows = run_tpch_query(
            &cfg,
            Family::NestedToNested,
            2,
            QueryVariant::Narrow,
            &[Strategy::Shred, Strategy::ShredSkew, Strategy::Standard],
            0.0,
        )?;
        println!(
            "skew {skew}: shred={} ms ({:.2} MiB)  shred-skew={} ms ({:.2} MiB)  standard={} ms ({:.2} MiB)",
            rows[0].time_cell().trim(), rows[0].stats.shuffled_mib(),
            rows[1].time_cell().trim(), rows[1].stats.shuffled_mib(),
            rows[2].time_cell().trim(), rows[2].stats.shuffled_mib(),
        );
    }
    Ok(())
}
