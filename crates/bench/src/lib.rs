//! # trance-bench
//!
//! The benchmark harness that regenerates every figure of the paper's
//! evaluation (Section 6) on the simulated cluster:
//!
//! * `figure7` — the TPC-H micro-benchmark: flat-to-nested, nested-to-nested
//!   and nested-to-flat queries at nesting depths 0–4, narrow and wide
//!   (Figure 7a / 7b);
//! * `figure8` — the skew experiment: nested-to-nested narrow at depth 2 for
//!   skew factors 0–4, with and without skew-aware operators (Figure 8);
//! * `figure9` — the biomedical end-to-end pipeline, per step, small and full
//!   datasets (Figure 9);
//! * `summary` — the headline ratios quoted in the experiment summary;
//! * `serve` — the closed-loop multi-client serving benchmark over the
//!   resident query-as-a-service engine: sustained QPS, latency percentiles
//!   and the compiled-plan-cache cold-vs-warm A/B pair.
//!
//! Each binary prints a table with one line per configuration: runtime in
//! milliseconds (or `FAIL` when the run exceeded the simulated per-worker
//! memory cap) and shuffled mebibytes per strategy.

#![warn(missing_docs)]

pub mod harness;
pub mod serve;

pub use harness::{
    best_of_interleaved, biomed_input_set, biomed_input_set_tuned, default_cluster,
    default_cluster_tuned, explain_biomed_pipeline, materialize_nested_input, parse_typecheck_us,
    run_biomed_pipeline, run_biomed_pipeline_tuned, run_capped_cells, run_strategies,
    run_tpch_query, tpch_input_set, tpch_input_set_tuned, tpch_type_env, BenchRow, CappedCell,
    ClusterTuning, Family, PipelineRow,
};
pub use serve::{
    run_closed_loop, run_cold_warm_pair, serve_engine, serve_query_set, wide_standard_case,
    ServeRow,
};

/// Returns the value following `name` on the command line, or `default`
/// (shared argument parsing of the figure binaries).
pub fn cli_arg(name: &str, default: &str) -> String {
    cli_opt(name).unwrap_or_else(|| default.to_string())
}

/// Returns the value following `name` on the command line, if present.
pub fn cli_opt(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// True when `name` appears anywhere on the command line.
pub fn cli_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Parses the cluster-shape flags shared by every figure binary:
/// `--partitions N`, `--memory BYTES` (an absolute per-worker cap overriding
/// `--memory-factor`), `--spill` (enable the out-of-core subsystem) and
/// `--staged` (disable fused pipelines and run the staged
/// one-materialization-per-operator executor — the A side of pipelined
/// vs. staged A/B runs) and `--faults SPEC` (arm the deterministic fault
/// injector, e.g. `--faults 42` or
/// `--faults seed=42,morsel=0.02,once=spill_read@3`; the `TRANCE_FAULT_SEED`
/// environment variable supplies the spec when the flag is absent), so
/// capped, spilling, A/B and chaos runs are reproducible from the command
/// line.
pub fn cli_tuning() -> ClusterTuning {
    ClusterTuning {
        partitions: cli_opt("--partitions").map(|v| v.parse().expect("--partitions N")),
        memory_bytes: cli_opt("--memory").map(|v| v.parse().expect("--memory BYTES")),
        spill: cli_flag("--spill"),
        staged: cli_flag("--staged"),
        faults: cli_opt("--faults"),
    }
}
